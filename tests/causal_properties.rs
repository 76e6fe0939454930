//! Property tests for the causal plane over *random* programs: causal
//! edge collection must observe without perturbing (like the metrics
//! plane, `tests/metrics_properties.rs`), the collected DAG must be
//! well-formed, and the critical path extracted from any trace must
//! satisfy the attribution identity Σ segments == P.

use hcc::prelude::*;
use hcc::runtime::{KernelDesc, ManagedAccess};
use hcc::trace::{critpath, KernelId};
use hcc_check::strategy::{u64s, u8s, vecs};
use hcc_check::{ensure, ensure_eq, forall, Config};

const CASES: u32 = 16;

/// Drives one random op program through a context; returns it synced.
fn drive(ops: &[u8], cc: CcMode, seed: u64, causal: bool) -> CudaContext {
    let mut ctx = CudaContext::new(SimConfig::new(cc).with_seed(seed).with_causal(causal));
    let size = ByteSize::mib(2);
    let h = ctx.malloc_host(size, HostMemKind::Pinned).unwrap();
    let d = ctx.malloc_device(size).unwrap();
    let m = ctx.malloc_managed(size).unwrap();
    for (i, op) in ops.iter().enumerate() {
        match op % 5 {
            0 => {
                ctx.memcpy_h2d(d, h, size).unwrap();
            }
            1 => {
                ctx.memcpy_d2h(h, d, size).unwrap();
            }
            2 => {
                ctx.launch_kernel(
                    &KernelDesc::new(KernelId(i as u32), SimDuration::micros(40)),
                    ctx.default_stream(),
                )
                .unwrap();
            }
            3 => {
                ctx.launch_kernel(
                    &KernelDesc::new(KernelId(i as u32), SimDuration::micros(80))
                        .with_managed(ManagedAccess::all(m)),
                    ctx.default_stream(),
                )
                .unwrap();
            }
            _ => {
                ctx.synchronize();
            }
        }
    }
    ctx.synchronize();
    ctx
}

/// Collection is free for arbitrary programs: same seed, same ops,
/// causal on vs off -> bit-identical trace and clock; only the DAG is
/// extra.
#[test]
fn causal_never_perturbs_any_program() {
    forall!(
        Config::new(0xCA5_0001).with_cases(CASES),
        (ops, seed, cc) in (vecs(u8s(0..5), 1..24), u64s(0..u64::MAX), u8s(0..2)) => {
            let cc = if cc == 0 { CcMode::Off } else { CcMode::On };
            let off = drive(&ops, cc, seed, false);
            let on = drive(&ops, cc, seed, true);
            ensure_eq!(off.timeline(), on.timeline());
            ensure_eq!(off.now(), on.now());
            ensure!(off.causal_graph().is_empty(), "disabled graph collected edges");
        }
    );
}

/// Every recorded edge is well-formed: endpoints resolve to recorded
/// events, sources precede targets in recording order (so the DAG is
/// acyclic by construction), and no edge points backwards in time.
#[test]
fn causal_edges_are_well_formed() {
    forall!(
        Config::new(0xCA5_0002).with_cases(CASES),
        (ops, seed, cc) in (vecs(u8s(0..5), 1..24), u64s(0..u64::MAX), u8s(0..2)) => {
            let cc = if cc == 0 { CcMode::Off } else { CcMode::On };
            let ctx = drive(&ops, cc, seed, true);
            let graph = ctx.causal_graph();
            ensure!(graph.is_acyclic());
            for e in graph.edges() {
                let from = ctx.timeline().get(e.from);
                let to = ctx.timeline().get(e.to);
                ensure!(from.is_some() && to.is_some(), "dangling edge endpoint");
                ensure!(e.from.0 < e.to.0, "edge against recording order");
                ensure!(
                    to.unwrap().end >= from.unwrap().end,
                    "edge points backwards in time ({:?})",
                    e.kind
                );
            }
        }
    );
}

/// The acceptance gate for the explainer: every standard-suite app, in
/// both modes, extracts a critical path whose identity holds (asserted
/// inside `explain_one` per app/mode) and whose per-resource deltas sum
/// to ΔP — across both the UVM and non-UVM populations.
#[test]
fn explainer_covers_the_full_suite_with_identity() {
    let (rows, failures) = hcc_bench::explain::explain_all(&hcc_bench::lab::Lab::new(2));
    assert!(failures.is_empty(), "suite apps failed: {failures:?}");
    assert_eq!(rows.len(), hcc_workloads::suites::all().len());
    assert!(rows.iter().any(|e| e.uvm) && rows.iter().any(|e| !e.uvm));
    for e in &rows {
        assert!(e.deltas_sum_to_delta_p(), "{}: deltas != ΔP", e.app);
    }
}

/// The critical path of any program satisfies the enforced identity:
/// time-monotonic, gap-free segments partitioning exactly the observed
/// span, with the per-resource attribution summing to P.
#[test]
fn critical_path_identity_on_any_program() {
    forall!(
        Config::new(0xCA5_0003).with_cases(CASES),
        (ops, seed, cc) in (vecs(u8s(0..5), 1..24), u64s(0..u64::MAX), u8s(0..2)) => {
            let cc = if cc == 0 { CcMode::Off } else { CcMode::On };
            let ctx = drive(&ops, cc, seed, true);
            let path = critpath::extract(ctx.timeline(), ctx.causal_graph());
            ensure!(path.identity_holds());
            ensure_eq!(path.span(), ctx.timeline().span());
            ensure_eq!(path.attribution().total(), ctx.timeline().span());
            let mut cursor = path.first();
            for s in path.segments() {
                ensure_eq!(s.start, cursor);
                ensure!(s.end > s.start, "segments must have positive width");
                cursor = s.end;
            }
            ensure_eq!(cursor, path.last());
            for id in path.events_on_path() {
                ensure!(ctx.timeline().get(id).is_some(), "path cites unknown event");
            }
        }
    );
}
