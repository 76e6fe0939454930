//! Property tests for the metrics plane over *random* programs: the
//! contracts in `tests/metrics_plane.rs` hold for the standard suite,
//! these check they hold for any op mix the runtime accepts.

use hcc::prelude::*;
use hcc::runtime::{KernelDesc, ManagedAccess};
use hcc::trace::{Gauge, KernelId, OrderedGauge, Series};
use hcc_bench::engine::ExperimentEngine;
use hcc_check::strategy::{u64s, u8s, vecs};
use hcc_check::{ensure, ensure_eq, forall, Config};
use hcc_workloads::spec::{Op, Suite, WorkloadSpec};
use hcc_workloads::{runner, Scenario};

const CASES: u32 = 16;

/// Drives one random op program through a context; returns it synced.
fn drive(ops: &[u8], cc: CcMode, seed: u64, metrics: bool) -> CudaContext {
    let mut ctx = CudaContext::new(SimConfig::new(cc).with_seed(seed).with_metrics(metrics));
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

/// Observation is free for arbitrary programs: same seed, same ops,
/// metrics on vs off -> bit-identical trace and clock.
#[test]
fn metrics_never_perturb_any_program() {
    forall!(
        Config::new(0x0B5_0001).with_cases(CASES),
        (ops, seed, cc) in (vecs(u8s(0..5), 1..24), u64s(0..u64::MAX), u8s(0..2)) => {
            let cc = if cc == 0 { CcMode::Off } else { CcMode::On };
            let off = drive(&ops, cc, seed, false);
            let on = drive(&ops, cc, seed, true);
            ensure_eq!(off.timeline(), on.timeline());
            ensure_eq!(off.now(), on.now());
            ensure!(off.metrics_snapshot().is_none());
            ensure!(on.metrics_snapshot().is_some());
        }
    );
}

/// Conservation: after a fully-synchronized program, every gauge drains
/// back to zero (nothing stays queued, resident, or in flight), and the
/// runtime queue integrals reproduce the trace's phase totals exactly.
#[test]
fn gauges_conserve_and_integrals_attribute() {
    forall!(
        Config::new(0x0B5_0002).with_cases(CASES),
        (ops, seed) in (vecs(u8s(0..5), 1..24), u64s(0..u64::MAX)) => {
            let ctx = drive(&ops, CcMode::On, seed, true);
            let set = ctx.metrics_snapshot().unwrap();
            for series in &set.gauges {
                ensure!(
                    series.final_value() == 0,
                    "{} did not drain (final {})",
                    series.name,
                    series.final_value()
                );
            }
            let lm = ctx.timeline().launch_metrics();
            ensure_eq!(
                set.gauge_integral("runtime.launch_queue").unwrap(),
                lm.total_lqt()
            );
            ensure_eq!(
                set.gauge_integral("runtime.kernel_queue").unwrap(),
                lm.total_kqt()
            );
            ensure_eq!(
                set.gauge_integral("runtime.kernel_active").unwrap(),
                lm.total_ket()
            );
        }
    );
}

/// Seeded replay is deterministic at any worker count: random ad-hoc
/// scenarios produce identical snapshots from a serial engine and a
/// parallel one.
#[test]
fn obs_replay_is_worker_count_invariant() {
    forall!(
        Config::new(0x0B5_0003).with_cases(8),
        (kinds, seed) in (vecs(u8s(0..5), 2..12), u64s(0..u64::MAX)) => {
            let mut ops = vec![
                Op::MallocHost { slot: 0, size: ByteSize::mib(2), kind: HostMemKind::Pinned },
                Op::MallocDevice { slot: 1, size: ByteSize::mib(2) },
                Op::MallocManaged { slot: 2, size: ByteSize::mib(2) },
            ];
            for (i, k) in kinds.iter().enumerate() {
                ops.push(match k % 5 {
                    0 => Op::H2D { dst: 1, src: 0, bytes: ByteSize::mib(2) },
                    1 => Op::D2H { dst: 0, src: 1, bytes: ByteSize::mib(2) },
                    2 => Op::Launch {
                        kernel: i as u32,
                        ket: SimDuration::micros(40),
                        managed: vec![],
                        repeat: 1,
                    },
                    3 => Op::Launch {
                        kernel: i as u32,
                        ket: SimDuration::micros(80),
                        managed: vec![2],
                        repeat: 2,
                    },
                    _ => Op::Sync,
                });
            }
            let spec = WorkloadSpec { name: "obs-prop", suite: Suite::Micro, uvm: false, ops };
            let cfg = SimConfig::new(CcMode::On).with_seed(seed).with_metrics(true);
            let batch = vec![Scenario::adhoc(spec.clone(), cfg.clone())];
            let serial = ExperimentEngine::new(1).run_all(&batch);
            let parallel = ExperimentEngine::new(3).run_all(&batch);
            let direct = runner::run(&spec, cfg).unwrap();
            let s = serial[0].expect_run();
            let p = parallel[0].expect_run();
            ensure_eq!(s.timeline, p.timeline);
            ensure_eq!(s.metrics, p.metrics);
            ensure_eq!(s.metrics, direct.metrics);
        }
    );
}

/// The reference materialization: clone the change-points, stable-sort
/// them by time, fold each instant into its final value, then drop the
/// instants that leave the value where it was.
fn sorted_reference(name: &str, deltas: &[(SimTime, i64)]) -> Series {
    let mut deltas = deltas.to_vec();
    deltas.sort_by_key(|(t, _)| *t);
    let mut samples: Vec<(SimTime, i64)> = Vec::new();
    let mut value = 0i64;
    for (t, d) in deltas {
        value += d;
        match samples.last_mut() {
            Some((last_t, last_v)) if *last_t == t => *last_v = value,
            _ => samples.push((t, value)),
        }
    }
    let mut prev = 0i64;
    samples.retain(|&(_, v)| {
        let keep = v != prev;
        if keep {
            prev = v;
        }
        keep
    });
    Series {
        name: name.to_string(),
        samples,
    }
}

fn recorded(deltas: &[(SimTime, i64)]) -> Gauge {
    let mut g = Gauge::enabled();
    for &(t, d) in deltas {
        g.add(t, d);
    }
    g
}

/// `Gauge::series` gives the reference series on both of its paths: the
/// in-order path (change-points recorded in time order, merged without a
/// copy or sort) and the sorting path (any other recording order). The
/// inputs crowd few instants with small signed deltas, so same-instant
/// `+n`/`-n` pairs cancel, zero deltas occur, and gauges are often empty.
#[test]
fn gauge_in_order_fast_path_matches_the_sorted_reference() {
    forall!(
        Config::new(0x0B5_0004).with_cases(64),
        (raw, cancel) in (vecs((u64s(0..16), u64s(0..7)), 0..40), u64s(0..4)) => {
            let mut deltas: Vec<(SimTime, i64)> = raw
                .iter()
                .map(|&(t, d)| (SimTime::from_nanos(t), d as i64 - 3))
                .collect();
            // An explicit same-instant pair that cancels to no change.
            let t = SimTime::from_nanos(cancel * 5);
            deltas.extend([(t, 2), (t, -2)]);
            let want = sorted_reference("g", &deltas);

            let unsorted = recorded(&deltas);
            ensure_eq!(unsorted.series("g"), want);

            let mut in_order = deltas.clone();
            in_order.sort_by_key(|(t, _)| *t);
            ensure_eq!(recorded(&in_order).series("g"), want);
        }
    );
    assert_eq!(Gauge::enabled().series("e"), sorted_reference("e", &[]));
    let t = SimTime::from_nanos(7);
    assert!(recorded(&[(t, 0), (t, 3), (t, -3)]).series("z").is_empty());
}

/// `OrderedGauge::finish` is `Gauge::series` over any time-ordered
/// record stream, and holds no spare capacity. Ops `(kind, step, delta,
/// len)` advance a cursor by `step` (often 0, so instants crowd into
/// same-instant groups); kind 0 is `add(cursor, delta)`, kind 1 is
/// `occupy_n(cursor, cursor + len, delta)` and moves the cursor to its
/// end (`len == 0` is a zero-length interval). Deltas span `-3..=3`, so
/// zero deltas and groups netting to zero both occur.
#[test]
fn ordered_gauge_matches_gauge_series() {
    forall!(
        Config::new(0x0B5_0005).with_cases(128),
        (ops, cancel) in (vecs((u64s(0..2), u64s(0..3), u64s(0..7), u64s(0..3)), 0..48), u64s(0..2)) => {
            let mut ordered = OrderedGauge::new();
            let mut reference = Gauge::enabled();
            let mut cursor = SimTime::ZERO;
            for &(kind, step, delta, len) in &ops {
                cursor += SimDuration::from_nanos(step);
                let delta = delta as i64 - 3;
                if kind == 0 {
                    ordered.add(cursor, delta);
                    reference.add(cursor, delta);
                } else {
                    let end = cursor + SimDuration::from_nanos(len);
                    ordered.occupy_n(cursor, end, delta);
                    reference.occupy_n(cursor, end, delta);
                    cursor = end;
                }
            }
            // A trailing same-instant pair that nets to no change.
            if cancel == 1 {
                for d in [4, -4] {
                    ordered.add(cursor, d);
                    reference.add(cursor, d);
                }
            }
            let got = ordered.finish("g");
            ensure_eq!(got, reference.series("g"));
            ensure_eq!(got.samples.capacity(), got.samples.len());
        }
    );
    assert_eq!(
        OrderedGauge::new().finish("e"),
        Gauge::enabled().series("e")
    );
}

#[test]
#[should_panic(expected = "out of time order")]
fn ordered_gauge_rejects_an_earlier_instant() {
    let mut g = OrderedGauge::new();
    g.add(SimTime::from_nanos(5), 1);
    g.add(SimTime::from_nanos(4), 1);
}

#[test]
#[should_panic(expected = "out of time order")]
fn ordered_gauge_rejects_a_record_inside_an_occupied_interval() {
    let mut g = OrderedGauge::new();
    g.occupy_n(SimTime::from_nanos(0), SimTime::from_nanos(10), 2);
    g.add(SimTime::from_nanos(5), 1);
}
