//! Observational-equivalence properties for the arena [`Timeline`].
//!
//! The timeline folds fixed-size aggregates into running state at push
//! time (min/max span words, memory-path sums, launch-path sums and
//! counts), derives launch/kernel records from its events on read,
//! answers joins with sorted merges and binary-search sweeps, and
//! memoizes `phase_totals()` until the next push. All of that is
//! supposed to be *invisible*: each accessor must return byte-identical
//! results to a naive reference that re-scans the raw event list on
//! every query. These properties pin that contract, both over real
//! programs driven through [`CudaContext`] in both CC modes and over
//! adversarial hand-built event lists (out-of-order pushes, kernels
//! before their launches, duplicated correlations, overlapping spans)
//! that real programs never produce.

use hcc_check::strategy::{u64s, u8s, vecs};
use hcc_check::{ensure, ensure_eq, forall, Config};
use hcc_runtime::{CudaContext, KernelDesc, ManagedAccess, SimConfig};
use hcc_trace::{
    EventKind, KernelId, KernelRecord, LaunchMetrics, LaunchRecord, MemMetrics, PhaseTotals,
    StreamId, Timeline, TraceEvent,
};
use hcc_types::{ByteSize, CcMode, CopyKind, HostMemKind, MemSpace, SimDuration, SimTime};

// ---------------------------------------------------------------------
// Reference implementation: full scans over `Timeline::events()`.
// ---------------------------------------------------------------------

fn ref_span(events: &[TraceEvent]) -> SimDuration {
    let min = events.iter().map(|e| e.start).min();
    let max = events.iter().map(|e| e.end).max();
    match (min, max) {
        (Some(s), Some(e)) => e.saturating_since(s),
        _ => SimDuration::ZERO,
    }
}

fn ref_mem(events: &[TraceEvent]) -> MemMetrics {
    let mut m = MemMetrics::default();
    for e in events {
        match &e.kind {
            EventKind::Memcpy {
                kind,
                bytes,
                managed,
                ..
            } => {
                match kind {
                    CopyKind::H2D => m.h2d += e.duration(),
                    CopyKind::D2H => m.d2h += e.duration(),
                    CopyKind::D2D => m.d2d += e.duration(),
                }
                m.copy_bytes += *bytes;
                if *managed {
                    m.managed_copy += e.duration();
                }
            }
            EventKind::Alloc { space, .. } => match space {
                MemSpace::Host => m.hmalloc += e.duration(),
                MemSpace::Device => m.dmalloc += e.duration(),
                MemSpace::Managed => m.managed_alloc += e.duration(),
            },
            EventKind::Free { space, .. } => match space {
                MemSpace::Managed => m.managed_free += e.duration(),
                _ => m.free += e.duration(),
            },
            EventKind::Sync => m.sync += e.duration(),
            EventKind::Crypto { bytes, .. } => {
                m.crypto += e.duration();
                m.crypto_bytes += *bytes;
            }
            EventKind::Hypercall { .. } => {
                m.hypercalls += 1;
                m.hypercall_time += e.duration();
            }
            EventKind::UvmFault {
                pages, page_size, ..
            } => {
                m.uvm_fault += e.duration();
                m.uvm_pages += u64::from(*pages);
                m.uvm_bytes += ByteSize::bytes(u64::from(*pages) * u64::from(*page_size));
            }
            EventKind::FaultInjected { attempts, .. } => {
                m.faults_injected += u64::from(*attempts);
                m.fault_time += e.duration();
            }
            EventKind::Retry { .. } => {
                m.fault_retries += 1;
                m.fault_time += e.duration();
            }
            EventKind::Degraded { .. } => {
                m.fault_degrades += 1;
                m.fault_time += e.duration();
            }
            _ => {}
        }
    }
    m
}

fn ref_launch_metrics(events: &[TraceEvent]) -> LaunchMetrics {
    let mut launches = Vec::new();
    let mut kernels = Vec::new();
    for e in events {
        match &e.kind {
            EventKind::Launch {
                kernel,
                queue_wait,
                first,
            } => launches.push(LaunchRecord {
                kernel: *kernel,
                start: e.start,
                klo: e.duration(),
                lqt: *queue_wait,
                first: *first,
                correlation: e.correlation,
            }),
            EventKind::Kernel { kernel, uvm } => kernels.push(KernelRecord {
                kernel: *kernel,
                start: e.start,
                ket: e.duration(),
                kqt: SimDuration::ZERO,
                uvm: *uvm,
                correlation: e.correlation,
            }),
            _ => {}
        }
    }
    // KQT join by brute force: the *last* launch (push order) with a
    // matching correlation wins, as the original scan-based extraction
    // defined it.
    for k in &mut kernels {
        k.kqt = launches
            .iter()
            .rev()
            .find(|l| l.correlation == k.correlation)
            .map(|l| k.start.saturating_since(l.start + l.klo))
            .unwrap_or(SimDuration::ZERO);
    }
    launches.sort_by_key(|l| l.start);
    kernels.sort_by_key(|k| k.start);
    LaunchMetrics { launches, kernels }
}

fn ref_phase_totals(events: &[TraceEvent]) -> PhaseTotals {
    let lm = ref_launch_metrics(events);
    let mm = ref_mem(events);
    // Naive quadratic sync/kernel overlap — the oracle for the
    // binary-search sweep in `Timeline::sync_kernel_overlap`.
    let mut overlap = SimDuration::ZERO;
    for s in events {
        if !matches!(s.kind, EventKind::Sync) {
            continue;
        }
        for k in events {
            if !matches!(k.kind, EventKind::Kernel { .. }) {
                continue;
            }
            let start = s.start.max(k.start);
            let end = s.end.min(k.end);
            if end > start {
                overlap += end - start;
            }
        }
    }
    PhaseTotals {
        t_mem: mm.copy_total(),
        t_launch: lm.total_klo() + lm.total_lqt(),
        t_kernel: lm.total_ket() + lm.total_kqt(),
        t_other: mm.management_total() + mm.sync.saturating_sub(overlap),
        t_fault: mm.fault_time,
        span: ref_span(events),
    }
}

fn assert_equivalent(tl: &Timeline) -> Result<(), String> {
    let events = tl.events();
    ensure_eq!(tl.span(), ref_span(events));
    ensure_eq!(tl.mem_metrics(), ref_mem(events));
    ensure_eq!(tl.launch_metrics(), ref_launch_metrics(events));
    ensure_eq!(tl.phase_totals(), ref_phase_totals(events));
    Ok(())
}

// ---------------------------------------------------------------------
// Property 1: real programs, both CC modes.
// ---------------------------------------------------------------------

/// One opcode of a random CUDA program: `(op, a, b)` selects the call
/// and its parameters.
fn programs() -> impl hcc_check::Strategy<Value = Vec<(u8, u64, u64)>> {
    vecs((u8s(0..7), u64s(1..9), u64s(0..4)), 1..40)
}

fn run_program(cc: CcMode, ops: &[(u8, u64, u64)]) -> Timeline {
    let mut ctx = CudaContext::new(SimConfig::new(cc));
    let stream = ctx.default_stream();
    let mut devs = Vec::new();
    let mut hosts = Vec::new();
    let mut managed = Vec::new();
    for &(op, a, b) in ops {
        let size = ByteSize::mib(a);
        match op {
            0 => devs.push((ctx.malloc_device(size).expect("hbm"), size)),
            1 => {
                let kind = if b % 2 == 0 {
                    HostMemKind::Pageable
                } else {
                    HostMemKind::Pinned
                };
                hosts.push((ctx.malloc_host(size, kind).expect("host"), size));
            }
            2 | 3 => {
                if devs.is_empty() || hosts.is_empty() {
                    continue;
                }
                let (d, dsz) = devs[a as usize % devs.len()];
                let (h, hsz) = hosts[b as usize % hosts.len()];
                let bytes = dsz.min(hsz);
                if op == 2 {
                    ctx.memcpy_h2d(d, h, bytes).expect("h2d");
                } else {
                    ctx.memcpy_d2h(h, d, bytes).expect("d2h");
                }
            }
            4 => {
                let mut desc =
                    KernelDesc::new(KernelId((b % 3) as u32), SimDuration::micros(10 * a));
                if b == 3 && !managed.is_empty() {
                    let m = managed[a as usize % managed.len()];
                    desc = desc.with_managed(ManagedAccess::all(m));
                }
                ctx.launch_kernel(&desc, stream).expect("launch");
            }
            5 => {
                ctx.synchronize();
            }
            _ => managed.push(ctx.malloc_managed(size).expect("managed")),
        }
    }
    ctx.synchronize();
    ctx.into_timeline()
}

/// Every observable quantity of a program-built timeline matches the
/// full-scan reference, under CC off and on alike.
#[test]
fn program_timelines_match_reference() {
    forall!(Config::new(0xA12E_4A01), ops in programs() => {
        for cc in CcMode::ALL {
            let tl = run_program(cc, &ops);
            ensure!(!tl.is_empty(), "program produced no events");
            assert_equivalent(&tl)?;
        }
    });
}

// ---------------------------------------------------------------------
// Property 2: adversarial hand-built event lists.
// ---------------------------------------------------------------------

/// Raw event tuples `(kind, start, dur, corr)` — unordered starts,
/// duplicated and unsorted correlations, arbitrarily overlapping spans.
/// This drives the extraction paths real programs can't reach: the FNV
/// join fallback and the general case of the overlap sweep.
fn raw_events() -> impl hcc_check::Strategy<Value = Vec<(u8, u64, u64, u64)>> {
    vecs(
        (u8s(0..4), u64s(0..2_000), u64s(0..300), u64s(0..20)),
        1..120,
    )
}

fn raw_event((kind, start, dur, corr): (u8, u64, u64, u64)) -> TraceEvent {
    let s = SimTime::from_nanos(start);
    let e = s + SimDuration::from_nanos(dur);
    let kind = match kind {
        0 => EventKind::Launch {
            kernel: KernelId((corr % 5) as u32),
            queue_wait: SimDuration::from_nanos(dur / 3),
            first: corr % 2 == 0,
        },
        1 => EventKind::Kernel {
            kernel: KernelId((corr % 5) as u32),
            uvm: corr % 3 == 0,
        },
        2 => EventKind::Sync,
        _ => EventKind::Memcpy {
            kind: if corr % 2 == 0 {
                CopyKind::H2D
            } else {
                CopyKind::D2H
            },
            bytes: ByteSize::bytes(dur),
            mem: HostMemKind::Pageable,
            managed: corr % 4 == 0,
        },
    };
    TraceEvent::new(kind, s, e)
        .on_stream(StreamId(0))
        .with_correlation(corr as u32)
}

fn build_timeline(raw: &[(u8, u64, u64, u64)]) -> Timeline {
    raw.iter().map(|&r| raw_event(r)).collect()
}

/// Arbitrary (including out-of-order) event lists still extract exactly
/// like the reference scans. Sorting the same list by correlation keeps
/// its duplicates but drives the KQT join's linear-merge path instead of
/// the map fallback.
#[test]
fn adversarial_timelines_match_reference() {
    forall!(Config::new(0xA12E_4A02), raw in raw_events() => {
        assert_equivalent(&build_timeline(&raw))?;
        let mut by_corr = raw.clone();
        by_corr.sort_by_key(|r| r.3);
        assert_equivalent(&build_timeline(&by_corr))?;
    });
}

/// Queries interleaved with pushes see every event pushed so far: the
/// memoized phase totals never outlive the push that made them stale.
#[test]
fn queries_between_pushes_match_reference() {
    forall!(Config::new(0xA12E_4A03), (raw, queries) in (raw_events(), vecs(u8s(0..4), 1..16)) => {
        let mut tl = Timeline::new();
        for (i, &r) in raw.iter().enumerate() {
            tl.push(raw_event(r));
            let events = tl.events();
            let q = queries[i % queries.len()];
            if q & 1 != 0 {
                ensure_eq!(tl.phase_totals(), ref_phase_totals(events));
            }
            if q & 2 != 0 {
                ensure_eq!(tl.launch_metrics(), ref_launch_metrics(events));
            }
        }
        assert_equivalent(&tl)?;
    });
}

/// `clone()` carries the memo and `==` ignores it: a clone taken before
/// or after the first query, and a rebuild that was never queried, are
/// all equal and all answer like the reference, and a push onto a clone
/// with a filled memo is seen by its next query.
#[test]
fn clone_and_eq_ignore_the_memo() {
    forall!(Config::new(0xA12E_4A04), raw in raw_events() => {
        let tl = build_timeline(&raw);
        let cold = tl.clone();
        let expected = ref_phase_totals(tl.events());
        ensure_eq!(tl.phase_totals(), expected);
        let warm = tl.clone();
        let fresh = build_timeline(&raw);
        ensure!(cold == tl && warm == tl && fresh == tl && warm == cold);
        ensure_eq!(warm.phase_totals(), expected);
        ensure_eq!(cold.phase_totals(), expected);
        let mut grown = warm.clone();
        grown.push(raw_event(raw[0]));
        ensure!(grown != warm);
        ensure_eq!(grown.phase_totals(), ref_phase_totals(grown.events()));
    });
}

/// The join's two edge rules on a fixed list whose correlations are
/// sorted, so the linear merge runs: a kernel pushed before its launch
/// still joins it, and a duplicated correlation resolves to the *last*
/// launch in push order.
#[test]
fn kernel_before_launch_and_duplicate_correlations() {
    let us = |n: u64| SimTime::from_nanos(n * 1_000);
    let launch = |corr: u32, s: u64, e: u64| {
        TraceEvent::new(
            EventKind::Launch {
                kernel: KernelId(0),
                queue_wait: SimDuration::ZERO,
                first: false,
            },
            us(s),
            us(e),
        )
        .with_correlation(corr)
    };
    let kernel = |corr: u32, s: u64, e: u64| {
        TraceEvent::new(
            EventKind::Kernel {
                kernel: KernelId(0),
                uvm: false,
            },
            us(s),
            us(e),
        )
        .with_correlation(corr)
    };
    let tl: Timeline = [
        kernel(1, 20, 30),
        launch(1, 10, 12),
        launch(2, 30, 31),
        launch(2, 32, 35),
        kernel(2, 40, 50),
    ]
    .into_iter()
    .collect();
    let lm = tl.launch_metrics();
    assert_eq!(lm, ref_launch_metrics(tl.events()));
    // Kernel 1 waits 12→20 µs; kernel 2 waits from the second launch's
    // end (35 µs), not the first's (31 µs).
    let kqts: Vec<_> = lm.kernels.iter().map(|k| k.kqt).collect();
    assert_eq!(kqts, [SimDuration::micros(8), SimDuration::micros(5)]);
    assert_eq!(tl.phase_totals(), ref_phase_totals(tl.events()));
    assert_eq!(tl.phase_totals().t_kernel, SimDuration::micros(33));
}
