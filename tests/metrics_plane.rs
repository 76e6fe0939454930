//! The virtual-time metrics plane's cross-stack contracts:
//!
//! 1. **Attribution audit** — on every standard app in both modes, the
//!    integrated runtime queue gauges must reproduce the paper-model
//!    phase totals (Σ launch-queue time = LQT, Σ kernel-queue time =
//!    KQT, Σ kernel activity = KET) within 0.1%.
//! 2. **Observation is free** — the same scenario with metrics on and
//!    off produces bit-identical timelines.
//! 3. **Perfetto export** — an obs-enabled run's Chrome trace carries
//!    counter tracks for every layer (engine FIFOs, ring, bounce pool,
//!    UVM faults).
//! 4. **Replay determinism** — obs-enabled snapshots are bit-identical
//!    across engine worker counts.

use hcc_bench::engine::ExperimentEngine;
use hcc_bench::figures;
use hcc_trace::ChromeExport;
use hcc_types::{CcMode, SimDuration};
use hcc_workloads::{runner, suites, Scenario};

fn obs_scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for spec in suites::all() {
        for cc in CcMode::ALL {
            out.push(Scenario::standard(
                spec.name,
                figures::cfg(cc).with_metrics(true),
            ));
        }
    }
    out
}

/// |a - b| within 0.1% of the larger (absolute floor of 1ns for zeros).
fn close(a: SimDuration, b: SimDuration) -> bool {
    let (a, b) = (a.as_nanos(), b.as_nanos());
    let diff = a.abs_diff(b);
    diff * 1000 <= a.max(b) || diff <= 1
}

/// Acceptance: Σ queue-time from the gauges ≈ LQT + KQT from the trace,
/// per phase, across the full fig03 population.
#[test]
fn attribution_audit_queue_integrals_match_phase_totals() {
    let engine = ExperimentEngine::new(4);
    let batch = obs_scenarios();
    for result in engine.run_all(&batch) {
        let run = result.expect_run();
        let set = run.metrics.as_ref().expect("metrics enabled");
        let lm = run.timeline.launch_metrics();
        let label = result.label.clone();

        let lq = set.gauge_integral("runtime.launch_queue").unwrap();
        let kq = set.gauge_integral("runtime.kernel_queue").unwrap();
        let ka = set.gauge_integral("runtime.kernel_active").unwrap();
        assert!(
            close(lq, lm.total_lqt()),
            "{label}: launch_queue integral {lq} vs LQT {}",
            lm.total_lqt()
        );
        assert!(
            close(kq, lm.total_kqt()),
            "{label}: kernel_queue integral {kq} vs KQT {}",
            lm.total_kqt()
        );
        assert!(
            close(ka, lm.total_ket()),
            "{label}: kernel_active integral {ka} vs KET {}",
            lm.total_ket()
        );
        // The combined queue account the audit is named for.
        let queue_sum = lq + kq;
        let phase_sum = lm.total_lqt() + lm.total_kqt();
        assert!(
            close(queue_sum, phase_sum),
            "{label}: Σ queue-time {queue_sum} vs LQT+KQT {phase_sum}"
        );
        // Gauges are conservation-balanced: everything queued eventually
        // drained.
        for name in [
            "runtime.launch_queue",
            "runtime.kernel_queue",
            "runtime.inflight",
            "gpu.ring.occupancy",
            "tee.bounce.occupancy",
            "uvm.outstanding_faults",
        ] {
            let s = set.gauge_series(name).unwrap();
            assert_eq!(s.final_value(), 0, "{label}: {name} did not drain");
        }
    }
}

/// Metrics only observe: the simulated trace is bit-identical with the
/// plane on and off (spot-checked on representative apps;
/// `crates/bench/tests/process_switches.rs` holds `summary`'s full
/// stdout to its golden with `HCC_METRICS=1`).
#[test]
fn metrics_do_not_perturb_the_simulation() {
    for app in ["gemm", "kmeans-uvm", "stream-triad"] {
        let Some(spec) = suites::by_name(app) else {
            continue;
        };
        for cc in CcMode::ALL {
            let off = runner::run(&spec, figures::cfg(cc)).unwrap();
            let on = runner::run(&spec, figures::cfg(cc).with_metrics(true)).unwrap();
            assert_eq!(
                off.timeline, on.timeline,
                "{app} [{cc}]: metrics changed the trace"
            );
            assert_eq!(off.end, on.end);
            assert!(off.metrics.is_none() && on.metrics.is_some());
        }
    }
}

/// Acceptance: the Chrome export of an obs-enabled run contains counter
/// tracks for at least compute queue, copy queue, ring occupancy, bounce
/// occupancy, and outstanding UVM faults.
#[test]
fn chrome_export_carries_counter_tracks_for_every_layer() {
    let spec = suites::by_name("kmeans-uvm").expect("suite app");
    let run = runner::run(&spec, figures::cfg(CcMode::On).with_metrics(true)).unwrap();
    let set = run.metrics.as_ref().unwrap();
    let trace = ChromeExport::new().with_metrics(set).render(&run.timeline);
    for track in [
        "gpu.compute.queue",
        "gpu.copy-h2d.queue",
        "gpu.ring.occupancy",
        "tee.bounce.occupancy",
        "uvm.outstanding_faults",
    ] {
        let needle = format!("\"name\": \"{track}\", \"cat\": \"metric\", \"ph\": \"C\"");
        assert!(
            trace.contains(&needle),
            "missing counter track {track} in Chrome export"
        );
    }
    // Counter events live on the dedicated metrics "process".
    assert!(trace.contains("\"pid\": \"metrics\""));
}

/// Acceptance: seeded obs-enabled runs replay bit-for-bit at any worker
/// count — snapshots included.
#[test]
fn obs_enabled_snapshots_replay_across_worker_counts() {
    let batch = obs_scenarios();
    let serial = ExperimentEngine::new(1).run_all(&batch);
    let parallel = ExperimentEngine::new(4).run_all(&batch);
    for (s, p) in serial.iter().zip(&parallel) {
        let s = s.expect_run();
        let p = p.expect_run();
        assert_eq!(s.timeline, p.timeline, "timeline diverged");
        assert_eq!(s.metrics, p.metrics, "metrics snapshot diverged");
    }
}
