//! Golden snapshot + SLO contracts for the serving simulator.
//!
//! One fixed configuration (seed `0xCC_5E21`, 2 tenants, 2 GPUs, 500
//! requests) is frozen byte-for-byte in `tests/golden/serving_report.txt`
//! so any drift in the arrival process, scheduler decisions, latency
//! aggregation, or text rendering is caught immediately, at 1 and 4
//! engine threads (`perturbation`). On top of the
//! snapshot, the SLO ordering (CC-on p99 strictly above CC-off p99 for
//! every tenant under every scheduler) and the latency-accounting
//! identities are asserted directly, and `hcc_lab serve`'s soak sizes
//! (100k requests on 4 GPUs, 20k on 65) are rows of the soak matrix.
//!
//! To bless a deliberate change:
//! `HCC_BLESS=1 cargo test --test serving_slo`.

mod golden;
mod perturbation;

use hcc_bench::engine::ExperimentEngine;
use hcc_bench::serving::{self, SchedulerKind, ServingConfig, ServingReport};

/// The frozen fixture: defaults (2 tenants, Poisson, all schedulers,
/// seed `0xCC_5E21`) narrowed to 500 requests on a 2-GPU cluster.
fn fixture() -> ServingConfig {
    ServingConfig {
        requests: 500,
        gpus: 2,
        ..ServingConfig::default()
    }
}

fn report() -> ServingReport {
    serving::run(&fixture(), &ExperimentEngine::new(2))
}

/// The three-scheduler soak renders and exports byte-identically on 1
/// and 4 worker threads, and the rendering matches the snapshot.
#[test]
fn serving_report_matches_golden_snapshot() {
    let rep = perturbation::serving_row("serving fixture", &fixture());
    golden::assert_matches("serving_report.txt", &rep.render());
}

/// `hcc_lab serve`'s default soak (100k requests on 4 GPUs) and a 20k
/// soak on 65 GPUs (two words of the cluster's idle-GPU bitset) render
/// and export the same on 1 and 4 engine threads and stay healthy; both
/// conserve every request and keep CC-on p99 above CC-off p99.
#[test]
fn lab_sized_serve_soaks_are_thread_invariant() {
    for (requests, gpus) in [(100_000, 4), (20_000, 65)] {
        let cfg = ServingConfig {
            requests,
            gpus,
            ..ServingConfig::default()
        };
        let what = format!("serve at {requests} requests on {gpus} gpus");
        let rep = perturbation::serving_row(&what, &cfg);
        assert!(rep.conserved(), "{what}: a request was lost");
        assert!(rep.slo_holds(), "{what}: CC-on p99 <= CC-off p99");
    }
}

/// The headline result: at identical offered load, turning CC on pushes
/// every tenant's p99 strictly up, under every scheduler — no tenant is
/// accidentally sheltered by the fixture being too idle.
#[test]
fn cc_on_p99_strictly_dominates_cc_off_per_tenant() {
    let rep = report();
    assert!(rep.slo_holds());
    for run in &rep.runs {
        for (off, on) in run.off().tenants.iter().zip(&run.on().tenants) {
            assert!(
                off.completed > 0 && on.completed > 0,
                "{} under {}: fixture must exercise every tenant",
                off.name,
                run.scheduler
            );
            assert!(
                on.latency.p99 > off.latency.p99,
                "{} under {}: CC-on p99 {} must strictly exceed CC-off p99 {}",
                on.name,
                run.scheduler,
                on.latency.p99,
                off.latency.p99,
            );
        }
    }
}

/// Latency accounting is exact per tenant in every run: end-to-end
/// latency decomposes into queueing wait plus device service, and for
/// singleton-batch schedulers (FIFO, priority) device service is exactly
/// the solo shape time plus the admission charges of the phase model.
/// Continuous batching adds a nonnegative co-batching margin on top.
#[test]
fn per_tenant_latency_sums_are_consistent_with_the_phase_model() {
    let rep = report();
    for run in &rep.runs {
        for mode in &run.modes {
            for t in &mode.tenants {
                assert_eq!(
                    t.latency_total,
                    t.wait_total + t.service_total,
                    "{} {} under {}: latency != wait + service",
                    t.name,
                    mode.cc,
                    run.scheduler
                );
                let solo = t.shape_total + t.admission_total;
                if run.scheduler == SchedulerKind::Batching {
                    assert!(
                        t.service_total >= solo,
                        "{} {} under batching: batched service below solo floor",
                        t.name,
                        mode.cc
                    );
                } else {
                    assert_eq!(
                        t.service_total, solo,
                        "{} {} under {}: singleton batches must cost shape + admission",
                        t.name, mode.cc, run.scheduler
                    );
                }
            }
        }
    }
}
