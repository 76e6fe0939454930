//! Golden snapshot + health contracts for the chaos lab.
//!
//! One fixed soak (seed `0xC4A0_55ED`, 2 tenants, 2 GPUs, 1500 requests
//! per cell, 3 virtual days, both default storm profiles, all three
//! recovery policies) is frozen byte-for-byte in
//! `tests/golden/chaos_report.txt` so any drift in the storm calendars,
//! fault-plan seeding, scheduler decisions, verdict math, or text
//! rendering is caught immediately. The snapshot and the report JSON
//! must be thread-count invariant (the soak matrix's chaos-fixture row,
//! `perturbation`), the run must be leak-free, exactly conserving, and the
//! fixture must exercise both verdict polarities (at least one PASS and
//! at least one FAIL), so the SLO gate is demonstrably live. The default
//! soak `hcc_lab chaos` runs is a row of the matrix too, frozen in
//! `tests/golden/chaos_default.txt`.
//!
//! To bless a deliberate change:
//! `HCC_BLESS=1 cargo test --test chaos_soak`.

mod golden;
mod perturbation;

use hcc_bench::chaos::{self, ChaosConfig};
use hcc_bench::engine::ExperimentEngine;
use hcc_bench::serving::{ModeRun, SchedulerKind};

/// The frozen fixture: defaults (both storm profiles, all three
/// policies, diurnal arrivals) narrowed to 1500 requests per cell over 3
/// virtual days on a 2-GPU cluster.
fn fixture() -> ChaosConfig {
    ChaosConfig {
        requests: 1_500,
        days: 8,
        gpus: 2,
        ..ChaosConfig::default()
    }
}

/// The six-cell soak renders and exports byte-identically on 1 and 4
/// worker threads, and the rendering matches the snapshot.
#[test]
fn chaos_report_matches_golden_snapshot() {
    let rep = perturbation::chaos_row("chaos fixture", &fixture());
    golden::assert_matches("chaos_report.txt", &rep.render());
}

/// `hcc_lab chaos`'s default soak (the text behind the benchmark's
/// storm digest) renders and exports the same on 1 and 4 engine
/// threads, byte for byte as `tests/golden/chaos_default.txt`. Every
/// trailer check holds and a budget verdict fails.
#[test]
fn default_chaos_soak_matches_its_golden() {
    let rep = perturbation::chaos_row("default chaos soak", &ChaosConfig::default());
    golden::assert_matches("chaos_default.txt", &rep.render());
    let n = rep.requests_per_cell;
    assert!(rep.every_run(ModeRun::latency_identity), "latency identity");
    assert!(rep.every_run(|m| m.conserved(n)), "request conservation");
    assert!(rep.fault_conserved(), "fault-ledger conservation");
    assert!(rep.every_run(ModeRun::sessions_ok), "session ledger");
    assert!(rep.every_run(ModeRun::gauges_drained), "gauge drain");
    assert!(rep.leak_free(), "{:?}", rep.first_violation());
    assert!(rep.verdict_counts().1 > 0, "no budget verdict failed");
}

/// The frozen soak is healthy (leak-free, conserving, exact latency
/// identity, sessions and gauges drained) *and* the verdict gate is
/// live: at least one tenant budget passes and at least one fails, so a
/// regression can move the needle in either direction and be seen.
#[test]
fn fixture_is_healthy_and_exercises_both_verdict_polarities() {
    let rep = chaos::run(&fixture(), &ExperimentEngine::new(2));
    assert!(rep.healthy(), "{:?}", rep.first_violation());

    let (pass, fail) = rep.verdict_counts();
    assert!(pass > 0, "fixture produced no PASS verdict");
    assert!(
        fail > 0,
        "fixture produced no FAIL verdict; the SLO gate is untested"
    );

    // Every cell pushed the full trace through: no quiet cells.
    for cell in rep.cells() {
        assert!(cell.ledger.total() == fixture().requests);
    }
}

/// Under the batching scheduler a dequeued batch can mix working and
/// failing storm shapes. The drain judges each member by its own shape,
/// as the fault ledger counts it, so the default soak at 20k requests
/// stays healthy (ledger conservation included) at seeds 1–4, where
/// rejecting a whole batch by its head's shape broke it.
#[test]
fn batching_soaks_conserve_the_fault_ledger() {
    let engine = ExperimentEngine::new(2);
    for seed in 1..=4 {
        let cfg = ChaosConfig {
            scheduler: SchedulerKind::Batching,
            requests: 20_000,
            seed,
            ..ChaosConfig::default()
        };
        let rep = chaos::run(&cfg, &engine);
        assert!(rep.healthy(), "seed {seed}: {:?}", rep.first_violation());
    }
}
