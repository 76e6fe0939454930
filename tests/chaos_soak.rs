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
//! at least one FAIL), so the SLO gate is demonstrably live.
//!
//! To bless a deliberate change:
//! `HCC_BLESS=1 cargo test --test chaos_soak`.

mod golden;
mod perturbation;

use hcc_bench::chaos::{self, ChaosConfig};
use hcc_bench::engine::ExperimentEngine;
use hcc_types::json::ToJson;

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
    let (render, _) = perturbation::thread_invariant("chaos fixture", |engine| {
        let rep = chaos::run(&fixture(), engine);
        (rep.render(), rep.to_json_string())
    });
    golden::assert_matches("chaos_report.txt", &render);
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
