//! Golden snapshot + health contracts for the chaos lab.
//!
//! One fixed soak (seed `0xC4A0_55ED`, 2 tenants, 2 GPUs, 1500 requests
//! per cell, 3 virtual days, both default storm profiles, all three
//! recovery policies) is frozen byte-for-byte in
//! `tests/golden/chaos_report.txt` so any drift in the storm calendars,
//! fault-plan seeding, scheduler decisions, verdict math, or text
//! rendering is caught immediately. On top of the snapshot, the run must
//! be thread-count invariant, leak-free, exactly conserving, and the
//! fixture must exercise both verdict polarities (at least one PASS and
//! at least one FAIL), so the SLO gate is demonstrably live.
//!
//! To bless a deliberate change:
//! `HCC_BLESS=1 cargo test --test chaos_soak`.

mod golden;

use hcc_bench::chaos::{self, ChaosConfig, ChaosReport};
use hcc_bench::engine::ExperimentEngine;

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

fn report() -> ChaosReport {
    chaos::run(&fixture(), &ExperimentEngine::new(2))
}

#[test]
fn chaos_report_matches_golden_snapshot() {
    golden::assert_matches("chaos_report.txt", &report().render());
}

/// The soak renders byte-identically on 1 and 4 worker threads: nothing
/// on the report path reads wall time or thread identity.
#[test]
fn chaos_report_is_thread_count_invariant() {
    let a = chaos::run(&fixture(), &ExperimentEngine::new(1));
    let b = chaos::run(&fixture(), &ExperimentEngine::new(4));
    assert_eq!(a.render(), b.render());
}

/// The frozen soak is healthy (leak-free, conserving, exact latency
/// identity, sessions and gauges drained) *and* the verdict gate is
/// live: at least one tenant budget passes and at least one fails, so a
/// regression can move the needle in either direction and be seen.
#[test]
fn fixture_is_healthy_and_exercises_both_verdict_polarities() {
    let rep = report();
    assert!(rep.healthy(), "{:?}", rep.first_violation());
    assert!(rep.leak_free());
    assert!(rep.latency_identity());
    assert!(rep.conserved());
    assert!(rep.fault_conserved());
    assert!(rep.sessions_ok());
    assert!(rep.gauges_drained());

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
