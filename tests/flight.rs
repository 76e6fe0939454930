//! Contracts for the request flight recorder on the canonical soaks.
//!
//! The per-request span identity (Σ spans == settle − arrival, integer
//! virtual time, no gaps or overlaps) must hold for every exemplar the
//! sampler keeps on a real stormy soak; every watchtower incident must
//! link to at least one concrete exemplar request id resolvable back to
//! a waterfall; the exemplar store must respect its hard memory bound;
//! and the flight rows of the soak matrix (`perturbation`) hold the
//! plane thread-count invariant and perturbation-free: not a single
//! byte of the soak's own figures moves.
//!
//! The stormy soak's flight page (summary, every kept tail exemplar's
//! waterfall against its window's p50, and each incident's exemplar
//! ids) is frozen in `tests/golden/flight.txt`. To bless a deliberate
//! change: `HCC_BLESS=1 cargo test --test flight`.

mod golden;
mod perturbation;

use std::fmt::Write as _;

use hcc_bench::engine::ExperimentEngine;
use hcc_bench::watch::{calm_soak, stormy_soak, Canonical, Soak, WatchReport};
use hcc_trace::{FlightConfig, FlightLog};
use hcc_types::SimDuration;

/// `soak` run with the flight recorder on: its watch report and flight
/// log, after checking the soak stayed healthy.
fn flight(soak: Canonical) -> (WatchReport, FlightLog) {
    let soak = soak
        .with_flight(Some(FlightConfig::default()))
        .run(&ExperimentEngine::new(2));
    assert!(soak.healthy, "flight soak must stay healthy");
    (
        soak.watch
            .expect("the canonical soaks enable the watch plane"),
        soak.flight.expect("flight plane enabled"),
    )
}

/// The tentpole invariant on a real soak: every kept exemplar's spans
/// partition `settle − arrival` exactly, and the store never exceeds
/// its `windows × (worst + reservoir)` bound.
#[test]
fn stormy_flight_log_holds_the_span_identity() {
    let (_, flight) = flight(Soak::Stormy(stormy_soak()));
    assert!(flight.recorded > 0, "stormy soak recorded no requests");
    assert!(!flight.samples.is_empty(), "sampler kept no exemplars");
    for s in &flight.samples {
        assert!(
            flight.identity_holds_for(s),
            "request #{} violates the span identity",
            s.req()
        );
    }
    assert!(flight.identity_holds());
    assert!(
        flight.kept_entries <= flight.entry_bound(),
        "exemplar store {} exceeds bound {}",
        flight.kept_entries,
        flight.entry_bound()
    );
}

/// The store's accounting figure, which the flight JSON and the
/// benchmark digest carry, stays what it was when every exemplar held
/// its own span vector: 375 exemplars, frozen at 76,880 B.
#[test]
fn stormy_flight_store_accounting_is_unchanged() {
    let (_, flight) = flight(Soak::Stormy(stormy_soak()));
    assert_eq!(flight.samples.len(), 375);
    assert_eq!(flight.estimated_bytes(), 76_880);
}

/// Serving side of the same identity, on the calm CC-on soak.
#[test]
fn calm_flight_log_holds_the_span_identity() {
    let (_, flight) = flight(Soak::Calm(calm_soak()));
    assert!(!flight.samples.is_empty());
    assert!(flight.identity_holds());
    assert!(flight.kept_entries <= flight.entry_bound());
}

/// Every incident the stormy watchtower raises links to at least one
/// concrete exemplar request id, and every linked id resolves to a kept
/// waterfall — the `why --incident` contract.
#[test]
fn every_stormy_incident_links_to_a_resolvable_exemplar() {
    let (watch, flight) = flight(Soak::Stormy(stormy_soak()));
    assert!(
        !watch.incidents.is_empty(),
        "stormy soak raised no incidents"
    );
    for inc in &watch.incidents {
        assert!(
            !inc.exemplars.is_empty(),
            "incident #{} links no exemplar",
            inc.id
        );
        for &req in &inc.exemplars {
            let sample = flight
                .find(req)
                .unwrap_or_else(|| panic!("incident #{} exemplar #{req} not kept", inc.id));
            assert!(flight.identity_holds_for(sample));
            assert!(
                inc.start <= sample.skeleton.settle && sample.skeleton.settle < inc.end,
                "exemplar #{req} settled outside incident #{}",
                inc.id
            );
        }
    }
}

/// The stormy soak's flight page: the sampler summary, each incident's
/// exemplar ids, then every kept tail exemplar's waterfall against its
/// window's p50 exemplar (as `why --request` renders it).
fn flight_page(watch: &WatchReport, flight: &FlightLog) -> String {
    let c = &flight.cfg;
    let mut out = format!(
        "flight | window {}ms | worst {} | reservoir {} | seed {:#x}\n\
         requests {} | windows {} | kept {} | bound {} | samples {}\n",
        c.window.as_nanos() / 1_000_000,
        c.worst,
        c.reservoir,
        c.seed,
        flight.recorded,
        flight.windows,
        flight.kept_entries,
        flight.entry_bound(),
        flight.samples.len(),
    );
    for inc in &watch.incidents {
        let _ = writeln!(out, "incident #{}: exemplars {:?}", inc.id, inc.exemplars);
    }
    for s in flight.samples.iter().filter(|s| s.tail) {
        out.push_str(&flight.render_against_p50(s));
    }
    out
}

#[test]
fn stormy_flight_page_matches_golden_snapshot() {
    let (watch, flight) = flight(Soak::Stormy(stormy_soak()));
    golden::assert_matches("flight.txt", &flight_page(&watch, &flight));
}

/// Perturbation-freedom, chaos side: enabling the flight plane, alone
/// or next to the watch plane, must not move a single byte of the
/// stormy soak's own figures, and the flight log, exemplar links
/// included, must not depend on the engine's thread count.
#[test]
fn flight_plane_is_perturbation_free_for_chaos_soaks() {
    perturbation::assert_perturbation_free(
        Soak::Stormy(stormy_soak()),
        &[(false, true), (true, true)],
    );
}

/// Perturbation-freedom, serving side: the same holds on the calm soak.
#[test]
fn flight_plane_is_perturbation_free_for_serving_soaks() {
    perturbation::assert_perturbation_free(Soak::Calm(calm_soak()), &[(false, true), (true, true)]);
}

/// `hcc_lab why` at 1 ms flight windows (`HCC_FLIGHT_WINDOW_MS=1`),
/// where nearly every request opens a window of its own: the stormy
/// soak's flight log is the same on 1 and 4 engine threads, and every
/// kept exemplar holds the span identity.
#[test]
fn stormy_flight_at_1ms_windows_is_thread_invariant() {
    let soak = Soak::Stormy(stormy_soak()).with_flight(Some(FlightConfig {
        window: SimDuration::millis(1),
        ..FlightConfig::default()
    }));
    let run = perturbation::observed_row("stormy why at 1 ms flight windows", &soak);
    let flight = run.flight.expect("the flight plane is on");
    assert!(flight.windows > 1_000, "{} flight windows", flight.windows);
    assert!(flight.identity_holds(), "span identity violated");
}
