//! Contracts for the request flight recorder on the canonical soaks.
//!
//! The per-request span identity (Σ spans == settle − arrival, integer
//! virtual time, no gaps or overlaps) must hold for every exemplar the
//! sampler keeps on a real stormy soak; every watchtower incident must
//! link to at least one concrete exemplar request id resolvable back to
//! a waterfall; the exemplar store must respect its hard memory bound;
//! the whole plane must be thread-count invariant and — when disabled —
//! perturbation-free: not a single byte of the soak's own figures moves.
//!
//! The stormy soak's flight page (summary, every kept tail exemplar's
//! waterfall against its window's p50, and each incident's exemplar
//! ids) is frozen in `tests/golden/flight.txt`. To bless a deliberate
//! change: `HCC_BLESS=1 cargo test --test flight`.

mod golden;
mod perturbation;

use std::fmt::Write as _;

use hcc_bench::engine::ExperimentEngine;
use hcc_bench::watch::{calm_soak, stormy_soak, WatchReport};
use hcc_bench::{chaos, serving};
use hcc_trace::{FlightConfig, FlightLog};
use hcc_types::json::ToJson;
use perturbation::Soak;

fn stormy_flight(threads: usize) -> (WatchReport, FlightLog) {
    let mut cfg = stormy_soak();
    cfg.flight = Some(FlightConfig::default());
    let rep = chaos::run(&cfg, &ExperimentEngine::new(threads));
    assert!(rep.healthy(), "stormy flight soak must stay healthy");
    let cell = rep.into_cells().next().expect("one policy cell");
    (
        cell.watch.expect("stormy fixture enables the watch plane"),
        cell.flight.expect("flight plane enabled"),
    )
}

fn calm_flight(threads: usize) -> FlightLog {
    let mut cfg = calm_soak();
    cfg.flight = Some(FlightConfig::default());
    let rep = serving::run(&cfg, &ExperimentEngine::new(threads));
    assert!(rep.conserved());
    rep.runs
        .into_iter()
        .next()
        .and_then(|r| r.flight)
        .expect("flight plane enabled")
}

/// The tentpole invariant on a real soak: every kept exemplar's spans
/// partition `settle − arrival` exactly, and the store never exceeds
/// its `windows × (worst + reservoir)` bound.
#[test]
fn stormy_flight_log_holds_the_span_identity() {
    let (_, flight) = stormy_flight(2);
    assert!(flight.recorded > 0, "stormy soak recorded no requests");
    assert!(!flight.samples.is_empty(), "sampler kept no exemplars");
    for s in &flight.samples {
        assert!(
            s.identity_holds(),
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

/// Serving side of the same identity, on the calm CC-on soak.
#[test]
fn calm_flight_log_holds_the_span_identity() {
    let flight = calm_flight(2);
    assert!(!flight.samples.is_empty());
    assert!(flight.identity_holds());
    assert!(flight.kept_entries <= flight.entry_bound());
}

/// Every incident the stormy watchtower raises links to at least one
/// concrete exemplar request id, and every linked id resolves to a kept
/// waterfall — the `why --incident` contract.
#[test]
fn every_stormy_incident_links_to_a_resolvable_exemplar() {
    let (watch, flight) = stormy_flight(2);
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
            assert!(sample.identity_holds());
            assert!(
                inc.start <= sample.skeleton.settle && sample.skeleton.settle < inc.end,
                "exemplar #{req} settled outside incident #{}",
                inc.id
            );
        }
    }
}

/// The flight log — samples, spans, exemplar flags, store accounting —
/// replays byte-identically on 1 and 4 worker threads; so does every
/// rendered waterfall. Nothing on the flight path reads wall time or
/// thread identity.
#[test]
fn flight_log_is_thread_count_invariant() {
    let (watch1, flight1) = stormy_flight(1);
    let (watch4, flight4) = stormy_flight(4);
    assert_eq!(flight1.to_json().to_string(), flight4.to_json().to_string());
    assert_eq!(
        watch1.to_json().to_string(),
        watch4.to_json().to_string(),
        "incident exemplar links drifted across thread counts"
    );
    for (a, b) in flight1.samples.iter().zip(&flight4.samples) {
        let base1 = flight1.p50_exemplar(a.window);
        let base4 = flight4.p50_exemplar(b.window);
        assert_eq!(
            flight1.render_waterfall(a, base1),
            flight4.render_waterfall(b, base4)
        );
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
        let baseline = flight.p50_exemplar(s.window).filter(|b| b.req() != s.req());
        out.push_str(&flight.render_waterfall(s, baseline));
    }
    out
}

#[test]
fn stormy_flight_page_matches_golden_snapshot() {
    let (watch, flight) = stormy_flight(2);
    golden::assert_matches("flight.txt", &flight_page(&watch, &flight));
}

/// Perturbation-freedom, chaos side: enabling the flight plane, alone
/// or next to the watch plane, must not move a single byte of the
/// stormy soak's own figures.
#[test]
fn flight_plane_is_perturbation_free_for_chaos_soaks() {
    perturbation::assert_perturbation_free(Soak::Stormy, &[(false, true), (true, true)]);
}

/// Perturbation-freedom, serving side: the same holds on the calm soak.
#[test]
fn flight_plane_is_perturbation_free_for_serving_soaks() {
    perturbation::assert_perturbation_free(Soak::Calm, &[(false, true), (true, true)]);
}
