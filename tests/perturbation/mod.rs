//! The soak matrix the soak suites share. Every soak renders, and
//! exports its report, watch and flight JSON, byte-identically on 1 and
//! 4 engine threads; and with any set of observation planes on, a
//! canonical soak renders and exports its report byte-identically to its
//! planes-off run once the planes are moved out.
//!
//! The rows: {calm, stormy} × {off, watch, flight, both} × {1, 4}
//! threads through [`assert_perturbation_free`], plus the multi-cell
//! chaos and serving fixtures at {1, 4} threads through
//! [`thread_invariant`].

// Each suite uses part of the matrix.
#![allow(dead_code)]

use hcc_bench::engine::ExperimentEngine;
use hcc_bench::watch::{Canonical, Soak, WatchConfig};
use hcc_trace::FlightConfig;
use hcc_types::json::ToJson;

/// Runs `run` on a 1- and a 4-thread engine, asserts both see the same,
/// and returns what they saw.
pub fn thread_invariant<T: PartialEq>(what: &str, run: impl Fn(&ExperimentEngine) -> T) -> T {
    let [narrow, wide] = [1, 4].map(|threads| run(&ExperimentEngine::new(threads)));
    assert!(
        narrow == wide,
        "{what} differs between 1 and 4 engine threads"
    );
    narrow
}

/// What a row shows: the rendered report, then the JSON of the report
/// and of each observation plane that was on.
#[derive(PartialEq)]
struct Seen {
    render: String,
    report: String,
    watch: Option<String>,
    flight: Option<String>,
}

/// `base` with the watch and flight planes set as given, run at both
/// engine widths; the run is healthy and carries exactly those planes.
fn row(base: &Canonical, watch: bool, flight: bool) -> Seen {
    let mut canonical = base.clone().with_flight(flight.then(FlightConfig::default));
    let watch_cfg = watch.then(WatchConfig::default);
    let soak = match &mut canonical {
        Soak::Calm(cfg) => {
            cfg.watch = watch_cfg;
            "calm"
        }
        Soak::Stormy(cfg) => {
            cfg.watch = watch_cfg;
            "stormy"
        }
    };
    let what = format!("{soak} soak with watch={watch} flight={flight}");
    thread_invariant(&what, |engine| {
        let run = canonical.run(engine);
        assert!(run.healthy, "{what} is unhealthy");
        assert_eq!((run.watch.is_some(), run.flight.is_some()), (watch, flight));
        let (render, report) = match &run.report {
            Soak::Calm(rep) => (rep.render(), rep.to_json_string()),
            Soak::Stormy(rep) => (rep.render(), rep.to_json_string()),
        };
        Seen {
            render,
            report,
            watch: run.watch.map(|w| w.to_json_string()),
            flight: run.flight.map(|f| f.to_json_string()),
        }
    })
}

/// Asserts the rows of the canonical soak `base` with planes off and
/// with each `(watch, flight)` combination in `planes` on: each is
/// thread-count invariant, and each renders and exports its report as
/// planes-off does.
pub fn assert_perturbation_free(base: Canonical, planes: &[(bool, bool)]) {
    let off = row(&base, false, false);
    for &(watch, flight) in planes {
        let on = row(&base, watch, flight);
        assert!(
            on.render == off.render && on.report == off.report,
            "soak perturbed by watch={watch} flight={flight}"
        );
    }
}
