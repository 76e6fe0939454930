//! The soak matrix the soak suites share. Every soak renders, and
//! exports its report, watch and flight JSON, byte-identically on 1 and
//! 4 engine threads; and with any set of observation planes on, a
//! canonical soak renders and exports its report byte-identically to its
//! planes-off run once the planes are moved out.
//!
//! The rows: {calm, stormy} × {off, watch, flight, both} × {1, 4}
//! threads through [`assert_perturbation_free`]; the multi-cell chaos
//! and serving fixtures at {1, 4} threads through [`chaos_row`] and
//! [`serving_row`]; and the soaks at the sizes `hcc_lab` runs them —
//! `serve` at 100k requests on 4 GPUs and 20k on 65, the default
//! `chaos`, `watch` at 50 ms windows and `why` at 1 ms flight windows —
//! at {1, 4} threads through the same rows and [`observed_row`].

// Each suite uses part of the matrix.
#![allow(dead_code)]

use hcc_bench::chaos::{self, ChaosConfig, ChaosReport};
use hcc_bench::engine::ExperimentEngine;
use hcc_bench::serving::{self, ServingConfig, ServingReport};
use hcc_bench::watch::{Canonical, Observed, Soak, WatchConfig};
use hcc_trace::FlightConfig;
use hcc_types::json::ToJson;

/// Runs `run` on a 1- and a 4-thread engine, asserts that `seen` shows
/// both the same, and returns the 1-thread result.
fn widths_agree<T, S: PartialEq>(
    what: &str,
    run: impl Fn(&ExperimentEngine) -> T,
    seen: impl Fn(&T) -> S,
) -> T {
    let [narrow, wide] = [1, 4].map(|threads| run(&ExperimentEngine::new(threads)));
    assert!(
        seen(&narrow) == seen(&wide),
        "{what} differs between 1 and 4 engine threads"
    );
    narrow
}

/// The serving soak `cfg` at both engine widths, rendering and exporting
/// the same at both: the 1-thread report, which is healthy.
pub fn serving_row(what: &str, cfg: &ServingConfig) -> ServingReport {
    let rep = widths_agree(
        what,
        |engine| serving::run(cfg, engine),
        |rep| (rep.render(), rep.to_json_string()),
    );
    assert!(rep.healthy(), "{what} is unhealthy");
    rep
}

/// The chaos soak `cfg` at both engine widths, rendering and exporting
/// the same at both: the 1-thread report, which is healthy.
pub fn chaos_row(what: &str, cfg: &ChaosConfig) -> ChaosReport {
    let rep = widths_agree(
        what,
        |engine| chaos::run(cfg, engine),
        |rep| (rep.render(), rep.to_json_string()),
    );
    assert!(
        rep.healthy(),
        "{what} is unhealthy: {:?}",
        rep.first_violation()
    );
    rep
}

/// What a row shows: the rendered report, then the JSON of the report,
/// the watch page and its JSON, and the flight log's JSON (each plane
/// when it was on).
#[derive(PartialEq)]
struct Seen {
    render: String,
    report: String,
    watch: Option<(String, String)>,
    flight: Option<String>,
}

impl Seen {
    fn of(run: &Observed) -> Seen {
        let (render, report) = match &run.report {
            Soak::Calm(rep) => (rep.render(), rep.to_json_string()),
            Soak::Stormy(rep) => (rep.render(), rep.to_json_string()),
        };
        Seen {
            render,
            report,
            watch: run.watch.as_ref().map(|w| (w.render(), w.to_json_string())),
            flight: run.flight.as_ref().map(|f| f.to_json_string()),
        }
    }
}

/// The canonical soak `canonical` at both engine widths, showing the
/// same at both: the 1-thread run, which is healthy.
pub fn observed_row(what: &str, canonical: &Canonical) -> Observed {
    let run = widths_agree(what, |engine| canonical.run(engine), Seen::of);
    assert!(run.healthy, "{what} is unhealthy");
    run
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
    let run = observed_row(&what, &canonical);
    assert_eq!((run.watch.is_some(), run.flight.is_some()), (watch, flight));
    Seen::of(&run)
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
