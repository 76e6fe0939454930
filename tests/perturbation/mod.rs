//! Perturbation-freedom check shared by the observation-plane suites:
//! with any set of observation planes on, a canonical soak renders
//! byte-identically to its planes-off run once the planes' sections are
//! stripped.

use hcc_bench::engine::ExperimentEngine;
use hcc_bench::watch::{calm_soak, stormy_soak, WatchConfig};
use hcc_bench::{chaos, serving};
use hcc_trace::FlightConfig;

/// The canonical soak a check runs on.
#[derive(Clone, Copy, Debug)]
pub enum Soak {
    /// The calm low-utilisation serving soak.
    Calm,
    /// The stormy chaos-shaped soak.
    Stormy,
}

/// Renders `soak` with the watch and flight planes set as given, after
/// checking every run carries exactly the enabled planes and stripping
/// them from the report.
fn render(soak: Soak, engine: &ExperimentEngine, watch: bool, flight: bool) -> String {
    let (watch_cfg, flight_cfg) = (
        watch.then(WatchConfig::default),
        flight.then(FlightConfig::default),
    );
    match soak {
        Soak::Calm => {
            let cfg = serving::ServingConfig {
                watch: watch_cfg,
                flight: flight_cfg,
                ..calm_soak()
            };
            let mut rep = serving::run(&cfg, engine);
            for r in &mut rep.runs {
                assert_eq!(r.watch.is_some(), watch);
                assert_eq!(r.flight.is_some(), flight);
                (r.watch, r.flight) = (None, None);
            }
            rep.render()
        }
        Soak::Stormy => {
            let cfg = chaos::ChaosConfig {
                watch: watch_cfg,
                flight: flight_cfg,
                ..stormy_soak()
            };
            let mut rep = chaos::run(&cfg, engine);
            for c in rep.profiles.iter_mut().flat_map(|p| &mut p.cells) {
                assert_eq!(c.watch.is_some(), watch);
                assert_eq!(c.flight.is_some(), flight);
                (c.watch, c.flight) = (None, None);
            }
            rep.render()
        }
    }
}

/// Asserts that `soak` renders identically with planes off and with
/// each `(watch, flight)` combination in `planes` on.
pub fn assert_perturbation_free(soak: Soak, planes: &[(bool, bool)]) {
    let engine = ExperimentEngine::new(2);
    let off = render(soak, &engine, false, false);
    for &(watch, flight) in planes {
        assert_eq!(
            render(soak, &engine, watch, flight),
            off,
            "{soak:?} soak perturbed by watch={watch} flight={flight}"
        );
    }
}
