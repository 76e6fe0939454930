//! Golden snapshot + contracts for the SLO watchtower.
//!
//! Both canonical soaks are frozen byte-for-byte in
//! `tests/golden/slo_watch.txt`: the stormy chaos-shaped soak (whose
//! peak windows must burn budgets into a storm-correlated incident
//! timeline) and the calm low-utilisation serving soak (whose timeline
//! must stay empty). Any drift in window layout, burn-rate math,
//! incident coalescing, storm correlation, blame attribution, or text
//! rendering is caught immediately. On top of the snapshot, the watch
//! rows of the soak matrix (`perturbation`) hold the plane thread-count
//! invariant and perturbation-free: enabling it must not move a single
//! byte of the underlying soak figures. The same holds at 50 ms fast
//! windows, a window-index width the snapshot does not cover.
//!
//! To bless a deliberate change:
//! `HCC_BLESS=1 cargo test --test slo_watch`.

mod golden;
mod perturbation;

use hcc_bench::engine::ExperimentEngine;
use hcc_bench::watch::{calm_soak, stormy_soak, Canonical, Soak, WatchConfig, WatchReport};
use hcc_types::{SimDuration, StormIntensity};

fn watch(soak: Canonical) -> WatchReport {
    soak.run(&ExperimentEngine::new(2))
        .watch
        .expect("the canonical soaks enable the watch plane")
}

/// Both polarities in one snapshot: the stormy timeline full of
/// incidents, then the calm empty one.
#[test]
fn watch_reports_match_golden_snapshot() {
    let snapshot = format!(
        "=== stormy: chaos crypto-burst / abort ===\n{}\n=== calm: serve fifo ===\n{}",
        watch(Soak::Stormy(stormy_soak())).render(),
        watch(Soak::Calm(calm_soak())).render()
    );
    golden::assert_matches("slo_watch.txt", &snapshot);
}

/// The stormy polarity: the default chaos-shaped soak produces a
/// non-empty incident timeline in which every incident names its
/// tenant, window span, burn rate, active storm episode, and top
/// blamed resource class.
#[test]
fn stormy_soak_produces_a_fully_attributed_incident_timeline() {
    let watch = watch(Soak::Stormy(stormy_soak()));
    assert!(
        !watch.incidents.is_empty(),
        "stormy soak raised no incidents"
    );
    assert!(watch.alerts() > 0);
    for inc in &watch.incidents {
        assert!(
            inc.tenant < watch.tenant_names.len(),
            "incident names no tenant"
        );
        assert!(inc.first_window <= inc.last_window);
        assert!(inc.peak_burn_milli > 0, "incident #{} has no burn", inc.id);
        let storm = inc
            .storm
            .as_ref()
            .unwrap_or_else(|| panic!("incident #{} lost its storm context", inc.id));
        assert!(!storm.profile.is_empty());
        assert!(storm.episode >= 1, "episodes are 1-based ordinals");
        let blame = inc
            .blame
            .as_ref()
            .unwrap_or_else(|| panic!("incident #{} has no blame", inc.id));
        assert!(blame.pct <= 100);
    }
    assert_eq!(
        watch.storm_correlated(),
        watch.incidents.len(),
        "every stormy incident must correlate to a storm episode"
    );
    assert!(
        watch
            .incidents
            .iter()
            .any(|inc| inc.storm.as_ref().is_some_and(
                |s| s.profile == "crypto-burst" && s.intensity == StormIntensity::Peak
            )),
        "no incident correlates to a peak-intensity crypto-burst episode"
    );
}

/// The calm polarity: the low-utilisation serving soak burns no budget
/// and renders the explicit empty-timeline marker.
#[test]
fn calm_soak_renders_an_empty_timeline() {
    let watch = watch(Soak::Calm(calm_soak()));
    assert_eq!(watch.alerts(), 0, "calm soak must not alert");
    assert!(watch.incidents.is_empty());
    assert!(watch.render().contains("(no incidents)"));
}

/// Perturbation-freedom, chaos side: enabling the watch plane must not
/// move a single byte of the stormy soak's own figures, at 1 or 4
/// engine threads.
#[test]
fn watch_plane_is_perturbation_free_for_chaos_soaks() {
    perturbation::assert_perturbation_free(Soak::Stormy(stormy_soak()), &[(true, false)]);
}

/// `hcc_lab watch` at 50 ms fast windows (`HCC_WATCH_FAST_MS=50`: some
/// 4,900 windows, most holding a few settlements) renders the stormy
/// soak's watch page the same on 1 and 4 engine threads.
#[test]
fn stormy_watch_at_50ms_windows_is_thread_invariant() {
    let mut soak = stormy_soak();
    soak.watch = Some(WatchConfig {
        fast: SimDuration::millis(50),
        ..WatchConfig::default()
    });
    let run = perturbation::observed_row("stormy watch at 50 ms windows", &Soak::Stormy(soak));
    let watch = run.watch.expect("the watch plane is on");
    assert!(
        watch.windows.len() > 4_000,
        "{} windows",
        watch.windows.len()
    );
}

/// Perturbation-freedom, serving side: the same holds on the calm soak.
#[test]
fn watch_plane_is_perturbation_free_for_serving_soaks() {
    perturbation::assert_perturbation_free(Soak::Calm(calm_soak()), &[(true, false)]);
}
