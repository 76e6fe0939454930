//! The JSON exports, frozen by digest. The FNV-64 of each
//! `to_json_string()` below is pinned: a writer change that moves one
//! byte of a soak report, a flight log, a metrics snapshot, an
//! explanation or the calibration export fails here. The stormy flight
//! export also round-trips through `Json::parse` byte for byte.
//!
//! After a deliberate change, the failure message prints every digest
//! to pin.

use hcc_bench::engine::ExperimentEngine;
use hcc_bench::explain::explain_one;
use hcc_bench::watch::{calm_soak, stormy_soak};
use hcc_bench::{chaos, figures, serving};
use hcc_trace::FlightConfig;
use hcc_types::calib::Calibration;
use hcc_types::hash::Fnv64;
use hcc_types::json::{Json, ToJson};
use hcc_types::CcMode;
use hcc_workloads::{run_scenario, Scenario};

fn digest(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(text.as_bytes());
    h.finish()
}

/// The stormy chaos soak with the watch and flight planes on, and the
/// flight log of its one cell.
fn stormy(engine: &ExperimentEngine) -> (String, String) {
    let cfg = chaos::ChaosConfig {
        flight: Some(FlightConfig::default()),
        ..stormy_soak()
    };
    let rep = chaos::run(&cfg, engine);
    let flight = rep.profiles[0].cells[0]
        .flight
        .as_ref()
        .expect("flight plane on");
    (rep.to_json_string(), flight.to_json_string())
}

#[test]
fn exports_match_their_frozen_digests() {
    let engine = ExperimentEngine::new(2);
    let (chaos_report, flight_log) = stormy(&engine);
    let calm = serving::ServingConfig {
        flight: Some(FlightConfig::default()),
        ..calm_soak()
    };
    let serving_report = serving::run(&calm, &engine).to_json_string();
    let metrics = run_scenario(&Scenario::standard(
        "gemm",
        figures::cfg(CcMode::On).with_metrics(true),
    ))
    .expect("gemm runs")
    .metrics
    .expect("metrics plane on")
    .to_json_string();
    let [off, on] = [CcMode::Off, CcMode::On].map(|cc| {
        run_scenario(&Scenario::standard(
            "gemm",
            figures::cfg(cc).with_causal(true),
        ))
        .expect("gemm runs")
    });
    let explanation = explain_one("gemm", false, &off, &on).to_json_string();
    let calibration = Calibration::paper().to_json_string();

    let seen = [
        ("chaos_report", &chaos_report, 0x1b9c_7509_eda1_a571),
        ("flight_log", &flight_log, 0x9a26_6a43_9dd3_eb34),
        ("serving_report", &serving_report, 0xcb66_089a_2e6f_4063),
        ("metrics", &metrics, 0x2fa1_5de8_3b1f_cc1d),
        ("explanation", &explanation, 0xb8bf_2365_df06_7c03),
        ("calibration", &calibration, 0x2b3d_58d8_d065_5528),
    ];
    let drifted: Vec<_> = seen
        .iter()
        .filter(|(_, text, pinned)| digest(text) != *pinned)
        .collect();
    let table: Vec<_> = seen
        .iter()
        .map(|(name, text, _)| format!("{name}: {:#018x}", digest(text)))
        .collect();
    assert!(
        drifted.is_empty(),
        "exports drifted from their pinned digests; now:\n{}",
        table.join("\n")
    );
}

#[test]
fn stormy_flight_export_round_trips_through_the_parser() {
    let (_, flight_log) = stormy(&ExperimentEngine::new(2));
    let parsed = Json::parse(&flight_log).expect("flight export parses");
    assert!(parsed.get("samples").and_then(Json::as_array).is_some());
    assert_eq!(parsed.to_string(), flight_log);
}
