//! The `--json` side files of `hcc_lab`'s soaks and reports, written
//! through the front door ([`lab::run`]) and read back with
//! [`Json::parse`]; and the forensics pages that link an incident to a
//! request the `why --request` page resolves.
//!
//! Each run has its own engine, so `serve`'s side file counts only the
//! scenarios that run simulated.

use std::process::ExitCode;

use hcc_bench::cli::Env;
use hcc_bench::lab;
use hcc_types::json::Json;

/// `hcc_lab argv`, which must exit 0: its stdout.
fn run(argv: &[&str]) -> String {
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = lab::run(
        argv.iter().map(|a| a.to_string()),
        &Env::default(),
        &mut out,
        &mut err,
    );
    let err = String::from_utf8_lossy(&err);
    assert_eq!(code, ExitCode::SUCCESS, "hcc_lab {argv:?}: {err}");
    String::from_utf8(out).expect("UTF-8 stdout")
}

/// `hcc_lab argv --json <file>`, which must exit 0: its stdout and the
/// parsed file.
fn run_json(argv: &[&str]) -> (String, Json) {
    let name = format!("hcc-side-{}-{}.json", std::process::id(), argv[0]);
    let path = std::env::temp_dir().join(name);
    let mut argv = argv.to_vec();
    argv.extend(["--json", path.to_str().expect("a UTF-8 temp path")]);
    let out = run(&argv);
    let text = std::fs::read_to_string(&path).expect("the side file was written");
    let _ = std::fs::remove_file(&path);
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("{argv:?} side file: {e}"));
    (out, json)
}

/// `doc`'s unsigned integer at `path`, a list of keys.
fn u64_at(doc: &Json, path: &[&str]) -> u64 {
    let value = path.iter().try_fold(doc, |node, key| node.get(key));
    value
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no integer at {path:?}"))
}

#[test]
fn side_files_and_forensics_pages_hold_their_fields() {
    // Runs first: the engine has simulated nothing else.
    let (_, serve) = run_json(&["serve", "--requests", "100000", "--gpus", "4"]);
    assert!(u64_at(&serve, &["bench", "requests_per_sec"]) > 0);
    assert_eq!(
        u64_at(&serve, &["bench", "shapes_simulated"]),
        2 * u64_at(&serve, &["report", "distinct_shapes"]),
        "each distinct shape simulates once per CC mode"
    );

    let (_, chaos) = run_json(&["chaos"]);
    assert!(u64_at(&chaos, &["bench", "requests_per_sec"]) > 0);
    assert!(u64_at(&chaos, &["bench", "verdict_fail"]) > 0);

    let (_, slo) = run_json(&["watch"]);
    for field in ["windows_per_sec", "incidents", "alerts"] {
        assert!(u64_at(&slo, &["bench", field]) > 0, "{field}");
    }
    assert!(run(&["watch", "--serve"]).contains("(no incidents)"));

    let (page, flight) = run_json(&["why"]);
    assert!(u64_at(&flight, &["bench", "store_peak_bytes"]) > 0);
    u64_at(&flight, &["bench", "wall_ms_flight_on"]);
    u64_at(&flight, &["bench", "wall_ms_flight_off"]);
    assert!(page.lines().any(|l| l.ends_with("span-identity OK")));
    let exemplar = page
        .lines()
        .filter(|l| l.contains("incident #"))
        .find_map(|l| l.split_once("exemplars #"))
        .and_then(|(_, ids)| ids.split(' ').next())
        .expect("an incident links an exemplar");
    let waterfall = run(&["why", "--request", exemplar]);
    let head = format!("request #{exemplar} ");
    assert!(
        waterfall.lines().any(|l| l.starts_with(&head)),
        "{waterfall}"
    );
    assert!(waterfall.contains("span-identity OK"));

    let (_, summary) = run_json(&["summary"]);
    let apps = summary.get("apps").and_then(Json::as_array).expect("apps");
    assert!(!apps.is_empty() && apps.iter().all(|a| a.get("p_ns").is_some()));
    u64_at(&summary, &["engine", "scenarios_run"]);

    let (page, obs) = run_json(&["obs"]);
    let trailer = page
        .lines()
        .find_map(|l| l.strip_prefix("snapshots: "))
        .and_then(|l| l.strip_suffix(" saturated (json round-trip OK)"))
        .expect("the obs trailer");
    let counts: Vec<u64> = trailer
        .split(", ")
        .filter_map(|part| part.split(' ').next()?.parse().ok())
        .collect();
    assert!(
        counts.len() == 3 && counts[1] > 0 && counts[2] > 0,
        "{trailer}"
    );
    assert!(!obs.as_array().expect("an array of snapshots").is_empty());
}
