//! The `hcc_lab` binary under the switches a process reads once: the
//! engine width (`HCC_ENGINE_THREADS`) and the figure planes
//! (`HCC_METRICS`, `HCC_CAUSAL`, `HCC_ENGINE_STATS_JSON`). No in-process
//! test can flip them, so these spawn the built binary.
//!
//! Every report renders at 1 and at 4 engine threads exactly as its
//! golden under `tests/golden/`, and the metrics and causal planes leave
//! `summary`'s stdout untouched. The `hotpaths` gate refuses a bad
//! `HCC_BENCH_SAMPLES` the way `hcc_lab` refuses a bad flag.

use std::path::PathBuf;
use std::process::{Command, Output};

use hcc_bench::faults::DEFAULT_PLAN;
use hcc_types::json::Json;

/// The switches a test may set; each spawn starts with all of them
/// unset, so the caller's environment cannot leak in.
const SWITCHES: [&str; 5] = [
    "HCC_ENGINE_THREADS",
    "HCC_METRICS",
    "HCC_CAUSAL",
    "HCC_ENGINE_STATS_JSON",
    "HCC_FAULT_PLAN",
];

/// Runs `bin` with `args` and `env` set: its exit status and output.
fn spawn(bin: &str, env: &[(&str, &str)], args: &[&str]) -> Output {
    let mut cmd = Command::new(bin);
    for var in SWITCHES {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied())
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"))
}

/// `hcc_lab args` with `env` set, which must exit 0: its stdout and
/// stderr.
fn lab(env: &[(&str, &str)], args: &[&str]) -> (String, String) {
    let out = spawn(env!("CARGO_BIN_EXE_hcc_lab"), env, args);
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("UTF-8 output");
    let (stdout, stderr) = (text(out.stdout), text(out.stderr));
    assert!(out.status.success(), "hcc_lab {args:?} {env:?}: {stderr}");
    (stdout, stderr)
}

/// `hcc_lab args` at 1 and at 4 engine threads: both stdouts equal
/// `golden`; the stderr of each run.
fn at_both_widths(args: &[&str], golden: &str) -> [String; 2] {
    ["1", "4"].map(|threads| {
        let (stdout, stderr) = lab(&[("HCC_ENGINE_THREADS", threads)], args);
        assert!(
            stdout == golden,
            "hcc_lab {args:?} at {threads} threads drifted from its golden"
        );
        stderr
    })
}

/// A scratch file for this process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hcc-lab-{}-{name}", std::process::id()))
}

const SUMMARY: &str = include_str!("../../../tests/golden/summary.txt");

/// `summary` and `figures` render their goldens at 1 and 4 threads; all
/// nine observations hold; and the 4-thread engine shares work.
#[test]
fn summary_and_figures_are_thread_invariant() {
    let [_, stats] = at_both_widths(&["summary"], SUMMARY);
    assert!(SUMMARY.lines().any(|l| l == "9/9 observation checks pass"));
    let hits = stats
        .lines()
        .find_map(|l| l.strip_prefix("cache hits: "))
        .and_then(|n| n.parse::<u64>().ok());
    assert!(hits.is_some_and(|n| n > 0), "cache hits: {hits:?}\n{stats}");

    at_both_widths(
        &["figures"],
        include_str!("../../../tests/golden/figures.txt"),
    );
    let (ablations, _) = lab(&[], &["figures", "ablations"]);
    assert!(ablations == include_str!("../../../tests/golden/ablations.txt"));
}

/// The seeded fault sweep replays its golden at 1 and 4 threads and
/// attributes recovery time.
#[test]
fn fault_sweep_is_thread_invariant() {
    let golden = include_str!("../../../tests/golden/fault_sweep.txt");
    at_both_widths(&["faults", "--plan", DEFAULT_PLAN], golden);
    assert!(golden.contains("total T_fault across suite: "));
    assert!(!golden.contains("total T_fault across suite: 0ns"));
}

/// `obs --serve --chaos` renders its golden and writes the same JSON at
/// 1 and 4 threads, with both soaks' snapshots, every gauge drained.
#[test]
fn obs_soak_snapshots_are_thread_invariant() {
    let golden = include_str!("../../../tests/golden/obs_report_soak.txt");
    let json = ["1", "4"].map(|threads| {
        let path = scratch(&format!("obs-{threads}.json"));
        let args = [
            "obs",
            "--serve",
            "--chaos",
            "--json",
            path.to_str().unwrap(),
        ];
        let (stdout, _) = lab(&[("HCC_ENGINE_THREADS", threads)], &args);
        assert!(stdout == golden, "obs --serve --chaos at {threads} threads");
        let json = std::fs::read(&path).expect("obs --json wrote its file");
        let _ = std::fs::remove_file(&path);
        json
    });
    assert!(
        json[0] == json[1],
        "obs --json differs between 1 and 4 threads"
    );
    let lines: Vec<&str> = golden.lines().collect();
    assert!(lines.contains(&"=== observability — soak snapshots (serving.queue_depth) ==="));
    assert!(lines.iter().any(|l| l.starts_with("serve:")));
    assert!(lines.iter().any(|l| l.starts_with("chaos:")));
    assert!(!lines
        .iter()
        .any(|l| l.starts_with("WARN ") && l.contains("drifted")));
}

/// `explain` renders its golden and writes the same JSON at 1 and 4
/// threads, blaming crypto and the bounce pool on a dense app and UVM
/// on a managed one.
#[test]
fn explain_is_thread_invariant_and_blames_the_papers_causes() {
    let golden = include_str!("../../../tests/golden/explain.txt");
    let json = ["1", "4"].map(|threads| {
        let path = scratch(&format!("explain-{threads}.json"));
        let args = ["explain", "--json", path.to_str().unwrap()];
        let (stdout, _) = lab(&[("HCC_ENGINE_THREADS", threads)], &args);
        assert!(stdout == golden, "explain at {threads} threads");
        let json = std::fs::read_to_string(&path).expect("explain --json wrote its file");
        let _ = std::fs::remove_file(&path);
        json
    });
    assert!(
        json[0] == json[1],
        "explain --json differs between 1 and 4 threads"
    );
    assert!(golden.contains("crypto+bounce exposed: true"));
    assert!(golden.contains("uvm exposed: true"));
    let rows = Json::parse(&json[0]).expect("explain --json parses");
    let rows = rows.as_array().expect("an array of apps");
    assert!(!rows.is_empty() && rows.iter().all(|r| r.get("delta_p_ns").is_some()));
}

/// The metrics and causal planes leave `summary`'s stdout as it is, and
/// `HCC_ENGINE_STATS_JSON` receives the engine's stats.
#[test]
fn figure_planes_do_not_perturb_summary() {
    let path = scratch("engine.json");
    let stats = path.to_str().unwrap();
    let (metrics, _) = lab(
        &[("HCC_METRICS", "1"), ("HCC_ENGINE_STATS_JSON", stats)],
        &["summary"],
    );
    let json = std::fs::read_to_string(&path).expect("HCC_ENGINE_STATS_JSON written");
    let _ = std::fs::remove_file(&path);
    assert!(metrics == SUMMARY, "summary drifted under HCC_METRICS=1");
    let stats = Json::parse(&json).expect("engine stats parse");
    assert!(stats.get("scenarios_run").and_then(Json::as_u64).is_some());

    let (causal, _) = lab(&[("HCC_CAUSAL", "1")], &["summary"]);
    assert!(causal == SUMMARY, "summary drifted under HCC_CAUSAL=1");
}

/// `HCC_BENCH_SAMPLES=0 hotpaths` is refused before any sample runs:
/// exit 2 and `hotpaths: ...`.
#[test]
fn hotpaths_refuses_a_zero_sample_count() {
    let out = spawn(
        env!("CARGO_BIN_EXE_hotpaths"),
        &[("HCC_BENCH_SAMPLES", "0")],
        &[],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(
        stderr.starts_with("hotpaths: HCC_BENCH_SAMPLES: "),
        "{stderr}"
    );
}
