//! `hcc_lab` under the switches its front door reads from the
//! environment: the engine width (`HCC_ENGINE_THREADS`), the figure
//! switches (`HCC_FAULT_PLAN`, `HCC_METRICS`, `HCC_CAUSAL`) and the stats
//! file (`HCC_ENGINE_STATS_JSON`). Each run goes through [`lab::run`]
//! with an [`Env`] of literal pairs, so one test binary holds every
//! width and every switch.
//!
//! Every report renders at 1 and at 4 engine threads exactly as its
//! golden under `tests/golden/`, on an engine of the width asked for.
//! The metrics and causal planes leave `summary`'s stdout untouched, and
//! a fault plan changes exactly the reports whose digests it pins. Two rows spawn a binary: `hcc_lab`'s `main`
//! reads the real environment, and the `hotpaths` gate refuses a bad
//! `HCC_BENCH_SAMPLES` the way `hcc_lab` refuses a bad flag.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

use hcc_bench::cli::Env;
use hcc_bench::faults::DEFAULT_PLAN;
use hcc_bench::lab;
use hcc_types::hash::Fnv64;
use hcc_types::json::Json;

/// A scratch file of this process, unique per call.
fn scratch(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    std::env::temp_dir().join(format!("hcc-lab-{pid}-{n}-{name}"))
}

/// `hcc_lab argv` under the overrides `vars`, which must exit 0, with
/// its engine stats sent to a scratch `HCC_ENGINE_STATS_JSON` file: its
/// stdout and those stats.
fn lab(vars: &[(&str, &str)], argv: &[&str]) -> (String, Json) {
    let path = scratch("engine.json");
    let env: Env = vars
        .iter()
        .copied()
        .chain([("HCC_ENGINE_STATS_JSON", path.to_str().unwrap())])
        .collect();
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = lab::run(argv.iter().map(|a| a.to_string()), &env, &mut out, &mut err);
    let err = String::from_utf8_lossy(&err);
    assert_eq!(code, ExitCode::SUCCESS, "hcc_lab {argv:?} {vars:?}: {err}");
    let stats = std::fs::read_to_string(&path).expect("HCC_ENGINE_STATS_JSON written");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8(out).expect("UTF-8 stdout");
    (stdout, Json::parse(&stats).expect("engine stats parse"))
}

/// `stats`' unsigned integer `key`.
fn stat(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).expect(key)
}

/// `hcc_lab args` at 1 and at 4 engine threads: both stdouts equal
/// `golden`, each on an engine of the width asked for; the stats of
/// each run.
fn at_both_widths(args: &[&str], golden: &str) -> [Json; 2] {
    [1, 4].map(|threads| {
        let width = threads.to_string();
        let (stdout, stats) = lab(&[("HCC_ENGINE_THREADS", &width)], args);
        assert!(
            stdout == golden,
            "hcc_lab {args:?} at {threads} threads drifted from its golden"
        );
        assert_eq!(stat(&stats, "threads"), threads, "hcc_lab {args:?}");
        stats
    })
}

const SUMMARY: &str = include_str!("../../../tests/golden/summary.txt");
const FAULT_SWEEP: &str = include_str!("../../../tests/golden/fault_sweep.txt");

/// `summary`, `figures` and `figures ablations` render their goldens at
/// 1 and 4 threads; all nine observations hold; and the 4-thread engine
/// shares work.
#[test]
fn summary_and_figures_are_thread_invariant() {
    let [_, stats] = at_both_widths(&["summary"], SUMMARY);
    assert!(SUMMARY.lines().any(|l| l == "9/9 observation checks pass"));
    assert!(stat(&stats, "cache_hits") > 0, "{stats:?}");

    at_both_widths(
        &["figures"],
        include_str!("../../../tests/golden/figures.txt"),
    );
    at_both_widths(
        &["figures", "ablations"],
        include_str!("../../../tests/golden/ablations.txt"),
    );
}

/// The seeded fault sweep replays its golden at 1 and 4 threads and
/// attributes recovery time.
#[test]
fn fault_sweep_is_thread_invariant() {
    at_both_widths(&["faults", "--plan", DEFAULT_PLAN], FAULT_SWEEP);
    assert!(FAULT_SWEEP.contains("total T_fault across suite: "));
    assert!(!FAULT_SWEEP.contains("total T_fault across suite: 0ns"));
}

/// `args` plus `--json <scratch>` at 1 thread, and at 4 threads with
/// the metrics switch on, which joins the planes the report turns on
/// itself: each stdout equals `golden`; both files hold the same text,
/// which is returned.
fn json_at_both_widths(args: &[&str], golden: &str) -> String {
    let [narrow, wide] = [(1, "0"), (4, "1")].map(|(threads, metrics)| {
        let path = scratch("side.json");
        let mut args = args.to_vec();
        args.extend(["--json", path.to_str().unwrap()]);
        let width = threads.to_string();
        let vars = [
            ("HCC_ENGINE_THREADS", width.as_str()),
            ("HCC_METRICS", metrics),
        ];
        let (stdout, stats) = lab(&vars, &args);
        assert!(stdout == golden, "hcc_lab {args:?} at {threads} threads");
        assert_eq!(stat(&stats, "threads"), threads, "hcc_lab {args:?}");
        let json = std::fs::read_to_string(&path).expect("--json wrote its file");
        let _ = std::fs::remove_file(&path);
        json
    });
    assert!(
        narrow == wide,
        "{args:?} --json differs between 1 and 4 threads"
    );
    narrow
}

/// `obs --serve --chaos` renders its golden and writes the same JSON at
/// 1 and 4 threads (the metrics switch on), with both soaks'
/// snapshots, every gauge drained.
#[test]
fn obs_soak_snapshots_are_thread_invariant() {
    let golden = include_str!("../../../tests/golden/obs_report_soak.txt");
    json_at_both_widths(&["obs", "--serve", "--chaos"], golden);
    let lines: Vec<&str> = golden.lines().collect();
    assert!(lines.contains(&"=== observability — soak snapshots (serving.queue_depth) ==="));
    assert!(lines.iter().any(|l| l.starts_with("serve:")));
    assert!(lines.iter().any(|l| l.starts_with("chaos:")));
    assert!(!lines
        .iter()
        .any(|l| l.starts_with("WARN ") && l.contains("drifted")));
}

/// `explain` renders its golden and writes the same JSON at 1 and 4
/// threads (the metrics switch on, its own causal plane kept), blaming
/// crypto and the bounce pool on a dense app and UVM on a managed one.
#[test]
fn explain_is_thread_invariant_and_blames_the_papers_causes() {
    let golden = include_str!("../../../tests/golden/explain.txt");
    let json = json_at_both_widths(&["explain"], golden);
    assert!(golden.contains("crypto+bounce exposed: true"));
    assert!(golden.contains("uvm exposed: true"));
    let rows = Json::parse(&json).expect("explain --json parses");
    let rows = rows.as_array().expect("an array of apps");
    assert!(!rows.is_empty() && rows.iter().all(|r| r.get("delta_p_ns").is_some()));
}

/// The metrics and causal planes leave `summary`'s stdout as it is, and
/// `HCC_ENGINE_STATS_JSON` receives the engine's stats.
#[test]
fn figure_planes_do_not_perturb_summary() {
    for plane in ["HCC_METRICS", "HCC_CAUSAL"] {
        let (stdout, stats) = lab(&[(plane, "1")], &["summary"]);
        assert!(stdout == SUMMARY, "summary drifted under {plane}=1");
        assert!(stat(&stats, "scenarios_run") > 0, "{plane}: {stats:?}");
    }
}

/// FNV-1a 64 of `text`.
fn fnv(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(text.as_bytes());
    h.finish()
}

/// The stdout digest of each report under `HCC_FAULT_PLAN=`
/// [`DEFAULT_PLAN`], every run exiting 0, recorded from the release
/// `hcc_lab` before the figure switches moved into `lab::Lab`. The plan
/// changes `summary`, `figures`, `explain` and `obs`; `sensitivity` and
/// the fault sweep run no figure config and read as they do without it.
const UNDER_THE_PLAN: [(&[&str], u64); 6] = [
    (&["summary"], 0x826b_6d40_f44e_addb),
    (&["figures"], 0x2288_62ad_e3f8_64c9),
    (&["explain"], 0xc61f_cdb6_ce22_20a1),
    (&["sensitivity"], 0x2349_f26d_bc95_e982),
    (&["obs"], 0x1654_90b2_3d58_6f6d),
    (&["faults", "--plan", DEFAULT_PLAN], 0x4f9d_9a4e_8e7d_ed37),
];

/// A fault plan reaches exactly the figure runs [`UNDER_THE_PLAN`] pins,
/// on top of the planes a report turns on itself (`explain`'s causal
/// graph, `obs`'s metrics); the fault sweep keeps its own plan under any
/// other.
#[test]
fn the_fault_plan_reaches_exactly_the_figure_runs() {
    for (argv, digest) in UNDER_THE_PLAN {
        let (stdout, _) = lab(&[("HCC_FAULT_PLAN", DEFAULT_PLAN)], argv);
        assert_eq!(fnv(&stdout), digest, "{argv:?} under the plan drifted");
    }
    let other = [("HCC_FAULT_PLAN", "seed=9,gcm=0.5,max=2")];
    let (stdout, _) = lab(&other, &["faults"]);
    assert!(stdout == FAULT_SWEEP, "the fault sweep took HCC_FAULT_PLAN");
}

/// Runs `bin` with `args` and `vars` set, every other `HCC_*` variable of
/// the test's own environment removed: its exit status and output.
fn spawn(bin: &str, vars: &[(&str, &str)], args: &[&str]) -> Output {
    let mut cmd = Command::new(bin);
    for (var, _) in std::env::vars_os() {
        if var.to_string_lossy().starts_with("HCC_") {
            cmd.env_remove(var);
        }
    }
    cmd.envs(vars.iter().copied())
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"))
}

/// `hcc_lab`'s `main` reads the process environment: the width and the
/// stats file reach the run, and a zero width is refused with exit 2.
#[test]
fn main_reads_the_process_environment() {
    let bin = env!("CARGO_BIN_EXE_hcc_lab");
    let path = scratch("main.json");
    let vars = [
        ("HCC_ENGINE_THREADS", "4"),
        ("HCC_ENGINE_STATS_JSON", path.to_str().unwrap()),
    ];
    let out = spawn(bin, &vars, &["figures", "fig01"]);
    let stats = std::fs::read_to_string(&path);
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stats = Json::parse(&stats.expect("HCC_ENGINE_STATS_JSON written")).unwrap();
    assert_eq!(stat(&stats, "threads"), 4);

    let out = spawn(bin, &[("HCC_ENGINE_THREADS", "0")], &["list"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(
        stderr.starts_with("hcc_lab list: HCC_ENGINE_THREADS: must be at least 1\n"),
        "{stderr}"
    );
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
