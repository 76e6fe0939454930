//! Wall-clock perf gate for the simulator's hot paths.
//!
//! Runs the full workload suite (every app × both CC modes, phase
//! extraction included) several times and reports throughput in
//! scenarios per second, then compares the result against the committed
//! baseline in `BENCH_hotpaths.json` and exits nonzero when throughput
//! regressed more than the budgeted 30%. The gate compares *best*
//! samples, not medians: best-of-N is far less sensitive to scheduler
//! noise on a loaded CI box, which is exactly what a regression gate
//! needs.
//!
//! After an intentional perf-affecting change, re-bless the baseline:
//!
//! ```text
//! HCC_BLESS=1 ./target/release/hotpaths
//! ```
//!
//! `HCC_BENCH_SAMPLES` overrides the sample count (default 20, at most
//! 10,000); any other value exits 2.
//!
//! The `pre_pr` block in the JSON is provenance, not a gate input: it
//! records the same measurement taken at the last commit before the
//! trace hot-path rebuild, so the achieved speedup stays auditable next
//! to the current figure.

use std::process::ExitCode;
use std::time::Instant;

use hcc_bench::cli;
use hcc_runtime::SimConfig;
use hcc_types::json::Json;
use hcc_types::CcMode;
use hcc_workloads::{runner, suites};

/// Full-suite wall time at the pre-rebuild commit, measured with this
/// same loop (best of 10) on the development machine. Kept in-binary so
/// a blessed file always carries its provenance.
const PRE_PR_BEST_MS: f64 = 7.410;

const BASELINE: &str = "BENCH_hotpaths.json";
const GATE_FRACTION: f64 = 0.7;

fn measure(samples: usize) -> (usize, Vec<f64>) {
    let apps = suites::all();
    let scenarios = apps.len() * CcMode::ALL.len();
    let mut times = Vec::with_capacity(samples);
    // One warmup pass: page in the binary and warm the allocator.
    for _ in 0..=samples {
        let t0 = Instant::now();
        for cc in CcMode::ALL {
            for spec in &apps {
                let res = runner::run(spec, SimConfig::new(cc)).expect("scenario runs");
                let _ = res.timeline.phase_totals();
            }
        }
        times.push(t0.elapsed().as_secs_f64());
    }
    times.remove(0);
    (scenarios, times)
}

fn render(scenarios: usize, best_ms: f64, median_ms: f64) -> String {
    let per_sec = |ms: f64| (scenarios as f64 / (ms / 1e3)).round();
    format!(
        "{{\n  \"pre_pr\": {{\n    \"scenarios\": {scenarios},\n    \"best_ms\": {PRE_PR_BEST_MS},\n    \"scenarios_per_sec\": {},\n    \"note\": \"same loop, best of 10, at the commit before the trace hot-path rebuild\"\n  }},\n  \"blessed\": {{\n    \"scenarios\": {scenarios},\n    \"best_ms\": {best_ms:.3},\n    \"median_ms\": {median_ms:.3},\n    \"scenarios_per_sec\": {}\n  }},\n  \"gate_fraction\": {GATE_FRACTION}\n}}\n",
        per_sec(PRE_PR_BEST_MS),
        per_sec(best_ms),
    )
}

fn main() -> ExitCode {
    let env: cli::Env = std::env::vars_os().collect();
    let samples = match env.positive("HCC_BENCH_SAMPLES", 10_000) {
        Ok(samples) => samples.unwrap_or(20) as usize,
        Err(e) => {
            let usage = "usage: [HCC_BENCH_SAMPLES=N] [HCC_BLESS=1] hotpaths";
            return cli::refuse(&mut std::io::stderr(), "hotpaths", usage, &e);
        }
    };

    let (scenarios, times) = measure(samples);
    let mut sorted = times.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let best_ms = sorted[0] * 1e3;
    let median_ms = sorted[sorted.len() / 2] * 1e3;
    let best_per_sec = scenarios as f64 / sorted[0];

    println!(
        "hotpaths: {scenarios} scenarios  best {best_ms:.3}ms  median {median_ms:.3}ms  \
         ({best_per_sec:.0} scenarios/sec best)"
    );
    println!(
        "hotpaths: {:.2}x over pre-rebuild baseline ({PRE_PR_BEST_MS}ms)",
        PRE_PR_BEST_MS / best_ms
    );

    if std::env::var_os("HCC_BLESS").is_some() {
        std::fs::write(BASELINE, render(scenarios, best_ms, median_ms)).expect("write baseline");
        println!("hotpaths: blessed {BASELINE}");
        return ExitCode::SUCCESS;
    }

    let text = match std::fs::read_to_string(BASELINE) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("hotpaths: FAIL — missing {BASELINE} ({e}); bless with HCC_BLESS=1");
            return ExitCode::FAILURE;
        }
    };
    let doc = Json::parse(&text).expect("baseline JSON parses");
    let blessed = doc
        .get("blessed")
        .and_then(|b| b.get("scenarios_per_sec"))
        .and_then(Json::as_f64)
        .expect("baseline has blessed.scenarios_per_sec");
    let gate = doc
        .get("gate_fraction")
        .and_then(Json::as_f64)
        .unwrap_or(GATE_FRACTION);

    let floor = blessed * gate;
    if best_per_sec < floor {
        eprintln!(
            "hotpaths: FAIL — {best_per_sec:.0} scenarios/sec is below the gate \
             ({floor:.0} = {blessed:.0} blessed x {gate}); a >{:.0}% wall-clock \
             regression slipped into the hot path. If intentional, re-bless with \
             HCC_BLESS=1 ./target/release/hotpaths",
            (1.0 - gate) * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!(
        "hotpaths: OK — {best_per_sec:.0} scenarios/sec >= gate {floor:.0} \
         (blessed {blessed:.0} x {gate})"
    );
    ExitCode::SUCCESS
}
