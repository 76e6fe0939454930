//! One-command reproduction summary: prints
//! [`figures::summary::render`]'s headline statistics and nine scored
//! observations, and with `--json <path>` exports per-app `P` and phase
//! totals plus the engine's self-profile.
//!
//! ```sh
//! cargo run --release -p hcc-bench --bin summary
//! ```

use hcc_bench::cli::{self, CliError};
use hcc_bench::figures;
use hcc_bench::{engine, report};
use hcc_types::json::JsonOut;

/// The machine-readable benchmark summary: end-to-end `P` and phase
/// totals of every standard app in both modes (Fig. 3's runs), plus the
/// engine's self-profile (wall time, cache hits). Every run resolves from
/// the engine cache when the figures above already simulated it.
fn bench_summary(out: &mut JsonOut<'_>, failures: &mut Vec<engine::ScenarioFailure>) {
    let batch = figures::fig03::scenarios();
    let results = engine::global().run_all(&batch);
    out.obj(|o| {
        o.key("apps");
        o.arr(|o| {
            for (scenario, result) in batch.iter().zip(&results) {
                match result.run() {
                    Ok(run) => o.obj(|o| {
                        o.field("app", scenario.app_name());
                        o.field("cc", scenario.cc());
                        o.field("p_ns", run.timeline.span());
                        o.field("phases", run.timeline.phase_totals());
                    }),
                    Err(f) => failures.push(f),
                }
            }
        });
        o.field("engine", engine::global().stats());
    });
}

fn main() {
    let mut json_path: Option<String> = None;
    cli::parse_or_exit("summary", "usage: summary [--json <path>]", |args| {
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--json" => json_path = Some(args.value(&flag)?),
                _ => return Err(CliError::Unknown { arg: flag }),
            }
        }
        Ok(())
    });
    let summary = figures::summary::render();
    print!("{}", summary.data);
    let mut failures = summary.failures;

    // Machine-readable export (written last so the engine self-profile
    // covers every batch above). Only wall-clock fields differ between
    // thread counts; the per-app entries are deterministic.
    if let Some(path) = json_path {
        cli::write_json_or_exit(&path, |out| bench_summary(out, &mut failures));
    }

    // Engine statistics carry wall-clock times, so they go to stderr:
    // stdout stays byte-identical across HCC_ENGINE_THREADS settings
    // (the tier-2 CI smoke diffs it).
    engine::emit_stats();

    report::exit_on_failures(&failures);
}
