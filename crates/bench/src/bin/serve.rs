//! Multi-tenant CC serving harness: drives a seeded open-loop request
//! stream through every configured scheduler on a cluster of simulated
//! confidential GPUs, CC-on vs CC-off.
//!
//! ```sh
//! cargo run --release -p hcc-bench --bin serve -- --requests 100000 --gpus 4
//! ```
//!
//! Stdout carries only virtual-time figures and is byte-identical across
//! `HCC_ENGINE_THREADS` settings (the tier-2 CI smoke diffs it).
//! Wall-clock throughput (requests/sec) and the number of shapes the
//! engine simulated go to the `--json` side file and the stderr
//! engine-stats block.
//!
//! Exit codes: 0 = every run healthy, 1 = a run broke its latency
//! identity, conservation, session ledger or gauge drain, 2 = usage
//! error (a bad flag or `HCC_SERVE_*` override, or a `--requests`,
//! `--gpus` or `--max-batch` above what the simulator's records hold:
//! `u32::MAX`, `u32::MAX` and `u16::MAX`).

use hcc_bench::cli::{self, CliError};
use hcc_bench::engine;
use hcc_bench::serving::arrival::MAX_REQUESTS;
use hcc_bench::serving::cluster::{MAX_BATCH, MAX_GPUS};
use hcc_bench::serving::{self, SchedulerKind, ServingConfig};
use hcc_bench::watch::WatchConfig;

const USAGE: &str = "usage: serve [--requests N] [--gpus N] [--tenants N] [--seed S] \
     [--arrival poisson|bursty|diurnal] [--scheduler fifo|priority|batching|all] \
     [--util F] [--max-batch N] [--watch] [--flight] [--json <path>]";

fn main() {
    let mut json_path: Option<String> = None;
    let mut tenant_count = 2usize;

    let mut cfg = cli::parse_or_exit("serve", USAGE, |args| {
        // Harness default, then env overrides (HCC_SERVE_*), then flags.
        let mut cfg = ServingConfig {
            requests: 100_000,
            ..ServingConfig::default()
        }
        .from_env()?;
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--requests" => cfg.requests = args.at_most(&flag, MAX_REQUESTS)?.max(1),
                "--gpus" => cfg.gpus = args.at_most(&flag, MAX_GPUS)?.max(1) as usize,
                "--tenants" => tenant_count = args.u64(&flag)?.max(1) as usize,
                "--seed" => cfg.seed = args.u64(&flag)?,
                "--max-batch" => cfg.max_batch = args.at_most(&flag, MAX_BATCH)?.max(1) as usize,
                "--util" => cfg.target_util = args.fraction(&flag)?.clamp(0.05, 0.95),
                "--arrival" => cfg.arrival = args.arrival(&flag)?,
                "--scheduler" => {
                    cfg.schedulers = args.name(
                        &flag,
                        "scheduler",
                        "expected fifo|priority|batching|all",
                        |raw| match raw {
                            "all" => Some(SchedulerKind::ALL.to_vec()),
                            _ => SchedulerKind::parse(raw).map(|kind| vec![kind]),
                        },
                    )?;
                }
                "--watch" => cfg.watch = Some(WatchConfig::default().from_env()?),
                "--flight" => cfg.flight = Some(cli::flight_from_env()?),
                "--json" => json_path = Some(args.value(&flag)?),
                _ => return Err(CliError::Unknown { arg: flag }),
            }
        }
        Ok(cfg)
    });
    cfg.tenants = hcc_workloads::default_tenants(tenant_count);

    let wall = std::time::Instant::now();
    let report = serving::run(&cfg, engine::global());
    let elapsed = wall.elapsed();

    print!("{}", report.render());

    if let Some(path) = json_path {
        let stats = engine::global().stats();
        let secs = elapsed.as_secs_f64().max(1e-9);
        cli::write_json_or_exit(&path, |out| {
            out.obj(|o| {
                o.key("bench");
                o.obj(|o| {
                    o.field(
                        "requests_per_sec",
                        (cfg.requests as f64 / secs).round() as u64,
                    );
                    o.field("shapes_simulated", stats.scenarios_run);
                    o.field("wall_ms", elapsed.as_millis() as u64);
                });
                o.field("report", &report);
                o.field("engine", &stats);
            });
        });
    }

    engine::emit_stats();

    if !report.healthy() {
        eprintln!("serve: a run violated a structural invariant");
        std::process::exit(1);
    }
}
