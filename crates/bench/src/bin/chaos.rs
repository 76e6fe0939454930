//! Chaos lab harness: seeded fault storms over virtual-time soak runs,
//! comparing recovery policies head-to-head by SLO impact.
//!
//! ```sh
//! cargo run --release -p hcc-bench --bin chaos -- --requests 20000 --days 1
//! ```
//!
//! Stdout carries only virtual-time figures and is byte-identical across
//! `HCC_ENGINE_THREADS` settings (the tier-2 CI smoke diffs it).
//! Wall-clock throughput (requests/sec under storm) goes to the `--json`
//! side file and the stderr engine-stats block.
//!
//! Exit codes: 0 = run healthy (budget FAIL verdicts are expected data),
//! 1 = leak / conservation / identity violation, 2 = usage error (a bad
//! flag or `HCC_CHAOS_*` override, or a `--requests` or `--gpus` above
//! `u32::MAX`).

use hcc_bench::chaos::{self, ChaosConfig};
use hcc_bench::cli::{self, CliError};
use hcc_bench::engine;
use hcc_bench::serving::arrival::MAX_REQUESTS;
use hcc_bench::serving::cluster::MAX_GPUS;
use hcc_bench::serving::SchedulerKind;
use hcc_bench::watch::WatchConfig;
use hcc_types::{RecoveryPolicy, StormProfile};

const USAGE: &str = "usage: chaos [--requests N] [--days N] [--seed S] [--gpus N] [--tenants N] \
     [--profiles p1,p2|all] [--policies retry,degrade,abort|all] [--replicas N] \
     [--episodes-per-day N] [--arrival poisson|bursty|diurnal] \
     [--scheduler fifo|priority|batching] [--watch] [--flight] [--json <path>]";

/// A comma list of names parsed by `one`, or `all`.
fn list<T>(
    raw: &str,
    all: impl FnOnce() -> Vec<T>,
    one: impl Fn(String) -> Result<T, CliError>,
) -> Result<Vec<T>, CliError> {
    if raw.trim() == "all" {
        return Ok(all());
    }
    raw.split(',').map(|name| one(name.to_string())).collect()
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut tenant_count = 2usize;

    let mut cfg = cli::parse_or_exit("chaos", USAGE, |args| {
        // Harness default, then env overrides (HCC_CHAOS_*), then flags.
        let mut cfg = ChaosConfig::default().from_env()?;
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--requests" => cfg.requests = args.at_most(&flag, MAX_REQUESTS)?.max(1),
                "--days" => cfg.days = args.u64(&flag)?.clamp(1, 3650),
                "--seed" => cfg.seed = args.u64(&flag)?,
                "--gpus" => cfg.gpus = args.at_most(&flag, MAX_GPUS)?.max(1) as usize,
                "--tenants" => tenant_count = args.u64(&flag)?.max(1) as usize,
                "--replicas" => cfg.replicas = args.u64(&flag)?.clamp(1, 16) as u32,
                "--episodes-per-day" => {
                    cfg.episodes_per_day = args.u64(&flag)?.clamp(1, 1440) as u32;
                }
                "--profiles" => {
                    cfg.profiles = list(&args.value(&flag)?, StormProfile::builtin, |name| {
                        cli::storm_profile(&flag, name, ", or all")
                    })?;
                }
                "--policies" => {
                    let all = || ChaosConfig::default().policies;
                    cfg.policies = list(&args.value(&flag)?, all, |name| {
                        cli::lookup(
                            &flag,
                            "recovery policy",
                            "policies: retry, degrade, abort, or all",
                            name,
                            RecoveryPolicy::parse,
                        )
                    })?;
                }
                "--arrival" => cfg.arrival = args.arrival(&flag)?,
                "--scheduler" => {
                    cfg.scheduler = args.name(
                        &flag,
                        "scheduler",
                        "expected fifo|priority|batching",
                        SchedulerKind::parse,
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
    cfg.budgets = chaos::default_budgets(&cfg.tenants);

    let wall = std::time::Instant::now();
    let report = chaos::run(&cfg, engine::global());
    let elapsed = wall.elapsed();

    print!("{}", report.render());

    if let Some(path) = json_path {
        let stats = engine::global().stats();
        let secs = elapsed.as_secs_f64().max(1e-9);
        let (pass, fail) = report.verdict_counts();
        cli::write_json_or_exit(&path, |out| {
            out.obj(|o| {
                o.key("bench");
                o.obj(|o| {
                    o.field(
                        "requests_per_sec",
                        (report.total_requests() as f64 / secs).round() as u64,
                    );
                    o.field("total_requests", report.total_requests());
                    o.field("cells", report.cells().count());
                    o.field("verdict_pass", pass);
                    o.field("verdict_fail", fail);
                    o.field("wall_ms", elapsed.as_millis() as u64);
                });
                o.field("report", &report);
                o.field("engine", &stats);
            });
        });
    }

    engine::emit_stats();

    if !report.healthy() {
        eprintln!(
            "chaos: leak or conservation violation: {}",
            report.first_violation().unwrap_or("identity check failed")
        );
        std::process::exit(1);
    }
}
