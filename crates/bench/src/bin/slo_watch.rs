//! SLO watchtower harness: windowed rollups, multi-window burn-rate
//! alerts, and storm-correlated incident timelines over a virtual-time
//! soak.
//!
//! ```sh
//! cargo run --release -p hcc-bench --bin slo_watch            # stormy chaos soak
//! cargo run --release -p hcc-bench --bin slo_watch -- --serve # calm serving soak
//! ```
//!
//! The default drives the canonical chaos-shaped soak (crypto-burst
//! calendar, Abort policy) whose peak windows burn every tenant's error
//! budget past the alert threshold, and renders the incident log plus
//! the per-window rollup table. `--serve` drives the calm low-util
//! serving soak instead (empty timeline). Stdout carries only
//! virtual-time figures and is byte-identical across
//! `HCC_ENGINE_THREADS` settings (the tier-2 CI smoke diffs it).
//!
//! Exports: `--json <path>` writes the full watch report plus wall-clock
//! bench figures; `--prom <path>` writes the Prometheus-style text
//! exposition with `tenant`/`window` labels.
//!
//! Exit codes: 0 = soak healthy, 1 = underlying soak violated a
//! structural invariant, 2 = usage error (a bad flag or `HCC_WATCH_*` /
//! `HCC_FLIGHT_*` override).

use hcc_bench::cli::{self, CanonicalSoak, CliError};
use hcc_bench::engine;
use hcc_bench::watch::Soak;

const USAGE: &str = "usage: slo_watch [--serve] [--flight] [--requests N] [--days N] [--gpus N] \
     [--seed S] [--profile NAME] [--util F] [--json <path>] [--prom <path>]";

fn main() {
    let mut profile = None;
    let mut util: Option<f64> = None;
    let mut json_path: Option<String> = None;
    let mut prom_path: Option<String> = None;

    let mut canonical = cli::parse_or_exit("slo_watch", USAGE, |args| {
        let mut soak = CanonicalSoak::default();
        let mut flight = false;
        while let Some(flag) = args.next() {
            if soak.flag(&flag, args)? {
                continue;
            }
            match flag.as_str() {
                "--flight" => flight = true,
                "--profile" => profile = Some(cli::storm_profile(&flag, args.value(&flag)?, "")?),
                "--util" => util = Some(args.fraction(&flag)?.clamp(0.05, 0.95)),
                "--json" => json_path = Some(args.value(&flag)?),
                "--prom" => prom_path = Some(args.value(&flag)?),
                _ => return Err(CliError::Unknown { arg: flag }),
            }
        }
        let flight = flight.then(cli::flight_from_env).transpose()?;
        Ok(soak.canonical()?.with_flight(flight))
    });
    let header = match &mut canonical {
        Soak::Calm(cfg) => {
            cfg.target_util = util.unwrap_or(cfg.target_util);
            format!(
                "=== slo watchtower: serve-shaped soak ===\n\
                 soak serve | requests {} | gpus {} | util {:.2} | scheduler {} | seed {:#x}\n",
                cfg.requests, cfg.gpus, cfg.target_util, cfg.schedulers[0], cfg.seed,
            )
        }
        Soak::Stormy(cfg) => {
            if let Some(p) = profile {
                cfg.profiles = vec![p];
            }
            format!(
                "=== slo watchtower: chaos-shaped soak ===\n\
                 soak chaos | requests {} | days {} | gpus {} | profile {} | policy {} | seed {:#x}\n",
                cfg.requests, cfg.days, cfg.gpus, cfg.profiles[0].name, cfg.policies[0], cfg.seed,
            )
        }
    };

    let wall = std::time::Instant::now();
    let soak = canonical.run(engine::global());
    let elapsed = wall.elapsed();
    let report = soak.watch.expect("watch plane enabled");

    print!("{header}");
    print!("{}", report.render());

    if let Some(path) = prom_path {
        cli::write_or_exit(&path, report.to_prometheus());
    }

    if let Some(path) = json_path {
        let stats = engine::global().stats();
        let secs = elapsed.as_secs_f64().max(1e-9);
        cli::write_json_or_exit(&path, |out| {
            out.obj(|o| {
                o.key("bench");
                o.obj(|o| {
                    o.field(
                        "windows_per_sec",
                        (report.windows.len() as f64 / secs).round() as u64,
                    );
                    o.field("windows", report.windows.len());
                    o.field("incidents", report.incidents.len());
                    o.field("alerts", report.alerts());
                    o.field("storm_correlated", report.storm_correlated());
                    o.field("wall_ms", elapsed.as_millis() as u64);
                });
                o.field("watch", &report);
                o.field("engine", &stats);
            });
        });
    }

    engine::emit_stats();

    if !soak.healthy {
        eprintln!("slo_watch: underlying soak violated a structural invariant");
        std::process::exit(1);
    }
}
