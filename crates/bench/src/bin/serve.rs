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

use hcc_bench::engine;
use hcc_bench::serving::{self, ArrivalKind, SchedulerKind, ServingConfig};
use hcc_types::json::{Json, ToJson};

fn usage() -> ! {
    eprintln!(
        "usage: serve [--requests N] [--gpus N] [--tenants N] [--seed S] \
         [--arrival poisson|bursty|diurnal] [--scheduler fifo|priority|batching|all] \
         [--util F] [--max-batch N] [--watch] [--flight] [--json <path>]"
    );
    std::process::exit(2);
}

/// One-line diagnostic naming the flag and the offending value, then the
/// usage line and a nonzero exit.
fn bad(flag: &str, detail: &str) -> ! {
    eprintln!("serve: {flag}: {detail}");
    usage()
}

fn parse_u64(flag: &str, value: Option<String>) -> u64 {
    let Some(raw) = value else {
        bad(flag, "missing value")
    };
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    };
    parsed.unwrap_or_else(|| bad(flag, &format!("cannot parse {raw:?} as an integer")))
}

fn main() {
    // Harness default, then env overrides (HCC_SERVE_*), then flags.
    let mut cfg = ServingConfig {
        requests: 100_000,
        ..ServingConfig::default()
    }
    .from_env();
    let mut json_path: Option<String> = None;
    let mut tenant_count = 2usize;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--requests" => cfg.requests = parse_u64(&arg, args.next()).max(1),
            "--gpus" => cfg.gpus = parse_u64(&arg, args.next()).max(1) as usize,
            "--tenants" => tenant_count = parse_u64(&arg, args.next()).max(1) as usize,
            "--seed" => cfg.seed = parse_u64(&arg, args.next()),
            "--max-batch" => cfg.max_batch = parse_u64(&arg, args.next()).max(1) as usize,
            "--util" => match args.next() {
                Some(raw) => match raw.parse::<f64>() {
                    Ok(v) => cfg.target_util = v.clamp(0.05, 0.95),
                    Err(_) => bad(&arg, &format!("cannot parse {raw:?} as a fraction")),
                },
                None => bad(&arg, "missing value"),
            },
            "--arrival" => match args.next() {
                Some(raw) => match ArrivalKind::parse(&raw) {
                    Some(kind) => cfg.arrival = kind,
                    None => bad(
                        &arg,
                        &format!(
                            "unknown arrival process {raw:?} (expected poisson|bursty|diurnal)"
                        ),
                    ),
                },
                None => bad(&arg, "missing value"),
            },
            "--scheduler" => match args.next() {
                Some(raw) if raw == "all" => cfg.schedulers = SchedulerKind::ALL.to_vec(),
                Some(raw) => match SchedulerKind::parse(&raw) {
                    Some(kind) => cfg.schedulers = vec![kind],
                    None => bad(
                        &arg,
                        &format!("unknown scheduler {raw:?} (expected fifo|priority|batching|all)"),
                    ),
                },
                None => bad(&arg, "missing value"),
            },
            "--watch" => {
                cfg.watch = Some(hcc_bench::watch::WatchConfig::default().from_env());
            }
            "--flight" => {
                cfg.flight = Some(hcc_trace::FlightConfig::default().from_env());
            }
            "--json" => json_path = args.next(),
            _ => bad(&arg, "unknown flag"),
        }
    }
    cfg.tenants = hcc_workloads::default_tenants(tenant_count);

    let wall = std::time::Instant::now();
    let report = serving::run(&cfg, engine::global());
    let elapsed = wall.elapsed();

    print!("{}", report.render());

    if let Some(path) = json_path {
        let stats = engine::global().stats();
        let secs = elapsed.as_secs_f64().max(1e-9);
        let doc = Json::Obj(vec![
            (
                "bench".to_string(),
                Json::Obj(vec![
                    (
                        "requests_per_sec".to_string(),
                        Json::U64((cfg.requests as f64 / secs).round() as u64),
                    ),
                    (
                        "shapes_simulated".to_string(),
                        Json::U64(stats.scenarios_run),
                    ),
                    ("wall_ms".to_string(), Json::U64(elapsed.as_millis() as u64)),
                ]),
            ),
            ("report".to_string(), report.to_json()),
            ("engine".to_string(), stats.to_json()),
        ]);
        if let Err(e) = std::fs::write(&path, doc.to_string()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }

    engine::emit_stats();

    if !report.conserved() {
        eprintln!("request conservation violated");
        std::process::exit(1);
    }
}
