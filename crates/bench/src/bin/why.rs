//! Request flight forensics: replays a canonical soak with the flight
//! recorder on and answers "why was this request slow?" — one request's
//! span waterfall rendered against its window's p50 exemplar, the
//! watchtower's incident→exemplar links, and cluster-scale
//! Chrome/Perfetto + OpenMetrics exports.
//!
//! ```sh
//! cargo run --release -p hcc-bench --bin why                    # exemplar index
//! cargo run --release -p hcc-bench --bin why -- --request 1423  # one waterfall
//! cargo run --release -p hcc-bench --bin why -- --incident 1    # incident forensics
//! ```
//!
//! The default drives the canonical stormy chaos soak (crypto-burst
//! calendar, Abort policy) with the watchtower and flight planes on;
//! `--serve` drives the calm CC-on serving soak instead. Stdout carries
//! only virtual-time figures and is byte-identical across
//! `HCC_ENGINE_THREADS` settings (the tier-2 CI smoke diffs it).
//!
//! Exports: `--chrome <path>` writes the cluster-scale Chrome trace-event
//! flight view (per-GPU tracks, arrival→settle flow arrows, load it in
//! Perfetto); `--prom <path>` writes the request-latency histogram with
//! OpenMetrics exemplars linking buckets back to request ids;
//! `--json <path>` writes the full flight log.
//!
//! Exit codes: 0 = healthy, 1 = span-identity violation / unknown
//! request or incident / unhealthy soak, 2 = usage error (a bad flag or
//! `HCC_WATCH_*` / `HCC_FLIGHT_*` override).

use hcc_bench::cli::{self, CanonicalSoak, CliError};
use hcc_bench::engine;
use hcc_bench::watch::{Soak, WatchReport};
use hcc_trace::metrics::to_prometheus_with_exemplars;
use hcc_trace::{ChromeExport, Histogram, MetricsSet};

const USAGE: &str = "usage: why [--serve] [--request N] [--incident N] [--requests N] [--days N] \
     [--gpus N] [--seed S] [--chrome <path>] [--prom <path>] [--json <path>]";

/// One incident summary line with its exemplar links — the bridge from a
/// watchtower page to a `--request` invocation.
fn incident_line(watch: &WatchReport, inc: &hcc_bench::watch::Incident) -> String {
    let tenant = watch
        .tenant_names
        .get(inc.tenant)
        .map(String::as_str)
        .unwrap_or("?");
    let storm = match &inc.storm {
        Some(s) => format!("{} ep{} {}", s.profile, s.episode, s.intensity),
        None => "uncorrelated".to_string(),
    };
    let exemplars = if inc.exemplars.is_empty() {
        "(none kept)".to_string()
    } else {
        inc.exemplars
            .iter()
            .map(|r| format!("#{r}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!(
        "  incident #{}: tenant {} | {}..{} | storm {} | exemplars {}",
        inc.id, tenant, inc.start, inc.end, storm, exemplars
    )
}

fn main() {
    let mut request: Option<u32> = None;
    let mut incident: Option<usize> = None;
    let mut chrome_path: Option<String> = None;
    let mut prom_path: Option<String> = None;
    let mut json_path: Option<String> = None;

    let canonical = cli::parse_or_exit("why", USAGE, |args| {
        let mut soak = CanonicalSoak::default();
        while let Some(flag) = args.next() {
            if soak.flag(&flag, args)? {
                continue;
            }
            match flag.as_str() {
                "--request" => request = Some(args.u32(&flag)?),
                "--incident" => incident = Some(args.u64(&flag)? as usize),
                "--chrome" => chrome_path = Some(args.value(&flag)?),
                "--prom" => prom_path = Some(args.value(&flag)?),
                "--json" => json_path = Some(args.value(&flag)?),
                _ => return Err(CliError::Unknown { arg: flag }),
            }
        }
        Ok(soak.canonical()?.with_flight(Some(cli::flight_from_env()?)))
    });
    let header = match &canonical {
        Soak::Calm(cfg) => format!(
            "=== why: request flight forensics ===\n\
             soak serve | requests {} | gpus {} | scheduler {} | seed {:#x}\n",
            cfg.requests, cfg.gpus, cfg.schedulers[0], cfg.seed,
        ),
        Soak::Stormy(cfg) => format!(
            "=== why: request flight forensics ===\n\
             soak chaos | requests {} | days {} | gpus {} | profile {} | policy {} | seed {:#x}\n",
            cfg.requests, cfg.days, cfg.gpus, cfg.profiles[0].name, cfg.policies[0], cfg.seed,
        ),
    };

    let wall = std::time::Instant::now();
    let soak = canonical.run(engine::global());
    let elapsed = wall.elapsed();
    let (watch_rep, flight) = (soak.watch, soak.flight.expect("flight plane enabled"));

    print!("{header}");
    println!(
        "flight | window {}ms | worst {} | reservoir {} | seed {:#x}",
        flight.cfg.window.as_nanos() / 1_000_000,
        flight.cfg.worst,
        flight.cfg.reservoir,
        flight.cfg.seed,
    );

    let mut lookup_failed = false;
    if let Some(req) = request {
        match flight.find(req) {
            Some(sample) => print!("{}", flight.render_against_p50(sample)),
            None => {
                println!(
                    "request #{req} was not kept by the sampler \
                     (raise HCC_FLIGHT_WORST / HCC_FLIGHT_RESERVOIR or widen the window)"
                );
                lookup_failed = true;
            }
        }
    } else if let Some(id) = incident {
        match watch_rep
            .as_ref()
            .and_then(|w| w.incidents.iter().find(|i| i.id == id))
        {
            Some(inc) => {
                let watch = watch_rep.as_ref().expect("incident came from the report");
                println!("{}", incident_line(watch, inc));
                match inc.exemplars.first().and_then(|r| flight.find(*r)) {
                    Some(worst) => print!("{}", flight.render_against_p50(worst)),
                    None => println!("  (no exemplar settled inside the incident span)"),
                }
            }
            None => {
                println!("incident #{id} not found in the watch report");
                lookup_failed = true;
            }
        }
    } else {
        if let Some(watch) = &watch_rep {
            if watch.incidents.is_empty() {
                println!("incidents: (none)");
            } else {
                println!("incidents:");
                for inc in &watch.incidents {
                    println!("{}", incident_line(watch, inc));
                }
            }
        }
        let mut tails: Vec<_> = flight.samples.iter().filter(|s| s.tail).collect();
        tails.sort_by_key(|s| (std::cmp::Reverse(s.latency()), s.skeleton.req));
        println!("tail exemplars (worst kept, use --request <id>):");
        for s in tails.iter().take(10) {
            println!(
                "  #{:<8} w{:<6} latency {:>12} | tenant {} | gpu {} | {}",
                s.skeleton.req,
                s.window,
                s.latency().to_string(),
                s.skeleton.tenant,
                s.skeleton.gpu,
                if s.skeleton.cold { "cold spdm" } else { "warm" },
            );
        }
    }

    let identity = flight.identity_holds();
    println!(
        "flight: requests {} | windows {} | kept {} | bound {} | span-identity {}",
        flight.recorded,
        flight.windows,
        flight.kept_entries,
        flight.entry_bound(),
        if identity { "OK" } else { "VIOLATED" },
    );

    if let Some(path) = chrome_path {
        cli::write_or_exit(&path, ChromeExport::render_flight(&flight));
    }

    if let Some(path) = prom_path {
        let mut set = MetricsSet::new();
        set.push_hist(
            "request.latency",
            Histogram::from_durations(flight.samples.iter().map(|s| s.latency())),
        );
        cli::write_or_exit(
            &path,
            to_prometheus_with_exemplars(&set, &flight.exemplar_points()),
        );
    }

    if let Some(path) = json_path {
        // Flight-off replay of the identical soak for the overhead
        // figure. It runs second, so the engine's shape cache is warm
        // for it but cold for the flight-on run — any bias overstates
        // the recorder's overhead, never hides it.
        let off_wall = std::time::Instant::now();
        let off = canonical.with_flight(None).run(engine::global());
        assert!(off.healthy);
        let off_elapsed = off_wall.elapsed();
        let stats = engine::global().stats();
        cli::write_json_or_exit(&path, |out| {
            out.obj(|o| {
                o.key("bench");
                o.obj(|o| {
                    o.field("kept", flight.kept_entries);
                    o.field("store_bound_entries", flight.entry_bound());
                    o.field("store_peak_bytes", flight.estimated_bytes());
                    o.field("wall_ms_flight_on", elapsed.as_millis() as u64);
                    o.field("wall_ms_flight_off", off_elapsed.as_millis() as u64);
                });
                o.field("flight", &flight);
                o.field("engine", &stats);
            });
        });
    }

    engine::emit_stats();

    if !soak.healthy {
        eprintln!("why: underlying soak violated a structural invariant");
        std::process::exit(1);
    }
    if !identity {
        eprintln!("why: span-identity violated in the flight log");
        std::process::exit(1);
    }
    if lookup_failed {
        std::process::exit(1);
    }
}
