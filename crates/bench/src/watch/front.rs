//! The two forensics subcommands over the canonical soaks
//! ([`CanonicalSoak`]): `hcc_lab watch` ([`WATCH`]), the SLO
//! watchtower's incident log and window table, and `hcc_lab why`
//! ([`WHY`]), the request flight recorder's answer to "why was this
//! request slow?".
//!
//! Both replay the stormy chaos soak by default and the calm serving soak
//! with `--serve`, and open with the same soak line. Stdout is
//! byte-identical across `HCC_ENGINE_THREADS` settings. Exit status 1
//! means the soak violated a structural invariant (for `why` also a
//! span-identity violation, or a request or incident the soak did not
//! keep, said on stderr). A `why --request` id past the soak's requests
//! is refused before the soak runs, with status 2.

use std::io::{self, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hcc_trace::metrics::to_prometheus_with_exemplars;
use hcc_trace::{ChromeExport, FlightLog, Histogram, MetricsSet};

use super::{Canonical, Incident, Observed, Soak, WatchReport};
use crate::cli::{self, Args, CanonicalSoak, CliError, Env};
use crate::engine::ExperimentEngine;
use crate::lab::{Command, Run};
use crate::report;

/// Walks `args`: the canonical soak's flags, then the ones `extra`
/// consumes (`Ok(false)` leaves a flag unknown).
fn parse_soak(
    args: &mut Args,
    mut extra: impl FnMut(&str, &mut Args) -> Result<bool, CliError>,
) -> Result<CanonicalSoak, CliError> {
    let mut soak = CanonicalSoak::default();
    while let Some(flag) = args.next() {
        if !soak.flag(&flag, args)? && !extra(&flag, args)? {
            return Err(CliError::Unknown { arg: flag });
        }
    }
    Ok(soak)
}

/// Runs `canonical` on `engine`, then writes `title` and the soak line
/// to `out` (`util` adds the calm soak's target utilization): the
/// observed soak and its wall time.
fn replay(
    canonical: &Canonical,
    engine: &ExperimentEngine,
    title: &str,
    util: bool,
    out: &mut dyn Write,
) -> io::Result<(Observed, Duration)> {
    let wall = Instant::now();
    let soak = canonical.run(engine);
    let elapsed = wall.elapsed();
    writeln!(out, "=== {title} ===")?;
    match canonical {
        Soak::Calm(cfg) => {
            let util = if util {
                format!(" | util {:.2}", cfg.target_util)
            } else {
                String::new()
            };
            writeln!(
                out,
                "soak serve | requests {} | gpus {}{util} | scheduler {} | seed {:#x}",
                cfg.requests, cfg.gpus, cfg.schedulers[0], cfg.seed,
            )?;
        }
        Soak::Stormy(cfg) => writeln!(
            out,
            "soak chaos | requests {} | days {} | gpus {} | profile {} | policy {} | seed {:#x}",
            cfg.requests, cfg.days, cfg.gpus, cfg.profiles[0].name, cfg.policies[0], cfg.seed,
        )?,
    }
    Ok((soak, elapsed))
}

const UNHEALTHY: &str = "underlying soak violated a structural invariant";

/// `hcc_lab watch`: windowed rollups, multi-window burn-rate alerts and
/// storm-correlated incident timelines over a canonical soak.
///
/// `--json <path>` writes the full watch report plus wall-clock bench
/// figures; `--prom <path>` writes the Prometheus-style text exposition
/// with `tenant`/`window` labels.
pub const WATCH: Command = Command {
    usage: "usage: hcc_lab watch [--serve] [--flight] [--requests N] [--days N] [--gpus N] \
        [--seed S] [--profile NAME] [--util F] [--json <path>] [--prom <path>]",
    parse: watch,
};

fn watch(args: &mut Args, env: &Env) -> Result<Run, CliError> {
    let (mut flight, mut profile, mut util) = (false, None, None);
    let (mut json_path, mut prom_path) = (None, None);
    let soak = parse_soak(args, |flag, args| {
        match flag {
            "--flight" => flight = true,
            "--profile" => profile = Some(cli::storm_profile(flag, args.value(flag)?, "")?),
            "--util" => util = Some(args.fraction(flag)?.clamp(0.05, 0.95)),
            "--json" => json_path = Some(args.value(flag)?),
            "--prom" => prom_path = Some(args.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let flight = flight.then(|| env.flight()).transpose()?;
    let mut canonical = soak.canonical(env)?.with_flight(flight);
    let title = match &mut canonical {
        Soak::Calm(cfg) => {
            cfg.target_util = util.unwrap_or(cfg.target_util);
            "slo watchtower: serve-shaped soak"
        }
        Soak::Stormy(cfg) => {
            if let Some(p) = profile {
                cfg.profiles = vec![p];
            }
            "slo watchtower: chaos-shaped soak"
        }
    };
    Ok(Box::new(move |lab, out, err| {
        let (soak, elapsed) = replay(&canonical, &lab.engine, title, true, out)?;
        let watched = soak.watch.as_ref().expect("watch plane enabled");
        out.write_all(watched.render().as_bytes())?;

        if let Some(path) = prom_path {
            cli::write_file(&path, watched.to_prometheus())?;
        }
        if let Some(path) = json_path {
            let bench = [
                (
                    "windows_per_sec",
                    cli::per_sec(watched.windows.len() as u64, elapsed),
                ),
                ("windows", watched.windows.len() as u64),
                ("incidents", watched.incidents.len() as u64),
                ("alerts", watched.alerts()),
                ("storm_correlated", watched.storm_correlated() as u64),
                ("wall_ms", elapsed.as_millis() as u64),
            ];
            cli::write_bench_json(&path, &bench, "watch", watched, &lab.engine)?;
        }

        Ok(report::soak_status(
            lab,
            err,
            "watch",
            (!soak.healthy).then_some(UNHEALTHY),
        ))
    }))
}

/// `hcc_lab why`: replays a canonical soak with the flight recorder on —
/// one request's span waterfall rendered against its window's p50
/// exemplar, the watchtower's incident→exemplar links, and
/// cluster-scale exports.
///
/// `--chrome <path>` writes the Chrome trace-event flight view (per-GPU
/// tracks, arrival→settle flow arrows, load it in Perfetto); `--prom
/// <path>` writes the request-latency histogram with OpenMetrics
/// exemplars linking buckets back to request ids; `--json <path>` writes
/// the full flight log.
pub const WHY: Command = Command {
    usage: "usage: hcc_lab why [--serve] [--request N] [--incident N] [--requests N] \
        [--days N] [--gpus N] [--seed S] [--chrome <path>] [--prom <path>] [--json <path>]",
    parse: why,
};

/// One incident summary line with its exemplar links — the bridge from a
/// watchtower page to a `--request` invocation.
fn incident_line(watch: &WatchReport, inc: &Incident) -> String {
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

/// The page's body, written to `out`: one request's waterfall, one
/// incident's forensics, or (neither asked for) the incident list and
/// the worst exemplars. `false`, said on `err`, when the flight log kept
/// no such request or the watch report has no such incident.
fn why_body(
    flight: &FlightLog,
    watch: Option<&WatchReport>,
    request: Option<u32>,
    incident: Option<usize>,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> io::Result<bool> {
    if let Some(req) = request {
        let Some(sample) = flight.find(req) else {
            writeln!(
                err,
                "why: request #{req} was not kept by the sampler \
                 (raise HCC_FLIGHT_WORST / HCC_FLIGHT_RESERVOIR or widen the window)"
            )?;
            return Ok(false);
        };
        out.write_all(flight.render_against_p50(sample).as_bytes())?;
    } else if let Some(id) = incident {
        let found = watch.and_then(|w| Some((w, w.incidents.iter().find(|i| i.id == id)?)));
        let Some((watch, inc)) = found else {
            writeln!(err, "why: incident #{id} not found in the watch report")?;
            return Ok(false);
        };
        writeln!(out, "{}", incident_line(watch, inc))?;
        match inc.exemplars.first().and_then(|r| flight.find(*r)) {
            Some(worst) => out.write_all(flight.render_against_p50(worst).as_bytes())?,
            None => writeln!(out, "  (no exemplar settled inside the incident span)")?,
        }
    } else {
        if let Some(watch) = watch {
            if watch.incidents.is_empty() {
                writeln!(out, "incidents: (none)")?;
            } else {
                writeln!(out, "incidents:")?;
                for inc in &watch.incidents {
                    writeln!(out, "{}", incident_line(watch, inc))?;
                }
            }
        }
        let mut tails: Vec<_> = flight.samples.iter().filter(|s| s.tail).collect();
        tails.sort_by_key(|s| (std::cmp::Reverse(s.latency()), s.skeleton.req));
        writeln!(out, "tail exemplars (worst kept, use --request <id>):")?;
        for s in tails.iter().take(10) {
            writeln!(
                out,
                "  #{:<8} w{:<6} latency {:>12} | tenant {} | gpu {} | {}",
                s.skeleton.req,
                s.window,
                s.latency().to_string(),
                s.skeleton.tenant,
                s.skeleton.gpu,
                if s.skeleton.cold { "cold spdm" } else { "warm" },
            )?;
        }
    }
    Ok(true)
}

fn why(args: &mut Args, env: &Env) -> Result<Run, CliError> {
    let (mut request, mut incident) = (None, None);
    let (mut chrome_path, mut prom_path, mut json_path) = (None, None, None);
    let soak = parse_soak(args, |flag, args| {
        match flag {
            "--request" => request = Some(args.u32(flag)?),
            "--incident" => incident = Some(args.u64(flag)? as usize),
            "--chrome" => chrome_path = Some(args.value(flag)?),
            "--prom" => prom_path = Some(args.value(flag)?),
            "--json" => json_path = Some(args.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let canonical = soak.canonical(env)?.with_flight(Some(env.flight()?));
    let requests = canonical.requests();
    if let Some(req) = request.filter(|&req| u64::from(req) >= requests) {
        return Err(CliError::Invalid {
            flag: "--request".to_string(),
            detail: format!("{req} is past the soak's {requests} requests"),
        });
    }
    Ok(Box::new(move |lab, out, err| {
        let title = "why: request flight forensics";
        let (soak, elapsed) = replay(&canonical, &lab.engine, title, false, out)?;
        let flight = soak.flight.as_ref().expect("flight plane enabled");
        writeln!(
            out,
            "flight | window {}ms | worst {} | reservoir {} | seed {:#x}",
            flight.cfg.window.as_nanos() / 1_000_000,
            flight.cfg.worst,
            flight.cfg.reservoir,
            flight.cfg.seed,
        )?;
        let found = why_body(flight, soak.watch.as_ref(), request, incident, out, err)?;

        let identity = flight.identity_holds();
        writeln!(
            out,
            "flight: requests {} | windows {} | kept {} | bound {} | span-identity {}",
            flight.recorded,
            flight.windows,
            flight.kept_entries,
            flight.entry_bound(),
            if identity { "OK" } else { "VIOLATED" },
        )?;

        if let Some(path) = chrome_path {
            cli::write_file(&path, ChromeExport::render_flight(flight))?;
        }
        if let Some(path) = prom_path {
            let mut set = MetricsSet::new();
            set.push_hist(
                "request.latency",
                Histogram::from_durations(flight.samples.iter().map(|s| s.latency())),
            );
            cli::write_file(
                &path,
                to_prometheus_with_exemplars(&set, &flight.exemplar_points()),
            )?;
        }
        if let Some(path) = json_path {
            // Flight-off replay of the identical soak for the overhead
            // figure. It runs second, so the engine's shape cache is warm
            // for it but cold for the flight-on run — any bias overstates
            // the recorder's overhead, never hides it.
            let off_wall = Instant::now();
            let off = canonical.with_flight(None).run(&lab.engine);
            assert!(off.healthy);
            let off_elapsed = off_wall.elapsed();
            let bench = [
                ("kept", flight.kept_entries),
                ("store_bound_entries", flight.entry_bound()),
                ("store_peak_bytes", flight.estimated_bytes()),
                ("wall_ms_flight_on", elapsed.as_millis() as u64),
                ("wall_ms_flight_off", off_elapsed.as_millis() as u64),
            ];
            cli::write_bench_json(&path, &bench, "flight", flight, &lab.engine)?;
        }

        let broken = match (soak.healthy, identity) {
            (false, _) => Some(UNHEALTHY),
            (_, false) => Some("span-identity violated in the flight log"),
            _ => None,
        };
        let status = report::soak_status(lab, err, "why", broken);
        // A request or incident not kept was already reported.
        Ok(if found { status } else { ExitCode::FAILURE })
    }))
}
