//! The four workloads: how each builds its inputs from the seed, runs one
//! iteration through the shipped entry points, and checks the output.
//!
//! Only public entry points are called (`serving::run`, `chaos::run`,
//! `ExperimentEngine::{new, run_all, stats}`, `arrival::generate`,
//! `Scenario::content_hash`, `runner::run_scenario`,
//! `Timeline::phase_totals` and the reports' `render`), so later
//! refactors of the layers underneath keep this benchmark valid. Every
//! iteration builds a fresh engine: the process-global one memoises, and
//! a user pays a cold engine on every bin invocation.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hcc_bench::chaos::{self, ChaosConfig, ChaosReport};
use hcc_bench::engine::{EngineStats, ExperimentEngine, ScenarioResult};
use hcc_bench::figures::{fig04a, fig05, fig06, fig07, fig09};
use hcc_bench::serving::{self, arrival, ServingConfig, ServingReport};
use hcc_bench::watch;
use hcc_runtime::SimConfig;
use hcc_trace::FlightConfig;
use hcc_types::hash::Fnv64;
use hcc_types::json::ToJson;
use hcc_types::{ByteSize, CcMode, StormIntensity};
use hcc_workloads::{runner, Scenario, TenantSpec};

use crate::spans::Tracer;

/// Engine worker threads. One process generates the load, and one
/// worker keeps run-to-run spread lowest on a small shared machine.
pub const ENGINE_THREADS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Serve,
    Storm,
    Forensics,
    Suite,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Serve,
        Workload::Storm,
        Workload::Forensics,
        Workload::Suite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Storm => "storm",
            Workload::Forensics => "forensics",
            Workload::Suite => "suite",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one work unit is.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::Suite => "scenarios",
            _ => "requests",
        }
    }

    /// The seed the workload runs at when none is given (`None`: its
    /// inputs have fixed seeds).
    fn default_seed(self) -> Option<u64> {
        match self {
            Workload::Serve => Some(serving::DEFAULT_SEED),
            Workload::Storm | Workload::Forensics => Some(chaos::DEFAULT_SEED),
            Workload::Suite => None,
        }
    }

    /// FNV-64 of the rendered output at the default seed. Serve and
    /// storm equal the stdout of `serve --requests 10000 --gpus 4` and of
    /// `chaos`; forensics covers the chaos report and the flight log's
    /// JSON; suite covers each result's label, span and phase totals.
    fn expected_digest(self) -> u64 {
        match self {
            Workload::Serve => 0x6b20_67f6_acaa_38d2,
            Workload::Storm => 0x618d_f036_97f4_e73b,
            Workload::Forensics => 0xed74_6f55_9770_dced,
            Workload::Suite => 0x60ca_9da8_421c_908a,
        }
    }
}

/// What one iteration runs.
#[derive(Debug, Clone)]
pub enum Job {
    Serve(ServingConfig),
    Chaos(ChaosConfig),
    Suite(Vec<Scenario>),
}

/// A workload's inputs, built from its seed.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub workload: Workload,
    /// The seed applied (`None` for the fixed-seed suite).
    pub seed: Option<u64>,
    pub job: Job,
    /// Work units one iteration completes.
    pub work: u64,
    /// The digest every iteration must render, when known.
    pub expected: Option<u64>,
    /// The workload's distinct shapes, for the per-layer probes.
    shapes: Vec<Scenario>,
}

impl Prepared {
    /// The full-size inputs of `workload`; `seed` overrides the soaks'
    /// default seeds and is ignored by the suite.
    pub fn new(workload: Workload, seed: Option<u64>) -> Prepared {
        let seed = workload.default_seed().map(|d| seed.unwrap_or(d));
        let job = match workload {
            Workload::Serve => Job::Serve(ServingConfig {
                requests: 10_000,
                ..ServingConfig::default()
            }),
            Workload::Storm => Job::Chaos(ChaosConfig::default()),
            Workload::Forensics => Job::Chaos(ChaosConfig {
                requests: 40_000,
                days: 40,
                flight: Some(FlightConfig::default()),
                ..watch::stormy_soak()
            }),
            Workload::Suite => {
                let mut batch = fig04a::scenarios();
                batch.extend(fig05::scenarios());
                batch.extend(fig06::scenarios(ByteSize::mib(64), 40));
                batch.extend(fig07::scenarios());
                batch.extend(fig09::scenarios());
                Job::Suite(batch)
            }
        };
        let mut prepared = Prepared::with_job(workload, seed, job);
        if seed == workload.default_seed() {
            prepared.expected = Some(workload.expected_digest());
        }
        prepared
    }

    /// Inputs around an explicit job (reduced sizes in tests); the seed,
    /// when given, replaces the job's own.
    fn with_job(workload: Workload, seed: Option<u64>, mut job: Job) -> Prepared {
        let (work, shapes) = match &mut job {
            Job::Serve(cfg) => {
                if let Some(s) = seed {
                    cfg.seed = s;
                }
                let work = cfg.requests * cfg.schedulers.len() as u64 * 2;
                (work, serve_shapes(cfg))
            }
            Job::Chaos(cfg) => {
                if let Some(s) = seed {
                    cfg.seed = s;
                }
                let cells = (cfg.profiles.len() * cfg.policies.len()) as u64;
                (cfg.requests * cells, chaos_shapes(cfg))
            }
            Job::Suite(batch) => {
                let shapes = distinct(batch);
                (shapes.len() as u64, shapes)
            }
        };
        Prepared {
            workload,
            seed,
            job,
            work,
            expected: None,
            shapes,
        }
    }
}

fn distinct_apps(tenants: &[TenantSpec]) -> Vec<&'static str> {
    let mut apps = Vec::new();
    for class in tenants.iter().flat_map(|t| &t.mix) {
        if !apps.contains(&class.app) {
            apps.push(class.app);
        }
    }
    apps
}

fn distinct(batch: &[Scenario]) -> Vec<Scenario> {
    let mut seen = std::collections::HashSet::new();
    batch
        .iter()
        .filter(|s| seen.insert(s.content_hash()))
        .cloned()
        .collect()
}

/// The serving soak's shapes: one per app per mode, exactly as
/// `serving::run` prefetches them.
fn serve_shapes(cfg: &ServingConfig) -> Vec<Scenario> {
    let apps = distinct_apps(&cfg.tenants);
    CcMode::ALL
        .iter()
        .flat_map(|&cc| {
            apps.iter()
                .map(move |&app| Scenario::standard(app, cfg.shape_cfg(cc)))
        })
        .collect()
}

/// Shapes with the structure of a chaos soak's working set: one calm
/// shape per app plus, per (profile, policy, app), a rising and a peak
/// fault plan per replica. `chaos::run` derives its plan seeds privately,
/// so these use their own; the plans have the same sites and rates.
fn chaos_shapes(cfg: &ChaosConfig) -> Vec<Scenario> {
    let apps = distinct_apps(&cfg.tenants);
    let calm = SimConfig::new(CcMode::On).with_seed(cfg.shape_seed);
    let mut shapes: Vec<Scenario> = apps
        .iter()
        .map(|&app| Scenario::standard(app, calm.clone()))
        .collect();
    for profile in &cfg.profiles {
        for policy in &cfg.policies {
            for &app in &apps {
                for intensity in [StormIntensity::Rising, StormIntensity::Peak] {
                    for replica in 0..cfg.replicas {
                        let mut h = Fnv64::new();
                        h.write_u64(cfg.seed);
                        h.write_u64(profile.fingerprint());
                        h.write_u64(intensity.index() as u64);
                        h.write_u32(replica);
                        let plan = profile.plan(intensity, h.finish());
                        let shape_cfg = calm
                            .clone()
                            .with_fault_plan(plan)
                            .with_recovery(policy.clone());
                        shapes.push(Scenario::standard(app, shape_cfg));
                    }
                }
            }
        }
    }
    shapes
}

/// Counts read off one iteration's report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Requests the cluster settled or rejected, over every run.
    pub cluster_requests: u64,
    /// Dispatched batches, over every run.
    pub cluster_batches: u64,
    pub watch_windows: u64,
    pub watch_alerts: u64,
    pub watch_incidents: u64,
    pub flight_recorded: u64,
    pub flight_kept: u64,
    pub flight_store_bytes: u64,
}

/// The result of one iteration.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Host time of the timed region: fresh engine, soak and render.
    pub wall: Duration,
    /// FNV-64 of the rendered output.
    pub digest: u64,
    /// The first broken invariant, if any.
    pub violation: Option<String>,
    pub engine: EngineStats,
    pub counts: Counts,
}

enum Report {
    Serve(ServingReport),
    Chaos(ChaosReport),
    Suite(Vec<std::sync::Arc<ScenarioResult>>),
}

/// Runs one iteration. With an enabled tracer the spans are
/// `iteration` > `engine.new`, `soak` (> aggregate `engine.batch` >
/// `engine.sim`, `engine.lookup`) and `render`.
pub fn iterate(p: &Prepared, tr: &mut Tracer) -> Outcome {
    let started = Instant::now();
    let (engine, report, text) = tr.span("iteration", |tr| {
        let engine = tr.span("engine.new", |_| ExperimentEngine::new(ENGINE_THREADS));
        let report = tr.span("soak", |_| match &p.job {
            Job::Serve(cfg) => Report::Serve(serving::run(cfg, &engine)),
            Job::Chaos(cfg) => Report::Chaos(chaos::run(cfg, &engine)),
            Job::Suite(batch) => Report::Suite(engine.run_all(batch)),
        });
        let text = tr.span("render", |_| render(&report));
        (engine, report, text)
    });
    let wall = started.elapsed();
    let stats = engine.stats();
    if let Some(soak) = tr.last("soak") {
        let batch = tr.aggregate(soak, "engine.batch", stats.elapsed);
        tr.aggregate(batch, "engine.sim", stats.sim_wall);
        tr.aggregate(batch, "engine.lookup", stats.cache_service);
    }
    let mut h = Fnv64::new();
    h.write(text.as_bytes());
    // The flight log never feeds a report's text; its JSON export joins
    // the digest outside the timed region.
    if let Report::Chaos(rep) = &report {
        for flight in rep.cells().filter_map(|c| c.flight.as_ref()) {
            h.write(flight.to_json_string().as_bytes());
        }
    }
    let counts = counts(&report);
    Outcome {
        wall,
        digest: h.finish(),
        violation: check(p, &report, &stats, &counts),
        counts,
        engine: stats,
    }
}

fn render(report: &Report) -> String {
    match report {
        Report::Serve(rep) => rep.render(),
        Report::Chaos(rep) => rep.render(),
        Report::Suite(results) => {
            let mut text = String::new();
            for r in results {
                match r.run() {
                    Ok(run) => {
                        let span = run.timeline.span().as_nanos();
                        let phases = run.timeline.phase_totals().to_json_string();
                        text.push_str(&format!("{}\t{span}\t{phases}\n", r.label));
                    }
                    Err(f) => text.push_str(&format!("!! {f}\n")),
                }
            }
            text
        }
    }
}

fn check(p: &Prepared, report: &Report, stats: &EngineStats, counts: &Counts) -> Option<String> {
    let broken = |ok: bool, what: &str| (!ok).then(|| what.to_string());
    match report {
        Report::Serve(rep) => broken(rep.conserved(), "serve: requests not conserved")
            .or_else(|| broken(rep.slo_holds(), "serve: cc-on p99 not above cc-off p99")),
        Report::Chaos(rep) => {
            let healthy = broken(
                rep.healthy(),
                rep.first_violation().unwrap_or("chaos: identity broken"),
            );
            if p.workload != Workload::Forensics {
                return healthy;
            }
            let identity = rep
                .cells()
                .all(|c| c.flight.as_ref().is_some_and(|f| f.identity_holds()));
            healthy
                .or_else(|| broken(identity, "forensics: flight span identity broken"))
                .or_else(|| broken(counts.watch_incidents > 0, "forensics: no incident raised"))
        }
        Report::Suite(results) => {
            let failed = results.iter().filter(|r| r.result.is_err()).count();
            broken(failed == 0, &format!("suite: {failed} scenarios failed")).or_else(|| {
                broken(
                    stats.scenarios_run == p.work,
                    &format!("suite: {} of {} scenarios ran", stats.scenarios_run, p.work),
                )
            })
        }
    }
}

fn counts(report: &Report) -> Counts {
    let mut c = Counts::default();
    let modes: Vec<&serving::ModeRun> = match report {
        Report::Serve(rep) => rep.runs.iter().flat_map(|r| &r.modes).collect(),
        Report::Chaos(rep) => rep.cells().map(|cell| &cell.mode).collect(),
        Report::Suite(_) => Vec::new(),
    };
    for m in modes {
        c.cluster_requests += m.completed() + m.rejected();
        c.cluster_batches += m.batches;
    }
    if let Report::Chaos(rep) = report {
        for cell in rep.cells() {
            if let Some(w) = &cell.watch {
                c.watch_windows += w.windows.len() as u64;
                c.watch_alerts += w.alerts();
                c.watch_incidents += w.incidents.len() as u64;
            }
            if let Some(f) = &cell.flight {
                c.flight_recorded += f.recorded;
                c.flight_kept += f.kept_entries;
                c.flight_store_bytes += f.estimated_bytes();
            }
        }
    }
    c
}

/// Per-layer timings measured outside the soak, over the workload's own
/// inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// Mean host µs per `Scenario::content_hash` call.
    pub hash_us: f64,
    /// Mean host µs per serial `runner::run_scenario` call.
    pub runner_us: f64,
    /// Trace events those runs recorded (Σ `audit.events`).
    pub events: u64,
    /// Those events per host second of the runs.
    pub events_per_s: f64,
    /// Mean host µs per `Timeline::phase_totals` call.
    pub phase_totals_us: f64,
    /// Host ms of one `arrival::generate` with the soak's tenants,
    /// process, count and seed (the cost does not depend on the rates).
    pub arrival_ms: Option<f64>,
}

/// Calls each probed layer often enough that a mean is above timer
/// resolution.
const PROBE_CALLS: usize = 256;

pub fn probe(p: &Prepared, tr: &mut Tracer) -> Probe {
    let shapes = &p.shapes;
    let reps = PROBE_CALLS.div_ceil(shapes.len().max(1));
    let per_call_us = |d: Duration, calls: usize| d.as_secs_f64() * 1e6 / calls.max(1) as f64;

    let hash_us = tr.span("probe.hash", |_| {
        let t = Instant::now();
        for _ in 0..reps {
            for s in shapes {
                black_box(s.content_hash());
            }
        }
        per_call_us(t.elapsed(), reps * shapes.len())
    });

    let (runs, runner_time) = tr.span("probe.runner", |_| {
        let t = Instant::now();
        let runs: Vec<_> = shapes.iter().map(runner::run_scenario).collect();
        (runs, t.elapsed())
    });
    let timelines: Vec<_> = runs.iter().flatten().map(|r| &r.timeline).collect();
    let events = runs.iter().flatten().map(|r| r.audit.events as u64).sum();

    let phase_totals_us = tr.span("probe.phase_totals", |_| {
        let reps = PROBE_CALLS.div_ceil(timelines.len().max(1));
        let t = Instant::now();
        for _ in 0..reps {
            for tl in &timelines {
                black_box(tl.phase_totals());
            }
        }
        per_call_us(t.elapsed(), reps * timelines.len())
    });

    let arrival = match &p.job {
        Job::Serve(cfg) => Some((&cfg.tenants, cfg.arrival, cfg.requests, cfg.seed)),
        Job::Chaos(cfg) => Some((&cfg.tenants, cfg.arrival, cfg.requests, cfg.seed)),
        Job::Suite(_) => None,
    };
    let arrival_ms = arrival.map(|(tenants, kind, count, seed)| {
        let rates: Vec<f64> = tenants.iter().map(|t| f64::from(t.load_weight)).collect();
        tr.span("probe.arrival", |_| {
            let t = Instant::now();
            black_box(arrival::generate(tenants, &rates, kind, count, seed));
            t.elapsed().as_secs_f64() * 1e3
        })
    });

    Probe {
        hash_us,
        runner_us: per_call_us(runner_time, shapes.len()),
        events,
        events_per_s: events as f64 / runner_time.as_secs_f64(),
        phase_totals_us,
        arrival_ms,
    }
}

/// Soak host time of the forensics workload with its observation planes
/// off, with the watchtower only, and with watchtower and flight
/// recorder; `None` for the other workloads.
pub fn plane_triple(p: &Prepared) -> Option<[Duration; 3]> {
    let Job::Chaos(cfg) = &p.job else {
        return None;
    };
    if p.workload != Workload::Forensics {
        return None;
    }
    let variants = [(None, None), (cfg.watch, None), (cfg.watch, cfg.flight)];
    Some(variants.map(|(watch, flight)| {
        let cfg = ChaosConfig {
            watch,
            flight,
            ..cfg.clone()
        };
        let engine = ExperimentEngine::new(ENGINE_THREADS);
        let t = Instant::now();
        let report = black_box(chaos::run(&cfg, &engine));
        let soak = t.elapsed();
        drop(report);
        soak
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each workload at a reduced size: the smoke the full benchmark
    /// scales up.
    fn small(workload: Workload) -> Prepared {
        let job = match workload {
            Workload::Serve => Job::Serve(ServingConfig {
                requests: 300,
                gpus: 2,
                ..ServingConfig::default()
            }),
            Workload::Storm => Job::Chaos(ChaosConfig {
                requests: 400,
                days: 2,
                replicas: 1,
                ..ChaosConfig::default()
            }),
            Workload::Forensics => Job::Chaos(ChaosConfig {
                flight: Some(FlightConfig::default()),
                ..watch::stormy_soak()
            }),
            Workload::Suite => Job::Suite(fig07::scenarios()),
        };
        Prepared::with_job(workload, None, job)
    }

    #[test]
    fn every_workload_holds_its_invariants_and_repeats_its_digest() {
        for w in Workload::ALL {
            let p = small(w);
            let mut tr = Tracer::new(false);
            let a = iterate(&p, &mut tr);
            let b = iterate(&p, &mut tr);
            assert_eq!(a.violation, None, "{}", w.name());
            assert_eq!(a.digest, b.digest, "{}", w.name());
            assert!(p.work > 0 && a.engine.scenarios_run > 0, "{}", w.name());
        }
    }

    #[test]
    fn forensics_observes_and_the_soaks_drain_through_the_cluster() {
        let p = small(Workload::Forensics);
        let out = iterate(&p, &mut Tracer::new(false));
        assert!(out.counts.watch_incidents > 0);
        assert!(out.counts.flight_kept > 0 && out.counts.flight_store_bytes > 0);
        assert_eq!(out.counts.cluster_requests, p.work);
        let storm = small(Workload::Storm);
        assert_eq!(
            iterate(&storm, &mut Tracer::new(false))
                .counts
                .cluster_requests,
            storm.work
        );
    }

    #[test]
    fn the_seed_moves_soak_outputs_but_not_the_suite() {
        let serve = |seed| {
            let job = small(Workload::Serve).job;
            iterate(
                &Prepared::with_job(Workload::Serve, Some(seed), job),
                &mut Tracer::new(false),
            )
            .digest
        };
        assert_ne!(serve(1), serve(2));
        assert_eq!(Prepared::new(Workload::Suite, Some(9)).seed, None);
    }

    #[test]
    fn a_traced_iteration_attributes_engine_time_inside_the_soak() {
        let p = small(Workload::Serve);
        let mut tr = Tracer::new(true);
        tr.set_workload("serve");
        let out = iterate(&p, &mut tr);
        let soak = tr.last("soak").unwrap();
        let batch = tr.last("engine.batch").unwrap();
        assert_eq!(tr.spans()[batch].parent, Some(soak));
        assert_eq!(tr.spans()[batch].duration(), out.engine.elapsed);
        let probe = probe(&p, &mut tr);
        assert!(probe.hash_us > 0.0 && probe.runner_us > 0.0 && probe.events > 0);
        assert!(probe.arrival_ms.is_some());
    }
}
