//! The load loop: set-up, the end-to-end rounds and the traced pass.
//!
//! One process, one caller, closed loop: each iteration starts when the
//! previous one has finished. Workloads given together are interleaved
//! round by round, so a noisy period on a shared machine hits each of
//! them alike. End-to-end metrics come from untraced iterations only;
//! the traced pass pairs each traced iteration with an untraced one and
//! reports the difference as the tracing overhead.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::calibrate;
use crate::heap;
use crate::spans::Tracer;
use crate::stats::median_of;
use crate::workload::{iterate, plane_triple, probe, Outcome, Prepared, Workload};

/// Which metrics lower or raise when the system gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// End-to-end metrics, as `BENCHMARK.json` lists them. Times are scaled
/// to the reference host (see [`crate::calibrate`]).
pub const E2E: [(&str, &str, Better); 4] = [
    ("ref_wall_ms", "ms", Better::Lower),
    ("ref_work_per_s", "1/s", Better::Higher),
    ("peak_heap_mb", "MB", Better::Lower),
    ("setup_s", "s", Better::Lower),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them: each is measured on
/// every workload.
pub const LAYERS: [(&str, &str); 16] = [
    ("engine.batch_ms", "ms"),
    ("engine.sim_ms", "ms"),
    ("engine.lookup_ms", "ms"),
    ("engine.overhead_ms", "ms"),
    ("engine.scenarios_run", "count"),
    ("engine.cache_hits", "count"),
    ("engine.hit_ratio", "ratio"),
    ("engine.failed_scenarios", "count"),
    ("scenario.hash_us", "us"),
    ("runner.scenario_us", "us"),
    ("runner.events", "count"),
    ("runner.events_per_s", "1/s"),
    ("trace.phase_totals_us", "us"),
    ("cluster.drain_ms", "ms"),
    ("report.render_ms", "ms"),
    ("trace_overhead_pct", "%"),
];

/// Metrics of layers that run on some workloads only: printed and
/// written with `--json` where their layer runs.
pub const EXTRA: [(&str, &str); 12] = [
    ("arrival.generate_ms", "ms"),
    ("cluster.requests", "count"),
    ("cluster.batches", "count"),
    ("cluster.ns_per_request", "ns"),
    ("watch.overhead_ms", "ms"),
    ("watch.windows", "count"),
    ("watch.alerts", "count"),
    ("watch.incidents", "count"),
    ("flight.overhead_ms", "ms"),
    ("flight.recorded", "count"),
    ("flight.kept", "count"),
    ("flight.store_bytes", "bytes"),
];

/// Set-ups per workload; `setup_s` is their median.
const SETUPS: usize = 9;

/// Fewest measured steps per workload and phase, whatever `--seconds`.
const MIN_STEPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workloads: Vec<Workload>,
    pub seed: Option<u64>,
    /// Measured seconds per workload and phase.
    pub seconds: u64,
    pub e2e: bool,
    pub traced: bool,
}

/// Everything measured for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    pub prepared: Prepared,
    pub attempted: u64,
    pub failed: u64,
    /// Distinct failure reasons, first seen first.
    pub violations: Vec<String>,
    pub digest: Option<u64>,
    /// Set-up times on the reference host, and as measured.
    pub setup_s: Vec<f64>,
    pub setup_host_s: Vec<f64>,
    /// Iteration times on the reference host, and as measured.
    pub ref_wall_ms: Vec<f64>,
    pub wall_ms: Vec<f64>,
    /// Peak heap each iteration added over what was live at its start.
    pub heap_mb: Vec<f64>,
    /// Calibration kernel runs on each side of a timed iteration.
    kernel_runs: usize,
    /// Per-metric samples of the traced pass, by metric name.
    pub layers: BTreeMap<&'static str, Vec<f64>>,
}

impl WorkloadRun {
    pub fn new(prepared: Prepared) -> Self {
        WorkloadRun {
            prepared,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            digest: None,
            setup_s: Vec::new(),
            setup_host_s: Vec::new(),
            ref_wall_ms: Vec::new(),
            wall_ms: Vec::new(),
            heap_mb: Vec::new(),
            kernel_runs: 1,
            layers: BTreeMap::new(),
        }
    }

    pub fn workload(&self) -> Workload {
        self.prepared.workload
    }

    /// Counts an iteration and fails it on a broken invariant, a digest
    /// that differs from the first iteration's, or one that differs from
    /// the expected digest.
    fn verify(&mut self, out: &Outcome) {
        self.attempted += 1;
        let first = *self.digest.get_or_insert(out.digest);
        let failure = out
            .violation
            .clone()
            .or_else(|| {
                (out.digest != first)
                    .then(|| format!("digest {:#018x} differs from {first:#018x}", out.digest))
            })
            .or_else(|| match self.prepared.expected {
                Some(e) if e != out.digest => Some(format!(
                    "digest {:#018x} differs from the expected {e:#018x}",
                    out.digest
                )),
                _ => None,
            });
        if let Some(why) = failure {
            self.failed += 1;
            if !self.violations.contains(&why) {
                self.violations.push(why);
            }
        }
    }

    fn push(&mut self, name: &'static str, value: f64) {
        self.layers.entry(name).or_default().push(value);
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Work units per reference-host second of each measured iteration.
    pub fn ref_work_per_s(&self) -> Vec<f64> {
        let work = self.prepared.work as f64;
        self.ref_wall_ms
            .iter()
            .map(|ms| work / (ms / 1e3))
            .collect()
    }
}

/// Runs the plan; spans land in `tracer`.
pub fn run(plan: &Plan, tracer: &mut Tracer) -> Vec<WorkloadRun> {
    let mut runs: Vec<WorkloadRun> = plan
        .workloads
        .iter()
        .map(|&w| setup(w, plan.seed))
        .collect();
    let budget = Duration::from_secs(plan.seconds);
    if plan.e2e {
        interleave(&mut runs, budget, |_, run, _| e2e_step(run));
    }
    if plan.traced {
        let mut triples: Vec<Vec<[Duration; 3]>> = vec![Vec::new(); runs.len()];
        interleave(&mut runs, budget, |i, run, step| {
            tracer.set_workload(run.workload().name());
            traced_step(run, tracer, step);
            triples[i].extend(plane_triple(&run.prepared));
        });
        for (run, triples) in runs.iter_mut().zip(&triples) {
            finish_layers(run, triples);
        }
    }
    runs
}

/// Builds the inputs and runs one iteration, [`SETUPS`] times; the first
/// inputs are kept.
fn setup(workload: Workload, seed: Option<u64>) -> WorkloadRun {
    let mut run: Option<WorkloadRun> = None;
    let (mut host, mut reference) = (Vec::new(), Vec::new());
    for _ in 0..SETUPS {
        let before = calibrate::sample(calibrate::MAX_RUNS);
        let t = Instant::now();
        let prepared = Prepared::new(workload, seed);
        let out = iterate(&prepared, &mut Tracer::new(false));
        let took = t.elapsed();
        let after = calibrate::sample(calibrate::MAX_RUNS);
        host.push(took.as_secs_f64());
        reference.push(calibrate::to_reference(took, before, after).as_secs_f64());
        let r = run.get_or_insert_with(|| WorkloadRun::new(prepared));
        r.verify(&out);
    }
    let mut run = run.expect("at least one set-up");
    run.kernel_runs = calibrate::runs_for(Duration::from_secs_f64(median_of(&host)));
    run.setup_host_s = host;
    run.setup_s = reference;
    run
}

/// Round-robin over the workloads until each has spent `budget` (and at
/// least [`MIN_STEPS`] steps) in `step`.
fn interleave(
    runs: &mut [WorkloadRun],
    budget: Duration,
    mut step: impl FnMut(usize, &mut WorkloadRun, usize),
) {
    let mut spent = vec![Duration::ZERO; runs.len()];
    let mut steps = vec![0usize; runs.len()];
    loop {
        let mut any = false;
        for (i, run) in runs.iter_mut().enumerate() {
            if spent[i] >= budget && steps[i] >= MIN_STEPS {
                continue;
            }
            any = true;
            let t = Instant::now();
            step(i, run, steps[i]);
            spent[i] += t.elapsed();
            steps[i] += 1;
        }
        if !any {
            break;
        }
    }
}

fn e2e_step(run: &mut WorkloadRun) {
    let before = calibrate::sample(run.kernel_runs);
    let base = heap::reset_peak();
    let out = iterate(&run.prepared, &mut Tracer::new(false));
    let peak = heap::peak().saturating_sub(base);
    let after = calibrate::sample(run.kernel_runs);
    run.verify(&out);
    run.wall_ms.push(out.wall.as_secs_f64() * 1e3);
    let reference = calibrate::to_reference(out.wall, before, after);
    run.ref_wall_ms.push(reference.as_secs_f64() * 1e3);
    run.heap_mb.push(peak as f64 / (1024.0 * 1024.0));
}

/// One untraced and one traced iteration, in alternating order, then the
/// layer probes.
fn traced_step(run: &mut WorkloadRun, tracer: &mut Tracer, step: usize) {
    let untraced = |run: &mut WorkloadRun| {
        let out = iterate(&run.prepared, &mut Tracer::new(false));
        run.verify(&out);
        out.wall
    };
    let traced = |run: &mut WorkloadRun, tracer: &mut Tracer| {
        let out = iterate(&run.prepared, tracer);
        run.verify(&out);
        out
    };
    let (plain, out) = if step.is_multiple_of(2) {
        let plain = untraced(run);
        (plain, traced(run, tracer))
    } else {
        let out = traced(run, tracer);
        (untraced(run), out)
    };
    let p = probe(&run.prepared, tracer);

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let span_ms = |name: &str| tracer.last_duration(name).map_or(0.0, ms);
    let e = &out.engine;
    let batch = ms(e.elapsed);
    let sim = ms(e.sim_wall);
    let lookup = ms(e.cache_service);
    let lookups = e.scenarios_run + e.cache_hits;
    run.push("engine.batch_ms", batch);
    run.push("engine.sim_ms", sim);
    run.push("engine.lookup_ms", lookup);
    run.push("engine.overhead_ms", batch - sim - lookup);
    run.push("engine.scenarios_run", e.scenarios_run as f64);
    run.push("engine.cache_hits", e.cache_hits as f64);
    run.push(
        "engine.hit_ratio",
        e.cache_hits as f64 / lookups.max(1) as f64,
    );
    run.push("engine.failed_scenarios", e.failed_scenarios as f64);
    run.push("scenario.hash_us", p.hash_us);
    run.push("runner.scenario_us", p.runner_us);
    run.push("runner.events", p.events as f64);
    run.push("runner.events_per_s", p.events_per_s);
    run.push("trace.phase_totals_us", p.phase_totals_us);
    // The soak's time outside the engine batch and the arrival
    // generator; the plane overheads come off in `finish_layers`.
    run.push(
        "cluster.drain_ms",
        span_ms("soak") - batch - p.arrival_ms.unwrap_or(0.0),
    );
    run.push("report.render_ms", span_ms("render"));
    run.push(
        "trace_overhead_pct",
        (out.wall.as_secs_f64() / plain.as_secs_f64() - 1.0) * 100.0,
    );
    if let Some(a) = p.arrival_ms {
        run.push("arrival.generate_ms", a);
    }
    let c = out.counts;
    if c.cluster_requests > 0 {
        run.push("cluster.requests", c.cluster_requests as f64);
        run.push("cluster.batches", c.cluster_batches as f64);
    }
    if c.watch_windows > 0 {
        run.push("watch.windows", c.watch_windows as f64);
        run.push("watch.alerts", c.watch_alerts as f64);
        run.push("watch.incidents", c.watch_incidents as f64);
    }
    if c.flight_recorded > 0 {
        run.push("flight.recorded", c.flight_recorded as f64);
        run.push("flight.kept", c.flight_kept as f64);
        run.push("flight.store_bytes", c.flight_store_bytes as f64);
    }
}

/// Plane overheads from the paired on/off triples, taken off the drain
/// residual, and the drain per request.
fn finish_layers(run: &mut WorkloadRun, triples: &[[Duration; 3]]) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut planes = 0.0;
    if !triples.is_empty() {
        let watch: Vec<f64> = triples.iter().map(|t| ms(t[1]) - ms(t[0])).collect();
        let flight: Vec<f64> = triples.iter().map(|t| ms(t[2]) - ms(t[1])).collect();
        planes = median_of(&watch) + median_of(&flight);
        run.layers.insert("watch.overhead_ms", watch);
        run.layers.insert("flight.overhead_ms", flight);
    }
    let requests = run
        .layers
        .get("cluster.requests")
        .and_then(|v| v.first().copied());
    if let Some(drain) = run.layers.get_mut("cluster.drain_ms") {
        for d in drain.iter_mut() {
            *d -= planes;
        }
        if let Some(n) = requests {
            let per_request = drain.iter().map(|d| d * 1e6 / n).collect();
            run.layers.insert("cluster.ns_per_request", per_request);
        }
    }
}
