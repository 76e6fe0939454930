//! Turning measured samples into metrics: the human-readable lines, the
//! `--json` document that `--compare` reads, and the one-line result.

use hcc_types::json::Json;

use crate::measure::{Better, Plan, WorkloadRun, E2E, EXTRA, LAYERS};
use crate::stats::Summary;

/// One reported metric of one workload.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// The reported value: the median, except `ref_work_per_s`, which is
    /// work over the median iteration time.
    pub value: f64,
    pub summary: Summary,
    pub samples: Vec<f64>,
    /// Direction of improvement, for the end-to-end metrics.
    pub better: Option<Better>,
}

fn metric(
    name: &'static str,
    unit: &'static str,
    samples: Vec<f64>,
    better: Option<Better>,
) -> Option<Metric> {
    let summary = Summary::of(&samples)?;
    Some(Metric {
        name,
        unit,
        value: summary.median,
        summary,
        samples,
        better,
    })
}

/// The end-to-end metrics of `run`, then `fail_ratio` and the uncalibrated
/// host times; empty when the end-to-end phase did not run.
pub fn e2e(run: &WorkloadRun) -> Vec<Metric> {
    if run.wall_ms.is_empty() {
        return Vec::new();
    }
    let mut out: Vec<Metric> = E2E
        .iter()
        .filter_map(|&(name, unit, better)| {
            let samples = match name {
                "ref_wall_ms" => run.ref_wall_ms.clone(),
                "ref_work_per_s" => run.ref_work_per_s(),
                "peak_heap_mb" => run.heap_mb.clone(),
                _ => run.setup_s.clone(),
            };
            metric(name, unit, samples, Some(better))
        })
        .collect();
    if let Some(w) = out.iter_mut().find(|m| m.name == "ref_work_per_s") {
        let median_s = Summary::of(&run.ref_wall_ms).map_or(f64::NAN, |s| s.median / 1e3);
        w.value = run.prepared.work as f64 / median_s;
    }
    out.extend(metric(
        "fail_ratio",
        "ratio",
        vec![run.fail_ratio()],
        Some(Better::Lower),
    ));
    // Reported, not compared: they move with the host's speed.
    out.extend(metric("wall_ms", "ms", run.wall_ms.clone(), None));
    out.extend(metric("setup_host_s", "s", run.setup_host_s.clone(), None));
    out
}

/// The per-layer metrics of `run`, then the metrics of layers that ran
/// on this workload only; empty when the traced pass did not run.
pub fn layers(run: &WorkloadRun) -> Vec<Metric> {
    LAYERS
        .iter()
        .chain(EXTRA.iter())
        .filter_map(|&(name, unit)| {
            let samples = run.layers.get(name)?.clone();
            metric(name, unit, samples, None)
        })
        .collect()
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.6}")
    } else {
        format!("{v:.3}")
    }
}

/// Human-readable report of one workload.
pub fn render(run: &WorkloadRun) -> String {
    let p = &run.prepared;
    let seed = p.seed.map_or("fixed".to_string(), |s| format!("{s:#x}"));
    let digest = match (run.digest, p.expected) {
        (Some(d), Some(e)) if d == e => format!("{d:#018x} (expected)"),
        (Some(d), Some(e)) => format!("{d:#018x} (expected {e:#018x})"),
        (Some(d), None) => format!("{d:#018x}"),
        (None, _) => "none".to_string(),
    };
    let mut out = format!(
        "== {} | seed {seed} | {} {}/iteration | {} iterations, {} failed | digest {digest}\n",
        p.workload.name(),
        p.work,
        p.workload.unit(),
        run.attempted,
        run.failed,
    );
    for why in &run.violations {
        out.push_str(&format!("  FAILED: {why}\n"));
    }
    for m in e2e(run).iter().chain(layers(run).iter()) {
        let s = &m.summary;
        let tail = s
            .tail
            .map(|(p, v)| format!("  p{} {}", p / 10, fmt_value(v)))
            .unwrap_or_default();
        out.push_str(&format!(
            "  {:<26} {:>16} {:<6} q1 {}  q3 {}  n {}{tail}\n",
            m.name,
            fmt_value(m.value),
            m.unit,
            fmt_value(s.q1),
            fmt_value(s.q3),
            s.n,
        ));
    }
    out
}

fn field(k: &str, v: Json) -> (String, Json) {
    (k.to_string(), v)
}

fn metric_json(m: &Metric) -> Json {
    let s = &m.summary;
    let mut fields = vec![
        field("unit", Json::Str(m.unit.into())),
        field("value", Json::F64(m.value)),
        field("median", Json::F64(s.median)),
        field("q1", Json::F64(s.q1)),
        field("q3", Json::F64(s.q3)),
        field("n", Json::U64(s.n as u64)),
    ];
    if let Some((p, v)) = s.tail {
        fields.push(field(
            "tail",
            Json::Obj(vec![
                field("p", Json::Str(format!("p{}", p / 10))),
                field("value", Json::F64(v)),
            ]),
        ));
    }
    if let Some(b) = m.better {
        fields.push(field("better", Json::Str(b.name().into())));
        fields.push(field(
            "samples",
            Json::Arr(m.samples.iter().map(|&v| Json::F64(v)).collect()),
        ));
    }
    Json::Obj(fields)
}

/// The host the run measured on.
pub struct Machine {
    pub nproc: usize,
    pub cpu: String,
}

impl Machine {
    pub fn probe() -> Machine {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
        }
    }
}

/// The full result document (`--json`).
pub fn document(runs: &[WorkloadRun], plan: &Plan, machine: &Machine, scrubbed: &[String]) -> Json {
    let workloads = runs
        .iter()
        .map(|run| {
            let p = &run.prepared;
            let hex = |d: u64| Json::Str(format!("{d:#018x}"));
            let metrics = |ms: Vec<Metric>| {
                Json::Obj(ms.iter().map(|m| field(m.name, metric_json(m))).collect())
            };
            let body = Json::Obj(vec![
                field("seed", p.seed.map_or(Json::Null, Json::U64)),
                field("work_per_iteration", Json::U64(p.work)),
                field("unit", Json::Str(p.workload.unit().into())),
                field("digest", run.digest.map_or(Json::Null, hex)),
                field("expected_digest", p.expected.map_or(Json::Null, hex)),
                field("attempted", Json::U64(run.attempted)),
                field("failed", Json::U64(run.failed)),
                field(
                    "violations",
                    Json::Arr(
                        run.violations
                            .iter()
                            .map(|v| Json::Str(v.clone()))
                            .collect(),
                    ),
                ),
                field("e2e", metrics(e2e(run))),
                field("layers", metrics(layers(run))),
            ]);
            field(p.workload.name(), body)
        })
        .collect();
    Json::Obj(vec![
        field("schema", Json::Str("hcc_benchmark/1".into())),
        field(
            "machine",
            Json::Obj(vec![
                field("nproc", Json::U64(machine.nproc as u64)),
                field("cpu", Json::Str(machine.cpu.clone())),
            ]),
        ),
        field(
            "engine_threads",
            Json::U64(crate::workload::ENGINE_THREADS as u64),
        ),
        field("seconds", Json::U64(plan.seconds)),
        field(
            "env_scrubbed",
            Json::Arr(scrubbed.iter().map(|v| Json::Str(v.clone())).collect()),
        ),
        field("workloads", Json::Obj(workloads)),
    ])
}

/// The closing one-line result: every end-to-end metric of the untraced
/// phase and every per-layer metric of the traced pass, prefixed with the
/// workload name when more than one ran.
pub fn summary_line(runs: &[WorkloadRun]) -> Json {
    let prefix = runs.len() > 1;
    let mut metrics = Vec::new();
    for run in runs {
        let names = E2E.iter().map(|m| m.0).chain(LAYERS.iter().map(|m| m.0));
        let all: Vec<Metric> = e2e(run).into_iter().chain(layers(run)).collect();
        for name in names {
            if let Some(m) = all.iter().find(|m| m.name == name) {
                let key = if prefix {
                    format!("{}.{name}", run.workload().name())
                } else {
                    name.to_string()
                };
                metrics.push((
                    key,
                    Json::Obj(vec![
                        field("value", Json::F64(m.value)),
                        field("unit", Json::Str(m.unit.into())),
                    ]),
                ));
            }
        }
    }
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    Json::Obj(vec![
        field("correct", Json::Bool(failed == 0 && attempted > 0)),
        field("attempted", Json::U64(attempted)),
        field("failed", Json::U64(failed)),
        field("metrics", Json::Obj(metrics)),
    ])
}
