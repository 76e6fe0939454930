//! Observability report (`hcc_lab obs`): per-scenario queue depths from
//! the virtual-time metrics plane, with the saturated resource flagged
//! per row.
//!
//! [`render`] runs every standard app in both modes with metrics forced
//! on (the plane only observes), prints peak and time-weighted mean
//! depth for the principal queues, and names the queue whose integrated
//! waiting time dominates. Every snapshot is round-tripped through the
//! in-repo JSON parser as a self-check. With `--serve` / `--chaos` it
//! also drains a small serving or chaos soak's cells with
//! `cluster::simulate` and the metrics plane on (a finished soak cell
//! keeps no gauge series), so soak depths flow through the same
//! self-check, drift audit and exports. A gauge whose final change-point
//! is nonzero earns a `WARN ... drift` line: a queue that never drained
//! back to zero usually means a release was never recorded.

use std::fmt::Write;

use hcc_trace::metrics::{to_prometheus, MetricsSet};
use hcc_types::json::{Json, ToJson};
use hcc_types::{CcMode, Planes, RecoveryPolicy, SimDuration, SimTime, StormProfile};
use hcc_workloads::{suites, Scenario, WorkloadSpec};

use crate::chaos::{self, ChaosConfig};
use crate::cli::{self, CliError};
use crate::engine;
use crate::lab::Command;
use crate::serving::cluster::{self, ClusterConfig, Record};
use crate::serving::{self, ServingConfig};
use crate::{figures, report};

/// Queue-style gauges (unit: items waiting) ranked when flagging the
/// saturated resource. Occupancy gauges in other units (bounce bytes)
/// are reported but never ranked against these.
const QUEUES: [&str; 7] = [
    "gpu.cp.queue",
    "gpu.compute.queue",
    "gpu.copy-h2d.queue",
    "gpu.copy-d2h.queue",
    "gpu.copy-d2d.queue",
    "tee.crypto.queue",
    "uvm.migration_backlog",
];

fn scenarios() -> Vec<Scenario> {
    let with_metrics = |cc| figures::cfg(cc).with_metrics(true);
    let both =
        |spec: WorkloadSpec| CcMode::ALL.map(|cc| Scenario::standard(spec.name, with_metrics(cc)));
    suites::all().into_iter().flat_map(both).collect()
}

/// The queue with the largest integrated waiting time, with that
/// integral — `None` when every queue stayed empty.
fn saturated(set: &MetricsSet) -> Option<(&'static str, SimDuration)> {
    QUEUES
        .iter()
        .filter_map(|&name| Some((name, set.gauge_integral(name)?)))
        .filter(|(_, wait)| !wait.is_zero())
        .max_by_key(|&(_, wait)| wait)
}

/// Audit a snapshot for end-of-run drift: a gauge whose final
/// change-point is nonzero never drained back to its baseline. Writes
/// one WARN line per drifting gauge and returns how many fired.
fn warn_drift(out: &mut String, label: &str, set: &MetricsSet) -> usize {
    let mut fired = 0;
    for s in &set.gauges {
        let v = s.final_value();
        if v != 0 {
            let _ = writeln!(
                out,
                "WARN {label}: gauge {} drifted: final value {v} != 0",
                s.name
            );
            fired += 1;
        }
    }
    fired
}

/// The snapshot must survive the in-repo JSON parser.
fn round_trip(set: &MetricsSet, what: &str) {
    let reparsed = Json::parse(&set.to_json_string()).expect("snapshot JSON parses");
    assert!(
        reparsed.get("gauges").is_some(),
        "{what} JSON lost its gauges"
    );
}

/// `cluster` with the metrics plane on: its drains record the depth
/// gauges.
fn gauged(cluster: ClusterConfig<'_>) -> ClusterConfig<'_> {
    ClusterConfig {
        planes: Planes::METRICS,
        ..cluster
    }
}

/// Soak snapshots taken by `--serve` / `--chaos`: one labelled metrics
/// set per (scheduler|policy, cc-mode) cell, with the cell's virtual
/// end time for mean-depth normalisation.
fn soak_snapshots(serve: bool, storm: bool) -> Vec<(String, SimTime, MetricsSet)> {
    let mut out = Vec::new();
    if serve {
        let cfg = ServingConfig {
            requests: 2_000,
            gpus: 2,
            ..ServingConfig::default()
        };
        let (requests, tables) = serving::shape_tables(&cfg, engine::global());
        for &kind in &cfg.schedulers {
            for cc in CcMode::ALL {
                let table = &tables[usize::from(cc.is_on())];
                let run = cluster::simulate(
                    &requests,
                    table,
                    &gauged(cfg.cluster(kind, cc)),
                    Record::Log,
                );
                out.push((format!("serve:{kind}/{cc}"), run.end, run.metrics));
            }
        }
    }
    if storm {
        let cfg = ChaosConfig {
            requests: 1_000,
            days: 1,
            gpus: 2,
            profiles: vec![StormProfile::crypto_burst()],
            policies: vec![RecoveryPolicy::Abort],
            ..ChaosConfig::default()
        };
        let (requests, storms) = chaos::shape_tables(&cfg, engine::global());
        for (profile, storm) in cfg.profiles.iter().zip(&storms) {
            for (policy, table) in cfg.policies.iter().zip(&storm.tables) {
                let run = cluster::simulate(&requests, table, &gauged(cfg.cluster()), Record::Log);
                let label = format!("chaos:{}/{policy}", profile.name);
                out.push((label, run.end, run.metrics));
            }
        }
    }
    out
}

/// The per-scenario table, then with `serve` / `storm` the soak
/// snapshots, then the trailers. With `json` every snapshot is written
/// there as one JSON array (the scenarios, then the soaks); with `prom`
/// the hottest scenario's Prometheus text page; a file that cannot be
/// written is the error ([`cli::WriteError`]).
pub fn render(
    serve: bool,
    storm: bool,
    json: Option<&str>,
    prom: Option<&str>,
) -> std::io::Result<String> {
    let mut out = report::section("observability — queue depth & saturation per scenario");
    out.push_str(
        "app              mode ring.pk ring.mean  cmp.pk  cmp.mean  uvm.pk  uvm.mean  saturated\n",
    );

    let batch = scenarios();
    let results = engine::global().run_all(&batch);

    let mut total_samples = 0usize;
    let mut flagged = 0usize;
    let mut drift = 0usize;
    // Per-scenario `--json` rows: the scenario, its saturated queue and
    // its snapshot, written once every table line is out.
    let mut json_rows = Vec::new();
    // The scenario whose saturated queue waited longest overall — its
    // Prometheus page is the most interesting one to export.
    let mut worst: Option<(&str, SimDuration, &MetricsSet)> = None;

    for (scenario, result) in batch.iter().zip(&results) {
        let run = match result.run() {
            Ok(run) => run,
            Err(f) => {
                let _ = writeln!(out, "!! {f}");
                continue;
            }
        };
        let set = run
            .metrics
            .as_ref()
            .expect("metrics-enabled scenario carries a snapshot");
        round_trip(set, "snapshot");

        let span = run.timeline.span();
        let depth = |name: &str| {
            set.gauge_series(name)
                .map(|s| (s.peak(), s.mean_over(span)))
                .unwrap_or((0, 0.0))
        };
        let (ring_pk, ring_mean) = depth("gpu.ring.occupancy");
        let (cmp_pk, cmp_mean) = depth("gpu.compute.queue");
        let (uvm_pk, uvm_mean) = depth("uvm.outstanding_faults");

        let hot = saturated(set);
        let hot_label = match hot {
            Some((name, wait)) => {
                flagged += 1;
                format!("{name} (waited {wait})")
            }
            None => "-".to_string(),
        };
        total_samples += set.total_samples();

        let (app, cc) = (scenario.app_name(), scenario.cc().to_string());
        let _ = writeln!(
            out,
            "{app:<16} {cc:>4} {ring_pk:>7} {ring_mean:>9.3} {cmp_pk:>7} {cmp_mean:>9.3} \
             {uvm_pk:>7} {uvm_mean:>9.3}  {hot_label}"
        );
        drift += warn_drift(&mut out, &result.label, set);

        if let Some((_, wait)) = hot {
            if worst.is_none_or(|(_, w, _)| wait > w) {
                worst = Some((&result.label, wait, set));
            }
        }
        json_rows.push((scenario, hot.map(|(name, _)| name), set));
    }

    let soaks = soak_snapshots(serve, storm);
    if !soaks.is_empty() {
        out.push_str(&report::section(
            "observability — soak snapshots (serving.queue_depth)",
        ));
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>7} {:>9}  saturated",
            "soak", "end", "q.pk", "q.mean"
        );
        for (label, end, set) in &soaks {
            round_trip(set, "soak snapshot");
            let span = end.saturating_since(SimTime::ZERO);
            let (q_pk, q_mean) = set
                .gauge_series("serving.queue_depth")
                .map(|s| (s.peak(), s.mean_over(span)))
                .unwrap_or((0, 0.0));
            let hot = set
                .gauge_integral("serving.queue_depth")
                .filter(|wait| !wait.is_zero())
                .map(|wait| format!("serving.queue_depth (waited {wait})"))
                .unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                out,
                "{label:<28} {:>10} {q_pk:>7} {q_mean:>9.3}  {hot}",
                end.to_string()
            );
            drift += warn_drift(&mut out, label, set);
            total_samples += set.total_samples();
        }
    }

    let _ = writeln!(
        out,
        "\nsnapshots: {} scenarios, {} samples, {} saturated (json round-trip OK)",
        results.len(),
        total_samples,
        flagged
    );
    let _ = writeln!(
        out,
        "gauge drift audit: {} snapshots, {} drift warnings",
        results.len() + soaks.len(),
        drift
    );
    if let Some((label, wait, _)) = worst {
        let _ = writeln!(
            out,
            "hottest scenario: {label} (saturated queue waited {wait})"
        );
    }

    if let Some(path) = json {
        cli::write_json_file(path, |out| {
            out.arr(|o| {
                for (scenario, hot, set) in &json_rows {
                    o.obj(|o| {
                        o.field("app", scenario.app_name());
                        o.field("cc", scenario.cc());
                        o.field("saturated", hot);
                        o.field("metrics", set);
                    });
                }
                for (label, _, set) in &soaks {
                    o.obj(|o| {
                        o.field("soak", label);
                        o.field("metrics", set);
                    });
                }
            });
        })?;
    }
    if let Some(path) = prom {
        cli::write_file(
            path,
            worst
                .map(|(_, _, set)| to_prometheus(set))
                .unwrap_or_default(),
        )?;
    }
    Ok(out)
}

/// `hcc_lab obs`: [`render`]'s report and its exports.
pub const COMMAND: Command = Command {
    usage: "usage: hcc_lab obs [--serve] [--chaos] [--json <path>] [--prom <path>]",
    parse: |args| {
        let mut json_path: Option<String> = None;
        let mut prom_path: Option<String> = None;
        let (mut serve, mut storm) = (false, false);
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--json" => json_path = Some(args.value(&flag)?),
                "--prom" => prom_path = Some(args.value(&flag)?),
                "--serve" => serve = true,
                "--chaos" => storm = true,
                _ => return Err(CliError::Unknown { arg: flag }),
            }
        }
        Ok(Box::new(move |out, err| {
            let text = render(serve, storm, json_path.as_deref(), prom_path.as_deref())?;
            out.write_all(text.as_bytes())?;
            Ok(report::finish(err, &[]))
        }))
    },
};
