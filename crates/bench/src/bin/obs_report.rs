//! Observability report: per-scenario queue depths from the virtual-time
//! metrics plane, with the saturated resource flagged per row.
//!
//! Runs every standard app in both modes with metrics forced on (the
//! simulated traces are identical to the obs-off runs — the plane only
//! observes), prints peak and time-weighted mean depth for the principal
//! queues, and names the queue whose integrated waiting time dominates.
//!
//! Every snapshot is round-tripped through the in-repo JSON parser as a
//! self-check; `--json <path>` / `--prom <path>` additionally write the
//! machine-readable exports (all snapshots as JSON; the worst scenario's
//! Prometheus text page).
//!
//! `--serve` / `--chaos` additionally report each cell's
//! `serving.queue_depth` snapshot of a small serving or chaos soak, so
//! soak metrics flow through the same self-check, drift audit, and
//! exports as the per-scenario planes. A finished soak cell keeps no
//! gauge series, so this bin drains its own snapshot cells with
//! `cluster::simulate`, over the soak's shape tables and cluster config
//! (`ServingConfig::cluster`, `ChaosConfig::cluster`) with the metrics
//! plane on, which records the depth gauges. Any gauge whose
//! final change-point is nonzero earns a `WARN ... drift` line: a queue
//! that never drained back to zero usually means a release was never
//! recorded.

use hcc_bench::chaos::ChaosConfig;
use hcc_bench::cli::{self, CliError};
use hcc_bench::serving::cluster::{self, ClusterConfig};
use hcc_bench::serving::ServingConfig;
use hcc_bench::{chaos, engine, figures, report, serving};
use hcc_trace::metrics::{to_prometheus, MetricsSet};
use hcc_types::json::{Json, ToJson};
use hcc_types::{CcMode, Planes, RecoveryPolicy, SimDuration, SimTime, StormProfile};
use hcc_workloads::{suites, Scenario};

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
    let mut out = Vec::new();
    for spec in suites::all() {
        for cc in CcMode::ALL {
            out.push(Scenario::standard(
                spec.name,
                figures::cfg(cc).with_metrics(true),
            ));
        }
    }
    out
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
/// change-point is nonzero never drained back to its baseline. Prints
/// one WARN line per drifting gauge and returns how many fired.
fn warn_drift(label: &str, set: &MetricsSet) -> usize {
    let mut fired = 0;
    for s in &set.gauges {
        let v = s.final_value();
        if v != 0 {
            println!(
                "WARN {label}: gauge {} drifted: final value {v} != 0",
                s.name
            );
            fired += 1;
        }
    }
    fired
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
                let run = cluster::simulate(&requests, table, &gauged(cfg.cluster(kind, cc)));
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
                let run = cluster::simulate(&requests, table, &gauged(cfg.cluster()));
                let label = format!("chaos:{}/{policy}", profile.name);
                out.push((label, run.end, run.metrics));
            }
        }
    }
    out
}

const USAGE: &str = "usage: obs_report [--serve] [--chaos] [--json <path>] [--prom <path>]";

fn main() {
    let mut json_path: Option<String> = None;
    let mut prom_path: Option<String> = None;
    let mut serve_soak = false;
    let mut chaos_soak = false;
    cli::parse_or_exit("obs_report", USAGE, |args| {
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--json" => json_path = Some(args.value(&flag)?),
                "--prom" => prom_path = Some(args.value(&flag)?),
                "--serve" => serve_soak = true,
                "--chaos" => chaos_soak = true,
                _ => return Err(CliError::Unknown { arg: flag }),
            }
        }
        Ok(())
    });

    let head = report::section("observability — queue depth & saturation per scenario");
    print!("{head}");
    println!(
        "{:<16} {:>4} {:>7} {:>9} {:>7} {:>9} {:>7} {:>9}  {}",
        "app",
        "mode",
        "ring.pk",
        "ring.mean",
        "cmp.pk",
        "cmp.mean",
        "uvm.pk",
        "uvm.mean",
        "saturated"
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
    let mut worst: Option<(String, SimDuration, MetricsSet)> = None;

    for (scenario, result) in batch.iter().zip(&results) {
        let run = match result.run() {
            Ok(run) => run,
            Err(f) => {
                println!("!! {f}");
                continue;
            }
        };
        let set = run
            .metrics
            .as_ref()
            .expect("metrics-enabled scenario carries a snapshot");

        // Self-check: the snapshot must survive the in-repo JSON parser.
        let reparsed = Json::parse(&set.to_json_string()).expect("snapshot JSON parses");
        assert!(
            reparsed.get("gauges").is_some(),
            "snapshot JSON lost its gauges"
        );

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

        println!(
            "{:<16} {:>4} {:>7} {:>9.3} {:>7} {:>9.3} {:>7} {:>9.3}  {}",
            scenario.app_name(),
            scenario.cc().to_string(),
            ring_pk,
            ring_mean,
            cmp_pk,
            cmp_mean,
            uvm_pk,
            uvm_mean,
            hot_label
        );
        drift += warn_drift(&result.label, set);

        if let Some((_, wait)) = hot {
            let replace = worst.as_ref().is_none_or(|(_, w, _)| wait > *w);
            if replace {
                worst = Some((result.label.clone(), wait, set.clone()));
            }
        }
        json_rows.push((scenario, hot.map(|(name, _)| name), set));
    }

    let soaks = soak_snapshots(serve_soak, chaos_soak);
    if !soaks.is_empty() {
        let head = report::section("observability — soak snapshots (serving.queue_depth)");
        print!("{head}");
        println!(
            "{:<28} {:>10} {:>7} {:>9}  {}",
            "soak", "end", "q.pk", "q.mean", "saturated"
        );
        for (label, end, set) in &soaks {
            let reparsed = Json::parse(&set.to_json_string()).expect("snapshot JSON parses");
            assert!(
                reparsed.get("gauges").is_some(),
                "soak snapshot JSON lost its gauges"
            );
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
            println!(
                "{label:<28} {:>10} {q_pk:>7} {q_mean:>9.3}  {hot}",
                end.to_string()
            );
            drift += warn_drift(label, set);
            total_samples += set.total_samples();
        }
    }

    println!(
        "\nsnapshots: {} scenarios, {} samples, {} saturated (json round-trip OK)",
        results.len(),
        total_samples,
        flagged
    );
    println!(
        "gauge drift audit: {} snapshots, {} drift warnings",
        results.len() + soaks.len(),
        drift
    );
    if let Some((label, wait, _)) = &worst {
        println!("hottest scenario: {label} (saturated queue waited {wait})");
    }

    if let Some(path) = json_path {
        cli::write_json_or_exit(&path, |out| {
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
        });
    }
    if let Some(path) = prom_path {
        let page = match &worst {
            Some((_, _, set)) => to_prometheus(set),
            None => String::new(),
        };
        cli::write_or_exit(&path, page);
    }

    engine::emit_stats();
}
