//! Aggregation and rendering of serving-cluster results.
//!
//! A [`ServingReport`] holds, per scheduler and per CC mode, the
//! per-tenant latency/wait tails and the cluster-level utilization and
//! throughput figures — all measured on the virtual clock, so the text
//! rendering is byte-identical across engine thread counts. The trailer
//! lines state two invariants, request conservation and the CC-on vs
//! CC-off p99 SLO ordering, which `tests/serving_slo.rs` asserts on
//! `hcc_lab serve`'s default soak.

use hcc_tee::TdCounters;
use hcc_trace::Tail;
use hcc_types::json::{JsonOut, ToJson};
use hcc_types::{CcMode, SimDuration, SimTime};

use super::arrival::{ArrivalKind, Request};
use super::cluster::{region_starts, ClusterConfig, ClusterRun, Outcome, Samples, TimeToRecover};
use super::scheduler::SchedulerKind;

/// One tenant's aggregate over one (scheduler, mode) run.
#[derive(Debug, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant label.
    pub name: String,
    /// Requests that completed on a device.
    pub completed: u64,
    /// Requests rejected because their shape fails deterministically.
    pub rejected: u64,
    /// End-to-end latency tail (arrival → completion), completed only.
    pub latency: Tail,
    /// Queueing-wait tail (arrival → dispatch), completed only.
    pub wait: Tail,
    /// Σ (completion − arrival) over completed requests.
    pub latency_total: SimDuration,
    /// Σ (dispatch − arrival) over completed requests.
    pub wait_total: SimDuration,
    /// Σ (completion − dispatch) over completed requests.
    pub service_total: SimDuration,
    /// Σ each completed request's own solo shape time (a request whose
    /// own shape fails is rejected, never completed).
    pub shape_total: SimDuration,
    /// Σ admission charges (SPDM setup + doorbells) of completed requests.
    pub admission_total: SimDuration,
}

/// One CC mode's cluster run under one scheduler.
#[derive(Debug)]
pub struct ModeRun {
    /// Which mode ran.
    pub cc: CcMode,
    /// Per-tenant aggregates, in population order.
    pub tenants: Vec<TenantStats>,
    /// Virtual makespan.
    pub end: SimTime,
    /// Total device-busy virtual time across GPUs.
    pub busy: SimDuration,
    /// Cluster width.
    pub gpus: usize,
    /// Device batches executed.
    pub batches: u64,
    /// Cold-start (SPDM) admissions.
    pub cold_starts: u64,
    /// Sessions attested across every device pool.
    pub sessions_established: u64,
    /// Sessions torn down by the end-of-run drain.
    pub sessions_closed: u64,
    /// TD transition counters summed over every device/tenant context.
    pub td: TdCounters,
    /// Post-peak queue-drain measurements: `Some` exactly for cells
    /// that ran under a storm calendar.
    pub ttr: Option<TimeToRecover>,
    /// Whether the queue and every device ended the run empty.
    drained: bool,
}

impl ModeRun {
    /// Mean device utilization over the makespan, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let span = self.end.as_secs_f64() * self.gpus as f64;
        if span <= 0.0 {
            return 0.0;
        }
        (self.busy.as_secs_f64() / span).min(1.0)
    }

    /// Completed requests per virtual second.
    pub fn throughput(&self) -> f64 {
        let secs = self.end.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed() as f64 / secs
    }

    /// Completed requests across all tenants.
    pub fn completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.completed).sum()
    }

    /// Rejected requests across all tenants.
    pub fn rejected(&self) -> u64 {
        self.tenants.iter().map(|t| t.rejected).sum()
    }

    /// Exact per-tenant latency identity: `latency == wait + service`,
    /// summed over completed requests, to the nanosecond.
    pub fn latency_identity(&self) -> bool {
        self.tenants
            .iter()
            .all(|t| t.latency_total == t.wait_total + t.service_total)
    }

    /// Request conservation: admitted == completed + rejected.
    pub fn conserved(&self, admitted: u64) -> bool {
        self.completed() + self.rejected() == admitted
    }

    /// Session ledger: every attested session closed exactly once, and
    /// each cold-start admission attested exactly one session.
    pub fn sessions_ok(&self) -> bool {
        self.sessions_established == self.sessions_closed
            && self.sessions_established == self.cold_starts
    }

    /// The queue and every device drained back to zero depth.
    pub fn gauges_drained(&self) -> bool {
        self.drained
    }

    /// All four run-level checks hold for `admitted` requests.
    pub fn healthy(&self, admitted: u64) -> bool {
        self.latency_identity()
            && self.conserved(admitted)
            && self.sessions_ok()
            && self.gauges_drained()
    }
}

/// Both modes of one scheduler over the shared trace.
#[derive(Debug)]
pub struct SchedulerRun {
    /// The discipline.
    pub scheduler: SchedulerKind,
    /// CC-off then CC-on, in [`CcMode::ALL`] order.
    pub modes: [ModeRun; 2],
    /// SLO watchtower over the CC-on run (`None` unless the config
    /// enabled the watch plane).
    pub watch: Option<crate::watch::WatchReport>,
    /// Flight-recorder exemplar log over the CC-on run (`None` unless
    /// the config enabled the flight plane). Never feeds `render()`:
    /// the text report stays byte-identical to a flight-free build.
    pub flight: Option<hcc_trace::FlightLog>,
}

impl SchedulerRun {
    /// The CC-off run.
    pub fn off(&self) -> &ModeRun {
        &self.modes[0]
    }

    /// The CC-on run.
    pub fn on(&self) -> &ModeRun {
        &self.modes[1]
    }
}

/// The complete serving experiment: every scheduler, both modes.
#[derive(Debug)]
pub struct ServingReport {
    /// Arrival-stream seed.
    pub seed: u64,
    /// Total requests generated (the admitted count for every run).
    pub requests: u64,
    /// Cluster width.
    pub gpus: usize,
    /// Arrival process.
    pub arrival: ArrivalKind,
    /// Tenant labels, in population order.
    pub tenant_names: Vec<String>,
    /// Distinct shape scenarios per mode (the engine's working set).
    pub distinct_shapes: usize,
    /// One entry per requested scheduler.
    pub runs: Vec<SchedulerRun>,
}

/// A tenant's tail and the sum of the samples it was selected from.
type Folded = (Tail, SimDuration);

/// Sums `samples` and selects their [`Tail`] (leaving them reordered).
fn fold(samples: &mut [SimDuration]) -> Folded {
    let total = samples.iter().sum();
    (Tail::of(samples), total)
}

/// Every tenant's latency and wait [`Folded`] from a drain's outcome
/// log: every tenant's latencies, then every tenant's waits, pass
/// through one n-slot scratch buffer, so no per-request vector outlives
/// the call.
fn log_tails(requests: &[Request], outcomes: &[Outcome], tenants: usize) -> [Vec<Folded>; 2] {
    let start = region_starts(requests, tenants);
    let mut scratch = vec![SimDuration::ZERO; requests.len()];
    let mut tails = |sample: fn(&Request, &Outcome) -> SimDuration| -> Vec<Folded> {
        let mut end = start[..tenants].to_vec();
        for (req, outcome) in requests.iter().zip(outcomes) {
            if !outcome.rejected {
                let t = req.tenant as usize;
                scratch[end[t]] = sample(req, outcome);
                end[t] += 1;
            }
        }
        (0..tenants)
            .map(|t| fold(&mut scratch[start[t]..end[t]]))
            .collect()
    };
    [
        tails(|req, o| o.completion.saturating_since(req.arrival)),
        tails(|req, o| o.dispatch.saturating_since(req.arrival)),
    ]
}

/// Builds one tenant-resolved [`ModeRun`] from a raw cluster run of
/// `requests` on `cluster`, keeping the drain's own sums and its
/// `drained` and `ttr` verdicts. The tails come from `samples` when the
/// drain wrote them there, and otherwise from the run's outcome log.
pub(super) fn mode_run(
    cluster: &ClusterConfig<'_>,
    requests: &[Request],
    run: ClusterRun,
    samples: Option<&mut Samples>,
) -> ModeRun {
    let tenants = cluster.tenants;
    let [latency, wait] = match samples {
        Some(samples) => {
            let (latency, wait): (Vec<Folded>, Vec<Folded>) = (0..tenants.len())
                .map(|t| {
                    let (latency, wait) = samples.tenant(t);
                    (fold(latency), fold(wait))
                })
                .unzip();
            [latency, wait]
        }
        None => log_tails(requests, &run.outcomes, tenants.len()),
    };

    let tenants = tenants
        .iter()
        .zip(&run.tenants)
        .zip(latency.into_iter().zip(wait))
        .map(
            |((spec, sums), ((latency, latency_total), (wait, wait_total)))| TenantStats {
                name: spec.name.to_string(),
                completed: latency.count,
                rejected: sums.rejected,
                latency,
                wait,
                latency_total,
                wait_total,
                service_total: sums.service,
                shape_total: sums.shape,
                admission_total: sums.admission,
            },
        )
        .collect();

    ModeRun {
        cc: cluster.cc,
        tenants,
        end: run.end,
        busy: run.busy,
        gpus: cluster.gpus,
        batches: run.batches,
        cold_starts: run.cold_starts,
        sessions_established: run.sessions_established,
        sessions_closed: run.sessions_closed,
        td: run.td,
        ttr: run.ttr,
        drained: run.drained,
    }
}

impl ServingReport {
    /// `check`, one of the run-level checks of [`ModeRun`], holds for
    /// every run of every scheduler.
    pub fn every_run(&self, check: impl Fn(&ModeRun) -> bool) -> bool {
        self.runs.iter().flat_map(|r| &r.modes).all(check)
    }

    /// Conservation invariant: in every run, every admitted request
    /// either completed or was rejected — exactly once, none lost.
    pub fn conserved(&self) -> bool {
        self.every_run(|m| m.conserved(self.requests))
    }

    /// Every run passes every run-level check ([`ModeRun::healthy`]).
    pub fn healthy(&self) -> bool {
        self.every_run(|m| m.healthy(self.requests))
    }

    /// SLO ordering: CC-on p99 latency strictly above CC-off p99 for
    /// every tenant under every scheduler (tenants with no completions
    /// are vacuously fine — they have nothing to order).
    pub fn slo_holds(&self) -> bool {
        self.runs.iter().all(|r| {
            r.off()
                .tenants
                .iter()
                .zip(&r.on().tenants)
                .all(|(off, on)| {
                    off.latency.is_empty()
                        || on.latency.is_empty()
                        || on.latency.p99 > off.latency.p99
                })
        })
    }

    /// Renders the full text report (virtual-time figures only).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "=== serving: multi-tenant CC cluster ===");
        let _ = writeln!(
            out,
            "requests {} | gpus {} | tenants {} | arrival {} | seed {:#x} | shapes {}",
            self.requests,
            self.gpus,
            self.tenant_names.join(","),
            self.arrival,
            self.seed,
            self.distinct_shapes
        );
        for run in &self.runs {
            let _ = writeln!(out, "\n=== scheduler: {} ===", run.scheduler);
            let _ = writeln!(
                out,
                "{:<10} {:>5} {:>8} {:>5} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "tenant", "mode", "n", "err", "mean", "p50", "p99", "p999", "wait-p50"
            );
            for mode in &run.modes {
                for t in &mode.tenants {
                    let _ = writeln!(
                        out,
                        "{:<10} {:>5} {:>8} {:>5} {:>10} {:>10} {:>10} {:>10} {:>10}",
                        t.name,
                        mode.cc.to_string(),
                        t.completed,
                        t.rejected,
                        t.latency.mean.to_string(),
                        t.latency.p50.to_string(),
                        t.latency.p99.to_string(),
                        t.latency.p999.to_string(),
                        t.wait.p50.to_string(),
                    );
                }
            }
            for mode in &run.modes {
                let _ = writeln!(
                    out,
                    "cluster    {:>5}  util {:>3.0}%  throughput {:>9.1} req/s  \
                     makespan {:>9}  batches {:>6}  cold {:>3}  hypercalls {}",
                    mode.cc.to_string(),
                    mode.utilization() * 100.0,
                    mode.throughput(),
                    mode.end.saturating_since(SimTime::ZERO).to_string(),
                    mode.batches,
                    mode.cold_starts,
                    mode.td.hypercalls,
                );
            }
            let slowdowns: Vec<String> = run
                .off()
                .tenants
                .iter()
                .zip(&run.on().tenants)
                .map(|(off, on)| {
                    format!(
                        "{} {}",
                        off.name,
                        crate::report::ratio(on.latency.p99 / off.latency.p99)
                    )
                })
                .collect();
            let _ = writeln!(out, "p99 slowdown (cc/base): {}", slowdowns.join("  "));
            if let Some(watch) = &run.watch {
                let _ = writeln!(out, "\n--- watch: {} cc-on ---", run.scheduler);
                out.push_str(&watch.render());
            }
        }
        let _ = writeln!(
            out,
            "\nconservation: admitted == completed + rejected (all runs): {}",
            self.conserved()
        );
        let _ = writeln!(
            out,
            "slo cc-on p99 > cc-off p99 (all tenants, all schedulers): {}",
            self.slo_holds()
        );
        out
    }
}

impl ToJson for TenantStats {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.obj(|o| {
            o.field("tenant", &self.name);
            o.field("completed", self.completed);
            o.field("rejected", self.rejected);
            o.field("latency", self.latency);
            o.field("wait", self.wait);
            o.field("service_total_ns", self.service_total);
            o.field("admission_total_ns", self.admission_total);
        });
    }
}

impl ToJson for ModeRun {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.obj(|o| {
            o.field("mode", self.cc);
            o.field("end_ns", self.end.saturating_since(SimTime::ZERO));
            o.field("busy_ns", self.busy);
            o.field(
                "utilization_pct",
                (self.utilization() * 100.0).round() as u64,
            );
            o.field("throughput_rps", self.throughput().round() as u64);
            o.field("batches", self.batches);
            o.field("cold_starts", self.cold_starts);
            o.field("hypercalls", self.td.hypercalls);
            o.field("tenants", &self.tenants);
        });
    }
}

impl ToJson for SchedulerRun {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.obj(|o| {
            o.field("scheduler", self.scheduler.to_string());
            o.field("modes", &self.modes);
            if let Some(watch) = &self.watch {
                o.field("watch", watch);
            }
            if let Some(flight) = &self.flight {
                o.field("flight", flight);
            }
        });
    }
}

impl ToJson for ServingReport {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.obj(|o| {
            o.field("seed", self.seed);
            o.field("requests", self.requests);
            o.field("gpus", self.gpus);
            o.field("arrival", self.arrival.to_string());
            o.field("distinct_shapes", self.distinct_shapes);
            o.field("conserved", self.conserved());
            o.field("slo_holds", self.slo_holds());
            o.field("schedulers", &self.runs);
        });
    }
}
