//! Aggregation, verdicts, and rendering for chaos-lab runs.
//!
//! A [`ChaosReport`] holds one [`ProfileReport`] per storm profile, each
//! with one [`PolicyCell`] per recovery policy run head-to-head over the
//! *identical* arrival trace and storm calendar. Every figure is measured
//! on the virtual clock, so the rendered text is byte-identical across
//! engine thread counts; the trailer states the soak's invariants
//! (latency identity, request and fault conservation, session ledger,
//! gauge drain, leak audit), each asserted on the default soak by
//! `tests/chaos_soak.rs`, plus the PASS/FAIL verdict totals.

use hcc_runtime::LeakAudit;
use hcc_types::json::{JsonOut, ToJson};
use hcc_types::{
    FaultCounts, LatencyBudget, RecoveryPolicy, SimDuration, SimTime, StormIntensity, StormProfile,
};

use crate::serving::cluster::TimeToRecover;
use crate::serving::report::ModeRun;
use crate::serving::{ArrivalKind, SchedulerKind};

/// Request-level fault accounting for one cell. Every request replays its
/// memoized shape simulation, so the shape's deterministic outcome *is*
/// the request's outcome: a request is `rejected` when its shape aborted,
/// `degraded`/`recovered` when its shape survived faults that way, and
/// `clean` when its shape saw no injection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLedger {
    /// Requests whose shape saw no injected fault.
    pub clean: u64,
    /// Requests whose shape survived by retrying.
    pub recovered: u64,
    /// Requests whose shape survived by degrading staging granularity.
    pub degraded: u64,
    /// Requests whose shape aborted (rejected at dispatch).
    pub rejected: u64,
}

impl FaultLedger {
    /// Requests that encountered an injected fault.
    #[must_use]
    pub fn faulty(&self) -> u64 {
        self.recovered + self.degraded + self.rejected
    }

    /// All requests accounted for.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.clean + self.faulty()
    }
}

/// One tenant's SLO verdict inside one cell.
#[derive(Debug, Clone)]
pub struct TenantVerdict {
    /// Tenant label.
    pub name: String,
    /// The budget judged against.
    pub budget: LatencyBudget,
    /// Completed requests.
    pub completed: u64,
    /// Rejected requests.
    pub rejected: u64,
    /// Measured p99 end-to-end latency (completed requests).
    pub p99: SimDuration,
    /// Measured p999 end-to-end latency.
    pub p999: SimDuration,
    /// Measured rejections in parts per million of the tenant's total.
    pub reject_ppm: u64,
}

impl TenantVerdict {
    /// p99 within budget.
    #[must_use]
    pub(crate) fn p99_ok(&self) -> bool {
        self.p99 <= self.budget.p99
    }

    /// p999 within budget.
    #[must_use]
    pub(crate) fn p999_ok(&self) -> bool {
        self.p999 <= self.budget.p999
    }

    /// Rejection rate within budget.
    #[must_use]
    pub(crate) fn reject_ok(&self) -> bool {
        self.reject_ppm <= self.budget.max_reject_ppm
    }

    /// The overall verdict: every budget clause holds.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.p99_ok() && self.p999_ok() && self.reject_ok()
    }

    /// `PASS`, or `FAIL(<clauses>)` naming each violated clause.
    #[must_use]
    pub fn label(&self) -> String {
        if self.pass() {
            return "PASS".to_string();
        }
        let mut broken = Vec::new();
        if !self.p99_ok() {
            broken.push("p99");
        }
        if !self.p999_ok() {
            broken.push("p999");
        }
        if !self.reject_ok() {
            broken.push("rej");
        }
        format!("FAIL({})", broken.join("+"))
    }
}

/// One (storm profile, recovery policy) cell: the cluster run plus its
/// fault ledger, leak audit, drain measurements, and per-tenant verdicts.
#[derive(Debug)]
pub struct PolicyCell {
    /// The recovery policy under test.
    pub policy: RecoveryPolicy,
    /// The cluster run (per-tenant latency/wait tails, utilization,
    /// gauge drain, time-to-recover) over the shared trace.
    pub mode: ModeRun,
    /// Request-level fault accounting.
    pub ledger: FaultLedger,
    /// Simulation-level fault counters summed over the cell's distinct
    /// surviving shapes (aborted shapes carry no counters out).
    pub sim_faults: FaultCounts,
    /// Aggregated conservation snapshot over every surviving shape.
    pub audit: LeakAudit,
    /// Distinct shape simulations backing the cell (incl. calm shapes).
    pub shapes: usize,
    /// Shape simulations that aborted (their requests are rejected).
    pub aborted_shapes: usize,
    /// Largest single-shape trace-event count (arena-growth bound input).
    pub max_shape_events: usize,
    /// Per-tenant SLO verdicts, in population order.
    pub verdicts: Vec<TenantVerdict>,
    /// Leak-audit and bounded-growth violations (empty = healthy).
    pub violations: Vec<String>,
    /// SLO watchtower over the cell's soak (`None` unless the config
    /// enabled the watch plane).
    pub watch: Option<crate::watch::WatchReport>,
    /// Flight-recorder exemplar log over the cell's soak (`None` unless
    /// the config enabled the flight plane). Never feeds `render()`:
    /// the text report stays byte-identical to a flight-free build.
    pub flight: Option<hcc_trace::FlightLog>,
}

impl PolicyCell {
    /// Post-peak queue-drain measurements, measured by the drain.
    #[must_use]
    pub fn ttr(&self) -> TimeToRecover {
        self.mode
            .ttr
            .expect("a chaos cell runs under a storm calendar")
    }

    /// Passing tenant verdicts.
    #[must_use]
    pub fn passes(&self) -> u64 {
        self.verdicts.iter().filter(|v| v.pass()).count() as u64
    }

    /// Failing tenant verdicts.
    #[must_use]
    pub fn fails(&self) -> u64 {
        self.verdicts.len() as u64 - self.passes()
    }

    /// Fault-ledger conservation: the clean/recovered/degraded/rejected
    /// partition covers every admitted request exactly once, and the
    /// ledger's rejection count matches the cluster's.
    #[must_use]
    pub fn fault_conserved(&self, admitted: u64) -> bool {
        self.ledger.total() == admitted && self.ledger.rejected == self.mode.rejected()
    }

    /// No leak-audit violations and all structural identities hold.
    #[must_use]
    pub fn healthy(&self, admitted: u64) -> bool {
        self.violations.is_empty() && self.mode.healthy(admitted) && self.fault_conserved(admitted)
    }
}

/// One storm profile's calendar plus its per-policy cells.
#[derive(Debug)]
pub struct ProfileReport {
    /// The storm under test.
    pub profile: StormProfile,
    /// Fingerprint of the generated calendar (seed-replayable).
    pub schedule_fingerprint: u64,
    /// Virtual time spent at each intensity, by [`StormIntensity::index`].
    pub coverage: [SimDuration; StormIntensity::COUNT],
    /// Requests arriving inside each intensity, by index.
    pub arrivals: [u64; StormIntensity::COUNT],
    /// One cell per recovery policy, in configuration order.
    pub cells: Vec<PolicyCell>,
}

/// The complete chaos-lab run: every profile, every policy, one shared
/// arrival trace.
#[derive(Debug)]
pub struct ChaosReport {
    /// Master seed (storm calendars, plan seeds, and arrivals derive from
    /// it).
    pub seed: u64,
    /// Virtual days soaked (one day = the 60 s compressed diurnal
    /// period).
    pub days: u64,
    /// The storm-calendar horizon (`days` × 60 s).
    pub horizon: SimDuration,
    /// Requests in the shared trace (each cell replays all of them).
    pub requests_per_cell: u64,
    /// Cluster width.
    pub gpus: usize,
    /// Arrival process.
    pub arrival: ArrivalKind,
    /// Scheduler used by every cell.
    pub scheduler: SchedulerKind,
    /// Storm episodes per calendar.
    pub episodes: u32,
    /// Decorrelated fault-plan replicas per (profile, intensity).
    pub replicas: u32,
    /// Tenant labels, in population order.
    pub tenant_names: Vec<String>,
    /// Per-tenant budgets, aligned with `tenant_names`.
    pub budgets: Vec<LatencyBudget>,
    /// One report per storm profile.
    pub profiles: Vec<ProfileReport>,
}

impl ChaosReport {
    /// Every cell across every profile.
    pub fn cells(&self) -> impl Iterator<Item = &PolicyCell> {
        self.profiles.iter().flat_map(|p| p.cells.iter())
    }

    /// Requests pushed through the whole run (trace length × cells).
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.requests_per_cell * self.cells().count() as u64
    }

    /// No cell recorded a leak-audit or bounded-growth violation.
    #[must_use]
    pub fn leak_free(&self) -> bool {
        self.cells().all(|c| c.violations.is_empty())
    }

    /// `check`, one of the run-level checks of [`ModeRun`], holds for
    /// every cell's run.
    #[must_use]
    pub fn every_run(&self, check: impl Fn(&ModeRun) -> bool) -> bool {
        self.cells().all(|c| check(&c.mode))
    }

    /// Fault-ledger conservation in every cell.
    #[must_use]
    pub fn fault_conserved(&self) -> bool {
        self.cells()
            .all(|c| c.fault_conserved(self.requests_per_cell))
    }

    /// `(pass, fail)` verdict totals across every cell.
    #[must_use]
    pub fn verdict_counts(&self) -> (u64, u64) {
        self.cells()
            .fold((0, 0), |(p, f), c| (p + c.passes(), f + c.fails()))
    }

    /// The run is structurally sound: leak-free with every conservation
    /// and latency identity holding. Budget FAIL verdicts are expected
    /// data (that is what the lab measures) and do *not* make a run
    /// unhealthy.
    #[must_use]
    pub fn healthy(&self) -> bool {
        self.cells().all(|c| c.healthy(self.requests_per_cell))
    }

    /// First recorded violation, for error reporting.
    #[must_use]
    pub fn first_violation(&self) -> Option<&str> {
        self.cells()
            .flat_map(|c| c.violations.iter())
            .next()
            .map(String::as_str)
    }

    /// Renders the full text report (virtual-time figures only).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "=== chaos lab: seeded fault storms, soak run ===");
        let _ = writeln!(
            out,
            "seed {:#x} | days {} | horizon {} | requests/cell {} | cells {} | total {}",
            self.seed,
            self.days,
            self.horizon,
            self.requests_per_cell,
            self.cells().count(),
            self.total_requests(),
        );
        let _ = writeln!(
            out,
            "gpus {} | arrival {} | scheduler {} | episodes {} | replicas {}",
            self.gpus, self.arrival, self.scheduler, self.episodes, self.replicas,
        );
        for (name, budget) in self.tenant_names.iter().zip(&self.budgets) {
            let _ = writeln!(out, "budget {name:<10} {budget}");
        }

        for profile in &self.profiles {
            let _ = writeln!(
                out,
                "\n=== storm: {} (calendar {:#x}) ===",
                profile.profile, profile.schedule_fingerprint
            );
            let horizon_ns = self.horizon.as_nanos().max(1);
            let pct = |d: SimDuration| (d.as_nanos() as f64 / horizon_ns as f64 * 100.0).round();
            let _ = writeln!(
                out,
                "calendar: calm {:.0}% rising {:.0}% peak {:.0}% | arrivals calm {} rising {} peak {}",
                pct(profile.coverage[0]),
                pct(profile.coverage[1]),
                pct(profile.coverage[2]),
                profile.arrivals[0],
                profile.arrivals[1],
                profile.arrivals[2],
            );
            for cell in &profile.cells {
                let _ = writeln!(out, "\n--- policy: {} ---", cell.policy);
                let _ = writeln!(
                    out,
                    "{:<10} {:>8} {:>6} {:>10} {:>10} {:>8}  verdict",
                    "tenant", "n", "rej", "p99", "p999", "rej-ppm"
                );
                for v in &cell.verdicts {
                    let _ = writeln!(
                        out,
                        "{:<10} {:>8} {:>6} {:>10} {:>10} {:>8}  {}",
                        v.name,
                        v.completed,
                        v.rejected,
                        v.p99.to_string(),
                        v.p999.to_string(),
                        v.reject_ppm,
                        v.label(),
                    );
                }
                let _ = writeln!(
                    out,
                    "cell: util {:>3.0}% | makespan {} | batches {} | cold {} | sessions {}/{}",
                    cell.mode.utilization() * 100.0,
                    cell.mode.end.saturating_since(SimTime::ZERO),
                    cell.mode.batches,
                    cell.mode.cold_starts,
                    cell.mode.sessions_established,
                    cell.mode.sessions_closed,
                );
                let _ = writeln!(
                    out,
                    "faults: injected {} retries {} recovered {} degraded {} aborted {} \
                     | requests clean {} recovered {} degraded {} rejected {}",
                    cell.sim_faults.injected,
                    cell.sim_faults.retries,
                    cell.sim_faults.recovered,
                    cell.sim_faults.degraded,
                    cell.sim_faults.aborted,
                    cell.ledger.clean,
                    cell.ledger.recovered,
                    cell.ledger.degraded,
                    cell.ledger.rejected,
                );
                let ttr = cell.ttr();
                let _ = writeln!(
                    out,
                    "recover: peaks {} drained {} | ttr mean {} max {}",
                    ttr.peaks, ttr.drained, ttr.mean, ttr.max,
                );
                let _ = writeln!(
                    out,
                    "audit: shapes {} ({} aborted) | events {} | max shape events {} | {}",
                    cell.shapes,
                    cell.aborted_shapes,
                    cell.audit.events,
                    cell.max_shape_events,
                    if cell.violations.is_empty() {
                        "leak none".to_string()
                    } else {
                        format!("LEAK {}", cell.violations.join("; "))
                    },
                );
                if let Some(watch) = &cell.watch {
                    let _ = writeln!(
                        out,
                        "\n--- watch: {} / {} ---",
                        profile.profile.name, cell.policy
                    );
                    out.push_str(&watch.render());
                }
            }
        }

        let _ = writeln!(out, "\n=== policy verdicts ===");
        for profile in &self.profiles {
            for cell in &profile.cells {
                let _ = writeln!(
                    out,
                    "{:<14} {:<8} {} PASS, {} FAIL",
                    profile.profile.name,
                    cell.policy.to_string(),
                    cell.passes(),
                    cell.fails(),
                );
            }
        }

        let (pass, fail) = self.verdict_counts();
        let _ = writeln!(
            out,
            "\nlatency identity: latency == wait + service (all tenants, all cells): {}",
            self.every_run(ModeRun::latency_identity)
        );
        let _ = writeln!(
            out,
            "conservation: admitted == completed + rejected (all cells): {}",
            self.every_run(|m| m.conserved(self.requests_per_cell))
        );
        let _ = writeln!(
            out,
            "conservation: clean + recovered + degraded + rejected == admitted (all cells): {}",
            self.fault_conserved()
        );
        let _ = writeln!(
            out,
            "sessions: established == closed == cold-starts (all cells): {}",
            self.every_run(ModeRun::sessions_ok)
        );
        let _ = writeln!(
            out,
            "gauges: queue and device depth drained to zero (all cells): {}",
            self.every_run(ModeRun::gauges_drained)
        );
        let _ = writeln!(
            out,
            "leaks: {}",
            if self.leak_free() { "none" } else { "DETECTED" }
        );
        let _ = writeln!(out, "verdicts: {pass} PASS, {fail} FAIL");
        out
    }
}

impl ToJson for TenantVerdict {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.obj(|o| {
            o.field("tenant", &self.name);
            o.field("completed", self.completed);
            o.field("rejected", self.rejected);
            o.field("p99_ns", self.p99);
            o.field("p999_ns", self.p999);
            o.field("reject_ppm", self.reject_ppm);
            o.field("budget_p99_ns", self.budget.p99);
            o.field("budget_p999_ns", self.budget.p999);
            o.field("budget_reject_ppm", self.budget.max_reject_ppm);
            o.field("pass", self.pass());
        });
    }
}

impl ToJson for PolicyCell {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        let ttr = self.ttr();
        out.obj(|o| {
            o.field("policy", self.policy.name());
            o.field("makespan_ns", self.mode.end.saturating_since(SimTime::ZERO));
            o.field(
                "utilization_pct",
                (self.mode.utilization() * 100.0).round() as u64,
            );
            o.field("completed", self.mode.completed());
            o.field("rejected", self.mode.rejected());
            o.field("requests_recovered", self.ledger.recovered);
            o.field("requests_degraded", self.ledger.degraded);
            o.field("faults_injected", self.sim_faults.injected);
            o.field("shapes", self.shapes);
            o.field("aborted_shapes", self.aborted_shapes);
            o.field("ttr_peaks", ttr.peaks);
            o.field("ttr_drained", ttr.drained);
            o.field("ttr_mean_ns", ttr.mean);
            o.field("ttr_max_ns", ttr.max);
            o.field("passes", self.passes());
            o.field("fails", self.fails());
            o.field("violations", &self.violations);
            o.field("verdicts", &self.verdicts);
            if let Some(watch) = &self.watch {
                o.field("watch", watch);
            }
            if let Some(flight) = &self.flight {
                o.field("flight", flight);
            }
        });
    }
}

impl ToJson for ProfileReport {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.obj(|o| {
            o.field("profile", self.profile.name);
            o.field("calendar_fingerprint", self.schedule_fingerprint);
            o.field("coverage_ns", self.coverage);
            o.field("arrivals", self.arrivals);
            o.field("cells", &self.cells);
        });
    }
}

impl ToJson for ChaosReport {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        let (pass, fail) = self.verdict_counts();
        out.obj(|o| {
            o.field("seed", self.seed);
            o.field("days", self.days);
            o.field("horizon_ns", self.horizon);
            o.field("requests_per_cell", self.requests_per_cell);
            o.field("total_requests", self.total_requests());
            o.field("gpus", self.gpus);
            o.field("arrival", self.arrival.to_string());
            o.field("scheduler", self.scheduler.to_string());
            o.field("episodes", self.episodes);
            o.field("replicas", self.replicas);
            o.field(
                "latency_identity",
                self.every_run(ModeRun::latency_identity),
            );
            o.field(
                "conserved",
                self.every_run(|m| m.conserved(self.requests_per_cell)),
            );
            o.field("sessions_ok", self.every_run(ModeRun::sessions_ok));
            o.field("gauges_drained", self.every_run(ModeRun::gauges_drained));
            o.field("leak_free", self.leak_free());
            o.field("healthy", self.healthy());
            o.field("verdict_pass", pass);
            o.field("verdict_fail", fail);
            o.field("profiles", &self.profiles);
        });
    }
}
