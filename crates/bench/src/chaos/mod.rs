//! Chaos lab: seeded fault storms composed with the serving cluster's
//! drain over virtual-time soak runs (DESIGN.md §4, chaos harness).
//!
//! The fault layer answers "what does one injected fault cost one run?";
//! this module answers the operator's question: *when correlated fault
//! storms sweep a confidential cluster for days, which recovery policy
//! keeps the SLOs?* A [`hcc_types::StormSchedule`] tiles the horizon with
//! calm / rising / peak windows for each [`hcc_types::StormProfile`]
//! (bounce-pool exhaustion waves, crypto-queue saturation bursts, UVM
//! thrash episodes, ring-doorbell flaps), and every request's arrival
//! instant selects the fault plan its shape simulation runs under. The
//! same trace and the same calendar then run head-to-head under
//! `RecoveryPolicy::{Retry, Degrade, Abort}`, so the per-tenant p99/p999
//! and rejected-request verdicts differ *only* by policy.
//!
//! Shapes are resolved exactly as in [`crate::serving`]: each cell's
//! [`ShapeTable`] lists `apps` calm shapes (shared by every cell) and the
//! cell's `apps × {rising, peak} × replicas` fault shapes, all simulated
//! once in one engine batch, so a 10⁵–10⁶ request soak costs a few
//! hundred simulations and each request resolves by index. On top of the
//! SLO verdicts, the lab audits soak-scale resource conservation: every
//! surviving shape's [`LeakAudit`] must balance, session pools and depth
//! gauges must drain to zero, and per-shape trace growth must stay
//! bounded.
//!
//! Everything is virtual-time deterministic: one seed fixes the storm
//! calendars, the fault plans, the arrival trace, and every verdict, and
//! the rendered report is byte-identical across `HCC_ENGINE_THREADS`.

pub mod report;

use std::sync::Arc;

use hcc_runtime::{LeakAudit, SimConfig};
use hcc_types::calib::TdxCalib;
use hcc_types::{
    ByteSize, CcMode, FaultCounts, LatencyBudget, Planes, RecoveryPolicy, SimDuration, SimTime,
    StormIntensity, StormProfile, StormSchedule,
};
use hcc_workloads::{default_tenants, Scenario, TenantSpec};

use crate::cli::{self, env_at_most, env_u64, CliError};
use crate::engine::ExperimentEngine;
use crate::lab::Command;
use crate::serving::{
    arrival, cluster, distinct_apps, observe, ArrivalKind, Request, SchedulerKind, ShapeTable,
};
use crate::watch::WatchConfig;

pub use crate::serving::cluster::TimeToRecover;
pub use report::{ChaosReport, FaultLedger, PolicyCell, ProfileReport, TenantVerdict};

/// Environment variable overriding the master seed.
pub const SEED_ENV: &str = "HCC_CHAOS_SEED";

/// Environment variable overriding the soak length in virtual days.
pub const DAYS_ENV: &str = "HCC_CHAOS_DAYS";

/// Environment variable overriding the per-cell request count.
pub const REQUESTS_ENV: &str = "HCC_CHAOS_REQUESTS";

/// Default master seed.
pub const DEFAULT_SEED: u64 = 0xC4A0_55ED;

/// Default seed baked into every shape scenario's `SimConfig` (distinct
/// from the serving lab's so the two goldens never alias).
pub const DEFAULT_SHAPE_SEED: u64 = 0x57A8_2026;

/// One compressed virtual day: the diurnal arrival period, so "days" in
/// the chaos lab line up with the arrival process's day/night cycle.
pub const DAY: SimDuration = SimDuration::secs(60);

/// Bounded-growth ceiling for a single shape simulation's trace arena.
/// A standard-suite run records a few hundred to a few thousand events;
/// anything past this is runaway growth, not a bigger workload.
pub const SHAPE_EVENT_BOUND: usize = 1 << 20;

/// Full configuration of one chaos-lab run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed: storm calendars, fault-plan seeds, and the arrival
    /// trace all derive from it through decorrelated mixes.
    pub seed: u64,
    /// Requests in the shared trace, at most [`arrival::MAX_REQUESTS`]; every
    /// (profile, policy) cell replays all of them. Zero yields cells
    /// that settle nothing (conserved vacuously).
    pub requests: u64,
    /// Soak length in virtual days ([`DAY`] each).
    pub days: u64,
    /// Cluster width, at most [`cluster::MAX_GPUS`].
    pub gpus: usize,
    /// Tenant population.
    pub tenants: Vec<TenantSpec>,
    /// Per-tenant SLO budgets, aligned with `tenants`.
    pub budgets: Vec<LatencyBudget>,
    /// Storm profiles to sweep.
    pub profiles: Vec<StormProfile>,
    /// Recovery policies compared head-to-head inside each profile.
    pub policies: Vec<RecoveryPolicy>,
    /// Storm episodes per virtual day.
    pub episodes_per_day: u32,
    /// Decorrelated fault-plan replicas per (profile, intensity): more
    /// replicas sample more storm outcomes per window at the cost of
    /// more simulations.
    pub replicas: u32,
    /// Arrival process for the shared trace.
    pub arrival: ArrivalKind,
    /// Scheduler used by every cell.
    pub scheduler: SchedulerKind,
    /// Continuous-batching cap, at most [`cluster::MAX_BATCH`].
    pub max_batch: usize,
    /// Seed baked into every shape scenario's config.
    pub shape_seed: u64,
    /// TDX calibration for the per-device session pools.
    pub tdx: TdxCalib,
    /// SLO watchtower: when set, every cell carries a windowed
    /// burn-rate/incident timeline correlated against the cell's storm
    /// calendar. `None` (the default) builds no rollups.
    pub watch: Option<crate::watch::WatchConfig>,
    /// Request flight recorder: when set, every cell samples per-request
    /// span trees (tail exemplars plus a seeded uniform reservoir per
    /// tumbling window), the cell's leak audit enforces the exemplar
    /// store's `windows × budget` memory bound over the full soak, and
    /// the cell carries the resolved [`hcc_trace::FlightLog`]. `None`
    /// (the default) builds no flight log, and the rendered report is
    /// byte-identical either way.
    pub flight: Option<hcc_trace::FlightConfig>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        let tenants = default_tenants(2);
        let budgets = default_budgets(&tenants);
        ChaosConfig {
            seed: DEFAULT_SEED,
            requests: 20_000,
            days: 30,
            gpus: 4,
            tenants,
            budgets,
            profiles: vec![StormProfile::bounce_squall(), StormProfile::uvm_thrash()],
            policies: vec![
                RecoveryPolicy::default_retry(),
                RecoveryPolicy::Degrade {
                    min_chunk: ByteSize::kib(64),
                },
                RecoveryPolicy::Abort,
            ],
            episodes_per_day: 6,
            replicas: 2,
            arrival: ArrivalKind::Diurnal,
            scheduler: SchedulerKind::Fifo,
            max_batch: 8,
            shape_seed: DEFAULT_SHAPE_SEED,
            tdx: TdxCalib::default(),
            watch: None,
            flight: None,
        }
    }
}

impl ChaosConfig {
    /// Applies [`SEED_ENV`], [`DAYS_ENV`], and [`REQUESTS_ENV`]
    /// overrides; a value that is not an integer, or a request count
    /// above [`arrival::MAX_REQUESTS`], is refused.
    pub fn from_env(mut self) -> Result<Self, CliError> {
        if let Some(seed) = env_u64(SEED_ENV)? {
            self.seed = seed;
        }
        if let Some(days) = env_u64(DAYS_ENV)? {
            self.days = days.clamp(1, 3650);
        }
        if let Some(n) = env_at_most(REQUESTS_ENV, arrival::MAX_REQUESTS)? {
            self.requests = n.max(1);
        }
        Ok(self)
    }

    /// The storm-calendar horizon: `days` × [`DAY`].
    #[must_use]
    pub fn horizon(&self) -> SimDuration {
        SimDuration::from_nanos(DAY.as_nanos().saturating_mul(self.days))
    }

    /// Storm episodes per calendar.
    #[must_use]
    pub fn episodes(&self) -> u32 {
        u32::try_from(u64::from(self.episodes_per_day).saturating_mul(self.days))
            .unwrap_or(u32::MAX)
    }

    /// The cluster every cell drains through: CC-on, `gpus` wide,
    /// under `scheduler`.
    #[must_use]
    pub fn cluster(&self) -> cluster::ClusterConfig<'_> {
        cluster::ClusterConfig {
            tenants: &self.tenants,
            cc: CcMode::On,
            gpus: self.gpus,
            kind: self.scheduler,
            max_batch: self.max_batch,
            tdx: &self.tdx,
            peak_ends: None,
            queue_window: None,
            planes: Planes::NONE,
        }
    }

    fn calm_cfg(&self) -> SimConfig {
        SimConfig::new(CcMode::On).with_seed(self.shape_seed)
    }

    /// `profile`'s storm calendar over the soak horizon.
    #[must_use]
    pub fn schedule(&self, profile: &StormProfile) -> StormSchedule {
        let storm_seed = mix(self.seed, profile.fingerprint());
        StormSchedule::generate(storm_seed, self.horizon(), self.episodes())
    }

    /// The `SimConfig` of the shape a request rides when it arrives at
    /// `intensity` of `profile`'s calendar on plan replica `replica`,
    /// recovering by `policy`. Calm shapes carry no fault plan (which
    /// never consults the policy), so every cell shares them. Plan seeds
    /// depend on the storm and the (intensity, replica) slot but *not*
    /// on the policy: every policy faces the same storm draws and differs
    /// only in how it recovers.
    #[must_use]
    pub fn shape_cfg(
        &self,
        profile: &StormProfile,
        policy: &RecoveryPolicy,
        intensity: StormIntensity,
        replica: u32,
    ) -> SimConfig {
        let calm = self.calm_cfg();
        let stormy: u64 = match intensity {
            StormIntensity::Calm => return calm,
            StormIntensity::Rising => 0,
            StormIntensity::Peak => 1,
        };
        let storm_seed = mix(self.seed, profile.fingerprint());
        let plan_seed = mix(storm_seed, ((stormy + 1) << 32) | u64::from(replica));
        calm.with_fault_plan(profile.plan(intensity, plan_seed))
            .with_recovery(policy.clone())
    }
}

/// Default per-tenant SLO contracts, calibrated against the default
/// one-day, 20 k-request soak: Retry and Degrade hold them through every
/// built-in storm, while Abort's mass rejections blow the `rej-ppm`
/// clause — so the default report always carries both PASS and FAIL
/// verdicts.
#[must_use]
pub fn default_budgets(tenants: &[TenantSpec]) -> Vec<LatencyBudget> {
    tenants
        .iter()
        .map(|t| match t.name {
            // The front-end tenant's mix is heavier (GEMM prefill), so
            // its absolute tail budget is looser but its rejection
            // allowance is the tightest.
            "chat" => LatencyBudget {
                p99: SimDuration::millis(300),
                p999: SimDuration::millis(400),
                max_reject_ppm: 60_000,
            },
            // Throughput tenants run shorter solvers and tolerate a
            // slightly higher rejection rate, not mass rejection.
            _ => LatencyBudget {
                p99: SimDuration::millis(250),
                p999: SimDuration::millis(350),
                max_reject_ppm: 80_000,
            },
        })
        .collect()
}

/// Decorrelating seed mix (distinct from both the injector's and the
/// storm calendar's internal constants).
fn mix(seed: u64, salt: u64) -> u64 {
    (seed ^ salt.rotate_left(31)).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x2545_F491_4F6C_DD1D
}

/// Salt separating the arrival stream from storm-calendar seeds.
const ARRIVAL_SALT: u64 = 0xA55A_11E5;

/// Stormy intensities in escalation order, as a cell's storm shapes list
/// them.
const STORMY: [StormIntensity; 2] = [StormIntensity::Rising, StormIntensity::Peak];

/// One storm profile's resolved soak inputs.
#[derive(Debug, Clone)]
pub struct StormShapes {
    /// The profile's storm calendar.
    pub schedule: StormSchedule,
    /// Arrivals per storm intensity, indexed by [`StormIntensity::index`].
    pub arrivals: [u64; StormIntensity::COUNT],
    /// One table per recovery policy, in `cfg.policies` order: the calm
    /// shapes (one per app) first, then the cell's storm shapes (per app,
    /// rising then peak, plan replicas innermost).
    pub tables: Vec<ShapeTable>,
}

/// Generates the shared arrival trace and resolves every cell's shape
/// table over it ([`storm_shapes`]).
pub fn shape_tables(
    cfg: &ChaosConfig,
    engine: &ExperimentEngine,
) -> (Vec<Request>, Vec<StormShapes>) {
    // Shared trace: per-tenant rates sized so the whole request budget
    // spreads across the soak horizon (load_weight fixes each tenant's
    // share). Squeezing the same requests into fewer days raises load.
    let horizon_secs = cfg.horizon().as_secs_f64().max(1e-9);
    let weight_sum: u64 = cfg.tenants.iter().map(|t| u64::from(t.load_weight)).sum();
    let rates: Vec<f64> = cfg
        .tenants
        .iter()
        .map(|t| {
            let share = f64::from(t.load_weight) / weight_sum as f64;
            cfg.requests as f64 * share / horizon_secs
        })
        .collect();
    let requests = arrival::generate(
        &cfg.tenants,
        &rates,
        cfg.arrival,
        cfg.requests,
        mix(cfg.seed, ARRIVAL_SALT),
    );
    let storms = storm_shapes(cfg, engine, &requests);
    (requests, storms)
}

/// Resolves every cell's shape table over `requests`, per profile in
/// `cfg.profiles` order. Every distinct shape of the soak simulates
/// once, in one engine batch, so a 10⁵–10⁶ request soak costs a few
/// hundred simulations. A request rides the shape of the storm
/// intensity in force at its arrival and of plan replica
/// `i % replicas`, where `i` is its index (arrival rank) in the trace.
///
/// # Panics
/// If `requests` is not sorted by arrival.
pub fn storm_shapes(
    cfg: &ChaosConfig,
    engine: &ExperimentEngine,
    requests: &[Request],
) -> Vec<StormShapes> {
    assert!(
        requests.is_sorted_by_key(|r| r.arrival),
        "the trace is arrival-sorted"
    );

    // The soak's working set: calm shapes, then per (profile, policy)
    // cell its storm shapes, in table order.
    let (apps, slot) = distinct_apps(&cfg.tenants);
    let n = apps.len();
    let mut scenarios: Vec<Scenario> = apps
        .iter()
        .map(|&app| Scenario::standard(app, cfg.calm_cfg()))
        .collect();
    for profile in &cfg.profiles {
        for policy in &cfg.policies {
            for &app in &apps {
                for intensity in STORMY {
                    for k in 0..cfg.replicas {
                        let shape_cfg = cfg.shape_cfg(profile, policy, intensity, k);
                        scenarios.push(Scenario::standard(app, shape_cfg));
                    }
                }
            }
        }
    }
    let entries = engine.run_all(&scenarios);
    let (calm, storm) = entries.split_at(n);
    let mut cells = storm.chunks(n * STORMY.len() * cfg.replicas as usize);

    let observed = cfg.watch.is_some() || cfg.flight.is_some();
    cfg.profiles
        .iter()
        .map(|profile| {
            let schedule = cfg.schedule(profile);
            let mut arrivals = [0u64; StormIntensity::COUNT];
            // The trace is arrival-sorted, so one forward pass over the
            // calendar answers `intensity_at` for every request: `ahead`
            // holds the windows not over at the last arrival. They are
            // sorted and disjoint, so the first of them holds an arrival
            // exactly when it has started; otherwise the arrival falls
            // in no window (or past the horizon) and is calm.
            let mut ahead = schedule.windows.as_slice();
            let shape_of: Arc<[u32]> = requests
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    while ahead.first().is_some_and(|w| w.end <= r.arrival) {
                        ahead = &ahead[1..];
                    }
                    let intensity = match ahead.first() {
                        Some(w) if w.start <= r.arrival => w.intensity,
                        _ => StormIntensity::Calm,
                    };
                    arrivals[intensity.index()] += 1;
                    let app = slot[r.tenant as usize][r.class as usize];
                    let replica = (i % cfg.replicas as usize) as u32;
                    match intensity {
                        StormIntensity::Calm => app,
                        StormIntensity::Rising | StormIntensity::Peak => {
                            let stormy = u32::from(intensity == StormIntensity::Peak);
                            n as u32 + (app * STORMY.len() as u32 + stormy) * cfg.replicas + replica
                        }
                    }
                })
                .collect();
            let tables = cfg
                .policies
                .iter()
                .map(|_| {
                    let cell = cells.next().expect("one storm slice per cell");
                    ShapeTable::new(calm.iter().chain(cell), Arc::clone(&shape_of), observed)
                })
                .collect();
            StormShapes {
                schedule,
                arrivals,
                tables,
            }
        })
        .collect()
}

/// Runs the full chaos lab: one shared arrival trace, one storm calendar
/// per profile, one cluster run per (profile, policy) cell.
pub fn run(cfg: &ChaosConfig, engine: &ExperimentEngine) -> ChaosReport {
    assert!(!cfg.tenants.is_empty(), "chaos needs at least one tenant");
    assert_eq!(
        cfg.tenants.len(),
        cfg.budgets.len(),
        "one budget per tenant"
    );
    assert!(!cfg.profiles.is_empty(), "chaos needs at least one storm");
    assert!(!cfg.policies.is_empty(), "chaos needs at least one policy");
    assert!(cfg.replicas >= 1, "chaos needs at least one plan replica");

    let horizon = cfg.horizon();
    let (requests, storms) = shape_tables(cfg, engine);
    let tenant_names: Vec<String> = cfg.tenants.iter().map(|t| t.name.to_string()).collect();
    // One pair of sample buffers, lent to every cell.
    let mut samples = cluster::Samples::new(&requests, cfg.tenants.len());
    let cluster = cfg.cluster();

    let mut profiles_out = Vec::with_capacity(cfg.profiles.len());
    for (profile, storm) in cfg.profiles.iter().zip(storms) {
        let schedule = &storm.schedule;
        let soak = crate::watch::SoakContext {
            tenant_names: &tenant_names,
            budgets: &cfg.budgets,
            horizon: SimTime::ZERO + horizon,
            storm: Some(crate::watch::StormContext {
                profile: profile.name,
                schedule,
            }),
        };

        // A profile's cells share one request→shape map: count each
        // shape's riders once, and fold every cell's ledger from them.
        let mut riders = vec![0u64; storm.tables[0].shapes().len()];
        for &s in storm.tables[0].shape_of() {
            riders[s as usize] += 1;
        }

        let mut cells = Vec::with_capacity(cfg.policies.len());
        for (policy, table) in cfg.policies.iter().zip(&storm.tables) {
            // Soak-scale leak audit over every simulated shape in the
            // cell (calm + stormy), before any request rides them.
            let mut audit = LeakAudit::default();
            let mut sim_faults = FaultCounts::default();
            let mut violations: Vec<String> = Vec::new();
            let mut max_shape_events = 0usize;
            let mut aborted_shapes = 0usize;
            for shape in table.shapes() {
                match &shape.audit {
                    Some(a) => {
                        if let Err(e) = a.check() {
                            violations.push(format!("shape {}: {e}", shape.label));
                        }
                        if a.events > SHAPE_EVENT_BOUND {
                            violations.push(format!(
                                "shape {}: {} trace events exceed the {} growth bound",
                                shape.label, a.events, SHAPE_EVENT_BOUND
                            ));
                        }
                        max_shape_events = max_shape_events.max(a.events);
                        audit.absorb(a);
                        sim_faults.injected += shape.faults.injected;
                        sim_faults.retries += shape.faults.retries;
                        sim_faults.recovered += shape.faults.recovered;
                        sim_faults.degraded += shape.faults.degraded;
                        sim_faults.aborted += shape.faults.aborted;
                    }
                    None => aborted_shapes += 1,
                }
            }
            // The cell-aggregate check runs after the cluster pass, once
            // the flight recorder's store accounting has been folded in.

            // Fault ledger: each request inherits its shape's
            // deterministic outcome.
            let mut ledger = FaultLedger::default();
            for (shape, &n) in table.shapes().iter().zip(&riders) {
                *if shape.service.is_err() {
                    &mut ledger.rejected
                } else if shape.faults.degraded > 0 {
                    &mut ledger.degraded
                } else if shape.faults.recovered > 0 {
                    &mut ledger.recovered
                } else {
                    &mut ledger.clean
                } += n;
            }

            // The cluster run: identical trace, identical calendar —
            // only the recovery policy differs between cells. Incidents
            // and time-to-recover read this profile's calendar; blame
            // and exemplars resolve against the cell's shape table.
            let (mode, watch, flight) = observe::cell(
                &requests,
                table,
                &cluster,
                cfg.watch.as_ref(),
                cfg.flight,
                &soak,
                &mut samples,
            );

            // Fold the flight store's accounting into the cell audit:
            // the exemplar store may never outgrow its
            // `windows × (worst + reservoir)` bound over the full soak.
            if let Some(f) = &flight {
                audit.flight_kept = f.kept_entries;
                audit.flight_windows = f.windows;
                audit.flight_window_budget = f.cfg.per_window_budget();
            }
            if let Err(e) = audit.check() {
                violations.push(format!("cell aggregate: {e}"));
            }

            let verdicts = mode
                .tenants
                .iter()
                .zip(&cfg.budgets)
                .map(|(t, &budget)| {
                    let total = t.completed + t.rejected;
                    let reject_ppm = t.rejected.saturating_mul(1_000_000).checked_div(total);
                    TenantVerdict {
                        name: t.name.clone(),
                        budget,
                        completed: t.completed,
                        rejected: t.rejected,
                        p99: t.latency.p99,
                        p999: t.latency.p999,
                        reject_ppm: reject_ppm.unwrap_or(0),
                    }
                })
                .collect();

            cells.push(PolicyCell {
                policy: policy.clone(),
                mode,
                ledger,
                sim_faults,
                audit,
                shapes: table.shapes().len(),
                aborted_shapes,
                max_shape_events,
                verdicts,
                violations,
                watch,
                flight,
            });
        }

        profiles_out.push(ProfileReport {
            profile: profile.clone(),
            schedule_fingerprint: schedule.fingerprint(),
            coverage: schedule.coverage(),
            arrivals: storm.arrivals,
            cells,
        });
    }

    ChaosReport {
        seed: cfg.seed,
        days: cfg.days,
        horizon,
        requests_per_cell: cfg.requests,
        gpus: cfg.gpus,
        arrival: cfg.arrival,
        scheduler: cfg.scheduler,
        episodes: cfg.episodes(),
        replicas: cfg.replicas,
        tenant_names,
        budgets: cfg.budgets.clone(),
        profiles: profiles_out,
    }
}

/// A comma list of names parsed by `one`, or `all`.
fn list<T>(
    raw: &str,
    all: impl FnOnce() -> Vec<T>,
    one: impl Fn(String) -> Result<T, CliError>,
) -> Result<Vec<T>, CliError> {
    if raw.trim() == "all" {
        return Ok(all());
    }
    raw.split(',').map(|name| one(name.to_string())).collect()
}

/// `hcc_lab chaos`: [`run`]'s report on stdout and wall-clock throughput
/// in the `--json` side file. Exit status 0 means the run was healthy
/// (budget FAIL verdicts are expected data), 1 a leak, conservation or
/// identity violation, 2 a bad flag or `HCC_CHAOS_*` override, or a size
/// past [`arrival::MAX_REQUESTS`] or [`cluster::MAX_GPUS`].
pub const COMMAND: Command = Command {
    usage: "usage: hcc_lab chaos [--requests N] [--days N] [--seed S] [--gpus N] [--tenants N] \
        [--profiles p1,p2|all] [--policies retry,degrade,abort|all] [--replicas N] \
        [--episodes-per-day N] [--arrival poisson|bursty|diurnal] \
        [--scheduler fifo|priority|batching] [--watch] [--flight] [--json <path>]",
    parse: |args| {
        let mut json_path: Option<String> = None;
        let mut tenant_count = 2usize;
        // Harness default, then env overrides (HCC_CHAOS_*), then flags.
        let mut cfg = ChaosConfig::default().from_env()?;
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--requests" => cfg.requests = args.at_most(&flag, arrival::MAX_REQUESTS)?.max(1),
                "--days" => cfg.days = args.u64(&flag)?.clamp(1, 3650),
                "--seed" => cfg.seed = args.u64(&flag)?,
                "--gpus" => cfg.gpus = args.at_most(&flag, cluster::MAX_GPUS)?.max(1) as usize,
                "--tenants" => tenant_count = args.u64(&flag)?.max(1) as usize,
                "--replicas" => cfg.replicas = args.u64(&flag)?.clamp(1, 16) as u32,
                "--episodes-per-day" => {
                    cfg.episodes_per_day = args.u64(&flag)?.clamp(1, 1440) as u32;
                }
                "--profiles" => {
                    cfg.profiles = list(&args.value(&flag)?, StormProfile::builtin, |name| {
                        cli::storm_profile(&flag, name, ", or all")
                    })?;
                }
                "--policies" => {
                    let all = || ChaosConfig::default().policies;
                    cfg.policies = list(&args.value(&flag)?, all, |name| {
                        cli::lookup(
                            &flag,
                            "recovery policy",
                            "policies: retry, degrade, abort, or all",
                            name,
                            RecoveryPolicy::parse,
                        )
                    })?;
                }
                "--arrival" => cfg.arrival = args.arrival(&flag)?,
                "--scheduler" => {
                    cfg.scheduler = args.name(
                        &flag,
                        "scheduler",
                        "expected fifo|priority|batching",
                        SchedulerKind::parse,
                    )?;
                }
                "--watch" => cfg.watch = Some(WatchConfig::default().from_env()?),
                "--flight" => cfg.flight = Some(cli::flight_from_env()?),
                "--json" => json_path = Some(args.value(&flag)?),
                _ => return Err(CliError::Unknown { arg: flag }),
            }
        }
        Ok(Box::new(move |out, err| {
            cfg.tenants = default_tenants(tenant_count);
            cfg.budgets = default_budgets(&cfg.tenants);
            let engine = crate::engine::global();
            let wall = std::time::Instant::now();
            let report = run(&cfg, engine);
            let elapsed = wall.elapsed();

            out.write_all(report.render().as_bytes())?;

            if let Some(path) = json_path {
                let (pass, fail) = report.verdict_counts();
                let bench = [
                    (
                        "requests_per_sec",
                        cli::per_sec(report.total_requests(), elapsed),
                    ),
                    ("total_requests", report.total_requests()),
                    ("cells", report.cells().count() as u64),
                    ("verdict_pass", pass),
                    ("verdict_fail", fail),
                    ("wall_ms", elapsed.as_millis() as u64),
                ];
                cli::write_bench_json(&path, &bench, "report", &report)?;
            }

            let broken = (!report.healthy()).then(|| {
                let violation = report.first_violation();
                format!(
                    "leak or conservation violation: {}",
                    violation.unwrap_or("identity check failed")
                )
            });
            Ok(crate::report::soak_status(err, "chaos", broken.as_deref()))
        }))
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::cluster::Recovery;

    fn small() -> ChaosConfig {
        ChaosConfig {
            requests: 400,
            days: 2,
            gpus: 2,
            profiles: vec![StormProfile::bounce_squall()],
            replicas: 1,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn end_to_end_run_is_healthy_and_conserves() {
        let engine = ExperimentEngine::new(2);
        let rep = run(&small(), &engine);
        assert!(rep.healthy(), "{:?}", rep.first_violation());
        assert_eq!(rep.profiles.len(), 1);
        assert_eq!(rep.profiles[0].cells.len(), 3);
        assert_eq!(rep.total_requests(), 3 * 400);
        // Identical storm, identical trace: the abort cell rejects at
        // least as many requests as the retry cell.
        let retry = &rep.profiles[0].cells[0];
        let abort = &rep.profiles[0].cells[2];
        assert!(abort.ledger.rejected >= retry.ledger.rejected);
    }

    #[test]
    fn storm_assignment_reacts_to_the_seed() {
        let engine = ExperimentEngine::new(2);
        let a = run(&small(), &engine);
        let reseeded = ChaosConfig {
            seed: DEFAULT_SEED + 1,
            ..small()
        };
        let b = run(&reseeded, &engine);
        assert_ne!(
            a.profiles[0].schedule_fingerprint,
            b.profiles[0].schedule_fingerprint
        );
        assert_ne!(a.render(), b.render());
    }

    #[test]
    fn json_export_round_trips() {
        use hcc_types::json::{Json, ToJson};
        let rep = run(&small(), &ExperimentEngine::new(2));
        let doc = Json::parse(&rep.to_json_string()).expect("chaos JSON parses");
        assert_eq!(
            doc.get("requests_per_cell").and_then(Json::as_u64),
            Some(400)
        );
        assert_eq!(doc.get("healthy"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("leak_free"), Some(&Json::Bool(true)));
        let Some(Json::Arr(profiles)) = doc.get("profiles") else {
            panic!("profiles missing");
        };
        assert_eq!(profiles.len(), 1);
    }

    #[test]
    fn time_to_recover_reads_gauge_changepoints() {
        // The queue's end-of-instant depths: 3 at 10, 0 at 50, 2 at 80,
        // 0 at 120, each held until the next instant.
        let t = SimTime::from_nanos;
        let peaks = [
            t(20),  // backlog 3, drains at 50 → ttr 30
            t(60),  // already drained → ttr 0
            t(100), // backlog 2, drains at 120 → ttr 20
        ];
        let mut cursor = Recovery::new(&peaks);
        cursor.settle(t(0), 0, Some(t(10)));
        cursor.settle(t(10), 3, Some(t(50)));
        cursor.settle(t(50), 0, Some(t(80)));
        cursor.settle(t(80), 2, Some(t(120)));
        cursor.settle(t(120), 0, None);
        let ttr = cursor.finish();
        assert_eq!(ttr.peaks, 3);
        assert_eq!(ttr.drained, 3);
        assert_eq!(ttr.max, SimDuration::from_nanos(30));
        assert_eq!(ttr.mean, SimDuration::from_nanos(50 / 3));
    }
}
