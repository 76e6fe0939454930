//! Multi-tenant confidential serving simulator (DESIGN.md §4, serving
//! layer).
//!
//! The figure harnesses answer "how much slower is one app under CC?";
//! this module answers the operator's question: *what does that overhead
//! do to a serving cluster's tail latency?* A seeded open-loop arrival
//! process ([`arrival`]) drives 10⁵–10⁶ virtual-time requests from
//! per-tenant app mixes into a pluggable scheduler ([`scheduler`]) over a
//! cluster of N simulated CC GPUs ([`cluster`]), each with its own
//! per-tenant TD sessions (`hcc_tee::SessionPool`). The same trace runs
//! CC-on and CC-off, so the report ([`report`]) shows exactly how the
//! paper's per-request overheads compound into p99/p999 queueing pain.
//!
//! Request *shapes* are resolved once: every request of a (tenant, class)
//! rides the same `Scenario`, so the [`ExperimentEngine`] simulates each
//! distinct shape once per mode and a [`ShapeTable`] ([`shapes`]) maps
//! the ~10⁵ requests onto those results by index — the request stream
//! never touches the engine, which is what keeps million-request sweeps
//! tractable.
//!
//! Everything is virtual-time deterministic: one seed fixes the arrival
//! trace, the scheduler decisions, and every latency in the report, and
//! the rendered text is byte-identical across `HCC_ENGINE_THREADS`.

pub mod arrival;
pub mod cluster;
pub mod observe;
pub mod report;
pub mod scheduler;
pub mod shapes;

use std::sync::Arc;

use hcc_runtime::SimConfig;
use hcc_types::calib::TdxCalib;
use hcc_types::{CcMode, FaultPlan, Planes, RecoveryPolicy, SimTime};
use hcc_workloads::{default_tenants, Scenario, TenantSpec};

use crate::cli::{self, CliError, Env};
use crate::engine::ExperimentEngine;
use crate::lab::Command;
use crate::watch::WatchConfig;

pub use arrival::{ArrivalKind, ArrivalProcess, Request};
pub use report::{ModeRun, SchedulerRun, ServingReport, TenantStats};
pub use scheduler::SchedulerKind;
pub(crate) use shapes::distinct_apps;
pub use shapes::{Shape, ShapeTable};

/// Environment variable overriding the arrival-stream seed.
pub const SEED_ENV: &str = "HCC_SERVE_SEED";

/// Environment variable overriding the request count.
pub const REQUESTS_ENV: &str = "HCC_SERVE_REQUESTS";

/// Default arrival seed (distinct from the shape seed so the two streams
/// never alias).
pub const DEFAULT_SEED: u64 = 0xCC_5E21;

/// Default seed baked into every shape scenario's `SimConfig`.
pub const DEFAULT_SHAPE_SEED: u64 = 0x5E21_2026;

/// Full configuration of one serving experiment.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Arrival-stream seed.
    pub seed: u64,
    /// Total requests across all tenants, at most
    /// [`arrival::MAX_REQUESTS`]. Zero yields an empty report whose runs
    /// settle nothing (conserved vacuously).
    pub requests: u64,
    /// Cluster width, at most [`cluster::MAX_GPUS`].
    pub gpus: usize,
    /// Tenant population.
    pub tenants: Vec<TenantSpec>,
    /// Arrival process.
    pub arrival: ArrivalKind,
    /// Schedulers to run (each sees the identical trace).
    pub schedulers: Vec<SchedulerKind>,
    /// Offered load as a fraction of CC-off cluster capacity: per-tenant
    /// rates are sized so the CC-off run sits near this utilization (the
    /// CC-on run then shows what the overhead does at the *same* load).
    pub target_util: f64,
    /// Continuous-batching cap, at most [`cluster::MAX_BATCH`].
    pub max_batch: usize,
    /// Seed baked into every shape scenario's config.
    pub shape_seed: u64,
    /// Optional fault plan applied to every shape scenario.
    pub fault: Option<FaultPlan>,
    /// Recovery policy accompanying `fault`.
    pub recovery: Option<RecoveryPolicy>,
    /// TDX calibration for the per-device session pools.
    pub tdx: TdxCalib,
    /// SLO watchtower: when set, the CC-on run of every scheduler is
    /// rolled into a windowed burn-rate/incident timeline the report
    /// carries. `None` (the default) builds no rollups.
    pub watch: Option<crate::watch::WatchConfig>,
    /// Request flight recorder: when set, the CC-on run of every
    /// scheduler samples per-request span trees (tail exemplars plus a
    /// seeded uniform reservoir per tumbling window) and the report
    /// carries the resolved [`hcc_trace::FlightLog`]. `None` (the
    /// default) builds no flight log, and the rendered report is
    /// byte-identical either way.
    pub flight: Option<hcc_trace::FlightConfig>,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            seed: DEFAULT_SEED,
            requests: 10_000,
            gpus: 4,
            tenants: default_tenants(2),
            arrival: ArrivalKind::Poisson,
            schedulers: SchedulerKind::ALL.to_vec(),
            target_util: 0.3,
            max_batch: 8,
            shape_seed: DEFAULT_SHAPE_SEED,
            fault: None,
            recovery: None,
            tdx: TdxCalib::default(),
            watch: None,
            flight: None,
        }
    }
}

impl ServingConfig {
    /// Applies `env`'s [`SEED_ENV`] and [`REQUESTS_ENV`] overrides; a
    /// value that is not an integer, or a request count above
    /// [`arrival::MAX_REQUESTS`], is refused.
    pub fn from_env(mut self, env: &Env) -> Result<Self, CliError> {
        if let Some(seed) = env.u64(SEED_ENV)? {
            self.seed = seed;
        }
        if let Some(n) = env.at_most(REQUESTS_ENV, arrival::MAX_REQUESTS)? {
            self.requests = n.max(1);
        }
        Ok(self)
    }

    /// The cluster a `kind` cell drains through in `cc` mode.
    #[must_use]
    pub fn cluster(&self, kind: SchedulerKind, cc: CcMode) -> cluster::ClusterConfig<'_> {
        cluster::ClusterConfig {
            tenants: &self.tenants,
            cc,
            gpus: self.gpus,
            kind,
            max_batch: self.max_batch,
            tdx: &self.tdx,
            peak_ends: None,
            queue_window: None,
            planes: Planes::NONE,
        }
    }

    /// The `SimConfig` every shape scenario runs under in `cc` mode.
    pub fn shape_cfg(&self, cc: CcMode) -> SimConfig {
        let mut cfg = SimConfig::new(cc).with_seed(self.shape_seed);
        if let Some(plan) = &self.fault {
            cfg = cfg.with_fault_plan(plan.clone());
        }
        if let Some(policy) = &self.recovery {
            cfg = cfg.with_recovery(policy.clone());
        }
        cfg
    }
}

/// Generates the serving trace and resolves its shape tables, one per
/// CC mode in [`CcMode::ALL`] order: every distinct (app, mode) shape
/// simulates once, in one engine batch, and every request maps to its
/// app's shape. Only the CC-on table is analysed for the watch and
/// flight planes (they observe the CC-on runs).
pub fn shape_tables(
    cfg: &ServingConfig,
    engine: &ExperimentEngine,
) -> (Vec<Request>, [ShapeTable; 2]) {
    let (apps, slot) = distinct_apps(&cfg.tenants);
    let n = apps.len();
    let prefetch: Vec<Scenario> = CcMode::ALL
        .iter()
        .flat_map(|&cc| {
            apps.iter()
                .map(move |&app| Scenario::standard(app, cfg.shape_cfg(cc)))
        })
        .collect();
    let prefetched = engine.run_all(&prefetch);

    // Offered load: size per-tenant rates off the CC-off mean service so
    // the baseline cluster sits near `target_util`.
    let weight_sum: u64 = cfg.tenants.iter().map(|t| u64::from(t.load_weight)).sum();
    let rates: Vec<f64> = cfg
        .tenants
        .iter()
        .enumerate()
        .map(|(ti, tenant)| {
            let mut weighted_ns = 0.0f64;
            let mut weight = 0.0f64;
            for (ci, class) in tenant.mix.iter().enumerate() {
                if let Ok(r) = &prefetched[slot[ti][ci] as usize].result {
                    weighted_ns += r.end.as_nanos() as f64 * f64::from(class.weight);
                    weight += f64::from(class.weight);
                }
            }
            let mean_secs = if weight > 0.0 {
                weighted_ns / weight / 1e9
            } else {
                1e-3 // every shape failed: nominal 1 ms placeholder
            };
            let share = f64::from(tenant.load_weight) / weight_sum as f64;
            cfg.target_util * cfg.gpus as f64 * share / mean_secs
        })
        .collect();

    let requests = arrival::generate(&cfg.tenants, &rates, cfg.arrival, cfg.requests, cfg.seed);
    let shape_of: Arc<[u32]> = requests
        .iter()
        .map(|r| slot[r.tenant as usize][r.class as usize])
        .collect();
    let observed = cfg.watch.is_some() || cfg.flight.is_some();
    let tables = [
        ShapeTable::new(&prefetched[..n], Arc::clone(&shape_of), false),
        ShapeTable::new(&prefetched[n..], shape_of, observed),
    ];
    (requests, tables)
}

/// Runs the full serving experiment: generates the trace, resolves its
/// shape tables (both modes), and drains the identical trace through
/// each configured scheduler CC-off and CC-on.
pub fn run(cfg: &ServingConfig, engine: &ExperimentEngine) -> ServingReport {
    assert!(!cfg.tenants.is_empty(), "serving needs at least one tenant");
    assert!(
        !cfg.schedulers.is_empty(),
        "serving needs at least one scheduler"
    );
    let (requests, tables) = shape_tables(cfg, engine);

    // Watchtower inputs shared by every scheduler: tenant labels and the
    // chaos lab's default budgets. Blame and flight decompositions read
    // the CC-on table (each request blames its app's critical path).
    let tenant_names: Vec<String> = cfg.tenants.iter().map(|t| t.name.to_string()).collect();
    let budgets = crate::chaos::default_budgets(&cfg.tenants);
    let soak = crate::watch::SoakContext {
        tenant_names: &tenant_names,
        budgets: &budgets,
        horizon: SimTime::ZERO,
        storm: None,
    };

    // The cells: every scheduler CC-off then CC-on, in report order,
    // each through the one cell step, lent the soak's one pair of sample
    // buffers. The observation planes view only the CC-on runs.
    let mut samples = cluster::Samples::new(&requests, cfg.tenants.len());
    let mut cells = cfg.schedulers.iter().flat_map(|&kind| {
        CcMode::ALL.map(|cc| {
            let on = cc.is_on();
            observe::cell(
                &requests,
                &tables[usize::from(on)],
                &cfg.cluster(kind, cc),
                cfg.watch.as_ref().filter(|_| on),
                cfg.flight.filter(|_| on),
                &soak,
                &mut samples,
            )
        })
    });
    let runs = cfg
        .schedulers
        .iter()
        .map(|&scheduler| {
            let (off, ..) = cells.next().expect("a CC-off cell per scheduler");
            let (on, watch, flight) = cells.next().expect("a CC-on cell per scheduler");
            SchedulerRun {
                scheduler,
                modes: [off, on],
                watch,
                flight,
            }
        })
        .collect();

    ServingReport {
        seed: cfg.seed,
        requests: cfg.requests,
        gpus: cfg.gpus,
        arrival: cfg.arrival,
        tenant_names,
        distinct_shapes: tables[1].shapes().len(),
        runs,
    }
}

/// `hcc_lab serve`: [`run`] over every configured scheduler, its report
/// on stdout and wall-clock throughput in the `--json` side file. Exit
/// status 1 means a run broke its latency identity, conservation,
/// session ledger or gauge drain; 2 a bad flag or `HCC_SERVE_*`
/// override, or a size past [`arrival::MAX_REQUESTS`],
/// [`cluster::MAX_GPUS`] or [`cluster::MAX_BATCH`].
pub const COMMAND: Command = Command {
    usage: "usage: hcc_lab serve [--requests N] [--gpus N] [--tenants N] [--seed S] \
        [--arrival poisson|bursty|diurnal] [--scheduler fifo|priority|batching|all] \
        [--util F] [--max-batch N] [--watch] [--flight] [--json <path>]",
    parse: |args, env| {
        let mut json_path: Option<String> = None;
        let mut tenant_count = 2usize;
        // Harness default, then env overrides (HCC_SERVE_*), then flags.
        let mut cfg = ServingConfig {
            requests: 100_000,
            ..ServingConfig::default()
        }
        .from_env(env)?;
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--requests" => cfg.requests = args.at_most(&flag, arrival::MAX_REQUESTS)?.max(1),
                "--gpus" => cfg.gpus = args.at_most(&flag, cluster::MAX_GPUS)?.max(1) as usize,
                "--tenants" => tenant_count = args.u64(&flag)?.max(1) as usize,
                "--seed" => cfg.seed = args.u64(&flag)?,
                "--max-batch" => {
                    cfg.max_batch = args.at_most(&flag, cluster::MAX_BATCH)?.max(1) as usize;
                }
                "--util" => cfg.target_util = args.fraction(&flag)?.clamp(0.05, 0.95),
                "--arrival" => cfg.arrival = args.arrival(&flag)?,
                "--scheduler" => {
                    cfg.schedulers = args.name(
                        &flag,
                        "scheduler",
                        "expected fifo|priority|batching|all",
                        |raw| match raw {
                            "all" => Some(SchedulerKind::ALL.to_vec()),
                            _ => SchedulerKind::parse(raw).map(|kind| vec![kind]),
                        },
                    )?;
                }
                "--watch" => cfg.watch = Some(WatchConfig::default().with_env(env)?),
                "--flight" => cfg.flight = Some(env.flight()?),
                "--json" => json_path = Some(args.value(&flag)?),
                _ => return Err(CliError::Unknown { arg: flag }),
            }
        }
        Ok(Box::new(move |lab, out, err| {
            cfg.tenants = default_tenants(tenant_count);
            let engine = &lab.engine;
            let wall = std::time::Instant::now();
            let report = run(&cfg, engine);
            let elapsed = wall.elapsed();

            out.write_all(report.render().as_bytes())?;

            if let Some(path) = json_path {
                let bench = [
                    ("requests_per_sec", cli::per_sec(cfg.requests, elapsed)),
                    ("shapes_simulated", engine.stats().scenarios_run),
                    ("wall_ms", elapsed.as_millis() as u64),
                ];
                cli::write_bench_json(&path, &bench, "report", &report, engine)?;
            }

            let broken = (!report.healthy()).then_some("a run violated a structural invariant");
            Ok(crate::report::soak_status(lab, err, "serve", broken))
        }))
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ServingConfig {
        ServingConfig {
            requests: 200,
            gpus: 2,
            ..ServingConfig::default()
        }
    }

    #[test]
    fn end_to_end_run_conserves_and_orders_modes() {
        let engine = ExperimentEngine::new(2);
        let rep = run(&small(), &engine);
        assert!(rep.healthy());
        assert!(rep.slo_holds());
        assert_eq!(rep.runs.len(), 3);
        for r in &rep.runs {
            assert!(r.on().busy > r.off().busy, "{}", r.scheduler);
            assert!(r.on().cold_starts > 0);
            assert_eq!(r.off().cold_starts, 0);
        }
        let text = rep.render();
        assert!(text.contains("=== scheduler: fifo ==="));
        assert!(text.contains("=== scheduler: batching ==="));
        assert!(text.contains("slo cc-on p99 > cc-off p99"));
    }

    #[test]
    fn each_shape_resolves_once_with_no_request_lookups() {
        let engine = ExperimentEngine::new(2);
        let rep = run(&small(), &engine);
        let stats = engine.stats();
        // 2 modes x distinct apps simulate; the request stream indexes
        // the shape table and never asks the engine.
        assert_eq!(stats.scenarios_run, 2 * rep.distinct_shapes as u64);
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn json_export_round_trips() {
        use hcc_types::json::{Json, ToJson};
        let rep = run(&small(), &ExperimentEngine::new(2));
        let doc = Json::parse(&rep.to_json_string()).expect("report JSON parses");
        assert_eq!(doc.get("requests").and_then(Json::as_u64), Some(200));
        assert_eq!(doc.get("conserved"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("slo_holds"), Some(&Json::Bool(true)));
        let Some(Json::Arr(scheds)) = doc.get("schedulers") else {
            panic!("schedulers missing");
        };
        assert_eq!(scheds.len(), 3);
    }

    #[test]
    fn env_overrides_parse_both_radices() {
        let env: Env = [
            (SEED_ENV, "123"),
            (REQUESTS_ENV, "0xff"),
            ("HCC_SERVE_TEST_BAD", "2O00"),
        ]
        .into_iter()
        .collect();
        assert_eq!(env.u64("HCC_NO_SUCH_VAR_EVER"), Ok(None));
        let cfg = ServingConfig::default().from_env(&env).unwrap();
        assert_eq!((cfg.seed, cfg.requests), (123, 255));
        assert_eq!(
            env.u64("HCC_SERVE_TEST_BAD").unwrap_err().to_string(),
            "HCC_SERVE_TEST_BAD: cannot parse \"2O00\" as an integer"
        );
    }
}
