//! The parallel, memoizing experiment engine.
//!
//! Every figure generator used to re-simulate its own (workload, mode,
//! seed) combinations serially; the scorecard paid for the same
//! deterministic simulations many times over. [`ExperimentEngine`] accepts
//! [`Scenario`] requests, fans cache misses out across a `std::thread`
//! worker pool, and memoizes each distinct scenario (keyed by
//! [`Scenario::content_hash`]) so it is simulated **exactly once per
//! engine**. `hcc_lab` builds one engine per run
//! ([`crate::lab::Lab`]), so every batch of a subcommand shares it.
//!
//! Determinism is the contract: each scenario runs in its own fresh,
//! seed-deterministic `CudaContext`, so neither the worker count nor the
//! completion order can change a result — a parallel run produces
//! bit-identical figure rows to the old serial loops (asserted by
//! `tests/engine_parity.rs`, and by `crates/bench/tests/process_switches.rs`
//! on `hcc_lab` runs at 1 and 4 threads).
//!
//! ```
//! use hcc_bench::engine::ExperimentEngine;
//! use hcc_bench::figures;
//! use hcc_types::CcMode;
//!
//! let engine = ExperimentEngine::new(2);
//! let scn = figures::scenario("2mm", CcMode::On);
//! let first = engine.run(&scn);
//! let again = engine.run(&scn);
//! assert!(std::sync::Arc::ptr_eq(&first, &again)); // memoized
//! assert_eq!(engine.stats().cache_hits, 1);
//! ```

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use hcc_types::json::{JsonOut, ToJson};
use hcc_workloads::{runner, RunError, RunResult, Scenario};

/// Locks a mutex, recovering the guard if a previous holder panicked —
/// the engine's state (a memo cache and counters) is always internally
/// consistent at lock release, so a poisoned guard is still valid.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Environment variable selecting the worker-pool width of a run's
/// engine (`HCC_ENGINE_THREADS=1` forces serial execution).
pub const THREADS_ENV: &str = "HCC_ENGINE_THREADS";

/// Environment variable naming a file that [`emit_stats`] fills with the
/// end-of-run [`EngineStats`] as machine-readable JSON.
pub const STATS_JSON_ENV: &str = "HCC_ENGINE_STATS_JSON";

/// The memoized outcome of one scenario simulation.
#[derive(Debug)]
pub struct ScenarioResult {
    /// Human-readable scenario label.
    pub label: String,
    /// The scenario's content hash — the key this entry is cached under.
    pub hash: u64,
    /// Wall-clock time the simulation took on its worker.
    pub wall: Duration,
    /// The simulation outcome. Errors are memoized too: a deterministic
    /// failure would fail identically on every re-run.
    pub result: Result<RunResult, RunError>,
}

impl ScenarioResult {
    /// The successful run, panicking with the scenario label otherwise.
    pub fn expect_run(&self) -> &RunResult {
        match &self.result {
            Ok(r) => r,
            Err(e) => panic!("scenario {} failed: {e}", self.label),
        }
    }

    /// The successful run, or a structured failure naming the scenario —
    /// what figure generators render as a per-row failure line instead of
    /// aborting the whole report.
    pub fn run(&self) -> Result<&RunResult, ScenarioFailure> {
        match &self.result {
            Ok(r) => Ok(r),
            Err(e) => Err(ScenarioFailure {
                label: self.label.clone(),
                error: e.to_string(),
            }),
        }
    }
}

/// A failed scenario as reports surface it: which row failed, and the
/// rendering of its typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioFailure {
    /// The failing scenario's label.
    pub label: String,
    /// Rendering of the underlying [`RunError`].
    pub error: String,
}

impl std::fmt::Display for ScenarioFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.label, self.error)
    }
}

/// Aggregate engine counters, exposed in the `summary` stats block.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Worker-pool width.
    pub threads: usize,
    /// Distinct scenarios actually simulated.
    pub scenarios_run: u64,
    /// Requests served from the cache (including duplicates within a
    /// single batch).
    pub cache_hits: u64,
    /// Serial-equivalent simulation time: the sum of every per-scenario
    /// wall time, i.e. what a serial loop would have paid.
    pub sim_wall: Duration,
    /// Wall-clock time spent inside engine batches.
    pub elapsed: Duration,
    /// Per-scenario (label, wall time), in completion-insertion order.
    pub per_scenario: Vec<(String, Duration)>,
    /// Faults injected across all successful runs (from their traces).
    pub faults_injected: u64,
    /// Retry attempts those faults cost.
    pub fault_retries: u64,
    /// Faults the data path recovered from (every injection on a run that
    /// still completed).
    pub recoveries: u64,
    /// Scenarios that ended in an error or a caught panic.
    pub failed_scenarios: u64,
    /// Time spent in the memo-cache lookup section — the latency a
    /// cache hit actually pays before its memoized result comes back.
    pub cache_service: Duration,
    /// Time spent computing the batches' [`Scenario::content_hash`] keys,
    /// which every request pays, hit or miss.
    pub hash_wall: Duration,
    /// Pool idle time: `batch_elapsed x workers - busy` summed over the
    /// parallel batches, i.e. capacity the queue tail left unused.
    pub worker_idle: Duration,
}

impl EngineStats {
    /// Mean worker utilization across batches: busy time over
    /// `elapsed x threads`, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let denom = self.elapsed.as_secs_f64() * self.threads as f64;
        if denom <= 0.0 {
            return 0.0;
        }
        (self.sim_wall.as_secs_f64() / denom).min(1.0)
    }

    /// Parallel speedup over the serial-equivalent baseline.
    pub fn speedup(&self) -> f64 {
        let elapsed = self.elapsed.as_secs_f64();
        if elapsed <= 0.0 {
            return 1.0;
        }
        self.sim_wall.as_secs_f64() / elapsed
    }

    /// Multi-line stats block for reports. Wall-clock figures, so this is
    /// printed to stderr by the harnesses — stdout stays byte-identical
    /// across thread counts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== experiment engine ==\n");
        out.push_str(&format!("worker threads:        {}\n", self.threads));
        out.push_str(&format!("scenarios run:         {}\n", self.scenarios_run));
        out.push_str(&format!("cache hits: {}\n", self.cache_hits));
        out.push_str(&format!(
            "serial-equivalent sim: {:.3} s\n",
            self.sim_wall.as_secs_f64()
        ));
        // A speedup only means something when the batches mostly
        // simulated; for hit-dominated or empty batches it would read as
        // a bogus slowdown.
        let speedup = if self.scenarios_run > 0 && self.cache_hits <= self.scenarios_run {
            format!(" (x{:.2} vs serial baseline)", self.speedup())
        } else {
            String::new()
        };
        out.push_str(&format!(
            "engine wall clock:     {:.3} s{speedup}\n",
            self.elapsed.as_secs_f64()
        ));
        out.push_str(&format!(
            "content hash wall:     {:.3} s\n",
            self.hash_wall.as_secs_f64()
        ));
        out.push_str(&format!(
            "cache lookup wall:     {:.3} s\n",
            self.cache_service.as_secs_f64()
        ));
        out.push_str(&format!(
            "worker utilization:    {:.0}%\n",
            self.utilization() * 100.0
        ));
        if !self.worker_idle.is_zero() {
            out.push_str(&format!(
                "worker idle:           {:.3} s\n",
                self.worker_idle.as_secs_f64()
            ));
        }
        if self.faults_injected > 0 {
            out.push_str(&format!(
                "faults injected:       {} ({} retries, {} recovered)\n",
                self.faults_injected, self.fault_retries, self.recoveries
            ));
        }
        if self.failed_scenarios > 0 {
            out.push_str(&format!(
                "failed scenarios:      {}\n",
                self.failed_scenarios
            ));
        }
        let mut slowest: Vec<&(String, Duration)> = self.per_scenario.iter().collect();
        slowest.sort_by_key(|(_, w)| std::cmp::Reverse(*w));
        for (label, wall) in slowest.iter().take(5) {
            out.push_str(&format!(
                "  {:<28} {:>8.1} ms\n",
                label,
                wall.as_secs_f64() * 1e3
            ));
        }
        out
    }
}

impl ToJson for EngineStats {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        out.obj(|o| {
            o.field("threads", self.threads);
            o.field("scenarios_run", self.scenarios_run);
            o.field("cache_hits", self.cache_hits);
            o.field("failed_scenarios", self.failed_scenarios);
            o.field("faults_injected", self.faults_injected);
            o.field("fault_retries", self.fault_retries);
            o.field("recoveries", self.recoveries);
            o.field("sim_wall_ns", ns(self.sim_wall));
            o.field("elapsed_ns", ns(self.elapsed));
            o.field("worker_idle_ns", ns(self.worker_idle));
            o.field("hash_wall_ns", ns(self.hash_wall));
            o.field("cache_service_ns", ns(self.cache_service));
            o.key("per_scenario");
            o.arr(|o| {
                for (label, wall) in &self.per_scenario {
                    o.obj(|o| {
                        o.field("label", label);
                        o.field("wall_ns", ns(*wall));
                    });
                }
            });
        });
    }
}

/// Fans [`Scenario`] requests out across a worker pool and memoizes every
/// distinct result. Shared by reference (`&self`) — the cache and stats
/// are internally synchronized.
#[derive(Debug)]
pub struct ExperimentEngine {
    threads: usize,
    cache: Mutex<HashMap<u64, Arc<ScenarioResult>>>,
    stats: Mutex<EngineStats>,
}

impl ExperimentEngine {
    /// An engine with the given worker-pool width (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        ExperimentEngine {
            threads,
            cache: Mutex::new(HashMap::new()),
            stats: Mutex::new(EngineStats {
                threads,
                ..EngineStats::default()
            }),
        }
    }

    /// Worker-pool width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs (or recalls) a single scenario.
    pub fn run(&self, scenario: &Scenario) -> Arc<ScenarioResult> {
        self.run_all(std::slice::from_ref(scenario))
            .pop()
            .expect("one request yields one result")
    }

    /// Runs a batch: results come back in request order, each distinct
    /// scenario simulated at most once ever (per engine), misses fanned
    /// out across the worker pool.
    pub fn run_all(&self, scenarios: &[Scenario]) -> Vec<Arc<ScenarioResult>> {
        let batch_start = Instant::now();
        let hashes: Vec<u64> = scenarios.iter().map(Scenario::content_hash).collect();
        let hash_wall = batch_start.elapsed();

        // Collect the distinct cache misses, preserving first-seen order so
        // the work queue (and thus the stats listing) is deterministic.
        let lookup_start = Instant::now();
        let mut pending: Vec<(u64, &Scenario)> = Vec::new();
        {
            let cache = relock(&self.cache);
            let mut seen = HashSet::new();
            for (hash, scenario) in hashes.iter().zip(scenarios) {
                if !cache.contains_key(hash) && seen.insert(*hash) {
                    pending.push((*hash, scenario));
                }
            }
        }
        let lookup = lookup_start.elapsed();

        let exec_start = Instant::now();
        let fresh = self.execute(&pending);
        let exec_elapsed = exec_start.elapsed();

        {
            let mut cache = relock(&self.cache);
            for entry in &fresh {
                cache.insert(entry.hash, Arc::clone(entry));
            }
        }
        {
            let mut stats = relock(&self.stats);
            stats.scenarios_run += fresh.len() as u64;
            stats.cache_hits += (scenarios.len() - fresh.len()) as u64;
            stats.elapsed += batch_start.elapsed();
            stats.hash_wall += hash_wall;
            stats.cache_service += lookup;
            // Idle capacity: the pool's tail latency. Only meaningful
            // when work actually fanned out.
            let workers = self.threads.min(fresh.len());
            if workers > 1 {
                let busy: Duration = fresh.iter().map(|e| e.wall).sum();
                stats.worker_idle += (exec_elapsed * workers as u32).saturating_sub(busy);
            }
            for entry in &fresh {
                stats.sim_wall += entry.wall;
                stats.per_scenario.push((entry.label.clone(), entry.wall));
                match &entry.result {
                    Ok(run) => {
                        let mm = run.timeline.mem_metrics();
                        stats.faults_injected += mm.faults_injected;
                        stats.fault_retries += mm.fault_retries;
                        // The run completed, so every injection on it was
                        // recovered (by retry or degrade).
                        stats.recoveries += mm.faults_injected;
                    }
                    Err(_) => stats.failed_scenarios += 1,
                }
            }
        }

        let cache = relock(&self.cache);
        hashes
            .iter()
            .map(|h| Arc::clone(cache.get(h).expect("all requests resolved")))
            .collect()
    }

    /// Simulates the pending scenarios, on this thread when the batch (or
    /// the pool) is width 1, otherwise across a scoped worker pool pulling
    /// from a shared index queue.
    fn execute(&self, pending: &[(u64, &Scenario)]) -> Vec<Arc<ScenarioResult>> {
        if pending.is_empty() {
            return Vec::new();
        }
        let simulate = |hash: u64, scenario: &Scenario| {
            let started = Instant::now();
            // A panicking scenario must not take down the batch (or
            // poison the pool): catch the unwind and memoize it as a
            // structured failure like any other deterministic error.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                runner::run_scenario(scenario)
            }))
            .unwrap_or_else(|payload| {
                let message = payload
                    .downcast_ref::<&'static str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(RunError::Panicked { message })
            });
            Arc::new(ScenarioResult {
                label: scenario.label(),
                hash,
                wall: started.elapsed(),
                result,
            })
        };

        let workers = self.threads.min(pending.len());
        if workers <= 1 {
            return pending
                .iter()
                .map(|(hash, scenario)| simulate(*hash, scenario))
                .collect();
        }

        let slots: Vec<Mutex<Option<Arc<ScenarioResult>>>> =
            pending.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some((hash, scenario)) = pending.get(i) else {
                        break;
                    };
                    let entry = simulate(*hash, scenario);
                    *relock(&slots[i]) = Some(entry);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .expect("worker filled every slot")
            })
            .collect()
    }

    /// A snapshot of the engine counters.
    pub fn stats(&self) -> EngineStats {
        relock(&self.stats).clone()
    }
}

/// The single end-of-run stats emission point for the subcommands.
///
/// Renders `stats` into `err` with **one** write — under
/// `HCC_ENGINE_THREADS>1` per-line writes could interleave with worker
/// diagnostics mid-block — unless the engine served no lookup (a
/// subcommand that runs no scenario prints no block of zeros), and,
/// when `json` names a file ([`STATS_JSON_ENV`]), writes the same stats
/// there as JSON either way. Call it once, after the last engine batch.
/// Best effort: a write that fails is not reported.
pub(crate) fn emit_stats(stats: &EngineStats, err: &mut dyn Write, json: Option<&str>) {
    if stats.scenarios_run + stats.cache_hits > 0 {
        let block = format!("\n{}", stats.render());
        let _ = err.write_all(block.as_bytes());
        let _ = err.flush();
    }
    if let Some(path) = json {
        if let Err(e) = std::fs::write(path, stats.to_json_string()) {
            let _ = writeln!(err, "cannot write {STATS_JSON_ENV}={path}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_runtime::SimConfig;
    use hcc_types::{ByteSize, CcMode, HostMemKind, SimDuration};
    use hcc_workloads::{Op, WorkloadSpec};

    fn toy(seed: u64) -> Scenario {
        let spec = WorkloadSpec::micro(
            "engine-toy",
            vec![
                Op::MallocHost {
                    slot: 0,
                    size: ByteSize::mib(1),
                    kind: HostMemKind::Pageable,
                },
                Op::MallocDevice {
                    slot: 0,
                    size: ByteSize::mib(1),
                },
                Op::H2D {
                    dst: 0,
                    src: 0,
                    bytes: ByteSize::mib(1),
                },
                Op::Launch {
                    kernel: 0,
                    ket: SimDuration::micros(50),
                    managed: vec![],
                    repeat: 4,
                },
            ],
        );
        Scenario::adhoc(spec, SimConfig::new(CcMode::On).with_seed(seed))
    }

    #[test]
    fn an_engine_that_served_no_lookup_prints_no_stats_block() {
        let mut err = Vec::new();
        emit_stats(&EngineStats::default(), &mut err, None);
        assert!(err.is_empty(), "{}", String::from_utf8_lossy(&err));
        for (scenarios_run, cache_hits) in [(1, 0), (0, 1)] {
            let stats = EngineStats {
                scenarios_run,
                cache_hits,
                ..EngineStats::default()
            };
            let mut err = Vec::new();
            emit_stats(&stats, &mut err, None);
            assert_eq!(
                String::from_utf8(err).unwrap(),
                format!("\n{}", stats.render())
            );
        }
    }

    #[test]
    fn an_idle_engine_still_writes_the_stats_json() {
        let path =
            std::env::temp_dir().join(format!("hcc-idle-engine-{}.json", std::process::id()));
        let path_str = path.to_str().expect("a UTF-8 temp path");
        let mut err = Vec::new();
        emit_stats(&EngineStats::default(), &mut err, Some(path_str));
        let written = std::fs::read_to_string(&path);
        let _ = std::fs::remove_file(&path);
        assert!(err.is_empty(), "{}", String::from_utf8_lossy(&err));
        assert_eq!(written.unwrap(), EngineStats::default().to_json_string());
    }

    #[test]
    fn memoizes_identical_scenarios() {
        let engine = ExperimentEngine::new(2);
        let first = engine.run(&toy(1));
        let again = engine.run(&toy(1));
        assert!(Arc::ptr_eq(&first, &again));
        let stats = engine.stats();
        assert_eq!(stats.scenarios_run, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.per_scenario.len(), 1);
    }

    #[test]
    fn batch_dedups_but_preserves_request_order() {
        let engine = ExperimentEngine::new(4);
        let batch = [toy(1), toy(2), toy(1), toy(3), toy(2)];
        let results = engine.run_all(&batch);
        assert_eq!(results.len(), 5);
        assert!(Arc::ptr_eq(&results[0], &results[2]));
        assert!(Arc::ptr_eq(&results[1], &results[4]));
        assert!(!Arc::ptr_eq(&results[0], &results[1]));
        for (scenario, result) in batch.iter().zip(&results) {
            assert_eq!(scenario.content_hash(), result.hash);
        }
        let stats = engine.stats();
        assert_eq!(stats.scenarios_run, 3);
        assert_eq!(stats.cache_hits, 2);
    }

    #[test]
    fn parallel_results_match_serial_results() {
        let serial = ExperimentEngine::new(1);
        let parallel = ExperimentEngine::new(4);
        let batch: Vec<Scenario> = (0..6).map(toy).collect();
        for (s, p) in serial.run_all(&batch).iter().zip(parallel.run_all(&batch)) {
            let s = s.expect_run();
            let p = p.expect_run();
            assert_eq!(s.timeline, p.timeline);
            assert_eq!(s.end, p.end);
        }
    }

    #[test]
    fn errors_are_memoized_not_retried() {
        let engine = ExperimentEngine::new(2);
        let bad = Scenario::standard("no-such-app", SimConfig::default());
        let first = engine.run(&bad);
        assert!(first.result.is_err());
        let again = engine.run(&bad);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(engine.stats().scenarios_run, 1);
    }

    #[test]
    #[should_panic(expected = "no-such-app")]
    fn expect_run_names_the_failing_scenario() {
        let engine = ExperimentEngine::new(1);
        let _ = engine
            .run(&Scenario::standard("no-such-app", SimConfig::default()))
            .expect_run();
    }

    fn crashing() -> Scenario {
        let spec = WorkloadSpec::micro(
            "engine-crash",
            vec![Op::Crash {
                message: "deliberate chaos-op panic",
            }],
        );
        Scenario::adhoc(spec, SimConfig::new(CcMode::Off))
    }

    #[test]
    fn panicking_scenario_is_contained_and_batch_completes() {
        let engine = ExperimentEngine::new(2);
        let batch = [toy(1), crashing(), toy(2)];
        let results = engine.run_all(&batch);
        assert!(results[0].result.is_ok());
        assert!(results[2].result.is_ok());
        match &results[1].result {
            Err(RunError::Panicked { message }) => {
                assert!(message.contains("deliberate chaos-op panic"), "{message}");
            }
            other => panic!("expected contained panic, got {other:?}"),
        }
        let failure = results[1].run().unwrap_err();
        assert!(failure.label.contains("engine-crash"), "{failure}");
        let stats = engine.stats();
        assert_eq!(stats.failed_scenarios, 1);
        assert!(stats.render().contains("failed scenarios:      1"));
        // The engine (and its locks) survive for the next batch.
        assert!(engine.run(&toy(3)).result.is_ok());
    }

    #[test]
    fn fault_counters_aggregate_from_run_traces() {
        use hcc_types::FaultPlan;
        let engine = ExperimentEngine::new(2);
        let spec = WorkloadSpec::micro(
            "engine-faulty",
            vec![
                Op::MallocHost {
                    slot: 0,
                    size: ByteSize::mib(2),
                    kind: HostMemKind::Pageable,
                },
                Op::MallocDevice {
                    slot: 0,
                    size: ByteSize::mib(2),
                },
                Op::H2D {
                    dst: 0,
                    src: 0,
                    bytes: ByteSize::mib(2),
                },
            ],
        );
        let cfg = SimConfig::new(CcMode::On)
            .with_fault_plan(FaultPlan::uniform(5, 1.0).with_max_per_site(1));
        let result = engine.run(&Scenario::adhoc(spec, cfg));
        assert!(result.result.is_ok());
        let stats = engine.stats();
        assert!(stats.faults_injected > 0);
        assert!(stats.fault_retries > 0);
        assert_eq!(stats.recoveries, stats.faults_injected);
        assert!(stats.render().contains("faults injected:"));
    }

    #[test]
    fn stats_render_mentions_cache_hits() {
        let engine = ExperimentEngine::new(2);
        let _ = engine.run(&toy(1));
        let block = engine.stats().render();
        assert!(block.contains("cache hits: 0"));
        assert!(block.contains("worker threads:        2"));
        assert!(block.contains("content hash wall:     "));
        assert!(block.contains("cache lookup wall:     "));
        assert!(block.contains("vs serial baseline"), "{block}");
        // Hit-dominated: no speedup claim.
        let _ = engine.run(&toy(1));
        let _ = engine.run(&toy(1));
        let block = engine.stats().render();
        assert!(block.contains("cache hits: 2"));
        assert!(!block.contains("vs serial baseline"), "{block}");
        // Nothing simulated: no speedup claim either.
        let idle = ExperimentEngine::new(1).stats().render();
        assert!(!idle.contains("vs serial baseline"), "{idle}");
    }

    #[test]
    fn stats_json_round_trips_through_the_parser() {
        use hcc_types::json::Json;
        let engine = ExperimentEngine::new(2);
        let _ = engine.run(&toy(1));
        let _ = engine.run(&toy(1));
        let stats = engine.stats();
        let doc = Json::parse(&stats.to_json_string()).expect("stats JSON parses");
        assert_eq!(doc.get("scenarios_run").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("cache_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("threads").and_then(Json::as_u64), Some(2));
        assert!(doc.get("sim_wall_ns").and_then(Json::as_u64).is_some());
        assert!(doc.get("hash_wall_ns").and_then(Json::as_u64).is_some());
        let Some(Json::Arr(rows)) = doc.get("per_scenario") else {
            panic!("per_scenario missing");
        };
        assert_eq!(rows.len(), 1);
        assert!(rows[0].get("label").is_some() && rows[0].get("wall_ns").is_some());
    }
}
