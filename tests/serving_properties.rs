//! Property-based contracts over the multi-tenant serving simulator:
//! the determinism and conservation invariants the serving tentpole
//! (DESIGN.md §4) promises, checked with the in-repo `hcc-check`
//! harness. Every property pins its seed so CI failures replay
//! bit-for-bit (`HCC_CHECK_SEED=<seed>` overrides).

use hcc_bench::chaos::{self, ChaosConfig};
use hcc_bench::engine::{ExperimentEngine, ScenarioResult};
use hcc_bench::serving::{self, arrival, ArrivalKind, SchedulerKind, ServingConfig};
use hcc_check::strategy::{f64s, u64s};
use hcc_check::{ensure, ensure_eq, forall, Config};
use hcc_types::json::ToJson;
use hcc_types::rng::Xoshiro256;
use hcc_types::{CcMode, FaultPlan, RecoveryPolicy, SimDuration, SimTime, StormProfile};
use hcc_workloads::{default_tenants, Scenario};

/// Replaying a seed reproduces the arrival trace bit for bit — every
/// seq rank, tenant, class pick, and nanosecond — for every process
/// kind, while a perturbed seed yields a different trace.
#[test]
fn arrival_traces_replay_bit_for_bit_per_seed() {
    forall!(
        Config::new(0x5E21_0001).with_cases(16),
        (seed, kind_pick, r0, r1) in (
            u64s(0..u64::MAX),
            u64s(0..3),
            f64s(5.0..80.0),
            f64s(5.0..80.0)
        ) => {
            let kind = ArrivalKind::ALL[kind_pick as usize];
            let tenants = default_tenants(2);
            let a = arrival::generate(&tenants, &[r0, r1], kind, 400, seed);
            let b = arrival::generate(&tenants, &[r0, r1], kind, 400, seed);
            ensure_eq!(a.len(), 400);
            ensure!(a == b, "{kind}: replay diverged under seed {seed:#x}");
            let c = arrival::generate(
                &tenants,
                &[r0, r1],
                kind,
                400,
                seed ^ 0x9E37_79B9_7F4A_7C15,
            );
            ensure!(a != c, "{kind}: trace ignored the seed");
        }
    );
}

/// The Poisson process hits its configured rate: over 5000 draws the
/// mean inter-arrival gap lands within 8% of `1/rate` (the sample mean
/// of n exponentials has relative sd `1/sqrt(n)` ≈ 1.4%, so this bound
/// is ~5σ — and the pinned seed makes the test deterministic anyway).
#[test]
fn poisson_inter_arrival_mean_tracks_the_rate() {
    forall!(
        Config::new(0x5E21_0002).with_cases(12),
        (seed, rate) in (u64s(0..u64::MAX), f64s(2.0..200.0)) => {
            let mut proc = arrival::ArrivalProcess::new(
                ArrivalKind::Poisson,
                rate,
                Xoshiro256::seed_from_u64(seed),
            );
            let n = 5000u64;
            let mut last = SimTime::ZERO;
            for _ in 0..n {
                last = proc.next_arrival();
            }
            let mean_gap = last.as_secs_f64() / n as f64;
            let expected = 1.0 / rate;
            ensure!(
                (mean_gap - expected).abs() / expected < 0.08,
                "rate {rate:.2}: mean inter-arrival {mean_gap:.6} vs expected {expected:.6}"
            );
        }
    );
}

/// Conservation under fault injection: whatever the fault plan does to
/// the request shapes (deterministic failures become rejections), every
/// admitted request settles exactly once — completed or rejected, none
/// lost, under every scheduler in both modes.
#[test]
fn conservation_survives_fault_driven_rejections() {
    let engine = ExperimentEngine::new(2);
    forall!(
        Config::new(0x5E21_0003).with_cases(6),
        (plan_seed, rate, kind_pick, gpus) in (
            u64s(0..u64::MAX),
            f64s(0.1..0.9),
            u64s(0..3),
            u64s(1..4)
        ) => {
            let cfg = ServingConfig {
                requests: 160,
                gpus: gpus as usize,
                arrival: ArrivalKind::ALL[kind_pick as usize],
                fault: Some(FaultPlan::uniform(plan_seed, rate)),
                recovery: Some(RecoveryPolicy::Abort),
                ..ServingConfig::default()
            };
            let rep = serving::run(&cfg, &engine);
            ensure!(rep.conserved(), "conservation broke under plan {plan_seed:#x}");
            for run in &rep.runs {
                for mode in &run.modes {
                    ensure_eq!(mode.completed() + mode.rejected(), 160);
                }
            }
        }
    );
}

/// With an aggressive abort-on-fault plan the CC path actually sheds
/// load — rejections are exercised, not just vacuously conserved — and
/// the report still renders with both trailer invariants intact.
#[test]
fn aggressive_fault_plans_reject_without_losing_requests() {
    let engine = ExperimentEngine::new(2);
    let cfg = ServingConfig {
        requests: 300,
        gpus: 2,
        fault: Some(FaultPlan::uniform(0xFA_17, 0.95)),
        recovery: Some(RecoveryPolicy::Abort),
        ..ServingConfig::default()
    };
    let rep = serving::run(&cfg, &engine);
    assert!(rep.conserved());
    let rejected: u64 = rep
        .runs
        .iter()
        .flat_map(|r| r.modes.iter())
        .map(|m| m.rejected())
        .sum();
    assert!(rejected > 0, "a 95% fault rate must reject something");
    let text = rep.render();
    assert!(text.contains("conservation: admitted == completed + rejected (all runs): true"));
}

/// Engine worker-pool width is invisible in the serving report: a
/// 1-thread and a 4-thread engine produce byte-identical text and JSON
/// for the full multi-scheduler run.
#[test]
fn serving_report_is_invariant_to_engine_thread_count() {
    let cfg = ServingConfig {
        requests: 1_500,
        gpus: 3,
        schedulers: SchedulerKind::ALL.to_vec(),
        ..ServingConfig::default()
    };
    let narrow = serving::run(&cfg, &ExperimentEngine::new(1));
    let wide = serving::run(&cfg, &ExperimentEngine::new(4));
    assert_eq!(
        narrow.render(),
        wide.render(),
        "report text must not depend on HCC_ENGINE_THREADS"
    );
    assert_eq!(narrow.to_json_string(), wide.to_json_string());
}

/// The slow path the shape table replaced: one engine resolution per
/// request, read exactly as the per-request stream used to read it.
fn oracle_service(slow: &ScenarioResult) -> Result<SimDuration, String> {
    match slow.run() {
        Ok(r) => Ok(SimDuration::from_nanos(r.end.as_nanos())),
        Err(f) => Err(f.error),
    }
}

/// Oracle: over random small serving soaks (tenant counts, arrival
/// processes, cluster widths, fault plans, every scheduler), both CC
/// modes' shape tables resolve every request to exactly the scenario and
/// service result an independent per-request `engine.run` produces, and
/// every scheduler completes precisely the requests whose oracle service
/// succeeded, charging exactly their oracle shape time.
#[test]
fn serving_shape_tables_match_the_per_request_oracle() {
    let engine = ExperimentEngine::new(2);
    forall!(
        Config::new(0x5E21_0012).with_cases(8),
        ((seed, requests), (tenants, gpus), (sched_pick, kind_pick), rate) in (
            (u64s(0..u64::MAX), u64s(1..120)),
            (u64s(1..4), u64s(1..4)),
            (u64s(0..4), u64s(0..3)),
            f64s(0.0..0.9)
        ) => {
            let cfg = ServingConfig {
                seed,
                requests,
                gpus: gpus as usize,
                tenants: default_tenants(tenants as usize),
                arrival: ArrivalKind::ALL[kind_pick as usize],
                schedulers: SchedulerKind::ALL
                    .get(sched_pick as usize)
                    .map_or(SchedulerKind::ALL.to_vec(), |&k| vec![k]),
                fault: (rate > 0.3).then(|| FaultPlan::uniform(seed, rate)),
                recovery: (rate > 0.3).then_some(RecoveryPolicy::Abort),
                ..ServingConfig::default()
            };
            let (reqs, tables) = serving::shape_tables(&cfg, &engine);
            ensure_eq!(reqs.len() as u64, requests);
            let mut oracle: Vec<Vec<Result<SimDuration, String>>> = Vec::new();
            for (&cc, table) in CcMode::ALL.iter().zip(&tables) {
                ensure_eq!(table.shape_of().len(), reqs.len());
                let mut mode = Vec::with_capacity(reqs.len());
                for (ri, r) in reqs.iter().enumerate() {
                    let si = table.shape_of()[ri] as usize;
                    ensure!(si < table.shapes().len(), "{cc}: request {ri} maps out of bounds");
                    let app = cfg.tenants[r.tenant].mix[r.class].app;
                    let slow = engine.run(&Scenario::standard(app, cfg.shape_cfg(cc)));
                    ensure_eq!(table.shapes()[si].hash, slow.hash);
                    let service = oracle_service(&slow);
                    ensure_eq!(table.service(ri), &service);
                    mode.push(service);
                }
                oracle.push(mode);
            }
            let rep = serving::run(&cfg, &engine);
            ensure!(rep.conserved());
            for run in &rep.runs {
                for (mode, services) in run.modes.iter().zip(&oracle) {
                    for (t, stats) in mode.tenants.iter().enumerate() {
                        let ok: Vec<SimDuration> = reqs
                            .iter()
                            .zip(services)
                            .filter(|(r, _)| r.tenant == t)
                            .filter_map(|(_, s)| s.as_ref().ok().copied())
                            .collect();
                        ensure_eq!(stats.completed, ok.len() as u64);
                        ensure_eq!(stats.shape_total, ok.iter().copied().sum::<SimDuration>());
                    }
                }
            }
        }
    );
}

/// Oracle: over random small chaos soaks (storm profile, replicas,
/// horizon, cluster width, scheduler), every cell's shape table resolves
/// each request to exactly the scenario an independent per-request
/// `engine.run` picks from the storm intensity at its arrival and its
/// plan replica, with the same service result.
#[test]
fn chaos_shape_tables_match_the_per_request_oracle() {
    let engine = ExperimentEngine::new(2);
    let builtin = StormProfile::builtin();
    forall!(
        Config::new(0x5E21_0013).with_cases(6),
        ((seed, requests), (profile_pick, replicas), (days, gpus), sched_pick) in (
            (u64s(0..u64::MAX), u64s(1..150)),
            (u64s(0..builtin.len() as u64), u64s(1..3)),
            (u64s(1..3), u64s(1..3)),
            u64s(0..3)
        ) => {
            let cfg = ChaosConfig {
                seed,
                requests,
                days,
                gpus: gpus as usize,
                profiles: vec![builtin[profile_pick as usize].clone()],
                replicas: replicas as u32,
                scheduler: SchedulerKind::ALL[sched_pick as usize],
                ..ChaosConfig::default()
            };
            let (reqs, storms) = chaos::shape_tables(&cfg, &engine);
            ensure_eq!(storms.len(), cfg.profiles.len());
            for (profile, storm) in cfg.profiles.iter().zip(&storms) {
                let schedule = cfg.schedule(profile);
                ensure_eq!(storm.tables.len(), cfg.policies.len());
                for (policy, table) in cfg.policies.iter().zip(&storm.tables) {
                    ensure_eq!(table.shape_of().len(), reqs.len());
                    for (ri, r) in reqs.iter().enumerate() {
                        let si = table.shape_of()[ri] as usize;
                        ensure!(si < table.shapes().len(), "request {ri} maps out of bounds");
                        let app = cfg.tenants[r.tenant].mix[r.class].app;
                        let replica = (r.seq % u64::from(cfg.replicas)) as u32;
                        let intensity = schedule.intensity_at(r.arrival);
                        let shape_cfg = cfg.shape_cfg(profile, policy, intensity, replica);
                        let slow = engine.run(&Scenario::standard(app, shape_cfg));
                        ensure_eq!(table.shapes()[si].hash, slow.hash);
                        ensure_eq!(table.service(ri), &oracle_service(&slow));
                    }
                }
            }
            ensure!(chaos::run(&cfg, &engine).conserved());
        }
    );
}

fn serving_with(requests: u64, gpus: usize) -> ServingConfig {
    ServingConfig {
        requests,
        gpus,
        watch: Some(hcc_bench::watch::WatchConfig::default()),
        flight: Some(hcc_trace::FlightConfig::default()),
        ..ServingConfig::default()
    }
}

fn chaos_with(requests: u64, gpus: usize) -> ChaosConfig {
    ChaosConfig {
        requests,
        days: 1,
        gpus,
        profiles: vec![StormProfile::bounce_squall()],
        replicas: 1,
        watch: Some(hcc_bench::watch::WatchConfig::default()),
        flight: Some(hcc_trace::FlightConfig::default()),
        ..ChaosConfig::default()
    }
}

/// Degenerate widths and lengths: a single GPU, a single request, and
/// an empty trace all run both table-backed soaks to a conserved,
/// healthy report. Zero requests is defined as an empty report — every
/// run settles nothing, conservation holds vacuously, and nothing
/// panics.
#[test]
fn degenerate_soaks_conserve() {
    let engine = ExperimentEngine::new(2);
    for (requests, gpus) in [(400, 1), (1, 4), (1, 1), (0, 2)] {
        let rep = serving::run(&serving_with(requests, gpus), &engine);
        assert!(rep.conserved(), "serving {requests} req / {gpus} gpu");
        assert!(rep.render().contains("(all runs): true"));
        for run in &rep.runs {
            for mode in &run.modes {
                assert_eq!(mode.completed() + mode.rejected(), requests);
            }
            let flight = run.flight.as_ref().expect("flight plane on");
            assert_eq!(flight.recorded, requests);
            assert!(flight.identity_holds());
        }

        let rep = chaos::run(&chaos_with(requests, gpus), &engine);
        assert!(
            rep.healthy(),
            "chaos {requests} req / {gpus} gpu: {:?}",
            rep.first_violation()
        );
        assert!(rep.conserved());
        assert_eq!(rep.total_requests(), 3 * requests);
        let _ = rep.render();
    }
}

/// Every shape failing: an abort-on-fault plan at rate 1.0 fails every
/// CC-on shape, so every CC-on request is rejected at dispatch — none
/// occupies a device — and conservation still holds.
#[test]
fn every_shape_failing_rejects_every_request() {
    let engine = ExperimentEngine::new(2);
    let cfg = ServingConfig {
        requests: 300,
        gpus: 2,
        fault: Some(FaultPlan::uniform(0xFA_17, 1.0)),
        recovery: Some(RecoveryPolicy::Abort),
        ..serving_with(0, 2)
    };
    let (_, tables) = serving::shape_tables(&cfg, &engine);
    assert!(tables[1].shapes().iter().all(|s| s.service.is_err()));
    let rep = serving::run(&cfg, &engine);
    assert!(rep.conserved());
    for run in &rep.runs {
        assert_eq!(run.on().rejected(), 300, "{}", run.scheduler);
        assert_eq!(run.on().batches, 0);
        assert!(run.flight.as_ref().is_some_and(|f| f.identity_holds()));
    }
    assert!(rep
        .render()
        .contains("conservation: admitted == completed + rejected (all runs): true"));
}
