//! Property-based contracts over the multi-tenant serving simulator:
//! the determinism and conservation invariants the serving tentpole
//! (DESIGN.md §4) promises, checked with the in-repo `hcc-check`
//! harness. Every property pins its seed so CI failures replay
//! bit-for-bit (`HCC_CHECK_SEED=<seed>` overrides).

use std::collections::BTreeMap;

use hcc_bench::chaos::{self, ChaosConfig, FaultLedger};
use hcc_bench::engine::{ExperimentEngine, ScenarioResult};
use hcc_bench::serving::cluster::{self, ClusterConfig, Outcome, Record, TimeToRecover};
use hcc_bench::serving::{
    self, arrival, observe, ArrivalKind, Request, SchedulerKind, ServingConfig, TenantStats,
};
use hcc_bench::serving::{Shape, ShapeTable};
use hcc_bench::watch::{SoakContext, WatchConfig, WatchReport};
use hcc_check::strategy::{f64s, u64s, vecs};
use hcc_check::{ensure, ensure_eq, forall, Config};
use hcc_tee::{SessionPool, TdCounters};
use hcc_trace::{Cdf, FlightConfig, FlightLog, MetricsSet, Series};
use hcc_types::calib::TdxCalib;
use hcc_types::rng::Xoshiro256;
use hcc_types::{
    CcMode, FaultPlan, Planes, RecoveryPolicy, SimDuration, SimTime, StormIntensity, StormProfile,
    StormSchedule,
};
use hcc_workloads::{default_tenants, Scenario, TenantSpec};

/// Replaying a seed reproduces the arrival trace bit for bit — every
/// rank, tenant, class pick, and nanosecond — for every process
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
/// lost — and every other run check holds, under every scheduler in
/// both modes.
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
            ensure!(rep.healthy(), "a run check broke under plan {plan_seed:#x}");
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
    assert!(rep.healthy());
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
/// succeeded, charging exactly their oracle shape time. The two modes'
/// tables share one request→shape map.
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
            ensure!(
                std::ptr::eq(tables[0].shape_of(), tables[1].shape_of()),
                "CC-off and CC-on tables share one shape map"
            );
            let mut oracle: Vec<Vec<Result<SimDuration, String>>> = Vec::new();
            for (&cc, table) in CcMode::ALL.iter().zip(&tables) {
                ensure_eq!(table.shape_of().len(), reqs.len());
                let mut mode = Vec::with_capacity(reqs.len());
                for (ri, r) in reqs.iter().enumerate() {
                    let si = table.shape_of()[ri] as usize;
                    ensure!(si < table.shapes().len(), "{cc}: request {ri} maps out of bounds");
                    let app = cfg.tenants[r.tenant as usize].mix[r.class as usize].app;
                    let slow = engine.run(&Scenario::standard(app, cfg.shape_cfg(cc)));
                    ensure_eq!(table.shapes()[si].hash, slow.hash);
                    let service = oracle_service(&slow);
                    ensure_eq!(table.service(ri), &service);
                    mode.push(service);
                }
                oracle.push(mode);
            }
            let rep = serving::run(&cfg, &engine);
            ensure!(rep.healthy());
            for run in &rep.runs {
                for (mode, services) in run.modes.iter().zip(&oracle) {
                    for (t, stats) in mode.tenants.iter().enumerate() {
                        let ok: Vec<SimDuration> = reqs
                            .iter()
                            .zip(services)
                            .filter(|(r, _)| r.tenant as usize == t)
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

/// Checks `storms`, the shape tables `cfg` resolved over `reqs`, against
/// an independent per-request `engine.run`: every cell's table resolves
/// each request to exactly the scenario the storm intensity at its
/// arrival (`intensity_at`) and its plan replica pick, with the same
/// service result; a profile's policy tables share one request→shape
/// map; and each profile's arrivals per intensity are those requests'.
fn check_storm_tables(
    cfg: &ChaosConfig,
    engine: &ExperimentEngine,
    reqs: &[Request],
    storms: &[chaos::StormShapes],
) -> Result<(), String> {
    ensure_eq!(storms.len(), cfg.profiles.len());
    for (profile, storm) in cfg.profiles.iter().zip(storms) {
        let schedule = cfg.schedule(profile);
        let intensities: Vec<StormIntensity> = reqs
            .iter()
            .map(|r| schedule.intensity_at(r.arrival))
            .collect();
        let mut arrivals = [0u64; StormIntensity::COUNT];
        for i in &intensities {
            arrivals[i.index()] += 1;
        }
        ensure_eq!(storm.arrivals, arrivals);
        ensure_eq!(storm.tables.len(), cfg.policies.len());
        for (policy, table) in cfg.policies.iter().zip(&storm.tables) {
            ensure!(
                std::ptr::eq(table.shape_of(), storm.tables[0].shape_of()),
                "a profile's policy tables share one shape map"
            );
            ensure_eq!(table.shape_of().len(), reqs.len());
            for (ri, (r, &intensity)) in reqs.iter().zip(&intensities).enumerate() {
                let si = table.shape_of()[ri] as usize;
                ensure!(si < table.shapes().len(), "request {ri} maps out of bounds");
                let app = cfg.tenants[r.tenant as usize].mix[r.class as usize].app;
                let replica = (ri % cfg.replicas as usize) as u32;
                let shape_cfg = cfg.shape_cfg(profile, policy, intensity, replica);
                let slow = engine.run(&Scenario::standard(app, shape_cfg));
                ensure_eq!(table.shapes()[si].hash, slow.hash);
                ensure_eq!(table.service(ri), &oracle_service(&slow));
            }
        }
    }
    Ok(())
}

/// A sorted trace on `schedule`'s edges, from each pick's low two bits:
/// one request on a window's start, one on a window's end, two tied on
/// a window's end, or one at or past the horizon. The rest of the pick
/// names the window (or the distance past the horizon) and the
/// request's tenant and class.
fn edge_trace(tenants: &[TenantSpec], schedule: &StormSchedule, picks: &[u64]) -> Vec<Request> {
    let mut reqs: Vec<Request> = picks
        .iter()
        .flat_map(|&pick| {
            let (kind, rest) = (pick % 4, pick / 4);
            let window = schedule
                .windows
                .get(rest as usize % schedule.windows.len().max(1));
            let (at, copies) = match (kind, window) {
                (0, Some(w)) => (w.start, 1),
                (1, Some(w)) => (w.end, 1),
                (2, Some(w)) => (w.end, 2),
                _ => (schedule.horizon + SimDuration::from_nanos(rest % 1_000), 1),
            };
            let tenant = (rest >> 20) as usize % tenants.len();
            let class = (rest >> 28) as usize % tenants[tenant].mix.len();
            let req = Request {
                arrival: at,
                tenant: tenant as u32,
                class: class as u32,
            };
            std::iter::repeat_n(req, copies)
        })
        .collect();
    reqs.sort_by_key(|r| r.arrival);
    reqs
}

/// The fault ledger request by request: each request counts under its
/// own shape's outcome.
fn per_request_ledger(table: &ShapeTable, requests: usize) -> FaultLedger {
    let mut ledger = FaultLedger::default();
    for ri in 0..requests {
        let shape = table.shape(ri);
        if shape.service.is_err() {
            ledger.rejected += 1;
        } else if shape.faults.degraded > 0 {
            ledger.degraded += 1;
        } else if shape.faults.recovered > 0 {
            ledger.recovered += 1;
        } else {
            ledger.clean += 1;
        }
    }
    ledger
}

/// Oracle: over random small chaos soaks (storm profile, replicas,
/// horizon, cluster width, scheduler), every cell's shape table passes
/// [`check_storm_tables`], both over the soak's own trace and over a
/// trace on the calendar's edges ([`edge_trace`]: arrivals exactly on
/// window starts and ends, ties at one instant, arrivals at and past
/// the horizon). The soak's report then holds, and each cell's fault
/// ledger, folded per shape, equals the ledger counted request by
/// request.
#[test]
fn chaos_shape_tables_match_the_per_request_oracle() {
    let engine = ExperimentEngine::new(2);
    let builtin = StormProfile::builtin();
    forall!(
        Config::new(0x5E21_0013).with_cases(6),
        ((seed, requests), (profile_pick, replicas), (days, gpus), (sched_pick, edges)) in (
            (u64s(0..u64::MAX), u64s(1..150)),
            (u64s(0..builtin.len() as u64), u64s(1..3)),
            (u64s(1..3), u64s(1..3)),
            (u64s(0..3), vecs(u64s(0..u64::MAX), 0..60))
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
            check_storm_tables(&cfg, &engine, &reqs, &storms)?;

            let edge = edge_trace(&cfg.tenants, &cfg.schedule(&cfg.profiles[0]), &edges);
            let edge_storms = chaos::storm_shapes(&cfg, &engine, &edge);
            check_storm_tables(&cfg, &engine, &edge, &edge_storms)
                .map_err(|e| format!("edge trace {edge:?}: {e}"))?;

            let rep = chaos::run(&cfg, &engine);
            ensure!(rep.healthy());
            for (profile, storm) in rep.profiles.iter().zip(&storms) {
                for (cell, table) in profile.cells.iter().zip(&storm.tables) {
                    ensure_eq!(cell.ledger, per_request_ledger(table, reqs.len()));
                }
            }
        }
    );
}

fn serving_with(requests: u64, gpus: usize) -> ServingConfig {
    ServingConfig {
        requests,
        gpus,
        watch: Some(WatchConfig::default()),
        flight: Some(FlightConfig::default()),
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
        watch: Some(WatchConfig::default()),
        flight: Some(FlightConfig::default()),
        ..ChaosConfig::default()
    }
}

/// A window longer than any degenerate soak below: the serving soaks
/// settle within seconds, and a chaos day is 60 virtual seconds.
const LONG_WINDOW: SimDuration = SimDuration::secs(3_600);

/// The defined behaviour of one soak's planes over `requests`, beyond
/// conservation: the flight recorder saw every request, each kept
/// exemplar's spans partition its latency, and the exemplar store stays
/// inside its `windows × (worst + reservoir)` bound. Caps of zero keep
/// nothing; caps no window's population reaches keep every request; a
/// soak shorter than one window lands in exactly one watch and one
/// flight window.
fn check_planes(
    watch: Option<&WatchReport>,
    flight: Option<&FlightLog>,
    requests: u64,
    what: &str,
) {
    let flight = flight.expect("flight plane on");
    assert_eq!(flight.recorded, requests, "{what}");
    assert!(flight.identity_holds(), "{what}");
    assert!(flight.kept_entries <= flight.entry_bound(), "{what}");
    if flight.cfg.per_window_budget() == 0 {
        assert!(flight.samples.is_empty(), "{what}: zero caps keep nothing");
    }
    if flight.cfg.worst as u64 >= requests {
        assert_eq!(
            flight.samples.len() as u64,
            requests,
            "{what}: every request kept"
        );
    }
    let watch = watch.expect("watch plane on");
    if requests > 0 && flight.cfg.window == LONG_WINDOW {
        assert_eq!(flight.windows, 1, "{what}: one flight window");
    }
    if requests > 0 && watch.cfg.fast == LONG_WINDOW {
        assert_eq!(watch.windows.len(), 1, "{what}: one watch window");
    }
}

/// Degenerate widths, lengths, horizons and flight caps all run both
/// table-backed soaks to a conserved, leak-free report with the plane
/// behaviour `check_planes` defines: a single GPU, more GPUs than one
/// word of the idle-GPU bitset, a single request, an empty trace (an
/// empty report — every run settles nothing, conservation holds
/// vacuously, and nothing panics), windows longer than the whole soak,
/// and flight caps of 0 and 1024.
#[test]
fn degenerate_soaks_conserve() {
    let engine = ExperimentEngine::new(2);
    let long_watch = WatchConfig {
        fast: LONG_WINDOW,
        ..WatchConfig::default()
    };
    let long_flight = FlightConfig {
        window: LONG_WINDOW,
        ..FlightConfig::default()
    };
    let caps = |n| FlightConfig {
        worst: n,
        reservoir: n,
        ..FlightConfig::default()
    };
    let default = (WatchConfig::default(), FlightConfig::default());
    let cases = [
        (400, 1, default),
        (1, 4, default),
        (1, 1, default),
        (0, 2, default),
        (400, 130, default),
        (400, 2, (long_watch, long_flight)),
        (1, 2, (long_watch, long_flight)),
        (400, 2, (WatchConfig::default(), caps(0))),
        (400, 2, (WatchConfig::default(), caps(1024))),
    ];
    for (requests, gpus, (watch, flight)) in cases {
        let what = format!("{requests} req / {gpus} gpu / {watch:?} / {flight:?}");
        let rep = serving::run(
            &ServingConfig {
                watch: Some(watch),
                flight: Some(flight),
                ..serving_with(requests, gpus)
            },
            &engine,
        );
        assert!(rep.healthy(), "serving {what}");
        assert!(rep.render().contains("(all runs): true"));
        for run in &rep.runs {
            check_planes(run.watch.as_ref(), run.flight.as_ref(), requests, &what);
        }

        let rep = chaos::run(
            &ChaosConfig {
                watch: Some(watch),
                flight: Some(flight),
                ..chaos_with(requests, gpus)
            },
            &engine,
        );
        assert!(rep.healthy(), "chaos {what}: {:?}", rep.first_violation());
        assert_eq!(rep.total_requests(), 3 * requests);
        for cell in rep.cells() {
            check_planes(cell.watch.as_ref(), cell.flight.as_ref(), requests, &what);
        }
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
    assert!(rep.healthy());
    for run in &rep.runs {
        assert_eq!(run.on().rejected(), 300, "{}", run.scheduler);
        assert_eq!(run.on().batches, 0);
        assert!(run.flight.as_ref().is_some_and(|f| f.identity_holds()));
    }
    assert!(rep
        .render()
        .contains("conservation: admitted == completed + rejected (all runs): true"));
}

/// What the reference cluster reports, field for field the parts of a
/// `ClusterRun` the oracle pins.
#[derive(Debug, PartialEq)]
struct ReferenceRun {
    outcomes: Vec<Outcome>,
    /// Each request's own `(spdm, doorbell)` admission charges, as its
    /// `admit()` returned them (zero for rejections).
    admissions: Vec<(SimDuration, SimDuration)>,
    end: SimTime,
    busy: SimDuration,
    batches: u64,
    cold_starts: u64,
    td: TdCounters,
    /// `(established, closed)` over every device pool.
    sessions: (u64, u64),
    /// Queue depth, then one depth series per GPU.
    gauges: Vec<Series>,
}

/// A step series from raw `(time, delta)` change-points: net the deltas
/// per instant in a sorted map and keep the instants that move the value.
fn reference_series(name: &str, deltas: &[(SimTime, i64)]) -> Series {
    let mut net: BTreeMap<SimTime, i64> = BTreeMap::new();
    for &(t, d) in deltas {
        *net.entry(t).or_default() += d;
    }
    let mut value = 0;
    let mut samples = Vec::new();
    for (t, d) in net {
        if d != 0 {
            value += d;
            samples.push((t, value));
        }
    }
    Series {
        name: name.to_string(),
        samples,
    }
}

/// The cluster drain spelled out naively: the waiting requests are one
/// `Vec` in arrival order, every choice is a linear scan (the priority
/// head, batch followers, the lowest idle GPU, the next event), and
/// nothing is a heap, a bitset or a scheduler queue. Only the TD cost
/// model (`SessionPool`) is shared with `cluster::simulate`, and each
/// request keeps the charges its own `admit()` returned.
///
/// The rules it spells out: completions at an instant free their GPUs
/// before that instant's arrivals join the queue; dispatch then runs
/// while some GPU is idle, onto the lowest-numbered one; each member of
/// a dequeued batch whose own shape fails is rejected at dispatch without
/// a GPU (its outcome names GPU 0 and the dequeued batch's size), and the
/// working members run as the batch, led by the first of them; a batch
/// of `k` runs its head's `P * (1 + 0.35 * (k - 1))` plus its members'
/// admissions.
fn reference_cluster(
    reqs: &[Request],
    service: &[Result<SimDuration, String>],
    cfg: &ClusterConfig<'_>,
) -> ReferenceRun {
    let mut outcomes: Vec<Option<Outcome>> = vec![None; reqs.len()];
    let mut admissions = vec![(SimDuration::ZERO, SimDuration::ZERO); reqs.len()];
    let mut waiting: Vec<usize> = Vec::new();
    let mut busy_until: Vec<Option<SimTime>> = vec![None; cfg.gpus];
    let mut pools: Vec<SessionPool> = (0..cfg.gpus)
        .map(|_| SessionPool::new(cfg.cc, cfg.tdx.clone()))
        .collect();
    let mut queue_deltas = Vec::new();
    let mut gpu_deltas = vec![Vec::new(); cfg.gpus];
    let (mut busy, mut batches, mut cold_starts) = (SimDuration::ZERO, 0, 0);
    let mut arrived = 0;
    let mut now = SimTime::ZERO;
    loop {
        while busy_until.contains(&None) && !waiting.is_empty() {
            let head_at = match cfg.kind {
                SchedulerKind::Fifo | SchedulerKind::Batching => 0,
                SchedulerKind::Priority => (0..waiting.len())
                    .min_by_key(|&w| {
                        let r = &reqs[waiting[w]];
                        (cfg.tenants[r.tenant as usize].priority, waiting[w])
                    })
                    .expect("something waits"),
            };
            let head = waiting.remove(head_at);
            let h = &reqs[head];
            let mut batch = vec![head];
            let class = &cfg.tenants[h.tenant as usize].mix[h.class as usize];
            if cfg.kind == SchedulerKind::Batching && class.batchable {
                let mut w = 0;
                while w < waiting.len() && batch.len() < cfg.max_batch {
                    let r = &reqs[waiting[w]];
                    if (r.tenant, r.class) == (h.tenant, h.class) {
                        batch.push(waiting.remove(w));
                    } else {
                        w += 1;
                    }
                }
            }
            let dequeued = batch.len() as u16;
            queue_deltas.push((now, -i64::from(dequeued)));
            let (batch, failing): (Vec<usize>, Vec<usize>) =
                batch.into_iter().partition(|&i| service[i].is_ok());
            for &i in &failing {
                outcomes[i] = Some(Outcome {
                    dispatch: now,
                    completion: now,
                    gpu: 0,
                    batch: dequeued,
                    cold: false,
                    rejected: true,
                });
            }
            let Some(Ok(shape)) = batch.first().map(|&i| &service[i]) else {
                continue;
            };
            let k = batch.len() as u16;
            let gpu = busy_until
                .iter()
                .position(Option::is_none)
                .expect("an idle GPU");
            let batch_admissions: Vec<_> = batch
                .iter()
                .map(|&i| pools[gpu].admit(u64::from(reqs[i].tenant)))
                .collect();
            let service_time = *shape
                + shape.scale(0.35 * f64::from(k - 1))
                + batch_admissions
                    .iter()
                    .map(|a| a.total())
                    .sum::<SimDuration>();
            let done = now + service_time;
            busy_until[gpu] = Some(done);
            gpu_deltas[gpu].push((now, i64::from(k)));
            gpu_deltas[gpu].push((done, -i64::from(k)));
            busy += service_time;
            batches += 1;
            for (&i, a) in batch.iter().zip(&batch_admissions) {
                cold_starts += u64::from(a.cold);
                admissions[i] = (a.setup, a.transitions);
                outcomes[i] = Some(Outcome {
                    dispatch: now,
                    completion: done,
                    gpu: gpu as u32,
                    batch: k,
                    cold: a.cold,
                    rejected: false,
                });
            }
        }
        let next = reqs
            .get(arrived)
            .map(|r| r.arrival)
            .into_iter()
            .chain(busy_until.iter().flatten().copied())
            .min();
        let Some(next) = next else { break };
        now = next;
        for slot in &mut busy_until {
            if *slot == Some(now) {
                *slot = None;
            }
        }
        while arrived < reqs.len() && reqs[arrived].arrival == now {
            waiting.push(arrived);
            queue_deltas.push((now, 1));
            arrived += 1;
        }
    }

    let mut td = TdCounters::default();
    let mut sessions = (0, 0);
    for pool in &mut pools {
        let c = pool.counters();
        td.hypercalls += c.hypercalls;
        td.seamcalls += c.seamcalls;
        td.pages_converted += c.pages_converted;
        td.transition_time += c.transition_time;
        sessions.0 += pool.established() as u64;
        sessions.1 += pool.close_all();
    }
    let mut gauges = vec![reference_series("serving.queue_depth", &queue_deltas)];
    for (g, deltas) in gpu_deltas.iter().enumerate() {
        gauges.push(reference_series(&format!("serving.gpu{g}.depth"), deltas));
    }
    ReferenceRun {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every request settles"))
            .collect(),
        admissions,
        end: now,
        busy,
        batches,
        cold_starts,
        td,
        sessions,
        gauges,
    }
}

/// Test-only oracle for the drain's time-to-recover: for each peak end,
/// how long until the queue-depth series is back at zero. A peak counts
/// as drained when the series is already zero at its end (drain time
/// zero) or a later change-point reaches zero; peaks whose backlog never
/// returns to zero are left out of the mean and max. No series means
/// the queue never moved, so every peak drained at once.
fn time_to_recover(queue: Option<&Series>, peak_ends: &[SimTime]) -> TimeToRecover {
    let mut out = TimeToRecover {
        peaks: peak_ends.len(),
        ..TimeToRecover::default()
    };
    let Some(series) = queue else {
        out.drained = out.peaks;
        return out;
    };
    let mut sum = 0u64;
    let mut max = 0u64;
    for &t in peak_ends {
        let recovered_at = if series.value_at(t) == 0 {
            Some(t)
        } else {
            let later = series.samples.partition_point(|&(st, _)| st <= t);
            series.samples[later..]
                .iter()
                .find(|&&(_, v)| v == 0)
                .map(|&(st, _)| st)
        };
        if let Some(r) = recovered_at {
            let d = r.saturating_since(t).as_nanos();
            out.drained += 1;
            sum += d;
            max = max.max(d);
        }
    }
    if out.drained > 0 {
        out.mean = SimDuration::from_nanos(sum / out.drained as u64);
        out.max = SimDuration::from_nanos(max);
    }
    out
}

/// Test-only oracle for the drain's `drained` flag: every depth gauge of
/// a `gpus`-wide run (`serving.queue_depth` and each
/// `serving.gpu{g}.depth`) ended at zero. An absent series never moved,
/// so it counts as drained.
fn depth_gauges_drained(metrics: &MetricsSet, gpus: usize) -> bool {
    let drained = |name: &str| {
        metrics
            .gauge_series(name)
            .is_none_or(|s| s.final_value() == 0)
    };
    drained("serving.queue_depth") && (0..gpus).all(|g| drained(&format!("serving.gpu{g}.depth")))
}

/// Sorted peak ends over `reqs`, one per pick: the pick's low two bits
/// place it at 0, on an arrival instant, between arrival instants, or
/// past the horizon (an hour after the last arrival).
fn peak_ends(reqs: &[Request], picks: &[u64]) -> Vec<SimTime> {
    let last = reqs.last().map_or(SimTime::ZERO, |r| r.arrival);
    let mut peaks: Vec<SimTime> = picks
        .iter()
        .map(|&pick| {
            let (kind, rest) = (pick % 4, pick / 4);
            let on_arrival = reqs
                .get(rest as usize % reqs.len().max(1))
                .map_or(SimTime::ZERO, |r| r.arrival);
            match kind {
                0 => SimTime::ZERO,
                1 => on_arrival,
                2 => on_arrival + SimDuration::from_nanos(1 + rest % 700_000),
                _ => last + SimDuration::secs(3600),
            }
        })
        .collect();
    peaks.sort_unstable();
    peaks
}

/// Everything a `ClusterRun` reports but its `metrics`.
fn verdicts(run: &cluster::ClusterRun) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        &run.outcomes,
        run.end,
        run.busy,
        (run.batches, run.cold_starts),
        (run.sessions_established, run.sessions_closed),
        run.td,
        (run.drained, run.ttr, &run.queue_integrals),
    )
}

/// Oracle for the drain's folded queue integrals: over every tumbling
/// window of their width up to `horizon` (at or past the run's end),
/// each window's integral is the queue series' `integral_between` (zero
/// with no series), and together they make the whole-run integral.
fn check_queue_integrals(
    run: &cluster::ClusterRun,
    queue: Option<&Series>,
    horizon: SimTime,
) -> Result<(), String> {
    let folded = run.queue_integrals.as_ref();
    ensure!(
        folded.is_some(),
        "no queue integrals although a window was asked for"
    );
    let folded = folded.expect("checked");
    let series = |from: SimTime, to: SimTime| {
        queue.map_or(SimDuration::ZERO, |q| q.integral_between(from, to))
    };
    let mut sum = SimDuration::ZERO;
    for w in hcc_trace::rollup::tumbling(horizon, folded.width()) {
        ensure_eq!((w, folded.over(&w)), (w, series(w.start, w.end)));
        sum += folded.over(&w);
    }
    ensure_eq!(sum, series(SimTime::ZERO, horizon));
    Ok(())
}

/// Holds `cluster::simulate` of `reqs` over `table` on `cfg` (its peak
/// ends and queue window set, the metrics plane on) to the naive
/// reference cluster, `service` being each request's shape outcome:
/// every outcome (its GPU included), every request's SPDM and doorbell
/// charges (derived by `run.admission.of`, against the reference's own
/// `admit()` record), the end time, busy time, batch and cold-start
/// counts, TD counters, session ledger and every gauge series. The
/// online verdicts match the series: `ttr` is the queue series'
/// time-to-recover at the peak ends and `drained` says every depth
/// gauge ended at zero, and the folded queue integrals match the queue
/// series window by window up to past the run's end
/// ([`check_queue_integrals`]); with no window there are none, with no
/// peak ends no time-to-recover, and with an empty list an empty one. A
/// run with the metrics plane off reports the same in every field but
/// `metrics`, which is empty.
fn check_against_reference(
    reqs: &[Request],
    table: &ShapeTable,
    service: &[Result<SimDuration, String>],
    cfg: &ClusterConfig<'_>,
) -> Result<(), String> {
    let (kind, cc, gpus) = (cfg.kind, cfg.cc, cfg.gpus);
    let peaks = cfg.peak_ends.expect("peak ends to check");
    let window = cfg.queue_window.expect("a queue window to check");
    let run = cluster::simulate(reqs, table, cfg, Record::Log);
    let want = reference_cluster(reqs, service, cfg);
    if let Some(i) = (0..reqs.len()).find(|&i| run.outcomes.get(i) != want.outcomes.get(i)) {
        return Err(format!(
            "{kind}/{cc}/{gpus} gpus: request {i} ({:?}) settled as {:?}, the reference says {:?}",
            reqs[i],
            run.outcomes.get(i),
            want.outcomes[i]
        ));
    }
    let admissions: Vec<_> = run.outcomes.iter().map(|o| run.admission.of(o)).collect();
    for (i, (got, want)) in admissions.iter().zip(&want.admissions).enumerate() {
        ensure!(
            got.0 == want.0,
            "{kind}/{cc}/{gpus} gpus: request {i} spdm {:?}, admit() charged {:?}",
            got.0,
            want.0
        );
        ensure!(
            got.1 == want.1,
            "{kind}/{cc}/{gpus} gpus: request {i} doorbell {:?}, admit() charged {:?}",
            got.1,
            want.1
        );
    }
    let totals = |r: &ReferenceRun| (r.end, r.busy, r.batches, r.cold_starts, r.td, r.sessions);
    let got = ReferenceRun {
        outcomes: run.outcomes.clone(),
        admissions,
        end: run.end,
        busy: run.busy,
        batches: run.batches,
        cold_starts: run.cold_starts,
        td: run.td,
        sessions: (run.sessions_established, run.sessions_closed),
        gauges: run.metrics.gauges.clone(),
    };
    ensure!(
        totals(&got) == totals(&want),
        "{kind}/{cc}/{gpus} gpus:\n  got:  {:?}\n  want: {:?}",
        totals(&got),
        totals(&want)
    );
    if let Some((g, w)) = got.gauges.iter().zip(&want.gauges).find(|(g, w)| g != w) {
        return Err(format!(
            "{kind}/{cc}/{gpus} gpus: gauge {} differs from the reference's {}",
            g.name, w.name
        ));
    }
    ensure!(
        got == want,
        "{kind}/{cc}/{gpus} gpus: {} gauge series, the reference {}",
        got.gauges.len(),
        want.gauges.len()
    );
    ensure_eq!(
        run.metrics.counter_total("serving.batches"),
        Some(want.batches)
    );
    ensure_eq!(
        run.metrics.counter_total("serving.cold_starts"),
        Some(want.cold_starts)
    );

    let queue = run.metrics.gauge_series("serving.queue_depth");
    let ttr = Some(time_to_recover(queue, peaks));
    ensure!(
        run.ttr == ttr,
        "{kind}/{cc}/{gpus} gpus, {} peaks: ttr {:?}, series says {ttr:?}",
        peaks.len(),
        run.ttr
    );
    ensure_eq!(run.drained, depth_gauges_drained(&run.metrics, gpus));
    let past_end = run.end + window * 2 + SimDuration::micros(1);
    check_queue_integrals(&run, queue, past_end)
        .map_err(|e| format!("{kind}/{cc}/{gpus} gpus, {window} windows: {e}"))?;
    let unwindowed = cluster::simulate(
        reqs,
        table,
        &ClusterConfig {
            queue_window: None,
            ..*cfg
        },
        Record::Log,
    );
    ensure_eq!(unwindowed.queue_integrals, None);

    let off = cluster::simulate(
        reqs,
        table,
        &ClusterConfig {
            planes: Planes::NONE,
            ..*cfg
        },
        Record::Log,
    );
    let (off_says, on_says) = (verdicts(&off), verdicts(&run));
    ensure!(
        off_says == on_says,
        "{kind}/{cc}/{gpus} gpus: the plane-off run reports otherwise"
    );
    ensure!(off.metrics.counters.is_empty() && off.metrics.gauges.is_empty());

    let no_peaks = cluster::simulate(
        reqs,
        table,
        &ClusterConfig {
            peak_ends: None,
            ..*cfg
        },
        Record::Log,
    );
    ensure_eq!(no_peaks.ttr, None);
    let empty = cluster::simulate(
        reqs,
        table,
        &ClusterConfig {
            peak_ends: Some(&[]),
            ..*cfg
        },
        Record::Log,
    );
    ensure_eq!(empty.ttr, Some(time_to_recover(queue, &[])));
    Ok(())
}

/// Oracle: over random small traces (bursts of same-instant arrivals,
/// 1–4 tenants, batch caps 1–4, one shape per (tenant, class) with some
/// failing), `cluster::simulate` matches the naive reference cluster in
/// everything [`check_against_reference`] pins — under every scheduler,
/// both CC modes, and 1, 2, 3, 4, 8 and 65 GPUs (65 spans two words of
/// the event loop's idle-GPU bitset and seven levels of the FIFO
/// drain's free-time tree), over random sorted peak ends (at 0, on and
/// between arrival instants, past the horizon) and random window widths
/// (1 µs to 2 ms).
#[test]
fn cluster_matches_the_reference_cluster() {
    forall!(
        Config::new(0x5E21_0014).with_cases(24),
        ((trace, slot_us, picks), (tenants, max_batch, window_us)) in (
            (
                vecs((u64s(0..600), u64s(0..4), u64s(0..4)), 0..40),
                vecs(u64s(0..500), 11..12),
                vecs(u64s(0..u64::MAX), 0..8)
            ),
            (u64s(1..5), u64s(1..5), u64s(1..2_000))
        ) => {
            let tenants = default_tenants(tenants as usize);
            let slot_base: Vec<usize> = tenants
                .iter()
                .scan(0, |next, t| {
                    *next += t.mix.len();
                    Some(*next - t.mix.len())
                })
                .collect();
            let mut at = SimTime::ZERO;
            let mut reqs = Vec::new();
            let mut shape_of = Vec::new();
            for &(gap, t, c) in &trace {
                // Two gaps in five are zero: same-instant bursts.
                at += SimDuration::micros(gap.saturating_sub(240));
                let tenant = t as usize % tenants.len();
                let class = c as usize % tenants[tenant].mix.len();
                reqs.push(Request { arrival: at, tenant: tenant as u32, class: class as u32 });
                shape_of.push((slot_base[tenant] + class) as u32);
            }
            let peaks = peak_ends(&reqs, &picks);
            // A slot under 60 µs stands for a deterministically failing shape.
            let slot_service: Vec<Result<SimDuration, String>> = slot_us
                .iter()
                .map(|&us| {
                    if us < 60 {
                        Err("shape fails".to_string())
                    } else {
                        Ok(SimDuration::micros(us))
                    }
                })
                .collect();
            let service: Vec<_> = shape_of
                .iter()
                .map(|&s| slot_service[s as usize].clone())
                .collect();
            let shapes = slot_service
                .iter()
                .map(|service| Shape {
                    label: String::new(),
                    hash: 0,
                    service: service.clone(),
                    faults: Default::default(),
                    audit: None,
                })
                .collect();
            let table = ShapeTable::from_shapes(shapes, shape_of.into());
            let tdx = TdxCalib::default();
            for kind in SchedulerKind::ALL {
                for cc in CcMode::ALL {
                    for gpus in [1, 2, 3, 4, 8, 65] {
                        let cfg = ClusterConfig {
                            tenants: &tenants,
                            cc,
                            gpus,
                            kind,
                            max_batch: max_batch as usize,
                            tdx: &tdx,
                            peak_ends: Some(&peaks),
                            queue_window: Some(SimDuration::micros(window_us)),
                            planes: Planes::METRICS,
                        };
                        check_against_reference(&reqs, &table, &service, &cfg)?;
                    }
                }
            }
        }
    );
}

/// Each request's shape outcome under `table`.
fn services(table: &ShapeTable) -> Vec<Result<SimDuration, String>> {
    (0..table.shape_of().len())
        .map(|i| table.service(i).clone())
        .collect()
}

/// Oracle at soak scale, where the FIFO drain's queues build and its
/// time-to-recover counts: every default chaos soak cell (20k requests
/// on 4 CC-on GPUs, FIFO, both storm profiles under all three recovery
/// policies, so aborted shapes reject requests mid-storm), measured at
/// its storm calendar's peak ends and over the watch's default fast
/// window, and a 20k-request calm FIFO cell on 65 GPUs at 0.9 target
/// utilization in both CC modes, each matches the reference cluster in
/// everything [`check_against_reference`] pins. The rows are not
/// vacuous: a storm cell rejects requests and leaves a peak backlogged
/// past its end, and the wide cell's queue holds more than one request.
#[test]
fn fifo_soak_cells_match_the_reference_cluster() {
    let engine = ExperimentEngine::new(2);
    let window = WatchConfig::default().fast;
    let chaos = ChaosConfig::default();
    assert_eq!(
        (chaos.scheduler, chaos.requests),
        (SchedulerKind::Fifo, 20_000)
    );
    let (reqs, storms) = chaos::shape_tables(&chaos, &engine);
    let (mut rejected, mut backlogged) = (false, false);
    for (profile, storm) in storms.iter().enumerate() {
        let peaks = storm.schedule.peak_ends();
        for table in &storm.tables {
            let cfg = ClusterConfig {
                peak_ends: Some(&peaks),
                queue_window: Some(window),
                planes: Planes::METRICS,
                ..chaos.cluster()
            };
            let service = services(table);
            if let Err(e) = check_against_reference(&reqs, table, &service, &cfg) {
                panic!("storm {profile}: {e}");
            }
            let run = cluster::simulate(&reqs, table, &cfg, Record::Log);
            rejected |= run.outcomes.iter().any(|o| o.rejected);
            backlogged |= run.ttr.is_some_and(|t| t.max > SimDuration::ZERO);
        }
    }
    assert!(
        rejected && backlogged,
        "rejected {rejected}, backlogged {backlogged}"
    );

    let wide = ServingConfig {
        requests: 20_000,
        gpus: 65,
        target_util: 0.9,
        schedulers: vec![SchedulerKind::Fifo],
        ..ServingConfig::default()
    };
    let (reqs, tables) = serving::shape_tables(&wide, &engine);
    let picks: Vec<u64> = (0..8).map(|k| 4 * 2_500 * k + k % 4).collect();
    let peaks = peak_ends(&reqs, &picks);
    for (cc, table) in CcMode::ALL.into_iter().zip(&tables) {
        let cfg = ClusterConfig {
            peak_ends: Some(&peaks),
            queue_window: Some(window),
            planes: Planes::METRICS,
            ..wide.cluster(SchedulerKind::Fifo, cc)
        };
        if let Err(e) = check_against_reference(&reqs, table, &services(table), &cfg) {
            panic!("65 gpus: {e}");
        }
        let run = cluster::simulate(&reqs, table, &cfg, Record::Log);
        let depth = run.metrics.gauge_series("serving.queue_depth");
        assert!(depth.is_some_and(|d| d.peak() > 1), "{cc}: no queue built");
    }
}

/// A batch of zero length frees its GPU at the instant it started, but
/// only once that instant's dispatch round ends: the next request
/// waiting at that instant takes the next idle GPU, and the freed one
/// serves only after every GPU idle at the round's start is taken.
/// Admission is free in CC-off under a calibration with free VM exits,
/// so a zero-time shape runs a zero-length batch. The trace opens with
/// four requests at 0 on shapes of 100, 100, 0 and 100 µs: on two GPUs
/// the third and fourth wait, both GPUs free at 100 µs, the third runs
/// for zero time on GPU 0 and the fourth goes to GPU 1. Bursts of
/// same-instant arrivals follow, whose shapes take 0 or 100 µs or fail.
/// On 1 to 4 and 65 GPUs, every discipline matches the reference
/// cluster.
#[test]
fn zero_length_batches_free_their_gpus_after_the_round() {
    let tenants = default_tenants(2);
    let tdx = TdxCalib {
        vmexit: SimDuration::ZERO,
        ..TdxCalib::default()
    };
    let at = |us: u64, tenant: u32, class: u32| Request {
        arrival: SimTime::ZERO + SimDuration::micros(us),
        tenant,
        class,
    };
    let mut reqs = vec![at(0, 0, 1), at(0, 0, 1), at(0, 0, 0), at(0, 0, 1)];
    for burst in 1..12u64 {
        for k in 0..(burst % 5 + 1) {
            reqs.push(at(30 * burst, (k % 2) as u32, ((burst + k) % 3) as u32));
        }
    }
    // Shapes by (tenant, class) slot: zero-length, 100 µs or failing.
    let slot_service = |slot: usize| match slot % 3 {
        0 => Ok(SimDuration::ZERO),
        1 => Ok(SimDuration::micros(100)),
        _ if slot == 2 => Err("shape fails".to_string()),
        _ => Ok(SimDuration::ZERO),
    };
    let slots: Vec<u32> = reqs.iter().map(|r| 3 * r.tenant + r.class).collect();
    let shapes = (0..6)
        .map(|slot| Shape {
            label: String::new(),
            hash: 0,
            service: slot_service(slot),
            faults: Default::default(),
            audit: None,
        })
        .collect();
    let table = ShapeTable::from_shapes(shapes, slots.into());
    let service = services(&table);
    let peaks = peak_ends(&reqs, &[1, 6, 11, 16]);
    for kind in SchedulerKind::ALL {
        for gpus in [1, 2, 3, 4, 65] {
            let cfg = ClusterConfig {
                tenants: &tenants,
                cc: CcMode::Off,
                gpus,
                kind,
                max_batch: 3,
                tdx: &tdx,
                peak_ends: Some(&peaks),
                queue_window: Some(SimDuration::micros(20)),
                planes: Planes::METRICS,
            };
            if let Err(e) = check_against_reference(&reqs, &table, &service, &cfg) {
                panic!("{e}");
            }
            let run = cluster::simulate(&reqs, &table, &cfg, Record::Log);
            let zero_length = |o: &Outcome| !o.rejected && o.dispatch == o.completion;
            assert!(run.outcomes.iter().any(zero_length), "{kind}/{gpus} gpus");
            if (kind, gpus) == (SchedulerKind::Fifo, 2) {
                let gpu = |i: usize| (run.outcomes[i].dispatch, run.outcomes[i].gpu);
                let freed = SimTime::ZERO + SimDuration::micros(100);
                assert_eq!([gpu(2), gpu(3)], [(freed, 0), (freed, 1)]);
            }
        }
    }
}

/// The mode report spelled out naively over the reference cluster's
/// per-request record: each tenant's requests in index order, a
/// rejection counted, every other request adding its latency, wait,
/// service, own shape and own admission charges, and its tails read off
/// a sorted `Cdf` of its latencies and waits.
fn reference_fold(
    reqs: &[Request],
    service: &[Result<SimDuration, String>],
    tenants: &[TenantSpec],
    run: &ReferenceRun,
) -> Vec<TenantStats> {
    (0..tenants.len())
        .map(|t| {
            let mine = || {
                (0..reqs.len())
                    .filter(move |&i| reqs[i].tenant as usize == t && !run.outcomes[i].rejected)
            };
            let sum = |f: &dyn Fn(usize) -> SimDuration| mine().map(f).sum::<SimDuration>();
            let latency = |i: usize| run.outcomes[i].completion.saturating_since(reqs[i].arrival);
            let wait = |i: usize| run.outcomes[i].dispatch.saturating_since(reqs[i].arrival);
            let cdf =
                |f: &dyn Fn(usize) -> SimDuration| Cdf::from_durations(mine().map(f).collect());
            TenantStats {
                name: tenants[t].name.to_string(),
                completed: mine().count() as u64,
                rejected: (0..reqs.len())
                    .filter(|&i| reqs[i].tenant as usize == t && run.outcomes[i].rejected)
                    .count() as u64,
                latency: cdf(&latency).tail(),
                wait: cdf(&wait).tail(),
                latency_total: sum(&latency),
                wait_total: sum(&wait),
                service_total: sum(&|i| {
                    run.outcomes[i]
                        .completion
                        .saturating_since(run.outcomes[i].dispatch)
                }),
                shape_total: sum(&|i| service[i].clone().expect("an admitted shape works")),
                admission_total: sum(&|i| run.admissions[i].0 + run.admissions[i].1),
            }
        })
        .collect()
}

/// Oracle for the cell step's report fold: over random small traces as
/// in [`cluster_matches_the_reference_cluster`], where a request rides
/// its (tenant, class) shape or one of two other shapes (so a batch's
/// followers can ride shapes other than their head's, some failing),
/// the `ModeRun` of a cell that keeps no outcome log equals
/// [`reference_fold`] over the reference cluster, tenant by tenant, and
/// its run totals equal the reference's — under every scheduler, both
/// CC modes, and 1, 2, 3, 4, 8 and 65 GPUs. A log-keeping cell (the
/// watch on) reports the same. Every cell of a case is lent one
/// `Samples`, as a soak lends one to all its cells. Over the cases,
/// requests are rejected, batches carry followers on another working
/// shape, and a member on a failing shape is rejected out of a batch
/// whose working members ran.
#[test]
fn cell_fold_matches_the_reference_fold() {
    let rejected = std::cell::Cell::new(0u64);
    let other_shape = std::cell::Cell::new(0u64);
    let failing_follower = std::cell::Cell::new(0u64);
    forall!(
        Config::new(0x5E21_0031).with_cases(24),
        ((trace, slot_us), (tenants, max_batch)) in (
            (
                vecs((u64s(0..600), u64s(0..4), u64s(0..4), u64s(0..4)), 0..40),
                vecs(u64s(0..500), 33..34)
            ),
            (u64s(1..5), u64s(1..5))
        ) => {
            let tenants = default_tenants(tenants as usize);
            let slot_base: Vec<usize> = tenants
                .iter()
                .scan(0, |next, t| {
                    *next += t.mix.len();
                    Some(*next - t.mix.len())
                })
                .collect();
            let mut at = SimTime::ZERO;
            let mut reqs = Vec::new();
            let mut shape_of = Vec::new();
            for &(gap, t, c, v) in &trace {
                at += SimDuration::micros(gap.saturating_sub(240));
                let tenant = t as usize % tenants.len();
                let class = c as usize % tenants[tenant].mix.len();
                reqs.push(Request { arrival: at, tenant: tenant as u32, class: class as u32 });
                // Half the requests ride their (tenant, class) shape; the
                // rest one of two other columns of 11 slots.
                shape_of.push((slot_base[tenant] + class + 11 * v.saturating_sub(1) as usize) as u32);
            }
            let slot_service: Vec<Result<SimDuration, String>> = slot_us
                .iter()
                .map(|&us| if us < 60 { Err("shape fails".to_string()) } else { Ok(SimDuration::micros(us)) })
                .collect();
            let service: Vec<_> = shape_of.iter().map(|&s| slot_service[s as usize].clone()).collect();
            let shapes = slot_service
                .iter()
                .map(|service| Shape {
                    label: String::new(),
                    hash: 0,
                    service: service.clone(),
                    faults: Default::default(),
                    audit: None,
                })
                .collect();
            let table = ShapeTable::from_shapes(shapes, shape_of.clone().into());
            let tdx = TdxCalib::default();
            let names: Vec<String> = tenants.iter().map(|t| t.name.to_string()).collect();
            let budgets = chaos::default_budgets(&tenants);
            let soak = SoakContext { tenant_names: &names, budgets: &budgets, horizon: SimTime::ZERO, storm: None };
            let watch = WatchConfig::default();
            let mut samples = cluster::Samples::new(&reqs, tenants.len());
            for kind in SchedulerKind::ALL {
                for cc in CcMode::ALL {
                    for gpus in [1, 2, 3, 4, 8, 65] {
                        let cfg = ClusterConfig {
                            tenants: &tenants,
                            cc,
                            gpus,
                            kind,
                            max_batch: max_batch as usize,
                            tdx: &tdx,
                            peak_ends: None,
                            queue_window: None,
                            planes: Planes::NONE,
                        };
                        let want = reference_cluster(&reqs, &service, &cfg);
                        let fold = reference_fold(&reqs, &service, &tenants, &want);
                        for keep_log in [false, true] {
                            let what = format!("{kind}/{cc}/{gpus} gpus, log {keep_log}");
                            let (mode, ..) = observe::cell(&reqs, &table, &cfg, keep_log.then_some(&watch), None, &soak, &mut samples);
                            ensure!(mode.tenants == fold, "{what}:\n  got:  {:?}\n  want: {fold:?}", mode.tenants);
                            ensure_eq!(
                                (mode.end, mode.busy, mode.batches, mode.cold_starts, mode.td),
                                (want.end, want.busy, want.batches, want.cold_starts, want.td)
                            );
                            ensure_eq!((mode.sessions_established, mode.sessions_closed), want.sessions);
                            ensure!(mode.healthy(reqs.len() as u64), "{what}: unhealthy");
                        }

                        // Non-vacuity: admitted batches are the requests
                        // dispatched onto one GPU at one instant, led by
                        // their lowest index. A batch is dequeued from one
                        // (tenant, class) at one instant, so a rejection
                        // whose dequeued batch outnumbers the rejections
                        // of its instant, tenant and class left working
                        // members behind in its batch.
                        let mut heads: BTreeMap<(SimTime, u32), usize> = BTreeMap::new();
                        let mut rejections: BTreeMap<(SimTime, u32, u32), u16> = BTreeMap::new();
                        let key = |i: usize, o: &Outcome| (o.dispatch, reqs[i].tenant, reqs[i].class);
                        for (i, o) in want.outcomes.iter().enumerate() {
                            rejected.set(rejected.get() + u64::from(o.rejected));
                            if o.rejected {
                                *rejections.entry(key(i, o)).or_default() += 1;
                            } else {
                                heads.entry((o.dispatch, o.gpu)).or_insert(i);
                            }
                        }
                        for (i, o) in want.outcomes.iter().enumerate() {
                            if o.rejected {
                                let split = rejections[&key(i, o)] < o.batch;
                                failing_follower.set(failing_follower.get() + u64::from(split));
                                continue;
                            }
                            let h = heads[&(o.dispatch, o.gpu)];
                            if h != i && shape_of[i] != shape_of[h] {
                                other_shape.set(other_shape.get() + 1);
                            }
                        }
                    }
                }
            }
        }
    );
    assert!(rejected.get() > 0, "no request was rejected");
    assert!(
        other_shape.get() > 0,
        "no follower rode another working shape"
    );
    assert!(
        failing_follower.get() > 0,
        "no failing member was rejected out of a batch that ran"
    );
}

/// The final-value check over a whole gauge set: every series ended at
/// zero.
fn every_gauge_ends_at_zero(set: &MetricsSet) -> bool {
    set.gauges.iter().all(|s| s.final_value() == 0)
}

/// The cell step's drained fold agrees with [`every_gauge_ends_at_zero`]
/// on `set` and on every copy of it with one series left stuck at 1.
fn check_drained_fold(set: &MetricsSet, gpus: usize, what: &str) {
    assert_eq!(
        depth_gauges_drained(set, gpus),
        every_gauge_ends_at_zero(set),
        "{what}"
    );
    for i in 0..set.gauges.len() {
        let mut stuck = set.clone();
        let series = &mut stuck.gauges[i];
        let last = series.samples.last().map_or(SimTime::ZERO, |&(t, _)| t);
        series.samples.push((last + SimDuration::from_nanos(1), 1));
        let name = series.name.clone();
        assert!(
            !depth_gauges_drained(&stuck, gpus),
            "{what}: {name} ends at 1 yet the fold says drained"
        );
    }
}

/// `cluster` with the metrics plane on.
fn gauged(cluster: ClusterConfig<'_>) -> ClusterConfig<'_> {
    ClusterConfig {
        planes: Planes::METRICS,
        ..cluster
    }
}

/// Oracle: a finished cell keeps no gauge series, only the drain's own
/// verdicts. Re-draining every cell of a small chaos soak and a small
/// serving soak with `cluster::simulate`, on the same shape table and
/// cluster config with the metrics plane on, recovers the full series:
/// each chaos
/// cell's time-to-recover is the queue series' over its calendar's peak
/// ends, each cell's `gauges_drained()` is the final-value check over
/// the whole `MetricsSet`, and serving cells (no calendar) carry no
/// time-to-recover. The chaos soak is loaded enough that some peak ends
/// with a backlog, so the time-to-recover is not vacuously zero.
#[test]
fn cells_keep_exactly_what_their_depth_gauges_say() {
    let engine = ExperimentEngine::new(2);

    let cfg = ChaosConfig {
        requests: 1_000,
        days: 1,
        gpus: 2,
        profiles: vec![StormProfile::bounce_squall()],
        replicas: 1,
        ..ChaosConfig::default()
    };
    let rep = chaos::run(&cfg, &engine);
    let (requests, storms) = chaos::shape_tables(&cfg, &engine);
    let mut backlogged = false;
    for (prof, storm) in rep.profiles.iter().zip(&storms) {
        let peak_ends = storm.schedule.peak_ends();
        for (cell, table) in prof.cells.iter().zip(&storm.tables) {
            let what = format!("chaos {}/{}", prof.profile.name, cell.policy);
            let run = cluster::simulate(&requests, table, &gauged(cfg.cluster()), Record::Log);
            assert_eq!(cell.mode.end, run.end, "{what}: the re-drain diverged");
            let queue = run.metrics.gauge_series("serving.queue_depth");
            let want = time_to_recover(queue, &peak_ends);
            assert_eq!(cell.mode.ttr, Some(want), "{what}");
            backlogged |= want.max > SimDuration::ZERO;
            assert_eq!(
                cell.mode.gauges_drained(),
                every_gauge_ends_at_zero(&run.metrics),
                "{what}"
            );
            check_drained_fold(&run.metrics, cfg.gpus, &what);
        }
    }
    assert!(
        backlogged,
        "no peak ended with a backlog: the TTR check is vacuous"
    );

    let cfg = ServingConfig {
        requests: 400,
        gpus: 2,
        ..ServingConfig::default()
    };
    let rep = serving::run(&cfg, &engine);
    let (requests, tables) = serving::shape_tables(&cfg, &engine);
    for sched in &rep.runs {
        for mode in &sched.modes {
            let what = format!("serve {}/{}", sched.scheduler, mode.cc);
            let table = &tables[usize::from(mode.cc.is_on())];
            let cluster = gauged(cfg.cluster(sched.scheduler, mode.cc));
            let run = cluster::simulate(&requests, table, &cluster, Record::Log);
            assert_eq!(mode.end, run.end, "{what}: the re-drain diverged");
            assert_eq!(mode.ttr, None, "{what}");
            assert_eq!(
                mode.gauges_drained(),
                every_gauge_ends_at_zero(&run.metrics),
                "{what}"
            );
            check_drained_fold(&run.metrics, cfg.gpus, &what);
        }
    }
}
