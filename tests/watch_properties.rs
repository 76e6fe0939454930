//! Property-based contracts over the SLO watchtower (DESIGN.md §4):
//! the multi-window burn-rate alert rule, incident coalescing, and
//! perturbation-freedom of the rollup plane, checked with the in-repo
//! `hcc-check` harness. Every property pins its seed so CI failures
//! replay bit-for-bit (`HCC_CHECK_SEED=<seed>` overrides).

use hcc_bench::chaos::default_budgets;
use hcc_bench::watch::{observe, Settled, SoakContext, SoakView, WatchConfig};
use hcc_check::strategy::u64s;
use hcc_check::{ensure, ensure_eq, forall, Config};
use hcc_trace::rollup::CompletionSample;
use hcc_types::rng::Xoshiro256;
use hcc_types::{burn_rate_milli, LatencyBudget, SimDuration, SimTime};
use hcc_workloads::default_tenants;

/// A random but sorted completion stream over `tenants` tenants:
/// latencies straddle both tenants' p99 budgets and roughly one in
/// eight requests is rejected, so both bad-event paths are exercised.
fn synth_samples(seed: u64, n: usize, tenants: u32, span_ms: u64) -> Vec<CompletionSample> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut out: Vec<CompletionSample> = (0..n)
        .map(|i| {
            let at = SimTime::from_nanos(rng.next_range(span_ms.max(1) * 1_000_000));
            CompletionSample {
                req: i as u32,
                tenant: rng.next_range(u64::from(tenants)) as u32,
                at,
                latency: SimDuration::from_nanos(rng.next_range(600_000_000)),
                rejected: rng.next_range(8) == 0,
            }
        })
        .collect();
    out.sort_by_key(|s| (s.at, s.req));
    out
}

fn view<'a>(
    tenant_names: &'a [String],
    budgets: &'a [LatencyBudget],
    samples: &'a [CompletionSample],
    horizon: SimTime,
) -> SoakView<'a> {
    SoakView {
        soak: SoakContext {
            tenant_names,
            budgets,
            horizon,
            storm: None,
        },
        settled: Settled::Samples(samples),
        queue: None,
        blame: None,
    }
}

/// The acceptance contract for the alert rule: a tenant's alert fires
/// in a window iff an independent recount of that window's bad events
/// shows the error budget burning at >= the threshold in BOTH the fast
/// window and the trailing slow window. The recount rebuilds the
/// per-window tallies from the raw samples with its own membership
/// test, sharing only `burn_rate_milli` with the implementation.
#[test]
fn alert_fires_iff_both_windows_burn_over_threshold() {
    let tenants = default_tenants(2);
    let names: Vec<String> = tenants.iter().map(|t| t.name.to_string()).collect();
    let budgets = default_budgets(&tenants);
    forall!(
        Config::new(0x5A7C_0001).with_cases(24),
        (seed, n, fast_ms, thr) in (
            u64s(0..u64::MAX),
            u64s(1..400),
            u64s(200..8_000),
            u64s(1_000..20_000)
        ) => {
            let samples = synth_samples(seed, n as usize, 2, 60_000);
            let cfg = WatchConfig {
                fast: SimDuration::from_nanos(fast_ms * 1_000_000),
                slow_factor: 1 + (seed % 8) as u32,
                threshold_milli: thr,
                anomaly_milli: 3_000,
            };
            let horizon = SimTime::from_nanos(60_000 * 1_000_000);
            let report = observe(&cfg, &view(&names, &budgets, &samples, horizon));
            ensure!(!report.windows.is_empty(), "soak produced no windows");

            let wn = report.windows.len();
            let mut bad = vec![vec![0u64; wn]; 2];
            let mut tot = vec![vec![0u64; wn]; 2];
            for s in &samples {
                let wi = report
                    .windows
                    .iter()
                    .position(|r| {
                        s.at >= r.stats.window.start && s.at < r.stats.window.end
                    });
                let Some(wi) = wi else {
                    ensure!(false, "sample at {} fell outside every window", s.at);
                    continue;
                };
                let t = s.tenant as usize;
                tot[t][wi] += 1;
                if s.rejected || s.latency > budgets[t].p99 {
                    bad[t][wi] += 1;
                }
            }

            let slow_n = cfg.slow_factor.max(1) as usize;
            for (wi, row) in report.windows.iter().enumerate() {
                for t in 0..2 {
                    let ppm = budgets[t].error_budget_ppm();
                    let fast = burn_rate_milli(bad[t][wi], tot[t][wi], ppm);
                    let lo = (wi + 1).saturating_sub(slow_n);
                    let slow = burn_rate_milli(
                        bad[t][lo..=wi].iter().sum(),
                        tot[t][lo..=wi].iter().sum(),
                        ppm,
                    );
                    let burn = &row.burns[t];
                    ensure_eq!(burn.fast_milli, fast);
                    ensure_eq!(burn.slow_milli, slow);
                    ensure!(
                        burn.alert
                            == (fast >= cfg.threshold_milli && slow >= cfg.threshold_milli),
                        "w{wi} tenant {t}: alert disagrees with recount \
                         (fast {fast}, slow {slow}, thr {})",
                        cfg.threshold_milli
                    );
                }
            }
        }
    );
}

/// Incidents are exactly the maximal alert streaks: their windows cover
/// every alerting window for their tenant, never a non-alerting one,
/// the windows flanking each streak do not alert, and ids run 1..=n in
/// (first window, tenant) order.
#[test]
fn incidents_are_exactly_the_maximal_alert_streaks() {
    let tenants = default_tenants(2);
    let names: Vec<String> = tenants.iter().map(|t| t.name.to_string()).collect();
    let budgets = default_budgets(&tenants);
    forall!(
        Config::new(0x5A7C_0002).with_cases(24),
        (seed, n) in (u64s(0..u64::MAX), u64s(1..500)) => {
            let samples = synth_samples(seed, n as usize, 2, 45_000);
            let cfg = WatchConfig::default();
            let horizon = SimTime::from_nanos(45_000 * 1_000_000);
            let report = observe(&cfg, &view(&names, &budgets, &samples, horizon));

            let mut covered = vec![[false; 2]; report.windows.len()];
            let mut prev_key = (0usize, 0usize);
            for (k, inc) in report.incidents.iter().enumerate() {
                ensure!(inc.id == k + 1, "incident ids must run 1..=n");
                let key = (inc.first_window, inc.tenant);
                ensure!(
                    k == 0 || key >= prev_key,
                    "timeline not in (first window, tenant) order"
                );
                prev_key = key;
                ensure!(inc.first_window <= inc.last_window, "inverted streak");
                ensure!(
                    inc.last_window < report.windows.len(),
                    "incident #{} ends past the last window",
                    inc.id
                );
                for (wi, cover) in
                    (inc.first_window..).zip(&mut covered[inc.first_window..=inc.last_window])
                {
                    ensure!(
                        report.windows[wi].burns[inc.tenant].alert,
                        "incident #{} covers non-alerting w{wi}",
                        inc.id
                    );
                    cover[inc.tenant] = true;
                }
                // Maximality: the flanking windows must not alert.
                if inc.first_window > 0 {
                    ensure!(
                        !report.windows[inc.first_window - 1].burns[inc.tenant].alert,
                        "streak extends left of incident #{}",
                        inc.id
                    );
                }
                if inc.last_window + 1 < report.windows.len() {
                    ensure!(
                        !report.windows[inc.last_window + 1].burns[inc.tenant].alert,
                        "streak extends right of incident #{}",
                        inc.id
                    );
                }
            }
            for (wi, row) in report.windows.iter().enumerate() {
                for (t, &cover) in covered[wi].iter().enumerate() {
                    ensure!(
                        row.burns[t].alert == cover,
                        "alerting w{wi} tenant {t} missing from the timeline"
                    );
                }
            }
        }
    );
}

/// A calm stream — every latency inside both budgets, nothing rejected
/// — burns zero budget: no alerts, no incidents, max burn 0.
#[test]
fn calm_streams_never_alert() {
    let tenants = default_tenants(2);
    let names: Vec<String> = tenants.iter().map(|t| t.name.to_string()).collect();
    let budgets = default_budgets(&tenants);
    let floor = budgets.iter().map(|b| b.p99).min().unwrap();
    forall!(
        Config::new(0x5A7C_0003).with_cases(16),
        (seed, n) in (u64s(0..u64::MAX), u64s(1..400)) => {
            let mut samples = synth_samples(seed, n as usize, 2, 30_000);
            for s in &mut samples {
                s.rejected = false;
                s.latency = SimDuration::from_nanos(
                    s.latency.as_nanos() % floor.as_nanos().max(1),
                );
            }
            let cfg = WatchConfig::default();
            let horizon = SimTime::from_nanos(30_000 * 1_000_000);
            let report = observe(&cfg, &view(&names, &budgets, &samples, horizon));
            ensure_eq!(report.alerts(), 0);
            ensure_eq!(report.incidents.len(), 0);
            ensure_eq!(report.max_burn_milli(), 0);
        }
    );
}

/// Order-independence: the watch reads its settled population by index
/// through a window index, so listing the same settlements in a seeded
/// shuffle (or reversed) renders and exports exactly what the canonical
/// `(settle, req)` order does, queue integrals included, over a horizon
/// the settlements run past. Every odd
/// window is emptied onto the edge `k × fast` of the window before it,
/// and half of the rest settle exactly on their window's edge; each
/// window's settled count matches a half-open `[start, end)` recount.
#[test]
fn observe_is_independent_of_the_settled_order() {
    use hcc_trace::rollup::WindowIntegrals;
    use hcc_types::json::ToJson;

    let tenants = default_tenants(2);
    let names: Vec<String> = tenants.iter().map(|t| t.name.to_string()).collect();
    let budgets = default_budgets(&tenants);
    forall!(
        Config::new(0x5A7C_0004).with_cases(24),
        (seed, n, fast_ms) in (u64s(0..u64::MAX), u64s(0..300), u64s(1..2_000)) => {
            let fast = SimDuration::from_nanos(fast_ms * 1_000_000);
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let mut samples = synth_samples(seed, n as usize, 2, 60_000);
            let width = fast.as_nanos();
            for s in &mut samples {
                let k = s.at.as_nanos() / width;
                if k % 2 == 1 {
                    s.at = SimTime::from_nanos((k - 1) * width);
                } else if rng.next_range(2) == 0 {
                    s.at = SimTime::from_nanos(k * width);
                }
            }
            samples.sort_by_key(|s| (s.at, s.req));
            let mut shuffled = samples.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.next_range(i as u64 + 1) as usize);
            }
            let reversed: Vec<_> = samples.iter().rev().copied().collect();
            let mut queue = WindowIntegrals::new(fast);
            for k in 0..40u64 {
                queue.step(SimTime::from_nanos(k * 1_500_000_000), rng.next_range(6));
            }
            let cfg = WatchConfig { fast, ..WatchConfig::default() };
            // A horizon short of the settlements: the last one ends the
            // timeline, whichever position it is listed at.
            let horizon = SimTime::from_nanos(rng.next_range(60_000) * 1_000_000);
            let seen = |listed: &[hcc_trace::rollup::CompletionSample]| {
                let report = observe(
                    &cfg,
                    &SoakView { queue: Some(&queue), ..view(&names, &budgets, listed, horizon) },
                );
                let text = (report.render(), report.to_json_string(), report.to_prometheus());
                (report, text)
            };
            let (canonical, text) = seen(&samples);
            ensure!(seen(&shuffled).1 == text, "a shuffled listing reads differently");
            ensure!(seen(&reversed).1 == text, "a reversed listing reads differently");
            let empty = canonical.windows.iter().filter(|w| w.stats.total() == 0).count();
            ensure!(canonical.windows.len() < 2 || empty > 0, "no empty window");
            for row in &canonical.windows {
                let w = row.stats.window;
                let inside = samples.iter().filter(|s| w.start <= s.at && s.at < w.end).count();
                ensure_eq!((w.index, row.stats.total()), (w.index, inside as u64));
            }
        }
    );
}
