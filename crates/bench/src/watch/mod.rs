//! SLO watchtower: multi-window burn-rate alerting, queue anomaly
//! detection, and storm-correlated incident timelines over virtual-time
//! soaks.
//!
//! The serving and chaos planes end a 30-day soak with one CDF and one
//! PASS/FAIL verdict; this layer keeps the *when*: request completions
//! ([`hcc_trace::rollup`] samples) are rolled into tumbling fast
//! windows, each tenant's [`LatencyBudget`]-derived error budget is
//! tracked per window, and an alert fires only when budget consumption
//! exceeds the threshold in **both** the fast window and the trailing
//! slow window ([`hcc_types::slo::BurnPair`]). Consecutive alerting
//! windows coalesce into an [`Incident`], which is then correlated
//! against the active [`StormSchedule`] episode and blamed on the
//! dominant critical-path resource class of requests completing inside
//! it — "incident #1: tenant chat, burning 14×, storm crypto-burst@peak
//! ep3, blame crypto 61%".
//!
//! Everything runs on the virtual clock over a finished cluster run's
//! outcome log, read in place through a [`rollup::WindowIndex`] (4 B per
//! request), with the queue-depth integrals the drain folded per window.
//! A watch report is a pure function of the soak's inputs:
//! byte-identical across `HCC_ENGINE_THREADS`, independent of the order
//! the settled requests are listed in, and absent entirely (zero cost)
//! when the plane is off.

pub mod front;
pub mod report;

use hcc_trace::critpath::ResourceClass;
use hcc_trace::rollup::{self, CompletionSample, WindowIndex, WindowIntegrals};
use hcc_trace::{FlightConfig, FlightLog};
use hcc_types::slo::burn_rate_milli;
use hcc_types::{BurnPair, LatencyBudget, SimDuration, SimTime, StormIntensity, StormSchedule};

use crate::chaos::{self, ChaosConfig, ChaosReport};
use crate::cli::{env_u64, CliError};
use crate::engine::ExperimentEngine;
use crate::serving::arrival::Request;
use crate::serving::cluster::Outcome;
use crate::serving::{self, ServingConfig, ServingReport, ShapeTable};

pub use report::{Incident, IncidentBlame, IncidentStorm, TenantBurn, WatchReport, WindowRow};

/// Environment variable overriding the fast-window width, in virtual
/// milliseconds.
pub const FAST_MS_ENV: &str = "HCC_WATCH_FAST_MS";

/// Environment variable overriding the slow-window factor.
pub const SLOW_FACTOR_ENV: &str = "HCC_WATCH_SLOW_FACTOR";

/// Environment variable overriding the alert threshold, in milli-x burn
/// (4000 = alert at 4× the budgeted error rate).
pub const BURN_ENV: &str = "HCC_WATCH_BURN_MILLI";

/// Environment variable overriding the queue anomaly factor, in milli-x
/// of the soak-wide mean queue depth.
pub const ANOMALY_ENV: &str = "HCC_WATCH_ANOMALY_MILLI";

/// Watchtower knobs: the burn-rate window pair and the queue anomaly
/// factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchConfig {
    /// Fast (tumbling) window width in virtual time.
    pub fast: SimDuration,
    /// Slow window width as a multiple of `fast` (trailing).
    pub slow_factor: u32,
    /// Burn-rate alert threshold in milli-x (1000 = budgeted rate).
    pub threshold_milli: u64,
    /// Queue anomaly threshold: a window is anomalous when its mean
    /// queue depth reaches this many milli-x of the soak-wide mean.
    pub anomaly_milli: u64,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            // 5 virtual seconds against the chaos lab's compressed
            // 60-second day plays the role of the SRE workbook's
            // 5-minute fast window against a real day.
            fast: SimDuration::secs(5),
            slow_factor: 6,
            threshold_milli: 4_000,
            anomaly_milli: 3_000,
        }
    }
}

impl WatchConfig {
    /// Applies the `HCC_WATCH_*` environment overrides; a value that is
    /// not an integer is refused.
    pub fn from_env(mut self) -> Result<Self, CliError> {
        if let Some(ms) = env_u64(FAST_MS_ENV)? {
            self.fast = SimDuration::millis(ms.max(1));
        }
        if let Some(f) = env_u64(SLOW_FACTOR_ENV)? {
            self.slow_factor = f.clamp(1, 1_000) as u32;
        }
        if let Some(m) = env_u64(BURN_ENV)? {
            self.threshold_milli = m.max(1);
        }
        if let Some(m) = env_u64(ANOMALY_ENV)? {
            self.anomaly_milli = m.max(1);
        }
        Ok(self)
    }

    /// The fast/slow pair this config alerts on.
    #[must_use]
    pub fn pair(&self) -> BurnPair {
        BurnPair {
            fast: self.fast,
            slow_factor: self.slow_factor.max(1),
            threshold_milli: self.threshold_milli,
        }
    }
}

/// The canonical stormy watch soak: a crypto-burst calendar over a
/// 4-day, 2-GPU chaos run under the Abort policy, whose mass rejections
/// in peak windows burn every tenant's error budget well past the 4×
/// alert threshold — `hcc_lab watch`'s default and the golden
/// fixture's incident polarity.
#[must_use]
pub fn stormy_soak() -> ChaosConfig {
    ChaosConfig {
        requests: 4_000,
        days: 4,
        gpus: 2,
        replicas: 1,
        profiles: vec![hcc_types::StormProfile::crypto_burst()],
        policies: vec![hcc_types::RecoveryPolicy::Abort],
        watch: Some(WatchConfig::default()),
        ..ChaosConfig::default()
    }
}

/// The canonical calm watch soak: a low-utilization Poisson serving run
/// with no storm calendar, whose timeline stays empty — the golden
/// fixture's quiet polarity (`hcc_lab watch --serve`).
#[must_use]
pub fn calm_soak() -> ServingConfig {
    ServingConfig {
        requests: 3_000,
        gpus: 4,
        target_util: 0.15,
        schedulers: vec![serving::SchedulerKind::Fifo],
        watch: Some(WatchConfig::default()),
        ..ServingConfig::default()
    }
}

/// One of the two canonical soaks, each with a single observed cell:
/// the calm serving soak ([`calm_soak`]; its first scheduler's CC-on
/// run) or the stormy chaos soak ([`stormy_soak`]; its first profile
/// and policy). [`Canonical`] configures one, [`CanonicalReport`] is its
/// report.
#[derive(Debug, Clone)]
pub enum Soak<Calm, Stormy> {
    /// The calm serving soak.
    Calm(Calm),
    /// The stormy chaos soak.
    Stormy(Stormy),
}

/// A canonical soak, resized and with its planes set as the caller
/// likes.
pub type Canonical = Soak<ServingConfig, ChaosConfig>;

/// A canonical soak's report, its observed cell's planes moved out.
pub type CanonicalReport = Soak<ServingReport, ChaosReport>;

/// What [`Canonical::run`] hands back: the soak's report with the
/// observed cell's planes moved out, whether the soak passed its
/// structural checks ([`ServingReport::healthy`] or
/// [`ChaosReport::healthy`]), and the planes (each `None` when off).
#[derive(Debug)]
pub struct Observed {
    pub report: CanonicalReport,
    pub healthy: bool,
    pub watch: Option<WatchReport>,
    pub flight: Option<FlightLog>,
}

impl Canonical {
    /// The soak's request count: its requests' ids run below it.
    pub fn requests(&self) -> u64 {
        match self {
            Soak::Calm(cfg) => cfg.requests,
            Soak::Stormy(cfg) => cfg.requests,
        }
    }

    /// The same soak with the flight recorder set to `flight`.
    #[must_use]
    pub fn with_flight(mut self, flight: Option<FlightConfig>) -> Self {
        match &mut self {
            Soak::Calm(cfg) => cfg.flight = flight,
            Soak::Stormy(cfg) => cfg.flight = flight,
        }
        self
    }

    /// Runs the soak on `engine` and moves its observed cell's planes
    /// out of the report.
    pub fn run(&self, engine: &ExperimentEngine) -> Observed {
        let (healthy, report, (watch, flight)) = match self {
            Soak::Calm(cfg) => {
                let mut rep = serving::run(cfg, engine);
                let run = &mut rep.runs[0];
                let planes = (run.watch.take(), run.flight.take());
                (rep.healthy(), Soak::Calm(rep), planes)
            }
            Soak::Stormy(cfg) => {
                let mut rep = chaos::run(cfg, engine);
                let cell = &mut rep.profiles[0].cells[0];
                let planes = (cell.watch.take(), cell.flight.take());
                (rep.healthy(), Soak::Stormy(rep), planes)
            }
        };
        Observed {
            report,
            healthy,
            watch,
            flight,
        }
    }
}

/// The storm calendar a soak ran under, for incident correlation.
#[derive(Debug, Clone, Copy)]
pub struct StormContext<'a> {
    /// Profile name (e.g. `crypto-burst`).
    pub profile: &'a str,
    /// The calendar requests were assigned intensities from.
    pub schedule: &'a StormSchedule,
}

/// What the watchtower knows of a soak beyond its settled requests.
#[derive(Debug, Clone, Copy)]
pub struct SoakContext<'a> {
    /// Tenant labels, in population order.
    pub tenant_names: &'a [String],
    /// Per-tenant SLO budgets, aligned with `tenant_names`.
    pub budgets: &'a [LatencyBudget],
    /// Window generation bound (the configured horizon; extended to the
    /// makespan automatically when completions run past it).
    pub horizon: SimTime,
    /// Storm calendar, when the soak ran under one.
    pub storm: Option<StormContext<'a>>,
}

/// The settled requests the watchtower reads, by request index.
#[derive(Debug, Clone, Copy)]
pub enum Settled<'a> {
    /// A finished drain, read in place: request `i` arrived as
    /// `requests[i]` and settled as `outcomes[i]`.
    Drain {
        requests: &'a [Request],
        outcomes: &'a [Outcome],
    },
    /// Settled samples, listed in any order.
    Samples(&'a [CompletionSample]),
}

impl Settled<'_> {
    /// How many requests settled.
    pub fn len(&self) -> usize {
        match self {
            Settled::Drain { outcomes, .. } => outcomes.len(),
            Settled::Samples(samples) => samples.len(),
        }
    }

    /// Whether nothing settled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// When entry `i` settled: its completion (its dispatch, for
    /// rejections).
    pub fn settle(&self, i: usize) -> SimTime {
        match self {
            Settled::Drain { outcomes, .. } => outcomes[i].completion,
            Settled::Samples(samples) => samples[i].at,
        }
    }

    /// Entry `i` as a rollup sample.
    pub fn sample(&self, i: usize) -> CompletionSample {
        match self {
            Settled::Drain { requests, outcomes } => CompletionSample {
                req: i as u32,
                tenant: requests[i].tenant,
                at: outcomes[i].completion,
                latency: outcomes[i].completion.saturating_since(requests[i].arrival),
                rejected: outcomes[i].rejected,
            },
            Settled::Samples(samples) => samples[i],
        }
    }
}

/// Everything the watchtower observes about one finished soak.
#[derive(Debug, Clone, Copy)]
pub struct SoakView<'a> {
    /// Tenants, budgets, horizon and storm calendar.
    pub soak: SoakContext<'a>,
    /// The settled requests.
    pub settled: Settled<'a>,
    /// The cluster queue depth's integral per fast window, for anomaly
    /// detection; its width must be the config's `fast`.
    pub queue: Option<&'a WindowIntegrals>,
    /// The soak's analysed shape table, for incident blame: each
    /// request blames its shape's critical-path attribution (aborted
    /// shapes carry a zero attribution).
    pub blame: Option<&'a ShapeTable>,
}

/// Rolls a soak into the full watch report: per-window rollups,
/// per-tenant burn rates and alerts, queue anomalies, and the coalesced
/// incident timeline.
pub fn observe(cfg: &WatchConfig, view: &SoakView<'_>) -> WatchReport {
    let tenants = view.soak.tenant_names.len();
    assert_eq!(tenants, view.soak.budgets.len(), "one budget per tenant");

    let settled = &view.settled;
    let end = (0..settled.len())
        .map(|i| settled.settle(i))
        .max()
        .map_or(SimTime::ZERO, |last| {
            SimTime::from_nanos(last.as_nanos() + 1)
        })
        .max(view.soak.horizon);
    let windows = rollup::tumbling(end, cfg.fast);
    let index = WindowIndex::build(end, cfg.fast, settled.len(), |i| settled.settle(i));
    let sample = |i: u32| settled.sample(i as usize);
    let stats = rollup::window_stats(&windows, &index, sample);
    let pair = cfg.pair();

    // Per-tenant, per-window bad-event and settled-request counts. A bad
    // event is a rejection or a p99-budget miss (hcc_types::slo).
    let mut bad = vec![vec![0u64; windows.len()]; tenants];
    let mut tot = vec![vec![0u64; windows.len()]; tenants];
    for wi in 0..windows.len() {
        for s in index.window(wi).iter().map(|&i| sample(i)) {
            let t = s.tenant as usize;
            tot[t][wi] += 1;
            if view.soak.budgets[t].is_bad(s.latency, s.rejected) {
                bad[t][wi] += 1;
            }
        }
    }

    let total_span = end.as_nanos();
    let queue: Option<Vec<u64>> = view.queue.map(|q| {
        assert_eq!(q.width(), cfg.fast, "queue integrals over the fast windows");
        windows.iter().map(|w| q.over(w).as_nanos()).collect()
    });
    let total_integral: u64 = queue.iter().flatten().sum();

    let slow_n = cfg.slow_factor.max(1) as usize;
    let mut rows: Vec<WindowRow> = Vec::with_capacity(windows.len());
    for (wi, w) in windows.iter().enumerate() {
        let mut burns = Vec::with_capacity(tenants);
        for t in 0..tenants {
            let budget_ppm = view.soak.budgets[t].error_budget_ppm();
            let fast_milli = burn_rate_milli(bad[t][wi], tot[t][wi], budget_ppm);
            let lo = wi + 1 - slow_n.min(wi + 1);
            let slow_bad: u64 = bad[t][lo..=wi].iter().sum();
            let slow_tot: u64 = tot[t][lo..=wi].iter().sum();
            let slow_milli = burn_rate_milli(slow_bad, slow_tot, budget_ppm);
            burns.push(TenantBurn {
                bad: bad[t][wi],
                total: tot[t][wi],
                fast_milli,
                slow_milli,
                alert: pair.fires(fast_milli, slow_milli),
            });
        }
        // Queue anomaly, in pure integer cross-multiplication:
        // window_mean >= soak_mean * anomaly_milli / 1000.
        let (queue_mean_milli, anomaly) = match &queue {
            Some(q) if total_span > 0 => {
                let w_int = q[wi];
                let width = w.width().as_nanos().max(1);
                let mean_milli = (u128::from(w_int) * 1_000 / u128::from(width)) as u64;
                let lhs = u128::from(w_int) * u128::from(total_span) * 1_000;
                let rhs =
                    u128::from(total_integral) * u128::from(width) * u128::from(cfg.anomaly_milli);
                (mean_milli, total_integral > 0 && w_int > 0 && lhs >= rhs)
            }
            _ => (0, false),
        };
        rows.push(WindowRow {
            stats: stats[wi].clone(),
            queue_mean_milli,
            anomaly,
            burns,
        });
    }

    // Incident timeline: per tenant, each maximal streak of alerting
    // windows is one incident; ids assigned in (first window, tenant)
    // order so the log reads chronologically.
    let mut incidents = Vec::new();
    for t in 0..tenants {
        let mut wi = 0;
        while wi < rows.len() {
            if rows[wi].burns[t].alert {
                let first = wi;
                while wi < rows.len() && rows[wi].burns[t].alert {
                    wi += 1;
                }
                incidents.push(build_incident(
                    view,
                    &windows,
                    &index,
                    &rows,
                    t,
                    first,
                    wi - 1,
                ));
            } else {
                wi += 1;
            }
        }
    }
    incidents.sort_by_key(|i| (i.first_window, i.tenant));
    for (k, inc) in incidents.iter_mut().enumerate() {
        inc.id = k + 1;
    }

    WatchReport {
        cfg: *cfg,
        tenant_names: view.soak.tenant_names.to_vec(),
        budgets: view.soak.budgets.to_vec(),
        windows: rows,
        incidents,
    }
}

/// Resolves one alert streak into an [`Incident`]: peak burn, the
/// hottest storm intensity its windows overlapped, and the dominant
/// critical-path resource among its completing requests.
fn build_incident(
    view: &SoakView<'_>,
    windows: &[rollup::Window],
    index: &WindowIndex,
    rows: &[WindowRow],
    tenant: usize,
    first: usize,
    last: usize,
) -> Incident {
    let mut peak_burn = 0u64;
    for row in &rows[first..=last] {
        peak_burn = peak_burn.max(row.burns[tenant].fast_milli);
    }

    let storm = view.soak.storm.as_ref().and_then(|sc| {
        let mut best: Option<(StormIntensity, u32)> = None;
        for w in &windows[first..=last] {
            let mid = w.mid();
            let intensity = sc.schedule.intensity_at(mid);
            if intensity == StormIntensity::Calm {
                continue;
            }
            let episode = sc.schedule.episode_at(mid).unwrap_or(0);
            if best.is_none_or(|(b, _)| intensity.index() > b.index()) {
                best = Some((intensity, episode));
            }
        }
        best.map(|(intensity, episode)| IncidentStorm {
            profile: sc.profile.to_string(),
            intensity,
            episode,
        })
    });

    let blame = view.blame.and_then(|table| {
        let mut totals = [SimDuration::ZERO; ResourceClass::COUNT];
        for s in index
            .span(first, last)
            .iter()
            .map(|&i| view.settled.sample(i as usize))
        {
            if s.rejected || s.tenant as usize != tenant {
                continue;
            }
            let Some(decomp) = table.decomp(s.req as usize) else {
                continue;
            };
            for (k, (_, d)) in decomp.attr.iter().enumerate() {
                totals[k] += d;
            }
        }
        let total: SimDuration = totals.iter().copied().sum();
        if total.is_zero() {
            return None;
        }
        let mut top = 0usize;
        for (k, &d) in totals.iter().enumerate() {
            if d > totals[top] {
                top = k;
            }
        }
        Some(IncidentBlame {
            class: ResourceClass::ALL[top],
            critical: totals[top],
            pct: totals[top].as_nanos() * 100 / total.as_nanos(),
        })
    });

    Incident {
        id: 0,
        tenant,
        first_window: first,
        last_window: last,
        start: windows[first].start,
        end: windows[last].end,
        peak_burn_milli: peak_burn,
        storm,
        blame,
        exemplars: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(SimDuration::millis(ms).as_nanos())
    }

    fn budget() -> LatencyBudget {
        LatencyBudget {
            p99: SimDuration::millis(10),
            p999: SimDuration::millis(20),
            max_reject_ppm: 90_000,
        }
    }

    /// Observes a one-tenant (`solo`, [`budget`]) soak with no blame.
    fn observe_solo(
        cfg: &WatchConfig,
        samples: &[CompletionSample],
        horizon: SimTime,
        queue: Option<&WindowIntegrals>,
        storm: Option<StormContext<'_>>,
    ) -> WatchReport {
        let view = SoakView {
            soak: SoakContext {
                tenant_names: &["solo".to_string()],
                budgets: &[budget()],
                horizon,
                storm,
            },
            settled: Settled::Samples(samples),
            queue,
            blame: None,
        };
        observe(cfg, &view)
    }

    /// 10 requests per 100ms window; windows 3 and 4 are all-bad.
    fn storm_samples() -> Vec<CompletionSample> {
        let mut out = Vec::new();
        let mut req = 0u32;
        for w in 0..8u64 {
            for k in 0..10u64 {
                let bad = w == 3 || w == 4;
                out.push(CompletionSample {
                    req,
                    tenant: 0,
                    at: t(w * 100 + k * 10),
                    latency: SimDuration::millis(if bad { 50 } else { 1 }),
                    rejected: false,
                });
                req += 1;
            }
        }
        out
    }

    fn cfg() -> WatchConfig {
        WatchConfig {
            fast: SimDuration::millis(100),
            slow_factor: 4,
            threshold_milli: 2_000,
            anomaly_milli: 3_000,
        }
    }

    #[test]
    fn alerts_need_both_windows_and_coalesce_into_one_incident() {
        let samples = storm_samples();
        let rep = observe_solo(&cfg(), &samples, t(800), None, None);
        assert_eq!(rep.windows.len(), 8);
        // Fast burn in the bad windows: 10/10 bad against a 10% budget
        // = 10x. Slow (4-window trailing) at w3: 10/40 bad = 2.5x ≥ 2x.
        let alerts: Vec<bool> = rep.windows.iter().map(|w| w.burns[0].alert).collect();
        assert_eq!(
            alerts,
            vec![false, false, false, true, true, false, false, false]
        );
        assert_eq!(rep.windows[3].burns[0].fast_milli, 10_000);
        assert_eq!(rep.windows[3].burns[0].slow_milli, 2_500);
        // One incident spanning both alerting windows.
        assert_eq!(rep.incidents.len(), 1);
        let inc = &rep.incidents[0];
        assert_eq!(inc.id, 1);
        assert_eq!((inc.first_window, inc.last_window), (3, 4));
        assert_eq!(inc.peak_burn_milli, 10_000);
        assert!(inc.storm.is_none());
        assert!(inc.blame.is_none());
    }

    #[test]
    fn slow_window_vetoes_a_lone_spike() {
        // One all-bad window in an otherwise calm soak: fast burns hard
        // but the trailing slow window stays under threshold.
        let mut samples = Vec::new();
        for w in 0..8u64 {
            for k in 0..10u64 {
                samples.push(CompletionSample {
                    req: (w * 10 + k) as u32,
                    tenant: 0,
                    at: t(w * 100 + k * 10),
                    latency: SimDuration::millis(if w == 5 { 50 } else { 1 }),
                    rejected: false,
                });
            }
        }
        let wcfg = WatchConfig {
            threshold_milli: 3_000,
            ..cfg()
        };
        let rep = observe_solo(&wcfg, &samples, t(800), None, None);
        // Fast hits 10x at w5 but slow = 10/40 = 2.5x < 3x: no alert.
        assert_eq!(rep.windows[5].burns[0].fast_milli, 10_000);
        assert!(!rep.windows[5].burns[0].alert);
        assert_eq!(rep.incidents.len(), 0);
        assert_eq!(rep.alerts(), 0);
    }

    #[test]
    fn empty_soak_produces_an_empty_timeline() {
        let rep = observe_solo(&WatchConfig::default(), &[], SimTime::ZERO, None, None);
        assert!(rep.windows.is_empty());
        assert!(rep.incidents.is_empty());
        assert_eq!(rep.alerts(), 0);
        assert_eq!(rep.max_burn_milli(), 0);
    }

    #[test]
    fn incidents_correlate_against_the_storm_calendar() {
        let samples = storm_samples();
        // Hand-built calendar: one episode covering [300, 500) peaking
        // exactly where the bad windows are.
        let schedule = StormSchedule {
            windows: vec![
                hcc_types::StormWindow {
                    start: t(0),
                    end: t(300),
                    intensity: StormIntensity::Calm,
                },
                hcc_types::StormWindow {
                    start: t(300),
                    end: t(320),
                    intensity: StormIntensity::Rising,
                },
                hcc_types::StormWindow {
                    start: t(320),
                    end: t(500),
                    intensity: StormIntensity::Peak,
                },
                hcc_types::StormWindow {
                    start: t(500),
                    end: t(800),
                    intensity: StormIntensity::Calm,
                },
            ],
            horizon: t(800),
        };
        let rep = observe_solo(
            &cfg(),
            &samples,
            t(800),
            None,
            Some(StormContext {
                profile: "crypto-burst",
                schedule: &schedule,
            }),
        );
        let storm = rep.incidents[0].storm.as_ref().expect("storm-correlated");
        assert_eq!(storm.profile, "crypto-burst");
        assert_eq!(storm.intensity, StormIntensity::Peak);
        assert_eq!(storm.episode, 1);
        assert_eq!(rep.storm_correlated(), 1);
    }

    #[test]
    fn queue_anomalies_flag_windows_far_above_the_soak_mean() {
        let samples = storm_samples();
        // Queue holds depth 1 mostly, depth 20 inside [300, 500).
        let mut queue = WindowIntegrals::new(cfg().fast);
        for (at, depth) in [(0, 1), (300, 20), (500, 1), (800, 0)] {
            queue.step(t(at), depth);
        }
        let rep = observe_solo(&cfg(), &samples, t(800), Some(&queue), None);
        let flags: Vec<bool> = rep.windows.iter().map(|w| w.anomaly).collect();
        assert_eq!(
            flags,
            vec![false, false, false, true, true, false, false, false]
        );
        assert_eq!(rep.windows[3].queue_mean_milli, 20_000);
        assert_eq!(rep.anomalies(), 2);
    }

    #[test]
    fn observe_is_a_pure_function_of_the_view() {
        let samples = storm_samples();
        let a = observe_solo(&cfg(), &samples, t(800), None, None);
        let b = observe_solo(&cfg(), &samples, t(800), None, None);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_prometheus(), b.to_prometheus());
    }
}
