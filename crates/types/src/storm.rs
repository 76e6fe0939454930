//! Storm and latency-budget specifications for the chaos lab.
//!
//! A [`StormProfile`] names a *correlated* fault storm — a cluster of
//! per-site peak rates over the existing [`FaultSite`]s that escalate
//! together (bounce-pool exhaustion waves drag GCM retries with them, UVM
//! thrash flaps the channel ring, …). A [`StormSchedule`] tiles a
//! virtual-time horizon with calm / rising / peak windows drawn from a
//! decorrelated RNG stream, so the same seed always replays the same
//! storm calendar regardless of what the traffic layer draws. A
//! [`LatencyBudget`] is the per-tenant SLO contract the chaos report
//! renders verdicts against.
//!
//! Everything here is pure data plus deterministic generation: the chaos
//! harness (`hcc_bench::chaos`) composes these specs with the serving
//! cluster's event loop.

use crate::fault::{FaultPlan, FaultSite};
use crate::rng::Xoshiro256;
use crate::{SimDuration, SimTime};

/// Decorrelation constants for the storm-calendar stream. Distinct from
/// the [`crate::FaultInjector`] mixing constants so a storm schedule and
/// the per-operation fault draws can never alias even under equal seeds.
const STORM_MIX_MUL: u64 = 0xD1B5_4A32_D192_ED03;
const STORM_MIX_XOR: u64 = 0x5707_3A5B_91AC_C521;

/// How hard a storm is blowing inside one schedule window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StormIntensity {
    /// No storm: the empty fault plan, zero injector draws.
    Calm,
    /// Shoulder of an episode: peak rates scaled down.
    Rising,
    /// Full storm: the profile's peak rates.
    Peak,
}

impl StormIntensity {
    /// Number of distinct intensities.
    pub const COUNT: usize = 3;

    /// Every intensity, in escalation order.
    pub const ALL: [StormIntensity; StormIntensity::COUNT] = [
        StormIntensity::Calm,
        StormIntensity::Rising,
        StormIntensity::Peak,
    ];

    /// Stable index into per-intensity tables.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            StormIntensity::Calm => 0,
            StormIntensity::Rising => 1,
            StormIntensity::Peak => 2,
        }
    }

    /// Short stable name (used in reports and goldens).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StormIntensity::Calm => "calm",
            StormIntensity::Rising => "rising",
            StormIntensity::Peak => "peak",
        }
    }
}

impl std::fmt::Display for StormIntensity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A named, correlated fault storm: per-site rates at peak intensity plus
/// the scale-down factor applied on the rising shoulders.
#[derive(Debug, Clone, PartialEq)]
pub struct StormProfile {
    /// Stable name (used in CLI flags, reports, and goldens).
    pub name: &'static str,
    /// Per-site fault probability at [`StormIntensity::Peak`], indexed by
    /// [`FaultSite::index`].
    pub peak: [f64; FaultSite::COUNT],
    /// Factor applied to `peak` during [`StormIntensity::Rising`].
    pub rising_frac: f64,
    /// Per-site injection cap folded into the generated [`FaultPlan`]s
    /// (0 = unlimited).
    pub max_per_site: u32,
}

impl StormProfile {
    /// Bounce-pool exhaustion wave: swiotlb reserve failures dominate and
    /// drag correlated GCM re-staging failures along.
    #[must_use]
    pub fn bounce_squall() -> Self {
        let mut peak = [0.0; FaultSite::COUNT];
        peak[FaultSite::BounceExhausted.index()] = 0.60;
        peak[FaultSite::GcmTagH2D.index()] = 0.08;
        peak[FaultSite::GcmTagD2H.index()] = 0.08;
        StormProfile {
            name: "bounce-squall",
            peak,
            rising_frac: 0.35,
            max_per_site: 12,
        }
    }

    /// Crypto-queue saturation burst: AES-GCM tag failures in both
    /// staging directions, with mild bounce-pool backpressure.
    #[must_use]
    pub fn crypto_burst() -> Self {
        let mut peak = [0.0; FaultSite::COUNT];
        peak[FaultSite::GcmTagH2D.index()] = 0.45;
        peak[FaultSite::GcmTagD2H.index()] = 0.45;
        peak[FaultSite::BounceExhausted.index()] = 0.10;
        StormProfile {
            name: "crypto-burst",
            peak,
            rising_frac: 0.35,
            max_per_site: 10,
        }
    }

    /// UVM thrash episode: migration failures while servicing far
    /// faults, with correlated ring-doorbell pressure.
    #[must_use]
    pub fn uvm_thrash() -> Self {
        let mut peak = [0.0; FaultSite::COUNT];
        peak[FaultSite::UvmMigration.index()] = 0.55;
        peak[FaultSite::RingDoorbell.index()] = 0.08;
        StormProfile {
            name: "uvm-thrash",
            peak,
            rising_frac: 0.35,
            max_per_site: 12,
        }
    }

    /// Ring-doorbell flap: kernel-submit doorbell drops dominate, with a
    /// trickle of UVM collateral.
    #[must_use]
    pub(crate) fn ring_flap() -> Self {
        let mut peak = [0.0; FaultSite::COUNT];
        peak[FaultSite::RingDoorbell.index()] = 0.50;
        peak[FaultSite::UvmMigration.index()] = 0.05;
        StormProfile {
            name: "ring-flap",
            peak,
            rising_frac: 0.35,
            max_per_site: 10,
        }
    }

    /// Every built-in profile, in a stable order.
    #[must_use]
    pub fn builtin() -> Vec<StormProfile> {
        vec![
            StormProfile::bounce_squall(),
            StormProfile::crypto_burst(),
            StormProfile::uvm_thrash(),
            StormProfile::ring_flap(),
        ]
    }

    /// Looks up a built-in profile by [`StormProfile::name`].
    #[must_use]
    pub fn by_name(name: &str) -> Option<StormProfile> {
        StormProfile::builtin().into_iter().find(|p| p.name == name)
    }

    /// The [`FaultPlan`] this storm injects at `intensity`. Calm windows
    /// return the empty plan (zero injector draws), so calm traffic is
    /// bit-identical to a fault-free run.
    #[must_use]
    pub fn plan(&self, intensity: StormIntensity, plan_seed: u64) -> FaultPlan {
        let factor = match intensity {
            StormIntensity::Calm => return FaultPlan::none(),
            StormIntensity::Rising => self.rising_frac,
            StormIntensity::Peak => 1.0,
        };
        let mut rates = [0.0; FaultSite::COUNT];
        for site in FaultSite::ALL {
            rates[site.index()] = (self.peak[site.index()] * factor).clamp(0.0, 1.0);
        }
        FaultPlan {
            seed: plan_seed,
            rates,
            max_per_site: self.max_per_site,
        }
    }

    /// Stable fingerprint (folded into schedule seeds and report hashes).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::hash::Fnv64::new();
        h.write_str(self.name);
        for site in FaultSite::ALL {
            h.write_f64(self.peak[site.index()]);
        }
        h.write_f64(self.rising_frac);
        h.write_u32(self.max_per_site);
        h.finish()
    }
}

impl std::fmt::Display for StormProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name)
    }
}

/// One contiguous window of a storm calendar: `[start, end)` at a fixed
/// intensity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormWindow {
    /// Inclusive virtual-time start of the window.
    pub start: SimTime,
    /// Exclusive virtual-time end of the window.
    pub end: SimTime,
    /// Intensity over the whole window.
    pub intensity: StormIntensity,
}

impl StormWindow {
    /// Window length.
    #[must_use]
    pub fn len(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// True when the window covers no time.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// A seeded storm calendar: contiguous [`StormWindow`]s tiling
/// `[0, horizon)` exactly — no gaps, no overlap — generated from a
/// decorrelated RNG stream so the same `(seed, horizon, episodes)` triple
/// always replays the same calendar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormSchedule {
    /// Sorted, contiguous windows covering the full horizon.
    pub windows: Vec<StormWindow>,
    /// Exclusive end of the calendar; times at or past it are calm.
    pub horizon: SimTime,
}

impl StormSchedule {
    /// Generates a calendar with `episodes` storm episodes spread over
    /// `horizon`. Each episode is a rising → peak → rising escalation
    /// placed at a seeded offset inside its equal-width slot; everything
    /// between episodes is calm. A zero horizon or zero episode count
    /// yields an all-calm calendar.
    #[must_use]
    pub fn generate(seed: u64, horizon: SimDuration, episodes: u32) -> StormSchedule {
        let horizon_ns = horizon.as_nanos();
        let horizon_t = SimTime::from_nanos(horizon_ns);
        // Each episode needs at least its four sub-window boundaries to
        // land on distinct nanoseconds.
        let episodes = u64::from(episodes).min(horizon_ns / 16);
        if episodes == 0 {
            let windows = if horizon_ns == 0 {
                Vec::new()
            } else {
                vec![StormWindow {
                    start: SimTime::ZERO,
                    end: horizon_t,
                    intensity: StormIntensity::Calm,
                }]
            };
            return StormSchedule {
                windows,
                horizon: horizon_t,
            };
        }

        let mut rng = Xoshiro256::seed_from_u64(seed.wrapping_mul(STORM_MIX_MUL) ^ STORM_MIX_XOR);
        let slot = horizon_ns / episodes;
        let mut windows = Vec::with_capacity(episodes as usize * 4 + 1);
        let mut cursor = 0u64;
        let push = |windows: &mut Vec<StormWindow>, start: u64, end: u64, i: StormIntensity| {
            if end > start {
                windows.push(StormWindow {
                    start: SimTime::from_nanos(start),
                    end: SimTime::from_nanos(end),
                    intensity: i,
                });
            }
        };
        for ep in 0..episodes {
            let slot_start = ep * slot;
            // Episode occupies 25–60% of its slot at a seeded offset.
            let frac = 0.25 + 0.35 * rng.next_f64();
            let len = ((slot as f64) * frac) as u64;
            let len = len.max(4).min(slot);
            let offset = rng.next_range(slot - len + 1);
            let ep_start = slot_start + offset;
            let quarter = len / 4;
            let r1_end = ep_start + quarter;
            let peak_end = ep_start + len - quarter;
            let ep_end = ep_start + len;
            push(&mut windows, cursor, ep_start, StormIntensity::Calm);
            push(&mut windows, ep_start, r1_end, StormIntensity::Rising);
            push(&mut windows, r1_end, peak_end, StormIntensity::Peak);
            push(&mut windows, peak_end, ep_end, StormIntensity::Rising);
            cursor = ep_end;
        }
        push(&mut windows, cursor, horizon_ns, StormIntensity::Calm);
        StormSchedule {
            windows,
            horizon: horizon_t,
        }
    }

    /// The intensity in force at `t`. Times at or past the horizon are
    /// calm (the storm calendar has ended).
    #[must_use]
    pub fn intensity_at(&self, t: SimTime) -> StormIntensity {
        let idx = self.windows.partition_point(|w| w.start <= t);
        if idx == 0 {
            return StormIntensity::Calm;
        }
        let w = &self.windows[idx - 1];
        if t < w.end {
            w.intensity
        } else {
            StormIntensity::Calm
        }
    }

    /// The 1-based ordinal of the storm episode in force at `t`, or
    /// `None` when `t` falls in a calm stretch (or past the horizon). An
    /// episode is a maximal run of non-calm windows, so the rising
    /// shoulders and the peak of one escalation share an ordinal.
    #[must_use]
    pub fn episode_at(&self, t: SimTime) -> Option<u32> {
        let idx = self.windows.partition_point(|w| w.start <= t);
        if idx == 0 {
            return None;
        }
        if t >= self.windows[idx - 1].end || self.windows[idx - 1].intensity == StormIntensity::Calm
        {
            return None;
        }
        let mut episode = 0u32;
        let mut prev_calm = true;
        for w in &self.windows[..idx] {
            let stormy = w.intensity != StormIntensity::Calm;
            if stormy && prev_calm {
                episode += 1;
            }
            prev_calm = !stormy;
        }
        Some(episode)
    }

    /// End times of every peak window, in order — the reference points
    /// for time-to-recover measurements.
    #[must_use]
    pub fn peak_ends(&self) -> Vec<SimTime> {
        self.windows
            .iter()
            .filter(|w| w.intensity == StormIntensity::Peak)
            .map(|w| w.end)
            .collect()
    }

    /// Total time spent at each intensity, indexed by
    /// [`StormIntensity::index`]. The three entries sum to the horizon.
    #[must_use]
    pub fn coverage(&self) -> [SimDuration; StormIntensity::COUNT] {
        let mut totals = [0u64; StormIntensity::COUNT];
        for w in &self.windows {
            totals[w.intensity.index()] += w.len().as_nanos();
        }
        [
            SimDuration::from_nanos(totals[0]),
            SimDuration::from_nanos(totals[1]),
            SimDuration::from_nanos(totals[2]),
        ]
    }

    /// Stable fingerprint over the full calendar.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::hash::Fnv64::new();
        h.write_u64(self.horizon.as_nanos());
        for w in &self.windows {
            h.write_u64(w.start.as_nanos());
            h.write_u64(w.end.as_nanos());
            h.write_u8(w.intensity.index() as u8);
        }
        h.finish()
    }
}

/// A per-tenant latency/SLO contract the chaos report judges against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyBudget {
    /// The tenant's declared p99 end-to-end latency budget.
    pub p99: SimDuration,
    /// The tenant's declared p999 end-to-end latency budget.
    pub p999: SimDuration,
    /// Maximum tolerated rejected requests, in parts per million of the
    /// tenant's admitted+rejected total.
    pub max_reject_ppm: u64,
}

impl LatencyBudget {
    /// Stable fingerprint folded into report hashes.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::hash::Fnv64::new();
        h.write_u64(self.p99.as_nanos());
        h.write_u64(self.p999.as_nanos());
        h.write_u64(self.max_reject_ppm);
        h.finish()
    }
}

impl std::fmt::Display for LatencyBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p99<={:.2}ms p999<={:.2}ms rej<={}ppm",
            self.p99.as_millis_f64(),
            self.p999.as_millis_f64(),
            self.max_reject_ppm
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_tiles_horizon_exactly() {
        let horizon = SimDuration::secs(120);
        let s = StormSchedule::generate(0xC4405, horizon, 8);
        assert_eq!(s.windows.first().unwrap().start, SimTime::ZERO);
        assert_eq!(
            s.windows.last().unwrap().end,
            SimTime::from_nanos(horizon.as_nanos())
        );
        for pair in s.windows.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "gap or overlap in calendar");
        }
        let cov = s.coverage();
        let total: u64 = cov.iter().map(|d| d.as_nanos()).sum();
        assert_eq!(total, horizon.as_nanos());
        assert_eq!(s.peak_ends().len(), 8);
    }

    #[test]
    fn schedule_replays_bit_identically() {
        let a = StormSchedule::generate(7, SimDuration::secs(60), 4);
        let b = StormSchedule::generate(7, SimDuration::secs(60), 4);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = StormSchedule::generate(8, SimDuration::secs(60), 4);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn intensity_lookup_matches_windows() {
        let s = StormSchedule::generate(42, SimDuration::secs(30), 3);
        for w in &s.windows {
            assert_eq!(s.intensity_at(w.start), w.intensity);
            let mid = SimTime::from_nanos((w.start.as_nanos() + w.end.as_nanos()) / 2);
            assert_eq!(s.intensity_at(mid), w.intensity);
        }
        assert_eq!(s.intensity_at(s.horizon), StormIntensity::Calm);
    }

    #[test]
    fn episode_ordinals_follow_the_calendar() {
        let s = StormSchedule::generate(42, SimDuration::secs(30), 3);
        let mut seen = 0u32;
        let mut prev_calm = true;
        for w in &s.windows {
            let stormy = w.intensity != StormIntensity::Calm;
            if stormy && prev_calm {
                seen += 1;
            }
            prev_calm = !stormy;
            let expected = if stormy { Some(seen) } else { None };
            assert_eq!(s.episode_at(w.start), expected);
            let mid = SimTime::from_nanos((w.start.as_nanos() + w.end.as_nanos()) / 2);
            assert_eq!(s.episode_at(mid), expected);
        }
        assert_eq!(seen, 3, "three episodes should be distinguishable");
        assert_eq!(s.episode_at(s.horizon), None);
    }

    #[test]
    fn calm_plan_is_empty_and_peak_matches_profile() {
        for p in StormProfile::builtin() {
            assert!(p.plan(StormIntensity::Calm, 99).is_empty());
            let peak = p.plan(StormIntensity::Peak, 99);
            for site in FaultSite::ALL {
                assert_eq!(peak.rate(site), p.peak[site.index()].clamp(0.0, 1.0));
            }
            let rising = p.plan(StormIntensity::Rising, 99);
            for site in FaultSite::ALL {
                assert!(rising.rate(site) <= peak.rate(site));
            }
        }
    }

    #[test]
    fn builtin_profiles_resolve_by_name() {
        for p in StormProfile::builtin() {
            assert_eq!(StormProfile::by_name(p.name).unwrap(), p);
        }
        assert!(StormProfile::by_name("haboob").is_none());
    }
}
