//! Deterministic fault injection for the CC data path.
//!
//! A [`FaultPlan`] names the sites where transient faults may strike and
//! the per-site probability that a guarded operation fails; a
//! [`RecoveryPolicy`] says how the runtime answers. Both live on the
//! simulation config and are folded into its content hash, so memoized
//! results remain sound. The [`FaultInjector`] draws from its *own*
//! [`Xoshiro256`] stream (derived from the plan seed and the config seed,
//! never from the context's jitter RNG), and takes **zero draws** for a
//! site whose rate is 0.0 — an empty plan therefore leaves the no-fault
//! simulation bit-for-bit unchanged.

use crate::rng::Xoshiro256;
use crate::{ByteSize, SimDuration};

/// A named point in the CC data path where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// AES-GCM auth-tag verification failure on host→device staging.
    GcmTagH2D,
    /// AES-GCM auth-tag verification failure on device→host staging.
    GcmTagD2H,
    /// Bounce-buffer (swiotlb) pool exhaustion on reserve.
    BounceExhausted,
    /// Channel-ring doorbell drop / full-ring stall on kernel submit.
    RingDoorbell,
    /// UVM migration failure while servicing far faults.
    UvmMigration,
}

impl FaultSite {
    /// Number of distinct sites.
    pub const COUNT: usize = 5;

    /// Every site, in a stable order.
    pub const ALL: [FaultSite; FaultSite::COUNT] = [
        FaultSite::GcmTagH2D,
        FaultSite::GcmTagD2H,
        FaultSite::BounceExhausted,
        FaultSite::RingDoorbell,
        FaultSite::UvmMigration,
    ];

    /// Stable index into per-site tables.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            FaultSite::GcmTagH2D => 0,
            FaultSite::GcmTagD2H => 1,
            FaultSite::BounceExhausted => 2,
            FaultSite::RingDoorbell => 3,
            FaultSite::UvmMigration => 4,
        }
    }

    /// Short stable name (used in traces, specs, and error messages).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::GcmTagH2D => "gcm_h2d",
            FaultSite::GcmTagD2H => "gcm_d2h",
            FaultSite::BounceExhausted => "bounce",
            FaultSite::RingDoorbell => "ring",
            FaultSite::UvmMigration => "uvm",
        }
    }

    /// Whether a degrade-to-smaller-staging-chunks recovery is meaningful
    /// at this site. Non-degradable sites fall back to bounded retry under
    /// [`RecoveryPolicy::Degrade`].
    #[must_use]
    pub fn degradable(self) -> bool {
        matches!(
            self,
            FaultSite::GcmTagH2D | FaultSite::GcmTagD2H | FaultSite::BounceExhausted
        )
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-site fault probabilities plus the seed for the injector's private
/// RNG stream. The default plan is empty: every rate 0.0, no draws, no
/// behaviour change.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed with the config seed to derive the injector stream.
    pub seed: u64,
    /// Probability a guarded attempt fails at each site, indexed by
    /// [`FaultSite::index`]. Values outside [0, 1] are clamped on use.
    pub rates: [f64; FaultSite::COUNT],
    /// Upper bound on injected failures per site (0 = unlimited). Keeps a
    /// high-rate plan from starving every retry budget in long programs.
    pub max_per_site: u32,
}

impl FaultPlan {
    /// The empty plan: no faults, no RNG draws.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            rates: [0.0; FaultSite::COUNT],
            max_per_site: 0,
        }
    }

    /// A plan with the same rate at every site.
    #[must_use]
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            rates: [rate; FaultSite::COUNT],
            max_per_site: 0,
        }
    }

    /// Sets one site's rate (builder style).
    #[must_use]
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> Self {
        self.rates[site.index()] = rate;
        self
    }

    /// Caps injected failures per site (builder style; 0 = unlimited).
    #[must_use]
    pub fn with_max_per_site(mut self, max: u32) -> Self {
        self.max_per_site = max;
        self
    }

    /// The injection rate at `site`, clamped to [0, 1].
    #[must_use]
    pub fn rate(&self, site: FaultSite) -> f64 {
        self.rates[site.index()].clamp(0.0, 1.0)
    }

    /// True when no site can fault (the default).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        FaultSite::ALL.iter().all(|s| self.rate(*s) <= 0.0)
    }

    /// Parses a plan spec like `seed=7,gcm=0.4,bounce=0.3,ring=0.2,
    /// uvm=0.4,max=6`. Keys: `seed`, `max`, one per site name
    /// ([`FaultSite::name`]), plus `gcm` as shorthand for both GCM
    /// directions. Empty string parses to the empty plan. A rate outside
    /// [0, 1] is held clamped, as [`FaultPlan::rate`] reads it, so a
    /// parsed plan renders to a spec that parses back to it; `NaN` is
    /// not a rate.
    ///
    /// # Errors
    /// The first malformed token, as a [`FaultPlanError`].
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultPlanError> {
        let mut plan = FaultPlan::none();
        for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| FaultPlanError::NotKeyValue {
                    token: tok.to_string(),
                })?;
            let fval = || match value.parse::<f64>() {
                Ok(rate) if !rate.is_nan() => Ok(rate.clamp(0.0, 1.0)),
                _ => Err(FaultPlanError::NotARate {
                    key: key.to_string(),
                    value: value.to_string(),
                }),
            };
            match key.trim() {
                "seed" => {
                    plan.seed = value.parse::<u64>().map_err(|_| FaultPlanError::Seed {
                        value: value.to_string(),
                    })?;
                }
                "max" => {
                    plan.max_per_site = value.parse::<u32>().map_err(|_| FaultPlanError::Max {
                        value: value.to_string(),
                    })?;
                }
                "gcm" => {
                    let r = fval()?;
                    plan.rates[FaultSite::GcmTagH2D.index()] = r;
                    plan.rates[FaultSite::GcmTagD2H.index()] = r;
                }
                name => {
                    let site = FaultSite::ALL
                        .iter()
                        .copied()
                        .find(|s| s.name() == name)
                        .ok_or_else(|| FaultPlanError::UnknownKey {
                            key: name.to_string(),
                        })?;
                    plan.rates[site.index()] = fval()?;
                }
            }
        }
        Ok(plan)
    }

    /// Stable fingerprint folded into `SimConfig::content_hash()`.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::hash::Fnv64::new();
        h.write_u64(self.seed);
        for site in FaultSite::ALL {
            h.write_f64(self.rate(site));
        }
        h.write_u32(self.max_per_site);
        h.finish()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Why [`FaultPlan::parse`] refused a spec: its first malformed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A token without `=`.
    NotKeyValue { token: String },
    /// A `seed` that is not a `u64`.
    Seed { value: String },
    /// A `max` that is not a `u32`.
    Max { value: String },
    /// A site's rate (`key` as written) that is not a number, or `NaN`.
    NotARate { key: String, value: String },
    /// A key that is neither a site nor `seed`, `max` or `gcm`.
    UnknownKey { key: String },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::NotKeyValue { token } => {
                write!(f, "fault plan token {token:?} is not key=value")
            }
            FaultPlanError::Seed { value } => write!(f, "fault plan seed={value:?}: not a u64"),
            FaultPlanError::Max { value } => write!(f, "fault plan max={value:?}: not a u32"),
            FaultPlanError::NotARate { key, value } => {
                write!(f, "fault plan {key}={value:?}: not a number")
            }
            FaultPlanError::UnknownKey { key } => {
                let sites = FaultSite::ALL.map(FaultSite::name).join(", ");
                write!(
                    f,
                    "fault plan key {key:?} is not a site (sites: {sites}; shorthand: gcm)"
                )
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for site in FaultSite::ALL {
            if self.rate(site) > 0.0 {
                write!(f, ",{}={}", site.name(), self.rate(site))?;
            }
        }
        if self.max_per_site > 0 {
            write!(f, ",max={}", self.max_per_site)?;
        }
        Ok(())
    }
}

/// How the runtime answers an injected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryPolicy {
    /// Bounded retry with deterministic exponential backoff: retry `k`
    /// waits `base * multiplier^(k-1)` (±25% seeded jitter) before the
    /// operation is re-attempted. Exhausting the budget aborts.
    Retry {
        /// Maximum retries before giving up.
        max_attempts: u32,
        /// Backoff before the first retry.
        base: SimDuration,
        /// Geometric growth factor per retry.
        multiplier: f64,
    },
    /// Degrade staging to smaller chunks at degradable sites (GCM tag,
    /// bounce exhaustion); other sites fall back to the default retry.
    Degrade {
        /// Smallest chunk the staging path may degrade to.
        min_chunk: ByteSize,
    },
    /// Abort immediately with a typed error.
    Abort,
}

impl RecoveryPolicy {
    /// The default bounded-retry parameters.
    #[must_use]
    pub fn default_retry() -> Self {
        RecoveryPolicy::Retry {
            max_attempts: 4,
            base: SimDuration::micros(20),
            multiplier: 2.0,
        }
    }

    /// The nominal (jitter-free) backoff before retry `attempt` (1-based).
    /// Zero for [`RecoveryPolicy::Abort`]; [`RecoveryPolicy::Degrade`]
    /// uses the default retry schedule at non-degradable sites.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let (base, multiplier) = match self {
            RecoveryPolicy::Retry {
                base, multiplier, ..
            } => (*base, *multiplier),
            RecoveryPolicy::Degrade { .. } => match RecoveryPolicy::default_retry() {
                RecoveryPolicy::Retry {
                    base, multiplier, ..
                } => (base, multiplier),
                _ => unreachable!(),
            },
            RecoveryPolicy::Abort => return SimDuration::ZERO,
        };
        base.scale(multiplier.powi(attempt.saturating_sub(1) as i32))
    }

    /// Stable fingerprint folded into `SimConfig::content_hash()`.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::hash::Fnv64::new();
        match self {
            RecoveryPolicy::Retry {
                max_attempts,
                base,
                multiplier,
            } => {
                h.write_u8(0);
                h.write_u32(*max_attempts);
                h.write_u64(base.as_nanos());
                h.write_f64(*multiplier);
            }
            RecoveryPolicy::Degrade { min_chunk } => {
                h.write_u8(1);
                h.write_u64(min_chunk.as_u64());
            }
            RecoveryPolicy::Abort => h.write_u8(2),
        }
        h.finish()
    }

    /// Short stable name (used in CLI flags, reports, and goldens).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryPolicy::Retry { .. } => "retry",
            RecoveryPolicy::Degrade { .. } => "degrade",
            RecoveryPolicy::Abort => "abort",
        }
    }

    /// Parses a CLI spelling into the default parameterization of each
    /// policy (retry = [`RecoveryPolicy::default_retry`], degrade floors
    /// staging at 64 KiB chunks).
    #[must_use]
    pub fn parse(s: &str) -> Option<RecoveryPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "retry" => Some(RecoveryPolicy::default_retry()),
            "degrade" => Some(RecoveryPolicy::Degrade {
                min_chunk: ByteSize::kib(64),
            }),
            "abort" => Some(RecoveryPolicy::Abort),
            _ => None,
        }
    }
}

impl std::fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::default_retry()
    }
}

/// Outcome of one guarded operation, as decided by the injector.
#[derive(Debug, Clone, PartialEq)]
pub enum Recovery {
    /// No fault injected; proceed normally.
    Clean,
    /// Fault(s) injected and survived by retrying: one backoff wait per
    /// retry, the last of which succeeded.
    Retried {
        /// Backoff before each retry, in order.
        backoffs: Vec<SimDuration>,
    },
    /// Fault injected; the policy degrades staging chunks by `factor`.
    Degraded {
        /// Chunk shrink factor (current chunk / factor).
        factor: u32,
    },
    /// Fault injected and the retry budget exhausted (or policy = Abort).
    Aborted {
        /// Failed attempts, counting the initial one.
        attempts: u32,
    },
}

impl Recovery {
    /// True when no fault was injected.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        matches!(self, Recovery::Clean)
    }

    /// Total backoff wait imposed by this recovery.
    #[must_use]
    pub fn stall(&self) -> SimDuration {
        match self {
            Recovery::Retried { backoffs } => backoffs.iter().copied().sum(),
            _ => SimDuration::ZERO,
        }
    }
}

/// Running totals of injector decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Failed attempts injected (initial faults plus failed retries).
    pub injected: u64,
    /// Retries attempted.
    pub retries: u64,
    /// Guarded operations that recovered via retry.
    pub recovered: u64,
    /// Guarded operations that recovered by degrading.
    pub degraded: u64,
    /// Guarded operations that aborted.
    pub aborted: u64,
}

/// Draws fault decisions and recovery schedules from a private seeded
/// stream. One injector lives per simulated context; identical (plan,
/// policy, config seed) triples replay identical decisions regardless of
/// host thread count.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    policy: RecoveryPolicy,
    rng: Xoshiro256,
    injected: [u32; FaultSite::COUNT],
    counts: FaultCounts,
}

impl FaultInjector {
    /// Builds the injector for one context. The stream is decorrelated
    /// from the context's jitter RNG by mixing the plan seed with the
    /// config seed under a distinct odd constant.
    #[must_use]
    pub fn new(plan: FaultPlan, policy: RecoveryPolicy, config_seed: u64) -> Self {
        let seed = plan
            .seed
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add(config_seed.rotate_left(17))
            ^ 0xFA17_FA17_FA17_FA17;
        FaultInjector {
            plan,
            policy,
            rng: Xoshiro256::seed_from_u64(seed),
            injected: [0; FaultSite::COUNT],
            counts: FaultCounts::default(),
        }
    }

    /// The plan in force.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The recovery policy in force.
    #[must_use]
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// Totals so far.
    #[must_use]
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Decides the fate of one guarded operation at `site`: whether a
    /// fault strikes, and — if it does — the full recovery schedule under
    /// the policy. Takes no RNG draw when the site's rate is 0.0 or the
    /// per-site cap is spent, so an empty plan is behaviourally inert.
    pub fn recover(&mut self, site: FaultSite) -> Recovery {
        let rate = self.plan.rate(site);
        if rate <= 0.0 {
            return Recovery::Clean;
        }
        let idx = site.index();
        if self.plan.max_per_site > 0 && self.injected[idx] >= self.plan.max_per_site {
            return Recovery::Clean;
        }
        if self.rng.next_f64() >= rate {
            return Recovery::Clean;
        }
        self.injected[idx] += 1;
        self.counts.injected += 1;

        match &self.policy {
            RecoveryPolicy::Abort => {
                self.counts.aborted += 1;
                Recovery::Aborted { attempts: 1 }
            }
            RecoveryPolicy::Degrade { .. } if site.degradable() => {
                self.counts.degraded += 1;
                Recovery::Degraded { factor: 2 }
            }
            policy => {
                let max_attempts = match policy {
                    RecoveryPolicy::Retry { max_attempts, .. } => *max_attempts,
                    // Non-degradable site under Degrade: default retry.
                    _ => match RecoveryPolicy::default_retry() {
                        RecoveryPolicy::Retry { max_attempts, .. } => max_attempts,
                        _ => unreachable!(),
                    },
                };
                let mut backoffs = Vec::new();
                for attempt in 1..=max_attempts {
                    self.counts.retries += 1;
                    let jitter = self.rng.jitter(0.25);
                    backoffs.push(self.policy.backoff(attempt).scale(jitter));
                    let failed_again = self.rng.next_f64() < rate
                        && (self.plan.max_per_site == 0
                            || self.injected[idx] < self.plan.max_per_site);
                    if !failed_again {
                        self.counts.recovered += 1;
                        return Recovery::Retried { backoffs };
                    }
                    self.injected[idx] += 1;
                    self.counts.injected += 1;
                }
                self.counts.aborted += 1;
                Recovery::Aborted {
                    attempts: max_attempts + 1,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert_and_drawless() {
        let mut inj = FaultInjector::new(FaultPlan::none(), RecoveryPolicy::default(), 1);
        let untouched = inj.rng.clone();
        for site in FaultSite::ALL {
            assert_eq!(inj.recover(site), Recovery::Clean);
        }
        // The stream was never advanced: next draws match a pristine clone.
        assert_eq!(inj.rng.next_u64(), untouched.clone().next_u64());
        assert_eq!(inj.counts(), FaultCounts::default());
    }

    #[test]
    fn decisions_replay_per_seed() {
        let plan = FaultPlan::uniform(7, 0.5);
        let mut a = FaultInjector::new(plan.clone(), RecoveryPolicy::default(), 42);
        let mut b = FaultInjector::new(plan.clone(), RecoveryPolicy::default(), 42);
        for _ in 0..200 {
            for site in FaultSite::ALL {
                assert_eq!(a.recover(site), b.recover(site));
            }
        }
        assert_eq!(a.counts(), b.counts());
        // A different config seed yields a different decision stream.
        let mut c = FaultInjector::new(plan, RecoveryPolicy::default(), 43);
        let diverged = (0..200).any(|_| {
            FaultSite::ALL
                .iter()
                .any(|s| a.recover(*s) != c.recover(*s))
        });
        assert!(diverged);
    }

    #[test]
    fn backoff_schedule_is_exponential() {
        let p = RecoveryPolicy::default_retry();
        assert_eq!(p.backoff(1), SimDuration::micros(20));
        assert_eq!(p.backoff(2), SimDuration::micros(40));
        assert_eq!(p.backoff(3), SimDuration::micros(80));
        assert_eq!(RecoveryPolicy::Abort.backoff(3), SimDuration::ZERO);
    }

    #[test]
    fn certain_fault_exhausts_retry_budget() {
        let plan = FaultPlan::uniform(1, 1.0);
        let mut inj = FaultInjector::new(plan, RecoveryPolicy::default(), 0);
        match inj.recover(FaultSite::RingDoorbell) {
            Recovery::Aborted { attempts } => assert_eq!(attempts, 5),
            other => panic!("expected abort, got {other:?}"),
        }
        assert_eq!(inj.counts().aborted, 1);
        assert_eq!(inj.counts().retries, 4);
    }

    #[test]
    fn degrade_policy_splits_by_site() {
        let plan = FaultPlan::uniform(1, 1.0).with_max_per_site(1);
        let policy = RecoveryPolicy::Degrade {
            min_chunk: ByteSize::kib(64),
        };
        let mut inj = FaultInjector::new(plan, policy, 0);
        assert!(matches!(
            inj.recover(FaultSite::GcmTagH2D),
            Recovery::Degraded { factor: 2 }
        ));
        // Cap of 1 already spent for gcm_h2d, bounce still eligible.
        assert!(matches!(
            inj.recover(FaultSite::BounceExhausted),
            Recovery::Degraded { factor: 2 }
        ));
        // Ring is not degradable: falls back to retry, and with rate 1.0
        // but the cap spent after the first failure, the first retry
        // succeeds.
        assert!(matches!(
            inj.recover(FaultSite::RingDoorbell),
            Recovery::Retried { .. }
        ));
    }

    #[test]
    fn parse_round_trips_and_rejects_junk() {
        let plan = FaultPlan::parse("seed=9, gcm=0.25, bounce=0.5, max=3").unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.rate(FaultSite::GcmTagH2D), 0.25);
        assert_eq!(plan.rate(FaultSite::GcmTagD2H), 0.25);
        assert_eq!(plan.rate(FaultSite::BounceExhausted), 0.5);
        assert_eq!(plan.rate(FaultSite::RingDoorbell), 0.0);
        assert_eq!(plan.max_per_site, 3);
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
        let refused = |spec: &str| FaultPlan::parse(spec).unwrap_err();
        assert_eq!(
            refused("bogus=1"),
            FaultPlanError::UnknownKey {
                key: "bogus".into()
            }
        );
        assert_eq!(
            refused("bogus=1").to_string(),
            "fault plan key \"bogus\" is not a site \
             (sites: gcm_h2d, gcm_d2h, bounce, ring, uvm; shorthand: gcm)"
        );
        assert_eq!(
            refused("seed=1, gcm").to_string(),
            "fault plan token \"gcm\" is not key=value"
        );
        assert_eq!(
            refused("seed=x").to_string(),
            "fault plan seed=\"x\": not a u64"
        );
        assert_eq!(
            refused("max=-1").to_string(),
            "fault plan max=\"-1\": not a u32"
        );
        assert_eq!(
            refused("ring =x").to_string(),
            "fault plan ring =\"x\": not a number"
        );
        assert_eq!(
            refused("uvm=NaN").to_string(),
            "fault plan uvm=\"NaN\": not a number"
        );
        let clamped = FaultPlan::parse("bounce=5,ring=-1,uvm=1e400").unwrap();
        assert_eq!(
            clamped,
            FaultPlan::none()
                .with_rate(FaultSite::BounceExhausted, 1.0)
                .with_rate(FaultSite::UvmMigration, 1.0)
        );
    }

    /// Any plan a spec can hold (finite rates in [0, 1], a site's rate
    /// possibly zero) renders to a spec that parses back to it.
    #[test]
    fn rendered_plans_parse_back_to_themselves() {
        use hcc_check::strategy::{u64s, vecs};
        use hcc_check::{ensure_eq, forall, Config};
        forall!(
            Config::new(0xFA17_0035).with_cases(256),
            ((seed, max), rates) in (
                (u64s(0..u64::MAX), u64s(0..u64::from(u32::MAX) + 1)),
                vecs(u64s(0..1 << 53), FaultSite::COUNT..FaultSite::COUNT + 1)
            ) => {
                let mut plan = FaultPlan::none().with_max_per_site(max as u32);
                plan.seed = seed;
                for (site, &bits) in FaultSite::ALL.into_iter().zip(&rates) {
                    // Every fourth site stays off; the rest take a rate
                    // in [0, 1] with all 53 bits of precision.
                    if bits % 4 != 0 {
                        plan = plan.with_rate(site, bits as f64 / (1u64 << 53) as f64);
                    }
                }
                ensure_eq!(FaultPlan::parse(&plan.to_string()), Ok(plan.clone()));
            }
        );
    }

    /// Any text either parses or is refused with a typed error, never a
    /// panic, and a plan it parses to renders to a spec that parses back
    /// to it. The texts are strings of the grammar's fragments (keys,
    /// separators, spaces, out-of-range and non-finite numbers,
    /// overflowing integers, non-ASCII) and raw random bytes.
    #[test]
    fn any_text_parses_or_is_refused() {
        use hcc_check::strategy::{bytes, u64s, vecs};
        use hcc_check::{ensure, ensure_eq, forall, Config};
        const FRAGMENTS: [&str; 34] = [
            "seed=",
            "gcm=",
            "gcm_h2d=",
            "gcm_d2h=",
            "bounce=",
            "ring=",
            "uvm=",
            "max=",
            "bogus=",
            ",",
            " ",
            "=",
            "0",
            "1",
            "0.25",
            "7",
            ".",
            "e",
            "NaN",
            "nan",
            "inf",
            "-inf",
            "-1",
            "1e400",
            "-0",
            "+3",
            "0x10",
            "18446744073709551616",
            "4294967296",
            "1e-400",
            "é",
            "∞",
            "\u{0}",
            "\u{feff}",
        ];
        let (accepted, refused) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
        forall!(
            Config::new(0xFA17_0036).with_cases(1024),
            (picks, raw) in (
                vecs(u64s(0..FRAGMENTS.len() as u64), 0..12),
                vecs(bytes(), 0..24)
            ) => {
                let spec: String = picks.iter().map(|&k| FRAGMENTS[k as usize]).collect();
                for text in [spec, String::from_utf8_lossy(&raw).into_owned()] {
                    match FaultPlan::parse(&text) {
                        Ok(plan) => {
                            accepted.set(accepted.get() + 1);
                            ensure!(
                                FaultSite::ALL.iter().all(|&s| plan.rates[s.index()] == plan.rate(s)),
                                "{text:?} holds a rate outside [0, 1]: {plan:?}"
                            );
                            ensure_eq!(FaultPlan::parse(&plan.to_string()), Ok(plan));
                        }
                        Err(e) => {
                            refused.set(refused.get() + 1);
                            ensure!(!e.to_string().is_empty());
                        }
                    }
                }
            }
        );
        assert!(
            accepted.get() > 100 && refused.get() > 100,
            "{accepted:?} {refused:?}"
        );
    }

    #[test]
    fn fingerprint_covers_every_field() {
        let base = FaultPlan::uniform(1, 0.5);
        let mut variants = vec![
            FaultPlan::uniform(2, 0.5),
            FaultPlan::uniform(1, 0.4),
            FaultPlan::uniform(1, 0.5).with_max_per_site(3),
        ];
        for site in FaultSite::ALL {
            variants.push(base.clone().with_rate(site, 0.6));
        }
        for v in variants {
            assert_ne!(base.fingerprint(), v.fingerprint(), "{v}");
        }
        let policies = [
            RecoveryPolicy::default_retry(),
            RecoveryPolicy::Retry {
                max_attempts: 9,
                base: SimDuration::micros(20),
                multiplier: 2.0,
            },
            RecoveryPolicy::Degrade {
                min_chunk: ByteSize::kib(64),
            },
            RecoveryPolicy::Abort,
        ];
        for (i, a) in policies.iter().enumerate() {
            for b in &policies[i + 1..] {
                assert_ne!(a.fingerprint(), b.fingerprint());
            }
        }
    }
}
