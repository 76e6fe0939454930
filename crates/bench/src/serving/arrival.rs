//! Seeded open-loop arrival processes.
//!
//! The serving simulator is *open loop*: request arrival times are drawn
//! up front from a stochastic process and never react to completion
//! times, so CC-induced slowdowns surface as queueing delay instead of
//! being hidden by a closed-loop client that politely waits. Three
//! processes are modeled, all driven purely by [`Xoshiro256`] so a seed
//! fully determines the trace:
//!
//! * [`ArrivalKind::Poisson`] — memoryless arrivals at a fixed rate.
//! * [`ArrivalKind::Bursty`] — a two-state Markov-modulated Poisson
//!   process (calm ↔ burst) with ~3× rate spikes.
//! * [`ArrivalKind::Diurnal`] — a sinusoidally modulated rate (a
//!   compressed day/night cycle), sampled by thinning.

use hcc_types::rng::Xoshiro256;
use hcc_types::SimTime;
use hcc_workloads::TenantSpec;

/// The most requests one trace holds: request ids are `u32` wherever a
/// soak records them.
pub const MAX_REQUESTS: u64 = u32::MAX as u64;

/// Which arrival process drives a tenant's request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Memoryless arrivals at a constant rate.
    Poisson,
    /// Two-state MMPP: calm periods punctuated by ~3× bursts.
    Bursty,
    /// Sinusoidal rate modulation with a 60 s (virtual) period.
    Diurnal,
}

impl ArrivalKind {
    /// Every process, in report order.
    pub const ALL: [ArrivalKind; 3] = [
        ArrivalKind::Poisson,
        ArrivalKind::Bursty,
        ArrivalKind::Diurnal,
    ];

    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Option<ArrivalKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "poisson" => Some(ArrivalKind::Poisson),
            "bursty" | "mmpp" | "burst" => Some(ArrivalKind::Bursty),
            "diurnal" | "sin" => Some(ArrivalKind::Diurnal),
            _ => None,
        }
    }
}

impl std::fmt::Display for ArrivalKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArrivalKind::Poisson => f.write_str("poisson"),
            ArrivalKind::Bursty => f.write_str("bursty"),
            ArrivalKind::Diurnal => f.write_str("diurnal"),
        }
    }
}

/// One request in the open-loop trace: 16 bytes, the largest per-request
/// record a soak keeps for its whole run. A request's global arrival
/// rank is its index in the trace [`generate`] returns (ties broken by
/// tenant, then per-tenant order), so sorting and every scheduler
/// tie-break are fully deterministic without storing the rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Arrival time on the virtual clock.
    pub arrival: SimTime,
    /// Index into the tenant population.
    pub tenant: u32,
    /// Index into the tenant's request-class mix.
    pub class: u32,
}

// A new field must not silently regrow every soak's trace.
const _: () = assert!(std::mem::size_of::<Request>() == 16);

/// Burst-state mean sojourn (seconds) and rate multiplier for the MMPP.
const BURST_SOJOURN: f64 = 0.5;
const BURST_RATE: f64 = 3.0;
/// Calm-state mean sojourn (seconds) and rate multiplier.
const CALM_SOJOURN: f64 = 1.5;
const CALM_RATE: f64 = 0.5;
/// Diurnal modulation depth and period (virtual seconds).
const DIURNAL_DEPTH: f64 = 0.8;
const DIURNAL_PERIOD: f64 = 60.0;

/// A single tenant's arrival generator: produces a monotone stream of
/// arrival times at a mean rate of `rate` requests per virtual second.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    kind: ArrivalKind,
    rate: f64,
    rng: Xoshiro256,
    /// Current virtual clock, in seconds.
    clock: f64,
    /// MMPP state: are we in a burst, and when does the state end?
    burst: bool,
    state_end: f64,
}

impl ArrivalProcess {
    /// A generator at `rate` requests per virtual second (floored to a
    /// small positive rate so a degenerate tenant still terminates).
    pub fn new(kind: ArrivalKind, rate: f64, mut rng: Xoshiro256) -> Self {
        let rate = if rate.is_finite() && rate > 1e-6 {
            rate
        } else {
            1e-6
        };
        let first_sojourn = exponential(&mut rng, 1.0 / CALM_SOJOURN);
        ArrivalProcess {
            kind,
            rate,
            rng,
            clock: 0.0,
            burst: false,
            state_end: first_sojourn,
        }
    }

    /// Advances the process and returns the next arrival time.
    pub fn next_arrival(&mut self) -> SimTime {
        match self.kind {
            ArrivalKind::Poisson => {
                self.clock += exponential(&mut self.rng, self.rate);
            }
            ArrivalKind::Bursty => loop {
                let r = if self.burst {
                    self.rate * BURST_RATE
                } else {
                    self.rate * CALM_RATE
                };
                let dt = exponential(&mut self.rng, r);
                if self.clock + dt <= self.state_end {
                    self.clock += dt;
                    break;
                }
                // The candidate crosses a state boundary: move to it,
                // flip state, and redraw from the new rate (memoryless,
                // so discarding the remainder is exact).
                self.clock = self.state_end;
                self.burst = !self.burst;
                let sojourn = if self.burst {
                    BURST_SOJOURN
                } else {
                    CALM_SOJOURN
                };
                self.state_end = self.clock + exponential(&mut self.rng, 1.0 / sojourn);
            },
            ArrivalKind::Diurnal => loop {
                let peak = self.rate * (1.0 + DIURNAL_DEPTH);
                self.clock += exponential(&mut self.rng, peak);
                let phase = (self.clock / DIURNAL_PERIOD) * std::f64::consts::TAU;
                let current = self.rate * (1.0 + DIURNAL_DEPTH * phase.sin());
                // Thinning: accept proportionally to the instantaneous rate.
                if self.rng.next_f64() < current / peak {
                    break;
                }
            },
        }
        SimTime::from_nanos((self.clock * 1e9).round() as u64)
    }
}

/// Exponential variate with the given rate, by inversion.
fn exponential(rng: &mut Xoshiro256, rate: f64) -> f64 {
    -(1.0 - rng.next_f64()).ln() / rate
}

/// Splits `total` requests across tenants proportionally to `weights`
/// (largest-remainder rounding), so counts are exact and deterministic.
///
/// The serving layer weights by per-tenant arrival *rate*: every tenant
/// then spans the same virtual horizon, and a tenant's `load_weight`
/// governs its share of offered *busy time* rather than its request
/// count. An empty trace splits to all zeros whatever the weights.
pub fn split_counts(weights: &[f64], total: u64) -> Vec<u64> {
    if total == 0 {
        return vec![0; weights.len()];
    }
    let weight_sum: f64 = weights.iter().sum();
    assert!(
        weight_sum > 0.0 && weight_sum.is_finite(),
        "tenant population carries no load"
    );
    let mut counts: Vec<u64> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(weights.len());
    let mut assigned = 0u64;
    for (i, w) in weights.iter().enumerate() {
        let exact = total as f64 * w / weight_sum;
        let base = exact.floor() as u64;
        counts.push(base);
        assigned += base;
        remainders.push((exact - exact.floor(), i));
    }
    // Hand the leftover requests to the largest remainders, ties to the
    // lower tenant index.
    remainders.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in remainders.iter().take((total - assigned) as usize) {
        counts[i] += 1;
    }
    counts
}

/// Generates the full open-loop trace: per-tenant arrival streams at the
/// given rates (requests per virtual second), merged and globally ranked
/// by arrival, then tenant, then per-tenant order. A request's rank is
/// its index in the returned trace.
///
/// Each tenant gets two decorrelated RNG streams forked off the master
/// seed — one for inter-arrival times, one for class picks — so changing
/// one tenant's count never perturbs another tenant's stream.
///
/// # Panics
/// If `tenants` and `rates` differ in length, or `total` exceeds
/// [`MAX_REQUESTS`] (request ids are `u32`).
pub fn generate(
    tenants: &[TenantSpec],
    rates: &[f64],
    kind: ArrivalKind,
    total: u64,
    seed: u64,
) -> Vec<Request> {
    assert_eq!(tenants.len(), rates.len());
    assert!(
        total <= MAX_REQUESTS,
        "{total} requests exceed the {MAX_REQUESTS} a trace can rank"
    );
    let counts = split_counts(rates, total);
    let mut master = Xoshiro256::seed_from_u64(seed);
    let mut merged: Vec<Request> = Vec::with_capacity(total as usize);
    for (ti, tenant) in tenants.iter().enumerate() {
        let arrivals_rng = master.fork();
        let mut class_rng = master.fork();
        let mut proc = ArrivalProcess::new(kind, rates[ti], arrivals_rng);
        let weight = tenant.total_weight();
        // Running sums of the mix, built once: a draw in `[0, weight)`
        // picks the first class whose sum exceeds it, as
        // `TenantSpec::pick` does without re-summing the mix per request.
        let cumulative: Vec<u64> = tenant
            .mix
            .iter()
            .scan(0, |sum, c| {
                *sum += u64::from(c.weight);
                Some(*sum)
            })
            .collect();
        // Each tenant's stream is pushed in its own order, which the
        // stable sort below keeps among same-instant arrivals.
        for _ in 0..counts[ti] {
            let draw = class_rng.next_range(weight);
            merged.push(Request {
                arrival: proc.next_arrival(),
                tenant: ti as u32,
                class: cumulative.partition_point(|&sum| sum <= draw) as u32,
            });
        }
    }
    merged.sort_by_key(|r| (r.arrival, r.tenant));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_workloads::default_tenants;

    #[test]
    fn streams_are_seed_deterministic() {
        let tenants = default_tenants(2);
        for kind in ArrivalKind::ALL {
            let a = generate(&tenants, &[40.0, 25.0], kind, 500, 7);
            let b = generate(&tenants, &[40.0, 25.0], kind, 500, 7);
            assert_eq!(a, b, "{kind}");
            let c = generate(&tenants, &[40.0, 25.0], kind, 500, 8);
            assert_ne!(a, c, "{kind} must react to the seed");
        }
    }

    #[test]
    fn trace_is_sorted_and_ranked() {
        let tenants = default_tenants(2);
        let trace = generate(&tenants, &[40.0, 25.0], ArrivalKind::Bursty, 1000, 3);
        assert_eq!(trace.len(), 1000);
        for (i, pair) in trace.windows(2).enumerate() {
            assert!(pair[0].arrival <= pair[1].arrival, "at {i}");
        }
        for r in &trace {
            assert!((r.class as usize) < tenants[r.tenant as usize].mix.len());
        }

        // Same-instant arrivals rank by tenant, and each tenant's
        // requests keep their own stream's order: at nanosecond-scale
        // gaps most arrivals tie, and the merged trace filtered to one
        // tenant is still exactly that tenant's (arrival, class) stream.
        let rates = [2e9, 1e9];
        let trace = generate(&tenants, &rates, ArrivalKind::Poisson, 3000, 5);
        let key = |r: &Request| (r.arrival, r.tenant);
        let mut ties = [0; 2];
        for (i, pair) in trace.windows(2).enumerate() {
            assert!(key(&pair[0]) <= key(&pair[1]), "at {i}");
            if pair[0].arrival == pair[1].arrival {
                ties[usize::from(pair[0].tenant != pair[1].tenant)] += 1;
            }
        }
        assert!(ties[0] > 0 && ties[1] > 0, "ties within and across tenants");
        let counts = split_counts(&rates, 3000);
        let mut master = Xoshiro256::seed_from_u64(5);
        for (ti, tenant) in tenants.iter().enumerate() {
            let mut proc = ArrivalProcess::new(ArrivalKind::Poisson, rates[ti], master.fork());
            let mut class_rng = master.fork();
            let own: Vec<(SimTime, u32)> = (0..counts[ti])
                .map(|_| {
                    let class = tenant.pick(class_rng.next_range(tenant.total_weight()));
                    (proc.next_arrival(), class as u32)
                })
                .collect();
            let merged: Vec<(SimTime, u32)> = trace
                .iter()
                .filter(|r| r.tenant as usize == ti)
                .map(|r| (r.arrival, r.class))
                .collect();
            assert_eq!(merged, own, "tenant {ti}");
        }
    }

    #[test]
    fn counts_split_proportionally_and_exactly() {
        assert_eq!(split_counts(&[3.0, 2.0], 1000), vec![600, 400]);
        // Largest remainder keeps the total exact on awkward splits.
        let counts = split_counts(&[3.0, 2.0, 2.0], 7);
        assert_eq!(counts.iter().sum::<u64>(), 7);
        // Rate-weighted: a 10x-rate tenant gets ~10x the requests.
        let counts = split_counts(&[10.0, 1.0], 110);
        assert_eq!(counts, vec![100, 10]);
    }

    #[test]
    fn poisson_mean_matches_rate() {
        let mut proc =
            ArrivalProcess::new(ArrivalKind::Poisson, 50.0, Xoshiro256::seed_from_u64(11));
        let n = 4000;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            last = proc.next_arrival();
        }
        let mean_gap = last.as_secs_f64() / n as f64;
        let expected = 1.0 / 50.0;
        assert!(
            (mean_gap - expected).abs() / expected < 0.1,
            "mean inter-arrival {mean_gap:.5} vs expected {expected:.5}"
        );
    }

    #[test]
    fn modulated_processes_stay_near_the_base_rate() {
        for kind in [ArrivalKind::Bursty, ArrivalKind::Diurnal] {
            let mut proc = ArrivalProcess::new(kind, 50.0, Xoshiro256::seed_from_u64(23));
            let n = 6000;
            let mut last = SimTime::ZERO;
            for _ in 0..n {
                last = proc.next_arrival();
            }
            let achieved = n as f64 / last.as_secs_f64();
            assert!(
                achieved > 20.0 && achieved < 110.0,
                "{kind}: achieved rate {achieved:.1} strays too far from 50"
            );
        }
    }
}
