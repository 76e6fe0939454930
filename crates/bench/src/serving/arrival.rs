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

/// Diurnal thinning candidates drawn at once. Every candidate consumes
/// exactly two uniforms (its gap, then its accept draw) whatever the
/// decision, so a block's draws, gaps and clocks are fixed before any
/// candidate is decided; only the draws after a tenant's last arrival
/// go to waste.
const BLOCK: usize = 64;

/// How far an accept draw must sit from the pre-test's ratio for the
/// pre-test to decide the candidate. For `turns < PRETEST_TURNS` the
/// pre-test ratio is within
///
/// ```text
///   D/(1+D) · ( 6.69e-10   Taylor remainder t¹⁵/15! at t = π/2
///             + 6.3e-11    phase rounding: turns · (|TAU − 2π| + 2π·2⁻⁵³) < 2¹⁶ · 9.5e-16
///             + 1e-15 )    libm `sin` and polynomial rounding
///   + 1e-15                rounding of the two ratios
///   = 3.25e-10             (D = DIURNAL_DEPTH, D/(1+D) = 0.44)
/// ```
///
/// of the ratio the exact path computes, just under a third of this
/// margin; `sin_polynomial_stays_within_its_bound` recomputes the sum
/// from the remainder and fails if it reaches a third. Only a
/// draw closer than the margin (about 2e-9 of candidates) runs `sin`.
const MARGIN: f64 = 1e-9;
/// Below this many periods the phase rounding stays inside [`MARGIN`]'s
/// budget; a later candidate always runs the exact path.
const PRETEST_TURNS: f64 = 65_536.0;

/// A single tenant's arrival generator: produces a monotone stream of
/// arrival times at a mean rate of `rate` requests per virtual second.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    kind: ArrivalKind,
    rate: f64,
    rng: Xoshiro256,
    /// Current virtual clock, in seconds. A diurnal process keeps the
    /// clock of its last drawn candidate, which may run ahead of the
    /// arrivals it has returned.
    clock: f64,
    /// MMPP state: are we in a burst, and when does the state end?
    burst: bool,
    state_end: f64,
    /// Diurnal: clocks of the last block's accepted candidates, of which
    /// `ready[next..accepted]` are still to be returned.
    ready: [f64; BLOCK],
    next: usize,
    accepted: usize,
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
            ready: [0.0; BLOCK],
            next: 0,
            accepted: 0,
        }
    }

    /// Advances the process and returns the next arrival time.
    pub fn next_arrival(&mut self) -> SimTime {
        let clock = match self.kind {
            ArrivalKind::Poisson => {
                self.clock += exponential(&mut self.rng, self.rate);
                self.clock
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
                    break self.clock;
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
            ArrivalKind::Diurnal => {
                while self.next == self.accepted {
                    self.thin_block();
                }
                self.next += 1;
                self.ready[self.next - 1]
            }
        };
        SimTime::from_nanos((clock * 1e9).round() as u64)
    }

    /// Draws the next [`BLOCK`] diurnal candidates and keeps the clocks
    /// of those thinning accepts, in order. Bit-identical to drawing one
    /// candidate at a time: the uniforms come off the stream in the same
    /// order, the clock sums the gaps in the same order, and a candidate
    /// the pre-test cannot settle runs the exact comparison.
    fn thin_block(&mut self) {
        let peak = self.rate * (1.0 + DIURNAL_DEPTH);
        let mut gap_draws = [0.0; BLOCK];
        let mut accept_draws = [0.0; BLOCK];
        for (g, a) in gap_draws.iter_mut().zip(&mut accept_draws) {
            *g = self.rng.next_f64();
            *a = self.rng.next_f64();
        }
        // The logarithms are independent of one another; only the sum
        // that follows is serial.
        let mut clocks = gap_draws.map(|u| inverse_exponential(u, peak));
        for c in &mut clocks {
            self.clock += *c;
            *c = self.clock;
        }
        let mut accepted = 0;
        for (&clock, &u) in clocks.iter().zip(&accept_draws) {
            // Written either way; only an accept keeps it.
            self.ready[accepted] = clock;
            accepted += usize::from(accepts(self.rate, peak, clock, u));
        }
        self.next = 0;
        self.accepted = accepted;
    }
}

/// Thinning: does accept draw `u` keep the candidate at `clock`? The
/// polynomial pre-test decides unless `u` lies within [`MARGIN`] of its
/// ratio or the clock is [`PRETEST_TURNS`] periods in; then the exact
/// test does.
fn accepts(rate: f64, peak: f64, clock: f64, u: f64) -> bool {
    let turns = clock / DIURNAL_PERIOD;
    let lead = u - pretest_ratio(turns);
    if lead.abs() > MARGIN && turns < PRETEST_TURNS {
        lead < 0.0
    } else {
        accepts_exactly(rate, peak, clock, u)
    }
}

/// The exact thinning test: accept proportionally to the instantaneous
/// rate at `clock`, through libm `sin`.
fn accepts_exactly(rate: f64, peak: f64, clock: f64, u: f64) -> bool {
    let phase = (clock / DIURNAL_PERIOD) * std::f64::consts::TAU;
    let current = rate * (1.0 + DIURNAL_DEPTH * phase.sin());
    u < current / peak
}

/// The pre-test's acceptance ratio `(1 + D·sin)/(1 + D)` at `turns`
/// periods, within 3.3e-10 of the exact one (see [`MARGIN`]).
fn pretest_ratio(turns: f64) -> f64 {
    (1.0 + DIURNAL_DEPTH * sin_turns(turns)) / (1.0 + DIURNAL_DEPTH)
}

/// `sin(2π·turns)` for `0 <= turns < 2^52`, within 6.69e-10: the exact
/// distance to the nearest whole turn, folded into a quarter turn, then
/// the Taylor series to t¹³ on `[-π/2, π/2]`, whose alternating remainder
/// is below (π/2)¹⁵/15! = 6.688e-10.
fn sin_turns(turns: f64) -> f64 {
    // Adding and removing 2^52 rounds to the nearest whole turn, and the
    // difference is exact: x ∈ [-1/2, 1/2].
    const WHOLE: f64 = 4_503_599_627_370_496.0;
    let x = turns - ((turns + WHOLE) - WHOLE);
    // sin(π − θ) = sin θ folds x into [-1/4, 1/4], exactly.
    let x = if x.abs() > 0.25 {
        0.5f64.copysign(x) - x
    } else {
        x
    };
    let t = std::f64::consts::TAU * x;
    let t2 = t * t;
    let mut p = 1.0 / 6_227_020_800.0;
    for c in [
        -1.0 / 39_916_800.0,
        1.0 / 362_880.0,
        -1.0 / 5_040.0,
        1.0 / 120.0,
        -1.0 / 6.0,
        1.0,
    ] {
        p = c + t2 * p;
    }
    t * p
}

/// Exponential variate with the given rate, by inversion.
fn exponential(rng: &mut Xoshiro256, rate: f64) -> f64 {
    inverse_exponential(rng.next_f64(), rate)
}

/// The exponential variate at rate `rate` that uniform `u` inverts to.
fn inverse_exponential(u: f64, rate: f64) -> f64 {
    -(1.0 - u).ln() / rate
}

/// Splits `total` requests across tenants proportionally to `weights`
/// (largest-remainder rounding), so counts are exact and deterministic.
///
/// The serving layer weights by per-tenant arrival *rate*: every tenant
/// then spans the same virtual horizon, and a tenant's `load_weight`
/// governs its share of offered *busy time* rather than its request
/// count. An empty trace splits to all zeros whatever the weights.
pub(crate) fn split_counts(weights: &[f64], total: u64) -> Vec<u64> {
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
    let mut live: Vec<Stream> = Vec::with_capacity(tenants.len());
    for (ti, tenant) in tenants.iter().enumerate() {
        let arrivals_rng = master.fork();
        let class_rng = master.fork();
        // Forked even for an idle tenant, so the tenants after it keep
        // their streams.
        if counts[ti] == 0 {
            continue;
        }
        let mut proc = ArrivalProcess::new(kind, rates[ti], arrivals_rng);
        live.push(Stream {
            head: proc.next_arrival(),
            tenant: ti as u32,
            left: counts[ti],
            proc,
            class_rng,
            weight: tenant.total_weight(),
            // Running sums of the mix, built once: a draw in
            // `[0, weight)` picks the first class whose sum exceeds it,
            // as `TenantSpec::pick` does without re-summing the mix per
            // request.
            cumulative: tenant
                .mix
                .iter()
                .scan(0, |sum, c| {
                    *sum += u64::from(c.weight);
                    Some(*sum)
                })
                .collect(),
        });
    }
    // Every stream ascends, so a k-way merge ranks the trace: the
    // earliest head goes next, a tie to the lower tenant (`live` stays
    // in tenant order), and each tenant keeps its own order.
    let mut merged: Vec<Request> = Vec::with_capacity(total as usize);
    while !live.is_empty() {
        let mut i = 0;
        for j in 1..live.len() {
            if live[j].head < live[i].head {
                i = j;
            }
        }
        let s = &mut live[i];
        let draw = s.class_rng.next_range(s.weight);
        merged.push(Request {
            arrival: s.head,
            tenant: s.tenant,
            class: s.cumulative.partition_point(|&sum| sum <= draw) as u32,
        });
        s.left -= 1;
        if s.left == 0 {
            live.remove(i);
        } else {
            s.head = s.proc.next_arrival();
        }
    }
    merged
}

/// One tenant's side of [`generate`]'s merge.
struct Stream {
    /// The tenant's next arrival, not yet emitted.
    head: SimTime,
    tenant: u32,
    /// Requests still to emit, `head`'s included.
    left: u64,
    proc: ArrivalProcess,
    class_rng: Xoshiro256,
    weight: u64,
    cumulative: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_workloads::default_tenants;

    /// FNV-64 of a trace: each request's arrival ns, tenant and class.
    fn digest(trace: &[Request]) -> u64 {
        let mut h = hcc_types::hash::Fnv64::new();
        for r in trace {
            h.write_u64(r.arrival.as_nanos());
            h.write_u32(r.tenant);
            h.write_u32(r.class);
        }
        h.finish()
    }

    /// Frozen traces: the digest of `generate` for every process at 1, 2
    /// and 4 tenants, at the forensics soak's size (40k diurnal requests
    /// over 2400 virtual seconds), at nanosecond-scale gaps where most
    /// arrivals tie, and at the floored rate, whose clock saturates the
    /// nanosecond range. Any change to a trace's bytes shows up here.
    #[test]
    fn generate_matches_frozen_digests() {
        use ArrivalKind::{Bursty, Diurnal, Poisson};
        let (one, two, four) = ([40.0], [40.0, 25.0], [30.0, 20.0, 10.0, 5.0]);
        let soak = [40_000.0 * 3.0 / 4.0 / 2400.0, 40_000.0 / 4.0 / 2400.0];
        let (ties, floor) = ([2e9, 1e9], [1e-7, 1e-7]);
        type Case<'a> = (ArrivalKind, usize, &'a [f64], u64, u64, u64);
        let cases: [Case; 16] = [
            (Poisson, 1, &one, 3_000, 1, 0x76a7_7ae2_0b97_8a64),
            (Bursty, 1, &one, 3_000, 1, 0xdc39_58af_a6a5_eab1),
            (Diurnal, 1, &one, 3_000, 1, 0x8326_862b_16b5_4f7d),
            (Poisson, 2, &two, 5_000, 7, 0xaedf_937e_a269_5d2b),
            (Bursty, 2, &two, 5_000, 7, 0x8986_ab88_28a4_51a5),
            (Diurnal, 2, &two, 5_000, 7, 0xbb7f_85a0_d9a0_786a),
            (Poisson, 4, &four, 6_000, 0x5EED, 0xaa63_986c_3b11_f09a),
            (Bursty, 4, &four, 6_000, 0x5EED, 0xf54d_78d8_e0d7_c762),
            (Diurnal, 4, &four, 6_000, 0x5EED, 0x71f7_4037_4f55_09a7),
            (
                Diurnal,
                2,
                &soak,
                40_000,
                0x0F0E_15C5,
                0xa4ed_c4ac_0af5_30ea,
            ),
            (
                Diurnal,
                2,
                &soak,
                40_000,
                0x5EED_0011,
                0x564d_18cb_856c_2eca,
            ),
            (Poisson, 2, &ties, 3_000, 5, 0xe43b_f7db_703b_9605),
            (Bursty, 2, &ties, 3_000, 5, 0xb192_9e51_acc8_8bd3),
            (Diurnal, 2, &ties, 3_000, 5, 0x46bb_85e7_fd42_eeb7),
            (Poisson, 2, &floor, 40_000, 9, 0xe9fd_165d_ea06_8a3a),
            (Diurnal, 2, &floor, 40_000, 9, 0x5d16_fbd5_d12f_9139),
        ];
        let mut wrong = String::new();
        for (kind, n, rates, total, seed, want) in cases {
            let trace = generate(&default_tenants(n), rates, kind, total, seed);
            assert_eq!(trace.len() as u64, total);
            if rates[0] < 1e-6 {
                // Floored rates run the clock past u64 nanoseconds.
                assert_eq!(trace[trace.len() - 1].arrival.as_nanos(), u64::MAX);
            }
            let got = digest(&trace);
            if got != want {
                wrong += &format!("\n{kind} x{n}, {total} requests, seed {seed:#x}: {got:#018x}");
            }
        }
        assert!(wrong.is_empty(), "digests changed:{wrong}");
    }

    /// One diurnal candidate at a time, as the process first drew them:
    /// a gap, an accept draw, libm `sin`, and `round`.
    fn per_candidate_diurnal(rate: f64, mut rng: Xoshiro256, count: usize) -> Vec<u64> {
        let rate = if rate.is_finite() && rate > 1e-6 {
            rate
        } else {
            1e-6
        };
        let exp = |rng: &mut Xoshiro256, rate: f64| -(1.0 - rng.next_f64()).ln() / rate;
        exp(&mut rng, 1.0 / CALM_SOJOURN);
        let mut clock = 0.0;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            loop {
                let peak = rate * (1.0 + DIURNAL_DEPTH);
                clock += exp(&mut rng, peak);
                let phase = (clock / DIURNAL_PERIOD) * std::f64::consts::TAU;
                let current = rate * (1.0 + DIURNAL_DEPTH * phase.sin());
                if rng.next_f64() < current / peak {
                    break;
                }
            }
            out.push((clock * 1e9).round() as u64);
        }
        out
    }

    #[test]
    fn block_thinning_matches_a_per_candidate_reference() {
        for seed in [1, 7, 0x5EED, 0xC4A0_55ED] {
            for rate in [0.0, 1e-6, 0.02, 3.0, 40.0, 2e9] {
                for count in [0, 1, 63, 64, 65, 10_000] {
                    let rng = Xoshiro256::seed_from_u64(seed);
                    let want = per_candidate_diurnal(rate, rng.clone(), count);
                    let mut proc = ArrivalProcess::new(ArrivalKind::Diurnal, rate, rng);
                    let got: Vec<u64> =
                        (0..count).map(|_| proc.next_arrival().as_nanos()).collect();
                    assert!(got == want, "seed {seed:#x}, rate {rate}, {count} arrivals");
                }
            }
        }
    }

    /// The trace as first built: each tenant's stream pushed whole, then
    /// a stable sort by (arrival, tenant).
    fn concatenate_and_sort(
        tenants: &[TenantSpec],
        rates: &[f64],
        kind: ArrivalKind,
        total: u64,
        seed: u64,
    ) -> Vec<Request> {
        let counts = split_counts(rates, total);
        let mut master = Xoshiro256::seed_from_u64(seed);
        let mut trace = Vec::new();
        for (ti, tenant) in tenants.iter().enumerate() {
            let mut proc = ArrivalProcess::new(kind, rates[ti], master.fork());
            let mut class_rng = master.fork();
            for _ in 0..counts[ti] {
                let class = tenant.pick(class_rng.next_range(tenant.total_weight()));
                trace.push(Request {
                    arrival: proc.next_arrival(),
                    tenant: ti as u32,
                    class: class as u32,
                });
            }
        }
        trace.sort_by_key(|r| (r.arrival, r.tenant));
        trace
    }

    #[test]
    fn merge_ranks_as_a_stable_sort_does() {
        let rate_sets: [&[f64]; 3] = [
            &[40.0, 25.0, 10.0, 5.0],
            &[2e9, 1e9, 2e9, 5e8],
            &[3.0, 0.0, 1e-7, 3.0],
        ];
        for kind in ArrivalKind::ALL {
            for n in 1..=4 {
                for rates in rate_sets {
                    let rates = &rates[..n];
                    if rates.iter().sum::<f64>() <= 0.0 {
                        continue;
                    }
                    let tenants = default_tenants(n);
                    for (total, seed) in [(0, 1), (1, 2), (5, 3), (4_000, 0x5EED)] {
                        let want = concatenate_and_sort(&tenants, rates, kind, total, seed);
                        let got = generate(&tenants, rates, kind, total, seed);
                        assert!(got == want, "{kind} x{n} at {rates:?}, {total} requests");
                    }
                }
            }
        }
    }

    #[test]
    fn sin_polynomial_stays_within_its_bound() {
        // The alternating Taylor remainder at a quarter turn, plus the
        // rounding of the polynomial and of the reference.
        let remainder = std::f64::consts::FRAC_PI_2.powi(15) / 1_307_674_368_000.0;
        let bound = remainder + 1e-15;
        // `MARGIN`'s budget: the pre-test's ratio, phase rounding up to
        // `PRETEST_TURNS` included, must stay a third of the margin from
        // the exact one.
        let depth = DIURNAL_DEPTH / (1.0 + DIURNAL_DEPTH);
        let phase = PRETEST_TURNS * 9.5e-16;
        let budget = depth * (remainder + phase + 1e-15) + 1e-15;
        assert!(budget < MARGIN / 3.0, "pre-test budget {budget:e}");
        let reference = |turns: f64| (std::f64::consts::TAU * (turns - turns.round())).sin();
        // Quadrant edges, either side of them, and whole turns far out.
        let mut points = Vec::new();
        for k in 0..=16 {
            let edge = f64::from(k) / 4.0;
            for d in [0.0, 1e-12, 1e-6, 1e-3] {
                points.extend([edge + d, (edge - d).max(0.0)]);
            }
            points.extend([65_535.0 + edge / 4.0, 1e9 + edge]);
        }
        // A dense grid over four periods.
        points.extend((0..1 << 20).map(|i| f64::from(i) / f64::from(1 << 18)));
        for turns in points {
            let err = (sin_turns(turns) - reference(turns)).abs();
            assert!(err <= bound, "turns {turns}: error {err:e}");
        }
    }

    #[test]
    fn pretest_stays_a_third_of_a_margin_from_the_exact_ratio() {
        // The exact path's ratio with its own phase rounding, over clocks
        // up to the pre-test's last period.
        let exact = |clock: f64| {
            let phase = (clock / DIURNAL_PERIOD) * std::f64::consts::TAU;
            (1.0 + DIURNAL_DEPTH * phase.sin()) / (1.0 + DIURNAL_DEPTH)
        };
        let mut rng = Xoshiro256::seed_from_u64(0x51);
        let last = PRETEST_TURNS * DIURNAL_PERIOD;
        for i in 0..200_000 {
            let clock = if i % 2 == 0 {
                rng.next_f64() * last
            } else {
                last * (1.0 - rng.next_f64() * 1e-3)
            };
            let err = (pretest_ratio(clock / DIURNAL_PERIOD) - exact(clock)).abs();
            assert!(err < MARGIN / 3.0, "clock {clock}: error {err:e}");
        }
    }

    #[test]
    fn draws_within_the_margin_run_the_exact_test() {
        let (rate, peak) = (40.0, 40.0 * (1.0 + DIURNAL_DEPTH));
        // A quarter period in, where the Taylor remainder is largest;
        // and past the pre-test's last period, where it never decides.
        for clock in [
            15.0,
            45.0,
            15.0 + 1e-7,
            PRETEST_TURNS * DIURNAL_PERIOD + 15.0,
        ] {
            let phase = (clock / DIURNAL_PERIOD) * std::f64::consts::TAU;
            let ratio = rate * (1.0 + DIURNAL_DEPTH * phase.sin()) / peak;
            let below = f64::from_bits(ratio.to_bits() - 1);
            if clock < PRETEST_TURNS * DIURNAL_PERIOD {
                let gap = (pretest_ratio(clock / DIURNAL_PERIOD) - ratio).abs();
                assert!(
                    gap > 2.0 * (ratio - below),
                    "clock {clock}: pre-test too exact"
                );
                assert!(gap < MARGIN, "clock {clock}: {gap:e} outside the margin");
            }
            // Draws on either side of the exact ratio, all within the
            // margin of the pre-test's: only the exact test gets them
            // all right.
            for u in [below, ratio, ratio - 1e-10, ratio + 1e-10] {
                assert_eq!(
                    accepts(rate, peak, clock, u),
                    u < ratio,
                    "clock {clock}, u {u} vs ratio {ratio}"
                );
            }
        }
    }

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
