//! # hcc-trace
//!
//! Nsight-Systems-style tracing for the `hcc` simulators: typed spans
//! ([`TraceEvent`]), a per-run container ([`Timeline`]), extraction of the
//! paper's launch/kernel/memory metrics (KLO, LQT, KQT, KET, `T_mem`,
//! `T_other`), distribution statistics ([`Cdf`], [`Tail`], [`Summary`]), and the
//! call-stack cost trees behind Fig. 8 ([`CallFrame`]).
//!
//! Every figure in the paper's evaluation is a function of this event
//! stream; the bench harnesses consume these types directly.
//!
//! ```
//! use hcc_trace::{EventKind, KernelId, Timeline, TraceEvent};
//! use hcc_types::{SimDuration, SimTime};
//!
//! let mut tl = Timeline::new();
//! tl.push(
//!     TraceEvent::new(
//!         EventKind::Launch {
//!             kernel: KernelId(0),
//!             queue_wait: SimDuration::micros(1),
//!             first: true,
//!         },
//!         SimTime::ZERO,
//!         SimTime::ZERO + SimDuration::micros(6),
//!     )
//!     .with_correlation(1),
//! );
//! let lm = tl.launch_metrics();
//! assert_eq!(lm.total_klo(), SimDuration::micros(6));
//! assert_eq!(lm.total_lqt(), SimDuration::micros(1));
//! ```

mod callstack;
pub mod causal;
pub mod critpath;
mod event;
pub mod export;
pub mod flight;
mod histogram;
pub mod metrics;
pub mod quantile;
pub mod rollup;
mod stats;
mod timeline;

pub use callstack::CallFrame;
pub use causal::{CausalEdge, CausalGraph, EdgeKind, EventId};
pub use critpath::{Attribution, CritPath, ResourceClass, Segment};
pub use event::{EventKind, HypercallReason, KernelId, StreamId, TraceEvent};
pub use export::ChromeExport;
pub use flight::{FlightConfig, FlightLog, FlightRecorder, FlightSample, FlightSkeleton, SpanKind};
pub use histogram::Histogram;
pub use metrics::{Counter, Gauge, MetricsSet, OrderedGauge, Series};
pub use rollup::{CompletionSample, Window, WindowIndex, WindowIntegrals, WindowStats};
pub use stats::{geomean, mean_ratio, Cdf, Summary, Tail};
pub use timeline::{KernelRecord, LaunchMetrics, LaunchRecord, MemMetrics, PhaseTotals, Timeline};

#[cfg(test)]
mod proptests {
    use super::*;
    use hcc_check::strategy::{u16s, u64s, vecs};
    use hcc_check::{ensure, ensure_eq, forall, Config};
    use hcc_types::{SimDuration, SimTime};

    /// Builds alternating launch/kernel events from raw (start, len, kernel)
    /// triples — the shrinkable representation the strategies generate.
    fn events_from(raw: &[(u64, u64, u16)]) -> Vec<TraceEvent> {
        raw.iter()
            .enumerate()
            .map(|(i, &(start, len, kernel))| {
                let s = SimTime::from_nanos(start);
                let e = s + SimDuration::from_nanos(len);
                if i % 2 == 0 {
                    TraceEvent::new(
                        EventKind::Launch {
                            kernel: KernelId(u32::from(kernel)),
                            queue_wait: SimDuration::from_nanos(len / 2),
                            first: false,
                        },
                        s,
                        e,
                    )
                    .with_correlation(i as u32)
                } else {
                    TraceEvent::new(
                        EventKind::Kernel {
                            kernel: KernelId(u32::from(kernel)),
                            uvm: false,
                        },
                        s,
                        e,
                    )
                    .with_correlation(i as u32 - 1)
                }
            })
            .collect()
    }

    fn raw_events() -> impl hcc_check::Strategy<Value = Vec<(u64, u64, u16)>> {
        vecs(
            (u64s(0..1_000_000), u64s(0..100_000), u16s(0..u16::MAX)),
            1..100,
        )
    }

    /// The end-to-end span can never be shorter than any phase total
    /// component derived from non-overlapping host work... but phases
    /// *can* exceed the span when events overlap. What must always hold:
    /// span >= longest single event.
    #[test]
    fn span_bounds_longest_event() {
        forall!(Config::new(0x7ACE_0001), raw in raw_events() => {
            let events = events_from(&raw);
            let tl: Timeline = events.iter().cloned().collect();
            let longest = events.iter().map(TraceEvent::duration).max().unwrap();
            ensure!(tl.span() >= longest, "span {} < longest {}", tl.span(), longest);
        });
    }

    /// Mean lies between min and max.
    #[test]
    fn mean_within_bounds() {
        forall!(Config::new(0x7ACE_0003), samples in vecs(u64s(0..10_000_000), 1..200) => {
            let durations: Vec<SimDuration> =
                samples.into_iter().map(SimDuration::from_nanos).collect();
            let s = Summary::of(&durations).unwrap();
            ensure!(s.mean >= s.min && s.mean <= s.max);
            ensure!(s.median >= s.min && s.median <= s.max);
        });
    }

    /// Metric totals equal the sum over records.
    #[test]
    fn launch_totals_consistent() {
        forall!(Config::new(0x7ACE_0004), raw in raw_events() => {
            let tl: Timeline = events_from(&raw).into_iter().collect();
            let lm = tl.launch_metrics();
            let klo_sum: SimDuration = lm.launches.iter().map(|l| l.klo).sum();
            ensure_eq!(lm.total_klo(), klo_sum);
            let ket_sum: SimDuration = lm.kernels.iter().map(|k| k.ket).sum();
            ensure_eq!(lm.total_ket(), ket_sum);
        });
    }

    /// A counter is monotone under any sequence of increments.
    #[test]
    fn counter_monotone() {
        forall!(Config::new(0x7ACE_0005), incs in vecs(u64s(0..1_000), 0..100) => {
            let mut c = metrics::Counter::new();
            c.enable();
            let mut prev = c.total();
            for n in incs {
                c.add(n);
                ensure!(c.total() >= prev, "counter moved down");
                prev = c.total();
            }
        });
    }

    /// Gauge conservation: every `occupy` interval contributes +1 then
    /// −1, so the materialized series ends at zero, never dips negative,
    /// and its peak is bounded by the number of enqueues. The integral
    /// equals the summed per-interval length (Σ per-item queue time).
    #[test]
    fn gauge_conservation() {
        forall!(
            Config::new(0x7ACE_0006),
            raw in vecs((u64s(0..1_000_000), u64s(0..100_000)), 0..100) =>
        {
            let mut g = metrics::Gauge::enabled();
            let mut expected = SimDuration::ZERO;
            for &(start, len) in &raw {
                let s = SimTime::from_nanos(start);
                let e = s + SimDuration::from_nanos(len);
                g.occupy(s, e);
                expected += SimDuration::from_nanos(len);
            }
            let series = g.series("q");
            ensure_eq!(series.final_value(), 0);
            ensure!(series.peak() <= raw.len() as i64);
            let mut running = 0i64;
            for &(_, v) in &series.samples {
                ensure!(v >= 0, "gauge dipped negative");
                running = v;
            }
            ensure_eq!(running, 0);
            ensure_eq!(series.integral(), expected);
        });
    }

    /// The critical-path identity on arbitrary (overlapping, unordered)
    /// launch/kernel timelines: segments always partition
    /// `[first_start, last_end]` exactly and walk time monotonically.
    #[test]
    fn critpath_identity_on_random_timelines() {
        forall!(Config::new(0x7ACE_0008), raw in raw_events() => {
            let tl: Timeline = events_from(&raw).into_iter().collect();
            let p = critpath::extract(&tl, &CausalGraph::new(false));
            ensure!(p.identity_holds(), "identity failed");
            ensure_eq!(p.attribution().total(), tl.span());
            for w in p.segments().windows(2) {
                ensure_eq!(w[0].end, w[1].start);
            }
        });
    }

    /// A raw flight tuple `((arrival, queue), (spdm, doorbell, shape))`.
    type RawFlight = ((u64, u64), (u64, u64, u64));

    /// Raw flight tuples shrunk by the strategies into well-formed
    /// skeletons: the wiring
    /// guarantees `dispatch = arrival + queue` and
    /// `settle = dispatch + spdm + doorbell + shape (+ margin)`, which
    /// is exactly what the serving layer records.
    fn skeletons_from(raw: &[RawFlight]) -> Vec<flight::FlightSkeleton> {
        raw.iter()
            .enumerate()
            .map(|(i, &((arrival, queue), (spdm, doorbell, shape)))| {
                let arrival = SimTime::from_nanos(arrival);
                let dispatch = arrival + SimDuration::from_nanos(queue);
                let settle = dispatch + SimDuration::from_nanos(spdm + doorbell + shape);
                flight::FlightSkeleton {
                    req: i as u32,
                    tenant: (i % 3) as u32,
                    gpu: (i % 2) as u32,
                    batch: 1,
                    arrival,
                    dispatch,
                    settle,
                    spdm: SimDuration::from_nanos(spdm),
                    doorbell: SimDuration::from_nanos(doorbell),
                    cold: spdm > 0,
                    rejected: false,
                }
            })
            .collect()
    }

    fn raw_flights() -> impl hcc_check::Strategy<Value = Vec<RawFlight>> {
        vecs(
            (
                (u64s(0..1_000_000_000), u64s(0..50_000_000)),
                (u64s(0..20_000_000), u64s(0..100_000), u64s(0..80_000_000)),
            ),
            1..80,
        )
    }

    fn flight_cfg(seed: u64) -> FlightConfig {
        FlightConfig {
            window: SimDuration::millis(50),
            worst: 3,
            reservoir: 2,
            seed,
        }
    }

    fn record_all(
        cfg: FlightConfig,
        skels: impl IntoIterator<Item = flight::FlightSkeleton>,
    ) -> (FlightLog, usize) {
        let mut rec = FlightRecorder::new(cfg);
        let mut n = 0;
        for s in skels {
            rec.record(s);
            n += 1;
        }
        let shape_of: Vec<u32> = (0..n as u32).collect();
        let shapes: Vec<flight::ShapeDecomp> =
            (0..n).map(|_| flight::ShapeDecomp::default()).collect();
        (rec.resolve(&shape_of, &shapes), n)
    }

    /// The per-request span identity on arbitrary well-formed
    /// skeletons: every kept exemplar's spans partition
    /// `settle − arrival` exactly, and the store honours its
    /// `windows × (worst + reservoir)` bound.
    #[test]
    fn flight_span_identity_on_random_skeletons() {
        forall!(Config::new(0x7ACE_0009), raw in raw_flights() => {
            let (log, n) = record_all(flight_cfg(0xF11A), skeletons_from(&raw));
            ensure_eq!(log.recorded, n as u64);
            ensure!(!log.samples.is_empty(), "sampler kept nothing");
            for s in &log.samples {
                ensure!(log.identity_holds_for(s), "request #{} broke the identity", s.req());
            }
            ensure!(log.kept_entries <= log.entry_bound());
        });
    }

    /// The sampler is insertion-order invariant: recording the same
    /// skeletons in reverse yields a byte-identical log (the property
    /// that makes the flight plane thread-count invariant — engine
    /// completions may interleave in any order).
    #[test]
    fn flight_sampler_is_insertion_order_invariant() {
        use hcc_types::json::ToJson as _;
        forall!(Config::new(0x7ACE_000A), raw in raw_flights() => {
            let skels = skeletons_from(&raw);
            let (fwd, _) = record_all(flight_cfg(0xF11A), skels.iter().copied());
            let (rev, _) = record_all(flight_cfg(0xF11A), skels.iter().rev().copied());
            ensure_eq!(fwd.to_json_string(), rev.to_json_string());
        });
    }

    /// Seeded reservoir replay: the same seed reproduces the log
    /// byte-for-byte, and a different seed may reshuffle the uniform
    /// reservoir but never the tail (worst-K) exemplars.
    #[test]
    fn flight_reservoir_replays_for_a_seed() {
        use hcc_types::json::ToJson as _;
        forall!(
            Config::new(0x7ACE_000B),
            (seed, raw) in (u64s(0..u64::MAX), raw_flights()) =>
        {
            let skels = skeletons_from(&raw);
            let (a, _) = record_all(flight_cfg(seed), skels.iter().copied());
            let (b, _) = record_all(flight_cfg(seed), skels.iter().copied());
            ensure_eq!(a.to_json_string(), b.to_json_string());
            let (c, _) = record_all(flight_cfg(seed ^ 0x5EED), skels.iter().copied());
            let tails = |log: &FlightLog| -> Vec<u32> {
                log.samples.iter().filter(|s| s.tail).map(|s| s.req()).collect()
            };
            // Tail exemplars must be seed-independent.
            ensure_eq!(tails(&a), tails(&c));
        });
    }

    /// The materialized series is independent of recording order: any
    /// permutation of the same intervals yields the identical snapshot
    /// (the property that makes obs-enabled replay thread-count
    /// invariant).
    #[test]
    fn gauge_series_order_independent() {
        forall!(
            Config::new(0x7ACE_0007),
            raw in vecs((u64s(0..1_000_000), u64s(1..100_000)), 1..60) =>
        {
            let mut fwd = metrics::Gauge::enabled();
            for &(start, len) in &raw {
                let s = SimTime::from_nanos(start);
                fwd.occupy(s, s + SimDuration::from_nanos(len));
            }
            let mut rev = metrics::Gauge::enabled();
            for &(start, len) in raw.iter().rev() {
                let s = SimTime::from_nanos(start);
                rev.occupy(s, s + SimDuration::from_nanos(len));
            }
            ensure_eq!(fwd.series("q"), rev.series("q"));
        });
    }

    /// Tail oracle: selecting a population's [`Tail`] gives exactly what
    /// sorting it into a [`Cdf`] gives — count, mean, the four quantiles
    /// and the JSON byte for byte. Random populations are full of ties
    /// (values modulo a small spread) or spread over the whole `u64`
    /// range; the fixed cases are the empty, single-sample and all-equal
    /// populations and the lengths 999, 1000 and 1001, where the p999
    /// rank moves.
    #[test]
    fn tail_matches_cdf() {
        use hcc_check::strategy::choice;
        use hcc_types::json::ToJson as _;

        fn agree(samples: &[SimDuration]) -> hcc_check::PropResult {
            let cdf = Cdf::from_durations(samples.to_vec());
            let tail = Tail::of(&mut samples.to_vec());
            ensure_eq!((tail.count, tail.mean), (cdf.len() as u64, cdf.mean()));
            ensure_eq!(
                [tail.p50, tail.p90, tail.p99, tail.p999],
                Tail::QUANTILES.map(|p| cdf.quantile(p))
            );
            ensure_eq!(tail.to_json_string(), cdf.to_json_string());
            Ok(())
        }

        let ns = SimDuration::from_nanos;
        let mut fixed = vec![vec![], vec![ns(7)], vec![ns(42); 1000]];
        for len in [999u64, 1000, 1001] {
            fixed.push((0..len).map(|i| ns(i * 7919 % len)).collect());
            fixed.push((0..len).map(|i| ns(i * 7919 % 13)).collect());
        }
        for samples in &fixed {
            if let Err(e) = agree(samples) {
                panic!("{} samples: {e}", samples.len());
            }
        }

        forall!(
            Config::new(0x7ACE_001A),
            (raw, spread) in (vecs(u64s(0..u64::MAX), 0..300), choice(&[1u64, 3, 1_000, u64::MAX])) =>
        {
            let samples: Vec<SimDuration> = raw.iter().map(|&v| ns(v % spread)).collect();
            agree(&samples)?;
        });
    }

    /// Rollup oracle: every window `tumbling`/`sliding` generate, and
    /// for tumbling windows the `WindowIndex` members and `WindowStats`
    /// of samples listed in shuffled order, agree with a brute-force
    /// recount — list the windows from their definition, filter all
    /// samples by `[start, end)`, sort the completed latencies and take
    /// the nearest rank with integer per-mille arithmetic. Small integer
    /// instants put many samples exactly on window edges; empty windows,
    /// rejections, horizons that are not a multiple of the width and
    /// strides below (and above) the width all turn up.
    #[test]
    fn rollup_matches_brute_force_recount() {
        use hcc_check::strategy::bools;
        use rollup::{sliding, tumbling, window_stats, WindowIndex};

        forall!(
            Config::new(0x7ACE_000C),
            ((raw, horizon), (width, stride, shuffle)) in (
                (vecs((u64s(0..90), u64s(0..1_000), bools()), 0..80), u64s(1..80)),
                (u64s(1..20), u64s(1..20), u64s(0..u64::MAX)),
            ) =>
        {
            // Listed in a seeded shuffle; samples settling past the
            // horizon fall in no window and the index leaves them out.
            let mut samples: Vec<CompletionSample> = raw
                .iter()
                .enumerate()
                .map(|(i, &(at, latency, rejected))| CompletionSample {
                    req: i as u32,
                    tenant: 0,
                    at: SimTime::from_nanos(at),
                    latency: SimDuration::from_nanos(latency),
                    rejected,
                })
                .collect();
            samples.sort_by_key(|s| (s.req as u64).wrapping_mul(shuffle | 1).rotate_left(17));
            let ns = SimDuration::from_nanos;
            let end = SimTime::from_nanos(horizon);
            for (step, windows) in [
                (width, tumbling(end, ns(width))),
                (stride, sliding(end, ns(width), ns(stride))),
            ] {
                let starts: Vec<u64> = (0..horizon).step_by(step as usize).collect();
                ensure_eq!(windows.len(), starts.len());
                for (w, &start) in windows.iter().zip(&starts) {
                    let stop = (start + width).min(horizon);
                    ensure_eq!((w.start.as_nanos(), w.end.as_nanos()), (start, stop));
                }
            }
            let windows = tumbling(end, ns(width));
            let index = WindowIndex::build(end, ns(width), samples.len(), |i| samples[i].at);
            let stats = window_stats(&windows, &index, |i| samples[i as usize]);
            for (w, st) in windows.iter().zip(&stats) {
                let mut inside: Vec<u32> = (0..samples.len() as u32)
                    .filter(|&i| (w.start..w.end).contains(&samples[i as usize].at))
                    .collect();
                inside.sort_unstable();
                ensure_eq!((w.index, index.window(w.index)), (w.index, &inside[..]));
                let mut latencies: Vec<u64> = inside
                    .iter()
                    .map(|&i| samples[i as usize])
                    .filter(|s| !s.rejected)
                    .map(|s| s.latency.as_nanos())
                    .collect();
                latencies.sort_unstable();
                let n = latencies.len() as u64;
                let rank = |per_mille: u64| match n {
                    0 => 0,
                    _ => latencies[((per_mille * n).div_ceil(1_000).max(1) - 1) as usize],
                };
                ensure_eq!(
                    (st.window, st.completed, st.rejected),
                    (*w, n, inside.len() as u64 - n)
                );
                ensure_eq!(
                    (w.index, [st.p50, st.p99, st.p999, st.latency_sum].map(|d| d.as_nanos())),
                    (w.index, [rank(500), rank(990), rank(999), latencies.iter().sum()])
                );
            }
        });
    }
}
