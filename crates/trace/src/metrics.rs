//! Virtual-time metrics plane: counters, gauges, and histograms sampled on
//! the *simulation* clock.
//!
//! The span events in [`crate::Timeline`] say what happened; this module
//! says how deep the queues were while it happened. Components own their
//! instruments ([`Counter`], [`Gauge`], [`Hist`]) and record change-points
//! as they schedule work; a run-level [`MetricsSet`] snapshot is assembled
//! at the end and exported as Perfetto counter tracks
//! ([`crate::export::ChromeExport::with_metrics`]), a Prometheus-style
//! text page ([`to_prometheus`]), or an [`hcc_types::json`] tree.
//!
//! Determinism contract:
//!
//! - **Virtual-time sampling rule.** A gauge sample is a change-point
//!   `(SimTime, delta)` recorded at a scheduling event. There is no
//!   periodic poller and no wall-clock read anywhere on the simulation
//!   path, so an obs-enabled run replays bit-for-bit for a given seed at
//!   any `HCC_ENGINE_THREADS`.
//! - **Zero-cost when disabled.** Every instrument except
//!   [`OrderedGauge`] (which has no disabled state) is a no-op unless
//!   explicitly enabled; disabled runs take no samples, draw no RNG, and
//!   produce byte-identical figure output.
//! - **Order-independence.** Change-points may be recorded out of time
//!   order (engine completions interleave); [`Gauge::series`] sorts and
//!   merges them, so the snapshot depends only on the *set* of samples.
//!   Change-points already in time order are merged in place, unsorted.
//!   A recorder whose clock never runs backwards uses [`OrderedGauge`]
//!   instead, which coalesces as it records and keeps no raw log.
//!
//! ```
//! use hcc_trace::metrics::Gauge;
//! use hcc_types::{SimDuration, SimTime};
//!
//! let mut g = Gauge::enabled();
//! let t = |us| SimTime::ZERO + SimDuration::micros(us);
//! g.occupy(t(0), t(10)); // one item queued for 10us
//! g.occupy(t(5), t(10)); // a second overlaps for 5us
//! let s = g.series("demo");
//! assert_eq!(s.peak(), 2);
//! assert_eq!(s.final_value(), 0);
//! assert_eq!(s.integral(), SimDuration::micros(15));
//! ```

use std::fmt::Write as _;

use hcc_types::json::{JsonOut, ToJson};
use hcc_types::{SimDuration, SimTime};

use crate::histogram::Histogram;

/// A monotone event counter. Disabled by default; [`Counter::add`] is a
/// single branch when disabled.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counter {
    enabled: bool,
    total: u64,
}

impl Counter {
    /// A disabled (no-op) counter — the default state.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Turns recording on (used when a config enables the metrics plane).
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether this counter records.
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `n` events. Counters only ever move up.
    pub fn add(&mut self, n: u64) {
        if self.enabled {
            self.total += n;
        }
    }

    /// Adds one event.
    pub fn inc(&mut self) {
        self.add(1);
    }

    /// Current total.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }
}

/// An up/down instrument sampled in virtual time as change-points.
///
/// Recording is append-only (`(SimTime, delta)` pairs); the sorted,
/// merged step series is materialized by [`Gauge::series`]. This keeps
/// the hot path branch-plus-push and makes the snapshot independent of
/// recording order. Recorders that already record in time order (a
/// discrete-event loop whose clock never runs backwards) skip the sort.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Gauge {
    enabled: bool,
    deltas: Vec<(SimTime, i64)>,
}

impl Gauge {
    /// A disabled (no-op) gauge — the default state.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// An enabled gauge with no samples.
    pub fn enabled() -> Self {
        Gauge {
            enabled: true,
            deltas: Vec::new(),
        }
    }

    /// Turns recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether this gauge records.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a signed step at `at`.
    pub fn add(&mut self, at: SimTime, delta: i64) {
        if self.enabled && delta != 0 {
            self.deltas.push((at, delta));
        }
    }

    /// Records one unit occupying `[from, to)` — the common
    /// "item enters queue / item leaves queue" pair.
    pub fn occupy(&mut self, from: SimTime, to: SimTime) {
        self.occupy_n(from, to, 1);
    }

    /// Records `amount` units occupying `[from, to)`. Zero-length
    /// intervals cancel and leave no sample.
    pub fn occupy_n(&mut self, from: SimTime, to: SimTime, amount: i64) {
        if from < to {
            self.add(from, amount);
            self.add(to, -amount);
        }
    }

    /// Whether every change-point so far was recorded at or after the
    /// one before it — the case [`Gauge::series`] coalesces without
    /// copying or sorting.
    fn in_time_order(&self) -> bool {
        self.deltas.windows(2).all(|w| w[0].0 <= w[1].0)
    }

    /// Materializes the sorted, merged step series under `name`.
    pub fn series(&self, name: &str) -> Series {
        let mut sorted = Vec::new();
        let deltas = if self.in_time_order() {
            &self.deltas
        } else {
            sorted.clone_from(&self.deltas);
            sorted.sort_by_key(|(t, _)| *t);
            &sorted
        };
        let mut samples: Vec<(SimTime, i64)> = Vec::with_capacity(deltas.len());
        let mut value = 0i64;
        for group in deltas.chunk_by(|a, b| a.0 == b.0) {
            value += group.iter().map(|&(_, d)| d).sum::<i64>();
            // Coalesced no-ops (e.g. +1/-1 at the same instant) leave the
            // value where it was; skip them so the series is minimal.
            if value != samples.last().map_or(0, |&(_, v)| v) {
                samples.push((group[0].0, value));
            }
        }
        Series {
            name: name.to_string(),
            samples,
        }
    }
}

/// A gauge for recorders whose clock never runs backwards: it folds
/// same-instant deltas into one pending group as they arrive and keeps
/// only the change-points where the value moved, so it never holds a raw
/// delta log. [`OrderedGauge::finish`] returns exactly the [`Series`]
/// that [`Gauge::series`] builds from the same deltas.
///
/// ```
/// use hcc_trace::metrics::OrderedGauge;
/// use hcc_types::{SimDuration, SimTime};
///
/// let t = |us| SimTime::ZERO + SimDuration::micros(us);
/// let mut g = OrderedGauge::new();
/// g.add(t(0), 2);
/// g.add(t(5), -1);
/// g.add(t(5), 1); // nets to no change at 5us: no sample
/// g.occupy_n(t(7), t(9), 3);
/// assert_eq!(g.finish("q").samples, vec![(t(0), 2), (t(7), 5), (t(9), 2)]);
/// ```
#[derive(Debug, Default)]
pub struct OrderedGauge {
    samples: Vec<(SimTime, i64)>,
    /// Instant of the pending group.
    at: SimTime,
    /// Value after the pending group.
    value: i64,
    /// Value after the last pushed change-point (0 before the first).
    committed: i64,
}

impl OrderedGauge {
    /// An empty gauge at value 0.
    pub fn new() -> Self {
        OrderedGauge::default()
    }

    /// Records a signed step at `at`.
    ///
    /// # Panics
    /// If `at` is earlier than an instant already recorded.
    pub fn add(&mut self, at: SimTime, delta: i64) {
        assert!(at >= self.at, "ordered gauge recorded out of time order");
        if at != self.at {
            self.flush();
            self.at = at;
        }
        self.value += delta;
    }

    /// Records `amount` units occupying `[from, to)`. Zero-length
    /// intervals cancel and leave no sample; both edges must keep time
    /// order, so `to` bounds every later record.
    pub fn occupy_n(&mut self, from: SimTime, to: SimTime, amount: i64) {
        if from < to {
            self.add(from, amount);
            self.add(to, -amount);
        }
    }

    /// Closes the pending group: a change-point if the value moved.
    fn flush(&mut self) {
        if self.value != self.committed {
            self.samples.push((self.at, self.value));
            self.committed = self.value;
        }
    }

    /// The step series under `name`, holding no spare capacity.
    pub fn finish(mut self, name: &str) -> Series {
        self.flush();
        self.samples.shrink_to_fit();
        Series {
            name: name.to_string(),
            samples: self.samples,
        }
    }
}

/// A materialized gauge series: strictly-increasing change-points of a
/// step function starting at 0 before the first sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Series {
    /// Metric name (dotted path, e.g. `gpu.ring.occupancy`).
    pub name: String,
    /// `(time, value-after-time)` change-points.
    pub samples: Vec<(SimTime, i64)>,
}

impl Series {
    /// Highest value ever held (0 for an empty series).
    pub fn peak(&self) -> i64 {
        self.samples.iter().map(|&(_, v)| v).max().unwrap_or(0)
    }

    /// Value after the last change-point (0 when balanced).
    pub fn final_value(&self) -> i64 {
        self.samples.last().map(|&(_, v)| v).unwrap_or(0)
    }

    /// Number of change-points.
    pub(crate) fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series has no change-points.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Time-weighted integral `Σ value·dt` between change-points, i.e.
    /// total unit-seconds of occupancy. For a queue-depth gauge built
    /// from per-item `occupy` intervals this equals the summed per-item
    /// waiting time exactly. Negative excursions (which a well-formed
    /// gauge never has) contribute zero.
    pub fn integral(&self) -> SimDuration {
        let mut total: u64 = 0;
        for w in self.samples.windows(2) {
            let (t0, v) = w[0];
            let (t1, _) = w[1];
            if v > 0 {
                total += (v as u64).saturating_mul((t1 - t0).as_nanos());
            }
        }
        SimDuration::from_nanos(total)
    }

    /// Mean value over `[ZERO, span]` (0 for an empty span).
    pub fn mean_over(&self, span: SimDuration) -> f64 {
        if span.is_zero() {
            0.0
        } else {
            self.integral().as_nanos() as f64 / span.as_nanos() as f64
        }
    }

    /// Value the step function holds at instant `t`: 0 before the first
    /// change-point, and the final value for any `t` at or past the last
    /// one (a step function persists).
    pub fn value_at(&self, t: SimTime) -> i64 {
        let idx = self.samples.partition_point(|&(st, _)| st <= t);
        if idx == 0 {
            0
        } else {
            self.samples[idx - 1].1
        }
    }

    /// Time-weighted integral of the step function over `[from, to)`.
    /// Total on every input: inverted or empty windows yield zero,
    /// windows starting before the first change-point integrate the
    /// implicit leading 0, and windows ending past the last change-point
    /// extend its value (negative excursions contribute zero, matching
    /// [`Series::integral`]).
    pub fn integral_between(&self, from: SimTime, to: SimTime) -> SimDuration {
        if to <= from {
            return SimDuration::ZERO;
        }
        let mut total = 0u64;
        let mut cursor = from;
        let mut value = self.value_at(from);
        let idx = self.samples.partition_point(|&(st, _)| st <= from);
        for &(st, v) in &self.samples[idx..] {
            if st >= to {
                break;
            }
            if value > 0 {
                total += (value as u64).saturating_mul((st - cursor).as_nanos());
            }
            cursor = st;
            value = v;
        }
        if value > 0 {
            total += (value as u64).saturating_mul((to - cursor).as_nanos());
        }
        SimDuration::from_nanos(total)
    }
}

/// Virtual time during which both step series are simultaneously positive
/// — the measured overlap between e.g. copy-engine activity and kernel
/// execution (the α/β accounting of the Fig. 3 model).
pub fn overlap_time(a: &Series, b: &Series) -> SimDuration {
    let mut total = SimDuration::ZERO;
    let (mut ia, mut ib) = (0usize, 0usize);
    let (mut va, mut vb) = (0i64, 0i64);
    let mut cursor: Option<SimTime> = None;
    while ia < a.samples.len() || ib < b.samples.len() {
        let ta = a.samples.get(ia).map(|&(t, _)| t);
        let tb = b.samples.get(ib).map(|&(t, _)| t);
        let t = match (ta, tb) {
            (Some(x), Some(y)) => x.min(y),
            (Some(x), None) => x,
            (None, Some(y)) => y,
            (None, None) => break,
        };
        if let Some(prev) = cursor {
            if va > 0 && vb > 0 {
                total += t - prev;
            }
        }
        if ta == Some(t) {
            va = a.samples[ia].1;
            ia += 1;
        }
        if tb == Some(t) {
            vb = b.samples[ib].1;
            ib += 1;
        }
        cursor = Some(t);
    }
    total
}

/// A run-level snapshot of every instrument: the registry the exporters
/// consume. Entirely `Vec`-backed so iteration order — and therefore
/// every export — is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSet {
    /// `(name, total)` monotone counters.
    pub counters: Vec<(String, u64)>,
    /// Materialized gauge series.
    pub gauges: Vec<Series>,
    /// `(name, histogram)` distributions.
    pub hists: Vec<(String, Histogram)>,
}

impl MetricsSet {
    /// An empty snapshot.
    pub fn new() -> Self {
        MetricsSet::default()
    }

    /// Records a counter total under `name`.
    pub fn push_counter(&mut self, name: &str, total: u64) {
        self.counters.push((name.to_string(), total));
    }

    /// Snapshots a live [`Counter`] (skipped while disabled).
    pub fn counter(&mut self, name: &str, c: &Counter) {
        if c.is_enabled() {
            self.push_counter(name, c.total());
        }
    }

    /// Snapshots a live [`Gauge`] (skipped while disabled).
    pub fn gauge(&mut self, name: &str, g: &Gauge) {
        if g.is_enabled() {
            self.gauges.push(g.series(name));
        }
    }

    /// Records an already-materialized series.
    pub fn push_series(&mut self, s: Series) {
        self.gauges.push(s);
    }

    /// Records a histogram under `name`.
    pub fn push_hist(&mut self, name: &str, h: Histogram) {
        self.hists.push((name.to_string(), h));
    }

    /// Looks up a counter total by name.
    pub fn counter_total(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge series by name.
    pub fn gauge_series(&self, name: &str) -> Option<&Series> {
        self.gauges.iter().find(|s| s.name == name)
    }

    /// Shorthand: the time-weighted integral of a named gauge.
    pub fn gauge_integral(&self, name: &str) -> Option<SimDuration> {
        self.gauge_series(name).map(Series::integral)
    }

    /// Total change-points across all gauges — the "did we actually
    /// sample anything" check `hcc_lab obs`'s trailer reports.
    pub fn total_samples(&self) -> usize {
        self.gauges.iter().map(Series::len).sum()
    }
}

impl ToJson for Series {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.obj(|o| {
            o.field("name", &self.name);
            o.field("peak", self.peak());
            o.field("final", self.final_value());
            o.field("integral_ns", self.integral());
            o.field("samples", &self.samples);
        });
    }
}

impl ToJson for MetricsSet {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.obj(|o| {
            o.key("counters");
            o.arr(|o| {
                for (name, total) in &self.counters {
                    o.obj(|o| {
                        o.field("name", name);
                        o.field("total", total);
                    });
                }
            });
            o.field("gauges", &self.gauges);
            o.key("hists");
            o.arr(|o| {
                for (name, h) in &self.hists {
                    o.obj(|o| {
                        o.field("name", name);
                        o.field("count", h.count());
                        o.field("mean_ns", h.mean());
                        o.field("buckets", h.buckets());
                    });
                }
            });
        });
    }
}

fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// One histogram exemplar sourced from the flight recorder:
/// `(request id, observed latency, settle time)`.
pub type FlightExemplar = (u32, SimDuration, SimTime);

/// Renders the snapshot as a Prometheus-style text exposition page.
/// Gauges are summarized (peak / final / integral / sample count) rather
/// than dumped as raw series; use the JSON export for the full samples.
pub fn to_prometheus(set: &MetricsSet) -> String {
    prometheus_page(set, &[])
}

/// [`to_prometheus`] with OpenMetrics-style exemplars: each histogram
/// `_bucket` line whose latency range contains at least one flight
/// exemplar gets a ` # {request_id="…"} <latency_ns> <settle_s>` suffix
/// pointing at the worst request that landed in that bucket, so a scrape
/// of aggregate latency links straight to a `why --request` forensics
/// target. Lines without a matching exemplar are byte-identical to the
/// plain export.
pub fn to_prometheus_with_exemplars(set: &MetricsSet, exemplars: &[FlightExemplar]) -> String {
    prometheus_page(set, exemplars)
}

/// The worst exemplar whose latency falls in `(lo, hi]` nanoseconds
/// (`lo = None` means from zero inclusive, `hi = None` means unbounded —
/// the `+Inf` bucket). Ties break toward the smaller request id.
fn pick_exemplar(
    exemplars: &[FlightExemplar],
    lo: Option<u64>,
    hi: Option<u64>,
) -> Option<&FlightExemplar> {
    exemplars
        .iter()
        .filter(|(_, lat, _)| {
            let ns = lat.as_nanos();
            lo.is_none_or(|l| ns > l) && hi.is_none_or(|h| ns <= h)
        })
        .max_by_key(|(req, lat, _)| (lat.as_nanos(), std::cmp::Reverse(*req)))
}

fn exemplar_suffix(e: Option<&FlightExemplar>) -> String {
    match e {
        Some(&(req, lat, at)) => {
            let ns = at.as_nanos();
            format!(
                " # {{request_id=\"{req}\"}} {} {}.{:09}",
                lat.as_nanos(),
                ns / 1_000_000_000,
                ns % 1_000_000_000
            )
        }
        None => String::new(),
    }
}

fn prometheus_page(set: &MetricsSet, exemplars: &[FlightExemplar]) -> String {
    let mut out = String::new();
    for (name, total) in &set.counters {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE hcc_{n}_total counter");
        let _ = writeln!(out, "hcc_{n}_total {total}");
    }
    for s in &set.gauges {
        let n = prom_name(&s.name);
        let _ = writeln!(out, "# TYPE hcc_{n} gauge");
        let _ = writeln!(out, "hcc_{n}_peak {}", s.peak());
        let _ = writeln!(out, "hcc_{n}_final {}", s.final_value());
        let _ = writeln!(out, "hcc_{n}_integral_ns {}", s.integral().as_nanos());
        let _ = writeln!(out, "hcc_{n}_samples {}", s.len());
    }
    for (name, h) in &set.hists {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE hcc_{n} histogram");
        let mut cumulative = 0u64;
        let mut prev: Option<u64> = None;
        for (lo, c) in h.buckets() {
            cumulative += c;
            let le = lo.as_nanos() * 2;
            let _ = writeln!(
                out,
                "hcc_{n}_bucket{{le=\"{le}\"}} {cumulative}{}",
                exemplar_suffix(pick_exemplar(exemplars, prev, Some(le)))
            );
            prev = Some(le);
        }
        let _ = writeln!(
            out,
            "hcc_{n}_bucket{{le=\"+Inf\"}} {}{}",
            h.count(),
            exemplar_suffix(pick_exemplar(exemplars, prev, None))
        );
        let _ = writeln!(out, "hcc_{n}_sum {}", h.total().as_nanos());
        let _ = writeln!(out, "hcc_{n}_count {}", h.count());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_types::json::Json;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::micros(us)
    }

    #[test]
    fn disabled_instruments_record_nothing() {
        let mut c = Counter::new();
        c.inc();
        c.add(10);
        assert_eq!(c.total(), 0);
        let mut g = Gauge::new();
        g.occupy(t(0), t(10));
        g.add(t(3), 5);
        assert!(g.deltas.is_empty());
        assert!(g.series("x").is_empty());
    }

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.enable();
        c.inc();
        c.add(4);
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn gauge_series_sorts_and_merges() {
        let mut g = Gauge::enabled();
        // Recorded out of order, with two deltas at the same instant.
        g.occupy(t(10), t(20));
        g.occupy(t(0), t(10));
        let s = g.series("q");
        // +1@0, (-1,+1)@10 merge to no change and are dropped, -1@20.
        assert_eq!(s.samples, vec![(t(0), 1), (t(20), 0)]);
        assert_eq!(s.peak(), 1);
        assert_eq!(s.final_value(), 0);
        assert_eq!(s.integral(), SimDuration::micros(20));
    }

    #[test]
    fn in_time_order_tells_the_fast_path_from_the_sort() {
        assert!(Gauge::enabled().in_time_order());
        let mut g = Gauge::enabled();
        g.occupy(t(0), t(10));
        g.occupy(t(10), t(20));
        assert!(g.in_time_order());
        g.add(t(5), 1);
        assert!(!g.in_time_order());
    }

    #[test]
    fn zero_length_occupy_leaves_no_sample() {
        let mut g = Gauge::enabled();
        g.occupy(t(5), t(5));
        assert!(g.deltas.is_empty());
    }

    #[test]
    fn integral_is_per_item_wait_sum() {
        let mut g = Gauge::enabled();
        g.occupy(t(0), t(7));
        g.occupy(t(2), t(12));
        g.occupy_n(t(4), t(5), 3);
        let s = g.series("q");
        assert_eq!(s.integral(), SimDuration::micros(7 + 10 + 3));
        assert_eq!(s.peak(), 5);
    }

    #[test]
    fn overlap_time_intersects_positive_regions() {
        let mut a = Gauge::enabled();
        a.occupy(t(0), t(10));
        a.occupy(t(20), t(30));
        let mut b = Gauge::enabled();
        b.occupy(t(5), t(25));
        let o = overlap_time(&a.series("a"), &b.series("b"));
        assert_eq!(o, SimDuration::micros(5 + 5));
        assert_eq!(
            overlap_time(
                &a.series("a"),
                &Series {
                    name: "empty".into(),
                    samples: vec![],
                }
            ),
            SimDuration::ZERO
        );
    }

    #[test]
    fn set_lookup() {
        let mut set = MetricsSet::new();
        set.push_counter("gpu.ops", 3);
        let mut g = Gauge::enabled();
        g.occupy(t(0), t(4));
        set.gauge("gpu.queue", &g);
        set.push_hist(
            "gpu.lat",
            Histogram::from_durations([SimDuration::micros(1)]),
        );
        assert_eq!(set.counter_total("gpu.ops"), Some(3));
        assert_eq!(
            set.gauge_integral("gpu.queue"),
            Some(SimDuration::micros(4))
        );
        assert_eq!(set.total_samples(), 2);
        assert_eq!(set.hists[0].0, "gpu.lat");
    }

    #[test]
    fn disabled_instruments_are_skipped_by_snapshot() {
        let mut set = MetricsSet::new();
        set.counter("off", &Counter::new());
        set.gauge("off", &Gauge::new());
        assert!(set.counters.is_empty());
        assert!(set.gauges.is_empty());
    }

    #[test]
    fn windowed_reads_match_whole_series_reads() {
        let mut g = Gauge::enabled();
        g.occupy(t(10), t(30));
        g.occupy(t(20), t(40));
        let s = g.series("q");
        // value_at walks the step function including the implicit edges.
        assert_eq!(s.value_at(t(0)), 0);
        assert_eq!(s.value_at(t(10)), 1);
        assert_eq!(s.value_at(t(25)), 2);
        assert_eq!(s.value_at(t(40)), 0);
        assert_eq!(s.value_at(t(999)), 0);
        // A window covering the whole series reproduces integral().
        assert_eq!(s.integral_between(t(0), t(100)), s.integral());
        // Interior window: [15, 35) holds 1 for 5µs, 2 for 10µs, 1 for 5µs.
        assert_eq!(s.integral_between(t(15), t(35)), SimDuration::micros(30));
        // Window entirely inside one step.
        assert_eq!(s.integral_between(t(22), t(24)), SimDuration::micros(4));
    }

    #[test]
    fn windowed_reads_degenerate_inputs_are_defined() {
        // Empty series: every read is zero.
        let empty = Gauge::enabled().series("e");
        assert_eq!(empty.value_at(t(5)), 0);
        assert_eq!(empty.integral_between(t(0), t(10)), SimDuration::ZERO);
        assert_eq!(empty.mean_over(SimDuration::ZERO), 0.0);
        assert_eq!(empty.mean_over(SimDuration::micros(10)), 0.0);

        // Single change-point: the value persists past the last sample.
        let mut g = Gauge::enabled();
        g.add(t(10), 3);
        let single = g.series("s");
        assert_eq!(single.len(), 1);
        assert_eq!(single.value_at(t(9)), 0);
        assert_eq!(single.value_at(t(10)), 3);
        // Window entirely before the first change-point.
        assert_eq!(single.integral_between(t(0), t(10)), SimDuration::ZERO);
        // Window extending past the last change-point integrates the
        // persisted value.
        assert_eq!(
            single.integral_between(t(5), t(20)),
            SimDuration::micros(30)
        );

        // Inverted and empty windows are zero, never a panic.
        assert_eq!(single.integral_between(t(20), t(5)), SimDuration::ZERO);

        // overlap_time with degenerate partners.
        let e = Series {
            name: "e".into(),
            samples: vec![],
        };
        assert_eq!(overlap_time(&e, &e), SimDuration::ZERO);
        assert_eq!(overlap_time(&single, &e), SimDuration::ZERO);
        // Two single-sample series that both persist positive values
        // never close their overlap window (no later change-point), so
        // the measured overlap is zero — the scan stops at the last edge.
        assert_eq!(overlap_time(&single, &single), SimDuration::ZERO);
    }

    #[test]
    fn prometheus_hist_export_is_ingestible() {
        let mut set = MetricsSet::new();
        set.push_hist(
            "stage.lat",
            Histogram::from_durations([
                SimDuration::from_nanos(1),
                SimDuration::from_nanos(3),
                SimDuration::from_nanos(3),
                SimDuration::micros(1),
            ]),
        );
        // Cumulative buckets, an explicit +Inf, and an exact _sum — the
        // shape real Prometheus tooling requires of a histogram family.
        let expected = "\
# TYPE hcc_stage_lat histogram
hcc_stage_lat_bucket{le=\"2\"} 1
hcc_stage_lat_bucket{le=\"4\"} 3
hcc_stage_lat_bucket{le=\"1024\"} 4
hcc_stage_lat_bucket{le=\"+Inf\"} 4
hcc_stage_lat_sum 1007
hcc_stage_lat_count 4
";
        assert_eq!(to_prometheus(&set), expected);
    }

    #[test]
    fn prometheus_exemplar_format_is_pinned() {
        let mut set = MetricsSet::new();
        set.push_hist(
            "req.latency",
            Histogram::from_durations([
                SimDuration::from_nanos(1),
                SimDuration::from_nanos(3),
                SimDuration::from_nanos(3),
                SimDuration::micros(1),
            ]),
        );
        // Flight exemplars: request 9 lands in the le="2" bucket, request
        // 7 in (2, 4], request 12 tops the le="1024" bucket, and nothing
        // overflows into +Inf (its line stays bare).
        let exemplars: Vec<FlightExemplar> = vec![
            (9, SimDuration::from_nanos(2), t(1)),
            (7, SimDuration::from_nanos(3), t(2)),
            (
                12,
                SimDuration::micros(1),
                SimTime::from_nanos(1_500_000_500),
            ),
        ];
        let expected = "\
# TYPE hcc_req_latency histogram
hcc_req_latency_bucket{le=\"2\"} 1 # {request_id=\"9\"} 2 0.000001000
hcc_req_latency_bucket{le=\"4\"} 3 # {request_id=\"7\"} 3 0.000002000
hcc_req_latency_bucket{le=\"1024\"} 4 # {request_id=\"12\"} 1000 1.500000500
hcc_req_latency_bucket{le=\"+Inf\"} 4
hcc_req_latency_sum 1007
hcc_req_latency_count 4
";
        assert_eq!(to_prometheus_with_exemplars(&set, &exemplars), expected);
        // The empty-exemplar page stays byte-identical to the plain export.
        assert_eq!(to_prometheus_with_exemplars(&set, &[]), to_prometheus(&set));
    }

    #[test]
    fn json_and_prometheus_exports_cover_all_entries() {
        let mut set = MetricsSet::new();
        set.push_counter("gpu.ring.submissions", 7);
        let mut g = Gauge::enabled();
        g.occupy(t(1), t(3));
        set.gauge("gpu.ring.occupancy", &g);
        set.push_hist(
            "engine.scenario_wall",
            Histogram::from_durations([SimDuration::micros(10)]),
        );

        let parsed = Json::parse(&set.to_json_string()).unwrap();
        assert_eq!(
            parsed.get("counters").unwrap().at(0).unwrap().get("total"),
            Some(&Json::U64(7))
        );
        let gauge = parsed.get("gauges").unwrap().at(0).unwrap();
        assert_eq!(gauge.get("peak").unwrap().as_u64(), Some(1));
        assert_eq!(gauge.get("integral_ns").unwrap().as_u64(), Some(2_000));

        let prom = to_prometheus(&set);
        assert!(prom.contains("hcc_gpu_ring_submissions_total 7"));
        assert!(prom.contains("hcc_gpu_ring_occupancy_peak 1"));
        assert!(prom.contains("hcc_engine_scenario_wall_count 1"));
    }
}
