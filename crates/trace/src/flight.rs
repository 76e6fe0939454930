//! Request flight recorder: typed per-request span trees with
//! tail-exemplar sampling for million-request soaks.
//!
//! The rollup plane ([`crate::rollup`]) can say *which window* went bad
//! and the critical path ([`crate::critpath`]) *which resource class* a
//! shape spends its time on; this module answers the question an
//! operator actually asks — *which request was slow, and where inside
//! it did the virtual time go*. Each sampled request has an ordered
//! span tree (queue wait → SPDM handshake → doorbell pair → per-phase
//! service decomposition → batch margin) under the same enforced
//! identity as the critical path: **child spans partition
//! `settle − arrival` exactly**, integer nanoseconds, no gaps, no
//! overlaps ([`FlightLog::identity_holds_for`]).
//!
//! A kept exemplar stores only its skeleton, its window, its keep flags
//! and the index of its service shape. The tree follows from the
//! skeleton and the shape's [`ShapeDecomp`], which the log holds once
//! per shape, so it is derived on demand ([`FlightLog::spans`]) into a
//! fixed-capacity [`Spans`] list, never onto the heap.
//!
//! Storing 10⁵–10⁶ full trees is unaffordable, so recording is a
//! per-tumbling-window exemplar sampler with a hard memory bound:
//! every window keeps its `worst` tail requests (latency descending,
//! request index as the unique tie-break) plus a `reservoir`-sized
//! seeded uniform sample (the requests with the smallest
//! `mix(seed, window, req)` — a bottom-k sketch, which is exactly a
//! uniform sample that needs no insertion-order state). Both keeps are
//! "extreme k under a total order with a unique tie-break", so the
//! sampler is insertion-order independent and therefore byte-identical
//! at any `HCC_ENGINE_THREADS`.
//!
//! Determinism contract (shared with the metrics and rollup planes):
//! virtual-time only and order-independent. The recorder is a view of a
//! finished soak: it is fed one [`FlightSkeleton`] per settled request
//! after the cluster drain, and only when the soak's config asks for a
//! flight log — the drain itself records nothing.

use hcc_types::json::{JsonOut, ToJson};
use hcc_types::{FaultCounts, SimDuration, SimTime};

use crate::critpath::{Attribution, ResourceClass};

/// Sampler tuning: tumbling-window width and per-window keep counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightConfig {
    /// Tumbling-window width (requests are windowed by settle instant).
    pub window: SimDuration,
    /// Tail exemplars kept per window (the window's worst latencies).
    pub worst: usize,
    /// Seeded-reservoir uniform exemplars kept per window.
    pub reservoir: usize,
    /// Seed of the reservoir's bottom-k hash.
    pub seed: u64,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            window: SimDuration::secs(5),
            worst: 4,
            reservoir: 4,
            seed: 0xF11A_2026,
        }
    }
}

impl FlightConfig {
    /// Hard per-window entry bound the sampler may never exceed (the
    /// figure `LeakAudit` checks against a full soak).
    pub fn per_window_budget(&self) -> u64 {
        (self.worst + self.reservoir) as u64
    }
}

/// splitmix64-style finalizer over `(seed, window, req)` — the
/// reservoir's total order. Identical triples hash identically on every
/// thread count, which is the whole sampling contract.
fn mix(seed: u64, window: u64, req: u32) -> u64 {
    let mut z = seed
        ^ window.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (u64::from(req) | 1 << 63).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The compact per-request record built from a settled request's cluster
/// outcome — everything needed to rebuild the span tree except
/// the service-shape decomposition, which is resolved once per distinct
/// shape (not per request) by [`FlightRecorder::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightSkeleton {
    /// Index of the request in the driving soak's arrival order.
    pub req: u32,
    /// Tenant index (into the soak's tenant table).
    pub tenant: u32,
    /// GPU the request was served on (0 for rejections).
    pub gpu: u32,
    /// Size of the batch the request was served in (0 for rejections).
    pub batch: u32,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Dispatch instant (equals `settle` for rejections).
    pub dispatch: SimTime,
    /// Settle instant (completion or rejection).
    pub settle: SimTime,
    /// This request's own SPDM session-establishment time (zero on
    /// session reuse).
    pub spdm: SimDuration,
    /// This request's own doorbell hypercall pair (submit + complete).
    pub doorbell: SimDuration,
    /// Whether admission was a cold start.
    pub cold: bool,
    /// Whether admission control turned the request away.
    pub rejected: bool,
}

impl FlightSkeleton {
    /// End-to-end latency (arrival → settle).
    pub fn latency(&self) -> SimDuration {
        self.settle.saturating_since(self.arrival)
    }
}

/// One window's keeps: the tail exemplars and the uniform reservoir.
/// Both vectors are maintained sorted under their total order and
/// truncated to the configured bound, so contents depend only on the
/// *set* of records, never their order.
#[derive(Debug, Clone, Default)]
struct WindowSampler {
    /// `(latency desc, req asc)`, at most `cfg.worst` entries.
    worst: Vec<FlightSkeleton>,
    /// `(mix hash asc, req asc)`, at most `cfg.reservoir` entries.
    pool: Vec<(u64, FlightSkeleton)>,
}

impl WindowSampler {
    fn insert(&mut self, s: FlightSkeleton, window: u64, cfg: &FlightConfig) {
        keep_first(&mut self.worst, cfg.worst, s, |o| {
            (std::cmp::Reverse(o.latency()), o.req)
        });
        if cfg.reservoir > 0 {
            let h = mix(cfg.seed, window, s.req);
            keep_first(&mut self.pool, cfg.reservoir, (h, s), |&(oh, ref o)| {
                (oh, o.req)
            });
        }
    }

    fn entries(&self) -> u64 {
        (self.worst.len() + self.pool.len()) as u64
    }
}

/// Inserts `item` into `keep`, which stays sorted ascending by `key` and
/// holds at most `bound` entries. A full keep drops its last entry
/// before the insert, so it never grows past its bound (nor reallocates
/// to make room); when that last entry already sorts before `item`, the
/// keep is left as it is without a search.
fn keep_first<T, K: Ord>(keep: &mut Vec<T>, bound: usize, item: T, key: impl Fn(&T) -> K) {
    let k = key(&item);
    if keep.len() >= bound && keep.last().is_none_or(|o| key(o) < k) {
        return;
    }
    let pos = keep.partition_point(|o| key(o) < k);
    keep.truncate(bound - 1);
    keep.insert(pos, item);
}

/// Thread-invariant per-request recorder: feed it every settled request
/// of a soak, in any order, then [`resolve`](Self::resolve) the keeps.
///
/// The samplers sit in a vector sorted by window, one per window that
/// was recorded into, with a cursor on the last one hit. A record in the
/// cursor's window or past the last window costs O(1), so a soak fed
/// roughly in settle order never searches; any other record finds its
/// window by binary search.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    cfg: FlightConfig,
    /// `(window ordinal, sampler)`, ascending by window.
    windows: Vec<(u64, WindowSampler)>,
    /// Index into `windows` of the last window recorded into.
    cursor: usize,
    recorded: u64,
}

impl FlightRecorder {
    /// A recorder with no samples.
    pub fn new(cfg: FlightConfig) -> Self {
        FlightRecorder {
            cfg,
            windows: Vec::new(),
            cursor: 0,
            recorded: 0,
        }
    }

    /// Records one settled request.
    pub fn record(&mut self, s: FlightSkeleton) {
        self.recorded += 1;
        let w = s.settle.as_nanos() / self.cfg.window.as_nanos().max(1);
        if self.windows.get(self.cursor).is_none_or(|&(cw, _)| cw != w) {
            self.cursor = match self.windows.last() {
                Some(&(last, _)) if last >= w => {
                    let pos = self.windows.partition_point(|&(ow, _)| ow < w);
                    if self.windows[pos].0 != w {
                        self.windows.insert(pos, (w, WindowSampler::default()));
                    }
                    pos
                }
                _ => {
                    self.windows.push((w, WindowSampler::default()));
                    self.windows.len() - 1
                }
            };
        }
        let cfg = self.cfg;
        self.windows[self.cursor].1.insert(s, w, &cfg);
    }

    /// Resolves the kept skeletons into the flight log. `shape_of` maps
    /// a request index to its service-shape slot and `shapes` carries
    /// one decomposition per slot; the log keeps `shapes` once and each
    /// exemplar its slot. Requests the tables cannot resolve get an
    /// undecomposed service span (identity still holds).
    pub fn resolve(self, shape_of: &[u32], shapes: &[ShapeDecomp]) -> FlightLog {
        let mut samples: Vec<FlightSample> = Vec::new();
        let windows = self.windows.len() as u64;
        let mut kept_entries = 0u64;
        for &(w, ref sampler) in &self.windows {
            kept_entries += sampler.entries();
            let first = samples.len();
            let sample = |skeleton: FlightSkeleton, tail: bool, uniform: bool| FlightSample {
                skeleton,
                window: w,
                tail,
                uniform,
                shape: shape_of
                    .get(skeleton.req as usize)
                    .copied()
                    .unwrap_or(u32::MAX),
            };
            samples.extend(sampler.worst.iter().map(|&s| sample(s, true, false)));
            for &(_, s) in &sampler.pool {
                match samples[first..]
                    .iter_mut()
                    .find(|m| m.skeleton.req == s.req)
                {
                    Some(m) => m.uniform = true,
                    None => samples.push(sample(s, false, true)),
                }
            }
            samples[first..].sort_by_key(FlightSample::req);
        }
        FlightLog {
            cfg: self.cfg,
            recorded: self.recorded,
            windows,
            kept_entries,
            decomps: shapes.to_vec(),
            samples,
        }
    }
}

/// Per-shape service decomposition: how one distinct service shape's
/// virtual time splits across resource classes (from the shape's
/// critical path) plus its recovery counters. Built once per shape, not
/// per request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShapeDecomp {
    /// The shape's total service duration (what the cluster charged).
    pub total: SimDuration,
    /// Critical-path attribution of the shape's trace.
    pub attr: Attribution,
    /// Fault-recovery counters of the shape's trace.
    pub faults: FaultCounts,
}

/// The type of one span in a request's tree, in waterfall order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Arrival → dispatch (scheduler queue).
    QueueWait,
    /// SPDM session establishment (cold admissions only).
    SpdmHandshake,
    /// Doorbell hypercall pair (submit + complete), every admission.
    Doorbell,
    /// Service time attributed to one resource class by the shape's
    /// critical path (crypto staging, bounce reserve, copies, kernel,
    /// hypercalls, UVM, host driver).
    Service(ResourceClass),
    /// Service time the shape's critical path does not cover (or the
    /// whole service span when no decomposition is available).
    ServiceOther,
    /// Batch formation: co-batched members' admissions plus the batch
    /// service margin.
    BatchMargin,
}

impl SpanKind {
    /// Stable snake_case name (render rows, JSON).
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::QueueWait => "queue_wait",
            SpanKind::SpdmHandshake => "spdm_handshake",
            SpanKind::Doorbell => "doorbell",
            SpanKind::Service(ResourceClass::HostDriver) => "svc_host_driver",
            SpanKind::Service(ResourceClass::Crypto) => "svc_crypto",
            SpanKind::Service(ResourceClass::BouncePool) => "svc_bounce_pool",
            SpanKind::Service(ResourceClass::RingCp) => "svc_ring_cp",
            SpanKind::Service(ResourceClass::CopyEngine) => "svc_copy_engine",
            SpanKind::Service(ResourceClass::ComputeEngine) => "svc_compute",
            SpanKind::Service(ResourceClass::Uvm) => "svc_uvm",
            SpanKind::ServiceOther => "svc_other",
            SpanKind::BatchMargin => "batch_margin",
        }
    }
}

impl ToJson for SpanKind {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.str(self.name());
    }
}

/// One exemplar's span tree, derived on demand from its skeleton and
/// its shape's decomposition: at most [`Spans::CAPACITY`] spans in
/// waterfall order, held inline. Dereferences to the span slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spans {
    len: usize,
    spans: [(SpanKind, SimDuration); Spans::CAPACITY],
}

impl Spans {
    /// Queue wait, SPDM handshake, doorbell, one service span per
    /// resource class, uncovered service and batch margin.
    pub const CAPACITY: usize = ResourceClass::COUNT + 5;

    fn push(&mut self, kind: SpanKind, d: SimDuration) {
        self.spans[self.len] = (kind, d);
        self.len += 1;
    }

    /// Total duration of spans of `kind` (zero when absent).
    pub fn duration(&self, kind: SpanKind) -> SimDuration {
        self.iter()
            .filter(|&&(k, _)| k == kind)
            .map(|&(_, d)| d)
            .sum()
    }
}

impl std::ops::Deref for Spans {
    type Target = [(SpanKind, SimDuration)];

    fn deref(&self) -> &Self::Target {
        &self.spans[..self.len]
    }
}

/// One kept exemplar: the skeleton, where and why it was kept, and its
/// service shape. Its span tree is [`FlightLog::spans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightSample {
    /// The request's compact record.
    pub skeleton: FlightSkeleton,
    /// Tumbling-window ordinal (settle ns / window width).
    pub window: u64,
    /// Kept as one of the window's tail exemplars.
    pub tail: bool,
    /// Kept by the window's uniform reservoir.
    pub uniform: bool,
    /// The request's slot in [`FlightLog::decomps`]; past its end when
    /// the shape tables could not resolve the request.
    pub shape: u32,
}

// A new field must not silently regrow every kept exemplar.
const _: () = assert!(std::mem::size_of::<FlightSample>() == 80);

impl FlightSample {
    /// The request's ordered span tree when its service shape
    /// decomposes as `decomp`: durations that sum to `settle − arrival`
    /// exactly.
    pub fn spans(&self, decomp: &ShapeDecomp) -> Spans {
        let skel = &self.skeleton;
        let mut spans = Spans {
            len: 0,
            spans: [(SpanKind::QueueWait, SimDuration::ZERO); Spans::CAPACITY],
        };
        if skel.rejected {
            spans.push(
                SpanKind::QueueWait,
                skel.settle.saturating_since(skel.arrival),
            );
            return spans;
        }
        spans.push(
            SpanKind::QueueWait,
            skel.dispatch.saturating_since(skel.arrival),
        );
        spans.push(SpanKind::SpdmHandshake, skel.spdm);
        spans.push(SpanKind::Doorbell, skel.doorbell);
        let shape = decomp.total;
        let attr_total = decomp.attr.total();
        if !attr_total.is_zero() && attr_total <= shape {
            for (r, t) in decomp.attr.iter() {
                if !t.is_zero() {
                    spans.push(SpanKind::Service(r), t);
                }
            }
            let other = shape - attr_total;
            if !other.is_zero() {
                spans.push(SpanKind::ServiceOther, other);
            }
        } else {
            spans.push(SpanKind::ServiceOther, shape);
        }
        let service = skel.settle.saturating_since(skel.dispatch);
        let margin = service.saturating_sub(skel.spdm + skel.doorbell + shape);
        spans.push(SpanKind::BatchMargin, margin);
        spans
    }

    /// Request index shorthand.
    pub fn req(&self) -> u32 {
        self.skeleton.req
    }

    /// End-to-end latency shorthand.
    pub fn latency(&self) -> SimDuration {
        self.skeleton.latency()
    }
}

/// The resolved flight log of one soak: every kept exemplar in
/// canonical `(window, req)` order plus the sampler's accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightLog {
    /// Sampler configuration the log was recorded under.
    pub cfg: FlightConfig,
    /// Total requests the recorder saw.
    pub recorded: u64,
    /// Distinct windows recorded into (each holds at least one
    /// exemplar unless both keep counts are zero).
    pub windows: u64,
    /// Total kept sampler entries (before worst∩reservoir dedup).
    pub kept_entries: u64,
    /// One decomposition per service shape, indexed by
    /// [`FlightSample::shape`].
    pub decomps: Vec<ShapeDecomp>,
    /// Resolved exemplars, sorted by `(window, req)`.
    pub samples: Vec<FlightSample>,
}

impl FlightLog {
    /// The exemplar for request `req`, if it was kept.
    pub fn find(&self, req: u32) -> Option<&FlightSample> {
        self.samples.iter().find(|s| s.skeleton.req == req)
    }

    /// The decomposition of `sample`'s service shape (an empty one when
    /// the shape tables could not resolve it).
    pub fn decomp(&self, sample: &FlightSample) -> ShapeDecomp {
        self.decomps
            .get(sample.shape as usize)
            .copied()
            .unwrap_or_default()
    }

    /// `sample`'s ordered span tree.
    pub fn spans(&self, sample: &FlightSample) -> Spans {
        sample.spans(&self.decomp(sample))
    }

    /// Whether `sample`'s spans partition `settle − arrival` exactly.
    pub fn identity_holds_for(&self, sample: &FlightSample) -> bool {
        let skel = &sample.skeleton;
        let sum: SimDuration = self.spans(sample).iter().map(|&(_, d)| d).sum();
        skel.arrival <= skel.settle
            && skel.dispatch <= skel.settle
            && sum == skel.settle - skel.arrival
    }

    /// Whether every sample satisfies the span-partition identity.
    pub fn identity_holds(&self) -> bool {
        self.samples.iter().all(|s| self.identity_holds_for(s))
    }

    /// The sampler's hard memory bound: `windows × (worst + reservoir)`.
    pub fn entry_bound(&self) -> u64 {
        self.windows * self.cfg.per_window_budget()
    }

    /// The exemplar store's accounting figure, the one the flight JSON
    /// exports: every kept skeleton plus each exemplar's span list, as
    /// if each list were stored. The log derives spans on demand, so it
    /// holds less than this; the figure is kept because the flight
    /// export and its digests carry it.
    pub fn estimated_bytes(&self) -> u64 {
        let skeletons = self.kept_entries * std::mem::size_of::<FlightSkeleton>() as u64;
        let spans: u64 = self
            .samples
            .iter()
            .map(|s| (self.spans(s).len() * std::mem::size_of::<(SpanKind, SimDuration)>()) as u64)
            .sum();
        skeletons + spans
    }

    /// The window's p50 exemplar: the median-latency member of the
    /// window's uniform reservoir (falling back to all of the window's
    /// exemplars when the reservoir is empty) — the baseline a tail
    /// waterfall is rendered against. A documented approximation: the
    /// true window median lives in the full population the sampler
    /// deliberately does not keep.
    pub(crate) fn p50_exemplar(&self, window: u64) -> Option<&FlightSample> {
        let pick = |uniform_only: bool| {
            let mut members: Vec<&FlightSample> = self
                .in_windows(window, window)
                .iter()
                .filter(|s| !uniform_only || s.uniform)
                .collect();
            members.sort_by_key(|s| (s.latency(), s.skeleton.req));
            let mid = members.len().checked_sub(1)? / 2;
            members.get(mid).copied()
        };
        pick(true).or_else(|| pick(false))
    }

    /// `sample`'s span waterfall against its window's p50 exemplar
    /// (alone when it is that exemplar) — the page `why` prints.
    pub fn render_against_p50(&self, sample: &FlightSample) -> String {
        let baseline = self
            .p50_exemplar(sample.window)
            .filter(|b| b.skeleton.req != sample.skeleton.req);
        self.render_waterfall(sample, baseline)
    }

    /// Every kept exemplar as a `(request id, latency, settle)` triple
    /// in request-id order — the feed for the OpenMetrics exemplar
    /// export ([`crate::metrics::to_prometheus_with_exemplars`]).
    pub fn exemplar_points(&self) -> Vec<(u32, SimDuration, SimTime)> {
        self.samples
            .iter()
            .map(|s| (s.skeleton.req, s.latency(), s.skeleton.settle))
            .collect()
    }

    /// The exemplars of windows `first..=last`: a sub-slice, since
    /// the samples are sorted by window.
    fn in_windows(&self, first: u64, last: u64) -> &[FlightSample] {
        let lo = self.samples.partition_point(|s| s.window < first);
        let hi = self.samples.partition_point(|s| s.window <= last);
        &self.samples[lo..hi.max(lo)]
    }

    /// Exemplar request ids settling inside `[start, end)`, worst
    /// first; `tenant` narrows to one tenant when given. Only the
    /// windows the span overlaps are scanned.
    pub fn exemplars_between(&self, tenant: Option<u32>, start: SimTime, end: SimTime) -> Vec<u32> {
        if start >= end {
            return Vec::new();
        }
        let width = self.cfg.window.as_nanos().max(1);
        let windows = self.in_windows(start.as_nanos() / width, (end.as_nanos() - 1) / width);
        let mut hits: Vec<&FlightSample> = windows
            .iter()
            .filter(|s| start <= s.skeleton.settle && s.skeleton.settle < end)
            .filter(|s| tenant.is_none_or(|t| s.skeleton.tenant == t))
            .collect();
        hits.sort_by_key(|s| (std::cmp::Reverse(s.latency()), s.skeleton.req));
        hits.into_iter().map(|s| s.skeleton.req).collect()
    }

    /// Renders one request's span waterfall, optionally with a per-span
    /// delta column against a baseline exemplar (typically the window's
    /// p50). Deterministic text: virtual-time figures only.
    pub(crate) fn render_waterfall(
        &self,
        sample: &FlightSample,
        baseline: Option<&FlightSample>,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let skel = &sample.skeleton;
        let total = sample.latency();
        let _ = writeln!(
            out,
            "request #{} | tenant {} | gpu {} | batch {} | window w{:04} | {}{}",
            skel.req,
            skel.tenant,
            skel.gpu,
            skel.batch,
            sample.window,
            if skel.cold {
                "cold spdm"
            } else {
                "warm session"
            },
            if skel.rejected { " | REJECTED" } else { "" },
        );
        let _ = writeln!(
            out,
            "  arrival {} | dispatch {} | settle {} | latency {}",
            skel.arrival, skel.dispatch, skel.settle, total
        );
        let decomp = self.decomp(sample);
        let f = &decomp.faults;
        if f.injected + f.retries + f.recovered + f.degraded + f.aborted > 0 {
            let _ = writeln!(
                out,
                "  recovery: injected {} | retries {} | recovered {} | degraded {} | aborted {}",
                f.injected, f.retries, f.recovered, f.degraded, f.aborted
            );
        }
        let delta_head = baseline.map(|b| format!("vs p50 #{}", b.skeleton.req));
        match &delta_head {
            Some(h) => {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>12} {:>12} {:>7}  {:>14}",
                    "span", "start", "duration", "share", h
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>12} {:>12} {:>7}",
                    "span", "start", "duration", "share"
                );
            }
        }
        let baseline_spans = baseline.map(|b| self.spans(b));
        let mut cursor = SimDuration::ZERO;
        for &(kind, d) in sample.spans(&decomp).iter() {
            let share_milli = if total.is_zero() {
                0
            } else {
                d.as_nanos().saturating_mul(1000) / total.as_nanos()
            };
            let share = format!("{}.{}%", share_milli / 10, share_milli % 10);
            let start = format!("+{cursor}");
            match &baseline_spans {
                Some(b) => {
                    let bd = b.duration(kind);
                    let delta = if d >= bd {
                        format!("+{}", d - bd)
                    } else {
                        format!("-{}", bd - d)
                    };
                    let _ = writeln!(
                        out,
                        "  {:<16} {:>12} {:>12} {:>7}  {:>14}",
                        kind.name(),
                        start,
                        d.to_string(),
                        share,
                        delta
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  {:<16} {:>12} {:>12} {:>7}",
                        kind.name(),
                        start,
                        d.to_string(),
                        share
                    );
                }
            }
            cursor += d;
        }
        let identity = if self.identity_holds_for(sample) {
            "OK"
        } else {
            "VIOLATED"
        };
        let _ = writeln!(
            out,
            "  {:<16} {:>12} {:>12}  span-identity {}",
            "total",
            "",
            total.to_string(),
            identity
        );
        out
    }
}

impl ToJson for FlightLog {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.obj(|o| {
            o.field("window_ns", self.cfg.window);
            o.field("worst", self.cfg.worst);
            o.field("reservoir", self.cfg.reservoir);
            o.field("recorded", self.recorded);
            o.field("windows", self.windows);
            o.field("kept_entries", self.kept_entries);
            o.field("estimated_bytes", self.estimated_bytes());
            o.key("samples");
            o.arr(|o| {
                for sample in &self.samples {
                    self.write_sample(o, sample);
                }
            });
        });
    }
}

impl FlightLog {
    /// One exemplar's JSON object, spans derived on the way out.
    fn write_sample(&self, out: &mut JsonOut<'_>, sample: &FlightSample) {
        let s = &sample.skeleton;
        out.obj(|o| {
            o.field("req", s.req);
            o.field("tenant", s.tenant);
            o.field("gpu", s.gpu);
            o.field("batch", s.batch);
            o.field("window", sample.window);
            o.field("tail", sample.tail);
            o.field("uniform", sample.uniform);
            o.field("cold", s.cold);
            o.field("rejected", s.rejected);
            o.field("arrival_ns", s.arrival);
            o.field("settle_ns", s.settle);
            o.field("latency_ns", sample.latency());
            o.key("spans");
            o.arr(|o| {
                for &(kind, ns) in self.spans(sample).iter() {
                    o.obj(|o| {
                        o.field("kind", kind);
                        o.field("ns", ns);
                    });
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::micros(us)
    }

    fn skel(req: u32, arrival_us: u64, dispatch_us: u64, settle_us: u64) -> FlightSkeleton {
        FlightSkeleton {
            req,
            tenant: req % 2,
            gpu: 0,
            batch: 2,
            arrival: t(arrival_us),
            dispatch: t(dispatch_us),
            settle: t(settle_us),
            spdm: SimDuration::micros(3),
            doorbell: SimDuration::micros(1),
            cold: true,
            rejected: false,
        }
    }

    fn decomp_for(shape_us: u64) -> ShapeDecomp {
        let mut attr = Attribution::default();
        attr.add(ResourceClass::Crypto, SimDuration::micros(shape_us / 2));
        attr.add(
            ResourceClass::ComputeEngine,
            SimDuration::micros(shape_us / 4),
        );
        ShapeDecomp {
            total: SimDuration::micros(shape_us),
            attr,
            faults: FaultCounts::default(),
        }
    }

    #[test]
    fn span_identity_partitions_latency_exactly() {
        let mut r = FlightRecorder::new(FlightConfig::default());
        // dispatch-arrival=10, spdm=3, doorbell=1, shape=40 (attr 20+10,
        // other 10), margin = 90-3-1-40 = 46.
        r.record(skel(7, 0, 10, 100));
        let log = r.resolve(&[0; 8], &[decomp_for(40)]);
        let s = log.find(7).expect("kept");
        assert!(log.identity_holds_for(s));
        assert_eq!(s.latency(), SimDuration::micros(100));
        assert_eq!(
            log.spans(s).duration(SpanKind::QueueWait),
            SimDuration::micros(10)
        );
        assert_eq!(
            log.spans(s)
                .duration(SpanKind::Service(ResourceClass::Crypto)),
            SimDuration::micros(20)
        );
        assert_eq!(
            log.spans(s).duration(SpanKind::ServiceOther),
            SimDuration::micros(10)
        );
        assert_eq!(
            log.spans(s).duration(SpanKind::BatchMargin),
            SimDuration::micros(46)
        );
        assert!(log.identity_holds());
    }

    #[test]
    fn rejection_is_a_single_queue_wait_span() {
        let mut r = FlightRecorder::new(FlightConfig::default());
        let mut s = skel(3, 5, 5, 5);
        s.rejected = true;
        s.spdm = SimDuration::ZERO;
        s.doorbell = SimDuration::ZERO;
        r.record(s);
        let log = r.resolve(&[], &[]);
        let kept = log.find(3).expect("kept");
        assert_eq!(log.spans(kept).len(), 1);
        assert_eq!(log.spans(kept)[0].0.name(), "queue_wait");
        assert!(log.identity_holds_for(kept));
    }

    #[test]
    fn unresolvable_shape_collapses_to_service_other() {
        let mut r = FlightRecorder::new(FlightConfig::default());
        r.record(skel(9, 0, 10, 100));
        // No shape tables at all: service decomposes to a zero `other`
        // span and the margin absorbs the rest — identity still exact.
        let log = r.resolve(&[], &[]);
        let s = log.find(9).expect("kept");
        assert!(log.identity_holds_for(s));
        assert_eq!(
            log.spans(s).duration(SpanKind::BatchMargin),
            SimDuration::micros(86)
        );
    }

    #[test]
    fn oversized_attribution_falls_back_without_breaking_identity() {
        let mut attr = Attribution::default();
        attr.add(ResourceClass::Crypto, SimDuration::micros(500));
        let d = ShapeDecomp {
            total: SimDuration::micros(40),
            attr,
            faults: FaultCounts::default(),
        };
        let mut r = FlightRecorder::new(FlightConfig::default());
        r.record(skel(1, 0, 10, 100));
        let log = r.resolve(&[0, 0], &[d]);
        let s = log.find(1).expect("kept");
        assert!(log.identity_holds_for(s));
        assert_eq!(
            log.spans(s).duration(SpanKind::ServiceOther),
            SimDuration::micros(40)
        );
    }

    #[test]
    fn sampler_is_insertion_order_independent_and_bounded() {
        let cfg = FlightConfig {
            window: SimDuration::millis(1),
            worst: 2,
            reservoir: 3,
            seed: 42,
        };
        let skels: Vec<FlightSkeleton> = (0..200u32)
            .map(|i| skel(i, 0, 10, 20 + u64::from(i % 37) * 13))
            .collect();
        let mut fwd = FlightRecorder::new(cfg);
        let mut rev = FlightRecorder::new(cfg);
        for s in &skels {
            fwd.record(*s);
        }
        for s in skels.iter().rev() {
            rev.record(*s);
        }
        let a = fwd.resolve(&[], &[]);
        let b = rev.resolve(&[], &[]);
        assert_eq!(a, b);
        assert!(a.kept_entries <= a.entry_bound());
        assert!(a.windows >= 1);
        assert_eq!(a.recorded, 200);
    }

    #[test]
    fn worst_keep_is_the_true_tail() {
        let cfg = FlightConfig {
            window: SimDuration::secs(1),
            worst: 2,
            reservoir: 0,
            seed: 1,
        };
        let mut r = FlightRecorder::new(cfg);
        for i in 0..50u32 {
            r.record(skel(i, 0, 10, 20 + u64::from(i)));
        }
        let log = r.resolve(&[], &[]);
        let kept: Vec<u32> = log.samples.iter().map(FlightSample::req).collect();
        assert_eq!(kept, vec![48, 49], "the two worst latencies, req order");
        assert!(log.samples.iter().all(|s| s.tail && !s.uniform));
    }

    #[test]
    fn overlapping_keeps_are_deduped_with_both_flags() {
        let cfg = FlightConfig {
            window: SimDuration::secs(1),
            worst: 8,
            reservoir: 8,
            seed: 1,
        };
        let mut r = FlightRecorder::new(cfg);
        for i in 0..4u32 {
            r.record(skel(i, 0, 10, 20 + u64::from(i)));
        }
        let log = r.resolve(&[], &[]);
        // Few enough records that every one is kept by both samplers.
        assert_eq!(log.samples.len(), 4);
        assert!(log.samples.iter().all(|s| s.tail && s.uniform));
        assert_eq!(log.kept_entries, 8);
    }

    #[test]
    fn reservoir_replays_under_its_seed_and_differs_across_seeds() {
        let base = FlightConfig {
            window: SimDuration::millis(1),
            worst: 0,
            reservoir: 4,
            seed: 0xAB,
        };
        let run = |seed: u64| {
            let mut r = FlightRecorder::new(FlightConfig { seed, ..base });
            for i in 0..300u32 {
                r.record(skel(i, 0, 10, 500));
            }
            let log = r.resolve(&[], &[]);
            log.samples
                .iter()
                .map(FlightSample::req)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(0xAB), run(0xAB), "same seed, same reservoir");
        assert_ne!(run(0xAB), run(0xCD), "different seed, different sample");
    }

    /// Oracle: each window keeps exactly "sort by (latency desc, req),
    /// take `worst`" as its tail and "sort by (mix hash, req), take
    /// `reservoir`" as its uniform sample. Latencies tie often, odd
    /// windows are always empty, and both keep counts range over
    /// {0, 1, 4}.
    #[test]
    fn window_keeps_match_sort_and_take() {
        use hcc_check::strategy::{choice, u64s, vecs};
        use hcc_check::{ensure_eq, forall, Config};
        use std::cmp::Reverse;

        forall!(
            Config::new(0x7ACE_0016),
            ((raw, worst), (reservoir, seed)) in (
                (vecs((u64s(0..6), u64s(0..4)), 0..60), choice(&[0usize, 1, 4])),
                (choice(&[0usize, 1, 4]), u64s(0..u64::MAX))
            ) => {
                let cfg = FlightConfig { window: SimDuration::millis(1), worst, reservoir, seed };
                let mut r = FlightRecorder::new(cfg);
                let mut by_window: BTreeMap<u64, Vec<FlightSkeleton>> = BTreeMap::new();
                for (i, &(slot, lat)) in raw.iter().enumerate() {
                    // Window 10 + 2 * slot, latency a multiple of 100 µs.
                    let settle = 1_000 * (10 + 2 * slot) + i as u64 % 3;
                    let s = skel(i as u32, settle - 100 * lat, settle - 100 * lat, settle);
                    r.record(s);
                    by_window.entry(10 + 2 * slot).or_default().push(s);
                }
                let log = r.resolve(&[], &[]);

                // (window, req) -> (tail, uniform), from sort-and-take.
                let mut want = BTreeMap::new();
                for (&w, members) in &by_window {
                    let mut by_latency = members.clone();
                    by_latency.sort_by_key(|s| (Reverse(s.latency()), s.req));
                    for s in by_latency.iter().take(worst) {
                        want.entry((w, s.req)).or_insert((false, false)).0 = true;
                    }
                    let mut by_hash = members.clone();
                    by_hash.sort_by_key(|s| (mix(seed, w, s.req), s.req));
                    for s in by_hash.iter().take(reservoir) {
                        want.entry((w, s.req)).or_insert((false, false)).1 = true;
                    }
                }
                let got: BTreeMap<(u64, u32), (bool, bool)> = log
                    .samples
                    .iter()
                    .map(|s| ((s.window, s.req()), (s.tail, s.uniform)))
                    .collect();
                ensure_eq!(got, want);
                let kept: usize = by_window.values().map(|m| m.len().min(worst) + m.len().min(reservoir)).sum();
                ensure_eq!(log.kept_entries, kept as u64);
                ensure_eq!(log.windows, by_window.len() as u64);
                ensure_eq!(log.recorded, raw.len() as u64);
            }
        );
    }

    /// Settle-ordered, reverse-settle and shuffled feeds of the same
    /// records give the same log: the cursor and the binary-search path
    /// of `record` land every record in the same sampler.
    #[test]
    fn keeps_match_across_settle_order_reversed_and_shuffled() {
        let cfg = FlightConfig {
            window: SimDuration::micros(50),
            worst: 2,
            reservoir: 2,
            seed: 9,
        };
        let mut skels: Vec<FlightSkeleton> = (0..400u32)
            .map(|i| {
                let settle = 100 + mix(1, 0, i) % 5_000;
                skel(i, settle - 40 - u64::from(i % 7), settle - 20, settle)
            })
            .collect();
        skels.sort_by_key(|s| (s.settle, s.req));
        let log = |order: &[FlightSkeleton]| {
            let mut r = FlightRecorder::new(cfg);
            for s in order {
                r.record(*s);
            }
            assert!(r.windows.windows(2).all(|p| p[0].0 < p[1].0));
            r.resolve(&[], &[])
        };
        let settled = log(&skels);
        let reversed: Vec<FlightSkeleton> = skels.iter().rev().copied().collect();
        let mut shuffled = skels.clone();
        shuffled.sort_by_key(|s| mix(2, 0, s.req));
        assert_eq!(log(&reversed), settled);
        assert_eq!(log(&shuffled), settled);
        let distinct: BTreeSet<u64> = skels.iter().map(|s| s.settle.as_nanos() / 50_000).collect();
        assert_eq!(settled.windows, distinct.len() as u64);
    }

    /// Memory follows the windows that were recorded into, not the
    /// horizon: 1 ns windows over settles spread to ~2⁴⁰ ns hold one
    /// sampler per distinct settle instant.
    #[test]
    fn sparse_windows_hold_one_sampler_each() {
        let cfg = FlightConfig {
            window: SimDuration::from_nanos(1),
            ..FlightConfig::default()
        };
        let mut r = FlightRecorder::new(cfg);
        let mut settles = BTreeSet::new();
        for i in 0..300u32 {
            // Every third request shares its predecessor's instant.
            let settle = mix(3, 0, i - i % 3) >> 24;
            settles.insert(settle);
            let at = SimTime::from_nanos(settle);
            r.record(FlightSkeleton {
                arrival: at,
                dispatch: at,
                settle: at,
                ..skel(i, 0, 0, 0)
            });
        }
        assert_eq!(r.windows.len(), settles.len());
        let held: Vec<u64> = r.windows.iter().map(|&(w, _)| w).collect();
        assert_eq!(held, settles.into_iter().collect::<Vec<_>>());
        assert!(held.last().is_some_and(|&w| w > 1 << 38));
    }

    /// A window recorded into counts even when nothing may be kept.
    #[test]
    fn keepless_windows_still_count() {
        let cfg = FlightConfig {
            window: SimDuration::micros(10),
            worst: 0,
            reservoir: 0,
            seed: 1,
        };
        let mut r = FlightRecorder::new(cfg);
        for (i, settle) in [15u64, 5, 95, 12, 55].into_iter().enumerate() {
            r.record(skel(i as u32, 0, 0, settle));
        }
        let log = r.resolve(&[], &[]);
        assert_eq!((log.windows, log.kept_entries), (4, 0));
        assert!(log.samples.is_empty());
        assert_eq!(log.recorded, 5);
    }

    /// Oracle: narrowing to the overlapped windows first returns what
    /// the linear filter over every exemplar returns — for spans that do
    /// not line up with the flight windows (5 s watch windows over 3 s
    /// flight windows), arbitrary spans, and empty or inverted ones.
    #[test]
    fn exemplars_between_matches_the_linear_filter() {
        use hcc_check::strategy::{u64s, vecs};
        use hcc_check::{ensure_eq, forall, Config};
        use std::cmp::Reverse;

        forall!(
            Config::new(0x7ACE_0019),
            (raw, spans) in (
                vecs((u64s(0..60_000), u64s(1..4_000)), 0..120),
                vecs((u64s(0..70_000), u64s(0..70_000)), 0..8),
            ) =>
        {
            let cfg = FlightConfig {
                window: SimDuration::secs(3),
                worst: 2,
                reservoir: 1,
                seed: 5,
            };
            let ms = |v: u64| SimTime::ZERO + SimDuration::millis(v);
            let mut r = FlightRecorder::new(cfg);
            for (i, &(settle, latency)) in raw.iter().enumerate() {
                let arrival = settle.saturating_sub(latency);
                let mut s = skel(i as u32, 0, 0, 0);
                (s.arrival, s.dispatch, s.settle) = (ms(arrival), ms(arrival), ms(settle));
                s.tenant = i as u32 % 3;
                r.record(s);
            }
            let log = r.resolve(&[], &[]);
            let linear = |tenant: Option<u32>, start: SimTime, end: SimTime| {
                let mut hits: Vec<&FlightSample> = log
                    .samples
                    .iter()
                    .filter(|s| start <= s.skeleton.settle && s.skeleton.settle < end)
                    .filter(|s| tenant.is_none_or(|t| s.skeleton.tenant == t))
                    .collect();
                hits.sort_by_key(|s| (Reverse(s.latency()), s.req()));
                hits.into_iter().map(FlightSample::req).collect::<Vec<u32>>()
            };
            let watch = (0..13).map(|k| (5_000 * k, 5_000 * (k + 1)));
            for (a, b) in watch.chain(spans.iter().copied()).chain([(7_000, 7_000), (9_000, 2_000)]) {
                for tenant in [None, Some(0), Some(2)] {
                    ensure_eq!(
                        (a, b, tenant, log.exemplars_between(tenant, ms(a), ms(b))),
                        (a, b, tenant, linear(tenant, ms(a), ms(b)))
                    );
                }
            }
        });
    }

    #[test]
    fn p50_exemplar_is_the_reservoir_median() {
        let cfg = FlightConfig {
            window: SimDuration::secs(1),
            worst: 1,
            reservoir: 16,
            seed: 7,
        };
        let mut r = FlightRecorder::new(cfg);
        for i in 0..10u32 {
            r.record(skel(i, 0, 10, 20 + u64::from(i) * 10));
        }
        let log = r.resolve(&[], &[]);
        let p50 = log.p50_exemplar(0).expect("non-empty window");
        assert!(p50.uniform);
        // 10 uniform members sorted by latency: median index (10-1)/2 = 4.
        assert_eq!(p50.req(), 4);
        assert!(log.p50_exemplar(99).is_none());
    }

    #[test]
    fn exemplars_between_filters_and_ranks() {
        let cfg = FlightConfig {
            window: SimDuration::millis(1),
            worst: 4,
            reservoir: 4,
            seed: 7,
        };
        let mut r = FlightRecorder::new(cfg);
        for i in 0..8u32 {
            r.record(skel(i, 0, 10, 100 + u64::from(i) * 100));
        }
        let log = r.resolve(&[], &[]);
        let all = log.exemplars_between(None, SimTime::ZERO, t(1_000));
        assert!(!all.is_empty());
        for pair in all.windows(2) {
            let (a, b) = (log.find(pair[0]).unwrap(), log.find(pair[1]).unwrap());
            assert!(a.latency() >= b.latency(), "worst first");
        }
        let t0 = log.exemplars_between(Some(0), SimTime::ZERO, t(1_000));
        assert!(t0.iter().all(|&req| req % 2 == 0));
        assert!(log.exemplars_between(None, t(2_000), t(3_000)).is_empty());
    }

    #[test]
    fn waterfall_renders_every_span_and_the_identity_trailer() {
        let mut r = FlightRecorder::new(FlightConfig::default());
        r.record(skel(7, 0, 10, 100));
        r.record(skel(8, 0, 12, 60));
        let log = r.resolve(&[0; 9], &[decomp_for(40)]);
        let s = log.find(7).unwrap();
        let base = log.find(8).unwrap();
        let text = log.render_waterfall(s, Some(base));
        assert!(text.contains("request #7"));
        assert!(text.contains("queue_wait"));
        assert!(text.contains("svc_crypto"));
        assert!(text.contains("batch_margin"));
        assert!(text.contains("span-identity OK"));
        assert!(text.contains("vs p50 #8"));
        let solo = log.render_waterfall(s, None);
        assert!(!solo.contains("vs p50"));
    }

    #[test]
    fn env_overrides_parse() {
        // Exercises only the pure parsing helpers (no env mutation —
        // tests run in parallel).
        let cfg = FlightConfig::default();
        assert_eq!(cfg.per_window_budget(), 8);
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
        assert_ne!(mix(1, 2, 3), mix(1, 2, 4));
        assert_ne!(mix(1, 2, 3), mix(2, 2, 3));
    }

    #[test]
    fn estimated_bytes_tracks_keeps() {
        let mut r = FlightRecorder::new(FlightConfig::default());
        r.record(skel(0, 0, 10, 100));
        let log = r.resolve(&[], &[]);
        assert!(log.estimated_bytes() > 0);
        let empty = FlightRecorder::new(FlightConfig::default()).resolve(&[], &[]);
        assert_eq!(empty.estimated_bytes(), 0);
    }

    /// The span tree as exemplars built it when each held its own span
    /// vector: the oracle for [`FlightSample::spans`].
    fn legacy_build(skel: &FlightSkeleton, decomp: &ShapeDecomp) -> Vec<(SpanKind, SimDuration)> {
        let mut spans: Vec<(SpanKind, SimDuration)> = Vec::new();
        if skel.rejected {
            spans.push((
                SpanKind::QueueWait,
                skel.settle.saturating_since(skel.arrival),
            ));
        } else {
            spans.push((
                SpanKind::QueueWait,
                skel.dispatch.saturating_since(skel.arrival),
            ));
            spans.push((SpanKind::SpdmHandshake, skel.spdm));
            spans.push((SpanKind::Doorbell, skel.doorbell));
            let shape = decomp.total;
            let attr_total = decomp.attr.total();
            if !attr_total.is_zero() && attr_total <= shape {
                for (r, t) in decomp.attr.iter() {
                    if !t.is_zero() {
                        spans.push((SpanKind::Service(r), t));
                    }
                }
                let other = shape - attr_total;
                if !other.is_zero() {
                    spans.push((SpanKind::ServiceOther, other));
                }
            } else {
                spans.push((SpanKind::ServiceOther, shape));
            }
            let service = skel.settle.saturating_since(skel.dispatch);
            let margin = service.saturating_sub(skel.spdm + skel.doorbell + shape);
            spans.push((SpanKind::BatchMargin, margin));
        }
        spans
    }

    /// Oracle: over random skeletons (rejected or served, cold or warm,
    /// margins that go negative) and random decompositions (classes left
    /// out, attributions that fit, fill or overflow the shape, and the
    /// empty one), the on-demand span list is exactly the list each
    /// exemplar used to build and store, including the full 12 spans.
    #[test]
    fn on_demand_spans_match_the_stored_build() {
        use hcc_check::strategy::{bools, u64s, vecs};
        use hcc_check::{ensure_eq, forall, Config};

        forall!(
            Config::new(0x7ACE_0024),
            ((times, admission, flags), (total, classes)) in (
                (
                    (u64s(0..5_000), u64s(0..5_000), u64s(0..20_000)),
                    (u64s(0..400), u64s(0..50)),
                    (bools(), bools()),
                ),
                (u64s(0..8_000), vecs(u64s(0..2_000), ResourceClass::COUNT..ResourceClass::COUNT + 1)),
            ) =>
        {
            let ((arrival, wait, service), (spdm, doorbell), (cold, rejected)) = (times, admission, flags);
            let us = SimDuration::micros;
            let skeleton = FlightSkeleton {
                arrival: t(arrival),
                dispatch: t(arrival + wait),
                settle: t(arrival + wait + if rejected { 0 } else { service }),
                spdm: if rejected || !cold { SimDuration::ZERO } else { us(spdm) },
                doorbell: if rejected { SimDuration::ZERO } else { us(doorbell) },
                cold,
                rejected,
                ..skel(3, 0, 0, 0)
            };
            let mut attr = Attribution::default();
            for (&class, &d) in ResourceClass::ALL.iter().zip(&classes) {
                // One class in three is left out.
                if d % 3 != 0 {
                    attr.add(class, us(d));
                }
            }
            let decomp = ShapeDecomp {
                total: us(total),
                attr,
                faults: FaultCounts::default(),
            };
            let sample = FlightSample { skeleton, window: 0, tail: true, uniform: false, shape: 0 };
            for d in [decomp, ShapeDecomp::default()] {
                let spans = sample.spans(&d);
                ensure_eq!(spans.to_vec(), legacy_build(&skeleton, &d));
                ensure_eq!(spans.len() <= Spans::CAPACITY, true);
            }
        });
    }

    /// Every resource class plus uncovered service fills the list.
    #[test]
    fn a_full_decomposition_fills_every_span_slot() {
        let mut attr = Attribution::default();
        for class in ResourceClass::ALL {
            attr.add(class, SimDuration::micros(1));
        }
        let decomp = ShapeDecomp {
            total: SimDuration::micros(50),
            attr,
            faults: FaultCounts::default(),
        };
        let s = skel(1, 0, 10, 100);
        let sample = FlightSample {
            skeleton: s,
            window: 0,
            tail: true,
            uniform: false,
            shape: 0,
        };
        let spans = sample.spans(&decomp);
        assert_eq!(spans.len(), Spans::CAPACITY);
        assert_eq!(spans.to_vec(), legacy_build(&s, &decomp));
    }
}
