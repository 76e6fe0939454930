//! The cluster drain: N confidential GPUs draining one scheduler's
//! queue over virtual time.
//!
//! A drain is single-threaded and a pure function of its inputs, so the
//! engine's worker-thread count can never reorder it. Completions at a
//! given instant free their GPUs before arrivals at the same instant
//! join the queue, and dispatch happens after all state changes at that
//! instant, onto the lowest-numbered idle GPU first.
//!
//! Two drains keep that contract. FIFO never reorders, so it needs no
//! event loop: request `i` dispatches at `d_i = max(a_i, d_{i-1}, the
//! earliest GPU free time)`, onto the lowest-numbered GPU free by then,
//! found in a min-tree over the GPUs' free times (`drain_fifo`). The
//! priority and batching disciplines reorder, so they advance a virtual
//! clock through a merged event stream (arrivals from the open-loop
//! trace, completions from a binary heap) and pick each batch through a
//! [`SchedQueue`] (`drain_events`). Both record through one ledger
//! and one queue-depth stream, so their bookkeeping is the same code.
//!
//! Each GPU has a [`SessionPool`]: a tenant's first request on a device
//! pays the full SPDM handshake (CC-on), and every request pays the
//! submit/complete doorbell pair — so CC-on admission costs ride the
//! same TD cost oracle as the rest of the lab. Those two charges are
//! constants of a run, priced once by [`SessionPool::cold_admission`],
//! so a drain only counts admissions per (device, tenant): a tenant's
//! first admission on a device is cold, a batch of `k` requests with `c`
//! cold starts is charged `doorbell × k + spdm × c`, and an [`Outcome`]
//! keeps only whether its admission was cold ([`AdmissionCosts::of`]
//! prices it). After the drain each device's pool is charged once per
//! tenant through [`SessionPool::admit_n`], which moves the TD counters
//! and the session ledger exactly as one `admit` per request would.
//!
//! The drain folds each tenant's sums as it dispatches ([`TenantSums`]:
//! a batch is single-tenant, so each batch adds its service, admission
//! and rejections to one tenant) and records per request only what its
//! caller asks for ([`Record`]): the 24 B [`Outcome`] log the
//! observation planes and test oracles read, or, with no plane on, just
//! each admitted request's latency and wait, written into per-tenant
//! regions of the caller's [`Samples`].
//!
//! The drain computes its own verdicts as it runs: whether the queue
//! ended empty, (given a storm calendar's peak ends) the queue's
//! time-to-recover after each peak, and (given the watch's window width)
//! the queue depth's integral over each window. Depth-gauge series are
//! recorded only under [`Planes::METRICS`], for the views that read
//! them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hcc_tee::{SessionPool, TdCounters};
use hcc_trace::{MetricsSet, OrderedGauge, WindowIntegrals};
use hcc_types::calib::TdxCalib;
use hcc_types::{CcMode, Planes, SimDuration, SimTime};
use hcc_workloads::TenantSpec;

use super::arrival::{Request, MAX_REQUESTS};
use super::scheduler::{SchedQueue, SchedulerKind};
use super::shapes::ShapeTable;

/// Marginal cost of each additional request coalesced into a device
/// batch, as a fraction of the shape's solo service time: a batch of `k`
/// runs for `P * (1 + SLOPE * (k - 1))` plus its admission charges.
const BATCH_MARGIN: f64 = 0.35;

/// The widest cluster a run drains on: GPU ids are `u32`.
pub const MAX_GPUS: u64 = u32::MAX as u64;

/// The largest continuous-batching cap: batch sizes are `u16`.
pub const MAX_BATCH: u64 = u16::MAX as u64;

/// What happened to one request: 24 bytes, the log a drain fills one
/// entry per request under [`Record::Log`]. Its admission charges are
/// not stored:
/// [`AdmissionCosts::of`] derives them from `cold`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// When the scheduler handed the request to a device (or rejected it).
    pub dispatch: SimTime,
    /// When its batch finished (equals `dispatch` for rejections).
    pub completion: SimTime,
    /// GPU the batch ran on (0 for rejections).
    pub gpu: u32,
    /// Size of the device batch the request rode in (for a rejection,
    /// of the batch the scheduler dequeued it in).
    pub batch: u16,
    /// Whether admission was a cold start (paid the SPDM handshake).
    pub cold: bool,
    /// Whether the request was rejected because its shape scenario fails
    /// deterministically (e.g. an aborted fault-injection run).
    pub rejected: bool,
}

// A new field must not silently regrow every drain's outcome log.
const _: () = assert!(std::mem::size_of::<Outcome>() == 24);

/// The admission charges of one run, priced by
/// [`SessionPool::cold_admission`]. Every device's pool charges the same
/// SPDM handshake to a cold admission and the same doorbell pair to
/// every admission, so a request's charges follow from its [`Outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionCosts {
    /// The SPDM session handshake a cold admission pays.
    pub spdm: SimDuration,
    /// The submit/complete doorbell pair every admission pays.
    pub doorbell: SimDuration,
}

impl AdmissionCosts {
    /// `(spdm, doorbell)` folded into the batch's service on `o`'s
    /// behalf: the handshake only for a cold start, and nothing for a
    /// rejection.
    pub fn of(&self, o: &Outcome) -> (SimDuration, SimDuration) {
        if o.rejected {
            return (SimDuration::ZERO, SimDuration::ZERO);
        }
        let spdm = if o.cold { self.spdm } else { SimDuration::ZERO };
        (spdm, self.doorbell)
    }
}

/// What a drain records per request, beyond the per-tenant
/// [`TenantSums`] every drain folds.
#[derive(Debug)]
pub enum Record<'s> {
    /// The outcome log ([`ClusterRun::outcomes`]): one [`Outcome`] per
    /// request, for the observation planes and oracles that read it.
    Log,
    /// No log: each admitted request's latency and wait go into the
    /// lent [`Samples`], and [`ClusterRun::outcomes`] stays empty.
    Samples(&'s mut Samples),
}

/// One tenant's sums over a drain, folded at dispatch one batch at a
/// time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantSums {
    /// Requests rejected because their own shape fails.
    pub rejected: u64,
    /// Σ (completion − dispatch) over admitted requests: each batch's
    /// service time times its size.
    pub service: SimDuration,
    /// Σ each admitted request's own solo shape time. A batch runs for
    /// its head's shape, but a follower may ride another working shape
    /// (a chaos storm shape); one whose own shape fails is rejected, not
    /// admitted.
    pub shape: SimDuration,
    /// Σ admission charges (SPDM setup + doorbells) of admitted requests.
    pub admission: SimDuration,
}

/// Each admitted request's latency (arrival → completion) and wait
/// (arrival → dispatch), written at dispatch by a drain that keeps no
/// outcome log. Both buffers hold one slot per request, grouped by
/// tenant: tenant `t`'s region starts at the number of earlier-tenant
/// requests in the trace and is as long as `t`'s request count, and
/// its rejected requests leave the region's tail unwritten.
///
/// A soak lends one `Samples` to each of its cells. Every cell of a
/// soak drains the same trace, so the regions are placed once per soak
/// and the buffers are allocated once and reused; freeing them per cell
/// would let glibc trim them and the next cell fault them back in.
#[derive(Debug)]
pub struct Samples {
    latency: Vec<SimDuration>,
    wait: Vec<SimDuration>,
    /// Tenant `t`'s region starts at `start[t]`; `start[tenants]` is
    /// the request count.
    start: Vec<usize>,
    /// Tenant `t`'s samples end at `end[t]`.
    end: Vec<usize>,
}

impl Samples {
    /// Empty buffers for the cells of one soak, which all drain
    /// `requests`: each of `tenants` tenants' region is placed here, once
    /// per soak.
    pub fn new(requests: &[Request], tenants: usize) -> Self {
        Samples {
            latency: Vec::new(),
            wait: Vec::new(),
            start: region_starts(requests, tenants),
            end: Vec::new(),
        }
    }

    /// Sizes both buffers for `requests` (keeping them when they
    /// already are) and empties every one of `tenants` regions.
    ///
    /// # Panics
    /// If the regions were placed for a trace of another length or
    /// tenant count (in debug builds, for any other trace).
    fn reset(&mut self, requests: &[Request], tenants: usize) {
        assert!(
            self.start.len() == tenants + 1 && self.start[tenants] == requests.len(),
            "samples placed for another trace"
        );
        debug_assert_eq!(self.start, region_starts(requests, tenants));
        if self.latency.len() != requests.len() {
            self.latency = vec![SimDuration::ZERO; requests.len()];
            self.wait = vec![SimDuration::ZERO; requests.len()];
        }
        self.end.clear();
        self.end.extend_from_slice(&self.start[..tenants]);
    }

    /// Appends one admitted request of `tenant` to its region.
    fn push(&mut self, tenant: usize, latency: SimDuration, wait: SimDuration) {
        let at = self.end[tenant];
        debug_assert!(
            at < self.start[tenant + 1],
            "tenant {tenant} overflows its region"
        );
        self.latency[at] = latency;
        self.wait[at] = wait;
        self.end[tenant] = at + 1;
    }

    /// Tenant `t`'s latency and wait samples, in dispatch order.
    pub(crate) fn tenant(&mut self, t: usize) -> (&mut [SimDuration], &mut [SimDuration]) {
        let region = self.start[t]..self.end[t];
        (&mut self.latency[region.clone()], &mut self.wait[region])
    }

    /// Samples written since the last reset.
    fn admitted(&self) -> usize {
        self.end
            .iter()
            .zip(&self.start)
            .map(|(end, start)| end - start)
            .sum()
    }

    /// Frees both buffers, keeping the regions. A cell that keeps its
    /// outcome log does not hold them while its planes run.
    pub(crate) fn release(&mut self) {
        self.latency = Vec::new();
        self.wait = Vec::new();
    }
}

/// Where each of `tenants` tenants' region starts in a buffer of one
/// slot per request of `requests`, grouped by tenant, followed by the
/// request count.
pub(crate) fn region_starts(requests: &[Request], tenants: usize) -> Vec<usize> {
    let mut start = vec![0usize; tenants + 1];
    for r in requests {
        start[r.tenant as usize + 1] += 1;
    }
    for t in 0..tenants {
        start[t + 1] += start[t];
    }
    start
}

/// One (scheduler, mode) cluster run over the shared request trace.
#[derive(Debug)]
pub struct ClusterRun {
    /// Per-request outcomes, aligned with the request slice, under
    /// [`Record::Log`]; empty under [`Record::Samples`].
    pub outcomes: Vec<Outcome>,
    /// Per-tenant sums, in population order.
    pub tenants: Vec<TenantSums>,
    /// What each outcome's admission was charged.
    pub admission: AdmissionCosts,
    /// Virtual time of the last event (the makespan).
    pub end: SimTime,
    /// Total device-busy virtual time, summed across GPUs.
    pub busy: SimDuration,
    /// Device batches actually executed.
    pub batches: u64,
    /// Cold-start admissions (first request of a tenant on a device).
    pub cold_starts: u64,
    /// Sessions established across every device pool (equals
    /// `cold_starts`: each cold admission attests exactly one session).
    pub sessions_established: u64,
    /// Sessions torn down by the end-of-run drain. Leak-audit identity:
    /// equals `sessions_established`, and no pool reports an established
    /// session afterwards.
    pub sessions_closed: u64,
    /// TD transition counters summed over every (device, tenant) context.
    pub td: TdCounters,
    /// Whether the queue ended the run empty. Every device has: the run
    /// ends at its last completion or arrival.
    pub drained: bool,
    /// The queue's time-to-recover after each of the config's peak ends:
    /// `Some` exactly when [`ClusterConfig::peak_ends`] is.
    pub ttr: Option<TimeToRecover>,
    /// The queue depth's integral over each tumbling window of the
    /// config's queue window: `Some` exactly when
    /// [`ClusterConfig::queue_window`] is.
    pub queue_integrals: Option<WindowIntegrals>,
    /// Queue-depth and per-GPU occupancy gauges plus the `serving.*`
    /// counters; empty unless the config's planes include
    /// [`Planes::METRICS`].
    pub metrics: MetricsSet,
}

/// Post-storm drain measurements: for each peak window's end, how long
/// until the cluster queue returned to zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeToRecover {
    /// Peak windows in the storm calendar.
    pub peaks: usize,
    /// Peaks after which the queue demonstrably drained to zero.
    pub drained: usize,
    /// Mean drain time over drained peaks.
    pub mean: SimDuration,
    /// Worst drain time over drained peaks.
    pub max: SimDuration,
}

/// The cluster a trace drains through: who is admitted, on how many
/// devices, under which discipline.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig<'a> {
    /// Tenant population (the requests' `tenant` indexes it).
    pub tenants: &'a [TenantSpec],
    /// CC mode of every device's session pool.
    pub cc: CcMode,
    /// Cluster width, at most [`MAX_GPUS`].
    pub gpus: usize,
    /// Scheduling discipline.
    pub kind: SchedulerKind,
    /// Continuous-batching cap, at most [`MAX_BATCH`].
    pub max_batch: usize,
    /// TDX calibration for the per-device session pools.
    pub tdx: &'a TdxCalib,
    /// Storm peak-window ends, ascending, to measure time-to-recover
    /// at; `None` outside a storm calendar.
    pub peak_ends: Option<&'a [SimTime]>,
    /// Width of the windows to integrate the queue depth over (the
    /// watch's fast window); `None` when no watch reads them.
    pub queue_window: Option<SimDuration>,
    /// Observation planes: [`Planes::METRICS`] records the depth-gauge
    /// series and `serving.*` counters into [`ClusterRun::metrics`].
    pub planes: Planes,
}

/// The idle GPUs as a bitset (bit `g % 64` of word `g / 64`) with a
/// running count, so the event loop takes the lowest-numbered idle GPU
/// without allocating, at any cluster width.
#[derive(Debug)]
struct IdleGpus {
    words: Vec<u64>,
    count: usize,
}

impl IdleGpus {
    /// GPUs `0..gpus`, all idle.
    fn all(gpus: usize) -> Self {
        let mut words = vec![u64::MAX; gpus.div_ceil(64)];
        if !gpus.is_multiple_of(64) {
            words[gpus / 64] = (1 << (gpus % 64)) - 1;
        }
        IdleGpus { words, count: gpus }
    }

    fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Marks the lowest-numbered idle GPU busy and returns it.
    ///
    /// # Panics
    /// If no GPU is idle.
    fn take_lowest(&mut self) -> usize {
        let (w, word) = self
            .words
            .iter_mut()
            .enumerate()
            .find(|(_, word)| **word != 0)
            .expect("an idle GPU to take");
        let bit = word.trailing_zeros() as usize;
        *word &= *word - 1;
        self.count -= 1;
        w * 64 + bit
    }

    /// Marks `gpu` idle again.
    fn insert(&mut self, gpu: usize) {
        let mask = 1 << (gpu % 64);
        debug_assert_eq!(self.words[gpu / 64] & mask, 0, "gpu {gpu} is already idle");
        self.words[gpu / 64] |= mask;
        self.count += 1;
    }
}

/// A free time no GPU reaches: the padding leaves of [`FreeTimes`], and
/// a GPU held back until its instant's dispatch round ends.
const NEVER: SimTime = SimTime::from_nanos(u64::MAX);

/// Each GPU's free time (when its last batch completes) in a min-tree,
/// the FIFO drain's only GPU state. The root is the earliest free time,
/// and the leftmost leaf at or before an instant is the lowest-numbered
/// GPU idle then: both in `O(log gpus)` at any width.
#[derive(Debug)]
struct FreeTimes {
    /// Node `k`'s children are `2k` and `2k + 1`; leaf `g` is node
    /// `leaves + g`, and node 0 is unused.
    tree: Vec<SimTime>,
    leaves: usize,
}

impl FreeTimes {
    /// GPUs `0..gpus`, all free from time zero.
    fn new(gpus: usize) -> Self {
        let leaves = gpus.next_power_of_two();
        let mut tree = vec![NEVER; 2 * leaves];
        tree[leaves..leaves + gpus].fill(SimTime::ZERO);
        for k in (1..leaves).rev() {
            tree[k] = tree[2 * k].min(tree[2 * k + 1]);
        }
        FreeTimes { tree, leaves }
    }

    /// The earliest free time of any GPU.
    fn earliest(&self) -> SimTime {
        self.tree[1]
    }

    /// The lowest-numbered GPU free at or before `t`.
    ///
    /// # Panics
    /// In debug builds, if no GPU is free by `t`.
    fn lowest_free_by(&self, t: SimTime) -> usize {
        debug_assert!(self.earliest() <= t, "a GPU free by {t}");
        let mut k = 1;
        while k < self.leaves {
            k *= 2;
            if self.tree[k] > t {
                k += 1;
            }
        }
        k - self.leaves
    }

    /// `gpu` is next free at `t`.
    fn set(&mut self, gpu: usize, t: SimTime) {
        let mut k = self.leaves + gpu;
        self.tree[k] = t;
        while k > 1 {
            k /= 2;
            self.tree[k] = self.tree[2 * k].min(self.tree[2 * k + 1]);
        }
    }
}

/// A cursor over ascending peak ends that measures the queue's
/// time-to-recover as the clock advances. A peak drains at once when
/// the queue is empty at its end, and otherwise at the end of the first
/// later virtual instant that leaves the queue empty; peaks still
/// backlogged when the run ends are left out of the mean and max.
#[derive(Debug)]
pub(crate) struct Recovery<'a> {
    peaks: &'a [SimTime],
    /// Peaks before this index have been classified against an instant.
    classified: usize,
    /// Peaks in `pending..classified` are still backlogged.
    pending: usize,
    drained: usize,
    sum_ns: u64,
    max_ns: u64,
}

impl<'a> Recovery<'a> {
    pub(crate) fn new(peaks: &'a [SimTime]) -> Self {
        assert!(peaks.is_sorted(), "peak ends ascend");
        Recovery {
            peaks,
            classified: 0,
            pending: 0,
            drained: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// The queue held `depth` at the end of instant `now` and keeps it
    /// until `until`, a later instant (`None`: the run is over).
    pub(crate) fn settle(&mut self, now: SimTime, depth: usize, until: Option<SimTime>) {
        let before_until = |&p: &SimTime| until.is_none_or(|u| p < u);
        while self.peaks.get(self.classified).is_some_and(before_until) {
            self.classified += 1;
        }
        if depth == 0 {
            // Backlogged peaks recover now; peaks in `[now, until)` find
            // the queue already empty.
            for &p in &self.peaks[self.pending..self.classified] {
                let d = now.saturating_since(p).as_nanos();
                self.drained += 1;
                self.sum_ns += d;
                self.max_ns = self.max_ns.max(d);
            }
            self.pending = self.classified;
        }
    }

    pub(crate) fn finish(self) -> TimeToRecover {
        let mut out = TimeToRecover {
            peaks: self.peaks.len(),
            drained: self.drained,
            ..TimeToRecover::default()
        };
        if self.drained > 0 {
            out.mean = SimDuration::from_nanos(self.sum_ns / self.drained as u64);
            out.max = SimDuration::from_nanos(self.max_ns);
        }
        out
    }
}

/// The queue depth and everything that reads it as a drain runs: the
/// time-to-recover cursor, the window integrals and (under
/// [`Planes::METRICS`]) the `serving.queue_depth` gauge. A drain reports
/// each arrival and dispatch, in time order, and closes each instant
/// whose depth may have moved before the next one opens. Closing only
/// those instants reads the same step function as closing every event
/// instant: an instant that moves no depth adds nothing either consumer
/// can see.
#[derive(Debug)]
struct QueueDepth<'a> {
    depth: usize,
    recovery: Option<Recovery<'a>>,
    integrals: Option<WindowIntegrals>,
    /// Coalesces as it records: the depth moves only at the current
    /// instant, which never decreases.
    gauge: Option<OrderedGauge>,
}

impl<'a> QueueDepth<'a> {
    fn new(cfg: &ClusterConfig<'a>) -> Self {
        QueueDepth {
            depth: 0,
            recovery: cfg.peak_ends.map(Recovery::new),
            integrals: cfg.queue_window.map(WindowIntegrals::new),
            gauge: cfg.planes.contains(Planes::METRICS).then(OrderedGauge::new),
        }
    }

    /// One request joins the queue at `now`.
    fn arrive(&mut self, now: SimTime) {
        self.depth += 1;
        if let Some(g) = self.gauge.as_mut() {
            g.add(now, 1);
        }
    }

    /// `n` requests leave the queue for dispatch at `now`.
    fn dispatch(&mut self, now: SimTime, n: usize) {
        self.depth -= n;
        if let Some(g) = self.gauge.as_mut() {
            g.add(now, -(n as i64));
        }
    }

    /// The depth at the end of instant `now` holds until `until`.
    fn close(&mut self, now: SimTime, until: SimTime) {
        if let Some(r) = self.recovery.as_mut() {
            r.settle(now, self.depth, Some(until));
        }
        if let Some(q) = self.integrals.as_mut() {
            q.step(now, self.depth as u64);
        }
    }

    /// The run ended at `end`, and the final depth holds from there on,
    /// as a series' last value does.
    fn finish(
        self,
        end: SimTime,
    ) -> (
        bool,
        Option<TimeToRecover>,
        Option<WindowIntegrals>,
        Option<OrderedGauge>,
    ) {
        let ttr = self.recovery.map(|mut r| {
            r.settle(end, self.depth, None);
            r.finish()
        });
        let integrals = self.integrals.map(|mut q| {
            q.step(end, self.depth as u64);
            q
        });
        (self.depth == 0, ttr, integrals, self.gauge)
    }
}

/// Everything a drain records at dispatch, shared by both drains: the
/// outcome log or the lent [`Samples`], each tenant's [`TenantSums`],
/// admissions per (device, tenant), busy time, batch and cold-start
/// counts and (under [`Planes::METRICS`]) each GPU's depth gauge. After
/// the drain, [`Ledger::finish`] charges the device pools and builds
/// the [`ClusterRun`].
#[derive(Debug)]
struct Ledger<'a> {
    requests: &'a [Request],
    tenants: usize,
    cc_on: bool,
    admission: AdmissionCosts,
    outcomes: Vec<Outcome>,
    samples: Option<&'a mut Samples>,
    sums: Vec<TenantSums>,
    /// Admissions per (device, tenant), row-major by GPU: a tenant's
    /// first admission on a device is its cold start (CC-on), and the
    /// pools are charged from these counts after the drain.
    admitted: Vec<u64>,
    busy: SimDuration,
    batches: u64,
    cold_starts: u64,
    /// A GPU's `-n` at completion precedes its next `+n`, which needs
    /// the GPU free again, so each gauge coalesces as it records.
    gpu_gauges: Option<Vec<OrderedGauge>>,
}

/// `batch == 0` marks a logged request not yet settled: every settle
/// writes the size of a batch it rode in, which is at least one.
const UNSETTLED: Outcome = Outcome {
    dispatch: SimTime::ZERO,
    completion: SimTime::ZERO,
    gpu: 0,
    batch: 0,
    cold: false,
    rejected: false,
};

impl<'a> Ledger<'a> {
    fn new(requests: &'a [Request], cfg: &ClusterConfig<'_>, record: Record<'a>) -> Self {
        let tenants = cfg.tenants.len();
        let (outcomes, samples) = match record {
            Record::Log => (vec![UNSETTLED; requests.len()], None),
            Record::Samples(samples) => {
                samples.reset(requests, tenants);
                (Vec::new(), Some(samples))
            }
        };
        let (spdm, doorbell) = cfg.pool().cold_admission().flight_split();
        Ledger {
            requests,
            tenants,
            cc_on: cfg.cc == CcMode::On,
            admission: AdmissionCosts { spdm, doorbell },
            outcomes,
            samples,
            sums: vec![TenantSums::default(); tenants],
            admitted: vec![0; cfg.gpus * tenants],
            busy: SimDuration::ZERO,
            batches: 0,
            cold_starts: 0,
            gpu_gauges: cfg
                .planes
                .contains(Planes::METRICS)
                .then(|| (0..cfg.gpus).map(|_| OrderedGauge::new()).collect()),
        }
    }

    /// Rejects request `i` at `now`, dequeued in a batch of `dequeued`:
    /// it occupies no device.
    fn reject(&mut self, i: u32, now: SimTime, dequeued: u16) {
        self.sums[self.requests[i as usize].tenant as usize].rejected += 1;
        if self.samples.is_none() {
            let i = i as usize;
            debug_assert_eq!(self.outcomes[i].batch, 0, "request {i} settles once");
            self.outcomes[i] = Outcome {
                dispatch: now,
                completion: now,
                batch: dequeued,
                rejected: true,
                ..UNSETTLED
            };
        }
    }

    /// Runs `batch`, one tenant's working members head first, on `gpu`
    /// from `now` for the head's `shape` (`shape_sum` is every member's
    /// own), and returns when it completes.
    fn run(
        &mut self,
        batch: &[u32],
        gpu: usize,
        now: SimTime,
        shape: SimDuration,
        shape_sum: SimDuration,
    ) -> SimTime {
        let tenant = self.requests[batch[0] as usize].tenant as usize;
        let size = batch.len() as u16;
        // Only the head can be cold: the batch is single-tenant, so its
        // followers find the tenant admitted on this device.
        let n = &mut self.admitted[gpu * self.tenants + tenant];
        let colds = u64::from(self.cc_on && *n == 0);
        *n += u64::from(size);
        self.cold_starts += colds;
        let admission_sum = self.admission.doorbell * u64::from(size) + self.admission.spdm * colds;
        let extra = shape.scale(BATCH_MARGIN * (batch.len() - 1) as f64);
        let service_time = shape + extra + admission_sum;
        let done = now + service_time;
        self.busy += service_time;
        self.batches += 1;
        if let Some(g) = self.gpu_gauges.as_mut() {
            g[gpu].occupy_n(now, done, i64::from(size));
        }
        let s = &mut self.sums[tenant];
        s.service += service_time * u64::from(size);
        s.shape += shape_sum;
        s.admission += admission_sum;
        match self.samples.as_deref_mut() {
            Some(samples) => {
                for &i in batch {
                    let arrival = self.requests[i as usize].arrival;
                    samples.push(
                        tenant,
                        done.saturating_since(arrival),
                        now.saturating_since(arrival),
                    );
                }
            }
            None => {
                for (k, &i) in batch.iter().enumerate() {
                    let i = i as usize;
                    debug_assert_eq!(self.outcomes[i].batch, 0, "request {i} settles once");
                    self.outcomes[i] = Outcome {
                        dispatch: now,
                        completion: done,
                        gpu: gpu as u32,
                        batch: size,
                        cold: k == 0 && colds > 0,
                        rejected: false,
                    };
                }
            }
        }
        done
    }

    /// The run that ended at `end` with `depth`'s verdicts. Each
    /// device's pool is charged once per tenant with everything the
    /// drain admitted there: the same counters and session ledger as one
    /// `admit` per request.
    fn finish(self, cfg: &ClusterConfig<'_>, end: SimTime, depth: QueueDepth<'_>) -> ClusterRun {
        debug_assert!(
            match self.samples.as_deref() {
                Some(samples) => {
                    let rejected: u64 = self.sums.iter().map(|s| s.rejected).sum();
                    samples.admitted() as u64 + rejected == self.requests.len() as u64
                }
                None => self.outcomes.iter().all(|o| o.batch > 0),
            },
            "every request settles once"
        );
        let (drained, ttr, queue_integrals, queue_gauge) = depth.finish(end);

        let mut td = TdCounters::default();
        let mut sessions_established = 0u64;
        let mut sessions_closed = 0u64;
        for counts in self.admitted.chunks_exact(self.tenants.max(1)) {
            let mut pool = cfg.pool();
            for (tenant, &n) in counts.iter().enumerate() {
                pool.admit_n(tenant as u64, n);
            }
            let c = pool.counters();
            td.hypercalls += c.hypercalls;
            td.seamcalls += c.seamcalls;
            td.pages_converted += c.pages_converted;
            td.transition_time += c.transition_time;
            // End-of-run drain: every established session must close
            // exactly once, and the pool must report none live
            // afterwards.
            sessions_established += pool.established() as u64;
            sessions_closed += pool.close_all();
            pool.leak_check().expect("session pool drained");
        }

        let mut metrics = MetricsSet::new();
        if let (Some(queue), Some(gpus)) = (queue_gauge, self.gpu_gauges) {
            metrics.push_counter("serving.requests", self.requests.len() as u64);
            metrics.push_counter("serving.batches", self.batches);
            metrics.push_counter("serving.cold_starts", self.cold_starts);
            metrics.push_series(queue.finish("serving.queue_depth"));
            for (g, gauge) in gpus.into_iter().enumerate() {
                metrics.push_series(gauge.finish(&format!("serving.gpu{g}.depth")));
            }
        }

        ClusterRun {
            outcomes: self.outcomes,
            tenants: self.sums,
            admission: self.admission,
            end,
            busy: self.busy,
            batches: self.batches,
            cold_starts: self.cold_starts,
            sessions_established,
            sessions_closed,
            td,
            drained,
            ttr,
            queue_integrals,
            metrics,
        }
    }
}

impl ClusterConfig<'_> {
    /// One device's empty session pool.
    fn pool(&self) -> SessionPool {
        SessionPool::new(self.cc, self.tdx.clone())
    }
}

/// Simulates one scheduler draining the trace on `cfg.gpus` devices.
///
/// `shapes` maps each request to its memoized shape outcome: the solo
/// device time of its scenario, or the error a deterministic failure
/// produced (those requests are rejected at dispatch, never losing
/// conservation: every admitted request either completes or rejects
/// exactly once). Each member of a dequeued batch is judged by its own
/// shape: the failing ones are rejected, and the working ones run as
/// the batch for the shape of the first of them.
///
/// FIFO drains by its recurrence (`drain_fifo`); the priority and
/// batching disciplines run the event loop (`drain_events`). Neither
/// records anything beyond the returned [`ClusterRun`] and, under
/// [`Record::Samples`], the lent samples: the observation planes
/// (rollups, flight recording) are views built from its outcome log
/// after the drain, and the depth gauges are recorded only under
/// [`Planes::METRICS`].
///
/// # Panics
/// If `requests` and `shapes` disagree in length, the cluster has no
/// GPU, or the run exceeds a width its records hold: more than
/// [`MAX_REQUESTS`] requests, [`MAX_GPUS`] GPUs or a
/// [`MAX_BATCH`]-request batch cap.
pub fn simulate(
    requests: &[Request],
    shapes: &ShapeTable,
    cfg: &ClusterConfig<'_>,
    record: Record<'_>,
) -> ClusterRun {
    assert_eq!(requests.len(), shapes.shape_of().len());
    assert!(cfg.gpus > 0, "a cluster needs at least one GPU");
    assert!(requests.len() as u64 <= MAX_REQUESTS, "request ids are u32");
    assert!(cfg.gpus as u64 <= MAX_GPUS, "GPU ids are u32");
    assert!(cfg.max_batch as u64 <= MAX_BATCH, "batch sizes are u16");

    let mut ledger = Ledger::new(requests, cfg, record);
    let mut depth = QueueDepth::new(cfg);
    let end = match cfg.kind {
        SchedulerKind::Fifo => drain_fifo(requests, shapes, cfg.gpus, &mut ledger, &mut depth),
        SchedulerKind::Priority | SchedulerKind::Batching => {
            drain_events(requests, shapes, cfg, &mut ledger, &mut depth)
        }
    };
    ledger.finish(cfg, end, depth)
}

/// The FIFO drain, with no event loop: requests dispatch in index
/// order, request `i` at `d_i = max(a_i, d_{i-1}, earliest free time)`,
/// onto the lowest-numbered GPU free by `d_i` when its shape works and
/// onto none when it fails. That is when the event loop dispatches it:
/// the loop frees every completion at an instant before that instant's
/// arrivals and dispatch, so a GPU is idle at `t` exactly when its free
/// time is at or before `t`, and FIFO never reorders.
///
/// A batch of zero length frees its GPU at the instant it started, but
/// the loop frees it only once that instant's dispatch round ends (no
/// GPU idle, or nothing waiting). So such a GPU is held back at
/// [`NEVER`] until then.
///
/// The queue depth at the end of instant `t` is `#{a_j ≤ t} − #{d_j ≤
/// t}`. Both sequences ascend, so one arrival cursor, advanced to each
/// dispatch, streams the depth's steps into `depth` in time order.
/// Returns the time of the last event.
fn drain_fifo(
    requests: &[Request],
    shapes: &ShapeTable,
    gpus: usize,
    ledger: &mut Ledger<'_>,
    depth: &mut QueueDepth<'_>,
) -> SimTime {
    let mut free = FreeTimes::new(gpus);
    // GPUs freed at `held_at` by a zero-length batch, not yet idle.
    let (mut held, mut held_at) = (Vec::new(), SimTime::ZERO);
    let (mut arrived, mut instant) = (0, SimTime::ZERO);
    let (mut dispatch, mut end) = (SimTime::ZERO, SimTime::ZERO);
    for (i, request) in requests.iter().enumerate() {
        let ready = request.arrival.max(dispatch);
        if !held.is_empty() && (ready > held_at || free.earliest() > ready) {
            for g in held.drain(..) {
                free.set(g, held_at);
            }
        }
        dispatch = ready.max(free.earliest());
        // Every arrival up to this dispatch joins the queue first,
        // closing each instant the cursor leaves.
        while let Some(next) = requests.get(arrived).filter(|r| r.arrival <= dispatch) {
            if next.arrival > instant {
                depth.close(instant, next.arrival);
                instant = next.arrival;
            }
            depth.arrive(instant);
            arrived += 1;
        }
        if dispatch > instant {
            depth.close(instant, dispatch);
            instant = dispatch;
        }
        depth.dispatch(dispatch, 1);
        match shapes.service(i) {
            Ok(shape) => {
                let gpu = free.lowest_free_by(dispatch);
                let done = ledger.run(&[i as u32], gpu, dispatch, *shape, *shape);
                if done == dispatch {
                    free.set(gpu, NEVER);
                    held.push(gpu);
                    held_at = dispatch;
                } else {
                    free.set(gpu, done);
                }
                end = end.max(done);
            }
            Err(_) => ledger.reject(i as u32, dispatch, 1),
        }
    }
    let end = end.max(requests.last().map_or(SimTime::ZERO, |r| r.arrival));
    if end > instant {
        depth.close(instant, end);
    }
    end
}

/// The event loop the priority and batching disciplines drain through:
/// the trace's arrivals merged with completions from a binary heap (one
/// in-flight batch per GPU), the waiting requests in a [`SchedQueue`].
/// Completions at an instant are processed before that instant's
/// arrivals, and dispatch runs after both. Returns the time of the last
/// event.
fn drain_events(
    requests: &[Request],
    shapes: &ShapeTable,
    cfg: &ClusterConfig<'_>,
    ledger: &mut Ledger<'_>,
    depth: &mut QueueDepth<'_>,
) -> SimTime {
    let mut queue = SchedQueue::new(cfg.kind, cfg.tenants, cfg.max_batch, requests.len());
    let mut batch: Vec<u32> = Vec::with_capacity(cfg.max_batch.max(1));
    let mut idle = IdleGpus::all(cfg.gpus);
    // Min-heap of (completion time, gpu).
    let mut completions: BinaryHeap<Reverse<(SimTime, usize)>> =
        BinaryHeap::with_capacity(cfg.gpus);
    let mut next_arrival = 0usize;
    let mut now = SimTime::ZERO;

    loop {
        // Dispatch everything we can at the current instant.
        while !idle.is_empty() && queue.next_batch(requests, &mut batch) {
            let dequeued = batch.len() as u16;
            depth.dispatch(now, batch.len());
            debug_assert!(
                batch
                    .iter()
                    .all(|&i| requests[i as usize].tenant == requests[batch[0] as usize].tenant),
                "a batch is single-tenant"
            );
            // Each member is judged by its own shape: one that fails is
            // rejected here without occupying a device, and the rest run
            // as the batch, led by the first of them.
            let (mut head_shape, mut shape_sum) = (None, SimDuration::ZERO);
            batch.retain(|&i| match shapes.service(i as usize) {
                Ok(p) => {
                    head_shape.get_or_insert(*p);
                    shape_sum += *p;
                    true
                }
                Err(_) => {
                    ledger.reject(i, now, dequeued);
                    false
                }
            });
            let Some(shape) = head_shape else { continue };
            let gpu = idle.take_lowest();
            let done = ledger.run(&batch, gpu, now, shape, shape_sum);
            completions.push(Reverse((done, gpu)));
        }

        // Advance to the next event.
        let arrival = requests.get(next_arrival).map(|r| r.arrival);
        let completion = completions.peek().map(|Reverse((t, _))| *t);
        let next = match (arrival, completion) {
            (Some(a), Some(c)) => a.min(c),
            (Some(a), None) => a,
            (None, Some(c)) => c,
            (None, None) => break,
        };
        debug_assert!(next >= now, "the virtual clock never runs backwards");
        if next > now {
            depth.close(now, next);
        }
        now = next;
        // Completions first: a device freed at `t` can serve a request
        // arriving at `t`.
        while let Some(&Reverse((_, gpu))) = completions.peek().filter(|Reverse((t, _))| *t == now)
        {
            completions.pop();
            idle.insert(gpu);
        }
        while requests.get(next_arrival).is_some_and(|r| r.arrival == now) {
            queue.push(next_arrival as u32, &requests[next_arrival]);
            depth.arrive(now);
            next_arrival += 1;
        }
    }
    debug_assert!(queue.is_empty(), "dispatch drains the queue before exit");
    now
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::shapes::Shape;
    use hcc_workloads::default_tenants;

    fn trace(gaps_us: &[(u64, u32, u32)]) -> Vec<Request> {
        let mut t = SimTime::ZERO;
        gaps_us
            .iter()
            .map(|&(gap, tenant, class)| {
                t += SimDuration::micros(gap);
                Request {
                    arrival: t,
                    tenant,
                    class,
                }
            })
            .collect()
    }

    fn flat_service(n: usize, us: u64) -> Vec<Result<SimDuration, String>> {
        vec![Ok(SimDuration::micros(us)); n]
    }

    /// Drains `reqs` with one shape per request (`service[i]`) on a
    /// default two-tenant cluster, batching capped at 8, with no planes
    /// and no peak ends.
    fn drain(
        reqs: &[Request],
        service: Vec<Result<SimDuration, String>>,
        cc: CcMode,
        gpus: usize,
        kind: SchedulerKind,
    ) -> ClusterRun {
        drain_observed(reqs, service, cc, gpus, kind, Planes::NONE, None)
    }

    /// [`drain`] under `planes`, measuring time-to-recover at
    /// `peak_ends`.
    fn drain_observed(
        reqs: &[Request],
        service: Vec<Result<SimDuration, String>>,
        cc: CcMode,
        gpus: usize,
        kind: SchedulerKind,
        planes: Planes,
        peak_ends: Option<&[SimTime]>,
    ) -> ClusterRun {
        let shapes = service
            .into_iter()
            .map(|service| Shape {
                label: String::new(),
                hash: 0,
                service,
                faults: Default::default(),
                audit: None,
            })
            .collect();
        let table = ShapeTable::from_shapes(shapes, (0..reqs.len() as u32).collect());
        let cfg = ClusterConfig {
            tenants: &default_tenants(2),
            cc,
            gpus,
            kind,
            max_batch: 8,
            tdx: &TdxCalib::default(),
            peak_ends,
            queue_window: None,
            planes,
        };
        simulate(reqs, &table, &cfg, Record::Log)
    }

    #[test]
    fn free_times_find_the_lowest_gpu_free_by_an_instant() {
        let us = |v: u64| SimTime::ZERO + SimDuration::micros(v);
        for gpus in [1, 2, 3, 5, 64, 65] {
            let mut tree = FreeTimes::new(gpus);
            let free: Vec<SimTime> = (0..gpus as u64).map(|g| us(1 + g * 7 % 13)).collect();
            for (g, &t) in free.iter().enumerate() {
                assert_eq!(
                    tree.lowest_free_by(us(0)),
                    g,
                    "{gpus} gpus: {g} is free from 0"
                );
                tree.set(g, t);
            }
            assert_eq!(tree.earliest(), *free.iter().min().unwrap());
            for t in (1..15).map(us) {
                if let Some(g) = free.iter().position(|&f| f <= t) {
                    assert_eq!(tree.lowest_free_by(t), g, "{gpus} gpus at {t}");
                }
            }
        }
    }

    #[test]
    fn single_gpu_fifo_is_work_conserving() {
        let reqs = trace(&[(0, 0, 0), (0, 0, 0), (0, 1, 0)]);
        let run = drain(
            &reqs,
            flat_service(3, 100),
            CcMode::Off,
            1,
            SchedulerKind::Fifo,
        );
        // All three ran back to back on one device.
        assert_eq!(run.batches, 3);
        assert_eq!(run.busy, run.end.saturating_since(SimTime::ZERO));
        for (i, o) in run.outcomes.iter().enumerate() {
            assert!(!o.rejected, "request {i}");
            assert_eq!(o.batch, 1);
            // FIFO identity: service = shape + admission, exactly.
            let (spdm, doorbell) = run.admission.of(o);
            assert_eq!(
                o.completion.saturating_since(o.dispatch),
                SimDuration::micros(100) + spdm + doorbell
            );
        }
        // Later requests wait on earlier ones.
        assert!(run.outcomes[1].dispatch >= run.outcomes[0].completion);
    }

    #[test]
    fn failing_shapes_are_rejected_exactly_once() {
        let reqs = trace(&[(0, 0, 0), (5, 0, 1), (5, 1, 0)]);
        let mut service = flat_service(3, 50);
        service[1] = Err("boom".to_string());
        let run = drain(&reqs, service, CcMode::On, 2, SchedulerKind::Fifo);
        let rejected: Vec<bool> = run.outcomes.iter().map(|o| o.rejected).collect();
        assert_eq!(rejected, vec![false, true, false]);
        assert_eq!(run.outcomes[1].dispatch, run.outcomes[1].completion);
        assert_eq!(run.batches, 2, "rejected request never occupies a device");
    }

    #[test]
    fn cc_on_charges_cold_starts_per_tenant_per_device() {
        // Two tenants on one device, 4 requests arriving far apart so
        // each runs alone.
        let reqs = trace(&[(0, 0, 0), (100_000, 1, 0), (100_000, 0, 0), (100_000, 1, 0)]);
        let run = drain(
            &reqs,
            flat_service(4, 50),
            CcMode::On,
            1,
            SchedulerKind::Fifo,
        );
        assert_eq!(run.cold_starts, 2, "one handshake per tenant on the device");
        let cold: Vec<bool> = run.outcomes.iter().map(|o| o.cold).collect();
        assert_eq!(cold, vec![true, true, false, false]);
        let [first, third] = [0, 2].map(|i| run.admission.of(&run.outcomes[i]));
        assert!(first.0 > third.0 && first.1 == third.1);
        assert!(run.td.hypercalls >= 2 * 16 + 4 * 2);
        let off = drain(
            &reqs,
            flat_service(4, 50),
            CcMode::Off,
            1,
            SchedulerKind::Fifo,
        );
        assert_eq!(off.cold_starts, 0);
        assert!(off.busy < run.busy, "CC-on admission costs device time");
    }

    #[test]
    fn batching_amortizes_service() {
        // Four same-shape batchable chat requests arriving together.
        let reqs = trace(&[(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)]);
        let fifo = drain(
            &reqs,
            flat_service(4, 1000),
            CcMode::Off,
            1,
            SchedulerKind::Fifo,
        );
        let cb = drain(
            &reqs,
            flat_service(4, 1000),
            CcMode::Off,
            1,
            SchedulerKind::Batching,
        );
        assert_eq!(cb.batches, 1);
        assert_eq!(cb.outcomes[0].batch, 4);
        assert!(
            cb.end < fifo.end,
            "one batch of 4 beats 4 serial dispatches ({} vs {})",
            cb.end.as_micros_f64(),
            fifo.end.as_micros_f64()
        );
    }

    #[test]
    fn gauges_track_queue_and_device_occupancy() {
        let reqs = trace(&[(0, 0, 0), (0, 0, 2), (0, 1, 0)]);
        let run = drain_observed(
            &reqs,
            flat_service(3, 200),
            CcMode::Off,
            1,
            SchedulerKind::Fifo,
            Planes::METRICS,
            None,
        );
        let depth = run.metrics.gauge_series("serving.queue_depth").unwrap();
        assert_eq!(depth.peak(), 2, "two requests queued behind the first");
        assert_eq!(depth.final_value(), 0);
        let gpu0 = run.metrics.gauge_series("serving.gpu0.depth").unwrap();
        assert_eq!(gpu0.peak(), 1);
        assert_eq!(run.metrics.counter_total("serving.batches"), Some(3));
    }

    #[test]
    fn a_plane_off_drain_records_no_series_but_reports_its_verdicts() {
        // Three requests at 0 on one GPU: the queue holds 2, then 1
        // from the second dispatch, and empties at the third.
        let reqs = trace(&[(0, 0, 0), (0, 0, 2), (0, 1, 0)]);
        let observed = |planes, peak_ends| {
            drain_observed(
                &reqs,
                flat_service(3, 200),
                CcMode::Off,
                1,
                SchedulerKind::Fifo,
                planes,
                peak_ends,
            )
        };
        let probe = observed(Planes::NONE, None);
        let [second, third] = [1, 2].map(|i| probe.outcomes[i].dispatch);
        let far = SimTime::ZERO + SimDuration::secs(3600);
        let peaks = [SimTime::ZERO, second, third, far];

        let off = observed(Planes::NONE, Some(&peaks));
        assert!(off.metrics.gauges.is_empty() && off.metrics.counters.is_empty());
        assert!(off.drained);
        let at = |t: SimTime| t.saturating_since(SimTime::ZERO).as_nanos();
        let recovery = [at(third), at(third) - at(second), 0, 0];
        assert_eq!(
            off.ttr,
            Some(TimeToRecover {
                peaks: 4,
                drained: 4,
                mean: SimDuration::from_nanos(recovery.iter().sum::<u64>() / 4),
                max: SimDuration::from_nanos(at(third)),
            })
        );

        let on = observed(Planes::METRICS, Some(&peaks));
        assert!(!on.metrics.gauges.is_empty());
        assert_eq!((on.drained, on.ttr), (off.drained, off.ttr));
        assert_eq!((on.outcomes, on.end), (off.outcomes, off.end));
        assert_eq!(probe.ttr, None, "no peak ends, no time-to-recover");
    }
}
