//! Timeline container and metric extraction: from raw events to the
//! paper's KLO / LQT / KQT / KET / T_mem / T_other quantities.

use std::sync::OnceLock;

use hcc_types::{ByteSize, CopyKind, MemSpace, SimDuration, SimTime};

use crate::causal::EventId;
use crate::event::{page_bytes, EventKind, KernelId, TraceEvent};

/// An ordered collection of trace events for one application run.
///
/// Events may be pushed out of order (different engines finish at
/// different times); extraction sorts internally where needed.
///
/// Internally this is an *arena*: an append-only, id-stable contiguous
/// store of events, and nothing else but fixed-size running state folded
/// at push time. `span()`/`end()` read two words and `mem_metrics()`
/// copies a struct. `launch_metrics()` derives its records from the
/// events on read. `phase_totals()` takes Σ KLO, Σ LQT and Σ KET from the
/// fold and makes one pass over the events for the KQT join and the
/// sync/kernel overlap; its answer is memoized until the next push. All
/// aggregates are integer-nanosecond sums or min/max folds, so
/// maintaining them incrementally is *exact*, not approximate: every
/// accessor returns byte-identical results to a full scan of `events()`.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    events: Vec<TraceEvent>,
    /// Earliest `start` seen (`None` while empty).
    min_start: Option<SimTime>,
    /// Latest `end` seen.
    max_end: SimTime,
    /// Running memory-path totals (order-independent integer sums).
    mem: MemMetrics,
    /// Running launch/kernel sums and per-kind counts.
    launch: LaunchFold,
    /// `phase_totals()`'s answer, computed on first call; `push` clears it.
    phases: OnceLock<PhaseTotals>,
}

/// Launch-path sums and event counts folded at push time. The counts size
/// the read-time scratch exactly.
#[derive(Debug, Clone, Copy, Default)]
struct LaunchFold {
    klo: SimDuration,
    lqt: SimDuration,
    ket: SimDuration,
    launches: usize,
    kernels: usize,
    syncs: usize,
}

/// Everything but the events is a function of the events (the fold) or a
/// cache of one (the memo), so two timelines are equal when their events
/// are.
impl PartialEq for Timeline {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events
    }
}

impl Eq for Timeline {}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Creates an empty timeline with room for `n` events before the
    /// arena reallocates.
    pub fn with_capacity(n: usize) -> Self {
        Timeline {
            events: Vec::with_capacity(n),
            ..Timeline::default()
        }
    }

    /// Reserves room for at least `n` more events, so a caller that can
    /// estimate a program's size up front (e.g. the workload runner)
    /// avoids arena regrowth memcpys mid-run.
    pub fn reserve(&mut self, n: usize) {
        self.events.reserve(n);
    }

    /// Drops the arena's spare capacity, for a timeline that is complete.
    pub fn shrink_to_fit(&mut self) {
        self.events.shrink_to_fit();
    }

    /// Appends an event, returning its id for causal-edge linking.
    #[inline]
    pub fn push(&mut self, event: TraceEvent) -> EventId {
        self.fold(&event);
        self.phases.take();
        self.events.push(event);
        EventId(self.events.len() - 1)
    }

    /// Folds one event into the running aggregates.
    fn fold(&mut self, e: &TraceEvent) {
        self.min_start = Some(match self.min_start {
            Some(s) => s.min(e.start),
            None => e.start,
        });
        self.max_end = self.max_end.max(e.end);
        let m = &mut self.mem;
        match &e.kind {
            EventKind::Launch { queue_wait, .. } => {
                self.launch.launches += 1;
                self.launch.klo += e.duration();
                self.launch.lqt += *queue_wait;
            }
            EventKind::Kernel { .. } => {
                self.launch.kernels += 1;
                self.launch.ket += e.duration();
            }
            EventKind::Memcpy {
                kind,
                bytes,
                managed,
                ..
            } => {
                let slot = match kind {
                    CopyKind::H2D => &mut m.h2d,
                    CopyKind::D2H => &mut m.d2h,
                    CopyKind::D2D => &mut m.d2d,
                };
                *slot += e.duration();
                m.copy_bytes += *bytes;
                if *managed {
                    m.managed_copy += e.duration();
                }
            }
            EventKind::Alloc { space, .. } => match space {
                MemSpace::Host => m.hmalloc += e.duration(),
                MemSpace::Device => m.dmalloc += e.duration(),
                MemSpace::Managed => m.managed_alloc += e.duration(),
            },
            EventKind::Free { space, .. } => match space {
                MemSpace::Managed => m.managed_free += e.duration(),
                _ => m.free += e.duration(),
            },
            EventKind::Sync => {
                m.sync += e.duration();
                self.launch.syncs += 1;
            }
            EventKind::Crypto { bytes, .. } => {
                m.crypto += e.duration();
                m.crypto_bytes += *bytes;
            }
            EventKind::Hypercall { .. } => {
                m.hypercalls += 1;
                m.hypercall_time += e.duration();
            }
            EventKind::UvmFault {
                pages, page_size, ..
            } => {
                m.uvm_fault += e.duration();
                m.uvm_pages += u64::from(*pages);
                m.uvm_bytes += page_bytes(*pages, *page_size);
            }
            EventKind::FaultInjected { attempts, .. } => {
                m.faults_injected += u64::from(*attempts);
                m.fault_time += e.duration();
            }
            EventKind::Retry { .. } => {
                m.fault_retries += 1;
                m.fault_time += e.duration();
            }
            EventKind::Degraded { .. } => {
                m.fault_degrades += 1;
                m.fault_time += e.duration();
            }
            // Reservation windows are nested inside their copy's span,
            // which `copy_total` already counts.
            EventKind::BounceReserve { .. } => {}
        }
    }

    /// All events, in insertion order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The event behind an id handed out by [`Timeline::push`].
    pub fn get(&self, id: EventId) -> Option<&TraceEvent> {
        self.events.get(id.0)
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Wall-clock span from the earliest start to the latest end. This is
    /// the paper's end-to-end `P` for a full application trace.
    pub fn span(&self) -> SimDuration {
        match self.min_start {
            Some(s) => self.max_end - s,
            None => SimDuration::ZERO,
        }
    }

    /// Latest event end (completion time).
    pub fn end(&self) -> SimTime {
        self.max_end
    }

    /// Extracts the per-launch / per-kernel metric records, built from
    /// the events in push order, KQT-joined, then sorted by start.
    pub fn launch_metrics(&self) -> LaunchMetrics {
        let mut launches = Vec::with_capacity(self.launch.launches);
        let mut kernels = Vec::with_capacity(self.launch.kernels);
        for e in &self.events {
            match &e.kind {
                EventKind::Launch {
                    kernel,
                    queue_wait,
                    first,
                } => launches.push(LaunchRecord {
                    kernel: *kernel,
                    start: e.start,
                    klo: e.duration(),
                    lqt: *queue_wait,
                    first: *first,
                    correlation: e.correlation,
                }),
                EventKind::Kernel { kernel, uvm } => kernels.push(KernelRecord {
                    kernel: *kernel,
                    start: e.start,
                    ket: e.duration(),
                    kqt: SimDuration::ZERO,
                    uvm: *uvm,
                    correlation: e.correlation,
                }),
                _ => {}
            }
        }
        join_kqt(
            &launches,
            |l| (l.correlation, l.start + l.klo),
            &mut kernels,
            |k| (k.correlation, k.start),
            |k, kqt| k.kqt = kqt,
        );
        launches.sort_by_key(|l| l.start);
        kernels.sort_by_key(|k| k.start);
        LaunchMetrics { launches, kernels }
    }

    /// Extracts memory-path metrics (Fig. 5/6 inputs).
    pub fn mem_metrics(&self) -> MemMetrics {
        self.mem
    }

    /// Aggregates the four phases of the Fig. 3 performance model, plus
    /// the observed end-to-end span. Computed on the first call after a
    /// push and memoized.
    ///
    /// Per the paper, synchronization that chronologically overlaps
    /// kernel execution belongs to part C; only the *exposed* remainder
    /// counts toward `T_other`.
    pub fn phase_totals(&self) -> PhaseTotals {
        *self.phases.get_or_init(|| self.compute_phase_totals())
    }

    fn compute_phase_totals(&self) -> PhaseTotals {
        let f = &self.launch;
        // One pass fills exactly sized join keys and overlap spans; the
        // span lists are only needed when both kinds occur.
        let overlap = f.syncs > 0 && f.kernels > 0;
        let mut launch_ends = Vec::with_capacity(f.launches);
        let mut kernel_starts = Vec::with_capacity(f.kernels);
        let (mut ks, mut ke, mut syncs) = if overlap {
            (
                Vec::with_capacity(f.kernels),
                Vec::with_capacity(f.kernels),
                Vec::with_capacity(f.syncs),
            )
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };
        for e in &self.events {
            match e.kind {
                EventKind::Launch { .. } => launch_ends.push((e.correlation, e.end)),
                EventKind::Kernel { .. } => {
                    kernel_starts.push((e.correlation, e.start));
                    if overlap {
                        ks.push(e.start.as_nanos());
                        ke.push(e.end.as_nanos());
                    }
                }
                EventKind::Sync if overlap => syncs.push((e.start, e.end)),
                _ => {}
            }
        }
        let mut kqt = SimDuration::ZERO;
        join_kqt(
            &launch_ends,
            |&l| l,
            &mut kernel_starts,
            |&k| k,
            |_, d| kqt += d,
        );
        let mm = &self.mem;
        let exposed_sync = mm.sync.saturating_sub(sync_kernel_overlap(&syncs, ks, ke));
        PhaseTotals {
            t_mem: mm.copy_total(),
            t_launch: f.klo + f.lqt,
            t_kernel: f.ket + kqt,
            t_other: mm.management_total() + exposed_sync,
            t_fault: mm.fault_time,
            span: self.span(),
        }
    }
}

/// The KQT join: hands each kernel the wait from the end of the *last*
/// launch (in push order) with its correlation id to its start, or zero
/// when no launch matches. `launch_end` and `kernel_start` read an
/// item's `(correlation, time)` key; `set` receives each kernel's KQT.
///
/// The runtime allocates correlation ids monotonically and pushes a
/// launch before its kernel, so both lists arrive sorted by correlation
/// and the join is a linear merge. Out-of-order keys (e.g. a hand-built
/// timeline) fall back to an FNV-keyed map (correlation ids are small
/// simulator-assigned integers, so SipHash buys nothing).
fn join_kqt<L, K>(
    launches: &[L],
    launch_end: impl Fn(&L) -> (u32, SimTime),
    kernels: &mut [K],
    kernel_start: impl Fn(&K) -> (u32, SimTime),
    mut set: impl FnMut(&mut K, SimDuration),
) {
    let sorted = launches
        .windows(2)
        .all(|w| launch_end(&w[0]).0 <= launch_end(&w[1]).0)
        && kernels
            .windows(2)
            .all(|w| kernel_start(&w[0]).0 <= kernel_start(&w[1]).0);
    if sorted {
        let mut j = 0usize;
        for k in kernels {
            let (corr, start) = kernel_start(k);
            while j < launches.len() && launch_end(&launches[j]).0 < corr {
                j += 1;
            }
            let mut hit = None;
            let mut jj = j;
            while jj < launches.len() && launch_end(&launches[jj]).0 == corr {
                hit = Some(launch_end(&launches[jj]).1);
                jj += 1;
            }
            set(
                k,
                hit.map_or(SimDuration::ZERO, |le| start.saturating_since(le)),
            );
        }
    } else {
        let mut ends: hcc_types::hash::FnvHashMap<u32, SimTime> =
            hcc_types::hash::FnvHashMap::with_capacity_and_hasher(
                launches.len(),
                hcc_types::hash::FnvBuildHasher,
            );
        for l in launches {
            let (corr, end) = launch_end(l);
            ends.insert(corr, end);
        }
        for k in kernels {
            let (corr, start) = kernel_start(k);
            let kqt = ends
                .get(&corr)
                .map_or(SimDuration::ZERO, |le| start.saturating_since(*le));
            set(k, kqt);
        }
    }
}

/// Total time during which `Sync` spans overlap `Kernel` spans, summed
/// over every (sync, kernel) pair; `starts` and `ends` are the kernels'
/// start and end nanoseconds.
///
/// The naive pairwise scan is O(|sync|·|kernel|) — quadratic for
/// sync-per-iteration apps where both lists grow with the launch count.
/// This computes the *identical* integer total by sorting kernel starts
/// and ends once and resolving each sync span `(ss, se)` with four
/// cursors over prefix sums:
///
/// ```text
/// Σ max(0, min(se, ke) − max(ss, ks))
///   = [ Σ_{ke > ss} min(se, ke) − |{ks ≥ se}|·se ]
///   − [ Σ_{ks < se} max(ss, ks) − |{ke ≤ ss}|·ss ]
/// ```
///
/// Pairs with `ks ≥ se` contribute `min = se` to the left bracket and
/// pairs with `ke ≤ ss` contribute `max = ss` to the right, so both
/// non-overlapping families cancel exactly; every surviving pair's term
/// is its nonnegative overlap. Integer addition is order-independent, so
/// the result matches the pairwise sum bit for bit.
///
/// The runtime pushes syncs in time order, so each cursor only walks
/// forward and the whole pass is linear; a span that goes backwards
/// (nested or out-of-order syncs) re-seeks the cursors it moved past by
/// binary search.
fn sync_kernel_overlap(
    syncs: &[(SimTime, SimTime)],
    mut starts: Vec<u64>,
    mut ends: Vec<u64>,
) -> SimDuration {
    if syncs.is_empty() || starts.is_empty() {
        return SimDuration::ZERO;
    }
    starts.sort_unstable();
    ends.sort_unstable();
    fn prefix(v: &[u64]) -> Vec<u128> {
        let mut p = Vec::with_capacity(v.len() + 1);
        let mut acc = 0u128;
        p.push(acc);
        for &x in v {
            acc += u128::from(x);
            p.push(acc);
        }
        p
    }
    let pstarts = prefix(&starts);
    let pends = prefix(&ends);
    let n = starts.len();
    let mut total = 0i128;
    let (mut a, mut b, mut c, mut d) = (0, 0, 0, 0);
    for &(ss, se) in syncs {
        let (ss, se) = (ss.as_nanos(), se.as_nanos());
        if se <= ss {
            continue; // zero-length sync overlaps nothing
        }
        // ends[..a] have ke ≤ ss; ends[a..b] lie in (ss, se).
        seek(&ends, &mut a, |e| e <= ss);
        seek(&ends, &mut b, |e| e < se);
        // starts[..d] have ks ≤ ss; starts[..c] have ks < se.
        seek(&starts, &mut d, |s| s <= ss);
        seek(&starts, &mut c, |s| s < se);
        let sum_min = (pends[b] - pends[a]) as i128 + (n - b) as i128 * se as i128
            - (n - c) as i128 * se as i128;
        let sum_max = (d as i128 - a as i128) * ss as i128 + (pstarts[c] - pstarts[d]) as i128;
        total += sum_min - sum_max;
    }
    SimDuration::from_nanos(total as u64)
}

/// Moves `at` to `v.partition_point(below)` for a `below` that holds on
/// a prefix of the sorted `v`: by a forward walk from where it stands,
/// or by binary search when the prefix shrank behind it.
fn seek(v: &[u64], at: &mut usize, below: impl Fn(u64) -> bool) {
    if *at > 0 && !below(v[*at - 1]) {
        *at = v.partition_point(|&x| below(x));
        return;
    }
    while v.get(*at).is_some_and(|&x| below(x)) {
        *at += 1;
    }
}

impl FromIterator<TraceEvent> for Timeline {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        let mut tl = Timeline::new();
        tl.extend(iter);
        tl
    }
}

impl Extend<TraceEvent> for Timeline {
    fn extend<I: IntoIterator<Item = TraceEvent>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.events.reserve(iter.size_hint().0);
        for event in iter {
            self.push(event);
        }
    }
}

/// One launch operation's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchRecord {
    /// Kernel function launched.
    pub kernel: KernelId,
    /// When the driver work began (after any LQT).
    pub start: SimTime,
    /// Kernel launch overhead — the driver-side span.
    pub klo: SimDuration,
    /// Launch queuing time spent blocked before `start`.
    pub lqt: SimDuration,
    /// First launch of this kernel function?
    pub first: bool,
    /// Correlation id to the kernel execution.
    pub correlation: u32,
}

/// One kernel execution's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelRecord {
    /// Kernel function executed.
    pub kernel: KernelId,
    /// Execution start.
    pub start: SimTime,
    /// Kernel execution time.
    pub ket: SimDuration,
    /// Kernel queuing time (launch end → execution start).
    pub kqt: SimDuration,
    /// Whether the kernel used managed memory.
    pub uvm: bool,
    /// Correlation id back to the launch.
    pub correlation: u32,
}

/// Launch/kernel metric collection for a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaunchMetrics {
    /// Launch records ordered by start time.
    pub launches: Vec<LaunchRecord>,
    /// Kernel records ordered by start time.
    pub kernels: Vec<KernelRecord>,
}

impl LaunchMetrics {
    /// Sum of all KLO spans.
    pub fn total_klo(&self) -> SimDuration {
        self.launches.iter().map(|l| l.klo).sum()
    }

    /// Sum of all LQT waits.
    pub fn total_lqt(&self) -> SimDuration {
        self.launches.iter().map(|l| l.lqt).sum()
    }

    /// Sum of all KET spans.
    pub fn total_ket(&self) -> SimDuration {
        self.kernels.iter().map(|k| k.ket).sum()
    }

    /// Sum of all KQT waits.
    pub fn total_kqt(&self) -> SimDuration {
        self.kernels.iter().map(|k| k.kqt).sum()
    }

    /// All KLO samples (for CDFs).
    pub fn klos(&self) -> Vec<SimDuration> {
        self.launches.iter().map(|l| l.klo).collect()
    }

    /// All KET samples (for CDFs).
    pub fn kets(&self) -> Vec<SimDuration> {
        self.kernels.iter().map(|k| k.ket).collect()
    }

    /// Number of launches.
    pub fn launch_count(&self) -> usize {
        self.launches.len()
    }

    /// Kernel-to-Launch Ratio: `ΣKET / Σ(KLO + LQT)` (Observation 6).
    /// Returns `f64::INFINITY` when there were no launches.
    pub fn klr(&self) -> f64 {
        self.total_ket() / (self.total_klo() + self.total_lqt())
    }
}

/// Memory-path metric collection (Fig. 5/6 inputs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemMetrics {
    /// Total host→device copy time.
    pub h2d: SimDuration,
    /// Total device→host copy time.
    pub d2h: SimDuration,
    /// Total device→device copy time (includes CC "managed" demotions).
    pub d2d: SimDuration,
    /// Portion of copy time Nsight would label "Managed".
    pub managed_copy: SimDuration,
    /// Total bytes copied.
    pub copy_bytes: ByteSize,
    /// Total `cudaMalloc` time.
    pub dmalloc: SimDuration,
    /// Total `cudaMallocHost` time.
    pub hmalloc: SimDuration,
    /// Total `cudaMallocManaged` time.
    pub managed_alloc: SimDuration,
    /// Total non-managed free time.
    pub free: SimDuration,
    /// Total managed free time.
    pub managed_free: SimDuration,
    /// Total synchronization time.
    pub sync: SimDuration,
    /// Total CPU crypto time (CC only).
    pub crypto: SimDuration,
    /// Total bytes encrypted/decrypted.
    pub crypto_bytes: ByteSize,
    /// Count of hypercall transitions.
    pub hypercalls: u64,
    /// Total time inside hypercall transitions.
    pub hypercall_time: SimDuration,
    /// Total UVM fault-service time.
    pub uvm_fault: SimDuration,
    /// UVM pages migrated.
    pub uvm_pages: u64,
    /// UVM bytes migrated.
    pub uvm_bytes: ByteSize,
    /// Injected fault attempts (initial failures plus failed retries).
    pub faults_injected: u64,
    /// Recovery retries taken.
    pub fault_retries: u64,
    /// Degrade-to-smaller-chunks recoveries taken.
    pub fault_degrades: u64,
    /// Total recovery time (`T_fault`): the summed spans of
    /// `FaultInjected`, `Retry`, and `Degraded` events. Zero when the
    /// fault plan is empty.
    pub fault_time: SimDuration,
}

impl MemMetrics {
    /// Total explicit copy time across directions (T_mem's main term).
    pub fn copy_total(&self) -> SimDuration {
        self.h2d + self.d2h + self.d2d
    }

    /// Total allocation + deallocation time (T_other's main term).
    pub fn management_total(&self) -> SimDuration {
        self.dmalloc + self.hmalloc + self.managed_alloc + self.free + self.managed_free
    }
}

/// The four phases of the Fig. 3 model as measured from a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Part A: data transfer (`T_mem`).
    pub t_mem: SimDuration,
    /// Part B: `Σ(KLO + LQT)`.
    pub t_launch: SimDuration,
    /// Part C: `Σ(KET + KQT)`.
    pub t_kernel: SimDuration,
    /// Part D: alloc/free/sync (`T_other`).
    pub t_other: SimDuration,
    /// Fault-recovery attribution (`T_fault`): time spent in injected-fault
    /// recovery (backoffs, re-done staging/crypto, degraded setup). This is
    /// an *overlay*, not a fifth serial phase — recovery happens inside the
    /// host spans it interrupts (a retried staging chunk lengthens the
    /// `Memcpy` span that contains it), mirroring how exposed sync overlaps
    /// kernel execution. Zero whenever the fault plan is empty.
    pub t_fault: SimDuration,
    /// Observed end-to-end span `P`.
    pub span: SimDuration,
}

hcc_types::impl_to_json!(PhaseTotals {
    t_mem,
    t_launch,
    t_kernel,
    t_other,
    t_fault,
    span
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StreamId;
    use hcc_types::HostMemKind;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    fn sample_timeline() -> Timeline {
        let mut tl = Timeline::new();
        // Launch 1: 10–16us (KLO 6us, LQT 2us), kernel 18–118us (KQT 2us).
        tl.push(
            TraceEvent::new(
                EventKind::Launch {
                    kernel: KernelId(0),
                    queue_wait: SimDuration::micros(2),
                    first: true,
                },
                t(10),
                t(16),
            )
            .with_correlation(1),
        );
        tl.push(
            TraceEvent::new(
                EventKind::Kernel {
                    kernel: KernelId(0),
                    uvm: false,
                },
                t(18),
                t(118),
            )
            .with_correlation(1)
            .on_stream(StreamId(0)),
        );
        // A 1 MiB H2D copy, 120–150us.
        tl.push(TraceEvent::new(
            EventKind::Memcpy {
                kind: CopyKind::H2D,
                bytes: ByteSize::mib(1),
                mem: HostMemKind::Pageable,
                managed: false,
            },
            t(120),
            t(150),
        ));
        // Alloc 0–10us; free 150–160us; sync 160–161us.
        tl.push(TraceEvent::new(
            EventKind::Alloc {
                space: MemSpace::Device,
                bytes: ByteSize::mib(1),
            },
            t(0),
            t(10),
        ));
        tl.push(TraceEvent::new(
            EventKind::Free {
                space: MemSpace::Device,
                bytes: ByteSize::mib(1),
            },
            t(150),
            t(160),
        ));
        tl.push(TraceEvent::new(EventKind::Sync, t(160), t(161)));
        tl
    }

    #[test]
    fn span_covers_first_to_last() {
        let tl = sample_timeline();
        assert_eq!(tl.span(), SimDuration::micros(161));
        assert_eq!(tl.end(), t(161));
        assert!(Timeline::new().span().is_zero());
    }

    #[test]
    fn launch_metrics_extraction() {
        let lm = sample_timeline().launch_metrics();
        assert_eq!(lm.launch_count(), 1);
        assert_eq!(lm.launches[0].klo, SimDuration::micros(6));
        assert_eq!(lm.launches[0].lqt, SimDuration::micros(2));
        assert!(lm.launches[0].first);
        assert_eq!(lm.kernels[0].ket, SimDuration::micros(100));
        assert_eq!(lm.kernels[0].kqt, SimDuration::micros(2));
        let klr = lm.klr();
        assert!((klr - 100.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn klr_infinite_without_launches() {
        let mut tl = Timeline::new();
        tl.push(
            TraceEvent::new(
                EventKind::Kernel {
                    kernel: KernelId(1),
                    uvm: false,
                },
                t(0),
                t(5),
            )
            .with_correlation(7),
        );
        let lm = tl.launch_metrics();
        assert_eq!(lm.klr(), f64::INFINITY);
        // Kernel without matching launch gets zero KQT.
        assert_eq!(lm.kernels[0].kqt, SimDuration::ZERO);
    }

    #[test]
    fn mem_metrics_extraction() {
        let mm = sample_timeline().mem_metrics();
        assert_eq!(mm.h2d, SimDuration::micros(30));
        assert_eq!(mm.copy_total(), SimDuration::micros(30));
        assert_eq!(mm.copy_bytes, ByteSize::mib(1));
        assert_eq!(mm.dmalloc, SimDuration::micros(10));
        assert_eq!(mm.free, SimDuration::micros(10));
        assert_eq!(mm.management_total(), SimDuration::micros(20));
        assert_eq!(mm.sync, SimDuration::micros(1));
    }

    /// The cursor overlap equals the naive pairwise Σ overlap for syncs
    /// in time order, in reverse, nested (each span inside the one
    /// before) and in random order, zero-length syncs included.
    #[test]
    fn sync_kernel_overlap_matches_the_pairwise_sum() {
        use hcc_check::strategy::{u64s, vecs};
        use hcc_check::{ensure_eq, forall, Config};
        let span = |(start, len): (u64, u64)| (start, start + len);
        forall!(
            Config::new(0x7124_0001).with_cases(256),
            (kernels, syncs, order) in (
                vecs((u64s(0..300), u64s(0..60)), 0..30),
                vecs((u64s(0..300), u64s(0..60)), 0..20),
                u64s(0..4)
            ) => {
                let kernels: Vec<(u64, u64)> = kernels.into_iter().map(span).collect();
                let mut syncs: Vec<(u64, u64)> = syncs.into_iter().map(span).collect();
                match order {
                    0 => syncs.sort_unstable(),
                    1 => syncs.sort_unstable_by(|x, y| y.cmp(x)),
                    2 => {
                        // Starts ascend while ends descend: each span
                        // holds the next.
                        let mut starts: Vec<u64> = syncs.iter().map(|s| s.0).collect();
                        let mut ends: Vec<u64> = syncs.iter().map(|s| s.1).collect();
                        starts.sort_unstable();
                        ends.sort_unstable_by(|x, y| y.cmp(x));
                        syncs = starts.into_iter().zip(ends).collect();
                    }
                    _ => {}
                }
                let pairwise: u64 = syncs
                    .iter()
                    .flat_map(|&(ss, se)| {
                        kernels
                            .iter()
                            .map(move |&(ks, ke)| se.min(ke).saturating_sub(ss.max(ks)))
                    })
                    .sum();
                let at = |ns| SimTime::from_nanos(ns);
                let syncs: Vec<_> = syncs.iter().map(|&(s, e)| (at(s), at(e))).collect();
                let got = sync_kernel_overlap(
                    &syncs,
                    kernels.iter().map(|k| k.0).collect(),
                    kernels.iter().map(|k| k.1).collect(),
                );
                ensure_eq!(got, SimDuration::from_nanos(pairwise));
            }
        );
    }

    #[test]
    fn phase_totals_sum() {
        let pt = sample_timeline().phase_totals();
        assert_eq!(pt.t_mem, SimDuration::micros(30));
        assert_eq!(pt.t_launch, SimDuration::micros(8));
        assert_eq!(pt.t_kernel, SimDuration::micros(102));
        assert_eq!(pt.t_other, SimDuration::micros(21));
    }

    #[test]
    fn records_sorted_by_start_even_if_pushed_out_of_order() {
        let mut tl = Timeline::new();
        tl.push(
            TraceEvent::new(
                EventKind::Launch {
                    kernel: KernelId(2),
                    queue_wait: SimDuration::ZERO,
                    first: false,
                },
                t(50),
                t(55),
            )
            .with_correlation(2),
        );
        tl.push(
            TraceEvent::new(
                EventKind::Launch {
                    kernel: KernelId(1),
                    queue_wait: SimDuration::ZERO,
                    first: true,
                },
                t(10),
                t(15),
            )
            .with_correlation(1),
        );
        let lm = tl.launch_metrics();
        assert_eq!(lm.launches[0].kernel, KernelId(1));
        assert_eq!(lm.launches[1].kernel, KernelId(2));
    }

    #[test]
    fn running_min_max_survive_out_of_order_pushes() {
        // The arena maintains span bounds incrementally; pushing spans in
        // descending, interleaved, and nested orders must always agree
        // with a full scan of the stored events.
        let spans = [(40u64, 45u64), (10, 90), (0, 5), (50, 55), (2, 3)];
        let mut tl = Timeline::new();
        for (i, &(s, e)) in spans.iter().enumerate() {
            tl.push(TraceEvent::new(EventKind::Sync, t(s), t(e)));
            let scan_min = tl.events().iter().map(|e| e.start).min().unwrap();
            let scan_max = tl.events().iter().map(|e| e.end).max().unwrap();
            assert_eq!(tl.end(), scan_max, "after push {i}");
            assert_eq!(tl.span(), scan_max - scan_min, "after push {i}");
        }
        assert_eq!(tl.span(), SimDuration::micros(90));
        assert_eq!(tl.end(), t(90));
    }

    #[test]
    fn collect_and_extend() {
        let tl: Timeline = sample_timeline().events().to_vec().into_iter().collect();
        let mut tl2 = Timeline::new();
        tl2.extend(tl.events().iter().cloned());
        assert_eq!(tl.len(), tl2.len());
        assert!(!tl.is_empty());
    }
}
