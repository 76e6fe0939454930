//! Critical-path extraction and per-resource attribution.
//!
//! Walks the trace backwards from the last event, at every instant
//! charging the wall clock to the *innermost* active span (an AES-GCM
//! slot nested in a blocking-copy umbrella beats the umbrella; a kernel
//! beats the host sync that waits on it), and attributing uncovered
//! intervals — places where the virtual clock advanced without an event,
//! like the KQT window between a doorbell and execution — by the event
//! they precede, with the causal edges confirming the handoff. Every
//! critical nanosecond lands in exactly one [`ResourceClass`], so the
//! identity `Σ segments == observed span P` holds by construction.

use std::collections::BinaryHeap;

use hcc_types::json::{JsonOut, ToJson};
use hcc_types::{FaultSite, SimDuration, SimTime};

use crate::causal::{CausalGraph, EventId};
use crate::event::EventKind;
use crate::timeline::Timeline;

/// The hardware/software resource a critical nanosecond is blamed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResourceClass {
    /// Host driver work: launches, allocations, syncs, hypercalls.
    HostDriver,
    /// CPU AES-GCM staging (and GCM-integrity recovery).
    Crypto,
    /// Bounce-buffer (swiotlb) reservation and conversion.
    BouncePool,
    /// Channel ring / command processor / dispatch (LQT + KQT legs).
    RingCp,
    /// Copy-engine transfers.
    CopyEngine,
    /// Compute-engine execution (KET).
    ComputeEngine,
    /// UVM far-fault servicing and migration.
    Uvm,
}

impl ResourceClass {
    /// Every class, in display order.
    pub const ALL: [ResourceClass; 7] = [
        ResourceClass::HostDriver,
        ResourceClass::Crypto,
        ResourceClass::BouncePool,
        ResourceClass::RingCp,
        ResourceClass::CopyEngine,
        ResourceClass::ComputeEngine,
        ResourceClass::Uvm,
    ];

    /// Number of classes.
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name (JSON keys).
    pub fn name(&self) -> &'static str {
        match self {
            ResourceClass::HostDriver => "host_driver",
            ResourceClass::Crypto => "crypto",
            ResourceClass::BouncePool => "bounce_pool",
            ResourceClass::RingCp => "ring_cp",
            ResourceClass::CopyEngine => "copy_engine",
            ResourceClass::ComputeEngine => "compute_engine",
            ResourceClass::Uvm => "uvm",
        }
    }

    /// Short column label for tables.
    pub fn short(&self) -> &'static str {
        match self {
            ResourceClass::HostDriver => "host",
            ResourceClass::Crypto => "crypto",
            ResourceClass::BouncePool => "bounce",
            ResourceClass::RingCp => "ring",
            ResourceClass::CopyEngine => "copy",
            ResourceClass::ComputeEngine => "compute",
            ResourceClass::Uvm => "uvm",
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|&r| r == self).unwrap()
    }
}

impl std::fmt::Display for ResourceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl ToJson for ResourceClass {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.str(self.name());
    }
}

/// Which resource an event's span occupies.
pub(crate) fn resource_of(kind: &EventKind) -> ResourceClass {
    match kind {
        EventKind::Launch { .. }
        | EventKind::Alloc { .. }
        | EventKind::Free { .. }
        | EventKind::Sync
        | EventKind::Hypercall { .. } => ResourceClass::HostDriver,
        EventKind::Kernel { .. } => ResourceClass::ComputeEngine,
        EventKind::Memcpy { .. } => ResourceClass::CopyEngine,
        EventKind::Crypto { .. } => ResourceClass::Crypto,
        EventKind::BounceReserve { .. } => ResourceClass::BouncePool,
        EventKind::UvmFault { .. } => ResourceClass::Uvm,
        EventKind::FaultInjected { site, .. }
        | EventKind::Retry { site, .. }
        | EventKind::Degraded { site } => site_resource(*site),
    }
}

fn site_resource(site: FaultSite) -> ResourceClass {
    match site {
        FaultSite::GcmTagH2D | FaultSite::GcmTagD2H => ResourceClass::Crypto,
        FaultSite::BounceExhausted => ResourceClass::BouncePool,
        FaultSite::RingDoorbell => ResourceClass::RingCp,
        FaultSite::UvmMigration => ResourceClass::Uvm,
    }
}

/// Nesting priority: when spans overlap, the higher-priority one is the
/// *exposed* occupant of the instant. Recovery spans expose their fault
/// site; UVM service exposes inside its kernel; device engines hide
/// overlapped host work (the α/β overlap of the paper's Fig. 3 model);
/// nested staging (crypto, bounce, hypercalls) beats its blocking-copy
/// umbrella; a host sync never hides what it waits on.
fn priority(kind: &EventKind) -> u8 {
    match kind {
        EventKind::FaultInjected { .. } | EventKind::Retry { .. } | EventKind::Degraded { .. } => 6,
        EventKind::UvmFault { .. } => 5,
        EventKind::Kernel { .. } => 4,
        EventKind::Crypto { .. }
        | EventKind::BounceReserve { .. }
        | EventKind::Hypercall { .. } => 3,
        EventKind::Memcpy { .. } => 2,
        EventKind::Launch { .. } | EventKind::Alloc { .. } | EventKind::Free { .. } => 1,
        EventKind::Sync => 0,
    }
}

/// One maximal critical-path interval charged to a single resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
    /// Resource the interval is charged to.
    pub resource: ResourceClass,
    /// Event occupying the interval (`None` for attributed gaps).
    pub event: Option<EventId>,
}

impl Segment {
    /// Interval length.
    pub(crate) fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// Per-resource critical time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Attribution {
    totals: [SimDuration; ResourceClass::COUNT],
}

impl Attribution {
    /// Critical time charged to `r`.
    pub fn get(&self, r: ResourceClass) -> SimDuration {
        self.totals[r.index()]
    }

    /// Charges `d` more critical time to `r`: how a test assembles an
    /// attribution by hand.
    #[cfg(test)]
    pub(crate) fn add(&mut self, r: ResourceClass, d: SimDuration) {
        self.totals[r.index()] += d;
    }

    /// Sum over every class (equals the observed span by the identity).
    pub fn total(&self) -> SimDuration {
        self.totals.iter().copied().sum()
    }

    /// `(class, time)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceClass, SimDuration)> + '_ {
        ResourceClass::ALL.iter().map(|&r| (r, self.get(r)))
    }
}

impl ToJson for Attribution {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.obj(|o| {
            for (r, t) in self.iter() {
                o.field(r.name(), t);
            }
        });
    }
}

/// The extracted critical path of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CritPath {
    segments: Vec<Segment>,
    first: SimTime,
    last: SimTime,
    causal_links: usize,
}

impl CritPath {
    /// Segments in chronological order (they partition `[first, last]`).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Trace start.
    pub fn first(&self) -> SimTime {
        self.first
    }

    /// Trace end.
    pub fn last(&self) -> SimTime {
        self.last
    }

    /// The observed span `P = last - first`.
    pub fn span(&self) -> SimDuration {
        self.last - self.first
    }

    /// Per-resource attribution of every critical nanosecond.
    pub fn attribution(&self) -> Attribution {
        let mut a = Attribution::default();
        for s in &self.segments {
            a.totals[s.resource.index()] += s.duration();
        }
        a
    }

    /// Distinct events on the path, in chronological order.
    pub fn events_on_path(&self) -> Vec<EventId> {
        let mut out: Vec<EventId> = Vec::new();
        for s in &self.segments {
            if let Some(id) = s.event {
                if out.last() != Some(&id) {
                    out.push(id);
                }
            }
        }
        out
    }

    /// How many consecutive path hops are confirmed by a recorded causal
    /// edge (zero when collection was disabled).
    pub fn causal_links(&self) -> usize {
        self.causal_links
    }

    /// Verifies the enforced identity: segments are time-monotonic,
    /// gap-free, and sum exactly to the observed span.
    pub fn identity_holds(&self) -> bool {
        let mut cursor = self.first;
        for s in &self.segments {
            if s.start != cursor || s.end < s.start {
                return false;
            }
            cursor = s.end;
        }
        cursor == self.last
            && self.attribution().total() == self.span()
            && self
                .segments
                .iter()
                .map(Segment::duration)
                .sum::<SimDuration>()
                == self.span()
    }
}

/// Extracts the critical path of `timeline`, consulting `graph` for the
/// typed handoffs between path events.
pub fn extract(timeline: &Timeline, graph: &CausalGraph) -> CritPath {
    let events = timeline.events();
    let first = events.iter().map(|e| e.start).min();
    let last = events.iter().map(|e| e.end).max();
    let (Some(first), Some(last)) = (first, last) else {
        return CritPath {
            segments: Vec::new(),
            first: SimTime::ZERO,
            last: SimTime::ZERO,
            causal_links: 0,
        };
    };
    if first == last {
        return CritPath {
            segments: Vec::new(),
            first,
            last,
            causal_links: 0,
        };
    }

    // Positive-width events in start order; zero-width markers never
    // occupy time.
    let mut order: Vec<usize> = (0..events.len())
        .filter(|&i| events[i].end > events[i].start)
        .collect();
    order.sort_by_key(|&i| events[i].start);

    // Elementary intervals between consecutive span boundaries.
    let mut bounds: Vec<SimTime> = Vec::with_capacity(order.len() * 2 + 2);
    bounds.push(first);
    bounds.push(last);
    for &i in &order {
        bounds.push(events[i].start);
        bounds.push(events[i].end);
    }
    bounds.sort_unstable();
    bounds.dedup();

    // Backward-walk equivalent, computed as a sweep: at each elementary
    // interval the innermost active event (max priority, then latest
    // start, then latest push) owns the critical time. A lazy max-heap
    // keeps the sweep O(E log E).
    let mut heap: BinaryHeap<(u8, SimTime, usize)> = BinaryHeap::new();
    let mut next = 0usize;
    let mut raw: Vec<(SimTime, SimTime, Option<usize>)> = Vec::with_capacity(bounds.len());
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        while next < order.len() && events[order[next]].start <= a {
            let i = order[next];
            heap.push((priority(&events[i].kind), events[i].start, i));
            next += 1;
        }
        while let Some(&(_, _, i)) = heap.peek() {
            if events[i].end <= a {
                heap.pop();
            } else {
                break;
            }
        }
        raw.push((a, b, heap.peek().map(|&(_, _, i)| i)));
    }

    let mut segments: Vec<Segment> = Vec::new();
    for (idx, &(a, b, cover)) in raw.iter().enumerate() {
        match cover {
            Some(i) => push_merged(
                &mut segments,
                Segment {
                    start: a,
                    end: b,
                    resource: resource_of(&events[i].kind),
                    event: Some(EventId(i)),
                },
            ),
            None => {
                // The event this gap precedes starts exactly at `b` (the
                // next covered interval's owner); a trailing gap has none.
                let succ = raw[idx + 1..].iter().find_map(|&(_, _, c)| c);
                attribute_gap(timeline, a, b, succ, &mut segments);
            }
        }
    }

    // Count path hops the causal DAG explains: consecutive path events
    // linked by a recorded edge.
    let path: Vec<EventId> = {
        let mut out: Vec<EventId> = Vec::new();
        for s in &segments {
            if let Some(id) = s.event {
                if out.last() != Some(&id) {
                    out.push(id);
                }
            }
        }
        out
    };
    // One sorted index of the edges, so each hop is a binary search
    // rather than a scan of the whole graph.
    let mut links: Vec<(EventId, EventId)> = graph.edges().iter().map(|e| (e.from, e.to)).collect();
    links.sort_unstable();
    let causal_links = path
        .windows(2)
        .filter(|pair| links.binary_search(&(pair[0], pair[1])).is_ok())
        .count();

    CritPath {
        segments,
        first,
        last,
        causal_links,
    }
}

/// Charges an uncovered interval `[a, b)` by what it waited for.
fn attribute_gap(
    timeline: &Timeline,
    a: SimTime,
    b: SimTime,
    succ: Option<usize>,
    segments: &mut Vec<Segment>,
) {
    let events = timeline.events();
    let Some(s) = succ else {
        // Trailing host time after the last span.
        push_merged(
            segments,
            Segment {
                start: a,
                end: b,
                resource: ResourceClass::HostDriver,
                event: None,
            },
        );
        return;
    };
    match &events[s].kind {
        // The doorbell→execution window: CP service + dispatch (KQT).
        EventKind::Kernel { .. } | EventKind::Memcpy { .. } => push_merged(
            segments,
            Segment {
                start: a,
                end: b,
                resource: ResourceClass::RingCp,
                event: None,
            },
        ),
        // Pre-launch stall: up to `queue_wait` of it is ring backpressure
        // (LQT); any remainder is host-side issue gap.
        EventKind::Launch { queue_wait, .. } => {
            let gap = b - a;
            if gap <= *queue_wait {
                push_merged(
                    segments,
                    Segment {
                        start: a,
                        end: b,
                        resource: ResourceClass::RingCp,
                        event: None,
                    },
                );
            } else {
                let split = b - *queue_wait;
                push_merged(
                    segments,
                    Segment {
                        start: a,
                        end: split,
                        resource: ResourceClass::HostDriver,
                        event: None,
                    },
                );
                if !queue_wait.is_zero() {
                    push_merged(
                        segments,
                        Segment {
                            start: split,
                            end: b,
                            resource: ResourceClass::RingCp,
                            event: None,
                        },
                    );
                }
            }
        }
        // Waiting for a crypto-engine slot.
        EventKind::Crypto { .. } => push_merged(
            segments,
            Segment {
                start: a,
                end: b,
                resource: ResourceClass::Crypto,
                event: None,
            },
        ),
        EventKind::BounceReserve { .. } => push_merged(
            segments,
            Segment {
                start: a,
                end: b,
                resource: ResourceClass::BouncePool,
                event: None,
            },
        ),
        _ => push_merged(
            segments,
            Segment {
                start: a,
                end: b,
                resource: ResourceClass::HostDriver,
                event: None,
            },
        ),
    }
}

fn push_merged(segments: &mut Vec<Segment>, seg: Segment) {
    if seg.end == seg.start {
        return;
    }
    if let Some(prev) = segments.last_mut() {
        if prev.end == seg.start && prev.resource == seg.resource && prev.event == seg.event {
            prev.end = seg.end;
            return;
        }
    }
    segments.push(seg);
}

hcc_types::impl_to_json!(Segment {
    start,
    end,
    resource,
    event
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::{CausalEdge, EdgeKind};
    use crate::event::{KernelId, TraceEvent};
    use hcc_types::{ByteSize, CopyKind, HostMemKind};

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::micros(us)
    }

    fn launch(kernel: u32, qw_us: u64, start: u64, end: u64) -> TraceEvent {
        TraceEvent::new(
            EventKind::Launch {
                kernel: KernelId(kernel),
                queue_wait: SimDuration::micros(qw_us),
                first: false,
            },
            t(start),
            t(end),
        )
    }

    fn kernel(id: u32, start: u64, end: u64) -> TraceEvent {
        TraceEvent::new(
            EventKind::Kernel {
                kernel: KernelId(id),
                uvm: false,
            },
            t(start),
            t(end),
        )
    }

    #[test]
    fn empty_timeline_is_trivially_consistent() {
        let p = extract(&Timeline::new(), &CausalGraph::new(true));
        assert!(p.segments().is_empty());
        assert!(p.identity_holds());
        assert_eq!(p.span(), SimDuration::ZERO);
    }

    #[test]
    fn gap_between_launch_and_kernel_is_ring_cp() {
        let mut tl = Timeline::new();
        tl.push(launch(0, 0, 0, 10));
        tl.push(kernel(0, 14, 30)); // 4 µs KQT gap
        let p = extract(&tl, &CausalGraph::new(true));
        assert!(p.identity_holds());
        let a = p.attribution();
        assert_eq!(a.get(ResourceClass::HostDriver), SimDuration::micros(10));
        assert_eq!(a.get(ResourceClass::RingCp), SimDuration::micros(4));
        assert_eq!(a.get(ResourceClass::ComputeEngine), SimDuration::micros(16));
        assert_eq!(a.total(), p.span());
    }

    #[test]
    fn nested_spans_expose_the_innermost() {
        let mut tl = Timeline::new();
        // Blocking-copy umbrella [0, 100] with a crypto slot [10, 40] and
        // a bounce reservation [40, 55] nested inside.
        tl.push(TraceEvent::new(
            EventKind::Memcpy {
                kind: CopyKind::H2D,
                bytes: ByteSize::mib(1),
                mem: HostMemKind::Pageable,
                managed: false,
            },
            t(0),
            t(100),
        ));
        tl.push(TraceEvent::new(
            EventKind::Crypto {
                bytes: ByteSize::mib(1),
                encrypt: true,
            },
            t(10),
            t(40),
        ));
        tl.push(TraceEvent::new(
            EventKind::BounceReserve {
                bytes: ByteSize::mib(1),
                converted: true,
            },
            t(40),
            t(55),
        ));
        let p = extract(&tl, &CausalGraph::new(true));
        assert!(p.identity_holds());
        let a = p.attribution();
        assert_eq!(a.get(ResourceClass::Crypto), SimDuration::micros(30));
        assert_eq!(a.get(ResourceClass::BouncePool), SimDuration::micros(15));
        assert_eq!(a.get(ResourceClass::CopyEngine), SimDuration::micros(55));
        assert_eq!(a.total(), SimDuration::micros(100));
    }

    #[test]
    fn kernel_hides_the_sync_that_waits_on_it() {
        let mut tl = Timeline::new();
        tl.push(kernel(0, 0, 50));
        tl.push(TraceEvent::new(EventKind::Sync, t(5), t(50)));
        let p = extract(&tl, &CausalGraph::new(true));
        assert!(p.identity_holds());
        let a = p.attribution();
        assert_eq!(a.get(ResourceClass::ComputeEngine), SimDuration::micros(50));
        assert_eq!(a.get(ResourceClass::HostDriver), SimDuration::ZERO);
    }

    #[test]
    fn launch_gap_splits_queue_wait_from_host_gap() {
        let mut tl = Timeline::new();
        tl.push(kernel(0, 0, 10));
        // 20 µs of nothing, then a launch whose LQT was 6 µs: the last
        // 6 µs of the gap are ring backpressure, the first 14 host issue.
        tl.push(launch(1, 6, 30, 35));
        let p = extract(&tl, &CausalGraph::new(true));
        assert!(p.identity_holds());
        let a = p.attribution();
        assert_eq!(a.get(ResourceClass::HostDriver), SimDuration::micros(19));
        assert_eq!(a.get(ResourceClass::RingCp), SimDuration::micros(6));
    }

    #[test]
    fn zero_width_markers_extend_nothing_but_span_everything() {
        let mut tl = Timeline::new();
        tl.push(kernel(0, 0, 10));
        // A zero-width fault marker past the last span stretches the
        // observed span; the stretch is host time.
        tl.push(TraceEvent::new(
            EventKind::FaultInjected {
                site: FaultSite::RingDoorbell,
                attempts: 1,
            },
            t(12),
            t(12),
        ));
        let p = extract(&tl, &CausalGraph::new(true));
        assert!(p.identity_holds());
        assert_eq!(p.span(), SimDuration::micros(12));
        assert_eq!(
            p.attribution().get(ResourceClass::HostDriver),
            SimDuration::micros(2)
        );
    }

    #[test]
    fn retry_spans_charge_their_fault_site() {
        let mut tl = Timeline::new();
        tl.push(TraceEvent::new(
            EventKind::Memcpy {
                kind: CopyKind::H2D,
                bytes: ByteSize::mib(1),
                mem: HostMemKind::Pageable,
                managed: false,
            },
            t(0),
            t(60),
        ));
        tl.push(TraceEvent::new(
            EventKind::Retry {
                site: FaultSite::BounceExhausted,
                attempt: 1,
            },
            t(5),
            t(20),
        ));
        let p = extract(&tl, &CausalGraph::new(true));
        let a = p.attribution();
        assert_eq!(a.get(ResourceClass::BouncePool), SimDuration::micros(15));
        assert_eq!(a.get(ResourceClass::CopyEngine), SimDuration::micros(45));
    }

    #[test]
    fn uvm_fault_exposes_inside_its_kernel() {
        let mut tl = Timeline::new();
        tl.push(kernel(0, 0, 100));
        tl.push(TraceEvent::new(
            EventKind::UvmFault {
                kernel: KernelId(0),
                pages: 64,
                page_size: 4096,
            },
            t(0),
            t(30),
        ));
        let p = extract(&tl, &CausalGraph::new(true));
        assert!(p.identity_holds());
        let a = p.attribution();
        assert_eq!(a.get(ResourceClass::Uvm), SimDuration::micros(30));
        assert_eq!(a.get(ResourceClass::ComputeEngine), SimDuration::micros(70));
    }

    #[test]
    fn causal_edges_confirm_path_hops() {
        let mut tl = Timeline::new();
        let l = tl.push(launch(0, 0, 0, 10));
        let k = tl.push(kernel(0, 14, 30));
        let mut g = CausalGraph::new(true);
        g.push(CausalEdge::new(l, k, EdgeKind::LaunchToExec).with_wait(SimDuration::micros(4)));
        let p = extract(&tl, &g);
        assert_eq!(p.events_on_path(), vec![l, k]);
        assert_eq!(p.causal_links(), 1);
        // Without edges the path is identical but unconfirmed.
        let bare = extract(&tl, &CausalGraph::new(true));
        assert_eq!(bare.causal_links(), 0);
        assert_eq!(bare.segments(), p.segments());
    }
}
