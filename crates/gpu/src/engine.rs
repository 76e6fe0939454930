//! Engine primitives for the discrete-event GPU model: serial resources
//! (copy engines, the command processor's service loop) and multi-slot
//! resources (the compute engine's concurrent kernel slots).

use hcc_trace::metrics::{Gauge, MetricsSet};
use hcc_types::{SimDuration, SimTime};

/// Queue-depth and busy-occupancy gauges for a scheduled engine,
/// sampled in virtual time at every [`Resource::schedule`] /
/// `MultiSlot::schedule` call. Disabled (and free) by default.
#[derive(Debug, Clone, Default)]
pub struct EngineMetrics {
    /// Operations waiting for the engine (`ready` → `start`).
    pub queue: Gauge,
    /// Operations occupying the engine (`start` → `end`).
    pub busy: Gauge,
}

impl EngineMetrics {
    /// Turns recording on.
    pub(crate) fn enable(&mut self) {
        self.queue.enable();
        self.busy.enable();
    }

    fn record(&mut self, ready: SimTime, slot: &Slot) {
        self.queue.occupy(ready, slot.start);
        self.busy.occupy(slot.start, slot.end);
    }

    /// Snapshots both gauges as `{prefix}.queue` / `{prefix}.busy`.
    pub(crate) fn export(&self, prefix: &str, set: &mut MetricsSet) {
        set.gauge(&format!("{prefix}.queue"), &self.queue);
        set.gauge(&format!("{prefix}.busy"), &self.busy);
    }
}

/// A serially-occupied resource with an availability horizon.
///
/// Scheduling an operation at `ready` starts it at
/// `max(ready, next_free)` — the core discipline of the whole simulator.
///
/// ```
/// use hcc_gpu::Resource;
/// use hcc_types::{SimDuration, SimTime};
///
/// let mut ce = Resource::default();
/// let a = ce.schedule(SimTime::ZERO, SimDuration::micros(10));
/// let b = ce.schedule(SimTime::ZERO, SimDuration::micros(5));
/// assert_eq!(b.start, a.end); // serialized
/// ```
#[derive(Debug, Clone, Default)]
pub struct Resource {
    next_free: SimTime,
    metrics: EngineMetrics,
}

/// A scheduled occupancy interval on a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Operation start (after any queueing).
    pub start: SimTime,
    /// Operation end.
    pub end: SimTime,
    /// Time spent waiting for the resource before `start`.
    pub wait: SimDuration,
}

impl Resource {
    /// Enables queue/busy gauge recording on this resource.
    pub fn enable_metrics(&mut self) {
        self.metrics.enable();
    }

    /// Snapshots the gauges as `{prefix}.queue` / `{prefix}.busy` (no-op
    /// while metrics are disabled).
    pub fn export_metrics(&self, prefix: &str, set: &mut MetricsSet) {
        self.metrics.export(prefix, set);
    }

    /// Earliest time a new operation could start.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Schedules an operation that becomes ready at `ready` and occupies
    /// the resource for `service`. Returns the realized interval.
    pub fn schedule(&mut self, ready: SimTime, service: SimDuration) -> Slot {
        let start = ready.max(self.next_free);
        let end = start + service;
        self.next_free = end;
        let slot = Slot {
            start,
            end,
            wait: start.saturating_since(ready),
        };
        self.metrics.record(ready, &slot);
        slot
    }
}

/// A resource with `n` interchangeable slots (concurrent kernel execution
/// on the compute engine).
#[derive(Debug, Clone)]
pub struct MultiSlot {
    slots: Vec<SimTime>,
    metrics: EngineMetrics,
}

impl MultiSlot {
    /// Creates a multi-slot resource.
    ///
    /// # Panics
    /// Panics if `slots` is zero.
    pub(crate) fn new(slots: usize) -> Self {
        assert!(slots > 0, "need at least one slot");
        MultiSlot {
            slots: vec![SimTime::ZERO; slots],
            metrics: EngineMetrics::default(),
        }
    }

    /// Enables queue/busy gauge recording on this resource.
    pub(crate) fn enable_metrics(&mut self) {
        self.metrics.enable();
    }

    /// Snapshots the gauges as `{prefix}.queue` / `{prefix}.busy` (no-op
    /// while metrics are disabled).
    pub(crate) fn export_metrics(&self, prefix: &str, set: &mut MetricsSet) {
        self.metrics.export(prefix, set);
    }

    /// Schedules on the earliest-free slot.
    pub(crate) fn schedule(&mut self, ready: SimTime, service: SimDuration) -> Slot {
        // Manual first-minimum scan: same slot choice as
        // `min_by_key` (first of equals wins), but branch-predictable
        // and vectorizable for the 16-slot compute engine.
        let mut idx = 0;
        for (i, t) in self.slots.iter().enumerate().skip(1) {
            if *t < self.slots[idx] {
                idx = i;
            }
        }
        let start = ready.max(self.slots[idx]);
        let end = start + service;
        self.slots[idx] = end;
        let slot = Slot {
            start,
            end,
            wait: start.saturating_since(ready),
        };
        self.metrics.record(ready, &slot);
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::micros(v)
    }

    fn at(v: u64) -> SimTime {
        SimTime::from_nanos(v * 1_000)
    }

    #[test]
    fn serial_resource_queues() {
        let mut r = Resource::default();
        let a = r.schedule(at(0), us(10));
        assert_eq!(a.start, at(0));
        assert_eq!(a.end, at(10));
        assert!(a.wait.is_zero());
        let b = r.schedule(at(2), us(5));
        assert_eq!(b.start, at(10));
        assert_eq!(b.wait, us(8));
    }

    #[test]
    fn idle_gaps_are_respected() {
        let mut r = Resource::default();
        r.schedule(at(0), us(5));
        let late = r.schedule(at(100), us(5));
        assert_eq!(late.start, at(100));
        assert!(late.wait.is_zero());
    }

    #[test]
    fn multislot_runs_concurrently_up_to_capacity() {
        let mut m = MultiSlot::new(2);
        let a = m.schedule(at(0), us(10));
        let b = m.schedule(at(0), us(10));
        let c = m.schedule(at(0), us(10));
        assert_eq!(a.start, at(0));
        assert_eq!(b.start, at(0)); // second slot
        assert_eq!(c.start, at(10)); // queues behind the earliest
        assert_eq!(c.wait, us(10));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        let _ = MultiSlot::new(0);
    }

    #[test]
    fn metrics_capture_queue_and_busy_windows() {
        let mut r = Resource::default();
        r.enable_metrics();
        r.schedule(at(0), us(10));
        r.schedule(at(2), us(5)); // waits 8us behind the first op

        let mut set = MetricsSet::new();
        r.export_metrics("gpu.copy-h2d", &mut set);
        let queue = set.gauge_series("gpu.copy-h2d.queue").unwrap();
        assert_eq!(queue.peak(), 1);
        assert_eq!(queue.integral(), us(8));
        let busy = set.gauge_series("gpu.copy-h2d.busy").unwrap();
        assert_eq!(busy.integral(), us(15));
        assert_eq!(busy.final_value(), 0);
    }

    #[test]
    fn disabled_metrics_export_nothing() {
        let mut r = Resource::default();
        r.schedule(at(0), us(10));
        let mut set = MetricsSet::new();
        r.export_metrics("x", &mut set);
        assert!(set.gauges.is_empty());

        let mut m = MultiSlot::new(2);
        m.schedule(at(0), us(10));
        m.export_metrics("y", &mut set);
        assert!(set.gauges.is_empty());
    }
}
