//! The command processor (channel engine): the single front door for all
//! GPU commands (paper Sec. II-A). Commands are written into a
//! finite-depth channel ring; a full ring blocks the submitting host
//! thread — the origin of Launch Queuing Time (LQT).

use std::collections::VecDeque;

use hcc_trace::metrics::{Counter, Gauge, MetricsSet};
use hcc_types::calib::{cp_service, GpuCalib};
use hcc_types::{CcMode, SimDuration, SimTime};

use crate::engine::Resource;

/// Outcome of submitting one command to the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// Time the host obtained a ring slot (submission instant). The
    /// difference to the requested time is the LQT contribution.
    pub admitted: SimTime,
    /// Wait for a ring slot (zero when the ring had room).
    pub ring_wait: SimDuration,
    /// When the command processor began servicing this command.
    pub service_start: SimTime,
    /// When the command processor finished (command handed to an engine).
    pub service_end: SimTime,
}

/// A channel's command ring plus the serial command-processor service
/// behind it.
///
/// ```
/// use hcc_gpu::CommandProcessor;
/// use hcc_types::calib::GpuCalib;
/// use hcc_types::{CcMode, SimTime};
///
/// let mut cp = CommandProcessor::new(&GpuCalib::default(), CcMode::Off);
/// let s = cp.submit(SimTime::ZERO);
/// assert!(s.ring_wait.is_zero());
/// assert!(s.service_end > s.admitted);
/// ```
#[derive(Debug, Clone)]
pub struct CommandProcessor {
    /// Service-completion times of commands currently occupying ring
    /// entries, oldest first.
    ring: VecDeque<SimTime>,
    depth: usize,
    service: Resource,
    service_time: SimDuration,
    total_ring_wait: SimDuration,
    submissions: u64,
    ring_occupancy: Gauge,
    full_stalls: Counter,
}

impl CommandProcessor {
    /// Creates a command processor for the given calibration and mode.
    pub fn new(calib: &GpuCalib, cc: CcMode) -> Self {
        CommandProcessor {
            ring: VecDeque::with_capacity(calib.ring_depth),
            depth: calib.ring_depth,
            service: Resource::default(),
            service_time: cp_service(calib, cc),
            total_ring_wait: SimDuration::ZERO,
            submissions: 0,
            ring_occupancy: Gauge::new(),
            full_stalls: Counter::new(),
        }
    }

    /// Enables the ring-occupancy gauge, ring-full stall counter, and the
    /// service resource's queue/busy gauges.
    pub(crate) fn enable_metrics(&mut self) {
        self.ring_occupancy.enable();
        self.full_stalls.enable();
        self.service.enable_metrics();
    }

    /// Snapshots command-processor instruments under `gpu.ring` /
    /// `gpu.cp` (no-op while metrics are disabled).
    pub(crate) fn export_metrics(&self, set: &mut MetricsSet) {
        set.gauge("gpu.ring.occupancy", &self.ring_occupancy);
        set.counter("gpu.ring.full_stalls", &self.full_stalls);
        if self.ring_occupancy.is_enabled() {
            set.push_counter("gpu.ring.submissions", self.submissions);
        }
        self.service.export_metrics("gpu.cp", set);
    }

    /// Total ring-full waiting imposed on the host so far (ΣLQT from the
    /// device side).
    pub fn total_ring_wait(&self) -> SimDuration {
        self.total_ring_wait
    }

    /// Ring entries still logically in flight at `at`: submitted commands
    /// whose service has not yet completed. Conservation accessor for
    /// soak-scale leak audits — entries retire lazily on submit, so this
    /// counts against the service-completion times rather than the
    /// physical queue length.
    pub fn in_flight_at(&self, at: SimTime) -> usize {
        self.ring.iter().filter(|end| **end > at).count()
    }

    /// Submits a command that the host wants to enqueue at `want`.
    ///
    /// If the ring is full, the host blocks until the oldest in-flight
    /// command has been serviced (its entry retires); the returned
    /// `ring_wait` is that LQT.
    pub fn submit(&mut self, want: SimTime) -> Submission {
        self.submit_after(want, SimDuration::ZERO)
    }

    /// Like [`CommandProcessor::submit`], but the doorbell rings
    /// `doorbell_offset` after admission — modelling host-side driver work
    /// (the KLO span) performed between acquiring a ring slot and writing
    /// the command.
    pub(crate) fn submit_after(
        &mut self,
        want: SimTime,
        doorbell_offset: SimDuration,
    ) -> Submission {
        // Retire entries already serviced by `want`.
        while let Some(front) = self.ring.front() {
            if *front <= want {
                self.ring.pop_front();
            } else {
                break;
            }
        }
        let admitted = if self.ring.len() >= self.depth {
            // Block until the oldest entry retires.
            let oldest = *self.ring.front().expect("ring is full, so non-empty");
            self.ring.pop_front();
            oldest.max(want)
        } else {
            want
        };
        let doorbell = admitted + doorbell_offset;
        let slot = self.service.schedule(doorbell, self.service_time);
        self.ring.push_back(slot.end);
        let ring_wait = admitted.saturating_since(want);
        // The entry holds a ring slot from admission until the command
        // processor retires it at service end.
        self.ring_occupancy.occupy(admitted, slot.end);
        if !ring_wait.is_zero() {
            self.full_stalls.inc();
        }
        self.total_ring_wait += ring_wait;
        self.submissions += 1;
        Submission {
            admitted,
            ring_wait,
            service_start: slot.start,
            service_end: slot.end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cp_with_depth(depth: usize, cc: CcMode) -> CommandProcessor {
        let calib = GpuCalib {
            ring_depth: depth,
            ..GpuCalib::default()
        };
        CommandProcessor::new(&calib, cc)
    }

    #[test]
    fn empty_ring_admits_immediately() {
        let mut cp = cp_with_depth(4, CcMode::Off);
        let s = cp.submit(SimTime::from_nanos(500));
        assert_eq!(s.admitted, SimTime::from_nanos(500));
        assert!(s.ring_wait.is_zero());
        assert_eq!(s.service_end - s.service_start, cp.service_time);
    }

    #[test]
    fn full_ring_blocks_until_retirement() {
        let mut cp = cp_with_depth(2, CcMode::Off);
        let svc = cp.service_time;
        // Two instant submissions fill the ring.
        let s1 = cp.submit(SimTime::ZERO);
        let _s2 = cp.submit(SimTime::ZERO);
        // Third must wait for s1's service to retire.
        let s3 = cp.submit(SimTime::ZERO);
        assert_eq!(s3.admitted, s1.service_end);
        assert_eq!(s3.ring_wait, s1.service_end - SimTime::ZERO);
        assert!(s3.ring_wait >= svc);
        assert_eq!(cp.total_ring_wait(), s3.ring_wait);
    }

    #[test]
    fn retired_entries_free_slots() {
        let mut cp = cp_with_depth(2, CcMode::Off);
        cp.submit(SimTime::ZERO);
        cp.submit(SimTime::ZERO);
        // Arrive long after both retired: no wait.
        let late = cp.submit(SimTime::from_nanos(1_000_000));
        assert!(late.ring_wait.is_zero());
    }

    #[test]
    fn cc_mode_slows_service() {
        let calib = GpuCalib::default();
        let base = CommandProcessor::new(&calib, CcMode::Off);
        let cc = CommandProcessor::new(&calib, CcMode::On);
        let ratio = cc.service_time / base.service_time;
        assert!((ratio - calib.cc_cp_service_mult).abs() < 0.01);
    }

    #[test]
    fn back_to_back_stream_accumulates_wait_under_cc_faster() {
        // With a slower CP, the same submission pattern accumulates more
        // ring wait — the LQT amplification of Fig. 7b.
        let run = |cc: CcMode| {
            let mut cp = cp_with_depth(4, cc);
            for _ in 0..100 {
                cp.submit(SimTime::ZERO);
            }
            cp.total_ring_wait()
        };
        assert!(run(CcMode::On) > run(CcMode::Off));
    }

    #[test]
    fn submission_counter() {
        let mut cp = cp_with_depth(8, CcMode::Off);
        for _ in 0..5 {
            cp.submit(SimTime::ZERO);
        }
        assert_eq!(cp.depth, 8);
    }

    #[test]
    fn metrics_track_ring_occupancy_and_stalls() {
        let mut cp = cp_with_depth(2, CcMode::Off);
        cp.enable_metrics();
        cp.submit(SimTime::ZERO);
        cp.submit(SimTime::ZERO);
        cp.submit(SimTime::ZERO); // blocks on the full ring

        let mut set = MetricsSet::new();
        cp.export_metrics(&mut set);
        let ring = set.gauge_series("gpu.ring.occupancy").unwrap();
        assert_eq!(ring.peak(), 2, "ring never exceeds its depth");
        assert_eq!(ring.final_value(), 0);
        assert_eq!(set.counter_total("gpu.ring.full_stalls"), Some(1));
        assert_eq!(set.counter_total("gpu.ring.submissions"), Some(3));
        assert!(set.gauge_series("gpu.cp.busy").is_some());
    }

    #[test]
    fn disabled_metrics_export_nothing() {
        let mut cp = cp_with_depth(2, CcMode::Off);
        cp.submit(SimTime::ZERO);
        let mut set = MetricsSet::new();
        cp.export_metrics(&mut set);
        assert!(set.counters.is_empty() && set.gauges.is_empty());
    }
}
