//! The swiotlb-style bounce-buffer pool: hypervisor-shared staging memory
//! every CC DMA transfer must ride through (paper Sec. II-A / VI-A).

use hcc_trace::causal::{CausalEdge, EdgeKind, EventId};
use hcc_trace::metrics::{Gauge, MetricsSet};
use hcc_types::{ByteSize, CcMode, FaultInjector, FaultSite, Recovery, SimDuration, SimTime};

use crate::td::TdContext;

/// Outcome of reserving bounce space for one staged chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BounceReservation {
    /// Bytes reserved.
    pub size: ByteSize,
    /// Time charged for the reservation (pool bookkeeping plus any
    /// first-touch page conversion).
    pub cost: SimDuration,
    /// Whether this reservation had to convert fresh pages (cold pool).
    pub converted: bool,
}

impl BounceReservation {
    /// The causal edge this reservation implies: the staged chunk
    /// (`copy`) could not start until the pool handed out space, and the
    /// wait it carried is the reservation cost (bookkeeping plus any
    /// cold-pool page conversion). Typed here so the TEE layer — the
    /// component that priced the reservation — owns the dependency.
    pub fn staging_edge(&self, reservation: EventId, copy: EventId) -> CausalEdge {
        CausalEdge::new(reservation, copy, EdgeKind::BounceToStaging).with_wait(self.cost)
    }
}

/// Errors from bounce-pool operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BounceError {
    /// Requested chunk exceeds the total pool capacity.
    ChunkTooLarge {
        /// Requested size.
        requested: ByteSize,
        /// Pool capacity.
        capacity: ByteSize,
    },
    /// Pool has insufficient free space (caller must release first).
    Exhausted {
        /// Requested size.
        requested: ByteSize,
        /// Currently available.
        available: ByteSize,
    },
}

impl std::fmt::Display for BounceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BounceError::ChunkTooLarge {
                requested,
                capacity,
            } => {
                write!(
                    f,
                    "bounce chunk {requested} exceeds pool capacity {capacity}"
                )
            }
            BounceError::Exhausted {
                requested,
                available,
            } => {
                write!(
                    f,
                    "bounce pool exhausted: need {requested}, have {available}"
                )
            }
        }
    }
}

impl std::error::Error for BounceError {}

/// A fixed-capacity shared-memory staging pool.
///
/// Pages are converted private→shared lazily on first touch (the
/// `set_memory_decrypted` path of Fig. 8) and stay shared afterwards, so a
/// warm pool reserves cheaply — this is why steady-state CC bandwidth is
/// crypto-bound rather than conversion-bound.
///
/// ```
/// use hcc_tee::{BounceBufferPool, TdContext};
/// use hcc_types::calib::TdxCalib;
/// use hcc_types::{ByteSize, CcMode};
///
/// let mut td = TdContext::new(CcMode::On, TdxCalib::default());
/// let mut pool = BounceBufferPool::new(ByteSize::mib(64));
/// let cold = pool.reserve(&mut td, ByteSize::mib(4)).unwrap();
/// pool.release(ByteSize::mib(4));
/// let warm = pool.reserve(&mut td, ByteSize::mib(4)).unwrap();
/// assert!(cold.cost > warm.cost);
/// ```
#[derive(Debug, Clone)]
pub struct BounceBufferPool {
    capacity: ByteSize,
    converted: ByteSize,
    in_use: ByteSize,
    reservations: u64,
    cold_reservations: u64,
    reserved_bytes: ByteSize,
    released_bytes: ByteSize,
    occupancy: Gauge,
}

/// Conversion granularity: TDX shared/private attributes are 4 KiB.
const CONVERT_PAGE: ByteSize = ByteSize::kib(4);

impl BounceBufferPool {
    /// Creates a pool with the given capacity (all pages still private).
    pub fn new(capacity: ByteSize) -> Self {
        BounceBufferPool {
            capacity,
            converted: ByteSize::ZERO,
            in_use: ByteSize::ZERO,
            reservations: 0,
            cold_reservations: 0,
            reserved_bytes: ByteSize::ZERO,
            released_bytes: ByteSize::ZERO,
            occupancy: Gauge::new(),
        }
    }

    /// Enables the occupancy gauge (sampled via
    /// [`BounceBufferPool::record_occupancy`]).
    pub fn enable_metrics(&mut self) {
        self.occupancy.enable();
    }

    /// Records that a reservation of `size` bytes held pool space over
    /// `[from, to)` of virtual time. The pool itself has no clock — its
    /// reserve/release bookkeeping is instantaneous — so the caller, who
    /// placed the staging window on the timeline, reports it.
    pub fn record_occupancy(&mut self, from: SimTime, to: SimTime, size: ByteSize) {
        self.occupancy
            .occupy_n(from, to, i64::try_from(size.as_u64()).unwrap_or(i64::MAX));
    }

    /// Snapshots pool instruments under the `tee.bounce.` prefix (no-op
    /// while metrics are disabled).
    pub fn export_metrics(&self, set: &mut MetricsSet) {
        set.gauge("tee.bounce.occupancy", &self.occupancy);
        if self.occupancy.is_enabled() {
            set.push_counter("tee.bounce.reservations", self.reservations);
            set.push_counter("tee.bounce.cold_reservations", self.cold_reservations);
            set.push_counter("tee.bounce.capacity", self.capacity.as_u64());
        }
    }

    /// Pool capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Bytes currently reserved.
    pub fn in_use(&self) -> ByteSize {
        self.in_use
    }

    /// Lifetime byte totals handed out and given back: `(reserved,
    /// released)`. Conservation accessor for soak-scale leak audits —
    /// after every staging window has been released the two are equal.
    pub fn byte_totals(&self) -> (ByteSize, ByteSize) {
        (self.reserved_bytes, self.released_bytes)
    }

    /// Reserves `size` bytes of staging space, charging conversion costs
    /// through `td` for any pages touched for the first time.
    ///
    /// In `CcMode::Off` contexts the pool is a no-op that reports zero
    /// cost — regular VMs DMA straight from pinned pages.
    ///
    /// # Errors
    /// [`BounceError::ChunkTooLarge`] when `size` exceeds capacity;
    /// [`BounceError::Exhausted`] when the pool is too full.
    pub fn reserve(
        &mut self,
        td: &mut TdContext,
        size: ByteSize,
    ) -> Result<BounceReservation, BounceError> {
        if td.cc_mode() == CcMode::Off {
            return Ok(BounceReservation {
                size,
                cost: SimDuration::ZERO,
                converted: false,
            });
        }
        if size > self.capacity {
            return Err(BounceError::ChunkTooLarge {
                requested: size,
                capacity: self.capacity,
            });
        }
        let available = self.capacity - self.in_use;
        if size > available {
            return Err(BounceError::Exhausted {
                requested: size,
                available,
            });
        }
        self.reservations += 1;
        let mut cost = td.calib().bounce_reserve;
        // Lazily convert pages until the pool high-water mark covers this
        // reservation.
        let needed_converted = (self.in_use + size).min(self.capacity);
        let mut converted = false;
        if needed_converted > self.converted {
            let fresh = needed_converted - self.converted;
            let pages = fresh.pages(CONVERT_PAGE);
            cost += td.convert_pages(pages);
            self.converted = needed_converted;
            converted = true;
            self.cold_reservations += 1;
        }
        self.in_use += size;
        self.reserved_bytes += size;
        Ok(BounceReservation {
            size,
            cost,
            converted,
        })
    }

    /// Like [`BounceBufferPool::reserve`], but consults the fault injector
    /// first: an injected [`FaultSite::BounceExhausted`] models transient
    /// pool contention (other devices' DMA holding swiotlb slabs).
    ///
    /// The returned [`Recovery`] tells the caller what the injector
    /// decided, so the runtime can charge backoff waits and emit fault
    /// events — this layer only shapes the reservation:
    /// `Recovery::Retried` reserves normally (the contention was waited
    /// out), `Recovery::Degraded` reserves a chunk shrunk by the degrade
    /// factor (floored at one conversion page), and `Recovery::Aborted`
    /// surfaces as [`BounceError::Exhausted`].
    ///
    /// In `CcMode::Off` contexts no fault is drawn: there is no bounce
    /// pool to exhaust.
    ///
    /// # Errors
    /// As [`BounceBufferPool::reserve`], plus the injected exhaustion.
    pub fn reserve_with_faults(
        &mut self,
        td: &mut TdContext,
        size: ByteSize,
        faults: &mut FaultInjector,
    ) -> Result<(BounceReservation, Recovery), BounceError> {
        if td.cc_mode() == CcMode::Off {
            return self.reserve(td, size).map(|r| (r, Recovery::Clean));
        }
        let recovery = faults.recover(FaultSite::BounceExhausted);
        match &recovery {
            Recovery::Aborted { .. } => Err(BounceError::Exhausted {
                requested: size,
                available: self.capacity.saturating_sub(self.in_use),
            }),
            Recovery::Degraded { factor } => {
                let shrunk = ByteSize::bytes(size.as_u64() / u64::from(*factor).max(1))
                    .max(CONVERT_PAGE)
                    .min(size);
                self.reserve(td, shrunk).map(|r| (r, recovery))
            }
            Recovery::Clean | Recovery::Retried { .. } => {
                self.reserve(td, size).map(|r| (r, recovery))
            }
        }
    }

    /// Releases `size` bytes back to the pool.
    ///
    /// # Panics
    /// Panics if more is released than is in use (a caller accounting bug).
    pub fn release(&mut self, size: ByteSize) {
        assert!(
            size <= self.in_use,
            "released more bounce space than reserved"
        );
        self.in_use = self.in_use - size;
        self.released_bytes += size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_types::calib::TdxCalib;

    fn td_on() -> TdContext {
        TdContext::new(CcMode::On, TdxCalib::default())
    }

    #[test]
    fn cold_then_warm_reservations() {
        let mut td = td_on();
        let mut pool = BounceBufferPool::new(ByteSize::mib(8));
        let r1 = pool.reserve(&mut td, ByteSize::mib(4)).unwrap();
        assert!(r1.converted);
        assert!(r1.cost > SimDuration::micros(100)); // 1024 pages converted
        pool.release(ByteSize::mib(4));
        let r2 = pool.reserve(&mut td, ByteSize::mib(4)).unwrap();
        assert!(!r2.converted);
        assert!(r2.cost < SimDuration::micros(1));
    }

    #[test]
    fn conversion_covers_high_water_mark_only_once() {
        let mut td = td_on();
        let mut pool = BounceBufferPool::new(ByteSize::mib(8));
        pool.reserve(&mut td, ByteSize::mib(2)).unwrap();
        pool.reserve(&mut td, ByteSize::mib(2)).unwrap();
        assert_eq!(pool.converted, ByteSize::mib(4));
        pool.release(ByteSize::mib(2));
        pool.release(ByteSize::mib(2));
        // Warm reuse below the high-water mark converts nothing more.
        let before = td.counters().pages_converted;
        pool.reserve(&mut td, ByteSize::mib(3)).unwrap();
        assert_eq!(td.counters().pages_converted, before);
    }

    #[test]
    fn capacity_errors() {
        let mut td = td_on();
        let mut pool = BounceBufferPool::new(ByteSize::mib(4));
        assert!(matches!(
            pool.reserve(&mut td, ByteSize::mib(5)),
            Err(BounceError::ChunkTooLarge { .. })
        ));
        pool.reserve(&mut td, ByteSize::mib(3)).unwrap();
        assert!(matches!(
            pool.reserve(&mut td, ByteSize::mib(2)),
            Err(BounceError::Exhausted { .. })
        ));
    }

    #[test]
    fn noop_in_vm_mode() {
        let mut vm = TdContext::new(CcMode::Off, TdxCalib::default());
        let mut pool = BounceBufferPool::new(ByteSize::mib(1));
        // Even "oversized" requests succeed in VM mode: no staging needed.
        let r = pool.reserve(&mut vm, ByteSize::mib(16)).unwrap();
        assert_eq!(r.cost, SimDuration::ZERO);
        assert_eq!(pool.in_use(), ByteSize::ZERO);
    }

    #[test]
    fn occupancy_metrics_track_reported_windows() {
        let mut td = td_on();
        let mut pool = BounceBufferPool::new(ByteSize::mib(8));
        pool.enable_metrics();
        let t = |us| SimTime::ZERO + SimDuration::micros(us);
        pool.reserve(&mut td, ByteSize::mib(4)).unwrap();
        pool.record_occupancy(t(0), t(10), ByteSize::mib(4));
        pool.release(ByteSize::mib(4));

        let mut set = MetricsSet::new();
        pool.export_metrics(&mut set);
        let occ = set.gauge_series("tee.bounce.occupancy").unwrap();
        assert_eq!(occ.peak(), ByteSize::mib(4).as_u64() as i64);
        assert_eq!(occ.final_value(), 0);
        assert_eq!(set.counter_total("tee.bounce.reservations"), Some(1));

        // Disabled pools export nothing.
        let silent = BounceBufferPool::new(ByteSize::mib(8));
        let mut empty = MetricsSet::new();
        silent.export_metrics(&mut empty);
        assert!(empty.counters.is_empty() && empty.gauges.is_empty());
    }

    #[test]
    #[should_panic(expected = "more bounce space than reserved")]
    fn over_release_panics() {
        let mut pool = BounceBufferPool::new(ByteSize::mib(4));
        pool.release(ByteSize::mib(1));
    }

    #[test]
    fn faulty_reserve_matches_clean_reserve_under_empty_plan() {
        use hcc_types::{FaultPlan, RecoveryPolicy};
        let mut inj = FaultInjector::new(FaultPlan::none(), RecoveryPolicy::default(), 1);
        let mut td = td_on();
        let mut pool = BounceBufferPool::new(ByteSize::mib(8));
        let (r, rec) = pool
            .reserve_with_faults(&mut td, ByteSize::mib(4), &mut inj)
            .unwrap();
        assert!(rec.is_clean());
        let mut td2 = td_on();
        let mut pool2 = BounceBufferPool::new(ByteSize::mib(8));
        assert_eq!(r, pool2.reserve(&mut td2, ByteSize::mib(4)).unwrap());
    }

    #[test]
    fn injected_exhaustion_aborts_or_degrades_by_policy() {
        use hcc_types::{FaultPlan, RecoveryPolicy};
        let plan = FaultPlan::none().with_rate(FaultSite::BounceExhausted, 1.0);
        let mut td = td_on();
        let mut pool = BounceBufferPool::new(ByteSize::mib(8));

        let mut abort = FaultInjector::new(plan.clone(), RecoveryPolicy::Abort, 1);
        assert!(matches!(
            pool.reserve_with_faults(&mut td, ByteSize::mib(4), &mut abort),
            Err(BounceError::Exhausted { .. })
        ));

        let degrade = RecoveryPolicy::Degrade {
            min_chunk: ByteSize::kib(64),
        };
        let mut inj = FaultInjector::new(plan, degrade, 1);
        let (r, rec) = pool
            .reserve_with_faults(&mut td, ByteSize::mib(4), &mut inj)
            .unwrap();
        assert!(matches!(rec, Recovery::Degraded { factor: 2 }));
        assert_eq!(r.size, ByteSize::mib(2));
    }
}
