//! Far-fault servicing: batching, tree prefetching, and encrypted paging.

use hcc_gpu::{Gmmu, GmmuError, ManagedId};
use hcc_tee::TdContext;
use hcc_trace::causal::{CausalEdge, EdgeKind, EventId};
use hcc_trace::metrics::{Gauge, MetricsSet};
use hcc_types::calib::UvmCalib;
use hcc_types::{ByteSize, CcMode, FaultInjector, FaultSite, Recovery, SimDuration, SimTime};

/// Errors from UVM driver operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum UvmError {
    /// Underlying GMMU rejected the access.
    Gmmu(GmmuError),
    /// An injected migration fault exhausted its recovery budget.
    Migration {
        /// Failed attempts, counting the initial one.
        attempts: u32,
    },
}

impl std::fmt::Display for UvmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UvmError::Gmmu(e) => write!(f, "gmmu: {e}"),
            UvmError::Migration { attempts } => {
                write!(f, "uvm migration failed after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for UvmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UvmError::Gmmu(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GmmuError> for UvmError {
    fn from(e: GmmuError) -> Self {
        UvmError::Gmmu(e)
    }
}

/// One serviced fault batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultBatch {
    /// Pages migrated in this batch.
    pub pages: u64,
    /// Bytes migrated.
    pub bytes: ByteSize,
    /// Time to service the batch (fault round trip + transfer +, under
    /// CC, hypercalls/staging/crypto).
    pub time: SimDuration,
    /// Whether the batch was produced by the prefetcher (no fault round
    /// trip paid).
    pub prefetched: bool,
}

/// The result of servicing one kernel's managed access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultService {
    /// Batches in service order.
    pub batches: Vec<FaultBatch>,
    /// Total service time (batches are serviced serially by the driver;
    /// the paper's UVM KET amplification is this total).
    pub total_time: SimDuration,
    /// Total pages migrated.
    pub pages: u64,
    /// Total bytes migrated.
    pub bytes: ByteSize,
}

impl FaultService {
    /// An access that faulted nowhere.
    pub(crate) fn empty() -> Self {
        FaultService {
            batches: Vec::new(),
            total_time: SimDuration::ZERO,
            pages: 0,
            bytes: ByteSize::ZERO,
        }
    }

    /// The causal edge this service implies: the kernel could not resume
    /// until fault migration finished, and the carried wait is the serial
    /// service total (the paper's UVM KET amplification). Typed by the
    /// UVM driver so the migration→resume dependency is recorded where it
    /// was decided, not inferred from timestamps.
    pub fn resume_edge(&self, fault: EventId, kernel: EventId) -> CausalEdge {
        CausalEdge::new(fault, kernel, EdgeKind::MigrationToResume).with_wait(self.total_time)
    }
}

/// Cumulative driver statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UvmStats {
    /// Far faults taken (pages that were host-resident when touched).
    pub faults: u64,
    /// Fault batches serviced (excluding prefetch batches).
    pub fault_batches: u64,
    /// Prefetch batches issued.
    pub prefetch_batches: u64,
    /// Pages migrated to the device.
    pub pages_migrated: u64,
    /// Bytes migrated to the device.
    pub bytes_migrated: ByteSize,
    /// Total service time accumulated.
    pub service_time: SimDuration,
}

/// The host-side UVM driver.
#[derive(Debug, Clone)]
pub struct UvmDriver {
    calib: UvmCalib,
    cc: CcMode,
    stats: UvmStats,
    /// Pages that rode a service batch (demand or prefetch). Conservation
    /// counter: must equal `stats.pages_migrated` after every access —
    /// the batch-splitting loops may drop or double-count no page.
    pages_batched: u64,
    outstanding: Gauge,
    backlog: Gauge,
}

impl UvmDriver {
    /// Creates a driver for the given calibration and mode.
    pub fn new(calib: UvmCalib, cc: CcMode) -> Self {
        UvmDriver {
            calib,
            cc,
            stats: UvmStats::default(),
            pages_batched: 0,
            outstanding: Gauge::new(),
            backlog: Gauge::new(),
        }
    }

    /// Enables the outstanding-fault and migration-backlog gauges
    /// (sampled via [`UvmDriver::record_service`]).
    pub fn enable_metrics(&mut self) {
        self.outstanding.enable();
        self.backlog.enable();
    }

    /// Records the virtual-time placement of a serviced access: batches
    /// run serially starting at `at`, so batch *i*'s pages stay
    /// outstanding until its completion and the batch itself queues in
    /// the driver's backlog until its start. The driver computes
    /// durations but never sees the clock — the caller, who placed the
    /// service on the timeline, reports `at`.
    pub fn record_service(&mut self, at: SimTime, service: &FaultService) {
        let mut cursor = at;
        for batch in &service.batches {
            self.backlog.occupy(at, cursor);
            let done = cursor + batch.time;
            self.outstanding
                .occupy_n(at, done, i64::try_from(batch.pages).unwrap_or(i64::MAX));
            cursor = done;
        }
    }

    /// Snapshots driver instruments under the `uvm.` prefix (no-op while
    /// metrics are disabled).
    pub fn export_metrics(&self, set: &mut MetricsSet) {
        set.gauge("uvm.outstanding_faults", &self.outstanding);
        set.gauge("uvm.migration_backlog", &self.backlog);
        if self.outstanding.is_enabled() {
            set.push_counter("uvm.faults", self.stats.faults);
            set.push_counter("uvm.pages_migrated", self.stats.pages_migrated);
            set.push_counter("uvm.bytes_migrated", self.stats.bytes_migrated.as_u64());
            set.push_counter(
                "uvm.batches",
                self.stats.fault_batches + self.stats.prefetch_batches,
            );
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> UvmStats {
        self.stats
    }

    /// Pages that rode a service batch over the driver's lifetime.
    pub fn pages_batched(&self) -> u64 {
        self.pages_batched
    }

    /// Migration bandwidth for the current mode — the encrypted-paging
    /// rate when CC is on.
    pub(crate) fn migrate_bandwidth(&self) -> hcc_types::Bandwidth {
        match self.cc {
            CcMode::Off => self.calib.migrate_bw,
            CcMode::On => self.calib.cc_migrate_bw,
        }
    }

    /// Services a GPU access to pages `[first, first+count)` of managed
    /// range `id`: scans the GMMU for far faults, batches them, charges
    /// fault round trips, hypercalls, staging and (encrypted) migration,
    /// and marks the pages device-resident.
    ///
    /// # Errors
    /// Returns [`UvmError::Gmmu`] for unknown ranges or bad page indices.
    pub fn service_access(
        &mut self,
        gmmu: &mut Gmmu,
        td: &mut TdContext,
        id: ManagedId,
        first: u64,
        count: u64,
    ) -> Result<FaultService, UvmError> {
        // One bitmap pass counts the host-resident pages and flips them
        // device-resident; only the count feeds the batching below.
        let total = gmmu.claim_faults(id, first, count)?;
        if total == 0 {
            return Ok(FaultService::empty());
        }
        let page_size = gmmu.page_size(id)?;
        self.stats.faults += total;

        // Split the faulting pages into demand batches and, when the
        // prefetcher is on and the access is dense (sequential-ish), a
        // prefetched remainder that skips the fault round trip.
        let dense = count > 0 && (total * 10) >= (count * 9); // ≥90 % of scan faulted
        let prefetched_pages = if self.calib.prefetch && dense {
            ((total as f64) * self.calib.prefetch_hit) as u64
        } else {
            0
        };
        let demand_pages = total - prefetched_pages;

        let mut batches = Vec::new();
        let mut total_time = SimDuration::ZERO;

        // Under CC the bounce-slot size caps how many pages one batch can
        // stage — the encrypted-paging batch shrink.
        let demand_cap = match self.cc {
            CcMode::Off => self.calib.batch_pages,
            CcMode::On => self.calib.cc_batch_pages,
        };
        let mut remaining = demand_pages;
        while remaining > 0 {
            let pages = remaining.min(demand_cap);
            let batch = self.service_batch(td, pages, page_size, false);
            total_time += batch.time;
            batches.push(batch);
            remaining -= pages;
            self.stats.fault_batches += 1;
        }
        // Prefetch arrives in larger bulk batches (tree prefetcher doubles
        // granularity), amortizing per-batch costs.
        let mut remaining = prefetched_pages;
        while remaining > 0 {
            let pages = remaining.min(demand_cap * 8);
            let batch = self.service_batch(td, pages, page_size, true);
            total_time += batch.time;
            batches.push(batch);
            remaining -= pages;
            self.stats.prefetch_batches += 1;
        }

        let bytes = page_size * total;
        self.stats.pages_migrated += total;
        self.stats.bytes_migrated += bytes;
        self.stats.service_time += total_time;
        Ok(FaultService {
            batches,
            total_time,
            pages: total,
            bytes,
        })
    }

    /// Like [`UvmDriver::service_access`], but consults the fault injector
    /// for a [`FaultSite::UvmMigration`] failure before migrating. The
    /// draw happens only when the access actually has faulting pages, so a
    /// resident re-touch costs no randomness.
    ///
    /// A retried failure means the migration's fault round trip was wasted
    /// and re-issued after backoff; the caller charges that lost time (one
    /// [`UvmCalib::fault_latency`] per retry plus the backoffs carried in
    /// the returned [`Recovery`]) and emits the trace events. An aborted
    /// recovery returns [`UvmError::Migration`] with the pages still
    /// host-resident — nothing was migrated.
    ///
    /// # Errors
    /// As [`UvmDriver::service_access`], plus the injected abort.
    pub fn service_access_with_faults(
        &mut self,
        gmmu: &mut Gmmu,
        td: &mut TdContext,
        id: ManagedId,
        first: u64,
        count: u64,
        faults: &mut FaultInjector,
    ) -> Result<(FaultService, Recovery), UvmError> {
        if gmmu.peek_fault_count(id, first, count)? == 0 {
            return Ok((FaultService::empty(), Recovery::Clean));
        }
        let recovery = faults.recover(FaultSite::UvmMigration);
        if let Recovery::Aborted { attempts } = recovery {
            return Err(UvmError::Migration { attempts });
        }
        let service = self.service_access(gmmu, td, id, first, count)?;
        Ok((service, recovery))
    }

    fn service_batch(
        &mut self,
        td: &mut TdContext,
        pages: u64,
        page_size: ByteSize,
        prefetched: bool,
    ) -> FaultBatch {
        self.pages_batched += pages;
        let bytes = page_size * pages;
        let mut time = if prefetched {
            // Prefetch rides the existing fault pipeline; only transfer
            // costs apply plus a nominal issue cost.
            SimDuration::from_micros_f64(2.0)
        } else {
            self.calib.fault_latency
        };
        if self.cc == CcMode::On {
            for _ in 0..self.calib.cc_fault_hypercalls {
                time += td.hypercall("uvm_fault");
            }
            time += self.calib.cc_batch_overhead;
        }
        time += self.migrate_bandwidth().time_for(bytes);
        FaultBatch {
            pages,
            bytes,
            time,
            prefetched,
        }
    }

    /// Evicts pages back to the host (capacity pressure or CPU access),
    /// charging the reverse transfer. Marks them host-resident.
    ///
    /// # Errors
    /// Returns [`UvmError::Gmmu`] for unknown ranges or bad page indices.
    pub(crate) fn evict(
        &mut self,
        gmmu: &mut Gmmu,
        td: &mut TdContext,
        id: ManagedId,
        pages: &[u64],
    ) -> Result<SimDuration, UvmError> {
        if pages.is_empty() {
            return Ok(SimDuration::ZERO);
        }
        let page_size = gmmu.page_size(id)?;
        gmmu.mark_host(id, pages)?;
        let bytes = page_size * pages.len() as u64;
        let mut time = self.migrate_bandwidth().time_for(bytes);
        if self.cc == CcMode::On {
            time += td.hypercall("uvm_evict");
            time += self.calib.cc_batch_overhead;
        }
        self.stats.service_time += time;
        Ok(time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_types::calib::TdxCalib;

    fn setup(cc: CcMode) -> (UvmDriver, Gmmu, TdContext, ManagedId) {
        let calib = UvmCalib::default();
        let mut gmmu = Gmmu::new();
        let id = ManagedId(7);
        gmmu.register(id, ByteSize::mib(16), calib.page);
        (
            UvmDriver::new(calib, cc),
            gmmu,
            TdContext::new(cc, TdxCalib::default()),
            id,
        )
    }

    #[test]
    fn first_touch_faults_then_resident() {
        let (mut drv, mut gmmu, mut td, id) = setup(CcMode::Off);
        let s1 = drv.service_access(&mut gmmu, &mut td, id, 0, 64).unwrap();
        assert_eq!(s1.pages, 64);
        assert!(s1.total_time > SimDuration::ZERO);
        let s2 = drv.service_access(&mut gmmu, &mut td, id, 0, 64).unwrap();
        assert_eq!(s2.pages, 0);
        assert!(s2.total_time.is_zero());
    }

    #[test]
    fn cc_paging_is_much_slower() {
        let (mut drv_off, mut g_off, mut td_off, id) = setup(CcMode::Off);
        let (mut drv_on, mut g_on, mut td_on, _) = setup(CcMode::On);
        let off = drv_off
            .service_access(&mut g_off, &mut td_off, id, 0, 128)
            .unwrap();
        let on = drv_on
            .service_access(&mut g_on, &mut td_on, id, 0, 128)
            .unwrap();
        let ratio = on.total_time / off.total_time;
        assert!(ratio > 4.0, "encrypted paging ratio {ratio}");
    }

    #[test]
    fn batching_amortizes_fault_latency() {
        let (mut drv, mut gmmu, mut td, id) = setup(CcMode::Off);
        let s = drv.service_access(&mut gmmu, &mut td, id, 0, 256).unwrap();
        // 256 faulting pages with batch 32: far fewer batches than pages.
        assert!(s.batches.len() < 20);
        let stats = drv.stats();
        assert_eq!(stats.faults, 256);
        assert_eq!(stats.pages_migrated, 256);
        assert_eq!(stats.bytes_migrated, ByteSize::mib(16));
    }

    #[test]
    fn prefetcher_reduces_demand_batches() {
        let mut calib = UvmCalib {
            prefetch: false,
            ..UvmCalib::default()
        };
        let mut gmmu_a = Gmmu::new();
        let id = ManagedId(1);
        gmmu_a.register(id, ByteSize::mib(16), calib.page);
        let mut td = TdContext::new(CcMode::Off, TdxCalib::default());
        let mut no_pf = UvmDriver::new(calib.clone(), CcMode::Off);
        let without = no_pf
            .service_access(&mut gmmu_a, &mut td, id, 0, 256)
            .unwrap();

        calib.prefetch = true;
        let mut gmmu_b = Gmmu::new();
        gmmu_b.register(id, ByteSize::mib(16), calib.page);
        let mut with_pf = UvmDriver::new(calib, CcMode::Off);
        let with = with_pf
            .service_access(&mut gmmu_b, &mut td, id, 0, 256)
            .unwrap();

        assert!(with.total_time < without.total_time);
        assert!(with_pf.stats().prefetch_batches > 0);
        assert_eq!(no_pf.stats().prefetch_batches, 0);
        // Same bytes moved either way.
        assert_eq!(with.bytes, without.bytes);
    }

    #[test]
    fn sparse_access_skips_prefetch() {
        let (mut drv, mut gmmu, mut td, id) = setup(CcMode::Off);
        // Touch half the pages first so a rescan of the full range is
        // only ~50% faulting (not dense).
        let s1 = drv.service_access(&mut gmmu, &mut td, id, 0, 128).unwrap();
        assert!(s1.batches.iter().any(|b| b.prefetched));
        let before = drv.stats().prefetch_batches;
        let s2 = drv.service_access(&mut gmmu, &mut td, id, 0, 256).unwrap();
        assert_eq!(s2.pages, 128);
        assert_eq!(
            drv.stats().prefetch_batches,
            before,
            "sparse scan must not prefetch"
        );
    }

    #[test]
    fn evict_and_refault() {
        let (mut drv, mut gmmu, mut td, id) = setup(CcMode::On);
        drv.service_access(&mut gmmu, &mut td, id, 0, 32).unwrap();
        let t = drv.evict(&mut gmmu, &mut td, id, &[0, 1, 2, 3]).unwrap();
        assert!(t > SimDuration::ZERO);
        let again = drv.service_access(&mut gmmu, &mut td, id, 0, 32).unwrap();
        assert_eq!(again.pages, 4);
        assert_eq!(
            drv.evict(&mut gmmu, &mut td, id, &[]).unwrap(),
            SimDuration::ZERO
        );
    }

    #[test]
    fn faulty_service_matches_clean_service_under_empty_plan() {
        use hcc_types::{FaultPlan, RecoveryPolicy};
        let mut inj = FaultInjector::new(FaultPlan::none(), RecoveryPolicy::default(), 1);
        let (mut a, mut gmmu_a, mut td_a, id) = setup(CcMode::On);
        let (mut b, mut gmmu_b, mut td_b, _) = setup(CcMode::On);
        let clean = a.service_access(&mut gmmu_a, &mut td_a, id, 0, 64).unwrap();
        let (faulty, rec) = b
            .service_access_with_faults(&mut gmmu_b, &mut td_b, id, 0, 64, &mut inj)
            .unwrap();
        assert!(rec.is_clean());
        assert_eq!(clean, faulty);
    }

    #[test]
    fn injected_migration_failure_aborts_without_migrating() {
        use hcc_types::{FaultPlan, RecoveryPolicy};
        let plan = FaultPlan::none().with_rate(FaultSite::UvmMigration, 1.0);
        let mut inj = FaultInjector::new(plan, RecoveryPolicy::Abort, 1);
        let (mut drv, mut gmmu, mut td, id) = setup(CcMode::On);
        let err = drv
            .service_access_with_faults(&mut gmmu, &mut td, id, 0, 64, &mut inj)
            .unwrap_err();
        assert!(matches!(err, UvmError::Migration { attempts: 1 }));
        assert_eq!(drv.stats().pages_migrated, 0);
        // Pages are still host-resident: a clean retry services them all.
        let again = drv.service_access(&mut gmmu, &mut td, id, 0, 64).unwrap();
        assert_eq!(again.pages, 64);
    }

    #[test]
    fn resident_retouch_draws_no_fault() {
        use hcc_types::{FaultPlan, RecoveryPolicy};
        let plan = FaultPlan::none().with_rate(FaultSite::UvmMigration, 1.0);
        let mut inj = FaultInjector::new(plan, RecoveryPolicy::Abort, 1);
        let (mut drv, mut gmmu, mut td, id) = setup(CcMode::On);
        drv.service_access(&mut gmmu, &mut td, id, 0, 32).unwrap();
        // All pages resident: no migration, so no fault drawn even at
        // rate 1.0.
        let (s, rec) = drv
            .service_access_with_faults(&mut gmmu, &mut td, id, 0, 32, &mut inj)
            .unwrap();
        assert_eq!(s.pages, 0);
        assert!(rec.is_clean());
        assert_eq!(inj.counts().injected, 0);
    }

    #[test]
    fn metrics_track_outstanding_pages_and_backlog() {
        let (mut drv, mut gmmu, mut td, id) = setup(CcMode::On);
        drv.enable_metrics();
        let svc = drv.service_access(&mut gmmu, &mut td, id, 0, 256).unwrap();
        assert!(svc.batches.len() > 1, "need several batches for a backlog");
        let at = SimTime::from_nanos(1_000);
        drv.record_service(at, &svc);

        let mut set = MetricsSet::new();
        drv.export_metrics(&mut set);
        let out = set.gauge_series("uvm.outstanding_faults").unwrap();
        assert_eq!(
            out.peak(),
            svc.pages as i64,
            "all pages outstanding at start"
        );
        assert_eq!(out.final_value(), 0);
        let backlog = set.gauge_series("uvm.migration_backlog").unwrap();
        assert_eq!(backlog.peak(), svc.batches.len() as i64 - 1);
        assert_eq!(set.counter_total("uvm.pages_migrated"), Some(256));

        // Disabled drivers export nothing.
        let (silent, ..) = setup(CcMode::On);
        let mut empty = MetricsSet::new();
        silent.export_metrics(&mut empty);
        assert!(empty.counters.is_empty() && empty.gauges.is_empty());
    }

    #[test]
    fn unknown_range_is_an_error() {
        let calib = UvmCalib::default();
        let mut drv = UvmDriver::new(calib, CcMode::Off);
        let mut gmmu = Gmmu::new();
        let mut td = TdContext::new(CcMode::Off, TdxCalib::default());
        let err = drv
            .service_access(&mut gmmu, &mut td, ManagedId(99), 0, 1)
            .unwrap_err();
        assert!(matches!(err, UvmError::Gmmu(GmmuError::UnknownRange(_))));
    }
}
