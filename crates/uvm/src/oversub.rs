//! Oversubscription and thrashing: what happens when a managed working
//! set exceeds the device-resident budget.
//!
//! The paper's most extreme datapoint — UVM 2dconv at ×164,030 under CC —
//! is not a cold-miss cost: it is an *eviction loop*. When the pages a
//! kernel streams over do not fit the residency budget, LRU-style eviction
//! throws out pages the kernel will touch again, so every pass re-faults
//! and re-migrates (and under CC, re-encrypts) the whole working set. This
//! module models that loop on top of the cold-miss driver.

use hcc_gpu::{Gmmu, ManagedId};
use hcc_tee::TdContext;
use hcc_types::SimDuration;

use crate::driver::{UvmDriver, UvmError};

/// Result of a thrashing analysis for one kernel pass pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThrashReport {
    /// Pages the access pattern touches per pass.
    pub touched_pages: u64,
    /// Pages that can stay resident.
    pub budget_pages: u64,
    /// Whether the working set oversubscribes the budget.
    pub oversubscribed: bool,
    /// Total service time across all passes (faults + migration +
    /// evictions).
    pub total_time: SimDuration,
    /// Pages migrated in total (counts re-migrations).
    pub pages_migrated: u64,
}

impl UvmDriver {
    /// Simulates `passes` sequential sweeps over pages
    /// `[0, touched_pages)` of `id` with only `budget_pages` allowed to
    /// stay device-resident.
    ///
    /// When the sweep fits the budget, only the first pass faults — the
    /// cold-miss behaviour of [`UvmDriver::service_access`]. When it does
    /// not, an LRU budget evicts the pages the next pass needs first, so
    /// *every* pass re-faults everything it touches: the thrash loop that
    /// produces the paper's 10^4–10^5× KET blow-ups.
    ///
    /// # Errors
    /// Returns [`UvmError`] for unknown ranges or bad page indices.
    ///
    /// # Panics
    /// Panics if `budget_pages` is zero or `passes` is zero.
    pub fn service_streaming_passes(
        &mut self,
        gmmu: &mut Gmmu,
        td: &mut TdContext,
        id: ManagedId,
        touched_pages: u64,
        budget_pages: u64,
        passes: u32,
    ) -> Result<ThrashReport, UvmError> {
        assert!(budget_pages > 0, "need a non-zero residency budget");
        assert!(passes > 0, "need at least one pass");
        let page_size = gmmu.page_size(id)?;
        let oversubscribed = touched_pages > budget_pages;
        let mut total_time = SimDuration::ZERO;
        let mut pages_migrated = 0u64;

        for _pass in 0..passes {
            // Walk the range in budget-sized windows; within a window,
            // pages fault (if non-resident), migrate, and — when
            // oversubscribed — evict the LRU window behind them.
            let mut cursor = 0u64;
            while cursor < touched_pages {
                let window = budget_pages.min(touched_pages - cursor);
                let service = self.service_access(gmmu, td, id, cursor, window)?;
                total_time += service.total_time;
                pages_migrated += service.pages;
                if oversubscribed {
                    // Evict this window to make room for the next one —
                    // an LRU sweep always evicts what the next pass (or
                    // window) needs.
                    let victims: Vec<u64> = (cursor..cursor + window).collect();
                    total_time += self.evict(gmmu, td, id, &victims)?;
                }
                cursor += window;
            }
        }
        let _ = page_size;
        Ok(ThrashReport {
            touched_pages,
            budget_pages,
            oversubscribed,
            total_time,
            pages_migrated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_types::calib::{TdxCalib, UvmCalib};
    use hcc_types::{ByteSize, CcMode};

    fn setup(cc: CcMode, mib: u64) -> (UvmDriver, Gmmu, TdContext, ManagedId) {
        let calib = UvmCalib::default();
        let mut gmmu = Gmmu::new();
        let id = ManagedId(1);
        gmmu.register(id, ByteSize::mib(mib), calib.page);
        (
            UvmDriver::new(calib, cc),
            gmmu,
            TdContext::new(cc, TdxCalib::default()),
            id,
        )
    }

    #[test]
    fn fitting_working_set_faults_once() {
        let (mut drv, mut gmmu, mut td, id) = setup(CcMode::Off, 16);
        let pages = ByteSize::mib(16).pages(UvmCalib::default().page);
        let r = drv
            .service_streaming_passes(&mut gmmu, &mut td, id, pages, pages * 2, 5)
            .unwrap();
        assert!(!r.oversubscribed);
        // Only the first pass migrates.
        assert_eq!(r.pages_migrated, pages);
    }

    #[test]
    fn oversubscription_refaults_every_pass() {
        let (mut drv, mut gmmu, mut td, id) = setup(CcMode::Off, 16);
        let pages = ByteSize::mib(16).pages(UvmCalib::default().page);
        let passes = 5;
        let r = drv
            .service_streaming_passes(&mut gmmu, &mut td, id, pages, pages / 2, passes)
            .unwrap();
        assert!(r.oversubscribed);
        assert_eq!(r.pages_migrated, pages * u64::from(passes));
    }

    #[test]
    fn thrash_time_scales_with_passes() {
        let (mut drv, mut gmmu, mut td, id) = setup(CcMode::Off, 16);
        let pages = ByteSize::mib(16).pages(UvmCalib::default().page);
        let one = {
            let (mut d2, mut g2, mut t2, _) = setup(CcMode::Off, 16);
            d2.service_streaming_passes(&mut g2, &mut t2, id, pages, pages / 2, 1)
                .unwrap()
                .total_time
        };
        let ten = drv
            .service_streaming_passes(&mut gmmu, &mut td, id, pages, pages / 2, 10)
            .unwrap()
            .total_time;
        let ratio = ten / one;
        assert!(ratio > 8.0 && ratio < 12.0, "ratio {ratio}");
    }

    #[test]
    fn cc_thrash_is_catastrophic() {
        // The Fig. 9 tail: an oversubscribed streaming kernel under CC
        // re-pays encrypted paging on every pass — ratios reach the
        // 10^4x-and-up regime the paper reports for 2dconv.
        let pages = ByteSize::mib(256).pages(UvmCalib::default().page);
        let run = |cc: CcMode, passes: u32| {
            let (mut drv, mut gmmu, mut td, id) = setup(cc, 256);
            drv.service_streaming_passes(&mut gmmu, &mut td, id, pages, pages / 2, passes)
                .unwrap()
                .total_time
        };
        let cc_thrash = run(CcMode::On, 50);
        // A 5µs kernel would have been the whole cost without UVM.
        let nominal_ket = SimDuration::micros(5);
        let blowup = cc_thrash / nominal_ket;
        assert!(blowup > 1.0e5, "blow-up {blowup}");
        // And CC thrash is much worse than base thrash.
        let base_thrash = run(CcMode::Off, 50);
        assert!(cc_thrash / base_thrash > 5.0);
    }

    #[test]
    #[should_panic(expected = "non-zero residency budget")]
    fn zero_budget_rejected() {
        let (mut drv, mut gmmu, mut td, id) = setup(CcMode::Off, 16);
        let _ = drv.service_streaming_passes(&mut gmmu, &mut td, id, 10, 0, 1);
    }
}
