//! Trust-domain transition accounting: hypercalls, seamcalls, and the
//! CC-vs-VM cost asymmetry behind Fig. 8.

use hcc_types::calib::TdxCalib;
use hcc_types::{CcMode, SimDuration};

/// Execution context of a guest: a regular VM (`CcMode::Off`) or an Intel
/// TDX trust domain (`CcMode::On`).
///
/// The context is a *cost oracle with counters*: callers ask what a
/// transition costs, charge it to their own clock, and the context tallies
/// how many transitions of each kind occurred (the paper's Fig. 8 shows
/// "a significant increase in TDX-related operations in CC mode").
///
/// ```
/// use hcc_tee::TdContext;
/// use hcc_types::calib::TdxCalib;
/// use hcc_types::CcMode;
///
/// let mut vm = TdContext::new(CcMode::Off, TdxCalib::default());
/// let mut td = TdContext::new(CcMode::On, TdxCalib::default());
/// let vm_cost = vm.hypercall("doorbell");
/// let td_cost = td.hypercall("doorbell");
/// assert!(td_cost > vm_cost); // the +470% of Sec. VI-B
/// ```
#[derive(Debug, Clone)]
pub struct TdContext {
    cc: CcMode,
    calib: TdxCalib,
    /// One guest→host transition in this mode: `calib.hypercall()` in a
    /// TD, `calib.vmexit` in a VM. Fixed by `calib`, so computed once.
    hypercall_cost: SimDuration,
    counters: TdCounters,
}

/// Transition counters accumulated by a [`TdContext`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TdCounters {
    /// Guest→host transitions (vmcalls / tdx_hypercalls).
    pub hypercalls: u64,
    /// Guest→TDX-module transitions (TDs only).
    pub seamcalls: u64,
    /// 4 KiB pages converted private→shared.
    pub pages_converted: u64,
    /// Total virtual time spent in transitions.
    pub transition_time: SimDuration,
}

impl TdContext {
    /// Creates a context for the given mode and calibration.
    pub fn new(cc: CcMode, calib: TdxCalib) -> Self {
        let hypercall_cost = match cc {
            CcMode::Off => calib.vmexit,
            CcMode::On => calib.hypercall(),
        };
        TdContext {
            cc,
            calib,
            hypercall_cost,
            counters: TdCounters::default(),
        }
    }

    /// The mode this context runs in.
    pub fn cc_mode(&self) -> CcMode {
        self.cc
    }

    /// Calibration in effect.
    pub fn calib(&self) -> &TdxCalib {
        &self.calib
    }

    /// Accumulated counters.
    pub fn counters(&self) -> TdCounters {
        self.counters
    }

    /// Charges one guest→host transition. In a TD this is a
    /// `tdx_hypercall` routed through the TDX module (×5.7 a plain
    /// vmcall); in a regular VM it is a plain vmexit. The `reason` label
    /// is for callers that mirror the cost into a trace event.
    pub fn hypercall(&mut self, reason: &'static str) -> SimDuration {
        let _ = reason;
        self.counters.hypercalls += 1;
        self.counters.transition_time += self.hypercall_cost;
        self.hypercall_cost
    }

    /// Charges `n` guest→host transitions at once: the counters move
    /// exactly as `n` calls of [`TdContext::hypercall`] move them, and
    /// the return is their summed cost.
    pub fn hypercalls(&mut self, reason: &'static str, n: u64) -> SimDuration {
        let _ = reason;
        let cost = self.hypercall_cost * n;
        self.counters.hypercalls += n;
        self.counters.transition_time += cost;
        cost
    }

    /// Charges a seamcall into the TDX module. Free (and uncounted) in a
    /// regular VM, which has no SEAM transitions.
    pub fn seamcall(&mut self, reason: &'static str) -> SimDuration {
        let _ = reason;
        match self.cc {
            CcMode::Off => SimDuration::ZERO,
            CcMode::On => {
                self.counters.seamcalls += 1;
                self.counters.transition_time += self.calib.seamcall;
                self.calib.seamcall
            }
        }
    }

    /// Charges `set_memory_decrypted` for `pages` 4 KiB pages (TDs only;
    /// a regular VM has nothing to convert). Includes one hypercall for
    /// the EPT update plus per-page attribute/TLB work.
    pub fn convert_pages(&mut self, pages: u64) -> SimDuration {
        if pages == 0 {
            return SimDuration::ZERO;
        }
        match self.cc {
            CcMode::Off => SimDuration::ZERO,
            CcMode::On => {
                let per_page = self.calib.page_convert * pages;
                let transition = self.hypercall("set_memory_decrypted");
                self.counters.pages_converted += pages;
                self.counters.transition_time += per_page;
                per_page + transition
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn td_hypercall_costs_more_than_vm() {
        let calib = TdxCalib::default();
        let mut vm = TdContext::new(CcMode::Off, calib.clone());
        let mut td = TdContext::new(CcMode::On, calib);
        let ratio = td.hypercall("x") / vm.hypercall("x");
        assert!((ratio - 5.7).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn counters_accumulate() {
        let mut td = TdContext::new(CcMode::On, TdxCalib::default());
        td.hypercall("a");
        td.hypercall("b");
        td.seamcall("c");
        td.convert_pages(16);
        let c = td.counters();
        assert_eq!(c.hypercalls, 3); // 2 explicit + 1 from convert_pages
        assert_eq!(c.seamcalls, 1);
        assert_eq!(c.pages_converted, 16);
        assert!(c.transition_time > SimDuration::ZERO);
    }

    #[test]
    fn vm_has_no_seam_or_conversion_costs() {
        let mut vm = TdContext::new(CcMode::Off, TdxCalib::default());
        assert_eq!(vm.seamcall("x"), SimDuration::ZERO);
        assert_eq!(vm.convert_pages(100), SimDuration::ZERO);
        let c = vm.counters();
        assert_eq!(c.seamcalls, 0);
        assert_eq!(c.pages_converted, 0);
    }

    #[test]
    fn convert_pages_scales_linearly() {
        let mut td = TdContext::new(CcMode::On, TdxCalib::default());
        let c1 = td.convert_pages(1);
        let c100 = td.convert_pages(100);
        // 100 pages cost ~100x the per-page part plus one fixed hypercall,
        // so well above 10x the single-page cost.
        assert!(c100 > c1 * 10);
        assert_eq!(td.convert_pages(0), SimDuration::ZERO);
    }

    #[test]
    fn cached_hypercall_cost_matches_the_calibration() {
        let custom = TdxCalib {
            vmexit: SimDuration::from_nanos(1_337),
            hypercall_mult: 3.21,
            ..TdxCalib::default()
        };
        for calib in [TdxCalib::default(), custom] {
            let mut td = TdContext::new(CcMode::On, calib.clone());
            let mut vm = TdContext::new(CcMode::Off, calib.clone());
            for _ in 0..3 {
                assert_eq!(td.hypercall("x"), calib.hypercall());
                assert_eq!(vm.hypercall("x"), calib.vmexit);
            }
            assert_eq!(td.counters().hypercalls, 3);
            assert_eq!(td.counters().transition_time, calib.hypercall() * 3);
            assert_eq!(vm.counters().transition_time, calib.vmexit * 3);
        }
    }

    #[test]
    fn hypercalls_charge_like_repeated_hypercalls() {
        for cc in CcMode::ALL {
            for n in [0, 1, 7] {
                let mut bulk = TdContext::new(cc, TdxCalib::default());
                let mut one_by_one = TdContext::new(cc, TdxCalib::default());
                let cost = bulk.hypercalls("x", n);
                let sum: SimDuration = (0..n).map(|_| one_by_one.hypercall("x")).sum();
                assert_eq!(cost, sum, "{cc:?} x{n}");
                assert_eq!(bulk.counters(), one_by_one.counters(), "{cc:?} x{n}");
            }
        }
    }
}
