//! Per-tenant TD session reuse for the serving layer.
//!
//! A multi-tenant CC GPU does not re-attest on every request: the first
//! request a tenant lands on a device pays the full SPDM handshake
//! ([`SpdmSession::establish`]) inside that tenant's own [`TdContext`],
//! and every later request rides the established session, paying only the
//! guest↔host doorbell transitions of request submission and completion.
//! [`SessionPool`] owns one `TdContext` per tenant per device and charges
//! admissions accordingly — the cold-start-vs-steady-state asymmetry a
//! serverless confidential-inference cluster lives with.
//!
//! In `CcMode::Off` there is nothing to attest and transitions are plain
//! vmexits: admissions cost the (small, nonzero) vmexit pair and no
//! session is ever established.

use hcc_types::calib::TdxCalib;
use hcc_types::{CcMode, SimDuration};

use crate::spdm::SpdmSession;
use crate::td::{TdContext, TdCounters};

/// What one request admission cost on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// One-time session setup charged by this admission (the full SPDM
    /// handshake when this was the tenant's first request on the device;
    /// zero afterwards, and always zero in `CcMode::Off`).
    pub setup: SimDuration,
    /// Steady-state per-request transition cost: the submit doorbell and
    /// the completion doorbell.
    pub transitions: SimDuration,
    /// Whether this admission established the session (a cold start).
    pub cold: bool,
}

impl Admission {
    /// Total time this admission adds to the request's service.
    pub fn total(&self) -> SimDuration {
        self.setup + self.transitions
    }

    /// The admission split as flight-recorder spans: `(spdm, doorbell)`,
    /// where `spdm` is the one-time handshake (`setup`) and `doorbell`
    /// the steady-state hypercall pair (`transitions`). The two parts
    /// partition [`Admission::total`] exactly — the invariant the
    /// serving layer's per-request span identity rides on.
    pub fn flight_split(&self) -> (SimDuration, SimDuration) {
        (self.setup, self.transitions)
    }
}

/// Charges one admission to `td`: the full SPDM handshake when `cold`,
/// then the submit/complete doorbell pair.
fn charge(td: &mut TdContext, cold: bool) -> Admission {
    let setup = if cold {
        SpdmSession::establish(td).total_time
    } else {
        SimDuration::ZERO
    };
    let transitions = td.hypercall("serve_submit") + td.hypercall("serve_complete");
    Admission {
        setup,
        transitions,
        cold,
    }
}

/// One device's tenant sessions: a [`TdContext`] per tenant, established
/// lazily on first admission.
#[derive(Debug, Clone)]
pub struct SessionPool {
    cc: CcMode,
    calib: TdxCalib,
    /// `(tenant, context, established)` in first-admission order.
    slots: Vec<(u64, TdContext, bool)>,
    /// Sessions torn down via [`SessionPool::close_all`] over the pool's
    /// lifetime — the other side of the leak-audit ledger.
    closed: u64,
}

impl SessionPool {
    /// An empty pool for one device.
    pub fn new(cc: CcMode, calib: TdxCalib) -> Self {
        SessionPool {
            cc,
            calib,
            slots: Vec::new(),
            closed: 0,
        }
    }

    /// Admits one request from `tenant`, charging the SPDM handshake on
    /// the tenant's first admission and the doorbell pair on every one.
    pub fn admit(&mut self, tenant: u64) -> Admission {
        let cc = self.cc;
        let (td, established) = self.slot(tenant);
        let cold = !*established && cc == CcMode::On;
        *established |= cold;
        charge(td, cold)
    }

    /// Admits `n` requests from `tenant`, charging exactly what `n`
    /// calls of [`SessionPool::admit`] charge: the first runs through
    /// `admit` (and may be cold), and the other `n - 1` ride its session,
    /// their doorbell pairs added arithmetically. `n == 0` admits
    /// nothing.
    pub fn admit_n(&mut self, tenant: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.admit(tenant);
        let (td, _) = self.slot(tenant);
        td.hypercalls("serve_submit", n - 1);
        td.hypercalls("serve_complete", n - 1);
    }

    /// `tenant`'s context and established flag, opening an unattested
    /// slot on its first admission.
    fn slot(&mut self, tenant: u64) -> (&mut TdContext, &mut bool) {
        let idx = match self.slots.iter().position(|(t, _, _)| *t == tenant) {
            Some(i) => i,
            None => {
                self.slots
                    .push((tenant, TdContext::new(self.cc, self.calib.clone()), false));
                self.slots.len() - 1
            }
        };
        let (_, td, established) = &mut self.slots[idx];
        (td, established)
    }

    /// What a cold admission on this pool costs, charged to a scratch
    /// context so the pool's counters do not move. Every pool of one
    /// `(cc, calib)` charges the same: a cold admission is this one, and
    /// a warm one the same `transitions` with no `setup`. In
    /// `CcMode::Off` nothing is ever cold, and `setup` is zero.
    pub fn cold_admission(&self) -> Admission {
        let mut scratch = TdContext::new(self.cc, self.calib.clone());
        charge(&mut scratch, self.cc == CcMode::On)
    }

    /// Number of tenants holding an established (attested) session.
    pub fn established(&self) -> usize {
        self.slots.iter().filter(|(_, _, e)| *e).count()
    }

    /// Tears down every established session (end-of-run drain), returning
    /// how many were closed. Conservation accessor for soak-scale leak
    /// audits: after `close_all`, [`SessionPool::established`] is zero and
    /// lifetime establishes equal lifetime closes.
    pub fn close_all(&mut self) -> u64 {
        let mut n = 0;
        for (_, _, established) in &mut self.slots {
            if *established {
                *established = false;
                n += 1;
            }
        }
        self.closed += n;
        n
    }

    /// Asserts the pool has fully drained: no session still established.
    ///
    /// # Errors
    /// A description of the leak.
    pub fn leak_check(&self) -> Result<(), String> {
        let live = self.established();
        if live != 0 {
            return Err(format!("{live} TD sessions still established after drain"));
        }
        Ok(())
    }

    /// Transition counters summed across every tenant context.
    pub fn counters(&self) -> TdCounters {
        let mut sum = TdCounters::default();
        for (_, td, _) in &self.slots {
            let c = td.counters();
            sum.hypercalls += c.hypercalls;
            sum.seamcalls += c.seamcalls;
            sum.pages_converted += c.pages_converted;
            sum.transition_time += c.transition_time;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_admission_pays_the_handshake() {
        let mut pool = SessionPool::new(CcMode::On, TdxCalib::default());
        let cold = pool.admit(1);
        assert!(cold.cold);
        assert!(cold.setup.as_millis_f64() >= 5.0, "handshake-scale setup");
        let warm = pool.admit(1);
        assert!(!warm.cold);
        assert!(warm.setup.is_zero());
        assert!(warm.transitions > SimDuration::ZERO);
        assert!(warm.total() < cold.total() / 10);
        assert_eq!(pool.established(), 1);
    }

    #[test]
    fn tenants_are_isolated_sessions() {
        let mut pool = SessionPool::new(CcMode::On, TdxCalib::default());
        assert!(pool.admit(1).cold);
        assert!(pool.admit(2).cold, "second tenant attests independently");
        assert!(!pool.admit(1).cold);
        assert_eq!(pool.slots.len(), 2);
        assert_eq!(pool.established(), 2);
    }

    #[test]
    fn cc_off_never_attests_but_still_exits() {
        let mut pool = SessionPool::new(CcMode::Off, TdxCalib::default());
        let a = pool.admit(1);
        assert!(!a.cold);
        assert!(a.setup.is_zero());
        // Submission still crosses the guest boundary twice (plain vmexits).
        assert_eq!(a.transitions, TdxCalib::default().vmexit * 2);
        assert_eq!(pool.established(), 0);
        assert_eq!(pool.counters().seamcalls, 0);
    }

    #[test]
    fn counters_aggregate_across_tenants() {
        let mut pool = SessionPool::new(CcMode::On, TdxCalib::default());
        pool.admit(1);
        pool.admit(2);
        pool.admit(1);
        // Per established tenant: 16 handshake + 2 admission hypercalls,
        // plus 2 for tenant 1's warm admission.
        assert_eq!(pool.counters().hypercalls, 18 + 18 + 2);
        assert!(pool.counters().transition_time > SimDuration::ZERO);
    }

    #[test]
    fn flight_split_partitions_the_admission_exactly() {
        let mut pool = SessionPool::new(CcMode::On, TdxCalib::default());
        for tenant in [1, 1, 2] {
            let a = pool.admit(tenant);
            let (spdm, doorbell) = a.flight_split();
            assert_eq!(spdm + doorbell, a.total(), "no gap, no overlap");
            assert_eq!(spdm.is_zero(), !a.cold, "spdm span iff cold start");
            assert!(!doorbell.is_zero(), "every admission rings the pair");
        }
    }

    /// Admission totals and counters, pinned in nanoseconds for the
    /// default calibration and a non-default one, so a change to how
    /// transition costs are computed cannot move them.
    #[test]
    fn admission_costs_are_pinned() {
        let base = TdxCalib::default();
        let custom = TdxCalib {
            vmexit: SimDuration::from_nanos(1_337),
            hypercall_mult: 3.21,
            seamcall: SimDuration::from_nanos(2_900),
            ..base.clone()
        };
        // (calib, mode, cold setup, doorbell pair, hypercalls, transition time)
        let cases = [
            (base.clone(), CcMode::On, 8_327_080, 10_260, 40, 205_200),
            (base, CcMode::Off, 0, 1_800, 8, 7_200),
            (custom.clone(), CcMode::On, 8_313_672, 8_584, 40, 171_680),
            (custom, CcMode::Off, 0, 2_674, 8, 10_696),
        ];
        for (calib, cc, setup, pair, hypercalls, transition) in cases {
            let mut pool = SessionPool::new(cc, calib);
            for (tenant, first) in [(1, true), (1, false), (2, true), (1, false)] {
                let a = pool.admit(tenant);
                let cold = cc == CcMode::On && first;
                assert_eq!(a.cold, cold);
                assert_eq!(a.setup.as_nanos(), if cold { setup } else { 0 });
                assert_eq!(a.transitions.as_nanos(), pair, "{cc:?}");
            }
            let c = pool.counters();
            assert_eq!(c.hypercalls, hypercalls, "{cc:?}");
            assert_eq!((c.seamcalls, c.pages_converted), (0, 0));
            assert_eq!(c.transition_time.as_nanos(), transition, "{cc:?}");
        }
    }

    #[test]
    fn cold_admission_prices_every_admission_without_charging() {
        for cc in CcMode::ALL {
            let mut pool = SessionPool::new(cc, TdxCalib::default());
            let priced = pool.cold_admission();
            assert_eq!(pool.counters(), TdCounters::default(), "{cc:?}");
            assert_eq!(pool.slots.len(), 0);
            assert_eq!(priced.cold, cc == CcMode::On);
            for tenant in [1, 1, 2, 1] {
                let a = pool.admit(tenant);
                assert_eq!(a.transitions, priced.transitions, "{cc:?}");
                let setup = if a.cold {
                    priced.setup
                } else {
                    SimDuration::ZERO
                };
                assert_eq!(a.setup, setup, "{cc:?}");
            }
            assert_eq!(pool.cold_admission(), priced, "admissions do not move it");
        }
    }

    #[test]
    fn admissions_are_deterministic() {
        let run = || {
            let mut pool = SessionPool::new(CcMode::On, TdxCalib::default());
            (pool.admit(7), pool.admit(7), pool.admit(9))
        };
        assert_eq!(run(), run());
    }
}
