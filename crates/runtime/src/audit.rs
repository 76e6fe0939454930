//! Soak-scale resource-leak auditing.
//!
//! A [`LeakAudit`] snapshots every conserved quantity a finished context
//! must have drained: bounce-pool bytes, in-flight ring entries, UVM
//! migration ledgers, and the fault-recovery accounting. The chaos
//! harness (`hcc_bench::chaos`) aggregates one audit per distinct request
//! shape across millions of virtual-time operations and fails the run on
//! the first imbalance — the forcing function that keeps the runtime
//! leak-free at soak scale.

use hcc_types::{ByteSize, FaultCounts};

/// End-of-run conservation snapshot for one [`crate::CudaContext`].
///
/// Collected after the final synchronize, so every scheduled completion
/// is in the past: anything still "in flight" here is a leak, not work in
/// progress.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LeakAudit {
    /// Bounce-pool bytes still reserved (must be zero).
    pub bounce_in_use: ByteSize,
    /// Lifetime bounce bytes handed out.
    pub bounce_reserved: ByteSize,
    /// Lifetime bounce bytes given back (must equal `bounce_reserved`).
    pub bounce_released: ByteSize,
    /// Command-ring entries still unserviced at the final clock (must be
    /// zero).
    pub ring_in_flight: usize,
    /// Far faults claimed by the GMMU scan.
    pub uvm_faults: u64,
    /// Pages the UVM driver migrated (must equal `uvm_faults`).
    pub uvm_pages_migrated: u64,
    /// Pages that rode a migration batch (must equal
    /// `uvm_pages_migrated`: the batch split drops or double-counts
    /// nothing).
    pub uvm_pages_batched: u64,
    /// Trace events recorded — the arena-growth input for the chaos
    /// harness's bounded-growth check.
    pub events: usize,
    /// Fault-injection ledger for the run.
    pub fault: FaultCounts,
    /// Flight-recorder exemplar entries kept at the end of the soak.
    pub flight_kept: u64,
    /// Tumbling windows the flight recorder populated.
    pub flight_windows: u64,
    /// Configured per-window exemplar budget (`worst + reservoir`);
    /// zero means the flight plane was off and the bound is not
    /// checked.
    pub flight_window_budget: u64,
}

impl LeakAudit {
    /// Asserts every conservation identity. The fault ledger must satisfy
    /// `recovered + degraded + aborted <= injected` — each recovered,
    /// degraded, or aborted operation consumed at least one injected
    /// fault.
    ///
    /// # Errors
    /// A description of the first imbalance found.
    pub fn check(&self) -> Result<(), String> {
        if self.bounce_in_use != ByteSize::ZERO {
            return Err(format!(
                "bounce pool holds {} after final sync",
                self.bounce_in_use
            ));
        }
        if self.bounce_reserved != self.bounce_released {
            return Err(format!(
                "bounce bytes reserved {} != released {}",
                self.bounce_reserved, self.bounce_released
            ));
        }
        if self.ring_in_flight != 0 {
            return Err(format!(
                "{} ring entries in flight after final sync",
                self.ring_in_flight
            ));
        }
        if self.uvm_faults != self.uvm_pages_migrated {
            return Err(format!(
                "uvm faults {} != pages migrated {}",
                self.uvm_faults, self.uvm_pages_migrated
            ));
        }
        if self.uvm_pages_batched != self.uvm_pages_migrated {
            return Err(format!(
                "uvm pages batched {} != pages migrated {}",
                self.uvm_pages_batched, self.uvm_pages_migrated
            ));
        }
        let resolved = self.fault.recovered + self.fault.degraded + self.fault.aborted;
        if resolved > self.fault.injected {
            return Err(format!(
                "fault ledger: resolved {} operations > injected {} faults",
                resolved, self.fault.injected
            ));
        }
        if self.flight_window_budget > 0 {
            let bound = self
                .flight_windows
                .saturating_mul(self.flight_window_budget);
            if self.flight_kept > bound {
                return Err(format!(
                    "flight store keeps {} exemplar entries > bound {} ({} windows x {} budget)",
                    self.flight_kept, bound, self.flight_windows, self.flight_window_budget
                ));
            }
        }
        Ok(())
    }

    /// Merges another audit into this one (used by the chaos harness to
    /// aggregate per-shape audits into a run-level ledger).
    pub fn absorb(&mut self, other: &LeakAudit) {
        self.bounce_in_use += other.bounce_in_use;
        self.bounce_reserved += other.bounce_reserved;
        self.bounce_released += other.bounce_released;
        self.ring_in_flight += other.ring_in_flight;
        self.uvm_faults += other.uvm_faults;
        self.uvm_pages_migrated += other.uvm_pages_migrated;
        self.uvm_pages_batched += other.uvm_pages_batched;
        self.events += other.events;
        self.fault.injected += other.fault.injected;
        self.fault.retries += other.fault.retries;
        self.fault.recovered += other.fault.recovered;
        self.fault.degraded += other.fault.degraded;
        self.fault.aborted += other.fault.aborted;
        self.flight_kept += other.flight_kept;
        self.flight_windows += other.flight_windows;
        // Budgets don't sum: the aggregate bound uses the widest
        // per-window budget any absorbed audit ran under.
        self.flight_window_budget = self.flight_window_budget.max(other.flight_window_budget);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A drained run: every ledger balances and the flight store sits
    /// exactly at its bound.
    fn clean() -> LeakAudit {
        LeakAudit {
            bounce_in_use: ByteSize::ZERO,
            bounce_reserved: ByteSize::mib(2),
            bounce_released: ByteSize::mib(2),
            ring_in_flight: 0,
            uvm_faults: 8,
            uvm_pages_migrated: 8,
            uvm_pages_batched: 8,
            events: 40,
            fault: FaultCounts {
                injected: 3,
                retries: 2,
                recovered: 1,
                degraded: 1,
                aborted: 1,
            },
            flight_kept: 6,
            flight_windows: 3,
            flight_window_budget: 2,
        }
    }

    /// Each rule fires alone: one field perturbed away from the clean
    /// audit fails with that rule's message. The flight bound is not
    /// checked while the flight plane is off (budget 0).
    #[test]
    fn each_rule_fires_on_its_own_imbalance() {
        type Row = (&'static str, fn(&mut LeakAudit), Option<String>);
        let kib4 = ByteSize::kib(4);
        let rows: [Row; 9] = [
            ("clean", |_| {}, None),
            (
                "bounce in use",
                |a| a.bounce_in_use = ByteSize::kib(4),
                Some(format!("bounce pool holds {kib4} after final sync")),
            ),
            (
                "bounce reserved != released",
                |a| a.bounce_released = ByteSize::mib(1),
                Some(format!(
                    "bounce bytes reserved {} != released {}",
                    ByteSize::mib(2),
                    ByteSize::mib(1)
                )),
            ),
            (
                "ring in flight",
                |a| a.ring_in_flight = 1,
                Some("1 ring entries in flight after final sync".into()),
            ),
            (
                "faults != migrated",
                |a| a.uvm_faults = 9,
                Some("uvm faults 9 != pages migrated 8".into()),
            ),
            (
                "batched != migrated",
                |a| a.uvm_pages_batched = 7,
                Some("uvm pages batched 7 != pages migrated 8".into()),
            ),
            (
                "fault ledger",
                |a| a.fault.aborted = 2,
                Some("fault ledger: resolved 4 operations > injected 3 faults".into()),
            ),
            (
                "flight bound, budget > 0",
                |a| a.flight_kept = 7,
                Some(
                    "flight store keeps 7 exemplar entries > bound 6 (3 windows x 2 budget)".into(),
                ),
            ),
            // Six kept entries over three windows would break any bound
            // of zero, but budget 0 means the plane was off.
            (
                "flight bound, budget 0",
                |a| a.flight_window_budget = 0,
                None,
            ),
        ];
        for (name, perturb, expected) in rows {
            let mut audit = clean();
            perturb(&mut audit);
            assert_eq!(audit.check().err(), expected, "{name}");
        }
    }
}
