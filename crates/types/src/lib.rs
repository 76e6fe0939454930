//! # hcc-types
//!
//! Foundation types shared by every crate in the `hcc` workspace: a virtual
//! clock ([`SimTime`], [`SimDuration`]), byte quantities ([`ByteSize`]),
//! transfer rates ([`Bandwidth`]), a deterministic random-number generator
//! ([`rng::Xoshiro256`]), and the calibration tables ([`calib`]) that anchor
//! the simulator to the numbers reported in the ISPASS 2025 paper
//! *"Dissecting Performance Overheads of Confidential Computing on GPU-based
//! Systems"*.
//!
//! Everything in the workspace measures time in **integer nanoseconds of
//! virtual time** — the simulation never consults the wall clock, so a given
//! (workload, configuration, seed) triple always reproduces the same trace.
//!
//! ```
//! use hcc_types::{ByteSize, Bandwidth, SimDuration};
//!
//! let xfer = ByteSize::mib(256);
//! let pcie = Bandwidth::gb_per_s(26.0);
//! let t: SimDuration = pcie.time_for(xfer);
//! assert!(t.as_millis_f64() > 10.0 && t.as_millis_f64() < 11.0);
//! ```

pub mod calib;
pub mod fault;
pub mod hash;
pub mod json;
pub mod mode;
pub mod planes;
pub mod rng;
mod size;
pub mod slo;
pub mod storm;
mod time;

pub use fault::{
    FaultCounts, FaultInjector, FaultPlan, FaultPlanError, FaultSite, Recovery, RecoveryPolicy,
};
pub use mode::{CcMode, CopyKind, CpuModel, HostMemKind, MemSpace};
pub use planes::Planes;
pub use size::{Bandwidth, ByteSize};
pub use slo::{burn_rate_milli, BurnPair};
pub use storm::{LatencyBudget, StormIntensity, StormProfile, StormSchedule, StormWindow};
pub use time::{SimDuration, SimTime};

/// Result alias used by fallible APIs across the workspace foundation.
pub type Result<T, E = TypeError> = std::result::Result<T, E>;

/// Errors produced by foundation-type constructors and conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TypeError {
    /// A bandwidth of zero or a non-finite rate was supplied where a
    /// positive, finite rate is required.
    InvalidBandwidth(String),
    /// Arithmetic on the virtual clock overflowed `u64` nanoseconds.
    ClockOverflow,
}

impl std::fmt::Display for TypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TypeError::InvalidBandwidth(msg) => write!(f, "invalid bandwidth: {msg}"),
            TypeError::ClockOverflow => write!(f, "virtual clock arithmetic overflowed"),
        }
    }
}

impl std::error::Error for TypeError {}
