//! # hcc-workloads
//!
//! The paper's benchmark population, rebuilt as data-driven programs over
//! the `hcc` runtime: Rodinia, PolyBench/GPU, UVM-Bench, GraphBIG and
//! Tigr selections ([`suites`]), plus the Sec. VII-A microbenchmarks
//! ([`micro`]): fixed-duration sleep kernels, launch trains, the fusion
//! sweep and the stream-overlap harness.
//!
//! Each [`WorkloadSpec`] preserves the published structure that the
//! figures depend on — launch counts (`3dconv` 254, `sc` 1611, `2mm` 2,
//! `dwt2d` 10), copy-then-execute data movement, and a wide KLR spectrum.
//!
//! Experiments are requested through the unified [`Scenario`] API
//! ([`scenario`]): an app selection plus the full `SimConfig`, with a
//! stable [`Scenario::content_hash`] the `hcc-bench` experiment engine
//! uses to memoize each distinct simulation.
//!
//! ```
//! use hcc_runtime::SimConfig;
//! use hcc_types::CcMode;
//! use hcc_workloads::{runner, suites};
//!
//! let spec = suites::by_name("3dconv").expect("known app");
//! assert_eq!(spec.launch_count(), 254);
//! let result = runner::run(&spec, SimConfig::new(CcMode::Off)).unwrap();
//! assert_eq!(result.timeline.launch_metrics().launch_count(), 254);
//! ```

pub mod micro;
pub mod parse;
pub mod runner;
pub mod scenario;
pub mod serving;
pub mod spec;
pub mod suites;

pub use parse::{parse_workload, LiteralError, ParseError, MAX_DECK_KERNEL_TIME};
pub use runner::{run, run_scenario, RunError, RunResult};
pub use scenario::{AppSelector, Scenario};
pub use serving::{default_tenants, RequestClass, TenantSpec};
pub use spec::{Op, Suite, WorkloadSpec};

/// Convenience alias so downstream code can say `Program` for the op list.
pub type Program = Vec<Op>;

#[cfg(test)]
mod integration {
    use super::*;
    use hcc_runtime::SimConfig;
    use hcc_types::CcMode;

    #[test]
    fn every_standard_app_runs_in_both_modes() {
        for spec in suites::all() {
            for cc in CcMode::ALL {
                let r = runner::run(&spec, SimConfig::new(cc))
                    .unwrap_or_else(|e| panic!("{} [{}]: {e}", spec.name, cc));
                assert_eq!(
                    r.timeline.launch_metrics().launch_count() as u64,
                    spec.launch_count(),
                    "{}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn every_uvm_variant_runs_in_both_modes() {
        for name in suites::UVM_VARIANT_APPS {
            let spec = suites::uvm_variant(name).unwrap();
            for cc in CcMode::ALL {
                let r = runner::run(&spec, SimConfig::new(cc))
                    .unwrap_or_else(|e| panic!("{} [{}]: {e}", spec.name, cc));
                assert!(r.uvm.faults > 0, "{name} must fault");
            }
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let spec = suites::by_name("hotspot").unwrap();
        let a = runner::run(&spec, SimConfig::new(CcMode::On)).unwrap();
        let b = runner::run(&spec, SimConfig::new(CcMode::On)).unwrap();
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.end, b.end);
    }
}
