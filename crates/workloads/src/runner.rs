//! Executes a [`WorkloadSpec`] against a fresh [`CudaContext`] and
//! collects the trace plus substrate statistics.

use hcc_runtime::{
    CudaContext, DevicePtr, HostPtr, KernelDesc, ManagedAccess, ManagedPtr, RuntimeError, SimConfig,
};
use hcc_runtime::{LeakAudit, TdCounters, UvmStats};
use hcc_trace::{CausalGraph, KernelId, MetricsSet, Timeline};
use hcc_types::{FaultCounts, SimTime};

use crate::scenario::{AppSelector, Scenario};
use crate::spec::{Op, WorkloadSpec};

/// Errors from running a workload.
#[derive(Debug)]
#[non_exhaustive]
pub enum RunError {
    /// An operation referenced a slot that was never allocated.
    UnboundSlot {
        /// Which op index failed.
        op_index: usize,
        /// Human-readable slot description.
        what: &'static str,
    },
    /// A scenario named an app no suite defines.
    UnknownApp {
        /// The requested app name.
        name: &'static str,
        /// Whether the UVM-variant table was consulted.
        uvm: bool,
    },
    /// Runtime call failed.
    Runtime(RuntimeError),
    /// The scenario panicked; the engine caught the unwind and converted
    /// it into this structured failure instead of taking down the batch.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnboundSlot { op_index, what } => {
                write!(f, "op {op_index}: unbound {what} slot")
            }
            RunError::UnknownApp { name, uvm } => {
                let table = if *uvm { "UVM variant" } else { "standard app" };
                write!(f, "unknown {table} {name:?}")
            }
            RunError::Runtime(e) => write!(f, "runtime: {e}"),
            RunError::Panicked { message } => write!(f, "panicked: {message}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RuntimeError> for RunError {
    fn from(e: RuntimeError) -> Self {
        RunError::Runtime(e)
    }
}

/// Result of one workload run.
#[derive(Debug)]
pub struct RunResult {
    /// The recorded trace.
    pub timeline: Timeline,
    /// Host-clock completion time (end-to-end `P`).
    pub end: SimTime,
    /// TD transition counters.
    pub td: TdCounters,
    /// UVM driver statistics.
    pub uvm: UvmStats,
    /// Virtual-time metrics snapshot (`None` unless the config enabled
    /// the metrics plane).
    pub metrics: Option<MetricsSet>,
    /// Causal DAG over `timeline` (empty unless the config enabled
    /// causal collection).
    pub causal: CausalGraph,
    /// Fault-injection ledger for the run (all zero under an empty plan).
    pub fault: FaultCounts,
    /// End-of-run conservation snapshot (taken after the final
    /// synchronize; see [`LeakAudit::check`]).
    pub audit: LeakAudit,
}

/// Resolves and runs a [`Scenario`] — the unified entry point the
/// experiment engine in `hcc-bench` fans out and memoizes.
///
/// # Errors
/// Returns [`RunError::UnknownApp`] when a by-name selector resolves to no
/// suite entry, and propagates [`run`] errors otherwise.
pub fn run_scenario(scenario: &Scenario) -> Result<RunResult, RunError> {
    match &scenario.app {
        // Ad-hoc programs run in place, standard apps borrow their
        // catalog entry; neither builds nor clones a spec.
        AppSelector::Adhoc(spec) => run(spec, scenario.cfg.clone()),
        AppSelector::Standard(name) => {
            let spec =
                crate::suites::spec(name).ok_or(RunError::UnknownApp { name, uvm: false })?;
            run(spec, scenario.cfg.clone())
        }
        AppSelector::UvmVariant(name) => {
            let spec =
                crate::suites::uvm_variant(name).ok_or(RunError::UnknownApp { name, uvm: true })?;
            run(&spec, scenario.cfg.clone())
        }
    }
}

/// Handle bindings per spec slot. Slot numbers in suite programs are
/// small dense integers, so a grow-on-demand `Vec<Option<T>>` replaces a
/// `HashMap<usize, T>` on the per-op hot path.
#[derive(Debug)]
struct SlotMap<T>(Vec<Option<T>>);

impl<T: Copy> SlotMap<T> {
    fn new() -> Self {
        SlotMap(Vec::new())
    }

    fn insert(&mut self, slot: usize, value: T) {
        if slot >= self.0.len() {
            self.0.resize_with(slot + 1, || None);
        }
        self.0[slot] = Some(value);
    }

    fn get(&self, slot: usize) -> Option<T> {
        self.0.get(slot).copied().flatten()
    }

    fn remove(&mut self, slot: usize) -> Option<T> {
        self.0.get_mut(slot).and_then(Option::take)
    }
}

/// Runs `spec` under `cfg` to completion (a trailing sync is added if the
/// program does not end with one). This is the thin spec-level shim under
/// [`run_scenario`]; prefer building a [`Scenario`] so results can be
/// shared through the experiment engine's cache.
///
/// # Errors
/// Returns [`RunError`] on malformed programs or runtime failures.
pub fn run(spec: &WorkloadSpec, cfg: SimConfig) -> Result<RunResult, RunError> {
    let mut ctx = CudaContext::new(cfg);
    // Size the trace arena up front: kernels emit up to three events
    // (launch, kernel, sync), transfers up to five (hypercall, bounce,
    // crypto, memcpy, sync), everything else one. Purely a capacity
    // hint — over- or under-shooting changes nothing observable.
    let mut events_hint = 0usize;
    for op in &spec.ops {
        match op {
            Op::Launch { repeat, .. } => events_hint += 3 * *repeat as usize,
            Op::H2D { .. } | Op::D2H { .. } | Op::D2D { .. } => events_hint += 5,
            _ => events_hint += 1,
        }
    }
    ctx.reserve_events(events_hint);
    let stream = ctx.default_stream();
    let mut dev: SlotMap<DevicePtr> = SlotMap::new();
    let mut host: SlotMap<HostPtr> = SlotMap::new();
    let mut managed: SlotMap<ManagedPtr> = SlotMap::new();

    for (i, op) in spec.ops.iter().enumerate() {
        match op {
            Op::MallocHost { slot, size, kind } => {
                host.insert(*slot, ctx.malloc_host(*size, *kind)?);
            }
            Op::MallocDevice { slot, size } => {
                dev.insert(*slot, ctx.malloc_device(*size)?);
            }
            Op::MallocManaged { slot, size } => {
                managed.insert(*slot, ctx.malloc_managed(*size)?);
            }
            Op::H2D { dst, src, bytes } => {
                let d = dev.get(*dst).ok_or(RunError::UnboundSlot {
                    op_index: i,
                    what: "device",
                })?;
                let h = host.get(*src).ok_or(RunError::UnboundSlot {
                    op_index: i,
                    what: "host",
                })?;
                ctx.memcpy_h2d(d, h, *bytes)?;
            }
            Op::D2H { dst, src, bytes } => {
                let h = host.get(*dst).ok_or(RunError::UnboundSlot {
                    op_index: i,
                    what: "host",
                })?;
                let d = dev.get(*src).ok_or(RunError::UnboundSlot {
                    op_index: i,
                    what: "device",
                })?;
                ctx.memcpy_d2h(h, d, *bytes)?;
            }
            Op::D2D { dst, src, bytes } => {
                let d1 = dev.get(*dst).ok_or(RunError::UnboundSlot {
                    op_index: i,
                    what: "device",
                })?;
                let d2 = dev.get(*src).ok_or(RunError::UnboundSlot {
                    op_index: i,
                    what: "device",
                })?;
                ctx.memcpy_d2d(d1, d2, *bytes)?;
            }
            Op::Launch {
                kernel,
                ket,
                managed: slots,
                repeat,
            } => {
                let mut desc = KernelDesc::new(KernelId(*kernel), *ket);
                for s in slots {
                    let m = managed.get(*s).ok_or(RunError::UnboundSlot {
                        op_index: i,
                        what: "managed",
                    })?;
                    desc = desc.with_managed(ManagedAccess::all(m));
                }
                for _ in 0..*repeat {
                    ctx.launch_kernel(&desc, stream)?;
                }
            }
            Op::Sync => {
                ctx.synchronize();
            }
            Op::FreeDevice { slot } => {
                let d = dev.remove(*slot).ok_or(RunError::UnboundSlot {
                    op_index: i,
                    what: "device",
                })?;
                ctx.free_device(d)?;
            }
            Op::FreeHost { slot } => {
                let h = host.remove(*slot).ok_or(RunError::UnboundSlot {
                    op_index: i,
                    what: "host",
                })?;
                ctx.free_host(h)?;
            }
            Op::FreeManaged { slot } => {
                let m = managed.remove(*slot).ok_or(RunError::UnboundSlot {
                    op_index: i,
                    what: "managed",
                })?;
                ctx.free_managed(m)?;
            }
            Op::Crash { message } => panic!("{message}"),
        }
    }
    ctx.synchronize();
    let end = ctx.now();
    let td = ctx.td_counters();
    let uvm = ctx.uvm_stats();
    let metrics = ctx.metrics_snapshot();
    let fault = ctx.fault_counts();
    let audit = ctx.leak_audit();
    let (mut timeline, causal) = ctx.into_trace();
    // The hint above over-reserves; a finished run keeps no spare slots.
    timeline.shrink_to_fit();
    Ok(RunResult {
        timeline,
        end,
        td,
        uvm,
        metrics,
        causal,
        fault,
        audit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Suite;
    use hcc_types::{ByteSize, CcMode, HostMemKind, SimDuration};

    fn toy_spec() -> WorkloadSpec {
        WorkloadSpec::micro(
            "toy",
            vec![
                Op::MallocHost {
                    slot: 0,
                    size: ByteSize::mib(4),
                    kind: HostMemKind::Pageable,
                },
                Op::MallocDevice {
                    slot: 0,
                    size: ByteSize::mib(4),
                },
                Op::H2D {
                    dst: 0,
                    src: 0,
                    bytes: ByteSize::mib(4),
                },
                Op::Launch {
                    kernel: 0,
                    ket: SimDuration::micros(500),
                    managed: vec![],
                    repeat: 10,
                },
                Op::D2H {
                    dst: 0,
                    src: 0,
                    bytes: ByteSize::mib(4),
                },
                Op::FreeDevice { slot: 0 },
                Op::FreeHost { slot: 0 },
            ],
        )
    }

    #[test]
    fn toy_runs_and_produces_metrics() {
        let r = run(&toy_spec(), SimConfig::new(CcMode::Off)).unwrap();
        let lm = r.timeline.launch_metrics();
        assert_eq!(lm.launch_count(), 10);
        let mm = r.timeline.mem_metrics();
        assert_eq!(mm.copy_bytes, ByteSize::mib(8));
        assert!(r.end > SimTime::ZERO);
    }

    #[test]
    fn cc_run_is_slower_end_to_end() {
        let base = run(&toy_spec(), SimConfig::new(CcMode::Off)).unwrap();
        let cc = run(&toy_spec(), SimConfig::new(CcMode::On)).unwrap();
        assert!(cc.end > base.end);
        assert!(cc.td.hypercalls > base.td.hypercalls);
    }

    #[test]
    fn unbound_slot_is_reported() {
        let spec = WorkloadSpec::micro(
            "bad",
            vec![Op::H2D {
                dst: 0,
                src: 0,
                bytes: ByteSize::mib(1),
            }],
        );
        let err = run(&spec, SimConfig::new(CcMode::Off)).unwrap_err();
        assert!(matches!(err, RunError::UnboundSlot { op_index: 0, .. }));
    }

    #[test]
    fn scenario_path_matches_spec_path() {
        let scn = Scenario::adhoc(toy_spec(), SimConfig::new(CcMode::On));
        let via_scenario = run_scenario(&scn).unwrap();
        let via_spec = run(&toy_spec(), SimConfig::new(CcMode::On)).unwrap();
        assert_eq!(via_scenario.timeline, via_spec.timeline);
        assert_eq!(via_scenario.end, via_spec.end);
    }

    #[test]
    fn catalog_scenarios_match_their_adhoc_copies() {
        for app in crate::suites::all() {
            for cc in [CcMode::Off, CcMode::On] {
                let cfg = SimConfig::new(cc);
                let by_name = run_scenario(&Scenario::standard(app.name, cfg.clone())).unwrap();
                let inline = run_scenario(&Scenario::adhoc(app.clone(), cfg)).unwrap();
                assert_eq!(by_name.timeline, inline.timeline, "{} [{cc}]", app.name);
                assert_eq!(by_name.end, inline.end, "{} [{cc}]", app.name);
                assert_eq!(by_name.audit, inline.audit, "{} [{cc}]", app.name);
            }
        }
    }

    #[test]
    fn unknown_scenario_app_is_reported() {
        let err = run_scenario(&Scenario::standard("no-such", SimConfig::default())).unwrap_err();
        assert!(matches!(err, RunError::UnknownApp { uvm: false, .. }));
        let err =
            run_scenario(&Scenario::uvm_variant("no-such", SimConfig::default())).unwrap_err();
        assert!(matches!(err, RunError::UnknownApp { uvm: true, .. }));
    }

    #[test]
    fn managed_workload_records_uvm_stats() {
        let spec = WorkloadSpec {
            name: "uvm-toy",
            suite: Suite::UvmBench,
            uvm: true,
            ops: vec![
                Op::MallocManaged {
                    slot: 0,
                    size: ByteSize::mib(8),
                },
                Op::Launch {
                    kernel: 0,
                    ket: SimDuration::micros(100),
                    managed: vec![0],
                    repeat: 1,
                },
                Op::FreeManaged { slot: 0 },
            ],
        };
        let r = run(&spec, SimConfig::new(CcMode::Off)).unwrap();
        assert!(r.uvm.faults > 0);
        assert!(r.uvm.bytes_migrated >= ByteSize::mib(8));
    }
}
