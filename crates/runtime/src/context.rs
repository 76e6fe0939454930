//! The simulated CUDA runtime context: allocation, transfers, kernel
//! launches, streams, and synchronization over the TD + GPU substrates.

use hcc_crypto::gcm::AesGcm;
use hcc_crypto::{CryptoAlgorithm, SoftCryptoModel};
use hcc_gpu::{DeviceMemError, DevicePtr, GpuDevice, ManagedId, Resource};
use hcc_tee::{BounceBufferPool, BounceError, TdContext, TdCounters};
use hcc_trace::metrics::overlap_time;
use hcc_trace::{
    CausalEdge, CausalGraph, EdgeKind, EventId, EventKind, Gauge, HypercallReason, KernelId,
    MetricsSet, StreamId, Timeline, TraceEvent,
};
use hcc_types::hash::{FnvHashMap, FnvHashSet};
use hcc_types::rng::Xoshiro256;
use hcc_types::{
    ByteSize, CcMode, CopyKind, FaultCounts, FaultInjector, FaultSite, HostMemKind, MemSpace,
    Planes, Recovery, SimDuration, SimTime,
};
use hcc_uvm::{UvmDriver, UvmError, UvmStats};

use crate::audit::LeakAudit;
use crate::config::SimConfig;
use crate::handles::{HostPtr, KernelDesc, ManagedPtr};

/// Errors surfaced by the runtime API.
#[derive(Debug)]
#[non_exhaustive]
pub enum RuntimeError {
    /// Device memory failure (OOM, bad pointer, bounds).
    DeviceMem(DeviceMemError),
    /// Host pointer not produced by this context (or freed).
    UnknownHostPtr(HostPtr),
    /// Managed pointer not produced by this context (or freed).
    UnknownManagedPtr(ManagedPtr),
    /// Stream handle not produced by this context.
    UnknownStream(StreamId),
    /// Copy length exceeds an endpoint allocation.
    CopyTooLarge {
        /// Requested bytes.
        requested: ByteSize,
        /// Size of the limiting allocation.
        available: ByteSize,
    },
    /// UVM driver failure.
    Uvm(UvmError),
    /// Bounce-buffer failure.
    Bounce(BounceError),
    /// Functional decryption failed (data corrupted in transit).
    Integrity,
    /// Timing-event handle not recorded by this context.
    UnknownEvent(u64),
    /// An injected fault exhausted its recovery budget at a site with no
    /// typed error of its own (e.g. the channel-ring doorbell).
    Unrecoverable {
        /// Site whose recovery gave up.
        site: FaultSite,
        /// Failed attempts, counting the initial one.
        attempts: u32,
    },
    /// The context has issued all 2³² − 1 launch correlation ids (the
    /// trace's correlation column is 32-bit, as CUPTI's).
    CorrelationExhausted,
    /// One launch migrated more UVM pages, or pages of a larger size,
    /// than the trace's 32-bit `UvmFault` fields count. The driver has
    /// migrated the pages by then; the kernel is not submitted.
    UvmFaultTooLarge {
        /// Pages the launch migrated.
        pages: u64,
        /// The context's UVM page size.
        page_size: ByteSize,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::DeviceMem(e) => write!(f, "device memory: {e}"),
            RuntimeError::UnknownHostPtr(p) => write!(f, "unknown host pointer {p}"),
            RuntimeError::UnknownManagedPtr(p) => write!(f, "unknown managed pointer {p}"),
            RuntimeError::UnknownStream(s) => write!(f, "unknown stream {s}"),
            RuntimeError::CopyTooLarge {
                requested,
                available,
            } => {
                write!(f, "copy of {requested} exceeds allocation of {available}")
            }
            RuntimeError::Uvm(e) => write!(f, "uvm: {e}"),
            RuntimeError::Bounce(e) => write!(f, "bounce: {e}"),
            RuntimeError::Integrity => f.write_str("integrity check failed in transit"),
            RuntimeError::UnknownEvent(id) => write!(f, "unknown timing event ev{id}"),
            RuntimeError::Unrecoverable { site, attempts } => {
                write!(f, "unrecoverable {site} fault after {attempts} attempts")
            }
            RuntimeError::CorrelationExhausted => {
                write!(f, "launch correlation ids exhausted after {}", u32::MAX)
            }
            RuntimeError::UvmFaultTooLarge { pages, page_size } => write!(
                f,
                "launch migrated {pages} pages of {page_size}: a trace event counts \
                 at most {} pages of at most {}",
                u32::MAX,
                ByteSize::bytes(u64::from(u32::MAX))
            ),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::DeviceMem(e) => Some(e),
            RuntimeError::Uvm(e) => Some(e),
            RuntimeError::Bounce(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeviceMemError> for RuntimeError {
    fn from(e: DeviceMemError) -> Self {
        RuntimeError::DeviceMem(e)
    }
}

impl From<UvmError> for RuntimeError {
    fn from(e: UvmError) -> Self {
        RuntimeError::Uvm(e)
    }
}

impl From<BounceError> for RuntimeError {
    fn from(e: BounceError) -> Self {
        RuntimeError::Bounce(e)
    }
}

/// Result alias for runtime calls.
pub type Result<T> = std::result::Result<T, RuntimeError>;

#[derive(Debug, Clone, Copy)]
struct HostAlloc {
    size: ByteSize,
    kind: HostMemKind,
}

/// The breakdown of a planned transfer (internal).
#[derive(Debug, Clone, Copy)]
struct CopyPlan {
    /// Host-side pre-work before DMA can start (staging, setup).
    pre: SimDuration,
    /// CPU crypto time (CC only), serialized on the crypto engine.
    crypto: SimDuration,
    /// Device copy-engine occupancy.
    dma: SimDuration,
    /// How Nsight would label the transfer.
    label: CopyKind,
    /// The true direction (the label may lie under CC pinned demotion) —
    /// selects which GCM fault site guards the transfer.
    dir: CopyKind,
    /// Whether Nsight would tag it "Managed" (CC pinned demotion).
    managed: bool,
    /// Hypercalls charged (CC DMA mapping).
    hypercalls: u32,
}

/// The simulated CUDA runtime for one guest + one GPU.
///
/// All calls advance a host-thread virtual clock; device work lands on
/// engine clocks; every operation is recorded in a [`Timeline`].
///
/// ```
/// use hcc_runtime::{CudaContext, SimConfig};
/// use hcc_types::{ByteSize, CcMode, HostMemKind};
///
/// let mut ctx = CudaContext::new(SimConfig::new(CcMode::On));
/// let h = ctx.malloc_host(ByteSize::mib(8), HostMemKind::Pinned).unwrap();
/// let d = ctx.malloc_device(ByteSize::mib(8)).unwrap();
/// ctx.memcpy_h2d(d, h, ByteSize::mib(8)).unwrap();
/// ctx.synchronize();
/// assert!(ctx.timeline().len() >= 3);
/// ```
#[derive(Debug)]
pub struct CudaContext {
    cfg: SimConfig,
    clock: SimTime,
    gpu: GpuDevice,
    td: TdContext,
    bounce: BounceBufferPool,
    uvm: UvmDriver,
    crypto: SoftCryptoModel,
    crypto_engine: Resource,
    timeline: Timeline,
    rng: Xoshiro256,
    next_correlation: u64,
    seen_kernels: SeenKernels,
    host_allocs: FnvHashMap<HostPtr, HostAlloc>,
    next_host: u64,
    /// Managed allocations, indexed by `ManagedPtr(n)` at slot `n - 1`
    /// (handles are issued sequentially from 1; freed slots go `None`).
    managed_allocs: Vec<Option<ByteSize>>,
    next_managed: u64,
    /// Per-stream completion clock, indexed by `StreamId.0` (stream
    /// handles are issued densely from 0 and never destroyed).
    streams: Vec<SimTime>,
    /// Host buffers whose DMA (bounce) mapping already exists; repeat
    /// copies reuse it instead of re-paying the map hypercalls.
    dma_mapped: FnvHashSet<HostPtr>,
    /// AES-GCM session keys, expanded on first functional-path use —
    /// the workload suite never pays the key schedule.
    gcm: std::cell::OnceCell<AesGcm>,
    faults: FaultInjector,
    causal: CausalGraph,
    /// Latest device-side event queued per stream (same indexing as
    /// `streams`) — the gating predecessor for stream-order causal edges
    /// and sync releases.
    last_stream_event: Vec<Option<EventId>>,
    /// Reused per-launch scratch for hypercall span costs (60% of
    /// launches trap on the doorbell; a fresh Vec each time would be a
    /// heap allocation on the hottest path).
    hypercall_scratch: Vec<SimDuration>,
    /// Observability planes in effect, resolved once at construction:
    /// config planes plus [`Planes::FAULT`] when the fault plan is
    /// non-empty. Hot emission sites test this single mask instead of
    /// re-deriving per-plane booleans.
    enabled: Planes,
}

/// First-launch tracking per kernel function. Workload kernel ids are
/// small and dense, so the common case is a single bitmap word test;
/// arbitrary ids fall back to a hash set.
#[derive(Debug, Default)]
struct SeenKernels {
    dense: Vec<u64>,
    sparse: FnvHashSet<u32>,
}

impl SeenKernels {
    const DENSE_LIMIT: u32 = 4096;

    /// Marks `id` seen; returns `true` the first time.
    fn first_seen(&mut self, id: u32) -> bool {
        if id < Self::DENSE_LIMIT {
            let w = (id / 64) as usize;
            if self.dense.len() <= w {
                self.dense.resize(w + 1, 0);
            }
            let bit = 1u64 << (id % 64);
            let first = self.dense[w] & bit == 0;
            self.dense[w] |= bit;
            first
        } else {
            self.sparse.insert(id)
        }
    }
}

impl CudaContext {
    /// Creates a context (binds the GPU in the configured mode).
    pub fn new(cfg: SimConfig) -> Self {
        let mut gpu = GpuDevice::new(&cfg.calib().gpu, cfg.cc, cfg.hbm);
        let td = TdContext::new(cfg.cc, cfg.calib().tdx.clone());
        let mut bounce = BounceBufferPool::new(cfg.calib().tdx.bounce_pool);
        let mut uvm = UvmDriver::new(cfg.calib().uvm.clone(), cfg.cc);
        let mut crypto_engine = Resource::default();
        let enabled = cfg.planes.set(Planes::FAULT, !cfg.fault.is_empty());
        if enabled.contains(Planes::METRICS) {
            gpu.enable_metrics();
            bounce.enable_metrics();
            uvm.enable_metrics();
            crypto_engine.enable_metrics();
        }
        let crypto = SoftCryptoModel::new(cfg.cpu);
        let mut td = td;
        let mut attest_time = SimDuration::ZERO;
        if cfg.attest_at_creation {
            // Cold start: the SPDM handshake (Sec. III) runs before any
            // CUDA call can touch the device.
            let session = hcc_tee::SpdmSession::establish(&mut td);
            attest_time = session.total_time;
        }
        // The injector draws from its own stream, so an empty plan leaves
        // every jitter draw — and thus every figure — bit-identical.
        let faults = FaultInjector::new(cfg.fault.clone(), cfg.recovery.clone(), cfg.seed);
        // Different modes are different physical runs: decorrelate their
        // jitter streams so per-app ratios fluctuate like real pairs of
        // measurements (visible in Fig. 7b's sub-1.0 LQT entries).
        let seed = match cfg.cc {
            CcMode::Off => cfg.seed,
            CcMode::On => cfg
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0xCC),
        };
        CudaContext {
            rng: Xoshiro256::seed_from_u64(seed),
            gpu,
            td,
            bounce,
            uvm,
            crypto,
            crypto_engine,
            timeline: Timeline::new(),
            next_correlation: 1,
            seen_kernels: SeenKernels::default(),
            host_allocs: FnvHashMap::default(),
            next_host: 0x1000,
            managed_allocs: Vec::new(),
            next_managed: 1,
            streams: vec![SimTime::ZERO],
            dma_mapped: FnvHashSet::default(),
            clock: SimTime::ZERO + attest_time,
            causal: CausalGraph::new(cfg.causal_enabled()),
            last_stream_event: vec![None],
            hypercall_scratch: Vec::new(),
            enabled,
            cfg,
            gcm: std::cell::OnceCell::new(),
            faults,
        }
    }

    /// Current host-thread virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The trace recorded so far.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Consumes the context, returning its trace.
    pub fn into_timeline(self) -> Timeline {
        self.timeline
    }

    /// The causal DAG recorded so far (empty unless the causal plane is
    /// enabled in `cfg.planes`).
    pub fn causal_graph(&self) -> &CausalGraph {
        &self.causal
    }

    /// Consumes the context, returning its trace and causal graph.
    pub fn into_trace(self) -> (Timeline, CausalGraph) {
        (self.timeline, self.causal)
    }

    /// TD transition counters (hypercalls, conversions).
    pub fn td_counters(&self) -> TdCounters {
        self.td.counters()
    }

    /// UVM driver statistics.
    pub fn uvm_stats(&self) -> UvmStats {
        self.uvm.stats()
    }

    /// Running totals of fault-injector decisions (injections, retries,
    /// recoveries) for this context.
    pub fn fault_counts(&self) -> FaultCounts {
        self.faults.counts()
    }

    /// Read access to the simulated GPU.
    pub fn gpu(&self) -> &GpuDevice {
        &self.gpu
    }

    /// End-of-run conservation snapshot across every layer this context
    /// owns. Meaningful after the final synchronize (in-flight work reads
    /// as a leak before then); see [`LeakAudit::check`] for the
    /// identities asserted.
    pub fn leak_audit(&self) -> LeakAudit {
        let (bounce_reserved, bounce_released) = self.bounce.byte_totals();
        LeakAudit {
            bounce_in_use: self.bounce.in_use(),
            bounce_reserved,
            bounce_released,
            ring_in_flight: self.gpu.command_processor().in_flight_at(self.clock),
            uvm_faults: self.uvm.stats().faults,
            uvm_pages_migrated: self.uvm.stats().pages_migrated,
            uvm_pages_batched: self.uvm.pages_batched(),
            events: self.timeline.len(),
            fault: self.faults.counts(),
            // The flight plane lives in the serving layer; per-context
            // audits carry no exemplar store (budget 0 disables the
            // bound check until the chaos harness fills these in).
            flight_kept: 0,
            flight_windows: 0,
            flight_window_budget: 0,
        }
    }

    /// Assembles the virtual-time metrics snapshot for this run, or
    /// `None` when the metrics plane is disabled.
    ///
    /// Component-owned instruments (engine FIFOs, CP ring occupancy,
    /// bounce pool, UVM driver, CPU crypto engine) export what they
    /// recorded while scheduling. Runtime-level activity gauges — launch
    /// and kernel queues, in-flight launches, copy/kernel/crypto
    /// activity — are *derived from the timeline at snapshot time*, so
    /// they cost nothing on the hot path and their integrals agree
    /// exactly with [`hcc_trace::Timeline::phase_totals`]: the
    /// attribution audit (Σ queue-time ≈ LQT + KQT) relies on this.
    pub fn metrics_snapshot(&self) -> Option<MetricsSet> {
        if !self.enabled.contains(Planes::METRICS) {
            return None;
        }
        let mut set = MetricsSet::new();
        self.gpu.export_metrics(&mut set);
        self.bounce.export_metrics(&mut set);
        self.uvm.export_metrics(&mut set);
        self.crypto_engine.export_metrics("tee.crypto", &mut set);

        let lm = self.timeline.launch_metrics();
        let mut launch_queue = Gauge::enabled();
        let mut launch_active = Gauge::enabled();
        let mut inflight = Gauge::enabled();
        let mut launch_window: FnvHashMap<u32, SimTime> = FnvHashMap::default();
        for l in &lm.launches {
            launch_queue.occupy(l.start - l.lqt, l.start);
            launch_active.occupy(l.start, l.start + l.klo);
            launch_window.insert(l.correlation, l.start - l.lqt);
        }
        let mut kernel_queue = Gauge::enabled();
        let mut kernel_active = Gauge::enabled();
        for k in &lm.kernels {
            kernel_queue.occupy(k.start - k.kqt, k.start);
            kernel_active.occupy(k.start, k.start + k.ket);
            if let Some(&from) = launch_window.get(&k.correlation) {
                // A launch is "in flight" from the moment the host starts
                // queuing it until its kernel retires.
                inflight.occupy(from, k.start + k.ket);
            }
        }
        let mut copy_active = Gauge::enabled();
        let mut crypto_active = Gauge::enabled();
        for e in self.timeline.events() {
            match e.kind {
                EventKind::Memcpy { .. } => copy_active.occupy(e.start, e.end),
                EventKind::Crypto { .. } => crypto_active.occupy(e.start, e.end),
                _ => {}
            }
        }
        let copy_s = copy_active.series("runtime.copy_active");
        let kernel_s = kernel_active.series("runtime.kernel_active");
        let crypto_s = crypto_active.series("runtime.crypto_active");
        // The Fig. 3 α/β overlap terms: time transfers (and their CPU
        // crypto) spend hidden underneath kernel execution.
        set.push_counter(
            "runtime.overlap.copy_kernel_ns",
            overlap_time(&copy_s, &kernel_s).as_nanos(),
        );
        set.push_counter(
            "runtime.overlap.crypto_kernel_ns",
            overlap_time(&crypto_s, &kernel_s).as_nanos(),
        );
        set.push_series(launch_queue.series("runtime.launch_queue"));
        set.push_series(launch_active.series("runtime.launch_active"));
        set.push_series(kernel_queue.series("runtime.kernel_queue"));
        set.push_series(kernel_s);
        set.push_series(copy_s);
        set.push_series(crypto_s);
        set.push_series(inflight.series("runtime.inflight"));
        Some(set)
    }

    fn advance(&mut self, d: SimDuration) {
        self.clock += d;
    }

    /// Reserves trace-arena room for roughly `n` more events. A pure
    /// capacity hint: callers that know a program's size (the workload
    /// runner) use it to avoid arena regrowth; behaviour is unchanged.
    pub fn reserve_events(&mut self, n: usize) {
        self.timeline.reserve(n);
    }

    /// Completion time of work queued on a stream so far.
    pub(crate) fn stream_ready_time(&self, stream: StreamId) -> Result<SimTime> {
        self.streams
            .get(stream.0 as usize)
            .copied()
            .ok_or(RuntimeError::UnknownStream(stream))
    }

    fn record(&mut self, kind: EventKind, start: SimTime, end: SimTime) -> EventId {
        self.timeline.push(TraceEvent::new(kind, start, end))
    }

    // ------------------------------------------------------------------
    // Memory management (Fig. 6)
    // ------------------------------------------------------------------

    fn management_cost(&mut self, base: SimDuration, cc_mult: f64) -> SimDuration {
        let a = &self.cfg.calib().alloc;
        let jitter = self.rng.jitter(a.jitter_frac);
        let cost = base.scale(jitter);
        match self.cfg.cc {
            CcMode::Off => cost,
            CcMode::On => cost.scale(cc_mult),
        }
    }

    fn size_scaled(base: SimDuration, per_gib: SimDuration, size: ByteSize) -> SimDuration {
        base + per_gib.scale(size.as_f64() / (1u64 << 30) as f64)
    }

    /// `cudaMalloc`: reserves device memory.
    ///
    /// # Errors
    /// Returns [`RuntimeError::DeviceMem`] when HBM capacity is exceeded.
    pub fn malloc_device(&mut self, size: ByteSize) -> Result<DevicePtr> {
        let a = self.cfg.calib().alloc.clone();
        let base = Self::size_scaled(a.dmalloc_base, a.dmalloc_per_gib, size);
        let cost = self.management_cost(base, a.cc_dmalloc_mult);
        let start = self.clock;
        self.advance(cost);
        let ptr = self.gpu.hbm_mut().alloc(size)?;
        self.record(
            EventKind::Alloc {
                space: MemSpace::Device,
                bytes: size,
            },
            start,
            self.clock,
        );
        Ok(ptr)
    }

    /// `cudaMallocHost` (pinned) or plain `malloc` (pageable).
    ///
    /// Under CC, pinned memory cannot be exposed to the device (TDX
    /// isolation), so the runtime still hands out a "pinned" handle but
    /// transfers through it ride the managed/encrypted-paging path —
    /// Observation 1.
    ///
    /// # Errors
    /// Currently infallible but returns `Result` for API stability.
    pub fn malloc_host(&mut self, size: ByteSize, kind: HostMemKind) -> Result<HostPtr> {
        let a = self.cfg.calib().alloc.clone();
        let ptr = HostPtr(self.next_host);
        self.next_host += size.align_up(ByteSize::bytes(4096)).as_u64().max(4096);
        self.host_allocs.insert(ptr, HostAlloc { size, kind });
        match kind {
            HostMemKind::Pageable => {
                // libc malloc: sub-microsecond, invisible to the CUDA trace.
                self.advance(SimDuration::from_nanos(800));
            }
            HostMemKind::Pinned => {
                let base = Self::size_scaled(a.hmalloc_base, a.hmalloc_per_gib, size);
                let cost = self.management_cost(base, a.cc_hmalloc_mult);
                let start = self.clock;
                self.advance(cost);
                self.record(
                    EventKind::Alloc {
                        space: MemSpace::Host,
                        bytes: size,
                    },
                    start,
                    self.clock,
                );
            }
        }
        Ok(ptr)
    }

    /// `cudaMallocManaged`: creates a managed (UVM) range, initially
    /// host-resident.
    ///
    /// # Errors
    /// Currently infallible but returns `Result` for API stability.
    pub fn malloc_managed(&mut self, size: ByteSize) -> Result<ManagedPtr> {
        let a = self.cfg.calib().alloc.clone();
        let base = Self::size_scaled(a.dmalloc_base, a.dmalloc_per_gib, size)
            .scale(a.managed_alloc_factor);
        let cost = self.management_cost(base, a.cc_managed_alloc_mult);
        let start = self.clock;
        self.advance(cost);
        let ptr = ManagedPtr(self.next_managed);
        self.next_managed += 1;
        self.managed_allocs.push(Some(size));
        self.gpu
            .gmmu_mut()
            .register(ManagedId(ptr.0), size, self.cfg.calib().uvm.page);
        self.record(
            EventKind::Alloc {
                space: MemSpace::Managed,
                bytes: size,
            },
            start,
            self.clock,
        );
        Ok(ptr)
    }

    /// `cudaFree` for device memory.
    ///
    /// # Errors
    /// Returns [`RuntimeError::DeviceMem`] for unknown pointers.
    pub fn free_device(&mut self, ptr: DevicePtr) -> Result<()> {
        let a = self.cfg.calib().alloc.clone();
        let cost = self.management_cost(a.free_base, a.cc_free_mult);
        let start = self.clock;
        self.advance(cost);
        let size = self.gpu.hbm_mut().free(ptr)?;
        self.record(
            EventKind::Free {
                space: MemSpace::Device,
                bytes: size,
            },
            start,
            self.clock,
        );
        Ok(())
    }

    /// `cudaFreeHost` / `free` for host memory.
    ///
    /// # Errors
    /// Returns [`RuntimeError::UnknownHostPtr`] for unknown pointers.
    pub fn free_host(&mut self, ptr: HostPtr) -> Result<()> {
        let alloc = self
            .host_allocs
            .remove(&ptr)
            .ok_or(RuntimeError::UnknownHostPtr(ptr))?;
        self.dma_mapped.remove(&ptr);
        match alloc.kind {
            HostMemKind::Pageable => self.advance(SimDuration::from_nanos(600)),
            HostMemKind::Pinned => {
                let a = self.cfg.calib().alloc.clone();
                let cost = self.management_cost(a.free_base, a.cc_free_mult);
                let start = self.clock;
                self.advance(cost);
                self.record(
                    EventKind::Free {
                        space: MemSpace::Host,
                        bytes: alloc.size,
                    },
                    start,
                    self.clock,
                );
            }
        }
        Ok(())
    }

    /// `cudaFree` for managed memory.
    ///
    /// # Errors
    /// Returns [`RuntimeError::UnknownManagedPtr`] for unknown pointers.
    pub fn free_managed(&mut self, ptr: ManagedPtr) -> Result<()> {
        let size = self
            .managed_allocs
            .get_mut((ptr.0 as usize).wrapping_sub(1))
            .and_then(Option::take)
            .ok_or(RuntimeError::UnknownManagedPtr(ptr))?;
        let a = self.cfg.calib().alloc.clone();
        let base = a.free_base.scale(a.managed_free_factor);
        let cost = self.management_cost(base, a.cc_managed_free_mult);
        let start = self.clock;
        self.advance(cost);
        let _ = self.gpu.gmmu_mut().unregister(ManagedId(ptr.0));
        self.record(
            EventKind::Free {
                space: MemSpace::Managed,
                bytes: size,
            },
            start,
            self.clock,
        );
        Ok(())
    }

    /// Size of a live managed allocation.
    ///
    /// # Errors
    /// Returns [`RuntimeError::UnknownManagedPtr`] for unknown pointers.
    pub(crate) fn managed_size(&self, ptr: ManagedPtr) -> Result<ByteSize> {
        self.managed_allocs
            .get((ptr.0 as usize).wrapping_sub(1))
            .copied()
            .flatten()
            .ok_or(RuntimeError::UnknownManagedPtr(ptr))
    }

    // ------------------------------------------------------------------
    // Transfers (Fig. 4a / 5)
    // ------------------------------------------------------------------

    fn plan_copy(&mut self, bytes: ByteSize, host_kind: HostMemKind, dir: CopyKind) -> CopyPlan {
        self.plan_copy_mapped(bytes, host_kind, dir, true)
    }

    fn plan_copy_mapped(
        &mut self,
        bytes: ByteSize,
        host_kind: HostMemKind,
        dir: CopyKind,
        first_map: bool,
    ) -> CopyPlan {
        let p = self.cfg.calib().pcie.clone();
        match (self.cfg.cc, dir) {
            (_, CopyKind::D2D) => CopyPlan {
                pre: SimDuration::from_micros_f64(3.0),
                crypto: SimDuration::ZERO,
                dma: p.d2d.time_for(bytes),
                label: CopyKind::D2D,
                dir: CopyKind::D2D,
                managed: false,
                hypercalls: 0,
            },
            (CcMode::Off, dir) => {
                let dma_rate = match dir {
                    CopyKind::H2D => p.pinned_h2d,
                    _ => p.pinned_d2h,
                };
                let (pre, dma) = match host_kind {
                    HostMemKind::Pinned => (p.dma_setup, dma_rate.time_for(bytes)),
                    HostMemKind::Pageable => (
                        p.dma_setup + p.pageable_setup + p.host_staging.time_for(bytes),
                        dma_rate.time_for(bytes),
                    ),
                };
                CopyPlan {
                    pre,
                    crypto: SimDuration::ZERO,
                    dma,
                    label: dir,
                    dir,
                    managed: false,
                    hypercalls: 0,
                }
            }
            (CcMode::On, dir) => {
                // Both pageable and pinned ride the encrypted bounce path.
                let crypto = self.crypto.time_for_parallel(
                    CryptoAlgorithm::AesGcm128,
                    bytes,
                    self.cfg.crypto_workers,
                );
                let staging = p.bounce_copy.time_for(bytes);
                let dma_rate = match dir {
                    CopyKind::H2D => p.pinned_h2d,
                    _ => p.pinned_d2h,
                };
                let dma = dma_rate.time_for(bytes) + p.gpu_crypto.time_for(bytes);
                // Nsight relabels CC pinned copies as Managed D2D
                // (Observation 1 / Fig. 5's 2dconv note).
                let (label, managed) = match host_kind {
                    HostMemKind::Pinned => (CopyKind::D2D, true),
                    HostMemKind::Pageable => (dir, false),
                };
                CopyPlan {
                    pre: p.cc_transfer_setup + staging,
                    crypto,
                    dma,
                    label,
                    dir,
                    managed,
                    // DMA mappings persist per buffer; only the first
                    // copy through a buffer pays the map hypercalls.
                    hypercalls: if first_map { 2 } else { 0 },
                }
            }
        }
    }

    /// Records a retried recovery at `site`: a zero-width `FaultInjected`
    /// marker at the detection point, then one `Retry` span per backoff
    /// covering the stall plus the re-done work (`rework` each). Links the
    /// chain causally (fault → first retry → … → last retry) and returns
    /// the chain's tail so the caller can point a `RetryToVictim` edge at
    /// the recovered operation.
    fn charge_retries(
        &mut self,
        site: FaultSite,
        backoffs: &[SimDuration],
        rework: SimDuration,
    ) -> EventId {
        let fault_id = self.record(
            EventKind::FaultInjected {
                site,
                attempts: backoffs.len() as u32,
            },
            self.clock,
            self.clock,
        );
        let mut tail = fault_id;
        for (i, b) in backoffs.iter().enumerate() {
            let retry_start = self.clock;
            self.advance(*b + rework);
            let retry_id = self.record(
                EventKind::Retry {
                    site,
                    attempt: i as u32 + 1,
                },
                retry_start,
                self.clock,
            );
            let kind = if i == 0 {
                EdgeKind::FaultToRetry
            } else {
                EdgeKind::RetryChain
            };
            self.causal
                .push(CausalEdge::new(tail, retry_id, kind).with_wait(*b + rework));
            tail = retry_id;
        }
        tail
    }

    /// Charges the extra per-chunk setup a degraded (halved) staging
    /// granularity costs and records the `Degraded` span, returning its id
    /// so the caller can link it to the operation it gates.
    fn charge_degrade(&mut self, site: FaultSite, factor: u32) -> EventId {
        let deg_start = self.clock;
        let extra = self
            .cfg
            .calib()
            .pcie
            .cc_transfer_setup
            .scale(factor.saturating_sub(1) as f64);
        self.advance(extra);
        self.record(EventKind::Degraded { site }, deg_start, self.clock)
    }

    fn execute_blocking_copy(
        &mut self,
        bytes: ByteSize,
        plan: CopyPlan,
    ) -> Result<(SimDuration, Recovery)> {
        let start = self.clock;
        // Events that gate the final transfer; once the umbrella Memcpy
        // event exists, each becomes a typed causal edge into it. The
        // DMA-map hypercall events are pushed back-to-back, so the arena
        // ids form one contiguous run — remembered as (first, count)
        // instead of a heap-allocated id list.
        let mut hc_first: Option<EventId> = None;
        let mut reservation: Option<(hcc_tee::BounceReservation, EventId)> = None;
        let mut crypto_done: Option<(EventId, SimTime)> = None;
        let mut recovery_tails: Vec<EventId> = Vec::new();
        // Hypercalls for DMA mapping (CC only).
        for _ in 0..plan.hypercalls {
            let hc_start = self.clock;
            let cost = self.td.hypercall(HypercallReason::DmaMap.as_str());
            self.advance(cost);
            let id = self.record(
                EventKind::Hypercall {
                    reason: HypercallReason::DmaMap,
                },
                hc_start,
                self.clock,
            );
            hc_first.get_or_insert(id);
        }
        // Bounce staging reservation (chunked; costs mostly on cold pool).
        if self.cfg.cc.is_on() && plan.label != CopyKind::D2D || plan.managed {
            let pcie = &self.cfg.calib().pcie;
            let chunk = pcie.bounce_chunk.min(self.bounce.capacity());
            let stage = bytes.min(chunk);
            if !stage.is_zero() {
                let (r, rec) =
                    self.bounce
                        .reserve_with_faults(&mut self.td, stage, &mut self.faults)?;
                match &rec {
                    Recovery::Retried { backoffs } => {
                        recovery_tails.push(self.charge_retries(
                            FaultSite::BounceExhausted,
                            backoffs,
                            SimDuration::ZERO,
                        ));
                    }
                    Recovery::Degraded { factor } => {
                        recovery_tails
                            .push(self.charge_degrade(FaultSite::BounceExhausted, *factor));
                    }
                    Recovery::Clean | Recovery::Aborted { .. } => {}
                }
                let reserved_at = self.clock;
                self.advance(r.cost);
                // The pool has no clock of its own: the runtime reports
                // the virtual-time window over which the staging chunk
                // was held.
                self.bounce
                    .record_occupancy(reserved_at, self.clock, r.size);
                self.bounce.release(r.size);
                let rid = self.record(
                    EventKind::BounceReserve {
                        bytes: r.size,
                        converted: r.converted,
                    },
                    reserved_at,
                    self.clock,
                );
                reservation = Some((r, rid));
            }
        }
        // CPU crypto (serialized on the crypto engine; the host blocks).
        let mut gcm_recovery = Recovery::Clean;
        if !plan.crypto.is_zero() {
            let slot = self.crypto_engine.schedule(self.clock, plan.crypto);
            let cid = self.record(
                EventKind::Crypto {
                    bytes,
                    encrypt: true,
                },
                slot.start,
                slot.end,
            );
            crypto_done = Some((cid, slot.end));
            self.clock = slot.end;
            // GCM tag verification on the staged chunk. A failed check is
            // detected here: the retry re-encrypts and re-stages one
            // chunk, degrade halves the staging granularity, abort never
            // lands the data.
            let site = match plan.dir {
                CopyKind::H2D => Some(FaultSite::GcmTagH2D),
                CopyKind::D2H => Some(FaultSite::GcmTagD2H),
                CopyKind::D2D => None,
            };
            if let Some(site) = site {
                match self.faults.recover(site) {
                    Recovery::Clean => {}
                    Recovery::Retried { backoffs } => {
                        let chunk = bytes.min(self.cfg.calib().pcie.bounce_chunk);
                        let rework = self.crypto.time_for_parallel(
                            CryptoAlgorithm::AesGcm128,
                            chunk,
                            self.cfg.crypto_workers,
                        ) + self.cfg.calib().pcie.bounce_copy.time_for(chunk);
                        recovery_tails.push(self.charge_retries(site, &backoffs, rework));
                        gcm_recovery = Recovery::Retried { backoffs };
                    }
                    Recovery::Degraded { factor } => {
                        recovery_tails.push(self.charge_degrade(site, factor));
                        gcm_recovery = Recovery::Degraded { factor };
                    }
                    Recovery::Aborted { .. } => return Err(RuntimeError::Integrity),
                }
            }
        }
        // Host-side pre-work (staging copies, setup).
        self.advance(plan.pre);
        // Device DMA leg; host blocks until completion.
        let sched = self.gpu.submit_copy(
            self.clock,
            SimDuration::ZERO,
            self.clock,
            plan.label,
            plan.dma,
        );
        self.gpu.note_copy_bytes(plan.label, bytes);
        self.clock = self.clock.max(sched.xfer.end);
        let total = self.clock - start;
        let copy_id = self.record(
            EventKind::Memcpy {
                kind: plan.label,
                bytes,
                mem: if plan.managed {
                    HostMemKind::Pinned
                } else {
                    HostMemKind::Pageable
                },
                managed: plan.managed,
            },
            start,
            self.clock,
        );
        if let Some(first) = hc_first {
            for i in 0..plan.hypercalls as usize {
                self.causal.push(CausalEdge::new(
                    EventId(first.0 + i),
                    copy_id,
                    EdgeKind::HypercallToStaging,
                ));
            }
        }
        if let Some((r, rid)) = reservation {
            self.causal.push(r.staging_edge(rid, copy_id));
        }
        if let Some((cid, done)) = crypto_done {
            self.causal
                .push(sched.causal_edge(cid, copy_id, EdgeKind::CryptoToStaging, done));
        }
        for tail in recovery_tails {
            self.causal
                .push(CausalEdge::new(tail, copy_id, EdgeKind::RetryToVictim));
        }
        Ok((total, gcm_recovery))
    }

    fn check_copy(&self, bytes: ByteSize, host: HostPtr, dev: DevicePtr) -> Result<HostMemKind> {
        let h = self
            .host_allocs
            .get(&host)
            .ok_or(RuntimeError::UnknownHostPtr(host))?;
        if bytes > h.size {
            return Err(RuntimeError::CopyTooLarge {
                requested: bytes,
                available: h.size,
            });
        }
        let dsize = self.gpu.hbm().size_of(dev)?;
        if bytes > dsize {
            return Err(RuntimeError::CopyTooLarge {
                requested: bytes,
                available: dsize,
            });
        }
        Ok(h.kind)
    }

    /// Blocking `cudaMemcpy` host→device.
    ///
    /// # Errors
    /// Returns [`RuntimeError`] for unknown pointers or oversized copies.
    pub fn memcpy_h2d(
        &mut self,
        dst: DevicePtr,
        src: HostPtr,
        bytes: ByteSize,
    ) -> Result<SimDuration> {
        let kind = self.check_copy(bytes, src, dst)?;
        let first_map = self.dma_mapped.insert(src);
        let plan = self.plan_copy_mapped(bytes, kind, CopyKind::H2D, first_map);
        self.execute_blocking_copy(bytes, plan).map(|(d, _)| d)
    }

    /// Blocking `cudaMemcpy` device→host.
    ///
    /// # Errors
    /// Returns [`RuntimeError`] for unknown pointers or oversized copies.
    pub fn memcpy_d2h(
        &mut self,
        dst: HostPtr,
        src: DevicePtr,
        bytes: ByteSize,
    ) -> Result<SimDuration> {
        let kind = self.check_copy(bytes, dst, src)?;
        let first_map = self.dma_mapped.insert(dst);
        let plan = self.plan_copy_mapped(bytes, kind, CopyKind::D2H, first_map);
        self.execute_blocking_copy(bytes, plan).map(|(d, _)| d)
    }

    /// Blocking `cudaMemcpy` device→device.
    ///
    /// # Errors
    /// Returns [`RuntimeError`] for unknown pointers or oversized copies.
    pub fn memcpy_d2d(
        &mut self,
        dst: DevicePtr,
        src: DevicePtr,
        bytes: ByteSize,
    ) -> Result<SimDuration> {
        for ptr in [dst, src] {
            let size = self.gpu.hbm().size_of(ptr)?;
            if bytes > size {
                return Err(RuntimeError::CopyTooLarge {
                    requested: bytes,
                    available: size,
                });
            }
        }
        let plan = self.plan_copy(bytes, HostMemKind::Pageable, CopyKind::D2D);
        self.execute_blocking_copy(bytes, plan).map(|(d, _)| d)
    }

    /// Asynchronous `cudaMemcpyAsync` on a stream (H2D or D2H). The host
    /// call returns after a small API cost; crypto and DMA are scheduled
    /// on their engines respecting stream order.
    ///
    /// # Errors
    /// Returns [`RuntimeError`] for unknown pointers, streams, or
    /// oversized copies.
    pub fn memcpy_async(
        &mut self,
        dev: DevicePtr,
        host: HostPtr,
        bytes: ByteSize,
        dir: CopyKind,
        stream: StreamId,
    ) -> Result<()> {
        let kind = self.check_copy(bytes, host, dev)?;
        let ready = self.stream_ready_time(stream)?;
        let first_map = self.dma_mapped.insert(host);
        let plan = self.plan_copy_mapped(bytes, kind, dir, first_map);
        // API call cost on the host.
        let api_cost = SimDuration::from_micros_f64(1.6).scale(self.rng.jitter(0.2));
        self.advance(api_cost);
        // Crypto serialized across streams on the CPU crypto engine — the
        // reason overlap is harder under CC (Observation 8).
        let mut data_ready = ready.max(self.clock);
        let mut crypto_done: Option<(EventId, SimTime)> = None;
        if !plan.crypto.is_zero() {
            let slot = self.crypto_engine.schedule(data_ready, plan.crypto);
            let cid = self.record(
                EventKind::Crypto {
                    bytes,
                    encrypt: dir == CopyKind::H2D,
                },
                slot.start,
                slot.end,
            );
            crypto_done = Some((cid, slot.end));
            data_ready = slot.end;
        }
        data_ready += plan.pre;
        let sched = self.gpu.submit_copy(
            self.clock,
            SimDuration::ZERO,
            data_ready,
            plan.label,
            plan.dma,
        );
        self.gpu.note_copy_bytes(plan.label, bytes);
        let copy_id = self.timeline.push(
            TraceEvent::new(
                EventKind::Memcpy {
                    kind: plan.label,
                    bytes,
                    mem: kind,
                    managed: plan.managed,
                },
                sched.xfer.start,
                sched.xfer.end,
            )
            .on_stream(stream),
        );
        if let Some(prev) = self.last_stream_event[stream.0 as usize] {
            self.causal
                .push(sched.causal_edge(prev, copy_id, EdgeKind::StreamOrder, ready));
        }
        if let Some((cid, done)) = crypto_done {
            self.causal
                .push(sched.causal_edge(cid, copy_id, EdgeKind::CryptoToStaging, done));
        }
        self.last_stream_event[stream.0 as usize] = Some(copy_id);
        self.streams[stream.0 as usize] = sched.xfer.end;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Streams and synchronization
    // ------------------------------------------------------------------

    /// Creates a new asynchronous stream.
    pub fn create_stream(&mut self) -> StreamId {
        let id = StreamId(self.streams.len() as u32);
        self.streams.push(self.clock);
        self.last_stream_event.push(None);
        self.advance(SimDuration::from_micros_f64(9.0));
        id
    }

    /// The default (synchronizing) stream.
    pub fn default_stream(&self) -> StreamId {
        StreamId(0)
    }

    /// `cudaDeviceSynchronize`: blocks until all device work completes.
    pub fn synchronize(&mut self) -> SimDuration {
        let target = self
            .streams
            .iter()
            .copied()
            .max()
            .unwrap_or(self.clock)
            .max(self.crypto_engine.next_free());
        self.wait_until(target)
    }

    fn wait_until(&mut self, target: SimTime) -> SimDuration {
        if target > self.clock {
            let start = self.clock;
            self.clock = target;
            let sync_id = self.record(EventKind::Sync, start, target);
            if self.enabled.contains(Planes::CAUSAL) {
                // The device-side completion that released this wait: the
                // queued stream event ending exactly at the sync target
                // (lowest id wins for determinism).
                let release = self
                    .last_stream_event
                    .iter()
                    .copied()
                    .flatten()
                    .filter(|&id| self.timeline.get(id).is_some_and(|e| e.end == target))
                    .min();
                if let Some(done) = release {
                    self.causal.push(
                        CausalEdge::new(done, sync_id, EdgeKind::CompletionToSync)
                            .with_wait(target - start),
                    );
                }
            }
            target - start
        } else {
            // Tiny no-op sync cost.
            self.advance(SimDuration::from_nanos(900));
            SimDuration::ZERO
        }
    }

    // ------------------------------------------------------------------
    // Kernel launch (Fig. 7/8/9/10/11)
    // ------------------------------------------------------------------

    /// `cudaLaunchKernel` on a stream. Returns the correlation id linking
    /// the `Launch` and `Kernel` trace events.
    ///
    /// # Errors
    /// Returns [`RuntimeError`] for unknown streams or managed pointers,
    /// once the context's 32-bit correlation ids run out, and for a
    /// launch migrating more UVM pages than a trace event counts.
    pub fn launch_kernel(&mut self, desc: &KernelDesc, stream: StreamId) -> Result<u32> {
        let stream_ready = self.stream_ready_time(stream)?;
        let corr =
            u32::try_from(self.next_correlation).map_err(|_| RuntimeError::CorrelationExhausted)?;
        self.next_correlation += 1;
        let first = self.seen_kernels.first_seen(desc.id.0);

        // --- Host work between launches (measured as LQT) and the
        // driver-side KLO shape: one fused pair of lognormal draws
        // (bit-identical to two sequential draws). ---
        let lc = self.cfg.calib().launch.clone();
        let (gap_factor, klo_factor) = self.rng.lognormal_pair(lc.gap_sigma, lc.klo_sigma);
        let mut gap = lc.inter_launch_gap.scale(gap_factor);
        if self.cfg.cc.is_on() {
            gap = gap.scale(lc.cc_gap_mult);
        }
        self.advance(gap);

        // --- Driver-side work (the KLO span). ---
        let mut klo = lc.klo_base.scale(klo_factor);
        if let Some(spike) = self
            .rng
            .spike(lc.spike_prob, lc.spike_range.0, lc.spike_range.1)
        {
            klo = lc.klo_base.scale(spike);
        }
        let mut hypercall_spans = std::mem::take(&mut self.hypercall_scratch);
        hypercall_spans.clear();
        if first {
            klo += match self.cfg.cc {
                CcMode::Off => lc.first_launch_extra,
                CcMode::On => lc.first_launch_extra.scale(lc.cc_first_mult),
            };
            if self.cfg.cc.is_on() {
                for _ in 0..lc.first_launch_hypercalls {
                    let cost = self.td.hypercall(HypercallReason::LaunchSetup.as_str());
                    hypercall_spans.push(cost);
                    klo += cost;
                }
                // Occasional bounce/page-conversion storm on first
                // launches — the Fig. 7a outlier mechanism.
                if self.rng.next_f64() < lc.cc_first_spike_prob {
                    let (lo, hi) = lc.cc_first_spike_us;
                    let storm = lo + (hi - lo) * self.rng.next_f64();
                    klo += SimDuration::from_micros_f64(storm);
                }
            }
        }
        if self.rng.next_f64() < lc.doorbell_trap_prob {
            // The doorbell MMIO write exits the guest: a cheap vmexit in a
            // VM, a full #VE → tdx_hypercall in a TD.
            let cost = self.td.hypercall(HypercallReason::Doorbell.as_str());
            hypercall_spans.push(cost);
            klo += cost;
        }

        // --- Managed-access fault servicing (UVM kernels). ---
        let mut ket = desc
            .ket
            .scale(self.rng.jitter(self.cfg.calib().gpu.ket_jitter));
        if self.cfg.cc.is_on() {
            ket = ket.scale(self.cfg.calib().gpu.cc_ket_factor);
        }
        let mut fault_time = SimDuration::ZERO;
        let mut fault_pages = 0u64;
        // Injected-migration retries: per access, the lost time of each
        // failed attempt (backoff plus one re-issued fault trip).
        let mut uvm_penalties: Vec<Vec<SimDuration>> = Vec::new();
        let mut services: Vec<hcc_uvm::FaultService> = Vec::new();
        for access in &desc.managed {
            let size = self.managed_size(access.ptr)?;
            let id = ManagedId(access.ptr.0);
            let total_pages = size.pages(self.cfg.calib().uvm.page);
            let first_page = access.first_page.min(total_pages);
            let count = if access.pages == u64::MAX {
                total_pages - first_page
            } else {
                access.pages.min(total_pages - first_page)
            };
            let (service, rec) = self.uvm.service_access_with_faults(
                self.gpu.gmmu_mut(),
                &mut self.td,
                id,
                first_page,
                count,
                &mut self.faults,
            )?;
            fault_time += service.total_time;
            fault_pages += service.pages;
            if self.enabled.any(Planes::METRICS | Planes::CAUSAL) {
                services.push(service);
            }
            if let Recovery::Retried { backoffs } = rec {
                uvm_penalties.push(
                    backoffs
                        .iter()
                        .map(|b| *b + self.cfg.calib().uvm.fault_latency)
                        .collect(),
                );
            }
        }
        let uvm_lost = uvm_penalties
            .iter()
            .flatten()
            .fold(SimDuration::ZERO, |acc, p| acc + *p);
        let uvm_fault = if fault_pages > 0 {
            Some(uvm_fault_kind(
                desc.id,
                fault_pages,
                self.cfg.calib().uvm.page,
            )?)
        } else {
            None
        };

        // --- Submit through the device. ---
        let exec_cost = ket + fault_time + uvm_lost;
        let submit_at = self.clock;
        let (sched, ring_rec) = self.gpu.submit_kernel_with_faults(
            self.clock,
            klo,
            stream_ready,
            exec_cost,
            &mut self.faults,
        );
        let Some(sched) = sched else {
            let attempts = match ring_rec {
                Recovery::Aborted { attempts } => attempts,
                _ => 0,
            };
            return Err(RuntimeError::Unrecoverable {
                site: FaultSite::RingDoorbell,
                attempts,
            });
        };
        // A dropped doorbell surfaces as extra ring wait: record the
        // retries inside the stall window that submit already charged.
        let mut ring_tail: Option<EventId> = None;
        if let Recovery::Retried { backoffs } = &ring_rec {
            let fault_id = self.timeline.push(
                TraceEvent::new(
                    EventKind::FaultInjected {
                        site: FaultSite::RingDoorbell,
                        attempts: backoffs.len() as u32,
                    },
                    submit_at,
                    submit_at,
                )
                .on_stream(stream)
                .with_correlation(corr),
            );
            let mut cursor = submit_at;
            let mut tail = fault_id;
            for (i, b) in backoffs.iter().enumerate() {
                let retry_id = self.timeline.push(
                    TraceEvent::new(
                        EventKind::Retry {
                            site: FaultSite::RingDoorbell,
                            attempt: i as u32 + 1,
                        },
                        cursor,
                        cursor + *b,
                    )
                    .on_stream(stream)
                    .with_correlation(corr),
                );
                let kind = if i == 0 {
                    EdgeKind::FaultToRetry
                } else {
                    EdgeKind::RetryChain
                };
                self.causal
                    .push(CausalEdge::new(tail, retry_id, kind).with_wait(*b));
                tail = retry_id;
                cursor += *b;
            }
            ring_tail = Some(tail);
        }
        let lqt = gap + sched.submission.ring_wait;
        let launch_start = sched.submission.admitted;
        let launch_end = launch_start + klo;
        self.clock = launch_end;

        // Trace: hypercalls inside the launch window (for Fig. 8 flavour).
        let mut hc_cursor = launch_start;
        for &span in &hypercall_spans {
            self.timeline.push(TraceEvent::new(
                EventKind::Hypercall {
                    reason: HypercallReason::Launch,
                },
                hc_cursor,
                hc_cursor + span,
            ));
            hc_cursor += span;
        }
        self.hypercall_scratch = hypercall_spans;
        let launch_id = self.timeline.push(
            TraceEvent::new(
                EventKind::Launch {
                    kernel: desc.id,
                    queue_wait: lqt,
                    first,
                },
                launch_start,
                launch_end,
            )
            .on_stream(stream)
            .with_correlation(corr),
        );
        if let Some(tail) = ring_tail {
            self.causal
                .push(CausalEdge::new(tail, launch_id, EdgeKind::RetryToVictim));
        }
        // The driver has no clock: report where the fault servicing landed
        // in virtual time (back-to-back from the kernel's exec start) so
        // its outstanding-fault / backlog gauges line up with the trace.
        let mut svc_at = sched.exec.start;
        for service in &services {
            self.uvm.record_service(svc_at, service);
            svc_at += service.total_time;
        }
        let uvm_fault_id = uvm_fault.map(|kind| {
            self.timeline.push(
                TraceEvent::new(kind, sched.exec.start, sched.exec.start + fault_time)
                    .on_stream(stream)
                    .with_correlation(corr),
            )
        });
        // Injected migration retries extend the kernel's exec window;
        // they sit right after the regular fault-service span.
        let mut uvm_cursor = sched.exec.start + fault_time;
        let mut uvm_tails: Vec<EventId> = Vec::new();
        for penalties in &uvm_penalties {
            let fault_id = self.timeline.push(
                TraceEvent::new(
                    EventKind::FaultInjected {
                        site: FaultSite::UvmMigration,
                        attempts: penalties.len() as u32,
                    },
                    uvm_cursor,
                    uvm_cursor,
                )
                .on_stream(stream)
                .with_correlation(corr),
            );
            let mut tail = fault_id;
            for (i, p) in penalties.iter().enumerate() {
                let retry_id = self.timeline.push(
                    TraceEvent::new(
                        EventKind::Retry {
                            site: FaultSite::UvmMigration,
                            attempt: i as u32 + 1,
                        },
                        uvm_cursor,
                        uvm_cursor + *p,
                    )
                    .on_stream(stream)
                    .with_correlation(corr),
                );
                let kind = if i == 0 {
                    EdgeKind::FaultToRetry
                } else {
                    EdgeKind::RetryChain
                };
                self.causal
                    .push(CausalEdge::new(tail, retry_id, kind).with_wait(*p));
                tail = retry_id;
                uvm_cursor += *p;
            }
            uvm_tails.push(tail);
        }
        let prev_stream_event = self.last_stream_event[stream.0 as usize];
        let kernel_id = self.timeline.push(
            TraceEvent::new(
                EventKind::Kernel {
                    kernel: desc.id,
                    uvm: desc.is_uvm(),
                },
                sched.exec.start,
                sched.exec.end,
            )
            .on_stream(stream)
            .with_correlation(corr),
        );
        if self.enabled.contains(Planes::CAUSAL) {
            // Launch → execution: the device types the KQT leg.
            self.causal
                .push(sched.causal_edge(launch_id, kernel_id, launch_end));
            // Program order on the stream; a feeding copy gets its own kind.
            if let Some(prev) = prev_stream_event {
                let kind = match self.timeline.get(prev).map(|e| &e.kind) {
                    Some(EventKind::Memcpy { .. }) => EdgeKind::CopyToKernel,
                    _ => EdgeKind::StreamOrder,
                };
                self.causal.push(
                    CausalEdge::new(prev, kernel_id, kind)
                        .with_wait(sched.exec.start.saturating_since(stream_ready)),
                );
            }
            // UVM migration → resume: the driver types each service leg.
            if let Some(uvm_id) = uvm_fault_id {
                for service in &services {
                    self.causal.push(service.resume_edge(uvm_id, kernel_id));
                }
            }
            for tail in uvm_tails {
                self.causal
                    .push(CausalEdge::new(tail, kernel_id, EdgeKind::RetryToVictim));
            }
        }
        self.last_stream_event[stream.0 as usize] = Some(kernel_id);
        self.streams[stream.0 as usize] = sched.exec.end;
        Ok(corr)
    }

    // ------------------------------------------------------------------
    // Functional data path
    // ------------------------------------------------------------------

    /// Uploads real bytes to the device, exercising the *functional* CC
    /// path: under CC the payload is AES-GCM encrypted, staged, integrity
    /// checked, decrypted, and only then lands in HBM — proving the
    /// paper's data path end-to-end. Charges the same virtual time as an
    /// equivalent pageable `memcpy_h2d`.
    ///
    /// # Errors
    /// Returns [`RuntimeError`] on bounds violations or (never, absent
    /// bugs) integrity failure.
    fn gcm(&self) -> &AesGcm {
        self.gcm
            .get_or_init(|| AesGcm::new(&[0x42; 16]).expect("16-byte key is valid"))
    }

    pub fn upload_bytes(&mut self, dst: DevicePtr, data: &[u8]) -> Result<SimDuration> {
        let bytes = ByteSize::bytes(data.len() as u64);
        let dsize = self.gpu.hbm().size_of(dst)?;
        if bytes > dsize {
            return Err(RuntimeError::CopyTooLarge {
                requested: bytes,
                available: dsize,
            });
        }
        let (elapsed, recovery) = {
            let plan = self.plan_copy(bytes, HostMemKind::Pageable, CopyKind::H2D);
            self.execute_blocking_copy(bytes, plan)?
        };
        let payload = match self.cfg.cc {
            CcMode::Off => data.to_vec(),
            CcMode::On => {
                // Encrypt into the bounce buffer, then device-side decrypt.
                let mut staged = data.to_vec();
                let nonce = [0x07u8; 12];
                let tag = self.gcm().encrypt(&nonce, &[], &mut staged);
                debug_assert_ne!(staged, data, "ciphertext must differ for non-empty data");
                if !recovery.is_clean() {
                    // The injected fault corrupted the tag in transit:
                    // verification must reject it before the retry
                    // re-sends the chunk with the genuine tag.
                    let mut bad_tag = tag;
                    bad_tag[0] ^= 0x01;
                    let mut first_attempt = staged.clone();
                    if self
                        .gcm()
                        .decrypt(&nonce, &[], &mut first_attempt, &bad_tag)
                        .is_ok()
                    {
                        return Err(RuntimeError::Integrity);
                    }
                }
                self.gcm()
                    .decrypt(&nonce, &[], &mut staged, &tag)
                    .map_err(|_| RuntimeError::Integrity)?;
                staged
            }
        };
        self.gpu.hbm_mut().write(dst, 0, &payload)?;
        Ok(elapsed)
    }

    /// Downloads real bytes from the device (functional path, reverse
    /// direction).
    ///
    /// # Errors
    /// Returns [`RuntimeError`] on bounds violations.
    pub fn download_bytes(&mut self, src: DevicePtr, len: u64) -> Result<Vec<u8>> {
        let bytes = ByteSize::bytes(len);
        let plan = self.plan_copy(bytes, HostMemKind::Pageable, CopyKind::D2H);
        let (_, recovery) = self.execute_blocking_copy(bytes, plan)?;
        let mut data = self.gpu.hbm().read(src, 0, len)?;
        if self.cfg.cc.is_on() {
            // Round-trip through the encrypted channel.
            let nonce = [0x09u8; 12];
            let tag = self.gcm().encrypt(&nonce, &[], &mut data);
            if !recovery.is_clean() {
                // Injected tag corruption: the first verification fails,
                // the retry delivers the genuine tag.
                let mut bad_tag = tag;
                bad_tag[0] ^= 0x01;
                let mut first_attempt = data.clone();
                if self
                    .gcm()
                    .decrypt(&nonce, &[], &mut first_attempt, &bad_tag)
                    .is_ok()
                {
                    return Err(RuntimeError::Integrity);
                }
            }
            self.gcm()
                .decrypt(&nonce, &[], &mut data, &tag)
                .map_err(|_| RuntimeError::Integrity)?;
        }
        Ok(data)
    }
}

/// The trace's `UvmFault` kind for one launch's migration: `pages` of
/// the context's one UVM `page` size, narrowed to the event's 32-bit
/// fields (the event derives the bytes from the two).
///
/// # Errors
/// [`RuntimeError::UvmFaultTooLarge`] when either passes `u32::MAX`.
fn uvm_fault_kind(kernel: KernelId, pages: u64, page: ByteSize) -> Result<EventKind> {
    match (u32::try_from(pages), u32::try_from(page.as_u64())) {
        (Ok(pages), Ok(page_size)) => Ok(EventKind::UvmFault {
            kernel,
            pages,
            page_size,
        }),
        _ => Err(RuntimeError::UvmFaultTooLarge {
            pages,
            page_size: page,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handles::KernelDesc;

    #[test]
    fn uvm_fault_fields_refuse_what_32_bits_cannot_count() {
        let k = KernelId(3);
        let max = u64::from(u32::MAX);
        assert_eq!(
            uvm_fault_kind(k, max, ByteSize::kib(64)).unwrap(),
            EventKind::UvmFault {
                kernel: k,
                pages: u32::MAX,
                page_size: 65536,
            }
        );
        assert!(matches!(
            uvm_fault_kind(k, max + 1, ByteSize::kib(64)),
            Err(RuntimeError::UvmFaultTooLarge { pages, .. }) if pages == max + 1
        ));
        assert!(matches!(
            uvm_fault_kind(k, 1, ByteSize::bytes(max + 1)),
            Err(RuntimeError::UvmFaultTooLarge { pages: 1, .. })
        ));
        let e = uvm_fault_kind(k, max + 1, ByteSize::kib(64)).unwrap_err();
        assert!(e.to_string().contains("4294967296 pages"), "{e}");
    }

    /// The last 32-bit correlation id is issued; the launch after it is
    /// refused before it draws, queues or traces anything.
    #[test]
    fn correlation_ids_stop_at_u32_max() {
        let mut ctx = CudaContext::new(SimConfig::default());
        let desc = KernelDesc::new(KernelId(0), SimDuration::micros(5));
        let stream = ctx.default_stream();
        ctx.next_correlation = u64::from(u32::MAX);
        assert_eq!(ctx.launch_kernel(&desc, stream).unwrap(), u32::MAX);
        let (events, clock) = (ctx.timeline().len(), ctx.now());
        assert!(matches!(
            ctx.launch_kernel(&desc, stream),
            Err(RuntimeError::CorrelationExhausted)
        ));
        assert_eq!((ctx.timeline().len(), ctx.now()), (events, clock));
    }
}
