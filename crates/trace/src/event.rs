//! Trace events — the simulator's equivalent of an Nsight Systems export.

use hcc_types::json::{JsonOut, ToJson};
use hcc_types::{ByteSize, CopyKind, FaultSite, HostMemKind, MemSpace, SimDuration, SimTime};

/// Identifies a kernel *function* (not an individual launch), so repeated
/// launches of the same kernel can be grouped (Fig. 10/12a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(pub u32);

impl std::fmt::Display for KernelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "K{}", self.0)
    }
}

/// Identifies a CUDA stream within a context. Stream 0 is the default
/// (synchronizing) stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StreamId(pub u32);

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Why a `tdx_hypercall` transition was taken — the typed replacement for
/// the old free-form `&'static str` label, so hot-path grouping compiles
/// to a jump table instead of string compares.
///
/// `Display` renders the exact strings the free-form labels used, so
/// exports and summaries are byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum HypercallReason {
    /// Doorbell MMIO write trapping to the host (`#VE`).
    Doorbell,
    /// DMA mapping / unmapping of a host buffer.
    DmaMap,
    /// Launch-path submission transition.
    Launch,
    /// Lazy driver setup on a kernel's first launch.
    LaunchSetup,
    /// Private→shared page conversion (`set_memory_decrypted`).
    SetMemoryDecrypted,
    /// Informational marker for a CUDA-graph node boundary.
    GraphNode,
}

impl HypercallReason {
    /// The label the free-form payload used for this reason.
    pub const fn as_str(self) -> &'static str {
        match self {
            HypercallReason::Doorbell => "doorbell",
            HypercallReason::DmaMap => "dma_map",
            HypercallReason::Launch => "launch",
            HypercallReason::LaunchSetup => "launch_setup",
            HypercallReason::SetMemoryDecrypted => "set_memory_decrypted",
            HypercallReason::GraphNode => "graph_node",
        }
    }
}

impl std::fmt::Display for HypercallReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a trace span represents.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// A `cudaLaunchKernel` call on the host. The span is the KLO; the
    /// recorded `queue_wait` is the LQT the call spent blocked on a full
    /// command ring before the driver work began.
    Launch {
        /// Which kernel function was launched.
        kernel: KernelId,
        /// Launch queuing time (LQT) preceding this span.
        queue_wait: SimDuration,
        /// Whether this was the first launch of `kernel` in the context.
        first: bool,
    },
    /// Kernel execution on the compute engine. The span is the KET.
    Kernel {
        /// Which kernel function executed.
        kernel: KernelId,
        /// Whether the kernel touched managed (UVM) memory.
        uvm: bool,
    },
    /// An explicit memory copy (the span covers the full blocking call or
    /// the device-side transfer for async copies).
    Memcpy {
        /// Transfer direction as Nsight would label it.
        kind: CopyKind,
        /// Bytes moved.
        bytes: ByteSize,
        /// Host memory kind of the host endpoint (if any).
        mem: HostMemKind,
        /// `true` when Nsight would label the transfer "Managed" — the CC
        /// pinned-demotion path (Observation 1/3).
        managed: bool,
    },
    /// A memory allocation call (`cudaMalloc*`).
    Alloc {
        /// Which space was allocated.
        space: MemSpace,
        /// Requested size.
        bytes: ByteSize,
    },
    /// A `cudaFree`-family call.
    Free {
        /// Which space was freed.
        space: MemSpace,
        /// Size released.
        bytes: ByteSize,
    },
    /// Host-side synchronization (`cudaDeviceSynchronize`, stream sync).
    Sync,
    /// Software encryption/decryption on the CPU (CC transfers only).
    Crypto {
        /// Bytes processed.
        bytes: ByteSize,
        /// `true` for encryption, `false` for decryption.
        encrypt: bool,
    },
    /// A `tdx_hypercall` transition (CC only), for Fig. 8-style accounting.
    Hypercall {
        /// Why the transition was taken.
        reason: HypercallReason,
    },
    /// A bounce-pool (swiotlb) staging reservation (CC only). The span is
    /// the pool bookkeeping plus any first-touch page conversion, nested
    /// inside the copy it stages for.
    BounceReserve {
        /// Bytes reserved.
        bytes: ByteSize,
        /// Whether fresh pages had to be converted private→shared.
        converted: bool,
    },
    /// UVM far-fault servicing attributable to one kernel. The bytes
    /// migrated, as exported and folded into `MemMetrics::uvm_bytes`,
    /// are `pages × page_size`: the driver migrates whole pages of the
    /// context's one UVM page size.
    UvmFault {
        /// Kernel whose access triggered the fault batch.
        kernel: KernelId,
        /// Pages migrated.
        pages: u32,
        /// The context's UVM page size, in bytes.
        page_size: u32,
    },
    /// An injected fault struck a guarded operation. The span covers the
    /// detection instant (often zero-width); `attempts` counts the failed
    /// attempts the recovery absorbed for this operation.
    FaultInjected {
        /// Where the fault struck.
        site: FaultSite,
        /// Failed attempts, counting the initial one.
        attempts: u32,
    },
    /// One recovery retry: the span covers the backoff wait plus the
    /// re-done work, and sums into `T_fault`.
    Retry {
        /// Site being recovered.
        site: FaultSite,
        /// 1-based retry number.
        attempt: u32,
    },
    /// Recovery degraded staging to smaller chunks; the span is the extra
    /// per-chunk setup charged, and sums into `T_fault`.
    Degraded {
        /// Site that degraded.
        site: FaultSite,
    },
}

impl EventKind {
    /// Short tag used in summaries.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::Launch { .. } => "launch",
            EventKind::Kernel { .. } => "kernel",
            EventKind::Memcpy { .. } => "memcpy",
            EventKind::Alloc { .. } => "alloc",
            EventKind::Free { .. } => "free",
            EventKind::Sync => "sync",
            EventKind::Crypto { .. } => "crypto",
            EventKind::Hypercall { .. } => "hypercall",
            EventKind::BounceReserve { .. } => "bounce_reserve",
            EventKind::UvmFault { .. } => "uvm_fault",
            EventKind::FaultInjected { .. } => "fault",
            EventKind::Retry { .. } => "retry",
            EventKind::Degraded { .. } => "degraded",
        }
    }
}

/// `pages` whole pages of `page_size` bytes; two 32-bit factors cannot
/// overflow 64 bits.
pub(crate) fn page_bytes(pages: u32, page_size: u32) -> ByteSize {
    ByteSize::bytes(u64::from(pages) * u64::from(page_size))
}

/// `EventKind`'s largest variants (`Launch`, `Memcpy`, `UvmFault`) hold
/// 12 B of payload behind the tag; a wider payload grows every event.
const _: () = assert!(std::mem::size_of::<EventKind>() == 16);
/// The timeline arena holds events back to back, so this is a result's
/// heap per event.
const _: () = assert!(std::mem::size_of::<TraceEvent>() == 40);

/// One timed span in the trace: 40 B (a 16-B kind, two clock words, a
/// 4-B stream and a 4-B correlation id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// Span start on the virtual clock.
    pub start: SimTime,
    /// Span end on the virtual clock.
    pub end: SimTime,
    /// Stream id, or [`NO_STREAM`]; read through [`TraceEvent::stream`].
    stream: u32,
    /// Correlation id linking a `Launch` to the `Kernel` it produced
    /// (Nsight's correlation column; 32-bit, as CUPTI's). Zero when not
    /// applicable.
    pub correlation: u32,
}

/// `TraceEvent::stream`'s "no stream" sentinel: `Option<StreamId>`
/// would take 8 B, and no context issues 2³² streams.
const NO_STREAM: u32 = u32::MAX;

impl TraceEvent {
    /// Creates an event spanning `start..end`.
    ///
    /// # Panics
    /// Panics if `end < start`.
    pub fn new(kind: EventKind, start: SimTime, end: SimTime) -> Self {
        assert!(end >= start, "event ends before it starts");
        TraceEvent {
            kind,
            start,
            end,
            stream: NO_STREAM,
            correlation: 0,
        }
    }

    /// Builder-style stream annotation.
    ///
    /// # Panics
    /// Panics on `StreamId(u32::MAX)`, the id that stands for "no stream".
    pub fn on_stream(mut self, stream: StreamId) -> Self {
        assert_ne!(stream.0, NO_STREAM, "stream id u32::MAX is reserved");
        self.stream = stream.0;
        self
    }

    /// Builder-style correlation annotation.
    pub fn with_correlation(mut self, id: u32) -> Self {
        self.correlation = id;
        self
    }

    /// Stream the operation was issued on, when applicable.
    pub fn stream(&self) -> Option<StreamId> {
        (self.stream != NO_STREAM).then_some(StreamId(self.stream))
    }

    /// Span length.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

impl ToJson for KernelId {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        self.0.write_json(out);
    }
}

impl ToJson for StreamId {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        self.0.write_json(out);
    }
}

impl ToJson for EventKind {
    /// Serializes as a flat tagged object: `{"type": <tag>, ...fields}`.
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.obj(|o| {
            o.field("type", self.tag());
            match self {
                EventKind::Launch {
                    kernel,
                    queue_wait,
                    first,
                } => {
                    o.field("kernel", kernel);
                    o.field("queue_wait", queue_wait);
                    o.field("first", first);
                }
                EventKind::Kernel { kernel, uvm } => {
                    o.field("kernel", kernel);
                    o.field("uvm", uvm);
                }
                EventKind::Memcpy {
                    kind,
                    bytes,
                    mem,
                    managed,
                } => {
                    o.field("kind", kind);
                    o.field("bytes", bytes);
                    o.field("mem", mem);
                    o.field("managed", managed);
                }
                EventKind::Alloc { space, bytes } | EventKind::Free { space, bytes } => {
                    o.field("space", space);
                    o.field("bytes", bytes);
                }
                EventKind::Sync => {}
                EventKind::Crypto { bytes, encrypt } => {
                    o.field("bytes", bytes);
                    o.field("encrypt", encrypt);
                }
                EventKind::Hypercall { reason } => o.field("reason", reason.as_str()),
                EventKind::BounceReserve { bytes, converted } => {
                    o.field("bytes", bytes);
                    o.field("converted", converted);
                }
                EventKind::UvmFault {
                    kernel,
                    pages,
                    page_size,
                } => {
                    o.field("kernel", kernel);
                    o.field("pages", pages);
                    o.field("bytes", page_bytes(*pages, *page_size));
                }
                EventKind::FaultInjected { site, attempts } => {
                    o.field("site", site.name());
                    o.field("attempts", attempts);
                }
                EventKind::Retry { site, attempt } => {
                    o.field("site", site.name());
                    o.field("attempt", attempt);
                }
                EventKind::Degraded { site } => o.field("site", site.name()),
            }
        });
    }
}

impl ToJson for TraceEvent {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.obj(|o| {
            o.field("kind", &self.kind);
            o.field("start", self.start);
            o.field("end", self.end);
            o.field("stream", self.stream());
            o.field("correlation", self.correlation);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_is_span_length() {
        let e = TraceEvent::new(
            EventKind::Sync,
            SimTime::from_nanos(100),
            SimTime::from_nanos(350),
        );
        assert_eq!(e.duration(), SimDuration::from_nanos(250));
        assert_eq!(e.kind.tag(), "sync");
    }

    #[test]
    #[should_panic(expected = "ends before it starts")]
    fn inverted_span_rejected() {
        let _ = TraceEvent::new(
            EventKind::Sync,
            SimTime::from_nanos(2),
            SimTime::from_nanos(1),
        );
    }

    #[test]
    fn builders_attach_metadata() {
        let e = TraceEvent::new(EventKind::Sync, SimTime::ZERO, SimTime::ZERO)
            .on_stream(StreamId(3))
            .with_correlation(99);
        assert_eq!(e.stream(), Some(StreamId(3)));
        assert_eq!(e.correlation, 99);
        let bare = TraceEvent::new(EventKind::Sync, SimTime::ZERO, SimTime::ZERO);
        assert_eq!(bare.stream(), None);
        assert_eq!(bare.on_stream(StreamId(0)).stream(), Some(StreamId(0)));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn the_no_stream_sentinel_is_not_a_stream() {
        let _ = TraceEvent::new(EventKind::Sync, SimTime::ZERO, SimTime::ZERO)
            .on_stream(StreamId(u32::MAX));
    }

    /// The exported and folded `bytes` is `pages × page_size` in 64
    /// bits, even where the product passes 32 bits.
    #[test]
    fn uvm_fault_bytes_are_pages_times_page_size() {
        let fault = |pages, page_size| EventKind::UvmFault {
            kernel: KernelId(0),
            pages,
            page_size,
        };
        let json = |kind: EventKind| {
            let mut out = String::new();
            kind.write_json(&mut JsonOut::text(&mut out));
            out
        };
        assert_eq!(
            json(fault(3, 4096)),
            r#"{"type":"uvm_fault","kernel":0,"pages":3,"bytes":12288}"#
        );
        let max = u64::from(u32::MAX);
        assert!(json(fault(u32::MAX, u32::MAX)).contains(&format!("\"bytes\":{}", max * max)));
        let mut tl = crate::Timeline::new();
        tl.push(TraceEvent::new(
            fault(u32::MAX, u32::MAX),
            SimTime::ZERO,
            SimTime::ZERO,
        ));
        tl.push(TraceEvent::new(
            fault(1024, 65536),
            SimTime::ZERO,
            SimTime::ZERO,
        ));
        let mm = tl.mem_metrics();
        assert_eq!(mm.uvm_pages, max + 1024);
        assert_eq!(mm.uvm_bytes, ByteSize::bytes(max * max) + ByteSize::mib(64));
    }

    #[test]
    fn tags_cover_all_kinds() {
        use hcc_types::{ByteSize, CopyKind, HostMemKind, MemSpace};
        let kinds = [
            EventKind::Launch {
                kernel: KernelId(0),
                queue_wait: SimDuration::ZERO,
                first: true,
            },
            EventKind::Kernel {
                kernel: KernelId(0),
                uvm: false,
            },
            EventKind::Memcpy {
                kind: CopyKind::H2D,
                bytes: ByteSize::kib(1),
                mem: HostMemKind::Pageable,
                managed: false,
            },
            EventKind::Alloc {
                space: MemSpace::Device,
                bytes: ByteSize::kib(1),
            },
            EventKind::Free {
                space: MemSpace::Device,
                bytes: ByteSize::kib(1),
            },
            EventKind::Sync,
            EventKind::Crypto {
                bytes: ByteSize::kib(1),
                encrypt: true,
            },
            EventKind::Hypercall {
                reason: HypercallReason::Doorbell,
            },
            EventKind::BounceReserve {
                bytes: ByteSize::mib(2),
                converted: true,
            },
            EventKind::UvmFault {
                kernel: KernelId(0),
                pages: 1,
                page_size: 65536,
            },
            EventKind::FaultInjected {
                site: FaultSite::GcmTagH2D,
                attempts: 1,
            },
            EventKind::Retry {
                site: FaultSite::BounceExhausted,
                attempt: 1,
            },
            EventKind::Degraded {
                site: FaultSite::GcmTagD2H,
            },
        ];
        let tags: Vec<_> = kinds.iter().map(|k| k.tag()).collect();
        assert_eq!(tags.len(), 13);
        assert!(tags.contains(&"bounce_reserve"));
        assert!(tags.contains(&"uvm_fault"));
        assert!(tags.contains(&"fault"));
        assert!(tags.contains(&"retry"));
        assert!(tags.contains(&"degraded"));
    }
}
