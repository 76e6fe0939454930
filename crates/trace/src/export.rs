//! Chrome trace-event export: serialize a [`Timeline`] into the JSON
//! array format `chrome://tracing` / Perfetto load natively, so simulated
//! runs can be inspected with the same tooling people point at real
//! Nsight exports.

use std::fmt::Write as _;

use hcc_types::{CopyKind, MemSpace};

use crate::causal::CausalGraph;
use crate::event::{EventKind, TraceEvent};
use crate::flight::{FlightLog, SpanKind};
use crate::metrics::MetricsSet;
use crate::timeline::Timeline;

/// Track (Chrome "tid") assignment mirroring how Nsight lays out rows.
fn track_of(event: &TraceEvent) -> (&'static str, u32) {
    match event.kind {
        EventKind::Launch { .. }
        | EventKind::Alloc { .. }
        | EventKind::Free { .. }
        | EventKind::Sync => ("host", 0),
        EventKind::Crypto { .. }
        | EventKind::Hypercall { .. }
        | EventKind::BounceReserve { .. } => ("host", 1),
        // Fault recovery is host-runtime work; give it its own row.
        EventKind::FaultInjected { .. } | EventKind::Retry { .. } | EventKind::Degraded { .. } => {
            ("host", 2)
        }
        EventKind::Kernel { .. } | EventKind::UvmFault { .. } => ("gpu", 10),
        EventKind::Memcpy { kind, .. } => match kind {
            CopyKind::H2D => ("gpu", 11),
            CopyKind::D2H => ("gpu", 12),
            CopyKind::D2D => ("gpu", 13),
        },
    }
}

fn name_of(event: &TraceEvent) -> String {
    match &event.kind {
        EventKind::Launch { kernel, first, .. } => {
            if *first {
                format!("cudaLaunchKernel({kernel}) [first]")
            } else {
                format!("cudaLaunchKernel({kernel})")
            }
        }
        EventKind::Kernel { kernel, uvm } => {
            if *uvm {
                format!("{kernel} [uvm]")
            } else {
                kernel.to_string()
            }
        }
        EventKind::Memcpy {
            kind,
            bytes,
            managed,
            ..
        } => {
            if *managed {
                format!("Memcpy {kind} {bytes} [Managed]")
            } else {
                format!("Memcpy {kind} {bytes}")
            }
        }
        EventKind::Alloc { space, bytes } => match space {
            MemSpace::Host => format!("cudaMallocHost {bytes}"),
            MemSpace::Device => format!("cudaMalloc {bytes}"),
            MemSpace::Managed => format!("cudaMallocManaged {bytes}"),
        },
        EventKind::Free { space, bytes } => format!("cudaFree[{space}] {bytes}"),
        EventKind::Sync => "cudaDeviceSynchronize".to_string(),
        EventKind::Crypto { bytes, encrypt } => {
            if *encrypt {
                format!("AES-GCM encrypt {bytes}")
            } else {
                format!("AES-GCM decrypt {bytes}")
            }
        }
        EventKind::Hypercall { reason } => format!("tdx_hypercall({reason})"),
        EventKind::BounceReserve { bytes, converted } => {
            if *converted {
                format!("bounce reserve {bytes} [convert]")
            } else {
                format!("bounce reserve {bytes}")
            }
        }
        EventKind::UvmFault { pages, .. } => format!("uvm fault service ({pages} pages)"),
        EventKind::FaultInjected { site, attempts } => {
            format!("fault injected [{site}] x{attempts}")
        }
        EventKind::Retry { site, attempt } => format!("retry [{site}] #{attempt}"),
        EventKind::Degraded { site } => format!("degraded staging [{site}]"),
    }
}

/// The one Chrome trace-event export entry point: an options struct
/// selecting which overlays accompany the span array.
///
/// Replaces the old trio of free functions (`to_chrome_trace`,
/// `to_chrome_trace_with_metrics`, `to_chrome_trace_full`), which remain
/// as deprecated wrappers. Output is byte-identical to the old API for
/// every option combination.
///
/// ```
/// use hcc_trace::{ChromeExport, Timeline};
///
/// let json = ChromeExport::new().render(&Timeline::new());
/// assert_eq!(json, "[\n\n]\n");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ChromeExport<'a> {
    metrics: Option<&'a MetricsSet>,
    causal: Option<&'a CausalGraph>,
}

impl<'a> ChromeExport<'a> {
    /// Spans only — the plain `chrome://tracing` / Perfetto export
    /// ("X" complete events, microsecond timestamps).
    #[must_use]
    pub fn new() -> Self {
        ChromeExport::default()
    }

    /// Additionally emits every gauge in `metrics` as a Perfetto counter
    /// track ("C" events under the `metrics` process), so spans and
    /// queue depths line up on one timeline. Each gauge change-point
    /// becomes one counter sample; empty gauges still get a zero sample
    /// so their track exists.
    #[must_use]
    pub fn with_metrics(mut self, metrics: &'a MetricsSet) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Additionally emits the causal graph as flow events
    /// (`"ph": "s"`/`"f"`) so recorded causal edges render as arrows
    /// between their endpoint slices in Perfetto. Each edge binds at the
    /// source event's end and the target event's start (`"bp": "e"`
    /// attaches to the enclosing slice).
    #[must_use]
    pub fn with_causal(mut self, causal: &'a CausalGraph) -> Self {
        self.causal = Some(causal);
        self
    }

    /// Serializes `timeline` (plus the selected overlays) as a Chrome
    /// trace-event JSON array. Load the output in `chrome://tracing` or
    /// <https://ui.perfetto.dev>.
    #[must_use]
    pub fn render(&self, timeline: &Timeline) -> String {
        render(timeline, self.metrics, self.causal)
    }

    /// Serializes a flight-recorder log as a cluster-scale Chrome
    /// trace-event JSON array: queue wait renders under the `queue`
    /// process, every other span under its request's `gpu{N}` process
    /// (one row per tenant), and each sampled request gets an
    /// arrival→settle flow arrow (`"ph": "s"`/`"f"`, id = request id)
    /// so the dispatch handoff draws as an arrow crossing processes.
    /// Rejected requests keep their queue slice but get no arrow.
    #[must_use]
    pub fn render_flight(log: &FlightLog) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        for sample in &log.samples {
            let skel = &sample.skeleton;
            let mut cursor = skel.arrival;
            for &(kind, dur) in log.spans(sample).iter() {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let process = match kind {
                    SpanKind::QueueWait => "queue".to_string(),
                    _ => format!("gpu{}", skel.gpu),
                };
                let _ = write!(
                    out,
                    "  {{\"name\": \"{name}\", \"cat\": \"flight\", \"ph\": \"X\", \
                     \"ts\": {ts:.3}, \"dur\": {dur:.3}, \"pid\": \"{process}\", \
                     \"tid\": {tid}, \"args\": {{\"request\": {req}, \"window\": {win}}}}}",
                    name = kind.name(),
                    ts = cursor.as_micros_f64(),
                    dur = dur.as_micros_f64(),
                    tid = skel.tenant,
                    req = skel.req,
                    win = sample.window,
                );
                cursor += dur;
            }
            if skel.rejected {
                continue;
            }
            let mut write_flow = |ph: &str, ts: f64, process: &str, bind: &str| {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(
                    out,
                    "  {{\"name\": \"request\", \"cat\": \"flight\", \"ph\": \"{ph}\", \
                     \"id\": {id}, \"ts\": {ts:.3}, \"pid\": \"{process}\", \
                     \"tid\": {tid}{bind}}}",
                    id = skel.req,
                    tid = skel.tenant,
                );
            };
            write_flow("s", skel.arrival.as_micros_f64(), "queue", "");
            write_flow(
                "f",
                skel.settle.as_micros_f64(),
                &format!("gpu{}", skel.gpu),
                ", \"bp\": \"e\"",
            );
        }
        out.push_str("\n]\n");
        out
    }
}

fn render(
    timeline: &Timeline,
    metrics: Option<&MetricsSet>,
    causal: Option<&CausalGraph>,
) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for event in timeline.events() {
        let (process, tid) = track_of(event);
        let name = name_of(event).replace('"', "'");
        let ts = event.start.as_micros_f64();
        let dur = event.duration().as_micros_f64();
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "  {{\"name\": \"{name}\", \"cat\": \"{cat}\", \"ph\": \"X\", \
             \"ts\": {ts:.3}, \"dur\": {dur:.3}, \"pid\": \"{process}\", \"tid\": {tid}, \
             \"args\": {{\"correlation\": {corr}}}}}",
            cat = event.kind.tag(),
            corr = event.correlation,
        );
    }
    if let Some(graph) = causal {
        for (id, edge) in graph.edges().iter().enumerate() {
            let (Some(from), Some(to)) = (timeline.get(edge.from), timeline.get(edge.to)) else {
                continue;
            };
            let mut write_flow = |ph: &str, event: &TraceEvent, ts: f64, bind: &str| {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let (process, tid) = track_of(event);
                let _ = write!(
                    out,
                    "  {{\"name\": \"{kind}\", \"cat\": \"causal\", \"ph\": \"{ph}\", \
                     \"id\": {id}, \"ts\": {ts:.3}, \"pid\": \"{process}\", \"tid\": {tid}{bind}}}",
                    kind = edge.kind.tag(),
                );
            };
            write_flow("s", from, from.end.as_micros_f64(), "");
            write_flow("f", to, to.start.as_micros_f64(), ", \"bp\": \"e\"");
        }
    }
    if let Some(set) = metrics {
        for series in &set.gauges {
            let name = series.name.replace('"', "'");
            let mut write_sample = |ts: f64, value: i64| {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(
                    out,
                    "  {{\"name\": \"{name}\", \"cat\": \"metric\", \"ph\": \"C\", \
                     \"ts\": {ts:.3}, \"pid\": \"metrics\", \"tid\": 0, \
                     \"args\": {{\"value\": {value}}}}}",
                );
            };
            if series.samples.is_empty() {
                write_sample(0.0, 0);
            } else {
                // An explicit leading zero keeps Perfetto's step
                // rendering from back-extrapolating the first value.
                if series.samples[0].0.as_nanos() > 0 {
                    write_sample(0.0, 0);
                }
                for &(t, v) in &series.samples {
                    write_sample(t.as_micros_f64(), v);
                }
            }
        }
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::KernelId;
    use hcc_types::{ByteSize, HostMemKind, SimDuration, SimTime};

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    fn sample() -> Timeline {
        let mut tl = Timeline::new();
        tl.push(
            TraceEvent::new(
                EventKind::Launch {
                    kernel: KernelId(0),
                    queue_wait: SimDuration::ZERO,
                    first: true,
                },
                t(0),
                t(6),
            )
            .with_correlation(1),
        );
        tl.push(
            TraceEvent::new(
                EventKind::Kernel {
                    kernel: KernelId(0),
                    uvm: false,
                },
                t(8),
                t(108),
            )
            .with_correlation(1),
        );
        tl.push(TraceEvent::new(
            EventKind::Memcpy {
                kind: CopyKind::H2D,
                bytes: ByteSize::mib(1),
                mem: HostMemKind::Pageable,
                managed: false,
            },
            t(110),
            t(140),
        ));
        tl
    }

    #[test]
    fn output_is_valid_json_shape() {
        let json = ChromeExport::new().render(&sample());
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        // One object per event, comma-separated.
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 3);
        assert_eq!(json.matches("},\n").count(), 2);
        // Balanced braces.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn events_carry_expected_names_and_tracks() {
        let json = ChromeExport::new().render(&sample());
        assert!(json.contains("cudaLaunchKernel(K0) [first]"));
        assert!(json.contains("\"pid\": \"gpu\""));
        assert!(json.contains("\"pid\": \"host\""));
        assert!(json.contains("Memcpy H2D 1.0MiB"));
        assert!(json.contains("\"correlation\": 1"));
    }

    #[test]
    fn timestamps_are_microseconds() {
        let json = ChromeExport::new().render(&sample());
        // The kernel starts at 8 us and runs 100 us.
        assert!(json.contains("\"ts\": 8.000"));
        assert!(json.contains("\"dur\": 100.000"));
    }

    #[test]
    fn empty_timeline_is_an_empty_array() {
        let json = ChromeExport::new().render(&Timeline::new());
        assert_eq!(json, "[\n\n]\n");
    }

    #[test]
    fn causal_edges_become_flow_events() {
        use crate::causal::{CausalEdge, EdgeKind, EventId};

        let tl = sample();
        let mut g = CausalGraph::new(true);
        g.push(CausalEdge::new(
            EventId(0),
            EventId(1),
            EdgeKind::LaunchToExec,
        ));

        let json = ChromeExport::new().with_causal(&g).render(&tl);
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 3);
        assert_eq!(json.matches("\"ph\": \"s\"").count(), 1);
        assert_eq!(json.matches("\"ph\": \"f\"").count(), 1);
        assert!(json.contains("\"name\": \"launch_to_exec\""));
        assert!(json.contains("\"bp\": \"e\""));
        // The arrow leaves the launch's end and lands at the kernel's start.
        assert!(json.contains("\"ph\": \"s\", \"id\": 0, \"ts\": 6.000"));
        assert!(json.contains("\"ph\": \"f\", \"id\": 0, \"ts\": 8.000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        // Without a graph the output is byte-identical to the plain form.
        assert_eq!(
            ChromeExport::new()
                .with_causal(&CausalGraph::new(false))
                .render(&tl),
            ChromeExport::new().render(&tl)
        );
        // Dangling edges are skipped, not exported.
        let mut dangling = CausalGraph::new(true);
        dangling.push(CausalEdge::new(
            EventId(0),
            EventId(99),
            EdgeKind::StreamOrder,
        ));
        let json = ChromeExport::new().with_causal(&dangling).render(&tl);
        assert!(!json.contains("\"ph\": \"s\""));
    }

    #[test]
    fn flight_log_exports_per_gpu_tracks_and_request_arrows() {
        use crate::flight::{FlightConfig, FlightRecorder, FlightSkeleton, ShapeDecomp};

        let mut rec = FlightRecorder::new(FlightConfig::default());
        rec.record(FlightSkeleton {
            req: 7,
            tenant: 1,
            gpu: 2,
            batch: 1,
            arrival: t(0),
            dispatch: t(10),
            settle: t(110),
            spdm: SimDuration::ZERO,
            doorbell: SimDuration::micros(4),
            cold: false,
            rejected: false,
        });
        rec.record(FlightSkeleton {
            req: 9,
            tenant: 3,
            gpu: 0,
            batch: 0,
            arrival: t(5),
            dispatch: t(20),
            settle: t(20),
            spdm: SimDuration::ZERO,
            doorbell: SimDuration::ZERO,
            cold: false,
            rejected: true,
        });
        let shape_of = [0u32; 16];
        let log = rec.resolve(&shape_of, &[ShapeDecomp::default()]);
        assert!(log.identity_holds());

        let json = ChromeExport::render_flight(&log);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("\n]\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Queue wait on the shared queue track, the rest on the GPU's own
        // process; the rejected request never leaves the queue.
        assert!(json.contains("\"name\": \"queue_wait\""));
        assert!(json.contains("\"pid\": \"queue\""));
        assert!(json.contains("\"pid\": \"gpu2\""));
        assert!(!json.contains("\"pid\": \"gpu0\""));
        // Exactly one arrival→settle arrow (request 7; request 9 was
        // rejected), bound to the request id.
        assert_eq!(json.matches("\"ph\": \"s\"").count(), 1);
        assert_eq!(json.matches("\"ph\": \"f\"").count(), 1);
        assert!(json.contains("\"ph\": \"s\", \"id\": 7, \"ts\": 0.000"));
        assert!(json.contains("\"ph\": \"f\", \"id\": 7, \"ts\": 110.000"));
        assert!(json.contains("\"bp\": \"e\""));
        // Spans tile the request: queue wait starts at arrival, the next
        // span starts where it ends (dispatch).
        assert!(json.contains("\"name\": \"queue_wait\", \"cat\": \"flight\", \"ph\": \"X\", \"ts\": 0.000, \"dur\": 10.000"));
        assert!(json.contains("\"ts\": 10.000"));
        assert!(json.contains("\"args\": {\"request\": 7, \"window\": 0}"));
    }

    #[test]
    fn empty_flight_log_is_an_empty_array() {
        use crate::flight::{FlightConfig, FlightRecorder, ShapeDecomp};

        let rec = FlightRecorder::new(FlightConfig::default());
        let log = rec.resolve(&[], &[ShapeDecomp::default()]);
        assert_eq!(ChromeExport::render_flight(&log), "[\n\n]\n");
    }

    #[test]
    fn metrics_become_counter_tracks() {
        use crate::metrics::{Gauge, MetricsSet};

        let mut set = MetricsSet::new();
        let mut g = Gauge::enabled();
        g.occupy(t(10), t(20));
        set.gauge("gpu.ring.occupancy", &g);
        set.gauge("tee.bounce.occupancy", &Gauge::enabled()); // empty

        let json = ChromeExport::new().with_metrics(&set).render(&sample());
        // Spans are still present alongside the counters.
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 3);
        // Leading zero + two change-points for the ring gauge, one zero
        // sample for the empty bounce gauge.
        assert_eq!(json.matches("\"ph\": \"C\"").count(), 4);
        assert!(json.contains("\"name\": \"gpu.ring.occupancy\""));
        assert!(json.contains("\"name\": \"tee.bounce.occupancy\""));
        assert!(json.contains("\"pid\": \"metrics\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
