//! Typed causal edges between trace events.
//!
//! The timeline records *what* happened and *when*; this module records
//! *why* a span waited. Edges are emitted at the source while the
//! simulation runs — the runtime links the events it pushes, and the
//! device/TEE/UVM layers type the dependencies their scheduling results
//! imply — so the DAG is constructed during simulation rather than
//! reverse-engineered from timestamps afterwards.

use hcc_types::json::{JsonOut, ToJson};
use hcc_types::SimDuration;

/// Index of an event inside its [`crate::Timeline`], handed out by
/// [`crate::Timeline::push`]. Ids are dense and insertion-ordered, so an
/// edge's endpoints can always be resolved back to events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub usize);

impl std::fmt::Display for EventId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Why the target event could not begin (or finish) earlier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum EdgeKind {
    /// Launch → its kernel: ring service, dispatch, and stream ordering
    /// separate the doorbell from execution (the KQT leg).
    LaunchToExec,
    /// Program order on one stream: the previous operation gates the next.
    StreamOrder,
    /// A copy feeding a dependent kernel on the same stream.
    CopyToKernel,
    /// CPU AES-GCM staging gating a CC transfer.
    CryptoToStaging,
    /// A hypercall (e.g. `dma_map`) issued on behalf of a staged copy.
    HypercallToStaging,
    /// Bounce-pool reservation gating a staging chunk.
    BounceToStaging,
    /// An injected fault starting its recovery chain.
    FaultToRetry,
    /// One retry backing off into the next.
    RetryChain,
    /// The final retry releasing the recovered operation.
    RetryToVictim,
    /// UVM far-fault service (migration) resuming its kernel.
    MigrationToResume,
    /// A blocking host sync released by a device-side completion.
    CompletionToSync,
}

impl EdgeKind {
    /// Short tag used in exports.
    pub(crate) fn tag(&self) -> &'static str {
        match self {
            EdgeKind::LaunchToExec => "launch_to_exec",
            EdgeKind::StreamOrder => "stream_order",
            EdgeKind::CopyToKernel => "copy_to_kernel",
            EdgeKind::CryptoToStaging => "crypto_to_staging",
            EdgeKind::HypercallToStaging => "hypercall_to_staging",
            EdgeKind::BounceToStaging => "bounce_to_staging",
            EdgeKind::FaultToRetry => "fault_to_retry",
            EdgeKind::RetryChain => "retry_chain",
            EdgeKind::RetryToVictim => "retry_to_victim",
            EdgeKind::MigrationToResume => "migration_to_resume",
            EdgeKind::CompletionToSync => "completion_to_sync",
        }
    }
}

/// One typed dependency: `to` could not proceed before `from` (plus
/// `wait`, the scheduling delay the edge carried, e.g. ring wait or
/// reservation cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalEdge {
    /// Gating event.
    pub from: EventId,
    /// Gated event.
    pub to: EventId,
    /// Dependency type.
    pub kind: EdgeKind,
    /// Delay attributable to this edge (zero when purely ordering).
    pub wait: SimDuration,
}

impl CausalEdge {
    /// Creates an ordering edge with no attributed delay.
    pub fn new(from: EventId, to: EventId, kind: EdgeKind) -> Self {
        CausalEdge {
            from,
            to,
            kind,
            wait: SimDuration::ZERO,
        }
    }

    /// Builder-style delay annotation.
    pub fn with_wait(mut self, wait: SimDuration) -> Self {
        self.wait = wait;
        self
    }
}

/// The causal DAG collected alongside a [`crate::Timeline`].
///
/// Collection is opt-in (mirroring the metrics plane): a disabled graph
/// drops every edge so the hot path costs one branch, and — like metrics
/// — enabling it must never perturb the virtual clock or RNG.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CausalGraph {
    enabled: bool,
    edges: Vec<CausalEdge>,
}

impl CausalGraph {
    /// Creates a graph; `enabled` governs whether edges are kept.
    pub fn new(enabled: bool) -> Self {
        CausalGraph {
            enabled,
            edges: Vec::new(),
        }
    }

    /// Records one edge (no-op while disabled).
    pub fn push(&mut self, edge: CausalEdge) {
        if self.enabled {
            self.edges.push(edge);
        }
    }

    /// All recorded edges, in emission order.
    pub fn edges(&self) -> &[CausalEdge] {
        &self.edges
    }

    /// Number of recorded edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges were recorded.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Checks the DAG invariant: since events are pushed in causal order,
    /// every edge must point from an earlier-created event to a
    /// later-created one (`from < to`), which also rules out cycles.
    pub fn is_acyclic(&self) -> bool {
        self.edges.iter().all(|e| e.from < e.to)
    }
}

impl ToJson for EventId {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        self.0.write_json(out);
    }
}

impl ToJson for EdgeKind {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.str(self.tag());
    }
}

hcc_types::impl_to_json!(CausalEdge {
    from,
    to,
    kind,
    wait
});

impl ToJson for CausalGraph {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        self.edges.write_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_types::json::Json;

    #[test]
    fn disabled_graph_drops_edges() {
        let mut g = CausalGraph::new(false);
        g.push(CausalEdge::new(
            EventId(0),
            EventId(1),
            EdgeKind::StreamOrder,
        ));
        assert!(g.is_empty());
    }

    #[test]
    fn enabled_graph_collects_and_indexes() {
        let mut g = CausalGraph::new(true);
        g.push(
            CausalEdge::new(EventId(0), EventId(2), EdgeKind::LaunchToExec)
                .with_wait(SimDuration::micros(3)),
        );
        g.push(CausalEdge::new(
            EventId(1),
            EventId(2),
            EdgeKind::CopyToKernel,
        ));
        assert_eq!(g.len(), 2);
        let links: Vec<_> = g.edges().iter().map(|e| (e.from, e.to)).collect();
        assert_eq!(
            links,
            vec![(EventId(0), EventId(2)), (EventId(1), EventId(2))]
        );
        assert_eq!(g.edges()[0].wait, SimDuration::micros(3));
        assert!(g.is_acyclic());
    }

    #[test]
    fn backward_edge_breaks_acyclicity() {
        let mut g = CausalGraph::new(true);
        g.push(CausalEdge::new(
            EventId(5),
            EventId(1),
            EdgeKind::StreamOrder,
        ));
        assert!(!g.is_acyclic());
    }

    #[test]
    fn json_shape_is_stable() {
        let mut g = CausalGraph::new(true);
        g.push(
            CausalEdge::new(EventId(0), EventId(1), EdgeKind::CryptoToStaging)
                .with_wait(SimDuration::from_nanos(42)),
        );
        let s = g.to_json_string();
        assert!(s.contains("\"kind\":\"crypto_to_staging\""), "{s}");
        assert!(s.contains("\"from\":0"), "{s}");
        let parsed = hcc_types::json::Json::parse(&s).unwrap();
        assert_eq!(parsed.as_array().map(<[Json]>::len), Some(1));
    }
}
