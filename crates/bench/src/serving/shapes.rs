//! The shape table: every distinct request shape of a soak, resolved
//! once, plus the map from each request to its shape.
//!
//! A soak's 10⁵–10⁶ requests ride a handful of distinct shape scenarios
//! (one per app per CC mode in the serving lab; calm shapes plus each
//! cell's storm shapes in the chaos lab). A [`ShapeTable`] reads each
//! shape's engine result once and the cluster loop, the mode report, the
//! watchtower's blame and the flight recorder all index it by request:
//! no request ever touches the engine.

use std::sync::Arc;

use hcc_runtime::LeakAudit;
use hcc_trace::flight::ShapeDecomp;
use hcc_types::{FaultCounts, SimDuration};
use hcc_workloads::TenantSpec;

use crate::engine::ScenarioResult;

/// The distinct apps of `tenants` in first-appearance order, and
/// `slot[tenant][class]`: each request class's index into them.
pub(crate) fn distinct_apps(tenants: &[TenantSpec]) -> (Vec<&'static str>, Vec<Vec<u32>>) {
    let mut apps: Vec<&'static str> = Vec::new();
    let slot = tenants
        .iter()
        .map(|t| {
            t.mix
                .iter()
                .map(|class| match apps.iter().position(|&a| a == class.app) {
                    Some(i) => i as u32,
                    None => {
                        apps.push(class.app);
                        apps.len() as u32 - 1
                    }
                })
                .collect()
        })
        .collect();
    (apps, slot)
}

/// One distinct shape's outcome, shared by every request riding it.
#[derive(Debug, Clone)]
pub struct Shape {
    /// The shape scenario's label.
    pub label: String,
    /// The shape scenario's content hash (its engine cache key).
    pub hash: u64,
    /// Solo device time, or the error a deterministic failure produced
    /// (requests riding a failing shape are rejected at dispatch).
    pub service: Result<SimDuration, String>,
    /// Fault-recovery counters (zero when the run failed).
    pub faults: FaultCounts,
    /// Conservation snapshot (`None` when the run failed).
    pub audit: Option<LeakAudit>,
}

/// A soak's distinct shapes and the request→shape map.
#[derive(Debug, Clone)]
pub struct ShapeTable {
    shapes: Vec<Shape>,
    /// One decomposition per shape; empty unless the table was analysed.
    decomps: Vec<ShapeDecomp>,
    /// Shared by every table over the same trace whose shapes line up
    /// (serving's two modes, a chaos profile's policy cells).
    shape_of: Arc<[u32]>,
}

impl ShapeTable {
    /// Resolves one engine result per distinct shape; `shape_of[req]`
    /// indexes `entries`, and tables built from clones of one
    /// `shape_of` share it. With `analyse`, each shape's critical path
    /// is extracted once for watch blame and flight decomposition (a
    /// failed shape decomposes to zero).
    pub fn new<'a>(
        entries: impl IntoIterator<Item = &'a Arc<ScenarioResult>>,
        shape_of: Arc<[u32]>,
        analyse: bool,
    ) -> Self {
        let mut decomps = Vec::new();
        let shapes = entries
            .into_iter()
            .map(|entry| {
                let run = entry.result.as_ref();
                if analyse {
                    decomps.push(match run {
                        Ok(r) => ShapeDecomp {
                            total: SimDuration::from_nanos(r.end.as_nanos()),
                            attr: hcc_trace::critpath::extract(&r.timeline, &r.causal)
                                .attribution(),
                            faults: r.fault,
                        },
                        Err(_) => ShapeDecomp::default(),
                    });
                }
                Shape {
                    label: entry.label.clone(),
                    hash: entry.hash,
                    service: run
                        .map(|r| SimDuration::from_nanos(r.end.as_nanos()))
                        .map_err(|e| e.to_string()),
                    faults: run.map_or(FaultCounts::default(), |r| r.fault),
                    audit: run.ok().map(|r| r.audit.clone()),
                }
            })
            .collect();
        ShapeTable {
            decomps,
            ..ShapeTable::from_shapes(shapes, shape_of)
        }
    }

    /// A table over already-resolved shapes (no decompositions).
    ///
    /// # Panics
    /// If a `shape_of` entry does not index `shapes`.
    pub fn from_shapes(shapes: Vec<Shape>, shape_of: Arc<[u32]>) -> Self {
        let n = shapes.len();
        assert!(
            shape_of.iter().all(|&s| (s as usize) < n),
            "request maps past the table"
        );
        ShapeTable {
            shapes,
            decomps: Vec::new(),
            shape_of,
        }
    }

    /// The distinct shapes, in table order.
    pub fn shapes(&self) -> &[Shape] {
        &self.shapes
    }

    /// Per-request shape index, aligned with the request trace.
    pub fn shape_of(&self) -> &[u32] {
        &self.shape_of
    }

    /// The shape request `req` rides.
    pub fn shape(&self, req: usize) -> &Shape {
        &self.shapes[self.shape_of[req] as usize]
    }

    /// Request `req`'s service result.
    pub fn service(&self, req: usize) -> &Result<SimDuration, String> {
        &self.shape(req).service
    }

    /// Per-shape decompositions, indexed like [`ShapeTable::shapes`]
    /// (empty unless analysed).
    pub fn decomps(&self) -> &[ShapeDecomp] {
        &self.decomps
    }

    /// Request `req`'s shape decomposition, if the table was analysed.
    pub(crate) fn decomp(&self, req: usize) -> Option<&ShapeDecomp> {
        self.decomps.get(self.shape_of[req] as usize)
    }
}
