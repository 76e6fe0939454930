//! Soak buffer guard: a serving soak with no plane on allocates its
//! per-request buffers once per soak, not once per cell.
//!
//! Every cell of a soak drains the same trace, so the soak lends one
//! pair of latency and wait buffers to all of them. A buffer allocated
//! per cell would be freed, trimmed by glibc and faulted back in by the
//! next cell. This binary counts allocations through the shared `heap`
//! allocator. It holds one test, so no other test's allocations share
//! the counter.

mod heap;

use hcc_bench::engine::ExperimentEngine;
use hcc_bench::serving::{self, SchedulerKind, ServingConfig};

/// Allocations of at least 8 bytes per request that `serving::run` of
/// `cfg` makes on a fresh one-thread engine.
fn per_request_allocations(cfg: &ServingConfig) -> usize {
    let engine = ExperimentEngine::new(1);
    let per_request = 8 * cfg.requests as usize;
    heap::count_large(per_request, || serving::run(cfg, &engine)).1
}

#[test]
fn per_request_buffers_do_not_grow_with_the_cell_count() {
    let cfg = |schedulers: Vec<SchedulerKind>| ServingConfig {
        requests: 4_000,
        gpus: 2,
        schedulers,
        ..ServingConfig::default()
    };
    let one = cfg(vec![SchedulerKind::Fifo]);
    let three = cfg(SchedulerKind::ALL.to_vec());
    // The first run also pays one-time allocations (lazy tables and the
    // like).
    per_request_allocations(&one);
    let (two_cells, six_cells) = (
        per_request_allocations(&one),
        per_request_allocations(&three),
    );
    eprintln!("allocations of >= 8 B/request: {two_cells} over 2 cells, {six_cells} over 6");
    assert!(two_cells > 0, "not even the trace was counted");
    assert!(
        six_cells <= two_cells,
        "6 cells made {six_cells} allocations of >= 8 B per request, 2 cells {two_cells}: \
         a cell allocates its own per-request buffer"
    );
}
