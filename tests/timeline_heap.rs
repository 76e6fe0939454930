//! Timeline heap guard: what a batch of finished scenario results holds.
//!
//! A `Timeline` stores each trace event once, in an arena fitted to its
//! length when the run ends, plus fixed-size running aggregates; launch
//! and kernel records are derived on read. So the results of `summary`'s
//! prefetch batch may hold little more than their events. This binary
//! counts live heap bytes through the shared `heap` allocator and runs
//! that batch on a fresh one-thread engine. It holds one test, so no
//! other test's allocations share the counter.

mod heap;

use std::mem::size_of;
use std::sync::Arc;

use hcc_bench::engine::ExperimentEngine;
use hcc_bench::figures::summary;
use hcc_trace::TraceEvent;

/// Bytes a result may hold beyond its events: the engine's cache entry,
/// label, causal graph, metrics snapshot and audit, and the batch's
/// share of the cache map. A per-launch record list (40 B a launch) or
/// an unfitted arena costs several times this on the batch.
const ALLOWANCE_PER_SCENARIO: usize = 1536;

#[test]
fn results_hold_their_events_and_a_fixed_allowance() {
    let batch = summary::prefetch();
    let engine = ExperimentEngine::new(1);
    let (results, usage) = heap::measure(|| engine.run_all(&batch));
    let mut distinct: Vec<_> = results.iter().collect();
    distinct.sort_by_key(|r| Arc::as_ptr(r));
    distinct.dedup_by(|a, b| Arc::ptr_eq(a, b));
    let mut events = 0;
    for r in &distinct {
        let run = r.run().unwrap_or_else(|f| panic!("{f}"));
        events += run.timeline.len();
    }
    let scenarios = distinct.len();
    let budget = events * size_of::<TraceEvent>() + scenarios * ALLOWANCE_PER_SCENARIO;
    eprintln!(
        "{scenarios} scenarios, {events} events: results hold {} B ({:.1} B/event), \
         peak {} B, budget {budget} B",
        usage.held,
        usage.held as f64 / events as f64,
        usage.peak,
    );
    assert!(
        usage.held <= budget,
        "{scenarios} results hold {} B: more than their {events} events of {} B each \
         plus {ALLOWANCE_PER_SCENARIO} B per scenario ({budget} B)",
        usage.held,
        size_of::<TraceEvent>(),
    );
}
