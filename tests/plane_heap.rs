//! Plane heap guard: what the watch and flight planes add to a soak's
//! peak live heap, and what a cell with both planes off holds per
//! request.
//!
//! Both planes are views over the drain's one outcome log, so neither
//! may keep a per-request copy of it. The watch reads the settled
//! population through a window index (4 B per request plus one offset
//! per window), and the flight log keeps one compact record per kept
//! exemplar, deriving its span tree on demand. A cell with both planes
//! off keeps no outcome log at all: its drain writes a latency and a
//! wait sample per request into the soak's buffers, so the planes-off
//! base holds [`SAVED_PER_REQUEST`] bytes per request less than a cell
//! that keeps the log and its tail scratch. This binary counts live
//! heap bytes through the shared `heap` allocator and drains the stormy
//! soak on fresh engines: planes off (at its size and at twice it),
//! watch only and flight only. It holds one test, so no other test's
//! allocations share the counter.

mod heap;

use std::mem::size_of;

use hcc_bench::chaos::{self, ChaosConfig};
use hcc_bench::engine::ExperimentEngine;
use hcc_bench::serving::cluster::Outcome;
use hcc_bench::watch::stormy_soak;
use hcc_trace::FlightConfig;
use hcc_types::SimDuration;

/// The most bytes `chaos::run` of `cfg` holds at once beyond what was
/// live before it, on a fresh one-thread engine, and the exemplars its
/// cell's flight log kept.
fn peak_of(cfg: &ChaosConfig) -> (usize, usize) {
    let engine = ExperimentEngine::new(1);
    let (rep, usage) = heap::measure(|| chaos::run(cfg, &engine));
    let kept = rep.profiles[0].cells[0]
        .flight
        .as_ref()
        .map_or(0, |f| f.samples.len());
    (usage.peak, kept)
}

/// Per-exemplar flight cost on this soak before the flight log derived
/// its spans on demand: 144 B of sample plus a heap span list, and the
/// outcome log still live while the log resolved.
const FLIGHT_BYTES_PER_EXEMPLAR_BEFORE: usize = 432;

/// What a planes-off cell no longer holds per request: the outcome log
/// and the tail scratch a log-keeping cell holds, less the latency and
/// wait samples its drain writes instead (16 B).
const SAVED_PER_REQUEST: usize =
    size_of::<Outcome>() + size_of::<SimDuration>() - 2 * size_of::<SimDuration>();

/// The most a planes-off stormy soak's peak may grow per added request.
/// A cell then holds 36 B per request (the 16 B trace, the 4 B
/// request→shape map and two 8 B samples); 52 B per request when every
/// cell kept the outcome log.
const PLANES_OFF_SLOPE_BOUND: f64 = 38.0;

#[test]
fn planes_add_no_per_request_copy_to_the_peak_heap() {
    let off = ChaosConfig {
        watch: None,
        flight: None,
        ..stormy_soak()
    };
    let requests = off.requests as usize;
    // The first run also pays one-time allocations (lazy tables and the
    // like); only the second planes-off run is the baseline.
    peak_of(&off);
    let (base, _) = peak_of(&off);
    let (watch, _) = peak_of(&ChaosConfig {
        watch: stormy_soak().watch,
        ..off.clone()
    });
    let (flight, kept) = peak_of(&ChaosConfig {
        flight: Some(FlightConfig::default()),
        ..off.clone()
    });
    let (doubled, _) = peak_of(&ChaosConfig {
        requests: 2 * off.requests,
        ..off.clone()
    });
    let slope = doubled.saturating_sub(base) as f64 / requests as f64;
    eprintln!(
        "planes off {base} B ({doubled} B at twice the requests: {slope:.1} B/request), \
         watch only {watch} B (+{:.1} B/request), \
         flight only {flight} B (+{:.1} B/exemplar over {kept})",
        watch.saturating_sub(base) as f64 / requests as f64,
        flight.saturating_sub(base) as f64 / kept.max(1) as f64,
    );
    assert!(kept > 0, "the flight plane kept no exemplar");
    assert!(
        slope <= PLANES_OFF_SLOPE_BOUND,
        "a planes-off cell holds {slope:.1} B per request at its peak: more than {PLANES_OFF_SLOPE_BOUND}"
    );
    // Each plane's allowance over a base that still held the outcome log
    // and its tail scratch, restated over today's log-free base.
    let saved = SAVED_PER_REQUEST * requests;
    assert!(
        watch.saturating_sub(base) <= 8 * requests + saved,
        "the watch adds {} B to a {base} B peak over {requests} requests: \
         more than 8 B each over a log-keeping base",
        watch - base
    );
    assert!(
        2 * flight.saturating_sub(base + saved) <= FLIGHT_BYTES_PER_EXEMPLAR_BEFORE * kept,
        "the flight plane adds {} B over {kept} exemplars to a log-keeping base: \
         more than half of {} B each",
        flight.saturating_sub(base + saved),
        FLIGHT_BYTES_PER_EXEMPLAR_BEFORE
    );
}
