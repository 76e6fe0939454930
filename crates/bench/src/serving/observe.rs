//! The one step every soak cell takes.
//!
//! [`cell`] drains one cell through
//! [`cluster::simulate`](super::cluster::simulate), builds the
//! observation planes that are on from the finished run, and folds the
//! run into the [`ModeRun`] its report keeps. The serving and chaos
//! soaks both run every cell through it, so a plane that is off costs
//! nothing, a plane that is on cannot perturb the run it observes, and
//! each cell's outcome log is freed before the next cell drains. The
//! drain measures the cell's drained flag and time-to-recover itself;
//! it records depth-gauge series only for the watch plane.

use hcc_trace::rollup::CompletionSample;
use hcc_trace::{FlightConfig, FlightLog, FlightRecorder, FlightSkeleton};
use hcc_types::Planes;

use super::arrival::Request;
use super::cluster::{self, AdmissionCosts, ClusterConfig, Outcome};
use super::report::{self, ModeRun};
use super::shapes::ShapeTable;
use crate::watch::{self, SoakContext, WatchConfig, WatchReport};

/// One rollup sample per settled request, in canonical `(at, req)`
/// order whatever order `settled` lists them in. A request settles at
/// its completion (its dispatch, for rejections).
pub fn completion_samples<'a>(
    requests: &[Request],
    settled: impl IntoIterator<Item = (usize, &'a Outcome)>,
) -> Vec<CompletionSample> {
    let mut samples: Vec<CompletionSample> = settled
        .into_iter()
        .map(|(i, o)| CompletionSample {
            req: i as u32,
            tenant: requests[i].tenant,
            at: o.completion,
            latency: o.completion.saturating_since(requests[i].arrival),
            rejected: o.rejected,
        })
        .collect();
    samples.sort_unstable_by_key(|s| (s.at, s.req));
    samples
}

/// Request `i`'s flight record. Its SPDM and doorbell spans are this
/// request's own admission charges, priced by `admission`; co-batched
/// members' admissions surface as the batch-margin span.
fn skeleton(
    i: usize,
    request: &Request,
    o: &Outcome,
    admission: &AdmissionCosts,
) -> FlightSkeleton {
    let (spdm, doorbell) = admission.of(o);
    FlightSkeleton {
        req: i as u32,
        tenant: request.tenant,
        gpu: o.gpu,
        batch: u32::from(o.batch),
        arrival: request.arrival,
        dispatch: o.dispatch,
        settle: o.completion,
        spdm,
        doorbell,
        cold: o.cold,
        rejected: o.rejected,
    }
}

/// Drains `requests` over `table` on `cluster` and returns the run's
/// [`ModeRun`] with the planes `watch` and `flight` ask for: the watch
/// report (blamed through `table`'s critical paths) and the resolved
/// flight log, with the report's incidents already linked to the log's
/// exemplars. Under `soak.storm`, the drain measures time-to-recover at
/// the calendar's peak ends; it records the depth-gauge series
/// ([`Planes::METRICS`]) only for the watch, whose queue-anomaly
/// detector reads `serving.queue_depth`.
pub fn cell(
    requests: &[Request],
    table: &ShapeTable,
    cluster: &ClusterConfig<'_>,
    watch: Option<&WatchConfig>,
    flight: Option<FlightConfig>,
    soak: &SoakContext<'_>,
) -> (ModeRun, Option<WatchReport>, Option<FlightLog>) {
    let peak_ends = soak.storm.map(|storm| storm.schedule.peak_ends());
    let cluster = ClusterConfig {
        peak_ends: peak_ends.as_deref(),
        planes: cluster.planes.set(Planes::METRICS, watch.is_some()),
        ..*cluster
    };
    let mut run = cluster::simulate(requests, table, &cluster);
    let mut watch = watch.map(|wcfg| {
        let samples = completion_samples(requests, run.outcomes.iter().enumerate());
        watch::observe(
            wcfg,
            &watch::SoakView {
                soak: SoakContext {
                    horizon: soak.horizon.max(run.end),
                    ..*soak
                },
                samples: &samples,
                queue: run.metrics.gauge_series("serving.queue_depth"),
                blame: Some(table),
            },
        )
    });
    let flight = flight.map(|fcfg| {
        let mut recorder = FlightRecorder::new(fcfg);
        for (i, (request, o)) in requests.iter().zip(&run.outcomes).enumerate() {
            recorder.record(skeleton(i, request, o, &run.admission));
        }
        recorder.resolve(table.shape_of(), table.decomps())
    });
    if let (Some(w), Some(f)) = (watch.as_mut(), flight.as_ref()) {
        w.link_exemplars(f);
    }
    // Free the watch's gauge series before the report allocates its
    // tenant scratch, so the two never add up in the peak heap.
    drop(std::mem::take(&mut run.metrics));
    let mode = report::mode_run(&cluster, requests, table, run);
    (mode, watch, flight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_types::{SimDuration, SimTime};

    #[test]
    fn samples_are_canonical_whatever_the_settle_order() {
        // Four requests arriving at 0 (tenants alternating): #2 is
        // rejected at 5 µs, #1 and #3 settle together at 10 µs.
        let requests: Vec<Request> = (0..4)
            .map(|i| Request {
                arrival: SimTime::ZERO,
                tenant: i % 2,
                class: 0,
            })
            .collect();
        let outcomes: Vec<Outcome> = [(30, false), (10, false), (5, true), (10, false)]
            .map(|(us, rejected)| Outcome {
                dispatch: SimTime::ZERO + SimDuration::micros(us.min(5)),
                completion: SimTime::ZERO + SimDuration::micros(us),
                gpu: 0,
                batch: 1,
                cold: false,
                rejected,
            })
            .to_vec();
        let fwd = completion_samples(&requests, outcomes.iter().enumerate());
        let rev = completion_samples(&requests, outcomes.iter().enumerate().rev());
        assert_eq!(fwd, rev);
        let order: Vec<u32> = fwd.iter().map(|s| s.req).collect();
        assert_eq!(order, vec![2, 1, 3, 0], "(at, req) order, ties by request");
        assert!(fwd[0].rejected);
        assert_eq!(fwd[0].latency, SimDuration::micros(5));
        assert_eq!(
            (fwd[1].tenant, fwd[3].latency),
            (1, SimDuration::micros(30))
        );
    }
}
