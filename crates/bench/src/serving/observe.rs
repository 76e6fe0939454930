//! The one step every soak cell takes.
//!
//! [`cell`] drains one cell through
//! [`cluster::simulate`](super::cluster::simulate), builds the
//! observation planes that are on from the finished run, and folds the
//! run into the [`ModeRun`] its report keeps. The serving and chaos
//! soaks both run every cell through it, so a plane that is off costs
//! nothing, a plane that is on cannot perturb the run it observes, and
//! a cell keeps an outcome log only when a plane reads it, freed before
//! the next cell drains. A cell with no plane on keeps no log: its
//! drain writes each admitted request's latency and wait into the
//! soak's [`Samples`], and the report's tails are selected from them.
//! The drain measures the cell's drained flag and time-to-recover
//! itself, and folds the queue-depth integrals the watch reads; it
//! records no series.

use hcc_trace::{FlightConfig, FlightLog, FlightRecorder, FlightSkeleton};

use super::arrival::Request;
use super::cluster::{self, AdmissionCosts, ClusterConfig, Outcome, Record, Samples};
use super::report::{self, ModeRun};
use super::shapes::ShapeTable;
use crate::watch::{self, Settled, SoakContext, WatchConfig, WatchReport};

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
/// the calendar's peak ends; for the watch, it folds the queue depth's
/// integral over each fast window, which the queue-anomaly detector
/// reads.
///
/// The drain keeps its outcome log only when the watch or the flight
/// plane is on. Both planes read the log in place; the cell first frees
/// `samples`, so their buffers are not live while the planes run, and
/// the report selects its tails from the log and frees it before the
/// flight log resolves its exemplars. With both planes off, the drain
/// writes each admitted request's latency and wait into `samples`,
/// which the soak lends to every cell, and keeps no log.
pub fn cell(
    requests: &[Request],
    table: &ShapeTable,
    cluster: &ClusterConfig<'_>,
    watch: Option<&WatchConfig>,
    flight: Option<FlightConfig>,
    soak: &SoakContext<'_>,
    samples: &mut Samples,
) -> (ModeRun, Option<WatchReport>, Option<FlightLog>) {
    let peak_ends = soak.storm.map(|storm| storm.schedule.peak_ends());
    let cluster = ClusterConfig {
        peak_ends: peak_ends.as_deref(),
        queue_window: watch.map(|w| w.fast),
        ..*cluster
    };
    let keep_log = watch.is_some() || flight.is_some();
    let record = if keep_log {
        samples.release();
        Record::Log
    } else {
        Record::Samples(&mut *samples)
    };
    let run = cluster::simulate(requests, table, &cluster, record);
    let mut watch = watch.map(|wcfg| {
        watch::observe(
            wcfg,
            &watch::SoakView {
                soak: SoakContext {
                    horizon: soak.horizon.max(run.end),
                    ..*soak
                },
                settled: Settled::Drain {
                    requests,
                    outcomes: &run.outcomes,
                },
                queue: run.queue_integrals.as_ref(),
                blame: Some(table),
            },
        )
    });
    let recorder = flight.map(|fcfg| {
        let mut recorder = FlightRecorder::new(fcfg);
        for (i, (request, o)) in requests.iter().zip(&run.outcomes).enumerate() {
            recorder.record(skeleton(i, request, o, &run.admission));
        }
        recorder
    });
    let mode = report::mode_run(&cluster, requests, run, (!keep_log).then_some(samples));
    let flight = recorder.map(|r| r.resolve(table.shape_of(), table.decomps()));
    if let (Some(w), Some(f)) = (watch.as_mut(), flight.as_ref()) {
        w.link_exemplars(f);
    }
    (mode, watch, flight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_trace::rollup::{CompletionSample, WindowIndex};
    use hcc_types::{LatencyBudget, SimDuration, SimTime};

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
        let drain = Settled::Drain {
            requests: &requests,
            outcomes: &outcomes,
        };
        let samples: Vec<CompletionSample> = (0..drain.len()).map(|i| drain.sample(i)).collect();
        assert!(samples[2].rejected);
        assert_eq!(samples[2].latency, SimDuration::micros(5));
        assert_eq!(
            (samples[1].tenant, samples[0].latency),
            (1, SimDuration::micros(30))
        );

        // 10 µs windows over [0, 31 µs): each lists its requests by id.
        let us = |v| SimTime::ZERO + SimDuration::micros(v);
        let index = WindowIndex::build(us(31), SimDuration::micros(10), 4, |i| drain.settle(i));
        let windows: Vec<&[u32]> = (0..index.windows()).map(|k| index.window(k)).collect();
        assert_eq!(windows, [&[2][..], &[1, 3], &[], &[0]]);

        // The watch reads the drain in place exactly as it reads the
        // same samples listed in reverse.
        let names = ["a".to_string(), "b".to_string()];
        let budget = LatencyBudget {
            p99: SimDuration::micros(20),
            p999: SimDuration::micros(25),
            max_reject_ppm: 1_000,
        };
        let reversed: Vec<CompletionSample> = samples.iter().rev().copied().collect();
        let report = |settled| {
            let wcfg = WatchConfig {
                fast: SimDuration::micros(10),
                ..WatchConfig::default()
            };
            let view = watch::SoakView {
                soak: SoakContext {
                    tenant_names: &names,
                    budgets: &[budget, budget],
                    horizon: us(31),
                    storm: None,
                },
                settled,
                queue: None,
                blame: None,
            };
            watch::observe(&wcfg, &view)
        };
        let (canonical, listed) = (report(drain), report(Settled::Samples(&reversed)));
        assert_eq!(canonical, listed);
        assert_eq!(canonical.windows[1].stats.completed, 2);
    }
}
