//! Calibration sensitivity: how the headline reproduction statistics move
//! when individual calibration constants are perturbed ±25 %. A
//! simulation-based reproduction is only trustworthy if its conclusions
//! are not knife-edge artifacts of one constant — this table shows which
//! results are robust (most) and which constants they key on.

use std::fmt::Write;
use std::ops::Div;

use hcc_runtime::SimConfig;
use hcc_trace::EventKind;
use hcc_types::calib::Calibration;
use hcc_types::{Bandwidth, ByteSize, CcMode, HostMemKind, SimDuration};
use hcc_workloads::{Op, RunResult, Scenario, WorkloadSpec};

use super::Computed;
use crate::engine::{self, ScenarioFailure};
use crate::lab::Command;
use crate::report;

/// Scales one calibration constant by a factor.
type Perturb = fn(&mut Calibration, f64);

/// The perturbed constants — the hypercall multiplier (the paper's
/// +470%), the bounce-copy staging and pinned DMA rates, the base KLO and
/// the doorbell trap probability: each row's label and its [`Perturb`].
const ROWS: [(&str, Perturb); 5] = [
    ("tdx hypercall_mult (5.7)", |c, f| c.tdx.hypercall_mult *= f),
    ("bounce_copy rate (80 GB/s)", |c, f| {
        c.pcie.bounce_copy = c.pcie.bounce_copy.scale(f)
    }),
    ("pinned_h2d rate (52 GB/s)", |c, f| {
        c.pcie.pinned_h2d = Bandwidth::gb_per_s(52.0 * f)
    }),
    ("klo_base (6 us)", |c, f| {
        c.launch.klo_base = c.launch.klo_base.scale(f)
    }),
    ("doorbell_trap_prob (0.60)", |c, f| {
        c.launch.doorbell_trap_prob = (c.launch.doorbell_trap_prob * f).min(1.0);
    }),
];

/// CC-on over CC-off of what `measure` reads off `spec`'s runs under
/// `calib`. Routing through the shared engine means the unperturbed
/// baseline (recomputed by every row) simulates once and is a cache hit
/// thereafter.
fn ratio<T: Div<Output = f64>>(
    spec: WorkloadSpec,
    calib: &Calibration,
    measure: fn(&RunResult) -> T,
) -> Result<f64, ScenarioFailure> {
    let run = |cc| {
        let cfg = SimConfig::new(cc).with_calib(calib.clone());
        Ok(measure(
            engine::global()
                .run(&Scenario::adhoc(spec.clone(), cfg))
                .run()?,
        ))
    };
    Ok(run(CcMode::On)? / run(CcMode::Off)?)
}

/// CC/base ratio of a 64 MiB pageable copy under a calibration.
fn copy_ratio(calib: &Calibration) -> Result<f64, ScenarioFailure> {
    let size = ByteSize::mib(64);
    let kind = HostMemKind::Pageable;
    let spec = WorkloadSpec::micro(
        "sens-copy",
        vec![
            Op::MallocHost {
                slot: 0,
                size,
                kind,
            },
            Op::MallocDevice { slot: 0, size },
            Op::H2D {
                dst: 0,
                src: 0,
                bytes: size,
            },
        ],
    );
    ratio(spec, calib, |run| {
        let copies = run.timeline.events().iter();
        let copies = copies.filter(|e| matches!(e.kind, EventKind::Memcpy { .. }));
        copies.map(|e| e.duration()).sum::<SimDuration>()
    })
}

/// CC/base ratio of steady-state launch cost under a calibration.
/// Median, not mean: the rare KLO spikes (Fig. 11a's tail) would dominate
/// a 200-sample mean.
fn klo_ratio(calib: &Calibration) -> Result<f64, ScenarioFailure> {
    let ket = SimDuration::micros(5);
    let launches = Op::Launch {
        kernel: 0,
        ket,
        managed: vec![],
        repeat: 200,
    };
    ratio(
        WorkloadSpec::micro("sens-klo", vec![launches]),
        calib,
        |run| {
            let lm = run.timeline.launch_metrics();
            // Skip the first (cold) launch.
            let warm: Vec<SimDuration> = lm.launches[1..].iter().map(|l| l.klo).collect();
            let summary = hcc_trace::Summary::of(&warm).expect("non-empty");
            summary.median.as_secs_f64()
        },
    )
}

/// One row: both ratios at the paper's calibration and with `perturb`
/// scaling the constant by 0.75 and 1.25.
fn row(name: &str, perturb: Perturb) -> Result<String, ScenarioFailure> {
    let base = Calibration::paper();
    let scaled = |f| {
        let mut calib = Calibration::paper();
        perturb(&mut calib, f);
        calib
    };
    let (down, up) = (scaled(0.75), scaled(1.25));
    Ok(format!(
        "{name:<34} copy x{:.2} -> [{:.2}, {:.2}]   KLO x{:.2} -> [{:.2}, {:.2}]\n",
        copy_ratio(&base)?,
        copy_ratio(&down)?,
        copy_ratio(&up)?,
        klo_ratio(&base)?,
        klo_ratio(&down)?,
        klo_ratio(&up)?,
    ))
}

/// The sensitivity table. A row whose scenario failed renders as its
/// `!!` line.
pub fn render() -> Computed<String> {
    let mut out = report::section("calibration sensitivity (each constant perturbed ±25%)");
    out.push_str("perturbed constant                 headline stats at [-25%, +25%]\n\n");
    let mut failures = Vec::new();
    for (name, perturb) in ROWS {
        match row(name, perturb) {
            Ok(line) => out.push_str(&line),
            Err(f) => {
                report::failure_lines(&mut out, std::slice::from_ref(&f));
                failures.push(f);
            }
        }
    }
    let _ = writeln!(
        out,
        "\nreading: the copy slowdown keys on the crypto ceiling (fixed at the\n\
         paper's 3.36 GB/s) and barely moves with staging/DMA rates; the KLO\n\
         slowdown scales with the hypercall multiplier and trap probability,\n\
         exactly the attribution the paper makes (Fig. 8 / Observation 4)."
    );
    Computed {
        data: out,
        failures,
    }
}

/// `hcc_lab sensitivity`: [`render`]'s table. It takes no arguments.
pub const COMMAND: Command = Command {
    usage: "usage: hcc_lab sensitivity",
    parse: |args| {
        args.end()?;
        Ok(Box::new(|out, err| {
            let computed = render();
            out.write_all(computed.data.as_bytes())?;
            Ok(report::finish(err, &computed.failures))
        }))
    },
};
