//! Fault sweep: runs the standard suite under a seeded [`FaultPlan`] and
//! renders each scenario's phase breakdown with the `T_fault` recovery
//! overlay — the robustness companion to the Fig. 1/3 breakdowns
//! (`hcc_lab faults [--plan <spec>]`).
//!
//! The table is deterministic for a given plan (engine statistics go to
//! stderr): `crates/bench/tests/process_switches.rs` runs it at 1 and 4
//! `HCC_ENGINE_THREADS` against `tests/golden/fault_sweep.txt`.
//! `--panic-smoke` instead checks that a deliberately panicking ad-hoc
//! scenario is contained as a structured failure while the rest of the
//! batch completes.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::process::ExitCode;

use hcc_runtime::SimConfig;
use hcc_types::{CcMode, FaultPlan, SimDuration};
use hcc_workloads::{suites, Op, Scenario, WorkloadSpec};

use crate::cli::{self, CliError};
use crate::engine::ExperimentEngine;
use crate::figures::Computed;
use crate::lab::Command;
use crate::report;

/// The plan the golden sweep freezes, and the default of `--plan`.
pub const DEFAULT_PLAN: &str = "seed=7,gcm=0.35,bounce=0.3,ring=0.3,uvm=0.35,max=6";

/// Every standard app under CC with `plan`, run on `engine`: the
/// breakdown table, a `!!` line per failed scenario, and the suite's
/// total `T_fault`.
pub fn sweep(engine: &ExperimentEngine, plan: FaultPlan) -> Computed<String> {
    let mut out = report::section("fault sweep — phase breakdown with T_fault overlay");
    let _ = writeln!(out, "plan: {plan}");
    let _ = writeln!(
        out,
        "{:<18} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7} {:>7}",
        "scenario", "mem", "launch", "kernel", "other", "t_fault", "span", "faults", "retries"
    );

    let cfg = SimConfig::new(CcMode::On)
        .with_seed(0xFA11_2025)
        .with_fault_plan(plan);
    let requests: Vec<Scenario> = suites::all()
        .iter()
        .map(|spec| Scenario::standard(spec.name, cfg.clone()))
        .collect();
    let results = engine.run_all(&requests);

    let mut total_fault = SimDuration::ZERO;
    let mut failures = Vec::new();
    for (scn, res) in requests.iter().zip(results) {
        let run = match res.run() {
            Ok(r) => r,
            Err(f) => {
                report::failure_lines(&mut out, std::slice::from_ref(&f));
                failures.push(f);
                continue;
            }
        };
        let p = run.timeline.phase_totals();
        let mm = run.timeline.mem_metrics();
        total_fault += p.t_fault;
        let _ = writeln!(
            out,
            "{:<18} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7} {:>7}",
            scn.label(),
            p.t_mem.to_string(),
            p.t_launch.to_string(),
            p.t_kernel.to_string(),
            p.t_other.to_string(),
            p.t_fault.to_string(),
            p.span.to_string(),
            mm.faults_injected,
            mm.fault_retries,
        );
    }
    let _ = writeln!(out, "total T_fault across suite: {total_fault}");
    Computed {
        data: out,
        failures,
    }
}

/// Checks that a panicking ad-hoc scenario is contained as a structured
/// `RunError::Panicked` failure while its batch neighbors (two small
/// suite apps) complete: success when containment holds, 1 otherwise.
fn panic_smoke(engine: &ExperimentEngine, out: &mut dyn Write) -> io::Result<ExitCode> {
    let cfg = SimConfig::new(CcMode::On).with_seed(0xFA11_2025);
    let crash = WorkloadSpec::micro(
        "smoke-crash",
        vec![Op::Crash {
            message: "deliberate panic-smoke crash",
        }],
    );
    let requests = vec![
        Scenario::standard("2mm", cfg.clone()),
        Scenario::adhoc(crash, cfg.clone()),
        Scenario::standard("dwt2d", cfg),
    ];
    let results = engine.run_all(&requests);

    let crash_contained = matches!(
        results[1].run(),
        Err(f) if f.error.contains("panicked") && f.label.contains("smoke-crash")
    );
    let neighbors_ok = results[0].run().is_ok() && results[2].run().is_ok();
    if crash_contained && neighbors_ok {
        writeln!(
            out,
            "panic smoke: contained (structured failure, batch completed)"
        )?;
        Ok(ExitCode::SUCCESS)
    } else {
        writeln!(
            out,
            "panic smoke: FAILED (crash contained: {crash_contained}, neighbors ok: {neighbors_ok})"
        )?;
        Ok(ExitCode::FAILURE)
    }
}

/// `hcc_lab faults`: [`sweep`] under `--plan` (default
/// [`DEFAULT_PLAN`]), or the engine's panic containment check with
/// `--panic-smoke`.
pub const COMMAND: Command = Command {
    usage: "usage: hcc_lab faults [--plan <spec>] [--panic-smoke]",
    parse: |args, _| {
        let mut plan = DEFAULT_PLAN.to_string();
        let mut smoke = false;
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--plan" => plan = args.value(&flag)?,
                "--panic-smoke" => smoke = true,
                _ => return Err(CliError::Unknown { arg: flag }),
            }
        }
        let plan = cli::fault_plan("--plan", &plan)?;
        if smoke {
            return Ok(Box::new(|lab, out, _| panic_smoke(&lab.engine, out)));
        }
        Ok(Box::new(move |lab, out, err| {
            let computed = sweep(&lab.engine, plan);
            out.write_all(computed.data.as_bytes())?;
            Ok(report::finish(lab, err, &computed.failures))
        }))
    },
};
