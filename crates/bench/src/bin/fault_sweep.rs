//! Fault sweep: runs the standard suite under a seeded [`FaultPlan`] and
//! prints each scenario's phase breakdown with the `T_fault` recovery
//! overlay — the robustness companion to the Fig. 1/3 breakdowns.
//!
//! ```sh
//! cargo run --release -p hcc-bench --bin fault_sweep -- \
//!     --plan "seed=7,gcm=0.35,bounce=0.3,ring=0.3,uvm=0.35,max=6"
//! ```
//!
//! Stdout is deterministic for a given plan (engine statistics go to
//! stderr), so the tier-2 CI smoke diffs two runs at different
//! `HCC_ENGINE_THREADS` settings. `--panic-smoke` instead checks that a
//! deliberately panicking ad-hoc scenario is contained as a structured
//! failure while the rest of the batch completes.

use hcc_bench::cli::{self, CliError};
use hcc_bench::engine;
use hcc_bench::report;
use hcc_runtime::SimConfig;
use hcc_types::{ByteSize, CcMode, FaultPlan, HostMemKind, SimDuration};
use hcc_workloads::{suites, Op, Scenario, Suite, WorkloadSpec};

const DEFAULT_PLAN: &str = "seed=7,gcm=0.35,bounce=0.3,ring=0.3,uvm=0.35,max=6";

fn main() {
    let usage = "usage: fault_sweep [--plan <spec>] [--panic-smoke]";
    let (plan, panic_smoke) = cli::parse_or_exit("fault_sweep", usage, |args| {
        let mut plan = DEFAULT_PLAN.to_string();
        let mut panic_smoke = false;
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--plan" => plan = args.value(&flag)?,
                "--panic-smoke" => panic_smoke = true,
                _ => return Err(CliError::Unknown { arg: flag }),
            }
        }
        let plan = FaultPlan::parse(&plan).map_err(|detail| CliError::Invalid {
            flag: "--plan".to_string(),
            detail,
        })?;
        Ok((plan, panic_smoke))
    });

    if panic_smoke {
        panic_smoke_check();
    } else {
        sweep(plan);
    }
}

/// Runs every standard app under CC with the plan and prints the
/// breakdown table.
fn sweep(plan: FaultPlan) {
    let head = report::section("fault sweep — phase breakdown with T_fault overlay");
    print!("{head}");
    println!("plan: {plan}");
    println!(
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
    let results = engine::global().run_all(&requests);

    let mut total_fault = SimDuration::ZERO;
    let mut failures = Vec::new();
    for (scn, res) in requests.iter().zip(results) {
        let run = match res.run() {
            Ok(r) => r,
            Err(f) => {
                println!("!! {f}");
                failures.push(f);
                continue;
            }
        };
        let p = run.timeline.phase_totals();
        let mm = run.timeline.mem_metrics();
        total_fault += p.t_fault;
        println!(
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
    println!("total T_fault across suite: {total_fault}");

    // Wall-clock engine statistics (cache hits, fault counters) go to
    // stderr so stdout stays thread-count invariant.
    engine::emit_stats();
    report::exit_on_failures(&failures);
}

/// A small well-formed program used as the healthy neighbors of the
/// crashing scenario.
fn toy(tag: u64) -> WorkloadSpec {
    WorkloadSpec {
        name: "smoke-toy",
        suite: Suite::Micro,
        uvm: false,
        ops: vec![
            Op::MallocHost {
                slot: 0,
                size: ByteSize::mib(2),
                kind: HostMemKind::Pinned,
            },
            Op::MallocDevice {
                slot: 0,
                size: ByteSize::mib(2),
            },
            Op::H2D {
                dst: 0,
                src: 0,
                bytes: ByteSize::mib(2),
            },
            Op::Launch {
                kernel: 0,
                ket: SimDuration::micros(100 + tag),
                managed: vec![],
                repeat: 3,
            },
        ],
    }
}

/// Asserts that a panicking ad-hoc scenario is contained as a structured
/// [`RunError::Panicked`] failure while its batch neighbors complete.
/// Exits 0 when containment holds, 1 otherwise.
fn panic_smoke_check() {
    let cfg = SimConfig::new(CcMode::On).with_seed(0xFA11_2025);
    let crash = WorkloadSpec {
        name: "smoke-crash",
        suite: Suite::Micro,
        uvm: false,
        ops: vec![Op::Crash {
            message: "deliberate panic-smoke crash",
        }],
    };
    let requests = vec![
        Scenario::adhoc(toy(1), cfg.clone()),
        Scenario::adhoc(crash, cfg.clone()),
        Scenario::adhoc(toy(2), cfg),
    ];
    let results = engine::global().run_all(&requests);

    let crash_contained = matches!(
        results[1].run(),
        Err(f) if f.error.contains("panicked") && f.label.contains("smoke-crash")
    );
    let neighbors_ok = results[0].run().is_ok() && results[2].run().is_ok();
    if crash_contained && neighbors_ok {
        println!("panic smoke: contained (structured failure, batch completed)");
    } else {
        println!(
            "panic smoke: FAILED (crash contained: {crash_contained}, neighbors ok: {neighbors_ok})"
        );
        std::process::exit(1);
    }
}
