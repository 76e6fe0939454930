//! `hcc_lab` — the lab's command-line front door.
//!
//! ```sh
//! cargo run -p hcc-bench --bin hcc_lab -- list
//! cargo run -p hcc-bench --bin hcc_lab -- run 3dconv --cc
//! cargo run -p hcc-bench --bin hcc_lab -- report sc
//! cargo run -p hcc-bench --bin hcc_lab -- deck my_workload.hcc --report
//! cargo run -p hcc-bench --bin hcc_lab -- trace gemm --cc   # JSON events
//! ```

use hcc_bench::cli::{self, Args, CliError};
use hcc_core::{CcReport, PerfModel, PhaseBreakdown};
use hcc_runtime::SimConfig;
use hcc_types::json::ToJson;
use hcc_types::CcMode;
use hcc_workloads::{parse_workload, runner, suites, WorkloadSpec};

const USAGE: &str = "usage: hcc_lab <command>\n\
     \n\
     commands:\n\
     \x20 list                      list the built-in benchmark apps\n\
     \x20 run <app> [--cc]          run one app, print the phase breakdown\n\
     \x20 report <app>              base-vs-CC characterization + advice\n\
     \x20 deck <file> [--cc|--report]  run a workload deck (text format)\n\
     \x20 trace <app> [--cc]        dump the trace as JSON lines\n\
     \x20 chrome <app> [--cc]       dump a chrome://tracing JSON file to stdout";

/// Parses `<command> [<app>|<file>] [--cc] [--report]` into the command,
/// its target and its switches, refusing switches the command lacks.
fn parse(args: &mut Args) -> Result<(String, String, CcMode, bool), CliError> {
    let command = args.name(
        "<command>",
        "command",
        "expected list|run|report|deck|trace|chrome",
        |c| {
            ["list", "run", "report", "deck", "trace", "chrome"]
                .contains(&c)
                .then(|| c.to_string())
        },
    )?;
    let target = match command.as_str() {
        "list" => String::new(),
        "deck" => args.value("<file>")?,
        _ => args.value("<app>")?,
    };
    let (mut cc, mut report) = (CcMode::Off, false);
    for flag in args.by_ref() {
        match (flag.as_str(), command.as_str()) {
            ("--cc", "run" | "deck" | "trace" | "chrome") => cc = CcMode::On,
            ("--report", "deck") => report = true,
            _ => return Err(CliError::Unknown { arg: flag }),
        }
    }
    Ok((command, target, cc, report))
}

fn load_spec(name: &str) -> WorkloadSpec {
    suites::by_name(name)
        .or_else(|| suites::uvm_variant(name))
        .unwrap_or_else(|| {
            eprintln!("unknown app '{name}' — try `hcc_lab list`");
            std::process::exit(1);
        })
}

fn cmd_list() {
    println!(
        "{:<16} {:<10} {:>9} {:>10} {:>6}",
        "app", "suite", "launches", "copies", "uvm"
    );
    for spec in suites::all() {
        println!(
            "{:<16} {:<10} {:>9} {:>10} {:>6}",
            spec.name,
            spec.suite.to_string(),
            spec.launch_count(),
            spec.copy_bytes().to_string(),
            spec.uvm,
        );
    }
    println!(
        "\nUVM variants (for `run`/`report`): {}",
        suites::UVM_VARIANT_APPS.join(", ")
    );
}

fn run_and_print(spec: &WorkloadSpec, cc: CcMode) {
    let r = runner::run(spec, SimConfig::new(cc)).unwrap_or_else(|e| {
        eprintln!("run failed: {e}");
        std::process::exit(1);
    });
    let breakdown = PhaseBreakdown::from_timeline(&r.timeline);
    let fitted = PerfModel::fit(&r.timeline);
    println!("{} [{}]", spec.name, cc);
    println!("  {breakdown}");
    println!("  [{}]", breakdown.render_bar(60));
    println!(
        "  alpha={:.2} beta={:.2} | hypercalls={} | uvm faults={}",
        fitted.model.alpha, fitted.model.beta, r.td.hypercalls, r.uvm.faults
    );
}

fn cmd_report(spec: &WorkloadSpec) {
    let base = runner::run(spec, SimConfig::new(CcMode::Off)).expect("base run");
    let cc = runner::run(spec, SimConfig::new(CcMode::On)).expect("cc run");
    let report = CcReport::generate(spec.name, &base.timeline, &cc.timeline);
    print!("{}", report.to_markdown());
}

fn load_deck(path: &str) -> WorkloadSpec {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    parse_workload(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    })
}

fn cmd_trace(spec: &WorkloadSpec, cc: CcMode) {
    let r = runner::run(spec, SimConfig::new(cc)).expect("run");
    for event in r.timeline.events() {
        println!("{}", event.to_json_string());
    }
}

fn cmd_chrome(spec: &WorkloadSpec, cc: CcMode) {
    let cfg = SimConfig::new(cc).with_metrics(true).with_causal(true);
    let r = runner::run(spec, cfg).expect("run");
    let mut export = hcc_trace::ChromeExport::new().with_causal(&r.causal);
    if let Some(set) = r.metrics.as_ref() {
        export = export.with_metrics(set);
    }
    print!("{}", export.render(&r.timeline));
}

fn main() {
    let (command, target, cc, report) = cli::parse_or_exit("hcc_lab", USAGE, parse);
    match command.as_str() {
        "list" => cmd_list(),
        "run" => run_and_print(&load_spec(&target), cc),
        "report" => cmd_report(&load_spec(&target)),
        "deck" if report => cmd_report(&load_deck(&target)),
        "deck" => run_and_print(&load_deck(&target), cc),
        "trace" => cmd_trace(&load_spec(&target), cc),
        _ => cmd_chrome(&load_spec(&target), cc),
    }
}
