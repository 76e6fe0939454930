//! `hcc_lab`, the lab's one command-line front door: every table,
//! figure, soak and report is a [`Command`] declared next to the code it
//! drives. Its parser reads the arguments through [`crate::cli`] and
//! hands back the work as a [`Run`] without starting it. [`run`] is the
//! one place that reports a refusal — `hcc_lab <sub>: <error>`, then the
//! usage line, on stderr, and exit status 2 — a malformed
//! `HCC_ENGINE_THREADS` or `HCC_FAULT_PLAN` included.
//!
//! It owns the process's configuration and output too: [`main`] reads
//! the `HCC_*` environment once into an [`Env`] (a test builds one from
//! literal pairs), and a [`Run`] runs on the one [`Lab`] [`run`] builds
//! from it, writing only to the stdout and stderr it is handed. A
//! closed stdout ends the run quietly with status 0 (`hcc_lab figures |
//! head -1`); any other failed write is reported with status 1.

use std::io::{self, ErrorKind, Write};
use std::process::ExitCode;
use std::sync::Arc;

use hcc_core::{CcReport, PerfModel, PhaseBreakdown};
use hcc_runtime::SimConfig;
use hcc_types::json::ToJson;
use hcc_types::{CcMode, FaultPlan, Planes};
use hcc_workloads::{parse_workload, runner, suites, Scenario, WorkloadSpec};

use crate::cli::{self, Args, CliError, Env};
use crate::engine::{ExperimentEngine, ScenarioResult, STATS_JSON_ENV};
use crate::figures::{CAUSAL_ENV, METRICS_ENV};
use crate::{chaos, explain, faults, figures, obs, serving, watch};

/// A subcommand's work, parsed and not yet started: it runs on the
/// [`Lab`], writes its report to the first writer (stdout) and its
/// diagnostics to the second (stderr), and returns the exit status, or
/// the write that failed.
pub type Run = Box<dyn FnOnce(&Lab, &mut dyn Write, &mut dyn Write) -> io::Result<ExitCode>>;

/// What one run shares: its one engine, so each batch reuses the
/// others' scenarios; the figure switches every config built on
/// [`figures::cfg`] picks up; and the file the engine's stats go to.
#[derive(Debug)]
pub struct Lab {
    /// The run's engine.
    pub engine: ExperimentEngine,
    /// `HCC_FAULT_PLAN`: the plan that replaces a figure config's own.
    pub plan: Option<FaultPlan>,
    /// [`METRICS_ENV`] and [`CAUSAL_ENV`]: the planes a figure config adds.
    pub planes: Planes,
    /// [`STATS_JSON_ENV`]: where the engine's stats go as JSON.
    pub stats_json: Option<String>,
}

impl Lab {
    /// A lab on a `threads`-wide engine, every switch off, no stats file.
    pub fn new(threads: usize) -> Lab {
        Lab {
            engine: ExperimentEngine::new(threads),
            plan: None,
            planes: Planes::NONE,
            stats_json: None,
        }
    }

    /// The lab `env` sets up: an engine `HCC_ENGINE_THREADS` wide (by
    /// default the available parallelism, at most 8), a plane switch on
    /// for any non-empty value but `0`. A malformed width or plan is
    /// refused.
    pub(crate) fn from_env(env: &Env) -> Result<Lab, CliError> {
        let threads = env
            .engine_threads()?
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get().min(8)));
        let on = |var| env.text(var).is_some_and(|v| !v.is_empty() && v != "0");
        let stats_json = env.text(STATS_JSON_ENV).filter(|p| !p.is_empty());
        Ok(Lab {
            plan: env.fault_plan()?,
            planes: Planes::from_flags(on(METRICS_ENV), on(CAUSAL_ENV), false),
            stats_json: stats_json.map(String::from),
            ..Lab::new(threads)
        })
    }

    /// `cfg`, a figure config built on [`figures::cfg`], with the
    /// switches on: the plan replaces its own, the planes join its own.
    pub(crate) fn switch(&self, mut cfg: SimConfig) -> SimConfig {
        cfg.planes |= self.planes;
        if let Some(plan) = &self.plan {
            cfg.fault = plan.clone();
        }
        cfg
    }

    /// Runs `batch`, figure scenarios, with the switches on: the
    /// engine's results in request order.
    pub(crate) fn run_figures(&self, batch: &[Scenario]) -> Vec<Arc<ScenarioResult>> {
        let switched = batch.iter().map(|scenario| Scenario {
            cfg: self.switch(scenario.cfg.clone()),
            ..scenario.clone()
        });
        self.engine.run_all(&switched.collect::<Vec<_>>())
    }
}

/// One subcommand of the front door.
#[derive(Debug, Clone, Copy)]
pub struct Command {
    /// Its usage line, `usage: hcc_lab <name> ...`, printed after a
    /// refusal.
    pub usage: &'static str,
    /// Reads its arguments and the overrides it takes: the work, or a
    /// typed refusal before any of it starts.
    pub parse: fn(&mut Args, &Env) -> Result<Run, CliError>,
}

impl Command {
    /// The name `hcc_lab` takes for it, as its usage line gives it.
    pub fn name(&self) -> &'static str {
        self.usage.split(' ').nth(2).unwrap_or_default()
    }
}

/// Every subcommand, in the order the usage lists them.
pub static COMMANDS: [Command; 16] = [
    Command {
        usage: "usage: hcc_lab list",
        parse: |args, _| {
            args.end()?;
            Ok(Box::new(|_, out, _| list(out)))
        },
    },
    Command {
        usage: "usage: hcc_lab run <app> [--cc]",
        parse: |args, _| app_command(args, true, run_and_print),
    },
    Command {
        usage: "usage: hcc_lab report <app>",
        parse: |args, _| app_command(args, false, |spec, _, out, _| report(spec, out)),
    },
    Command {
        usage: "usage: hcc_lab deck <file> [--cc|--report]",
        parse: |args, _| deck(args),
    },
    Command {
        usage: "usage: hcc_lab trace <app> [--cc]",
        parse: |args, _| app_command(args, true, |spec, cc, out, _| trace(spec, cc, out)),
    },
    Command {
        usage: "usage: hcc_lab chrome <app> [--cc]",
        parse: |args, _| app_command(args, true, |spec, cc, out, _| chrome(spec, cc, out)),
    },
    figures::summary::COMMAND,
    figures::COMMAND,
    figures::sensitivity::COMMAND,
    explain::COMMAND,
    serving::COMMAND,
    chaos::COMMAND,
    watch::front::WATCH,
    watch::front::WHY,
    obs::COMMAND,
    faults::COMMAND,
];

/// The front door's own usage: every subcommand's name.
pub fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(Command::name).collect();
    let names = names.join(" ");
    format!("usage: hcc_lab <command> [<args>]\ncommands: {names}")
}

/// Why the front door refused: the subcommand it refused (`None` when
/// the subcommand itself was missing or unknown) and the error.
pub type Refusal = (Option<&'static Command>, CliError);

/// Reads the subcommand, the [`Lab`] `env` sets up and the subcommand's
/// arguments and overrides: the lab and its work, not yet started, or
/// the refusal.
pub fn parse(args: &mut Args, env: &Env) -> Result<(Lab, Run), Refusal> {
    let names: Vec<&str> = COMMANDS.iter().map(Command::name).collect();
    let expected = format!("expected {}", names.join("|"));
    let find = |name: &str| COMMANDS.iter().find(|c| c.name() == name);
    let command = args.name("<command>", "command", &expected, find);
    let command = command.map_err(|e| (None, e))?;
    let refused = |e| (Some(command), e);
    let lab = Lab::from_env(env).map_err(refused)?;
    Ok((lab, (command.parse)(args, env).map_err(refused)?))
}

/// Runs the subcommand `argv` names (program name excluded) under the
/// process's `HCC_*` environment, read here and nowhere else, with its
/// stdout and stderr: [`run`].
pub fn main(argv: impl IntoIterator<Item = String>) -> ExitCode {
    let env: Env = std::env::vars_os().collect();
    let (mut out, mut err) = (io::stdout().lock(), io::stderr().lock());
    run(argv, &env, &mut out, &mut err)
}

/// Runs the subcommand `argv` names (program name excluded) under `env`,
/// writing its report to `out` and its diagnostics to `err`, or reports
/// why not and exits 2. A write that fails ends the run: quietly with
/// status 0 when the reader went away (`BrokenPipe`), otherwise with
/// status 1 after `hcc_lab <sub>: <error>` (or `cannot write <path>:
/// <error>` for a side file) on `err`.
pub fn run(
    argv: impl IntoIterator<Item = String>,
    env: &Env,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> ExitCode {
    let argv: Vec<String> = argv.into_iter().collect();
    let (lab, work) = match parse(&mut Args::new(argv.iter().cloned()), env) {
        Ok(parsed) => parsed,
        Err((Some(c), e)) => {
            return cli::refuse(err, &format!("hcc_lab {}", c.name()), c.usage, &e);
        }
        Err((None, e)) => return cli::refuse(err, "hcc_lab", &usage(), &e),
    };
    match work(&lab, out, err).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            let file = e.get_ref().is_some_and(|e| e.is::<cli::WriteError>());
            let _ = if file {
                writeln!(err, "{e}")
            } else {
                writeln!(err, "hcc_lab {}: {e}", argv[0])
            };
            ExitCode::FAILURE
        }
    }
}

/// Reports a failure on `err`, best effort: exit status 1.
fn fail(err: &mut dyn Write, message: String) -> io::Result<ExitCode> {
    let _ = writeln!(err, "{message}");
    Ok(ExitCode::FAILURE)
}

/// What an app subcommand does with the app: its spec, the CC mode,
/// stdout and stderr.
type AppBody = fn(&WorkloadSpec, CcMode, &mut dyn Write, &mut dyn Write) -> io::Result<ExitCode>;

/// `<app>`, then `--cc` when `takes_cc`: the work runs `body` on the
/// named suite app (or its UVM variant).
fn app_command(args: &mut Args, takes_cc: bool, body: AppBody) -> Result<Run, CliError> {
    let app = args.value("<app>")?;
    let mut cc = CcMode::Off;
    for flag in args.by_ref() {
        match flag.as_str() {
            "--cc" if takes_cc => cc = CcMode::On,
            _ => return Err(CliError::Unknown { arg: flag }),
        }
    }
    Ok(Box::new(move |_, out, err| {
        match suites::by_name(&app).or_else(|| suites::uvm_variant(&app)) {
            Some(spec) => body(&spec, cc, out, err),
            None => fail(err, format!("unknown app '{app}' — try `hcc_lab list`")),
        }
    }))
}

/// `<file> [--cc|--report]`: runs a workload deck.
fn deck(args: &mut Args) -> Result<Run, CliError> {
    let path = args.value("<file>")?;
    let (mut cc, mut with_report) = (CcMode::Off, false);
    for flag in args.by_ref() {
        match flag.as_str() {
            "--cc" => cc = CcMode::On,
            "--report" => with_report = true,
            _ => return Err(CliError::Unknown { arg: flag }),
        }
    }
    Ok(Box::new(move |_, out, err| {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => return fail(err, format!("cannot read {path}: {e}")),
        };
        match parse_workload(&text) {
            Ok(spec) if with_report => report(&spec, out),
            Ok(spec) => run_and_print(&spec, cc, out, err),
            Err(e) => fail(err, format!("{path}: {e}")),
        }
    }))
}

fn list(out: &mut dyn Write) -> io::Result<ExitCode> {
    writeln!(
        out,
        "{:<16} {:<10} {:>9} {:>10} {:>6}",
        "app", "suite", "launches", "copies", "uvm"
    )?;
    for spec in suites::all() {
        writeln!(
            out,
            "{:<16} {:<10} {:>9} {:>10} {:>6}",
            spec.name,
            spec.suite.to_string(),
            spec.launch_count(),
            spec.copy_bytes().to_string(),
            spec.uvm,
        )?;
    }
    writeln!(
        out,
        "\nUVM variants (for `run`/`report`): {}",
        suites::UVM_VARIANT_APPS.join(", ")
    )?;
    Ok(ExitCode::SUCCESS)
}

fn run_and_print(
    spec: &WorkloadSpec,
    cc: CcMode,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> io::Result<ExitCode> {
    let r = match runner::run(spec, SimConfig::new(cc)) {
        Ok(r) => r,
        Err(e) => return fail(err, format!("run failed: {e}")),
    };
    let breakdown = PhaseBreakdown::from_timeline(&r.timeline);
    let fitted = PerfModel::fit(&r.timeline);
    writeln!(out, "{} [{}]", spec.name, cc)?;
    writeln!(out, "  {breakdown}")?;
    writeln!(out, "  [{}]", breakdown.render_bar(60))?;
    writeln!(
        out,
        "  alpha={:.2} beta={:.2} | hypercalls={} | uvm faults={}",
        fitted.model.alpha, fitted.model.beta, r.td.hypercalls, r.uvm.faults
    )?;
    Ok(ExitCode::SUCCESS)
}

fn report(spec: &WorkloadSpec, out: &mut dyn Write) -> io::Result<ExitCode> {
    let base = runner::run(spec, SimConfig::new(CcMode::Off)).expect("base run");
    let cc = runner::run(spec, SimConfig::new(CcMode::On)).expect("cc run");
    let report = CcReport::generate(spec.name, &base.timeline, &cc.timeline);
    out.write_all(report.to_markdown().as_bytes())?;
    Ok(ExitCode::SUCCESS)
}

fn trace(spec: &WorkloadSpec, cc: CcMode, out: &mut dyn Write) -> io::Result<ExitCode> {
    let r = runner::run(spec, SimConfig::new(cc)).expect("run");
    for event in r.timeline.events() {
        writeln!(out, "{}", event.to_json_string())?;
    }
    Ok(ExitCode::SUCCESS)
}

fn chrome(spec: &WorkloadSpec, cc: CcMode, out: &mut dyn Write) -> io::Result<ExitCode> {
    let cfg = SimConfig::new(cc).with_metrics(true).with_causal(true);
    let r = runner::run(spec, cfg).expect("run");
    let mut export = hcc_trace::ChromeExport::new().with_causal(&r.causal);
    if let Some(set) = r.metrics.as_ref() {
        export = export.with_metrics(set);
    }
    out.write_all(export.render(&r.timeline).as_bytes())?;
    Ok(ExitCode::SUCCESS)
}
