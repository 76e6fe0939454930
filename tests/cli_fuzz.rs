//! Fuzzing the one flag parser every `hcc_lab` subcommand shares
//! (`hcc_bench::cli`) and the front door that dispatches them
//! (`hcc_bench::lab`): on random strings, each typed value reader and
//! each name vocabulary (scheduler, arrival process, storm profile,
//! recovery policy, the figure names) returns either a value or its
//! typed `CliError`, never a panic, and every accepted name re-parses
//! from its printed form to itself. Random `HCC_*` override values in an
//! [`Env`] read the same way, with errors naming the variable, and the
//! `HCC_ENGINE_THREADS` and `HCC_FAULT_PLAN` overrides every subcommand
//! takes are refused by the front door when malformed. Every
//! subcommand's parser takes random argument lists without panicking.
//! The bounded soak sizes (requests, GPUs, batch cap) take their
//! maximum and refuse one more.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hcc_bench::chaos::{self, ChaosConfig};
use hcc_bench::cli::{self, Args, CanonicalSoak, CliError, Env};
use hcc_bench::engine::THREADS_ENV;
use hcc_bench::figures::{Figure, Selection, FAULT_PLAN_ENV};
use hcc_bench::lab::{self, Lab, Refusal, COMMANDS};
use hcc_bench::serving::arrival::MAX_REQUESTS;
use hcc_bench::serving::cluster::{MAX_BATCH, MAX_GPUS};
use hcc_bench::serving::{self, ArrivalKind, SchedulerKind, ServingConfig};
use hcc_bench::watch::Soak;
use hcc_check::strategy::{bytes, choice, u64s, vecs};
use hcc_check::{ensure, ensure_eq, forall, Config, PropResult};
use hcc_types::{FaultPlan, RecoveryPolicy, StormProfile};

const FLAG: &str = "--flag";

/// The environment variable the override readers are fuzzed through.
const ENV: &str = "HCC_CLI_FUZZ_OVERRIDE";

/// Pieces random inputs are glued from, `|`-separated: number syntax,
/// signs and radices, overflow edges, whitespace, non-ASCII, and every
/// name (with aliases and wrong cases) the vocabularies know.
const FRAGMENTS: &str = "|0|1|7|9|0x|0X|ff|G|-|+|.|e|E|_| |\t|\n|NaN|inf|infinity\
    |4294967295|4294967296|18446744073709551615|18446744073709551616|1e308|1e309|é|∞|\0\
    |fifo|FIFO|prio|priority|batch|batching|cb|continuous|poisson|bursty|mmpp|diurnal|sin\
    |retry|degrade|abort|Abort|bounce-squall|crypto-burst|uvm-thrash|ring-flap|all\
    |--requests|--days|--gpus|--seed|--serve";

/// Pieces of `figures` argument lists: every name, near misses, the
/// `--functional` flag and stray flags.
const FIGURE_FRAGMENTS: &str = "|table1|table|fig01|fig02|fig03|fig04a|fig04b|fig04|fig05\
    |fig06|fig07|fig08|fig09|fig09b|fig10|fig11|fig12|fig12a|fig12b|fig12c|fig12d|fig13\
    |fig14|fig15|fig99|FIG05|ablations|ablation|all|ALL| |-|--|--functional|--Functional\
    |--bogus|-h|é|\0";

/// Pieces of subcommand argument lists: every subcommand's flags, some
/// of their values, and fault-plan specs good and bad.
const COMMAND_FRAGMENTS: &str = "|--cc|--report|--json|--prom|--chrome|--plan|--panic-smoke\
    |--serve|--chaos|--watch|--flight|--request|--incident|--profile|--profiles|--policies\
    |--util|--max-batch|--tenants|--scheduler|--arrival|--replicas|--episodes-per-day\
    |--requests|--days|--gpus|--seed|--functional|--bogus|gemm|sc|deck.hcc|out.json|fig05\
    |all|fifo|poisson|crypto-burst|retry|0|1|0.5|NaN|4294967296|seed=7,gcm=0.35|gcm=abc|max=x";

/// The environment holding `value` as `var`, and nothing else.
fn one(var: &str, value: &str) -> Env {
    [(var, value)].into_iter().collect()
}

/// A random string: raw bytes read as UTF-8 lossily, one fragment
/// alone (so every exact name turns up), or fragments glued together.
fn text(pick: &(Vec<&'static str>, Vec<u8>, u64)) -> String {
    let (parts, raw, mode) = pick;
    match mode {
        0 => String::from_utf8_lossy(raw).into_owned(),
        1 => parts.first().copied().unwrap_or_default().to_string(),
        _ => parts.concat(),
    }
}

fn strings() -> impl hcc_check::Strategy<Value = (Vec<&'static str>, Vec<u8>, u64)> {
    strings_of(FRAGMENTS)
}

fn strings_of(
    fragments: &'static str,
) -> impl hcc_check::Strategy<Value = (Vec<&'static str>, Vec<u8>, u64)> {
    (
        vecs(choice(&fragments.split('|').collect::<Vec<_>>()), 0..5),
        vecs(bytes(), 0..12),
        u64s(0..4),
    )
}

/// `f()`, or a failed case naming the panic.
fn no_panic<T>(what: &str, raw: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|_| format!("{what} panicked on {raw:?}"))
}

/// The error's message leads with the flag it refused.
fn names_the_flag(err: &CliError) -> PropResult {
    let msg = err.to_string();
    ensure!(
        msg.starts_with(FLAG),
        "error {msg:?} does not lead with {FLAG}"
    );
    Ok(())
}

#[test]
fn value_readers_return_a_value_or_a_typed_error() {
    forall!(Config::new(0xC11_0001).with_cases(2048), pick in strings() => {
        let raw = text(&pick);
        let int = no_panic("u64", &raw, || Args::new([raw.as_str()]).u64(FLAG))?;
        // An override holding the same text reads the same, or is
        // refused naming the variable.
        match no_panic("Env::u64", &raw, || one(ENV, &raw).u64(ENV))? {
            Ok(v) => ensure!(v.is_some() && v == int.clone().ok(), "{ENV}={raw:?}: {v:?}"),
            Err(e) => ensure!(
                matches!(e, CliError::NotAnInteger { .. })
                    && int.is_err()
                    && e.to_string().starts_with(ENV),
                "{ENV}={raw:?}: {e}"
            ),
        }
        match int {
            Ok(v) => {
                ensure_eq!(cli::parse_int(&raw), Some(v));
                ensure_eq!(cli::parse_int(&v.to_string()), Some(v));
            }
            Err(e) => {
                ensure!(matches!(e, CliError::NotAnInteger { .. }), "u64: {e:?}");
                names_the_flag(&e)?;
            }
        }
        match no_panic("u32", &raw, || Args::new([raw.as_str()]).u32(FLAG))? {
            Ok(v) => ensure_eq!(cli::parse_int(&raw), Some(u64::from(v))),
            Err(e) => {
                ensure!(
                    matches!(e, CliError::NotAnInteger { .. } | CliError::OutOfRange { .. }),
                    "u32: {e:?}"
                );
                names_the_flag(&e)?;
            }
        }
        match no_panic("fraction", &raw, || Args::new([raw.as_str()]).fraction(FLAG))? {
            Ok(v) => ensure!(v.is_finite(), "fraction accepted {v}"),
            Err(e) => {
                ensure!(matches!(e, CliError::NotAFraction { .. }), "fraction: {e:?}");
                names_the_flag(&e)?;
            }
        }
    });
}

/// An accepted name, printed and parsed again, is the same value; a
/// refused one is an `UnknownName` naming the flag.
fn round_trips<T: PartialEq + std::fmt::Debug>(
    kind: &str,
    got: Result<T, CliError>,
    print: impl Fn(&T) -> String,
    parse: impl Fn(&str) -> Option<T>,
) -> PropResult {
    match got {
        Ok(v) => {
            let shown = print(&v);
            let back = parse(&shown);
            ensure!(
                back.as_ref() == Some(&v),
                "{kind} {shown:?} re-parses to {back:?}"
            );
        }
        Err(e) => {
            ensure!(matches!(e, CliError::UnknownName { .. }), "{kind}: {e:?}");
            names_the_flag(&e)?;
        }
    }
    Ok(())
}

#[test]
fn name_parsers_accept_round_trips_or_refuse_by_name() {
    forall!(Config::new(0xC11_0002).with_cases(2048), pick in strings() => {
        let raw = text(&pick);
        let scheduler = no_panic("scheduler", &raw, || {
            Args::new([raw.as_str()]).name(FLAG, "scheduler", "", SchedulerKind::parse)
        })?;
        round_trips("scheduler", scheduler, SchedulerKind::to_string, SchedulerKind::parse)?;

        let arrival = no_panic("arrival", &raw, || Args::new([raw.as_str()]).arrival(FLAG))?;
        round_trips("arrival", arrival, ArrivalKind::to_string, ArrivalKind::parse)?;

        let profile = no_panic("storm profile", &raw, || {
            cli::storm_profile(FLAG, raw.clone(), "")
        })?;
        round_trips("storm profile", profile, |p| p.name.to_string(), StormProfile::by_name)?;

        let policy = no_panic("recovery policy", &raw, || {
            cli::lookup(FLAG, "recovery policy", "", raw.clone(), RecoveryPolicy::parse)
        })?;
        round_trips("recovery policy", policy, RecoveryPolicy::to_string, RecoveryPolicy::parse)?;
    });
}

/// Random argument lists through the canonical soak's flags: each flag
/// is consumed, left to the caller, or refused with a typed error naming
/// it, and whatever is accepted builds both soaks within their clamps
/// and bounds.
#[test]
fn canonical_soak_flags_never_panic() {
    forall!(
        Config::new(0xC11_0003).with_cases(256),
        picks in vecs(strings(), 0..6) =>
    {
        let argv: Vec<String> = picks.iter().map(text).collect();
        let (soaks, refused) = no_panic("canonical soak", &format!("{argv:?}"), || {
            let mut soak = CanonicalSoak::default();
            let mut args = Args::new(argv.clone());
            let mut refused = None;
            while let Some(flag) = args.next() {
                if let Err(e) = soak.flag(&flag, &mut args) {
                    refused = Some((flag, e));
                    break;
                }
            }
            let mut canonical = |serve| {
                soak.serve = serve;
                soak.canonical(&Env::default())
            };
            ([canonical(false), canonical(true)], refused)
        })?;
        if let Some((flag, e)) = refused {
            ensure!(
                matches!(
                    e,
                    CliError::NotAnInteger { .. }
                        | CliError::MissingValue { .. }
                        | CliError::OutOfRange { .. }
                ),
                "{flag}: {e:?}"
            );
            ensure!(e.to_string().starts_with(&flag), "error {e} does not lead with {flag}");
        }
        let [Ok(Soak::Stormy(chaos)), Ok(Soak::Calm(serving))] = soaks else {
            return Err(format!("the soaks did not build: {soaks:?}"));
        };
        let sized = |requests: u64, gpus: usize| {
            (1..=MAX_REQUESTS).contains(&requests) && (1..=MAX_GPUS).contains(&(gpus as u64))
        };
        ensure!(sized(serving.requests, serving.gpus));
        ensure!(sized(chaos.requests, chaos.gpus) && (1..=3650).contains(&chaos.days));
    });
}

/// Random argument lists through `hcc_lab figures`'s parser: names
/// (repeats included), `--functional` and stray flags give a selection
/// or a typed error, never a panic. Each selected figure re-parses from
/// its printed name, a list of no names selects every figure, and
/// `--functional` is on exactly when given.
#[test]
fn figure_selections_never_panic() {
    forall!(
        Config::new(0xC11_0004).with_cases(1024),
        picks in vecs(strings_of(FIGURE_FRAGMENTS), 0..6) =>
    {
        let argv: Vec<String> = picks.iter().map(text).collect();
        let parsed = no_panic("figures", &format!("{argv:?}"), || {
            Selection::parse(&mut Args::new(argv.clone()))
        })?;
        let selection = match parsed {
            Ok(selection) => selection,
            Err(e) => {
                ensure!(
                    matches!(e, CliError::Unknown { .. } | CliError::UnknownName { .. }),
                    "{argv:?}: {e:?}"
                );
                return Ok(());
            }
        };
        ensure_eq!(selection.functional, argv.iter().any(|a| a == "--functional"));
        for figure in &selection.figures {
            ensure_eq!(names(Figure::select(figure.name)), vec![figure.name]);
        }
        if argv.iter().all(|a| a == "--functional") {
            ensure_eq!(names(Some(selection.figures)), names(Some(Figure::ALL.to_vec())));
        } else {
            ensure!(!selection.figures.is_empty(), "{argv:?} selected nothing");
        }
    });
}

/// The names of the figures a selection holds (none when refused).
fn names(figures: Option<Vec<Figure>>) -> Vec<&'static str> {
    figures.unwrap_or_default().iter().map(|f| f.name).collect()
}

/// The `figures` vocabulary: `all` is every figure in golden order,
/// `fig12` its three panels, and each figure's name selects just it.
#[test]
fn figure_names_select_what_they_say() {
    assert_eq!(
        names(Figure::select("all")),
        [
            "table1", "fig01", "fig02", "fig03", "fig04a", "fig04b", "fig05", "fig06", "fig07",
            "fig08", "fig09", "fig09b", "fig10", "fig11", "fig12a", "fig12b", "fig12c", "fig13",
            "fig14"
        ]
    );
    assert_eq!(
        names(Figure::select("fig12")),
        ["fig12a", "fig12b", "fig12c"]
    );
    for figure in Figure::ALL {
        assert_eq!(names(Figure::select(figure.name)), [figure.name]);
    }
    assert_eq!(names(Figure::select("ablations")), ["ablations"]);
    let err = Selection::parse(&mut Args::new(["fig99"])).unwrap_err();
    assert!(
        err.to_string()
            .starts_with("<figure>: unknown figure \"fig99\""),
        "{err}"
    );
    let err = Selection::parse(&mut Args::new(["fig05", "--bogus"])).unwrap_err();
    assert_eq!(err.to_string(), "--bogus: unknown flag");
}

/// Bare `figures` and `figures all` render exactly `Figure::ALL`, in
/// order: the ablations only render when named, so neither output (nor
/// `tests/golden/figures.txt`) gains them.
#[test]
fn bare_figures_and_all_render_exactly_the_paper_figures() {
    let every = names(Some(Figure::ALL.to_vec()));
    assert!(!every.contains(&Figure::ABLATIONS.name));
    for argv in [vec![], vec!["all"]] {
        let selection = Selection::parse(&mut Args::new(argv.clone())).expect("parses");
        assert_eq!(names(Some(selection.figures)), every, "{argv:?}");
    }
    let selection = Selection::parse(&mut Args::new(["all", "ablations"])).expect("parses");
    let mut all_then_ablations = every.clone();
    all_then_ablations.push("ablations");
    assert_eq!(names(Some(selection.figures)), all_then_ablations);
}

/// `max` read for `flag` is accepted; `max + 1` is an `OutOfRange`
/// naming `flag` and `max`.
fn takes_max_refuses_one_more<T: std::fmt::Debug>(
    flag: &str,
    max: u64,
    read: impl Fn(u64) -> Result<T, CliError>,
) -> T {
    let over = read(max + 1).expect_err("one past the bound");
    assert_eq!(
        over.to_string(),
        format!("{flag}: {} is out of range (at most {max})", max + 1)
    );
    assert!(matches!(over, CliError::OutOfRange { max: m, .. } if m == max));
    read(max).unwrap_or_else(|e| panic!("{flag} at its max: {e}"))
}

/// Each soak-size bound holds at its maximum and refuses one more: the
/// flag reader for `--requests`, `--gpus` and `--max-batch`, the
/// canonical soak's `--requests` and `--gpus`, and the
/// `HCC_SERVE_REQUESTS` and `HCC_CHAOS_REQUESTS` overrides.
#[test]
fn soak_sizes_take_their_bound_and_refuse_one_more() {
    assert_eq!(
        (MAX_REQUESTS, MAX_GPUS, MAX_BATCH),
        (
            u64::from(u32::MAX),
            u64::from(u32::MAX),
            u64::from(u16::MAX)
        )
    );
    for (flag, max) in [
        ("--requests", MAX_REQUESTS),
        ("--gpus", MAX_GPUS),
        ("--max-batch", MAX_BATCH),
    ] {
        let n = takes_max_refuses_one_more(flag, max, |n| {
            Args::new([n.to_string()]).at_most(flag, max)
        });
        assert_eq!(n, max);
    }

    let canonical = |flag: &str, n: u64| {
        let mut soak = CanonicalSoak::default();
        let mut args = Args::new([n.to_string()]);
        soak.flag(flag, &mut args)?;
        soak.serve = true;
        match soak.canonical(&Env::default())? {
            Soak::Calm(cfg) => Ok((cfg.requests, cfg.gpus as u64)),
            Soak::Stormy(_) => unreachable!("--serve selects the calm soak"),
        }
    };
    let (requests, _) =
        takes_max_refuses_one_more("--requests", MAX_REQUESTS, |n| canonical("--requests", n));
    assert_eq!(requests, MAX_REQUESTS);
    let (_, gpus) = takes_max_refuses_one_more("--gpus", MAX_GPUS, |n| canonical("--gpus", n));
    assert_eq!(gpus, MAX_GPUS);

    let serve = takes_max_refuses_one_more(serving::REQUESTS_ENV, MAX_REQUESTS, |n| {
        ServingConfig::default().from_env(&one(serving::REQUESTS_ENV, &n.to_string()))
    });
    assert_eq!(serve.requests, MAX_REQUESTS);
    let chaos = takes_max_refuses_one_more(chaos::REQUESTS_ENV, MAX_REQUESTS, |n| {
        ChaosConfig::default().from_env(&one(chaos::REQUESTS_ENV, &n.to_string()))
    });
    assert_eq!(chaos.requests, MAX_REQUESTS);
}

/// `argv` through the front door's parser under `env`: the lab and its
/// work (never run), or the refusal.
fn dispatch_in(env: &Env, argv: &[String]) -> Result<(Lab, lab::Run), Refusal> {
    lab::parse(&mut Args::new(argv.to_vec()), env)
}

/// [`dispatch_in`] with no override set.
fn dispatch(argv: &[String]) -> Result<(Lab, lab::Run), Refusal> {
    dispatch_in(&Env::default(), argv)
}

/// The positional arguments `name` needs before its flags.
fn positionals(name: &str) -> &'static [&'static str] {
    match name {
        "run" | "report" | "trace" | "chrome" => &["gemm"],
        "deck" => &["deck.hcc"],
        _ => &[],
    }
}

/// A missing or unknown subcommand is refused without naming one; a bad
/// flag on any subcommand is refused naming that subcommand; every
/// subcommand parses its bare form.
#[test]
fn the_front_door_refuses_with_typed_errors() {
    let Err(missing) = dispatch(&[]) else {
        panic!("no subcommand parsed");
    };
    assert!(missing.0.is_none());
    assert_eq!(missing.1.to_string(), "<command>: missing value");
    for raw in [
        "bogus",
        "--bogus",
        "slo_watch",
        "obs_report",
        "fault_sweep",
        "",
    ] {
        let Err(unknown) = dispatch(&[raw.to_string()]) else {
            panic!("{raw:?} parsed as a subcommand");
        };
        assert!(unknown.0.is_none(), "{raw:?}");
        assert!(
            matches!(
                unknown.1,
                CliError::UnknownName {
                    kind: "command",
                    ..
                }
            ),
            "{raw:?}: {:?}",
            unknown.1
        );
    }
    for command in &COMMANDS {
        let bare: Vec<String> = std::iter::once(command.name())
            .chain(positionals(command.name()).iter().copied())
            .map(String::from)
            .collect();
        assert!(dispatch(&bare).is_ok(), "{bare:?} is refused");
        let mut bad = bare.clone();
        bad.push("--bogus".to_string());
        let Err(refusal) = dispatch(&bad) else {
            panic!("{bad:?} parsed");
        };
        assert_eq!(refusal.0.map(|c| c.name()), Some(command.name()));
        assert!(
            matches!(&refusal.1, CliError::Unknown { arg } if arg == "--bogus"),
            "{bad:?}: {:?}",
            refusal.1
        );
        assert!(command
            .usage
            .starts_with(&format!("usage: hcc_lab {}", command.name())));
    }
    assert!(COMMANDS.iter().all(|c| lab::usage().contains(c.name())));
}

/// Random argument lists after each subcommand: the work or a typed
/// refusal naming that subcommand, never a panic.
#[test]
fn every_subcommand_parser_never_panics() {
    let names: Vec<&str> = COMMANDS.iter().map(lab::Command::name).collect();
    forall!(
        Config::new(0xC11_0005).with_cases(2048),
        (name, picks) in (choice(&names), vecs(strings_of(COMMAND_FRAGMENTS), 0..6)) =>
    {
        let argv: Vec<String> = std::iter::once(name.to_string())
            .chain(picks.iter().map(text))
            .collect();
        let parsed = no_panic("hcc_lab", &format!("{argv:?}"), || dispatch(&argv).err())?;
        if let Some(refusal) = parsed {
            ensure_eq!(refusal.0.map(|c| c.name()), Some(name));
            ensure!(!refusal.1.to_string().is_empty());
        }
    });
}

/// A malformed `HCC_ENGINE_THREADS` (not a positive integer) is refused
/// by the front door, naming the variable, before any subcommand runs; a
/// positive one reads as itself.
#[test]
fn malformed_engine_threads_is_refused() {
    let argv = ["summary".to_string()];
    for raw in ["abc", "0", "", "-1", "1.5", "18446744073709551616"] {
        let Err(refusal) = dispatch_in(&one(THREADS_ENV, raw), &argv) else {
            panic!("{THREADS_ENV}={raw:?} was accepted");
        };
        assert_eq!(refusal.0.map(|c| c.name()), Some("summary"));
        assert!(
            refusal.1.to_string().starts_with(THREADS_ENV),
            "{}",
            refusal.1
        );
    }
    let err = one(THREADS_ENV, "0").engine_threads().unwrap_err();
    assert_eq!(err.to_string(), "HCC_ENGINE_THREADS: must be at least 1");
    for (raw, n) in [("1", 1), (" 4 ", 4), ("0x10", 16)] {
        assert_eq!(one(THREADS_ENV, raw).engine_threads(), Ok(Some(n)));
        let parsed = dispatch_in(&one(THREADS_ENV, raw), &argv);
        assert_eq!(parsed.ok().map(|(lab, _)| lab.engine.threads()), Some(n));
    }
    assert_eq!(Env::default().engine_threads(), Ok(None));
}

/// A malformed `HCC_FAULT_PLAN` is refused by the front door, naming the
/// variable, instead of being ignored; a valid one reads as the plan.
#[test]
fn malformed_fault_plan_is_refused() {
    let argv = ["figures".to_string(), "fig05".to_string()];
    for raw in ["garbage", "gcm=abc", "max=x", "seed=7,bogus=0.1"] {
        assert!(FaultPlan::parse(raw).is_err(), "{raw} parses");
        let Err(refusal) = dispatch_in(&one(FAULT_PLAN_ENV, raw), &argv) else {
            panic!("{FAULT_PLAN_ENV}={raw:?} was accepted");
        };
        assert_eq!(refusal.0.map(|c| c.name()), Some("figures"));
        assert!(
            matches!(&refusal.1, CliError::Invalid { flag, .. } if flag == FAULT_PLAN_ENV),
            "{:?}",
            refusal.1
        );
    }
    let spec = "seed=7,gcm=0.35";
    let plan = Some(FaultPlan::parse(spec).unwrap());
    assert_eq!(one(FAULT_PLAN_ENV, spec).fault_plan(), Ok(plan.clone()));
    let parsed = dispatch_in(&one(FAULT_PLAN_ENV, spec), &argv);
    assert_eq!(parsed.ok().map(|(lab, _)| lab.plan), Some(plan));
    assert_eq!(Env::default().fault_plan(), Ok(None));
}
