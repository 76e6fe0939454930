//! Fuzzing the one flag parser every bench binary shares
//! (`hcc_bench::cli`): on random strings, each typed value reader and
//! each name vocabulary (scheduler, arrival process, storm profile,
//! recovery policy, the `figures` bin's figure names) returns either a
//! value or its typed `CliError`, never a panic, and every accepted name
//! re-parses from its printed form to itself. Random `HCC_*` override
//! values read the same way, with errors naming the variable. The
//! bounded soak sizes (requests, GPUs, batch cap) take their maximum and
//! refuse one more.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hcc_bench::chaos::{self, ChaosConfig};
use hcc_bench::cli::{self, Args, CanonicalSoak, CliError};
use hcc_bench::figures::{Figure, Selection};
use hcc_bench::serving::arrival::MAX_REQUESTS;
use hcc_bench::serving::cluster::{MAX_BATCH, MAX_GPUS};
use hcc_bench::serving::{self, ArrivalKind, SchedulerKind, ServingConfig};
use hcc_bench::watch::Soak;
use hcc_check::strategy::{bytes, choice, u64s, vecs};
use hcc_check::{ensure, ensure_eq, forall, Config, PropResult};
use hcc_types::{RecoveryPolicy, StormProfile};

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
    |fig14|fig15|fig99|FIG05|all|ALL| |-|--|--functional|--Functional|--bogus|-h|é|\0";

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
        // An override holding the same text (NUL cannot be set) reads the
        // same, or is refused naming the variable.
        if !raw.contains('\0') {
            std::env::set_var(ENV, &raw);
            match no_panic("env_u64", &raw, || cli::env_u64(ENV))? {
                Ok(v) => ensure!(v.is_some() && v == int.clone().ok(), "{ENV}={raw:?}: {v:?}"),
                Err(e) => ensure!(
                    matches!(e, CliError::NotAnInteger { .. })
                        && int.is_err()
                        && e.to_string().starts_with(ENV),
                    "{ENV}={raw:?}: {e}"
                ),
            }
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
                soak.canonical()
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

/// Random argument lists through the `figures` bin's parser: names
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
    let err = Selection::parse(&mut Args::new(["fig99"])).unwrap_err();
    assert!(
        err.to_string()
            .starts_with("<figure>: unknown figure \"fig99\""),
        "{err}"
    );
    let err = Selection::parse(&mut Args::new(["fig05", "--bogus"])).unwrap_err();
    assert_eq!(err.to_string(), "--bogus: unknown flag");
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
        match soak.canonical()? {
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
        std::env::set_var(serving::REQUESTS_ENV, n.to_string());
        let cfg = ServingConfig::default().from_env();
        std::env::remove_var(serving::REQUESTS_ENV);
        cfg
    });
    assert_eq!(serve.requests, MAX_REQUESTS);
    let chaos = takes_max_refuses_one_more(chaos::REQUESTS_ENV, MAX_REQUESTS, |n| {
        std::env::set_var(chaos::REQUESTS_ENV, n.to_string());
        let cfg = ChaosConfig::default().from_env();
        std::env::remove_var(chaos::REQUESTS_ENV);
        cfg
    });
    assert_eq!(chaos.requests, MAX_REQUESTS);
}
