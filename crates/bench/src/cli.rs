//! One flag parser for every `hcc_lab` subcommand.
//!
//! A subcommand walks its arguments with [`Args`], whose readers return
//! a typed [`CliError`] instead of exiting; the front door
//! ([`crate::lab`]) turns a refusal into `hcc_lab <sub>: <flag>: <detail>`
//! and the usage line through [`refuse`], then exits 2. Integers are
//! decimal or `0x`-hex ([`parse_int`], shared with the `HCC_*`
//! environment overrides an [`Env`] holds), a bounded one above its
//! maximum is refused rather than wrapped ([`Args::at_most`],
//! [`Env::at_most`]), and fractions must be finite.

use std::collections::BTreeMap;
use std::ffi::OsString;
use std::fmt;
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use hcc_trace::FlightConfig;
use hcc_types::json::{JsonOut, ToJson};
use hcc_types::{FaultPlan, SimDuration, StormProfile};

use crate::chaos::ChaosConfig;
use crate::engine::{ExperimentEngine, THREADS_ENV};
use crate::figures::FAULT_PLAN_ENV;
use crate::serving::arrival::MAX_REQUESTS;
use crate::serving::cluster::MAX_GPUS;
use crate::serving::{ArrivalKind, ServingConfig};
use crate::watch::{self, Canonical, Soak, WatchConfig};

/// Why an argument was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A flag that takes a value came last.
    MissingValue { flag: String },
    /// An argument the subcommand does not take.
    Unknown { arg: String },
    /// A value that is not a decimal or `0x`-hex integer.
    NotAnInteger { flag: String, raw: String },
    /// An integer above the flag's maximum.
    OutOfRange { flag: String, raw: String, max: u64 },
    /// A value that is not a finite number.
    NotAFraction { flag: String, raw: String },
    /// A name outside the flag's vocabulary (`kind` names what it was
    /// meant to be, `expected` lists the choices).
    UnknownName {
        flag: String,
        kind: &'static str,
        raw: String,
        expected: String,
    },
    /// A value the flag's own parser refused.
    Invalid { flag: String, detail: String },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingValue { flag } => write!(f, "{flag}: missing value"),
            CliError::Unknown { arg } if arg.starts_with('-') => write!(f, "{arg}: unknown flag"),
            CliError::Unknown { arg } => write!(f, "{arg}: unknown argument"),
            CliError::NotAnInteger { flag, raw } => {
                write!(f, "{flag}: cannot parse {raw:?} as an integer")
            }
            CliError::OutOfRange { flag, raw, max } => {
                write!(f, "{flag}: {raw} is out of range (at most {max})")
            }
            CliError::NotAFraction { flag, raw } => {
                write!(f, "{flag}: cannot parse {raw:?} as a finite fraction")
            }
            CliError::UnknownName {
                flag,
                kind,
                raw,
                expected,
            } => write!(f, "{flag}: unknown {kind} {raw:?} ({expected})"),
            CliError::Invalid { flag, detail } => write!(f, "{flag}: {detail}"),
        }
    }
}

/// A decimal or `0x`-hex `u64`, surrounding whitespace ignored.
pub fn parse_int(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

/// `raw` as a decimal or `0x`-hex integer, or an
/// [`CliError::NotAnInteger`] naming `flag`.
fn int(flag: &str, raw: &str) -> Result<u64, CliError> {
    parse_int(raw).ok_or_else(|| CliError::NotAnInteger {
        flag: flag.to_string(),
        raw: raw.trim().to_string(),
    })
}

/// `raw` as an integer of at most `max`: an [`CliError::NotAnInteger`]
/// or [`CliError::OutOfRange`] naming `flag` otherwise. The one bounded
/// reader behind [`Args::at_most`] and [`Env::at_most`].
fn int_at_most(flag: &str, raw: &str, max: u64) -> Result<u64, CliError> {
    let n = int(flag, raw)?;
    if n > max {
        return Err(CliError::OutOfRange {
            flag: flag.to_string(),
            raw: n.to_string(),
            max,
        });
    }
    Ok(n)
}

/// The `HCC_*` environment variables, read once by `hcc_lab`'s front
/// door ([`crate::lab::main`]) and handed to whatever reads an override;
/// a test collects one from literal pairs. It keeps each raw value and
/// parses it where it is read, so a malformed override is refused only
/// by a subcommand that reads it.
#[derive(Debug, Clone, Default)]
pub struct Env(BTreeMap<String, OsString>);

impl<K: Into<OsString>, V: Into<OsString>> FromIterator<(K, V)> for Env {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(vars: I) -> Self {
        let hcc = vars.into_iter().filter_map(|(var, value)| {
            let var = var.into().into_string().ok()?;
            var.starts_with("HCC_").then(|| (var, value.into()))
        });
        Env(hcc.collect())
    }
}

impl Env {
    /// `var`'s value as text: `None` when it is unset or not UTF-8.
    pub(crate) fn text(&self, var: &str) -> Option<&str> {
        self.0.get(var).and_then(|raw| raw.to_str())
    }

    /// The integer `var` holds: `None` when it is unset, an error naming
    /// `var` when it holds anything but a decimal or `0x`-hex integer.
    pub fn u64(&self, var: &str) -> Result<Option<u64>, CliError> {
        self.at_most(var, u64::MAX)
    }

    /// [`Env::u64`], refusing a value above `max` with an
    /// [`CliError::OutOfRange`] naming `var`.
    pub fn at_most(&self, var: &str, max: u64) -> Result<Option<u64>, CliError> {
        self.0
            .get(var)
            .map(|raw| int_at_most(var, &raw.to_string_lossy(), max))
            .transpose()
    }

    /// [`Env::at_most`], refusing 0 too: a count that must be positive.
    pub fn positive(&self, var: &str, max: u64) -> Result<Option<u64>, CliError> {
        match self.at_most(var, max)? {
            Some(0) => Err(CliError::Invalid {
                flag: var.to_string(),
                detail: "must be at least 1".to_string(),
            }),
            n => Ok(n),
        }
    }

    /// The engine width [`THREADS_ENV`] asks for: `None` when unset.
    pub fn engine_threads(&self) -> Result<Option<usize>, CliError> {
        let threads = self.positive(THREADS_ENV, usize::MAX as u64)?;
        Ok(threads.map(|n| n as usize))
    }

    /// The plan [`FAULT_PLAN_ENV`] holds: `None` when unset.
    pub fn fault_plan(&self) -> Result<Option<FaultPlan>, CliError> {
        self.0
            .get(FAULT_PLAN_ENV)
            .map(|spec| fault_plan(FAULT_PLAN_ENV, &spec.to_string_lossy()))
            .transpose()
    }

    /// The default flight recorder with the `HCC_FLIGHT_WINDOW_MS` (at
    /// least 1), `HCC_FLIGHT_WORST` and `HCC_FLIGHT_RESERVOIR` (at most
    /// 1024 each) and `HCC_FLIGHT_SEED` overrides applied.
    pub fn flight(&self) -> Result<FlightConfig, CliError> {
        let mut cfg = FlightConfig::default();
        if let Some(ms) = self.u64("HCC_FLIGHT_WINDOW_MS")? {
            cfg.window = SimDuration::millis(ms.max(1));
        }
        if let Some(k) = self.u64("HCC_FLIGHT_WORST")? {
            cfg.worst = k.min(1024) as usize;
        }
        if let Some(r) = self.u64("HCC_FLIGHT_RESERVOIR")? {
            cfg.reservoir = r.min(1024) as usize;
        }
        if let Some(s) = self.u64("HCC_FLIGHT_SEED")? {
            cfg.seed = s;
        }
        Ok(cfg)
    }
}

/// `spec` as a [`FaultPlan`], or an [`CliError::Invalid`] naming `flag`.
pub fn fault_plan(flag: &str, spec: &str) -> Result<FaultPlan, CliError> {
    FaultPlan::parse(spec).map_err(|e| CliError::Invalid {
        flag: flag.to_string(),
        detail: e.to_string(),
    })
}

/// `raw` looked up by `parse`, or an [`CliError::UnknownName`].
pub fn lookup<T>(
    flag: &str,
    kind: &'static str,
    expected: &str,
    raw: String,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<T, CliError> {
    parse(raw.trim()).ok_or_else(|| CliError::UnknownName {
        flag: flag.to_string(),
        kind,
        raw: raw.trim().to_string(),
        expected: expected.to_string(),
    })
}

/// The built-in storm profile `raw`; the error lists the built-ins,
/// then `more` (e.g. `", or all"`).
pub fn storm_profile(flag: &str, raw: String, more: &str) -> Result<StormProfile, CliError> {
    let known: Vec<&str> = StormProfile::builtin().iter().map(|p| p.name).collect();
    let expected = format!("profiles: {}{more}", known.join(", "));
    lookup(flag, "storm profile", &expected, raw, StormProfile::by_name)
}

/// The arguments after the program name, consumed front to back.
#[derive(Debug)]
pub struct Args(std::vec::IntoIter<String>);

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

impl Args {
    /// Arguments to parse, program name excluded.
    pub fn new<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Self {
        Args(
            args.into_iter()
                .map(Into::into)
                .collect::<Vec<_>>()
                .into_iter(),
        )
    }

    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, CliError> {
        self.next().ok_or_else(|| CliError::MissingValue {
            flag: flag.to_string(),
        })
    }

    /// `flag`'s value as a decimal or `0x`-hex integer.
    pub fn u64(&mut self, flag: &str) -> Result<u64, CliError> {
        self.at_most(flag, u64::MAX)
    }

    /// `flag`'s value as an integer of at most `max`, refused with an
    /// [`CliError::OutOfRange`] above it.
    pub fn at_most(&mut self, flag: &str, max: u64) -> Result<u64, CliError> {
        int_at_most(flag, &self.value(flag)?, max)
    }

    /// `flag`'s value as an integer that fits in a `u32`.
    pub fn u32(&mut self, flag: &str) -> Result<u32, CliError> {
        Ok(self.at_most(flag, u64::from(u32::MAX))? as u32)
    }

    /// `flag`'s value as a finite number (`NaN` and infinities are
    /// refused: no clamp can make them a fraction).
    pub fn fraction(&mut self, flag: &str) -> Result<f64, CliError> {
        let raw = self.value(flag)?;
        match raw.trim().parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(CliError::NotAFraction {
                flag: flag.to_string(),
                raw,
            }),
        }
    }

    /// `flag`'s value looked up by `parse` (see [`lookup`]).
    pub fn name<T>(
        &mut self,
        flag: &str,
        kind: &'static str,
        expected: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, CliError> {
        let raw = self.value(flag)?;
        lookup(flag, kind, expected, raw, parse)
    }

    /// `flag`'s value as an arrival process.
    pub fn arrival(&mut self, flag: &str) -> Result<ArrivalKind, CliError> {
        let expected = "expected poisson|bursty|diurnal";
        self.name(flag, "arrival process", expected, ArrivalKind::parse)
    }

    /// Refuses whatever arguments remain.
    pub fn end(&mut self) -> Result<(), CliError> {
        match self.next() {
            Some(arg) => Err(CliError::Unknown { arg }),
            None => Ok(()),
        }
    }
}

/// A file a subcommand could not write. It travels inside the
/// `io::Error` a [`crate::lab::Run`] returns, so the front door can
/// report it as `cannot write <path>: <error>` rather than as a failed
/// write to stdout.
#[derive(Debug)]
pub struct WriteError {
    path: String,
    source: std::io::Error,
}

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot write {}: {}", self.path, self.source)
    }
}

impl std::error::Error for WriteError {}

/// `source` as the failure to write `path`: a [`WriteError`] inside an
/// `io::Error` of kind `Other`, so a failed file write never reads as a
/// closed stdout.
fn cannot_write(path: &str, source: std::io::Error) -> std::io::Error {
    std::io::Error::other(WriteError {
        path: path.to_string(),
        source,
    })
}

/// Writes `contents` to `path`; the error names the file.
pub(crate) fn write_file(path: &str, contents: impl AsRef<[u8]>) -> std::io::Result<()> {
    std::fs::write(path, contents).map_err(|e| cannot_write(path, e))
}

/// Streams the JSON document `doc` writes into the file at `path`, a
/// buffer at a time; the error names the file.
pub(crate) fn write_json_file(
    path: &str,
    doc: impl FnOnce(&mut JsonOut<'_>),
) -> std::io::Result<()> {
    std::fs::File::create(path)
        .and_then(|mut file| {
            let mut out = JsonOut::io(&mut file);
            doc(&mut out);
            out.finish()
        })
        .map_err(|e| cannot_write(path, e))
}

/// Reads the only flag a report takes, `--json <path>`.
pub(crate) fn json_flag(args: &mut Args) -> Result<Option<String>, CliError> {
    let mut path = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--json" => path = Some(args.value(&flag)?),
            _ => return Err(CliError::Unknown { arg: flag }),
        }
    }
    Ok(path)
}

/// A soak's `--json` document at `path`: its wall-clock `bench` figures,
/// its report under `key`, then `engine`'s stats.
pub(crate) fn write_bench_json(
    path: &str,
    bench: &[(&str, u64)],
    key: &str,
    report: &dyn ToJson,
    engine: &ExperimentEngine,
) -> std::io::Result<()> {
    let stats = engine.stats();
    write_json_file(path, |out| {
        out.obj(|o| {
            o.key("bench");
            o.obj(|o| bench.iter().for_each(|&(name, v)| o.field(name, v)));
            o.field(key, report);
            o.field("engine", &stats);
        });
    })
}

/// `n` per wall-clock second of `elapsed`, rounded.
pub fn per_sec(n: u64, elapsed: Duration) -> u64 {
    (n as f64 / elapsed.as_secs_f64().max(1e-9)).round() as u64
}

/// Reports a refused argument: `<prefix>: <error>`, then `usage`, on
/// `stderr`. The exit status is 2.
pub fn refuse(stderr: &mut dyn Write, prefix: &str, usage: &str, err: &CliError) -> ExitCode {
    let _ = writeln!(stderr, "{prefix}: {err}\n{usage}");
    ExitCode::from(2)
}

/// The canonical watch soak the forensics subcommands (`watch`, `why`)
/// replay: the stormy chaos soak ([`watch::stormy_soak`]) or, with
/// `--serve`, the calm serving soak ([`watch::calm_soak`]), resized by
/// `--requests` (at most [`MAX_REQUESTS`]), `--days` (chaos only),
/// `--gpus` (at most [`MAX_GPUS`]) and `--seed`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CanonicalSoak {
    /// `--serve`: replay the calm serving soak.
    pub serve: bool,
    requests: Option<u64>,
    days: Option<u64>,
    gpus: Option<usize>,
    seed: Option<u64>,
}

impl CanonicalSoak {
    /// Consumes `flag` and its value when it selects or resizes the
    /// soak; `Ok(false)` leaves an unrelated flag to the caller.
    pub fn flag(&mut self, flag: &str, args: &mut Args) -> Result<bool, CliError> {
        match flag {
            "--serve" => self.serve = true,
            "--requests" => self.requests = Some(args.at_most(flag, MAX_REQUESTS)?.max(1)),
            "--days" => self.days = Some(args.u64(flag)?.clamp(1, 3650)),
            "--gpus" => self.gpus = Some(args.at_most(flag, MAX_GPUS)?.max(1) as usize),
            "--seed" => self.seed = Some(args.u64(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The selected soak with these overrides, the watchtower on (tuned
    /// by `env`'s `HCC_WATCH_*` overrides) and the flight recorder off.
    pub fn canonical(&self, env: &Env) -> Result<Canonical, CliError> {
        let watch = Some(WatchConfig::default().from_env(env)?);
        let (serving, chaos) = (watch::calm_soak(), watch::stormy_soak());
        Ok(if self.serve {
            Soak::Calm(ServingConfig {
                watch,
                requests: self.requests.unwrap_or(serving.requests),
                gpus: self.gpus.unwrap_or(serving.gpus),
                seed: self.seed.unwrap_or(serving.seed),
                ..serving
            })
        } else {
            Soak::Stormy(ChaosConfig {
                watch,
                requests: self.requests.unwrap_or(chaos.requests),
                days: self.days.unwrap_or(chaos.days),
                gpus: self.gpus.unwrap_or(chaos.gpus),
                seed: self.seed.unwrap_or(chaos.seed),
                ..chaos
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::SchedulerKind;
    use hcc_types::RecoveryPolicy;

    /// `flag`'s value read by `read` from `[raw]`, or the typed error.
    fn read<T>(
        raw: &str,
        read: impl FnOnce(&mut Args) -> Result<T, CliError>,
    ) -> Result<T, CliError> {
        read(&mut Args::new([raw]))
    }

    #[test]
    fn integers_parse_in_both_radices() {
        assert_eq!(read("123", |a| a.u64("--seed")), Ok(123));
        assert_eq!(read(" 0xff ", |a| a.u64("--seed")), Ok(255));
        let err = read("-1", |a| a.u64("--gpus")).unwrap_err();
        assert!(matches!(&err, CliError::NotAnInteger { raw, .. } if raw == "-1"));
        assert_eq!(err.to_string(), "--gpus: cannot parse \"-1\" as an integer");
    }

    #[test]
    fn missing_values_and_unknown_arguments_are_refused() {
        let err = Args::new(Vec::<String>::new())
            .u64("--requests")
            .unwrap_err();
        assert!(matches!(&err, CliError::MissingValue { flag } if flag == "--requests"));
        assert_eq!(err.to_string(), "--requests: missing value");
        let err = Args::new(["--bogus"]).end().unwrap_err();
        assert!(matches!(&err, CliError::Unknown { arg } if arg == "--bogus"));
        assert_eq!(err.to_string(), "--bogus: unknown flag");
        let err = Args::new(["bogus"]).end().unwrap_err();
        assert_eq!(err.to_string(), "bogus: unknown argument");
    }

    /// `why --request 4294967297` used to wrap to request #1.
    #[test]
    fn u32_flags_refuse_values_that_would_wrap() {
        assert_eq!(read("4294967295", |a| a.u32("--request")), Ok(u32::MAX));
        let err = read("4294967297", |a| a.u32("--request")).unwrap_err();
        assert!(matches!(err, CliError::OutOfRange { max, .. } if max == u64::from(u32::MAX)));
    }

    /// `serve --util NaN` used to panic sizing the tenants' rates.
    #[test]
    fn fractions_must_be_finite() {
        assert_eq!(read("0.4", |a| a.fraction("--util")), Ok(0.4));
        for raw in ["NaN", "nan", "inf", "-infinity", "half"] {
            let err = read(raw, |a| a.fraction("--util")).unwrap_err();
            assert!(matches!(err, CliError::NotAFraction { .. }), "{raw}");
        }
    }

    #[test]
    fn unknown_names_list_the_choices() {
        let expected = "expected fifo|priority|batching";
        let scheduler = |raw| {
            read(raw, |a| {
                a.name("--scheduler", "scheduler", expected, SchedulerKind::parse)
            })
        };
        assert_eq!(scheduler("fifo"), Ok(SchedulerKind::Fifo));
        assert_eq!(
            scheduler("lifo").unwrap_err().to_string(),
            "--scheduler: unknown scheduler \"lifo\" (expected fifo|priority|batching)"
        );
        let unknown = |err: CliError| match err {
            CliError::UnknownName { kind, .. } => kind,
            other => panic!("{other:?}"),
        };
        let arrival = read("uniform", |a| a.arrival("--arrival"));
        assert_eq!(unknown(arrival.unwrap_err()), "arrival process");
        let policy = lookup(
            "--policies",
            "recovery policy",
            "",
            "panic".into(),
            RecoveryPolicy::parse,
        );
        assert_eq!(unknown(policy.unwrap_err()), "recovery policy");
        assert!(storm_profile("--profile", "crypto-burst".into(), "").is_ok());
        let err = storm_profile("--profile", "hail".into(), ", or all").unwrap_err();
        assert!(err.to_string().ends_with(", or all)"), "{err}");
        assert_eq!(unknown(err), "storm profile");
    }

    #[test]
    fn canonical_soak_flags_resize_either_soak() {
        let mut soak = CanonicalSoak::default();
        let mut args = Args::new("--requests 0 --days 9999 --gpus 3 --seed 0x7 --x".split(' '));
        while let Some(flag) = args.next() {
            assert_eq!(soak.flag(&flag, &mut args), Ok(flag != "--x"));
        }
        let Ok(Soak::Stormy(chaos)) = soak.canonical(&Env::default()) else {
            panic!("the stormy soak is the default");
        };
        assert_eq!(
            (chaos.requests, chaos.days, chaos.gpus, chaos.seed),
            (1, 3650, 3, 7)
        );
        assert!(chaos.watch.is_some() && chaos.flight.is_none());
        soak.serve = true;
        let Ok(Soak::Calm(serving)) = soak.canonical(&Env::default()) else {
            panic!("--serve selects the calm soak");
        };
        assert_eq!((serving.requests, serving.gpus, serving.seed), (1, 3, 7));
    }
}
