//! `hcc_lab` through its front door, in process: [`lab::run`] with
//! buffers for stdout and stderr.
//!
//! Every refusal exits 2 with `hcc_lab <sub>: <error>` and the usage
//! line on stderr — a bad flag on any subcommand, a bad value, a
//! malformed `HCC_*` override and a size past the simulator's narrow
//! ids. A closed stdout ends a run quietly with status 0; any other
//! failed write exits 1 and says what failed.
//!
use std::io::{self, ErrorKind, Write};
use std::process::ExitCode;

use hcc_bench::cli::{Args, Env};
use hcc_bench::lab::{self, COMMANDS};

/// `hcc_lab argv` under the `HCC_*` overrides `vars`: the exit status,
/// stdout and stderr.
fn run(vars: Vars, argv: &[&str]) -> (ExitCode, String, String) {
    let env: Env = vars.iter().copied().collect();
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = lab::run(argv.iter().map(|a| a.to_string()), &env, &mut out, &mut err);
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("UTF-8 output");
    (code, text(out), text(err))
}

/// The arguments `name` needs before its flags.
fn positionals(name: &str) -> &'static [&'static str] {
    match name {
        "run" | "report" | "trace" | "chrome" => &["gemm"],
        "deck" => &["deck.hcc"],
        _ => &[],
    }
}

/// `HCC_*` overrides set for one case.
type Vars = &'static [(&'static str, &'static str)];

/// Refusals beyond a bad flag: a bad value, a missing or unknown
/// subcommand, a bad figure name, a malformed override, a size past
/// the simulator's narrow ids and a `why` request past the soak's.
const REFUSED: [(Vars, &[&str]); 15] = [
    (&[], &["serve", "--util", "NaN"]),
    (&[], &["--bogus"]),
    (&[], &["bogus"]),
    (&[], &[]),
    (&[], &["figures", "fig99"]),
    (&[], &["figures", "ablations", "--bogus"]),
    (&[("HCC_SERVE_REQUESTS", "abc")], &["serve"]),
    (&[("HCC_WATCH_FAST_MS", "5s")], &["watch"]),
    (&[("HCC_WATCH_FAST_MS", "bogus")], &["serve", "--watch"]),
    (&[], &["serve", "--max-batch", "65536"]),
    (&[], &["chaos", "--requests", "4294967296"]),
    (&[("HCC_SERVE_REQUESTS", "4294967296")], &["serve"]),
    (&[("HCC_FAULT_PLAN", "garbage")], &["figures"]),
    (&[("HCC_ENGINE_THREADS", "abc")], &["summary"]),
    (&[], &["why", "--request", "4000000"]),
];

/// Each refusal — `--bogus` after every subcommand, then [`REFUSED`] —
/// exits 2 with nothing on stdout, then `<prefix>: ...` and the usage
/// line on stderr.
#[test]
fn every_refusal_exits_2_naming_what_it_refused() {
    let bogus = COMMANDS.iter().map(|c| {
        let mut argv = vec![c.name()];
        argv.extend(positionals(c.name()));
        argv.push("--bogus");
        (&[] as Vars, argv)
    });
    let cases = bogus.chain(REFUSED.iter().map(|&(env, argv)| (env, argv.to_vec())));
    for (env, argv) in cases {
        let command = argv
            .first()
            .and_then(|name| COMMANDS.iter().find(|c| c.name() == *name));
        let (prefix, usage) = match command {
            Some(c) => (format!("hcc_lab {}: ", c.name()), c.usage.to_string()),
            None => ("hcc_lab: ".to_string(), lab::usage()),
        };
        let (code, out, err) = run(env, &argv);
        assert_eq!(code, ExitCode::from(2), "{env:?} {argv:?}: {err}");
        assert!(out.is_empty(), "{env:?} {argv:?} wrote {out:?}");
        let (first, rest) = err.split_once('\n').expect("a refusal line");
        assert!(first.starts_with(&prefix), "{env:?} {argv:?}: {first}");
        assert_eq!(rest, format!("{usage}\n"), "{env:?} {argv:?}");
    }
}

/// Overrides a subcommand does not read pass its front door: `list`
/// and `serve` without `--watch` take a malformed `HCC_WATCH_FAST_MS`,
/// which `watch` and `serve --watch` refuse ([`REFUSED`]).
const ACCEPTED: [(Vars, &[&str]); 2] = [
    (&[("HCC_WATCH_FAST_MS", "bogus")], &["list"]),
    (&[("HCC_WATCH_FAST_MS", "bogus")], &["serve"]),
];

/// Each [`ACCEPTED`] case parses, and `list` runs to exit 0.
#[test]
fn an_override_is_refused_only_by_a_subcommand_that_reads_it() {
    for (vars, argv) in ACCEPTED {
        let env: Env = vars.iter().copied().collect();
        let parsed = lab::parse(&mut Args::new(argv.to_vec()), &env);
        let refusal = parsed.err().map(|(_, e)| e.to_string());
        assert_eq!(refusal, None, "{vars:?} {argv:?}");
    }
    let (code, out, err) = run(ACCEPTED[0].0, ACCEPTED[0].1);
    assert_eq!(code, ExitCode::SUCCESS, "{err}");
    assert!(out.starts_with("app "), "{out}");
}

/// A `why --request` equal to the soak's request count, the first id
/// past it, is refused naming the flag and the soak's size.
#[test]
fn why_refuses_a_request_past_the_soak() {
    let (code, out, err) = run(&[], &["why", "--requests", "10", "--request", "10"]);
    assert_eq!(code, ExitCode::from(2), "{err}");
    assert!(out.is_empty(), "{out}");
    assert!(
        err.starts_with("hcc_lab why: --request: 10 is past the soak's 10 requests\n"),
        "{err}"
    );
}

/// A `why` request inside the soak that the flight recorder did not
/// keep, or an incident the watch did not open, exits 1 with its reason
/// first on stderr, and stdout holds only the page's own lines.
#[test]
fn why_says_what_it_did_not_keep_on_stderr() {
    let keep_nothing: Vars = &[("HCC_FLIGHT_WORST", "0"), ("HCC_FLIGHT_RESERVOIR", "0")];
    let cases: [(Vars, &[&str], &str); 2] = [
        (
            keep_nothing,
            &["why", "--requests", "200", "--request", "199"],
            "why: request #199 was not kept by the sampler (raise ",
        ),
        (
            &[],
            &["why", "--requests", "200", "--incident", "99"],
            "why: incident #99 not found in the watch report\n",
        ),
    ];
    for (env, argv, reason) in cases {
        let (code, out, err) = run(env, argv);
        assert_eq!(code, ExitCode::FAILURE, "{argv:?}: {err}");
        assert!(err.starts_with(reason), "{argv:?}: {err}");
        assert!(
            !out.contains("#199") && !out.contains("#99"),
            "{argv:?}: {out}"
        );
        assert!(
            out.starts_with("=== why: request flight forensics ===\n"),
            "{out}"
        );
        assert!(out.contains("span-identity OK"), "{argv:?}: {out}");
    }
}

/// A stdout that takes one line and then reports its reader gone, as a
/// pipe into `head -1` does once the reader exits.
#[derive(Default)]
struct ClosesAfterOneLine(Vec<u8>);

impl Write for ClosesAfterOneLine {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.0.contains(&b'\n') {
            return Err(ErrorKind::BrokenPipe.into());
        }
        let n = buf
            .iter()
            .position(|&b| b == b'\n')
            .map_or(buf.len(), |i| i + 1);
        self.0.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// `hcc_lab figures | head -1` and `hcc_lab trace gemm --cc | head -1`
/// stop quietly: exit 0, one line out, nothing on stderr.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    for argv in [&["figures"][..], &["trace", "gemm", "--cc"]] {
        let (mut out, mut err) = (ClosesAfterOneLine::default(), Vec::new());
        let code = lab::run(
            argv.iter().map(|a| a.to_string()),
            &Env::default(),
            &mut out,
            &mut err,
        );
        assert_eq!(code, ExitCode::SUCCESS, "{argv:?}");
        assert_eq!(out.0.iter().filter(|&&b| b == b'\n').count(), 1, "{argv:?}");
        assert!(
            err.is_empty(),
            "{argv:?}: {}",
            String::from_utf8_lossy(&err)
        );
    }
}

/// A stdout that fails every write, not as a closed pipe does.
struct DeviceFull;

impl Write for DeviceFull {
    fn write(&mut self, _: &[u8]) -> io::Result<usize> {
        Err(io::Error::other("device full"))
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Any other failed write to stdout exits 1, naming the subcommand.
#[test]
fn a_failed_stdout_write_exits_1() {
    let mut err = Vec::new();
    let code = lab::run(
        ["list".to_string()],
        &Env::default(),
        &mut DeviceFull,
        &mut err,
    );
    assert_eq!(code, ExitCode::FAILURE);
    assert_eq!(
        String::from_utf8(err).unwrap(),
        "hcc_lab list: device full\n"
    );
}

/// A side file that cannot be written exits 1 with `cannot write
/// <path>: <error>`, and the test runner survives it.
#[test]
fn an_unwritable_side_file_exits_1() {
    let path = "/nonexistent/x.json";
    let (code, out, err) = run(&[], &["obs", "--json", path]);
    assert_eq!(code, ExitCode::FAILURE, "{err}");
    assert!(out.is_empty(), "{out}");
    assert!(err.starts_with(&format!("cannot write {path}: ")), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");
}

/// A deliberately panicking scenario becomes a structured failure while
/// the rest of its batch completes: exit 0.
#[test]
fn the_engine_contains_a_panicking_scenario() {
    let (code, out, err) = run(&[], &["faults", "--panic-smoke"]);
    assert_eq!(code, ExitCode::SUCCESS, "{out}{err}");
    assert_eq!(
        out,
        "panic smoke: contained (structured failure, batch completed)\n"
    );
}
