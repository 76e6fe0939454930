//! Small output helpers shared by the figure renderers: section headers,
//! ratio cells and failure lines, all written into the report text.

use std::fmt::Write as _;
use std::io::Write;
use std::process::ExitCode;

use crate::engine::{self, ScenarioFailure};
use crate::lab::Lab;

/// A section header: a blank line, then `=== title ===`.
pub(crate) fn section(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

/// Formats a ratio as `x N.NN`.
pub(crate) fn ratio(v: f64) -> String {
    if v.is_finite() {
        format!("x{v:.2}")
    } else {
        "x inf".to_string()
    }
}

/// Appends each failure to `out` as a `!! label: error` line, keeping
/// the figure partially rendered instead of aborting it. Deterministic:
/// failures arrive in request order, so the text stays thread-count
/// invariant.
pub(crate) fn failure_lines(out: &mut String, failures: &[ScenarioFailure]) {
    for f in failures {
        let _ = writeln!(out, "!! {f}");
    }
}

/// The tail of every report subcommand: `lab`'s engine statistics on
/// `stderr` when the engine served a lookup (they carry wall-clock
/// times, so stdout stays byte-identical across `HCC_ENGINE_THREADS`
/// settings), then the exit status — success when no scenario failed,
/// otherwise 1 after a count and the failures on `stderr`, so a caller
/// catches partial reports. The per-row `!! label: error` lines are
/// expected to have been rendered already (via [`failure_lines`]).
/// Diagnostics are best effort: a failed write to `stderr` leaves the
/// status as it is.
pub(crate) fn finish(lab: &Lab, stderr: &mut dyn Write, failures: &[ScenarioFailure]) -> ExitCode {
    engine::emit_stats(&lab.engine.stats(), stderr, lab.stats_json.as_deref());
    if failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    let _ = writeln!(stderr, "{} scenario(s) failed:", failures.len());
    for f in failures {
        let _ = writeln!(stderr, "  {f}");
    }
    ExitCode::FAILURE
}

/// The tail of a soak subcommand: the engine statistics on `stderr` (as
/// [`finish`] writes them), then failure after `<sub>: <check>` on
/// `stderr` when `broken` names a broken check.
pub(crate) fn soak_status(
    lab: &Lab,
    stderr: &mut dyn Write,
    sub: &str,
    broken: Option<&str>,
) -> ExitCode {
    engine::emit_stats(&lab.engine.stats(), stderr, lab.stats_json.as_deref());
    let Some(check) = broken else {
        return ExitCode::SUCCESS;
    };
    let _ = writeln!(stderr, "{sub}: {check}");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(1.4242), "x1.42");
        assert_eq!(ratio(f64::INFINITY), "x inf");
        assert_eq!(ratio(f64::NAN), "x inf");
    }
}
