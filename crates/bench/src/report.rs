//! Small output helpers shared by the figure renderers: section headers,
//! ratio cells and failure lines, all written into the report text.

use std::fmt::Write;

use crate::engine::ScenarioFailure;

/// A section header: a blank line, then `=== title ===`.
pub fn section(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

/// Formats a ratio as `x N.NN`.
pub fn ratio(v: f64) -> String {
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
pub fn failure_lines(out: &mut String, failures: &[ScenarioFailure]) {
    for f in failures {
        let _ = writeln!(out, "!! {f}");
    }
}

/// The tail call of every figure binary: when any scenario failed, print
/// a count on stderr and exit nonzero so CI catches partial reports. The
/// per-row `!! label: error` lines are expected to have been rendered
/// already (via [`failure_lines`]).
pub fn exit_on_failures(failures: &[ScenarioFailure]) {
    if failures.is_empty() {
        return;
    }
    eprintln!("{} scenario(s) failed:", failures.len());
    for f in failures {
        eprintln!("  {f}");
    }
    std::process::exit(1);
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
