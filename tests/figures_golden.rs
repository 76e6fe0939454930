//! The paper's figures are the product, so every line of them is frozen:
//! `tests/golden/figures.txt` holds what `hcc_lab figures` prints and
//! `tests/golden/summary.txt` what `hcc_lab summary` prints. So are the
//! reports around them: `sensitivity.txt`, `explain.txt`,
//! `fault_sweep.txt` (`hcc_lab faults` under its default plan),
//! `obs_report.txt` / `obs_report_soak.txt` (`hcc_lab
//! obs`, without and with `--serve --chaos`) and `ablations.txt`
//! (`hcc_lab figures ablations`, which `figures all` leaves out). All
//! render here on a 2-thread engine, so the goldens also pin the
//! engine's claim that output does not depend on its worker count.
//! Bless a deliberate change with `HCC_BLESS=1 cargo test --test
//! figures_golden`.

mod golden;

use std::sync::Once;

use hcc_bench::engine::{self, ScenarioFailure, THREADS_ENV};
use hcc_bench::figures::{sensitivity, summary, Figure};
use hcc_bench::{cli, explain, faults, obs};

/// Sizes the global engine at 2 workers before any test touches it.
fn two_thread_engine() {
    static SIZED: Once = Once::new();
    SIZED.call_once(|| std::env::set_var(THREADS_ENV, "2"));
    assert_eq!(engine::global().threads(), 2);
}

#[test]
fn every_figure_matches_its_golden() {
    two_thread_engine();
    let mut text = String::new();
    for figure in Figure::ALL {
        let computed = figure.render(false);
        assert!(
            computed.failures.is_empty(),
            "{}: {:?}",
            figure.name,
            computed.failures
        );
        text.push_str(&computed.data);
    }
    golden::assert_matches("figures.txt", &text);
}

#[test]
fn ablations_match_their_golden() {
    let computed = Figure::ABLATIONS.render(false);
    frozen("ablations.txt", &computed.data, &computed.failures);
}

#[test]
fn summary_matches_its_golden() {
    two_thread_engine();
    let computed = summary::render();
    assert!(computed.failures.is_empty(), "{:?}", computed.failures);
    golden::assert_matches("summary.txt", &computed.data);
}

/// `text` matches `tests/golden/<file>`, and no scenario failed.
fn frozen(file: &str, text: &str, failures: &[ScenarioFailure]) {
    assert!(failures.is_empty(), "{file}: {failures:?}");
    golden::assert_matches(file, text);
}

#[test]
fn sensitivity_matches_its_golden() {
    two_thread_engine();
    let computed = sensitivity::render();
    frozen("sensitivity.txt", &computed.data, &computed.failures);
}

#[test]
fn explain_matches_its_golden() {
    two_thread_engine();
    let (rows, failures) = explain::explain_all();
    frozen("explain.txt", &explain::render(&rows, &failures), &failures);
}

#[test]
fn fault_sweep_matches_its_golden() {
    two_thread_engine();
    let plan = cli::fault_plan("--plan", faults::DEFAULT_PLAN).expect("the default plan parses");
    let computed = faults::sweep(plan);
    frozen("fault_sweep.txt", &computed.data, &computed.failures);
}

#[test]
fn obs_report_matches_its_goldens() {
    two_thread_engine();
    frozen(
        "obs_report.txt",
        &obs::render(false, false, None, None).unwrap(),
        &[],
    );
    frozen(
        "obs_report_soak.txt",
        &obs::render(true, true, None, None).unwrap(),
        &[],
    );
}
