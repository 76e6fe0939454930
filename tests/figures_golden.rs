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

use std::sync::OnceLock;

use hcc_bench::engine::ScenarioFailure;
use hcc_bench::figures::{sensitivity, summary, Figure};
use hcc_bench::lab::Lab;
use hcc_bench::{cli, explain, faults, obs};

/// The 2-worker lab every test here renders on, so their overlapping
/// populations simulate once.
fn lab() -> &'static Lab {
    static LAB: OnceLock<Lab> = OnceLock::new();
    LAB.get_or_init(|| Lab::new(2))
}

#[test]
fn every_figure_matches_its_golden() {
    let mut text = String::new();
    for figure in Figure::ALL {
        let computed = figure.render(lab(), false);
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
    let computed = Figure::ABLATIONS.render(lab(), false);
    frozen("ablations.txt", &computed.data, &computed.failures);
}

#[test]
fn summary_matches_its_golden() {
    let computed = summary::render(lab());
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
    let computed = sensitivity::render(&lab().engine);
    frozen("sensitivity.txt", &computed.data, &computed.failures);
}

#[test]
fn explain_matches_its_golden() {
    let (rows, failures) = explain::explain_all(lab());
    frozen("explain.txt", &explain::render(&rows, &failures), &failures);
}

#[test]
fn fault_sweep_matches_its_golden() {
    let plan = cli::fault_plan("--plan", faults::DEFAULT_PLAN).expect("the default plan parses");
    let computed = faults::sweep(&lab().engine, plan);
    frozen("fault_sweep.txt", &computed.data, &computed.failures);
}

#[test]
fn obs_report_matches_its_goldens() {
    frozen(
        "obs_report.txt",
        &obs::render(lab(), false, false, None, None).unwrap(),
        &[],
    );
    frozen(
        "obs_report_soak.txt",
        &obs::render(lab(), true, true, None, None).unwrap(),
        &[],
    );
}
