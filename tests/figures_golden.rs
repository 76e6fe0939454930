//! The paper's figures are the product, so every line of them is frozen:
//! `tests/golden/figures.txt` holds what `figures all` prints and
//! `tests/golden/summary.txt` what `summary` prints. Both render here on
//! a 2-thread engine, so the goldens also pin the engine's claim that
//! output does not depend on its worker count. Bless a deliberate change
//! with `HCC_BLESS=1 cargo test --test figures_golden`.

mod golden;

use std::sync::Once;

use hcc_bench::engine::{self, THREADS_ENV};
use hcc_bench::figures::{summary, Figure};

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
fn summary_matches_its_golden() {
    two_thread_engine();
    let computed = summary::render();
    assert!(computed.failures.is_empty(), "{:?}", computed.failures);
    golden::assert_matches("summary.txt", &computed.data);
}
