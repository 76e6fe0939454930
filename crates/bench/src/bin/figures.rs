//! Every table and figure of the paper's evaluation, rendered by
//! `hcc_bench::figures`: Table I, Figs. 1–14, Fig. 9b and the three
//! panels of Fig. 12.
//!
//! ```sh
//! cargo run --release -p hcc-bench --bin figures                  # all
//! cargo run --release -p hcc-bench --bin figures -- fig05 fig12a
//! cargo run --release -p hcc-bench --bin figures -- fig04b --functional
//! ```
//!
//! `--functional` fills Fig. 4b's functional column with wall-clock
//! rates of this repo's crypto. When any scenario failed, the rest still
//! renders (the failure as a `!!` line) and the exit status is 1.

use hcc_bench::figures::Selection;
use hcc_bench::{cli, engine, report};

fn main() {
    let selection = cli::parse_or_exit("figures", Selection::USAGE, Selection::parse);
    let mut failures = Vec::new();
    for figure in selection.figures {
        let computed = figure.render(selection.functional);
        print!("{}", computed.data);
        failures.extend(computed.failures);
    }
    // Engine statistics carry wall-clock times, so they go to stderr.
    engine::emit_stats();
    report::exit_on_failures(&failures);
}
