//! Fig. 4b: single-core crypto throughput per CPU.

use hcc_bench::cli::{self, CliError};
use hcc_bench::figures::fig04b;
use hcc_bench::report;

fn main() {
    let functional = cli::parse_or_exit(
        "fig04b_crypto",
        "usage: fig04b_crypto [--functional]",
        |args| {
            let mut functional = false;
            for flag in args.by_ref() {
                match flag.as_str() {
                    "--functional" => functional = true,
                    _ => return Err(CliError::Unknown { arg: flag }),
                }
            }
            Ok(functional)
        },
    );
    report::section("Fig. 4b — single-core crypto throughput (GB/s)");
    println!(
        "{:<14} {:<20} {:>10} {:>12}",
        "cpu", "algorithm", "modeled", "functional"
    );
    for e in fig04b::entries(functional) {
        let func = e
            .functional_gbs
            .map(|v| format!("{v:.3}"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<14} {:<20} {:>10.2} {:>12}",
            e.cpu.to_string(),
            e.alg.to_string(),
            e.modeled_gbs,
            func
        );
    }
}
