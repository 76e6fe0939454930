//! CC-on/CC-off slowdown explainer: per-app blame tables from aligned
//! critical paths.
//!
//! Runs every standard app in both modes with causal collection forced on
//! (collection only observes — traces are identical to causal-off runs),
//! extracts each run's critical path, and prints the per-resource exposed
//! slowdown: how many more critical nanoseconds CC-on spends on each
//! resource class than CC-off. Because critical-path segments partition
//! the span exactly, the per-resource deltas sum to ΔP per app — the
//! table is a complete decomposition of the slowdown, not a sampling.
//!
//! `--json <path>` additionally writes every explanation as a JSON array.

use hcc_bench::cli::{self, CliError};
use hcc_bench::explain::{explain_all, AppExplanation};
use hcc_bench::{engine, report};
use hcc_trace::critpath::ResourceClass;
use hcc_types::json::ToJson;

fn us(ns: i64) -> String {
    format!("{:+.1}", ns as f64 / 1_000.0)
}

fn print_table(rows: &[AppExplanation]) {
    println!(
        "{:<16} {:>9} {:>9} {:>9}  {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}  {}",
        "app",
        "P.off/us",
        "P.on/us",
        "dP/us",
        "host",
        "crypto",
        "bounce",
        "ring",
        "copy",
        "compute",
        "uvm",
        "dominant"
    );
    for e in rows {
        let cells: Vec<String> = ResourceClass::ALL
            .iter()
            .map(|&r| us(e.exposed_delta(r)))
            .collect();
        let dominant = match e.dominant() {
            Some((r, _)) => r.short(),
            None => "-",
        };
        println!(
            "{:<16} {:>9.1} {:>9.1} {:>9}  {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}  {}",
            e.app,
            e.p_off.as_micros_f64(),
            e.p_on.as_micros_f64(),
            us(e.delta_p()),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4],
            cells[5],
            cells[6],
            dominant
        );
    }
}

fn main() {
    let mut json_path: Option<String> = None;
    cli::parse_or_exit("explain", "usage: explain [--json <path>]", |args| {
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--json" => json_path = Some(args.value(&flag)?),
                _ => return Err(CliError::Unknown { arg: flag }),
            }
        }
        Ok(())
    });

    let head = report::section(
        "slowdown explainer — exposed critical time per resource (CC-on minus CC-off)",
    );
    print!("{head}");
    let (rows, failures) = explain_all();
    print_table(&rows);
    let mut lines = String::new();
    report::failure_lines(&mut lines, &failures);
    print!("{lines}");

    // Greppable trailer for CI: the paper's causes must show up in the
    // blame — crypto and bounce-pool exposure on some dense app, UVM
    // exposure on some managed app.
    let crypto_bounce = rows.iter().any(|e| {
        !e.uvm
            && e.exposed_delta(ResourceClass::Crypto) > 0
            && e.exposed_delta(ResourceClass::BouncePool) > 0
    });
    let uvm_exposed = rows
        .iter()
        .any(|e| e.uvm && e.exposed_delta(ResourceClass::Uvm) != 0);
    let confirmed: usize = rows.iter().map(|e| e.confirmed_links).sum();
    let edges: usize = rows.iter().map(|e| e.edges_on).sum();
    println!(
        "\nexplained: {} apps, {} causal edges, {} path hops edge-confirmed, \
         crypto+bounce exposed: {}, uvm exposed: {} (identity OK)",
        rows.len(),
        edges,
        confirmed,
        crypto_bounce,
        uvm_exposed
    );

    if let Some(path) = json_path {
        cli::write_or_exit(&path, rows.to_json_string());
    }

    report::exit_on_failures(&failures);
    engine::emit_stats();
}
