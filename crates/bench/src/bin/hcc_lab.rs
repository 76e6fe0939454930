//! `hcc_lab` — the lab's command-line front door ([`hcc_bench::lab`]).
//!
//! ```sh
//! cargo run --release -p hcc-bench --bin hcc_lab -- list
//! cargo run --release -p hcc-bench --bin hcc_lab -- figures fig05
//! cargo run --release -p hcc-bench --bin hcc_lab -- serve --requests 100000
//! ```

fn main() -> std::process::ExitCode {
    hcc_bench::lab::main(std::env::args().skip(1))
}
