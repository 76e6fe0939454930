//! A scan of the workspace's sources for the lab's single configuration
//! surface and single output door:
//!
//! - no library code under `crates/*/src` reads the process environment
//!   (`std::env::var`, `var_os`, `vars`, `vars_os`) outside [`EXEMPT`]:
//!   `hcc_lab` reads its `HCC_*` variables once at the front door, into
//!   an `Env` every reader is handed;
//! - no test sets or removes an environment variable (`set_var`,
//!   `remove_var`): a test builds an `Env`, since writing the
//!   environment while other test threads read it is a data race;
//! - nothing under `crates/bench/src` prints (`println!`, `eprintln!`,
//!   `print!`, `eprint!`) outside the `hotpaths` gate: a subcommand
//!   writes only to the stdout and stderr `lab::run` hands it.

use std::path::{Path, PathBuf};

/// The named places that may read the environment, each by the one
/// line that does: `hcc_lab`'s snapshot, the property runner's replay
/// seed, and every line of the `hotpaths` gate until it gives way to the
/// calibrated benchmark.
const EXEMPT: [(&str, &str); 3] = [
    ("crates/bench/src/lab.rs", "std::env::vars_os()"),
    ("crates/check/src/runner.rs", "\"HCC_CHECK_SEED\""),
    ("crates/bench/src/bin/hotpaths.rs", ""),
];

/// The workspace root.
fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively, as paths relative to the
/// root, sorted.
fn rust_files(dir: &Path) -> Vec<String> {
    let mut files = Vec::new();
    let mut dirs = vec![root().join(dir)];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for path in entries.map(|e| e.expect("a readable entry").path()) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root()).expect("under the root");
                files.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    files.sort();
    files
}

/// `dir` (e.g. `src`) of every workspace crate.
fn crate_dirs(dir: &str) -> Vec<PathBuf> {
    let crates = std::fs::read_dir(root().join("crates")).expect("crates/");
    let mut dirs: Vec<PathBuf> = crates
        .map(|e| {
            Path::new("crates")
                .join(e.expect("an entry").file_name())
                .join(dir)
        })
        .collect();
    dirs.sort();
    dirs
}

/// Each code line of `files` (comment lines skipped) that holds one of
/// `needles`, as `path:line: text`, unless `exempt` allows it.
fn offending(
    files: &[String],
    needles: &[&str],
    exempt: impl Fn(&str, &str) -> bool,
) -> Vec<String> {
    let mut found = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(root().join(file)).expect("a readable source");
        for (i, line) in text.lines().enumerate() {
            let code = line.trim_start();
            let hit = needles.iter().any(|n| code.contains(n));
            if hit && !code.starts_with("//") && !exempt(file, code) {
                found.push(format!("{file}:{}: {code}", i + 1));
            }
        }
    }
    found
}

#[test]
fn no_library_code_reads_the_environment() {
    let files: Vec<String> = crate_dirs("src")
        .iter()
        .flat_map(|d| rust_files(d))
        .collect();
    let reads = ["env::var", "use std::env::{"];
    let exempt = |file: &str, code: &str| {
        EXEMPT
            .iter()
            .any(|&(f, line)| f == file && code.contains(line))
    };
    let found = offending(&files, &reads, exempt);
    assert!(found.is_empty(), "environment reads:\n{}", found.join("\n"));
    for (file, line) in EXEMPT.iter().filter(|(_, line)| !line.is_empty()) {
        let text = std::fs::read_to_string(root().join(file)).expect("an exempt file");
        let uses = text.lines().filter(|l| l.contains(line)).count();
        assert_eq!(
            uses, 1,
            "{file} should read the environment once, at {line}"
        );
    }
}

#[test]
fn no_test_writes_the_environment() {
    let mut files = rust_files(Path::new("tests"));
    for dir in crate_dirs("tests").iter().chain(&crate_dirs("src")) {
        files.extend(rust_files(dir));
    }
    // This file names what it looks for.
    files.retain(|f| f != "tests/source_guard.rs");
    let found = offending(&files, &["set_var(", "remove_var("], |_, _| false);
    assert!(
        found.is_empty(),
        "environment writes:\n{}",
        found.join("\n")
    );
}

#[test]
fn the_bench_crate_prints_only_through_its_writers() {
    let mut files = rust_files(Path::new("crates/bench/src"));
    files.retain(|f| f != "crates/bench/src/bin/hotpaths.rs");
    let prints = ["println!", "eprintln!", "print!", "eprint!"];
    let found = offending(&files, &prints, |_, _| false);
    assert!(found.is_empty(), "prints:\n{}", found.join("\n"));
}
