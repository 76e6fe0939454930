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
//!   writes only to the stdout and stderr `lab::run` hands it;
//! - every `pub fn` of a library crate is named by some file outside
//!   that crate's library sources (another crate, a test, an example,
//!   the facade, the benchmark package, a bin or a doc example), except
//!   the survivors in [`UNREFERENCED_PUB_FNS`]: a function nothing
//!   outside names is `pub(crate)`, and one nothing at all calls is dead
//!   code the build then refuses (`dead_code` is denied workspace-wide).

use std::collections::HashMap;
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

/// Library `pub fn`s that nothing outside their crate names yet, by file
/// and name.
const UNREFERENCED_PUB_FNS: [(&str, &str); 2] = [
    // The per-request LLM latency model (upload, prefill, decode) that
    // the serving soak's request shape is to be built on (ROADMAP item 8).
    ("crates/ml/src/llm.rs", "request_latency"),
    // Time to first token from that model, for the same soak.
    ("crates/ml/src/llm.rs", "ttft"),
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

/// The identifiers in `text`.
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .filter(|w| !w.is_empty())
}

/// The identifiers on the code lines of `text`'s doc examples (fenced
/// blocks in `///` or `//!` comments): each example builds as a crate of
/// its own, so it uses the library from outside.
fn doc_example_identifiers(text: &str) -> Vec<&str> {
    let mut found = Vec::new();
    let mut fenced = false;
    for line in text.lines() {
        let line = line.trim_start();
        let Some(doc) = line
            .strip_prefix("///")
            .or_else(|| line.strip_prefix("//!"))
        else {
            fenced = false;
            continue;
        };
        if doc.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if fenced {
            found.extend(identifiers(doc));
        }
    }
    found
}

/// The name a line declares as `pub fn` (also `const`/`unsafe`), unless
/// the line is a macro body, whose functions are named by the macro's
/// invocations.
fn pub_fn_name(line: &str) -> Option<&str> {
    if line.contains('$') {
        return None;
    }
    let mut rest = line.trim_start().strip_prefix("pub ")?;
    for qualifier in ["const ", "unsafe "] {
        rest = rest.strip_prefix(qualifier).unwrap_or(rest);
    }
    identifiers(rest.strip_prefix("fn ")?).next()
}

#[test]
fn every_library_pub_fn_is_named_outside_its_crate() {
    let read = |file: &str| std::fs::read_to_string(root().join(file)).expect("a readable source");
    let mut outside_dirs: Vec<PathBuf> = ["tests", "examples", "src", "hcc_benchmark/src"]
        .iter()
        .map(PathBuf::from)
        .collect();
    outside_dirs.extend(crate_dirs("tests"));
    let shared: Vec<String> = outside_dirs
        .iter()
        .flat_map(|d| rust_files(d))
        .map(|f| read(&f))
        .collect();
    // Each crate's sources: (file, text, whether it is a library file).
    let crates: Vec<Vec<(String, String, bool)>> = crate_dirs("src")
        .iter()
        .map(|d| {
            rust_files(d)
                .into_iter()
                .map(|f| {
                    let text = read(&f);
                    let lib = !f.contains("/src/bin/");
                    (f, text, lib)
                })
                .collect()
        })
        .collect();
    assert!(crates.len() <= 64, "one bit per crate");
    // Per identifier: whether a shared file, a bin or a doc example
    // names it, and the crates whose library code does (one bit each).
    let mut seen: HashMap<&str, (bool, u64)> = HashMap::new();
    for text in &shared {
        for name in identifiers(text) {
            seen.entry(name).or_default().0 = true;
        }
    }
    for (c, sources) in crates.iter().enumerate() {
        for (_, text, lib) in sources {
            for name in identifiers(text) {
                let entry = seen.entry(name).or_default();
                if *lib {
                    entry.1 |= 1 << c;
                } else {
                    entry.0 = true;
                }
            }
            for name in doc_example_identifiers(text) {
                seen.entry(name).or_default().0 = true;
            }
        }
    }
    let mut unnamed = Vec::new();
    for (c, sources) in crates.iter().enumerate() {
        for (file, text, _) in sources.iter().filter(|(_, _, lib)| *lib) {
            for (i, line) in text.lines().enumerate() {
                let Some(name) = pub_fn_name(line) else {
                    continue;
                };
                let (outside, libs) = seen[name];
                let named = outside || libs & !(1 << c) != 0;
                if !named && !UNREFERENCED_PUB_FNS.contains(&(file.as_str(), name)) {
                    unnamed.push(format!("{file}:{}: {name}", i + 1));
                }
            }
        }
    }
    assert!(
        unnamed.is_empty(),
        "pub fns nothing outside their crate names (make them pub(crate), \
         or delete them if the compiler then finds them unused):\n{}",
        unnamed.join("\n")
    );
    for (file, name) in UNREFERENCED_PUB_FNS {
        let declared = read(file).lines().any(|l| pub_fn_name(l) == Some(name));
        assert!(declared, "{file} no longer declares pub fn {name}");
    }
}
