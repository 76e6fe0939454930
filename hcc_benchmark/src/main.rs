//! `hcc_benchmark`: times the lab's shipped entry points end to end,
//! checks their virtual-time output, and attributes host time to layers.
//!
//! ```sh
//! cargo run --release --manifest-path hcc_benchmark/Cargo.toml -- \
//!     [--workload serve|storm|forensics|suite]... [--seed S] [--seconds N] \
//!     [--trace 0|1] [--json out.json] [--trace-out spans.json]
//! cargo run --release --manifest-path hcc_benchmark/Cargo.toml -- \
//!     --compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! `--trace 0` runs the untraced end-to-end rounds, `--trace 1` the traced
//! per-layer pass, and no `--trace` both. The last stdout line is a JSON
//! object `{correct, attempted, failed, metrics}`. The exit code is 1 when
//! any iteration failed (or `--compare` found a regression) and 2 on a
//! usage error. See README.md for the metrics and workloads.

mod calibrate;
mod compare;
mod heap;
mod measure;
mod result;
mod spans;
mod stats;
mod workload;

use hcc_types::json::Json;

use measure::Plan;
use spans::Tracer;
use workload::Workload;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Measured seconds per workload and phase, as `BENCHMARK.json` sets.
const DEFAULT_SECONDS: u64 = 20;

fn usage() -> ! {
    eprintln!(
        "usage: hcc_benchmark [--workload serve|storm|forensics|suite]... [--seed S] \
         [--seconds N] [--trace 0|1] [--json <path>] [--trace-out <path>]\n       \
         hcc_benchmark --compare A.json B.json [--bounds BENCHMARK.json]"
    );
    std::process::exit(2);
}

fn bad(flag: &str, detail: &str) -> ! {
    eprintln!("hcc_benchmark: {flag}: {detail}");
    usage()
}

fn parse_u64(flag: &str, value: Option<String>) -> u64 {
    let Some(raw) = value else {
        bad(flag, "missing value")
    };
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => raw.parse().ok(),
    };
    parsed.unwrap_or_else(|| bad(flag, &format!("cannot parse {raw:?} as an integer")))
}

fn read_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("hcc_benchmark: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("hcc_benchmark: {path}: {e}");
        std::process::exit(2);
    })
}

fn write_or_die(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("hcc_benchmark: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Removes every `HCC_*` variable, so knobs such as `HCC_METRICS`,
/// `HCC_CAUSAL` or `HCC_FAULT_PLAN` cannot change what is measured.
/// Runs before any other thread exists or any variable is read.
fn scrub_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HCC_"))
        .collect();
    names.sort();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

fn run_compare(a: &str, b: &str, bounds_path: &str) -> ! {
    let bounds = compare::bounds(&read_json(bounds_path)).unwrap_or_else(|e| {
        eprintln!("hcc_benchmark: {bounds_path}: {e}");
        std::process::exit(2);
    });
    match compare::compare(&read_json(a), &read_json(b), &bounds) {
        Ok((text, worse)) => {
            print!("{text}");
            std::process::exit(i32::from(worse));
        }
        Err(e) => {
            eprintln!("hcc_benchmark: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let scrubbed = scrub_env();

    let mut plan = Plan {
        workloads: Vec::new(),
        seed: None,
        seconds: DEFAULT_SECONDS,
        e2e: true,
        traced: true,
    };
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut compare_paths: Option<(String, String)> = None;
    let mut bounds_path = "BENCHMARK.json".to_string();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => match args.next().as_deref().map(Workload::parse) {
                Some(Some(w)) if !plan.workloads.contains(&w) => plan.workloads.push(w),
                Some(Some(_)) => {}
                Some(None) => bad(&arg, "expected serve|storm|forensics|suite"),
                None => bad(&arg, "missing value"),
            },
            "--seed" => plan.seed = Some(parse_u64(&arg, args.next())),
            "--seconds" => match parse_u64(&arg, args.next()) {
                s @ 1..=3600 => plan.seconds = s,
                s => bad(&arg, &format!("{s} is outside 1..=3600")),
            },
            "--trace" => match parse_u64(&arg, args.next()) {
                0 => plan.traced = false,
                1 => plan.e2e = false,
                t => bad(&arg, &format!("{t} is not 0 or 1")),
            },
            "--json" => json_path = Some(args.next().unwrap_or_else(|| bad(&arg, "missing path"))),
            "--trace-out" => {
                trace_path = Some(args.next().unwrap_or_else(|| bad(&arg, "missing path")));
            }
            "--compare" => match (args.next(), args.next()) {
                (Some(a), Some(b)) => compare_paths = Some((a, b)),
                _ => bad(&arg, "expected two result files"),
            },
            "--bounds" => bounds_path = args.next().unwrap_or_else(|| bad(&arg, "missing path")),
            _ => bad(&arg, "unknown flag"),
        }
    }
    if let Some((a, b)) = compare_paths {
        run_compare(&a, &b, &bounds_path);
    }
    if plan.workloads.is_empty() {
        plan.workloads = Workload::ALL.to_vec();
    }
    if !scrubbed.is_empty() {
        eprintln!(
            "hcc_benchmark: removed from the environment: {}",
            scrubbed.join(" ")
        );
    }

    let machine = result::Machine::probe();
    eprintln!(
        "hcc_benchmark: {} on {} x {} | engine threads {} | {} s per workload and phase",
        plan.workloads
            .iter()
            .map(|w| w.name())
            .collect::<Vec<_>>()
            .join(","),
        machine.nproc,
        machine.cpu,
        workload::ENGINE_THREADS,
        plan.seconds,
    );
    let mut tracer = Tracer::new(plan.traced);
    let runs = measure::run(&plan, &mut tracer);

    for run in &runs {
        print!("{}", result::render(run));
    }
    if let Some(path) = json_path {
        let doc = result::document(&runs, &plan, &machine, &scrubbed);
        write_or_die(&path, &doc.to_string());
    }
    if let Some(path) = trace_path {
        write_or_die(&path, &tracer.to_chrome());
    }
    println!("{}", result::summary_line(&runs));
    if runs.iter().any(|r| r.failed > 0) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units in `BENCHMARK.json` are the ones this
    /// program prints.
    #[test]
    fn benchmark_json_lists_the_metrics_the_program_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = measure::E2E
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        let layers: Vec<(String, String)> = measure::LAYERS
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        assert_eq!(listed("per_layer"), layers);
        let bounds = compare::bounds(&doc).unwrap();
        for (name, _, better) in &bounds {
            let (_, _, b) = measure::E2E.iter().find(|m| m.0 == name).unwrap();
            assert_eq!(b, better, "{name}");
        }
        let names: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn the_result_json_round_trips_through_the_parser() {
        let plan = Plan {
            workloads: vec![Workload::Suite],
            seed: None,
            seconds: 1,
            e2e: true,
            traced: false,
        };
        let mut run = measure::WorkloadRun::new(workload::Prepared::new(Workload::Suite, None));
        run.wall_ms = vec![2.0, 2.5, 3.0];
        run.ref_wall_ms = vec![1.5, 1.0, 2.0];
        run.setup_s = vec![0.1, 0.2, 0.3];
        run.setup_host_s = vec![0.1, 0.2, 0.3];
        run.heap_mb = vec![10.0, 11.0, 12.0];
        run.layers.insert("engine.batch_ms", vec![1.0, 1.5]);
        let runs = [run];
        let machine = result::Machine {
            nproc: 2,
            cpu: "test \"cpu\"".to_string(),
        };
        let doc = result::document(&runs, &plan, &machine, &["HCC_METRICS".to_string()]);
        let parsed = Json::parse(&doc.to_string()).expect("result JSON parses");
        assert_eq!(parsed, doc);
        let e2e = parsed
            .get("workloads")
            .and_then(|w| w.get("suite"))
            .and_then(|s| s.get("e2e"))
            .unwrap();
        let value = |m: &str| {
            e2e.get(m)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("wall_ms"), Some(2.5));
        assert_eq!(value("ref_wall_ms"), Some(1.5));

        let line = result::summary_line(&runs);
        let parsed = Json::parse(&line.to_string()).expect("summary line parses");
        assert_eq!(parsed, line);
        let Json::Obj(fields) = &parsed else {
            panic!("the summary line is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = parsed.get("metrics").unwrap();
        for (name, unit, _) in measure::E2E {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        }
    }
}
