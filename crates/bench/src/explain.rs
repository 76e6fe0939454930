//! The CC-on/CC-off slowdown explainer: runs the same app in both modes,
//! extracts each mode's critical path from the causal trace, and reports
//! the per-resource *exposed* slowdown — the difference in critical
//! nanoseconds each resource class contributes to the end-to-end span.
//!
//! Because [`hcc_trace::critpath::extract`] partitions `[first_start,
//! last_end]` exactly (Σ critical segments == P, test-enforced), the
//! per-resource deltas sum to ΔP by construction: every nanosecond of
//! slowdown is attributed to exactly one resource class, none invented,
//! none lost.
//!
//! `hcc_lab explain` ([`COMMAND`]) prints the per-app blame table
//! ([`render`]); `--json <path>` also writes every explanation as a JSON
//! array.

use std::fmt::Write;

use hcc_trace::critpath::{self, Attribution, ResourceClass};
use hcc_types::json::{JsonOut, ToJson};
use hcc_types::{CcMode, SimDuration};
use hcc_workloads::{suites, Scenario};

use crate::cli;
use crate::engine::ScenarioFailure;
use crate::lab::{Command, Lab};
use crate::{figures, report};

/// One app's aligned CC-on / CC-off critical-path comparison.
#[derive(Debug, Clone)]
pub struct AppExplanation {
    /// App name as the suites label it.
    pub app: &'static str,
    /// Whether the app uses managed (UVM) memory.
    pub uvm: bool,
    /// End-to-end span CC-off (the critical path's total, == P).
    pub p_off: SimDuration,
    /// End-to-end span CC-on.
    pub p_on: SimDuration,
    /// Per-resource critical time CC-off.
    pub off: Attribution,
    /// Per-resource critical time CC-on.
    pub on: Attribution,
    /// Critical-path hops confirmed by a recorded causal edge, CC-on.
    pub confirmed_links: usize,
    /// Causal edges recorded CC-on.
    pub edges_on: usize,
}

impl AppExplanation {
    /// Exposed slowdown on one resource class, in signed nanoseconds
    /// (negative when CC-on spends *less* critical time there, e.g. work
    /// that migrated from the copy engine to the crypto engine).
    pub fn exposed_delta(&self, r: ResourceClass) -> i64 {
        self.on.get(r).as_nanos() as i64 - self.off.get(r).as_nanos() as i64
    }

    /// Total slowdown `ΔP = P_on − P_off` in signed nanoseconds.
    pub fn delta_p(&self) -> i64 {
        self.p_on.as_nanos() as i64 - self.p_off.as_nanos() as i64
    }

    /// The resource with the largest positive exposed slowdown, with that
    /// delta — `None` when CC-on exposed no resource longer than CC-off.
    pub fn dominant(&self) -> Option<(ResourceClass, i64)> {
        ResourceClass::ALL
            .iter()
            .map(|&r| (r, self.exposed_delta(r)))
            .filter(|&(_, d)| d > 0)
            .max_by_key(|&(_, d)| d)
    }

    /// The attribution identity this type is built on: the per-resource
    /// deltas must sum to ΔP exactly.
    pub fn deltas_sum_to_delta_p(&self) -> bool {
        let sum: i64 = ResourceClass::ALL
            .iter()
            .map(|&r| self.exposed_delta(r))
            .sum();
        sum == self.delta_p()
    }
}

impl ToJson for AppExplanation {
    fn write_json(&self, out: &mut JsonOut<'_>) {
        out.obj(|o| {
            o.field("app", self.app);
            o.field("uvm", self.uvm);
            o.field("p_off_ns", self.p_off);
            o.field("p_on_ns", self.p_on);
            o.field("delta_p_ns", self.delta_p());
            o.key("resources");
            o.obj(|o| {
                for &r in &ResourceClass::ALL {
                    o.key(r.name());
                    o.obj(|o| {
                        o.field("off_ns", self.off.get(r));
                        o.field("on_ns", self.on.get(r));
                        o.field("delta_ns", self.exposed_delta(r));
                    });
                }
            });
            o.field("confirmed_links", self.confirmed_links);
            o.field("edges_on", self.edges_on);
        });
    }
}

/// Extracts both critical paths for one app from its CC-off and CC-on
/// runs (causal collection on) and folds them into an explanation.
/// Asserts the structural invariants the explainer's output depends on:
/// each path's identity (Σ segments == P), acyclicity of the collected
/// DAG, and deltas summing to ΔP.
pub fn explain_one(
    app: &'static str,
    uvm: bool,
    off: &hcc_workloads::RunResult,
    on: &hcc_workloads::RunResult,
) -> AppExplanation {
    let path_off = critpath::extract(&off.timeline, &off.causal);
    let path_on = critpath::extract(&on.timeline, &on.causal);
    for (mode, path, run) in [("off", &path_off, off), ("on", &path_on, on)] {
        assert!(
            path.identity_holds(),
            "{app} cc={mode}: critical-path identity violated"
        );
        assert!(
            run.causal.is_acyclic(),
            "{app} cc={mode}: causal graph has a back edge"
        );
        assert_eq!(
            path.attribution().total(),
            run.timeline.span(),
            "{app} cc={mode}: attribution total != span"
        );
    }
    let explanation = AppExplanation {
        app,
        uvm,
        p_off: path_off.span(),
        p_on: path_on.span(),
        off: path_off.attribution(),
        on: path_on.attribution(),
        confirmed_links: path_on.causal_links(),
        edges_on: on.causal.len(),
    };
    assert!(
        explanation.deltas_sum_to_delta_p(),
        "{app}: per-resource deltas do not sum to ΔP"
    );
    explanation
}

/// Runs every standard app CC-on and CC-off on `lab` with causal
/// collection forced on and explains each one. Failures are surfaced
/// per app instead of aborting the sweep.
pub fn explain_all(lab: &Lab) -> (Vec<AppExplanation>, Vec<ScenarioFailure>) {
    let specs = suites::all();
    let mut batch = Vec::with_capacity(specs.len() * 2);
    for spec in &specs {
        for cc in CcMode::ALL {
            batch.push(Scenario::standard(
                spec.name,
                figures::cfg(cc).with_causal(true),
            ));
        }
    }
    let results = lab.run_figures(&batch);

    let mut out = Vec::new();
    let mut failures = Vec::new();
    for (spec, pair) in specs.iter().zip(results.chunks(2)) {
        let runs: Vec<_> = pair.iter().map(|r| r.run()).collect();
        match (&runs[0], &runs[1]) {
            (Ok(off), Ok(on)) => out.push(explain_one(spec.name, spec.uvm, off, on)),
            _ => {
                for r in runs {
                    if let Err(f) = r {
                        failures.push(f);
                    }
                }
            }
        }
    }
    (out, failures)
}

fn us(ns: i64) -> String {
    format!("{:+.1}", ns as f64 / 1_000.0)
}

/// One table line: the app columns, a cell per resource class, then the
/// dominant class.
fn line(out: &mut String, app: [String; 4], cells: [String; 7], dominant: &str) {
    let [app, off, on, dp] = app;
    let _ = write!(out, "{app:<16} {off:>9} {on:>9} {dp:>9} ");
    for cell in cells {
        let _ = write!(out, " {cell:>8}");
    }
    let _ = writeln!(out, "  {dominant}");
}

/// The blame table: one row per explained app, a `!!` line per failure,
/// then a trailer the tests read — the paper's causes must show up in
/// the blame: crypto and bounce-pool exposure on some dense app, UVM
/// exposure on some managed app.
pub fn render(rows: &[AppExplanation], failures: &[ScenarioFailure]) -> String {
    let mut out = report::section(
        "slowdown explainer — exposed critical time per resource (CC-on minus CC-off)",
    );
    let head = ["app", "P.off/us", "P.on/us", "dP/us"].map(String::from);
    line(
        &mut out,
        head,
        ResourceClass::ALL.map(|r| r.short().into()),
        "dominant",
    );
    for e in rows {
        let p = |d: SimDuration| format!("{:.1}", d.as_micros_f64());
        let app = [e.app.to_string(), p(e.p_off), p(e.p_on), us(e.delta_p())];
        let cells = ResourceClass::ALL.map(|r| us(e.exposed_delta(r)));
        line(
            &mut out,
            app,
            cells,
            e.dominant().map_or("-", |(r, _)| r.short()),
        );
    }
    report::failure_lines(&mut out, failures);

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
    let _ = writeln!(
        out,
        "\nexplained: {} apps, {} causal edges, {} path hops edge-confirmed, \
         crypto+bounce exposed: {}, uvm exposed: {} (identity OK)",
        rows.len(),
        edges,
        confirmed,
        crypto_bounce,
        uvm_exposed
    );
    out
}

/// `hcc_lab explain`: every standard app's blame table ([`render`]).
pub const COMMAND: Command = Command {
    usage: "usage: hcc_lab explain [--json <path>]",
    parse: |args, _| {
        let json_path = cli::json_flag(args)?;
        Ok(Box::new(move |lab, out, err| {
            let (rows, failures) = explain_all(lab);
            out.write_all(render(&rows, &failures).as_bytes())?;
            if let Some(path) = json_path {
                cli::write_file(&path, rows.to_json_string())?;
            }
            Ok(report::finish(lab, err, &failures))
        }))
    },
};

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_runtime::SimConfig;
    use hcc_types::json::Json;
    use hcc_workloads::run_scenario;

    fn explain_app(name: &'static str, uvm: bool) -> AppExplanation {
        let run = |cc: CcMode| {
            run_scenario(&Scenario::standard(
                name,
                SimConfig::new(cc).with_seed(0xE4_91A1).with_causal(true),
            ))
            .expect("suite app runs")
        };
        let (off, on) = (run(CcMode::Off), run(CcMode::On));
        explain_one(name, uvm, &off, &on)
    }

    #[test]
    fn non_uvm_app_blames_crypto_and_bounce() {
        let e = explain_app("gemm", false);
        assert!(e.delta_p() > 0, "CC must slow gemm down");
        assert!(
            e.exposed_delta(ResourceClass::Crypto) > 0,
            "CC-on gemm must expose crypto time on the critical path"
        );
        assert!(
            e.exposed_delta(ResourceClass::BouncePool) > 0,
            "CC-on gemm must expose bounce-reservation time"
        );
        assert!(e.deltas_sum_to_delta_p());
    }

    #[test]
    fn uvm_app_blames_uvm() {
        let e = explain_app("knn", true);
        assert!(
            e.on.get(ResourceClass::Uvm) > SimDuration::ZERO,
            "CC-on knn must have UVM time on the critical path"
        );
    }

    #[test]
    fn json_round_trips() {
        let e = explain_app("atax", false);
        let parsed = Json::parse(&e.to_json_string()).expect("explanation JSON parses");
        assert_eq!(
            parsed.get("app").and_then(Json::as_str),
            Some("atax"),
            "app name survives"
        );
        assert!(parsed.get("resources").is_some());
    }
}
