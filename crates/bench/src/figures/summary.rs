//! The reproduction summary: every headline statistic next to the
//! paper's, and all nine observations scored (Observation 6 from the KLR
//! points of Fig. 7's runs, the same points `tests/observations.rs`
//! checks). This is the number-for-number source of EXPERIMENTS.md,
//! which `tests/docs_drift.rs` holds to it.

use std::fmt::Write;

use hcc_core::observations as obs;
use hcc_core::Precision;
use hcc_crypto::{CryptoAlgorithm, SoftCryptoModel};
use hcc_ml::cnn::CnnEstimator;
use hcc_ml::llm::{Backend, LlmConfig, LlmEstimator, LlmPrecision, FIG14_BATCHES};
use hcc_types::{ByteSize, CcMode, CpuModel, HostMemKind, SimDuration};
use hcc_workloads::Scenario;

use hcc_types::json::JsonOut;

use super::{fig03, fig04a, fig05, fig06, fig07, fig09, fig12, Computed};
use crate::cli;
use crate::engine::ScenarioFailure;
use crate::lab::{Command, Lab};
use crate::report;

/// The summary as it renders: the text so far, and the failures of the
/// figures it read.
struct Table {
    out: String,
    failures: Vec<ScenarioFailure>,
}

impl Table {
    /// One `statistic  paper  measured` row.
    fn line(&mut self, label: &str, paper: &str, measured: String) {
        let _ = writeln!(self.out, "{label:<44} {paper:>14} {measured:>14}");
    }

    /// `computed`'s payload, its failures rendered as `!!` lines and kept.
    fn keep<T>(&mut self, computed: Computed<T>) -> T {
        report::failure_lines(&mut self.out, &computed.failures);
        self.failures.extend(computed.failures);
        computed.data
    }
}

/// Every simulation-backed figure population the summary reads, as one
/// batch. Overlapping populations (e.g. Fig. 7 ⊂ Fig. 5's apps plus the
/// Fig. 9 explicit variants) repeat here and are simulated once.
pub fn prefetch() -> Vec<Scenario> {
    let mut batch = fig04a::scenarios();
    batch.extend(fig05::scenarios());
    batch.extend(fig06::scenarios(ByteSize::mib(64), 40));
    batch.extend(fig07::scenarios());
    batch.extend(fig09::scenarios());
    batch
}

/// The statistics table and the observation scorecard. Any scenario
/// failure still renders the surviving statistics, after its `!!` line.
pub fn render(lab: &Lab) -> Computed<String> {
    // Prefetch in one parallel batch; the per-figure calls below then
    // resolve from the engine's cache.
    let _ = lab.run_figures(&prefetch());

    let mut t = Table {
        out: report::section("hcc reproduction summary (paper vs measured)"),
        failures: Vec::new(),
    };
    t.line("statistic", "paper", "measured".into());

    // Fig. 4a
    let pts = t.keep(fig04a::try_series(lab));
    let base_pin = fig04a::peak(&pts, CcMode::Off, HostMemKind::Pinned);
    let base_page = fig04a::peak(&pts, CcMode::Off, HostMemKind::Pageable);
    let cc_pin = fig04a::peak(&pts, CcMode::On, HostMemKind::Pinned);
    let cc_page = fig04a::peak(&pts, CcMode::On, HostMemKind::Pageable);
    t.line("CC pinned H2D peak (GB/s)", "3.03", format!("{cc_pin:.2}"));

    // Fig. 5
    let rows5 = t.keep(fig05::try_rows(lab));
    let (mean, max, min) = fig05::stats(&rows5);
    t.line("copy slowdown mean", "x5.80", report::ratio(mean));
    t.line("copy slowdown max", "x19.69", report::ratio(max));
    t.line("copy slowdown min", "x1.17", report::ratio(min));

    // Fig. 6
    let r6 = t.keep(fig06::try_ratios(lab, ByteSize::mib(64), 40));
    for ((api, paper), r) in fig06::PAPER.into_iter().zip(r6) {
        t.line(api, paper, report::ratio(r));
    }

    // Fig. 7
    let (klo, lqt, kqt) = fig07::means(&t.keep(fig07::try_rows(lab)));
    t.line("mean KLO slowdown", "x1.42", report::ratio(klo));
    t.line("mean LQT slowdown", "x1.43", report::ratio(lqt));
    t.line("mean KQT slowdown", "x2.32", report::ratio(kqt));

    // Fig. 9
    let (nonuvm, uvm_base, uvm_cc, _) = fig09::stats(&t.keep(fig09::try_rows(lab)));
    let delta = format!("{:+.2}%", (nonuvm - 1.0) * 100.0);
    t.line("non-UVM KET delta", "+0.48%", delta);
    t.line("UVM base slowdown mean", "x5.29", report::ratio(uvm_base));
    t.line(
        "UVM-CC slowdown geomean",
        "(mean 188.87)",
        report::ratio(uvm_cc),
    );

    // Fig. 13
    let cnn = CnnEstimator::default();
    for (label, paper, batch) in [
        ("CNN batch-64 CC throughput drop", "24%", 64),
        ("CNN batch-1024 CC throughput drop", "7.3%", 1024),
    ] {
        let drop = cnn.mean_cc_drop(batch, Precision::Fp32) * 100.0;
        t.line(label, paper, format!("{drop:.1}%"));
    }

    // Fig. 14
    let llm = LlmEstimator::default();
    let mut min_speedup = f64::MAX;
    for b in FIG14_BATCHES {
        for p in [LlmPrecision::Bf16, LlmPrecision::Awq] {
            for cc in CcMode::ALL {
                min_speedup = min_speedup.min(llm.vllm_speedup(p, b, cc));
            }
        }
    }
    let min = format!("{min_speedup:.2}");
    t.line("min vLLM speedup over HF (all cells)", ">1.0", min);

    // Observations.
    let mut out = t.out + &report::section("observations");
    let emr = SoftCryptoModel::new(CpuModel::EmeraldRapids);
    let vllm = |precision, batch, cc| {
        llm.throughput(LlmConfig {
            backend: Backend::Vllm,
            precision,
            batch,
            cc,
        })
    };
    let checks = [
        obs::obs1_bandwidth(base_pin, base_page, cc_pin, cc_page),
        obs::obs2_crypto(
            emr.throughput(CryptoAlgorithm::AesGcm128).as_gb_per_s(),
            emr.throughput(CryptoAlgorithm::Ghash).as_gb_per_s(),
            base_pin,
        ),
        obs::obs3_copy(&rows5.iter().map(fig05::Row::slowdown).collect::<Vec<_>>()),
        obs::obs4_launch(klo, lqt, kqt),
        obs::obs5_ket(nonuvm, uvm_cc),
        // Fig. 7's runs, whose failures are already reported above.
        obs::obs6_klr(&fig07::try_klr_points(lab).data),
        {
            // obs7 inputs from the launch train and a short-kernel fusion sweep.
            let recs = fig12::launch_train(lab, CcMode::On, 100, 100);
            let steady: SimDuration = recs[10..90].iter().map(|r| r.klo).sum::<SimDuration>() / 80;
            let sweep = fig12::fusion_sweep(lab, CcMode::On, SimDuration::millis(5), 1024);
            let min_span = sweep.iter().map(|p| p.span).min().expect("non-empty");
            let last = sweep.last().expect("non-empty");
            obs::obs7_fusion(
                recs[0].klo / steady,
                last.span.as_secs_f64() > min_span.as_secs_f64() * 1.2
                    && last.total_klo > sweep[0].total_klo,
            )
        },
        {
            let speedup = |cc, ket| {
                fig12::overlap_series(lab, cc, ByteSize::mib(512), ket, &[64])[0]
                    .1
                    .speedup()
            };
            obs::obs8_overlap(
                speedup(CcMode::Off, SimDuration::millis(1)),
                speedup(CcMode::On, SimDuration::millis(1)),
                speedup(CcMode::On, SimDuration::millis(100)),
            )
        },
        obs::obs9_quant(
            25.0,
            min_speedup > 1.0,
            vllm(LlmPrecision::Awq, 4, CcMode::On) > vllm(LlmPrecision::Bf16, 4, CcMode::On),
            vllm(LlmPrecision::Bf16, 128, CcMode::On) > vllm(LlmPrecision::Awq, 128, CcMode::On),
        ),
    ];
    for c in &checks {
        let _ = writeln!(out, "{c}");
    }
    let pass = checks.iter().filter(|c| c.holds).count();
    let _ = writeln!(out, "\n{pass}/{} observation checks pass", checks.len());
    Computed {
        data: out,
        failures: t.failures,
    }
}

/// The machine-readable benchmark summary: end-to-end `P` and phase
/// totals of every standard app in both modes (Fig. 3's runs), plus the
/// engine's self-profile (wall time, cache hits). Every run resolves from
/// the engine cache when the figures above already simulated it.
fn bench_summary(lab: &Lab, out: &mut JsonOut<'_>, failures: &mut Vec<ScenarioFailure>) {
    let batch = fig03::scenarios();
    let results = lab.run_figures(&batch);
    out.obj(|o| {
        o.key("apps");
        o.arr(|o| {
            for (scenario, result) in batch.iter().zip(&results) {
                match result.run() {
                    Ok(run) => o.obj(|o| {
                        o.field("app", scenario.app_name());
                        o.field("cc", scenario.cc());
                        o.field("p_ns", run.timeline.span());
                        o.field("phases", run.timeline.phase_totals());
                    }),
                    Err(f) => failures.push(f),
                }
            }
        });
        o.field("engine", lab.engine.stats());
    });
}

/// `hcc_lab summary`: the scorecard [`render`] prints, and with `--json
/// <path>` per-app `P` and phase totals plus the engine's self-profile.
pub const COMMAND: Command = Command {
    usage: "usage: hcc_lab summary [--json <path>]",
    parse: |args, _| {
        let json_path = cli::json_flag(args)?;
        Ok(Box::new(move |lab, out, err| {
            let summary = render(lab);
            out.write_all(summary.data.as_bytes())?;
            let mut failures = summary.failures;
            // Written last, so the engine self-profile covers every batch.
            if let Some(path) = json_path {
                cli::write_json_file(&path, |out| bench_summary(lab, out, &mut failures))?;
            }
            Ok(report::finish(lab, err, &failures))
        }))
    },
};
