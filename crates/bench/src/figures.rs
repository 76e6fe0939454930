//! Data generators and renderers for every table and figure in the
//! paper's evaluation. Each submodule computes the rows/series a figure
//! plots and renders them as the text `hcc_lab figures` prints
//! ([`Figure`] names them); the integration tests assert their shape and
//! `tests/golden/figures.txt` freezes their text.
//!
//! Every simulation-backed module expresses its runs as [`Scenario`]
//! requests built through the one construction path below ([`scenario`],
//! [`uvm_scenario`], [`adhoc_scenario`]) and executes them through the
//! shared [`crate::engine`], so overlapping figure populations (e.g.
//! Fig. 5 and Fig. 7) pay for each distinct simulation once per run.
//! Modules that need several runs also export a `scenarios()` helper so
//! harnesses can prefetch the whole population in one parallel batch.

use std::sync::Arc;

use hcc_runtime::SimConfig;
use hcc_types::CcMode;
use hcc_workloads::{RunResult, Scenario, WorkloadSpec};

use crate::cli::{self, Args, CliError};
use crate::engine::{ScenarioFailure, ScenarioResult};
use crate::lab::{Command, Lab};
use crate::report;

pub mod ablations;
pub mod sensitivity;
pub mod summary;

/// Environment variable carrying a [`hcc_types::FaultPlan`] spec (e.g.
/// `seed=7,gcm=0.35,bounce=0.3`) that every figure config picks up
/// (`Lab::switch`): the fault-sweep knob of EXPERIMENTS.md.
pub const FAULT_PLAN_ENV: &str = "HCC_FAULT_PLAN";

/// Environment variable switching the virtual-time metrics plane on for
/// every figure config (`HCC_METRICS=1`). It only observes: figure
/// stdout is byte-identical either way, and the runs carry the queue
/// snapshots `hcc_lab obs` and the Perfetto export read.
pub const METRICS_ENV: &str = "HCC_METRICS";

/// Environment variable switching causal-edge collection on for every
/// figure config (`HCC_CAUSAL=1`). It only observes too, and the runs
/// carry the dependency DAG `explain` and the Perfetto flow arrows read.
pub const CAUSAL_ENV: &str = "HCC_CAUSAL";

/// A figure computation plus the scenarios that failed to contribute.
/// Figure tables render `data` and surface `failures` as per-row lines
/// instead of aborting the whole report.
#[derive(Debug, Clone)]
pub struct Computed<T> {
    /// The successfully computed payload (failed rows omitted).
    pub data: T,
    /// One entry per scenario that could not produce its row.
    pub failures: Vec<ScenarioFailure>,
}

impl<T> Computed<T> {
    /// A payload no scenario failed to contribute to.
    pub fn clean(data: T) -> Self {
        Computed {
            data,
            failures: Vec::new(),
        }
    }

    /// The figure's text: `head`, a `!! label: error` line per failure,
    /// then what `body` writes from the payload. The failures carry over.
    pub fn render(self, head: String, body: impl FnOnce(&mut String, T)) -> Computed<String> {
        let mut out = head;
        crate::report::failure_lines(&mut out, &self.failures);
        body(&mut out, self.data);
        Computed {
            data: out,
            failures: self.failures,
        }
    }
}

/// The runs of one figure row (`N` of them, e.g. a base/CC pair), or
/// every failure among them: a row lands only when all its runs did.
fn runs<const N: usize>(
    results: &[Arc<ScenarioResult>],
) -> Result<[&RunResult; N], Vec<ScenarioFailure>> {
    let mut failures = Vec::new();
    let runs: Vec<&RunResult> = results
        .iter()
        .filter_map(|res| res.run().map_err(|f| failures.push(f)).ok())
        .collect();
    if failures.is_empty() {
        Ok(runs.try_into().expect("a row's chunk holds its N runs"))
    } else {
        Err(failures)
    }
}

/// Rows in request order, each failed row's failures collected instead.
impl<T> FromIterator<Result<T, Vec<ScenarioFailure>>> for Computed<Vec<T>> {
    fn from_iter<I: IntoIterator<Item = Result<T, Vec<ScenarioFailure>>>>(rows: I) -> Self {
        let mut out = Computed::clean(Vec::new());
        for row in rows {
            match row {
                Ok(row) => out.data.push(row),
                Err(failures) => out.failures.extend(failures),
            }
        }
        out
    }
}

/// Fresh config for a mode with the standard experiment seed. A figure
/// run takes it through `Lab::switch` or `Lab::run_figures`, which turn
/// the run's figure switches on.
pub fn cfg(cc: CcMode) -> SimConfig {
    SimConfig::new(cc).with_seed(0xFA11_2025)
}

/// A standard suite app under the standard experiment seed — the single
/// construction path for by-name figure runs.
pub fn scenario(app: &'static str, cc: CcMode) -> Scenario {
    Scenario::standard(app, cfg(cc))
}

/// Each app in both modes, base first: a base-vs-CC population.
fn both_modes(apps: impl IntoIterator<Item = &'static str>) -> Vec<Scenario> {
    let pairs = apps
        .into_iter()
        .map(|app| CcMode::ALL.map(|cc| scenario(app, cc)));
    pairs.flatten().collect()
}

/// The managed-memory variant of a standard app, same seed policy.
pub(crate) fn uvm_scenario(app: &'static str, cc: CcMode) -> Scenario {
    Scenario::uvm_variant(app, cfg(cc))
}

/// An inline microbenchmark program, same seed policy.
pub(crate) fn adhoc_scenario(spec: WorkloadSpec, cc: CcMode) -> Scenario {
    Scenario::adhoc(spec, cfg(cc))
}

/// A table or figure `hcc_lab figures` renders (each Fig. 12 panel is
/// one), by the name it takes for it.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// `table1`, `fig01` … `fig14`, `fig09b` or `fig12a|b|c`.
    pub name: &'static str,
    render: fn(&Lab, bool) -> Computed<String>,
}

impl Figure {
    /// Every figure, in the order `figures all` renders them (the order
    /// of `tests/golden/figures.txt`).
    pub const ALL: [Figure; 19] = [
        Figure::new("table1", |_, _| table1::render()),
        Figure::new("fig01", |lab, _| fig01::render(lab)),
        Figure::new("fig02", |_, _| fig02::render()),
        Figure::new("fig03", |lab, _| fig03::render(lab)),
        Figure::new("fig04a", |lab, _| fig04a::render(lab)),
        Figure::new("fig04b", |_, functional| fig04b::render(functional)),
        Figure::new("fig05", |lab, _| fig05::render(lab)),
        Figure::new("fig06", |lab, _| fig06::render(lab)),
        Figure::new("fig07", |lab, _| fig07::render(lab)),
        Figure::new("fig08", |lab, _| fig08::render(lab)),
        Figure::new("fig09", |lab, _| fig09::render(lab)),
        Figure::new("fig09b", |_, _| fig09b::render()),
        Figure::new("fig10", |lab, _| fig10::render(lab)),
        Figure::new("fig11", |lab, _| fig11::render(lab)),
        Figure::new("fig12a", |lab, _| fig12::render(lab, fig12::Panel::A)),
        Figure::new("fig12b", |lab, _| fig12::render(lab, fig12::Panel::B)),
        Figure::new("fig12c", |lab, _| fig12::render(lab, fig12::Panel::C)),
        Figure::new("fig13", |_, _| fig13::render()),
        Figure::new("fig14", |_, _| fig14::render()),
    ];

    /// The figure only its own name selects: [`ablations`] ablates the
    /// lab's design, so `all` leaves it out.
    pub const ABLATIONS: Figure = Figure::new("ablations", |_, _| ablations::render());

    const fn new(name: &'static str, render: fn(&Lab, bool) -> Computed<String>) -> Self {
        Figure { name, render }
    }

    /// The figures `name` selects: one figure, Fig. 12's three panels
    /// for `fig12`, or every figure of [`Figure::ALL`] for `all`.
    pub fn select(name: &str) -> Option<Vec<Figure>> {
        let picked: Vec<Figure> = Figure::ALL
            .into_iter()
            .chain([Figure::ABLATIONS])
            .filter(|f| match name {
                "all" => f.name != Figure::ABLATIONS.name,
                "fig12" => f.name.starts_with("fig12"),
                _ => f.name == name,
            })
            .collect();
        (!picked.is_empty()).then_some(picked)
    }

    /// The figure's text, its runs on `lab`; `functional` fills Fig.
    /// 4b's functional column.
    pub fn render(self, lab: &Lab, functional: bool) -> Computed<String> {
        (self.render)(lab, functional)
    }
}

/// What `hcc_lab figures` renders: the named figures in order, repeats
/// kept (every figure when none is named), and whether Fig. 4b measures
/// its functional column.
#[derive(Debug, Clone)]
pub struct Selection {
    /// The figures to render.
    pub figures: Vec<Figure>,
    /// `--functional`: time this repo's crypto for Fig. 4b.
    pub functional: bool,
}

impl Selection {
    /// Reads figure names and `--functional`; any other flag, or a name
    /// [`Figure::select`] does not know, is a typed error.
    pub fn parse(args: &mut Args) -> Result<Selection, CliError> {
        const EXPECTED: &str =
            "expected table1, fig01..fig14, fig09b, fig12a|b|c, ablations or all";
        let mut figures = Vec::new();
        let mut functional = false;
        for arg in args.by_ref() {
            if arg == "--functional" {
                functional = true;
            } else if arg.starts_with('-') {
                return Err(CliError::Unknown { arg });
            } else {
                let named = cli::lookup("<figure>", "figure", EXPECTED, arg, Figure::select)?;
                figures.extend(named);
            }
        }
        if figures.is_empty() {
            figures = Figure::ALL.to_vec();
        }
        Ok(Selection {
            figures,
            functional,
        })
    }
}

/// `hcc_lab figures`: every selected figure in order. When a scenario
/// failed, the rest still renders (the failure as a `!!` line) and the
/// exit status is 1.
pub const COMMAND: Command = Command {
    usage: "usage: hcc_lab figures \
        [table1|fig01..fig14|fig09b|fig12a|fig12b|fig12c|ablations|all ...] \
        [--functional]",
    parse: |args, _| {
        let selection = Selection::parse(args)?;
        Ok(Box::new(move |lab, out, err| {
            let mut failures = Vec::new();
            for figure in selection.figures {
                let computed = figure.render(lab, selection.functional);
                out.write_all(computed.data.as_bytes())?;
                failures.extend(computed.failures);
            }
            Ok(report::finish(lab, err, &failures))
        }))
    },
};

/// Table I: the evaluation platform configuration.
pub mod table1 {
    use hcc_types::calib::SystemConfig;

    /// The platform table, as `SystemConfig` displays it.
    pub fn render() -> super::Computed<String> {
        super::Computed::clean(format!("{}\n", SystemConfig::default()))
    }
}

/// Fig. 1 / overview: end-to-end phase breakdown of a representative app
/// under base, CC, and CC+UVM.
pub mod fig01 {
    use std::fmt::Write;

    use hcc_core::PhaseBreakdown;
    use hcc_types::CcMode;
    use hcc_workloads::Scenario;

    use crate::report;

    /// One row of the overview figure.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Scenario label.
        pub label: &'static str,
        /// The phase breakdown.
        pub breakdown: PhaseBreakdown,
    }

    const LABELS: [&str; 3] = ["CC-off", "CC-on", "CC-on + UVM"];

    /// The three overview scenarios on a gemm-class app.
    pub fn scenarios() -> Vec<Scenario> {
        vec![
            super::scenario("gemm", CcMode::Off),
            super::scenario("gemm", CcMode::On),
            super::uvm_scenario("gemm", CcMode::On),
        ]
    }

    /// Computes the three scenarios, collecting failures per row.
    pub fn try_rows(lab: &super::Lab) -> super::Computed<Vec<Row>> {
        let results = lab.run_figures(&scenarios());
        let rows = LABELS.iter().zip(results.chunks(1)).map(|(label, run)| {
            super::runs(run).map(|[r]| Row {
                label,
                breakdown: PhaseBreakdown::from_timeline(&r.timeline),
            })
        });
        rows.collect()
    }

    /// The overview table: each scenario's phase totals and its bar.
    pub fn render(lab: &super::Lab) -> super::Computed<String> {
        let mut head = report::section("Fig. 1 — end-to-end overview (gemm-class app)");
        head.push_str(
            "scenario                mem       launch       kernel        other         span\n",
        );
        try_rows(lab).render(head, |out, rows| {
            for r in &rows {
                let b = &r.breakdown;
                let _ = writeln!(
                    out,
                    "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12}",
                    r.label,
                    b.mem.to_string(),
                    b.launch.to_string(),
                    b.kernel.to_string(),
                    b.other.to_string(),
                    b.span.to_string(),
                );
                let _ = writeln!(out, "  [{}]", b.render_bar(60));
            }
        })
    }
}

/// Fig. 2: the CPU–GPU confidential-computing architecture as text, each
/// component annotated with the crate/module that realizes it and the
/// calibrated cost it contributes.
pub mod fig02 {
    use std::fmt::Write;

    use hcc_types::calib::Calibration;

    /// The annotated diagram and its calibration anchors.
    pub fn render() -> super::Computed<String> {
        let calib = Calibration::paper();
        let hypercall = calib.tdx.hypercall();
        let vmexit = calib.tdx.vmexit;
        let mut out = format!(
            r#"Fig. 2 — architecture overview (trusted components marked [T])

  +------------------------- host (untrusted) --------------------------+
  |  hypervisor (QEMU)            bounce buffer / swiotlb               |
  |        ^                      hcc_tee::BounceBufferPool             |
  |        | hypercalls           (shared pages, set_memory_decrypted)  |
  +--------|-------------------------------------------|----------------+
           |                                            |
  +--------v---------------------+                      |  PCIe 5.0 x16
  | [T] Intel TDX module (SEAM)  |                      |  AES-GCM (SPDM session)
  |     hcc_tee::TdContext       |                      |  hcc_crypto::gcm + SpdmSession
  |     tdx_hypercall {hypercall} vs vmexit {vmexit}    |
  +--------^---------------------+                      |
           |                                            |
  +--------|------------- trust domain [T] -------------|----------------+
  |  guest OS + NVIDIA driver          private memory (TME-MK, AES-XTS) |
  |  hcc_runtime::CudaContext          hcc_tee::PrivateMemory           |
  |  app / workloads                   hcc_workloads::*                 |
  +-----------------------------------------------------|----------------+
                                                         |
  +------------------------- GPU package [T] -----------v----------------+
  |  command processor (channel rings, depth {ring})                     |
  |  hcc_gpu::CommandProcessor  -> LQT when the ring fills               |
  |     |                |                      |                        |
  |  copy engines    compute engines         GMMU (far faults)          |
  |  hcc_gpu (H2D/   {slots} kernel slots    hcc_gpu::Gmmu +            |
  |  D2H/D2D)        (KET, KQT)              hcc_uvm::UvmDriver         |
  |                                                                      |
  |  HBM3 94 GB (unencrypted per threat model) — hcc_gpu::DeviceMemory   |
  +----------------------------------------------------------------------+

"#,
            ring = calib.gpu.ring_depth,
            slots = calib.gpu.compute_slots,
        );
        out.push_str("calibration anchors in this diagram:\n");
        let _ = writeln!(
            out,
            "  tdx_hypercall {hypercall} = vmexit {vmexit} x{:.1} (the paper's +470%)",
            calib.tdx.hypercall_mult
        );
        let _ = writeln!(
            out,
            "  CC transfer pipeline: AES-GCM 3.36 GB/s -> bounce {b} -> DMA {d} -> GPU decrypt {g}",
            b = calib.pcie.bounce_copy,
            d = calib.pcie.pinned_h2d,
            g = calib.pcie.gpu_crypto,
        );
        super::Computed::clean(out)
    }
}

/// Fig. 3: performance-model validation — fitted α/β and prediction
/// error per app and mode.
pub mod fig03 {
    use std::fmt::Write;

    use hcc_core::PerfModel;
    use hcc_types::CcMode;
    use hcc_workloads::{suites, Scenario};

    use crate::report;

    /// One validation row.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// App name.
        pub app: &'static str,
        /// Mode.
        pub cc: CcMode,
        /// Fitted α.
        pub alpha: f64,
        /// Fitted β.
        pub beta: f64,
        /// Relative prediction error.
        pub error: f64,
    }

    /// Every standard app in both modes.
    pub fn scenarios() -> Vec<Scenario> {
        super::both_modes(suites::all().into_iter().map(|spec| spec.name))
    }

    /// Fits the model per app/mode, collecting failures per row.
    pub fn try_rows(lab: &super::Lab) -> super::Computed<Vec<Row>> {
        let results = lab.run_figures(&scenarios());
        let keys = suites::all()
            .into_iter()
            .flat_map(|spec| CcMode::ALL.map(|cc| (spec.name, cc)));
        let rows = keys.zip(results.chunks(1)).map(|((app, cc), run)| {
            super::runs(run).map(|[r]| {
                let fitted = PerfModel::fit(&r.timeline);
                Row {
                    app,
                    cc,
                    alpha: fitted.model.alpha,
                    beta: fitted.model.beta,
                    error: fitted.error(),
                }
            })
        });
        rows.collect()
    }

    /// The fit table and its worst error.
    pub fn render(lab: &super::Lab) -> super::Computed<String> {
        let mut head = report::section("Fig. 3 — performance model fit per app");
        head.push_str("app                mode    alpha     beta     err%\n");
        try_rows(lab).render(head, |out, rows| {
            let mut worst: f64 = 0.0;
            for r in &rows {
                let _ = writeln!(
                    out,
                    "{:<16} {:>6} {:>8.3} {:>8.3} {:>8.2}",
                    r.app,
                    r.cc.to_string(),
                    r.alpha,
                    r.beta,
                    r.error * 100.0
                );
                worst = worst.max(r.error);
            }
            let _ = writeln!(out, "worst fitted error: {:.2}%", worst * 100.0);
        })
    }
}

/// Fig. 4a: PCIe transfer bandwidth vs size, pageable/pinned × base/cc.
pub mod fig04a {
    use std::fmt::Write;

    use hcc_trace::EventKind;
    use hcc_types::{Bandwidth, ByteSize, CcMode, HostMemKind, SimDuration};
    use hcc_workloads::{Op, Scenario, WorkloadSpec};

    use crate::report;

    /// One bandwidth sample.
    #[derive(Debug, Clone, Copy)]
    pub struct Point {
        /// Transfer size.
        pub size: ByteSize,
        /// Host memory kind.
        pub mem: HostMemKind,
        /// Mode.
        pub cc: CcMode,
        /// Achieved bandwidth, GB/s.
        pub gbs: f64,
    }

    /// Transfer sizes: 64 B to 1 GiB in powers of 4.
    pub fn sizes() -> Vec<ByteSize> {
        (0..13).map(|i| ByteSize::bytes(64u64 << (2 * i))).collect()
    }

    fn sweep() -> Vec<(CcMode, HostMemKind, ByteSize)> {
        let series = CcMode::ALL.map(|cc| HostMemKind::ALL.map(|mem| (cc, mem)));
        let series = series.into_iter().flatten();
        series
            .flat_map(|(cc, mem)| sizes().into_iter().map(move |size| (cc, mem, size)))
            .collect()
    }

    fn point_spec(size: ByteSize, mem: HostMemKind) -> WorkloadSpec {
        WorkloadSpec::micro(
            "fig04a-h2d",
            vec![
                Op::MallocHost {
                    slot: 0,
                    size,
                    kind: mem,
                },
                Op::MallocDevice { slot: 0, size },
                Op::H2D {
                    dst: 0,
                    src: 0,
                    bytes: size,
                },
            ],
        )
    }

    /// One single-copy scenario per sweep point.
    pub fn scenarios() -> Vec<Scenario> {
        sweep()
            .into_iter()
            .map(|(cc, mem, size)| super::adhoc_scenario(point_spec(size, mem), cc))
            .collect()
    }

    /// Measures H2D bandwidth across the sweep, collecting failures per
    /// point.
    pub fn try_series(lab: &super::Lab) -> super::Computed<Vec<Point>> {
        let results = lab.run_figures(&scenarios());
        let points = sweep().into_iter().zip(results.chunks(1));
        let points = points.map(|((cc, mem, size), run)| {
            super::runs(run).map(|[r]| {
                let copy: SimDuration = r
                    .timeline
                    .events()
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::Memcpy { .. }))
                    .map(|e| e.duration())
                    .sum();
                let gbs = Bandwidth::observed(size, copy)
                    .map(|b| b.as_gb_per_s())
                    .unwrap_or(0.0);
                Point { size, mem, cc, gbs }
            })
        });
        points.collect()
    }

    /// Peak bandwidth for a (mode, kind) pair from a measured series.
    pub fn peak(points: &[Point], cc: CcMode, mem: HostMemKind) -> f64 {
        points
            .iter()
            .filter(|p| p.cc == cc && p.mem == mem)
            .map(|p| p.gbs)
            .fold(0.0, f64::max)
    }

    /// The bandwidth table by size and the four peaks.
    pub fn render(lab: &super::Lab) -> super::Computed<String> {
        let head = report::section("Fig. 4a — data-transfer bandwidth (GB/s)");
        try_series(lab).render(head, |out, pts| {
            out.push_str(
                "        size  base/pageable    base/pinned    cc/pageable      cc/pinned\n",
            );
            for size in sizes() {
                let val = |cc, mem| {
                    pts.iter()
                        .find(|p| p.size == size && p.cc == cc && p.mem == mem)
                        .map(|p| p.gbs)
                        .unwrap_or(0.0)
                };
                let _ = writeln!(
                    out,
                    "{:>12} {:>14.2} {:>14.2} {:>14.2} {:>14.2}",
                    size.to_string(),
                    val(CcMode::Off, HostMemKind::Pageable),
                    val(CcMode::Off, HostMemKind::Pinned),
                    val(CcMode::On, HostMemKind::Pageable),
                    val(CcMode::On, HostMemKind::Pinned),
                );
            }
            let _ = writeln!(
                out,
                "peaks: base pin {:.2}, base page {:.2}, cc pin {:.2}, cc page {:.2} GB/s",
                peak(&pts, CcMode::Off, HostMemKind::Pinned),
                peak(&pts, CcMode::Off, HostMemKind::Pageable),
                peak(&pts, CcMode::On, HostMemKind::Pinned),
                peak(&pts, CcMode::On, HostMemKind::Pageable),
            );
        })
    }
}

/// Fig. 4b: single-core crypto throughput (modeled + functional).
pub mod fig04b {
    use std::fmt::Write;

    use hcc_crypto::{measure_functional, CryptoAlgorithm, SoftCryptoModel};
    use hcc_types::CpuModel;

    use crate::report;

    /// One throughput entry.
    #[derive(Debug, Clone, Copy)]
    pub struct Entry {
        /// CPU measured.
        pub cpu: CpuModel,
        /// Algorithm.
        pub alg: CryptoAlgorithm,
        /// Calibrated single-core rate, GB/s (the figure's series).
        pub modeled_gbs: f64,
        /// Wall-clock rate of this repo's functional implementation,
        /// GB/s (`None` for the non-host CPU).
        pub functional_gbs: Option<f64>,
    }

    /// Computes the modeled table, with functional measurements for the
    /// host CPU when `functional` is set.
    pub fn entries(functional: bool) -> Vec<Entry> {
        let mut out = Vec::new();
        for cpu in CpuModel::ALL {
            let model = SoftCryptoModel::new(cpu);
            for alg in CryptoAlgorithm::ALL {
                let functional_gbs = if functional && cpu == CpuModel::EmeraldRapids {
                    measure_functional(alg, 256 * 1024, 4).map(|b| b.as_gb_per_s())
                } else {
                    None
                };
                out.push(Entry {
                    cpu,
                    alg,
                    modeled_gbs: model.throughput(alg).as_gb_per_s(),
                    functional_gbs,
                });
            }
        }
        out
    }

    /// The throughput table; the functional column is `-` unless
    /// `functional` measures it.
    pub fn render(functional: bool) -> super::Computed<String> {
        let mut out = report::section("Fig. 4b — single-core crypto throughput (GB/s)");
        out.push_str("cpu            algorithm               modeled   functional\n");
        for e in entries(functional) {
            let func = e
                .functional_gbs
                .map(|v| format!("{v:.3}"))
                .unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                out,
                "{:<14} {:<20} {:>10.2} {:>12}",
                e.cpu.to_string(),
                e.alg.to_string(),
                e.modeled_gbs,
                func
            );
        }
        super::Computed::clean(out)
    }
}

/// Fig. 5: per-app copy time, base vs CC, by direction.
pub mod fig05 {
    use std::fmt::Write;

    use hcc_trace::MemMetrics;
    use hcc_workloads::{suites, Scenario};

    use crate::report;

    /// One app's copy-time row.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// App name.
        pub app: &'static str,
        /// Base-mode copy metrics.
        pub base: MemMetrics,
        /// CC-mode copy metrics.
        pub cc: MemMetrics,
    }

    impl Row {
        /// CC/base total copy-time slowdown.
        pub fn slowdown(&self) -> f64 {
            self.cc.copy_total() / self.base.copy_total()
        }
    }

    fn population() -> Vec<&'static str> {
        suites::all()
            .into_iter()
            .filter(|spec| !spec.copy_bytes().is_zero())
            .map(|spec| spec.name)
            .collect()
    }

    /// Every copy-carrying standard app in both modes.
    pub fn scenarios() -> Vec<Scenario> {
        super::both_modes(population())
    }

    /// Runs every copy-carrying app in both modes, collecting failures
    /// per row (a row needs both of its modes to land).
    pub fn try_rows(lab: &super::Lab) -> super::Computed<Vec<Row>> {
        let results = lab.run_figures(&scenarios());
        let rows = population()
            .into_iter()
            .zip(results.chunks(2))
            .map(|(app, pair)| {
                super::runs(pair).map(|[base, cc]| Row {
                    app,
                    base: base.timeline.mem_metrics(),
                    cc: cc.timeline.mem_metrics(),
                })
            });
        rows.collect()
    }

    /// Mean/max/min slowdown over rows (Observation 3's statistics).
    pub fn stats(rows: &[Row]) -> (f64, f64, f64) {
        let ratios: Vec<f64> = rows.iter().map(Row::slowdown).collect();
        let mean = hcc_trace::mean_ratio(&ratios);
        let max = ratios.iter().copied().fold(f64::MIN, f64::max);
        let min = ratios.iter().copied().fold(f64::MAX, f64::min);
        (mean, max, min)
    }

    /// The per-app copy table and Observation 3's statistics.
    pub fn render(lab: &super::Lab) -> super::Computed<String> {
        let mut head = report::section("Fig. 5 — copy time per app (base vs cc)");
        head.push_str("app                   b.h2d      b.d2h      b.d2d      c.h2d      c.d2h      c.d2d    ratio\n");
        try_rows(lab).render(head, |out, rows| {
            for r in &rows {
                let _ = writeln!(
                    out,
                    "{:<16} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
                    r.app,
                    r.base.h2d.to_string(),
                    r.base.d2h.to_string(),
                    r.base.d2d.to_string(),
                    r.cc.h2d.to_string(),
                    r.cc.d2h.to_string(),
                    r.cc.d2d.to_string(),
                    report::ratio(r.slowdown()),
                );
            }
            let (mean, max, min) = stats(&rows);
            let _ = writeln!(
                out,
                "copy slowdown: mean x{mean:.2}, max x{max:.2}, min x{min:.2} \
                 (paper: 5.80 / 19.69 / 1.17)"
            );
        })
    }
}

/// Fig. 6: memory-management times, base vs CC.
pub mod fig06 {
    use std::fmt::Write;

    use hcc_trace::EventKind;
    use hcc_types::{ByteSize, CcMode, HostMemKind, MemSpace, SimDuration};
    use hcc_workloads::{Op, RunResult, Scenario, WorkloadSpec};

    use crate::report;

    /// Aggregated management times for one mode.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Times {
        /// `cudaMallocHost` total.
        pub hmalloc: SimDuration,
        /// `cudaMalloc` total.
        pub dmalloc: SimDuration,
        /// `cudaFree` total.
        pub free: SimDuration,
        /// `cudaMallocManaged` total.
        pub managed_alloc: SimDuration,
        /// managed `cudaFree` total.
        pub managed_free: SimDuration,
    }

    /// `iters` alloc/free cycles of `size` as one inline program, matching
    /// the original serial measurement loop op for op so the RNG draw
    /// order (and thus every jittered management cost) is unchanged.
    fn cycle_spec(size: ByteSize, iters: u32) -> WorkloadSpec {
        let mut ops = Vec::with_capacity(iters as usize * 6);
        for _ in 0..iters {
            ops.push(Op::MallocDevice { slot: 0, size });
            ops.push(Op::MallocHost {
                slot: 0,
                size,
                kind: HostMemKind::Pinned,
            });
            ops.push(Op::FreeDevice { slot: 0 });
            ops.push(Op::FreeHost { slot: 0 });
            ops.push(Op::MallocManaged { slot: 0, size });
            ops.push(Op::FreeManaged { slot: 0 });
        }
        WorkloadSpec::micro("fig06-mgmt", ops)
    }

    /// The management-cycle scenario for both modes.
    pub fn scenarios(size: ByteSize, iters: u32) -> Vec<Scenario> {
        CcMode::ALL
            .into_iter()
            .map(|cc| super::adhoc_scenario(cycle_spec(size, iters), cc))
            .collect()
    }

    /// Buckets the trace's Alloc/Free event spans (which equal the
    /// management calls' clock deltas) by memory space.
    fn times_from(run: &RunResult) -> Times {
        let mut t = Times::default();
        for e in run.timeline.events() {
            let d = e.duration();
            match e.kind {
                EventKind::Alloc {
                    space: MemSpace::Device,
                    ..
                } => t.dmalloc += d,
                EventKind::Alloc {
                    space: MemSpace::Host,
                    ..
                } => t.hmalloc += d,
                EventKind::Alloc {
                    space: MemSpace::Managed,
                    ..
                } => t.managed_alloc += d,
                EventKind::Free {
                    space: MemSpace::Managed,
                    ..
                } => t.managed_free += d,
                EventKind::Free { .. } => t.free += d,
                _ => {}
            }
        }
        t
    }

    /// The APIs behind the five ratios, with the paper's values.
    pub const PAPER: [(&str, &str); 5] = [
        ("cudaMallocHost", "x5.72"),
        ("cudaMalloc", "x5.67"),
        ("cudaFree", "x10.54"),
        ("cudaMallocManaged", "x5.43"),
        ("managed cudaFree", "x3.35"),
    ];

    /// The five CC/base ratios (hmalloc, dmalloc, free, managed alloc,
    /// managed free) of `iters` alloc/free cycles of `size`, collecting
    /// failures from either mode (a failed mode contributes zeroed times).
    pub fn try_ratios(lab: &super::Lab, size: ByteSize, iters: u32) -> super::Computed<[f64; 5]> {
        let results = lab.run_figures(&scenarios(size, iters));
        let mut failures = Vec::new();
        let [base, cc] = [&results[0], &results[1]].map(|res| {
            res.run().map(times_from).unwrap_or_else(|f| {
                failures.push(f);
                Times::default()
            })
        });
        super::Computed {
            data: [
                cc.hmalloc / base.hmalloc,
                cc.dmalloc / base.dmalloc,
                cc.free / base.free,
                cc.managed_alloc / base.managed_alloc,
                cc.managed_free / base.managed_free,
            ],
            failures,
        }
    }

    /// The five ratios of 40 cycles of 64 MiB, next to the paper's.
    pub fn render(lab: &super::Lab) -> super::Computed<String> {
        let head = report::section("Fig. 6 — memory management CC/base slowdowns");
        try_ratios(lab, ByteSize::mib(64), 40).render(head, |out, ratios| {
            for ((api, paper), r) in PAPER.into_iter().zip(ratios) {
                let _ = writeln!(out, "{api:<18} {}   (paper {paper})", report::ratio(r));
            }
        })
    }
}

/// Fig. 7: KLO / LQT / KQT per app, CC normalized to base.
pub mod fig07 {
    use std::fmt::Write;

    use hcc_workloads::{suites, Scenario};

    use crate::report;

    /// One app's launch-path ratios.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// App name.
        pub app: &'static str,
        /// Launches in the app.
        pub launches: u64,
        /// CC/base Σ KLO.
        pub klo: f64,
        /// CC/base Σ LQT.
        pub lqt: f64,
        /// CC/base Σ KQT.
        pub kqt: f64,
    }

    fn population() -> Vec<(&'static str, u64)> {
        suites::multi_launch()
            .into_iter()
            .filter(|spec| !spec.uvm) // Fig. 7 is the non-UVM launch study.
            .map(|spec| (spec.name, spec.launch_count()))
            .collect()
    }

    /// Every multi-launch non-UVM app in both modes.
    pub fn scenarios() -> Vec<Scenario> {
        super::both_modes(population().into_iter().map(|(app, _)| app))
    }

    /// Runs every multi-launch app in both modes, collecting failures
    /// per row (a row needs both of its modes to land).
    pub fn try_rows(lab: &super::Lab) -> super::Computed<Vec<Row>> {
        let results = lab.run_figures(&scenarios());
        let pairs = population().into_iter().zip(results.chunks(2));
        let rows = pairs.map(|((app, launches), pair)| {
            super::runs(pair).map(|[base, cc]| {
                let b = base.timeline.launch_metrics();
                let c = cc.timeline.launch_metrics();
                Row {
                    app,
                    launches,
                    klo: c.total_klo() / b.total_klo(),
                    lqt: c.total_lqt() / b.total_lqt(),
                    kqt: c.total_kqt() / b.total_kqt(),
                }
            })
        });
        rows.collect()
    }

    /// Observation 6's points over the same population and runs: each
    /// app's CC-off KLR and its CC slowdown over the launch window (first
    /// launch to last kernel end), which isolates the launch path from
    /// copy slowdowns. Failures are collected per app.
    pub fn try_klr_points(lab: &super::Lab) -> super::Computed<Vec<(f64, f64)>> {
        let results = lab.run_figures(&scenarios());
        let points = results.chunks(2).map(|pair| {
            super::runs(pair).map(|[base, cc]| {
                let klr = hcc_core::KlrAnalysis::of(&base.timeline.launch_metrics()).klr;
                (klr, launch_window(cc) / launch_window(base))
            })
        });
        points.collect()
    }

    /// From a run's first launch to its last kernel's end.
    fn launch_window(run: &hcc_workloads::RunResult) -> hcc_types::SimDuration {
        let lm = run.timeline.launch_metrics();
        let start = lm.launches.first().expect("has launches").start;
        let end = lm
            .kernels
            .last()
            .map(|k| k.start + k.ket)
            .expect("has kernels");
        end.saturating_since(start)
    }

    /// Mean (KLO, LQT, KQT) ratios across apps.
    pub fn means(rows: &[Row]) -> (f64, f64, f64) {
        let klo: Vec<f64> = rows.iter().map(|r| r.klo).collect();
        let lqt: Vec<f64> = rows.iter().map(|r| r.lqt).collect();
        let kqt: Vec<f64> = rows.iter().map(|r| r.kqt).collect();
        (
            hcc_trace::mean_ratio(&klo),
            hcc_trace::mean_ratio(&lqt),
            hcc_trace::mean_ratio(&kqt),
        )
    }

    /// The per-app launch-path table and its means.
    pub fn render(lab: &super::Lab) -> super::Computed<String> {
        let mut head = report::section("Fig. 7 — launch-path slowdowns per app");
        head.push_str("app               launches      KLO      LQT      KQT\n");
        try_rows(lab).render(head, |out, rows| {
            for r in &rows {
                let _ = writeln!(
                    out,
                    "{:<16} {:>9} {:>8} {:>8} {:>8}",
                    r.app,
                    r.launches,
                    report::ratio(r.klo),
                    report::ratio(r.lqt),
                    report::ratio(r.kqt),
                );
            }
            let (klo, lqt, kqt) = means(&rows);
            let _ = writeln!(
                out,
                "means: KLO x{klo:.2} (paper 1.42), LQT x{lqt:.2} (paper 1.43), \
                 KQT x{kqt:.2} (paper 2.32)"
            );
        })
    }
}

/// Fig. 8: the `cudaLaunchKernel` call stack inside a TD.
pub mod fig08 {
    use std::fmt::Write;

    use hcc_tee::TdContext;
    use hcc_trace::critpath::{self, Attribution, ResourceClass};
    use hcc_trace::CallFrame;
    use hcc_types::calib::Calibration;
    use hcc_types::{CcMode, SimDuration};
    use hcc_workloads::Scenario;

    use crate::report;

    /// The launch-heavy dense app whose critical path anchors the marks.
    const APP: &str = "gemm";

    /// The resource class each Fig. 8 frame occupies, keyed by frame
    /// name: the swiotlb/page-conversion branch draws on the bounce
    /// pool, the doorbell write rings the CP, everything else is host
    /// driver time.
    pub(crate) fn frame_resource(name: &str) -> ResourceClass {
        match name {
            "dma_direct_alloc" | "swiotlb_alloc" | "set_memory_decrypted" => {
                ResourceClass::BouncePool
            }
            "doorbell_mmio_write" => ResourceClass::RingCp,
            _ => ResourceClass::HostDriver,
        }
    }

    /// Marks every frame whose resource class carries nonzero critical
    /// time in `attr` — connecting the static Fig. 8 breakdown to a
    /// run's measured critical path. Marking only annotates; costs and
    /// structure are untouched.
    pub(crate) fn mark_critical_frames(frame: &mut CallFrame, attr: &Attribution) {
        if attr.get(frame_resource(frame.name())) > SimDuration::ZERO {
            frame.mark_critical();
        }
        for child in frame.children_mut() {
            mark_critical_frames(child, attr);
        }
    }

    /// Builds the simplified Fig. 8 call tree with mode-appropriate costs.
    pub fn callstack(cc: CcMode) -> CallFrame {
        let calib = Calibration::paper();
        let mut td = TdContext::new(cc, calib.tdx.clone());
        let hypercall = td.hypercall("doorbell");
        let convert = td.convert_pages(16);
        let seam = td.seamcall("ept");
        let klo = calib.launch.klo_base;

        let mut nv_ioctl = CallFrame::new("nvidia_ioctl", klo.scale(0.4));
        nv_ioctl.push_child(
            CallFrame::new("dma_direct_alloc", SimDuration::from_micros_f64(1.2)).with_child(
                CallFrame::new("swiotlb_alloc", SimDuration::from_micros_f64(0.6))
                    .with_child(CallFrame::new("set_memory_decrypted", convert)),
            ),
        );
        nv_ioctl.push_child(
            CallFrame::new("doorbell_mmio_write", SimDuration::from_nanos(150)).with_child(
                CallFrame::new("#VE_handler", SimDuration::from_nanos(300)).with_child(
                    CallFrame::new("tdx_hypercall", hypercall)
                        .with_child(CallFrame::new("tdx_module_seamret", seam)),
                ),
            ),
        );
        CallFrame::new("cudaLaunchKernel", klo.scale(0.3)).with_child(
            CallFrame::new("libcuda_launch", klo.scale(0.3)).with_child(
                CallFrame::new("ioctl", SimDuration::from_nanos(400)).with_child(nv_ioctl),
            ),
        )
    }

    /// The call stack in each mode, with the frames whose resource class
    /// holds critical-path time in a causal run of [`APP`] marked `*`. A
    /// mode whose run failed renders its stack unmarked.
    pub fn render(lab: &super::Lab) -> super::Computed<String> {
        let batch = CcMode::ALL.map(|cc| Scenario::standard(APP, super::cfg(cc).with_causal(true)));
        let results = lab.run_figures(&batch);
        let mut out = super::Computed::clean(String::new());
        for (&cc, result) in CcMode::ALL.iter().zip(&results) {
            out.data.push_str(&report::section(&format!(
                "Fig. 8 — cudaLaunchKernel call stack [{cc}]"
            )));
            let mut stack = callstack(cc);
            match result.run() {
                Ok(run) => {
                    let path = critpath::extract(&run.timeline, &run.causal);
                    mark_critical_frames(&mut stack, &path.attribution());
                    out.data.push_str(&stack.render());
                    let _ = writeln!(
                        out.data,
                        "* = frame's resource class holds critical-path time in {APP} \
                         ({} frames marked)",
                        stack.critical_frames().len()
                    );
                }
                Err(f) => {
                    out.data.push_str(&stack.render());
                    out.failures.push(f);
                }
            }
        }
        out
    }
}

/// Fig. 9: KET normalized to the base non-UVM run.
pub mod fig09 {
    use std::fmt::Write;

    use hcc_trace::{geomean, mean_ratio};
    use hcc_types::{CcMode, SimDuration};
    use hcc_workloads::{suites, Scenario};

    use crate::report;

    /// One app's four KET totals.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// App name (the explicit-copy variant's name).
        pub app: &'static str,
        /// Σ KET, base non-UVM.
        pub base: SimDuration,
        /// Σ KET, CC non-UVM.
        pub cc: SimDuration,
        /// Σ KET, base UVM.
        pub base_uvm: SimDuration,
        /// Σ KET, CC UVM.
        pub cc_uvm: SimDuration,
    }

    impl Row {
        /// CC/base non-UVM KET ratio.
        pub fn nonuvm_ratio(&self) -> f64 {
            self.cc / self.base
        }

        /// Base-UVM / base-non-UVM slowdown.
        pub fn uvm_base_slowdown(&self) -> f64 {
            self.base_uvm / self.base
        }

        /// CC-UVM / base-non-UVM slowdown (the headline column).
        pub fn uvm_cc_slowdown(&self) -> f64 {
            self.cc_uvm / self.base
        }
    }

    /// The Fig. 9 population: each UVM-capable app in all four
    /// (variant × mode) configurations.
    pub fn scenarios() -> Vec<Scenario> {
        let mut out = Vec::new();
        for name in suites::UVM_VARIANT_APPS {
            out.push(super::scenario(name, CcMode::Off));
            out.push(super::scenario(name, CcMode::On));
            out.push(super::uvm_scenario(name, CcMode::Off));
            out.push(super::uvm_scenario(name, CcMode::On));
        }
        out
    }

    /// Runs the Fig. 9 population, collecting failures per row (a row
    /// needs all four of its configurations to land).
    pub fn try_rows(lab: &super::Lab) -> super::Computed<Vec<Row>> {
        let results = lab.run_figures(&scenarios());
        let quads = suites::UVM_VARIANT_APPS.iter().zip(results.chunks(4));
        let rows = quads.map(|(name, quad)| {
            super::runs(quad).map(|runs| {
                let [base, cc, base_uvm, cc_uvm] =
                    runs.map(|r| r.timeline.launch_metrics().total_ket());
                Row {
                    app: suites::by_name(name).expect("explicit variant").name,
                    base,
                    cc,
                    base_uvm,
                    cc_uvm,
                }
            })
        });
        rows.collect()
    }

    /// Observation 5's statistics: the mean non-UVM ratio, the mean
    /// base-UVM slowdown, and the UVM-CC slowdowns' geomean and max.
    pub fn stats(rows: &[Row]) -> (f64, f64, f64, f64) {
        let of = |f: fn(&Row) -> f64| rows.iter().map(f).collect::<Vec<_>>();
        let uvm_cc = of(Row::uvm_cc_slowdown);
        let max = uvm_cc.iter().copied().fold(0.0, f64::max);
        let nonuvm = mean_ratio(&of(Row::nonuvm_ratio));
        (
            nonuvm,
            mean_ratio(&of(Row::uvm_base_slowdown)),
            geomean(&uvm_cc),
            max,
        )
    }

    /// The per-app KET table and Observation 5's statistics.
    pub fn render(lab: &super::Lab) -> super::Computed<String> {
        let mut head = report::section("Fig. 9 — KET normalized to base non-UVM");
        head.push_str("app             cc/base    uvm(base)      uvm(cc)    uvm-cc/base\n");
        try_rows(lab).render(head, |out, rows| {
            for r in &rows {
                let _ = writeln!(
                    out,
                    "{:<12} {:>10} {:>12} {:>12} {:>14}",
                    r.app,
                    report::ratio(r.nonuvm_ratio()),
                    report::ratio(r.uvm_base_slowdown()),
                    report::ratio(r.cc_uvm / r.base_uvm),
                    report::ratio(r.uvm_cc_slowdown()),
                );
            }
            let (nonuvm, uvm_base, uvm_cc, max) = stats(&rows);
            let _ = writeln!(
                out,
                "non-UVM mean x{nonuvm:.4} (paper +0.48%); \
                 UVM base mean x{uvm_base:.2} (paper 5.29); \
                 UVM-CC geomean x{uvm_cc:.1} (paper mean 188.87, max 164030)"
            );
            let _ = writeln!(out, "UVM-CC max x{max:.0}");
        })
    }
}

/// Fig. 9 companion: the oversubscription tail. The paper's 2dconv UVM-CC
/// datapoint (×164,030) comes from eviction thrash, not cold misses; this
/// sweeps residency budgets and pass counts to regenerate that regime.
pub mod fig09b {
    use std::fmt::Write;

    use hcc_gpu::{Gmmu, ManagedId};
    use hcc_tee::TdContext;
    use hcc_types::calib::{TdxCalib, UvmCalib};
    use hcc_types::{ByteSize, CcMode, SimDuration};
    use hcc_uvm::UvmDriver;

    use crate::report;

    /// The CC KET blow-up of a 256 MiB streamed working set per
    /// residency budget and pass count.
    pub fn render() -> super::Computed<String> {
        let mut out =
            report::section("Fig. 9b — UVM oversubscription thrash (working set 256 MiB)");
        let calib = UvmCalib::default();
        let working_set = ByteSize::mib(256);
        let pages = working_set.pages(calib.page);
        let nominal_ket = SimDuration::micros(5); // a 2dconv-class tiny kernel

        out.push_str("      budget  passes           base             cc cc KET blowup\n");
        for budget_frac in [2.0, 1.0, 0.5] {
            for passes in [1u32, 10, 50] {
                let budget = ((pages as f64) * budget_frac) as u64;
                let run = |cc: CcMode| {
                    let mut gmmu = Gmmu::new();
                    let id = ManagedId(1);
                    gmmu.register(id, working_set, calib.page);
                    let mut td = TdContext::new(cc, TdxCalib::default());
                    let mut drv = UvmDriver::new(calib.clone(), cc);
                    drv.service_streaming_passes(&mut gmmu, &mut td, id, pages, budget, passes)
                        .expect("thrash run")
                        .total_time
                };
                let base = run(CcMode::Off);
                let cc = run(CcMode::On);
                let _ = writeln!(
                    out,
                    "{:>11}x {:>7} {:>14} {:>14} {:>11}",
                    budget_frac,
                    passes,
                    base.to_string(),
                    cc.to_string(),
                    report::ratio(cc / nominal_ket),
                );
            }
        }
        out.push_str(
            "\nAt 0.5x budget and 50 streaming passes the CC KET blow-up reaches the\n\
             10^5x regime of the paper's 2dconv tail; with a fitting working set the\n\
             cost collapses back to a single cold migration.\n",
        );
        super::Computed::clean(out)
    }
}

/// Fig. 10: launch/kernel event scatter across the app lifetime.
pub mod fig10 {
    use std::fmt::Write;

    use hcc_trace::EventKind;
    use hcc_types::CcMode;
    use hcc_workloads::suites;

    use crate::report;

    /// One scatter point.
    #[derive(Debug, Clone, Copy)]
    pub struct Point {
        /// Event start, µs.
        pub start_us: f64,
        /// Event duration, µs.
        pub duration_us: f64,
        /// `true` for Kernel events, `false` for Launch events.
        pub is_kernel: bool,
        /// Mode.
        pub cc: CcMode,
    }

    /// The four apps of Fig. 10 (A: hotspot-class, B: srad-class,
    /// C: sc, D: 3dconv).
    pub const APPS: [&str; 4] = ["hotspot", "srad", "sc", "3dconv"];

    /// Event scatter for one app in both modes, longest event dropped
    /// per the figure's note. Failed modes are skipped and reported.
    pub(crate) fn try_scatter(lab: &super::Lab, app: &str) -> super::Computed<Vec<Point>> {
        let spec = suites::by_name(app).expect("known app");
        let requests = super::both_modes([spec.name]);
        let results = lab.run_figures(&requests);
        let mut out = super::Computed::clean(Vec::new());
        for (cc, res) in CcMode::ALL.into_iter().zip(results) {
            let run = match res.run() {
                Ok(run) => run,
                Err(f) => {
                    out.failures.push(f);
                    continue;
                }
            };
            let mut pts: Vec<Point> = run
                .timeline
                .events()
                .iter()
                .filter_map(|e| {
                    let is_kernel = match e.kind {
                        EventKind::Launch { .. } => false,
                        EventKind::Kernel { .. } => true,
                        _ => return None,
                    };
                    let (start_us, duration_us) =
                        (e.start.as_micros_f64(), e.duration().as_micros_f64());
                    Some(Point {
                        start_us,
                        duration_us,
                        is_kernel,
                        cc,
                    })
                })
                .collect();
            // "The events with the longest duration are excluded for
            // clarity."
            if let Some((idx, _)) = pts.iter().enumerate().max_by(|a, b| {
                a.1.duration_us
                    .partial_cmp(&b.1.duration_us)
                    .expect("finite")
            }) {
                pts.swap_remove(idx);
            }
            out.data.extend(pts);
        }
        out
    }

    /// Per app: the event counts and a sample of every Nth point.
    pub fn render(lab: &super::Lab) -> super::Computed<String> {
        let mut out = String::new();
        let mut failures = Vec::new();
        for app in APPS {
            out.push_str(&report::section(&format!("Fig. 10 — event scatter: {app}")));
            let computed = try_scatter(lab, app);
            report::failure_lines(&mut out, &computed.failures);
            failures.extend(computed.failures);
            let pts = computed.data;
            let launches = pts.iter().filter(|p| !p.is_kernel).count();
            let kernels = pts.iter().filter(|p| p.is_kernel).count();
            let _ = writeln!(out, "{launches} launch events, {kernels} kernel events");
            // A compressed sample: every Nth point.
            let step = (pts.len() / 24).max(1);
            out.push_str("   idx     start_us       dur_us     kind   mode\n");
            for (i, p) in pts.iter().enumerate().step_by(step) {
                let _ = writeln!(
                    out,
                    "{:>6} {:>12.1} {:>12.2} {:>8} {:>6}",
                    i,
                    p.start_us,
                    p.duration_us,
                    if p.is_kernel { "kernel" } else { "launch" },
                    p.cc.to_string(),
                );
            }
        }
        super::Computed {
            data: out,
            failures,
        }
    }
}

/// Fig. 11: CDFs of KLO and KET, base vs CC.
pub mod fig11 {
    use std::fmt::Write;

    use hcc_trace::Cdf;
    use hcc_types::{CcMode, SimDuration};
    use hcc_workloads::{suites, Scenario};

    use crate::report;

    /// CDF pair for one metric.
    #[derive(Debug, Clone)]
    pub struct CdfPair {
        /// Base-mode CDF.
        pub base: Cdf,
        /// CC-mode CDF.
        pub cc: Cdf,
    }

    /// Every non-UVM standard app in both modes.
    pub fn scenarios() -> Vec<Scenario> {
        let non_uvm = suites::all().into_iter().filter(|spec| !spec.uvm);
        super::both_modes(non_uvm.map(|spec| spec.name))
    }

    /// Pools every non-UVM app's launches/kernels and builds the CDFs,
    /// skipping (and reporting) failed runs.
    pub fn try_klo_and_ket(lab: &super::Lab) -> super::Computed<(CdfPair, CdfPair)> {
        let requests = scenarios();
        let results = lab.run_figures(&requests);
        // [KLO, KET] samples, each [base, cc].
        let mut pools: [[Vec<SimDuration>; 2]; 2] = Default::default();
        let mut failures = Vec::new();
        for (scn, res) in requests.iter().zip(results) {
            match res.run() {
                Ok(run) => {
                    let lm = run.timeline.launch_metrics();
                    let mode = usize::from(scn.cc() == CcMode::On);
                    pools[0][mode].extend(lm.klos());
                    pools[1][mode].extend(lm.kets());
                }
                Err(f) => failures.push(f),
            }
        }
        let [klo, ket] = pools.map(|[base, cc]| CdfPair {
            base: Cdf::from_durations(base),
            cc: Cdf::from_durations(cc),
        });
        super::Computed {
            data: (klo, ket),
            failures,
        }
    }

    /// Quantiles and means of both CDF pairs, KLO's top 5 launches
    /// trimmed for display.
    pub fn render(lab: &super::Lab) -> super::Computed<String> {
        try_klo_and_ket(lab).render(String::new(), |out, (klo, ket)| {
            quantile_table(
                out,
                "Fig. 11a — KLO CDF (top 5 launches trimmed for display)",
                &klo.base.trim_top(5),
                &klo.cc.trim_top(5),
            );
            let _ = writeln!(
                out,
                "mean KLO (untrimmed): base {} vs cc {} => {}",
                klo.base.mean(),
                klo.cc.mean(),
                report::ratio(klo.cc.mean() / klo.base.mean())
            );
            quantile_table(out, "Fig. 11b — KET CDF", &ket.base, &ket.cc);
            let _ = writeln!(
                out,
                "mean KET: base {} vs cc {} => {}",
                ket.base.mean(),
                ket.cc.mean(),
                report::ratio(ket.cc.mean() / ket.base.mean())
            );
        })
    }

    /// A section of base and CC quantiles side by side.
    fn quantile_table(out: &mut String, title: &str, base: &Cdf, cc: &Cdf) {
        out.push_str(&report::section(title));
        let _ = writeln!(out, "{:>8} {:>12} {:>12}", "q", "base", "cc");
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let _ = writeln!(
                out,
                "{:>8.2} {:>12} {:>12}",
                q,
                base.quantile(q).to_string(),
                cc.quantile(q).to_string()
            );
        }
    }
}

/// Fig. 13: CNN training throughput/time grid.
pub mod fig13 {
    use std::fmt::Write;

    use hcc_core::Precision;
    use hcc_ml::cnn::{CnnEstimator, TrainConfig, MODELS};
    use hcc_types::CcMode;

    use crate::report;

    /// One grid cell.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Model name.
        pub model: &'static str,
        /// Batch size.
        pub batch: u32,
        /// Precision.
        pub precision: Precision,
        /// Mode.
        pub cc: CcMode,
        /// Images/second.
        pub throughput: f64,
        /// Training time normalized to the base FP32 run of the same
        /// batch size.
        pub norm_time: f64,
    }

    /// Computes the full grid.
    pub fn rows() -> Vec<Row> {
        let est = CnnEstimator::default();
        let mut out = Vec::new();
        for m in &MODELS {
            for batch in [64u32, 1024] {
                let reference = est
                    .estimate(
                        m,
                        TrainConfig {
                            batch,
                            precision: Precision::Fp32,
                            cc: CcMode::Off,
                        },
                    )
                    .total_time;
                let precisions: &[Precision] = if batch == 1024 {
                    &[Precision::Fp32, Precision::Amp, Precision::Fp16]
                } else {
                    &[Precision::Fp32, Precision::Amp]
                };
                for &precision in precisions {
                    for cc in CcMode::ALL {
                        let e = est.estimate(
                            m,
                            TrainConfig {
                                batch,
                                precision,
                                cc,
                            },
                        );
                        out.push(Row {
                            model: m.name,
                            batch,
                            precision,
                            cc,
                            throughput: e.throughput,
                            norm_time: e.total_time.as_secs_f64() / reference.as_secs_f64(),
                        });
                    }
                }
            }
        }
        out
    }

    /// The grid and the mean CC throughput drops.
    pub fn render() -> super::Computed<String> {
        let mut out = report::section("Fig. 13 — CNN training under CC");
        out.push_str("model           batch   prec   mode        img/s  norm time\n");
        for r in rows() {
            let _ = writeln!(
                out,
                "{:<14} {:>6} {:>6} {:>6} {:>12.0} {:>10.3}",
                r.model,
                r.batch,
                r.precision.to_string(),
                r.cc.to_string(),
                r.throughput,
                r.norm_time
            );
        }
        let est = CnnEstimator::default();
        let _ = writeln!(
            out,
            "mean CC throughput drop: batch64 {:.1}% (paper 24), batch1024 {:.1}% (paper 7.3)",
            est.mean_cc_drop(64, Precision::Fp32) * 100.0,
            est.mean_cc_drop(1024, Precision::Fp32) * 100.0
        );
        super::Computed::clean(out)
    }
}

/// Fig. 14: vLLM speedup grid over the HF BF16 CC-off baseline.
pub mod fig14 {
    use std::fmt::Write;

    use hcc_ml::llm::{LlmEstimator, LlmPrecision, FIG14_BATCHES};
    use hcc_types::CcMode;

    use crate::report;

    /// One grid cell.
    #[derive(Debug, Clone, Copy)]
    pub struct Cell {
        /// Batch size.
        pub batch: u32,
        /// Precision.
        pub precision: LlmPrecision,
        /// Mode.
        pub cc: CcMode,
        /// Throughput speedup over HF/BF16/CC-off at the same batch.
        pub speedup: f64,
    }

    /// Computes the grid.
    pub fn grid() -> Vec<Cell> {
        let est = LlmEstimator::default();
        let mut out = Vec::new();
        for batch in FIG14_BATCHES {
            for precision in [LlmPrecision::Bf16, LlmPrecision::Awq] {
                for cc in CcMode::ALL {
                    out.push(Cell {
                        batch,
                        precision,
                        cc,
                        speedup: est.vllm_speedup(precision, batch, cc),
                    });
                }
            }
        }
        out
    }

    /// The speedup grid, one row per batch size.
    pub fn render() -> super::Computed<String> {
        let mut out = report::section("Fig. 14 — vLLM speedup over HF/BF16/CC-off");
        let grid = grid();
        out.push_str(" batch    BF16/CC-off     BF16/CC-on     AWQ/CC-off      AWQ/CC-on\n");
        for b in FIG14_BATCHES {
            let get = |prec, cc| {
                grid.iter()
                    .find(|c| c.batch == b && c.precision == prec && c.cc == cc)
                    .map(|c| c.speedup)
                    .unwrap_or(0.0)
            };
            let _ = writeln!(
                out,
                "{:>6} {:>14.2} {:>14.2} {:>14.2} {:>14.2}",
                b,
                get(LlmPrecision::Bf16, CcMode::Off),
                get(LlmPrecision::Bf16, CcMode::On),
                get(LlmPrecision::Awq, CcMode::Off),
                get(LlmPrecision::Awq, CcMode::On),
            );
        }
        out.push_str("(all cells > 1.0: vLLM beats the HF baseline everywhere, incl. under CC)\n");
        super::Computed::clean(out)
    }
}

/// Fig. 12: microbenchmarks — launch trains (a), the fusion sweep (b)
/// and stream overlap (c). Thin wrappers over `hcc_workloads::micro`
/// that produce the plotted series. These drive their own multi-stream
/// contexts directly, so they stay outside the scenario engine.
pub mod fig12 {
    use std::fmt::Write;

    use hcc_trace::LaunchRecord;
    use hcc_types::{ByteSize, CcMode, SimDuration};
    use hcc_workloads::micro::{self, FusionPoint, OverlapResult};

    use crate::report;

    /// One of the figure's three panels.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Panel {
        /// KLO per launch index.
        A,
        /// The fusion sweep.
        B,
        /// Stream overlap.
        C,
    }

    /// (a) KLO per launch index for K0 x n0 then K1 x n1.
    pub fn launch_train(lab: &super::Lab, cc: CcMode, n0: u32, n1: u32) -> Vec<LaunchRecord> {
        micro::run_back_to_back(lab.switch(super::cfg(cc)), n0, n1, SimDuration::millis(100))
    }

    /// (b) the fusion sweep over power-of-two launch counts.
    pub fn fusion_sweep(
        lab: &super::Lab,
        cc: CcMode,
        total_ket: SimDuration,
        max: u32,
    ) -> Vec<FusionPoint> {
        let cfg = lab.switch(super::cfg(cc));
        let mut out = Vec::new();
        let mut n = 1u32;
        while n <= max {
            out.push(micro::run_fusion_sweep(cfg.clone(), total_ket, n));
            n = n.saturating_mul(2);
        }
        out
    }

    /// (c) overlap speedups over stream counts for one (bytes, KET) pair.
    pub fn overlap_series(
        lab: &super::Lab,
        cc: CcMode,
        total: ByteSize,
        ket: SimDuration,
        stream_counts: &[u32],
    ) -> Vec<(u32, OverlapResult)> {
        let cfg = lab.switch(super::cfg(cc));
        stream_counts
            .iter()
            .map(|&n| {
                (
                    n,
                    micro::run_overlap(cfg.clone(), n, total, ket).expect("overlap run"),
                )
            })
            .collect()
    }

    /// One panel's section.
    pub fn render(lab: &super::Lab, panel: Panel) -> super::Computed<String> {
        super::Computed::clean(match panel {
            Panel::A => panel_a(lab),
            Panel::B => panel_b(lab),
            Panel::C => panel_c(lab),
        })
    }

    fn panel_a(lab: &super::Lab) -> String {
        let mut out = report::section("Fig. 12a — KLO vs launch index (K0 x100 then K1 x100)");
        for cc in CcMode::ALL {
            let recs = launch_train(lab, cc, 100, 100);
            let _ = writeln!(out, "[{cc}]");
            let _ = writeln!(out, "{:>6} {:>12} {:>6}", "idx", "KLO", "first");
            for i in [0usize, 1, 2, 50, 99, 100, 101, 150, 199] {
                let r = &recs[i];
                let _ = writeln!(out, "{:>6} {:>12} {:>6}", i, r.klo.to_string(), r.first);
            }
        }
        out
    }

    fn panel_b(lab: &super::Lab) -> String {
        let mut out =
            report::section("Fig. 12b — fusion sweep (total KET 100ms split into N launches)");
        for cc in CcMode::ALL {
            let _ = writeln!(out, "[{cc}]");
            out.push_str(" launches      sum KLO      sum LQT         span\n");
            for p in fusion_sweep(lab, cc, SimDuration::millis(100), 1024) {
                let _ = writeln!(
                    out,
                    "{:>9} {:>12} {:>12} {:>12}",
                    p.launches,
                    p.total_klo.to_string(),
                    p.total_lqt.to_string(),
                    p.span.to_string()
                );
            }
        }
        out
    }

    fn panel_c(lab: &super::Lab) -> String {
        let mut out = report::section("Fig. 12c — overlap speedup vs stream count");
        let streams = [1u32, 2, 4, 8, 16, 32, 64];
        for total in [ByteSize::mib(512), ByteSize::gib(1)] {
            for ket in [SimDuration::millis(1), SimDuration::millis(100)] {
                let _ = writeln!(out, "total {total}, KET {ket}:");
                let _ = writeln!(out, "{:>8} {:>12} {:>12}", "streams", "base", "cc");
                let base = overlap_series(lab, CcMode::Off, total, ket, &streams);
                let cc = overlap_series(lab, CcMode::On, total, ket, &streams);
                for ((n, b), (_, c)) in base.iter().zip(cc.iter()) {
                    let _ = writeln!(
                        out,
                        "{:>8} {:>12} {:>12}",
                        n,
                        report::ratio(b.speedup()),
                        report::ratio(c.speedup())
                    );
                }
            }
        }
        out
    }
}
