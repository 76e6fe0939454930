//! The shipped example decks must parse, run in both modes, and show the
//! behaviours they advertise.

use hcc::prelude::*;
use hcc::workloads::{parse_workload, runner};

const STREAMING_CONV: &str = include_str!("../decks/streaming_conv.hcc");
const BATCH_TRAINER: &str = include_str!("../decks/batch_trainer.hcc");
const UVM_STENCIL: &str = include_str!("../decks/uvm_stencil.hcc");

#[test]
fn streaming_conv_is_launch_bound_and_cc_sensitive() {
    let spec = parse_workload(STREAMING_CONV).expect("deck parses");
    assert_eq!(spec.launch_count(), 254);
    let base = runner::run(&spec, SimConfig::new(CcMode::Off)).expect("base run");
    let cc = runner::run(&spec, SimConfig::new(CcMode::On)).expect("cc run");
    let analysis = hcc::core::KlrAnalysis::of(&base.timeline.launch_metrics());
    assert_eq!(
        analysis.class,
        hcc::core::KlrClass::Low,
        "klr {}",
        analysis.klr
    );
    assert!(cc.end > base.end);
}

#[test]
fn batch_trainer_syncs_every_step() {
    let spec = parse_workload(BATCH_TRAINER).expect("deck parses");
    assert_eq!(spec.launch_count(), 4);
    let r = runner::run(&spec, SimConfig::new(CcMode::On)).expect("run");
    let lm = r.timeline.launch_metrics();
    // Per-step syncs keep each kernel's queueing at the dispatch floor.
    for k in &lm.kernels {
        assert!(k.kqt < SimDuration::micros(20), "kqt {}", k.kqt);
    }
}

#[test]
fn uvm_stencil_faults_cold_then_runs_warm() {
    let spec = parse_workload(UVM_STENCIL).expect("deck parses");
    assert!(spec.uvm);
    let r = runner::run(&spec, SimConfig::new(CcMode::On)).expect("run");
    let lm = r.timeline.launch_metrics();
    assert_eq!(lm.kernels.len(), 6);
    // First (cold) kernel pays encrypted paging; warm reruns do not.
    let cold = lm.kernels[0].ket;
    let warm = lm.kernels[3].ket;
    assert!(cold > warm * 10, "cold {cold} vs warm {warm}");
    assert!(r.uvm.faults > 0);
}

/// `hcc_lab deck` refuses a deck whose kernel time would overflow the
/// virtual clock, exiting 1, where it once panicked mid-run: one line's
/// repeat, and two lines that each fit but not together.
#[test]
fn deck_command_refuses_a_clock_overflow() {
    use hcc::workloads::MAX_DECK_KERNEL_TIME;
    use std::process::ExitCode;

    let half = MAX_DECK_KERNEL_TIME.as_nanos() / 2 + 1;
    let decks = [
        (
            "repeat",
            "app big\nlaunch k0 18446744073s x1000\nsync\n".to_string(),
        ),
        (
            "sum",
            format!("app two\nlaunch k0 {half}ns\nlaunch k1 {half}ns\nsync\n"),
        ),
    ];
    for (name, deck) in decks {
        let path = std::env::temp_dir().join(format!(
            "hcc-deck-overflow-{name}-{}.hcc",
            std::process::id()
        ));
        std::fs::write(&path, deck).expect("write deck");
        let argv = vec!["deck".to_string(), path.display().to_string()];
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = hcc_bench::lab::run(argv, &mut out, &mut err);
        std::fs::remove_file(&path).expect("remove deck");
        assert_eq!(code, ExitCode::FAILURE, "{name}");
        assert!(out.is_empty(), "{name}");
        let err = String::from_utf8(err).expect("UTF-8 stderr");
        assert!(
            err.starts_with(&format!("{}: ", path.display())),
            "{name}: {err}"
        );
    }
}
