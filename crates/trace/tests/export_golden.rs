//! Golden-file contract for the Chrome trace export.
//!
//! The export format is consumed by external tooling (Perfetto,
//! `chrome://tracing`), so its byte-level shape is frozen in
//! `tests/golden/chrome_trace.json`. The test additionally round-trips
//! the export through the in-repo JSON parser and checks the structural
//! invariants tooling relies on: well-formedness, non-decreasing
//! timestamps within each track, and stable track (pid/tid) assignment
//! per event category.
//!
//! To bless a deliberate format change:
//! `HCC_BLESS=1 cargo test -p hcc-trace --test export_golden`.

use std::collections::HashMap;

use hcc_trace::{
    CausalEdge, CausalGraph, ChromeExport, EdgeKind, EventId, EventKind, Gauge, KernelId,
    MetricsSet, Timeline, TraceEvent,
};
use hcc_types::json::Json;
use hcc_types::{ByteSize, CopyKind, HostMemKind, MemSpace, SimDuration, SimTime};

fn t(us: u64) -> SimTime {
    SimTime::from_nanos(us * 1_000)
}

/// A hand-built timeline touching every track the exporter assigns:
/// host API rows, crypto row, GPU kernel/copy rows, plus two gauges
/// (one active, one empty) for the counter tracks.
fn fixture() -> (Timeline, MetricsSet) {
    let mut tl = Timeline::new();
    tl.push(TraceEvent::new(
        EventKind::Alloc {
            space: MemSpace::Device,
            bytes: ByteSize::mib(4),
        },
        t(0),
        t(2),
    ));
    tl.push(
        TraceEvent::new(
            EventKind::Launch {
                kernel: KernelId(0),
                queue_wait: SimDuration::micros(1),
                first: true,
            },
            t(3),
            t(9),
        )
        .with_correlation(1),
    );
    tl.push(TraceEvent::new(
        EventKind::Crypto {
            bytes: ByteSize::mib(1),
            encrypt: true,
        },
        t(4),
        t(24),
    ));
    tl.push(TraceEvent::new(
        EventKind::Memcpy {
            kind: CopyKind::H2D,
            bytes: ByteSize::mib(1),
            mem: HostMemKind::Pinned,
            managed: true,
        },
        t(24),
        t(40),
    ));
    tl.push(
        TraceEvent::new(
            EventKind::Kernel {
                kernel: KernelId(0),
                uvm: true,
            },
            t(40),
            t(140),
        )
        .with_correlation(1),
    );
    tl.push(
        TraceEvent::new(
            EventKind::UvmFault {
                kernel: KernelId(0),
                pages: 16,
                page_size: 64 * 1024,
            },
            t(40),
            t(72),
        )
        .with_correlation(1),
    );
    tl.push(TraceEvent::new(EventKind::Sync, t(140), t(141)));

    let mut set = MetricsSet::new();
    let mut ring = Gauge::enabled();
    ring.occupy(t(3), t(40));
    ring.occupy(t(9), t(140));
    set.gauge("gpu.ring.occupancy", &ring);
    let mut faults = Gauge::enabled();
    faults.occupy(t(40), t(72));
    set.gauge("uvm.outstanding_faults", &faults);
    set.gauge("tee.crypto.queue", &Gauge::enabled()); // empty -> zero sample
    (tl, set)
}

/// Causal edges over the fixture timeline, indexed by push order:
/// 0 alloc, 1 launch, 2 crypto, 3 copy, 4 kernel, 5 uvm fault, 6 sync.
fn causal_fixture() -> CausalGraph {
    let mut g = CausalGraph::new(true);
    g.push(
        CausalEdge::new(EventId(2), EventId(3), EdgeKind::CryptoToStaging)
            .with_wait(SimDuration::ZERO),
    );
    g.push(
        CausalEdge::new(EventId(1), EventId(4), EdgeKind::LaunchToExec)
            .with_wait(SimDuration::micros(31)),
    );
    g.push(CausalEdge::new(
        EventId(3),
        EventId(4),
        EdgeKind::CopyToKernel,
    ));
    g.push(
        CausalEdge::new(EventId(4), EventId(6), EdgeKind::CompletionToSync)
            .with_wait(SimDuration::micros(100)),
    );
    g
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chrome_trace.json")
}

fn full_golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chrome_trace_full.json")
}

#[test]
fn export_matches_golden_file_byte_for_byte() {
    let (tl, set) = fixture();
    let out = ChromeExport::new().with_metrics(&set).render(&tl);
    let path = golden_path();
    if std::env::var_os("HCC_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &out).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless with HCC_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        out, golden,
        "Chrome export drifted from the golden file; if intentional, re-bless with HCC_BLESS=1"
    );
}

#[test]
fn full_export_matches_golden_file_byte_for_byte() {
    let (tl, set) = fixture();
    let causal = causal_fixture();
    let out = ChromeExport::new()
        .with_metrics(&set)
        .with_causal(&causal)
        .render(&tl);
    let path = full_golden_path();
    if std::env::var_os("HCC_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &out).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless with HCC_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        out, golden,
        "full Chrome export (flows + counters) drifted from the golden file; \
         if intentional, re-bless with HCC_BLESS=1"
    );
}

#[test]
fn full_export_combines_flows_and_counters_coherently() {
    let (tl, set) = fixture();
    let causal = causal_fixture();
    assert!(
        causal.is_acyclic(),
        "fixture edges must respect event order"
    );
    let out = ChromeExport::new()
        .with_metrics(&set)
        .with_causal(&causal)
        .render(&tl);
    let doc = Json::parse(&out).expect("full export is well-formed JSON");
    let Json::Arr(events) = doc else {
        panic!("export root is not an array");
    };
    // 7 spans + 9 counter samples (as in the metrics-only export) plus a
    // flow start/finish pair per causal edge.
    assert_eq!(events.len(), 7 + 9 + 2 * causal.len());

    let mut starts: HashMap<u64, f64> = HashMap::new();
    let mut finishes: HashMap<u64, f64> = HashMap::new();
    for ev in &events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        if ph != "s" && ph != "f" {
            continue;
        }
        let id = ev.get("id").and_then(Json::as_u64).expect("flow id");
        let ts = ev.get("ts").and_then(Json::as_f64).expect("flow ts");
        assert_eq!(
            ev.get("cat").and_then(Json::as_str),
            Some("causal"),
            "flow events carry the causal category"
        );
        if ph == "s" {
            starts.insert(id, ts);
        } else {
            assert_eq!(
                ev.get("bp").and_then(Json::as_str),
                Some("e"),
                "finish binds to the enclosing slice"
            );
            finishes.insert(id, ts);
        }
    }
    assert_eq!(starts.len(), causal.len(), "one start per edge");
    assert_eq!(finishes.len(), causal.len(), "one finish per edge");
    for (id, edge) in causal.edges().iter().enumerate() {
        let from = tl.get(edge.from).expect("edge source exists");
        let to = tl.get(edge.to).expect("edge target exists");
        let id = id as u64;
        assert_eq!(
            starts[&id],
            from.end.as_micros_f64(),
            "arrow leaves source end"
        );
        assert_eq!(
            finishes[&id],
            to.start.as_micros_f64(),
            "arrow lands at target start"
        );
    }
    // Counter tracks are unchanged by the causal overlay: stripping the
    // flow events gives back the metrics-only export exactly.
    let metrics_only = ChromeExport::new().with_metrics(&set).render(&tl);
    let flowless: Vec<&str> = out
        .lines()
        .filter(|l| !l.contains("\"cat\": \"causal\""))
        .collect();
    let metric_lines: Vec<&str> = metrics_only.lines().collect();
    assert_eq!(flowless.len(), metric_lines.len());
    for (a, b) in flowless.iter().zip(&metric_lines) {
        assert_eq!(
            a.trim_end_matches(','),
            b.trim_end_matches(','),
            "span/counter records differ between the full and metrics-only exports"
        );
    }
}

#[test]
fn export_round_trips_through_the_in_repo_parser() {
    let (tl, set) = fixture();
    let out = ChromeExport::new().with_metrics(&set).render(&tl);
    let doc = Json::parse(&out).expect("export is well-formed JSON");
    let Json::Arr(events) = doc else {
        panic!("export root is not an array");
    };
    // 7 spans + (zero + 4 change-points) + (zero + 2) + 1 empty-gauge zero.
    assert_eq!(events.len(), 7 + 5 + 3 + 1);

    // Per-track timestamps must be non-decreasing, and counter samples
    // must carry integer values.
    let mut last_ts: HashMap<(String, String), f64> = HashMap::new();
    for ev in &events {
        let pid = ev
            .get("pid")
            .and_then(Json::as_str)
            .expect("pid")
            .to_string();
        let tid = ev.get("tid").expect("tid").to_string();
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .expect("name")
            .to_string();
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        let ts = ev.get("ts").and_then(Json::as_f64).expect("ts");
        let track = if ph == "C" {
            // Counter samples interleave by gauge name, not tid.
            (pid.clone(), name.clone())
        } else {
            (pid.clone(), tid)
        };
        if let Some(prev) = last_ts.get(&track) {
            assert!(
                ts >= *prev,
                "track {track:?}: timestamp went backwards ({prev} -> {ts})"
            );
        }
        last_ts.insert(track, ts);
        match ph {
            "X" => {
                assert!(ev.get("dur").and_then(Json::as_f64).is_some());
            }
            "C" => {
                assert_eq!(pid, "metrics");
                let args = ev.get("args").expect("counter args");
                assert!(args.get("value").is_some(), "counter sample without value");
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
}

#[test]
fn track_assignment_is_stable_per_category() {
    let (tl, set) = fixture();
    let out = ChromeExport::new().with_metrics(&set).render(&tl);
    let Json::Arr(events) = Json::parse(&out).unwrap() else {
        unreachable!()
    };
    // The exporter's row layout mirrors Nsight: host API on host/0,
    // crypto on host/1, kernels + UVM on gpu/10, H2D copies on gpu/11.
    let mut rows: HashMap<String, (String, String)> = HashMap::new();
    for ev in &events {
        let name = ev.get("name").and_then(Json::as_str).unwrap().to_string();
        let pid = ev.get("pid").and_then(Json::as_str).unwrap().to_string();
        let tid = ev.get("tid").unwrap().to_string();
        rows.insert(name, (pid, tid));
    }
    let row = |needle: &str| {
        rows.iter()
            .find(|(name, _)| name.contains(needle))
            .map(|(_, track)| track.clone())
            .unwrap_or_else(|| panic!("no event matching {needle:?}"))
    };
    assert_eq!(row("cudaMalloc"), ("host".into(), "0".into()));
    assert_eq!(row("cudaLaunchKernel"), ("host".into(), "0".into()));
    assert_eq!(row("AES-GCM"), ("host".into(), "1".into()));
    assert_eq!(row("K0 [uvm]"), ("gpu".into(), "10".into()));
    assert_eq!(row("uvm fault"), ("gpu".into(), "10".into()));
    assert_eq!(row("Memcpy H2D"), ("gpu".into(), "11".into()));
    assert_eq!(row("gpu.ring.occupancy"), ("metrics".into(), "0".into()));
}
