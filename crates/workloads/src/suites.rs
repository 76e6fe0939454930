//! The benchmark apps of Sec. VI, re-specified from their published
//! structure: launch counts the paper states (`3dconv` 254, `sc` 1611,
//! `2mm` 2, `dwt2d` 10), copy-then-execute data movement, and kernel
//! durations chosen to span the Kernel-to-Launch-Ratio (KLR) spectrum the
//! case study examines.

use std::sync::OnceLock;

use hcc_types::{ByteSize, HostMemKind, SimDuration};

use crate::spec::{Op, Suite, WorkloadSpec};

fn us(v: u64) -> SimDuration {
    SimDuration::micros(v)
}

fn ms(v: u64) -> SimDuration {
    SimDuration::millis(v)
}

fn mib(v: u64) -> ByteSize {
    ByteSize::mib(v)
}

/// Builds a copy-then-execute app: allocate inputs + one output, copy
/// inputs H2D, run kernels, copy the output D2H, free everything.
///
/// `sync_each` inserts a device synchronize after every launch, the way
/// iterative Rodinia apps (hotspot, srad, kmeans, ...) consume per-step
/// results — it bounds host run-ahead and keeps KQT at the dispatch
/// floor, matching the paper's "tens of microseconds" note.
fn copy_then_execute(
    name: &'static str,
    suite: Suite,
    host_kind: HostMemKind,
    inputs: &[ByteSize],
    kernels: &[(u32, SimDuration, u32)],
    output: ByteSize,
    sync_each: bool,
) -> WorkloadSpec {
    let mut ops = Vec::new();
    for (i, size) in inputs.iter().enumerate() {
        ops.push(Op::MallocHost {
            slot: i,
            size: *size,
            kind: host_kind,
        });
        ops.push(Op::MallocDevice {
            slot: i,
            size: *size,
        });
    }
    let out_slot = inputs.len();
    ops.push(Op::MallocHost {
        slot: out_slot,
        size: output,
        kind: host_kind,
    });
    ops.push(Op::MallocDevice {
        slot: out_slot,
        size: output,
    });
    for (i, size) in inputs.iter().enumerate() {
        ops.push(Op::H2D {
            dst: i,
            src: i,
            bytes: *size,
        });
    }
    for (kernel, ket, repeat) in kernels {
        if sync_each {
            for _ in 0..*repeat {
                ops.push(Op::Launch {
                    kernel: *kernel,
                    ket: *ket,
                    managed: vec![],
                    repeat: 1,
                });
                ops.push(Op::Sync);
            }
        } else {
            ops.push(Op::Launch {
                kernel: *kernel,
                ket: *ket,
                managed: vec![],
                repeat: *repeat,
            });
        }
    }
    ops.push(Op::Sync);
    ops.push(Op::D2H {
        dst: out_slot,
        src: out_slot,
        bytes: output,
    });
    for i in 0..=inputs.len() {
        ops.push(Op::FreeDevice { slot: i });
        ops.push(Op::FreeHost { slot: i });
    }
    WorkloadSpec {
        name,
        suite,
        uvm: false,
        ops,
    }
}

/// Builds a managed-memory (UVM) app: allocate managed ranges, run
/// kernels touching them, free.
fn managed_execute(
    name: &'static str,
    suite: Suite,
    ranges: &[ByteSize],
    kernels: &[(u32, SimDuration, u32)],
) -> WorkloadSpec {
    let mut ops = Vec::new();
    for (i, size) in ranges.iter().enumerate() {
        ops.push(Op::MallocManaged {
            slot: i,
            size: *size,
        });
    }
    let all: Vec<usize> = (0..ranges.len()).collect();
    for (kernel, ket, repeat) in kernels {
        ops.push(Op::Launch {
            kernel: *kernel,
            ket: *ket,
            managed: all.clone(),
            repeat: *repeat,
        });
    }
    ops.push(Op::Sync);
    for i in 0..ranges.len() {
        ops.push(Op::FreeManaged { slot: i });
    }
    WorkloadSpec {
        name,
        suite,
        uvm: true,
        ops,
    }
}

/// The Rodinia selection.
pub(crate) fn rodinia() -> Vec<WorkloadSpec> {
    use HostMemKind::Pageable;
    use Suite::Rodinia;
    vec![
        copy_then_execute(
            "bfs",
            Rodinia,
            Pageable,
            &[mib(48), mib(48)],
            &[(0, us(80), 24), (1, us(40), 24)],
            mib(24),
            true,
        ),
        copy_then_execute(
            "backprop",
            Rodinia,
            Pageable,
            &[mib(64), mib(64)],
            &[(0, us(1200), 2), (1, us(900), 2)],
            mib(64),
            true,
        ),
        // 10 launches; the first-launch image upload dominates, the
        // paper's poster child for KLO amplification (x5.31, Fig. 7a).
        copy_then_execute(
            "dwt2d",
            Rodinia,
            Pageable,
            &[mib(72)],
            &[
                (0, us(300), 2),
                (1, us(280), 2),
                (2, us(260), 2),
                (3, us(240), 2),
                (4, us(220), 2),
            ],
            mib(72),
            true,
        ),
        copy_then_execute(
            "gaussian",
            Rodinia,
            Pageable,
            &[mib(32), mib(32)],
            &[(0, us(25), 512), (1, us(20), 512)],
            mib(32),
            false,
        ),
        copy_then_execute(
            "hotspot",
            Rodinia,
            Pageable,
            &[mib(64), mib(64)],
            &[(0, us(350), 60)],
            mib(64),
            true,
        ),
        copy_then_execute(
            "kmeans",
            Rodinia,
            Pageable,
            &[mib(96)],
            &[(0, us(600), 30), (1, us(150), 30)],
            mib(8),
            true,
        ),
        copy_then_execute(
            "lud",
            Rodinia,
            Pageable,
            &[mib(24)],
            &[(0, us(45), 100), (1, us(30), 100)],
            mib(24),
            false,
        ),
        copy_then_execute(
            "nw",
            Rodinia,
            Pageable,
            &[mib(48), mib(48)],
            &[(0, us(55), 127), (1, us(55), 127)],
            mib(48),
            true,
        ),
        copy_then_execute(
            "particlefilter",
            Rodinia,
            Pageable,
            &[mib(12)],
            &[
                (0, us(220), 10),
                (1, us(180), 10),
                (2, us(200), 10),
                (3, us(160), 10),
            ],
            mib(12),
            true,
        ),
        copy_then_execute(
            "pathfinder",
            Rodinia,
            Pageable,
            &[mib(80)],
            &[(0, us(90), 5)],
            mib(4),
            true,
        ),
        // streamcluster: 1611 launches of a short kernel — the lowest KLR
        // in the study (Fig. 10C).
        copy_then_execute(
            "sc",
            Rodinia,
            Pageable,
            &[mib(16)],
            &[(0, us(5), 1611)],
            mib(16),
            false,
        ),
        copy_then_execute(
            "srad",
            Rodinia,
            Pageable,
            &[mib(96), mib(96)],
            &[(0, us(400), 100), (1, us(380), 100)],
            mib(96),
            true,
        ),
    ]
}

/// The PolyBench/GPU selection.
pub(crate) fn polybench() -> Vec<WorkloadSpec> {
    use HostMemKind::{Pageable, Pinned};
    use Suite::Polybench;
    vec![
        // 2dconv uses pinned staging — the app whose CC copies get
        // demoted to Managed D2D (x19.69, Fig. 5).
        copy_then_execute(
            "2dconv",
            Polybench,
            Pinned,
            &[mib(128)],
            &[(0, us(1600), 1)],
            mib(128),
            false,
        ),
        // 254 launches of the same kernel in a loop (Fig. 10D).
        copy_then_execute(
            "3dconv",
            Polybench,
            Pageable,
            &[mib(108)],
            &[(0, us(8), 254)],
            mib(108),
            false,
        ),
        copy_then_execute(
            "2mm",
            Polybench,
            Pageable,
            &[mib(64), mib(64), mib(64)],
            &[(0, ms(28), 1), (1, ms(28), 1)],
            mib(64),
            true,
        ),
        copy_then_execute(
            "3mm",
            Polybench,
            Pageable,
            &[mib(48), mib(48), mib(48), mib(48)],
            &[(0, ms(20), 1), (1, ms(20), 1), (2, ms(20), 1)],
            mib(48),
            true,
        ),
        copy_then_execute(
            "atax",
            Polybench,
            Pageable,
            &[mib(64), mib(8)],
            &[(0, us(500), 1), (1, us(450), 1)],
            mib(8),
            true,
        ),
        copy_then_execute(
            "bicg",
            Polybench,
            Pageable,
            &[mib(64), mib(8)],
            &[(0, us(520), 1), (1, us(480), 1)],
            mib(8),
            true,
        ),
        copy_then_execute(
            "corr",
            Polybench,
            Pageable,
            &[mib(56)],
            &[(0, ms(3), 1), (1, ms(3), 1), (2, ms(3), 1), (3, ms(2), 1)],
            mib(56),
            true,
        ),
        copy_then_execute(
            "covar",
            Polybench,
            Pageable,
            &[mib(56)],
            &[(0, ms(4), 1), (1, ms(4), 1), (2, ms(3), 1)],
            mib(56),
            true,
        ),
        copy_then_execute(
            "gemm",
            Polybench,
            Pageable,
            &[mib(96), mib(96), mib(96)],
            &[(0, ms(40), 1)],
            mib(96),
            false,
        ),
        copy_then_execute(
            "gesummv",
            Polybench,
            Pageable,
            &[mib(72), mib(72)],
            &[(0, us(700), 1), (1, us(650), 1)],
            mib(8),
            true,
        ),
        copy_then_execute(
            "gramschm",
            Polybench,
            Pageable,
            &[mib(64)],
            &[(0, ms(2), 84), (1, us(1800), 84), (2, us(1500), 84)],
            mib(64),
            true,
        ),
        copy_then_execute(
            "mvt",
            Polybench,
            Pageable,
            &[mib(64), mib(8)],
            &[(0, us(800), 1), (1, us(750), 1)],
            mib(8),
            true,
        ),
        copy_then_execute(
            "syrk",
            Polybench,
            Pageable,
            &[mib(80), mib(80)],
            &[(0, ms(30), 1)],
            mib(80),
            false,
        ),
        copy_then_execute(
            "syr2k",
            Polybench,
            Pageable,
            &[mib(80), mib(80)],
            &[(0, ms(35), 1)],
            mib(80),
            false,
        ),
    ]
}

/// The UVM-Bench selection (managed memory).
pub(crate) fn uvmbench() -> Vec<WorkloadSpec> {
    use Suite::UvmBench;
    let mut apps = vec![
        managed_execute(
            "bfs-uvm",
            UvmBench,
            &[mib(64)],
            &[(0, us(80), 24), (1, us(40), 24)],
        ),
        managed_execute("kmeans-uvm", UvmBench, &[mib(96)], &[(0, us(600), 30)]),
        managed_execute("knn", UvmBench, &[mib(48)], &[(0, us(900), 16)]),
        managed_execute("svm", UvmBench, &[mib(80)], &[(0, ms(2), 40)]),
    ];
    // cnn: the smallest copy slowdown in Fig. 5 (x1.17) — many tiny
    // explicit staging copies (setup-dominated in both modes) plus
    // managed weights.
    let mut cnn_ops = vec![
        Op::MallocManaged {
            slot: 0,
            size: mib(32),
        },
        Op::MallocHost {
            slot: 0,
            size: ByteSize::kib(16),
            kind: HostMemKind::Pageable,
        },
        Op::MallocDevice {
            slot: 0,
            size: ByteSize::kib(16),
        },
    ];
    for _ in 0..400 {
        cnn_ops.push(Op::H2D {
            dst: 0,
            src: 0,
            bytes: ByteSize::kib(16),
        });
    }
    cnn_ops.push(Op::Launch {
        kernel: 0,
        ket: ms(2),
        managed: vec![0],
        repeat: 50,
    });
    cnn_ops.push(Op::Sync);
    cnn_ops.push(Op::FreeManaged { slot: 0 });
    cnn_ops.push(Op::FreeDevice { slot: 0 });
    cnn_ops.push(Op::FreeHost { slot: 0 });
    apps.push(WorkloadSpec {
        name: "cnn",
        suite: UvmBench,
        uvm: true,
        ops: cnn_ops,
    });
    apps
}

/// Graph-processing apps (GraphBIG + Tigr).
pub fn graph() -> Vec<WorkloadSpec> {
    use HostMemKind::Pageable;
    vec![
        copy_then_execute(
            "bfs-gb",
            Suite::GraphBig,
            Pageable,
            &[mib(192)],
            &[(0, us(120), 300)],
            mib(24),
            true,
        ),
        copy_then_execute(
            "dfs-gb",
            Suite::GraphBig,
            Pageable,
            &[mib(160)],
            &[(0, us(140), 220)],
            mib(24),
            true,
        ),
        copy_then_execute(
            "pagerank",
            Suite::GraphBig,
            Pageable,
            &[mib(256)],
            &[(0, ms(3), 100)],
            mib(32),
            true,
        ),
        copy_then_execute(
            "sssp",
            Suite::GraphBig,
            Pageable,
            &[mib(224)],
            &[(0, us(180), 250)],
            mib(28),
            true,
        ),
        copy_then_execute(
            "tigr-bfs",
            Suite::Tigr,
            Pageable,
            &[mib(128)],
            &[(0, us(95), 180)],
            mib(16),
            true,
        ),
        copy_then_execute(
            "tigr-sssp",
            Suite::Tigr,
            Pageable,
            &[mib(144)],
            &[(0, us(110), 220)],
            mib(16),
            true,
        ),
        copy_then_execute(
            "tigr-pr",
            Suite::Tigr,
            Pageable,
            &[mib(176)],
            &[(0, ms(2), 60)],
            mib(16),
            true,
        ),
    ]
}

/// The standard-app catalog (rodinia, polybench, uvmbench, graph, in
/// that order), built on first use and shared for the process's life.
fn catalog() -> &'static [WorkloadSpec] {
    static CATALOG: OnceLock<Vec<WorkloadSpec>> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let mut v = rodinia();
        v.extend(polybench());
        v.extend(uvmbench());
        v.extend(graph());
        v
    })
}

/// Every standard (non-micro) app.
pub fn all() -> Vec<WorkloadSpec> {
    catalog().to_vec()
}

/// Apps with more than one launch — the Fig. 7 population ("applications
/// with no queuing time (e.g., only a single launch) are excluded").
pub fn multi_launch() -> Vec<WorkloadSpec> {
    catalog()
        .iter()
        .filter(|w| w.launch_count() > 1)
        .cloned()
        .collect()
}

/// Borrows a standard app from the catalog by name, without cloning it.
pub fn spec(name: &str) -> Option<&'static WorkloadSpec> {
    catalog().iter().find(|w| w.name == name)
}

/// Looks up a standard app by name.
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    spec(name).cloned()
}

/// A managed-memory (UVM) variant of an explicit-copy app, for the
/// Fig. 9 UVM columns. The variant keeps the kernel structure but
/// replaces explicit copies with managed ranges the kernels touch.
/// Returns `None` for apps without a defined variant.
pub fn uvm_variant(name: &str) -> Option<WorkloadSpec> {
    let spec = match name {
        // Tiny kernel + large working set: the ratio explodes under CC
        // encrypted paging (the paper's 2dconv hits x164,030).
        "2dconv" => managed_execute(
            "2dconv-uvm",
            Suite::UvmBench,
            &[ByteSize::gib(1)],
            &[(0, us(5), 1)],
        ),
        "3dconv" => managed_execute(
            "3dconv-uvm",
            Suite::UvmBench,
            &[mib(216)],
            &[(0, us(8), 254)],
        ),
        "atax" => managed_execute(
            "atax-uvm",
            Suite::UvmBench,
            &[mib(72)],
            &[(0, us(500), 1), (1, us(450), 1)],
        ),
        "bicg" => managed_execute(
            "bicg-uvm",
            Suite::UvmBench,
            &[mib(72)],
            &[(0, us(520), 1), (1, us(480), 1)],
        ),
        "gemm" => managed_execute("gemm-uvm", Suite::UvmBench, &[mib(288)], &[(0, ms(40), 1)]),
        // Long kernels over modest data: the benign end (x1.08).
        "gramschm" => managed_execute(
            "gramschm-uvm",
            Suite::UvmBench,
            &[mib(64)],
            &[(0, ms(150), 1), (1, ms(150), 1), (2, ms(150), 1)],
        ),
        "mvt" => managed_execute(
            "mvt-uvm",
            Suite::UvmBench,
            &[mib(72)],
            &[(0, us(800), 1), (1, us(750), 1)],
        ),
        "hotspot" => managed_execute(
            "hotspot-uvm",
            Suite::UvmBench,
            &[mib(128)],
            &[(0, us(350), 60)],
        ),
        "bfs" => managed_execute(
            "bfs-uvm-var",
            Suite::UvmBench,
            &[mib(96)],
            &[(0, us(80), 24), (1, us(40), 24)],
        ),
        "kmeans" => managed_execute(
            "kmeans-uvm-var",
            Suite::UvmBench,
            &[mib(96)],
            &[(0, us(600), 30), (1, us(150), 30)],
        ),
        _ => return None,
    };
    Some(spec)
}

/// Names of the apps with UVM variants (the Fig. 9 sweep population).
pub const UVM_VARIANT_APPS: [&str; 10] = [
    "2dconv", "3dconv", "atax", "bicg", "gemm", "gramschm", "mvt", "hotspot", "bfs", "kmeans",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_stated_launch_counts() {
        assert_eq!(by_name("3dconv").unwrap().launch_count(), 254);
        assert_eq!(by_name("sc").unwrap().launch_count(), 1611);
        assert_eq!(by_name("2mm").unwrap().launch_count(), 2);
        assert_eq!(by_name("dwt2d").unwrap().launch_count(), 10);
    }

    #[test]
    fn suite_sizes() {
        assert_eq!(rodinia().len(), 12);
        assert_eq!(polybench().len(), 14);
        assert_eq!(uvmbench().len(), 5);
        assert_eq!(graph().len(), 7);
        assert_eq!(all().len(), 38);
    }

    #[test]
    fn all_keeps_the_catalog_order() {
        let names: Vec<&str> = all().iter().map(|w| w.name).collect();
        assert_eq!(
            names.join(" "),
            concat!(
                "bfs backprop dwt2d gaussian hotspot kmeans lud nw particlefilter pathfinder sc ",
                "srad 2dconv 3dconv 2mm 3mm atax bicg corr covar gemm gesummv gramschm mvt syrk ",
                "syr2k bfs-uvm kmeans-uvm knn svm cnn bfs-gb dfs-gb pagerank sssp tigr-bfs ",
                "tigr-sssp tigr-pr",
            )
        );
    }

    #[test]
    fn spec_borrows_one_shared_entry() {
        for w in all() {
            let first = spec(w.name).expect("catalog app");
            assert!(std::ptr::eq(first, spec(w.name).unwrap()), "{}", w.name);
            assert_eq!(*first, w);
            assert_eq!(by_name(w.name).as_ref(), Some(first));
        }
        assert!(spec("no-such-app").is_none());
        assert!(by_name("no-such-app").is_none());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = all().iter().map(|w| w.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn multi_launch_excludes_single_launch_apps() {
        let ml = multi_launch();
        assert!(ml.iter().all(|w| w.launch_count() > 1));
        assert!(ml.iter().all(|w| w.name != "gemm"));
        assert!(ml.iter().any(|w| w.name == "sc"));
    }

    #[test]
    fn uvm_variants_exist_for_sweep_population() {
        for name in UVM_VARIANT_APPS {
            let v = uvm_variant(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(v.uvm);
            assert!(v.launch_count() >= 1);
        }
        assert!(uvm_variant("nonexistent").is_none());
    }

    #[test]
    fn copy_then_execute_shape() {
        let spec = by_name("gemm").unwrap();
        // 3 inputs + 1 output, each with host+device alloc and frees.
        let allocs = spec
            .ops
            .iter()
            .filter(|o| matches!(o, Op::MallocDevice { .. }))
            .count();
        assert_eq!(allocs, 4);
        let copies = spec
            .ops
            .iter()
            .filter(|o| matches!(o, Op::H2D { .. } | Op::D2H { .. }))
            .count();
        assert_eq!(copies, 4);
    }

    #[test]
    fn klr_spectrum_is_wide() {
        // sc (many short launches) must sit far below 2mm (two long
        // kernels) in nominal KET per launch.
        let sc = by_name("sc").unwrap();
        let mm = by_name("2mm").unwrap();
        let sc_per_launch = sc.nominal_ket().as_micros_f64() / sc.launch_count() as f64;
        let mm_per_launch = mm.nominal_ket().as_micros_f64() / mm.launch_count() as f64;
        assert!(mm_per_launch > sc_per_launch * 100.0);
    }
}
