//! The unified `Scenario` API: one value type naming *what to simulate*.
//!
//! A [`Scenario`] bundles an app selection (a standard suite app, its
//! managed-memory variant, or an ad-hoc inline program) with the full
//! [`SimConfig`] it runs under. Every figure generator and harness builds
//! scenarios through this one path instead of scattering
//! `SimConfig::new(cc)` call sites, and the experiment engine in
//! `hcc-bench` memoizes results keyed by [`Scenario::content_hash`] — a
//! stable digest of the program *and* every configuration knob, so two
//! scenarios share a cache entry only when the simulator would produce
//! bit-identical traces for both.

use hcc_runtime::SimConfig;
use hcc_types::hash::Fnv64;
use hcc_types::CcMode;

use crate::spec::{Op, WorkloadSpec};

/// Which concrete program a scenario names.
#[derive(Debug, Clone)]
pub enum AppSelector {
    /// A standard app from [`crate::suites::all`], by name.
    Standard(&'static str),
    /// The managed-memory variant from [`crate::suites::uvm_variant`],
    /// keyed by the *explicit* app's name (e.g. `"gemm"` selects
    /// `gemm-uvm`).
    UvmVariant(&'static str),
    /// An inline program (microbenchmark, sweep point, custom deck). The
    /// cache key covers the full op list, so two ad-hoc programs sharing a
    /// name never alias.
    Adhoc(WorkloadSpec),
}

/// One experiment request: an app selection plus the configuration
/// (mode, seed, calibration, runtime knobs) it runs under.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// What to run.
    pub app: AppSelector,
    /// How to run it.
    pub cfg: SimConfig,
}

impl Scenario {
    /// A standard suite app by name.
    #[must_use]
    pub fn standard(name: &'static str, cfg: SimConfig) -> Self {
        Scenario {
            app: AppSelector::Standard(name),
            cfg,
        }
    }

    /// The managed-memory (UVM) variant of a standard app.
    #[must_use]
    pub fn uvm_variant(name: &'static str, cfg: SimConfig) -> Self {
        Scenario {
            app: AppSelector::UvmVariant(name),
            cfg,
        }
    }

    /// An ad-hoc inline program.
    #[must_use]
    pub fn adhoc(spec: WorkloadSpec, cfg: SimConfig) -> Self {
        Scenario {
            app: AppSelector::Adhoc(spec),
            cfg,
        }
    }

    /// The scenario's mode (shorthand for `self.cfg.cc`).
    pub fn cc(&self) -> CcMode {
        self.cfg.cc
    }

    /// The bare app name, without mode or variant decoration.
    pub fn app_name(&self) -> &str {
        match &self.app {
            AppSelector::Standard(n) | AppSelector::UvmVariant(n) => n,
            AppSelector::Adhoc(spec) => spec.name,
        }
    }

    /// Human-readable label for reports and engine statistics.
    pub fn label(&self) -> String {
        let name = match &self.app {
            AppSelector::Standard(n) => n,
            AppSelector::UvmVariant(n) => return format!("{n}+uvm [{}]", self.cfg.cc),
            AppSelector::Adhoc(spec) => spec.name,
        };
        format!("{name} [{}]", self.cfg.cc)
    }

    /// Stable content hash — the memoization key.
    ///
    /// Covers the app selection (for ad-hoc programs, the entire op list)
    /// and [`SimConfig::content_hash`], which itself folds in the
    /// calibration fingerprint. Scenarios differing in any field that could
    /// change the simulated trace therefore hash differently.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv64::new();
        match &self.app {
            AppSelector::Standard(n) => {
                h.write_u8(0);
                h.write_str(n);
            }
            AppSelector::UvmVariant(n) => {
                h.write_u8(1);
                h.write_str(n);
            }
            AppSelector::Adhoc(spec) => {
                h.write_u8(2);
                h.write_str(spec.name);
                h.write_bool(spec.uvm);
                h.write_u64(spec.ops.len() as u64);
                for op in &spec.ops {
                    mix_op(&mut h, op);
                }
            }
        }
        h.write_u64(self.cfg.content_hash());
        h.finish()
    }
}

/// Folds one operation into the digest: a discriminant tag plus every field
/// in declaration order.
fn mix_op(h: &mut Fnv64, op: &Op) {
    match op {
        Op::MallocHost { slot, size, kind } => {
            h.write_u8(0);
            h.write_u64(*slot as u64);
            h.write_u64(size.as_u64());
            h.write_u8(*kind as u8);
        }
        Op::MallocDevice { slot, size } => {
            h.write_u8(1);
            h.write_u64(*slot as u64);
            h.write_u64(size.as_u64());
        }
        Op::MallocManaged { slot, size } => {
            h.write_u8(2);
            h.write_u64(*slot as u64);
            h.write_u64(size.as_u64());
        }
        Op::H2D { dst, src, bytes } => {
            h.write_u8(3);
            h.write_u64(*dst as u64);
            h.write_u64(*src as u64);
            h.write_u64(bytes.as_u64());
        }
        Op::D2H { dst, src, bytes } => {
            h.write_u8(4);
            h.write_u64(*dst as u64);
            h.write_u64(*src as u64);
            h.write_u64(bytes.as_u64());
        }
        Op::D2D { dst, src, bytes } => {
            h.write_u8(5);
            h.write_u64(*dst as u64);
            h.write_u64(*src as u64);
            h.write_u64(bytes.as_u64());
        }
        Op::Launch {
            kernel,
            ket,
            managed,
            repeat,
        } => {
            h.write_u8(6);
            h.write_u32(*kernel);
            h.write_u64(ket.as_nanos());
            h.write_u32(*repeat);
            h.write_u64(managed.len() as u64);
            for slot in managed {
                h.write_u64(*slot as u64);
            }
        }
        Op::Sync => h.write_u8(7),
        Op::FreeDevice { slot } => {
            h.write_u8(8);
            h.write_u64(*slot as u64);
        }
        Op::FreeHost { slot } => {
            h.write_u8(9);
            h.write_u64(*slot as u64);
        }
        Op::FreeManaged { slot } => {
            h.write_u8(10);
            h.write_u64(*slot as u64);
        }
        Op::Crash { message } => {
            h.write_u8(11);
            h.write_str(message);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites;
    use hcc_types::{ByteSize, HostMemKind, SimDuration};

    fn toy(ket_us: u64) -> WorkloadSpec {
        WorkloadSpec::micro(
            "toy",
            vec![
                Op::MallocHost {
                    slot: 0,
                    size: ByteSize::mib(1),
                    kind: HostMemKind::Pageable,
                },
                Op::Launch {
                    kernel: 0,
                    ket: SimDuration::micros(ket_us),
                    managed: vec![],
                    repeat: 2,
                },
            ],
        )
    }

    #[test]
    fn hash_distinguishes_app_mode_and_seed() {
        let gemm_off = Scenario::standard("gemm", SimConfig::new(CcMode::Off));
        let gemm_on = Scenario::standard("gemm", SimConfig::new(CcMode::On));
        let atax_off = Scenario::standard("atax", SimConfig::new(CcMode::Off));
        let gemm_seeded = Scenario::standard("gemm", SimConfig::new(CcMode::Off).with_seed(1));
        let gemm_uvm = Scenario::uvm_variant("gemm", SimConfig::new(CcMode::Off));

        let hashes = [
            gemm_off.content_hash(),
            gemm_on.content_hash(),
            atax_off.content_hash(),
            gemm_seeded.content_hash(),
            gemm_uvm.content_hash(),
        ];
        for i in 0..hashes.len() {
            for j in i + 1..hashes.len() {
                assert_ne!(hashes[i], hashes[j], "{i} vs {j}");
            }
        }
        assert_eq!(gemm_off.content_hash(), gemm_off.clone().content_hash());
    }

    #[test]
    fn adhoc_hash_covers_the_program() {
        let a = Scenario::adhoc(toy(10), SimConfig::new(CcMode::Off));
        let b = Scenario::adhoc(toy(11), SimConfig::new(CcMode::Off));
        assert_ne!(a.content_hash(), b.content_hash());

        // An ad-hoc copy of a standard app does not alias the by-name key.
        let by_name = Scenario::standard("gemm", SimConfig::new(CcMode::Off));
        let inline = Scenario::adhoc(
            suites::by_name("gemm").unwrap(),
            SimConfig::new(CcMode::Off),
        );
        assert_ne!(by_name.content_hash(), inline.content_hash());
    }

    #[test]
    fn labels_and_resolution() {
        let s = Scenario::standard("gemm", SimConfig::new(CcMode::On));
        assert_eq!(s.label(), "gemm [cc]");

        let u = Scenario::uvm_variant("gemm", SimConfig::new(CcMode::Off));
        assert_eq!(u.label(), "gemm+uvm [base]");
    }
}
