//! Simulation configuration for a [`crate::CudaContext`].

use std::sync::{Arc, OnceLock};

use hcc_types::calib::Calibration;
use hcc_types::{ByteSize, CcMode, CpuModel, FaultPlan, Planes, RecoveryPolicy};

/// Configuration of one simulated guest + GPU pairing.
///
/// `SimConfig::new(cc)` gives the paper's Table-I setup in the chosen
/// mode; builder methods adjust individual knobs for ablations.
///
/// ```
/// use hcc_runtime::SimConfig;
/// use hcc_types::CcMode;
///
/// let cfg = SimConfig::new(CcMode::On).with_seed(7).with_crypto_workers(4);
/// assert!(cfg.cc.is_on());
/// assert_eq!(cfg.crypto_workers, 4);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Confidential-computing mode.
    pub cc: CcMode,
    /// Calibration tables (defaults to the paper's), shared rather than
    /// copied between clones; read through [`SimConfig::calib`].
    calib: Arc<Calibration>,
    /// `calib.fingerprint()`, taken once when the tables are installed.
    calib_fp: u64,
    /// RNG seed; identical seeds reproduce identical traces.
    pub seed: u64,
    /// CPU whose software-crypto rates apply (Table I: Emerald Rapids).
    pub cpu: CpuModel,
    /// Worker threads for transfer encryption (1 = stock NVIDIA CC; >1 =
    /// the multi-threaded runtime optimization of Sec. VIII).
    pub crypto_workers: u32,
    /// GPU HBM capacity (Table I: 94 GB H100 NVL).
    pub hbm: ByteSize,
    /// Charge the SPDM attestation handshake (Sec. III) at context
    /// creation. Off by default: the paper's steady-state figures exclude
    /// session establishment; enable it to study cold starts.
    pub attest_at_creation: bool,
    /// Deterministic fault-injection plan. Empty by default: no faults,
    /// no RNG draws, no behaviour change on the happy path.
    pub fault: FaultPlan,
    /// How the runtime answers injected faults.
    pub recovery: RecoveryPolicy,
    /// Enabled observability planes ([`Planes::METRICS`], [`Planes::CAUSAL`]).
    /// All off by default: instruments record nothing and the simulated
    /// trace is bit-identical either way — planes only observe, they never
    /// draw RNG or shift a clock. The metrics plane drives queue/occupancy
    /// gauges across GPU, TEE, UVM and runtime; the causal plane links
    /// emitted events into a typed dependency DAG.
    pub planes: Planes,
}

impl SimConfig {
    /// The paper's configuration in the given mode.
    #[must_use]
    pub fn new(cc: CcMode) -> Self {
        static PAPER: OnceLock<(Arc<Calibration>, u64)> = OnceLock::new();
        let (calib, calib_fp) = PAPER.get_or_init(|| {
            let calib = Calibration::paper();
            let fp = calib.fingerprint();
            (Arc::new(calib), fp)
        });
        SimConfig {
            cc,
            calib: Arc::clone(calib),
            calib_fp: *calib_fp,
            seed: 0x5EED_CAFE,
            cpu: CpuModel::EmeraldRapids,
            crypto_workers: 1,
            hbm: ByteSize::gib(94),
            attest_at_creation: false,
            fault: FaultPlan::none(),
            recovery: RecoveryPolicy::default_retry(),
            planes: Planes::NONE,
        }
    }

    /// Enables (or disables) the virtual-time metrics plane.
    #[must_use]
    pub fn with_metrics(mut self, enabled: bool) -> Self {
        self.planes = self.planes.set(Planes::METRICS, enabled);
        self
    }

    /// Enables (or disables) causal-edge collection.
    #[must_use]
    pub fn with_causal(mut self, enabled: bool) -> Self {
        self.planes = self.planes.set(Planes::CAUSAL, enabled);
        self
    }

    /// Whether the virtual-time metrics plane is enabled.
    #[must_use]
    pub(crate) fn metrics_enabled(&self) -> bool {
        self.planes.contains(Planes::METRICS)
    }

    /// Whether causal-edge collection is enabled.
    #[must_use]
    pub(crate) fn causal_enabled(&self) -> bool {
        self.planes.contains(Planes::CAUSAL)
    }

    /// Installs a fault-injection plan.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Sets the recovery policy answering injected faults.
    #[must_use]
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Replaces the calibration bundle, fingerprinting it once.
    #[must_use]
    pub fn with_calib(mut self, calib: Calibration) -> Self {
        self.calib_fp = calib.fingerprint();
        self.calib = Arc::new(calib);
        self
    }

    /// The calibration tables in effect.
    #[must_use]
    pub fn calib(&self) -> &Calibration {
        &self.calib
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the crypto worker count.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn with_crypto_workers(mut self, workers: u32) -> Self {
        assert!(workers > 0, "need at least one crypto worker");
        self.crypto_workers = workers;
        self
    }

    /// Enables cold-start modeling: the SPDM attestation handshake is
    /// charged when the context is created.
    #[must_use]
    pub fn with_attestation(mut self) -> Self {
        self.attest_at_creation = true;
        self
    }

    /// Stable content hash over every field that can change a simulation's
    /// outcome: seed, mode, CPU, crypto workers, HBM capacity, the
    /// attestation flag, and the full calibration fingerprint (taken when
    /// the tables were installed, not per call).
    ///
    /// Two configs with equal hashes are behaviourally identical to the
    /// simulator; the experiment engine uses this as (part of) its
    /// memoization key, so no knob may be left out — a silently aliased
    /// field would let the cache return results from a different
    /// configuration.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut h = hcc_types::hash::Fnv64::new();
        h.write_u8(self.cc as u8);
        h.write_u64(self.seed);
        h.write_u8(self.cpu as u8);
        h.write_u32(self.crypto_workers);
        h.write_u64(self.hbm.as_u64());
        h.write_bool(self.attest_at_creation);
        h.write_u64(self.calib_fp);
        h.write_u64(self.fault.fingerprint());
        h.write_u64(self.recovery.fingerprint());
        // The metrics plane cannot change the simulated trace, but it does
        // change what a cached result carries (the snapshot), so obs-on
        // and obs-off runs must not share a memoization entry. Written as
        // individual bools (not the raw mask) to keep the byte stream —
        // and therefore every memoized key — identical to the pre-Planes
        // two-field layout.
        h.write_bool(self.metrics_enabled());
        // Same aliasing argument for the causal plane: it never changes the
        // trace, but it changes whether a cached result carries a graph.
        h.write_bool(self.causal_enabled());
        h.finish()
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::new(CcMode::Off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.cc, CcMode::Off);
        assert_eq!(cfg.cpu, CpuModel::EmeraldRapids);
        assert_eq!(cfg.hbm, ByteSize::gib(94));
        assert_eq!(cfg.crypto_workers, 1);
    }

    #[test]
    #[should_panic(expected = "at least one crypto worker")]
    fn zero_workers_rejected() {
        let _ = SimConfig::default().with_crypto_workers(0);
    }

    #[test]
    fn content_hash_is_stable_and_covers_every_knob() {
        let base = SimConfig::new(CcMode::On).with_seed(7);
        assert_eq!(base.content_hash(), base.clone().content_hash());

        let variants = [
            SimConfig::new(CcMode::Off).with_seed(7),
            SimConfig::new(CcMode::On).with_seed(8),
            SimConfig::new(CcMode::On)
                .with_seed(7)
                .with_crypto_workers(4),
            SimConfig {
                cpu: CpuModel::Grace,
                ..SimConfig::new(CcMode::On).with_seed(7)
            },
            SimConfig::new(CcMode::On).with_seed(7).with_attestation(),
            SimConfig::new(CcMode::On)
                .with_seed(7)
                .with_fault_plan(FaultPlan::uniform(3, 0.25)),
            SimConfig::new(CcMode::On)
                .with_seed(7)
                .with_recovery(RecoveryPolicy::Abort),
            SimConfig::new(CcMode::On).with_seed(7).with_metrics(true),
            SimConfig::new(CcMode::On).with_seed(7).with_causal(true),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base.content_hash(), v.content_hash(), "variant {i}");
        }

        let mut hbm = SimConfig::new(CcMode::On).with_seed(7);
        hbm.hbm = ByteSize::gib(40);
        assert_ne!(base.content_hash(), hbm.content_hash());

        let mut calib = Calibration::paper();
        calib.tdx.hypercall_mult = 2.0;
        let recal = SimConfig::new(CcMode::On).with_seed(7).with_calib(calib);
        assert_ne!(base.content_hash(), recal.content_hash());

        // Spelling out the defaults explicitly must not change the hash.
        let explicit = SimConfig::new(CcMode::On)
            .with_seed(7)
            .with_fault_plan(FaultPlan::none())
            .with_recovery(RecoveryPolicy::default_retry());
        assert_eq!(base.content_hash(), explicit.content_hash());
    }

    /// The memoized fingerprint is the one a fresh fingerprint of the
    /// installed tables gives: the shared paper table hashes as an
    /// installed copy of it, and every perturbation of
    /// `Calibration`'s own fingerprint test moves the content hash.
    #[test]
    fn content_hash_reads_the_installed_calibration() {
        let paper = SimConfig::new(CcMode::On);
        let installed = SimConfig::new(CcMode::On).with_calib(Calibration::paper());
        assert_eq!(paper.content_hash(), installed.content_hash());
        assert_eq!(paper.calib_fp, paper.calib().fingerprint());

        let tweaks: [fn(&mut Calibration); 6] = [
            |c| c.pcie.dma_setup += hcc_types::SimDuration::from_nanos(1),
            |c| c.tdx.hypercall_mult *= 1.25,
            |c| c.alloc.jitter_frac *= 1.5,
            |c| c.launch.klo_base += hcc_types::SimDuration::from_nanos(1),
            |c| c.gpu.ring_depth += 1,
            |c| c.uvm.prefetch = !c.uvm.prefetch,
        ];
        for (i, tweak) in tweaks.iter().enumerate() {
            let mut calib = Calibration::paper();
            tweak(&mut calib);
            let fp = calib.fingerprint();
            let tweaked = SimConfig::new(CcMode::On).with_calib(calib);
            assert_eq!(tweaked.calib_fp, fp, "tweak {i}");
            assert_ne!(paper.content_hash(), tweaked.content_hash(), "tweak {i}");
        }
    }

    #[test]
    fn plane_builders_and_mask_agree() {
        let via_bools = SimConfig::default().with_metrics(true).with_causal(true);
        let via_mask = SimConfig {
            planes: Planes::METRICS | Planes::CAUSAL,
            ..SimConfig::default()
        };
        assert!(via_bools.metrics_enabled() && via_bools.causal_enabled());
        assert_eq!(via_bools.planes, via_mask.planes);
        assert_eq!(via_bools.content_hash(), via_mask.content_hash());

        let cleared = via_mask.with_metrics(false);
        assert!(!cleared.metrics_enabled());
        assert!(cleared.causal_enabled());
        assert_eq!(cleared.planes, Planes::CAUSAL);
    }
}
