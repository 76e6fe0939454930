//! Single-core software-crypto throughput model (paper Fig. 4b).
//!
//! The simulator charges encryption *time* from this table rather than from
//! the functional implementations in this crate: the paper's testbed uses
//! OpenSSL with AES-NI, whose rates a portable table-based AES cannot
//! reach. The table values reproduce Fig. 4b's ordering and the two rates
//! the paper states outright: AES-GCM at 3.36 GB/s and GHASH at up to
//! 8.9 GB/s on the Emerald Rapids core.

use hcc_types::{Bandwidth, ByteSize, CpuModel, SimDuration};

/// Cryptographic primitives compared in the transfer-path study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CryptoAlgorithm {
    /// AES-GCM with a 128-bit key — the cipher NVIDIA CC actually uses.
    AesGcm128,
    /// AES-GCM with a 256-bit key.
    AesGcm256,
    /// GHASH/GMAC only (integrity without confidentiality).
    Ghash,
    /// AES-XTS-128 (counter-less; what TME-MK uses for DRAM).
    AesXts128,
    /// AES-CTR-128 (confidentiality without integrity).
    AesCtr128,
    /// ChaCha20-Poly1305 (non-AES AEAD comparator).
    ChaCha20Poly1305,
}

impl CryptoAlgorithm {
    /// Algorithms in the order Fig. 4b groups them.
    pub const ALL: [CryptoAlgorithm; 6] = [
        CryptoAlgorithm::AesGcm128,
        CryptoAlgorithm::AesGcm256,
        CryptoAlgorithm::Ghash,
        CryptoAlgorithm::AesXts128,
        CryptoAlgorithm::AesCtr128,
        CryptoAlgorithm::ChaCha20Poly1305,
    ];
}

impl std::fmt::Display for CryptoAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CryptoAlgorithm::AesGcm128 => "AES-GCM-128",
            CryptoAlgorithm::AesGcm256 => "AES-GCM-256",
            CryptoAlgorithm::Ghash => "GHASH",
            CryptoAlgorithm::AesXts128 => "AES-XTS-128",
            CryptoAlgorithm::AesCtr128 => "AES-CTR-128",
            CryptoAlgorithm::ChaCha20Poly1305 => "ChaCha20-Poly1305",
        };
        f.write_str(s)
    }
}

/// Calibrated single-core throughput of software crypto on a given CPU.
///
/// ```
/// use hcc_crypto::{CryptoAlgorithm, SoftCryptoModel};
/// use hcc_types::{ByteSize, CpuModel};
///
/// let emr = SoftCryptoModel::new(CpuModel::EmeraldRapids);
/// let gcm = emr.throughput(CryptoAlgorithm::AesGcm128);
/// assert!((gcm.as_gb_per_s() - 3.36).abs() < 1e-9);
/// let t = emr.time_for(CryptoAlgorithm::AesGcm128, ByteSize::mib(64));
/// assert!(t.as_millis_f64() > 19.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftCryptoModel {
    cpu: CpuModel,
}

impl SoftCryptoModel {
    /// Creates the model for one CPU.
    pub fn new(cpu: CpuModel) -> Self {
        SoftCryptoModel { cpu }
    }

    /// Calibrated single-core throughput for `alg` (decimal GB/s inside).
    pub fn throughput(self, alg: CryptoAlgorithm) -> Bandwidth {
        use CryptoAlgorithm::*;
        let gbs = match (self.cpu, alg) {
            // Paper-stated values (Fig. 4b / Sec. VI-A).
            (CpuModel::EmeraldRapids, AesGcm128) => 3.36,
            (CpuModel::EmeraldRapids, Ghash) => 8.9,
            // Remaining rates preserve Fig. 4b's ordering:
            // GHASH > XTS > CTR > GCM-128 > GCM-256 > ChaCha (on x86).
            (CpuModel::EmeraldRapids, AesGcm256) => 2.98,
            (CpuModel::EmeraldRapids, AesXts128) => 6.1,
            (CpuModel::EmeraldRapids, AesCtr128) => 5.3,
            (CpuModel::EmeraldRapids, ChaCha20Poly1305) => 2.4,
            (CpuModel::Grace, AesGcm128) => 2.88,
            (CpuModel::Grace, AesGcm256) => 2.57,
            (CpuModel::Grace, Ghash) => 7.3,
            (CpuModel::Grace, AesXts128) => 5.0,
            (CpuModel::Grace, AesCtr128) => 4.4,
            (CpuModel::Grace, ChaCha20Poly1305) => 3.1,
        };
        Bandwidth::gb_per_s(gbs)
    }

    /// Time for one core to process `size` bytes with `alg`, including a
    /// small fixed per-call setup (key schedule / IV handling).
    pub fn time_for(self, alg: CryptoAlgorithm, size: ByteSize) -> SimDuration {
        if size.is_zero() {
            return SimDuration::ZERO;
        }
        Self::call_setup() + self.throughput(alg).time_for(size)
    }

    /// Time with `workers` cooperating cores, modelling the multi-threaded
    /// runtime-library optimization of Tan et al. (Sec. VIII). Scaling is
    /// sub-linear (synchronization tax of 8 % per extra worker, capped).
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn time_for_parallel(
        self,
        alg: CryptoAlgorithm,
        size: ByteSize,
        workers: u32,
    ) -> SimDuration {
        assert!(workers > 0, "need at least one crypto worker");
        if size.is_zero() {
            return SimDuration::ZERO;
        }
        let raw_speedup = workers as f64;
        let efficiency = 1.0 / (1.0 + 0.08 * (workers as f64 - 1.0));
        let speedup = (raw_speedup * efficiency).max(1.0);
        Self::call_setup() + self.throughput(alg).scale(speedup).time_for(size)
    }

    /// Fixed per-invocation overhead.
    fn call_setup() -> SimDuration {
        SimDuration::from_nanos(600)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_stated_rates_are_exact() {
        let emr = SoftCryptoModel::new(CpuModel::EmeraldRapids);
        assert_eq!(
            emr.throughput(CryptoAlgorithm::AesGcm128).as_gb_per_s(),
            3.36
        );
        assert_eq!(emr.throughput(CryptoAlgorithm::Ghash).as_gb_per_s(), 8.9);
    }

    #[test]
    fn ghash_beats_gcm_on_both_cpus() {
        for cpu in CpuModel::ALL {
            let m = SoftCryptoModel::new(cpu);
            assert!(
                m.throughput(CryptoAlgorithm::Ghash) > m.throughput(CryptoAlgorithm::AesGcm128),
                "{cpu}"
            );
        }
    }

    #[test]
    fn stronger_security_costs_throughput() {
        let m = SoftCryptoModel::new(CpuModel::EmeraldRapids);
        // Integrity-only > confidentiality-only > AEAD.
        assert!(m.throughput(CryptoAlgorithm::Ghash) > m.throughput(CryptoAlgorithm::AesCtr128));
        assert!(
            m.throughput(CryptoAlgorithm::AesCtr128) > m.throughput(CryptoAlgorithm::AesGcm128)
        );
        assert!(
            m.throughput(CryptoAlgorithm::AesGcm128) > m.throughput(CryptoAlgorithm::AesGcm256)
        );
    }

    #[test]
    fn time_scales_with_size() {
        let m = SoftCryptoModel::new(CpuModel::EmeraldRapids);
        let t1 = m.time_for(CryptoAlgorithm::AesGcm128, ByteSize::mib(1));
        let t64 = m.time_for(CryptoAlgorithm::AesGcm128, ByteSize::mib(64));
        let ratio = t64 / t1;
        assert!(ratio > 55.0 && ratio < 65.0, "ratio {ratio}");
        assert_eq!(
            m.time_for(CryptoAlgorithm::AesGcm128, ByteSize::ZERO),
            SimDuration::ZERO
        );
    }

    #[test]
    fn parallel_workers_speed_up_sublinearly() {
        let m = SoftCryptoModel::new(CpuModel::EmeraldRapids);
        let size = ByteSize::mib(256);
        let t1 = m.time_for_parallel(CryptoAlgorithm::AesGcm128, size, 1);
        let t4 = m.time_for_parallel(CryptoAlgorithm::AesGcm128, size, 4);
        let speedup = t1 / t4;
        assert!(speedup > 2.5 && speedup < 4.0, "speedup {speedup}");
        assert_eq!(t1, m.time_for(CryptoAlgorithm::AesGcm128, size));
    }

    #[test]
    #[should_panic(expected = "at least one crypto worker")]
    fn zero_workers_panics() {
        let m = SoftCryptoModel::new(CpuModel::Grace);
        let _ = m.time_for_parallel(CryptoAlgorithm::AesGcm128, ByteSize::mib(1), 0);
    }
}
