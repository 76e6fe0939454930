//! # hcc-crypto
//!
//! From-scratch implementations of every cipher the paper's confidential-
//! computing data path touches, plus the calibrated single-core throughput
//! model used by the simulators (Fig. 4b):
//!
//! * [`aes`] — AES-128/256 block cipher (FIPS-197 verified),
//! * [`gcm`] — AES-GCM AEAD, the cipher on the CC PCIe path,
//! * [`ghash`] — the GF(2^128) universal hash underneath GCM,
//! * [`ctr`] — AES-CTR keystream (GCM's inner mode),
//! * [`xts`] — AES-XTS, the counter-less mode Intel TME-MK uses for DRAM,
//! * [`chacha`] — ChaCha20-Poly1305 as the non-AES comparator,
//! * [`SoftCryptoModel`] — calibrated GB/s per (CPU, algorithm), anchored
//!   to the paper's stated 3.36 GB/s AES-GCM and 8.9 GB/s GHASH ceilings.
//!
//! The functional ciphers prove the CC data path end-to-end (ciphertext
//! really round-trips through the bounce buffer into device memory); the
//! *time* the simulator charges always comes from the throughput model.
//!
//! ```
//! # fn main() -> Result<(), hcc_crypto::gcm::GcmError> {
//! use hcc_crypto::gcm::AesGcm;
//! use hcc_crypto::{measure_functional, CryptoAlgorithm, SoftCryptoModel};
//! use hcc_types::{ByteSize, CpuModel};
//!
//! // Functional path.
//! let gcm = AesGcm::new(&[7u8; 16])?;
//! let mut payload = vec![0u8; 4096];
//! let tag = gcm.encrypt(&[0u8; 12], &[], &mut payload);
//! gcm.decrypt(&[0u8; 12], &[], &mut payload, &tag)?;
//!
//! // Modelled time.
//! let model = SoftCryptoModel::new(CpuModel::EmeraldRapids);
//! let t = model.time_for(CryptoAlgorithm::AesGcm128, ByteSize::mib(1));
//! assert!(t.as_micros_f64() > 290.0);
//! # let _ = measure_functional;
//! # Ok(())
//! # }
//! ```

pub mod aes;
pub mod chacha;
pub mod ctr;
pub mod gcm;
pub mod ghash;
mod model;

pub use model::{CryptoAlgorithm, SoftCryptoModel};

use hcc_types::Bandwidth;

/// Measures the *wall-clock* throughput of this crate's functional
/// implementation of `alg` over a `buf_len`-byte buffer, repeated `iters`
/// times.
///
/// This is the "functional" column of the Fig. 4b harness — it demonstrates
/// the expected *ordering* (GHASH > CTR > GCM) even though a portable Rust
/// implementation is far below AES-NI rates. Returns `None` when the
/// elapsed time is too small to measure.
///
/// # Panics
/// Panics if `buf_len` or `iters` is zero.
pub fn measure_functional(alg: CryptoAlgorithm, buf_len: usize, iters: u32) -> Option<Bandwidth> {
    assert!(buf_len > 0 && iters > 0, "need non-empty work");
    let mut buf = vec![0xA5u8; buf_len];
    let start = std::time::Instant::now();
    match alg {
        CryptoAlgorithm::AesGcm128 => {
            let gcm = gcm::AesGcm::new(&[0x01; 16]).expect("16-byte key");
            for i in 0..iters {
                let mut nonce = [0u8; 12];
                nonce[..4].copy_from_slice(&i.to_be_bytes());
                let _ = gcm.encrypt(&nonce, &[], &mut buf);
            }
        }
        CryptoAlgorithm::AesGcm256 => {
            let gcm = gcm::AesGcm::new(&[0x02; 32]).expect("32-byte key");
            for i in 0..iters {
                let mut nonce = [0u8; 12];
                nonce[..4].copy_from_slice(&i.to_be_bytes());
                let _ = gcm.encrypt(&nonce, &[], &mut buf);
            }
        }
        CryptoAlgorithm::Ghash => {
            let mut h = [0u8; 16];
            let aes = aes::Aes::new(&[0x03; 16]).expect("16-byte key");
            aes.encrypt_block(&mut h);
            for _ in 0..iters {
                let mut g = ghash::Ghash::new(&h);
                g.update(&buf);
                std::hint::black_box(g.finalize(0, buf_len as u64));
            }
        }
        CryptoAlgorithm::AesXts128 => {
            let xts = xts::AesXts::new(&[0x04; 16], &[0x05; 16]).expect("valid keys");
            let sector_len = buf_len - buf_len % 16;
            for i in 0..iters {
                xts.encrypt_sector(u64::from(i), &mut buf[..sector_len])
                    .expect("full blocks");
            }
        }
        CryptoAlgorithm::AesCtr128 => {
            let aes = aes::Aes::new(&[0x06; 16]).expect("16-byte key");
            for i in 0..iters {
                let mut counter = [0u8; 16];
                counter[..4].copy_from_slice(&i.to_be_bytes());
                ctr::ctr_xor(&aes, counter, &mut buf);
            }
        }
        CryptoAlgorithm::ChaCha20Poly1305 => {
            let aead = chacha::ChaChaPoly::new([0x07; 32]);
            for i in 0..iters {
                let mut nonce = [0u8; 12];
                nonce[..4].copy_from_slice(&i.to_be_bytes());
                let _ = aead.encrypt(&nonce, &[], &mut buf);
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(&buf);
    let total_bytes = buf_len as f64 * f64::from(iters);
    if elapsed <= 0.0 {
        return None;
    }
    Bandwidth::try_gb_per_s(total_bytes / elapsed / 1e9).ok()
}

pub mod xts;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_measurement_produces_a_rate() {
        let bw =
            measure_functional(CryptoAlgorithm::AesCtr128, 16 * 1024, 4).expect("measurable rate");
        assert!(bw.as_gb_per_s() > 0.0);
    }

    #[test]
    fn ghash_measures_faster_than_gcm_functionally() {
        // GHASH does one field-multiply per block; GCM adds a full AES
        // encryption — the functional ordering must match Fig. 4b.
        let ghash = measure_functional(CryptoAlgorithm::Ghash, 64 * 1024, 8).unwrap();
        let gcm = measure_functional(CryptoAlgorithm::AesGcm128, 64 * 1024, 8).unwrap();
        assert!(
            ghash.as_gb_per_s() > gcm.as_gb_per_s(),
            "ghash {ghash} vs gcm {gcm}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use hcc_check::strategy::{byte_arrays, bytes, u64s, u8s, usizes, vecs};
    use hcc_check::{ensure_eq, ensure_ne, forall, Config};

    #[test]
    fn gcm_roundtrip_is_identity() {
        forall!(
            Config::new(0xC4_0001),
            (key, nonce, aad, data) in (
                byte_arrays::<16>(),
                byte_arrays::<12>(),
                vecs(bytes(), 0..64),
                vecs(bytes(), 0..512),
            ) => {
                let mut data = data;
                let original = data.clone();
                let gcm = gcm::AesGcm::new(&key).unwrap();
                let tag = gcm.encrypt(&nonce, &aad, &mut data);
                gcm.decrypt(&nonce, &aad, &mut data, &tag).unwrap();
                ensure_eq!(data, original);
            }
        );
    }

    #[test]
    fn gcm_detects_any_single_bitflip() {
        forall!(
            Config::new(0xC4_0002),
            (data, flip_byte_seed, flip_bit) in (
                vecs(bytes(), 1..256),
                usizes(0..usize::MAX),
                u8s(0..8),
            ) => {
                let mut data = data;
                let gcm = gcm::AesGcm::new(&[0x55; 16]).unwrap();
                let tag = gcm.encrypt(&[1u8; 12], &[], &mut data);
                let idx = flip_byte_seed % data.len();
                data[idx] ^= 1 << flip_bit;
                ensure_eq!(
                    gcm.decrypt(&[1u8; 12], &[], &mut data, &tag),
                    Err(gcm::GcmError::TagMismatch)
                );
            }
        );
    }

    #[test]
    fn xts_roundtrip_is_identity() {
        forall!(
            Config::new(0xC4_0003),
            (sector, blocks, seed) in (
                u64s(0..u64::MAX),
                usizes(1..16),
                u8s(0..255),
            ) => {
                let xts = xts::AesXts::new(&[9u8; 16], &[8u8; 16]).unwrap();
                let mut data: Vec<u8> =
                    (0..blocks * 16).map(|i| seed.wrapping_add(i as u8)).collect();
                let original = data.clone();
                xts.encrypt_sector(sector, &mut data).unwrap();
                ensure_ne!(&data, &original);
                xts.decrypt_sector(sector, &mut data).unwrap();
                ensure_eq!(data, original);
            }
        );
    }

    #[test]
    fn chacha_roundtrip_is_identity() {
        forall!(
            Config::new(0xC4_0004),
            (key, data) in (byte_arrays::<32>(), vecs(bytes(), 0..512)) => {
                let mut data = data;
                let original = data.clone();
                let aead = chacha::ChaChaPoly::new(key);
                let tag = aead.encrypt(&[2u8; 12], b"aad", &mut data);
                aead.decrypt(&[2u8; 12], b"aad", &mut data, &tag).unwrap();
                ensure_eq!(data, original);
            }
        );
    }

    #[test]
    fn ctr_double_application_is_identity() {
        forall!(
            Config::new(0xC4_0005),
            (key, data) in (byte_arrays::<32>(), vecs(bytes(), 0..256)) => {
                let mut data = data;
                let aes = aes::Aes::new(&key).unwrap();
                let original = data.clone();
                ctr::ctr_xor(&aes, [3u8; 16], &mut data);
                ctr::ctr_xor(&aes, [3u8; 16], &mut data);
                ensure_eq!(data, original);
            }
        );
    }

    #[test]
    fn aes_block_roundtrip() {
        forall!(
            Config::new(0xC4_0006),
            (key, block) in (byte_arrays::<16>(), byte_arrays::<16>()) => {
                let aes = aes::Aes::new(&key).unwrap();
                let mut b = block;
                aes.encrypt_block(&mut b);
                aes.decrypt_block(&mut b);
                ensure_eq!(b, block);
            }
        );
    }
}
