//! AES-GCM authenticated encryption (NIST SP 800-38D), the cipher NVIDIA
//! CC uses on the CPU↔GPU PCIe path (paper Sec. II-A / III).

use crate::aes::{Aes, InvalidKeyLength};
use crate::ctr::{ctr_xor, inc32};
use crate::ghash::Ghash;

/// Length of the authentication tag in bytes.
pub const TAG_LEN: usize = 16;
/// Recommended nonce length in bytes (96 bits).
pub const NONCE_LEN: usize = 12;

/// Errors from AES-GCM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GcmError {
    /// Key was not 16 or 32 bytes.
    InvalidKey(usize),
    /// Authentication tag did not verify; the ciphertext or AAD was
    /// tampered with (or the wrong key/nonce was used).
    TagMismatch,
}

impl std::fmt::Display for GcmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GcmError::InvalidKey(n) => write!(f, "invalid AES-GCM key length {n}"),
            GcmError::TagMismatch => f.write_str("authentication tag mismatch"),
        }
    }
}

impl std::error::Error for GcmError {}

impl From<InvalidKeyLength> for GcmError {
    fn from(e: InvalidKeyLength) -> Self {
        GcmError::InvalidKey(e.0)
    }
}

/// An AES-GCM cipher instance bound to one key.
///
/// ```
/// # fn main() -> Result<(), hcc_crypto::gcm::GcmError> {
/// use hcc_crypto::gcm::AesGcm;
///
/// let gcm = AesGcm::new(&[0x42; 16])?;
/// let nonce = [0u8; 12];
/// let mut buf = b"bounce buffer payload".to_vec();
/// let tag = gcm.encrypt(&nonce, b"dma-metadata", &mut buf);
/// gcm.decrypt(&nonce, b"dma-metadata", &mut buf, &tag)?;
/// assert_eq!(buf, b"bounce buffer payload");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AesGcm {
    aes: Aes,
    h: [u8; 16],
}

impl AesGcm {
    /// Builds a GCM instance from a 16- or 32-byte key.
    ///
    /// # Errors
    /// Returns [`GcmError::InvalidKey`] for other key lengths.
    pub fn new(key: &[u8]) -> Result<Self, GcmError> {
        let aes = Aes::new(key)?;
        let mut h = [0u8; 16];
        aes.encrypt_block(&mut h);
        Ok(AesGcm { aes, h })
    }

    /// Derives the pre-counter block `J0` from a nonce of any length.
    fn j0(&self, nonce: &[u8]) -> [u8; 16] {
        if nonce.len() == NONCE_LEN {
            let mut j0 = [0u8; 16];
            j0[..NONCE_LEN].copy_from_slice(nonce);
            j0[15] = 1;
            j0
        } else {
            let mut g = Ghash::new(&self.h);
            g.update(nonce);
            g.pad();
            let mut len_block = [0u8; 16];
            len_block[8..].copy_from_slice(&((nonce.len() as u64) * 8).to_be_bytes());
            g.update(&len_block);
            g.current()
        }
    }

    /// Encrypts `data` in place and returns the 16-byte authentication tag
    /// over `aad || ciphertext`.
    pub fn encrypt(&self, nonce: &[u8], aad: &[u8], data: &mut [u8]) -> [u8; 16] {
        let j0 = self.j0(nonce);
        let mut ctr = j0;
        inc32(&mut ctr);
        ctr_xor(&self.aes, ctr, data);
        self.tag(&j0, aad, data)
    }

    /// Verifies `tag` and decrypts `data` in place.
    ///
    /// # Errors
    /// Returns [`GcmError::TagMismatch`] — and leaves `data` undecrypted —
    /// when authentication fails.
    pub fn decrypt(
        &self,
        nonce: &[u8],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8; 16],
    ) -> Result<(), GcmError> {
        let j0 = self.j0(nonce);
        let expected = self.tag(&j0, aad, data);
        // Constant-time-ish comparison (full traversal regardless of match).
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(tag.iter()) {
            diff |= a ^ b;
        }
        if diff != 0 {
            return Err(GcmError::TagMismatch);
        }
        let mut ctr = j0;
        inc32(&mut ctr);
        ctr_xor(&self.aes, ctr, data);
        Ok(())
    }

    /// Computes the GCM tag for `aad` and ciphertext `ct` under counter
    /// block `j0`.
    fn tag(&self, j0: &[u8; 16], aad: &[u8], ct: &[u8]) -> [u8; 16] {
        let mut g = Ghash::new(&self.h);
        g.update(aad);
        g.pad();
        g.update(ct);
        let mut s = g.finalize(aad.len() as u64, ct.len() as u64);
        let mut ek_j0 = *j0;
        self.aes.encrypt_block(&mut ek_j0);
        for (s_b, k_b) in s.iter_mut().zip(ek_j0.iter()) {
            *s_b ^= k_b;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// McGrew–Viega GCM spec, test case 1: empty plaintext, zero key/IV.
    #[test]
    fn gcm_test_case_1() {
        let gcm = AesGcm::new(&[0u8; 16]).unwrap();
        let mut data = [0u8; 0];
        let tag = gcm.encrypt(&[0u8; 12], &[], &mut data);
        assert_eq!(tag.to_vec(), hex("58e2fccefa7e3061367f1d57a4e7455a"));
    }

    /// Test case 2: one zero block.
    #[test]
    fn gcm_test_case_2() {
        let gcm = AesGcm::new(&[0u8; 16]).unwrap();
        let mut data = [0u8; 16];
        let tag = gcm.encrypt(&[0u8; 12], &[], &mut data);
        assert_eq!(data.to_vec(), hex("0388dace60b6a392f328c2b971b2fe78"));
        assert_eq!(tag.to_vec(), hex("ab6e47d42cec13bdf53a67b21257bddf"));
    }

    /// Test case 3: 4-block plaintext, 96-bit IV.
    #[test]
    fn gcm_test_case_3() {
        let key = hex("feffe9928665731c6d6a8f9467308308");
        let gcm = AesGcm::new(&key).unwrap();
        let iv = hex("cafebabefacedbaddecaf888");
        let mut data = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        let tag = gcm.encrypt(&iv, &[], &mut data);
        assert_eq!(
            data,
            hex(
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
            )
        );
        assert_eq!(tag.to_vec(), hex("4d5c2af327cd64a62cf35abd2ba6fab4"));
    }

    /// Test case 4: with AAD and a partial final block.
    #[test]
    fn gcm_test_case_4() {
        let key = hex("feffe9928665731c6d6a8f9467308308");
        let gcm = AesGcm::new(&key).unwrap();
        let iv = hex("cafebabefacedbaddecaf888");
        let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let mut data = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let tag = gcm.encrypt(&iv, &aad, &mut data);
        assert_eq!(
            data,
            hex(
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
            )
        );
        assert_eq!(tag.to_vec(), hex("5bc94fbc3221a5db94fae95ae7121a47"));
    }

    #[test]
    fn aes256_gcm_roundtrip() {
        let gcm = AesGcm::new(&[0x11u8; 32]).unwrap();
        let mut data = b"confidential tensor shard".to_vec();
        let tag = gcm.encrypt(&[3u8; 12], b"hdr", &mut data);
        assert_ne!(data, b"confidential tensor shard".to_vec());
        gcm.decrypt(&[3u8; 12], b"hdr", &mut data, &tag).unwrap();
        assert_eq!(data, b"confidential tensor shard".to_vec());
    }

    #[test]
    fn tampered_ciphertext_rejected_without_decrypting() {
        let gcm = AesGcm::new(&[0x22u8; 16]).unwrap();
        let mut data = b"payload".to_vec();
        let tag = gcm.encrypt(&[1u8; 12], &[], &mut data);
        let ct_snapshot = data.clone();
        data[0] ^= 1;
        let err = gcm.decrypt(&[1u8; 12], &[], &mut data, &tag).unwrap_err();
        assert_eq!(err, GcmError::TagMismatch);
        // Buffer left as the (tampered) ciphertext, not half-decrypted.
        let mut expected = ct_snapshot;
        expected[0] ^= 1;
        assert_eq!(data, expected);
    }

    #[test]
    fn tampered_aad_rejected() {
        let gcm = AesGcm::new(&[0x22u8; 16]).unwrap();
        let mut data = b"payload".to_vec();
        let tag = gcm.encrypt(&[1u8; 12], b"aad-v1", &mut data);
        assert_eq!(
            gcm.decrypt(&[1u8; 12], b"aad-v2", &mut data, &tag),
            Err(GcmError::TagMismatch)
        );
    }

    #[test]
    fn non_96_bit_nonce_supported() {
        let gcm = AesGcm::new(&[0x33u8; 16]).unwrap();
        let nonce = [0xAB; 20];
        let mut data = b"odd nonce payload".to_vec();
        let tag = gcm.encrypt(&nonce, &[], &mut data);
        gcm.decrypt(&nonce, &[], &mut data, &tag).unwrap();
        assert_eq!(data, b"odd nonce payload".to_vec());
    }
}
