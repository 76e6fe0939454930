//! ChaCha20-Poly1305 AEAD (RFC 8439) — included as the non-AES comparator
//! in the crypto-throughput study (Fig. 4b's "different crypto choices").

/// Errors from ChaCha20-Poly1305 operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChaChaError {
    /// Authentication tag did not verify.
    TagMismatch,
}

impl std::fmt::Display for ChaChaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaChaError::TagMismatch => f.write_str("poly1305 tag mismatch"),
        }
    }
}

impl std::error::Error for ChaChaError {}

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Produces one 64-byte ChaCha20 keystream block.
fn chacha20_block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    let mut state = [0u32; 16];
    state[0] = 0x6170_7865;
    state[1] = 0x3320_646e;
    state[2] = 0x7962_2d32;
    state[3] = 0x6b20_6574;
    for i in 0..8 {
        state[4 + i] = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().expect("4 bytes"));
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().expect("4 bytes"));
    }
    let mut working = state;
    for _ in 0..10 {
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// XORs `data` in place with the ChaCha20 keystream.
pub(crate) fn chacha20_xor(
    key: &[u8; 32],
    nonce: &[u8; 12],
    initial_counter: u32,
    data: &mut [u8],
) {
    let mut counter = initial_counter;
    for chunk in data.chunks_mut(64) {
        let ks = chacha20_block(key, counter, nonce);
        for (d, k) in chunk.iter_mut().zip(ks.iter()) {
            *d ^= k;
        }
        counter = counter.wrapping_add(1);
    }
}

/// Poly1305 one-shot MAC.
fn poly1305(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    // r with clamping, as 5 26-bit limbs — classic floodyberry layout.
    let r0 = (u32::from_le_bytes(key[0..4].try_into().unwrap())) & 0x3ffffff;
    let r1 = (u32::from_le_bytes(key[3..7].try_into().unwrap()) >> 2) & 0x3ffff03;
    let r2 = (u32::from_le_bytes(key[6..10].try_into().unwrap()) >> 4) & 0x3ffc0ff;
    let r3 = (u32::from_le_bytes(key[9..13].try_into().unwrap()) >> 6) & 0x3f03fff;
    let r4 = (u32::from_le_bytes(key[12..16].try_into().unwrap()) >> 8) & 0x00fffff;
    let (r0, r1, r2, r3, r4) = (r0 as u64, r1 as u64, r2 as u64, r3 as u64, r4 as u64);
    let s1 = r1 * 5;
    let s2 = r2 * 5;
    let s3 = r3 * 5;
    let s4 = r4 * 5;

    let mut h0: u64 = 0;
    let mut h1: u64 = 0;
    let mut h2: u64 = 0;
    let mut h3: u64 = 0;
    let mut h4: u64 = 0;

    for chunk in msg.chunks(16) {
        let mut block = [0u8; 17];
        block[..chunk.len()].copy_from_slice(chunk);
        block[chunk.len()] = 1;
        let t0 = u32::from_le_bytes(block[0..4].try_into().unwrap()) as u64;
        let t1 = u32::from_le_bytes(block[4..8].try_into().unwrap()) as u64;
        let t2 = u32::from_le_bytes(block[8..12].try_into().unwrap()) as u64;
        let t3 = u32::from_le_bytes(block[12..16].try_into().unwrap()) as u64;
        let t4 = block[16] as u64;

        h0 += t0 & 0x3ffffff;
        h1 += ((t0 >> 26) | (t1 << 6)) & 0x3ffffff;
        h2 += ((t1 >> 20) | (t2 << 12)) & 0x3ffffff;
        h3 += ((t2 >> 14) | (t3 << 18)) & 0x3ffffff;
        h4 += (t3 >> 8) | (t4 << 24);

        let d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
        let d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
        let d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
        let d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
        let d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

        let mut c = d0 >> 26;
        h0 = d0 & 0x3ffffff;
        let d1 = d1 + c;
        c = d1 >> 26;
        h1 = d1 & 0x3ffffff;
        let d2 = d2 + c;
        c = d2 >> 26;
        h2 = d2 & 0x3ffffff;
        let d3 = d3 + c;
        c = d3 >> 26;
        h3 = d3 & 0x3ffffff;
        let d4 = d4 + c;
        c = d4 >> 26;
        h4 = d4 & 0x3ffffff;
        h0 += c * 5;
        c = h0 >> 26;
        h0 &= 0x3ffffff;
        h1 += c;
    }

    // Full carry and final reduction mod 2^130 - 5.
    let mut c = h1 >> 26;
    h1 &= 0x3ffffff;
    h2 += c;
    c = h2 >> 26;
    h2 &= 0x3ffffff;
    h3 += c;
    c = h3 >> 26;
    h3 &= 0x3ffffff;
    h4 += c;
    c = h4 >> 26;
    h4 &= 0x3ffffff;
    h0 += c * 5;
    c = h0 >> 26;
    h0 &= 0x3ffffff;
    h1 += c;

    let mut g0 = h0 + 5;
    c = g0 >> 26;
    g0 &= 0x3ffffff;
    let mut g1 = h1 + c;
    c = g1 >> 26;
    g1 &= 0x3ffffff;
    let mut g2 = h2 + c;
    c = g2 >> 26;
    g2 &= 0x3ffffff;
    let mut g3 = h3 + c;
    c = g3 >> 26;
    g3 &= 0x3ffffff;
    let g4 = h4.wrapping_add(c).wrapping_sub(1 << 26);

    let take_g = (g4 >> 63) == 0; // no borrow => h >= p, use g
    if take_g {
        h0 = g0;
        h1 = g1;
        h2 = g2;
        h3 = g3;
        h4 = g4 & 0x3ffffff;
    }

    let acc0 = (h0 | (h1 << 26)) as u128
        | ((h2 as u128) << 52)
        | ((h3 as u128) << 78)
        | ((h4 as u128) << 104);

    let s = u128::from_le_bytes(key[16..32].try_into().unwrap());
    acc0.wrapping_add(s).to_le_bytes()
}

/// ChaCha20-Poly1305 AEAD instance bound to one 256-bit key.
///
/// ```
/// use hcc_crypto::chacha::ChaChaPoly;
/// let aead = ChaChaPoly::new([9u8; 32]);
/// let mut buf = b"alt transfer cipher".to_vec();
/// let tag = aead.encrypt(&[0u8; 12], b"", &mut buf);
/// aead.decrypt(&[0u8; 12], b"", &mut buf, &tag).unwrap();
/// assert_eq!(buf, b"alt transfer cipher");
/// ```
#[derive(Clone)]
pub struct ChaChaPoly {
    key: [u8; 32],
}

impl std::fmt::Debug for ChaChaPoly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaChaPoly").finish_non_exhaustive()
    }
}

impl ChaChaPoly {
    /// Creates an AEAD instance from a 256-bit key.
    pub fn new(key: [u8; 32]) -> Self {
        ChaChaPoly { key }
    }

    fn mac_data(aad: &[u8], ct: &[u8]) -> Vec<u8> {
        let mut data = Vec::with_capacity(aad.len() + ct.len() + 32);
        data.extend_from_slice(aad);
        data.resize(aad.len().div_ceil(16) * 16, 0);
        data.extend_from_slice(ct);
        data.resize(data.len().div_ceil(16) * 16, 0);
        data.extend_from_slice(&(aad.len() as u64).to_le_bytes());
        data.extend_from_slice(&(ct.len() as u64).to_le_bytes());
        data
    }

    fn poly_key(&self, nonce: &[u8; 12]) -> [u8; 32] {
        let block = chacha20_block(&self.key, 0, nonce);
        block[..32].try_into().expect("32 bytes")
    }

    /// Encrypts `data` in place; returns the Poly1305 tag.
    pub fn encrypt(&self, nonce: &[u8; 12], aad: &[u8], data: &mut [u8]) -> [u8; 16] {
        chacha20_xor(&self.key, nonce, 1, data);
        poly1305(&self.poly_key(nonce), &Self::mac_data(aad, data))
    }

    /// Verifies `tag` then decrypts `data` in place.
    ///
    /// # Errors
    /// Returns [`ChaChaError::TagMismatch`] on authentication failure,
    /// leaving `data` as ciphertext.
    pub fn decrypt(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        data: &mut [u8],
        tag: &[u8; 16],
    ) -> Result<(), ChaChaError> {
        let expected = poly1305(&self.poly_key(nonce), &Self::mac_data(aad, data));
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(tag.iter()) {
            diff |= a ^ b;
        }
        if diff != 0 {
            return Err(ChaChaError::TagMismatch);
        }
        chacha20_xor(&self.key, nonce, 1, data);
        Ok(())
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

    /// RFC 8439 §2.3.2 block-function test vector.
    #[test]
    fn chacha_block_rfc_vector() {
        let key: [u8; 32] = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
            .try_into()
            .unwrap();
        let nonce: [u8; 12] = hex("000000090000004a00000000").try_into().unwrap();
        let block = chacha20_block(&key, 1, &nonce);
        assert_eq!(
            block[..16].to_vec(),
            hex("10f1e7e4d13b5915500fdd1fa32071c4")
        );
    }

    /// RFC 8439 §2.5.2 Poly1305 test vector.
    #[test]
    fn poly1305_rfc_vector() {
        let key: [u8; 32] = hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
            .try_into()
            .unwrap();
        let tag = poly1305(&key, b"Cryptographic Forum Research Group");
        assert_eq!(tag.to_vec(), hex("a8061dc1305136c6c22b8baf0c0127a9"));
    }

    /// RFC 8439 §2.8.2 AEAD test vector.
    #[test]
    fn aead_rfc_vector() {
        let key: [u8; 32] = hex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
            .try_into()
            .unwrap();
        let nonce: [u8; 12] = hex("070000004041424344454647").try_into().unwrap();
        let aad = hex("50515253c0c1c2c3c4c5c6c7");
        let mut data = b"Ladies and Gentlemen of the class of '99: \
If I could offer you only one tip for the future, sunscreen would be it."
            .to_vec();
        let aead = ChaChaPoly::new(key);
        let tag = aead.encrypt(&nonce, &aad, &mut data);
        assert_eq!(tag.to_vec(), hex("1ae10b594f09e26a7e902ecbd0600691"));
        assert_eq!(data[..16].to_vec(), hex("d31a8d34648e60db7b86afbc53ef7ec2"));
        aead.decrypt(&nonce, &aad, &mut data, &tag).unwrap();
        assert!(data.starts_with(b"Ladies and Gentlemen"));
    }

    #[test]
    fn tamper_detection() {
        let aead = ChaChaPoly::new([1u8; 32]);
        let mut data = b"secret".to_vec();
        let tag = aead.encrypt(&[0u8; 12], &[], &mut data);
        data[0] ^= 0x80;
        assert_eq!(
            aead.decrypt(&[0u8; 12], &[], &mut data, &tag),
            Err(ChaChaError::TagMismatch)
        );
    }

    #[test]
    fn debug_hides_key() {
        let aead = ChaChaPoly::new([0xAA; 32]);
        assert!(!format!("{aead:?}").contains("170"));
    }
}
