//! GHASH universal hash over GF(2^128), as used by AES-GCM
//! (NIST SP 800-38D).

/// Multiplies two field elements in GCM's GF(2^128).
///
/// Blocks are interpreted big-endian; GCM's bit-reflected convention makes
/// this the standard "right-shift" algorithm with reduction polynomial
/// `R = 0xE1 << 120`.
pub(crate) fn gf_mul(x: u128, y: u128) -> u128 {
    let mut z = 0u128;
    let mut v = x;
    for i in (0..128).rev() {
        if (y >> i) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= 0xE1u128 << 120;
        }
    }
    z
}

/// Converts a 16-byte block to the `u128` field representation.
pub(crate) fn block_to_u128(block: &[u8; 16]) -> u128 {
    u128::from_be_bytes(*block)
}

/// Converts a field element back to a 16-byte block.
pub(crate) fn u128_to_block(x: u128) -> [u8; 16] {
    x.to_be_bytes()
}

/// Incremental GHASH state keyed by `H = E_K(0^128)`.
///
/// ```
/// use hcc_crypto::ghash::Ghash;
/// let mut g = Ghash::new(&[0x42; 16]);
/// g.update(b"some authenticated data");
/// let _tag_block = g.finalize(23, 0);
/// ```
#[derive(Debug, Clone)]
pub struct Ghash {
    h: u128,
    y: u128,
    buf: [u8; 16],
    buf_len: usize,
}

impl Ghash {
    /// Creates a GHASH instance keyed with hash subkey `h`.
    pub fn new(h: &[u8; 16]) -> Self {
        Ghash {
            h: block_to_u128(h),
            y: 0,
            buf: [0u8; 16],
            buf_len: 0,
        }
    }

    fn absorb_block(&mut self, block: &[u8; 16]) {
        self.y = gf_mul(self.y ^ block_to_u128(block), self.h);
    }

    /// Absorbs `data`, buffering partial blocks.
    pub fn update(&mut self, data: &[u8]) {
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(16 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 16 {
                let block = self.buf;
                self.absorb_block(&block);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 16 {
            let block: [u8; 16] = rest[..16].try_into().expect("16-byte chunk");
            self.absorb_block(&block);
            rest = &rest[16..];
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Pads any buffered partial block with zeros and absorbs it. GCM calls
    /// this between the AAD and ciphertext sections.
    pub(crate) fn pad(&mut self) {
        if self.buf_len > 0 {
            for b in &mut self.buf[self.buf_len..] {
                *b = 0;
            }
            let block = self.buf;
            self.absorb_block(&block);
            self.buf_len = 0;
        }
    }

    /// Absorbs the GCM length block (`[len(A)]_64 || [len(C)]_64`, lengths
    /// in *bits*) and returns the final hash block.
    pub fn finalize(mut self, aad_bytes: u64, ct_bytes: u64) -> [u8; 16] {
        self.pad();
        let mut len_block = [0u8; 16];
        len_block[..8].copy_from_slice(&(aad_bytes * 8).to_be_bytes());
        len_block[8..].copy_from_slice(&(ct_bytes * 8).to_be_bytes());
        self.absorb_block(&len_block);
        u128_to_block(self.y)
    }

    /// Current hash value without the length block (GCM derives its
    /// pre-counter block from a non-96-bit nonce this way).
    pub fn current(&self) -> [u8; 16] {
        u128_to_block(self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_by_zero_and_identity() {
        assert_eq!(gf_mul(0, 0x1234), 0);
        assert_eq!(gf_mul(0x1234, 0), 0);
        // The field's multiplicative identity is the block 0x80 00...00
        // (x^0 in GCM bit order) = MSB set.
        let one = 1u128 << 127;
        let x = 0xDEAD_BEEF_u128 << 64 | 0x1357;
        assert_eq!(gf_mul(x, one), x);
        assert_eq!(gf_mul(one, x), x);
    }

    #[test]
    fn mul_commutes() {
        let a = 0x66e94bd4ef8a2c3b884cfa59ca342b2e_u128;
        let b = 0x0388dace60b6a392f328c2b971b2fe78_u128;
        assert_eq!(gf_mul(a, b), gf_mul(b, a));
    }

    #[test]
    fn mul_distributes_over_xor() {
        let a = 0x0123_4567_89ab_cdef_u128;
        let b = 0xfeed_face_cafe_beef_u128 << 32;
        let c = 0x1111_2222_3333_4444_u128 << 64;
        assert_eq!(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c));
    }

    #[test]
    fn ghash_known_vector_from_gcm_test_case_2() {
        // From the McGrew–Viega GCM spec, test case 2:
        // H = 66e94bd4ef8a2c3b884cfa59ca342b2e,
        // C = 0388dace60b6a392f328c2b971b2fe78, no AAD.
        // GHASH(H, {}, C) = f38cbb1ad69223dcc3457ae5b6b0f885.
        let h: [u8; 16] = 0x66e94bd4ef8a2c3b884cfa59ca342b2e_u128.to_be_bytes();
        let mut g = Ghash::new(&h);
        g.update(&0x0388dace60b6a392f328c2b971b2fe78_u128.to_be_bytes());
        let out = g.finalize(0, 16);
        assert_eq!(
            u128::from_be_bytes(out),
            0xf38cbb1ad69223dcc3457ae5b6b0f885_u128
        );
    }

    #[test]
    fn split_updates_match_single_update() {
        let h = [0x5A; 16];
        let data: Vec<u8> = (0..100u8).collect();
        let mut one = Ghash::new(&h);
        one.update(&data);
        let mut split = Ghash::new(&h);
        split.update(&data[..7]);
        split.update(&data[7..40]);
        split.update(&data[40..]);
        assert_eq!(one.finalize(0, 100), split.finalize(0, 100));
    }
}
