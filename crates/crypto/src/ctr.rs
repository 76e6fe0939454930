//! AES-CTR keystream generation (32-bit big-endian counter increment, the
//! GCM "CTR32" flavour).

use crate::aes::Aes;

/// Increments the last 32 bits of a counter block (GCM `inc32`).
pub(crate) fn inc32(block: &mut [u8; 16]) {
    let mut ctr = u32::from_be_bytes(block[12..16].try_into().expect("4 bytes"));
    ctr = ctr.wrapping_add(1);
    block[12..16].copy_from_slice(&ctr.to_be_bytes());
}

/// XORs `data` in place with the AES-CTR keystream starting at `counter`.
///
/// The counter block is advanced with `inc32` per 16-byte block, matching
/// GCM's CTR mode. Returns the counter value following the last block so
/// callers can continue the stream.
///
/// ```
/// use hcc_crypto::aes::Aes;
/// use hcc_crypto::ctr::ctr_xor;
/// let aes = Aes::new(&[0u8; 16]).unwrap();
/// let mut data = *b"attack at dawn!!";
/// let start = [0u8; 16];
/// ctr_xor(&aes, start, &mut data);
/// let mut roundtrip = data;
/// ctr_xor(&aes, start, &mut roundtrip);
/// assert_eq!(&roundtrip, b"attack at dawn!!");
/// ```
pub fn ctr_xor(aes: &Aes, mut counter: [u8; 16], data: &mut [u8]) -> [u8; 16] {
    for chunk in data.chunks_mut(16) {
        let mut keystream = counter;
        aes.encrypt_block(&mut keystream);
        for (d, k) in chunk.iter_mut().zip(keystream.iter()) {
            *d ^= k;
        }
        inc32(&mut counter);
    }
    counter
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inc32_wraps_only_low_word() {
        let mut block = [0xFFu8; 16];
        inc32(&mut block);
        assert_eq!(&block[..12], &[0xFF; 12]);
        assert_eq!(&block[12..], &[0, 0, 0, 0]);
    }

    #[test]
    fn ctr_is_an_involution() {
        let aes = Aes::new(&[9u8; 32]).unwrap();
        let counter = [1u8; 16];
        let mut data: Vec<u8> = (0..100u8).collect();
        let orig = data.clone();
        ctr_xor(&aes, counter, &mut data);
        assert_ne!(data, orig);
        ctr_xor(&aes, counter, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn empty_input_returns_unchanged_counter() {
        let aes = Aes::new(&[0u8; 16]).unwrap();
        let counter = [7u8; 16];
        let mut empty: [u8; 0] = [];
        assert_eq!(ctr_xor(&aes, counter, &mut empty), counter);
    }

    #[test]
    fn chunked_equals_contiguous() {
        let aes = Aes::new(&[3u8; 16]).unwrap();
        let counter = [0u8; 16];
        let mut whole: Vec<u8> = (0..64u8).collect();
        ctr_xor(&aes, counter, &mut whole);

        let mut parts: Vec<u8> = (0..64u8).collect();
        let mid = ctr_xor(&aes, counter, &mut parts[..32]);
        ctr_xor(&aes, mid, &mut parts[32..]);
        assert_eq!(whole, parts);
    }
}
