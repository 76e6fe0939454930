//! Functional TME-MK model: TD-private memory that is *actually*
//! XTS-encrypted at rest, with private→shared page conversion.
//!
//! The paper (Sec. II-A) describes Intel TME-MK as an AES-XTS memory
//! encryption engine in the memory controller, protecting all TD-private
//! DRAM; `set_memory_decrypted()` flips page attributes so a page bypasses
//! the engine and becomes hypervisor-visible (the bounce-buffer substrate).
//! This module demonstrates exactly that: reads through the "CPU" see
//! plaintext, reads through the "memory bus" see ciphertext for private
//! pages and plaintext for shared ones.

use hcc_crypto::xts::{AesXts, XtsError};
use hcc_types::ByteSize;

/// Page size for attribute tracking (TDX private/shared granularity).
pub const PAGE: ByteSize = ByteSize::kib(4);
const PAGE_USIZE: usize = 4096;

/// Errors from private-memory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PrivMemError {
    /// Access beyond the end of the region.
    OutOfBounds {
        /// Offset requested.
        offset: usize,
        /// Length requested.
        len: usize,
        /// Region size.
        size: usize,
    },
}

impl std::fmt::Display for PrivMemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrivMemError::OutOfBounds { offset, len, size } => {
                write!(
                    f,
                    "access {offset}+{len} out of bounds for region of {size} bytes"
                )
            }
        }
    }
}

impl std::error::Error for PrivMemError {}

/// A region of TD memory with per-page private/shared attributes and real
/// XTS encryption of the private pages' backing store.
///
/// ```
/// use hcc_tee::PrivateMemory;
///
/// let mut mem = PrivateMemory::new(8192, [7u8; 16]);
/// mem.write(0, b"model weights").unwrap();
/// // The guest sees plaintext...
/// assert_eq!(&mem.read(0, 13).unwrap(), b"model weights");
/// // ...the physical bus sees ciphertext.
/// assert_ne!(&mem.bus_view(0, 13).unwrap(), b"model weights");
/// // After conversion to shared, the bus sees plaintext.
/// mem.set_memory_decrypted(0, 4096).unwrap();
/// assert_eq!(&mem.bus_view(0, 13).unwrap(), b"model weights");
/// ```
#[derive(Debug, Clone)]
pub struct PrivateMemory {
    /// Physical backing store: ciphertext for private pages, plaintext for
    /// shared pages.
    backing: Vec<u8>,
    /// Per-page shared flag.
    shared: Vec<bool>,
    engine: AesXts,
}

impl PrivateMemory {
    /// Creates a zeroed region of `size` bytes (rounded up to whole pages),
    /// all pages private, keyed with the TD's ephemeral `key`.
    pub fn new(size: usize, key: [u8; 16]) -> Self {
        let pages = size.div_ceil(PAGE_USIZE);
        let engine = AesXts::new(&key, &key.map(|b| b.wrapping_add(1)))
            .expect("16-byte keys are always valid");
        let mut mem = PrivateMemory {
            backing: vec![0u8; pages * PAGE_USIZE],
            shared: vec![false; pages],
            engine,
        };
        // Encrypt the initial (zero) contents of every private page so the
        // bus view is ciphertext from the start.
        for page in 0..pages {
            mem.seal_page(page);
        }
        mem
    }

    /// Region size in bytes.
    pub fn size(&self) -> usize {
        self.backing.len()
    }

    fn check(&self, offset: usize, len: usize) -> Result<(), PrivMemError> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.backing.len())
        {
            return Err(PrivMemError::OutOfBounds {
                offset,
                len,
                size: self.backing.len(),
            });
        }
        Ok(())
    }

    fn page_range(offset: usize, len: usize) -> std::ops::Range<usize> {
        if len == 0 {
            return offset / PAGE_USIZE..offset / PAGE_USIZE;
        }
        offset / PAGE_USIZE..(offset + len - 1) / PAGE_USIZE + 1
    }

    fn seal_page(&mut self, page: usize) {
        let range = page * PAGE_USIZE..(page + 1) * PAGE_USIZE;
        self.engine
            .encrypt_sector(page as u64, &mut self.backing[range])
            .expect("page is a whole number of blocks");
    }

    fn unseal_page(&mut self, page: usize) {
        let range = page * PAGE_USIZE..(page + 1) * PAGE_USIZE;
        self.engine
            .decrypt_sector(page as u64, &mut self.backing[range])
            .expect("page is a whole number of blocks");
    }

    fn plaintext_page(&self, page: usize) -> [u8; PAGE_USIZE] {
        let range = page * PAGE_USIZE..(page + 1) * PAGE_USIZE;
        let mut buf: [u8; PAGE_USIZE] = self.backing[range].try_into().expect("page-sized slice");
        if !self.shared[page] {
            self.engine
                .decrypt_sector(page as u64, &mut buf)
                .expect("page is a whole number of blocks");
        }
        buf
    }

    /// Guest-visible write (through the TME-MK engine).
    ///
    /// # Errors
    /// Returns [`PrivMemError::OutOfBounds`] on out-of-range access.
    pub fn write(&mut self, offset: usize, data: &[u8]) -> Result<(), PrivMemError> {
        self.check(offset, data.len())?;
        let mut cursor = offset;
        let mut remaining = data;
        while !remaining.is_empty() {
            let page = cursor / PAGE_USIZE;
            let in_page = cursor % PAGE_USIZE;
            let take = remaining.len().min(PAGE_USIZE - in_page);
            let mut plain = self.plaintext_page(page);
            plain[in_page..in_page + take].copy_from_slice(&remaining[..take]);
            let range = page * PAGE_USIZE..(page + 1) * PAGE_USIZE;
            self.backing[range].copy_from_slice(&plain);
            if !self.shared[page] {
                self.seal_page(page);
            }
            cursor += take;
            remaining = &remaining[take..];
        }
        Ok(())
    }

    /// Guest-visible read (through the TME-MK engine): always plaintext.
    ///
    /// # Errors
    /// Returns [`PrivMemError::OutOfBounds`] on out-of-range access.
    pub fn read(&self, offset: usize, len: usize) -> Result<Vec<u8>, PrivMemError> {
        self.check(offset, len)?;
        let mut out = Vec::with_capacity(len);
        let mut cursor = offset;
        let mut remaining = len;
        while remaining > 0 {
            let page = cursor / PAGE_USIZE;
            let in_page = cursor % PAGE_USIZE;
            let take = remaining.min(PAGE_USIZE - in_page);
            let plain = self.plaintext_page(page);
            out.extend_from_slice(&plain[in_page..in_page + take]);
            cursor += take;
            remaining -= take;
        }
        Ok(out)
    }

    /// What a physical observer (or the hypervisor/device) sees on the
    /// memory bus: raw backing bytes — ciphertext for private pages.
    ///
    /// # Errors
    /// Returns [`PrivMemError::OutOfBounds`] on out-of-range access.
    pub fn bus_view(&self, offset: usize, len: usize) -> Result<Vec<u8>, PrivMemError> {
        self.check(offset, len)?;
        Ok(self.backing[offset..offset + len].to_vec())
    }

    /// Converts the pages covering `offset..offset+len` to shared,
    /// decrypting their backing store (the kernel's
    /// `set_memory_decrypted()`; Sec. II-A footnote 4). Idempotent.
    ///
    /// Returns the number of pages newly converted.
    ///
    /// # Errors
    /// Returns [`PrivMemError::OutOfBounds`] on out-of-range access.
    pub fn set_memory_decrypted(&mut self, offset: usize, len: usize) -> Result<u64, PrivMemError> {
        self.check(offset, len.saturating_sub(1))?;
        let mut converted = 0;
        for page in Self::page_range(offset, len) {
            if !self.shared[page] {
                self.unseal_page(page);
                self.shared[page] = true;
                converted += 1;
            }
        }
        Ok(converted)
    }
}

/// Re-export of the underlying XTS error for completeness.
pub type TmeMkError = XtsError;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guest_sees_plaintext_bus_sees_ciphertext() {
        let mut mem = PrivateMemory::new(PAGE_USIZE * 2, [1u8; 16]);
        let secret = b"attestation report";
        mem.write(100, secret).unwrap();
        assert_eq!(mem.read(100, secret.len()).unwrap(), secret);
        let bus = mem.bus_view(100, secret.len()).unwrap();
        assert_ne!(bus, secret.to_vec());
    }

    #[test]
    fn conversion_round_trip() {
        let mut mem = PrivateMemory::new(PAGE_USIZE * 4, [2u8; 16]);
        mem.write(0, b"dma staging data").unwrap();
        let converted = mem.set_memory_decrypted(0, PAGE_USIZE).unwrap();
        assert_eq!(converted, 1);
        // Shared page: bus sees plaintext; guest still sees plaintext.
        assert_eq!(&mem.bus_view(0, 16).unwrap(), b"dma staging data");
        assert_eq!(&mem.read(0, 16).unwrap(), b"dma staging data");
        // Idempotent.
        assert_eq!(mem.set_memory_decrypted(0, PAGE_USIZE).unwrap(), 0);
    }

    #[test]
    fn writes_spanning_pages() {
        let mut mem = PrivateMemory::new(PAGE_USIZE * 3, [3u8; 16]);
        let data: Vec<u8> = (0..=255).cycle().take(6000).map(|b: u16| b as u8).collect();
        mem.write(PAGE_USIZE - 1000, &data).unwrap();
        assert_eq!(mem.read(PAGE_USIZE - 1000, 6000).unwrap(), data);
    }

    #[test]
    fn shared_page_writes_stay_plaintext() {
        let mut mem = PrivateMemory::new(PAGE_USIZE, [4u8; 16]);
        mem.set_memory_decrypted(0, PAGE_USIZE).unwrap();
        mem.write(10, b"bounce payload").unwrap();
        assert_eq!(&mem.bus_view(10, 14).unwrap(), b"bounce payload");
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mem = PrivateMemory::new(PAGE_USIZE, [5u8; 16]);
        assert!(matches!(
            mem.read(PAGE_USIZE - 4, 8),
            Err(PrivMemError::OutOfBounds { .. })
        ));
        let mut mem = mem;
        assert!(mem.write(usize::MAX, b"x").is_err());
    }

    #[test]
    fn size_rounds_to_pages() {
        let mem = PrivateMemory::new(100, [6u8; 16]);
        assert_eq!(mem.size(), PAGE_USIZE);
    }
}
