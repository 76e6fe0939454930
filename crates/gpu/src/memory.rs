//! Device memory (HBM): a functional byte store with a simple allocator.
//!
//! Contents are stored *plaintext* — the paper's threat model (Sec. III)
//! treats 3D-stacked HBM as physically secure, so H100 CC does not encrypt
//! device memory. Functional tests use this to show data arrives decrypted
//! after riding the encrypted PCIe path.

use std::collections::HashMap;

use hcc_types::ByteSize;

/// An opaque device pointer returned by the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DevicePtr(u64);

impl DevicePtr {}

impl std::fmt::Display for DevicePtr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{:012x}", self.0)
    }
}

/// Errors from device-memory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeviceMemError {
    /// Allocation would exceed HBM capacity.
    OutOfMemory {
        /// Bytes requested.
        requested: ByteSize,
        /// Bytes free.
        free: ByteSize,
    },
    /// Pointer was not produced by this allocator (or already freed).
    InvalidPointer(DevicePtr),
    /// Access past the end of an allocation.
    OutOfBounds {
        /// Allocation this access targeted.
        ptr: DevicePtr,
        /// Offset requested.
        offset: u64,
        /// Length requested.
        len: u64,
        /// Allocation size.
        size: ByteSize,
    },
}

impl std::fmt::Display for DeviceMemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceMemError::OutOfMemory { requested, free } => {
                write!(
                    f,
                    "device out of memory: requested {requested}, free {free}"
                )
            }
            DeviceMemError::InvalidPointer(p) => write!(f, "invalid device pointer {p}"),
            DeviceMemError::OutOfBounds {
                ptr,
                offset,
                len,
                size,
            } => {
                write!(f, "access {offset}+{len} out of bounds for {ptr} of {size}")
            }
        }
    }
}

impl std::error::Error for DeviceMemError {}

#[derive(Debug, Clone)]
struct Allocation {
    size: ByteSize,
    /// Lazily materialized contents; `None` until first write (sized-only
    /// simulations never touch bytes and stay cheap).
    data: Option<Vec<u8>>,
}

/// The GPU's HBM: capacity accounting plus functional contents.
///
/// ```
/// use hcc_gpu::DeviceMemory;
/// use hcc_types::ByteSize;
///
/// let mut hbm = DeviceMemory::new(ByteSize::gib(1));
/// let ptr = hbm.alloc(ByteSize::mib(1)).unwrap();
/// hbm.write(ptr, 0, b"weights").unwrap();
/// assert_eq!(hbm.read(ptr, 0, 7).unwrap(), b"weights");
/// hbm.free(ptr).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct DeviceMemory {
    capacity: ByteSize,
    used: ByteSize,
    next_addr: u64,
    allocations: HashMap<DevicePtr, Allocation>,
}

impl DeviceMemory {
    /// Creates an empty HBM region of `capacity` bytes.
    pub fn new(capacity: ByteSize) -> Self {
        DeviceMemory {
            capacity,
            used: ByteSize::ZERO,
            // Non-zero base so DevicePtr(0) is never handed out.
            next_addr: 0x7f00_0000_0000,
            allocations: HashMap::new(),
        }
    }

    /// Bytes free.
    pub(crate) fn free_bytes(&self) -> ByteSize {
        self.capacity - self.used
    }

    /// Allocates `size` bytes.
    ///
    /// # Errors
    /// Returns [`DeviceMemError::OutOfMemory`] when capacity is exceeded.
    pub fn alloc(&mut self, size: ByteSize) -> Result<DevicePtr, DeviceMemError> {
        if size > self.free_bytes() {
            return Err(DeviceMemError::OutOfMemory {
                requested: size,
                free: self.free_bytes(),
            });
        }
        let ptr = DevicePtr(self.next_addr);
        // 256-byte alignment like the CUDA allocator.
        self.next_addr += size.align_up(ByteSize::bytes(256)).as_u64().max(256);
        self.used += size;
        self.allocations
            .insert(ptr, Allocation { size, data: None });
        Ok(ptr)
    }

    /// Frees an allocation.
    ///
    /// # Errors
    /// Returns [`DeviceMemError::InvalidPointer`] for unknown pointers.
    pub fn free(&mut self, ptr: DevicePtr) -> Result<ByteSize, DeviceMemError> {
        let alloc = self
            .allocations
            .remove(&ptr)
            .ok_or(DeviceMemError::InvalidPointer(ptr))?;
        self.used = self.used - alloc.size;
        Ok(alloc.size)
    }

    /// Size of a live allocation.
    ///
    /// # Errors
    /// Returns [`DeviceMemError::InvalidPointer`] for unknown pointers.
    pub fn size_of(&self, ptr: DevicePtr) -> Result<ByteSize, DeviceMemError> {
        self.allocations
            .get(&ptr)
            .map(|a| a.size)
            .ok_or(DeviceMemError::InvalidPointer(ptr))
    }

    fn check_access(
        alloc: &Allocation,
        ptr: DevicePtr,
        offset: u64,
        len: u64,
    ) -> Result<(), DeviceMemError> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > alloc.size.as_u64())
        {
            return Err(DeviceMemError::OutOfBounds {
                ptr,
                offset,
                len,
                size: alloc.size,
            });
        }
        Ok(())
    }

    /// Writes functional contents into an allocation.
    ///
    /// # Errors
    /// Returns [`DeviceMemError::InvalidPointer`] or
    /// [`DeviceMemError::OutOfBounds`].
    pub fn write(
        &mut self,
        ptr: DevicePtr,
        offset: u64,
        data: &[u8],
    ) -> Result<(), DeviceMemError> {
        let alloc = self
            .allocations
            .get_mut(&ptr)
            .ok_or(DeviceMemError::InvalidPointer(ptr))?;
        Self::check_access(alloc, ptr, offset, data.len() as u64)?;
        let store = alloc
            .data
            .get_or_insert_with(|| vec![0u8; alloc.size.as_u64() as usize]);
        store[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Reads functional contents (zeros if never written).
    ///
    /// # Errors
    /// Returns [`DeviceMemError::InvalidPointer`] or
    /// [`DeviceMemError::OutOfBounds`].
    pub fn read(&self, ptr: DevicePtr, offset: u64, len: u64) -> Result<Vec<u8>, DeviceMemError> {
        let alloc = self
            .allocations
            .get(&ptr)
            .ok_or(DeviceMemError::InvalidPointer(ptr))?;
        Self::check_access(alloc, ptr, offset, len)?;
        match &alloc.data {
            Some(store) => Ok(store[offset as usize..(offset + len) as usize].to_vec()),
            None => Ok(vec![0u8; len as usize]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_accounting() {
        let mut hbm = DeviceMemory::new(ByteSize::mib(10));
        let a = hbm.alloc(ByteSize::mib(4)).unwrap();
        let b = hbm.alloc(ByteSize::mib(4)).unwrap();
        assert_ne!(a, b);
        assert_eq!(hbm.used, ByteSize::mib(8));
        assert!(matches!(
            hbm.alloc(ByteSize::mib(4)),
            Err(DeviceMemError::OutOfMemory { .. })
        ));
        assert_eq!(hbm.free(a).unwrap(), ByteSize::mib(4));
        assert_eq!(hbm.free_bytes(), ByteSize::mib(6));
        assert!(matches!(
            hbm.free(a),
            Err(DeviceMemError::InvalidPointer(_))
        ));
    }

    #[test]
    fn functional_contents_roundtrip() {
        let mut hbm = DeviceMemory::new(ByteSize::mib(1));
        let ptr = hbm.alloc(ByteSize::kib(4)).unwrap();
        // Unwritten memory reads as zeros.
        assert_eq!(hbm.read(ptr, 0, 8).unwrap(), vec![0u8; 8]);
        hbm.write(ptr, 100, b"tensor").unwrap();
        assert_eq!(hbm.read(ptr, 100, 6).unwrap(), b"tensor");
        assert_eq!(hbm.size_of(ptr).unwrap(), ByteSize::kib(4));
    }

    #[test]
    fn bounds_checked() {
        let mut hbm = DeviceMemory::new(ByteSize::mib(1));
        let ptr = hbm.alloc(ByteSize::bytes(16)).unwrap();
        assert!(matches!(
            hbm.write(ptr, 10, b"0123456789"),
            Err(DeviceMemError::OutOfBounds { .. })
        ));
        assert!(matches!(
            hbm.read(ptr, u64::MAX, 2),
            Err(DeviceMemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn zero_sized_alloc_is_fine() {
        let mut hbm = DeviceMemory::new(ByteSize::mib(1));
        let ptr = hbm.alloc(ByteSize::ZERO).unwrap();
        assert_eq!(hbm.size_of(ptr).unwrap(), ByteSize::ZERO);
        hbm.free(ptr).unwrap();
    }
}
