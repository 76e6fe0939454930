//! Handles and descriptors for runtime objects: host/managed pointers and
//! kernel launch descriptors.

use hcc_trace::KernelId;
use hcc_types::SimDuration;

/// A host allocation handle (`malloc` or `cudaMallocHost`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostPtr(pub(crate) u64);

impl std::fmt::Display for HostPtr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h0x{:09x}", self.0)
    }
}

/// A managed (UVM) allocation handle (`cudaMallocManaged`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ManagedPtr(pub(crate) u64);

impl std::fmt::Display for ManagedPtr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m0x{:09x}", self.0)
    }
}

/// A managed-memory access a kernel performs, expressed in pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManagedAccess {
    /// The managed allocation touched.
    pub ptr: ManagedPtr,
    /// First page index accessed.
    pub first_page: u64,
    /// Page count; `u64::MAX` means "the whole range" and is resolved at
    /// launch.
    pub pages: u64,
}

impl ManagedAccess {
    /// Access to the entire managed range.
    pub fn all(ptr: ManagedPtr) -> Self {
        ManagedAccess {
            ptr,
            first_page: 0,
            pages: u64::MAX,
        }
    }

    /// Access to a page window.
    pub fn window(ptr: ManagedPtr, first_page: u64, pages: u64) -> Self {
        ManagedAccess {
            ptr,
            first_page,
            pages,
        }
    }
}

/// Descriptor for one kernel launch.
///
/// ```
/// use hcc_runtime::KernelDesc;
/// use hcc_trace::KernelId;
/// use hcc_types::SimDuration;
///
/// let k = KernelDesc::new(KernelId(3), SimDuration::millis(2));
/// assert_eq!(k.ket, SimDuration::millis(2));
/// assert!(k.managed.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelDesc {
    /// Kernel function identity (repeat launches share the id).
    pub id: KernelId,
    /// Nominal execution time on an otherwise idle GPU with all data
    /// resident (the workload model's cost).
    pub ket: SimDuration,
    /// Managed ranges the kernel touches (empty for non-UVM kernels).
    pub managed: Vec<ManagedAccess>,
}

impl KernelDesc {
    /// A non-UVM kernel.
    pub fn new(id: KernelId, ket: SimDuration) -> Self {
        KernelDesc {
            id,
            ket,
            managed: Vec::new(),
        }
    }

    /// Builder-style managed access.
    pub fn with_managed(mut self, access: ManagedAccess) -> Self {
        self.managed.push(access);
        self
    }

    /// Whether this kernel touches managed memory.
    pub(crate) fn is_uvm(&self) -> bool {
        !self.managed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptors_and_display() {
        let h = HostPtr(0x1000);
        let m = ManagedPtr(0x2000);
        assert!(h.to_string().starts_with("h0x"));
        assert!(m.to_string().starts_with("m0x"));
        let k = KernelDesc::new(KernelId(1), SimDuration::micros(10))
            .with_managed(ManagedAccess::all(m));
        assert!(k.is_uvm());
        assert_eq!(k.managed[0].pages, u64::MAX);
        let w = ManagedAccess::window(m, 4, 8);
        assert_eq!((w.first_page, w.pages), (4, 8));
    }
}
