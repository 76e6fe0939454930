//! The GPU memory-management unit: per-range page residency tracking for
//! managed (UVM) memory, producing the far faults the UVM driver services
//! (paper Sec. II-B).

use hcc_types::hash::FnvHashMap;
use hcc_types::ByteSize;

/// Identifies one managed allocation's residency table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ManagedId(pub u64);

impl std::fmt::Display for ManagedId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "M{}", self.0)
    }
}

/// Where a managed page currently resides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Residency {
    /// Page backed by CPU memory; GPU access far-faults.
    #[default]
    Host,
    /// Page migrated to GPU HBM.
    Device,
}

/// Errors from GMMU operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GmmuError {
    /// Unknown managed range.
    UnknownRange(ManagedId),
    /// Page index beyond the range.
    PageOutOfRange {
        /// Range accessed.
        id: ManagedId,
        /// Offending page index.
        page: u64,
        /// Number of pages in the range.
        pages: u64,
    },
}

impl std::fmt::Display for GmmuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GmmuError::UnknownRange(id) => write!(f, "unknown managed range {id}"),
            GmmuError::PageOutOfRange { id, page, pages } => {
                write!(f, "page {page} out of range for {id} ({pages} pages)")
            }
        }
    }
}

impl std::error::Error for GmmuError {}

#[derive(Debug, Clone)]
struct RangeTable {
    page_size: ByteSize,
    pages: u64,
    /// Residency bitmap, one bit per page: set = device-resident. A
    /// 64-page batch is one word, so window scans cost `pages / 64`
    /// popcounts instead of a per-page `Vec<Residency>` walk.
    device: Vec<u64>,
    /// Running count of set bits in `device`. Steady-state accesses to a
    /// fully-resident range (the common case after a workload's first
    /// iteration) short-circuit to "no faults" without touching the
    /// bitmap at all.
    resident: u64,
}

impl RangeTable {
    fn check_window(&self, id: ManagedId, first: u64, count: u64) -> Result<(), GmmuError> {
        if first.checked_add(count).is_none_or(|end| end > self.pages) {
            return Err(GmmuError::PageOutOfRange {
                id,
                page: first + count,
                pages: self.pages,
            });
        }
        Ok(())
    }

    /// Calls `f(word_index, mask)` for each bitmap word overlapping
    /// `[first, first+count)`, with `mask` selecting the window's bits.
    fn for_window(first: u64, count: u64, mut f: impl FnMut(usize, u64)) {
        if count == 0 {
            return;
        }
        let end = first + count;
        let mut page = first;
        while page < end {
            let w = (page / 64) as usize;
            let lo = page % 64;
            let hi = (end - page).min(64 - lo);
            let mask = if hi == 64 {
                u64::MAX
            } else {
                ((1u64 << hi) - 1) << lo
            };
            f(w, mask);
            page += hi;
        }
    }
}

/// The GMMU: residency tables for every managed range.
///
/// ```
/// use hcc_gpu::{Gmmu, ManagedId};
/// use hcc_types::ByteSize;
///
/// let mut gmmu = Gmmu::new();
/// let id = ManagedId(1);
/// gmmu.register(id, ByteSize::mib(1), ByteSize::kib(64));
/// // First GPU touch of pages 0..4 faults on all of them and makes them
/// // device-resident.
/// assert_eq!(gmmu.claim_faults(id, 0, 4).unwrap(), 4);
/// assert_eq!(gmmu.peek_fault_count(id, 0, 4).unwrap(), 0);
/// // Evicting page 2 makes it fault again.
/// gmmu.mark_host(id, &[2]).unwrap();
/// assert_eq!(gmmu.peek_fault_count(id, 0, 4).unwrap(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Gmmu {
    ranges: FnvHashMap<ManagedId, RangeTable>,
}

impl Gmmu {
    /// Creates an empty GMMU.
    pub fn new() -> Self {
        Gmmu::default()
    }

    /// Registers a managed range of `size` bytes with `page_size` pages,
    /// all initially host-resident. Re-registering an id resets its table.
    ///
    /// # Panics
    /// Panics if `page_size` is zero.
    pub fn register(&mut self, id: ManagedId, size: ByteSize, page_size: ByteSize) {
        let pages = size.pages(page_size);
        self.ranges.insert(
            id,
            RangeTable {
                page_size,
                pages,
                device: vec![0u64; pages.div_ceil(64) as usize],
                resident: 0,
            },
        );
    }

    /// Removes a range (managed free).
    pub fn unregister(&mut self, id: ManagedId) -> Result<(), GmmuError> {
        self.ranges
            .remove(&id)
            .map(|_| ())
            .ok_or(GmmuError::UnknownRange(id))
    }

    /// Page size of a range.
    pub fn page_size(&self, id: ManagedId) -> Result<ByteSize, GmmuError> {
        self.ranges
            .get(&id)
            .map(|r| r.page_size)
            .ok_or(GmmuError::UnknownRange(id))
    }

    /// Counts how many pages of `[first, first+count)` would far-fault,
    /// without recording anything — a read-only preview for callers that
    /// must decide (e.g. fault injection) before committing to a scan.
    ///
    /// # Errors
    /// Returns [`GmmuError`] for unknown ranges or out-of-range pages.
    pub fn peek_fault_count(
        &self,
        id: ManagedId,
        first: u64,
        count: u64,
    ) -> Result<u64, GmmuError> {
        let table = self.ranges.get(&id).ok_or(GmmuError::UnknownRange(id))?;
        table.check_window(id, first, count)?;
        if table.resident == table.pages {
            return Ok(0);
        }
        let mut hosted = 0u64;
        RangeTable::for_window(first, count, |w, mask| {
            hosted += u64::from((!table.device[w] & mask).count_ones());
        });
        Ok(hosted)
    }

    /// Scans a GPU access to pages `[first, first+count)`, counts the
    /// far faults (host-resident pages), marks exactly those pages
    /// device-resident, and returns the fault count — the whole
    /// fault-service commit in one bitmap pass.
    ///
    /// # Errors
    /// Returns [`GmmuError`] for unknown ranges or out-of-range pages.
    pub fn claim_faults(
        &mut self,
        id: ManagedId,
        first: u64,
        count: u64,
    ) -> Result<u64, GmmuError> {
        let table = self
            .ranges
            .get_mut(&id)
            .ok_or(GmmuError::UnknownRange(id))?;
        table.check_window(id, first, count)?;
        if table.resident == table.pages {
            return Ok(0);
        }
        let mut claimed = 0u64;
        let device = &mut table.device;
        RangeTable::for_window(first, count, |w, mask| {
            let newly = !device[w] & mask;
            claimed += u64::from(newly.count_ones());
            device[w] |= newly;
        });
        table.resident += claimed;
        Ok(claimed)
    }

    /// Marks pages host-resident (eviction or CPU access migration).
    ///
    /// # Errors
    /// Returns [`GmmuError`] for unknown ranges or out-of-range pages.
    pub fn mark_host(&mut self, id: ManagedId, pages: &[u64]) -> Result<(), GmmuError> {
        self.set_residency(id, pages, Residency::Host)
    }

    fn set_residency(
        &mut self,
        id: ManagedId,
        pages: &[u64],
        to: Residency,
    ) -> Result<(), GmmuError> {
        let table = self
            .ranges
            .get_mut(&id)
            .ok_or(GmmuError::UnknownRange(id))?;
        for p in pages {
            if *p >= table.pages {
                return Err(GmmuError::PageOutOfRange {
                    id,
                    page: *p,
                    pages: table.pages,
                });
            }
            let (w, bit) = ((*p / 64) as usize, *p % 64);
            let was_set = table.device[w] & (1 << bit) != 0;
            match to {
                Residency::Device => {
                    table.device[w] |= 1 << bit;
                    table.resident += u64::from(!was_set);
                }
                Residency::Host => {
                    table.device[w] &= !(1 << bit);
                    table.resident -= u64::from(was_set);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_range_faults_everywhere() {
        let mut g = Gmmu::new();
        g.register(ManagedId(1), ByteSize::kib(256), ByteSize::kib(64));
        assert_eq!(g.peek_fault_count(ManagedId(1), 0, 4).unwrap(), 4);
        assert_eq!(g.claim_faults(ManagedId(1), 0, 4).unwrap(), 4);
        assert_eq!(g.claim_faults(ManagedId(1), 0, 4).unwrap(), 0);
    }

    #[test]
    fn resident_pages_stop_faulting() {
        let mut g = Gmmu::new();
        g.register(ManagedId(2), ByteSize::kib(256), ByteSize::kib(64));
        assert_eq!(g.claim_faults(ManagedId(2), 0, 2).unwrap(), 2);
        assert_eq!(g.peek_fault_count(ManagedId(2), 0, 4).unwrap(), 2);
        assert_eq!(g.claim_faults(ManagedId(2), 0, 4).unwrap(), 2);
        g.mark_host(ManagedId(2), &[0]).unwrap();
        assert_eq!(g.peek_fault_count(ManagedId(2), 0, 4).unwrap(), 1);
    }

    #[test]
    fn errors_for_unknown_and_out_of_range() {
        let mut g = Gmmu::new();
        assert!(matches!(
            g.claim_faults(ManagedId(9), 0, 1),
            Err(GmmuError::UnknownRange(_))
        ));
        g.register(ManagedId(3), ByteSize::kib(64), ByteSize::kib(64));
        assert!(matches!(
            g.claim_faults(ManagedId(3), 0, 2),
            Err(GmmuError::PageOutOfRange { .. })
        ));
        assert!(matches!(
            g.mark_host(ManagedId(3), &[5]),
            Err(GmmuError::PageOutOfRange { .. })
        ));
        assert!(g.unregister(ManagedId(3)).is_ok());
        assert!(g.unregister(ManagedId(3)).is_err());
    }

    #[test]
    fn reregister_resets() {
        let mut g = Gmmu::new();
        g.register(ManagedId(4), ByteSize::kib(128), ByteSize::kib(64));
        g.claim_faults(ManagedId(4), 0, 2).unwrap();
        g.register(ManagedId(4), ByteSize::kib(128), ByteSize::kib(64));
        assert_eq!(g.peek_fault_count(ManagedId(4), 0, 2).unwrap(), 2);
    }
}
