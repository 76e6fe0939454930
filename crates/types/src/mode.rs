//! Shared mode enums: confidential-computing state, memory kinds, copy
//! directions, and CPU models.

use std::fmt;

/// Whether the workload runs inside a trust domain with NVIDIA CC enabled
/// (`On`) or in a regular VM (`Off`, the paper's "base"/"non-CC" mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CcMode {
    /// Regular VM, no confidential computing (the paper's *base*).
    #[default]
    Off,
    /// Trust domain with the GPU in CC mode.
    On,
}

impl CcMode {
    /// `true` when confidential computing is enabled.
    pub const fn is_on(self) -> bool {
        matches!(self, CcMode::On)
    }

    /// Both modes, in the order the paper plots them (base first).
    pub const ALL: [CcMode; 2] = [CcMode::Off, CcMode::On];
}

impl fmt::Display for CcMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CcMode::Off => f.write_str("base"),
            CcMode::On => f.write_str("cc"),
        }
    }
}

/// Host-side memory kind used for a transfer endpoint.
///
/// Under CC, *pinned* host memory cannot exist natively (TDX forbids device
/// access to private pages), so the runtime transparently demotes it to a
/// pageable/UVM-backed mechanism — the paper's Observation 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HostMemKind {
    /// Ordinary pageable host memory (`malloc`).
    #[default]
    Pageable,
    /// Page-locked host memory (`cudaMallocHost`).
    Pinned,
}

impl HostMemKind {
    /// Both kinds, pageable first (the paper's Fig. 4a ordering).
    pub const ALL: [HostMemKind; 2] = [HostMemKind::Pageable, HostMemKind::Pinned];
}

impl fmt::Display for HostMemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostMemKind::Pageable => f.write_str("pageable"),
            HostMemKind::Pinned => f.write_str("pinned"),
        }
    }
}

/// The memory space an allocation lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Host (CPU) memory.
    Host,
    /// Device (GPU HBM) memory.
    Device,
    /// Unified/managed memory migrating on demand (`cudaMallocManaged`).
    Managed,
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemSpace::Host => f.write_str("host"),
            MemSpace::Device => f.write_str("device"),
            MemSpace::Managed => f.write_str("managed"),
        }
    }
}

/// Direction of an explicit memory copy, as labelled by Nsight Systems and
/// the paper's Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CopyKind {
    /// Host to device.
    H2D,
    /// Device to host.
    D2H,
    /// Device to device (also how Nsight labels CC "managed" pinned copies).
    D2D,
}

impl CopyKind {
    /// All directions in the paper's plotting order.
    pub const ALL: [CopyKind; 3] = [CopyKind::H2D, CopyKind::D2H, CopyKind::D2D];
}

impl fmt::Display for CopyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CopyKind::H2D => f.write_str("H2D"),
            CopyKind::D2H => f.write_str("D2H"),
            CopyKind::D2D => f.write_str("D2D"),
        }
    }
}

/// CPU models whose single-core software-crypto throughput the paper
/// measures (Fig. 4b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuModel {
    /// Intel 5th-gen Xeon (Emerald Rapids), the paper's TDX host.
    EmeraldRapids,
    /// NVIDIA Grace (Arm Neoverse V2).
    Grace,
}

impl CpuModel {
    /// Both CPUs in the paper's Fig. 4b order.
    pub const ALL: [CpuModel; 2] = [CpuModel::EmeraldRapids, CpuModel::Grace];
}

impl fmt::Display for CpuModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuModel::EmeraldRapids => f.write_str("Intel EMR"),
            CpuModel::Grace => f.write_str("NVIDIA Grace"),
        }
    }
}

crate::impl_to_json!(display: CcMode, HostMemKind, MemSpace, CopyKind, CpuModel);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(CcMode::Off.to_string(), "base");
        assert_eq!(CcMode::On.to_string(), "cc");
        assert_eq!(CopyKind::H2D.to_string(), "H2D");
        assert_eq!(HostMemKind::Pinned.to_string(), "pinned");
    }

    #[test]
    fn cc_mode_predicates() {
        assert!(CcMode::On.is_on());
        assert!(!CcMode::Off.is_on());
        assert_eq!(CcMode::default(), CcMode::Off);
    }
}
