//! Workload specifications: each benchmark app re-expressed as a program
//! of runtime operations with the launch counts and working sets the paper
//! reports (e.g. `3dconv` = 254 launches of one kernel, `sc` = 1611
//! launches, `2mm` = 2 launches).

use hcc_types::{ByteSize, HostMemKind, SimDuration};

/// Benchmark suite an app belongs to (Sec. VI-A's selection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Rodinia heterogeneous-computing suite.
    Rodinia,
    /// PolyBench/GPU kernels.
    Polybench,
    /// UVM-Bench managed-memory suite.
    UvmBench,
    /// GraphBIG graph-processing suite.
    GraphBig,
    /// Tigr graph-transformation suite.
    Tigr,
    /// Custom microbenchmarks (Listing 1/2).
    Micro,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Suite::Rodinia => "rodinia",
            Suite::Polybench => "polybench",
            Suite::UvmBench => "uvmbench",
            Suite::GraphBig => "graphbig",
            Suite::Tigr => "tigr",
            Suite::Micro => "micro",
        };
        f.write_str(s)
    }
}

/// One operation in a workload program. Handles are slot indices into the
/// per-kind handle tables the runner maintains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Allocate host memory into host slot `slot`.
    MallocHost {
        /// Destination host slot.
        slot: usize,
        /// Size.
        size: ByteSize,
        /// Pageable or pinned.
        kind: HostMemKind,
    },
    /// Allocate device memory into device slot `slot`.
    MallocDevice {
        /// Destination device slot.
        slot: usize,
        /// Size.
        size: ByteSize,
    },
    /// Allocate managed memory into managed slot `slot`.
    MallocManaged {
        /// Destination managed slot.
        slot: usize,
        /// Size.
        size: ByteSize,
    },
    /// Blocking host→device copy.
    H2D {
        /// Device destination slot.
        dst: usize,
        /// Host source slot.
        src: usize,
        /// Bytes to move.
        bytes: ByteSize,
    },
    /// Blocking device→host copy.
    D2H {
        /// Host destination slot.
        dst: usize,
        /// Device source slot.
        src: usize,
        /// Bytes to move.
        bytes: ByteSize,
    },
    /// Blocking device→device copy.
    D2D {
        /// Device destination slot.
        dst: usize,
        /// Device source slot.
        src: usize,
        /// Bytes to move.
        bytes: ByteSize,
    },
    /// Launch a kernel `repeat` times back-to-back on the default stream.
    Launch {
        /// Kernel function id within the app.
        kernel: u32,
        /// Nominal per-launch execution time.
        ket: SimDuration,
        /// Managed slots the kernel touches (whole ranges).
        managed: Vec<usize>,
        /// Number of consecutive launches.
        repeat: u32,
    },
    /// Device synchronize.
    Sync,
    /// Free a device slot.
    FreeDevice {
        /// Slot to free.
        slot: usize,
    },
    /// Free a host slot.
    FreeHost {
        /// Slot to free.
        slot: usize,
    },
    /// Free a managed slot.
    FreeManaged {
        /// Slot to free.
        slot: usize,
    },
    /// Deliberately panic (chaos op for exercising batch isolation: the
    /// experiment engine must contain this to one scenario).
    Crash {
        /// Panic payload.
        message: &'static str,
    },
}

/// A complete benchmark specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// App name as the paper's figures label it.
    pub name: &'static str,
    /// Suite of origin.
    pub suite: Suite,
    /// Whether the app uses managed memory (`cudaMallocManaged`).
    pub uvm: bool,
    /// The operation program.
    pub ops: Vec<Op>,
}

impl WorkloadSpec {
    /// An inline microbenchmark program: no suite app, no managed memory.
    pub fn micro(name: &'static str, ops: Vec<Op>) -> Self {
        WorkloadSpec {
            name,
            suite: Suite::Micro,
            uvm: false,
            ops,
        }
    }

    /// Total number of kernel launches in the program.
    pub fn launch_count(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Launch { repeat, .. } => u64::from(*repeat),
                _ => 0,
            })
            .sum()
    }

    /// Total bytes moved by explicit copies.
    pub fn copy_bytes(&self) -> ByteSize {
        self.ops
            .iter()
            .map(|op| match op {
                Op::H2D { bytes, .. } | Op::D2H { bytes, .. } | Op::D2D { bytes, .. } => *bytes,
                _ => ByteSize::ZERO,
            })
            .sum()
    }

    /// Sum of nominal kernel execution time.
    pub fn nominal_ket(&self) -> SimDuration {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Launch { ket, repeat, .. } => *ket * u64::from(*repeat),
                _ => SimDuration::ZERO,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_aggregates() {
        let spec = WorkloadSpec::micro(
            "toy",
            vec![
                Op::MallocDevice {
                    slot: 0,
                    size: ByteSize::mib(1),
                },
                Op::Launch {
                    kernel: 0,
                    ket: SimDuration::micros(10),
                    managed: vec![],
                    repeat: 5,
                },
                Op::H2D {
                    dst: 0,
                    src: 0,
                    bytes: ByteSize::mib(1),
                },
            ],
        );
        assert_eq!(spec.launch_count(), 5);
        assert_eq!(spec.copy_bytes(), ByteSize::mib(1));
        assert_eq!(spec.nominal_ket(), SimDuration::micros(50));
    }
}
