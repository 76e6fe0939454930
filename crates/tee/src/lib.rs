//! # hcc-tee
//!
//! The Intel TDX substrate of the `hcc` lab (paper Sec. II-A):
//!
//! * [`TdContext`] — a cost oracle for guest transitions: plain vmexits in
//!   a regular VM versus `tdx_hypercall`s (×5.7, the paper's "+470 %") and
//!   seamcalls in a trust domain, with Fig. 8-style counters.
//! * [`BounceBufferPool`] — the swiotlb shared-memory staging pool every
//!   CC DMA must ride through, with lazy first-touch page conversion.
//! * [`PrivateMemory`] — a *functional* TME-MK model: TD-private pages are
//!   really AES-XTS ciphertext on the bus, and `set_memory_decrypted()`
//!   flips them to hypervisor-visible plaintext.
//!
//! ```
//! use hcc_tee::{BounceBufferPool, TdContext};
//! use hcc_types::calib::TdxCalib;
//! use hcc_types::{ByteSize, CcMode};
//!
//! let mut td = TdContext::new(CcMode::On, TdxCalib::default());
//! let mut pool = BounceBufferPool::new(td.calib().bounce_pool);
//! let r = pool.reserve(&mut td, ByteSize::mib(4)).unwrap();
//! assert!(r.converted); // cold pool pays set_memory_decrypted
//! ```

mod bounce;
mod privmem;
mod session;
mod spdm;
mod td;

pub use bounce::{BounceBufferPool, BounceError, BounceReservation};
pub use privmem::{PrivMemError, PrivateMemory, TmeMkError, PAGE};
pub use session::{Admission, SessionPool};
pub use spdm::{SessionState, SpdmSession, SpdmStep};
pub use td::{TdContext, TdCounters};

#[cfg(test)]
mod proptests {
    use super::*;
    use hcc_check::strategy::{bools, bytes, u64s, u8s, usizes, vecs};
    use hcc_check::{ensure, ensure_eq, forall, Config};
    use hcc_types::calib::TdxCalib;
    use hcc_types::{ByteSize, CcMode, SimDuration};

    // Software XTS makes full-region checks expensive; a few dozen cases
    // explore the state space adequately.
    const CASES: u32 = 24;

    /// Reserve/release cycles never corrupt pool accounting, and the
    /// converted high-water mark (the pages the TD converted) is monotone
    /// and within the pool.
    #[test]
    fn bounce_pool_accounting() {
        forall!(
            Config::new(0x7EE_0001).with_cases(CASES),
            ops in vecs((u64s(1..9), bools()), 1..50) => {
                let mut td = TdContext::new(CcMode::On, TdxCalib::default());
                let mut pool = BounceBufferPool::new(ByteSize::mib(16));
                let mut held: Vec<ByteSize> = Vec::new();
                let mut last_converted = ByteSize::ZERO;
                for (mib, release) in ops {
                    if release && !held.is_empty() {
                        let sz = held.pop().unwrap();
                        pool.release(sz);
                    } else {
                        let sz = ByteSize::mib(mib);
                        if pool.reserve(&mut td, sz).is_ok() {
                            held.push(sz);
                        }
                    }
                    ensure!(pool.in_use() <= pool.capacity());
                    let converted = ByteSize::kib(4 * td.counters().pages_converted);
                    ensure!(converted >= last_converted);
                    ensure!(converted <= pool.capacity());
                    last_converted = converted;
                }
            }
        );
    }

    /// Private-memory guest reads always return what was written,
    /// regardless of page conversions in between.
    #[test]
    fn privmem_read_your_writes() {
        forall!(
            Config::new(0x7EE_0002).with_cases(CASES),
            writes in vecs((usizes(0..8000), vecs(bytes(), 1..200), bools()), 1..20) => {
                let size = 8192;
                let mut mem = PrivateMemory::new(size, [9u8; 16]);
                let mut shadow = vec![0u8; size];
                for (offset, data, convert) in writes {
                    if offset + data.len() > size {
                        continue;
                    }
                    mem.write(offset, &data).unwrap();
                    shadow[offset..offset + data.len()].copy_from_slice(&data);
                    if convert {
                        mem.set_memory_decrypted(offset, data.len()).unwrap();
                    }
                    ensure_eq!(&mem.read(0, size).unwrap(), &shadow);
                }
            }
        );
    }

    /// Transition time grows monotonically with activity.
    #[test]
    fn td_transition_time_monotone() {
        forall!(
            Config::new(0x7EE_0003).with_cases(CASES),
            calls in vecs(u8s(0..3), 1..60) => {
                let mut td = TdContext::new(CcMode::On, TdxCalib::default());
                let mut last = SimDuration::ZERO;
                for c in calls {
                    match c {
                        0 => { td.hypercall("p"); }
                        1 => { td.seamcall("q"); }
                        _ => { td.convert_pages(3); }
                    }
                    let now = td.counters().transition_time;
                    ensure!(now > last);
                    last = now;
                }
            }
        );
    }

    /// Bulk admission is per-request admission summed: over random
    /// interleavings of (tenant, count) batches, in both CC modes, a pool
    /// charged through `admit_n(t, n)` and one charged through `n` calls
    /// of `admit(t)` agree after every batch in counters, established
    /// sessions and the leak check, and close the same sessions at the
    /// end.
    #[test]
    fn admit_n_is_n_admits() {
        forall!(
            Config::new(0x7EE_0004).with_cases(CASES),
            batches in vecs((u64s(0..4), u64s(0..6)), 0..30) => {
                for cc in CcMode::ALL {
                    let mut bulk = SessionPool::new(cc, TdxCalib::default());
                    let mut each = SessionPool::new(cc, TdxCalib::default());
                    for &(tenant, n) in &batches {
                        bulk.admit_n(tenant, n);
                        for _ in 0..n {
                            each.admit(tenant);
                        }
                        ensure_eq!(bulk.counters(), each.counters());
                        ensure_eq!(bulk.established(), each.established());
                        ensure_eq!(bulk.leak_check(), each.leak_check());
                    }
                    ensure_eq!(bulk.close_all(), each.close_all());
                    ensure!(bulk.leak_check().is_ok() && each.leak_check().is_ok());
                }
            }
        );
    }
}
