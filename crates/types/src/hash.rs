//! Stable 64-bit content hashing for cache keys.
//!
//! The experiment engine memoizes simulation results keyed by the *content*
//! of a scenario (workload program + [`crate::CcMode`] + seed + calibration).
//! `std::hash` deliberately randomizes its state per process, so cache keys
//! built on it would not be comparable across runs or printable in reports.
//! [`Fnv64`] is a plain FNV-1a implementation with explicit little-endian
//! field mixing: the same fields always produce the same `u64`, on every
//! platform, in every process.
//!
//! ```
//! use hcc_types::hash::Fnv64;
//!
//! let mut a = Fnv64::new();
//! a.write_u64(7);
//! a.write_str("gemm");
//! let mut b = Fnv64::new();
//! b.write_u64(7);
//! b.write_str("gemm");
//! assert_eq!(a.finish(), b.finish());
//! ```

/// An FNV-1a 64-bit hasher with a stable, platform-independent digest.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub const fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Mixes raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Mixes a `u8`.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Mixes a `bool` as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Mixes a `u32` in little-endian byte order.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Mixes a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Mixes an `f64` via its IEEE-754 bit pattern.
    pub(crate) fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Mixes a string, length-prefixed so adjacent strings cannot alias
    /// (`"ab" + "c"` vs `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The current digest.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// [`std::hash::Hasher`] adapter over [`Fnv64`], so standard collections
/// can use the stable FNV-1a mix instead of SipHash.
///
/// SipHash exists to resist hash-flooding from adversarial keys; the
/// simulators hash their *own* small integer handles (stream ids, pointer
/// values, correlation ids), where FNV's much shorter mix wins on the hot
/// path and the DoS defence buys nothing.
#[derive(Debug, Clone, Default)]
pub struct FnvHasher(Fnv64);

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0.finish()
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }
}

/// `BuildHasher` producing [`FnvHasher`]s; the state is empty so every
/// build is free and every process hashes identically.
#[derive(Debug, Clone, Copy, Default)]
pub struct FnvBuildHasher;

impl std::hash::BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;

    fn build_hasher(&self) -> FnvHasher {
        FnvHasher::default()
    }
}

/// `HashMap` keyed through the stable FNV-1a mix.
pub type FnvHashMap<K, V> = std::collections::HashMap<K, V, FnvBuildHasher>;

/// `HashSet` keyed through the stable FNV-1a mix.
pub type FnvHashSet<K> = std::collections::HashSet<K, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv1a_vectors() {
        // Published FNV-1a 64 test vectors.
        let digest = |s: &str| {
            let mut h = Fnv64::new();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn field_order_and_width_matter() {
        let mut a = Fnv64::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv64::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());

        let mut c = Fnv64::new();
        c.write_u32(1);
        let mut d = Fnv64::new();
        d.write_u64(1);
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn length_prefix_prevents_string_aliasing() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn f64_distinguishes_near_values() {
        let mut a = Fnv64::new();
        a.write_f64(1.0);
        let mut b = Fnv64::new();
        b.write_f64(1.0 + f64::EPSILON);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn std_collections_work_over_fnv() {
        let mut map: FnvHashMap<u64, &str> = FnvHashMap::default();
        map.insert(1, "one");
        map.insert(0x1000, "addr");
        assert_eq!(map.get(&1), Some(&"one"));
        assert_eq!(map.len(), 2);

        let mut set: FnvHashSet<u64> = FnvHashSet::default();
        assert!(set.insert(42));
        assert!(!set.insert(42));
    }

    #[test]
    fn fnv_hasher_matches_fnv64_digest() {
        use std::hash::Hasher as _;
        let mut h = FnvHasher::default();
        h.write(b"foobar");
        let mut reference = Fnv64::new();
        reference.write(b"foobar");
        assert_eq!(h.finish(), reference.finish());
    }
}
