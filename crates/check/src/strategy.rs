//! Value strategies: deterministic generators with built-in shrinking.
//!
//! A [`Strategy`] produces random values from a seeded [`Xoshiro256`] and,
//! when a property fails, proposes *simpler* candidate values via
//! [`Strategy::shrink`]. Shrinking is structural and bounded: integers move
//! toward the range's lower bound, vectors get shorter and their elements
//! simpler, tuples shrink one coordinate at a time.

use std::fmt::Debug;
use std::ops::Range;

use hcc_types::rng::Xoshiro256;

/// A generator of test values with optional shrinking.
pub trait Strategy {
    /// The value type this strategy produces.
    type Value: Clone + Debug;

    /// Generates one value from the deterministic stream.
    fn generate(&self, rng: &mut Xoshiro256) -> Self::Value;

    /// Proposes simpler candidates for a failing `value`, most aggressive
    /// first. An empty vector means the value is fully shrunk.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut Xoshiro256) -> Self::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

macro_rules! uint_strategy {
    ($name:ident, $fn_name:ident, $ty:ty, $doc:literal) => {
        #[doc = $doc]
        #[derive(Debug, Clone)]
        pub struct $name {
            lo: $ty,
            hi: $ty,
        }

        #[doc = $doc]
        ///
        /// # Panics
        /// Panics if the range is empty.
        pub fn $fn_name(range: Range<$ty>) -> $name {
            assert!(range.start < range.end, "empty range");
            $name {
                lo: range.start,
                hi: range.end,
            }
        }

        impl Strategy for $name {
            type Value = $ty;

            fn generate(&self, rng: &mut Xoshiro256) -> $ty {
                let span = (self.hi - self.lo) as u64;
                self.lo + rng.next_range(span) as $ty
            }

            fn shrink(&self, value: &$ty) -> Vec<$ty> {
                let v = *value;
                if v == self.lo {
                    return Vec::new();
                }
                let mut out = vec![self.lo];
                let mid = self.lo + (v - self.lo) / 2;
                if mid != self.lo && mid != v {
                    out.push(mid);
                }
                if v - 1 != self.lo && Some(&(v - 1)) != out.last() {
                    out.push(v - 1);
                }
                out
            }
        }
    };
}

uint_strategy!(U64Range, u64s, u64, "Uniform `u64` in `[lo, hi)`.");
uint_strategy!(U32Range, u32s, u32, "Uniform `u32` in `[lo, hi)`.");
uint_strategy!(U16Range, u16s, u16, "Uniform `u16` in `[lo, hi)`.");
uint_strategy!(U8Range, u8s, u8, "Uniform `u8` in `[lo, hi)`.");
uint_strategy!(UsizeRange, usizes, usize, "Uniform `usize` in `[lo, hi)`.");

/// Any byte (`0..=255`); shrinks toward zero.
#[derive(Debug, Clone)]
pub struct AnyByte;

/// Any byte (`0..=255`); shrinks toward zero.
pub fn bytes() -> AnyByte {
    AnyByte
}

impl Strategy for AnyByte {
    type Value = u8;

    fn generate(&self, rng: &mut Xoshiro256) -> u8 {
        rng.next_range(256) as u8
    }

    fn shrink(&self, value: &u8) -> Vec<u8> {
        match *value {
            0 => Vec::new(),
            1 => vec![0],
            v => vec![0, v / 2],
        }
    }
}

/// Uniform `f64` in `[lo, hi)`.
#[derive(Debug, Clone)]
pub struct F64Range {
    lo: f64,
    hi: f64,
}

/// Uniform `f64` in `[lo, hi)`.
///
/// # Panics
/// Panics if the bounds are not finite or the range is empty.
pub fn f64s(range: Range<f64>) -> F64Range {
    assert!(
        range.start.is_finite() && range.end.is_finite() && range.start < range.end,
        "invalid float range"
    );
    F64Range {
        lo: range.start,
        hi: range.end,
    }
}

impl Strategy for F64Range {
    type Value = f64;

    fn generate(&self, rng: &mut Xoshiro256) -> f64 {
        self.lo + (self.hi - self.lo) * rng.next_f64()
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        let v = *value;
        if v <= self.lo {
            return Vec::new();
        }
        let mid = self.lo + (v - self.lo) / 2.0;
        if mid < v {
            vec![self.lo, mid]
        } else {
            vec![self.lo]
        }
    }
}

/// Uniform booleans; `true` shrinks to `false`.
#[derive(Debug, Clone)]
pub struct Bools;

/// Uniform booleans; `true` shrinks to `false`.
pub fn bools() -> Bools {
    Bools
}

impl Strategy for Bools {
    type Value = bool;

    fn generate(&self, rng: &mut Xoshiro256) -> bool {
        rng.next_range(2) == 1
    }

    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Vectors of an inner strategy with a length drawn from `[lo, hi)`.
#[derive(Debug, Clone)]
pub struct VecOf<S> {
    inner: S,
    min_len: usize,
    max_len: usize,
}

/// Vectors of `inner` values with length in `[lo, hi)`.
///
/// Shrinks by truncating toward the minimum length, dropping elements,
/// and simplifying individual elements.
///
/// # Panics
/// Panics if the length range is empty.
pub fn vecs<S: Strategy>(inner: S, len: Range<usize>) -> VecOf<S> {
    assert!(len.start < len.end, "empty length range");
    VecOf {
        inner,
        min_len: len.start,
        max_len: len.end,
    }
}

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut Xoshiro256) -> Vec<S::Value> {
        let span = (self.max_len - self.min_len) as u64;
        let len = self.min_len + rng.next_range(span.max(1)) as usize;
        (0..len).map(|_| self.inner.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        let len = value.len();
        // Shorter first: minimum length, half length, then dropping each
        // single element — so an offending element anywhere in the vector
        // can survive while everything around it is removed.
        if len > self.min_len {
            out.push(value[..self.min_len].to_vec());
            let half = (self.min_len + len) / 2;
            if half > self.min_len && half < len {
                out.push(value[..half].to_vec());
            }
            for drop_at in 0..len.min(16) {
                let mut next = Vec::with_capacity(len - 1);
                next.extend_from_slice(&value[..drop_at]);
                next.extend_from_slice(&value[drop_at + 1..]);
                out.push(next);
            }
        }
        // Then element-wise simplification (bounded fan-out).
        for (i, elem) in value.iter().enumerate().take(8) {
            for cand in self.inner.shrink(elem).into_iter().take(2) {
                let mut next = value.clone();
                next[i] = cand;
                out.push(next);
            }
        }
        out
    }
}

/// Fixed-length byte arrays; shrinks toward all-zero.
#[derive(Debug, Clone)]
pub struct ByteArray<const N: usize>;

/// Uniform `[u8; N]`; shrinks toward the all-zero array.
pub fn byte_arrays<const N: usize>() -> ByteArray<N> {
    ByteArray
}

impl<const N: usize> Strategy for ByteArray<N> {
    type Value = [u8; N];

    fn generate(&self, rng: &mut Xoshiro256) -> [u8; N] {
        let mut out = [0u8; N];
        for chunk in out.chunks_mut(8) {
            let word = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        out
    }

    fn shrink(&self, value: &[u8; N]) -> Vec<[u8; N]> {
        if value.iter().all(|&b| b == 0) {
            return Vec::new();
        }
        let mut out = vec![[0u8; N]];
        // Zero the first few non-zero bytes, one at a time.
        for (i, &b) in value.iter().enumerate() {
            if b != 0 && out.len() < 5 {
                let mut next = *value;
                next[i] = 0;
                out.push(next);
            }
        }
        out
    }
}

/// One of a fixed set of values; shrinks toward the first entry.
#[derive(Debug, Clone)]
pub struct Choice<T> {
    options: Vec<T>,
}

/// Picks uniformly from `options`; shrinks toward the first option.
///
/// # Panics
/// Panics if `options` is empty.
pub fn choice<T: Clone + Debug>(options: &[T]) -> Choice<T> {
    assert!(!options.is_empty(), "need at least one option");
    Choice {
        options: options.to_vec(),
    }
}

impl<T: Clone + Debug + PartialEq> Strategy for Choice<T> {
    type Value = T;

    fn generate(&self, rng: &mut Xoshiro256) -> T {
        self.options[rng.next_range(self.options.len() as u64) as usize].clone()
    }

    fn shrink(&self, value: &T) -> Vec<T> {
        if self.options.first() == Some(value) {
            Vec::new()
        } else {
            vec![self.options[0].clone()]
        }
    }
}

macro_rules! tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut Xoshiro256) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx).into_iter().take(3) {
                        let mut next = value.clone();
                        next.$idx = cand;
                        out.push(next);
                    }
                )+
                out
            }
        }
    };
}

tuple_strategy!(A: 0, B: 1);
tuple_strategy!(A: 0, B: 1, C: 2);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3);

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from_u64(1)
    }

    #[test]
    fn uint_ranges_respect_bounds() {
        let s = u64s(10..20);
        let mut r = rng();
        for _ in 0..1_000 {
            let v = s.generate(&mut r);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn uint_shrink_moves_toward_lo() {
        let s = u64s(3..100);
        for cand in s.shrink(&50) {
            assert!((3..50).contains(&cand));
        }
        assert!(s.shrink(&3).is_empty());
    }

    #[test]
    fn vec_lengths_and_shrinks() {
        let s = vecs(u8s(0..10), 2..6);
        let mut r = rng();
        for _ in 0..200 {
            let v = s.generate(&mut r);
            assert!((2..6).contains(&v.len()));
        }
        let shrunk = s.shrink(&vec![9, 9, 9, 9, 9]);
        assert!(shrunk.iter().all(|v| v.len() >= 2));
        assert!(shrunk.iter().any(|v| v.len() < 5));
    }

    #[test]
    fn byte_arrays_shrink_to_zero() {
        let s = byte_arrays::<16>();
        let mut r = rng();
        let v = s.generate(&mut r);
        let shrunk = s.shrink(&v);
        assert!(shrunk.contains(&[0u8; 16]));
        assert!(s.shrink(&[0u8; 16]).is_empty());
    }

    #[test]
    fn tuples_shrink_coordinatewise() {
        let s = (u64s(0..10), bools());
        let shrunk = s.shrink(&(5, true));
        assert!(shrunk.iter().any(|&(a, b)| a < 5 && b));
        assert!(shrunk.iter().any(|&(a, b)| a == 5 && !b));
    }

    #[test]
    fn generation_is_deterministic() {
        let s = vecs(u64s(0..1000), 1..20);
        let a: Vec<_> = {
            let mut r = Xoshiro256::seed_from_u64(42);
            (0..10).map(|_| s.generate(&mut r)).collect()
        };
        let b: Vec<_> = {
            let mut r = Xoshiro256::seed_from_u64(42);
            (0..10).map(|_| s.generate(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
