//! Byte quantities and transfer rates.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::time::SimDuration;
use crate::TypeError;

/// A number of bytes.
///
/// Sizes use binary multiples for constructors (`kib`, `mib`, `gib`) because
/// allocation and page arithmetic are binary, while [`Bandwidth`] uses
/// decimal GB/s because that is how the paper (and PCIe marketing) reports
/// rates.
///
/// ```
/// use hcc_types::ByteSize;
/// assert_eq!(ByteSize::mib(1).as_u64(), 1024 * 1024);
/// assert_eq!(ByteSize::mib(2) / ByteSize::kib(64), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size of `n` bytes.
    pub const fn bytes(n: u64) -> Self {
        ByteSize(n)
    }

    /// Creates a size of `n` KiB (1024 bytes).
    pub const fn kib(n: u64) -> Self {
        ByteSize(n * 1024)
    }

    /// Creates a size of `n` MiB.
    pub const fn mib(n: u64) -> Self {
        ByteSize(n * 1024 * 1024)
    }

    /// Creates a size of `n` GiB.
    pub const fn gib(n: u64) -> Self {
        ByteSize(n * 1024 * 1024 * 1024)
    }

    /// Size in bytes.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Size in bytes as `f64` (for rate arithmetic).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Size in decimal gigabytes as a float (for bandwidth reporting).
    pub fn as_gb_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` if the size is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Number of `page`-sized pages needed to cover this size (ceiling).
    ///
    /// # Panics
    /// Panics if `page` is zero.
    pub fn pages(self, page: ByteSize) -> u64 {
        assert!(page.0 > 0, "page size must be non-zero");
        self.0.div_ceil(page.0)
    }

    /// Rounds up to a multiple of `align`.
    ///
    /// # Panics
    /// Panics if `align` is zero.
    pub fn align_up(self, align: ByteSize) -> ByteSize {
        assert!(align.0 > 0, "alignment must be non-zero");
        ByteSize(self.0.div_ceil(align.0) * align.0)
    }

    /// The smaller of two sizes.
    pub fn min(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.min(other.0))
    }

    /// The larger of two sizes.
    pub fn max(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.max(other.0))
    }

    /// Difference that saturates at zero.
    pub fn saturating_sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b < 1024 {
            write!(f, "{b}B")
        } else if b < 1024 * 1024 {
            write!(f, "{:.1}KiB", b as f64 / 1024.0)
        } else if b < 1024 * 1024 * 1024 {
            write!(f, "{:.1}MiB", b as f64 / (1024.0 * 1024.0))
        } else {
            write!(f, "{:.2}GiB", b as f64 / (1024.0 * 1024.0 * 1024.0))
        }
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.checked_add(rhs.0).expect("byte size overflow"))
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        *self = *self + rhs;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    /// # Panics
    /// Panics on underflow; use [`ByteSize::saturating_sub`] otherwise.
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.checked_sub(rhs.0).expect("byte size underflow"))
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0.checked_mul(rhs).expect("byte size overflow"))
    }
}

impl Div<u64> for ByteSize {
    type Output = ByteSize;
    fn div(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 / rhs)
    }
}

impl Div<ByteSize> for ByteSize {
    type Output = u64;
    /// Integer ratio of two sizes (floor).
    fn div(self, rhs: ByteSize) -> u64 {
        self.0 / rhs.0
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, |a, b| a + b)
    }
}

/// A data-transfer or processing rate.
///
/// Internally stored as bytes per second (`f64`). Construct with decimal
/// [`Bandwidth::gb_per_s`], matching the units used throughout the
/// paper's figures.
///
/// ```
/// use hcc_types::{Bandwidth, ByteSize};
/// let gcm = Bandwidth::gb_per_s(3.36); // AES-GCM on EMR, Fig. 4b
/// let t = gcm.time_for(ByteSize::gib(1));
/// assert!((t.as_secs_f64() - 1.0737 / 3.36).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Creates a rate from decimal gigabytes per second.
    ///
    /// # Panics
    /// Panics if `gb` is not finite and positive; use
    /// [`Bandwidth::try_gb_per_s`] for a fallible constructor.
    pub fn gb_per_s(gb: f64) -> Self {
        Self::try_gb_per_s(gb).expect("bandwidth must be finite and positive")
    }

    /// Fallible variant of [`Bandwidth::gb_per_s`].
    ///
    /// # Errors
    /// Returns [`TypeError::InvalidBandwidth`] when `gb` is zero, negative,
    /// or not finite.
    pub fn try_gb_per_s(gb: f64) -> Result<Self, TypeError> {
        if gb.is_finite() && gb > 0.0 {
            Ok(Bandwidth(gb * 1e9))
        } else {
            Err(TypeError::InvalidBandwidth(format!("{gb} GB/s")))
        }
    }

    /// Rate in bytes per second.
    pub(crate) fn bytes_per_s(self) -> f64 {
        self.0
    }

    /// Rate in decimal GB/s (the paper's reporting unit).
    pub fn as_gb_per_s(self) -> f64 {
        self.0 / 1e9
    }

    /// Time to move `size` bytes at this rate.
    pub fn time_for(self, size: ByteSize) -> SimDuration {
        SimDuration::from_secs_f64(size.as_f64() / self.0)
    }

    /// Effective rate observed when moving `size` bytes in `elapsed` time.
    /// Returns `None` when `elapsed` is zero.
    pub fn observed(size: ByteSize, elapsed: SimDuration) -> Option<Bandwidth> {
        if elapsed.is_zero() || size.is_zero() {
            return None;
        }
        Some(Bandwidth(size.as_f64() / elapsed.as_secs_f64()))
    }

    /// Scales the rate by a positive factor (e.g. parallel crypto workers).
    ///
    /// # Panics
    /// Panics if `factor` is not finite and positive.
    pub fn scale(self, factor: f64) -> Bandwidth {
        assert!(
            factor.is_finite() && factor > 0.0,
            "bandwidth scale factor must be finite and positive"
        );
        Bandwidth(self.0 * factor)
    }

    /// Harmonic composition of serial pipeline stages: the effective rate of
    /// performing each stage in sequence on the same bytes.
    ///
    /// This is how the CC transfer path composes encryption, the bounce
    /// buffer copy, and DMA (Sec. VI-A of the paper).
    ///
    /// # Panics
    /// Panics if `stages` is empty.
    pub fn serial_pipeline(stages: &[Bandwidth]) -> Bandwidth {
        assert!(!stages.is_empty(), "pipeline must have at least one stage");
        let inv: f64 = stages.iter().map(|b| 1.0 / b.0).sum();
        Bandwidth(1.0 / inv)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let gb = self.as_gb_per_s();
        if gb >= 1.0 {
            write!(f, "{gb:.2}GB/s")
        } else {
            write!(f, "{:.2}MB/s", gb * 1e3)
        }
    }
}

impl crate::json::ToJson for ByteSize {
    /// Serializes as the raw byte count.
    fn write_json(&self, out: &mut crate::json::JsonOut<'_>) {
        out.u64(self.as_u64());
    }
}

impl crate::json::ToJson for Bandwidth {
    /// Serializes as bytes per second.
    fn write_json(&self, out: &mut crate::json::JsonOut<'_>) {
        out.f64(self.bytes_per_s());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_constructors() {
        assert_eq!(ByteSize::kib(1).as_u64(), 1024);
        assert_eq!(ByteSize::mib(1).as_u64(), 1 << 20);
        assert_eq!(ByteSize::gib(1).as_u64(), 1 << 30);
    }

    #[test]
    fn page_math() {
        let page = ByteSize::kib(64);
        assert_eq!(ByteSize::bytes(1).pages(page), 1);
        assert_eq!(ByteSize::kib(64).pages(page), 1);
        assert_eq!(ByteSize::bytes(64 * 1024 + 1).pages(page), 2);
        assert_eq!(ByteSize::ZERO.pages(page), 0);
        assert_eq!(ByteSize::bytes(100).align_up(page), page);
    }

    #[test]
    fn bandwidth_time_for() {
        let bw = Bandwidth::gb_per_s(1.0);
        assert_eq!(
            bw.time_for(ByteSize::bytes(1_000_000_000)),
            SimDuration::secs(1)
        );
        assert_eq!(bw.time_for(ByteSize::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn bandwidth_observed_roundtrips() {
        let bw = Bandwidth::gb_per_s(26.0);
        let size = ByteSize::mib(512);
        let t = bw.time_for(size);
        let back = Bandwidth::observed(size, t).unwrap();
        assert!((back.as_gb_per_s() - 26.0).abs() < 0.01);
        assert!(Bandwidth::observed(size, SimDuration::ZERO).is_none());
    }

    #[test]
    fn serial_pipeline_matches_paper_composition() {
        // Crypto 3.36 GB/s + staging 80 GB/s + DMA 52 GB/s should land near
        // the paper's observed 3.03 GB/s CC peak (Sec. VI-A).
        let eff = Bandwidth::serial_pipeline(&[
            Bandwidth::gb_per_s(3.36),
            Bandwidth::gb_per_s(80.0),
            Bandwidth::gb_per_s(52.0),
        ]);
        assert!((eff.as_gb_per_s() - 3.03).abs() < 0.02, "got {eff}");
    }

    #[test]
    fn invalid_bandwidth_rejected() {
        assert!(Bandwidth::try_gb_per_s(0.0).is_err());
        assert!(Bandwidth::try_gb_per_s(-1.0).is_err());
        assert!(Bandwidth::try_gb_per_s(f64::NAN).is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(ByteSize::bytes(12).to_string(), "12B");
        assert_eq!(ByteSize::mib(256).to_string(), "256.0MiB");
        assert_eq!(Bandwidth::gb_per_s(3.36).to_string(), "3.36GB/s");
        assert_eq!(Bandwidth::gb_per_s(0.5).to_string(), "500.00MB/s");
    }
}
