//! Virtual time: instants and durations in integer nanoseconds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation's virtual clock, in nanoseconds since the
/// start of the simulation.
///
/// `SimTime` is totally ordered and only ever moves forward inside the
/// simulators. Subtracting two instants yields a [`SimDuration`].
///
/// ```
/// use hcc_types::{SimTime, SimDuration};
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::micros(5);
/// assert_eq!(t1 - t0, SimDuration::micros(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of the virtual clock.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `ns` nanoseconds after the origin.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since the origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the origin, as a float (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since the origin, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is actually later than `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("virtual clock overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("virtual clock underflow"))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    /// # Panics
    /// Panics if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when order is not guaranteed.
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("subtracted a later SimTime from an earlier one"),
        )
    }
}

/// A span of virtual time, in nanoseconds.
///
/// Durations support addition, scaling by `f64`/`u64`, and division to form
/// dimensionless ratios, which is how every "CC-on vs CC-off" slowdown in
/// the workspace is computed.
///
/// ```
/// use hcc_types::SimDuration;
/// let cc = SimDuration::micros(142);
/// let base = SimDuration::micros(100);
/// assert!((cc / base - 1.42).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `ns` nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration of `us` microseconds.
    pub const fn micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration of `ms` milliseconds.
    pub const fn millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration of `s` seconds.
    pub const fn secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from a float number of seconds, rounding to the
    /// nearest nanosecond and saturating negative values to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * 1e9).round() as u64)
    }

    /// Creates a duration from a float number of microseconds.
    pub fn from_micros_f64(us: f64) -> Self {
        Self::from_secs_f64(us / 1e6)
    }

    /// Length in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length in microseconds, as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Length in milliseconds, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Length in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` if the duration is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The longer of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// The shorter of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Difference that saturates to zero instead of panicking.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Scales the duration by a non-negative factor, rounding to the
    /// nearest nanosecond. Non-finite or negative factors clamp to zero.
    pub fn scale(self, factor: f64) -> SimDuration {
        if !factor.is_finite() || factor <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl fmt::Display for SimDuration {
    /// Human-scale display: picks ns/us/ms/s based on magnitude.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 10_000 {
            write!(f, "{ns}ns")
        } else if ns < 10_000_000 {
            write!(f, "{:.2}us", self.as_micros_f64())
        } else if ns < 10_000_000_000 {
            write!(f, "{:.2}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// # Panics
    /// Panics on underflow; use [`SimDuration::saturating_sub`] when the
    /// ordering is not guaranteed.
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    /// Dimensionless ratio of two durations. Division by a zero duration
    /// yields `f64::INFINITY`, matching the paper's convention of reporting
    /// unbounded slowdowns for vanishing baselines.
    fn div(self, rhs: SimDuration) -> f64 {
        if rhs.0 == 0 {
            if self.0 == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.0 as f64 / rhs.0 as f64
        }
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a SimDuration> for SimDuration {
    fn sum<I: Iterator<Item = &'a SimDuration>>(iter: I) -> SimDuration {
        iter.copied().sum()
    }
}

impl crate::json::ToJson for SimTime {
    /// Serializes as integer nanoseconds since the origin.
    fn write_json(&self, out: &mut crate::json::JsonOut<'_>) {
        out.u64(self.as_nanos());
    }
}

impl crate::json::ToJson for SimDuration {
    /// Serializes as integer nanoseconds.
    fn write_json(&self, out: &mut crate::json::JsonOut<'_>) {
        out.u64(self.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_nanos(1_500);
        let d = SimDuration::micros(2);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(20);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_nanos(10));
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::micros(1), SimDuration::from_nanos(1_000));
        assert_eq!(SimDuration::millis(1), SimDuration::micros(1_000));
        assert_eq!(SimDuration::secs(1), SimDuration::millis(1_000));
        assert_eq!(SimDuration::from_secs_f64(1.5), SimDuration::millis(1_500));
        assert_eq!(
            SimDuration::from_micros_f64(2.5),
            SimDuration::from_nanos(2_500)
        );
    }

    #[test]
    fn negative_or_nan_float_durations_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn ratio_division() {
        let a = SimDuration::micros(142);
        let b = SimDuration::micros(100);
        assert!((a / b - 1.42).abs() < 1e-12);
        assert_eq!(a / SimDuration::ZERO, f64::INFINITY);
        assert_eq!(SimDuration::ZERO / SimDuration::ZERO, 1.0);
    }

    #[test]
    fn scale_rounds_and_clamps() {
        let d = SimDuration::from_nanos(1_000);
        assert_eq!(d.scale(1.42), SimDuration::from_nanos(1_420));
        assert_eq!(d.scale(-1.0), SimDuration::ZERO);
        assert_eq!(d.scale(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = [SimDuration::micros(1), SimDuration::micros(2)]
            .iter()
            .sum();
        assert_eq!(total, SimDuration::micros(3));
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(SimDuration::from_nanos(500).to_string(), "500ns");
        assert_eq!(SimDuration::micros(42).to_string(), "42.00us");
        assert_eq!(SimDuration::millis(42).to_string(), "42.00ms");
        assert_eq!(SimDuration::secs(42).to_string(), "42.000s");
    }

    #[test]
    #[should_panic(expected = "subtracted a later SimTime")]
    fn instant_subtraction_panics_on_underflow() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }
}
