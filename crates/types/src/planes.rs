//! Diagnostic-plane selection as one branch-free bitmask.
//!
//! The simulators carry three optional diagnostic planes — virtual-time
//! metrics, causal-edge collection, and fault injection. Hot emission
//! sites used to test each plane through its own `bool`/`Option` chain;
//! [`Planes`] packs the three toggles into a single byte so an emission
//! site performs exactly one mask test (`planes.any(...)`) regardless of
//! how many planes it feeds.

/// A set of enabled diagnostic planes, packed into one byte.
///
/// ```
/// use hcc_types::Planes;
///
/// let p = Planes::METRICS | Planes::CAUSAL;
/// assert!(p.contains(Planes::METRICS));
/// assert!(p.any(Planes::CAUSAL | Planes::FAULT));
/// assert!(!p.contains(Planes::FAULT));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Planes(u8);

impl Planes {
    /// No diagnostic planes enabled (the hot-path default).
    pub const NONE: Planes = Planes(0);
    /// Virtual-time metrics plane (queue/occupancy gauges).
    pub const METRICS: Planes = Planes(1 << 0);
    /// Causal-edge collection (typed dependency DAG).
    pub const CAUSAL: Planes = Planes(1 << 1);
    /// Fault injection (a non-empty [`crate::FaultPlan`]).
    pub const FAULT: Planes = Planes(1 << 2);

    /// All three simulator planes (metrics, causal, fault).
    pub const ALL: Planes = Planes(0b111);

    /// Builds a set from individual toggles.
    #[must_use]
    pub const fn from_flags(metrics: bool, causal: bool, fault: bool) -> Planes {
        Planes((metrics as u8) | ((causal as u8) << 1) | ((fault as u8) << 2))
    }

    /// `true` when every plane in `other` is enabled here.
    #[must_use]
    pub const fn contains(self, other: Planes) -> bool {
        self.0 & other.0 == other.0
    }

    /// `true` when *any* plane in `other` is enabled here — the single
    /// test hot emission sites perform.
    #[must_use]
    pub const fn any(self, other: Planes) -> bool {
        self.0 & other.0 != 0
    }

    /// Returns `self` with the planes in `other` added.
    #[must_use]
    pub(crate) const fn with(self, other: Planes) -> Planes {
        Planes(self.0 | other.0)
    }

    /// Returns `self` with the planes in `other` removed.
    #[must_use]
    pub(crate) const fn without(self, other: Planes) -> Planes {
        Planes(self.0 & !other.0)
    }

    /// Sets or clears the planes in `mask` according to `enabled`.
    #[must_use]
    pub const fn set(self, mask: Planes, enabled: bool) -> Planes {
        if enabled {
            self.with(mask)
        } else {
            self.without(mask)
        }
    }
}

impl std::ops::BitOr for Planes {
    type Output = Planes;
    fn bitor(self, rhs: Planes) -> Planes {
        Planes(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for Planes {
    fn bitor_assign(&mut self, rhs: Planes) {
        self.0 |= rhs.0;
    }
}

impl std::ops::BitAnd for Planes {
    type Output = Planes;
    fn bitand(self, rhs: Planes) -> Planes {
        Planes(self.0 & rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_roundtrip() {
        for metrics in [false, true] {
            for causal in [false, true] {
                for fault in [false, true] {
                    let p = Planes::from_flags(metrics, causal, fault);
                    assert_eq!(p.contains(Planes::METRICS), metrics);
                    assert_eq!(p.contains(Planes::CAUSAL), causal);
                    assert_eq!(p.contains(Planes::FAULT), fault);
                    assert_eq!(p == Planes::NONE, !metrics && !causal && !fault);
                }
            }
        }
    }

    #[test]
    fn any_is_union_test() {
        let p = Planes::METRICS;
        assert!(p.any(Planes::METRICS | Planes::CAUSAL));
        assert!(!p.any(Planes::CAUSAL | Planes::FAULT));
        assert!(!Planes::NONE.any(Planes::ALL));
    }

    #[test]
    fn set_and_without() {
        let p = Planes::NONE
            .set(Planes::METRICS, true)
            .set(Planes::FAULT, true);
        assert_eq!(p, Planes::METRICS | Planes::FAULT);
        assert_eq!(p.set(Planes::FAULT, false), Planes::METRICS);
        assert_eq!(p.without(Planes::ALL), Planes::NONE);
        assert_eq!(
            Planes::ALL,
            Planes::METRICS | Planes::CAUSAL | Planes::FAULT
        );
    }
}
