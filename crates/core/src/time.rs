//! Fixed-point simulation time.
//!
//! HALOTIS is an event-driven simulator: the correctness of the algorithm
//! depends on exact comparisons between event times.  Floating-point time
//! makes those comparisons fragile (two mathematically equal instants can
//! differ in the last bit), so the workspace uses signed 64-bit
//! **femtosecond** fixed-point time everywhere events are ordered, and only
//! converts to `f64` at the analytical-model boundary.
//!
//! Two types are provided, mirroring `std::time`:
//!
//! * [`Time`] — an absolute instant on the simulation time line,
//! * [`TimeDelta`] — a signed span between two instants.
//!
//! One femtosecond resolution with `i64` gives a ±9 200 s range, far beyond
//! any logic-simulation horizon.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::error::CoreError;

/// Femtoseconds per picosecond.
pub const FS_PER_PS: i64 = 1_000;
/// Femtoseconds per nanosecond.
pub const FS_PER_NS: i64 = 1_000_000;
/// Femtoseconds per microsecond.
pub const FS_PER_US: i64 = 1_000_000_000;

/// An absolute instant on the simulation time line, in femtoseconds.
///
/// `Time` is totally ordered and hashable, which makes it suitable as an
/// event-queue key.
///
/// # Example
///
/// ```
/// use halotis_core::{Time, TimeDelta};
/// let t = Time::from_ns(2.5);
/// assert_eq!(t.as_fs(), 2_500_000);
/// assert_eq!(t + TimeDelta::from_ps(500.0), Time::from_ns(3.0));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(i64);

/// A signed span between two [`Time`] instants, in femtoseconds.
///
/// # Example
///
/// ```
/// use halotis_core::TimeDelta;
/// let d = TimeDelta::from_ps(120.0);
/// assert_eq!(d.as_ns(), 0.12);
/// assert_eq!((-d).abs(), d);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(i64);

impl Time {
    /// The time origin (t = 0).
    pub const ZERO: Time = Time(0);
    /// The largest representable instant, used as an "infinitely far away" sentinel.
    pub const MAX: Time = Time(i64::MAX);
    /// The smallest representable instant.
    pub const MIN: Time = Time(i64::MIN);

    /// Creates a time from raw femtoseconds.
    #[inline]
    pub const fn from_fs(fs: i64) -> Self {
        Time(fs)
    }

    /// Creates a time from picoseconds (rounded to the nearest femtosecond).
    #[inline]
    pub fn from_ps(ps: f64) -> Self {
        Time((ps * FS_PER_PS as f64).round() as i64)
    }

    /// Creates a time from nanoseconds (rounded to the nearest femtosecond).
    #[inline]
    pub fn from_ns(ns: f64) -> Self {
        Time((ns * FS_PER_NS as f64).round() as i64)
    }

    /// Raw femtosecond count.
    #[inline]
    pub const fn as_fs(self) -> i64 {
        self.0
    }

    /// This instant expressed in picoseconds.
    #[inline]
    pub fn as_ps(self) -> f64 {
        self.0 as f64 / FS_PER_PS as f64
    }

    /// This instant expressed in nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / FS_PER_NS as f64
    }

    /// Span from `earlier` to `self` (may be negative).
    #[inline]
    pub fn delta_since(self, earlier: Time) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a delta; clamps at [`Time::MAX`]/[`Time::MIN`].
    #[inline]
    pub fn saturating_add(self, delta: TimeDelta) -> Time {
        Time(self.0.saturating_add(delta.0))
    }

    /// Checked addition of a delta: `None` when the sum lies outside the
    /// femtosecond clock.
    #[inline]
    pub fn checked_add(self, delta: TimeDelta) -> Option<Time> {
        self.0.checked_add(delta.0).map(Time)
    }

    /// Returns the earlier of two instants.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the later of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl TimeDelta {
    /// The zero-length span.
    pub const ZERO: TimeDelta = TimeDelta(0);
    /// The largest representable span.
    pub const MAX: TimeDelta = TimeDelta(i64::MAX);

    /// Creates a span from raw femtoseconds.
    #[inline]
    pub const fn from_fs(fs: i64) -> Self {
        TimeDelta(fs)
    }

    /// Creates a span from picoseconds (rounded to the nearest femtosecond).
    #[inline]
    pub fn from_ps(ps: f64) -> Self {
        TimeDelta((ps * FS_PER_PS as f64).round() as i64)
    }

    /// Creates a span from nanoseconds (rounded to the nearest femtosecond).
    #[inline]
    pub fn from_ns(ns: f64) -> Self {
        TimeDelta((ns * FS_PER_NS as f64).round() as i64)
    }

    /// Creates a span from seconds (rounded to the nearest femtosecond).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::QuantityOutOfRange`] if the value does not fit in
    /// the femtosecond `i64` range or is not finite.
    pub fn try_from_seconds(seconds: f64) -> Result<Self, CoreError> {
        let fs = seconds * 1e15;
        if !fs.is_finite() || fs.abs() >= i64::MAX as f64 {
            return Err(CoreError::QuantityOutOfRange {
                quantity: "time",
                value: seconds,
            });
        }
        Ok(TimeDelta(fs.round() as i64))
    }

    /// Raw femtosecond count.
    #[inline]
    pub const fn as_fs(self) -> i64 {
        self.0
    }

    /// This span expressed in picoseconds.
    #[inline]
    pub fn as_ps(self) -> f64 {
        self.0 as f64 / FS_PER_PS as f64
    }

    /// This span expressed in nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / FS_PER_NS as f64
    }

    /// Absolute value of the span.
    #[inline]
    pub fn abs(self) -> TimeDelta {
        TimeDelta(self.0.abs())
    }

    /// `true` if the span is negative.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// `true` if the span is exactly zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked multiplication by an integer: `None` when the product lies
    /// outside the femtosecond range.
    #[inline]
    pub fn checked_mul(self, factor: i64) -> Option<TimeDelta> {
        self.0.checked_mul(factor).map(TimeDelta)
    }

    /// Multiplies the span by a dimensionless factor, rounding to the nearest
    /// femtosecond.
    #[inline]
    pub fn scale(self, factor: f64) -> TimeDelta {
        TimeDelta((self.0 as f64 * factor).round() as i64)
    }

    /// Returns the larger of two spans.
    #[inline]
    pub fn max(self, other: TimeDelta) -> TimeDelta {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two spans.
    #[inline]
    pub fn min(self, other: TimeDelta) -> TimeDelta {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add<TimeDelta> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: TimeDelta) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<TimeDelta> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign<TimeDelta> for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 -= rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: Time) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl AddAssign for TimeDelta {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl SubAssign for TimeDelta {
    #[inline]
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 -= rhs.0;
    }
}

impl Neg for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn neg(self) -> TimeDelta {
        TimeDelta(-self.0)
    }
}

impl Mul<i64> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn mul(self, rhs: i64) -> TimeDelta {
        TimeDelta(self.0 * rhs)
    }
}

impl Div<i64> for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn div(self, rhs: i64) -> TimeDelta {
        TimeDelta(self.0 / rhs)
    }
}

impl Sum for TimeDelta {
    fn sum<I: Iterator<Item = TimeDelta>>(iter: I) -> TimeDelta {
        TimeDelta(iter.map(|d| d.0).sum())
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Time({} fs)", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} ns", self.as_ns())
    }
}

impl fmt::Debug for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TimeDelta({} fs)", self.0)
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} ns", self.as_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Time::from_ns(1.0).as_fs(), FS_PER_NS);
        assert_eq!(Time::from_ps(1.0).as_fs(), FS_PER_PS);
        assert_eq!(Time::from_ns(0.25).as_ps(), 250.0);
        assert_eq!(TimeDelta::from_ns(2.0).as_ps(), 2000.0);
    }

    #[test]
    fn arithmetic_behaves_like_integers() {
        let t = Time::from_ns(1.0);
        let d = TimeDelta::from_ps(300.0);
        assert_eq!((t + d) - t, d);
        assert_eq!(t - d + d, t);
        assert_eq!(d * 3, TimeDelta::from_ps(900.0));
        assert_eq!(d / 3, TimeDelta::from_ps(100.0));
        assert_eq!(-d + d, TimeDelta::ZERO);
    }

    #[test]
    fn ordering_is_total() {
        let a = Time::from_ps(1.0);
        let b = Time::from_ps(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert!(Time::MAX > Time::from_ns(1e6));
    }

    #[test]
    fn delta_since_and_saturation() {
        let a = Time::from_ns(3.0);
        let b = Time::from_ns(1.0);
        assert_eq!(a.delta_since(b), TimeDelta::from_ns(2.0));
        assert!(b.delta_since(a).is_negative());
        assert_eq!(Time::MAX.saturating_add(TimeDelta::from_ns(1.0)), Time::MAX);
    }

    #[test]
    fn checked_arithmetic_refuses_to_wrap_at_the_i64_edges() {
        let one = TimeDelta::from_fs(1);
        assert_eq!(
            Time::from_fs(i64::MAX - 1).checked_add(one),
            Some(Time::MAX)
        );
        assert_eq!(Time::MAX.checked_add(one), None);
        assert_eq!(Time::MIN.checked_add(-one), None);
        assert_eq!(
            Time::MIN.checked_add(one),
            Some(Time::from_fs(i64::MIN + 1))
        );
        assert_eq!(Time::MAX.checked_add(TimeDelta::MAX), None);
        assert_eq!(
            TimeDelta::from_fs(i64::MAX / 2).checked_mul(2),
            Some(TimeDelta::from_fs(i64::MAX - 1))
        );
        assert_eq!(TimeDelta::from_fs(i64::MAX / 2 + 1).checked_mul(2), None);
        assert_eq!(TimeDelta::from_fs(i64::MIN).checked_mul(-1), None);
        assert_eq!(TimeDelta::from_fs(-1).checked_mul(i64::MIN), None);
        assert_eq!(TimeDelta::MAX.checked_mul(1), Some(TimeDelta::MAX));
        assert_eq!(TimeDelta::MAX.checked_mul(0), Some(TimeDelta::ZERO));
    }

    #[test]
    fn scale_rounds_to_nearest() {
        let d = TimeDelta::from_fs(10);
        assert_eq!(d.scale(0.25), TimeDelta::from_fs(3)); // 2.5 rounds away from zero
        assert_eq!(d.scale(1.5), TimeDelta::from_fs(15));
    }

    #[test]
    fn try_from_seconds_validates() {
        assert_eq!(
            TimeDelta::try_from_seconds(1e-9).unwrap(),
            TimeDelta::from_ns(1.0)
        );
        assert!(TimeDelta::try_from_seconds(f64::INFINITY).is_err());
        assert!(TimeDelta::try_from_seconds(1e10).is_err());
    }

    #[test]
    fn display_formats_in_ns() {
        assert_eq!(format!("{}", Time::from_ns(1.5)), "1.5000 ns");
        assert_eq!(format!("{}", TimeDelta::from_ps(250.0)), "0.2500 ns");
    }

    #[test]
    fn sum_of_deltas() {
        let total: TimeDelta = (1..=4).map(|i| TimeDelta::from_ps(i as f64)).sum();
        assert_eq!(total, TimeDelta::from_ps(10.0));
    }

    proptest! {
        #[test]
        fn prop_add_sub_inverse(a in -1_000_000_000i64..1_000_000_000, b in -1_000_000_000i64..1_000_000_000) {
            let t = Time::from_fs(a);
            let d = TimeDelta::from_fs(b);
            prop_assert_eq!((t + d) - d, t);
            prop_assert_eq!((t + d) - t, d);
        }

        #[test]
        fn prop_ordering_consistent_with_fs(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000) {
            let ta = Time::from_fs(a);
            let tb = Time::from_fs(b);
            prop_assert_eq!(ta < tb, a < b);
            prop_assert_eq!(ta == tb, a == b);
        }

        #[test]
        fn prop_ns_round_trip(ns in -1_000.0f64..1_000.0) {
            let t = Time::from_ns(ns);
            prop_assert!((t.as_ns() - ns).abs() < 1e-6);
        }
    }
}
