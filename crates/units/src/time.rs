//! Simulated time: instants ([`SimTime`]) and spans ([`SimDuration`]).
//!
//! Both types count whole microseconds in a `u64`. Arithmetic that would
//! overflow or go negative panics in debug builds and saturates via the
//! checked variants; the plain operators use checked arithmetic and panic on
//! violation so unit bugs surface immediately rather than wrapping silently.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::TICKS_PER_SECOND;

/// A span of simulated time with microsecond resolution.
///
/// # Examples
///
/// ```
/// use snip_units::SimDuration;
///
/// let rush_hour = SimDuration::from_hours(2);
/// assert_eq!(rush_hour.as_secs_f64(), 7200.0);
/// assert_eq!(rush_hour / SimDuration::from_secs(300), 24);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(u64);

/// `ticks.round() as u64` for `0 ≤ ticks ≤ 2^64` (half away from zero),
/// without the out-of-line `round` call: below 2^52 the fraction
/// `ticks - trunc(ticks)` is exact, and from 2^52 up every float is a
/// whole number, so adding one at a fraction of one half or more is the
/// same rounding. At 2^64 both saturate to `u64::MAX`.
fn round_ticks(ticks: f64) -> u64 {
    let whole = ticks as u64;
    if ticks - whole as f64 >= 0.5 {
        whole + 1
    } else {
        whole
    }
}

/// `ticks` rounded to whole µs as [`SimDuration::from_secs_f64`] rounds
/// them, if every value within `err` of `ticks` rounds the same and is
/// positive; `None` when the caller must decide with the exact value.
///
/// This is the rounding test of a guarded fast route: a caller that has a
/// cheap approximation of an exact tick count, and a bound `err` on how far
/// the two can be apart, uses the cheap value only when this returns
/// `Some`, and falls back to the exact value otherwise. The answer is then
/// the exact value's rounding either way.
///
/// # Examples
///
/// ```
/// use snip_units::round_if_clear;
///
/// assert_eq!(round_if_clear(1_234_567.25, 0.125), Some(1_234_567));
/// // Within the bound of the edge at 1_234_567.5: the exact value decides.
/// assert_eq!(round_if_clear(1_234_567.4, 0.125), None);
/// ```
#[must_use]
pub fn round_if_clear(ticks: f64, err: f64) -> Option<u64> {
    // Below 2^52, adding 2^52 rounds `ticks` to the nearest whole number,
    // which the sum's low bits hold, and `ticks − nearest` is exact.
    // Rounding changes only at x.5, and the x.5 nearest to `ticks` is
    // `0.5 − |ticks − nearest|` away. One branch, on all three tests;
    // NaN fails them.
    const TWO_52: f64 = (1u64 << 52) as f64;
    let shifted = ticks + TWO_52;
    let nearest = shifted - TWO_52;
    let clear = (ticks > err) & (ticks < TWO_52) & (0.5 - (ticks - nearest).abs() > err);
    clear.then(|| shifted.to_bits() - TWO_52.to_bits())
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from whole microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from whole milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * TICKS_PER_SECOND)
    }

    /// Creates a duration from whole minutes.
    #[must_use]
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60 * TICKS_PER_SECOND)
    }

    /// Creates a duration from whole hours.
    #[must_use]
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600 * TICKS_PER_SECOND)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        let ticks = secs * TICKS_PER_SECOND as f64;
        assert!(
            ticks <= u64::MAX as f64,
            "duration of {secs} s overflows the microsecond clock"
        );
        SimDuration(round_ticks(ticks))
    }

    /// Returns the duration in whole microseconds.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration in fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration in fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SECOND as f64
    }

    /// Returns the duration in fractional hours.
    #[must_use]
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3_600.0
    }

    /// Returns `true` if the duration is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub const fn checked_add(self, rhs: SimDuration) -> Option<SimDuration> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(SimDuration(v)),
            None => None,
        }
    }

    /// Checked subtraction; `None` if `rhs > self`.
    #[must_use]
    pub const fn checked_sub(self, rhs: SimDuration) -> Option<SimDuration> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(SimDuration(v)),
            None => None,
        }
    }

    /// Subtraction clamped at zero.
    #[must_use]
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Addition clamped at [`SimDuration::MAX`].
    #[must_use]
    pub const fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Multiplies by a non-negative float, rounding to the nearest tick.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative, NaN, or the product overflows.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration scale factor must be finite and non-negative, got {factor}"
        );
        let ticks = self.0 as f64 * factor;
        assert!(
            ticks <= u64::MAX as f64,
            "scaling duration by {factor} overflows"
        );
        SimDuration(ticks.round() as u64)
    }

    /// Returns the smaller of two durations.
    #[must_use]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two durations.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.as_secs_f64();
        if secs >= 3_600.0 {
            write!(f, "{:.3}h", secs / 3_600.0)
        } else if secs >= 1.0 {
            write!(f, "{secs:.3}s")
        } else {
            write!(f, "{:.3}ms", self.as_millis_f64())
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        self.checked_add(rhs)
            .expect("SimDuration addition overflow")
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        self.checked_sub(rhs)
            .expect("SimDuration subtraction underflow")
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
        SimDuration(
            self.0
                .checked_mul(rhs)
                .expect("SimDuration multiplication overflow"),
        )
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

/// Integer division of two durations: how many times `rhs` fits into `self`.
impl Div for SimDuration {
    type Output = u64;

    fn div(self, rhs: SimDuration) -> u64 {
        assert!(!rhs.is_zero(), "division by zero SimDuration");
        self.0 / rhs.0
    }
}

impl Rem for SimDuration {
    type Output = SimDuration;

    fn rem(self, rhs: SimDuration) -> SimDuration {
        assert!(!rhs.is_zero(), "remainder by zero SimDuration");
        SimDuration(self.0 % rhs.0)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

/// An instant on the simulated clock, measured from the simulation origin.
///
/// # Examples
///
/// ```
/// use snip_units::{SimDuration, SimTime};
///
/// let t = SimTime::from_secs(7 * 3600);
/// let epoch = SimDuration::from_hours(24);
/// assert_eq!(t.time_in_epoch(epoch), SimDuration::from_hours(7));
/// assert_eq!(t.epoch_index(epoch), 0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation origin.
    pub const ZERO: SimTime = SimTime(0);

    /// The farthest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after the origin.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `secs` seconds after the origin.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * TICKS_PER_SECOND)
    }

    /// Creates an instant from fractional seconds after the origin.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or unrepresentable.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(SimDuration::from_secs_f64(secs).as_micros())
    }

    /// Microseconds since the origin.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the origin.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_SECOND as f64
    }

    /// Elapsed time since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    #[must_use]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier instant is after self"),
        )
    }

    /// Elapsed time since an earlier instant, or zero if `earlier` is later.
    #[must_use]
    pub const fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked offset into the future; `None` on overflow.
    #[must_use]
    pub const fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        match self.0.checked_add(d.as_micros()) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }

    /// Offset into the simulation epoch that contains this instant.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is zero.
    #[must_use]
    pub fn time_in_epoch(self, epoch: SimDuration) -> SimDuration {
        assert!(!epoch.is_zero(), "epoch length must be positive");
        SimDuration(self.0 % epoch.as_micros())
    }

    /// Index of the epoch containing this instant (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is zero.
    #[must_use]
    pub fn epoch_index(self, epoch: SimDuration) -> u64 {
        assert!(!epoch.is_zero(), "epoch length must be positive");
        self.0 / epoch.as_micros()
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        self.checked_add(rhs).expect("SimTime addition overflow")
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
        SimTime(
            self.0
                .checked_sub(rhs.as_micros())
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Sub for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_rounding_matches_round_half_away_from_zero() {
        let next_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let next_down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let mut cases = vec![0.0, 0.25, 1.0, 3.75, 2f64.powi(52), 2f64.powi(64)];
        for tie in [
            0.5,
            1.5,
            2.5,
            1e6 + 0.5,
            2f64.powi(51) + 0.5,
            2f64.powi(52) - 0.5,
        ] {
            cases.extend([tie, next_up(tie), next_down(tie)]);
        }
        for big in [
            2f64.powi(52) + 1.0,
            2f64.powi(53) + 2.0,
            2f64.powi(63),
            2f64.powi(64),
        ] {
            cases.extend([big, next_down(big)]);
        }
        for ticks in cases {
            assert_eq!(round_ticks(ticks), ticks.round() as u64, "{ticks:e}");
        }
        assert_eq!(round_ticks(2f64.powi(64)), u64::MAX);
        assert_eq!(
            SimDuration::from_secs_f64(2.5e-6),
            SimDuration::from_micros(3)
        );
    }

    #[test]
    fn round_if_clear_rounds_as_from_secs_f64() {
        // A fixed walk over [0, 4000) s that lands on every fraction of a
        // microsecond.
        let mut secs = 0.0f64;
        for _ in 0..100_000 {
            secs = (secs + 0.039_999_731_1) % 4000.0;
            if let Some(us) = round_if_clear(secs * TICKS_PER_SECOND as f64, 0.0) {
                assert_eq!(us, SimDuration::from_secs_f64(secs).as_micros(), "{secs}");
            }
        }
    }

    #[test]
    fn round_if_clear_defers_at_half_microsecond_edges() {
        let edge = 1_234_567.5;
        let ulp = 2f64.powi(-32); // ulp(edge)
        assert_eq!(round_if_clear(edge, 0.0), None);
        assert_eq!(round_if_clear(edge, 1e-6), None);
        assert_eq!(round_if_clear(edge + 4.0 * ulp, ulp), Some(1_234_568));
        assert_eq!(round_if_clear(edge - 4.0 * ulp, ulp), Some(1_234_567));
        assert_eq!(round_if_clear(edge + 4.0 * ulp, 8.0 * ulp), None);
        assert_eq!(round_if_clear(edge - 4.0 * ulp, 8.0 * ulp), None);
        // Whole microseconds are far from an edge.
        assert_eq!(round_if_clear(1_234_567.0, 0.25), Some(1_234_567));
        // No tolerance of half a microsecond or more is ever clear.
        assert_eq!(round_if_clear(1_234_567.0, 0.5), None);
    }

    #[test]
    fn round_if_clear_defers_at_or_near_zero_and_out_of_range() {
        assert_eq!(round_if_clear(0.0, 0.0), None);
        assert_eq!(round_if_clear(-3.0, 1e-9), None);
        assert_eq!(round_if_clear(1e-6, 1e-6), None);
        assert_eq!(round_if_clear(1e-6, 2e-6), None);
        // Positive beyond the tolerance: the exact value is positive too,
        // even where it rounds to zero.
        assert_eq!(round_if_clear(0.25, 0.125), Some(0));
        assert_eq!(round_if_clear(f64::NAN, 0.0), None);
        assert_eq!(round_if_clear(2f64.powi(52), 0.0), None);
    }

    use proptest::prelude::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_millis(1_000), SimDuration::from_secs(1));
        assert_eq!(SimDuration::from_mins(60), SimDuration::from_hours(1));
        assert_eq!(SimDuration::from_micros(0), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1_500)
        );
    }

    #[test]
    fn display_chooses_sensible_scale() {
        assert_eq!(SimDuration::from_millis(20).to_string(), "20.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::from_hours(2).to_string(), "2.000h");
        assert_eq!(SimTime::from_secs(1).to_string(), "t=1.000000s");
    }

    #[test]
    fn duration_arithmetic_roundtrips() {
        let a = SimDuration::from_secs(300);
        let b = SimDuration::from_millis(500);
        assert_eq!((a + b) - b, a);
        assert_eq!(a * 3 / 3, a);
        assert_eq!(a / b, 600);
        assert_eq!(a % b, SimDuration::ZERO);
    }

    #[test]
    fn saturating_ops_clamp() {
        assert_eq!(
            SimDuration::ZERO.saturating_sub(SimDuration::from_secs(1)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::MAX.saturating_add(SimDuration::from_secs(1)),
            SimDuration::MAX
        );
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimDuration::ZERO - SimDuration::from_micros(1);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_duration_panics() {
        let _ = SimDuration::from_secs(1) / SimDuration::ZERO;
    }

    #[test]
    fn time_epoch_helpers() {
        let epoch = SimDuration::from_hours(24);
        let t = SimTime::from_secs(25 * 3_600);
        assert_eq!(t.epoch_index(epoch), 1);
        assert_eq!(t.time_in_epoch(epoch), SimDuration::from_hours(1));
    }

    #[test]
    fn time_instant_arithmetic() {
        let t0 = SimTime::from_secs(10);
        let t1 = t0 + SimDuration::from_secs(5);
        assert_eq!(t1 - t0, SimDuration::from_secs(5));
        assert_eq!(t1 - SimDuration::from_secs(5), t0);
        assert_eq!(
            t0.saturating_duration_since(t1),
            SimDuration::ZERO,
            "earlier.saturating_duration_since(later) clamps to zero"
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn mul_f64_rounds_to_nearest_tick() {
        let d = SimDuration::from_micros(3);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_micros(2)); // 1.5 rounds to 2
        assert_eq!(d.mul_f64(1.0), d);
        assert_eq!(
            SimDuration::from_secs(10).mul_f64(0.1),
            SimDuration::from_secs(1)
        );
    }

    #[test]
    fn min_max_orderings() {
        let small = SimDuration::from_secs(1);
        let big = SimDuration::from_secs(2);
        assert_eq!(small.min(big), small);
        assert_eq!(small.max(big), big);
    }

    proptest! {
        #[test]
        fn prop_add_sub_roundtrip(a in 0u64..1 << 62, b in 0u64..1 << 62) {
            let da = SimDuration::from_micros(a);
            let db = SimDuration::from_micros(b);
            prop_assert_eq!((da + db) - db, da);
        }

        #[test]
        fn prop_secs_f64_roundtrip(secs in 0.0f64..1.0e9) {
            let d = SimDuration::from_secs_f64(secs);
            let back = d.as_secs_f64();
            // round-trips to within half a tick
            prop_assert!((back - secs).abs() <= 1.0 / TICKS_PER_SECOND as f64);
        }

        #[test]
        fn prop_epoch_decomposition(micros in 0u64..u64::MAX / 2, epoch_secs in 1u64..1_000_000) {
            let t = SimTime::from_micros(micros);
            let epoch = SimDuration::from_secs(epoch_secs);
            let reconstructed = t.epoch_index(epoch) * epoch.as_micros()
                + t.time_in_epoch(epoch).as_micros();
            prop_assert_eq!(reconstructed, micros);
        }

        #[test]
        fn prop_ordering_consistent_with_micros(a in any::<u64>(), b in any::<u64>()) {
            let da = SimDuration::from_micros(a);
            let db = SimDuration::from_micros(b);
            prop_assert_eq!(da.cmp(&db), a.cmp(&b));
        }
    }
}
