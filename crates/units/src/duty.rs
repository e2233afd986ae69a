//! Radio duty-cycle: the fraction of time a sensor node's radio is on.
//!
//! The paper writes `d = Ton / Tcycle` with `Tcycle = Ton + Toff`. A
//! [`DutyCycle`] is a validated fraction in `[0, 1]`; constructing one from an
//! out-of-range value is an error ([`DutyCycleError`]) rather than a silent
//! clamp, because an out-of-range duty-cycle almost always means a unit bug
//! upstream.

use std::error::Error;
use std::fmt;
use std::ops::{Div, Mul};

use serde::{Decoder, Deserialize, Serialize};

use crate::SimDuration;

/// Error returned when a duty-cycle fraction is outside `[0, 1]` or not finite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutyCycleError {
    value: f64,
}

impl DutyCycleError {
    /// The offending value.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.value
    }
}

impl fmt::Display for DutyCycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "duty-cycle must be a finite fraction in [0, 1], got {}",
            self.value
        )
    }
}

impl Error for DutyCycleError {}

/// The fraction of time a duty-cycled radio is turned on (`d` in the paper).
///
/// # Examples
///
/// ```
/// use snip_units::{DutyCycle, SimDuration};
///
/// // d = Ton / Tcycle: a 20 ms beacon window every 2 s is a 1% duty-cycle.
/// let d = DutyCycle::from_on_cycle(
///     SimDuration::from_millis(20),
///     SimDuration::from_secs(2),
/// );
/// assert!((d.as_fraction() - 0.01).abs() < 1e-12);
/// assert_eq!(d.cycle_for_on(SimDuration::from_millis(20)), SimDuration::from_secs(2));
/// ```
///
/// It travels as the bare fraction, and decodes through [`DutyCycle::new`]:
/// a fraction outside `[0, 1]` is a decode error naming `DutyCycle`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize)]
#[serde(transparent)]
pub struct DutyCycle(f64);

impl Deserialize for DutyCycle {
    fn decode<'de, D: Decoder<'de>>(d: &mut D) -> Result<Self, serde::Error> {
        DutyCycle::new(f64::decode(d)?).map_err(|e| serde::Error::custom(format!("DutyCycle: {e}")))
    }
}

impl DutyCycle {
    /// The radio is never on.
    pub const OFF: DutyCycle = DutyCycle(0.0);

    /// The radio is always on.
    pub const ALWAYS_ON: DutyCycle = DutyCycle(1.0);

    /// Creates a duty-cycle from a fraction in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`DutyCycleError`] if `fraction` is not finite or outside
    /// `[0, 1]`.
    pub fn new(fraction: f64) -> Result<Self, DutyCycleError> {
        if fraction.is_finite() && (0.0..=1.0).contains(&fraction) {
            Ok(DutyCycle(fraction))
        } else {
            Err(DutyCycleError { value: fraction })
        }
    }

    /// Creates a duty-cycle from a fraction, clamping into `[0, 1]`.
    ///
    /// Useful when the fraction is the output of an optimizer that may
    /// overshoot the boundary by a rounding error.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is NaN.
    #[must_use]
    pub fn clamped(fraction: f64) -> Self {
        assert!(!fraction.is_nan(), "duty-cycle fraction is NaN");
        DutyCycle(fraction.clamp(0.0, 1.0))
    }

    /// Creates `d = Ton / Tcycle` from the on-window and cycle lengths.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is zero or shorter than `on`.
    #[must_use]
    pub fn from_on_cycle(on: SimDuration, cycle: SimDuration) -> Self {
        assert!(!cycle.is_zero(), "cycle length must be positive");
        assert!(on <= cycle, "Ton must not exceed Tcycle ({on} > {cycle})");
        DutyCycle(on.as_micros() as f64 / cycle.as_micros() as f64)
    }

    /// Creates `d = Ton / (Ton + Toff)` from the on- and off-windows.
    ///
    /// # Panics
    ///
    /// Panics if both windows are zero.
    #[must_use]
    pub fn from_on_off(on: SimDuration, off: SimDuration) -> Self {
        let cycle = on + off;
        assert!(!cycle.is_zero(), "Ton + Toff must be positive");
        Self::from_on_cycle(on, cycle)
    }

    /// The duty-cycle as a fraction in `[0, 1]`.
    #[must_use]
    pub const fn as_fraction(self) -> f64 {
        self.0
    }

    /// The duty-cycle in percent.
    #[must_use]
    pub fn as_percent(self) -> f64 {
        self.0 * 100.0
    }

    /// `true` if the radio never turns on under this duty-cycle.
    #[must_use]
    pub fn is_off(self) -> bool {
        self.0 == 0.0
    }

    /// The cycle length that yields this duty-cycle for a given on-window
    /// (`Tcycle = Ton / d`), rounded to the nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if the duty-cycle is zero (the cycle would be infinite).
    #[must_use]
    pub fn cycle_for_on(self, on: SimDuration) -> SimDuration {
        assert!(
            !self.is_off(),
            "cannot derive a cycle from a zero duty-cycle"
        );
        SimDuration::from_micros((on.as_micros() as f64 / self.0).round() as u64)
    }

    /// The off-window that yields this duty-cycle for a given on-window
    /// (`Toff = Tcycle - Ton`).
    ///
    /// # Panics
    ///
    /// Panics if the duty-cycle is zero.
    #[must_use]
    pub fn off_for_on(self, on: SimDuration) -> SimDuration {
        self.cycle_for_on(on).saturating_sub(on)
    }

    /// Expected radio-on time accumulated over `span` at this duty-cycle.
    #[must_use]
    pub fn on_time_over(self, span: SimDuration) -> SimDuration {
        span.mul_f64(self.0)
    }
}

impl fmt::Display for DutyCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}%", self.as_percent())
    }
}

impl Mul<f64> for DutyCycle {
    type Output = f64;

    fn mul(self, rhs: f64) -> f64 {
        self.0 * rhs
    }
}

impl Div for DutyCycle {
    type Output = f64;

    fn div(self, rhs: DutyCycle) -> f64 {
        assert!(!rhs.is_off(), "division by zero duty-cycle");
        self.0 / rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_accepts_unit_interval() {
        assert!(DutyCycle::new(0.0).is_ok());
        assert!(DutyCycle::new(0.5).is_ok());
        assert!(DutyCycle::new(1.0).is_ok());
    }

    #[test]
    fn new_rejects_out_of_range() {
        for bad in [-0.1, 1.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = DutyCycle::new(bad).unwrap_err();
            if !bad.is_nan() {
                assert_eq!(err.value(), bad);
            }
            assert!(err.to_string().contains("duty-cycle"));
        }
    }

    #[test]
    fn decode_refuses_what_new_refuses() {
        let back: DutyCycle =
            serde::json::decode(&serde::json::to_string(&DutyCycle::ALWAYS_ON)).expect("in range");
        assert_eq!(back, DutyCycle::ALWAYS_ON);
        for bad in ["2.0", "-0.5", "1.0000001"] {
            let err = serde::json::decode::<DutyCycle>(bad)
                .expect_err(bad)
                .to_string();
            assert!(
                err.contains("DutyCycle") && err.contains("[0, 1]"),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn clamped_clamps() {
        assert_eq!(DutyCycle::clamped(-0.5), DutyCycle::OFF);
        assert_eq!(DutyCycle::clamped(2.0), DutyCycle::ALWAYS_ON);
        assert_eq!(DutyCycle::clamped(0.25).as_fraction(), 0.25);
    }

    #[test]
    fn from_on_cycle_matches_paper_definition() {
        let d = DutyCycle::from_on_cycle(SimDuration::from_millis(20), SimDuration::from_secs(2));
        assert!((d.as_fraction() - 0.01).abs() < 1e-12);
        assert!((d.as_percent() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn from_on_off_equals_from_on_cycle() {
        let on = SimDuration::from_millis(20);
        let off = SimDuration::from_millis(1_980);
        assert_eq!(
            DutyCycle::from_on_off(on, off),
            DutyCycle::from_on_cycle(on, on + off)
        );
    }

    #[test]
    #[should_panic(expected = "Ton must not exceed Tcycle")]
    fn from_on_cycle_rejects_on_longer_than_cycle() {
        let _ = DutyCycle::from_on_cycle(SimDuration::from_secs(2), SimDuration::from_secs(1));
    }

    #[test]
    fn cycle_and_off_derivations() {
        let on = SimDuration::from_millis(20);
        let d = DutyCycle::new(0.01).unwrap();
        assert_eq!(d.cycle_for_on(on), SimDuration::from_secs(2));
        assert_eq!(d.off_for_on(on), SimDuration::from_millis(1_980));
    }

    #[test]
    fn on_time_over_scales_linearly() {
        let d = DutyCycle::new(0.001).unwrap();
        let epoch = SimDuration::from_hours(24);
        assert_eq!(
            d.on_time_over(epoch),
            SimDuration::from_secs(86_400) / 1_000
        );
    }

    #[test]
    fn display_shows_percent() {
        assert_eq!(DutyCycle::new(0.01).unwrap().to_string(), "1.0000%");
    }

    proptest! {
        #[test]
        fn prop_on_cycle_roundtrip(on_ms in 1u64..10_000, ratio in 2u64..10_000) {
            let on = SimDuration::from_millis(on_ms);
            let cycle = on * ratio;
            let d = DutyCycle::from_on_cycle(on, cycle);
            // Re-deriving the cycle from the fraction lands within one µs.
            let rederived = d.cycle_for_on(on);
            let diff = rederived.as_micros().abs_diff(cycle.as_micros());
            prop_assert!(diff <= 1, "diff {diff} µs too large");
        }

        #[test]
        fn prop_fraction_in_range(frac in 0.0f64..=1.0) {
            let d = DutyCycle::new(frac).unwrap();
            prop_assert!(d.as_fraction() >= 0.0 && d.as_fraction() <= 1.0);
            prop_assert_eq!(d.as_fraction(), frac);
        }
    }
}
