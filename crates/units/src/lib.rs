//! Foundation quantity types for the SNIP-RH reproduction.
//!
//! Every crate in the workspace manipulates the same small set of physical
//! quantities: points in simulated time, durations, radio duty-cycles, energy,
//! and amounts of sensed data. Mixing those up as raw `u64`/`f64` values is a
//! classic source of silent unit bugs (seconds vs. microseconds, ratios vs.
//! percentages), so this crate provides newtypes for each quantity with
//! explicit, checked conversions ([C-NEWTYPE]).
//!
//! The internal clock resolution is **one microsecond**; this comfortably
//! resolves the shortest interval in the paper (the `Ton = 20 ms` beacon
//! window) while letting a `u64` tick counter cover ~584,000 years of
//! simulated time.
//!
//! # Glossary (Table I of the paper)
//!
//! | Notation | Type here | Meaning |
//! |----------|-----------|---------|
//! | `Ton` | [`SimDuration`] | period the sensor radio is on per cycle |
//! | `Toff` | [`SimDuration`] | period the radio is off per cycle |
//! | `d` | [`DutyCycle`] | `Ton / (Ton + Toff)` |
//! | `Tcycle` | [`SimDuration`] | `Ton + Toff` |
//! | `Tcontact` | [`SimDuration`] | how long a mobile node stays in range |
//! | `Tprobed` | [`SimDuration`] | tail of a contact usable for upload |
//! | `Υ` (upsilon) | `f64` | `Tprobed / Tcontact`, probed fraction |
//! | `Tepoch` | [`SimDuration`] | period of the mobility pattern (24 h) |
//! | `ζ` (zeta) | [`SimDuration`] | probed contact capacity per epoch |
//! | `Φ` (phi) | [`SimDuration`] | radio-on time spent probing per epoch |
//! | `ρ` (rho) | `f64` | `Φ / ζ`, cost per unit probed capacity |
//!
//! # Examples
//!
//! ```
//! use snip_units::{DutyCycle, SimDuration, SimTime};
//!
//! let ton = SimDuration::from_millis(20);
//! let cycle = SimDuration::from_secs(2);
//! let d = DutyCycle::from_on_cycle(ton, cycle);
//! assert!((d.as_fraction() - 0.01).abs() < 1e-12);
//!
//! let start = SimTime::ZERO;
//! let later = start + cycle;
//! assert_eq!(later.duration_since(start), cycle);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod data;
mod duty;
mod energy;
mod time;

pub use data::DataSize;
pub use duty::{DutyCycle, DutyCycleError};
pub use energy::{Energy, Power, RadioEnergyModel};
pub use time::{round_if_clear, SimDuration, SimTime};

/// Number of microsecond ticks per second (the crate-wide clock resolution).
pub const TICKS_PER_SECOND: u64 = 1_000_000;

/// Seconds in the canonical 24-hour epoch used throughout the paper.
pub const SECONDS_PER_DAY: u64 = 86_400;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glossary_constants_are_consistent() {
        assert_eq!(TICKS_PER_SECOND, 1_000_000);
        assert_eq!(
            SimDuration::from_secs(SECONDS_PER_DAY),
            SimDuration::from_hours(24)
        );
    }
}
