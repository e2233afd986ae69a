//! Contact arrival processes.
//!
//! A contact process answers one question: given the previous contact's start
//! time, when does the next one start? The paper's simulations use a renewal
//! process with Normal(µ, µ/10) inter-contact intervals; its analysis uses a
//! deterministic interval; Poisson arrivals are the natural null model for
//! sensitivity studies.

use rand::Rng;
use serde::{Deserialize, Serialize};
use snip_model::LengthDistribution;
use snip_units::SimDuration;

use crate::sampler::sample_duration;

/// How inter-contact intervals are drawn.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use snip_mobility::ArrivalProcess;
/// use snip_units::SimDuration;
///
/// let p = ArrivalProcess::periodic(SimDuration::from_secs(300));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// assert_eq!(p.next_interval(&mut rng), SimDuration::from_secs(300));
/// assert_eq!(p.mean_interval(), SimDuration::from_secs(300));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ArrivalProcess {
    /// Deterministic intervals (the paper's analysis setting).
    Periodic {
        /// The constant interval.
        interval: SimDuration,
    },
    /// Renewal process with intervals from a distribution (the paper's
    /// simulations use `LengthDistribution::paper_normal`).
    Renewal {
        /// The interval distribution.
        interval: LengthDistribution,
    },
    /// Poisson arrivals, i.e. a renewal process with exponential intervals.
    Poisson {
        /// The mean interval (`1/λ`).
        mean_interval: SimDuration,
    },
}

impl ArrivalProcess {
    /// Deterministic arrivals every `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn periodic(interval: SimDuration) -> Self {
        ArrivalProcess::Periodic { interval }.checked()
    }

    /// Renewal arrivals with intervals drawn from `interval`.
    ///
    /// # Panics
    ///
    /// Panics if the distribution mean is zero.
    #[must_use]
    pub fn renewal(interval: LengthDistribution) -> Self {
        ArrivalProcess::Renewal { interval }.checked()
    }

    /// The paper's simulation setting: Normal(µ, µ/10) intervals.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is zero.
    #[must_use]
    pub fn paper_normal(mean: SimDuration) -> Self {
        Self::renewal(LengthDistribution::paper_normal(mean))
    }

    /// Poisson arrivals with the given mean interval.
    ///
    /// # Panics
    ///
    /// Panics if `mean_interval` is zero.
    #[must_use]
    pub fn poisson(mean_interval: SimDuration) -> Self {
        ArrivalProcess::Poisson { mean_interval }.checked()
    }

    /// The condition this process breaks, if any: exactly what the
    /// constructors assert (a positive interval or mean interval, and a
    /// renewal distribution that passes [`LengthDistribution::check`]).
    /// Decoders that take a process from bytes run it, so a decoded value
    /// keeps the invariants a constructed one has.
    ///
    /// # Errors
    ///
    /// The constructor's panic message for the broken condition.
    pub fn check(&self) -> Result<(), &'static str> {
        match *self {
            ArrivalProcess::Periodic { interval } if interval.is_zero() => {
                Err("arrival interval must be positive")
            }
            ArrivalProcess::Renewal { interval } if interval.mean().is_zero() => {
                Err("mean arrival interval must be positive")
            }
            ArrivalProcess::Renewal { interval } => interval.check(),
            ArrivalProcess::Poisson { mean_interval } if mean_interval.is_zero() => {
                Err("mean arrival interval must be positive")
            }
            _ => Ok(()),
        }
    }

    /// `self`, after asserting [`ArrivalProcess::check`].
    fn checked(self) -> Self {
        self.check().unwrap_or_else(|why| panic!("{why}"));
        self
    }

    /// The mean inter-contact interval.
    #[must_use]
    pub fn mean_interval(&self) -> SimDuration {
        match *self {
            ArrivalProcess::Periodic { interval } => interval,
            ArrivalProcess::Renewal { interval } => interval.mean(),
            ArrivalProcess::Poisson { mean_interval } => mean_interval,
        }
    }

    /// The mean arrival frequency in contacts per second.
    #[must_use]
    pub fn frequency(&self) -> f64 {
        1.0 / self.mean_interval().as_secs_f64()
    }

    /// Draws the next inter-contact interval.
    ///
    /// Zero draws are bumped to one microsecond so consecutive contacts never
    /// coincide exactly (the reference model has at most one mobile node in
    /// range at a time).
    #[must_use]
    pub fn next_interval<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        let raw = match *self {
            ArrivalProcess::Periodic { interval } => interval,
            ArrivalProcess::Renewal { interval } => sample_duration(&interval, rng),
            ArrivalProcess::Poisson { mean_interval } => {
                sample_duration(&LengthDistribution::exponential(mean_interval), rng)
            }
        };
        raw.max(SimDuration::from_micros(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn periodic_is_exact() {
        let p = ArrivalProcess::periodic(SimDuration::from_secs(1_800));
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..5 {
            assert_eq!(p.next_interval(&mut rng), SimDuration::from_secs(1_800));
        }
        assert!((p.frequency() - 1.0 / 1_800.0).abs() < 1e-12);
    }

    #[test]
    fn paper_normal_mean_converges() {
        let p = ArrivalProcess::paper_normal(SimDuration::from_secs(300));
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| p.next_interval(&mut rng).as_secs_f64())
            .sum::<f64>()
            / f64::from(n);
        assert!((mean - 300.0).abs() / 300.0 < 0.01, "mean {mean}");
    }

    #[test]
    fn poisson_mean_converges() {
        let p = ArrivalProcess::poisson(SimDuration::from_secs(300));
        assert_eq!(p.mean_interval(), SimDuration::from_secs(300));
        let mut rng = StdRng::seed_from_u64(2);
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| p.next_interval(&mut rng).as_secs_f64())
            .sum::<f64>()
            / f64::from(n);
        assert!((mean - 300.0).abs() / 300.0 < 0.02, "mean {mean}");
    }

    #[test]
    fn intervals_are_strictly_positive() {
        // Exponential can draw arbitrarily close to zero; the floor holds.
        let p = ArrivalProcess::poisson(SimDuration::from_micros(2));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(p.next_interval(&mut rng) >= SimDuration::from_micros(1));
        }
    }

    #[test]
    fn renewal_reports_distribution_mean() {
        let p = ArrivalProcess::renewal(LengthDistribution::uniform(
            SimDuration::from_secs(100),
            SimDuration::from_secs(300),
        ));
        assert_eq!(p.mean_interval(), SimDuration::from_secs(200));
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_periodic_rejected() {
        let _ = ArrivalProcess::periodic(SimDuration::ZERO);
    }
}
