//! Random sampling from [`LengthDistribution`]s.
//!
//! `rand` 0.8 ships only uniform primitives, so the classic transforms are
//! implemented here: Box–Muller for the normal family and inverse-CDF for the
//! exponential. Normal draws are rejected-and-redrawn at or below zero so a
//! contact length is always strictly positive (the paper's σ = µ/10 makes
//! rejection astronomically rare, but the simulator must never see a
//! zero-length contact).

use rand::Rng;
use snip_model::LengthDistribution;
use snip_units::SimDuration;

/// Draws one duration from a distribution.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use snip_mobility::{sample_duration, LengthDistribution};
/// use snip_units::SimDuration;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let dist = LengthDistribution::paper_normal(SimDuration::from_secs(2));
/// let draw = sample_duration(&dist, &mut rng);
/// assert!(draw > SimDuration::ZERO);
/// ```
#[must_use]
pub fn sample_duration<R: Rng + ?Sized>(dist: &LengthDistribution, rng: &mut R) -> SimDuration {
    Sampler::new(dist).sample(rng)
}

/// A distribution with its `f64` constants worked out once, for drawing
/// from it many times (a trace generator draws one per contact). Draws
/// are bit-identical to [`sample_duration`]'s and consume the same
/// random numbers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Sampler {
    /// Always this duration; no draw.
    Fixed(SimDuration),
    /// Normal, truncated to positive values by rejection (seconds).
    Normal { mean: f64, sd: f64 },
    /// Exponential by inverse CDF (seconds).
    Exponential { mean: f64 },
    /// Uniform over whole microseconds `low..=high`.
    Uniform { low: u64, high: u64 },
    /// Log-normal with the underlying normal's `mu` and `sigma`.
    LogNormal { mu: f64, sigma: f64 },
}

impl Sampler {
    pub(crate) fn new(dist: &LengthDistribution) -> Sampler {
        match *dist {
            LengthDistribution::Fixed { length } => Sampler::Fixed(length),
            LengthDistribution::Normal { mean, std_dev } => {
                let (mean, sd) = (mean.as_secs_f64(), std_dev.as_secs_f64());
                if sd == 0.0 {
                    Sampler::Fixed(SimDuration::from_secs_f64(mean.max(0.0)))
                } else {
                    Sampler::Normal { mean, sd }
                }
            }
            LengthDistribution::Exponential { mean } => Sampler::Exponential {
                mean: mean.as_secs_f64(),
            },
            LengthDistribution::Uniform { low, high } => {
                if low == high {
                    Sampler::Fixed(low)
                } else {
                    Sampler::Uniform {
                        low: low.as_micros(),
                        high: high.as_micros(),
                    }
                }
            }
            LengthDistribution::LogNormal { mean, std_dev } => {
                // The log-normal's own mean/sd, turned into the underlying
                // normal's parameters.
                let (mean, sd) = (mean.as_secs_f64(), std_dev.as_secs_f64());
                if sd == 0.0 {
                    Sampler::Fixed(SimDuration::from_secs_f64(mean))
                } else {
                    let sigma2 = (1.0 + (sd * sd) / (mean * mean)).ln();
                    Sampler::LogNormal {
                        mu: mean.ln() - sigma2 / 2.0,
                        sigma: sigma2.sqrt(),
                    }
                }
            }
            // LengthDistribution is #[non_exhaustive]; fall back to the mean
            // for any future variant this sampler predates.
            _ => Sampler::Fixed(dist.mean()),
        }
    }

    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        match *self {
            Sampler::Fixed(length) => length,
            Sampler::Normal { mean, sd } => sample_positive_normal(mean, sd, rng),
            Sampler::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                SimDuration::from_secs_f64(-mean * u.ln())
            }
            Sampler::Uniform { low, high } => SimDuration::from_micros(rng.gen_range(low..=high)),
            Sampler::LogNormal { mu, sigma } => {
                SimDuration::from_secs_f64((mu + sigma * standard_normal(rng)).exp())
            }
        }
    }
}

/// One standard-normal draw via Box–Muller.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling the half-open interval away from zero.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A normal draw (`sd > 0`) truncated to strictly positive values by
/// rejection.
fn sample_positive_normal<R: Rng + ?Sized>(mean: f64, sd: f64, rng: &mut R) -> SimDuration {
    // With the paper's σ = µ/10 a single rejection is a 1-in-10²³ event;
    // cap the loop anyway so adversarial parameters cannot hang the caller.
    for _ in 0..1_000 {
        let draw = mean + sd * standard_normal(rng);
        if draw > 0.0 {
            return SimDuration::from_secs_f64(draw);
        }
    }
    // Pathological (mean ≪ 0): fall back to a hair above zero.
    SimDuration::from_micros(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    fn sample_mean(dist: &LengthDistribution, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| sample_duration(dist, &mut rng).as_secs_f64())
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn fixed_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = LengthDistribution::fixed(secs(2.0));
        for _ in 0..10 {
            assert_eq!(sample_duration(&d, &mut rng), secs(2.0));
        }
    }

    #[test]
    fn normal_sample_mean_converges() {
        let d = LengthDistribution::paper_normal(secs(2.0));
        let m = sample_mean(&d, 20_000, 42);
        assert!((m - 2.0).abs() < 0.01, "mean {m}");
    }

    #[test]
    fn normal_sample_spread_matches_sigma() {
        let d = LengthDistribution::paper_normal(secs(2.0));
        let mut rng = StdRng::seed_from_u64(43);
        let n = 20_000;
        let draws: Vec<f64> = (0..n)
            .map(|_| sample_duration(&d, &mut rng).as_secs_f64())
            .collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((var.sqrt() - 0.2).abs() < 0.01, "sd {}", var.sqrt());
    }

    #[test]
    fn normal_never_yields_zero() {
        // Hostile parameters: mean barely above zero, huge σ.
        let d = LengthDistribution::normal(secs(0.001), secs(10.0));
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5_000 {
            assert!(sample_duration(&d, &mut rng) > SimDuration::ZERO);
        }
    }

    #[test]
    fn exponential_sample_mean_converges() {
        let d = LengthDistribution::exponential(secs(300.0));
        let m = sample_mean(&d, 50_000, 44);
        assert!((m - 300.0).abs() / 300.0 < 0.02, "mean {m}");
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let d = LengthDistribution::uniform(secs(1.0), secs(3.0));
        let mut rng = StdRng::seed_from_u64(45);
        for _ in 0..5_000 {
            let v = sample_duration(&d, &mut rng);
            assert!(v >= secs(1.0) && v <= secs(3.0));
        }
        let m = sample_mean(&d, 20_000, 46);
        assert!((m - 2.0).abs() < 0.02, "mean {m}");
    }

    #[test]
    fn degenerate_uniform_is_constant() {
        let d = LengthDistribution::uniform(secs(2.0), secs(2.0));
        let mut rng = StdRng::seed_from_u64(47);
        assert_eq!(sample_duration(&d, &mut rng), secs(2.0));
    }

    #[test]
    fn log_normal_sample_mean_converges() {
        let d = LengthDistribution::log_normal(secs(2.0), secs(0.5));
        let m = sample_mean(&d, 50_000, 48);
        assert!((m - 2.0).abs() < 0.02, "mean {m}");
    }

    #[test]
    fn zero_sd_families_are_deterministic() {
        let mut rng = StdRng::seed_from_u64(49);
        let n = LengthDistribution::normal(secs(2.0), SimDuration::ZERO);
        assert_eq!(sample_duration(&n, &mut rng), secs(2.0));
        let ln = LengthDistribution::log_normal(secs(2.0), SimDuration::ZERO);
        assert_eq!(sample_duration(&ln, &mut rng), secs(2.0));
    }

    #[test]
    fn seeded_rng_reproduces_sequences() {
        let d = LengthDistribution::paper_normal(secs(2.0));
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(sample_duration(&d, &mut a), sample_duration(&d, &mut b));
        }
    }
}
