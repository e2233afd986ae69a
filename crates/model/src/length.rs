//! Contact-length distributions.
//!
//! The paper's analysis assumes a fixed contact length; its simulations draw
//! `Tcontact` from a Normal distribution with σ = µ/10; and the SNIP paper's
//! footnote discusses exponential lengths. [`LengthDistribution`] covers all
//! of these (plus uniform and log-normal for sensitivity studies) with enough
//! structure for both closed-form work (mean, support) and numeric
//! expectations of arbitrary functions of the length.
//!
//! Sampling lives in `snip-mobility`; this type is pure mathematics so the
//! model crate stays free of RNG dependencies.

use serde::{Deserialize, Serialize};
use snip_units::SimDuration;

use crate::integrate::integrate;

/// A distribution over contact lengths (or inter-contact intervals).
///
/// # Examples
///
/// ```
/// use snip_model::LengthDistribution;
/// use snip_units::SimDuration;
///
/// let d = LengthDistribution::normal(
///     SimDuration::from_secs(2),
///     SimDuration::from_millis(200),
/// );
/// assert_eq!(d.mean(), SimDuration::from_secs(2));
/// // E[l] via the generic expectation machinery:
/// let mean = d.expect(|l| l);
/// assert!((mean - 2.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum LengthDistribution {
    /// Every draw equals `length` (the paper's analysis setting).
    Fixed {
        /// The constant value.
        length: SimDuration,
    },
    /// Normal with the given mean and standard deviation, truncated at zero
    /// (the paper's simulation setting uses σ = mean/10, far from zero).
    Normal {
        /// Mean of the untruncated normal.
        mean: SimDuration,
        /// Standard deviation of the untruncated normal.
        std_dev: SimDuration,
    },
    /// Exponential with the given mean (the SNIP paper's footnote case).
    Exponential {
        /// Mean (`1/λ`).
        mean: SimDuration,
    },
    /// Uniform on `[low, high]`.
    Uniform {
        /// Inclusive lower bound.
        low: SimDuration,
        /// Inclusive upper bound.
        high: SimDuration,
    },
    /// Log-normal parameterized by the mean and standard deviation of the
    /// *resulting* distribution (not of the underlying normal).
    LogNormal {
        /// Mean of the log-normal variable itself.
        mean: SimDuration,
        /// Standard deviation of the log-normal variable itself.
        std_dev: SimDuration,
    },
}

impl LengthDistribution {
    /// A fixed (degenerate) distribution.
    #[must_use]
    pub fn fixed(length: SimDuration) -> Self {
        LengthDistribution::Fixed { length }
    }

    /// A zero-truncated normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is zero.
    #[must_use]
    pub fn normal(mean: SimDuration, std_dev: SimDuration) -> Self {
        assert!(!mean.is_zero(), "normal mean must be positive");
        LengthDistribution::Normal { mean, std_dev }
    }

    /// The paper's simulation convention: normal with σ = mean / 10.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is zero.
    #[must_use]
    pub fn paper_normal(mean: SimDuration) -> Self {
        Self::normal(mean, mean / 10)
    }

    /// An exponential distribution.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is zero.
    #[must_use]
    pub fn exponential(mean: SimDuration) -> Self {
        assert!(!mean.is_zero(), "exponential mean must be positive");
        LengthDistribution::Exponential { mean }
    }

    /// A uniform distribution on `[low, high]`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    #[must_use]
    pub fn uniform(low: SimDuration, high: SimDuration) -> Self {
        assert!(low <= high, "uniform bounds reversed");
        LengthDistribution::Uniform { low, high }
    }

    /// A log-normal distribution with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is zero.
    #[must_use]
    pub fn log_normal(mean: SimDuration, std_dev: SimDuration) -> Self {
        assert!(!mean.is_zero(), "log-normal mean must be positive");
        LengthDistribution::LogNormal { mean, std_dev }
    }

    /// The distribution mean.
    ///
    /// For the truncated normal this reports the untruncated mean; with the
    /// paper's σ = mean/10 the truncation error is below 10⁻²³ and ignored.
    #[must_use]
    pub fn mean(&self) -> SimDuration {
        match *self {
            LengthDistribution::Fixed { length } => length,
            LengthDistribution::Normal { mean, .. } => mean,
            LengthDistribution::Exponential { mean } => mean,
            LengthDistribution::Uniform { low, high } => (low + high) / 2,
            LengthDistribution::LogNormal { mean, .. } => mean,
        }
    }

    /// The coefficient of variation (σ/µ), 0 for fixed distributions.
    #[must_use]
    pub fn coefficient_of_variation(&self) -> f64 {
        let mean = self.mean().as_secs_f64();
        if mean == 0.0 {
            return 0.0;
        }
        match *self {
            LengthDistribution::Fixed { .. } => 0.0,
            LengthDistribution::Normal { std_dev, .. }
            | LengthDistribution::LogNormal { std_dev, .. } => std_dev.as_secs_f64() / mean,
            LengthDistribution::Exponential { .. } => 1.0,
            LengthDistribution::Uniform { low, high } => {
                let span = high.as_secs_f64() - low.as_secs_f64();
                span / (12.0f64.sqrt() * mean)
            }
        }
    }

    /// The probability density at `l` seconds (0 outside the support).
    ///
    /// The fixed distribution has no density; callers treat it specially.
    #[must_use]
    pub fn pdf(&self, l: f64) -> f64 {
        self.density().at(l)
    }

    /// The density with this distribution's constants computed once, so an
    /// integral does not recompute them at every point.
    fn density(&self) -> Density {
        let sqrt_two_pi = (2.0 * std::f64::consts::PI).sqrt();
        match *self {
            LengthDistribution::Fixed { .. } => Density::Zero,
            LengthDistribution::Normal { mean, std_dev } => {
                let mu = mean.as_secs_f64();
                let sigma = std_dev.as_secs_f64();
                if sigma == 0.0 {
                    return Density::Zero;
                }
                Density::Normal {
                    mu,
                    sigma,
                    norm: sigma * sqrt_two_pi,
                    // Zero-truncated: renormalize by P(X > 0).
                    trunc: 0.5 * (1.0 + erf(mu / (sigma * std::f64::consts::SQRT_2))),
                }
            }
            LengthDistribution::Exponential { mean } => {
                let m = mean.as_secs_f64();
                Density::Exponential { rate: 1.0 / m, m }
            }
            LengthDistribution::Uniform { low, high } => Density::Uniform {
                a: low.as_secs_f64(),
                b: high.as_secs_f64(),
            },
            LengthDistribution::LogNormal { mean, std_dev } => {
                let (mu, sigma) = log_normal_params(mean, std_dev);
                if sigma == 0.0 {
                    return Density::Zero;
                }
                Density::LogNormal {
                    mu,
                    sigma,
                    sqrt_two_pi,
                }
            }
        }
    }

    /// The expectation `E[f(L)]`, by exact evaluation for degenerate
    /// distributions and adaptive Simpson integration over an effective
    /// support otherwise.
    #[must_use]
    pub fn expect<F: Fn(f64) -> f64>(&self, f: F) -> f64 {
        match *self {
            LengthDistribution::Fixed { length } => f(length.as_secs_f64()),
            LengthDistribution::Uniform { low, high } => {
                let (a, b) = (low.as_secs_f64(), high.as_secs_f64());
                if a == b {
                    return f(a);
                }
                integrate(|l| f(l) / (b - a), a, b, 1e-9)
            }
            _ => {
                let (a, b) = self.effective_support();
                let density = self.density();
                integrate(|l| f(l) * density.at(l), a, b, 1e-9)
            }
        }
    }

    /// An interval carrying (essentially) all of the probability mass, used
    /// as integration bounds.
    fn effective_support(&self) -> (f64, f64) {
        match *self {
            LengthDistribution::Fixed { length } => {
                let l = length.as_secs_f64();
                (l, l)
            }
            LengthDistribution::Normal { mean, std_dev } => {
                let mu = mean.as_secs_f64();
                let sigma = std_dev.as_secs_f64();
                ((mu - 10.0 * sigma).max(0.0), mu + 10.0 * sigma)
            }
            LengthDistribution::Exponential { mean } => (0.0, 40.0 * mean.as_secs_f64()),
            LengthDistribution::Uniform { low, high } => (low.as_secs_f64(), high.as_secs_f64()),
            LengthDistribution::LogNormal { mean, std_dev } => {
                let (mu, sigma) = log_normal_params(mean, std_dev);
                (0.0, (mu + 10.0 * sigma).exp())
            }
        }
    }
}

/// A length density with its per-distribution constants precomputed.
///
/// [`Density::at`] evaluates the same expressions, in the same order, as a
/// density computed from scratch at every point, so the values are
/// bit-identical; only the constants move out of the integrand.
#[derive(Debug, Clone, Copy)]
enum Density {
    /// No density (fixed lengths, zero spread).
    Zero,
    /// Zero-truncated normal; `norm = σ·√(2π)`, `trunc = P(X > 0)`.
    Normal {
        mu: f64,
        sigma: f64,
        norm: f64,
        trunc: f64,
    },
    /// Exponential with mean `m` and `rate = 1/m`.
    Exponential { rate: f64, m: f64 },
    /// Uniform on `[a, b]`.
    Uniform { a: f64, b: f64 },
    /// Log-normal over the underlying normal's `(µ, σ)`.
    LogNormal {
        mu: f64,
        sigma: f64,
        sqrt_two_pi: f64,
    },
}

impl Density {
    /// The density at `l` seconds (0 outside the support).
    fn at(&self, l: f64) -> f64 {
        if l < 0.0 {
            return 0.0;
        }
        match *self {
            Density::Zero => 0.0,
            Density::Normal {
                mu,
                sigma,
                norm,
                trunc,
            } => {
                let z = (l - mu) / sigma;
                let base = (-0.5 * z * z).exp() / norm;
                base / trunc
            }
            Density::Exponential { rate, m } => rate * (-l / m).exp(),
            Density::Uniform { a, b } => {
                if l >= a && l <= b && b > a {
                    1.0 / (b - a)
                } else {
                    0.0
                }
            }
            Density::LogNormal {
                mu,
                sigma,
                sqrt_two_pi,
            } => {
                if l <= 0.0 {
                    return 0.0;
                }
                let z = (l.ln() - mu) / sigma;
                (-0.5 * z * z).exp() / (l * sigma * sqrt_two_pi)
            }
        }
    }
}

/// Converts a log-normal's own (mean, std-dev) into the underlying normal's
/// `(µ, σ)`.
fn log_normal_params(mean: SimDuration, std_dev: SimDuration) -> (f64, f64) {
    let m = mean.as_secs_f64();
    let s = std_dev.as_secs_f64();
    let sigma2 = (1.0 + (s * s) / (m * m)).ln();
    (m.ln() - sigma2 / 2.0, sigma2.sqrt())
}

/// Error function via Abramowitz–Stegun 7.1.26 (|ε| ≤ 1.5·10⁻⁷), enough for
/// the truncation renormalization where the correction itself is ≈ 0.
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    #[test]
    fn means_are_reported() {
        assert_eq!(LengthDistribution::fixed(secs(2.0)).mean(), secs(2.0));
        assert_eq!(
            LengthDistribution::paper_normal(secs(2.0)).mean(),
            secs(2.0)
        );
        assert_eq!(LengthDistribution::exponential(secs(3.0)).mean(), secs(3.0));
        assert_eq!(
            LengthDistribution::uniform(secs(1.0), secs(3.0)).mean(),
            secs(2.0)
        );
        assert_eq!(
            LengthDistribution::log_normal(secs(2.0), secs(0.5)).mean(),
            secs(2.0)
        );
    }

    #[test]
    fn paper_normal_has_ten_percent_cv() {
        let d = LengthDistribution::paper_normal(secs(2.0));
        assert!((d.coefficient_of_variation() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn coefficient_of_variation_by_family() {
        assert_eq!(
            LengthDistribution::fixed(secs(2.0)).coefficient_of_variation(),
            0.0
        );
        assert_eq!(
            LengthDistribution::exponential(secs(2.0)).coefficient_of_variation(),
            1.0
        );
        let u = LengthDistribution::uniform(secs(0.0), secs(4.0));
        assert!((u.coefficient_of_variation() - 4.0 / (12.0f64.sqrt() * 2.0)).abs() < 1e-9);
    }

    #[test]
    fn pdfs_integrate_to_one() {
        let dists = [
            LengthDistribution::paper_normal(secs(2.0)),
            LengthDistribution::exponential(secs(2.0)),
            LengthDistribution::uniform(secs(1.0), secs(3.0)),
            LengthDistribution::log_normal(secs(2.0), secs(0.5)),
        ];
        for d in dists {
            let total = d.expect(|_| 1.0);
            assert!((total - 1.0).abs() < 1e-4, "{d:?} mass {total}");
        }
    }

    #[test]
    fn expectations_recover_the_mean() {
        let dists = [
            LengthDistribution::fixed(secs(2.0)),
            LengthDistribution::paper_normal(secs(2.0)),
            LengthDistribution::exponential(secs(2.0)),
            LengthDistribution::uniform(secs(1.0), secs(3.0)),
            LengthDistribution::log_normal(secs(2.0), secs(0.5)),
        ];
        for d in dists {
            let m = d.expect(|l| l);
            assert!((m - 2.0).abs() < 1e-3, "{d:?} mean {m}");
        }
    }

    #[test]
    fn exponential_second_moment() {
        let d = LengthDistribution::exponential(secs(2.0));
        // E[l²] = 2m² = 8.
        let m2 = d.expect(|l| l * l);
        assert!((m2 - 8.0).abs() < 1e-3, "{m2}");
    }

    #[test]
    fn precomputed_densities_match_the_formulas_bit_for_bit() {
        let sqrt_two_pi = (2.0 * std::f64::consts::PI).sqrt();
        let (mu, sigma) = (2.0, 0.2);
        let normal = LengthDistribution::paper_normal(secs(mu));
        let exp = LengthDistribution::exponential(secs(3.0));
        let log = LengthDistribution::log_normal(secs(2.0), secs(0.5));
        let (lmu, lsigma) = log_normal_params(secs(2.0), secs(0.5));
        for i in 0..400 {
            let l = f64::from(i) * 0.01;
            let z = (l - mu) / sigma;
            let trunc = 0.5 * (1.0 + erf(mu / (sigma * std::f64::consts::SQRT_2)));
            let want = (-0.5 * z * z).exp() / (sigma * sqrt_two_pi) / trunc;
            assert_eq!(normal.pdf(l), want, "normal at {l}");
            assert_eq!(exp.pdf(l), (1.0 / 3.0) * (-l / 3.0).exp(), "exp at {l}");
            if l > 0.0 {
                let z = (l.ln() - lmu) / lsigma;
                let want = (-0.5 * z * z).exp() / (l * lsigma * sqrt_two_pi);
                assert_eq!(log.pdf(l), want, "log-normal at {l}");
            }
        }
    }

    #[test]
    fn pdf_zero_outside_support() {
        let u = LengthDistribution::uniform(secs(1.0), secs(3.0));
        assert_eq!(u.pdf(0.5), 0.0);
        assert_eq!(u.pdf(3.5), 0.0);
        assert!(u.pdf(2.0) > 0.0);
        let e = LengthDistribution::exponential(secs(1.0));
        assert_eq!(e.pdf(-1.0), 0.0);
    }

    #[test]
    fn erf_reference_values() {
        // Abramowitz–Stegun 7.1.26 is accurate to 1.5·10⁻⁷.
        assert!(erf(0.0).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "reversed")]
    fn uniform_rejects_reversed_bounds() {
        let _ = LengthDistribution::uniform(secs(3.0), secs(1.0));
    }

    #[test]
    fn fixed_expectation_is_exact() {
        let d = LengthDistribution::fixed(secs(2.0));
        assert_eq!(d.expect(|l| l * 10.0), 20.0);
    }
}
