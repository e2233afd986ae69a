//! Random sampling from [`LengthDistribution`]s.
//!
//! `rand` 0.8 ships only uniform primitives, so the classic transforms are
//! implemented here: Box–Muller for the normal family and inverse-CDF for the
//! exponential. Normal draws are rejected-and-redrawn at or below zero so a
//! contact length is always strictly positive (the paper's σ = µ/10 makes
//! rejection astronomically rare, but the simulator must never see a
//! zero-length contact).
//!
//! # Normals drawn ahead
//!
//! A generated trace costs two Box–Muller normals per contact, one for the
//! interval and one for the length, and each is a dependent
//! `ln → sqrt → cos → round` chain. Drawn one at a time, those chains sit
//! under the trace generator's data-dependent branches. So when every
//! sampler of a profile is Fixed, Normal or LogNormal (every paper-shaped
//! profile is), [`TraceGenerator::generate`](crate::TraceGenerator::generate)
//! takes its normals from a `NormalStream` instead:
//!
//! * The stream draws 64 `(u1, u2)` pairs at a time, in the order direct
//!   draws take them. It keeps `sqrt(-2 ln u1)` from libm and computes
//!   `cos(2π·u2)` with `cos_2pi`: an exact quarter-turn reduction, two
//!   Taylor polynomials and a quarter select made of bit operations (a
//!   branch on the random quarter mispredicts half the time).
//! * A Normal draw from the stream is rounded to µs only when
//!   [`round_if_clear`] shows that libm's draw rounds to the same µs and is
//!   positive. Otherwise it is recomputed with libm from the stored pair,
//!   so every draw equals the direct one bit for bit. LogNormal draws always
//!   take libm's normal from the stored pair.
//! * The caller's RNG ends where direct draws leave it: the stream keeps a
//!   clone of the RNG from before each block, and `finish` restores it and
//!   replays the pairs taken. That is why `generate` needs `R: Clone`.
//!
//! Profiles with an Exponential or Uniform sampler, Poisson arrivals
//! included, draw through [`sample_duration`]'s route, one value at a time.
//!
//! ## The error bounds
//!
//! `COS_2PI_ERROR` bounds `|cos_2pi(u) − (2π·u).cos()|` on `[0, 1)`. The
//! reduction is exact, so the distance is the sum of:
//!
//! * libm's argument `fl(fl(2π)·u)`, which is off by at most
//!   `|fl(2π) − 2π| + ½ulp(2π) < 2^-50.3` (cos is 1-Lipschitz);
//! * libm's own result, within 1 ulp `≤ 2^-52`;
//! * the truncated Taylor series, `< (π/4)^17 / 17! < 2^-54`;
//! * Horner's 16 roundings and `r²`'s, `≤ γ16 · cosh(π/4) + 2^-54 <
//!   2^-48.5`.
//!
//! That totals `< 2^-48`, and `COS_2PI_ERROR` is 16 times it, `2^-44`.
//!
//! The guard in `NormalStream` compares `t = fl(fl(mean + fl(sd·fl(rr·c)))
//! · 10^6)` with libm's `t'`, the same expression with libm's `c'`. With
//! `|c − c'| ≤ COS_2PI_ERROR`, `|t − t'|` is at most `10^6 · (sd·rr ·
//! COS_2PI_ERROR + 8 · 2^-53 · (|mean| + sd·rr))`: four roundings on each
//! side, each relative to a value no larger than `|mean| + sd·rr`. The
//! guard uses `ROUNDING_ERROR = 2^-47` for `8 · 2^-53`, an 8× margin.

use std::f64::consts::{PI, TAU};

use rand::Rng;
use snip_model::LengthDistribution;
use snip_units::{round_if_clear, SimDuration, TICKS_PER_SECOND};

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
/// from it many times (a trace generator draws one per contact).
/// [`Sampler::sample`] draws exactly as [`sample_duration`] does; a
/// `NormalStream` draws the same values from the same random numbers,
/// taken ahead.
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

    /// `true` if a `NormalStream` can draw for this sampler: it draws
    /// nothing, or only Box–Muller pairs.
    pub(crate) fn streams(&self) -> bool {
        matches!(
            self,
            Sampler::Fixed(_) | Sampler::Normal { .. } | Sampler::LogNormal { .. }
        )
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

/// The two uniforms of one Box–Muller draw, in the order it takes them.
fn uniform_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    // Avoid ln(0) by sampling the half-open interval away from zero.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (u1, u2)
}

/// Box–Muller's radius `sqrt(-2 ln u1)`.
fn radius(u1: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt()
}

/// Box–Muller's normal from its radius and second uniform, with libm's
/// `cos`.
fn box_muller(radius: f64, u2: f64) -> f64 {
    radius * (2.0 * PI * u2).cos()
}

/// One standard-normal draw via Box–Muller.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let (u1, u2) = uniform_pair(rng);
    box_muller(radius(u1), u2)
}

/// The most draws a truncated normal takes. With the paper's σ = µ/10 a
/// single rejection is a 1-in-10²³ event, but adversarial parameters must
/// not hang the caller.
const NORMAL_TRIES: usize = 1_000;

/// A normal draw (`sd > 0`) truncated to strictly positive values by
/// rejection.
fn sample_positive_normal<R: Rng + ?Sized>(mean: f64, sd: f64, rng: &mut R) -> SimDuration {
    for _ in 0..NORMAL_TRIES {
        let draw = mean + sd * standard_normal(rng);
        if draw > 0.0 {
            return SimDuration::from_secs_f64(draw);
        }
    }
    // Pathological (mean ≪ 0): fall back to a hair above zero.
    SimDuration::from_micros(1)
}

/// Bounds `|cos_2pi(u) − (2π·u).cos()|` on `[0, 1)` with a 16× margin:
/// `2^-44` (derived in the module docs).
pub(crate) const COS_2PI_ERROR: f64 = 1.0 / (1u64 << 44) as f64;

/// `8 · 2^-53`, the relative rounding of the guard's two sides, with an 8×
/// margin: `2^-47` (derived in the module docs).
const ROUNDING_ERROR: f64 = 1.0 / (1u64 << 47) as f64;

/// Taylor coefficients of `cos(2πr)` in `r²`: `(-1)^i (2π)^2i / (2i)!`.
const COS_TAYLOR: [f64; 9] = [
    1.0,
    -19.739208802178716,
    64.9393940226683,
    -85.45681720669373,
    60.24464137187666,
    -26.4262567833744,
    7.903536371318469,
    -1.714390711088672,
    0.28200596845579123,
];

/// Taylor coefficients of `sin(2πr) / r` in `r²`:
/// `(-1)^i (2π)^(2i+1) / (2i+1)!`.
const SIN_TAYLOR: [f64; 8] = [
    TAU,
    -41.34170224039976,
    81.60524927607506,
    -76.70585975306139,
    42.058693944897655,
    -15.09464257682299,
    3.819952584848282,
    -0.7181223017785006,
];

/// `Σ coefficients[i] · x^i`, by Horner's rule.
fn horner<const N: usize>(coefficients: &[f64; N], x: f64) -> f64 {
    let (&last, rest) = coefficients
        .split_last()
        .expect("a polynomial has a coefficient");
    rest.iter().rev().fold(last, |acc, &c| acc * x + c)
}

/// `cos(2π·u)` for `u` in `[0, 1)`, within [`COS_2PI_ERROR`] of
/// `(2π·u).cos()`, without a branch.
pub(crate) fn cos_2pi(u: f64) -> f64 {
    // The nearest quarter turn `k`, by adding and taking away 1.5·2^52,
    // which rounds `u·4` to a whole number that the sum's low bits hold.
    // `u·4` and `k/4` are exact, and so is `u − k/4` (Sterbenz), so `r`
    // lies in [−1/8, 1/8].
    const ROUND: f64 = (3u64 << 51) as f64;
    let shifted = u * 4.0 + ROUND;
    let k = shifted.to_bits();
    let r = u - (shifted - ROUND) * 0.25;
    let r2 = r * r;
    let cos = horner(&COS_TAYLOR, r2);
    let sin = r * horner(&SIN_TAYLOR, r2);
    // cos(2πr + kπ/2) is cos, −sin, −cos, sin for k = 0, 1, 2, 3 (mod 4).
    let odd = (k & 1).wrapping_neg();
    let bits = (cos.to_bits() & !odd) | (sin.to_bits() & odd);
    let negate = (k.wrapping_add(1) & 2) << 62;
    f64::from_bits(bits ^ negate)
}

/// The guard's tolerance on a Normal draw's µs, as `base + per_radius ·
/// radius`: `10^6 · (sd·radius · (COS_2PI_ERROR + ROUNDING_ERROR) +
/// |mean| · ROUNDING_ERROR)` (derived in the module docs).
fn guard_error(mean: f64, sd: f64) -> (f64, f64) {
    let scale = TICKS_PER_SECOND as f64;
    (
        scale * ROUNDING_ERROR * mean.abs(),
        scale * sd * (COS_2PI_ERROR + ROUNDING_ERROR),
    )
}

/// Box–Muller pairs a `NormalStream` draws at a time.
const BLOCK: usize = 64;

/// Normal draws for a trace generator, taken ahead in blocks of [`BLOCK`]
/// Box–Muller pairs (see the module docs). It draws for Fixed, Normal and
/// LogNormal samplers only, the ones [`Sampler::streams`] accepts.
pub(crate) struct NormalStream<'a, R: Rng + Clone> {
    rng: &'a mut R,
    /// The caller's RNG as it stood before the current block; `None`
    /// until the first block is drawn.
    before: Option<R>,
    /// Pairs of the current block already taken.
    taken: usize,
    /// `sqrt(-2 ln u1)` of each pair, from libm.
    radius: [f64; BLOCK],
    /// `u2` of each pair.
    u2: [f64; BLOCK],
    /// `radius · cos_2pi(u2)` of each pair.
    fast: [f64; BLOCK],
}

impl<'a, R: Rng + Clone> NormalStream<'a, R> {
    pub(crate) fn new(rng: &'a mut R) -> Self {
        NormalStream {
            rng,
            before: None,
            taken: BLOCK,
            radius: [0.0; BLOCK],
            u2: [0.0; BLOCK],
            fast: [0.0; BLOCK],
        }
    }

    /// Draws one value for `sampler`, bit-identical to
    /// [`Sampler::sample`].
    ///
    /// # Panics
    ///
    /// Panics for a sampler that does not stream.
    pub(crate) fn sample(&mut self, sampler: &Sampler) -> SimDuration {
        match *sampler {
            Sampler::Fixed(length) => length,
            Sampler::Normal { mean, sd } => self.positive_normal(mean, sd),
            Sampler::LogNormal { mu, sigma } => {
                let i = self.take();
                let z = box_muller(self.radius[i], self.u2[i]);
                SimDuration::from_secs_f64((mu + sigma * z).exp())
            }
            Sampler::Exponential { .. } | Sampler::Uniform { .. } => {
                unreachable!("only Fixed, Normal and LogNormal samplers stream")
            }
        }
    }

    /// Leaves the caller's RNG where direct draws would have: at the state
    /// before the current block, advanced by the pairs taken from it.
    pub(crate) fn finish(self) {
        if let Some(before) = self.before {
            *self.rng = before;
            for _ in 0..self.taken {
                uniform_pair(self.rng);
            }
        }
    }

    /// The index of the next pair, drawing a new block when this one is
    /// spent.
    fn take(&mut self) -> usize {
        if self.taken == BLOCK {
            self.refill();
        }
        self.taken += 1;
        self.taken - 1
    }

    /// Draws the next block. The `cos_2pi` loop has no branch, so it runs
    /// on vectors.
    fn refill(&mut self) {
        self.before = Some(self.rng.clone());
        for (r, u2) in self.radius.iter_mut().zip(&mut self.u2) {
            let (u1, u) = uniform_pair(self.rng);
            *r = radius(u1);
            *u2 = u;
        }
        for ((fast, r), u2) in self.fast.iter_mut().zip(&self.radius).zip(&self.u2) {
            *fast = r * cos_2pi(*u2);
        }
        self.taken = 0;
    }

    /// [`sample_positive_normal`]'s draw, from the stream.
    fn positive_normal(&mut self, mean: f64, sd: f64) -> SimDuration {
        let scale = TICKS_PER_SECOND as f64;
        let (err_base, err_per_radius) = guard_error(mean, sd);
        for _ in 0..NORMAL_TRIES {
            let i = self.take();
            let ticks = (mean + sd * self.fast[i]) * scale;
            if let Some(us) = round_if_clear(ticks, err_base + err_per_radius * self.radius[i]) {
                return SimDuration::from_micros(us);
            }
            // Near a rounding edge or near zero: libm's draw decides.
            let draw = mean + sd * box_muller(self.radius[i], self.u2[i]);
            if draw > 0.0 {
                return SimDuration::from_secs_f64(draw);
            }
        }
        SimDuration::from_micros(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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
    fn cos_2pi_stays_within_a_sixteenth_of_its_bound() {
        let within = |u: f64| {
            let err = (cos_2pi(u) - (2.0 * PI * u).cos()).abs();
            assert!(err <= COS_2PI_ERROR / 16.0, "u = {u:e}: off by {err:e}");
        };
        let mut rng = StdRng::seed_from_u64(26);
        for _ in 0..1_000_000 {
            within(rng.gen::<f64>());
        }
        // The ends, and both sides of every quarter and half quarter,
        // where the reduction changes `k`.
        let tiny = f64::EPSILON / 2.0;
        within(0.0);
        within(1.0 - tiny);
        for k in 1..8 {
            let edge = f64::from(k) / 8.0;
            within(edge - tiny);
            within(edge);
            within(edge + tiny);
        }
    }

    #[test]
    fn guard_error_covers_libm_with_its_margin() {
        // The µs of the streamed and the libm draw differ by no more than
        // an eighth of the tolerance (the smaller of its two margins).
        let scale = TICKS_PER_SECOND as f64;
        let mut rng = StdRng::seed_from_u64(28);
        for (mean, sd) in [(1800.0, 180.0), (300.0, 30.0), (2.0, 0.2), (1e-6, 10.0)] {
            let (base, per_radius) = guard_error(mean, sd);
            for _ in 0..200_000 {
                let (u1, u2) = uniform_pair(&mut rng);
                let r = radius(u1);
                let fast = (mean + sd * (r * cos_2pi(u2))) * scale;
                let libm = (mean + sd * box_muller(r, u2)) * scale;
                let err = base + per_radius * r;
                assert!((fast - libm).abs() <= err / 8.0, "{mean} {sd} {u1} {u2}");
            }
        }
    }

    /// Draws `n` values for each sampler in turn, streamed and direct, and
    /// checks every draw and the RNG state after.
    fn assert_streams_as_direct(samplers: &[Sampler], n: usize, seed: u64) {
        let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let mut stream = NormalStream::new(&mut a);
        for i in 0..n {
            let sampler = &samplers[i % samplers.len()];
            assert_eq!(stream.sample(sampler), sampler.sample(&mut b), "draw {i}");
        }
        stream.finish();
        assert_eq!(a.next_u64(), b.next_u64(), "RNG state after {n} draws");
    }

    #[test]
    fn stream_draws_as_direct() {
        let dists = [
            LengthDistribution::paper_normal(secs(1800.0)),
            LengthDistribution::paper_normal(secs(2.0)),
            LengthDistribution::fixed(secs(3.0)),
            LengthDistribution::log_normal(secs(2.0), secs(0.5)),
            // Hostile: half the draws are rejected through libm.
            LengthDistribution::normal(SimDuration::from_micros(1), secs(10.0)),
        ];
        let samplers: Vec<Sampler> = dists.iter().map(Sampler::new).collect();
        assert!(samplers.iter().all(Sampler::streams));
        for (seed, n) in [(1, 0), (2, 1), (3, 63), (4, 64), (5, 65), (6, 100_000)] {
            assert_streams_as_direct(&samplers, n, seed);
        }
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
