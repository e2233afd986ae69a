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
//!
//! # Density grids and moment tables
//!
//! Expectations over a distribution with a density integrate `f(l)·ρ(l)`
//! with adaptive Simpson over the distribution's effective support, and a
//! `DensityGrid` keeps the node densities so that a sweep of integrands
//! over one distribution computes each density once. For each refinement
//! level up to 1,024 panels the grid can also build a moment table
//! (`Moments`) over the level's `n + 1` nodes `l_0 < … < l_n`: for each
//! split point `i`, the sum `P2(i)` of `w·ρ·l²` over the nodes before `i`,
//! and the sums `T0(i)`, `T1(i)` of `w·ρ` and `w·ρ·l` over node `i` and
//! those after it, with `w` the Simpson weight. The level sum of an
//! integrand that is a polynomial on each side of one split point is then a
//! few table reads: `E[Tprobed]`'s at cycle `c` is `(h/3)·[P2(m)/(2c) +
//! T1(m) − (c/2)·T0(m)]`, where `m` counts the nodes at `l ≤ c` (the `snip`
//! module uses this). A table is built on first use, from the densities
//! the grid keeps (computing any the Simpson loop has not reached yet, the
//! same values at the same nodes), and lives as long as the grid.
//!
//! ## Error bounds
//!
//! What a table rounds, with `u = 2^-53` and `γ_k = k·u/(1 − k·u)`: each
//! term is `w·ρ` (exact, as `w` is 1, 2 or 4) times `l` once or twice, so
//! it carries at most 2 roundings, and each running sum one more per term
//! added. A table is refused where a density is negative, so every term is
//! ≥ 0, and each sum over `j` nodes is within `γ_{j+2}` of its exact value,
//! relative to that value. The below-`c` sums run up from `l_0` and the
//! above-`c` sums down from `l_n`, so neither is a difference of two long
//! sums that cancel. How `E[Tprobed]` combines them with the Simpson loop's
//! own rounding, and the margin it adds, is in the `snip` module's docs.

use serde::{Deserialize, Serialize};
use snip_units::SimDuration;

use crate::integrate::{
    integrate, integrate_nodes, new_nodes, node_index, panels, settle, simpson_sum, Buffers,
    Settled,
};

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
        LengthDistribution::Normal { mean, std_dev }.checked()
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
        LengthDistribution::Exponential { mean }.checked()
    }

    /// A uniform distribution on `[low, high]`.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    #[must_use]
    pub fn uniform(low: SimDuration, high: SimDuration) -> Self {
        LengthDistribution::Uniform { low, high }.checked()
    }

    /// A log-normal distribution with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is zero.
    #[must_use]
    pub fn log_normal(mean: SimDuration, std_dev: SimDuration) -> Self {
        LengthDistribution::LogNormal { mean, std_dev }.checked()
    }

    /// The condition this distribution breaks, if any: exactly what the
    /// constructors assert (a positive mean for the normal, exponential
    /// and log-normal families, ordered uniform bounds). Decoders that
    /// take a distribution from bytes run it, so a decoded value keeps the
    /// invariants a constructed one has.
    ///
    /// # Errors
    ///
    /// The constructor's panic message for the broken condition.
    pub fn check(&self) -> Result<(), &'static str> {
        match *self {
            LengthDistribution::Normal { mean, .. } if mean.is_zero() => {
                Err("normal mean must be positive")
            }
            LengthDistribution::Exponential { mean } if mean.is_zero() => {
                Err("exponential mean must be positive")
            }
            LengthDistribution::Uniform { low, high } if low > high => {
                Err("uniform bounds reversed")
            }
            LengthDistribution::LogNormal { mean, .. } if mean.is_zero() => {
                Err("log-normal mean must be positive")
            }
            _ => Ok(()),
        }
    }

    /// `self`, after asserting [`LengthDistribution::check`].
    fn checked(self) -> Self {
        self.check().unwrap_or_else(|why| panic!("{why}"));
        self
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

    /// The expectation `E[f(L)]`, by exact evaluation for distributions
    /// without spread and adaptive Simpson integration over an effective
    /// support otherwise.
    ///
    /// A normal or log-normal whose spread is zero (σ rounds to 0 µs, as in
    /// `paper_normal` of a mean under 10 µs) is the point mass at its mean,
    /// exactly as `snip-mobility` samples it.
    #[must_use]
    pub fn expect<F: Fn(f64) -> f64>(&self, f: F) -> f64 {
        DensityGrid::new(self).expect(f)
    }

    /// The single length every draw takes, for distributions without
    /// spread: fixed lengths, a uniform with `low == high`, and a normal or
    /// log-normal with σ = 0.
    pub(crate) fn point_mass(&self) -> Option<SimDuration> {
        match *self {
            LengthDistribution::Fixed { length } => Some(length),
            LengthDistribution::Normal { mean, std_dev } if std_dev.is_zero() => Some(mean),
            LengthDistribution::Uniform { low, high } if low == high => Some(low),
            LengthDistribution::LogNormal { mean, std_dev }
                if log_normal_params(mean, std_dev).1 == 0.0 =>
            {
                Some(mean)
            }
            _ => None,
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

/// Integration tolerance of every length expectation.
const EXPECT_TOL: f64 = 1e-9;

/// Refinement levels that get a [`Moments`] table: levels `0..TABLE_LEVELS`,
/// up to 1,024 panels. The planning integrands stop by level 3; a deeper
/// level runs the Simpson loop rather than hold five values per node.
const TABLE_LEVELS: usize = 5;

/// One distribution's densities at the Simpson nodes of its effective
/// support, each computed on first use and kept for later expectations.
///
/// [`integrate_nodes`]'s nodes depend only on the support and the
/// refinement level, never on the integrand, so expectations of different
/// functions over one distribution (a duty-cycle sweep of `E[Tprobed]`)
/// need each node's density once. The grid holds the two endpoint
/// densities and one vector per refinement level; a level is filled the
/// first time an integral or a [`Moments`] table reaches it. Every node
/// value is the product `f(l) * density(l)` of the same two factors, in the
/// same order, as a fresh integral's, so results are bit-identical to
/// uncached ones.
#[derive(Debug, Clone)]
pub(crate) struct DensityGrid {
    dist: LengthDistribution,
    weights: Weights,
    /// Expectations this grid took from the Simpson loop's own sums: the
    /// whole loop, or its last level.
    #[cfg(test)]
    pub(crate) loop_sums: usize,
}

/// How a [`DensityGrid`] weights its integrand.
#[derive(Debug, Clone)]
enum Weights {
    /// No spread: the expectation is `f` at this length, in seconds.
    Point(f64),
    /// Uniform on `[a, b]`: the integrand is `f(l) / (b − a)`.
    Flat { a: f64, b: f64 },
    /// A density over the effective support.
    Density(NodeDensities),
}

/// A density's values at the Simpson nodes of its effective support
/// `[a, b]`, and what is built from them.
#[derive(Debug, Clone)]
struct NodeDensities {
    a: f64,
    b: f64,
    density: Density,
    /// The densities at `a` and `b`, once an expectation needed them.
    ends: Option<(f64, f64)>,
    /// `levels[k][j]`: the density at node `j` of refinement level `k`
    /// (see [`integrate_nodes`]).
    levels: Vec<Vec<f64>>,
    /// `tables[k]`: level `k`'s moment table once built, `None` inside when
    /// a density there is negative or not finite.
    tables: Vec<Option<Moments>>,
    /// The Simpson loop's scratch vectors.
    buffers: Buffers,
}

/// The Simpson-weighted moments of one refinement level's densities, in
/// node order (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Moments {
    /// The panel width `h`.
    h: f64,
    /// `h/3`, the factor of a Simpson sum.
    third: f64,
    /// `1/h`, to find the node nearest a length.
    per_h: f64,
    /// The node positions: `a`, the interior nodes, `b`.
    nodes: Vec<f64>,
    /// The densities at `nodes`.
    rho: Vec<f64>,
    /// `sums[i]`: `Σ w·ρ·l²` over the nodes before `i`, and `Σ w·ρ` and
    /// `Σ w·ρ·l` over node `i` and those after it, with `w` the Simpson
    /// weight (1, 4, 2, …, 4, 1) and `ρ` the density at `l`.
    sums: Vec<[f64; 3]>,
}

impl Moments {
    /// The support `[a, b]`: the first and last node.
    #[cfg(test)]
    pub(crate) fn support(&self) -> (f64, f64) {
        (self.nodes[0], self.nodes[self.nodes.len() - 1])
    }

    /// `h/3`, the factor of a Simpson sum.
    pub(crate) fn third(&self) -> f64 {
        self.third
    }

    /// The panel count `n`.
    pub(crate) fn panels(&self) -> usize {
        self.nodes.len() - 1
    }

    /// `[Σ w·ρ·l²]` over the nodes at lengths `l ≤ c`, and `[Σ w·ρ, Σ
    /// w·ρ·l]` over those above `c`.
    pub(crate) fn split(&self, c: f64) -> [f64; 3] {
        let nodes = &self.nodes;
        let n = nodes.len();
        // Node `i` is about `(c − a)/h` panels in: start the count there,
        // clamped to the grid (the cast truncates, and takes a negative or
        // NaN guess to 0), and step to the exact count, a node or so away.
        let guess = (c - nodes[0]) * self.per_h + 1.0;
        let mut m = (guess as usize).min(n);
        while m > 0 && nodes[m - 1] > c {
            m -= 1;
        }
        while m < n && nodes[m] <= c {
            m += 1;
        }
        self.sums[m]
    }
}

impl NodeDensities {
    /// The densities at `a` and `b`.
    fn ends(&mut self) -> (f64, f64) {
        let (a, b, density) = (self.a, self.b, self.density);
        *self
            .ends
            .get_or_insert_with(|| (density.at(a), density.at(b)))
    }

    /// Fills the densities of levels `0..=level`, at the positions and in
    /// the order the Simpson loop visits them.
    fn fill(&mut self, level: usize) {
        for k in 0..=level {
            if k == self.levels.len() {
                self.levels.push(Vec::with_capacity(new_nodes(k)));
            }
            let h = (self.b - self.a) / panels(k) as f64;
            let row = &mut self.levels[k];
            for j in row.len()..new_nodes(k) {
                row.push(self.density.at(self.a + h * node_index(k, j) as f64));
            }
        }
    }

    /// Level `level`'s moment table, built on first use; `None` beyond
    /// [`TABLE_LEVELS`] or where a density is negative or not finite.
    fn moments(&mut self, level: usize) -> Option<&Moments> {
        if level >= TABLE_LEVELS {
            return None;
        }
        while self.tables.len() <= level {
            let table = self.build(self.tables.len());
            self.tables.push(table);
        }
        self.tables[level].as_ref()
    }

    /// Builds level `level`'s table from its densities, which are the
    /// previous level's in node order interleaved with the level's own.
    /// Interior node `i` sits at `a + h·i`, where the loop's visit computes
    /// it (module docs of [`crate::integrate`]).
    fn build(&mut self, level: usize) -> Option<Moments> {
        self.fill(level);
        let (da, db) = self.ends();
        let n = panels(level);
        let h = (self.b - self.a) / n as f64;
        let own = &self.levels[level];
        let mut rho = Vec::with_capacity(n + 1);
        if level == 0 {
            rho.push(da);
            rho.extend_from_slice(own);
            rho.push(db);
        } else {
            let coarse = &self.tables[level - 1].as_ref()?.rho;
            for (&kept, &new) in coarse.iter().zip(own) {
                rho.push(kept);
                rho.push(new);
            }
            rho.push(db);
        }
        // Densities are never negative; NaN or infinity shows in the sums.
        if rho.iter().fold(0.0f64, |low, &r| low.min(r)) < 0.0 {
            return None;
        }
        let (a, b) = (self.a, self.b);
        let mut nodes = Vec::with_capacity(n + 1);
        nodes.push(a);
        nodes.extend((1..n).map(|i| a + h * i as f64));
        nodes.push(b);
        // `w·ρ` per node, exact: the Simpson weights are 1, 4, 2, …, 4, 1.
        let w_rho: Vec<f64> = rho
            .iter()
            .enumerate()
            .map(|(i, &density)| match i {
                0 => density,
                _ if i == n => density,
                _ if i % 2 == 1 => 4.0 * density,
                _ => 2.0 * density,
            })
            .collect();
        // The sum below a split runs up from `l_0`, those above it down
        // from `l_n`.
        let mut sums = vec![[0.0f64; 3]; n + 2];
        let mut below = 0.0f64;
        for ((sum, &w_rho), &l) in sums[1..].iter_mut().zip(&w_rho).zip(&nodes) {
            below += w_rho * l * l;
            sum[0] = below;
        }
        let (mut tail0, mut tail1) = (0.0f64, 0.0f64);
        for ((sum, &w_rho), &l) in sums.iter_mut().zip(&w_rho).zip(&nodes).rev() {
            tail0 += w_rho;
            tail1 += w_rho * l;
            sum[1] = tail0;
            sum[2] = tail1;
        }
        if !(below.is_finite() && tail0.is_finite() && tail1.is_finite()) {
            return None;
        }
        Some(Moments {
            h,
            third: h / 3.0,
            per_h: 1.0 / h,
            nodes,
            rho,
            sums,
        })
    }
}

impl DensityGrid {
    /// An empty grid for `dist`.
    pub(crate) fn new(dist: &LengthDistribution) -> Self {
        let weights = if let Some(length) = dist.point_mass() {
            Weights::Point(length.as_secs_f64())
        } else if let LengthDistribution::Uniform { low, high } = *dist {
            Weights::Flat {
                a: low.as_secs_f64(),
                b: high.as_secs_f64(),
            }
        } else {
            let (a, b) = dist.effective_support();
            Weights::Density(NodeDensities {
                a,
                b,
                density: dist.density(),
                ends: None,
                levels: Vec::new(),
                tables: Vec::new(),
                buffers: Buffers::default(),
            })
        };
        DensityGrid {
            dist: *dist,
            weights,
            #[cfg(test)]
            loop_sums: 0,
        }
    }

    /// The distribution this grid integrates over.
    pub(crate) fn distribution(&self) -> &LengthDistribution {
        &self.dist
    }

    /// [`LengthDistribution::expect`], with node densities from the grid.
    pub(crate) fn expect<F: Fn(f64) -> f64>(&mut self, f: F) -> f64 {
        #[cfg(test)]
        if !matches!(self.weights, Weights::Point(_)) {
            self.loop_sums += 1;
        }
        match &mut self.weights {
            Weights::Point(l) => f(*l),
            &mut Weights::Flat { a, b } => integrate(|l| f(l) / (b - a), a, b, EXPECT_TOL),
            Weights::Density(nodes) => {
                let (a, b) = (nodes.a, nodes.b);
                let (da, db) = nodes.ends();
                let ends = || (f(a) * da, f(b) * db);
                let NodeDensities {
                    density,
                    levels,
                    buffers,
                    ..
                } = nodes;
                integrate_nodes(a, b, EXPECT_TOL, buffers, ends, |level, j, l| {
                    if level == levels.len() {
                        levels.push(Vec::new());
                    }
                    let row = &mut levels[level];
                    if j == row.len() {
                        row.push(density.at(l));
                    }
                    f(l) * row[j]
                })
            }
        }
    }

    /// Level `level`'s moment table, built on first use.
    #[cfg(test)]
    pub(crate) fn moments(&mut self, level: usize) -> Option<&Moments> {
        match &mut self.weights {
            Weights::Density(nodes) => nodes.moments(level),
            _ => None,
        }
    }

    /// Where the Simpson loop of an expectation stops, replayed by
    /// [`settle`] from level sums taken off the moment tables:
    /// `estimate(table)` yields a level's sum and a bound on its distance
    /// from the loop's. `None` where the loop must decide: no density to
    /// tabulate, a level without a table, or a stopping test in doubt.
    pub(crate) fn settle(&mut self, estimate: impl Fn(&Moments) -> (f64, f64)) -> Option<Settled> {
        let Weights::Density(nodes) = &mut self.weights else {
            return None;
        };
        // An empty (or NaN) support: the loop's own early return decides.
        if nodes.a.partial_cmp(&nodes.b) != Some(std::cmp::Ordering::Less) {
            return None;
        }
        settle(EXPECT_TOL, |level| nodes.moments(level).map(&estimate))
    }

    /// The Simpson loop's sum of `f` at a level [`DensityGrid::settle`]
    /// tabulated, bit for bit: the node values `f(l)·ρ` in node order,
    /// summed by the loop's own [`simpson_sum`].
    ///
    /// # Panics
    ///
    /// Panics if `level` has no table.
    pub(crate) fn level_sum(&mut self, level: usize, f: impl Fn(f64) -> f64) -> f64 {
        #[cfg(test)]
        {
            self.loop_sums += 1;
        }
        let Weights::Density(nodes) = &mut self.weights else {
            panic!("only a density has moment tables");
        };
        let table = nodes.tables[level]
            .as_ref()
            .expect("the level was tabulated");
        let (l, rho) = (&table.nodes, &table.rho);
        let n = l.len() - 1;
        let inner = &mut nodes.buffers.inner;
        inner.clear();
        inner.extend((1..n).map(|i| f(l[i]) * rho[i]));
        simpson_sum((f(l[0]) * rho[0], f(l[n]) * rho[n]), inner, table.h)
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
    use crate::integrate::simpson;

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

    /// The adaptive loop with no reuse at all: fixed-panel Simpson over the
    /// public density, afresh at every level. Returns the estimate and the
    /// number of doublings it took.
    fn reference_expect(dist: &LengthDistribution, f: &dyn Fn(f64) -> f64) -> (f64, u32) {
        let (a, b, weighted): (f64, f64, Box<dyn Fn(f64) -> f64>) = match *dist {
            LengthDistribution::Uniform { low, high } => {
                let (a, b) = (low.as_secs_f64(), high.as_secs_f64());
                (a, b, Box::new(move |l| f(l) / (b - a)))
            }
            _ => {
                let (a, b) = dist.effective_support();
                (a, b, Box::new(move |l| f(l) * dist.pdf(l)))
            }
        };
        let mut n = 64;
        let mut doublings = 0;
        let mut prev = simpson(&weighted, a, b, n);
        while n < 1 << 14 {
            n *= 2;
            doublings += 1;
            let next = simpson(&weighted, a, b, n);
            if (next - prev).abs() <= 1e-9 * next.abs().max(1.0) {
                return (next, doublings);
            }
            prev = next;
        }
        (prev, doublings)
    }

    /// `E[Tprobed]`'s integrand for a SNIP cycle of `cycle` seconds.
    fn probed(cycle: f64) -> impl Fn(f64) -> f64 {
        move |l: f64| {
            if l <= 0.0 {
                0.0
            } else if cycle >= l {
                l * l / (2.0 * cycle)
            } else {
                l - cycle / 2.0
            }
        }
    }

    #[test]
    fn one_grid_serves_a_shuffled_duty_cycle_sweep_bit_for_bit() {
        let families = [
            LengthDistribution::paper_normal(secs(2.0)),
            // Support clipped at zero: the truncated normal's left tail.
            LengthDistribution::normal(secs(1.0), secs(0.45)),
            LengthDistribution::exponential(secs(3.0)),
            LengthDistribution::log_normal(secs(2.0), secs(0.5)),
            LengthDistribution::uniform(secs(1.0), secs(3.0)),
        ];
        // 60 duty-cycles from 10⁻⁴ to 1, visited in a scrambled order so
        // deep levels built for one integrand serve later, shallower ones.
        let cycles: Vec<f64> = (0..60)
            .map(|i| (i * 37) % 60)
            .map(|k| 0.02 / 10f64.powf(-4.0 + 4.0 * f64::from(k) / 59.0))
            .collect();
        for dist in families {
            let mut grid = DensityGrid::new(&dist);
            let mut depths = Vec::new();
            for &cycle in &cycles {
                let f = probed(cycle);
                let (want, depth) = reference_expect(&dist, &f);
                depths.push(depth);
                let got = grid.expect(&f);
                assert_eq!(got.to_bits(), want.to_bits(), "{dist:?}, cycle {cycle}");
                assert_eq!(dist.expect(&f).to_bits(), want.to_bits(), "fresh grid");
            }
            if !matches!(dist, LengthDistribution::Uniform { .. }) {
                let deepest = depths.iter().max().unwrap();
                assert!(
                    depths.iter().any(|d| d < deepest),
                    "{dist:?}: every integrand stopped at one depth {depths:?}"
                );
            }
        }
        let fixed = LengthDistribution::fixed(secs(2.0));
        let mut grid = DensityGrid::new(&fixed);
        for &cycle in &cycles {
            assert_eq!(
                grid.expect(probed(cycle)).to_bits(),
                probed(cycle)(2.0).to_bits()
            );
        }
    }

    #[test]
    fn zero_spread_is_the_point_mass_at_the_mean() {
        let fixed = LengthDistribution::fixed(secs(2.0));
        let tiny = SimDuration::from_micros(7);
        let cases = [
            (
                LengthDistribution::normal(secs(2.0), SimDuration::ZERO),
                fixed,
            ),
            (
                LengthDistribution::log_normal(secs(2.0), SimDuration::ZERO),
                fixed,
            ),
            // σ = 7 µs / 10 rounds to 0 µs.
            (
                LengthDistribution::paper_normal(tiny),
                LengthDistribution::fixed(tiny),
            ),
        ];
        for (spec, point) in cases {
            assert_eq!(spec.point_mass(), Some(point.mean()), "{spec:?}");
            assert_eq!(spec.expect(|l| l), point.expect(|l| l), "{spec:?} E[L]");
            assert_eq!(spec.expect(|l| l * l), point.expect(|l| l * l), "{spec:?}");
            assert!(spec.expect(|l| l) > 0.0);
        }
        assert_eq!(
            LengthDistribution::paper_normal(secs(2.0)).point_mass(),
            None
        );
    }
}
