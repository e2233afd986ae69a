//! Small numerical-integration helpers used by the length-distribution
//! expectations.
//!
//! [`integrate`] is adaptive composite Simpson: it starts at 64 panels and
//! doubles the panel count until two successive estimates agree, up to
//! `2^14` panels (nine levels). It never evaluates a node twice. With
//! `h = (b − a)/n`, the finer step `(b − a)/2n` is exactly `h/2` in binary
//! floating point (halving is exact and commutes with rounding), so node
//! `2i` of the finer grid, `a + (h/2)·2i`, rounds to the same `f64` as node
//! `i` of the coarser one, `a + h·i`. Each doubling therefore keeps the
//! previous level's values and evaluates only the new odd nodes, and each
//! level's sum is formed in the same order as [`simpson`] forms it: the
//! result is bit-identical to calling [`simpson`] afresh at every level.
//!
//! The nodes depend only on `[a, b]` and the level, never on the integrand,
//! which lets a density-weighted expectation take its node densities from a
//! cache shared across integrands (`length::DensityGrid`).
//!
//! # The loop's answer without the loop
//!
//! The loop's answer is a function of its level sums alone: it stops at the
//! first level `k ≥ 1` whose sum `S_k` passes
//! `|S_k − S_{k−1}| ≤ tol·max(|S_k|, 1)` and returns `S_k` (or `S_8`). A
//! caller that can estimate each level sum more cheaply, within a known
//! bound, can replay those tests on its estimates (`settle`). Where every
//! test is farther from its threshold than the estimates' bounds allow, the
//! loop's own sums take the same path, and the estimate of the last level
//! is within its bound of the loop's answer.
//!
//! Each test compares `D = fl(|S_k − S_{k−1}|)` with
//! `T = fl(tol·max(|S_k|, 1))`. With estimates `x_{k−1}`, `x_k` within `e_{k−1}`,
//! `e_k` of the loop's sums, the replay's `D̃` and `T̃` (the same
//! expressions on the estimates) are within `e_{k−1} + e_k` and `tol·e_k`
//! of the exact values of `D` and `T`, and each of the four sides is one
//! rounding (at most `2^-53` relative) from its exact value. So
//! `|D − D̃| + |T − T̃| ≤ (1 + tol)·(e_{k−1} + e_k) + 2^-52·(D̃ + T̃)` to
//! first order; `settle` uses twice that, `2·(e_{k−1} + e_k) +
//! 2^-51·(D̃ + T̃)`, and takes a test as decided only when `D̃` and `T̃` are
//! farther apart than that.

/// Panel count of [`integrate`]'s first level.
const FIRST_PANELS: usize = 64;

/// Panel count of [`integrate`]'s last level.
const MAX_PANELS: usize = 1 << 14;

/// Refinement levels of [`integrate`]: levels `0..LEVELS`, from
/// [`FIRST_PANELS`] to [`MAX_PANELS`] panels.
const LEVELS: usize = (MAX_PANELS / FIRST_PANELS).trailing_zeros() as usize + 1;

/// Panel count at refinement `level`.
pub(crate) fn panels(level: usize) -> usize {
    FIRST_PANELS << level
}

/// Number of nodes first visited at refinement `level`: the interior nodes
/// of the first level, the odd nodes of later ones.
pub(crate) fn new_nodes(level: usize) -> usize {
    if level == 0 {
        FIRST_PANELS - 1
    } else {
        panels(level) / 2
    }
}

/// Index `i`, in the `panels(level)`-panel grid, of the `j`-th node first
/// visited at refinement `level` (see [`integrate_nodes`]).
pub(crate) fn node_index(level: usize, j: usize) -> usize {
    if level == 0 {
        j + 1
    } else {
        2 * j + 1
    }
}

/// Scratch vectors of [`integrate_nodes`], kept by a caller that integrates
/// often so that each call reuses their allocations.
#[derive(Debug, Clone, Default)]
pub(crate) struct Buffers {
    pub(crate) inner: Vec<f64>,
    finer: Vec<f64>,
}

/// Composite Simpson's rule over `[a, b]` with `n` panels (`n` is rounded up
/// to the next even number).
///
/// # Panics
///
/// Panics if `b < a` or `n == 0`.
#[must_use]
pub fn simpson<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, n: usize) -> f64 {
    assert!(b >= a, "integration bounds reversed: [{a}, {b}]");
    assert!(n > 0, "need at least one panel");
    if a == b {
        return 0.0;
    }
    let n = if n.is_multiple_of(2) { n } else { n + 1 };
    let h = (b - a) / n as f64;
    let mut sum = f(a) + f(b);
    for i in 1..n {
        let x = a + h * i as f64;
        sum += f(x) * if i % 2 == 1 { 4.0 } else { 2.0 };
    }
    sum * h / 3.0
}

/// Adaptive Simpson integration: doubles the panel count until two successive
/// estimates agree to `tol` (relative when the value is large, absolute when
/// near zero), up to `2^14` panels. Bit-identical to [`simpson`] at each
/// level, with every node evaluated once (see the module docs).
///
/// # Panics
///
/// Panics if `b < a` or `tol` is not positive.
#[must_use]
pub fn integrate<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, tol: f64) -> f64 {
    integrate_nodes(
        a,
        b,
        tol,
        &mut Buffers::default(),
        || (f(a), f(b)),
        |_, _, x| f(x),
    )
}

/// The loop behind [`integrate`], over node values supplied by the caller.
///
/// `ends` yields the values at `a` and `b`. `node(level, j, x)` yields the
/// value at `x`, the `j`-th node first visited at refinement `level`: at
/// level 0 the interior node `i = j + 1` of the 64-panel grid, at level
/// `k ≥ 1` the odd node `i = 2j + 1` of the `64·2^k`-panel grid. Each level's
/// nodes are visited once, in increasing `j`, and levels in increasing order.
/// The node values are held in `buffers`, whose allocations outlive the call.
pub(crate) fn integrate_nodes(
    a: f64,
    b: f64,
    tol: f64,
    buffers: &mut Buffers,
    ends: impl FnOnce() -> (f64, f64),
    mut node: impl FnMut(usize, usize, f64) -> f64,
) -> f64 {
    assert!(tol > 0.0, "tolerance must be positive");
    assert!(b >= a, "integration bounds reversed: [{a}, {b}]");
    if a == b {
        return 0.0;
    }
    let ends = ends();
    let Buffers { inner, finer } = buffers;
    let mut n = FIRST_PANELS;
    let mut h = (b - a) / n as f64;
    // Values at the interior nodes `1..n` of the current level.
    inner.clear();
    inner.extend((1..n).map(|i| node(0, i - 1, a + h * i as f64)));
    let mut prev = simpson_sum(ends, inner, h);
    let mut level = 0;
    while n < MAX_PANELS {
        n *= 2;
        level += 1;
        h = (b - a) / n as f64;
        finer.clear();
        for (j, &kept) in inner.iter().enumerate() {
            finer.push(node(level, j, a + h * (2 * j + 1) as f64));
            finer.push(kept);
        }
        let last = inner.len();
        finer.push(node(level, last, a + h * (2 * last + 1) as f64));
        std::mem::swap(inner, finer);
        let next = simpson_sum(ends, inner, h);
        let scale = next.abs().max(1.0);
        if (next - prev).abs() <= tol * scale {
            return next;
        }
        prev = next;
    }
    prev
}

/// Where [`integrate_nodes`] stops, replayed by [`settle`]: the level and
/// the estimate of its sum, within `bound` of the loop's sum there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Settled {
    /// The refinement level whose sum the loop returns.
    pub(crate) level: usize,
    /// The estimate of that level's sum.
    pub(crate) estimate: f64,
    /// A bound on the distance between the estimate and the loop's sum.
    pub(crate) bound: f64,
}

/// Where [`integrate_nodes`] stops, replayed from estimates of its level
/// sums (see the module docs).
///
/// `level(k)` yields an estimate of the loop's sum at refinement level `k`
/// and a bound on their distance, or `None` where it has none. Returns the
/// level where the loop stops, with its estimate, when every stopping test
/// on the way is decided beyond the bounds; `None` when a test is in doubt
/// or a needed level has no estimate. The interval must not be empty
/// (`a < b`).
pub(crate) fn settle(
    tol: f64,
    mut level: impl FnMut(usize) -> Option<(f64, f64)>,
) -> Option<Settled> {
    /// Twice the relative rounding of the test's two sides.
    const TEST_ROUNDING: f64 = 1.0 / (1u64 << 51) as f64;
    let (estimate, bound) = level(0)?;
    let mut prev = Settled {
        level: 0,
        estimate,
        bound,
    };
    for k in 1..LEVELS {
        let (estimate, bound) = level(k)?;
        let next = Settled {
            level: k,
            estimate,
            bound,
        };
        let diff = (estimate - prev.estimate).abs();
        let limit = tol * estimate.abs().max(1.0);
        let slack = 2.0 * (prev.bound + bound) + TEST_ROUNDING * (diff + limit);
        if diff + slack < limit {
            return Some(next);
        } else if diff - slack > limit {
            prev = next;
        } else {
            // In doubt, or NaN, which fails both comparisons.
            return None;
        }
    }
    Some(prev)
}

/// [`simpson`]'s weighted sum over node values already computed: the ends,
/// then interior node `i` (stored at `i − 1`) times 4 when `i` is odd and 2
/// when even, added in node order. [`integrate_nodes`] returns one of these.
pub(crate) fn simpson_sum((fa, fb): (f64, f64), inner: &[f64], h: f64) -> f64 {
    let mut sum = fa + fb;
    for (k, &v) in inner.iter().enumerate() {
        sum += v * if k % 2 == 0 { 4.0 } else { 2.0 };
    }
    sum * h / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_polynomials_exactly() {
        // Simpson is exact on cubics.
        let val = simpson(|x| x * x * x - 2.0 * x + 1.0, 0.0, 2.0, 2);
        let exact = 4.0 - 4.0 + 2.0; // x⁴/4 − x² + x on [0,2]
        assert!((val - exact).abs() < 1e-12);
    }

    #[test]
    fn integrates_transcendentals_adaptively() {
        let val = integrate(f64::sin, 0.0, std::f64::consts::PI, 1e-10);
        assert!((val - 2.0).abs() < 1e-9);
        let val = integrate(|x| (-x).exp(), 0.0, 20.0, 1e-10);
        assert!((val - 1.0).abs() < 1e-8);
    }

    #[test]
    fn empty_interval_is_zero() {
        assert_eq!(simpson(|x| x, 3.0, 3.0, 4), 0.0);
        assert_eq!(integrate(|x| x, 3.0, 3.0, 1e-9), 0.0);
    }

    #[test]
    fn odd_panel_counts_are_rounded_up() {
        let even = simpson(|x| x * x, 0.0, 1.0, 4);
        let odd = simpson(|x| x * x, 0.0, 1.0, 3);
        assert!((even - odd).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "reversed")]
    fn reversed_bounds_panic() {
        let _ = simpson(|x| x, 1.0, 0.0, 4);
    }

    /// The adaptive loop without node reuse: [`simpson`] afresh per level.
    fn fresh_levels<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, tol: f64) -> f64 {
        let mut n = FIRST_PANELS;
        let mut prev = simpson(&f, a, b, n);
        while n < MAX_PANELS {
            n *= 2;
            let next = simpson(&f, a, b, n);
            if (next - prev).abs() <= tol * next.abs().max(1.0) {
                return next;
            }
            prev = next;
        }
        prev
    }

    #[test]
    fn node_reuse_is_bit_identical_to_fresh_levels() {
        let cycle = 0.37;
        let kinked = |l: f64| {
            if cycle >= l {
                l * l / (2.0 * cycle)
            } else {
                l - cycle / 2.0
            }
        };
        let spiky = |x: f64| (40.0 * x).sin().abs() + (-x * x).exp();
        for (a, b) in [(0.0, 1.0), (0.13, 2.9), (1.8, 2.2), (0.0, 80.0)] {
            for tol in [1e-6, 1e-9, 1e-13] {
                for (name, f) in [
                    ("kinked", &kinked as &dyn Fn(f64) -> f64),
                    ("spiky", &spiky),
                ] {
                    let want = fresh_levels(f, a, b, tol);
                    let got = integrate(f, a, b, tol);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{name} on [{a}, {b}] at {tol}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_node_is_visited_once_in_level_order() {
        let mut seen = Vec::new();
        let _ = integrate_nodes(
            0.0,
            1.0,
            1e-300,
            &mut Buffers::default(),
            || (0.0, 0.0),
            |level, j, x| {
                seen.push((level, j, x));
                x
            },
        );
        // Nine levels: 63 interior nodes, then n/2 odd nodes per doubling.
        assert_eq!(seen.len(), MAX_PANELS - 1);
        let mut xs: Vec<f64> = seen.iter().map(|&(_, _, x)| x).collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        assert_eq!(xs.len(), MAX_PANELS - 1, "a node was evaluated twice");
        for pair in seen.windows(2) {
            let ((l0, j0, _), (l1, j1, _)) = (pair[0], pair[1]);
            assert!(l1 == l0 && j1 == j0 + 1 || l1 == l0 + 1 && j1 == 0);
        }
    }

    #[test]
    fn handles_piecewise_kinks() {
        // The probed-time integrand has a kink at l = Tcycle; adaptive Simpson
        // must still converge to the analytic value.
        let cycle = 0.5;
        let f = |l: f64| {
            if l <= cycle {
                l * l / (2.0 * cycle)
            } else {
                l - cycle / 2.0
            }
        };
        let val = integrate(f, 0.0, 1.0, 1e-10);
        // ∫0^0.5 l²/1 dl + ∫0.5^1 (l − 0.25) dl = (0.125/3)·... compute:
        // first: l³/(3·2·0.5)|0^0.5 = 0.125/3 ≈ 0.0416667
        // second: (l²/2 − 0.25 l)|0.5^1 = (0.5 − 0.25) − (0.125 − 0.125) = 0.25
        assert!((val - (0.125 / 3.0 + 0.25)).abs() < 1e-7);
    }
}
