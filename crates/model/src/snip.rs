//! The closed-form SNIP model (eq. (1) of the paper).
//!
//! Under SNIP the sensor node broadcasts one beacon at the start of every
//! radio-on window, and the mobile node's radio is always on, so a contact is
//! probed at the first beacon that falls inside it. With the contact's phase
//! relative to the duty cycle uniformly distributed, the expected probed
//! fraction `Υ = Tprobed / Tcontact` is:
//!
//! * **Sparse regime** (`Tcycle ≥ Tcontact`): a beacon lands in the contact
//!   with probability `Tcontact / Tcycle`, and when it does the expected
//!   remaining time is `Tcontact / 2`, so
//!   `Υ = Tcontact / (2·Tcycle) = Tcontact·d / (2·Ton)` — linear in `d`.
//! * **Dense regime** (`Tcycle < Tcontact`): the contact is always probed and
//!   the expected dead time before the first beacon is `Tcycle / 2`, so
//!   `Υ = 1 − Tcycle / (2·Tcontact) = 1 − Ton / (2·d·Tcontact)`.
//!
//! The two branches meet at the **knee** `d* = Ton / Tcontact`, where
//! `Υ = 1/2`. Below the knee the energy cost per probed second (`ρ`) is
//! constant; above it the returns diminish — which is why SNIP-RH sets its
//! rush-hour duty-cycle exactly at the knee (§VI-C).
//!
//! # `E[Tprobed]` from moment sums
//!
//! For a normal, log-normal or uniform contact length, `E[Tprobed]` at
//! cycle `c` is defined as the adaptive Simpson loop's value (see
//! [`crate::integrate`]) of `f(l)·ρ(l)`, with `f(l) = l²/(2c)` for `l ≤ c`
//! and `l − c/2` above, rounded to µs by `SimDuration::from_secs_f64`.
//! SNIP-AT's bisection and
//! SNIP-OPT's curves ask for it at many cycles over one distribution, so
//! [`SnipModel::expected_probed_dist`] reaches that value three ways, each
//! equal to it:
//!
//! * From the density grid's moment tables (see [`crate::length`]), a few
//!   reads per refinement level, when bounds prove that the loop stops at
//!   the same level (its stopping tests replayed on the estimates) and that
//!   its value rounds to the same µs ([`snip_units::round_if_clear`]).
//! * From the loop's last level alone, when the level the loop stops at is
//!   proven but the rounding is not: the loop returns that level's Simpson
//!   sum, formed here from the same node values in the same order by the
//!   loop's own summation. Most doubts are of this kind: a bisection homes
//!   in on the µs edge where `ζ` crosses its target.
//! * From the loop itself, when a stopping test is in doubt, a level has no
//!   table (beyond 1,024 panels), the cycle is not finite, or the
//!   distribution is uniform.
//!
//! ## Error bounds
//!
//! With `u = 2^-53`, take a level of `n` panels whose `n + 1` nodes have
//! `m` at `l ≤ c` and `k` above. Over exact arithmetic on the stored nodes
//! and densities, let `B = P2(m)/(2c)`, `T1 = T1(m)`, `C = (c/2)·T0(m)`,
//! and `R = (h/3)·Σ w·ρ·f(l) = (h/3)·(B + T1 − C)`, the level sum both
//! routes round. All terms are ≥ 0, and `R ≤ (h/3)·(B + T1)`.
//!
//! * The loop rounds each node value at most 3 times (`f` twice, the
//!   product once), adds its `n + 1` values with `n` roundings, then
//!   multiplies by `h` and divides by 3: its sum is within `γ_{n+5}·R` of
//!   `R`.
//! * The moment route: `B` carries its sum's `γ_{m+2}` and the division's
//!   rounding; `T1` its sum's `γ_{k+2}`; `C` its sum's `γ_{k+1}` and the
//!   product's rounding (`c/2` is exact); `T1 − C` and `B + (T1 − C)` round
//!   once each, relative to at most `B + T1 + C`, and the product with
//!   `fl(h/3)` twice. In all, within `u·(h/3)·(max(m, k) + 7)·(B + T1 + C)`
//!   to first order.
//!
//! Together the routes are within `u·(h/3)·(2n + 13)·(B + T1 + C)`, as
//! `m, k ≤ n + 1`. The bound used is `2u·(h/3)·(2n + 16)·(B + T1 + C)`,
//! more than twice that, which also covers computing it from the table's
//! rounded sums.
//!
//! The stopping tests take these bounds as derived in [`crate::integrate`].
//! For the rounding, `from_secs_f64` rounds `fl(S·10^6)` of the loop's value
//! `S`. The estimate's `fl(Ŝ·10^6)` is within `10^6·bound` of it plus the
//! two products' roundings, `2u` relative; the guard allows
//! `10^6·bound + 2^-50·ticks`, a 4× margin on the latter. A clear
//! `round_if_clear` also proves `S > 0`, so the loop's `max(0)` changes
//! nothing.

use serde::{Deserialize, Serialize};
use snip_units::{round_if_clear, DutyCycle, SimDuration, TICKS_PER_SECOND};

use crate::integrate::Settled;
use crate::length::{DensityGrid, LengthDistribution, Moments};

/// The closed-form SNIP probing model, parameterized by the beacon window.
///
/// `Ton` is the radio-on window per cycle: long enough to transmit one beacon
/// and listen for a reply. The paper does not state its value; `20 ms`
/// reproduces the published ρ values (see DESIGN.md §3) and is this model's
/// conventional choice, but any positive value can be supplied.
///
/// # Examples
///
/// ```
/// use snip_model::SnipModel;
/// use snip_units::{DutyCycle, SimDuration};
///
/// let model = SnipModel::default(); // Ton = 20 ms
/// let contact = SimDuration::from_secs(2);
/// let d = DutyCycle::new(0.001).unwrap();
///
/// // 0.1% duty-cycle on 2 s contacts probes 5% of the capacity.
/// assert!((model.upsilon(d, contact) - 0.05).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SnipModel {
    ton: SimDuration,
}

impl SnipModel {
    /// Creates a model with the given radio-on window `Ton`.
    ///
    /// # Panics
    ///
    /// Panics if `ton` is zero.
    #[must_use]
    pub fn new(ton: SimDuration) -> Self {
        assert!(!ton.is_zero(), "Ton must be positive");
        SnipModel { ton }
    }

    /// The radio-on window `Ton`.
    #[must_use]
    pub fn ton(&self) -> SimDuration {
        self.ton
    }

    /// The cycle length `Tcycle = Ton / d` for a duty-cycle.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    #[must_use]
    pub fn cycle(&self, d: DutyCycle) -> SimDuration {
        d.cycle_for_on(self.ton)
    }

    /// The probed fraction `Υ(d, Tcontact)` for a fixed contact length
    /// (eq. (1)).
    ///
    /// Returns 0 when either the duty-cycle or the contact length is zero.
    #[must_use]
    pub fn upsilon(&self, d: DutyCycle, contact: SimDuration) -> f64 {
        if d.is_off() || contact.is_zero() {
            return 0.0;
        }
        let ton = self.ton.as_secs_f64();
        let l = contact.as_secs_f64();
        let d = d.as_fraction();
        let cycle = ton / d;
        if cycle >= l {
            l * d / (2.0 * ton)
        } else {
            1.0 - ton / (2.0 * d * l)
        }
    }

    /// The expected probed time `Tprobed = Υ · Tcontact` for a fixed contact
    /// length.
    #[must_use]
    pub fn expected_probed(&self, d: DutyCycle, contact: SimDuration) -> SimDuration {
        contact.mul_f64(self.upsilon(d, contact))
    }

    /// The probability that a contact is probed at all: a beacon (cycle
    /// start) must fall inside the contact, so `min(1, Tcontact/Tcycle)`.
    #[must_use]
    pub fn probe_probability(&self, d: DutyCycle, contact: SimDuration) -> f64 {
        if d.is_off() || contact.is_zero() {
            return 0.0;
        }
        let cycle = self.ton.as_secs_f64() / d.as_fraction();
        (contact.as_secs_f64() / cycle).min(1.0)
    }

    /// The knee duty-cycle `d* = Ton / Tcontact` at which `Υ = 1/2` and above
    /// which returns diminish. This is SNIP-RH's rush-hour duty-cycle choice.
    ///
    /// The result is clamped to `1` for contacts shorter than `Ton`.
    ///
    /// # Panics
    ///
    /// Panics if `contact` is zero.
    #[must_use]
    pub fn knee_duty_cycle(&self, contact: SimDuration) -> DutyCycle {
        assert!(!contact.is_zero(), "contact length must be positive");
        DutyCycle::clamped(self.ton.as_secs_f64() / contact.as_secs_f64())
    }

    /// The duty-cycle that achieves a target probed fraction on fixed-length
    /// contacts, or `None` if the target is unreachable even with the radio
    /// always on.
    ///
    /// # Panics
    ///
    /// Panics if `target_upsilon` is not in `[0, 1)` or `contact` is zero.
    #[must_use]
    pub fn duty_cycle_for_upsilon(
        &self,
        target_upsilon: f64,
        contact: SimDuration,
    ) -> Option<DutyCycle> {
        assert!(
            (0.0..1.0).contains(&target_upsilon),
            "target Υ must be in [0, 1), got {target_upsilon}"
        );
        assert!(!contact.is_zero(), "contact length must be positive");
        let ton = self.ton.as_secs_f64();
        let l = contact.as_secs_f64();
        let d = if target_upsilon <= 0.5 {
            // Linear branch: Υ = l·d / (2·Ton).
            2.0 * ton * target_upsilon / l
        } else {
            // Saturating branch: Υ = 1 − Ton / (2·d·l).
            ton / (2.0 * l * (1.0 - target_upsilon))
        };
        if d <= 1.0 {
            Some(DutyCycle::clamped(d))
        } else {
            None
        }
    }

    /// The marginal probed fraction per unit duty-cycle, `∂Υ/∂d`.
    ///
    /// Constant (`l / 2·Ton`) below the knee; decaying (`Ton / 2·d²·l`)
    /// above it.
    #[must_use]
    pub fn upsilon_slope(&self, d: DutyCycle, contact: SimDuration) -> f64 {
        if contact.is_zero() {
            return 0.0;
        }
        let ton = self.ton.as_secs_f64();
        let l = contact.as_secs_f64();
        let d = d.as_fraction();
        if d <= ton / l {
            l / (2.0 * ton)
        } else {
            ton / (2.0 * d * d * l)
        }
    }

    /// The expected probed time for a random contact length.
    ///
    /// Uses the exact closed form for lengths without spread (as
    /// [`LengthDistribution::Fixed`]) and for
    /// [`LengthDistribution::Exponential`], and adaptive Simpson integration
    /// otherwise, whose µs value is taken from moment sums where bounds
    /// prove it (see the module docs).
    ///
    /// For an exponential length with mean `m` and cycle `T = Ton/d`, the
    /// expectation telescopes to the clean closed form
    /// `E[Tprobed] = m²·(1 − e^(−T/m)) / T`.
    #[must_use]
    pub fn expected_probed_dist(&self, d: DutyCycle, dist: &LengthDistribution) -> SimDuration {
        self.expected_probed_on(d, &mut DensityGrid::new(dist))
    }

    /// [`SnipModel::expected_probed_dist`] over `grid`'s distribution, with
    /// the node densities taken from and kept in `grid`.
    pub(crate) fn expected_probed_on(&self, d: DutyCycle, grid: &mut DensityGrid) -> SimDuration {
        if d.is_off() {
            return SimDuration::ZERO;
        }
        let dist = grid.distribution();
        if let Some(length) = dist.point_mass() {
            return self.expected_probed(d, length);
        }
        match *dist {
            LengthDistribution::Exponential { mean } => {
                let m = mean.as_secs_f64();
                let cycle = self.ton.as_secs_f64() / d.as_fraction();
                if m == 0.0 {
                    return SimDuration::ZERO;
                }
                SimDuration::from_secs_f64(m * m * (1.0 - (-cycle / m).exp()) / cycle)
            }
            _ => {
                let cycle = self.ton.as_secs_f64() / d.as_fraction();
                probed_on_grid(grid, cycle)
            }
        }
    }

    /// The mean probed *fraction* of contact capacity for a random length:
    /// `E[Tprobed] / E[Tcontact]`.
    #[must_use]
    pub fn upsilon_dist(&self, d: DutyCycle, dist: &LengthDistribution) -> f64 {
        let mean = dist.mean().as_secs_f64();
        if mean == 0.0 {
            return 0.0;
        }
        self.expected_probed_dist(d, dist).as_secs_f64() / mean
    }
}

/// The expected probed time of a contact `l` seconds long under SNIP
/// cycles of `cycle` seconds: `E[Tprobed]`'s integrand.
pub(crate) fn probed_time(cycle: f64, l: f64) -> f64 {
    if l <= 0.0 {
        0.0
    } else if cycle >= l {
        l * l / (2.0 * cycle)
    } else {
        l - cycle / 2.0
    }
}

/// `2·2^-53`: twice the unit roundoff, the factor of a level sum's bound
/// (see the module docs).
const LEVEL_ROUNDING: f64 = 1.0 / (1u64 << 52) as f64;

/// What the µs conversion's two products can round apart, relative to the
/// tick count: `2^-50`, a 4× margin on their `2·2^-53` (see the module
/// docs).
const TICK_ROUNDING: f64 = 1.0 / (1u64 << 50) as f64;

/// `E[Tprobed]`'s Simpson sum at one refinement level, from the level's
/// moment table, and a bound on its distance from the Simpson loop's sum
/// at that level (see the module docs).
fn probed_level_sum(table: &Moments, cycle: f64) -> (f64, f64) {
    let [below2, tail0, tail1] = table.split(cycle);
    let below = below2 / (2.0 * cycle);
    let tail0 = cycle / 2.0 * tail0;
    let third = table.third();
    let sum = (below + (tail1 - tail0)) * third;
    let roundings = 2.0 * table.panels() as f64 + 16.0;
    let bound = LEVEL_ROUNDING * roundings * (below + tail1 + tail0) * third;
    (sum, bound)
}

/// `E[Tprobed]` for cycles of `cycle` seconds, as the Simpson loop over
/// `grid` rounds it to µs (see the module docs): from the moment tables
/// where the bounds prove the loop's value rounds the same, from the loop's
/// last level where only the rounding is in doubt, and from the loop
/// itself otherwise.
fn probed_on_grid(grid: &mut DensityGrid, cycle: f64) -> SimDuration {
    let probed = |l: f64| probed_time(cycle, l);
    let settled = if (2.0 * cycle).is_finite() {
        grid.settle(|table| probed_level_sum(table, cycle))
    } else {
        None
    };
    let secs = match settled {
        Some(Settled {
            level,
            estimate,
            bound,
        }) => {
            let scale = TICKS_PER_SECOND as f64;
            let ticks = estimate * scale;
            if let Some(us) = round_if_clear(ticks, scale * bound + TICK_ROUNDING * ticks) {
                return SimDuration::from_micros(us);
            }
            grid.level_sum(level, probed)
        }
        None => grid.expect(probed),
    };
    SimDuration::from_secs_f64(secs.max(0.0))
}

impl Default for SnipModel {
    /// The calibration that reproduces the paper's Figs 5–8: `Ton = 20 ms`.
    fn default() -> Self {
        SnipModel::new(SimDuration::from_millis(20))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model() -> SnipModel {
        SnipModel::default()
    }

    fn d(frac: f64) -> DutyCycle {
        DutyCycle::new(frac).unwrap()
    }

    #[test]
    fn upsilon_linear_branch_matches_equation_one() {
        let m = model();
        let l = SimDuration::from_secs(2);
        // Υ = l·d / (2·Ton) while Tcycle ≥ l, i.e. d ≤ 0.01.
        for frac in [0.0001, 0.001, 0.005, 0.01] {
            let expect = 2.0 * frac / (2.0 * 0.02);
            assert!(
                (m.upsilon(d(frac), l) - expect).abs() < 1e-12,
                "d={frac}: {} vs {expect}",
                m.upsilon(d(frac), l)
            );
        }
    }

    #[test]
    fn upsilon_saturating_branch_matches_equation_one() {
        let m = model();
        let l = SimDuration::from_secs(2);
        // Υ = 1 − Ton / (2·d·l) once Tcycle < l.
        for frac in [0.02, 0.05, 0.1, 1.0] {
            let expect = 1.0 - 0.02 / (2.0 * frac * 2.0);
            assert!((m.upsilon(d(frac), l) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn upsilon_is_continuous_at_knee() {
        let m = model();
        let l = SimDuration::from_secs(2);
        let knee = m.knee_duty_cycle(l);
        let below = m.upsilon(d(knee.as_fraction() - 1e-9), l);
        let above = m.upsilon(d(knee.as_fraction() + 1e-9), l);
        assert!((below - 0.5).abs() < 1e-6);
        assert!((above - 0.5).abs() < 1e-6);
    }

    #[test]
    fn upsilon_edge_cases_are_zero() {
        let m = model();
        assert_eq!(m.upsilon(DutyCycle::OFF, SimDuration::from_secs(2)), 0.0);
        assert_eq!(m.upsilon(d(0.5), SimDuration::ZERO), 0.0);
        assert_eq!(
            m.expected_probed(DutyCycle::OFF, SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn probe_probability_matches_cycle_ratio() {
        let m = model();
        let l = SimDuration::from_secs(2);
        // d = 0.001 → Tcycle = 20 s → P = 0.1.
        assert!((m.probe_probability(d(0.001), l) - 0.1).abs() < 1e-12);
        // Dense regime saturates at 1.
        assert_eq!(m.probe_probability(d(0.5), l), 1.0);
        assert_eq!(m.probe_probability(DutyCycle::OFF, l), 0.0);
    }

    #[test]
    fn knee_clamps_for_tiny_contacts() {
        let m = model();
        let knee = m.knee_duty_cycle(SimDuration::from_millis(10)); // shorter than Ton
        assert_eq!(knee, DutyCycle::ALWAYS_ON);
    }

    #[test]
    fn duty_cycle_for_upsilon_inverts_both_branches() {
        let m = model();
        let l = SimDuration::from_secs(2);
        for target in [0.05, 0.25, 0.5, 0.75, 0.9] {
            let dc = m.duty_cycle_for_upsilon(target, l).unwrap();
            assert!(
                (m.upsilon(dc, l) - target).abs() < 1e-9,
                "target {target} gave Υ {}",
                m.upsilon(dc, l)
            );
        }
    }

    #[test]
    fn duty_cycle_for_upsilon_unreachable_returns_none() {
        let m = model();
        // With l = 30 ms, even d = 1 only reaches Υ = 1 − 0.02/(2·0.03) = 2/3.
        let l = SimDuration::from_millis(30);
        assert!(m.duty_cycle_for_upsilon(0.99, l).is_none());
        assert!(m.duty_cycle_for_upsilon(0.5, l).is_some());
    }

    #[test]
    fn slope_is_constant_below_knee_and_decays_above() {
        let m = model();
        let l = SimDuration::from_secs(2);
        let s1 = m.upsilon_slope(d(0.001), l);
        let s2 = m.upsilon_slope(d(0.009), l);
        assert!((s1 - s2).abs() < 1e-12, "linear regime slope not constant");
        assert!((s1 - 50.0).abs() < 1e-9, "slope should be l/(2·Ton) = 50");
        let s3 = m.upsilon_slope(d(0.1), l);
        assert!(s3 < s1, "slope must decay above the knee");
    }

    #[test]
    fn exponential_closed_form_limits() {
        let m = model();
        let mean = SimDuration::from_secs(2);
        let dist = LengthDistribution::exponential(mean);
        // Sparse limit: E[Tprobed] → E[l²]/(2·Tcycle) = m²/Tcycle.
        let sparse = m.expected_probed_dist(d(1e-5), &dist).as_secs_f64();
        let cycle = 0.02 / 1e-5;
        assert!((sparse - 4.0 / cycle).abs() / (4.0 / cycle) < 1e-3);
        // Dense limit: probes nearly everything.
        let dense = m.expected_probed_dist(d(1.0), &dist).as_secs_f64();
        assert!(dense > 1.98 && dense <= 2.0);
    }

    #[test]
    fn exponential_closed_form_agrees_with_numeric_integration() {
        let m = model();
        let mean = SimDuration::from_secs(2);
        let exp = LengthDistribution::exponential(mean);
        for frac in [0.001, 0.01, 0.1] {
            let closed = m.expected_probed_dist(d(frac), &exp).as_secs_f64();
            // Integrate the same expectation numerically via expect().
            let cycle = 0.02 / frac;
            let numeric = exp.expect(|l| {
                if cycle >= l {
                    l * l / (2.0 * cycle)
                } else {
                    l - cycle / 2.0
                }
            });
            assert!(
                (closed - numeric).abs() < 1e-4,
                "d={frac}: closed {closed} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn normal_distribution_expectation_close_to_fixed_for_small_sigma() {
        let m = model();
        let l = SimDuration::from_secs(2);
        let dist = LengthDistribution::normal(l, SimDuration::from_millis(200));
        for frac in [0.001, 0.01, 0.05] {
            let fixed = m.expected_probed(d(frac), l).as_secs_f64();
            let normal = m.expected_probed_dist(d(frac), &dist).as_secs_f64();
            // σ = l/10 barely moves the expectation (paper's simulation setup).
            assert!(
                (fixed - normal).abs() / fixed < 0.05,
                "d={frac}: fixed {fixed} vs normal {normal}"
            );
        }
    }

    #[test]
    fn zero_spread_lengths_probe_like_fixed_ones() {
        let m = model();
        let l = SimDuration::from_secs(2);
        let short = SimDuration::from_micros(9);
        let cases = [
            (LengthDistribution::normal(l, SimDuration::ZERO), l),
            (LengthDistribution::log_normal(l, SimDuration::ZERO), l),
            (LengthDistribution::paper_normal(short), short),
        ];
        for (spec, mean) in cases {
            let fixed = LengthDistribution::fixed(mean);
            for frac in [1e-4, 0.001, 0.01, 0.3, 1.0] {
                let got = m.expected_probed_dist(d(frac), &spec);
                assert_eq!(
                    got,
                    m.expected_probed_dist(d(frac), &fixed),
                    "{spec:?} d={frac}"
                );
                assert_eq!(got, m.expected_probed(d(frac), mean));
            }
        }
        let spec = LengthDistribution::normal(l, SimDuration::ZERO);
        assert!(m.expected_probed_dist(d(0.01), &spec) > SimDuration::ZERO);
    }

    #[test]
    fn upsilon_dist_of_fixed_matches_upsilon() {
        let m = model();
        let l = SimDuration::from_secs(2);
        let dist = LengthDistribution::fixed(l);
        for frac in [0.001, 0.01, 0.1] {
            assert!((m.upsilon_dist(d(frac), &dist) - m.upsilon(d(frac), l)).abs() < 1e-12);
        }
    }

    #[test]
    fn default_model_uses_calibrated_ton() {
        assert_eq!(SnipModel::default().ton(), SimDuration::from_millis(20));
    }

    #[test]
    #[should_panic(expected = "Ton must be positive")]
    fn zero_ton_rejected() {
        let _ = SnipModel::new(SimDuration::ZERO);
    }

    /// `E[Tprobed]` as defined: the Simpson loop over a fresh grid,
    /// rounded to µs as `expected_probed_on` rounds it.
    fn loop_probed(dist: &LengthDistribution, cycle: f64) -> SimDuration {
        SimDuration::from_secs_f64(dist.expect(|l| probed_time(cycle, l)).max(0.0))
    }

    /// Normal, log-normal, uniform, exponential and point-mass lengths
    /// around `mean` seconds, with relative spread `cv < 1`.
    fn families(mean: f64, cv: f64) -> [LengthDistribution; 5] {
        let (m, s) = (
            SimDuration::from_secs_f64(mean),
            SimDuration::from_secs_f64(mean * cv),
        );
        [
            LengthDistribution::normal(m, s),
            LengthDistribution::log_normal(m, s),
            LengthDistribution::uniform(m - s, m + s),
            LengthDistribution::exponential(m),
            LengthDistribution::fixed(m),
        ]
    }

    #[test]
    fn moment_route_declines_without_a_density_or_a_finite_cycle() {
        let two = SimDuration::from_secs(2);
        for dist in [
            LengthDistribution::uniform(two / 2, two),
            LengthDistribution::fixed(two),
        ] {
            let mut grid = DensityGrid::new(&dist);
            assert!(grid.settle(|table| probed_level_sum(table, 1.0)).is_none());
            assert_eq!(probed_on_grid(&mut grid, 1.0), loop_probed(&dist, 1.0));
        }
        let dist = LengthDistribution::paper_normal(two);
        let mut grid = DensityGrid::new(&dist);
        // A cycle of 2^1023 s: finite, but not twice over.
        let huge = f64::MAX / 1.5;
        assert_eq!(probed_on_grid(&mut grid, huge), loop_probed(&dist, huge));
        assert_eq!(grid.loop_sums, 1, "the loop decides");
        assert_eq!(probed_on_grid(&mut grid, 30.0), loop_probed(&dist, 30.0));
        assert_eq!(grid.loop_sums, 1, "far from a µs edge, the tables do");
    }

    #[test]
    fn level_bound_covers_the_loop_sixteen_times_over() {
        // The bound against the loop's own level sums (Simpson afresh at
        // each level), over every tabled level, cycles on both sides of
        // the kink and beyond the support, and the four density families.
        let mut worst = 0.0f64;
        for (mean, cv) in [(2.0, 0.1), (1.0, 0.45), (0.3, 0.05), (40.0, 0.3)] {
            for dist in &families(mean, cv)[..4] {
                if matches!(dist, LengthDistribution::Uniform { .. }) {
                    continue;
                }
                let mut grid = DensityGrid::new(dist);
                for k in 0..40 {
                    let cycle = mean * 10f64.powf(-1.5 + 3.0 * f64::from(k) / 39.0);
                    let f = |l: f64| probed_time(cycle, l) * dist.pdf(l);
                    let mut level = 0;
                    while let Some(table) = grid.moments(level) {
                        let (a, b) = table.support();
                        let want = crate::integrate::simpson(f, a, b, table.panels());
                        let (got, bound) = probed_level_sum(table, cycle);
                        let err = (got - want).abs();
                        assert!(
                            err <= bound / 16.0,
                            "{dist:?} c = {cycle} level {level}: off by {err:e}, bound {bound:e}"
                        );
                        worst = worst.max(err / bound);
                        level += 1;
                    }
                    assert_eq!(level, 5, "levels up to 1,024 panels have tables");
                }
            }
        }
        assert!(worst > 0.0, "some level sum should round differently");
    }

    #[test]
    fn last_level_sum_is_the_loops_bit_for_bit() {
        for dist in &families(2.0, 0.2)[..4] {
            if matches!(dist, LengthDistribution::Uniform { .. }) {
                continue;
            }
            let mut grid = DensityGrid::new(dist);
            for cycle in [0.02, 1.7, 2.0, 2.3, 40.0] {
                let f = |l: f64| probed_time(cycle, l);
                for level in 0..5 {
                    let (a, b) = grid.moments(level).expect("tabled").support();
                    let n = grid.moments(level).expect("tabled").panels();
                    let want = crate::integrate::simpson(|l| f(l) * dist.pdf(l), a, b, n);
                    let got = grid.level_sum(level, f);
                    assert_eq!(got.to_bits(), want.to_bits(), "{dist:?} c {cycle} {level}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_every_route_rounds_as_the_loop(
            mean in 0.05f64..8.0,
            cv in 0.01f64..0.6,
            exponents in proptest::collection::vec(-5.0f64..0.0, 1..8),
            kinks in proptest::collection::vec(0.05f64..4.0, 1..8),
        ) {
            // Cycles of random duty-cycles, and cycles on both sides of
            // the integrand's kink `l = c` inside the support.
            let cycles: Vec<f64> = exponents
                .iter()
                .map(|e| 0.02 / 10f64.powf(*e))
                .chain(kinks.iter().map(|k| mean * k))
                .collect();
            for dist in families(mean, cv) {
                // One grid for the whole sweep, as a plan keeps one.
                let mut grid = DensityGrid::new(&dist);
                for &cycle in &cycles {
                    prop_assert_eq!(
                        probed_on_grid(&mut grid, cycle),
                        loop_probed(&dist, cycle),
                        "{:?} at cycle {}", dist, cycle
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_upsilon_in_unit_interval(
            frac in 1e-6f64..=1.0,
            l_ms in 1u64..100_000,
        ) {
            let m = model();
            let u = m.upsilon(d(frac), SimDuration::from_millis(l_ms));
            prop_assert!((0.0..=1.0).contains(&u), "Υ = {u}");
        }

        #[test]
        fn prop_upsilon_monotone_in_duty_cycle(
            f1 in 1e-6f64..=0.999,
            delta in 1e-6f64..1e-3,
            l_ms in 100u64..100_000,
        ) {
            let m = model();
            let l = SimDuration::from_millis(l_ms);
            let u1 = m.upsilon(d(f1), l);
            let u2 = m.upsilon(d((f1 + delta).min(1.0)), l);
            prop_assert!(u2 >= u1 - 1e-12, "Υ must be non-decreasing in d");
        }

        #[test]
        fn prop_upsilon_monotone_in_contact_length(
            frac in 1e-5f64..=1.0,
            l_ms in 100u64..100_000,
            extra_ms in 1u64..10_000,
        ) {
            let m = model();
            let u1 = m.upsilon(d(frac), SimDuration::from_millis(l_ms));
            let u2 = m.upsilon(d(frac), SimDuration::from_millis(l_ms + extra_ms));
            prop_assert!(u2 >= u1 - 1e-12, "Υ must be non-decreasing in Tcontact");
        }

        #[test]
        fn prop_inverse_is_right_inverse(
            target in 0.01f64..0.95,
            l_ms in 1_000u64..100_000,
        ) {
            let m = model();
            let l = SimDuration::from_millis(l_ms);
            if let Some(dc) = m.duty_cycle_for_upsilon(target, l) {
                prop_assert!((m.upsilon(dc, l) - target).abs() < 1e-6);
            }
        }

        #[test]
        fn prop_probed_never_exceeds_contact(
            frac in 1e-6f64..=1.0,
            l_ms in 1u64..1_000_000,
        ) {
            let m = model();
            let l = SimDuration::from_millis(l_ms);
            prop_assert!(m.expected_probed(d(frac), l) <= l);
        }
    }
}
