//! Closed-form evaluation of the scheduling mechanisms under a slotted
//! scenario — the "Numerical Results" of §VII-A (Figs 5 and 6).
//!
//! Given a [`SlotProfile`], an energy budget `Φmax`, and a capacity target
//! `ζtarget`, this module computes the per-epoch probed capacity `ζ`, probing
//! overhead `Φ`, and unit cost `ρ = Φ/ζ` that SNIP-AT and SNIP-RH achieve.
//! (SNIP-OPT's analysis lives in `snip-opt`, which owns the optimizer; for
//! the paper's scenario it coincides with SNIP-RH until rush-hour capacity is
//! exhausted and then keeps buying capacity from off-peak slots.)
//!
//! Both mechanisms are evaluated exactly as the paper models them:
//!
//! * **SNIP-AT** runs one duty-cycle `d0` in every slot. The analysis picks
//!   the smallest `d0` whose probed capacity reaches `ζtarget`; if that
//!   exceeds the budget, it degrades to the budget-bound `d0 = Φmax/Tepoch`.
//! * **SNIP-RH** runs `d_rh = Ton / T̄contact` (the knee) inside rush-hour
//!   slots only, and only while (a) it still needs data uploaded and (b) the
//!   epoch's probing ledger is under budget — conditions 1–3 of §VI-B.

use serde::{Deserialize, Serialize};
use snip_units::DutyCycle;

use crate::slot::{ProbedTimeMemo, SlotProfile};
use crate::snip::SnipModel;

/// The (ζ, Φ) outcome of one mechanism at one scenario point, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalysisPoint {
    /// Probed contact capacity per epoch, seconds.
    pub zeta: f64,
    /// Probing overhead (radio-on time) per epoch, seconds.
    pub phi: f64,
}

impl AnalysisPoint {
    /// Unit probing cost `ρ = Φ/ζ`; `None` when nothing was probed.
    #[must_use]
    pub fn rho(&self) -> Option<f64> {
        if self.zeta > 0.0 {
            Some(self.phi / self.zeta)
        } else {
            None
        }
    }

    /// Whether the capacity target was met (with a small tolerance for the
    /// bisection).
    #[must_use]
    pub fn meets(&self, zeta_target: f64) -> bool {
        self.zeta >= zeta_target - 1e-6
    }
}

/// Closed-form analysis of SNIP-AT and SNIP-RH over one scenario.
///
/// # Examples
///
/// ```
/// use snip_model::{ScenarioAnalysis, SlotProfile, SnipModel};
/// use snip_units::SimDuration;
///
/// let analysis = ScenarioAnalysis::new(
///     SnipModel::default(),
///     SlotProfile::roadside(),
///     86.4, // Φmax = Tepoch/1000 in seconds
/// );
/// let at = analysis.snip_at(16.0);
/// let rh = analysis.snip_rh(16.0);
/// // SNIP-AT cannot reach 16 s under this budget; SNIP-RH can.
/// assert!(!at.meets(16.0));
/// assert!(rh.meets(16.0));
/// assert!(rh.phi < analysis.phi_max());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioAnalysis {
    model: SnipModel,
    profile: SlotProfile,
    phi_max: f64,
    rush_marks: Vec<bool>,
}

impl ScenarioAnalysis {
    /// Creates an analysis with rush hours auto-detected as every slot whose
    /// capacity is strictly above the epoch's mean slot capacity.
    ///
    /// # Panics
    ///
    /// Panics if `phi_max` is not positive.
    #[must_use]
    pub fn new(model: SnipModel, profile: SlotProfile, phi_max: f64) -> Self {
        assert!(phi_max > 0.0, "Φmax must be positive");
        let mean = profile.total_capacity() / profile.len() as f64;
        let rush_marks = profile
            .slots()
            .iter()
            .map(|s| s.capacity() > mean)
            .collect();
        ScenarioAnalysis {
            model,
            profile,
            phi_max,
            rush_marks,
        }
    }

    /// Creates an analysis with explicit rush-hour marks (the engineer-
    /// provided "1"/"0" labels of §VI-A).
    ///
    /// # Panics
    ///
    /// Panics if `phi_max` is not positive or `rush_marks` has a different
    /// length than the profile.
    #[must_use]
    pub fn with_rush_marks(
        model: SnipModel,
        profile: SlotProfile,
        phi_max: f64,
        rush_marks: Vec<bool>,
    ) -> Self {
        assert!(phi_max > 0.0, "Φmax must be positive");
        assert_eq!(
            rush_marks.len(),
            profile.len(),
            "rush marks must cover every slot"
        );
        ScenarioAnalysis {
            model,
            profile,
            phi_max,
            rush_marks,
        }
    }

    /// The SNIP model in use.
    #[must_use]
    pub fn model(&self) -> &SnipModel {
        &self.model
    }

    /// The slot profile in use.
    #[must_use]
    pub fn profile(&self) -> &SlotProfile {
        &self.profile
    }

    /// The per-epoch probing-energy budget `Φmax` in seconds.
    #[must_use]
    pub fn phi_max(&self) -> f64 {
        self.phi_max
    }

    /// The rush-hour marks in use.
    #[must_use]
    pub fn rush_marks(&self) -> &[bool] {
        &self.rush_marks
    }

    /// SNIP-AT at a *given* duty-cycle (no target logic).
    #[must_use]
    pub fn snip_at_fixed(&self, d: DutyCycle) -> AnalysisPoint {
        AnalysisPoint {
            zeta: self.profile.probed_capacity_uniform(&self.model, d),
            phi: self.profile.epoch().as_secs_f64() * d.as_fraction(),
        }
    }

    /// SNIP-AT's outcome for a capacity target (Figs 5/6, "SNIP-AT" series).
    ///
    /// Picks the smallest all-day duty-cycle reaching `zeta_target`; if that
    /// busts the budget (or the target is unreachable at `d = 1`), runs at
    /// the budget-bound duty-cycle instead
    /// ([`ScenarioAnalysis::snip_at_duty_cycle`]).
    ///
    /// # Panics
    ///
    /// Panics if `zeta_target` is not positive.
    #[must_use]
    pub fn snip_at(&self, zeta_target: f64) -> AnalysisPoint {
        assert!(zeta_target > 0.0, "ζtarget must be positive");
        self.snip_at_fixed(self.snip_at_duty_cycle(zeta_target))
    }

    /// The duty-cycle SNIP-AT runs for a capacity target: the smallest
    /// uniform duty-cycle reaching `zeta_target`, capped at the budget-bound
    /// duty-cycle `Φmax/Tepoch` (the paper's offline selection).
    ///
    /// `ζ(d)` is monotone, so when even the budget-bound duty-cycle misses
    /// the target the answer is the budget-bound one, found with one
    /// capacity evaluation instead of a bisection. The check and the
    /// bisection share one [`ProbedTimeMemo`].
    #[must_use]
    pub fn snip_at_duty_cycle(&self, zeta_target: f64) -> DutyCycle {
        let epoch = self.profile.epoch().as_secs_f64();
        let budget_d = DutyCycle::clamped(self.phi_max / epoch);
        let mut memo = ProbedTimeMemo::new(self.model);
        if memo.probed_capacity_uniform(&self.profile, budget_d) < zeta_target {
            return budget_d;
        }
        match self.bisect_for_target(&mut memo, zeta_target) {
            Some(d) if d.as_fraction() <= budget_d.as_fraction() => d,
            _ => budget_d,
        }
    }

    /// The smallest uniform duty-cycle whose probed capacity reaches the
    /// target, ignoring the budget; `None` if unreachable even always-on.
    ///
    /// Bisection on the monotone `ζ(d)`; exact enough for 1 µs duty-cycles.
    #[must_use]
    pub fn duty_cycle_for_target(&self, zeta_target: f64) -> Option<DutyCycle> {
        self.bisect_for_target(&mut ProbedTimeMemo::new(self.model), zeta_target)
    }

    /// [`ScenarioAnalysis::duty_cycle_for_target`]'s bisection, with every
    /// capacity evaluation through `memo`.
    fn bisect_for_target(&self, memo: &mut ProbedTimeMemo, zeta_target: f64) -> Option<DutyCycle> {
        let max = memo.probed_capacity_uniform(&self.profile, DutyCycle::ALWAYS_ON);
        if max < zeta_target {
            return None;
        }
        let mut lo = 0.0f64;
        let mut hi = 1.0f64;
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            let z = memo.probed_capacity_uniform(&self.profile, DutyCycle::clamped(mid));
            if z >= zeta_target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(DutyCycle::clamped(hi))
    }

    /// SNIP-RH's outcome for a capacity target (Figs 5/6, "SNIP-RH" series).
    ///
    /// Runs the knee duty-cycle over rush-hour slots in chronological order,
    /// stopping early once the target is met (condition 2: no probing without
    /// pending data) or the budget is exhausted (condition 3).
    ///
    /// # Panics
    ///
    /// Panics if `zeta_target` is not positive.
    #[must_use]
    pub fn snip_rh(&self, zeta_target: f64) -> AnalysisPoint {
        assert!(zeta_target > 0.0, "ζtarget must be positive");
        let mut zeta = 0.0f64;
        let mut phi = 0.0f64;
        let mut memo = ProbedTimeMemo::new(self.model);
        for (slot, &is_rush) in self.profile.slots().iter().zip(&self.rush_marks) {
            if !is_rush {
                continue;
            }
            let mean_len = slot.contact_length.mean();
            if mean_len.is_zero() || slot.frequency() == 0.0 {
                continue;
            }
            let d_rh = self.model.knee_duty_cycle(mean_len);
            // Rates per second of slot time while SNIP is active.
            let zeta_rate = memo.probed_capacity(slot, d_rh) / slot.length.as_secs_f64();
            let phi_rate = d_rh.as_fraction();
            if zeta_rate <= 0.0 {
                continue;
            }
            // Active time limited by the slot, the remaining target, and the
            // remaining budget.
            let need = ((zeta_target - zeta) / zeta_rate).max(0.0);
            let afford = (self.phi_max - phi).max(0.0) / phi_rate;
            let active = slot.length.as_secs_f64().min(need).min(afford);
            zeta += zeta_rate * active;
            phi += phi_rate * active;
            if zeta >= zeta_target - 1e-12 || phi >= self.phi_max - 1e-12 {
                break;
            }
        }
        AnalysisPoint { zeta, phi }
    }

    /// Convenience: evaluates both closed-form mechanisms over a sweep of
    /// targets, returning `(ζtarget, AT, RH)` rows.
    #[must_use]
    pub fn sweep(&self, zeta_targets: &[f64]) -> Vec<(f64, AnalysisPoint, AnalysisPoint)> {
        zeta_targets
            .iter()
            .map(|&t| (t, self.snip_at(t), self.snip_rh(t)))
            .collect()
    }

    /// Total contact capacity available inside marked rush hours, seconds.
    #[must_use]
    pub fn rush_capacity(&self) -> f64 {
        self.profile
            .slots()
            .iter()
            .zip(&self.rush_marks)
            .filter(|&(_, &m)| m)
            .map(|(s, _)| s.capacity())
            .sum()
    }
}

/// The paper's ζtarget sweep for Figs 5–8, in seconds.
pub const PAPER_ZETA_TARGETS: [f64; 6] = [16.0, 24.0, 32.0, 40.0, 48.0, 56.0];

/// `Φmax = Tepoch/1000` for the 24 h epoch (Figs 5 and 7), in seconds.
pub const PAPER_PHI_MAX_TIGHT: f64 = 86.4;

/// `Φmax = Tepoch/100` for the 24 h epoch (Figs 6 and 8), in seconds.
pub const PAPER_PHI_MAX_LOOSE: f64 = 864.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::SlotSpec;
    use crate::LengthDistribution;
    use snip_units::SimDuration;

    fn analysis(phi_max: f64) -> ScenarioAnalysis {
        ScenarioAnalysis::new(SnipModel::default(), SlotProfile::roadside(), phi_max)
    }

    #[test]
    fn auto_rush_detection_finds_the_four_rush_hours() {
        let a = analysis(PAPER_PHI_MAX_TIGHT);
        let marked: Vec<usize> = a
            .rush_marks()
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(marked, vec![7, 8, 17, 18]);
        assert!((a.rush_capacity() - 96.0).abs() < 1e-9);
    }

    #[test]
    fn fig5_snip_at_is_budget_bound_at_8_8_seconds() {
        // Φmax = 86.4 s → d0 = 0.001 → Υ = 0.05 → ζ = 176 × 0.05 = 8.8 s.
        let a = analysis(PAPER_PHI_MAX_TIGHT);
        for target in PAPER_ZETA_TARGETS {
            let at = a.snip_at(target);
            assert!(
                !at.meets(target),
                "AT cannot reach {target} under Φmax=86.4"
            );
            assert!((at.zeta - 8.8).abs() < 1e-6, "ζ = {}", at.zeta);
            assert!((at.phi - 86.4).abs() < 1e-6, "Φ = {}", at.phi);
            assert!((at.rho().unwrap() - 86.4 / 8.8).abs() < 1e-6);
        }
    }

    #[test]
    fn fig5_snip_rh_meets_small_targets_cheaply() {
        let a = analysis(PAPER_PHI_MAX_TIGHT);
        // ρ_RH = 3 in the linear regime: Φ = 3·ζ.
        for target in [16.0, 24.0] {
            let rh = a.snip_rh(target);
            assert!(rh.meets(target));
            assert!((rh.zeta - target).abs() < 1e-6);
            assert!((rh.phi - 3.0 * target).abs() < 1e-6, "Φ = {}", rh.phi);
        }
    }

    #[test]
    fn fig5_snip_rh_saturates_at_budget_over_28_8() {
        let a = analysis(PAPER_PHI_MAX_TIGHT);
        for target in [32.0, 40.0, 48.0, 56.0] {
            let rh = a.snip_rh(target);
            assert!(!rh.meets(target));
            assert!((rh.zeta - 28.8).abs() < 1e-6, "ζ = {}", rh.zeta);
            assert!((rh.phi - 86.4).abs() < 1e-6);
            assert!((rh.rho().unwrap() - 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn fig6_snip_at_meets_targets_at_rho_about_ten() {
        let a = analysis(PAPER_PHI_MAX_LOOSE);
        for target in PAPER_ZETA_TARGETS {
            let at = a.snip_at(target);
            assert!(at.meets(target), "AT should reach {target} under Φmax=864");
            // Linear regime: ρ_AT = 2·Ton·Tepoch / Σ(f·l²·t) = 86400·2·0.02/(176·2)
            let rho = at.rho().unwrap();
            assert!((rho - 86_400.0 * 0.04 / 352.0).abs() < 0.05, "ρ = {rho}");
        }
    }

    #[test]
    fn fig6_snip_rh_saturates_at_rush_capacity_over_48() {
        let a = analysis(PAPER_PHI_MAX_LOOSE);
        let rh48 = a.snip_rh(48.0);
        assert!(rh48.meets(48.0));
        assert!((rh48.phi - 144.0).abs() < 1e-6, "Φ = {}", rh48.phi);
        let rh56 = a.snip_rh(56.0);
        assert!(!rh56.meets(56.0), "rush capacity tops out at Υ·96 = 48 s");
        assert!((rh56.zeta - 48.0).abs() < 1e-6);
        assert!((rh56.rho().unwrap() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn snip_at_duty_cycle_for_target_is_minimal() {
        let a = analysis(PAPER_PHI_MAX_LOOSE);
        let d = a.duty_cycle_for_target(16.0).unwrap();
        // Linear regime: ζ = 8800·d → d = 16/8800. The probed time is
        // quantized to 1 µs, so the bisection lands within ~1e-7 of it.
        assert!((d.as_fraction() - 16.0 / 8_800.0).abs() < 1e-7, "{d:?}");
        let point = a.snip_at_fixed(d);
        // 88 contacts × 1 µs probed-time quantization ⇒ ζ steps of ~88 µs.
        assert!((point.zeta - 16.0).abs() < 1e-3, "ζ = {}", point.zeta);
    }

    /// The sweep's profile: the roadside epoch with Normal(2 s, 0.2 s)
    /// contact lengths.
    fn sweep_analysis() -> ScenarioAnalysis {
        let lengths = LengthDistribution::paper_normal(SimDuration::from_secs(2));
        ScenarioAnalysis::new(
            SnipModel::default(),
            SlotProfile::roadside_with_lengths(lengths),
            PAPER_PHI_MAX_LOOSE,
        )
    }

    /// The bisection with a fresh evaluation of the profile at every step.
    fn reference_bisection(a: &ScenarioAnalysis, target: f64) -> Option<DutyCycle> {
        let zeta = |d| a.profile().probed_capacity_uniform(a.model(), d);
        if zeta(DutyCycle::ALWAYS_ON) < target {
            return None;
        }
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if zeta(DutyCycle::clamped(mid)) >= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(DutyCycle::clamped(hi))
    }

    #[test]
    fn one_memo_bisection_equals_fresh_evaluations() {
        let a = sweep_analysis();
        let budget_d = DutyCycle::clamped(PAPER_PHI_MAX_LOOSE / 86_400.0);
        let (mut capped, mut unreachable) = (0, 0);
        // 0.9 s to 320 s: reachable within budget, over budget, and past
        // the always-on capacity (≈ 175 s).
        for k in 0..200 {
            let target = 0.9 * 1.03f64.powi(k);
            let want = reference_bisection(&a, target);
            assert_eq!(a.duty_cycle_for_target(target), want, "ζ = {target}");
            let at = a.snip_at_duty_cycle(target);
            match want {
                Some(d) if d.as_fraction() <= budget_d.as_fraction() => assert_eq!(at, d),
                Some(_) => {
                    capped += 1;
                    assert_eq!(at, budget_d);
                }
                None => {
                    unreachable += 1;
                    assert_eq!(at, budget_d);
                }
            }
        }
        assert!(
            capped > 0 && unreachable > 0,
            "{capped} capped, {unreachable} unreachable"
        );
    }

    #[test]
    fn a_bisection_onto_a_microsecond_edge_takes_the_loops_sums_there() {
        let a = sweep_analysis();
        let zeta = |d| a.profile().probed_capacity_uniform(a.model(), d);
        for target in [5.0, 16.0, 47.3] {
            let mut memo = ProbedTimeMemo::new(a.model);
            let d = a.bisect_for_target(&mut memo, target).expect("reachable");
            assert_eq!(Some(d), reference_bisection(&a, target), "ζ = {target}");
            // The answer sits on a µs edge of E[Tprobed]: the next duty-cycle
            // down misses the target.
            let below = DutyCycle::clamped(d.as_fraction().next_down());
            assert!(zeta(d) >= target && zeta(below) < target, "ζ = {target}");
            // The bisection's last steps came to the loop's own sums, and
            // each side of the edge does afresh.
            assert!(memo.loop_sums() > 0, "ζ = {target}");
            for side in [d, below] {
                let mut fresh = ProbedTimeMemo::new(a.model);
                let _ = fresh.probed_capacity_uniform(a.profile(), side);
                assert_eq!(fresh.loop_sums(), 1, "ζ = {target}, d = {side:?}");
            }
        }
    }

    /// `E[Tprobed]` in seconds by the Simpson loop over a fresh density
    /// grid, as `SnipModel::expected_probed_dist` defines it for a length
    /// with a density.
    fn loop_probed_secs(model: &SnipModel, d: DutyCycle, dist: &LengthDistribution) -> f64 {
        if d.is_off() {
            return 0.0;
        }
        let cycle = model.ton().as_secs_f64() / d.as_fraction();
        let probed = dist.expect(|l| crate::snip::probed_time(cycle, l));
        SimDuration::from_secs_f64(probed.max(0.0)).as_secs_f64()
    }

    /// SNIP-AT's plan (`snip_at_duty_cycle`) with every capacity from
    /// [`loop_probed_secs`]. All slots share one distribution.
    fn loop_snip_at(a: &ScenarioAnalysis, target: f64) -> DutyCycle {
        let dist = a.profile().slots()[0].contact_length;
        let zeta = |d| {
            let secs = loop_probed_secs(a.model(), d, &dist);
            a.profile()
                .slots()
                .iter()
                .map(|s| s.expected_contacts() * secs)
                .sum::<f64>()
        };
        let budget_d = DutyCycle::clamped(a.phi_max() / a.profile().epoch().as_secs_f64());
        if zeta(budget_d) < target || zeta(DutyCycle::ALWAYS_ON) < target {
            return budget_d;
        }
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if zeta(DutyCycle::clamped(mid)) >= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let d = DutyCycle::clamped(hi);
        if d.as_fraction() <= budget_d.as_fraction() {
            d
        } else {
            budget_d
        }
    }

    /// The duty-cycles at which SNIP-OPT's capacity curve for `slot`
    /// evaluates `ζ` (`snip_opt::CapacityCurve`): the knee, its doublings
    /// below 1, and 1.
    fn curve_breakpoints(model: &SnipModel, slot: &SlotSpec) -> Vec<DutyCycle> {
        let knee = slot.knee_duty_cycle(model).as_fraction();
        let mut points = vec![knee.min(1.0)];
        points.extend(
            [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
                .iter()
                .map(|m| knee * m)
                .take_while(|&d| d < 1.0),
        );
        if *points.last().expect("non-empty") < 1.0 {
            points.push(1.0);
        }
        points.into_iter().map(DutyCycle::clamped).collect()
    }

    /// Every SNIP-AT plan, and every capacity a SNIP-OPT plan is built
    /// from, for 2,000 jittered targets on roadside profiles with 1.6–2.4 s
    /// lengths: the guarded route against a fresh Simpson loop.
    #[test]
    #[ignore = "at-scale identity check; run with --release -- --ignored"]
    fn every_plan_matches_the_simpson_loop_at_scale() {
        // SplitMix64, so the cases need no RNG crate.
        let mut state = 0x5eed_u64;
        let mut unit = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        let model = SnipModel::default();
        let (mut evaluations, mut loop_sums) = (0, 0);
        for case in 0..2_000 {
            let mean = SimDuration::from_secs_f64(1.6 + 0.8 * unit());
            let profile =
                SlotProfile::roadside_with_lengths(LengthDistribution::paper_normal(mean));
            let phi_max = if case % 10 == 0 { 86.4 } else { 864.0 };
            let target = 0.5 + 190.0 * unit();
            let a = ScenarioAnalysis::new(model, profile, phi_max);
            assert_eq!(
                a.snip_at_duty_cycle(target),
                loop_snip_at(&a, target),
                "case {case}: {mean:?}, Φmax {phi_max}, ζ {target}"
            );
            let mut memo = ProbedTimeMemo::new(model);
            for slot in a.profile().slots() {
                for d in curve_breakpoints(&model, slot) {
                    let want = slot.expected_contacts()
                        * loop_probed_secs(&model, d, &slot.contact_length);
                    let got = memo.probed_capacity(slot, d);
                    assert_eq!(got.to_bits(), want.to_bits(), "case {case}: {d:?}");
                }
            }
            let mut memo = ProbedTimeMemo::new(model);
            let _ = a.bisect_for_target(&mut memo, target);
            evaluations += memo.integrals();
            loop_sums += memo.loop_sums();
        }
        eprintln!(
            "SNIP-AT bisections: {evaluations} evaluations, {loop_sums} from the loop's sums"
        );
    }

    #[test]
    fn unreachable_target_returns_none() {
        let a = analysis(PAPER_PHI_MAX_LOOSE);
        // Even always-on, ζ ≤ 176·(1 − 0.02/(2·2)) = 175.12 < 1000.
        assert!(a.duty_cycle_for_target(1_000.0).is_none());
        // …and snip_at degrades to the budget duty-cycle.
        let at = a.snip_at(1_000.0);
        assert!((at.phi - PAPER_PHI_MAX_LOOSE).abs() < 1e-6);
    }

    #[test]
    fn rh_never_exceeds_budget_or_target() {
        for phi_max in [10.0, 86.4, 200.0, 864.0] {
            let a = analysis(phi_max);
            for target in [1.0, 8.0, 16.0, 32.0, 64.0, 100.0] {
                let rh = a.snip_rh(target);
                assert!(rh.phi <= phi_max + 1e-9, "Φ {} > {phi_max}", rh.phi);
                assert!(rh.zeta <= target + 1e-9, "ζ {} overshot {target}", rh.zeta);
            }
        }
    }

    #[test]
    fn rho_none_when_nothing_probed() {
        let p = AnalysisPoint {
            zeta: 0.0,
            phi: 0.0,
        };
        assert!(p.rho().is_none());
        assert!(!p.meets(1.0));
    }

    #[test]
    fn sweep_covers_all_targets() {
        let a = analysis(PAPER_PHI_MAX_TIGHT);
        let rows = a.sweep(&PAPER_ZETA_TARGETS);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].0, 16.0);
        assert!(rows[0].2.meets(16.0));
    }

    #[test]
    fn explicit_rush_marks_override_detection() {
        // Mark only one real rush slot; capacity caps at 12 s probed.
        let mut marks = vec![false; 24];
        marks[7] = true;
        let a = ScenarioAnalysis::with_rush_marks(
            SnipModel::default(),
            SlotProfile::roadside(),
            864.0,
            marks,
        );
        let rh = a.snip_rh(48.0);
        assert!((rh.zeta - 12.0).abs() < 1e-6);
        assert!((a.rush_capacity() - 24.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "Φmax must be positive")]
    fn zero_budget_rejected() {
        let _ = analysis(0.0);
    }

    #[test]
    #[should_panic(expected = "rush marks")]
    fn mismatched_marks_rejected() {
        let _ = ScenarioAnalysis::with_rush_marks(
            SnipModel::default(),
            SlotProfile::roadside(),
            1.0,
            vec![true; 3],
        );
    }
}
