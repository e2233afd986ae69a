//! SNIP-AT: SNIP active all the time at one fixed duty-cycle (§IV).
//!
//! The strawman the paper improves upon. The duty-cycle is "well selected so
//! that the probed contact capacity is just enough to upload its sensed data"
//! — an offline choice, computed here from the closed-form analysis when a
//! slot profile is available. An optional budget (the same condition 3 as
//! SNIP-RH, enforced by the driver) stops probing once the epoch's energy
//! budget is spent; the paper's SNIP-AT implicitly respects the budget by
//! construction (`d0 ≤ Φmax/Tepoch`), and the budget makes that robust to
//! mis-estimation.

use snip_model::{SlotProfile, SnipModel};
use snip_units::{DutyCycle, SimDuration, SimTime};

use crate::planner::Planner;
use crate::scheduler::{IdleSpan, ProbeContext, ProbeScheduler, SteadySpan};

/// The SNIP-AT scheduler: a fixed duty-cycle, all the time.
///
/// # Examples
///
/// ```
/// use snip_core::{ProbeContext, ProbeScheduler, SnipAt};
/// use snip_units::{DataSize, DutyCycle, SimTime};
///
/// let mut at = SnipAt::new(DutyCycle::new(0.001).unwrap());
/// let ctx = ProbeContext {
///     now: SimTime::from_secs(3 * 3600), // 3 AM — SNIP-AT doesn't care
///     buffered_data: DataSize::ZERO,
/// };
/// assert_eq!(at.decide(&ctx), Some(DutyCycle::new(0.001).unwrap()));
/// ```
#[derive(Debug, Clone)]
pub struct SnipAt {
    duty_cycle: DutyCycle,
    /// The per-epoch budget `Φmax`, when one is set.
    budget: Option<SimDuration>,
}

impl SnipAt {
    /// Creates SNIP-AT at a fixed duty-cycle with no budget.
    #[must_use]
    pub fn new(duty_cycle: DutyCycle) -> Self {
        SnipAt {
            duty_cycle,
            budget: None,
        }
    }

    /// Adds a per-epoch budget, which the driver enforces: probing stops
    /// for the rest of an epoch once less than one beacon window of
    /// `phi_max` is left, so the spend never exceeds the budget.
    #[must_use]
    pub fn with_budget(mut self, phi_max: SimDuration) -> Self {
        self.budget = Some(phi_max);
        self
    }

    /// The paper's offline selection: the smallest duty-cycle whose probed
    /// capacity reaches `zeta_target` seconds per epoch under `profile`,
    /// capped at the budget-bound duty-cycle `Φmax/Tepoch`. A one-shot
    /// [`Planner`]: a run planning many targets keeps one instead.
    ///
    /// # Panics
    ///
    /// Panics if `phi_max` is not positive.
    #[must_use]
    pub fn for_target(
        model: SnipModel,
        profile: &SlotProfile,
        phi_max: f64,
        zeta_target: f64,
    ) -> Self {
        Planner::default().snip_at(model, profile, phi_max, zeta_target)
    }

    /// The configured duty-cycle.
    #[must_use]
    pub fn duty_cycle(&self) -> DutyCycle {
        self.duty_cycle
    }
}

impl ProbeScheduler for SnipAt {
    fn decide(&mut self, ctx: &ProbeContext) -> Option<DutyCycle> {
        let _ = ctx;
        (!self.duty_cycle.is_off()).then_some(self.duty_cycle)
    }

    fn name(&self) -> &str {
        "SNIP-AT"
    }

    fn phi_budget(&self) -> Option<SimDuration> {
        self.budget
    }

    fn idle_until(&self, ctx: &ProbeContext) -> Option<IdleSpan> {
        let _ = ctx;
        self.duty_cycle
            .is_off()
            .then_some(IdleSpan::timed(SimTime::MAX))
    }

    fn steady_span(&self, ctx: &ProbeContext) -> Option<SteadySpan> {
        let _ = ctx;
        if self.duty_cycle.is_off() {
            return None;
        }
        Some(SteadySpan {
            until: SimTime::MAX,
            // Feedback is ignored and the buffer never read.
            across_probes: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_model::LengthDistribution;
    use snip_units::DataSize;

    fn ctx(now_s: u64) -> ProbeContext {
        ProbeContext {
            now: SimTime::from_secs(now_s),
            buffered_data: DataSize::ZERO,
        }
    }

    #[test]
    fn probes_at_all_hours() {
        let mut at = SnipAt::new(DutyCycle::new(0.001).unwrap());
        for hour in 0..24 {
            assert!(at.decide(&ctx(hour * 3_600)).is_some(), "hour {hour}");
        }
    }

    #[test]
    fn zero_duty_cycle_never_probes() {
        let mut at = SnipAt::new(DutyCycle::OFF);
        assert!(at.decide(&ctx(0)).is_none());
    }

    #[test]
    fn for_target_picks_the_analysis_duty_cycle() {
        // Under the loose budget the 16 s target needs d = 16/8800.
        let at = SnipAt::for_target(SnipModel::default(), &SlotProfile::roadside(), 864.0, 16.0);
        assert!((at.duty_cycle().as_fraction() - 16.0 / 8_800.0).abs() < 1e-7);
    }

    #[test]
    fn for_target_caps_at_budget() {
        // Under the tight budget every paper target exceeds what SNIP-AT can
        // reach, so it degrades to d = Φmax/Tepoch = 0.001.
        let at = SnipAt::for_target(SnipModel::default(), &SlotProfile::roadside(), 86.4, 16.0);
        assert!((at.duty_cycle().as_fraction() - 0.001).abs() < 1e-12);
    }

    /// `for_target` as a sequence of fresh profile evaluations: the budget
    /// check, then the bisection, each evaluation on its own.
    fn reference_for_target(profile: &SlotProfile, phi_max: f64, target: f64) -> DutyCycle {
        let model = SnipModel::default();
        let zeta = |d| profile.probed_capacity_uniform(&model, d);
        let budget_d = DutyCycle::clamped(phi_max / profile.epoch().as_secs_f64());
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

    #[test]
    fn for_target_equals_fresh_evaluations_over_the_sweep_profile() {
        let lengths = LengthDistribution::paper_normal(SimDuration::from_secs(2));
        let profile = SlotProfile::roadside_with_lengths(lengths);
        // 0.5 s to ~190 s under Φmax = 864 s (reachable, budget-capped, and
        // past the always-on capacity) and a few under Φmax = 86.4 s.
        let targets = (0..200).map(|k| (864.0, 0.5 * 1.0303f64.powi(k)));
        for (phi_max, target) in targets.chain([(86.4, 4.0), (86.4, 8.0), (86.4, 16.0)]) {
            let at = SnipAt::for_target(SnipModel::default(), &profile, phi_max, target);
            let want = reference_for_target(&profile, phi_max, target);
            assert_eq!(at.duty_cycle(), want, "Φmax = {phi_max}, ζ = {target}");
        }
    }

    #[test]
    fn zero_spread_lengths_plan_like_fixed_ones() {
        let model = SnipModel::default();
        let two = SimDuration::from_secs(2);
        let fixed = SnipAt::for_target(model, &SlotProfile::roadside(), 864.0, 16.0);
        assert!((fixed.duty_cycle().as_fraction() - 16.0 / 8_800.0).abs() < 1e-7);
        for lengths in [
            LengthDistribution::normal(two, SimDuration::ZERO),
            LengthDistribution::log_normal(two, SimDuration::ZERO),
        ] {
            let profile = SlotProfile::roadside_with_lengths(lengths);
            let at = SnipAt::for_target(model, &profile, 864.0, 16.0);
            assert_eq!(at.duty_cycle(), fixed.duty_cycle(), "{lengths:?}");
        }
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(SnipAt::new(DutyCycle::OFF).name(), "SNIP-AT");
    }
}
