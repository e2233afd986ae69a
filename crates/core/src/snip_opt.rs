//! SNIP-OPT as a runtime scheduler: plays back the per-slot duty-cycle plan
//! computed offline by the two-step optimizer (§V).
//!
//! The paper is explicit that SNIP-OPT is an oracle — "the duty-cycle used by
//! SNIP-AT and the scheduling plan used by SNIP-OPT are calculated based on
//! the simulated environment and are incorporated into the codes" — so this
//! scheduler holds a precomputed [`OptPlan`] and simply looks up the slot
//! containing the current time.

use snip_model::{SlotProfile, SnipModel};
use snip_opt::OptPlan;
use snip_units::{DutyCycle, SimDuration, SimTime};

use crate::planner::Planner;
use crate::scheduler::{slots, IdleSpan, ProbeContext, ProbeScheduler, SteadySpan};

/// The SNIP-OPT playback scheduler.
///
/// # Examples
///
/// ```
/// use snip_core::{ProbeContext, ProbeScheduler, SnipOptScheduler};
/// use snip_model::{SlotProfile, SnipModel};
/// use snip_units::{DataSize, SimTime};
///
/// let mut opt = SnipOptScheduler::solve(
///     SnipModel::default(),
///     SlotProfile::roadside(),
///     86.4,
///     16.0,
/// );
/// // The optimizer spends only in rush hours: off at noon, on at 08:00.
/// let noon = ProbeContext {
///     now: SimTime::from_secs(12 * 3600),
///     buffered_data: DataSize::ZERO,
/// };
/// assert!(opt.decide(&noon).is_none());
/// let rush = ProbeContext { now: SimTime::from_secs(7 * 3600 + 60), ..noon };
/// assert!(opt.decide(&rush).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct SnipOptScheduler {
    plan: OptPlan,
    slot_length: SimDuration,
    epoch: SimDuration,
}

impl SnipOptScheduler {
    /// Wraps an existing plan for a profile with equal-length slots.
    ///
    /// # Panics
    ///
    /// Panics if the plan's slot count does not match the profile.
    #[must_use]
    pub fn new(plan: OptPlan, profile: &SlotProfile) -> Self {
        assert_eq!(
            plan.duty_cycles().len(),
            profile.len(),
            "plan must cover every slot"
        );
        let epoch = profile.epoch();
        let slot_length = epoch / profile.len() as u64;
        SnipOptScheduler {
            plan,
            slot_length,
            epoch,
        }
    }

    /// Solves the two-step optimization and wraps the resulting plan.
    ///
    /// A one-shot [`Planner`]: it builds the profile's capacity curves for
    /// this one solve. A run planning many targets keeps one planner, which
    /// builds them once.
    ///
    /// # Panics
    ///
    /// Panics if `phi_max` or `zeta_target` is not positive.
    #[must_use]
    pub fn solve(model: SnipModel, profile: SlotProfile, phi_max: f64, zeta_target: f64) -> Self {
        Planner::default().snip_opt(model, &profile, phi_max, zeta_target)
    }

    /// The underlying plan.
    #[must_use]
    pub fn plan(&self) -> &OptPlan {
        &self.plan
    }

    /// The duty-cycle assigned to the slot containing `now`.
    #[must_use]
    pub fn duty_cycle_at(&self, now: SimTime) -> DutyCycle {
        let duties = self.plan.duty_cycles();
        duties[slots::slot_index(now, self.epoch, self.slot_length, duties.len())]
    }
}

impl ProbeScheduler for SnipOptScheduler {
    fn decide(&mut self, ctx: &ProbeContext) -> Option<DutyCycle> {
        let d = self.duty_cycle_at(ctx.now);
        if d.is_off() {
            None
        } else {
            Some(d)
        }
    }

    fn name(&self) -> &str {
        "SNIP-OPT"
    }

    /// `None`: the plan spends within `Φmax` by construction.
    fn phi_budget(&self) -> Option<SimDuration> {
        None
    }

    fn idle_until(&self, ctx: &ProbeContext) -> Option<IdleSpan> {
        // The plan is a pure function of the slot-of-epoch: an unfunded slot
        // stays unfunded until the next funded one begins.
        if !self.duty_cycle_at(ctx.now).is_off() {
            return None;
        }
        let duties = self.plan.duty_cycles();
        Some(IdleSpan::timed(slots::next_marked_start(
            ctx.now,
            self.epoch,
            self.slot_length,
            duties.len(),
            |s| !duties[s].is_off(),
        )))
    }

    fn steady_span(&self, ctx: &ProbeContext) -> Option<SteadySpan> {
        if self.duty_cycle_at(ctx.now).is_off() {
            return None;
        }
        Some(SteadySpan {
            until: slots::slot_end(
                ctx.now,
                self.epoch,
                self.slot_length,
                self.plan.duty_cycles().len(),
            ),
            // The plan is offline: feedback and buffer never move it.
            across_probes: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_units::DataSize;

    fn scheduler(phi_max: f64, target: f64) -> SnipOptScheduler {
        SnipOptScheduler::solve(
            SnipModel::default(),
            SlotProfile::roadside(),
            phi_max,
            target,
        )
    }

    fn ctx(now_s: u64) -> ProbeContext {
        ProbeContext {
            now: SimTime::from_secs(now_s),
            buffered_data: DataSize::ZERO,
        }
    }

    #[test]
    fn probes_only_funded_slots() {
        let mut s = scheduler(86.4, 16.0);
        // Off-peak hours are never funded under the tight budget.
        for hour in [0, 3, 12, 15, 22] {
            assert!(s.decide(&ctx(hour * 3_600)).is_none(), "hour {hour}");
        }
        // At least the first rush slot is funded.
        assert!(s.decide(&ctx(7 * 3_600 + 10)).is_some());
    }

    #[test]
    fn duty_cycles_never_exceed_the_knee_under_tight_budget() {
        let mut s = scheduler(86.4, 100.0);
        for hour in 0..24 {
            if let Some(d) = s.decide(&ctx(hour * 3_600 + 30)) {
                assert!(d.as_fraction() <= 0.01 + 1e-9, "hour {hour}: {d}");
            }
        }
    }

    #[test]
    fn slot_lookup_wraps_across_epochs() {
        let s = scheduler(864.0, 48.0);
        let day0 = s.duty_cycle_at(SimTime::from_secs(8 * 3_600));
        let day5 = s.duty_cycle_at(SimTime::from_secs(5 * 86_400 + 8 * 3_600));
        assert_eq!(day0, day5);
    }

    #[test]
    fn plan_accessor_reports_predictions() {
        let s = scheduler(864.0, 16.0);
        assert!(s.plan().meets_target());
        assert!((s.plan().zeta() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(scheduler(864.0, 16.0).name(), "SNIP-OPT");
    }

    #[test]
    #[should_panic(expected = "cover every slot")]
    fn mismatched_plan_rejected() {
        let plan = snip_opt::TwoStepOptimizer::new(SnipModel::default(), SlotProfile::roadside())
            .solve(86.4, 16.0);
        // A profile with a different slot count.
        let other = SlotProfile::new(vec![snip_model::SlotSpec::empty(SimDuration::from_hours(
            1,
        ))]);
        let _ = SnipOptScheduler::new(plan, &other);
    }
}
