//! SNIP-AT: SNIP active all the time at one fixed duty-cycle (§IV).
//!
//! The strawman the paper improves upon. The duty-cycle is "well selected so
//! that the probed contact capacity is just enough to upload its sensed data"
//! — an offline choice, computed here from the closed-form analysis when a
//! slot profile is available. An optional budget gate (the same condition 3
//! as SNIP-RH) stops probing once the epoch's energy budget is spent; the
//! paper's SNIP-AT implicitly respects the budget by construction
//! (`d0 ≤ Φmax/Tepoch`), and the gate makes that robust to mis-estimation.

use snip_model::{SlotProfile, SnipModel};
use snip_units::{DutyCycle, SimDuration, SimTime};

use crate::budget::EnergyLedger;
use crate::planner::Planner;
use crate::scheduler::{IdleSpan, ProbeContext, ProbeScheduler, SteadySpan};

/// The SNIP-AT scheduler: a fixed duty-cycle, all the time.
///
/// # Examples
///
/// ```
/// use snip_core::{ProbeContext, ProbeScheduler, SnipAt};
/// use snip_units::{DataSize, DutyCycle, SimDuration, SimTime};
///
/// let mut at = SnipAt::new(DutyCycle::new(0.001).unwrap());
/// let ctx = ProbeContext {
///     now: SimTime::from_secs(3 * 3600), // 3 AM — SNIP-AT doesn't care
///     buffered_data: DataSize::ZERO,
///     phi_spent_epoch: SimDuration::ZERO,
/// };
/// assert_eq!(at.decide(&ctx), Some(DutyCycle::new(0.001).unwrap()));
/// ```
#[derive(Debug, Clone)]
pub struct SnipAt {
    duty_cycle: DutyCycle,
    ledger: Option<EnergyLedger>,
    /// Beacon window `Ton` of the gated deployment; the budget gate admits
    /// a probing cycle only when a whole window still fits (same exact
    /// `Φ ≤ Φmax` contract as SNIP-RH's condition 3).
    ton: SimDuration,
}

impl SnipAt {
    /// Creates SNIP-AT at a fixed duty-cycle with no budget gate.
    #[must_use]
    pub fn new(duty_cycle: DutyCycle) -> Self {
        SnipAt {
            duty_cycle,
            ledger: None,
            ton: SimDuration::ZERO,
        }
    }

    /// Adds the per-epoch budget gate: probing stops for the rest of an
    /// epoch once less than one beacon window (`ton`) of `phi_max` is
    /// left, so the spend never exceeds the budget.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is zero.
    #[must_use]
    pub fn with_budget(
        mut self,
        epoch: SimDuration,
        phi_max: SimDuration,
        ton: SimDuration,
    ) -> Self {
        self.ledger = Some(EnergyLedger::new(epoch, phi_max));
        self.ton = ton;
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
        if self.duty_cycle.is_off() {
            return None;
        }
        if let Some(ledger) = &mut self.ledger {
            // Trust the driver's ledger when provided; keep our own in sync.
            ledger.charge(ctx.now, SimDuration::ZERO);
            // Same exact gate as SNIP-RH: a whole beacon window must still
            // fit inside the budget, or the cycle does not start.
            if ctx.phi_spent_epoch + self.ton > ledger.budget() || !ledger.under_budget(ctx.now) {
                return None;
            }
        }
        Some(self.duty_cycle)
    }

    fn name(&self) -> &str {
        "SNIP-AT"
    }

    fn idle_until(&self, ctx: &ProbeContext) -> Option<IdleSpan> {
        if self.duty_cycle.is_off() {
            return Some(IdleSpan::timed(SimTime::MAX));
        }
        let ledger = self.ledger.as_ref()?;
        if ledger.budget().is_zero() {
            return Some(IdleSpan::timed(SimTime::MAX));
        }
        // The driver's ledger is authoritative (ours is only charged zeros);
        // its spend resets at the next epoch boundary.
        if ctx.phi_spent_epoch + self.ton > ledger.budget() {
            return Some(IdleSpan::timed(crate::scheduler::slots::next_epoch_start(
                ctx.now,
                ledger.epoch(),
            )));
        }
        None
    }

    fn steady_span(&self, ctx: &ProbeContext) -> Option<SteadySpan> {
        let _ = ctx;
        if self.duty_cycle.is_off() {
            return None;
        }
        Some(SteadySpan {
            until: SimTime::MAX,
            phi_budget: self.ledger.as_ref().map(EnergyLedger::budget),
            // Feedback is ignored and the buffer never read.
            across_probes: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_model::LengthDistribution;
    use snip_units::{DataSize, SimTime};

    fn ctx(now_s: u64, phi_spent_s: u64) -> ProbeContext {
        ProbeContext {
            now: SimTime::from_secs(now_s),
            buffered_data: DataSize::ZERO,
            phi_spent_epoch: SimDuration::from_secs(phi_spent_s),
        }
    }

    #[test]
    fn probes_at_all_hours() {
        let mut at = SnipAt::new(DutyCycle::new(0.001).unwrap());
        for hour in 0..24 {
            assert!(at.decide(&ctx(hour * 3_600, 0)).is_some(), "hour {hour}");
        }
    }

    #[test]
    fn zero_duty_cycle_never_probes() {
        let mut at = SnipAt::new(DutyCycle::OFF);
        assert!(at.decide(&ctx(0, 0)).is_none());
    }

    #[test]
    fn budget_gate_stops_probing() {
        let ton = SimDuration::from_millis(20);
        let mut at = SnipAt::new(DutyCycle::new(0.01).unwrap()).with_budget(
            SimDuration::from_hours(24),
            SimDuration::from_secs(86),
            ton,
        );
        assert!(at.decide(&ctx(100, 0)).is_some());
        // Driver reports the budget fully spent.
        assert!(at.decide(&ctx(200, 86)).is_none());
        assert!(at.decide(&ctx(300, 90)).is_none());
        // The gate is exact to one beacon window, like SNIP-RH's (the
        // ledger clock only moves forward, so these stay in epoch 0).
        let exact = ProbeContext {
            now: SimTime::from_secs(400),
            buffered_data: DataSize::ZERO,
            phi_spent_epoch: SimDuration::from_secs(86) - ton,
        };
        assert!(at.decide(&exact).is_some(), "exactly one Ton of room");
        let over = ProbeContext {
            now: SimTime::from_secs(500),
            phi_spent_epoch: SimDuration::from_secs(86) - ton + SimDuration::from_micros(1),
            ..exact
        };
        assert!(
            at.decide(&over).is_none(),
            "a partial window must not start"
        );
        // Next epoch: the driver's counter resets.
        assert!(at.decide(&ctx(86_400 + 100, 0)).is_some());
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
