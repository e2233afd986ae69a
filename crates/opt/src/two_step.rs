//! The complete SNIP-OPT procedure (§V).
//!
//! Step 1 maximizes `ζ` under the budget; if the achieved maximum falls short
//! of `ζtarget`, that budget-bound plan *is* the answer (and the node should
//! lower its data rate). Otherwise step 2 re-solves for the cheapest plan
//! that still meets the target, maximizing node lifetime.

use serde::{Deserialize, Serialize};
use snip_units::DutyCycle;

use snip_model::{SlotProfile, SnipModel};

use crate::allocate::{Allocation, GreedyAllocator};
use crate::curve::CapacityCurve;

/// Which of the two optimization steps produced the final plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OptOutcome {
    /// Step 1's budget-bound plan: the target is unreachable, capacity was
    /// maximized instead (the node must reduce its data generation rate).
    BudgetBound,
    /// Step 2's plan: the target is reachable; energy was minimized.
    TargetMet,
}

/// A SNIP-OPT scheduling plan: one duty-cycle per slot plus the predicted
/// per-epoch outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptPlan {
    duty_cycles: Vec<DutyCycle>,
    zeta: f64,
    phi: f64,
    outcome: OptOutcome,
}

impl OptPlan {
    /// The per-slot duty-cycles `d1 … dn`.
    #[must_use]
    pub fn duty_cycles(&self) -> &[DutyCycle] {
        &self.duty_cycles
    }

    /// Predicted probed capacity `ζ` per epoch, seconds.
    #[must_use]
    pub fn zeta(&self) -> f64 {
        self.zeta
    }

    /// Predicted probing energy `Φ` per epoch, seconds of radio-on time.
    #[must_use]
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Predicted unit cost `ρ = Φ/ζ`; `None` when nothing is probed.
    #[must_use]
    pub fn rho(&self) -> Option<f64> {
        if self.zeta > 0.0 {
            Some(self.phi / self.zeta)
        } else {
            None
        }
    }

    /// Which optimization step produced this plan.
    #[must_use]
    pub fn outcome(&self) -> OptOutcome {
        self.outcome
    }

    /// `true` when the plan reaches the capacity target.
    #[must_use]
    pub fn meets_target(&self) -> bool {
        self.outcome == OptOutcome::TargetMet
    }
}

/// The SNIP-OPT optimizer over a slot profile.
///
/// # Examples
///
/// ```
/// use snip_model::{SlotProfile, SnipModel};
/// use snip_opt::TwoStepOptimizer;
///
/// let opt = TwoStepOptimizer::new(SnipModel::default(), SlotProfile::roadside());
///
/// // Under the tight budget (Fig 5), 32 s is unreachable: the optimizer
/// // returns the budget-bound plan probing 28.8 s.
/// let plan = opt.solve(86.4, 32.0);
/// assert!(!plan.meets_target());
/// assert!((plan.zeta() - 28.8).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct TwoStepOptimizer {
    model: SnipModel,
    profile: SlotProfile,
    allocator: GreedyAllocator,
}

impl TwoStepOptimizer {
    /// Creates an optimizer for a profile under a SNIP model.
    #[must_use]
    pub fn new(model: SnipModel, profile: SlotProfile) -> Self {
        let curves = CapacityCurve::for_profile(&model, &profile);
        TwoStepOptimizer {
            model,
            profile,
            allocator: GreedyAllocator::new(curves),
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

    /// The underlying allocator (exposed for cross-checking; C-INTERMEDIATE).
    #[must_use]
    pub fn allocator(&self) -> &GreedyAllocator {
        &self.allocator
    }

    /// Runs the two-step procedure.
    ///
    /// # Panics
    ///
    /// Panics if `phi_max` or `zeta_target` is not positive.
    #[must_use]
    pub fn solve(&self, phi_max: f64, zeta_target: f64) -> OptPlan {
        assert!(phi_max > 0.0, "Φmax must be positive");
        assert!(zeta_target > 0.0, "ζtarget must be positive");

        // Step 1: maximize ζ under the budget.
        let step1 = self.allocator.maximize_capacity(phi_max);
        if step1.zeta < zeta_target {
            return self.plan_from(step1, OptOutcome::BudgetBound);
        }
        // Step 2: the target is reachable; minimize Φ.
        let step2 = self
            .allocator
            .minimize_energy(zeta_target)
            .expect("step 1 proved the target reachable");
        self.plan_from(step2, OptOutcome::TargetMet)
    }

    fn plan_from(&self, alloc: Allocation, outcome: OptOutcome) -> OptPlan {
        let duty_cycles = alloc
            .per_slot
            .iter()
            .zip(self.allocator.curves())
            .map(|(&phi, curve)| {
                if curve.slot_seconds() > 0.0 {
                    curve.duty_cycle_for(phi.min(curve.slot_seconds()))
                } else {
                    DutyCycle::OFF
                }
            })
            .collect();
        OptPlan {
            duty_cycles,
            zeta: alloc.zeta,
            phi: alloc.phi,
            outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::LinearProgram;

    fn optimizer() -> TwoStepOptimizer {
        TwoStepOptimizer::new(SnipModel::default(), SlotProfile::roadside())
    }

    #[test]
    fn fig5_points_budget_bound_above_28_8() {
        let opt = optimizer();
        for target in [32.0, 40.0, 48.0, 56.0] {
            let plan = opt.solve(86.4, target);
            assert_eq!(plan.outcome(), OptOutcome::BudgetBound);
            assert!((plan.zeta() - 28.8).abs() < 1e-6);
            assert!((plan.phi() - 86.4).abs() < 1e-6);
            assert!((plan.rho().unwrap() - 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn fig5_points_meet_small_targets() {
        let opt = optimizer();
        for target in [16.0, 24.0] {
            let plan = opt.solve(86.4, target);
            assert!(plan.meets_target());
            assert!((plan.zeta() - target).abs() < 1e-9);
            assert!((plan.phi() - 3.0 * target).abs() < 1e-6);
        }
    }

    #[test]
    fn fig6_56s_costs_288_seconds() {
        // 48 s from rush linear (Φ=144) + 8 s from the rush saturating
        // segment at efficiency 1/6 (Φ=48) = 192. Wait — the saturating
        // segment (knee→2·knee) yields Υ 0.5→0.75: Δζ = 0.25·96 = 24 s over
        // Φ = 144 s → eff = 1/6. So Φ(56) = 144 + 8·6 = 192.
        let opt = optimizer();
        let plan = opt.solve(864.0, 56.0);
        assert!(plan.meets_target());
        assert!((plan.zeta() - 56.0).abs() < 1e-9);
        assert!((plan.phi() - 192.0).abs() < 1e-4, "Φ = {}", plan.phi());
        // Cheaper than SNIP-AT's ~550 s (Fig 6b) — the OPT < AT ordering.
        assert!(plan.phi() < 550.0);
    }

    #[test]
    fn plan_duty_cycles_land_on_rush_slots_first() {
        let opt = optimizer();
        let plan = opt.solve(86.4, 100.0);
        for (i, d) in plan.duty_cycles().iter().enumerate() {
            if [7, 8, 17, 18].contains(&i) {
                // Never above the knee while linear capacity remains (some
                // rush slots may stay off once the budget runs out).
                assert!(d.as_fraction() <= 0.01 + 1e-9);
            } else {
                assert!(d.is_off(), "off-peak slot {i} should stay off");
            }
        }
        assert!(
            plan.duty_cycles().iter().filter(|d| !d.is_off()).count() >= 3,
            "the tight budget funds at least three rush slots"
        );
    }

    #[test]
    fn plan_predictions_match_profile_evaluation() {
        let opt = optimizer();
        let plan = opt.solve(864.0, 40.0);
        let zeta = opt
            .profile()
            .probed_capacity_plan(opt.model(), plan.duty_cycles());
        let phi = opt.profile().probing_cost_plan(plan.duty_cycles());
        // The piecewise-linear approximation is exact in the linear regime.
        assert!(
            (zeta - plan.zeta()).abs() < 0.05,
            "{zeta} vs {}",
            plan.zeta()
        );
        assert!((phi - plan.phi()).abs() < 0.05, "{phi} vs {}", plan.phi());
    }

    #[test]
    fn greedy_agrees_with_simplex_on_step1() {
        // Encode step 1 as an LP over segment variables and compare optima.
        let opt = optimizer();
        let phi_max = 86.4;
        let segs: Vec<(usize, f64, f64)> = opt
            .allocator()
            .curves()
            .iter()
            .enumerate()
            .flat_map(|(i, c)| {
                c.segments()
                    .iter()
                    .map(move |s| (i, s.energy, s.efficiency))
            })
            .collect();
        let mut lp = LinearProgram::maximize(segs.iter().map(|s| s.2).collect());
        lp.constrain_le(vec![1.0; segs.len()], phi_max);
        for (j, seg) in segs.iter().enumerate() {
            lp.bound(j, seg.1);
        }
        let sol = lp.solve().unwrap();
        let greedy = opt.allocator().maximize_capacity(phi_max);
        assert!(
            (sol.objective - greedy.zeta).abs() < 1e-6,
            "simplex {} vs greedy {}",
            sol.objective,
            greedy.zeta
        );
    }

    #[test]
    fn greedy_agrees_with_simplex_on_larger_budgets() {
        let opt = optimizer();
        for phi_max in [10.0, 144.0, 500.0, 864.0, 5_000.0] {
            let segs: Vec<(f64, f64)> = opt
                .allocator()
                .curves()
                .iter()
                .flat_map(|c| c.segments().iter().map(|s| (s.energy, s.efficiency)))
                .collect();
            let mut lp = LinearProgram::maximize(segs.iter().map(|s| s.1).collect());
            lp.constrain_le(vec![1.0; segs.len()], phi_max);
            for (j, seg) in segs.iter().enumerate() {
                lp.bound(j, seg.0);
            }
            let sol = lp.solve().unwrap();
            let greedy = opt.allocator().maximize_capacity(phi_max);
            assert!(
                (sol.objective - greedy.zeta).abs() < 1e-5,
                "Φmax={phi_max}: simplex {} vs greedy {}",
                sol.objective,
                greedy.zeta
            );
        }
    }

    #[test]
    fn normal_length_profile_builds_and_meets_its_target() {
        // The profile the simulations plan on: Normal(2 s, 0.2 s) contact
        // lengths in all 24 slots, so every breakpoint is a numeric
        // integral rather than a closed form.
        let profile = SlotProfile::roadside_with_lengths(
            snip_model::LengthDistribution::paper_normal(snip_units::SimDuration::from_secs(2)),
        );
        let opt = TwoStepOptimizer::new(SnipModel::default(), profile);
        assert_eq!(opt.allocator().curves().len(), 24);
        let plan = opt.solve(864.0, 40.0);
        assert!(plan.meets_target(), "{:?}", plan.outcome());
        assert!((plan.zeta() - 40.0).abs() < 1e-9, "ζ = {}", plan.zeta());
        assert!(plan.phi() <= 864.0);
        // The plan the piecewise-linear curves promise is what the profile
        // delivers, and it costs about what the fixed-length plan does.
        let zeta = opt
            .profile()
            .probed_capacity_plan(opt.model(), plan.duty_cycles());
        assert!((zeta - 40.0).abs() < 0.5, "evaluated ζ = {zeta}");
        let fixed = optimizer().solve(864.0, 40.0);
        assert!(
            (plan.phi() - fixed.phi()).abs() / fixed.phi() < 0.05,
            "Φ = {} vs fixed-length {}",
            plan.phi(),
            fixed.phi()
        );
    }

    #[test]
    #[should_panic(expected = "ζtarget must be positive")]
    fn zero_target_rejected() {
        let _ = optimizer().solve(86.4, 0.0);
    }
}
