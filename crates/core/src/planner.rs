//! Offline planning for a whole run: the paper plans SNIP-AT and SNIP-OPT
//! once for the simulated environment, and a sweep or a fleet asks for one
//! plan per ζ target over one `(model, profile, Φmax)`.

use std::sync::{Arc, Mutex};

use snip_model::{ProbedTimeMemo, ScenarioAnalysis, SlotProfile, SnipModel};
use snip_opt::TwoStepOptimizer;

use crate::snip_at::SnipAt;
use crate::snip_opt::SnipOptScheduler;

/// Plans SNIP-AT and SNIP-OPT schedulers for the last `(model, profile,
/// Φmax)` it saw (clones share it), keeping one [`ProbedTimeMemo`] for
/// every SNIP-AT bisection and one [`TwoStepOptimizer`], built on first
/// use, for every SNIP-OPT target. Both are exact, so each plan equals a
/// one-shot plan ([`SnipAt::for_target`], [`SnipOptScheduler::solve`]).
/// The memo grows by about 47 expectations per SNIP-AT plan on the
/// roadside profile. A plan that panics (a non-positive Φmax or target)
/// leaves the planner empty, not poisoned.
#[derive(Debug, Default, Clone)]
pub struct Planner {
    scenario: Arc<Mutex<Option<Scenario>>>,
}

/// What a planner keeps for one `(model, profile, Φmax)`.
#[derive(Debug)]
struct Scenario {
    analysis: ScenarioAnalysis,
    memo: ProbedTimeMemo,
    optimizer: Option<TwoStepOptimizer>,
}

impl Planner {
    /// SNIP-AT for a capacity target, as [`SnipAt::for_target`] plans it.
    ///
    /// # Panics
    ///
    /// Panics if `phi_max` is not positive.
    #[must_use]
    pub fn snip_at(
        &self,
        model: SnipModel,
        profile: &SlotProfile,
        phi_max: f64,
        zeta_target: f64,
    ) -> SnipAt {
        self.plan(model, profile, phi_max, |s| {
            SnipAt::new(s.analysis.snip_at_duty_cycle_with(&mut s.memo, zeta_target))
        })
    }

    /// SNIP-OPT for a capacity target, as [`SnipOptScheduler::solve`]
    /// plans it.
    ///
    /// # Panics
    ///
    /// Panics if `phi_max` or `zeta_target` is not positive.
    #[must_use]
    pub fn snip_opt(
        &self,
        model: SnipModel,
        profile: &SlotProfile,
        phi_max: f64,
        zeta_target: f64,
    ) -> SnipOptScheduler {
        self.plan(model, profile, phi_max, |s| {
            let optimizer = s
                .optimizer
                .get_or_insert_with(|| TwoStepOptimizer::new(model, profile.clone()));
            SnipOptScheduler::new(optimizer.solve(phi_max, zeta_target), profile)
        })
    }

    /// Runs `plan` on the state for `(model, profile, phi_max)`.
    fn plan<T>(
        &self,
        model: SnipModel,
        profile: &SlotProfile,
        phi_max: f64,
        plan: impl FnOnce(&mut Scenario) -> T,
    ) -> T {
        let mut state = self.scenario.lock().unwrap_or_else(|poisoned| {
            // A plan panicked while holding the state: drop the state
            // rather than trust whatever it left half updated.
            self.scenario.clear_poison();
            let mut state = poisoned.into_inner();
            *state = None;
            state
        });
        state.take_if(|s| {
            let a = &s.analysis;
            *a.model() != model
                || a.phi_max().to_bits() != phi_max.to_bits()
                || a.profile() != profile
        });
        let scenario = state.get_or_insert_with(|| Scenario {
            analysis: ScenarioAnalysis::new(model, profile.clone(), phi_max),
            memo: ProbedTimeMemo::new(model),
            optimizer: None,
        });
        plan(scenario)
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;
    use proptest::prelude::*;
    use snip_model::LengthDistribution;
    use snip_units::SimDuration;

    /// Roadside slots with Normal contact lengths of mean `mean_secs`, the
    /// shape of the benchmark sweep's profile.
    fn roadside(mean_secs: f64) -> SlotProfile {
        let mean = SimDuration::from_secs_f64(mean_secs);
        SlotProfile::roadside_with_lengths(LengthDistribution::paper_normal(mean))
    }

    /// Asserts that `planner` plans both mechanisms for `(profile, phi_max,
    /// target)` exactly as one-shot plans do.
    fn assert_plans_like_one_shot(
        planner: &Planner,
        opt: bool,
        profile: &SlotProfile,
        phi_max: f64,
        target: f64,
    ) {
        let model = SnipModel::default();
        if opt {
            let plan = planner.snip_opt(model, profile, phi_max, target);
            let fresh = TwoStepOptimizer::new(model, profile.clone()).solve(phi_max, target);
            assert_eq!(plan.plan(), &fresh, "Φmax {phi_max}, ζ {target}");
        } else {
            let at = planner.snip_at(model, profile, phi_max, target);
            let fresh = SnipAt::for_target(model, profile, phi_max, target);
            assert_eq!(
                at.duty_cycle(),
                fresh.duty_cycle(),
                "Φmax {phi_max}, ζ {target}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any interleaving of mechanisms, jittered targets, two profiles
        /// and two budgets plans as one-shot plans do.
        #[test]
        fn prop_planner_plans_equal_one_shot_plans(
            steps in proptest::collection::vec(
                (any::<bool>(), any::<bool>(), any::<bool>(), 0.5f64..120.0),
                1..40,
            ),
        ) {
            let profiles = [roadside(2.0), roadside(2.3)];
            let planner = Planner::default();
            for (opt, second_profile, tight, target) in steps {
                let profile = &profiles[usize::from(second_profile)];
                let phi_max = if tight { 86.4 } else { 864.0 };
                assert_plans_like_one_shot(&planner, opt, profile, phi_max, target);
            }
        }
    }

    #[test]
    fn a_panicking_plan_leaves_the_planner_usable() {
        let model = SnipModel::default();
        let profile = roadside(2.0);
        let planner = Planner::default();
        assert_plans_like_one_shot(&planner, true, &profile, 864.0, 16.0);
        let misuses: [&dyn Fn(); 2] = [
            &|| drop(planner.snip_opt(model, &profile, 864.0, 0.0)),
            &|| drop(planner.snip_at(model, &profile, -1.0, 16.0)),
        ];
        for misuse in misuses {
            assert!(catch_unwind(AssertUnwindSafe(misuse)).is_err());
            for (opt, target) in [(false, 16.5), (true, 16.5), (false, 40.0), (true, 3.0)] {
                assert_plans_like_one_shot(&planner, opt, &profile, 864.0, target);
            }
            assert!(!planner.scenario.is_poisoned());
            assert_plans_like_one_shot(&planner.clone(), true, &profile, 864.0, 20.0);
        }
    }

    /// At scale: 2,000 jittered targets over twenty roadside-shaped
    /// profiles, 100 consecutive targets per profile as a sweep plans
    /// them, every plan equal to a fresh one-shot plan.
    #[test]
    #[ignore = "at-scale identity check; run with --release -- --ignored"]
    fn planner_plans_equal_fresh_plans_at_scale() {
        let mut state = 0x5150_u64;
        let mut unit = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        let planner = Planner::default();
        for case in 0..20 {
            let profile = roadside(1.6 + 0.8 * unit());
            let phi_max = if case % 5 == 1 { 86.4 } else { 864.0 };
            for _ in 0..100 {
                let target = 0.5 + 190.0 * unit();
                assert_plans_like_one_shot(&planner, false, &profile, phi_max, target);
                assert_plans_like_one_shot(&planner, true, &profile, phi_max, target);
            }
        }
    }
}
