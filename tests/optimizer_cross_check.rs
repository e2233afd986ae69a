//! Cross-checking the SNIP-OPT optimizer: greedy water-filling vs the
//! independent simplex LP solver, and optimizer vs closed-form analysis,
//! on problem instances beyond the paper's single scenario.

use snip_rh_repro::snip_model::{
    LengthDistribution, ScenarioAnalysis, SlotProfile, SlotSpec, SnipModel,
};
use snip_rh_repro::snip_opt::{CapacityCurve, GreedyAllocator, LinearProgram, TwoStepOptimizer};
use snip_rh_repro::snip_units::SimDuration;

/// Builds a profile with heterogeneous slots: different intervals *and*
/// different contact lengths per slot — the general case of §V.
fn heterogeneous_profile() -> SlotProfile {
    let hour = SimDuration::from_hours(1);
    let specs = (0..24)
        .map(|h| {
            let interval = 120 + (h * 97) % 1_700; // pseudo-irregular
            let length = 1 + h % 5;
            SlotSpec::new(
                hour,
                SimDuration::from_secs(interval),
                LengthDistribution::fixed(SimDuration::from_secs(length)),
            )
        })
        .collect();
    SlotProfile::new(specs)
}

fn allocator(profile: &SlotProfile) -> GreedyAllocator {
    GreedyAllocator::new(CapacityCurve::for_profile(&SnipModel::default(), profile))
}

/// Greedy step-1 optima equal the simplex optima on the same piecewise-
/// linear problem, over heterogeneous instances and budgets.
#[test]
fn greedy_equals_simplex_on_heterogeneous_profiles() {
    let profile = heterogeneous_profile();
    let alloc = allocator(&profile);
    let segs: Vec<(f64, f64)> = alloc
        .curves()
        .iter()
        .flat_map(|c| c.segments().iter().map(|s| (s.energy, s.efficiency)))
        .collect();
    for phi_max in [5.0, 50.0, 250.0, 1_000.0, 10_000.0] {
        let mut lp = LinearProgram::maximize(segs.iter().map(|s| s.1).collect());
        lp.constrain_le(vec![1.0; segs.len()], phi_max);
        for (j, seg) in segs.iter().enumerate() {
            lp.bound(j, seg.0);
        }
        let simplex = lp.solve().expect("feasible LP");
        let greedy = alloc.maximize_capacity(phi_max);
        assert!(
            (simplex.objective - greedy.zeta).abs() < 1e-5,
            "Φmax={phi_max}: simplex {} vs greedy {}",
            simplex.objective,
            greedy.zeta
        );
    }
}

/// Step 2 is the exact inverse of step 1 along the Pareto frontier.
#[test]
fn two_steps_trace_the_same_frontier() {
    let profile = heterogeneous_profile();
    let alloc = allocator(&profile);
    for target in [5.0, 20.0, 60.0, 150.0] {
        let Some(min) = alloc.minimize_energy(target) else {
            continue;
        };
        let back = alloc.maximize_capacity(min.phi);
        assert!(
            (back.zeta - target).abs() < 1e-6,
            "target {target}: Φ {} re-buys ζ {}",
            min.phi,
            back.zeta
        );
    }
}

/// On the paper's scenario, SNIP-OPT dominates both closed-form baselines:
/// at least SNIP-RH's capacity for at most its energy, and never worse than
/// SNIP-AT.
#[test]
fn opt_dominates_at_and_rh_in_analysis() {
    let model = SnipModel::default();
    let profile = SlotProfile::roadside();
    for phi_max in [86.4, 864.0] {
        let analysis = ScenarioAnalysis::new(model, profile.clone(), phi_max);
        let optimizer = TwoStepOptimizer::new(model, profile.clone());
        for target in [16.0, 24.0, 32.0, 40.0, 48.0, 56.0] {
            let at = analysis.snip_at(target);
            let rh = analysis.snip_rh(target);
            let opt = optimizer.solve(phi_max, target);
            // Dominance in capacity when the target is unreachable…
            if !opt.meets_target() {
                assert!(
                    opt.zeta() + 1e-6 >= at.zeta && opt.zeta() + 1e-6 >= rh.zeta,
                    "Φmax={phi_max}, ζt={target}: OPT ζ {} vs AT {} / RH {}",
                    opt.zeta(),
                    at.zeta,
                    rh.zeta
                );
            } else {
                // …and dominance in energy when it is reachable.
                if at.meets(target) {
                    assert!(opt.phi() <= at.phi + 1e-6);
                }
                if rh.meets(target) {
                    assert!(opt.phi() <= rh.phi + 1e-6);
                }
            }
        }
    }
}

/// The optimizer handles profiles with empty slots (no contacts at night)
/// without assigning them energy.
#[test]
fn opt_skips_empty_slots() {
    let hour = SimDuration::from_hours(1);
    let specs = (0..24)
        .map(|h| {
            if (0..6).contains(&h) {
                SlotSpec::empty(hour)
            } else {
                SlotSpec::new(
                    hour,
                    SimDuration::from_secs(600),
                    LengthDistribution::fixed(SimDuration::from_secs(2)),
                )
            }
        })
        .collect();
    let profile = SlotProfile::new(specs);
    let optimizer = TwoStepOptimizer::new(SnipModel::default(), profile);
    let plan = optimizer.solve(864.0, 30.0);
    for (i, d) in plan.duty_cycles().iter().enumerate() {
        if i < 6 {
            assert!(d.is_off(), "empty slot {i} must stay off");
        }
    }
    assert!(plan.meets_target());
}

/// Degenerate single-slot profile: the optimizer reduces to the closed-form
/// single-slot answer.
#[test]
fn single_slot_profile_reduces_to_closed_form() {
    let profile = SlotProfile::new(vec![SlotSpec::new(
        SimDuration::from_hours(1),
        SimDuration::from_secs(300),
        LengthDistribution::fixed(SimDuration::from_secs(2)),
    )]);
    // Capacity 24 s; knee probes 12 s for Φ = 36 s.
    let optimizer = TwoStepOptimizer::new(SnipModel::default(), profile);
    let plan = optimizer.solve(1_000.0, 12.0);
    assert!(plan.meets_target());
    assert!((plan.phi() - 36.0).abs() < 1e-6, "Φ = {}", plan.phi());
    assert!((plan.duty_cycles()[0].as_fraction() - 0.01).abs() < 1e-9);
}
