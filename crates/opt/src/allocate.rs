//! Greedy marginal allocation over concave piecewise-linear curves.
//!
//! Both SNIP-OPT steps reduce to pouring a scalar resource (probing energy)
//! into per-slot concave curves. Because every curve is concave and
//! piecewise-linear, allocating to segments in globally decreasing order of
//! marginal efficiency is exactly optimal — the classical water-filling
//! argument: exchanging any allocated unit for an unallocated one can only
//! lower the objective.

use serde::{Deserialize, Serialize};

use crate::curve::CapacityCurve;

/// The result of an allocation: per-slot energies and the achieved totals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    /// Energy assigned to each slot, seconds of radio-on time.
    pub per_slot: Vec<f64>,
    /// Total probed capacity `ζ`, seconds.
    pub zeta: f64,
    /// Total spent energy `Φ`, seconds.
    pub phi: f64,
}

impl Allocation {
    /// Unit probing cost `ρ = Φ/ζ`; `None` when nothing was probed.
    #[must_use]
    pub fn rho(&self) -> Option<f64> {
        if self.zeta > 0.0 {
            Some(self.phi / self.zeta)
        } else {
            None
        }
    }
}

/// Greedy water-filling allocator over a set of slot curves.
///
/// # Examples
///
/// ```
/// use snip_model::{SlotProfile, SnipModel};
/// use snip_opt::{CapacityCurve, GreedyAllocator};
///
/// let model = SnipModel::default();
/// let profile = SlotProfile::roadside();
/// let curves = CapacityCurve::for_profile(&model, &profile);
/// let alloc = GreedyAllocator::new(curves).maximize_capacity(86.4);
/// // All 86.4 s of budget go to rush-hour slots at efficiency 1/3.
/// assert!((alloc.zeta - 28.8).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct GreedyAllocator {
    curves: Vec<CapacityCurve>,
    /// Every segment with positive efficiency, by decreasing efficiency
    /// (ties broken by slot index for determinism). Sorted once here, and
    /// walked by both steps of every solve.
    segments: Vec<TaggedSegment>,
}

/// A segment tagged with its owning slot, flattened for global sorting.
#[derive(Debug, Clone, Copy)]
struct TaggedSegment {
    slot: usize,
    energy: f64,
    efficiency: f64,
}

impl GreedyAllocator {
    /// Creates an allocator over the given slot curves.
    ///
    /// # Panics
    ///
    /// Panics if `curves` is empty.
    #[must_use]
    pub fn new(curves: Vec<CapacityCurve>) -> Self {
        assert!(!curves.is_empty(), "need at least one slot curve");
        let mut segments: Vec<TaggedSegment> = curves
            .iter()
            .enumerate()
            .flat_map(|(slot, curve)| {
                curve.segments().iter().map(move |s| TaggedSegment {
                    slot,
                    energy: s.energy,
                    efficiency: s.efficiency,
                })
            })
            .filter(|s| s.efficiency > 0.0)
            .collect();
        segments.sort_by(|a, b| {
            b.efficiency
                .partial_cmp(&a.efficiency)
                .expect("efficiencies are finite")
                .then(a.slot.cmp(&b.slot))
        });
        GreedyAllocator { curves, segments }
    }

    /// The slot curves.
    #[must_use]
    pub fn curves(&self) -> &[CapacityCurve] {
        &self.curves
    }

    /// **Step 1**: maximize probed capacity under an energy budget.
    ///
    /// # Panics
    ///
    /// Panics if `phi_max` is negative.
    #[must_use]
    pub fn maximize_capacity(&self, phi_max: f64) -> Allocation {
        assert!(phi_max >= 0.0, "Φmax must be non-negative");
        let mut per_slot = vec![0.0; self.curves.len()];
        let mut zeta = 0.0;
        let mut remaining = phi_max;
        for seg in &self.segments {
            if remaining <= 0.0 {
                break;
            }
            let spend = remaining.min(seg.energy);
            per_slot[seg.slot] += spend;
            zeta += spend * seg.efficiency;
            remaining -= spend;
        }
        let phi = phi_max - remaining;
        Allocation {
            per_slot,
            zeta,
            phi,
        }
    }

    /// **Step 2**: minimize energy subject to reaching a capacity target.
    ///
    /// Returns the cheapest allocation that reaches `zeta_target`, or `None`
    /// if the target exceeds the total reachable capacity (the paper then
    /// falls back to step 1's budget-bound plan).
    ///
    /// # Panics
    ///
    /// Panics if `zeta_target` is negative.
    #[must_use]
    pub fn minimize_energy(&self, zeta_target: f64) -> Option<Allocation> {
        assert!(zeta_target >= 0.0, "ζtarget must be non-negative");
        let mut per_slot = vec![0.0; self.curves.len()];
        let mut zeta = 0.0;
        let mut phi = 0.0;
        if zeta_target == 0.0 {
            return Some(Allocation {
                per_slot,
                zeta,
                phi,
            });
        }
        for seg in &self.segments {
            let seg_capacity = seg.energy * seg.efficiency;
            if zeta + seg_capacity >= zeta_target {
                // Partial fill of the marginal segment.
                let needed = (zeta_target - zeta) / seg.efficiency;
                per_slot[seg.slot] += needed;
                phi += needed;
                zeta = zeta_target;
                return Some(Allocation {
                    per_slot,
                    zeta,
                    phi,
                });
            }
            per_slot[seg.slot] += seg.energy;
            zeta += seg_capacity;
            phi += seg.energy;
        }
        None
    }

    /// The maximum reachable capacity (all segments fully funded).
    #[must_use]
    pub fn max_capacity(&self) -> f64 {
        self.curves
            .iter()
            .map(|c| c.capacity_at(c.max_energy()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use snip_model::{SlotProfile, SnipModel};

    fn roadside_allocator() -> GreedyAllocator {
        GreedyAllocator::new(CapacityCurve::for_profile(
            &SnipModel::default(),
            &SlotProfile::roadside(),
        ))
    }

    #[test]
    fn tight_budget_goes_entirely_to_rush_hours() {
        let a = roadside_allocator().maximize_capacity(86.4);
        assert!((a.phi - 86.4).abs() < 1e-9);
        assert!((a.zeta - 28.8).abs() < 1e-6);
        // Every funded slot is a rush slot (ties in efficiency are broken by
        // slot index, so 86.4 s fills slots 7, 8 and part of 17).
        for (i, &e) in a.per_slot.iter().enumerate() {
            if ![7, 8, 17, 18].contains(&i) {
                assert_eq!(e, 0.0, "off-peak slot {i} funded too early");
            }
        }
        let rush_energy: f64 = [7, 8, 17, 18].iter().map(|&i| a.per_slot[i]).sum();
        assert!((rush_energy - 86.4).abs() < 1e-9);
        assert!((a.rho().unwrap() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn loose_budget_spills_into_offpeak_slots() {
        // Rush linear regime absorbs 4×36 = 144 s for 48 s of capacity;
        // beyond that, off-peak linear segments (eff 1/18) beat the rush
        // saturating tail (eff < 1/18? rush seg2 eff: between knee and
        // 2·knee Υ goes 0.5→0.75 → Δζ=6 over 36 s → 1/6) — so rush segment 2
        // actually continues first.
        let a = roadside_allocator().maximize_capacity(864.0);
        assert!((a.phi - 864.0).abs() < 1e-9);
        // Must beat the pure-linear-rush yield (48) substantially.
        assert!(a.zeta > 55.0, "ζ = {}", a.zeta);
        // …but can't exceed the epoch's total capacity.
        assert!(a.zeta < 176.0);
    }

    #[test]
    fn minimize_energy_matches_rush_unit_cost() {
        let a = roadside_allocator().minimize_energy(16.0).unwrap();
        assert!((a.zeta - 16.0).abs() < 1e-9);
        assert!((a.phi - 48.0).abs() < 1e-6, "Φ = {}", a.phi);
        let a = roadside_allocator().minimize_energy(48.0).unwrap();
        assert!((a.phi - 144.0).abs() < 1e-4, "Φ = {}", a.phi);
    }

    #[test]
    fn minimize_energy_beyond_rush_capacity_uses_next_best_segments() {
        // 56 s: 48 from rush linear + 8 more. Next best efficiency is the
        // rush saturating segment (Υ 0.5→0.75, eff = 24·0.25/36 = 1/6),
        // cheaper than off-peak linear (1/18).
        let a = roadside_allocator().minimize_energy(56.0).unwrap();
        assert!((a.zeta - 56.0).abs() < 1e-9);
        let expected_phi = 144.0 + 8.0 * 6.0;
        assert!((a.phi - expected_phi).abs() < 1e-4, "Φ = {}", a.phi);
    }

    #[test]
    fn unreachable_target_returns_none() {
        let alloc = roadside_allocator();
        let max = alloc.max_capacity();
        assert!(max < 176.0, "max reachable is below total capacity");
        assert!(alloc.minimize_energy(max + 1.0).is_none());
        assert!(alloc.minimize_energy(max * 0.99).is_some());
    }

    #[test]
    fn zero_budget_and_zero_target() {
        let alloc = roadside_allocator();
        let a = alloc.maximize_capacity(0.0);
        assert_eq!(a.zeta, 0.0);
        assert_eq!(a.phi, 0.0);
        assert!(a.rho().is_none());
        let a = alloc.minimize_energy(0.0).unwrap();
        assert_eq!(a.phi, 0.0);
    }

    #[test]
    fn budget_larger_than_all_segments_spends_only_what_helps() {
        let alloc = roadside_allocator();
        let a = alloc.maximize_capacity(1e9);
        // Spending saturates at Σ max_energy = 86400 s (every slot at d=1).
        assert!(a.phi <= 86_400.0 + 1e-6);
        assert!((a.zeta - alloc.max_capacity()).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn prop_budget_respected(phi_max in 0.0f64..2000.0) {
            let a = roadside_allocator().maximize_capacity(phi_max);
            prop_assert!(a.phi <= phi_max + 1e-9);
            prop_assert!(a.zeta >= 0.0);
        }

        #[test]
        fn prop_capacity_monotone_in_budget(phi in 0.0f64..1000.0, extra in 0.0f64..500.0) {
            let alloc = roadside_allocator();
            let a = alloc.maximize_capacity(phi);
            let b = alloc.maximize_capacity(phi + extra);
            prop_assert!(b.zeta >= a.zeta - 1e-9);
        }

        #[test]
        fn prop_two_steps_are_inverses(target in 1.0f64..100.0) {
            // minimize_energy(t).phi spent via maximize_capacity must yield ≥ t.
            let alloc = roadside_allocator();
            if let Some(min) = alloc.minimize_energy(target) {
                let max = alloc.maximize_capacity(min.phi);
                prop_assert!(max.zeta >= target - 1e-6,
                    "spending Φ={} returned ζ={} < {target}", min.phi, max.zeta);
            }
        }

        #[test]
        fn prop_greedy_dominates_uniform_split(phi_max in 1.0f64..2000.0) {
            // Optimality smoke test: greedy beats spreading the budget evenly.
            let alloc = roadside_allocator();
            let greedy = alloc.maximize_capacity(phi_max);
            let per_slot = phi_max / 24.0;
            let uniform: f64 = alloc
                .curves()
                .iter()
                .map(|c| c.capacity_at(per_slot.min(c.max_energy())))
                .sum();
            prop_assert!(greedy.zeta >= uniform - 1e-9);
        }
    }
}
