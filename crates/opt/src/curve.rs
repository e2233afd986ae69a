//! Concave piecewise-linear capacity-vs-energy curves.
//!
//! For SNIP-OPT we need each slot's probed capacity as a function of the
//! probing energy spent there: `ζi(Φi)` with `Φi = ti·di`. The exact curve is
//! concave (linear up to the knee, then diminishing), and a piecewise-linear
//! approximation with breakpoints at geometric multiples of the knee is both
//! tight and makes the allocation problem an LP whose greedy solution is
//! exact.

use serde::{Deserialize, Serialize};
use snip_units::DutyCycle;

use snip_model::{ProbedTimeMemo, SlotProfile, SlotSpec, SnipModel};

/// One linear segment of a capacity curve: spend up to `energy` more seconds
/// of radio-on time at `efficiency` seconds of capacity per second of energy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Maximum additional energy this segment absorbs, seconds.
    pub energy: f64,
    /// Marginal capacity per unit energy (`dζ/dΦ`), dimensionless.
    pub efficiency: f64,
}

/// A concave piecewise-linear `ζ(Φ)` curve for one slot.
///
/// # Examples
///
/// ```
/// use snip_model::{SlotProfile, SnipModel};
/// use snip_opt::CapacityCurve;
///
/// let profile = SlotProfile::roadside();
/// let model = SnipModel::default();
/// let rush = CapacityCurve::for_slot(&model, &profile.slots()[7]);
/// // The first (linear-regime) segment has efficiency 1/ρ = 1/3.
/// assert!((rush.segments()[0].efficiency - 1.0 / 3.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityCurve {
    segments: Vec<Segment>,
    slot_seconds: f64,
}

impl CapacityCurve {
    /// Default duty-cycle breakpoints above the knee: geometric doubling.
    const KNEE_MULTIPLES: [f64; 6] = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

    /// Builds the curve for one slot under a SNIP model.
    ///
    /// Breakpoints: the knee `d* = Ton/E[Tcontact]`, then geometric multiples
    /// of it up to `d = 1`. Slots without contacts produce an empty curve.
    #[must_use]
    pub fn for_slot(model: &SnipModel, slot: &SlotSpec) -> Self {
        Self::build(model, &mut ProbedTimeMemo::new(*model), slot)
    }

    /// One curve per slot of `profile`, in slot order: equal to
    /// [`CapacityCurve::for_slot`] on each slot.
    ///
    /// The breakpoints depend only on the contact-length distribution, so
    /// slots sharing a distribution share their expectations: each distinct
    /// distribution is integrated once per breakpoint, not once per slot.
    /// A slot equal to the one before it takes a clone of that slot's curve.
    #[must_use]
    pub fn for_profile(model: &SnipModel, profile: &SlotProfile) -> Vec<Self> {
        let mut memo = ProbedTimeMemo::new(*model);
        let slots = profile.slots();
        let mut curves: Vec<Self> = Vec::with_capacity(slots.len());
        for (i, slot) in slots.iter().enumerate() {
            let curve = match curves.last() {
                Some(prev) if slots[i - 1] == *slot => prev.clone(),
                _ => Self::build(model, &mut memo, slot),
            };
            curves.push(curve);
        }
        curves
    }

    fn build(model: &SnipModel, memo: &mut ProbedTimeMemo, slot: &SlotSpec) -> Self {
        let slot_seconds = slot.length.as_secs_f64();
        if slot.frequency() == 0.0 || slot.contact_length.mean().is_zero() {
            return CapacityCurve {
                segments: Vec::new(),
                slot_seconds,
            };
        }
        let knee = slot.knee_duty_cycle(model).as_fraction();
        let mut duty_points = vec![knee.min(1.0)];
        for m in Self::KNEE_MULTIPLES {
            let d = knee * m;
            if d < 1.0 {
                duty_points.push(d);
            } else {
                break;
            }
        }
        if *duty_points.last().expect("non-empty") < 1.0 {
            duty_points.push(1.0);
        }

        let mut segments = Vec::with_capacity(duty_points.len());
        let mut prev_d = 0.0f64;
        let mut prev_zeta = 0.0f64;
        for d in duty_points {
            let zeta = memo.probed_capacity(slot, DutyCycle::clamped(d));
            let d_energy = (d - prev_d) * slot_seconds;
            if d_energy > 0.0 {
                let efficiency = ((zeta - prev_zeta) / d_energy).max(0.0);
                segments.push(Segment {
                    energy: d_energy,
                    efficiency,
                });
            }
            prev_d = d;
            prev_zeta = zeta;
        }
        CapacityCurve {
            segments,
            slot_seconds,
        }
    }

    /// The segments, in order of decreasing efficiency (concavity guarantees
    /// the construction order is already sorted).
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The slot length in seconds (converts energy back to a duty-cycle).
    #[must_use]
    pub fn slot_seconds(&self) -> f64 {
        self.slot_seconds
    }

    /// Capacity obtained by spending `phi` seconds of energy on this slot.
    ///
    /// # Panics
    ///
    /// Panics if `phi` is negative.
    #[must_use]
    pub fn capacity_at(&self, phi: f64) -> f64 {
        assert!(phi >= 0.0, "energy must be non-negative");
        let mut remaining = phi;
        let mut zeta = 0.0;
        for seg in &self.segments {
            let spend = remaining.min(seg.energy);
            zeta += spend * seg.efficiency;
            remaining -= spend;
            if remaining <= 0.0 {
                break;
            }
        }
        zeta
    }

    /// The maximum energy the curve can absorb (`slot length` seconds, i.e.
    /// `d = 1`); zero for empty slots.
    #[must_use]
    pub fn max_energy(&self) -> f64 {
        self.segments.iter().map(|s| s.energy).sum()
    }

    /// The duty-cycle corresponding to spending `phi` seconds on this slot.
    ///
    /// # Panics
    ///
    /// Panics if `phi` is negative or exceeds the slot length.
    #[must_use]
    pub fn duty_cycle_for(&self, phi: f64) -> DutyCycle {
        assert!(phi >= 0.0, "energy must be non-negative");
        assert!(
            phi <= self.slot_seconds + 1e-9,
            "cannot spend more energy than the slot length"
        );
        DutyCycle::clamped(phi / self.slot_seconds)
    }

    /// `true` when the slot can yield no capacity at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_model::{LengthDistribution, SlotProfile};
    use snip_units::SimDuration;

    fn rush_slot() -> SlotSpec {
        SlotProfile::roadside().slots()[7]
    }

    fn offpeak_slot() -> SlotSpec {
        SlotProfile::roadside().slots()[12]
    }

    #[test]
    fn first_segment_is_the_linear_regime() {
        let model = SnipModel::default();
        let c = CapacityCurve::for_slot(&model, &rush_slot());
        let first = c.segments()[0];
        // Knee at d = 0.01 over a 3600 s slot → 36 s of energy.
        assert!((first.energy - 36.0).abs() < 1e-9);
        // Efficiency = 1/ρ = 1/3 in the rush slot.
        assert!((first.efficiency - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn efficiencies_strictly_decrease() {
        let model = SnipModel::default();
        for slot in [rush_slot(), offpeak_slot()] {
            let c = CapacityCurve::for_slot(&model, &slot);
            for pair in c.segments().windows(2) {
                assert!(
                    pair[0].efficiency > pair[1].efficiency,
                    "concavity violated: {pair:?}"
                );
            }
        }
    }

    #[test]
    fn capacity_at_knee_matches_model() {
        let model = SnipModel::default();
        let slot = rush_slot();
        let c = CapacityCurve::for_slot(&model, &slot);
        // Spending exactly the knee energy probes half the slot capacity.
        let at_knee = c.capacity_at(36.0);
        assert!((at_knee - 12.0).abs() < 1e-6, "{at_knee}");
        // Beyond all segments, capacity saturates near the slot total (24 s).
        let full = c.capacity_at(c.max_energy());
        assert!(full > 22.0 && full < 24.0, "{full}");
        // Spending more than max energy changes nothing.
        assert_eq!(c.capacity_at(1e9), full);
    }

    #[test]
    fn curve_approximates_model_within_tolerance() {
        let model = SnipModel::default();
        let slot = rush_slot();
        let c = CapacityCurve::for_slot(&model, &slot);
        // Compare at interior duty-cycles (worst case mid-segment).
        for d in [0.002, 0.005, 0.01, 0.03, 0.15, 0.5] {
            let exact = slot.probed_capacity(&model, DutyCycle::clamped(d));
            let approx = c.capacity_at(d * 3_600.0);
            let err = (exact - approx).abs() / exact.max(1e-9);
            assert!(err < 0.06, "d={d}: exact {exact} vs approx {approx}");
        }
    }

    #[test]
    fn profile_curves_equal_slot_curves_bit_for_bit() {
        let model = SnipModel::default();
        let secs = SimDuration::from_secs_f64;
        let lengths = [
            LengthDistribution::paper_normal(secs(2.0)),
            LengthDistribution::exponential(secs(3.0)),
            LengthDistribution::fixed(secs(0.01)),
            LengthDistribution::log_normal(secs(2.0), secs(0.5)),
        ];
        let mut slots: Vec<SlotSpec> = (0..24u64)
            .map(|h| {
                SlotSpec::new(
                    SimDuration::from_hours(1),
                    secs(200.0 + 75.0 * h as f64),
                    lengths[h as usize % 4],
                )
            })
            .collect();
        slots[3] = SlotSpec::empty(SimDuration::from_hours(1));
        let profile = SlotProfile::new(slots);
        let by_slot: Vec<CapacityCurve> = profile
            .slots()
            .iter()
            .map(|s| CapacityCurve::for_slot(&model, s))
            .collect();
        assert_eq!(CapacityCurve::for_profile(&model, &profile), by_slot);
    }

    #[test]
    fn equal_slots_share_curves_equal_to_their_own_builds() {
        let model = SnipModel::default();
        let (rush, off) = (rush_slot(), offpeak_slot());
        let empty = SlotSpec::empty(SimDuration::from_hours(1));
        // Roadside: 24 slots in 5 runs of equal slots. The other profile
        // repeats slots only apart from each other, then in one run.
        let apart = SlotProfile::new(vec![rush, off, rush, empty, off, rush, rush, empty]);
        for profile in [SlotProfile::roadside(), apart] {
            let by_slot: Vec<CapacityCurve> = profile
                .slots()
                .iter()
                .map(|s| CapacityCurve::for_slot(&model, s))
                .collect();
            assert_eq!(CapacityCurve::for_profile(&model, &profile), by_slot);
        }
    }

    #[test]
    fn max_energy_equals_slot_length() {
        let model = SnipModel::default();
        let c = CapacityCurve::for_slot(&model, &rush_slot());
        assert!((c.max_energy() - 3_600.0).abs() < 1e-6);
    }

    #[test]
    fn empty_slot_yields_empty_curve() {
        let model = SnipModel::default();
        let slot = SlotSpec::empty(SimDuration::from_hours(1));
        let c = CapacityCurve::for_slot(&model, &slot);
        assert!(c.is_empty());
        assert_eq!(c.capacity_at(100.0), 0.0);
        assert_eq!(c.max_energy(), 0.0);
    }

    #[test]
    fn duty_cycle_conversion() {
        let model = SnipModel::default();
        let c = CapacityCurve::for_slot(&model, &rush_slot());
        assert!((c.duty_cycle_for(36.0).as_fraction() - 0.01).abs() < 1e-12);
        assert_eq!(c.duty_cycle_for(0.0), DutyCycle::OFF);
        assert_eq!(c.duty_cycle_for(3_600.0), DutyCycle::ALWAYS_ON);
    }

    #[test]
    #[should_panic(expected = "more energy than the slot")]
    fn overspending_rejected() {
        let model = SnipModel::default();
        let c = CapacityCurve::for_slot(&model, &rush_slot());
        let _ = c.duty_cycle_for(4_000.0);
    }

    #[test]
    fn short_contacts_collapse_breakpoints() {
        // Contacts shorter than Ton put the knee at d = 1: single segment.
        let model = SnipModel::default();
        let slot = SlotSpec::new(
            SimDuration::from_hours(1),
            SimDuration::from_secs(60),
            LengthDistribution::fixed(SimDuration::from_millis(10)),
        );
        let c = CapacityCurve::for_slot(&model, &slot);
        assert_eq!(c.segments().len(), 1);
        assert!((c.max_energy() - 3_600.0).abs() < 1e-6);
    }
}
