//! Per-time-slot contact profiles: the `ζi(di)` curves of §V.
//!
//! §V divides an epoch into `N` time-slots and assumes the contact arrival
//! process of each slot is known: an arrival frequency and a contact-length
//! distribution. From those and the SNIP model we can compute the contact
//! capacity probed in slot `i` when SNIP runs there with duty-cycle `di` —
//! the objective pieces of the SNIP-OPT optimization and of the closed-form
//! analysis behind Figs 5 and 6.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use snip_units::{DutyCycle, SimDuration};

use crate::length::{DensityGrid, LengthDistribution};
use crate::snip::SnipModel;

/// One time-slot's contact arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotSpec {
    /// Slot length `ti`.
    pub length: SimDuration,
    /// Mean interval between consecutive contact arrivals in this slot
    /// (`Tinterval`); `None` means no contacts arrive.
    pub contact_interval: Option<SimDuration>,
    /// Distribution of contact lengths in this slot.
    pub contact_length: LengthDistribution,
}

impl SlotSpec {
    /// A slot where contacts arrive every `interval` with lengths from
    /// `contact_length`.
    ///
    /// # Panics
    ///
    /// Panics if `length` or `interval` is zero.
    #[must_use]
    pub fn new(
        length: SimDuration,
        interval: SimDuration,
        contact_length: LengthDistribution,
    ) -> Self {
        assert!(!length.is_zero(), "slot length must be positive");
        assert!(!interval.is_zero(), "contact interval must be positive");
        SlotSpec {
            length,
            contact_interval: Some(interval),
            contact_length,
        }
    }

    /// A slot with no contacts at all.
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero.
    #[must_use]
    pub fn empty(length: SimDuration) -> Self {
        assert!(!length.is_zero(), "slot length must be positive");
        SlotSpec {
            length,
            contact_interval: None,
            contact_length: LengthDistribution::fixed(SimDuration::from_secs(1)),
        }
    }

    /// Contact arrival frequency in contacts per second (0 for empty slots).
    #[must_use]
    pub fn frequency(&self) -> f64 {
        match self.contact_interval {
            Some(iv) => 1.0 / iv.as_secs_f64(),
            None => 0.0,
        }
    }

    /// Expected number of contacts arriving during the slot.
    #[must_use]
    pub fn expected_contacts(&self) -> f64 {
        self.frequency() * self.length.as_secs_f64()
    }

    /// Total contact capacity of the slot: `E[#contacts] · E[Tcontact]`,
    /// in seconds.
    #[must_use]
    pub fn capacity(&self) -> f64 {
        self.expected_contacts() * self.contact_length.mean().as_secs_f64()
    }

    /// Probed capacity `ζi(di)` in seconds when SNIP runs at `d` all slot.
    ///
    /// To evaluate many slots, go through one [`ProbedTimeMemo`]: slots that
    /// share a contact-length distribution then share its expectation.
    #[must_use]
    pub fn probed_capacity(&self, model: &SnipModel, d: DutyCycle) -> f64 {
        self.expected_contacts()
            * model
                .expected_probed_dist(d, &self.contact_length)
                .as_secs_f64()
    }

    /// Probing energy `Φi = ti · di` in seconds of radio-on time when SNIP
    /// runs at `d` all slot.
    #[must_use]
    pub fn probing_cost(&self, d: DutyCycle) -> f64 {
        self.length.as_secs_f64() * d.as_fraction()
    }

    /// Marginal probed capacity per unit of probing energy at duty-cycle `d`:
    /// `dζi/dΦi = (dζi/ddi) / ti`.
    ///
    /// For fixed-length contacts this is constant below the knee — the
    /// quantity that makes greedy allocation optimal.
    #[must_use]
    pub fn marginal_efficiency(&self, model: &SnipModel, d: DutyCycle) -> f64 {
        let mean = self.contact_length.mean();
        if mean.is_zero() || self.frequency() == 0.0 {
            return 0.0;
        }
        let dzeta_dd = self.expected_contacts() * model.upsilon_slope(d, mean) * mean.as_secs_f64();
        dzeta_dd / self.length.as_secs_f64()
    }

    /// The knee duty-cycle for this slot's mean contact length.
    ///
    /// # Panics
    ///
    /// Panics if the mean contact length is zero.
    #[must_use]
    pub fn knee_duty_cycle(&self, model: &SnipModel) -> DutyCycle {
        model.knee_duty_cycle(self.contact_length.mean())
    }
}

/// Expected probed times `E[Tprobed](d, L)`, each computed once per distinct
/// `(duty-cycle, contact-length distribution)` pair, over node densities
/// computed once per distinct distribution.
///
/// A profile's slots usually share one contact-length distribution, and for
/// a numeric distribution each expectation is an adaptive Simpson integral.
/// Evaluating a whole profile through one memo integrates each distinct pair
/// once instead of once per slot. The memo also keeps each distribution's
/// node densities, which do not depend on the duty-cycle, so a caller that
/// sweeps duty-cycles (a bisection, a curve's breakpoints) should keep one
/// memo for the whole sweep: later expectations then reuse the densities,
/// and the moment tables built from them that answer most of them without
/// a Simpson pass (see [`crate::snip`]). Entries are exactly the values of
/// [`SnipModel::expected_probed_dist`], so every result is bit-identical to
/// evaluating the slots one by one.
///
/// # Examples
///
/// ```
/// use snip_model::{LengthDistribution, ProbedTimeMemo, SlotProfile, SnipModel};
/// use snip_units::{DutyCycle, SimDuration};
///
/// let lengths = LengthDistribution::paper_normal(SimDuration::from_secs(2));
/// let profile = SlotProfile::roadside_with_lengths(lengths);
/// let model = SnipModel::default();
///
/// let mut memo = ProbedTimeMemo::new(model);
/// for frac in [0.001, 0.005, 0.01] {
///     let d = DutyCycle::new(frac).unwrap();
///     // 24 slots sharing one distribution: one integral per duty-cycle,
///     // all three over the same node densities.
///     let zeta = memo.probed_capacity_uniform(&profile, d);
///     assert_eq!(zeta, profile.probed_capacity_uniform(&model, d));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ProbedTimeMemo {
    model: SnipModel,
    /// One entry per distinct distribution, in first-use order.
    dists: Vec<DistMemo>,
}

/// A [`ProbedTimeMemo`]'s state for one distribution.
#[derive(Debug, Clone)]
struct DistMemo {
    grid: DensityGrid,
    /// `E[Tprobed]` in seconds, keyed by the duty-cycle's bits.
    probed: BTreeMap<u64, f64>,
}

impl ProbedTimeMemo {
    /// An empty memo for one SNIP model.
    #[must_use]
    pub fn new(model: SnipModel) -> Self {
        ProbedTimeMemo {
            model,
            dists: Vec::new(),
        }
    }

    /// The SNIP model this memo evaluates.
    #[must_use]
    pub fn model(&self) -> &SnipModel {
        &self.model
    }

    /// [`SlotSpec::probed_capacity`], with the expectation computed on the
    /// first request for this `(d, slot.contact_length)` pair and looked up
    /// afterwards.
    pub fn probed_capacity(&mut self, slot: &SlotSpec, d: DutyCycle) -> f64 {
        slot.expected_contacts() * self.probed_secs(&slot.contact_length, d)
    }

    /// [`SlotProfile::probed_capacity_uniform`] through this memo. Each run
    /// of slots sharing a distribution looks its expectation up once, and
    /// each run of equal slots computes its term once; the terms are added
    /// in slot order.
    pub fn probed_capacity_uniform(&mut self, profile: &SlotProfile, d: DutyCycle) -> f64 {
        // The previous slot, its expectation and its term.
        let mut prev: Option<(&SlotSpec, f64, f64)> = None;
        profile
            .slots()
            .iter()
            .map(|s| {
                let (secs, term) = match prev {
                    Some((p, secs, term)) if p == s => (secs, term),
                    Some((p, secs, _)) if p.contact_length == s.contact_length => {
                        (secs, s.expected_contacts() * secs)
                    }
                    _ => {
                        let secs = self.probed_secs(&s.contact_length, d);
                        (secs, s.expected_contacts() * secs)
                    }
                };
                prev = Some((s, secs, term));
                term
            })
            .sum()
    }

    /// `E[Tprobed](d, dist)` in seconds, computed on the first request and
    /// looked up afterwards.
    fn probed_secs(&mut self, dist: &LengthDistribution, d: DutyCycle) -> f64 {
        let at = match self
            .dists
            .iter()
            .position(|seen| seen.grid.distribution() == dist)
        {
            Some(at) => at,
            None => {
                self.dists.push(DistMemo {
                    grid: DensityGrid::new(dist),
                    probed: BTreeMap::new(),
                });
                self.dists.len() - 1
            }
        };
        let DistMemo { grid, probed } = &mut self.dists[at];
        let model = &self.model;
        *probed
            .entry(d.as_fraction().to_bits())
            .or_insert_with(|| model.expected_probed_on(d, grid).as_secs_f64())
    }

    /// Number of distinct pairs computed so far: the expectations actually
    /// evaluated.
    #[cfg(test)]
    pub(crate) fn integrals(&self) -> usize {
        self.dists.iter().map(|m| m.probed.len()).sum()
    }

    /// Number of expectations taken from the Simpson loop's own sums (the
    /// whole loop, or its last level) rather than the moment tables.
    #[cfg(test)]
    pub(crate) fn loop_sums(&self) -> usize {
        self.dists.iter().map(|m| m.grid.loop_sums).sum()
    }
}

/// An epoch's worth of time slots (§V's `t1 … tn`).
///
/// # Examples
///
/// ```
/// use snip_model::{SlotProfile, SnipModel};
/// use snip_units::DutyCycle;
///
/// let profile = SlotProfile::roadside();
/// assert_eq!(profile.len(), 24);
/// // 48 rush + 40 off-peak contacts of 2 s each.
/// assert!((profile.total_capacity() - 176.0).abs() < 1e-9);
///
/// let model = SnipModel::default();
/// let d = DutyCycle::new(0.01).unwrap(); // the knee for 2 s contacts
/// let probed = profile.probed_capacity_uniform(&model, d);
/// assert!((probed - 88.0).abs() < 1e-6); // Υ = ½ everywhere
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotProfile {
    slots: Vec<SlotSpec>,
}

impl SlotProfile {
    /// Creates a profile from explicit slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty.
    #[must_use]
    pub fn new(slots: Vec<SlotSpec>) -> Self {
        assert!(!slots.is_empty(), "a profile needs at least one slot");
        SlotProfile { slots }
    }

    /// The paper's §VII roadside scenario: 24 one-hour slots, rush hours
    /// 07:00–09:00 and 17:00–19:00 with 300 s contact intervals, 1800 s
    /// elsewhere, fixed 2 s contacts.
    #[must_use]
    pub fn roadside() -> Self {
        Self::roadside_with_lengths(LengthDistribution::fixed(SimDuration::from_secs(2)))
    }

    /// The roadside scenario with a custom contact-length distribution
    /// (the simulations use `LengthDistribution::paper_normal(2 s)`).
    #[must_use]
    pub fn roadside_with_lengths(contact_length: LengthDistribution) -> Self {
        let hour = SimDuration::from_hours(1);
        let slots = (0..24)
            .map(|h| {
                let interval = if (7..9).contains(&h) || (17..19).contains(&h) {
                    SimDuration::from_secs(300)
                } else {
                    SimDuration::from_secs(1800)
                };
                SlotSpec::new(hour, interval, contact_length)
            })
            .collect();
        SlotProfile { slots }
    }

    /// The slots.
    #[must_use]
    pub fn slots(&self) -> &[SlotSpec] {
        &self.slots
    }

    /// Number of slots `N`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if there are no slots (never holds for constructed profiles).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The epoch length `Σ ti`.
    #[must_use]
    pub fn epoch(&self) -> SimDuration {
        self.slots.iter().map(|s| s.length).sum()
    }

    /// Total contact capacity of the epoch in seconds.
    #[must_use]
    pub fn total_capacity(&self) -> f64 {
        self.slots.iter().map(SlotSpec::capacity).sum()
    }

    /// Probed capacity when one duty-cycle runs in every slot (SNIP-AT).
    ///
    /// Takes one expectation per distinct contact-length distribution, not
    /// one per slot ([`ProbedTimeMemo`]).
    #[must_use]
    pub fn probed_capacity_uniform(&self, model: &SnipModel, d: DutyCycle) -> f64 {
        ProbedTimeMemo::new(*model).probed_capacity_uniform(self, d)
    }

    /// Probed capacity under a per-slot duty-cycle plan.
    ///
    /// # Panics
    ///
    /// Panics if `plan` has a different length than the profile.
    #[must_use]
    pub fn probed_capacity_plan(&self, model: &SnipModel, plan: &[DutyCycle]) -> f64 {
        assert_eq!(plan.len(), self.len(), "plan length must match slot count");
        let mut memo = ProbedTimeMemo::new(*model);
        self.slots
            .iter()
            .zip(plan)
            .map(|(s, &d)| memo.probed_capacity(s, d))
            .sum()
    }

    /// Probing energy under a per-slot duty-cycle plan, in seconds of
    /// radio-on time.
    ///
    /// # Panics
    ///
    /// Panics if `plan` has a different length than the profile.
    #[must_use]
    pub fn probing_cost_plan(&self, plan: &[DutyCycle]) -> f64 {
        assert_eq!(plan.len(), self.len(), "plan length must match slot count");
        self.slots
            .iter()
            .zip(plan)
            .map(|(s, &d)| s.probing_cost(d))
            .sum()
    }

    /// Slot indices sorted by descending capacity — the ground truth that
    /// adaptive SNIP-RH tries to learn online.
    #[must_use]
    pub fn slots_by_capacity(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.sort_by(|&a, &b| {
            self.slots[b]
                .capacity()
                .partial_cmp(&self.slots[a].capacity())
                .expect("capacities are finite")
                .then(a.cmp(&b))
        });
        idx
    }

    /// Boolean rush-hour marks: the `k` highest-capacity slots.
    ///
    /// # Panics
    ///
    /// Panics if `k > len()`.
    #[must_use]
    pub fn top_k_marks(&self, k: usize) -> Vec<bool> {
        assert!(k <= self.len(), "cannot mark more slots than exist");
        let mut marks = vec![false; self.len()];
        for &i in self.slots_by_capacity().iter().take(k) {
            marks[i] = true;
        }
        marks
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
    fn roadside_capacity_breakdown() {
        let p = SlotProfile::roadside();
        assert_eq!(p.len(), 24);
        assert_eq!(p.epoch(), SimDuration::from_hours(24));
        // Rush slots: 3600/300 = 12 contacts × 2 s = 24 s each, 4 slots = 96 s.
        // Other slots: 3600/1800 = 2 contacts × 2 s = 4 s each, 20 slots = 80 s.
        assert!((p.total_capacity() - 176.0).abs() < 1e-9);
        let rush: f64 = [7, 8, 17, 18]
            .iter()
            .map(|&h| p.slots()[h].capacity())
            .sum();
        assert!((rush - 96.0).abs() < 1e-9);
    }

    #[test]
    fn roadside_slot_frequencies() {
        let p = SlotProfile::roadside();
        assert!((p.slots()[7].frequency() - 1.0 / 300.0).abs() < 1e-12);
        assert!((p.slots()[12].frequency() - 1.0 / 1800.0).abs() < 1e-12);
        assert!((p.slots()[7].expected_contacts() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn empty_slot_contributes_nothing() {
        let s = SlotSpec::empty(SimDuration::from_hours(1));
        assert_eq!(s.frequency(), 0.0);
        assert_eq!(s.capacity(), 0.0);
        assert_eq!(s.probed_capacity(&model(), d(0.5)), 0.0);
        assert_eq!(s.marginal_efficiency(&model(), d(0.5)), 0.0);
        // Probing an empty slot still costs energy.
        assert!((s.probing_cost(d(0.5)) - 1800.0).abs() < 1e-9);
    }

    #[test]
    fn probed_capacity_at_knee_is_half() {
        let p = SlotProfile::roadside();
        let probed = p.probed_capacity_uniform(&model(), d(0.01));
        assert!((probed - 88.0).abs() < 1e-6);
    }

    #[test]
    fn marginal_efficiency_matches_inverse_rho() {
        let p = SlotProfile::roadside();
        let m = model();
        // Rush slot: ρ = 3 → efficiency 1/3. Off-peak: ρ = 18 → 1/18.
        let rush = p.slots()[7].marginal_efficiency(&m, d(0.001));
        assert!((rush - 1.0 / 3.0).abs() < 1e-9, "rush {rush}");
        let off = p.slots()[12].marginal_efficiency(&m, d(0.001));
        assert!((off - 1.0 / 18.0).abs() < 1e-9, "off {off}");
    }

    #[test]
    fn knee_duty_cycle_for_roadside_slots() {
        let p = SlotProfile::roadside();
        let knee = p.slots()[7].knee_duty_cycle(&model());
        assert!((knee.as_fraction() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn plan_evaluation_consistent_with_uniform() {
        let p = SlotProfile::roadside();
        let m = model();
        let plan = vec![d(0.004); 24];
        assert!(
            (p.probed_capacity_plan(&m, &plan) - p.probed_capacity_uniform(&m, d(0.004))).abs()
                < 1e-9
        );
        assert!((p.probing_cost_plan(&plan) - 86_400.0 * 0.004).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "plan length")]
    fn mismatched_plan_rejected() {
        let p = SlotProfile::roadside();
        let _ = p.probing_cost_plan(&[DutyCycle::OFF; 3]);
    }

    #[test]
    fn slots_by_capacity_puts_rush_hours_first() {
        let p = SlotProfile::roadside();
        let order = p.slots_by_capacity();
        let first4: Vec<usize> = order[..4].to_vec();
        let mut sorted = first4.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![7, 8, 17, 18]);
    }

    #[test]
    fn top_k_marks_rush_hours() {
        let p = SlotProfile::roadside();
        let marks = p.top_k_marks(4);
        for (i, &m) in marks.iter().enumerate() {
            assert_eq!(m, [7, 8, 17, 18].contains(&i), "slot {i}");
        }
        assert_eq!(marks.iter().filter(|&&m| m).count(), 4);
    }

    #[test]
    fn top_k_zero_and_full() {
        let p = SlotProfile::roadside();
        assert!(p.top_k_marks(0).iter().all(|&m| !m));
        assert!(p.top_k_marks(24).iter().all(|&m| m));
    }

    #[test]
    fn probed_capacity_with_normal_lengths_close_to_fixed() {
        let fixed = SlotProfile::roadside();
        let normal = SlotProfile::roadside_with_lengths(LengthDistribution::paper_normal(
            SimDuration::from_secs(2),
        ));
        let m = model();
        let a = fixed.probed_capacity_uniform(&m, d(0.005));
        let b = normal.probed_capacity_uniform(&m, d(0.005));
        assert!((a - b).abs() / a < 0.02, "{a} vs {b}");
    }

    /// Slots of every length family, some sharing a distribution, plus an
    /// empty slot.
    fn mixed_profile() -> SlotProfile {
        let hour = SimDuration::from_hours(1);
        let secs = SimDuration::from_secs_f64;
        let lengths = [
            LengthDistribution::paper_normal(secs(2.0)),
            LengthDistribution::exponential(secs(3.0)),
            LengthDistribution::log_normal(secs(2.0), secs(0.5)),
            LengthDistribution::uniform(secs(1.0), secs(3.0)),
            LengthDistribution::fixed(secs(2.0)),
            LengthDistribution::paper_normal(secs(2.5)),
        ];
        let mut slots: Vec<SlotSpec> = (0..24u64)
            .map(|h| SlotSpec::new(hour, secs(300.0 + 60.0 * h as f64), lengths[h as usize % 6]))
            .collect();
        slots[5] = SlotSpec::empty(hour);
        SlotProfile::new(slots)
    }

    #[test]
    fn profile_evaluation_is_bit_identical_to_slot_by_slot() {
        let p = mixed_profile();
        let m = model();
        for frac in [0.0, 1e-4, 0.003, 0.01, 0.04, 0.3, 1.0] {
            let uniform: f64 = p
                .slots()
                .iter()
                .map(|s| s.probed_capacity(&m, d(frac)))
                .sum();
            assert_eq!(p.probed_capacity_uniform(&m, d(frac)), uniform, "d={frac}");
        }
        let plan: Vec<DutyCycle> = (0..24).map(|i| d([0.002, 0.01, 0.5][i % 3])).collect();
        let by_slot: f64 = p
            .slots()
            .iter()
            .zip(&plan)
            .map(|(s, &dc)| s.probed_capacity(&m, dc))
            .sum();
        assert_eq!(p.probed_capacity_plan(&m, &plan), by_slot);
    }

    #[test]
    fn memo_computes_each_distribution_once_per_duty_cycle() {
        let p = mixed_profile();
        let mut memo = ProbedTimeMemo::new(model());
        assert_eq!(memo.integrals(), 0);
        for frac in [0.003, 0.01] {
            for s in p.slots() {
                let _ = memo.probed_capacity(s, d(frac));
            }
        }
        // Six distinct distributions (the empty slot's placeholder is the
        // fixed 1 s one, a seventh), two duty-cycles.
        assert_eq!(memo.integrals(), 7 * 2);
        let lengths = LengthDistribution::paper_normal(SimDuration::from_secs(2));
        let roadside = SlotProfile::roadside_with_lengths(lengths);
        let mut memo = ProbedTimeMemo::new(model());
        for s in roadside.slots() {
            let _ = memo.probed_capacity(s, d(0.005));
        }
        assert_eq!(
            memo.integrals(),
            1,
            "24 slots, one distribution, one integral"
        );
    }

    proptest! {
        #[test]
        fn prop_probed_capacity_bounded_by_capacity(
            frac in 0.0f64..=1.0,
            interval_s in 10u64..10_000,
            len_s in 1u64..10,
        ) {
            let s = SlotSpec::new(
                SimDuration::from_hours(1),
                SimDuration::from_secs(interval_s),
                LengthDistribution::fixed(SimDuration::from_secs(len_s)),
            );
            let probed = s.probed_capacity(&model(), DutyCycle::new(frac).unwrap());
            prop_assert!(probed <= s.capacity() + 1e-9);
        }

        #[test]
        fn prop_cost_scales_linearly(frac in 0.0f64..=0.5) {
            let s = SlotSpec::new(
                SimDuration::from_hours(1),
                SimDuration::from_secs(300),
                LengthDistribution::fixed(SimDuration::from_secs(2)),
            );
            let c1 = s.probing_cost(DutyCycle::new(frac).unwrap());
            let c2 = s.probing_cost(DutyCycle::new(frac * 2.0).unwrap());
            prop_assert!((c2 - 2.0 * c1).abs() < 1e-9);
        }
    }
}
