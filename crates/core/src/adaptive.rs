//! Adaptive SNIP-RH: learning rush hours autonomously (§VII-B).
//!
//! The paper's discussion sketches two extensions that this module
//! implements:
//!
//! 1. **Bootstrap learning** — "a sensor node can first run SNIP-AT for a
//!    while (a small number of epochs) to learn Rush Hours": during the
//!    learning phase the node probes everywhere at a very small duty-cycle
//!    and only records *which slots* its probed contacts fall into; it then
//!    marks the top-k slots by observed capacity and switches to SNIP-RH.
//! 2. **Seasonal tracking** — "a sensor node can simultaneously run SNIP-AT
//!    with a very very small duty-cycle so that it can continuously track the
//!    seasonal shift of Rush Hours": after the switch, off-peak slots keep a
//!    trickle duty-cycle, per-slot statistics decay by EWMA each epoch, and
//!    the marks are re-derived at every epoch boundary.

use serde::{Deserialize, Serialize};
use snip_units::{DutyCycle, SimDuration, SimTime};

use crate::scheduler::{
    slots, IdleSpan, ProbeContext, ProbeScheduler, ProbedContactInfo, SteadySpan,
};
use crate::snip_rh::{SnipRh, SnipRhConfig};

/// Which phase the adaptive scheduler is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdaptivePhase {
    /// Probing everywhere at the learning duty-cycle, gathering per-slot
    /// statistics; no rush-hour gating yet.
    Learning,
    /// Running SNIP-RH with learned marks (plus the optional tracking
    /// trickle outside rush hours).
    RushHour,
}

/// Configuration for [`AdaptiveSnipRh`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// The SNIP-RH configuration to run after learning. Its `rush_marks`
    /// only define the slot count; the learned marks replace them.
    pub rh: SnipRhConfig,
    /// Epochs to spend in the learning phase (paper: "a small number").
    pub learning_epochs: u64,
    /// Duty-cycle used during learning (paper: "could be very small").
    pub learning_duty_cycle: f64,
    /// Number of slots to mark as rush hours after learning.
    pub rush_slot_count: usize,
    /// Background duty-cycle outside rush hours after learning, for seasonal
    /// tracking; 0 disables tracking (paper: "very very small").
    pub tracking_duty_cycle: f64,
    /// Per-epoch decay applied to slot statistics when tracking, in `(0, 1]`;
    /// smaller forgets faster.
    pub stat_retention: f64,
}

impl AdaptiveConfig {
    /// Defaults matching the paper's sketch: 3 learning epochs at d = 0.1%,
    /// 4 rush slots, tracking at d = 0.05%, statistic half-life ≈ 7 epochs.
    ///
    /// # Panics
    ///
    /// Panics if `slot_count` is zero or `rush_slot_count > slot_count`.
    #[must_use]
    pub fn paper_sketch(slot_count: usize, rush_slot_count: usize) -> Self {
        assert!(slot_count > 0, "need at least one slot");
        assert!(
            rush_slot_count <= slot_count,
            "cannot mark more rush slots than exist"
        );
        AdaptiveConfig {
            rh: SnipRhConfig::paper_defaults(vec![false; slot_count]),
            learning_epochs: 3,
            learning_duty_cycle: 0.001,
            rush_slot_count,
            tracking_duty_cycle: 0.000_5,
            stat_retention: 0.9,
        }
    }

    fn validate(&self) {
        assert!(self.learning_epochs > 0, "need at least one learning epoch");
        assert!(
            self.learning_duty_cycle > 0.0 && self.learning_duty_cycle <= 1.0,
            "learning duty-cycle must be in (0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.tracking_duty_cycle),
            "tracking duty-cycle must be in [0, 1]"
        );
        assert!(
            self.stat_retention > 0.0 && self.stat_retention <= 1.0,
            "stat retention must be in (0, 1]"
        );
        assert!(
            self.rush_slot_count <= self.rh.rush_marks.len(),
            "cannot mark more rush slots than exist"
        );
    }
}

/// SNIP-RH with autonomous rush-hour learning and seasonal tracking.
///
/// # Examples
///
/// ```
/// use snip_core::{AdaptiveConfig, AdaptivePhase, AdaptiveSnipRh};
///
/// let adaptive = AdaptiveSnipRh::new(AdaptiveConfig::paper_sketch(24, 4));
/// assert_eq!(adaptive.phase(), AdaptivePhase::Learning);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveSnipRh {
    config: AdaptiveConfig,
    inner: SnipRh,
    phase: AdaptivePhase,
    /// Smoothed per-slot probed-capacity estimates, seconds per epoch.
    slot_capacity: Vec<f64>,
    /// Raw importance-weighted observations of the current epoch, folded
    /// into `slot_capacity` by EWMA at each epoch boundary. The smoothing
    /// bounds the variance of the heavy-tailed trickle observations (one
    /// off-peak probe can stand in for 1/P ≈ 10 contacts).
    epoch_accum: Vec<f64>,
    current_epoch: u64,
}

impl AdaptiveSnipRh {
    /// Creates an adaptive scheduler starting in the learning phase.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(config: AdaptiveConfig) -> Self {
        config.validate();
        let slot_count = config.rh.rush_marks.len();
        let inner = SnipRh::new(config.rh.clone());
        AdaptiveSnipRh {
            config,
            inner,
            phase: AdaptivePhase::Learning,
            slot_capacity: vec![0.0; slot_count],
            epoch_accum: vec![0.0; slot_count],
            current_epoch: 0,
        }
    }

    /// The current phase.
    #[must_use]
    pub fn phase(&self) -> AdaptivePhase {
        self.phase
    }

    /// The current learned rush-hour marks (all false while learning).
    #[must_use]
    pub fn rush_marks(&self) -> &[bool] {
        &self.inner.config().rush_marks
    }

    /// The per-slot probed-capacity statistics (decayed seconds).
    #[must_use]
    pub fn slot_capacity(&self) -> &[f64] {
        &self.slot_capacity
    }

    /// The inner SNIP-RH (exposes `T̄contact`, thresholds…).
    #[must_use]
    pub fn inner(&self) -> &SnipRh {
        &self.inner
    }

    /// Re-derives the top-k rush marks from the current statistics.
    fn relearn_marks(&mut self) {
        let mut idx: Vec<usize> = (0..self.slot_capacity.len()).collect();
        idx.sort_by(|&a, &b| {
            self.slot_capacity[b]
                .partial_cmp(&self.slot_capacity[a])
                .expect("capacities are finite")
                .then(a.cmp(&b))
        });
        let mut marks = vec![false; self.slot_capacity.len()];
        for &i in idx.iter().take(self.config.rush_slot_count) {
            // Never mark a slot we have zero evidence for.
            if self.slot_capacity[i] > 0.0 {
                marks[i] = true;
            }
        }
        self.inner.set_rush_marks(marks);
    }

    /// The duty-cycle this scheduler would use in a slot right now — the
    /// denominator of the importance weighting in the feedback path.
    fn duty_cycle_in_slot(&self, slot: usize) -> f64 {
        match self.phase {
            AdaptivePhase::Learning => self.config.learning_duty_cycle,
            AdaptivePhase::RushHour => {
                if self.inner.config().rush_marks[slot] {
                    self.inner.rush_duty_cycle().as_fraction()
                } else {
                    self.config.tracking_duty_cycle
                }
            }
        }
    }

    /// Handles epoch boundaries: ends learning, folds the epoch's raw
    /// observations into the smoothed estimates, relearns marks.
    fn roll_epoch(&mut self, now: SimTime) {
        let epoch_idx = now.epoch_index(self.config.rh.epoch);
        while self.current_epoch < epoch_idx {
            self.current_epoch += 1;
            match self.phase {
                AdaptivePhase::Learning => {
                    // During learning the raw observations accumulate
                    // directly (all slots probe at the same duty-cycle, so
                    // no smoothing is needed to compare them).
                    for (est, acc) in self.slot_capacity.iter_mut().zip(&mut self.epoch_accum) {
                        *est += std::mem::take(acc);
                    }
                    if self.current_epoch >= self.config.learning_epochs {
                        // Rescale totals to per-epoch estimates so the
                        // post-switch EWMA updates are on the same scale.
                        for est in &mut self.slot_capacity {
                            *est /= self.config.learning_epochs as f64;
                        }
                        self.relearn_marks();
                        self.phase = AdaptivePhase::RushHour;
                    }
                }
                AdaptivePhase::RushHour => {
                    if self.config.tracking_duty_cycle > 0.0 {
                        // estimate ← retention·estimate + (1−retention)·epoch
                        // observation: an EWMA over epochs that tames the
                        // heavy-tailed trickle weights.
                        let keep = self.config.stat_retention;
                        for (est, acc) in self.slot_capacity.iter_mut().zip(&mut self.epoch_accum) {
                            *est = keep * *est + (1.0 - keep) * std::mem::take(acc);
                        }
                        self.relearn_marks();
                    } else {
                        for acc in &mut self.epoch_accum {
                            *acc = 0.0;
                        }
                    }
                }
            }
        }
    }
}

impl ProbeScheduler for AdaptiveSnipRh {
    fn decide(&mut self, ctx: &ProbeContext) -> Option<DutyCycle> {
        self.roll_epoch(ctx.now);
        match self.phase {
            // Probe everywhere, ignoring data gating so the statistics
            // reflect the environment rather than the buffer. Every branch
            // is held to the budget by the driver.
            AdaptivePhase::Learning => Some(DutyCycle::clamped(self.config.learning_duty_cycle)),
            AdaptivePhase::RushHour => {
                if let Some(d) = self.inner.decide(ctx) {
                    return Some(d);
                }
                // Seasonal-tracking trickle outside rush hours (data gating
                // intentionally skipped so shifted rush hours are detected
                // even with an empty buffer).
                (self.config.tracking_duty_cycle > 0.0)
                    .then(|| DutyCycle::clamped(self.config.tracking_duty_cycle))
            }
        }
    }

    fn record_probed_contact(&mut self, info: &ProbedContactInfo) {
        self.roll_epoch(info.probe_time);
        // Attribute the observation to the slot the probe happened in,
        // importance-weighted by the probability of probing it at all.
        //
        // Slots probe at wildly different duty-cycles (knee inside learned
        // rush hours, trickle outside), so raw probed-capacity counts would
        // self-reinforce stale marks: a stale rush slot catching every one
        // of its 2 contacts "observes" more capacity than a true rush slot
        // catching 5% of its 12. Dividing each observation by its probe
        // probability `P = min(1, l·d/Ton)` makes the per-slot estimates
        // unbiased, which is what lets seasonal shifts be tracked.
        let idx = self.inner.slot_index_at(info.probe_time);
        let length = info
            .contact_length
            .unwrap_or(info.probed_duration * 2)
            .as_secs_f64();
        let d_used = self.duty_cycle_in_slot(idx);
        let ton = self.config.rh.ton.as_secs_f64();
        let probe_prob = if d_used > 0.0 && length > 0.0 {
            (length * d_used / ton).min(1.0)
        } else {
            1.0
        };
        self.epoch_accum[idx] += length / probe_prob.max(1e-9);
        self.inner.record_probed_contact(info);
    }

    fn name(&self) -> &str {
        "Adaptive-SNIP-RH"
    }

    fn phi_budget(&self) -> Option<SimDuration> {
        Some(self.config.rh.phi_max)
    }

    fn idle_until(&self, ctx: &ProbeContext) -> Option<IdleSpan> {
        match self.phase {
            // Learning probes everywhere, and with tracking on the trickle
            // keeps the radio on somewhere: no provably idle stretch.
            AdaptivePhase::Learning => None,
            AdaptivePhase::RushHour if self.config.tracking_duty_cycle > 0.0 => None,
            // Tracking disabled: the marks never relearn after the switch,
            // so the inner SNIP-RH's bounds are exact — its data bound
            // included, since nothing but the inner decision can turn the
            // radio on.
            AdaptivePhase::RushHour => self.inner.idle_until(ctx),
        }
    }

    fn steady_span(&self, ctx: &ProbeContext) -> Option<SteadySpan> {
        let cfg = &self.config.rh;
        match self.phase {
            // One flat learning duty-cycle; the phase can switch no earlier
            // than the next epoch boundary.
            AdaptivePhase::Learning => Some(SteadySpan {
                until: slots::next_epoch_start(ctx.now, cfg.epoch),
                across_probes: false,
            }),
            AdaptivePhase::RushHour => {
                if self.inner.in_rush_hour(ctx.now) {
                    if ctx.buffered_data.as_airtime() < self.inner.upload_threshold() {
                        // Active only via the trickle: data arriving
                        // mid-span would flip the decision to the knee, so
                        // no constant-duty-cycle guarantee exists.
                        return None;
                    }
                    // Knee probing: the inner span (to the slot end) is
                    // exact; marks relearn at epoch boundaries, never
                    // inside a slot.
                    self.inner.steady_span(ctx)
                } else if self.config.tracking_duty_cycle > 0.0 {
                    // The trickle is flat and ungated by data; the mark of
                    // the current slot cannot change before the slot ends.
                    Some(SteadySpan {
                        until: slots::slot_end(
                            ctx.now,
                            cfg.epoch,
                            self.inner.slot_length(),
                            cfg.rush_marks.len(),
                        ),
                        across_probes: false,
                    })
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_units::DataSize;

    fn ctx(now_s: u64, buffered_s: u64) -> ProbeContext {
        ProbeContext {
            now: SimTime::from_secs(now_s),
            buffered_data: DataSize::from_airtime_secs(buffered_s),
        }
    }

    fn probed_at(now_s: u64, len_s: f64) -> ProbedContactInfo {
        ProbedContactInfo {
            probe_time: SimTime::from_secs(now_s),
            probed_duration: SimDuration::from_secs_f64(len_s / 2.0),
            uploaded: DataSize::from_airtime(SimDuration::from_secs_f64(len_s / 2.0)),
            contact_length: Some(SimDuration::from_secs_f64(len_s)),
        }
    }

    /// Feeds `n` probed contacts per rush hour of one epoch, starting at
    /// `epoch_idx`, with rush hours at `hours`.
    fn feed_epoch(a: &mut AdaptiveSnipRh, epoch_idx: u64, hours: &[u64], n: usize) {
        for &h in hours {
            for k in 0..n {
                let t = epoch_idx * 86_400 + h * 3_600 + 60 * (k as u64 + 1);
                a.record_probed_contact(&probed_at(t, 2.0));
            }
        }
    }

    #[test]
    fn starts_learning_everywhere() {
        let mut a = AdaptiveSnipRh::new(AdaptiveConfig::paper_sketch(24, 4));
        assert_eq!(a.phase(), AdaptivePhase::Learning);
        // Probes at 3 AM during learning.
        let d = a.decide(&ctx(3 * 3_600, 0)).unwrap();
        assert!((d.as_fraction() - 0.001).abs() < 1e-12);
        // …under the budget the driver enforces.
        assert_eq!(a.phi_budget(), Some(a.inner().config().phi_max));
    }

    #[test]
    fn learns_the_rush_hours_and_switches() {
        let mut a = AdaptiveSnipRh::new(AdaptiveConfig::paper_sketch(24, 4));
        for epoch in 0..3 {
            feed_epoch(&mut a, epoch, &[7, 8, 17, 18], 12);
            // Sparse background contacts elsewhere.
            feed_epoch(&mut a, epoch, &[2, 12, 21], 2);
        }
        // First decision in epoch 3 triggers the phase switch.
        let _ = a.decide(&ctx(3 * 86_400 + 60, 5));
        assert_eq!(a.phase(), AdaptivePhase::RushHour);
        let marks = a.rush_marks();
        for h in [7usize, 8, 17, 18] {
            assert!(marks[h], "slot {h} should be learned as rush hour");
        }
        assert_eq!(marks.iter().filter(|&&m| m).count(), 4);
    }

    #[test]
    fn after_learning_probes_rush_hours_at_knee() {
        let mut a = AdaptiveSnipRh::new(AdaptiveConfig::paper_sketch(24, 4));
        for epoch in 0..3 {
            feed_epoch(&mut a, epoch, &[7, 8, 17, 18], 12);
        }
        let day3 = 3 * 86_400;
        let d = a.decide(&ctx(day3 + 8 * 3_600, 10)).unwrap();
        // T̄contact = 2 s ⇒ knee = 0.01.
        assert!((d.as_fraction() - 0.01).abs() < 1e-6, "{d}");
    }

    #[test]
    fn tracking_trickle_outside_rush_hours() {
        let mut a = AdaptiveSnipRh::new(AdaptiveConfig::paper_sketch(24, 4));
        for epoch in 0..3 {
            feed_epoch(&mut a, epoch, &[7, 8, 17, 18], 12);
        }
        let day3 = 3 * 86_400;
        let d = a.decide(&ctx(day3 + 12 * 3_600, 10)).unwrap();
        assert!((d.as_fraction() - 0.000_5).abs() < 1e-12, "trickle at noon");
    }

    #[test]
    fn tracking_disabled_stays_silent_offpeak() {
        let mut cfg = AdaptiveConfig::paper_sketch(24, 4);
        cfg.tracking_duty_cycle = 0.0;
        let mut a = AdaptiveSnipRh::new(cfg);
        for epoch in 0..3 {
            feed_epoch(&mut a, epoch, &[7, 8, 17, 18], 12);
        }
        assert!(a.decide(&ctx(3 * 86_400 + 12 * 3_600, 10)).is_none());
    }

    #[test]
    fn seasonal_shift_is_tracked() {
        let mut cfg = AdaptiveConfig::paper_sketch(24, 4);
        cfg.stat_retention = 0.5; // forget fast for the test
        let mut a = AdaptiveSnipRh::new(cfg);
        // Learn rush hours at 7, 8, 17, 18.
        for epoch in 0..3 {
            feed_epoch(&mut a, epoch, &[7, 8, 17, 18], 12);
        }
        let _ = a.decide(&ctx(3 * 86_400 + 60, 5));
        assert!(a.rush_marks()[7]);
        // The environment shifts: rush hours now 9, 10, 19, 20.
        for epoch in 3..10 {
            feed_epoch(&mut a, epoch, &[9, 10, 19, 20], 12);
        }
        let _ = a.decide(&ctx(10 * 86_400 + 60, 5));
        let marks = a.rush_marks();
        for h in [9usize, 10, 19, 20] {
            assert!(marks[h], "shifted slot {h} should be marked");
        }
        for h in [7usize, 8, 17, 18] {
            assert!(!marks[h], "stale slot {h} should be unmarked");
        }
    }

    #[test]
    fn never_marks_unobserved_slots() {
        let mut a = AdaptiveSnipRh::new(AdaptiveConfig::paper_sketch(24, 8));
        // Only 2 slots ever see contacts; the other 6 "top-k" candidates
        // have zero capacity and must stay unmarked.
        for epoch in 0..3 {
            feed_epoch(&mut a, epoch, &[7, 17], 12);
        }
        let _ = a.decide(&ctx(3 * 86_400 + 60, 5));
        assert_eq!(a.rush_marks().iter().filter(|&&m| m).count(), 2);
    }

    #[test]
    fn stats_accumulate_per_slot_with_importance_weighting() {
        let mut a = AdaptiveSnipRh::new(AdaptiveConfig::paper_sketch(24, 4));
        feed_epoch(&mut a, 0, &[7], 3);
        // Observations sit in the epoch accumulator until the epoch rolls;
        // a decision in epoch 1 folds them into the estimates.
        let _ = a.decide(&ctx(86_400 + 60, 5));
        // Learning at d = 0.001 probes 2 s contacts with P = 2·0.001/0.02 =
        // 0.1, so each observation is worth 2/0.1 = 20 s: three make 60 s.
        assert!(
            (a.slot_capacity()[7] - 60.0).abs() < 1e-9,
            "{}",
            a.slot_capacity()[7]
        );
        assert_eq!(a.slot_capacity()[8], 0.0);
        assert_eq!(a.inner().name(), "SNIP-RH");
    }

    #[test]
    fn importance_weights_are_unbiased_across_phases() {
        // A marked slot probing every contact and an unmarked slot probing
        // 1-in-N must produce comparable capacity estimates for equal truth.
        let mut a = AdaptiveSnipRh::new(AdaptiveConfig::paper_sketch(24, 4));
        for epoch in 0..3 {
            feed_epoch(&mut a, epoch, &[7, 8, 17, 18], 12);
        }
        let _ = a.decide(&ctx(3 * 86_400 + 60, 5));
        assert_eq!(a.phase(), AdaptivePhase::RushHour);
        let slot7_before = a.slot_capacity()[7];
        // Marked slot 7: knee duty-cycle (P = 1) → 12 contacts count 2 s each.
        for k in 0..12 {
            a.record_probed_contact(&probed_at(3 * 86_400 + 7 * 3_600 + 60 * (k + 1), 2.0));
        }
        // Unmarked slot 12: trickle d = 5e-4 (P = 0.05) → one probe stands
        // in for 20 contacts.
        a.record_probed_contact(&probed_at(3 * 86_400 + 12 * 3_600 + 60, 2.0));
        // Roll one epoch to fold the observations (EWMA with weight 0.1).
        let _ = a.decide(&ctx(4 * 86_400 + 60, 5));
        let retention = 0.9;
        let marked_delta = a.slot_capacity()[7] - retention * slot7_before;
        let unmarked_delta = a.slot_capacity()[12];
        // Epoch observations: marked 12 × 2 = 24 s; unmarked 1 × 2/0.05 =
        // 40 s — the single trickle probe is worth its importance weight, so
        // a shifted rush hour can win despite undersampling.
        assert!(
            (marked_delta - 0.1 * 24.0).abs() < 1e-6,
            "marked Δ = {marked_delta}"
        );
        assert!(
            (unmarked_delta - 0.1 * 40.0).abs() < 1e-6,
            "unmarked Δ = {unmarked_delta}"
        );
    }

    #[test]
    #[should_panic(expected = "more rush slots")]
    fn too_many_rush_slots_rejected() {
        let _ = AdaptiveConfig::paper_sketch(4, 5);
    }

    #[test]
    fn name_is_stable() {
        let a = AdaptiveSnipRh::new(AdaptiveConfig::paper_sketch(24, 4));
        assert_eq!(a.name(), "Adaptive-SNIP-RH");
    }

    /// Learns rush hours 7/8/17/18 over three epochs and rolls into the
    /// rush-hour phase (first decision of epoch 3 triggers the switch).
    fn learned(tracking: f64) -> AdaptiveSnipRh {
        let mut cfg = AdaptiveConfig::paper_sketch(24, 4);
        cfg.tracking_duty_cycle = tracking;
        let mut a = AdaptiveSnipRh::new(cfg);
        for epoch in 0..3 {
            feed_epoch(&mut a, epoch, &[7, 8, 17, 18], 12);
        }
        let _ = a.decide(&ctx(3 * 86_400 + 60, 5));
        assert_eq!(a.phase(), AdaptivePhase::RushHour);
        a
    }

    #[test]
    fn learning_hints_span_the_epoch_under_the_budget() {
        let a = AdaptiveSnipRh::new(AdaptiveConfig::paper_sketch(24, 4));
        // Active at 3 AM: a flat learning duty-cycle to the epoch end.
        let active = ctx(3 * 3_600, 0);
        let span = a.steady_span(&active).unwrap();
        assert_eq!(span.until, SimTime::from_secs(86_400));
        assert_eq!(a.idle_until(&active), None);
        // The span is held to this budget by the driver, which idles to the
        // epoch boundary once it is spent.
        assert_eq!(a.phi_budget(), Some(a.inner().config().phi_max));
    }

    #[test]
    fn tracking_phase_never_goes_idle_while_budget_remains() {
        let mut a = learned(0.000_5);
        // Off-peak noon: the trickle is active, steady to the slot end.
        let noon = ctx(3 * 86_400 + 12 * 3_600, 10);
        assert!(a.decide(&noon).is_some());
        assert_eq!(a.idle_until(&noon), None);
        let span = a.steady_span(&noon).unwrap();
        assert_eq!(span.until, SimTime::from_secs(3 * 86_400 + 13 * 3_600));
    }

    #[test]
    fn tracking_disabled_delegates_idle_bounds_to_the_inner_rh() {
        let mut a = learned(0.0);
        // Off-peak with tracking off: idle until the next learned mark.
        let noon = ctx(3 * 86_400 + 12 * 3_600, 10);
        assert!(a.decide(&noon).is_none());
        assert_eq!(
            a.idle_until(&noon),
            Some(IdleSpan::timed(SimTime::from_secs(3 * 86_400 + 17 * 3_600))),
            "slot 17 is the next learned rush hour"
        );
        assert_eq!(a.steady_span(&noon), None);
        // Starved in a rush slot: the inner data bound is forwarded.
        for k in 0..20 {
            a.record_probed_contact(&probed_at(3 * 86_400 + 7 * 3_600 + 60 * (k + 1), 2.0));
        }
        let starved = ctx(3 * 86_400 + 8 * 3_600, 0);
        assert!(a.decide(&starved).is_none());
        assert_eq!(
            a.idle_until(&starved),
            Some(IdleSpan {
                until: starved.now,
                data_below: Some(DataSize::from_airtime(a.inner().upload_threshold())),
            })
        );
    }

    #[test]
    fn rush_slot_span_requires_the_data_gate_to_hold() {
        let mut a = learned(0.000_5);
        // Teach the inner RH an upload threshold (~1 s per contact).
        for k in 0..20 {
            a.record_probed_contact(&probed_at(3 * 86_400 + 7 * 3_600 + 60 * (k + 1), 2.0));
        }
        let rush_starved = ctx(3 * 86_400 + 8 * 3_600, 0);
        // Starved in a rush slot the trickle still probes, but the decision
        // would jump to the knee as soon as data arrives: no steady span.
        assert!(a.decide(&rush_starved).is_some());
        assert_eq!(a.steady_span(&rush_starved), None);
        // With data in hand the knee is steady to the slot end.
        let rush_fed = ctx(3 * 86_400 + 8 * 3_600, 10);
        let span = a.steady_span(&rush_fed).unwrap();
        assert_eq!(span.until, SimTime::from_secs(3 * 86_400 + 9 * 3_600));
    }
}
