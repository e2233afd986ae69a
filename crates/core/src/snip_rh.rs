//! SNIP-RH: rush-hour-only probing with online-learned duty-cycle (§VI).
//!
//! SNIP runs only when **all three** conditions of §VI-B hold:
//!
//! 1. the current time-slot is marked as a rush hour;
//! 2. the node has buffered at least as much data as it expects to upload in
//!    the next probed contact (an EWMA of past per-contact uploads — so no
//!    probed capacity is wasted);
//! 3. the probing energy spent in the current epoch is below the budget.
//!
//! The scheduler decides conditions 1 and 2 and declares `Φmax` through
//! [`ProbeScheduler::phi_budget`]; the driver enforces condition 3 against
//! its exact per-epoch Φ ledger.
//!
//! When active, the duty-cycle is the knee `d_rh = Ton / T̄contact`, where
//! `T̄contact` is an EWMA of contact lengths learned from probed contacts
//! (§VI-C): below the knee the energy cost per probed second is minimal and
//! flat, above it returns diminish, so the knee maximizes rush-hour capacity
//! at the minimum unit cost.

use serde::{Deserialize, Serialize};
use snip_units::{DataSize, DutyCycle, SimDuration, SimTime};

use crate::estimator::Ewma;
use crate::scheduler::{
    slots, IdleSpan, ProbeContext, ProbeScheduler, ProbedContactInfo, SteadySpan,
};

/// How SNIP-RH estimates the contact length from probed contacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LengthEstimation {
    /// Use the exact contact length when the protocol conveys it (the mobile
    /// node reports its time-in-range on departure). The default.
    Exact,
    /// Use `2 × Tprobed`. At the knee duty-cycle the expected probed tail is
    /// half the contact, so this estimator is self-consistent at the
    /// operating point — a fallback for protocols where only `Tprobed` is
    /// observable.
    DoubleProbed,
}

/// Configuration for [`SnipRh`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnipRhConfig {
    /// Per-slot rush-hour marks ("1"/"0" of §VI-A). Length defines `N`.
    pub rush_marks: Vec<bool>,
    /// Epoch length `Tepoch` (24 h for diurnal human mobility).
    pub epoch: SimDuration,
    /// Beacon window `Ton` of the underlying SNIP.
    pub ton: SimDuration,
    /// Per-epoch probing-energy budget `Φmax` as radio-on time.
    pub phi_max: SimDuration,
    /// EWMA weight for both learned quantities (paper: "a small weight").
    pub ewma_weight: f64,
    /// Initial guess of the mean contact length before any contact is
    /// probed (bootstraps `d_rh`).
    pub initial_contact_length: SimDuration,
    /// How the contact length is estimated from feedback.
    pub length_estimation: LengthEstimation,
    /// Lower clamp on `d_rh`, so a wildly overestimated `T̄contact` cannot
    /// silence probing entirely.
    pub min_duty_cycle: f64,
    /// Multiplier applied to the knee duty-cycle (default 1). §VII-A
    /// suggests "it may be worthwhile to use a larger drh … for increasing
    /// the probed contact capacity" when the rush hours cannot cover the
    /// target at the knee; values above 1 trade unit cost for capacity.
    pub duty_cycle_multiplier: f64,
}

impl SnipRhConfig {
    /// The paper's defaults: 24 h epoch, `Ton = 20 ms`, `Φmax = Tepoch/1000`,
    /// EWMA weight 0.1, 2 s initial contact length, exact length feedback.
    ///
    /// # Panics
    ///
    /// Panics if `rush_marks` is empty.
    #[must_use]
    pub fn paper_defaults(rush_marks: Vec<bool>) -> Self {
        assert!(!rush_marks.is_empty(), "need at least one slot mark");
        SnipRhConfig {
            rush_marks,
            epoch: SimDuration::from_hours(24),
            ton: SimDuration::from_millis(20),
            phi_max: SimDuration::from_secs(86) + SimDuration::from_millis(400),
            ewma_weight: Ewma::PAPER_WEIGHT,
            initial_contact_length: SimDuration::from_secs(2),
            length_estimation: LengthEstimation::Exact,
            min_duty_cycle: 1e-5,
            duty_cycle_multiplier: 1.0,
        }
    }

    /// Replaces the energy budget.
    #[must_use]
    pub fn with_phi_max(mut self, phi_max: SimDuration) -> Self {
        self.phi_max = phi_max;
        self
    }

    /// Replaces the EWMA weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not in `(0, 1]`.
    #[must_use]
    pub fn with_ewma_weight(mut self, weight: f64) -> Self {
        assert!(
            weight > 0.0 && weight <= 1.0,
            "EWMA weight must be in (0, 1]"
        );
        self.ewma_weight = weight;
        self
    }

    /// Replaces the length-estimation mode.
    #[must_use]
    pub fn with_length_estimation(mut self, mode: LengthEstimation) -> Self {
        self.length_estimation = mode;
        self
    }

    /// Scales the knee duty-cycle by `multiplier` (§VII-A's "larger drh").
    ///
    /// # Panics
    ///
    /// Panics if `multiplier` is not positive.
    #[must_use]
    pub fn with_duty_cycle_multiplier(mut self, multiplier: f64) -> Self {
        assert!(
            multiplier.is_finite() && multiplier > 0.0,
            "duty-cycle multiplier must be positive"
        );
        self.duty_cycle_multiplier = multiplier;
        self
    }

    /// Checks what [`SnipRh::new`] asserts: at least one slot mark, an
    /// epoch of at least one microsecond per mark (so that no slot is
    /// empty), a positive `Ton` and initial contact length, an EWMA weight in
    /// `(0, 1]`, a minimum duty-cycle that is a fraction and a positive
    /// duty-cycle multiplier. A configuration read from outside (a journal
    /// header) is checked here before it is built.
    ///
    /// # Errors
    ///
    /// Returns which requirement the configuration breaks.
    pub fn check(&self) -> Result<(), String> {
        let fails = [
            (self.rush_marks.is_empty(), "need at least one slot mark"),
            (self.epoch.is_zero(), "epoch must be positive"),
            (
                self.epoch.as_micros() < self.rush_marks.len() as u64,
                "epoch must be at least one µs per slot mark",
            ),
            (self.ton.is_zero(), "Ton must be positive"),
            (
                self.initial_contact_length.is_zero(),
                "initial contact length must be positive",
            ),
            (
                !(self.ewma_weight > 0.0 && self.ewma_weight <= 1.0),
                "EWMA weight must be in (0, 1]",
            ),
            (
                !(self.min_duty_cycle >= 0.0 && self.min_duty_cycle <= 1.0),
                "minimum duty-cycle must be a fraction",
            ),
            (
                !(self.duty_cycle_multiplier.is_finite() && self.duty_cycle_multiplier > 0.0),
                "duty-cycle multiplier must be positive",
            ),
        ];
        match fails.iter().find(|(failed, _)| *failed) {
            Some((_, why)) => Err((*why).to_string()),
            None => Ok(()),
        }
    }
}

/// The SNIP-RH scheduler (§VI).
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct SnipRh {
    config: SnipRhConfig,
    slot_length: SimDuration,
    /// `T̄contact` in seconds (EWMA, §VI-C).
    contact_length: Ewma,
    /// Mean data uploaded per probed contact, in seconds of airtime (EWMA,
    /// condition 2 of §VI-B).
    upload_per_contact: Ewma,
    /// The knee duty-cycle and condition 2's threshold, derived from the
    /// two EWMAs by [`SnipRh::derive`] whenever they move, so that every
    /// consultation reads them instead of recomputing them.
    rush_duty_cycle: DutyCycle,
    upload_threshold: SimDuration,
}

impl SnipRh {
    /// Creates a SNIP-RH scheduler.
    ///
    /// # Panics
    ///
    /// Panics if [`SnipRhConfig::check`] refuses the configuration (empty
    /// marks, zero epoch or `Ton`, out-of-range EWMA weight…).
    #[must_use]
    pub fn new(config: SnipRhConfig) -> Self {
        config.check().unwrap_or_else(|why| panic!("{why}"));
        let slot_length = config.epoch / config.rush_marks.len() as u64;
        let contact_length = Ewma::seeded(
            config.ewma_weight,
            config.initial_contact_length.as_secs_f64(),
        )
        .expect("weight validated");
        let upload_per_contact = Ewma::new(config.ewma_weight).expect("weight validated");
        let (rush_duty_cycle, upload_threshold) =
            Self::derive(&config, &contact_length, &upload_per_contact);
        SnipRh {
            config,
            slot_length,
            contact_length,
            upload_per_contact,
            rush_duty_cycle,
            upload_threshold,
        }
    }

    /// `T̄contact` from its EWMA, falling back to the initial guess.
    fn mean_length(config: &SnipRhConfig, contact_length: &Ewma) -> SimDuration {
        SimDuration::from_secs_f64(
            contact_length
                .value_or(config.initial_contact_length.as_secs_f64())
                .max(1e-6),
        )
    }

    /// The knee duty-cycle `d_rh = Ton / T̄contact` (§VI-C), scaled by the
    /// multiplier and clamped to `[min_duty_cycle, 1]`, and the expected
    /// upload of the next probed contact (condition 2's threshold, zero
    /// before the first probed contact so that probing bootstraps).
    fn derive(
        config: &SnipRhConfig,
        contact_length: &Ewma,
        upload_per_contact: &Ewma,
    ) -> (DutyCycle, SimDuration) {
        let d = config.duty_cycle_multiplier * config.ton.as_secs_f64()
            / Self::mean_length(config, contact_length).as_secs_f64();
        (
            DutyCycle::clamped(d.max(config.min_duty_cycle)),
            SimDuration::from_secs_f64(upload_per_contact.value_or(0.0).max(0.0)),
        )
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SnipRhConfig {
        &self.config
    }

    /// The current contact-length estimate `T̄contact`.
    #[must_use]
    pub fn mean_contact_length(&self) -> SimDuration {
        Self::mean_length(&self.config, &self.contact_length)
    }

    /// The current rush-hour duty-cycle `d_rh = Ton / T̄contact` (§VI-C),
    /// clamped to `[min_duty_cycle, 1]`.
    #[must_use]
    pub fn rush_duty_cycle(&self) -> DutyCycle {
        self.rush_duty_cycle
    }

    /// The expected upload in the next probed contact (condition 2's
    /// threshold); zero before the first probed contact, so probing
    /// bootstraps.
    #[must_use]
    pub fn upload_threshold(&self) -> SimDuration {
        self.upload_threshold
    }

    /// Condition 2 as an [`IdleSpan::data_below`] bound: the upload
    /// threshold when `ctx` holds less data than it, `None` when the
    /// condition is met. Exact at any later time, because the threshold
    /// only moves on probed-contact feedback.
    #[must_use]
    pub(crate) fn data_below(&self, ctx: &ProbeContext) -> Option<DataSize> {
        let threshold = self.upload_threshold();
        (ctx.buffered_data.as_airtime() < threshold).then(|| DataSize::from_airtime(threshold))
    }

    /// The slot length `Tepoch / N` this scheduler's gates and hints
    /// divide the epoch by — the single source for wrappers whose own
    /// hints must agree with [`SnipRh::in_rush_hour`] bit-exactly.
    #[must_use]
    pub fn slot_length(&self) -> SimDuration {
        self.slot_length
    }

    /// The slot index containing `now`.
    #[must_use]
    pub fn slot_index_at(&self, now: SimTime) -> usize {
        slots::slot_index(
            now,
            self.config.epoch,
            self.slot_length,
            self.config.rush_marks.len(),
        )
    }

    /// Condition 1: is `now` inside a rush-hour slot?
    #[must_use]
    pub fn in_rush_hour(&self, now: SimTime) -> bool {
        self.config.rush_marks[self.slot_index_at(now)]
    }

    /// Replaces the rush-hour marks (used by the adaptive wrapper when its
    /// learned ranking changes).
    ///
    /// # Panics
    ///
    /// Panics if the mark count changes.
    pub fn set_rush_marks(&mut self, marks: Vec<bool>) {
        assert_eq!(
            marks.len(),
            self.config.rush_marks.len(),
            "slot count must not change"
        );
        self.config.rush_marks = marks;
    }
}

impl ProbeScheduler for SnipRh {
    fn decide(&mut self, ctx: &ProbeContext) -> Option<DutyCycle> {
        // Condition 1: rush hour.
        if !self.in_rush_hour(ctx.now) {
            return None;
        }
        // Condition 2: enough buffered data for the next probed contact.
        if ctx.buffered_data.as_airtime() < self.upload_threshold() {
            return None;
        }
        // Condition 3 is the driver's, against `phi_budget`.
        Some(self.rush_duty_cycle())
    }

    fn record_probed_contact(&mut self, info: &ProbedContactInfo) {
        let length_sample = match self.config.length_estimation {
            LengthEstimation::Exact => info
                .contact_length
                .unwrap_or(info.probed_duration * 2)
                .as_secs_f64(),
            LengthEstimation::DoubleProbed => (info.probed_duration * 2).as_secs_f64(),
        };
        if length_sample > 0.0 {
            self.contact_length.observe(length_sample);
        }
        self.upload_per_contact
            .observe(info.uploaded.as_airtime_secs_f64());
        (self.rush_duty_cycle, self.upload_threshold) =
            Self::derive(&self.config, &self.contact_length, &self.upload_per_contact);
    }

    fn name(&self) -> &str {
        "SNIP-RH"
    }

    fn phi_budget(&self) -> Option<SimDuration> {
        Some(self.config.phi_max)
    }

    fn idle_until(&self, ctx: &ProbeContext) -> Option<IdleSpan> {
        // Condition 1 failing is a pure function of time: off until the next
        // marked slot begins, no matter what the buffer does.
        let until = if self.in_rush_hour(ctx.now) {
            ctx.now
        } else {
            slots::next_marked_start(
                ctx.now,
                self.config.epoch,
                self.slot_length,
                self.config.rush_marks.len(),
                |s| self.config.rush_marks[s],
            )
        };
        // Condition 2: the driver, which owns the buffer, finds the wake-up
        // at which it is met.
        let data_below = self.data_below(ctx);
        (until > ctx.now || data_below.is_some()).then_some(IdleSpan { until, data_below })
    }

    fn steady_span(&self, ctx: &ProbeContext) -> Option<SteadySpan> {
        // Within the current rush slot the mark cannot change, the knee
        // duty-cycle and the upload threshold only move on probed-contact
        // feedback, and condition 2 stays satisfied while the buffer only
        // grows.
        if !self.in_rush_hour(ctx.now) {
            return None;
        }
        Some(SteadySpan {
            until: slots::slot_end(
                ctx.now,
                self.config.epoch,
                self.slot_length,
                self.config.rush_marks.len(),
            ),
            // Feedback moves the knee, and an upload empties the buffer
            // that condition 2 reads.
            across_probes: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roadside_marks() -> Vec<bool> {
        let mut marks = vec![false; 24];
        for h in [7, 8, 17, 18] {
            marks[h] = true;
        }
        marks
    }

    fn rh() -> SnipRh {
        SnipRh::new(SnipRhConfig::paper_defaults(roadside_marks()))
    }

    fn ctx(now_s: u64, buffered_s: u64) -> ProbeContext {
        ProbeContext {
            now: SimTime::from_secs(now_s),
            buffered_data: DataSize::from_airtime_secs(buffered_s),
        }
    }

    fn probed(probed_s: f64, uploaded_s: f64, full_len_s: Option<f64>) -> ProbedContactInfo {
        ProbedContactInfo {
            probe_time: SimTime::from_secs(8 * 3_600),
            probed_duration: SimDuration::from_secs_f64(probed_s),
            uploaded: DataSize::from_airtime(SimDuration::from_secs_f64(uploaded_s)),
            contact_length: full_len_s.map(SimDuration::from_secs_f64),
        }
    }

    #[test]
    fn condition_one_rush_hour_only() {
        let mut rh = rh();
        assert!(rh.decide(&ctx(8 * 3_600, 10)).is_some(), "08:00 probes");
        assert!(rh.decide(&ctx(17 * 3_600 + 1, 10)).is_some());
        for off_hour in [0, 6, 9, 12, 16, 19, 23] {
            assert!(
                rh.decide(&ctx(off_hour * 3_600 + 60, 10)).is_none(),
                "{off_hour}:00 must not probe"
            );
        }
    }

    #[test]
    fn condition_two_data_gating() {
        let mut rh = rh();
        // No threshold yet: probing bootstraps even with an empty buffer.
        assert!(rh.decide(&ctx(8 * 3_600, 0)).is_some());
        // Learn that contacts upload ~1 s of airtime.
        for _ in 0..20 {
            rh.record_probed_contact(&probed(1.0, 1.0, Some(2.0)));
        }
        assert!(rh.upload_threshold() > SimDuration::from_millis(900));
        // Empty buffer now fails condition 2…
        assert!(rh.decide(&ctx(8 * 3_600, 0)).is_none());
        // …but a full one passes.
        assert!(rh.decide(&ctx(8 * 3_600, 2)).is_some());
    }

    #[test]
    fn idle_until_bounds_the_data_gate_by_the_threshold() {
        let mut rh = rh();
        // No threshold yet: a rush slot has no bound.
        assert_eq!(rh.idle_until(&ctx(8 * 3_600, 0)), None);
        for _ in 0..20 {
            rh.record_probed_contact(&probed(1.0, 1.0, Some(2.0)));
        }
        let threshold = DataSize::from_airtime(rh.upload_threshold());
        // Starved in a rush slot: off until the buffer holds the threshold.
        let starved = ctx(8 * 3_600, 0);
        assert!(rh.decide(&starved).is_none());
        assert_eq!(
            rh.idle_until(&starved),
            Some(IdleSpan {
                until: starved.now,
                data_below: Some(threshold),
            })
        );
        // Fed: the decision is on, so there is nothing to bound.
        assert_eq!(rh.idle_until(&ctx(8 * 3_600, 2)), None);
        // Off-peak and starved: the next marked slot and the data bound.
        let span = rh.idle_until(&ctx(12 * 3_600, 0)).unwrap();
        assert_eq!(span.until, SimTime::from_secs(17 * 3_600));
        assert_eq!(span.data_below, Some(threshold));
        // Off-peak and fed: the time bound alone.
        assert_eq!(
            rh.idle_until(&ctx(12 * 3_600, 2)),
            Some(IdleSpan::timed(SimTime::from_secs(17 * 3_600)))
        );
    }

    #[test]
    fn duty_cycle_is_the_knee_of_learned_length() {
        let mut rh = rh();
        // Initial: Ton/2 s = 0.01.
        assert!((rh.rush_duty_cycle().as_fraction() - 0.01).abs() < 1e-9);
        // Learn 4 s contacts → knee drops to 0.005.
        for _ in 0..600 {
            rh.record_probed_contact(&probed(2.0, 1.0, Some(4.0)));
        }
        assert!((rh.mean_contact_length().as_secs_f64() - 4.0).abs() < 0.01);
        assert!((rh.rush_duty_cycle().as_fraction() - 0.005).abs() < 1e-4);
    }

    #[test]
    fn double_probed_estimation_consistent_at_knee() {
        let mut rh = SnipRh::new(
            SnipRhConfig::paper_defaults(roadside_marks())
                .with_length_estimation(LengthEstimation::DoubleProbed),
        );
        // At the knee, E[Tprobed] = l/2 = 1 s for 2 s contacts: feeding the
        // average probed tail keeps the estimate at 2 s.
        for _ in 0..100 {
            rh.record_probed_contact(&probed(1.0, 1.0, None));
        }
        assert!((rh.mean_contact_length().as_secs_f64() - 2.0).abs() < 1e-6);
        assert!((rh.rush_duty_cycle().as_fraction() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn exact_mode_falls_back_to_double_probed_without_length() {
        let mut rh = rh();
        for _ in 0..600 {
            rh.record_probed_contact(&probed(1.5, 1.0, None));
        }
        // Falls back to 2 × 1.5 s = 3 s.
        assert!((rh.mean_contact_length().as_secs_f64() - 3.0).abs() < 0.01);
    }

    #[test]
    fn min_duty_cycle_clamp_holds() {
        let mut cfg = SnipRhConfig::paper_defaults(roadside_marks());
        cfg.min_duty_cycle = 0.001;
        let mut rh = SnipRh::new(cfg);
        // Pretend contacts are an hour long: raw knee would be 5.6e-6.
        for _ in 0..600 {
            rh.record_probed_contact(&probed(1_800.0, 1.0, Some(3_600.0)));
        }
        assert!((rh.rush_duty_cycle().as_fraction() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn short_contacts_clamp_duty_cycle_to_one() {
        let mut rh = rh();
        for _ in 0..600 {
            rh.record_probed_contact(&probed(0.005, 0.001, Some(0.01)));
        }
        assert_eq!(rh.rush_duty_cycle(), DutyCycle::ALWAYS_ON);
    }

    #[test]
    fn slot_lookup_spans_epochs() {
        let rh = rh();
        assert!(rh.in_rush_hour(SimTime::from_secs(3 * 86_400 + 8 * 3_600)));
        assert!(!rh.in_rush_hour(SimTime::from_secs(3 * 86_400 + 12 * 3_600)));
        assert_eq!(rh.slot_index_at(SimTime::from_secs(86_400 - 1)), 23);
    }

    #[test]
    fn set_rush_marks_changes_decisions() {
        let mut rh = rh();
        let mut marks = vec![false; 24];
        marks[12] = true;
        rh.set_rush_marks(marks);
        assert!(rh.decide(&ctx(12 * 3_600, 10)).is_some());
        assert!(rh.decide(&ctx(8 * 3_600, 10)).is_none());
    }

    #[test]
    #[should_panic(expected = "slot count must not change")]
    fn set_rush_marks_rejects_resize() {
        rh().set_rush_marks(vec![true; 12]);
    }

    #[test]
    fn check_names_each_broken_field() {
        let ok = SnipRhConfig::paper_defaults(roadside_marks());
        assert_eq!(ok.check(), Ok(()));
        type Break = fn(&mut SnipRhConfig);
        let broken: [(Break, &str); 8] = [
            (|c| c.rush_marks.clear(), "slot mark"),
            (|c| c.epoch = SimDuration::ZERO, "epoch"),
            (
                |c| c.epoch = SimDuration::from_micros(23),
                "one µs per slot mark",
            ),
            (|c| c.ton = SimDuration::ZERO, "Ton"),
            (
                |c| c.initial_contact_length = SimDuration::ZERO,
                "initial contact length",
            ),
            (|c| c.ewma_weight = 7.5, "EWMA weight"),
            (|c| c.min_duty_cycle = f64::NAN, "minimum duty-cycle"),
            (|c| c.duty_cycle_multiplier = 0.0, "multiplier"),
        ];
        for (breaks, names) in broken {
            let mut config = ok.clone();
            breaks(&mut config);
            let why = config.check().expect_err(names);
            assert!(why.contains(names), "{why}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn empty_marks_rejected() {
        let _ = SnipRhConfig::paper_defaults(Vec::new());
    }

    #[test]
    fn duty_cycle_multiplier_scales_the_knee() {
        // §VII-A: a larger drh raises probed capacity when rush hours are
        // thin; multiplier 2 doubles the knee duty-cycle.
        let mut rh = SnipRh::new(
            SnipRhConfig::paper_defaults(roadside_marks()).with_duty_cycle_multiplier(2.0),
        );
        assert!((rh.rush_duty_cycle().as_fraction() - 0.02).abs() < 1e-9);
        // Still clamped to 1 for tiny contacts.
        for _ in 0..600 {
            rh.record_probed_contact(&probed(0.01, 0.001, Some(0.02)));
        }
        assert_eq!(rh.rush_duty_cycle(), DutyCycle::ALWAYS_ON);
    }

    #[test]
    #[should_panic(expected = "multiplier must be positive")]
    fn zero_multiplier_rejected() {
        let _ = SnipRhConfig::paper_defaults(roadside_marks()).with_duty_cycle_multiplier(0.0);
    }

    #[test]
    fn config_builders() {
        let cfg = SnipRhConfig::paper_defaults(roadside_marks())
            .with_phi_max(SimDuration::from_secs(864))
            .with_ewma_weight(0.25);
        assert_eq!(cfg.phi_max, SimDuration::from_secs(864));
        assert_eq!(cfg.ewma_weight, 0.25);
        let rh = SnipRh::new(cfg);
        assert_eq!(rh.name(), "SNIP-RH");
    }
}
