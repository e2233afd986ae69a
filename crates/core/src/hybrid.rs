//! SNIP-RH+AT: the hybrid the paper's conclusion proposes evaluating.
//!
//! §IX: "In future work, we will evaluate SNIP-RH plus SNIP-AT (with a very
//! small duty-cycle) through trace-based simulations". The hybrid keeps
//! SNIP-RH's rush-hour behaviour (all three §VI-B conditions, the knee
//! duty-cycle) and adds an always-on background SNIP-AT at a very small
//! duty-cycle, which:
//!
//! * catches some off-peak contacts, topping up capacity when the rush
//!   hours fall short of the target, and
//! * keeps observing the environment outside rush hours — the raw material
//!   for the seasonal tracking that `AdaptiveSnipRh` automates.
//!
//! Unlike the adaptive scheduler, the hybrid's rush-hour marks are fixed
//! (engineer-provided); it trades a small constant energy floor for
//! robustness to thin rush hours.

use snip_units::{DutyCycle, SimDuration};

use crate::scheduler::{
    slots, IdleSpan, ProbeContext, ProbeScheduler, ProbedContactInfo, SteadySpan,
};
use crate::snip_rh::{SnipRh, SnipRhConfig};

/// The SNIP-RH+AT hybrid scheduler (§IX future work).
///
/// # Examples
///
/// ```
/// use snip_core::{ProbeContext, ProbeScheduler, SnipRhPlusAt, SnipRhConfig};
/// use snip_units::{DataSize, SimTime};
///
/// let mut marks = vec![false; 24];
/// for h in [7, 8, 17, 18] { marks[h] = true; }
/// let mut hybrid = SnipRhPlusAt::new(
///     SnipRhConfig::paper_defaults(marks),
///     0.0002, // background SNIP-AT at 0.02%
/// );
///
/// // Off-peak with pending data: the background duty-cycle applies.
/// let ctx = ProbeContext {
///     now: SimTime::from_secs(12 * 3600),
///     buffered_data: DataSize::from_airtime_secs(5),
/// };
/// let d = hybrid.decide(&ctx).expect("background probing active");
/// assert!((d.as_fraction() - 0.0002).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SnipRhPlusAt {
    inner: SnipRh,
    background: DutyCycle,
}

impl SnipRhPlusAt {
    /// Creates the hybrid from a SNIP-RH configuration and a background
    /// duty-cycle fraction ("very small", e.g. `2e-4`).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `background` is not in
    /// `(0, 1]`.
    #[must_use]
    pub fn new(config: SnipRhConfig, background: f64) -> Self {
        assert!(
            background.is_finite() && background > 0.0 && background <= 1.0,
            "background duty-cycle must be in (0, 1]"
        );
        SnipRhPlusAt {
            inner: SnipRh::new(config),
            background: DutyCycle::clamped(background),
        }
    }

    /// The background SNIP-AT duty-cycle.
    #[must_use]
    pub fn background_duty_cycle(&self) -> DutyCycle {
        self.background
    }

    /// The inner SNIP-RH (learned state).
    #[must_use]
    pub fn inner(&self) -> &SnipRh {
        &self.inner
    }

    /// The energy floor the background probing adds per epoch, in seconds
    /// of radio-on time (before any rush-hour probing).
    #[must_use]
    pub fn background_phi_per_epoch(&self) -> SimDuration {
        self.background.on_time_over(self.inner.config().epoch)
    }
}

impl ProbeScheduler for SnipRhPlusAt {
    fn decide(&mut self, ctx: &ProbeContext) -> Option<DutyCycle> {
        // Rush hours: full SNIP-RH semantics (conditions 1 and 2; the
        // driver holds both branches to the shared budget).
        if let Some(d) = self.inner.decide(ctx) {
            // The background never lowers the rush-hour duty-cycle.
            return Some(if d.as_fraction() >= self.background.as_fraction() {
                d
            } else {
                self.background
            });
        }
        // Outside rush hours (or data-gated): background SNIP-AT, still
        // honouring condition 2 — the background exists to *upload*, so it
        // inherits the data gate, unlike adaptive tracking.
        if ctx.buffered_data.as_airtime() < self.inner.upload_threshold() {
            return None;
        }
        Some(self.background)
    }

    fn record_probed_contact(&mut self, info: &ProbedContactInfo) {
        self.inner.record_probed_contact(info);
    }

    fn name(&self) -> &str {
        "SNIP-RH+AT"
    }

    fn phi_budget(&self) -> Option<SimDuration> {
        self.inner.phi_budget()
    }

    fn idle_until(&self, ctx: &ProbeContext) -> Option<IdleSpan> {
        // Rush knee and background share the data gate, the only reason
        // the hybrid is ever off.
        let data_below = self.inner.data_below(ctx)?;
        Some(IdleSpan {
            until: ctx.now,
            data_below: Some(data_below),
        })
    }

    fn steady_span(&self, ctx: &ProbeContext) -> Option<SteadySpan> {
        // The active decision is `max(knee, background)` inside a rush slot
        // and `background` outside — constant within one slot: the mark
        // cannot change mid-slot, the knee and the upload threshold only
        // move on probed-contact feedback, and condition 2 stays satisfied
        // while the buffer grows.
        let cfg = self.inner.config();
        Some(SteadySpan {
            until: slots::slot_end(
                ctx.now,
                cfg.epoch,
                self.inner.slot_length(),
                cfg.rush_marks.len(),
            ),
            across_probes: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_units::{DataSize, SimTime};

    fn marks() -> Vec<bool> {
        let mut m = vec![false; 24];
        for h in [7, 8, 17, 18] {
            m[h] = true;
        }
        m
    }

    fn hybrid() -> SnipRhPlusAt {
        SnipRhPlusAt::new(SnipRhConfig::paper_defaults(marks()), 0.0002)
    }

    fn ctx(now_s: u64, buffered_s: u64) -> ProbeContext {
        ProbeContext {
            now: SimTime::from_secs(now_s),
            buffered_data: DataSize::from_airtime_secs(buffered_s),
        }
    }

    #[test]
    fn rush_hours_use_the_knee() {
        let mut h = hybrid();
        let d = h.decide(&ctx(8 * 3_600, 10)).unwrap();
        assert!((d.as_fraction() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn off_peak_uses_the_background() {
        let mut h = hybrid();
        let d = h.decide(&ctx(12 * 3_600, 10)).unwrap();
        assert!((d.as_fraction() - 0.0002).abs() < 1e-12);
    }

    #[test]
    fn background_respects_budget_and_data_gates() {
        // The driver gates both branches on the budget the hybrid declares;
        // the data gate is the hybrid's own.
        let mut h = hybrid();
        assert_eq!(h.phi_budget(), Some(h.inner().config().phi_max));
        // Learn an upload threshold, then starve the buffer.
        for _ in 0..20 {
            h.record_probed_contact(&ProbedContactInfo {
                probe_time: SimTime::from_secs(8 * 3_600),
                probed_duration: SimDuration::from_secs(1),
                uploaded: DataSize::from_airtime_secs(1),
                contact_length: Some(SimDuration::from_secs(2)),
            });
        }
        assert!(h.decide(&ctx(12 * 3_600, 0)).is_none(), "data gate");
        assert!(h.decide(&ctx(12 * 3_600, 5)).is_some());
    }

    #[test]
    fn background_never_lowers_rush_duty_cycle() {
        // Pathological: background larger than the knee.
        let mut h = SnipRhPlusAt::new(SnipRhConfig::paper_defaults(marks()), 0.05);
        let d = h.decide(&ctx(8 * 3_600, 10)).unwrap();
        assert!((d.as_fraction() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn energy_floor_accounting() {
        let h = hybrid();
        // 0.02% of 24 h = 17.28 s.
        assert_eq!(
            h.background_phi_per_epoch(),
            SimDuration::from_secs_f64(0.0002 * 86_400.0)
        );
        assert_eq!(h.name(), "SNIP-RH+AT");
        assert_eq!(h.inner().name(), "SNIP-RH");
    }

    #[test]
    #[should_panic(expected = "background duty-cycle")]
    fn zero_background_rejected() {
        let _ = SnipRhPlusAt::new(SnipRhConfig::paper_defaults(marks()), 0.0);
    }

    #[test]
    fn idle_until_bounds_the_shared_data_gate() {
        let mut h = hybrid();
        for _ in 0..20 {
            h.record_probed_contact(&ProbedContactInfo {
                probe_time: SimTime::from_secs(8 * 3_600),
                probed_duration: SimDuration::from_secs(1),
                uploaded: DataSize::from_airtime_secs(1),
                contact_length: Some(SimDuration::from_secs(2)),
            });
        }
        let threshold = DataSize::from_airtime(h.inner().upload_threshold());
        // Starved, in a rush slot or off-peak: off until the buffer holds
        // the threshold, with no time bound of its own.
        for now_s in [8 * 3_600, 12 * 3_600] {
            let starved = ctx(now_s, 0);
            assert!(h.decide(&starved).is_none());
            assert_eq!(
                h.idle_until(&starved),
                Some(IdleSpan {
                    until: starved.now,
                    data_below: Some(threshold),
                })
            );
        }
        // Fed: the decision is on, so there is nothing to bound.
        assert_eq!(h.idle_until(&ctx(12 * 3_600, 10)), None);
    }

    #[test]
    fn steady_span_covers_one_slot_under_the_budget() {
        let h = hybrid();
        // Off-peak: the background duty-cycle is steady to the slot end.
        let span = h.steady_span(&ctx(12 * 3_600 + 600, 10)).unwrap();
        assert_eq!(span.until, SimTime::from_secs(13 * 3_600));
        // Rush hour: same shape (the max(knee, background) is constant).
        let span = h.steady_span(&ctx(8 * 3_600, 10)).unwrap();
        assert_eq!(span.until, SimTime::from_secs(9 * 3_600));
    }
}
