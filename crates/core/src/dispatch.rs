//! Enum-based static dispatch over the paper's three mechanisms.
//!
//! `Box<dyn ProbeScheduler>` keeps the scheduler interface open for
//! extension, but pays a virtual call on every CPU wake-up — millions of
//! them in a two-week sweep. [`MechanismScheduler`] closes the set to the
//! three mechanisms the paper compares, so the simulator's inner loop
//! monomorphizes to a jump-free `match` and the hint methods inline. The
//! [`ProbeScheduler`] trait remains the extension point for everything else
//! (adaptive, hybrid, ablation schedulers).

use snip_units::{DutyCycle, SimDuration};

use crate::scheduler::{IdleSpan, ProbeContext, ProbeScheduler, ProbedContactInfo, SteadySpan};
use crate::snip_at::SnipAt;
use crate::snip_opt::SnipOptScheduler;
use crate::snip_rh::SnipRh;

/// One of the paper's three scheduling mechanisms, dispatched statically.
#[derive(Debug, Clone)]
pub enum MechanismScheduler {
    /// SNIP-AT: one fixed duty-cycle, all the time.
    At(SnipAt),
    /// SNIP-OPT: playback of the two-step optimizer's per-slot plan.
    Opt(SnipOptScheduler),
    /// SNIP-RH: rush-hour-only probing with online learning.
    Rh(SnipRh),
}

impl MechanismScheduler {
    /// The wrapped SNIP-RH scheduler, when this is one (for inspecting
    /// learned state after a run).
    #[must_use]
    pub fn as_rh(&self) -> Option<&SnipRh> {
        match self {
            MechanismScheduler::Rh(rh) => Some(rh),
            _ => None,
        }
    }
}

impl ProbeScheduler for MechanismScheduler {
    fn decide(&mut self, ctx: &ProbeContext) -> Option<DutyCycle> {
        match self {
            MechanismScheduler::At(s) => s.decide(ctx),
            MechanismScheduler::Opt(s) => s.decide(ctx),
            MechanismScheduler::Rh(s) => s.decide(ctx),
        }
    }

    fn record_probed_contact(&mut self, info: &ProbedContactInfo) {
        match self {
            MechanismScheduler::At(s) => s.record_probed_contact(info),
            MechanismScheduler::Opt(s) => s.record_probed_contact(info),
            MechanismScheduler::Rh(s) => s.record_probed_contact(info),
        }
    }

    fn name(&self) -> &str {
        match self {
            MechanismScheduler::At(s) => s.name(),
            MechanismScheduler::Opt(s) => s.name(),
            MechanismScheduler::Rh(s) => s.name(),
        }
    }

    fn phi_budget(&self) -> Option<SimDuration> {
        match self {
            MechanismScheduler::At(s) => s.phi_budget(),
            MechanismScheduler::Opt(s) => s.phi_budget(),
            MechanismScheduler::Rh(s) => s.phi_budget(),
        }
    }

    fn idle_until(&self, ctx: &ProbeContext) -> Option<IdleSpan> {
        match self {
            MechanismScheduler::At(s) => s.idle_until(ctx),
            MechanismScheduler::Opt(s) => s.idle_until(ctx),
            MechanismScheduler::Rh(s) => s.idle_until(ctx),
        }
    }

    fn steady_span(&self, ctx: &ProbeContext) -> Option<SteadySpan> {
        match self {
            MechanismScheduler::At(s) => s.steady_span(ctx),
            MechanismScheduler::Opt(s) => s.steady_span(ctx),
            MechanismScheduler::Rh(s) => s.steady_span(ctx),
        }
    }
}

impl From<SnipAt> for MechanismScheduler {
    fn from(s: SnipAt) -> Self {
        MechanismScheduler::At(s)
    }
}

impl From<SnipOptScheduler> for MechanismScheduler {
    fn from(s: SnipOptScheduler) -> Self {
        MechanismScheduler::Opt(s)
    }
}

impl From<SnipRh> for MechanismScheduler {
    fn from(s: SnipRh) -> Self {
        MechanismScheduler::Rh(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SnipRhConfig;
    use snip_units::{DataSize, SimTime};

    fn ctx(now_s: u64) -> ProbeContext {
        ProbeContext {
            now: SimTime::from_secs(now_s),
            buffered_data: DataSize::from_airtime_secs(10),
        }
    }

    #[test]
    fn enum_forwards_every_trait_method() {
        let mut marks = vec![false; 24];
        marks[8] = true;
        let rh = SnipRh::new(SnipRhConfig::paper_defaults(marks));
        let mut m: MechanismScheduler = rh.into();
        assert_eq!(m.name(), "SNIP-RH");
        assert_eq!(m.phi_budget(), Some(m.as_rh().unwrap().config().phi_max));
        assert!(m.as_rh().is_some());
        // 08:00 is marked: active, with a steady span to the slot end.
        let rush = ctx(8 * 3_600);
        assert!(m.decide(&rush).is_some());
        let span = m.steady_span(&rush).expect("rush slot is steady");
        assert_eq!(span.until, SimTime::from_secs(9 * 3_600));
        // Noon is off: idle until the next day's marked slot.
        let noon = ctx(12 * 3_600);
        assert!(m.decide(&noon).is_none());
        assert_eq!(
            m.idle_until(&noon),
            Some(IdleSpan::timed(SimTime::from_secs(86_400 + 8 * 3_600)))
        );
        m.record_probed_contact(&ProbedContactInfo {
            probe_time: SimTime::from_secs(8 * 3_600),
            probed_duration: SimDuration::from_secs(1),
            uploaded: DataSize::from_airtime_secs(1),
            contact_length: Some(SimDuration::from_secs(2)),
        });
        // The feedback taught a threshold: a starved rush slot is off until
        // the buffer holds it.
        let starved = ProbeContext {
            buffered_data: DataSize::ZERO,
            ..rush
        };
        assert!(m.decide(&starved).is_none());
        let threshold = m.as_rh().unwrap().upload_threshold();
        assert!(!threshold.is_zero());
        assert_eq!(
            m.idle_until(&starved),
            Some(IdleSpan {
                until: rush.now,
                data_below: Some(DataSize::from_airtime(threshold)),
            })
        );
    }

    #[test]
    fn at_and_opt_wrap_too() {
        let at: MechanismScheduler = SnipAt::new(DutyCycle::new(0.001).unwrap()).into();
        assert_eq!(at.name(), "SNIP-AT");
        assert!(at.as_rh().is_none());
        let span = at.steady_span(&ctx(0)).expect("AT is always steady");
        assert_eq!(span.until, SimTime::MAX);
        assert_eq!(at.phi_budget(), None);

        let opt: MechanismScheduler = SnipOptScheduler::solve(
            snip_model::SnipModel::default(),
            snip_model::SlotProfile::roadside(),
            86.4,
            16.0,
        )
        .into();
        assert_eq!(opt.name(), "SNIP-OPT");
        assert_eq!(opt.phi_budget(), None);
        // Noon is unfunded under the tight budget: an idle bound exists.
        assert!(opt.idle_until(&ctx(12 * 3_600)).is_some());
    }
}
