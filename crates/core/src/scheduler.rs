//! The scheduler interface: what every SNIP scheduling mechanism implements.
//!
//! The paper's reference model (§VI-B) has the sensor node's CPU wake up
//! periodically and decide whether to carry out SNIP. [`ProbeScheduler`]
//! captures exactly that decision — plus the feedback path through which a
//! mechanism learns from probed contacts (SNIP-RH's EWMAs, adaptive rush-hour
//! learning).
//!
//! Condition 3 of §VI-B, the per-epoch energy budget, is not part of the
//! decision: a scheduler declares its `Φmax` through
//! [`ProbeScheduler::phi_budget`], and the driver, which keeps the exact
//! per-epoch Φ ledger, enforces it.

use serde::{Deserialize, Serialize};
use snip_units::{DataSize, DutyCycle, SimDuration, SimTime};

/// What the scheduler sees when asked for a decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeContext {
    /// Current simulated time.
    pub now: SimTime,
    /// Sensed data currently buffered and awaiting upload.
    pub buffered_data: DataSize,
}

/// Feedback after a successfully probed contact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbedContactInfo {
    /// When the probing beacon reached the mobile node.
    pub probe_time: SimTime,
    /// `Tprobed`: time from the probe to the mobile node leaving range.
    pub probed_duration: SimDuration,
    /// Data actually uploaded during the probed window.
    pub uploaded: DataSize,
    /// The full contact length `Tcontact`, when the protocol conveys it
    /// (e.g. the mobile node reports how long it has been in range);
    /// `None` when the sensor can only observe `Tprobed`.
    pub contact_length: Option<SimDuration>,
}

/// A scheduler decision in recordable form: what a record/replay journal
/// stores whenever the decision a driver acts on changes.
///
/// Serializes compactly (`now` as microseconds, the duty-cycle as a bare
/// fraction or `null`), and compares exactly — replay divergence detection
/// relies on bit-for-bit [`PartialEq`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// When the scheduler was asked.
    pub now: SimTime,
    /// The decision: `Some(d)` to probe at duty-cycle `d`, `None` for radio
    /// off.
    pub duty_cycle: Option<DutyCycle>,
}

/// A stability guarantee for an *active* decision, used by fast-path
/// drivers to batch consecutive probing cycles without re-consulting the
/// scheduler (see [`ProbeScheduler::steady_span`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadySpan {
    /// The decision is guaranteed unchanged for any wake-up strictly before
    /// this instant…
    pub until: SimTime,
    /// …and, when set, also across probed contacts: neither
    /// [`record_probed_contact`](ProbeScheduler::record_probed_contact) nor
    /// the upload that drains the buffer can change the decision before
    /// `until`. A scheduler that learns from feedback (SNIP-RH's knee, its
    /// data gate) must leave it clear, and so must a wrapper whose own
    /// feedback can change [`decide`](ProbeScheduler::decide), even when
    /// the span it wraps sets it.
    pub across_probes: bool,
}

/// A guarantee for an *off* decision, used by fast-path drivers to skip
/// wake-ups without consulting the scheduler (see
/// [`ProbeScheduler::idle_until`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdleSpan {
    /// The decision stays off at every wake-up strictly before this
    /// instant…
    pub until: SimTime,
    /// …and at every wake-up where the buffer holds less than this.
    /// `None` when there is no data bound.
    pub data_below: Option<DataSize>,
}

impl IdleSpan {
    /// A pure time bound: off at every wake-up before `until`.
    #[must_use]
    pub(crate) const fn timed(until: SimTime) -> Self {
        IdleSpan {
            until,
            data_below: None,
        }
    }
}

/// A SNIP scheduling mechanism.
///
/// Implementations decide whether SNIP probing is active *right now* and at
/// what duty-cycle; the driver (simulator or deployment runtime) translates
/// an active decision into duty-cycled beacon transmission.
pub trait ProbeScheduler {
    /// Decides whether SNIP should run at `ctx.now`.
    ///
    /// Returns `Some(d)` to probe with duty-cycle `d`, or `None` to keep the
    /// radio off until the next wake-up.
    fn decide(&mut self, ctx: &ProbeContext) -> Option<DutyCycle>;

    /// Feeds back a successfully probed contact (for online learning).
    ///
    /// The default implementation ignores the feedback — correct for
    /// mechanisms with offline-chosen parameters like SNIP-AT and SNIP-OPT.
    fn record_probed_contact(&mut self, info: &ProbedContactInfo) {
        let _ = info;
    }

    /// A short human-readable mechanism name ("SNIP-AT", "SNIP-RH", …).
    fn name(&self) -> &str;

    /// The per-epoch probing budget `Φmax` (condition 3 of §VI-B), or
    /// `None` when the scheduler probes without one.
    ///
    /// The driver enforces it against its exact per-epoch Φ ledger: it
    /// still consults [`decide`](ProbeScheduler::decide), but acts on an
    /// active decision only while one more beacon window fits inside the
    /// budget, so the epoch's spend never exceeds `Φmax`; otherwise the
    /// radio stays off until the ledger resets at the next epoch. Required,
    /// with no default, so that a wrapper cannot silently drop the budget
    /// of the scheduler it wraps.
    fn phi_budget(&self) -> Option<SimDuration>;

    /// Fast-path hint while the radio is **off**: the wake-ups at which the
    /// scheduler *guarantees* [`decide`](ProbeScheduler::decide) would keep
    /// returning off/`None`, letting the driver skip them instead of
    /// stepping through them one decision interval at a time.
    ///
    /// The decision must stay off at every wake-up before `span.until`: for
    /// every context with `now` in `[ctx.now, span.until)` whose
    /// `buffered_data` is at least `ctx`'s (it does not decrease while the
    /// radio is off). It must also stay off at every later wake-up whose
    /// `buffered_data` is below `span.data_below` (when set), whatever its
    /// `now`. Both guarantees assume no intervening
    /// [`record_probed_contact`](ProbeScheduler::record_probed_contact).
    /// The driver owns the buffer, so it finds the first wake-up at which
    /// the data bound can be met. Return `None` when no bound is known —
    /// the driver then falls back to periodic wake-ups. The default is
    /// `None`, which is always correct.
    fn idle_until(&self, ctx: &ProbeContext) -> Option<IdleSpan> {
        let _ = ctx;
        None
    }

    /// Fast-path hint while the radio is **on**: a window within which the
    /// scheduler *guarantees* [`decide`](ProbeScheduler::decide) would keep
    /// returning the exact same duty-cycle, letting the driver run several
    /// probing cycles per consultation.
    ///
    /// The guarantee must hold for every context with `now` in
    /// `[ctx.now, span.until)` whose `buffered_data` is at least `ctx`'s,
    /// with no intervening
    /// [`record_probed_contact`](ProbeScheduler::record_probed_contact).
    /// The budget is not the span's concern: the driver stops the span
    /// itself once [`phi_budget`](ProbeScheduler::phi_budget) has no room
    /// for another window.
    /// With `span.across_probes` set it must hold whatever the buffer and
    /// whatever feedback arrives in between, so the driver may step on
    /// through probed contacts without asking again. The default is `None`
    /// (no guarantee), which is always correct.
    fn steady_span(&self, ctx: &ProbeContext) -> Option<SteadySpan> {
        let _ = ctx;
        None
    }
}

/// Slot-of-epoch arithmetic shared by the fast-path hints of the concrete
/// schedulers. All helpers follow the same tail convention as the slot
/// lookups they mirror: when the epoch is not an exact multiple of the slot
/// length, the last slot absorbs the remainder.
pub(crate) mod slots {
    use snip_units::{SimDuration, SimTime};

    /// The first instant of the epoch after the one containing `now`.
    pub(crate) fn next_epoch_start(now: SimTime, epoch: SimDuration) -> SimTime {
        (now - now.time_in_epoch(epoch)) + epoch
    }

    /// The end of the (tail-capped) slot containing `now`, given `n` slots
    /// of `slot_length` per `epoch`.
    pub(crate) fn slot_end(
        now: SimTime,
        epoch: SimDuration,
        slot_length: SimDuration,
        n: usize,
    ) -> SimTime {
        let epoch_start = now - now.time_in_epoch(epoch);
        let cur = slot_index(now, epoch, slot_length, n);
        if cur + 1 >= n {
            epoch_start + epoch
        } else {
            epoch_start + slot_length * (cur as u64 + 1)
        }
    }

    /// The slot index containing `now` (tail-capped to `n - 1`).
    pub(crate) fn slot_index(
        now: SimTime,
        epoch: SimDuration,
        slot_length: SimDuration,
        n: usize,
    ) -> usize {
        ((now.time_in_epoch(epoch) / slot_length) as usize).min(n - 1)
    }

    /// The start of the first slot strictly after `now`'s whose index
    /// satisfies `marked`, scanning at most one full epoch ahead;
    /// [`SimTime::MAX`] when no slot ever matches.
    pub(crate) fn next_marked_start(
        now: SimTime,
        epoch: SimDuration,
        slot_length: SimDuration,
        n: usize,
        marked: impl Fn(usize) -> bool,
    ) -> SimTime {
        let epoch_start = now - now.time_in_epoch(epoch);
        let cur = slot_index(now, epoch, slot_length, n);
        for k in 1..=n {
            let s = (cur + k) % n;
            if marked(s) {
                return if cur + k < n {
                    epoch_start + slot_length * (cur + k) as u64
                } else {
                    epoch_start + epoch + slot_length * s as u64
                };
            }
        }
        SimTime::MAX
    }
}

impl<S: ProbeScheduler + ?Sized> ProbeScheduler for Box<S> {
    fn decide(&mut self, ctx: &ProbeContext) -> Option<DutyCycle> {
        (**self).decide(ctx)
    }

    fn record_probed_contact(&mut self, info: &ProbedContactInfo) {
        (**self).record_probed_contact(info);
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn phi_budget(&self) -> Option<SimDuration> {
        (**self).phi_budget()
    }

    fn idle_until(&self, ctx: &ProbeContext) -> Option<IdleSpan> {
        (**self).idle_until(ctx)
    }

    fn steady_span(&self, ctx: &ProbeContext) -> Option<SteadySpan> {
        (**self).steady_span(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial scheduler used to exercise the trait-object path.
    struct AlwaysOn;

    impl ProbeScheduler for AlwaysOn {
        fn decide(&mut self, _ctx: &ProbeContext) -> Option<DutyCycle> {
            Some(DutyCycle::ALWAYS_ON)
        }

        fn name(&self) -> &str {
            "always-on"
        }

        fn phi_budget(&self) -> Option<SimDuration> {
            None
        }
    }

    fn ctx() -> ProbeContext {
        ProbeContext {
            now: SimTime::ZERO,
            buffered_data: DataSize::ZERO,
        }
    }

    #[test]
    fn trait_objects_work() {
        let mut s: Box<dyn ProbeScheduler> = Box::new(AlwaysOn);
        assert_eq!(s.decide(&ctx()), Some(DutyCycle::ALWAYS_ON));
        assert_eq!(s.name(), "always-on");
        assert_eq!(s.phi_budget(), None);
        // Default feedback hook is a no-op.
        s.record_probed_contact(&ProbedContactInfo {
            probe_time: SimTime::ZERO,
            probed_duration: SimDuration::from_secs(1),
            uploaded: DataSize::ZERO,
            contact_length: None,
        });
    }
}
