//! The recording hook: what a simulation run decides, as a stream of
//! serializable events.
//!
//! A [`SimObserver`] sees every change of the scheduler's decision, every
//! beacon that lands inside a contact, every upload and every epoch
//! boundary as the simulation executes. The stream depends only on the
//! run, not on how the simulator stepped through it: the fast path and the
//! naive reference stepper emit the same events. The `snip-replay` crate
//! builds its journal recorder and its replay verifier on this trait;
//! anything else (live dashboards, debuggers, invariant checkers) can hook
//! in the same way.
//!
//! Observers are deliberately *streaming*: events are borrowed, emitted in
//! execution order, and never buffered by the simulator, so a multi-week
//! fleet run records in O(1) memory.

use serde::{Deserialize, Serialize};
use snip_core::DecisionRecord;
use snip_mobility::Contact;
use snip_units::{DataSize, SimTime};

use crate::metrics::EpochMetrics;

/// One observable simulation event.
///
/// Events serialize with serde and compare exactly ([`PartialEq`] is
/// bit-for-bit on the embedded floats) — the properties record/replay
/// divergence detection depends on. Beacons that find empty air emit
/// nothing: they are counted in [`EpochMetrics::beacons`] and charged to
/// its Φ.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SimEvent {
    /// The scheduler's effective decision changed (an off duty-cycle counts
    /// as `None`). The first consultation of a run is always reported.
    Decision(DecisionRecord),
    /// A beacon landed inside a contact.
    Probe {
        /// When the beacon was sent.
        at: SimTime,
        /// Whether the beacon survived injected loss; if it did, the
        /// contact was probed and `Tprobed` is `contact.end() − at`.
        beacon_heard: bool,
        /// The contact the beacon landed in.
        contact: Contact,
    },
    /// Buffered data was uploaded during a probed contact.
    Upload {
        /// When the upload started.
        at: SimTime,
        /// Airtime actually uploaded.
        airtime: DataSize,
    },
    /// An epoch completed with these final metrics.
    EpochEnd {
        /// Zero-based epoch index.
        epoch: u64,
        /// The epoch's final metrics (ζ, Φ, uploads, counts).
        metrics: EpochMetrics,
    },
}

/// Whether the simulation should keep running after an event.
///
/// Returned by [`SimObserver::observe`]; a replay verifier stops the run at
/// the first divergence instead of simulating to the horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserverFlow {
    /// Keep simulating.
    Continue,
    /// Abort the run; `run_observed` returns the metrics collected so far.
    Stop,
}

/// A hook receiving every [`SimEvent`] of a run, in execution order.
pub trait SimObserver {
    /// Handles one event; return [`ObserverFlow::Stop`] to abort the run.
    fn observe(&mut self, event: &SimEvent) -> ObserverFlow;
}

/// The do-nothing observer behind the plain `run` entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl SimObserver for NoopObserver {
    fn observe(&mut self, _event: &SimEvent) -> ObserverFlow {
        ObserverFlow::Continue
    }
}

/// An observer that buffers every event (tests, small runs).
#[derive(Debug, Clone, Default)]
pub struct CollectingObserver {
    /// The events observed so far.
    pub events: Vec<SimEvent>,
}

impl SimObserver for CollectingObserver {
    fn observe(&mut self, event: &SimEvent) -> ObserverFlow {
        self.events.push(event.clone());
        ObserverFlow::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_units::SimDuration;

    #[test]
    fn noop_continues_and_collector_collects() {
        let event = SimEvent::Decision(DecisionRecord {
            now: SimTime::from_secs(60),
            duty_cycle: None,
        });
        assert_eq!(NoopObserver.observe(&event), ObserverFlow::Continue);
        let mut c = CollectingObserver::default();
        assert_eq!(c.observe(&event), ObserverFlow::Continue);
        assert_eq!(c.events, vec![event]);
    }

    #[test]
    fn events_round_trip_through_serde() {
        use serde::{Deserialize as _, Serialize as _};
        let events = vec![
            SimEvent::Decision(DecisionRecord {
                now: SimTime::from_secs(60),
                duty_cycle: None,
            }),
            SimEvent::Probe {
                at: SimTime::from_secs(61),
                beacon_heard: true,
                contact: Contact::new(SimTime::from_secs(60), SimDuration::from_secs(2)),
            },
            SimEvent::Upload {
                at: SimTime::from_secs(61),
                airtime: DataSize::from_airtime_secs(1),
            },
            SimEvent::EpochEnd {
                epoch: 0,
                metrics: {
                    let mut em = EpochMetrics::default();
                    em.charge_zeta(SimDuration::from_secs_f64(8.8));
                    em.charge_phi(SimDuration::from_secs_f64(86.4));
                    em
                },
            },
        ];
        for e in &events {
            let back = SimEvent::from_value(&e.to_value()).unwrap();
            assert_eq!(&back, e);
        }
    }
}
