//! The journal's event model: everything a recorded run contains.
//!
//! A journal is a flat stream of [`JournalEvent`]s in a fixed grammar:
//!
//! ```text
//! Header  Contact*  TraceEnd  Sim*  RunEnd
//! ```
//!
//! The header carries enough to *re-execute* the run (scheduler spec,
//! simulation config, RNG seed); the contact section carries the exact input
//! trace; the sim section carries what the run decides (decision changes,
//! beacons inside contacts, uploads, epoch ends); the trailer carries the
//! final metrics. Replay re-runs the header against the recorded trace
//! and verifies the sim section event-for-event.

use serde::{Deserialize, Serialize};
use snip_core::{ProbeScheduler, SnipAt, SnipOptScheduler, SnipRh, SnipRhConfig};
use snip_mobility::{Contact, EpochProfile};
use snip_model::SnipModel;
use snip_sim::{RunMetrics, SimConfig, SimEvent};
use snip_units::DutyCycle;

/// The journal format version this crate writes and replays.
///
/// Bump on any change to the event grammar, to event payload shapes, or to
/// which events a run emits; replay refuses journals from other versions
/// at the header rather than mis-decoding them.
///
/// Version history:
/// * 1 — initial grammar; one `Decision` per wake-up, one `Probe` per
///   beacon.
/// * 2 — provably-off wake-ups are elided, runs of empty probing cycles
///   collapse into one batch event each.
/// * 3 — exact integer-µs metrics ledgers: `EpochEnd`/`RunEnd` metric
///   payloads carry integer microseconds (`zeta_us`, `slot_phi_us`, …)
///   instead of float seconds.
/// * 4 — the stream records what the run decides, not how the simulator
///   stepped: a `Decision` only when the effective decision changes, a
///   `Probe { at, beacon_heard, contact }` only for a beacon that lands
///   inside a contact, and no event for a beacon in empty air (the batch
///   event is gone). Fast and naive steppers write the same journal.
/// * 5 — a SNIP-OPT header's `EpochProfile` is written as its distinct
///   slots plus one index per slot.
pub const JOURNAL_VERSION: u32 = 5;

/// A rebuildable description of the recorded scheduler.
///
/// The spec must contain everything needed to reconstruct the exact
/// scheduler configuration — replay rebuilds it from here, so any drift
/// between the recorded spec and the current scheduler *code* surfaces as a
/// first-divergence report instead of silently different results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchedulerSpec {
    /// SNIP-AT at a fixed, offline-resolved duty-cycle.
    At {
        /// The fixed probing duty-cycle.
        duty_cycle: DutyCycle,
    },
    /// SNIP-RH with its full configuration (marks, budget, EWMA parameters).
    Rh {
        /// The complete SNIP-RH configuration.
        config: SnipRhConfig,
    },
    /// SNIP-OPT: the optimizer re-solves deterministically from the profile.
    Opt {
        /// The epoch profile the plan was solved against.
        profile: EpochProfile,
        /// Per-epoch probing budget `Φmax`, seconds.
        phi_max_secs: f64,
        /// Capacity target `ζtarget`, seconds per epoch.
        zeta_target: f64,
    },
}

impl SchedulerSpec {
    /// The paper's name for the mechanism.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerSpec::At { .. } => "SNIP-AT",
            SchedulerSpec::Rh { .. } => "SNIP-RH",
            SchedulerSpec::Opt { .. } => "SNIP-OPT",
        }
    }

    /// The first field no constructor of the scheduler would accept, named
    /// with its type, if any: a SNIP-RH configuration [`SnipRh::new`]
    /// refuses, or a SNIP-OPT budget or target that is not finite and
    /// positive. A SNIP-AT duty-cycle is checked when it is decoded.
    ///
    /// # Errors
    ///
    /// Returns the type and the complaint, as `"Type: why"`.
    pub fn check(&self) -> Result<(), String> {
        match self {
            SchedulerSpec::At { .. } => Ok(()),
            SchedulerSpec::Rh { config } => {
                config.check().map_err(|why| format!("SnipRhConfig: {why}"))
            }
            SchedulerSpec::Opt {
                phi_max_secs,
                zeta_target,
                ..
            } => {
                for (value, why) in [
                    (phi_max_secs, "Φmax must be positive"),
                    (zeta_target, "ζtarget must be positive"),
                ] {
                    if !(value.is_finite() && *value > 0.0) {
                        return Err(format!("SchedulerSpec::Opt: {why}, got {value}"));
                    }
                }
                Ok(())
            }
        }
    }

    /// Reconstructs the scheduler exactly as recorded.
    #[must_use]
    pub fn build(&self, config: &SimConfig) -> Box<dyn ProbeScheduler> {
        match self {
            SchedulerSpec::At { duty_cycle } => Box::new(SnipAt::new(*duty_cycle)),
            SchedulerSpec::Rh { config } => Box::new(SnipRh::new(config.clone())),
            SchedulerSpec::Opt {
                profile,
                phi_max_secs,
                zeta_target,
            } => Box::new(SnipOptScheduler::solve(
                SnipModel::new(config.ton),
                profile.to_slot_profile(),
                *phi_max_secs,
                *zeta_target,
            )),
        }
    }
}

/// The journal header: provenance plus everything replay needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Format version ([`JOURNAL_VERSION`]).
    pub version: u32,
    /// Mechanism label, for humans ("SNIP-RH", …).
    pub mechanism: String,
    /// The rebuildable scheduler description.
    pub scheduler: SchedulerSpec,
    /// The simulation configuration of the run.
    pub config: SimConfig,
    /// RNG seed of the simulation run (beacon-loss draws).
    pub seed: u64,
    /// Free-form provenance (scenario name, trace origin, CLI invocation).
    pub comment: String,
}

impl JournalHeader {
    /// A header for the given scheduler and config at [`JOURNAL_VERSION`].
    #[must_use]
    pub fn new(scheduler: SchedulerSpec, config: SimConfig, seed: u64) -> Self {
        JournalHeader {
            version: JOURNAL_VERSION,
            mechanism: scheduler.label().to_string(),
            scheduler,
            config,
            seed,
            comment: String::new(),
        }
    }

    /// Attaches a provenance comment.
    #[must_use]
    pub fn with_comment(mut self, comment: impl Into<String>) -> Self {
        self.comment = comment.into();
        self
    }
}

/// One record of a journal stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalEvent {
    /// The journal header (always first).
    Header(JournalHeader),
    /// One contact of the input trace, in order.
    Contact(Contact),
    /// End of the trace section, with the expected contact count
    /// (truncation check for streamed journals).
    TraceEnd {
        /// Number of `Contact` events that preceded this marker.
        count: u64,
    },
    /// One simulation event, in execution order.
    Sim(SimEvent),
    /// End of the run (always last), with the final metrics.
    RunEnd {
        /// The run's complete per-epoch and per-slot metrics.
        metrics: RunMetrics,
    },
}

impl JournalEvent {
    /// A short name of the event kind, for diagnostics.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::Header(_) => "Header",
            JournalEvent::Contact(_) => "Contact",
            JournalEvent::TraceEnd { .. } => "TraceEnd",
            JournalEvent::Sim(_) => "Sim",
            JournalEvent::RunEnd { .. } => "RunEnd",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_units::{SimDuration, SimTime};

    #[test]
    fn scheduler_specs_build_their_mechanism() {
        let config = SimConfig::paper_defaults();
        let specs = [
            SchedulerSpec::At {
                duty_cycle: DutyCycle::new(0.001).unwrap(),
            },
            SchedulerSpec::Rh {
                config: SnipRhConfig::paper_defaults(vec![true; 24]),
            },
            SchedulerSpec::Opt {
                profile: EpochProfile::roadside(),
                phi_max_secs: 864.0,
                zeta_target: 16.0,
            },
        ];
        for spec in specs {
            let scheduler = spec.build(&config);
            assert_eq!(scheduler.name(), spec.label());
        }
    }

    #[test]
    fn check_names_the_scheduler_type_and_the_field() {
        let opt = |phi_max_secs, zeta_target| SchedulerSpec::Opt {
            profile: EpochProfile::roadside(),
            phi_max_secs,
            zeta_target,
        };
        assert_eq!(opt(864.0, 16.0).check(), Ok(()));
        for (spec, why) in [
            (opt(-1.0, 16.0), "SchedulerSpec::Opt: Φmax must be positive"),
            (
                opt(f64::NAN, 16.0),
                "SchedulerSpec::Opt: Φmax must be positive",
            ),
            (
                opt(864.0, 0.0),
                "SchedulerSpec::Opt: ζtarget must be positive",
            ),
            (
                opt(864.0, f64::INFINITY),
                "SchedulerSpec::Opt: ζtarget must be positive",
            ),
            (
                SchedulerSpec::Rh {
                    config: SnipRhConfig {
                        ewma_weight: 7.5,
                        ..SnipRhConfig::paper_defaults(vec![true; 24])
                    },
                },
                "SnipRhConfig: EWMA weight",
            ),
        ] {
            let err = spec.check().expect_err(why);
            assert!(err.starts_with(why), "{err}");
        }
    }

    #[test]
    fn events_round_trip_through_serde() {
        let header = JournalHeader::new(
            SchedulerSpec::At {
                duty_cycle: DutyCycle::new(0.01).unwrap(),
            },
            SimConfig::paper_defaults().with_epochs(2),
            42,
        )
        .with_comment("roadside");
        let events = [
            JournalEvent::Header(header),
            JournalEvent::Contact(Contact::new(
                SimTime::from_secs(10),
                SimDuration::from_secs(2),
            )),
            JournalEvent::TraceEnd { count: 1 },
            JournalEvent::RunEnd {
                metrics: RunMetrics::with_epochs(2),
            },
        ];
        for e in &events {
            let back = JournalEvent::from_value(&e.to_value()).unwrap();
            assert_eq!(&back, e, "{}", e.kind());
        }
    }

    #[test]
    fn version_constant_is_stamped() {
        let h = JournalHeader::new(
            SchedulerSpec::At {
                duty_cycle: DutyCycle::OFF,
            },
            SimConfig::paper_defaults(),
            0,
        );
        assert_eq!(h.version, JOURNAL_VERSION);
        assert_eq!(h.mechanism, "SNIP-AT");
    }
}
