//! Discrete-event simulation of duty-cycled contact probing.
//!
//! This crate replaces the paper's Contiki-OS + COOJA stack. COOJA's role in
//! the evaluation is narrow: drive a duty-cycled radio over a synthetic
//! contact schedule and meter the radio-on time. The simulator here replays
//! the same contact processes at microsecond resolution against the same
//! scheduling logic, and accounts ζ (probed capacity), Φ (probing on-time)
//! and ρ = Φ/ζ exactly as the paper reports them.
//!
//! * [`config`] — simulation parameters (builder).
//! * [`buffer`] — the sensed-data buffer with constant-rate generation.
//! * [`node`] — the SNIP sensor-node simulation: beacon at every cycle
//!   start, probe contacts, upload buffered data, learn online.
//! * [`mip`] — the mobile-node-initiated probing baseline simulation.
//! * [`metrics`] — per-epoch and aggregate metrics.
//! * [`observe`] — the recording hook: decision changes, beacons inside
//!   contacts, uploads and epoch boundaries as a stream of serializable
//!   [`SimEvent`]s (what the `snip-replay` journal pipeline consumes).
//! * [`runner`] — the Fig 7/8 harness: run each mechanism over a seeded
//!   scenario sweep.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use snip_core::SnipAt;
//! use snip_mobility::{profile::EpochProfile, trace::TraceGenerator};
//! use snip_sim::{config::SimConfig, node::Simulation};
//! use snip_units::DutyCycle;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let trace = TraceGenerator::new(EpochProfile::roadside())
//!     .epochs(2)
//!     .generate(&mut rng);
//! let config = SimConfig::paper_defaults().with_epochs(2);
//! let scheduler = SnipAt::new(DutyCycle::new(0.001).unwrap());
//! let metrics = Simulation::new(config, &trace, scheduler).run(&mut rng);
//!
//! // 0.1% duty-cycle probes about 5% of the ~176 s daily capacity.
//! let zeta = metrics.mean_zeta_per_epoch();
//! assert!(zeta > 4.0 && zeta < 14.0, "ζ/epoch = {zeta}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod config;
pub mod energy;
pub mod fleet;
pub mod metrics;
pub mod mip;
pub mod node;
pub mod observe;
pub mod runner;

pub use buffer::DataBuffer;
pub use config::SimConfig;
pub use energy::{Battery, EnergyBreakdown};
pub use fleet::{Fleet, FleetNode, FleetReport, NodeOutcome};
pub use metrics::{EpochMetrics, RunMetrics};
pub use mip::MipSimulation;
pub use node::Simulation;
pub use observe::{CollectingObserver, NoopObserver, ObserverFlow, SimEvent, SimObserver};
pub use runner::{snip_rh_config, Mechanism, ScenarioRunner, SweepPoint};
/// The contact process [`FleetNode`] and [`ScenarioRunner`] take, so a
/// caller can build one without depending on `snip-mobility` itself.
pub use snip_mobility::EpochProfile;
