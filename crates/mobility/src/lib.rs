//! Contact arrival processes, rush-hour profiles and contact traces.
//!
//! The paper's mobile nodes are phones carried by people moving past a
//! road-side sensor. This crate generates the *contact process* those
//! movements induce at a sensor node, without simulating geometry: what
//! matters to contact probing is only when a mobile node enters range and for
//! how long it stays.
//!
//! * [`sampler`] — random sampling from the model crate's
//!   [`LengthDistribution`]s (Box–Muller normal, inverse-CDF exponential…),
//!   with the normals of a trace drawn ahead in blocks.
//! * [`arrival`] — renewal/Poisson/periodic contact arrival processes.
//! * [`profile`] — time-slotted rush-hour profiles of an epoch (the paper's
//!   §VI-A slot marks) and conversion to the model crate's `SlotProfile`.
//! * [`diurnal`] — a synthetic diurnal travel-demand curve standing in for
//!   the paper's Fig 3 (Midpoint Bridge data, which is not redistributable).
//! * [`trace`] — concrete contact traces: generation, replay, statistics,
//!   and a CSV-ish serialization for interchange.
//! * [`external`] — CRAWDAD-style sighting-file import.
//! * [`synthetic`] — proper-Poisson synthesis of CRAWDAD-style sighting
//!   sets, for exercising the import pipeline end-to-end.
//!
//! # Example
//!
//! ```
//! use snip_mobility::{profile::EpochProfile, trace::TraceGenerator};
//! use rand::SeedableRng;
//!
//! let profile = EpochProfile::roadside();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let trace = TraceGenerator::new(profile).epochs(14).generate(&mut rng);
//!
//! // Two weeks of contacts: about 88 per day.
//! let per_day = trace.len() as f64 / 14.0;
//! assert!(per_day > 80.0 && per_day < 96.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod diurnal;
pub mod external;
pub mod profile;
pub mod sampler;
pub mod synthetic;
pub mod trace;
pub mod transform;

pub use arrival::ArrivalProcess;
pub use diurnal::DiurnalDemand;
pub use external::{ExternalTrace, Sighting};
pub use profile::{EpochProfile, SlotKind};
pub use sampler::sample_duration;
pub use synthetic::{sample_poisson, SyntheticSightings};
pub use trace::{Contact, ContactTrace, TraceGenerator, TraceStats};

pub use snip_model::LengthDistribution;
