//! Analytical models of contact probing in opportunistic data collection.
//!
//! This crate implements the mathematics of the SNIP-RH paper (Wu, Brown &
//! Sreenan, ICDCSW 2011) and of its SNIP predecessor:
//!
//! * [`snip`] — the closed-form SNIP model (eq. (1) of the paper): the probed
//!   fraction `Υ(d, Tcontact)` of a contact under a sensor-node-initiated
//!   beacon with duty-cycle `d`, plus inverses and the exponential-length
//!   closed form.
//! * [`mip`] — the mobile-node-initiated probing baseline that SNIP is
//!   compared against (the "2–10×" claim of §III).
//! * [`length`] — contact-length distributions and numeric expectation of the
//!   probed time over them.
//! * [`slot`] — per-time-slot contact profiles (`ζi(di)` curves) used by the
//!   SNIP-OPT optimization and the Fig 5/6 analysis.
//! * [`rush_hour`] — the rush-hour benefit model behind Fig 4.
//! * [`analysis`] — closed-form evaluation of SNIP-AT and SNIP-RH under a
//!   slotted scenario (the "Numerical Results" of §VII-A).
//!
//! # Example: the knee of the SNIP curve
//!
//! ```
//! use snip_model::snip::SnipModel;
//! use snip_units::{DutyCycle, SimDuration};
//!
//! let model = SnipModel::new(SimDuration::from_millis(20));
//! let contact = SimDuration::from_secs(2);
//!
//! // Below the knee d* = Ton/Tcontact the probed fraction is linear in d...
//! let d_knee = model.knee_duty_cycle(contact);
//! assert!((d_knee.as_fraction() - 0.01).abs() < 1e-12);
//! assert!((model.upsilon(d_knee, contact) - 0.5).abs() < 1e-12);
//!
//! // ...and half the knee duty-cycle probes half as much.
//! let half = DutyCycle::new(0.005).unwrap();
//! assert!((model.upsilon(half, contact) - 0.25).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod integrate;
pub mod latency;
pub mod length;
pub mod mip;
pub mod probed;
pub mod rush_hour;
pub mod slot;
pub mod snip;

pub use analysis::{AnalysisPoint, ScenarioAnalysis};
pub use latency::DiscoveryLatency;
pub use length::LengthDistribution;
pub use mip::MipModel;
pub use probed::ProbedTimeDistribution;
pub use rush_hour::RushHourBenefit;
pub use slot::{ProbedTimeMemo, SlotProfile, SlotSpec};
pub use snip::SnipModel;
