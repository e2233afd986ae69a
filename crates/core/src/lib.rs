//! The SNIP scheduling mechanisms — the paper's core contribution.
//!
//! A *scheduler* decides, each time the sensor node's CPU wakes up, whether
//! SNIP contact probing should run right now and at what duty-cycle. The
//! paper compares three:
//!
//! * [`SnipAt`] — SNIP **A**ll the **T**ime at one fixed duty-cycle, chosen
//!   offline for the capacity target (the strawman of §IV).
//! * [`SnipOptScheduler`] — plays back the per-slot duty-cycle plan computed
//!   by the two-step optimizer of §V (oracle knowledge of every slot's
//!   contact process).
//! * [`SnipRh`] — the paper's proposal (§VI): probe only in **R**ush-**H**our
//!   slots, gated on having data to upload and on the epoch's energy budget,
//!   at the knee duty-cycle `d_rh = Ton / T̄contact` learned online by EWMA.
//! * [`AdaptiveSnipRh`] — the §VII-B extension: learn the rush hours
//!   autonomously from a low-duty-cycle SNIP-AT phase, then run SNIP-RH, and
//!   keep tracking slow (seasonal) shifts in the background.
//!
//! Schedulers are pure decision logic behind the [`ProbeScheduler`] trait;
//! driving a radio against a contact trace is `snip-sim`'s job. That
//! includes condition 3, the energy budget: a scheduler declares its `Φmax`
//! through [`ProbeScheduler::phi_budget`], and the driver, which keeps the
//! exact per-epoch Φ ledger, acts on an active decision only while one more
//! beacon window fits inside it.
//!
//! # Example
//!
//! ```
//! use snip_core::{ProbeContext, ProbeScheduler, SnipRh, SnipRhConfig};
//! use snip_units::{DataSize, SimTime};
//!
//! let mut marks = vec![false; 24];
//! for h in [7, 8, 17, 18] { marks[h] = true; }
//! let mut rh = SnipRh::new(SnipRhConfig::paper_defaults(marks));
//!
//! // 08:00 with plenty of buffered data: probe at the knee…
//! let ctx = ProbeContext {
//!     now: SimTime::from_secs(8 * 3600),
//!     buffered_data: DataSize::from_airtime_secs(5),
//! };
//! let d = rh.decide(&ctx).expect("rush hour, data: SNIP active");
//! assert!((d.as_fraction() - 0.01).abs() < 1e-9); // Ton/T̄contact = 20ms/2s
//! // …for as long as the driver finds room in the declared budget.
//! assert_eq!(rh.phi_budget(), Some(rh.config().phi_max));
//!
//! // 12:00 is off-peak: radio stays off.
//! let noon = ProbeContext { now: SimTime::from_secs(12 * 3600), ..ctx };
//! assert!(rh.decide(&noon).is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod dispatch;
pub mod estimator;
pub mod hybrid;
pub mod planner;
pub mod scheduler;
pub mod snip_at;
pub mod snip_opt;
pub mod snip_rh;

pub use adaptive::{AdaptiveConfig, AdaptivePhase, AdaptiveSnipRh};
pub use dispatch::MechanismScheduler;
pub use estimator::Ewma;
pub use hybrid::SnipRhPlusAt;
pub use planner::Planner;
pub use scheduler::{
    DecisionRecord, IdleSpan, ProbeContext, ProbeScheduler, ProbedContactInfo, SteadySpan,
};
pub use snip_at::SnipAt;
pub use snip_opt::SnipOptScheduler;
pub use snip_rh::{LengthEstimation, SnipRh, SnipRhConfig};
