//! SNIP-OPT: the two-step optimization-based scheduler of §V.
//!
//! §V models SNIP scheduling as two optimization problems over the per-slot
//! duty-cycles `d1 … dn`:
//!
//! 1. **Step 1** — maximize the probed capacity `ζ = Σ ζi(di)` subject to the
//!    energy budget `Φ = Σ ti·di ≤ Φmax` and `0 ≤ di ≤ 1`.
//! 2. **Step 2** — if step 1 overshoots the application's target `ζtarget`,
//!    minimize `Φ` subject to `ζ ≥ ζtarget` instead, extending node lifetime.
//!
//! Each `ζi(di)` is concave (linear below the SNIP knee, diminishing above),
//! so both steps are concave resource-allocation problems solved exactly by
//! greedy marginal allocation over a piecewise-linear approximation:
//!
//! * [`curve`] — concave piecewise-linear capacity-vs-energy curves built
//!   from the SNIP model.
//! * [`allocate`] — the greedy water-filling allocator (provably optimal for
//!   concave piecewise-linear objectives).
//! * [`simplex`] — an independent dense-tableau LP solver used to cross-check
//!   the allocator in tests and available for ad-hoc LPs.
//! * [`two_step`] — the full SNIP-OPT procedure returning a per-slot
//!   duty-cycle plan.
//! * [`cache`] — process-wide memoization of solved plans keyed on the
//!   exact `(model, profile, Φmax, ζtarget)` inputs, so repeated sweep
//!   points skip the re-solve.
//!
//! # Example
//!
//! ```
//! use snip_model::{SlotProfile, SnipModel};
//! use snip_opt::TwoStepOptimizer;
//!
//! let opt = TwoStepOptimizer::new(SnipModel::default(), SlotProfile::roadside());
//! let plan = opt.solve(864.0, 16.0); // Φmax = Tepoch/100, ζtarget = 16 s
//! assert!(plan.meets_target());
//! // The optimizer probes 16 s at the rush-hour unit cost ρ = 3.
//! assert!((plan.phi() - 48.0).abs() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocate;
pub mod cache;
pub mod curve;
pub mod simplex;
pub mod two_step;

pub use allocate::{Allocation, GreedyAllocator};
pub use cache::{plan_cache_stats, solve_cached, PlanCacheStats};
pub use curve::CapacityCurve;
pub use simplex::{LinearProgram, SimplexError, SimplexSolution};
pub use two_step::{OptPlan, TwoStepOptimizer};
