//! The Fig 7/8 scenario harness: run every mechanism over a seeded sweep.
//!
//! The paper simulates SNIP-AT, SNIP-OPT and SNIP-RH for two weeks under
//! every `(Φmax, ζtarget)` combination and plots the per-epoch averages. The
//! [`ScenarioRunner`] reproduces that sweep: it generates the contact trace,
//! builds each mechanism's scheduler exactly as the paper does ("calculated
//! based on the simulated environment and incorporated into the codes"), and
//! returns one [`SweepPoint`] per target.

use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use snip_core::{
    MechanismScheduler, ProbeScheduler, SnipAt, SnipOptScheduler, SnipRh, SnipRhConfig,
};
use snip_mobility::{ContactTrace, EpochProfile, TraceGenerator};
use snip_model::SnipModel;
use snip_units::SimDuration;

use crate::config::SimConfig;
use crate::metrics::RunMetrics;
use crate::node::Simulation;

/// Per-sweep-point wall-time histogram and point counter, resolved once so
/// the per-point overhead is a few relaxed atomic ops.
fn point_metrics() -> &'static (
    &'static snip_obs::metrics::Histogram,
    &'static snip_obs::metrics::Counter,
) {
    static METRICS: OnceLock<(
        &'static snip_obs::metrics::Histogram,
        &'static snip_obs::metrics::Counter,
    )> = OnceLock::new();
    METRICS.get_or_init(|| {
        (
            snip_obs::metrics::histogram("snip_sweep_point_us"),
            snip_obs::metrics::counter("snip_sweep_points_total"),
        )
    })
}

/// The scheduling mechanisms the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mechanism {
    /// SNIP all the time at the offline-selected duty-cycle.
    SnipAt,
    /// The two-step optimizer's per-slot plan.
    SnipOpt,
    /// Rush-hour-only probing with online learning.
    SnipRh,
}

impl Mechanism {
    /// All three mechanisms, in the paper's plotting order.
    pub const ALL: [Mechanism; 3] = [Mechanism::SnipAt, Mechanism::SnipOpt, Mechanism::SnipRh];

    /// The paper's name for the mechanism.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Mechanism::SnipAt => "SNIP-AT",
            Mechanism::SnipOpt => "SNIP-OPT",
            Mechanism::SnipRh => "SNIP-RH",
        }
    }

    /// Builds this mechanism's scheduler for one node exactly as the paper
    /// configures it ("calculated based on the simulated environment and
    /// incorporated into the codes"): SNIP-AT and SNIP-OPT plan offline on
    /// `profile` under the budget `phi_max_secs` for `zeta_target`, and
    /// SNIP-RH learns online from the profile's rush-hour marks and mean
    /// contact length. The one place the three are configured, so an
    /// in-process sweep and a sharded fleet run the same schedulers.
    // Inlined into its callers: out of line, the SNIP-AT and SNIP-OPT jobs
    // of the benchmark's `plan-sweep` ran 3–6% slower.
    #[must_use]
    #[inline]
    pub fn scheduler(
        self,
        profile: &EpochProfile,
        config: &SimConfig,
        phi_max_secs: f64,
        zeta_target: f64,
    ) -> MechanismScheduler {
        let model = SnipModel::new(config.ton);
        match self {
            Mechanism::SnipAt => {
                SnipAt::for_target(model, &profile.to_slot_profile(), phi_max_secs, zeta_target)
                    .into()
            }
            Mechanism::SnipOpt => {
                SnipOptScheduler::solve(model, profile.to_slot_profile(), phi_max_secs, zeta_target)
                    .into()
            }
            Mechanism::SnipRh => SnipRh::new(snip_rh_config(
                profile.rush_marks(),
                config,
                phi_max_secs,
                profile.mean_contact_length(),
            ))
            .into(),
        }
    }
}

/// The paper's SNIP-RH configuration ([`SnipRhConfig::paper_defaults`])
/// for one run: the run's epoch and Ton, the budget `phi_max_secs`, the
/// rush-hour marks and the initial contact-length estimate.
///
/// # Panics
///
/// Panics if `rush_marks` is empty.
#[must_use]
pub fn snip_rh_config(
    rush_marks: Vec<bool>,
    config: &SimConfig,
    phi_max_secs: f64,
    initial_contact_length: SimDuration,
) -> SnipRhConfig {
    let mut rh = SnipRhConfig::paper_defaults(rush_marks)
        .with_phi_max(SimDuration::from_secs_f64(phi_max_secs));
    rh.epoch = config.epoch;
    rh.ton = config.ton;
    rh.initial_contact_length = initial_contact_length;
    rh
}

/// One row of a Fig 7/8 sweep: a mechanism's metrics at one target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The capacity target `ζtarget`, seconds.
    pub zeta_target: f64,
    /// The mechanism simulated.
    pub mechanism: Mechanism,
    /// Mean probed capacity per epoch, seconds.
    pub zeta: f64,
    /// Mean probing overhead per epoch, seconds.
    pub phi: f64,
    /// Unit cost `ρ = Φ/ζ`; `None` when nothing was probed.
    pub rho: Option<f64>,
}

/// Simulation harness over the paper's roadside scenario (or any profile).
///
/// The contact trace for the runner's seed is generated once, lazily, and
/// shared (`Arc`) across every run — a sweep re-executes the simulation per
/// `(mechanism, ζtarget)` point, not the trace generation.
#[derive(Debug, Clone)]
pub struct ScenarioRunner {
    profile: EpochProfile,
    config: SimConfig,
    phi_max_secs: f64,
    seed: u64,
    /// Lazily generated trace for `seed`; reset whenever the seed changes.
    trace_cache: OnceLock<Arc<ContactTrace>>,
}

impl ScenarioRunner {
    /// Creates a runner over the given profile with the paper's simulation
    /// configuration and a per-epoch budget in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `phi_max_secs` is not positive.
    #[must_use]
    pub fn new(profile: EpochProfile, config: SimConfig, phi_max_secs: f64) -> Self {
        assert!(phi_max_secs > 0.0, "Φmax must be positive");
        ScenarioRunner {
            profile,
            config,
            phi_max_secs,
            seed: 0x5eed,
            trace_cache: OnceLock::new(),
        }
    }

    /// The paper's Fig 7/8 setup: roadside profile, 14 epochs.
    ///
    /// # Panics
    ///
    /// Panics if `phi_max_secs` is not positive.
    #[must_use]
    pub fn paper(phi_max_secs: f64) -> Self {
        Self::new(
            EpochProfile::roadside(),
            SimConfig::paper_defaults(),
            phi_max_secs,
        )
    }

    /// Overrides the RNG seed (trace and beacon-loss randomness).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        if seed != self.seed {
            self.seed = seed;
            self.trace_cache = OnceLock::new();
        }
        self
    }

    /// The per-epoch budget in seconds.
    #[must_use]
    pub fn phi_max_secs(&self) -> f64 {
        self.phi_max_secs
    }

    /// Generates the contact trace this runner simulates against.
    #[must_use]
    pub fn trace(&self) -> ContactTrace {
        (*self.trace_arc()).clone()
    }

    /// The shared, lazily generated contact trace for this runner's seed.
    ///
    /// Every run of this runner (and every point of a sweep) simulates
    /// against this one trace; cloning the `Arc` is free.
    #[must_use]
    pub fn trace_arc(&self) -> Arc<ContactTrace> {
        self.trace_cache
            .get_or_init(|| {
                Arc::new(
                    TraceGenerator::new(self.profile.clone())
                        .epochs(self.config.epochs)
                        .generate(&mut StdRng::seed_from_u64(self.seed)),
                )
            })
            .clone()
    }

    /// Builds the scheduler for a mechanism at a target, exactly as the
    /// paper configures it — boxed, for callers that need a trait object.
    #[must_use]
    pub fn scheduler(&self, mechanism: Mechanism, zeta_target: f64) -> Box<dyn ProbeScheduler> {
        Box::new(self.mechanism_scheduler(mechanism, zeta_target))
    }

    /// [`ScenarioRunner::scheduler`] without the box: the statically
    /// dispatched mechanism enum the hot loop monomorphizes over.
    #[must_use]
    pub fn mechanism_scheduler(
        &self,
        mechanism: Mechanism,
        zeta_target: f64,
    ) -> MechanismScheduler {
        mechanism.scheduler(&self.profile, &self.config, self.phi_max_secs, zeta_target)
    }

    /// Runs one mechanism at one target and returns the full metrics.
    #[must_use]
    pub fn run_one(&self, mechanism: Mechanism, zeta_target: f64) -> RunMetrics {
        // Wall-clock only: the span and histogram never feed back into the
        // simulation, so instrumented runs stay bit-identical.
        let _span = snip_obs::span!("sweep-point {} ζt={zeta_target}", mechanism.label());
        // snip-lint: allow(wall-clock): "sweep-point wall-time metric; never read by the simulation"
        let point_start = std::time::Instant::now();
        let trace = self.trace_arc();
        let config = self.config.clone().with_zeta_target_secs(zeta_target);
        let scheduler = self.mechanism_scheduler(mechanism, zeta_target);
        let mut sim = Simulation::new(config, &trace, scheduler);
        let metrics = sim.run(&mut StdRng::seed_from_u64(self.seed.wrapping_add(1)));
        point_metrics().0.observe(point_start.elapsed());
        point_metrics().1.inc();
        metrics
    }

    /// [`ScenarioRunner::run_one`] through the reference stepper (no fast
    /// path, `Box<dyn>` dispatch, trace regenerated): the pre-optimization
    /// baseline, kept as the reference the fast path is checked against.
    #[must_use]
    pub fn run_one_baseline(&self, mechanism: Mechanism, zeta_target: f64) -> RunMetrics {
        let trace = TraceGenerator::new(self.profile.clone())
            .epochs(self.config.epochs)
            .generate(&mut StdRng::seed_from_u64(self.seed));
        let config = self.config.clone().with_zeta_target_secs(zeta_target);
        let scheduler = self.scheduler(mechanism, zeta_target);
        let mut sim = Simulation::new(config, &trace, scheduler).with_naive_stepping();
        sim.run(&mut StdRng::seed_from_u64(self.seed.wrapping_add(1)))
    }

    /// Runs one mechanism at one target over several independent seeds and
    /// returns `(mean ζ, sd ζ, mean Φ)` of the per-epoch averages — the
    /// error bars behind the paper's "there is a lot of variance in
    /// simulation results" remark.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    #[must_use]
    pub fn run_seeds(
        &self,
        mechanism: Mechanism,
        zeta_target: f64,
        seeds: &[u64],
    ) -> (f64, f64, f64) {
        assert!(!seeds.is_empty(), "need at least one seed");
        let runs: Vec<RunMetrics> = seeds
            .iter()
            .map(|&seed| self.clone().with_seed(seed).run_one(mechanism, zeta_target))
            .collect();
        let zetas: Vec<f64> = runs.iter().map(RunMetrics::mean_zeta_per_epoch).collect();
        let mean_zeta = zetas.iter().sum::<f64>() / zetas.len() as f64;
        let sd = if zetas.len() > 1 {
            (zetas.iter().map(|z| (z - mean_zeta).powi(2)).sum::<f64>() / (zetas.len() - 1) as f64)
                .sqrt()
        } else {
            0.0
        };
        let mean_phi =
            runs.iter().map(RunMetrics::mean_phi_per_epoch).sum::<f64>() / runs.len() as f64;
        (mean_zeta, sd, mean_phi)
    }

    /// Runs the full sweep: every mechanism at every target, in
    /// [`ScenarioRunner::sweep_jobs`] order, all against the one shared
    /// trace ([`ScenarioRunner::trace_arc`]). To spread a sweep over
    /// processes or hosts, hand it to `snip fleet` as a sweep spec.
    #[must_use]
    pub fn sweep(&self, zeta_targets: &[f64]) -> Vec<SweepPoint> {
        Self::sweep_jobs(zeta_targets)
            .into_iter()
            .map(|(target, mechanism)| {
                let metrics = self.run_one(mechanism, target);
                Self::point_from_metrics(target, mechanism, &metrics)
            })
            .collect()
    }

    /// The sweep's job list — one `(ζtarget, mechanism)` pair per point, in
    /// sweep order. The single source of the point ordering: in-process
    /// sweeps and distributed shard drivers must partition the exact same
    /// list for their merged outputs to compare.
    #[must_use]
    pub fn sweep_jobs(zeta_targets: &[f64]) -> Vec<(f64, Mechanism)> {
        zeta_targets
            .iter()
            .flat_map(|&t| Mechanism::ALL.into_iter().map(move |m| (t, m)))
            .collect()
    }

    /// Folds one run's exact-ledger metrics into its [`SweepPoint`] row —
    /// the merge half of a sharded sweep. Derivations match
    /// [`ScenarioRunner::sweep`]'s exactly, so a point computed from a
    /// shard's metrics equals the in-process point whenever the ledgers do.
    #[must_use]
    pub fn point_from_metrics(
        zeta_target: f64,
        mechanism: Mechanism,
        metrics: &RunMetrics,
    ) -> SweepPoint {
        SweepPoint {
            zeta_target,
            mechanism,
            zeta: metrics.mean_zeta_per_epoch(),
            phi: metrics.mean_phi_per_epoch(),
            rho: metrics.overall_rho(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanism_labels_match_the_paper() {
        assert_eq!(Mechanism::SnipAt.label(), "SNIP-AT");
        assert_eq!(Mechanism::SnipOpt.label(), "SNIP-OPT");
        assert_eq!(Mechanism::SnipRh.label(), "SNIP-RH");
        assert_eq!(Mechanism::ALL.len(), 3);
    }

    #[test]
    fn trace_is_seed_stable() {
        let runner = ScenarioRunner::paper(86.4).with_seed(7);
        assert_eq!(runner.trace(), runner.trace());
        let other = ScenarioRunner::paper(86.4).with_seed(8);
        assert_ne!(runner.trace(), other.trace());
    }

    #[test]
    fn fig7_point_snip_rh_beats_snip_at_at_16s() {
        // The paper's headline comparison at ζtarget = 16 s, Φmax = 86.4 s
        // — two-week simulation, so this is the slowest unit test here.
        let runner = ScenarioRunner::paper(86.4).with_seed(42);
        let at = runner.run_one(Mechanism::SnipAt, 16.0);
        let rh = runner.run_one(Mechanism::SnipRh, 16.0);
        // SNIP-AT is budget-bound near 8.8 s and misses the target.
        let at_zeta = at.mean_zeta_per_epoch();
        assert!(at_zeta < 12.0, "SNIP-AT ζ = {at_zeta}");
        // SNIP-RH reaches the neighborhood of the target…
        let rh_zeta = rh.mean_zeta_per_epoch();
        assert!(rh_zeta > 12.0, "SNIP-RH ζ = {rh_zeta}");
        // …at roughly a third of SNIP-AT's unit cost.
        let at_rho = at.overall_rho().unwrap();
        let rh_rho = rh.overall_rho().unwrap();
        assert!(
            rh_rho < 0.5 * at_rho,
            "ρ_RH = {rh_rho:.2} should be well below ρ_AT = {at_rho:.2}"
        );
    }

    #[test]
    fn scheduler_factory_produces_all_mechanisms() {
        let runner = ScenarioRunner::paper(864.0);
        for m in Mechanism::ALL {
            let s = runner.scheduler(m, 16.0);
            assert_eq!(s.name(), m.label());
        }
    }

    #[test]
    fn multi_seed_runs_report_variance() {
        let runner = ScenarioRunner::paper(86.4);
        let (mean, sd, phi) = runner.run_seeds(Mechanism::SnipRh, 16.0, &[1, 2, 3]);
        // Means stay near the target; seeds differ, so sd is non-zero but
        // small relative to the mean.
        assert!(mean > 12.0 && mean < 20.0, "mean ζ {mean}");
        assert!(sd > 0.0 && sd < 0.5 * mean, "sd {sd}");
        assert!(phi > 0.0 && phi <= 86.5);
    }

    #[test]
    #[should_panic(expected = "Φmax must be positive")]
    fn zero_budget_rejected() {
        let _ = ScenarioRunner::paper(0.0);
    }
}
