//! Condition 3 of §VI-B where it is enforced: the simulator holds every
//! budgeted scheduler to the `Φmax` it declares, on both steppers.
//!
//! For µs-granular budgets that are not whole numbers of beacon windows,
//! every epoch must spend `Φ ≤ Φmax`; and in every epoch where the gate
//! refused a window the scheduler asked for, the spend must also be within
//! one window of the budget, `Φ > Φmax − Ton`, so the gate stops no earlier
//! than it has to.

use std::sync::LazyLock;

use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;

use snip_core::{
    AdaptiveConfig, AdaptiveSnipRh, IdleSpan, ProbeContext, ProbeScheduler, ProbedContactInfo,
    SnipAt, SnipRh, SnipRhPlusAt, SteadySpan,
};
use snip_mobility::{ContactTrace, EpochProfile, TraceGenerator};
use snip_sim::{snip_rh_config, CollectingObserver, SimConfig, SimEvent, Simulation};
use snip_units::{DutyCycle, SimDuration, SimTime};

const EPOCHS: u64 = 5;

static TRACE: LazyLock<ContactTrace> = LazyLock::new(|| {
    TraceGenerator::new(EpochProfile::roadside())
        .epochs(EPOCHS)
        .generate(&mut StdRng::seed_from_u64(34))
});

/// Defers to the wrapped scheduler, hints and budget included, and notes
/// every wake-up at which it asked to probe.
#[derive(Clone)]
struct Asked<S> {
    inner: S,
    on_at: Vec<SimTime>,
}

impl<S: ProbeScheduler> ProbeScheduler for Asked<S> {
    fn decide(&mut self, ctx: &ProbeContext) -> Option<DutyCycle> {
        let decision = self.inner.decide(ctx);
        if decision.is_some_and(|d| !d.is_off()) {
            self.on_at.push(ctx.now);
        }
        decision
    }

    fn record_probed_contact(&mut self, info: &ProbedContactInfo) {
        self.inner.record_probed_contact(info);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn phi_budget(&self) -> Option<SimDuration> {
        self.inner.phi_budget()
    }

    fn idle_until(&self, ctx: &ProbeContext) -> Option<IdleSpan> {
        self.inner.idle_until(ctx)
    }

    fn steady_span(&self, ctx: &ProbeContext) -> Option<SteadySpan> {
        self.inner.steady_span(ctx)
    }
}

/// `Φmax` in µs: `windows` whole beacon windows of 20 ms plus a remainder
/// that is never zero.
fn budget(windows: u64, rest_us: u64) -> SimDuration {
    SimDuration::from_micros(windows * 20_000 + rest_us)
}

fn config(zeta_target: f64, lossy: bool) -> SimConfig {
    SimConfig::paper_defaults()
        .with_epochs(EPOCHS)
        .with_zeta_target_secs(zeta_target)
        .with_beacon_loss(if lossy { 0.3 } else { 0.0 })
}

/// Runs `scheduler` on both steppers and checks both bounds in every epoch;
/// returns how many epochs the gate refused a window in.
fn check_budget<S: ProbeScheduler + Clone>(
    config: &SimConfig,
    scheduler: S,
) -> Result<usize, TestCaseError> {
    let phi_max = scheduler.phi_budget().expect("a budgeted scheduler");
    let mut bound = 0;
    for naive in [false, true] {
        let asked = Asked {
            inner: scheduler.clone(),
            on_at: Vec::new(),
        };
        let mut sim = Simulation::new(config.clone(), &TRACE, asked);
        if naive {
            sim = sim.with_naive_stepping();
        }
        let mut events = CollectingObserver::default();
        let metrics = sim.run_observed(&mut StdRng::seed_from_u64(35), &mut events);
        // The decision the run acted on, from each of its changes.
        let acted: Vec<(SimTime, bool)> = events
            .events
            .iter()
            .filter_map(|e| match e {
                SimEvent::Decision(d) => Some((d.now, d.duty_cycle.is_some())),
                _ => None,
            })
            .collect();
        // Only the budget turns a requested window into an off decision.
        let mut refused = vec![false; EPOCHS as usize];
        for &t in &sim.scheduler().on_at {
            let k = acted.partition_point(|&(at, _)| at <= t);
            if k > 0 && !acted[k - 1].1 {
                refused[t.epoch_index(config.epoch) as usize] = true;
            }
        }
        for (e, em) in metrics.epochs().iter().enumerate() {
            let phi = em.phi_exact();
            prop_assert!(
                phi <= phi_max,
                "naive={naive} epoch {e}: Φ {phi:?} over Φmax {phi_max:?}"
            );
            if refused[e] {
                prop_assert!(
                    phi + config.ton > phi_max,
                    "naive={naive} epoch {e}: stopped at Φ {phi:?} with a window of {phi_max:?} left"
                );
            }
        }
        bound += refused.iter().filter(|&&r| r).count();
    }
    Ok(bound)
}

fn roadside_rh(config: &SimConfig, phi_max: SimDuration) -> snip_core::SnipRhConfig {
    let profile = EpochProfile::roadside();
    snip_rh_config(
        profile.rush_marks(),
        config,
        phi_max.as_secs_f64(),
        profile.mean_contact_length(),
    )
    .with_phi_max(phi_max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// SNIP-RH, hungry for data: four rush hours at the knee would spend
    /// about 144 s a day.
    #[test]
    fn snip_rh_holds_any_budget_on_both_steppers(
        windows in 50u64..6_000,
        rest_us in 1u64..20_000,
        lossy in any::<bool>(),
    ) {
        let config = config(56.0, lossy);
        let rh = SnipRh::new(roadside_rh(&config, budget(windows, rest_us)));
        let bound = check_budget(&config, rh)?;
        prop_assert!(windows >= 5_000 || bound > 0, "the budget never bound");
    }

    /// SNIP-RH+AT: its 0.2% background alone would spend 172.8 s a day.
    #[test]
    fn hybrid_holds_any_budget_on_both_steppers(
        windows in 50u64..7_000,
        rest_us in 1u64..20_000,
        lossy in any::<bool>(),
    ) {
        let config = config(56.0, lossy);
        let hybrid = SnipRhPlusAt::new(roadside_rh(&config, budget(windows, rest_us)), 0.002);
        let bound = check_budget(&config, hybrid)?;
        prop_assert!(bound > 0, "the budget never bound");
    }

    /// The adaptive scheduler: its three learning epochs at 0.1% would
    /// spend 86.4 s each, then it tracks at 0.05% outside its rush hours.
    #[test]
    fn adaptive_holds_any_budget_on_both_steppers(
        windows in 50u64..4_000,
        rest_us in 1u64..20_000,
        lossy in any::<bool>(),
        tracking in any::<bool>(),
    ) {
        let mut adaptive = AdaptiveConfig::paper_sketch(24, 4);
        adaptive.rh.phi_max = budget(windows, rest_us);
        adaptive.tracking_duty_cycle = if tracking { 0.000_5 } else { 0.0 };
        let bound = check_budget(&config(56.0, lossy), AdaptiveSnipRh::new(adaptive))?;
        prop_assert!(bound > 0, "the budget never bound");
    }

    /// SNIP-AT at 1% would spend 864 s a day.
    #[test]
    fn budgeted_snip_at_holds_any_budget_on_both_steppers(
        windows in 50u64..40_000,
        rest_us in 1u64..20_000,
        lossy in any::<bool>(),
    ) {
        let at = SnipAt::new(DutyCycle::new(0.01).unwrap()).with_budget(budget(windows, rest_us));
        let bound = check_budget(&config(8.0, lossy), at)?;
        prop_assert!(bound > 0, "the budget never bound");
    }
}
