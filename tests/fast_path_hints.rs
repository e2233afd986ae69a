//! Fast-path fidelity for the SNIP-RH family of schedulers.
//!
//! `AdaptiveSnipRh` and `SnipRhPlusAt` implement `idle_until`/`steady_span`,
//! so the simulator's idle fast-forward and beacon batching engage for them
//! too. SNIP-RH's data gate (condition 2) comes with an exact "off until the
//! buffer holds X" bound, which lets the simulator jump over data-gated
//! wake-ups. With zero beacon loss the fast path must reproduce the
//! reference stepper's exact integer-µs ledgers bit-for-bit, learned state
//! included.

use rand::rngs::StdRng;
use rand::SeedableRng;

use snip_rh_repro::snip_core::{
    AdaptiveConfig, AdaptiveSnipRh, IdleSpan, ProbeContext, ProbeScheduler, ProbedContactInfo,
    SnipAt, SnipOptScheduler, SnipRh, SnipRhConfig, SnipRhPlusAt, SteadySpan,
};
use snip_rh_repro::snip_mobility::{ContactTrace, EpochProfile, TraceGenerator};
use snip_rh_repro::snip_model::SnipModel;
use snip_rh_repro::snip_sim::{RunMetrics, SimConfig, Simulation};
use snip_rh_repro::snip_units::{DutyCycle, SimDuration, SimTime};

fn roadside_trace(epochs: u64, seed: u64) -> ContactTrace {
    TraceGenerator::new(EpochProfile::roadside())
        .epochs(epochs)
        .generate(&mut StdRng::seed_from_u64(seed))
}

fn run_both<S, F>(trace: &ContactTrace, config: &SimConfig, make: F) -> (RunMetrics, RunMetrics)
where
    S: snip_rh_repro::snip_core::ProbeScheduler,
    F: Fn() -> S,
{
    let mut fast = Simulation::new(config.clone(), trace, make());
    let fast_metrics = fast.run(&mut StdRng::seed_from_u64(7));
    let mut naive = Simulation::new(config.clone(), trace, make()).with_naive_stepping();
    let naive_metrics = naive.run(&mut StdRng::seed_from_u64(7));
    (fast_metrics, naive_metrics)
}

#[test]
fn adaptive_fast_path_is_bit_identical_to_naive_stepping() {
    let trace = roadside_trace(10, 301);
    let config = SimConfig::paper_defaults()
        .with_epochs(10)
        .with_zeta_target_secs(16.0);
    for tracking in [0.000_5, 0.0] {
        let (fast, naive) = run_both(&trace, &config, || {
            let mut cfg = AdaptiveConfig::paper_sketch(24, 4);
            cfg.rh.phi_max = SimDuration::from_secs_f64(86.4);
            cfg.tracking_duty_cycle = tracking;
            AdaptiveSnipRh::new(cfg)
        });
        assert_eq!(fast, naive, "tracking = {tracking}");
        assert!(fast.total_contacts_probed() > 0);
    }
}

#[test]
fn hybrid_fast_path_is_bit_identical_to_naive_stepping() {
    let trace = roadside_trace(10, 302);
    let config = SimConfig::paper_defaults()
        .with_epochs(10)
        .with_zeta_target_secs(24.0);
    for phi_max_secs in [86.4, 864.0] {
        let (fast, naive) = run_both(&trace, &config, || {
            SnipRhPlusAt::new(
                SnipRhConfig::paper_defaults(EpochProfile::roadside().rush_marks())
                    .with_phi_max(SimDuration::from_secs_f64(phi_max_secs)),
                0.002,
            )
        });
        assert_eq!(fast, naive, "phi_max = {phi_max_secs}");
        assert!(fast.total_contacts_probed() > 0);
    }
}

#[test]
fn hybrid_learned_state_matches_across_steppers() {
    // Metrics equality plus learned-state equality: the schedulers saw the
    // same probed contacts in the same order.
    let trace = roadside_trace(6, 303);
    let config = SimConfig::paper_defaults()
        .with_epochs(6)
        .with_zeta_target_secs(16.0);
    let make = || {
        SnipRhPlusAt::new(
            SnipRhConfig::paper_defaults(EpochProfile::roadside().rush_marks())
                .with_phi_max(SimDuration::from_secs_f64(86.4)),
            0.002,
        )
    };
    let mut fast = Simulation::new(config.clone(), &trace, make());
    let _ = fast.run(&mut StdRng::seed_from_u64(9));
    let mut naive = Simulation::new(config, &trace, make()).with_naive_stepping();
    let _ = naive.run(&mut StdRng::seed_from_u64(9));
    let (f, n) = (fast.into_scheduler(), naive.into_scheduler());
    assert_eq!(
        f.inner().mean_contact_length(),
        n.inner().mean_contact_length()
    );
    assert_eq!(f.inner().upload_threshold(), n.inner().upload_threshold());
}

#[test]
fn adaptive_learned_marks_match_across_steppers() {
    let trace = roadside_trace(8, 304);
    let config = SimConfig::paper_defaults()
        .with_epochs(8)
        .with_zeta_target_secs(16.0);
    let make = || {
        let mut cfg = AdaptiveConfig::paper_sketch(24, 4);
        cfg.rh.phi_max = SimDuration::from_secs(864);
        cfg.learning_duty_cycle = 0.005;
        AdaptiveSnipRh::new(cfg)
    };
    let mut fast = Simulation::new(config.clone(), &trace, make());
    let _ = fast.run(&mut StdRng::seed_from_u64(11));
    let mut naive = Simulation::new(config, &trace, make()).with_naive_stepping();
    let _ = naive.run(&mut StdRng::seed_from_u64(11));
    let (f, n) = (fast.into_scheduler(), naive.into_scheduler());
    assert_eq!(f.phase(), n.phase());
    assert_eq!(f.rush_marks(), n.rush_marks());
    assert_eq!(f.slot_capacity(), n.slot_capacity());
}

fn rh_config(phi_max_secs: f64) -> SnipRhConfig {
    SnipRhConfig::paper_defaults(EpochProfile::roadside().rush_marks())
        .with_phi_max(SimDuration::from_secs_f64(phi_max_secs))
}

/// Runs `make()` on the fast path and on the naive stepper and asserts
/// that both the ledgers and the learned state are identical. The state is
/// compared through `Debug`, which prints every `f64` so that it parses
/// back to the same bits: equal strings mean bit-identical schedulers.
fn assert_steppers_agree<S, F>(trace: &ContactTrace, config: &SimConfig, make: F, what: &str)
where
    S: ProbeScheduler + std::fmt::Debug,
    F: Fn() -> S,
{
    let mut fast = Simulation::new(config.clone(), trace, make());
    let fast_metrics = fast.run(&mut StdRng::seed_from_u64(13));
    let mut naive = Simulation::new(config.clone(), trace, make()).with_naive_stepping();
    let naive_metrics = naive.run(&mut StdRng::seed_from_u64(13));
    assert_eq!(fast_metrics, naive_metrics, "{what}: ledgers");
    assert!(fast_metrics.total_contacts_probed() > 0, "{what}: probes");
    assert_eq!(
        format!("{:?}", fast.into_scheduler()),
        format!("{:?}", naive.into_scheduler()),
        "{what}: learned state"
    );
}

#[test]
fn data_gated_fast_path_is_bit_identical_to_naive_stepping() {
    // Small targets keep the buffer short of the upload threshold for most
    // of every rush hour: the regime the data bound skips through.
    let trace = roadside_trace(14, 305);
    for target in [4.0, 16.0] {
        let config = SimConfig::paper_defaults()
            .with_epochs(14)
            .with_zeta_target_secs(target);
        assert_steppers_agree(
            &trace,
            &config,
            || SnipRh::new(rh_config(86.4)),
            &format!("SNIP-RH ζt={target}"),
        );
        assert_steppers_agree(
            &trace,
            &config,
            || SnipRhPlusAt::new(rh_config(86.4), 0.002),
            &format!("SNIP-RH+AT ζt={target}"),
        );
        for tracking in [0.0, 0.000_5] {
            assert_steppers_agree(
                &trace,
                &config,
                || {
                    let mut cfg = AdaptiveConfig::paper_sketch(24, 4);
                    cfg.rh.phi_max = SimDuration::from_secs_f64(86.4);
                    cfg.tracking_duty_cycle = tracking;
                    AdaptiveSnipRh::new(cfg)
                },
                &format!("Adaptive-SNIP-RH tracking={tracking} ζt={target}"),
            );
        }
    }
}

/// A scheduler that counts its consultations and otherwise defers to the
/// wrapped one, hints included.
struct Consultations<S>(S, u64);

impl<S: ProbeScheduler> ProbeScheduler for Consultations<S> {
    fn decide(&mut self, ctx: &ProbeContext) -> Option<DutyCycle> {
        self.1 += 1;
        self.0.decide(ctx)
    }

    fn record_probed_contact(&mut self, info: &ProbedContactInfo) {
        self.0.record_probed_contact(info);
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn phi_budget(&self) -> Option<SimDuration> {
        self.0.phi_budget()
    }

    fn idle_until(&self, ctx: &ProbeContext) -> Option<IdleSpan> {
        self.0.idle_until(ctx)
    }

    fn steady_span(&self, ctx: &ProbeContext) -> Option<SteadySpan> {
        self.0.steady_span(ctx)
    }
}

#[test]
fn data_gated_wake_ups_are_skipped_not_consulted() {
    // SNIP-RH at ζtarget 4 s spends most of each rush hour waiting for data.
    // Stepping every 60 s decision interval consults the scheduler 2,986
    // times over these 14 epochs; jumping to the first wake-up that holds
    // the upload threshold needs 123. A count repeats exactly, so this
    // guards the saving without timing anything.
    let trace = roadside_trace(14, 11);
    let config = SimConfig::paper_defaults()
        .with_epochs(14)
        .with_zeta_target_secs(4.0);
    let scheduler = Consultations(SnipRh::new(rh_config(86.4)), 0);
    let mut sim = Simulation::new(config.clone(), &trace, scheduler);
    let fast = sim.run(&mut StdRng::seed_from_u64(1));
    let consulted = sim.scheduler().1;
    assert!(consulted <= 300, "{consulted} scheduler decisions");

    let mut naive =
        Simulation::new(config, &trace, SnipRh::new(rh_config(86.4))).with_naive_stepping();
    assert_eq!(fast, naive.run(&mut StdRng::seed_from_u64(1)));
}

/// Runs `scheduler` on the fast path, counting its consultations, and
/// asserts the ledgers equal a naive run of `reference`.
fn consultations<S: ProbeScheduler>(
    trace: &ContactTrace,
    config: &SimConfig,
    scheduler: S,
    reference: S,
) -> u64 {
    let mut sim = Simulation::new(config.clone(), trace, Consultations(scheduler, 0));
    let fast = sim.run(&mut StdRng::seed_from_u64(1));
    let mut naive = Simulation::new(config.clone(), trace, reference).with_naive_stepping();
    assert_eq!(fast, naive.run(&mut StdRng::seed_from_u64(1)));
    sim.scheduler().1
}

#[test]
fn steady_spans_are_stepped_through_not_consulted() {
    // At Φmax 864 s SNIP-AT's span lasts to the end of the epoch and
    // outlasts its probes, so the stepper asks it once per epoch: 14 times
    // over 14 epochs at every target here, where asking again after every
    // probe and every hourly ledger slot took 434–1,067. SNIP-OPT's spans
    // end with the plan's slots: 29–85 consultations, against 125–686.
    let trace = roadside_trace(14, 11);
    let model = SnipModel::default();
    let profile = EpochProfile::roadside().to_slot_profile();
    for target in [8.0, 24.0, 40.0, 56.0] {
        let config = SimConfig::paper_defaults()
            .with_epochs(14)
            .with_zeta_target_secs(target);
        let at = SnipAt::for_target(model, &profile, 864.0, target);
        let asked = consultations(&trace, &config, at.clone(), at);
        assert_eq!(asked, 14, "SNIP-AT ζt={target}");
        let opt = SnipOptScheduler::solve(model, profile.clone(), 864.0, target);
        let asked = consultations(&trace, &config, opt.clone(), opt);
        assert!(asked <= 100, "SNIP-OPT ζt={target}: asked {asked} times");
    }
}

/// Probes at one of two duty-cycles, switching on every probed contact —
/// a decision that feedback changes. `across_probes` says whether its span
/// claims otherwise.
#[derive(Debug, Clone)]
struct Fickle {
    probes: u64,
    across_probes: bool,
}

impl ProbeScheduler for Fickle {
    fn decide(&mut self, _ctx: &ProbeContext) -> Option<DutyCycle> {
        let fraction = if self.probes.is_multiple_of(2) {
            0.01
        } else {
            0.003
        };
        Some(DutyCycle::new(fraction).unwrap())
    }

    fn record_probed_contact(&mut self, _info: &ProbedContactInfo) {
        self.probes += 1;
    }

    fn name(&self) -> &str {
        "fickle"
    }

    fn phi_budget(&self) -> Option<SimDuration> {
        None
    }

    fn steady_span(&self, _ctx: &ProbeContext) -> Option<SteadySpan> {
        Some(SteadySpan {
            until: SimTime::MAX,
            across_probes: self.across_probes,
        })
    }
}

#[test]
fn a_false_across_probes_flag_is_caught_by_the_identity_check() {
    // The identity tests have teeth: a span that claims to outlast probes
    // while feedback moves the duty-cycle makes the fast path keep the old
    // cycle after a probe, and the ledgers part from the naive stepper's.
    let trace = roadside_trace(3, 12);
    let config = SimConfig::paper_defaults().with_epochs(3);
    let (fast, naive) = run_both(&trace, &config, || Fickle {
        probes: 0,
        across_probes: false,
    });
    assert_eq!(fast, naive, "an honest span");
    let (fast, naive) = run_both(&trace, &config, || Fickle {
        probes: 0,
        across_probes: true,
    });
    assert_ne!(fast, naive, "a false across_probes went unnoticed");
}
