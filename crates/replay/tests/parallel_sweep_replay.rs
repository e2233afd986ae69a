//! A journal recorded for a sweep point replays bit-for-bit, and the fast
//! and the naive stepper write the same journal.
//!
//! The sweep and the record/replay pipeline must describe the *same* run:
//! recording the scheduler/config/seed combination of a sweep point must
//! reproduce that point's metrics exactly, and the journal must then verify
//! cleanly against a live re-execution.

use rand::rngs::StdRng;
use rand::SeedableRng;

use snip_core::{AdaptiveConfig, AdaptiveSnipRh, ProbeScheduler, SnipRhConfig, SnipRhPlusAt};
use snip_mobility::{ContactTrace, EpochProfile, TraceGenerator};
use snip_replay::event::{JournalHeader, SchedulerSpec};
use snip_replay::journal::{JournalFormat, JournalReader, JournalWriter};
use snip_replay::record::{record_run, Recorder};
use snip_replay::replay::replay_run;
use snip_sim::{snip_rh_config, Mechanism, RunMetrics, ScenarioRunner, SimConfig, Simulation};
use snip_units::{DutyCycle, SimDuration};

const SEED: u64 = 2011;
const EPOCHS: u64 = 7;
const PHI_MAX: f64 = 86.4;
const TARGET: f64 = 16.0;

/// The SNIP-RH spec `Mechanism::scheduler` builds for the roadside
/// scenario.
fn rh_spec(profile: &EpochProfile, config: &SimConfig) -> SchedulerSpec {
    SchedulerSpec::Rh {
        config: snip_rh_config(
            profile.rush_marks(),
            config,
            PHI_MAX,
            profile.mean_contact_length(),
        ),
    }
}

#[test]
fn parallel_sweep_point_records_and_replays_bit_for_bit() {
    let profile = EpochProfile::roadside();
    let config = SimConfig::paper_defaults().with_epochs(EPOCHS);
    let runner = ScenarioRunner::new(profile.clone(), config.clone(), PHI_MAX).with_seed(SEED);

    // The SNIP-RH point of a one-target sweep.
    let points = runner.sweep(&[TARGET]);
    let rh_point = points
        .iter()
        .find(|p| p.mechanism == Mechanism::SnipRh)
        .expect("sweep covers SNIP-RH");

    // Record the same run through the journal pipeline: same trace seed,
    // same sim seed, same scheduler configuration.
    let trace = TraceGenerator::new(profile.clone())
        .epochs(EPOCHS)
        .generate(&mut StdRng::seed_from_u64(SEED));
    let run_config = config.clone().with_zeta_target_secs(TARGET);
    let header = JournalHeader::new(
        rh_spec(&profile, &run_config),
        run_config,
        SEED.wrapping_add(1),
    )
    .with_comment("sweep point (SNIP-RH, zeta_target = 16)");
    let mut writer = JournalWriter::new(Vec::new(), JournalFormat::Cbor);
    let metrics = record_run(&mut writer, &header, &trace).expect("record");

    // The recorded run IS the sweep point, bit for bit.
    assert_eq!(metrics.mean_zeta_per_epoch(), rh_point.zeta, "ζ");
    assert_eq!(metrics.mean_phi_per_epoch(), rh_point.phi, "Φ");
    assert_eq!(metrics.overall_rho(), rh_point.rho, "ρ");

    // And the journal replays cleanly: every event and the metrics trailer
    // verify against a live re-execution.
    let bytes = writer.into_inner();
    let mut reader = JournalReader::new(std::io::Cursor::new(bytes), JournalFormat::Cbor);
    let report = replay_run(&mut reader, None).expect("bit-for-bit replay");
    assert_eq!(report.metrics, metrics);
    assert!(report.events_verified > 0);
}

/// Records one run's sim events through a [`Recorder`] into CBOR bytes.
fn journal<S: ProbeScheduler>(mut sim: Simulation<'_, S>) -> (Vec<u8>, RunMetrics) {
    let mut writer = JournalWriter::new(Vec::new(), JournalFormat::Cbor);
    let mut recorder = Recorder::new(&mut writer);
    let metrics = sim.run_observed(&mut StdRng::seed_from_u64(SEED), &mut recorder);
    recorder.finish().expect("in-memory journal");
    (writer.into_inner(), metrics)
}

/// Journals `make()`'s run on the fast path and on the naive stepper and
/// requires the same bytes.
fn assert_same_journal<S: ProbeScheduler>(
    trace: &ContactTrace,
    config: &SimConfig,
    make: impl Fn() -> S,
    what: &str,
) {
    let (fast, metrics) = journal(Simulation::new(config.clone(), trace, make()));
    let (naive, _) = journal(Simulation::new(config.clone(), trace, make()).with_naive_stepping());
    assert!(metrics.total_contacts_probed() > 0, "{what}: probes");
    assert_eq!(fast, naive, "{what}: journal bytes");
}

#[test]
fn fast_and_naive_steppers_write_identical_journals() {
    // A journal records what the run decides, not how the stepper walked
    // through it: at zero beacon loss the fast path's skipped wake-ups and
    // batched empty beacons leave no trace in the bytes.
    let profile = EpochProfile::roadside();
    let trace = TraceGenerator::new(profile.clone())
        .epochs(EPOCHS)
        .generate(&mut StdRng::seed_from_u64(SEED));
    let config = |target| {
        SimConfig::paper_defaults()
            .with_epochs(EPOCHS)
            .with_zeta_target_secs(target)
    };
    let rh = |target| rh_spec(&profile, &config(target));

    let at = SchedulerSpec::At {
        duty_cycle: DutyCycle::new(0.001).unwrap(),
    };
    let opt = SchedulerSpec::Opt {
        profile: profile.clone(),
        phi_max_secs: 864.0,
        zeta_target: TARGET,
    };
    for (spec, target) in [
        (at, TARGET),
        (opt, TARGET),
        (rh(4.0), 4.0),
        (rh(TARGET), TARGET),
    ] {
        let config = config(target);
        let what = format!("{} zeta_target={target}", spec.label());
        assert_same_journal(&trace, &config, || spec.build(&config), &what);
    }
    assert_same_journal(
        &trace,
        &config(TARGET),
        || {
            let mut cfg = AdaptiveConfig::paper_sketch(24, 4);
            cfg.rh.phi_max = SimDuration::from_secs_f64(PHI_MAX);
            cfg.tracking_duty_cycle = 0.000_5;
            AdaptiveSnipRh::new(cfg)
        },
        "Adaptive-SNIP-RH",
    );
    assert_same_journal(
        &trace,
        &config(TARGET),
        || {
            let cfg = SnipRhConfig::paper_defaults(profile.rush_marks())
                .with_phi_max(SimDuration::from_secs_f64(PHI_MAX));
            SnipRhPlusAt::new(cfg, 0.002)
        },
        "SNIP-RH+AT",
    );
}
