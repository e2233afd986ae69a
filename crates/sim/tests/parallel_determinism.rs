//! Determinism proofs for the sweep and the fast path.
//!
//! The contract: instrumentation and the fast path change wall-clock time
//! and nothing else. The tests here compare complete result sets
//! bit-for-bit with observability on and off, and the fast path against
//! the naive reference stepper. Sweeps and fleets sharded across worker
//! processes are pinned to the in-process run by `snip-fleetd`'s
//! `fleet_determinism` tests.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snip_core::{ProbeScheduler, SnipAt, SnipOptScheduler};
use snip_mobility::profile::ProfileSlot;
use snip_mobility::{Contact, ContactTrace, EpochProfile, TraceGenerator};
use snip_model::SnipModel;
use snip_sim::{
    CollectingObserver, Mechanism, RunMetrics, ScenarioRunner, SimConfig, SimEvent, Simulation,
    SweepPoint,
};
use snip_units::{DutyCycle, SimDuration, SimTime};

const TARGETS: [f64; 3] = [16.0, 32.0, 48.0];

fn paper_runner(epochs: u64) -> ScenarioRunner {
    budget_runner(epochs, 86.4)
}

fn budget_runner(epochs: u64, phi_max_secs: f64) -> ScenarioRunner {
    ScenarioRunner::new(
        EpochProfile::roadside(),
        SimConfig::paper_defaults().with_epochs(epochs),
        phi_max_secs,
    )
    .with_seed(2011)
}

/// One run of `scheduler` over `trace`: its ledgers and every event it
/// reported.
fn observed<S: ProbeScheduler>(sim: Simulation<'_, S>) -> (RunMetrics, Vec<SimEvent>) {
    let mut sim = sim;
    let mut events = CollectingObserver::default();
    let metrics = sim.run_observed(&mut StdRng::seed_from_u64(17), &mut events);
    (metrics, events.events)
}

/// Runs `scheduler` on the fast path and a clone of it on the reference
/// stepper, and asserts that the whole ledgers and the whole event
/// streams are identical. Returns the fast run's metrics.
fn assert_steppers_agree<S: ProbeScheduler + Clone>(
    config: &SimConfig,
    trace: &ContactTrace,
    scheduler: S,
    what: &str,
) -> RunMetrics {
    let naive =
        observed(Simulation::new(config.clone(), trace, scheduler.clone()).with_naive_stepping());
    let fast = observed(Simulation::new(config.clone(), trace, scheduler));
    assert_eq!(fast.0, naive.0, "{what}: ledgers");
    assert_eq!(fast.1, naive.1, "{what}: events");
    fast.0
}

/// The roadside profile cut into `n` equal slots per day (12: two hours
/// each; 48: half an hour each), each taking the roadside slot it starts
/// in.
fn roadside_in_slots(n: u64) -> EpochProfile {
    let roadside = EpochProfile::roadside();
    let len = roadside.epoch() / n;
    let slots: Vec<ProfileSlot> = (0..n)
        .map(|i| roadside.slots()[((len * i).as_micros() / 3_600_000_000) as usize])
        .collect();
    EpochProfile::new(len, slots)
}

fn assert_points_identical(a: &[SweepPoint], b: &[SweepPoint], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: point counts");
    for (pa, pb) in a.iter().zip(b) {
        assert_eq!(pa.mechanism, pb.mechanism, "{label}");
        assert_eq!(pa.zeta_target, pb.zeta_target, "{label}");
        assert_eq!(
            pa.zeta,
            pb.zeta,
            "{label}: ζ at ({}, {})",
            pa.mechanism.label(),
            pa.zeta_target
        );
        assert_eq!(
            pa.phi,
            pb.phi,
            "{label}: Φ at ({}, {})",
            pa.mechanism.label(),
            pa.zeta_target
        );
        assert_eq!(pa.rho, pb.rho, "{label}: ρ");
    }
}

#[test]
fn sweep_is_bit_identical_with_full_observability_enabled() {
    // A quiet baseline sweep first, then the same sweep with SNIP_LOG=debug
    // and a chrome://tracing sink live: the instrumentation reads wall
    // clocks and process-global atomics only, so every point must match
    // bit-for-bit.
    let runner = paper_runner(5);
    let quiet = runner.sweep(&TARGETS);

    std::env::set_var("SNIP_LOG", "debug");
    snip_obs::log::set_level(snip_obs::log::Level::Debug);
    let trace_path = std::env::temp_dir().join(format!(
        "snip-parallel-determinism-trace-{}.json",
        std::process::id()
    ));
    assert!(
        snip_obs::trace::init_file(&trace_path),
        "first trace sink in this process"
    );
    let loud = runner.sweep(&TARGETS);
    assert_points_identical(&quiet, &loud, "debug log + trace vs quiet");

    let trace = std::fs::read_to_string(&trace_path).expect("trace file exists");
    assert!(
        trace.contains("sweep-point"),
        "per-point spans reached the trace file"
    );
    let _ = std::fs::remove_file(&trace_path);
    snip_obs::log::set_level(snip_obs::log::Level::Warn);
}

#[test]
fn fast_path_matches_the_naive_stepper() {
    // With no beacon loss the fast path sends exactly the same beacons and
    // probes exactly the same contacts as the reference stepper — and all
    // metrics are exact integer-µs ledgers, so *every* quantity, Φ
    // included, is bit-identical: the batched `count × Ton` charge is the
    // same integer as `count` one-at-a-time charges.
    for phi_max in [86.4, 864.0] {
        let runner = budget_runner(7, phi_max);
        for &target in &TARGETS {
            for mechanism in Mechanism::ALL {
                let fast = runner.run_one(mechanism, target);
                let naive = runner.run_one_baseline(mechanism, target);
                for (e, (f, n)) in fast.epochs().iter().zip(naive.epochs()).enumerate() {
                    let at = format!("{} Φmax={phi_max} ζt={target} epoch {e}", mechanism.label());
                    assert_eq!(f.zeta_exact(), n.zeta_exact(), "ζ {at}");
                    assert_eq!(f.phi_exact(), n.phi_exact(), "Φ {at}");
                    assert_eq!(f.contacts_probed, n.contacts_probed, "probed {at}");
                    assert_eq!(f.contacts_total, n.contacts_total, "total {at}");
                    assert_eq!(f.beacons, n.beacons, "beacons {at}");
                    assert_eq!(f.uploaded_exact(), n.uploaded_exact(), "uploaded {at}");
                }
                // Whole-run equality covers the per-slot ledgers too.
                assert_eq!(
                    fast,
                    naive,
                    "{} Φmax={phi_max} ζt={target}: full ledgers must be identical",
                    mechanism.label()
                );
                // And both steppers report the same events.
                let config = SimConfig::paper_defaults()
                    .with_epochs(7)
                    .with_zeta_target_secs(target);
                assert_steppers_agree(
                    &config,
                    &runner.trace(),
                    runner.mechanism_scheduler(mechanism, target),
                    &format!("{} Φmax={phi_max} ζt={target}", mechanism.label()),
                );
            }
        }
    }
}

#[test]
fn a_budget_that_binds_mid_epoch_stops_both_steppers_at_the_same_beacon() {
    // SNIP-AT at 1% spends 864 s a day: a budget a third of that (and not a
    // whole number of beacon windows) runs out around 08:00 every epoch.
    let config = SimConfig::paper_defaults().with_epochs(7);
    let trace = paper_runner(7).trace();
    let at = SnipAt::new(DutyCycle::new(0.01).unwrap())
        .with_budget(SimDuration::from_micros(288_010_000));
    let metrics = assert_steppers_agree(&config, &trace, at, "SNIP-AT, budget 288.01 s");
    for em in metrics.epochs() {
        assert_eq!(em.phi_exact(), SimDuration::from_secs(288), "{em:?}");
    }
}

#[test]
fn snip_opt_on_two_hour_and_half_hour_slots_matches_the_naive_stepper() {
    // The plan's slots and the ledger's hourly slots end at different
    // instants: a span can outlast a ledger slot (12 slots), and a ledger
    // slot can hold two spans (48 slots).
    let config = SimConfig::paper_defaults().with_epochs(7);
    for n in [12, 48] {
        let profile = roadside_in_slots(n);
        let trace = TraceGenerator::new(profile.clone())
            .epochs(7)
            .generate(&mut StdRng::seed_from_u64(n));
        for phi_max in [86.4, 864.0] {
            for &target in &TARGETS {
                let opt = SnipOptScheduler::solve(
                    SnipModel::new(config.ton),
                    profile.to_slot_profile(),
                    phi_max,
                    target,
                );
                let metrics = assert_steppers_agree(
                    &config.clone().with_zeta_target_secs(target),
                    &trace,
                    opt,
                    &format!("SNIP-OPT, {n} slots, Φmax={phi_max} ζt={target}"),
                );
                assert!(metrics.total_contacts_probed() > 0);
            }
        }
    }
}

#[test]
fn contacts_across_slot_and_epoch_boundaries_match_the_naive_stepper() {
    // 20 s contacts that start 7 s before every hour and half hour, so a
    // probe's upload carries the stepper into the next ledger slot, the
    // next plan slot or the next epoch; the last one outlasts the horizon.
    let epochs = 3;
    let mut trace = ContactTrace::new();
    for k in 1..epochs * 48 {
        trace.push(Contact::new(
            SimTime::from_secs(k * 1_800 - 7),
            SimDuration::from_secs(20),
        ));
    }
    trace.push(Contact::new(
        SimTime::from_secs(epochs * 86_400 - 5),
        SimDuration::from_secs(20),
    ));
    let config = SimConfig::paper_defaults().with_epochs(epochs);
    let model = SnipModel::new(config.ton);
    let runner = budget_runner(epochs, 864.0);
    let schedulers = [
        ("SNIP-AT", SnipAt::new(DutyCycle::new(0.01).unwrap()).into()),
        (
            "SNIP-OPT",
            runner.mechanism_scheduler(Mechanism::SnipOpt, 48.0),
        ),
        (
            "SNIP-OPT, 48 slots",
            SnipOptScheduler::solve(model, roadside_in_slots(48).to_slot_profile(), 864.0, 48.0)
                .into(),
        ),
        (
            "SNIP-RH",
            runner.mechanism_scheduler(Mechanism::SnipRh, 48.0),
        ),
    ];
    for (what, scheduler) in schedulers {
        let metrics = assert_steppers_agree(&config, &trace, scheduler, what);
        assert!(metrics.total_contacts_probed() > 0, "{what}");
    }
}

#[test]
fn beacon_loss_stays_statistically_consistent_on_the_fast_path() {
    // The fast path draws loss only for beacons that can hit a contact, so
    // it follows a different RNG stream than the naive stepper — but the
    // loss process itself must still halve probed contacts at p = 0.5.
    let runner = paper_runner(14);
    let lossy = ScenarioRunner::new(
        EpochProfile::roadside(),
        SimConfig::paper_defaults().with_beacon_loss(0.5),
        86.4,
    )
    .with_seed(2011);
    let clean = runner.run_one(Mechanism::SnipAt, 16.0);
    let half = lossy.run_one(Mechanism::SnipAt, 16.0);
    let ratio = half.total_contacts_probed() as f64 / clean.total_contacts_probed() as f64;
    assert!(
        (ratio - 0.5).abs() < 0.15,
        "p=0.5 probed ratio {ratio} (clean {}, lossy {})",
        clean.total_contacts_probed(),
        half.total_contacts_probed()
    );
}

/// At scale and shaped like the benchmark's `plan-sweep`: 300 targets, one
/// jittered inside each of 300 equal cells of 4–60 s, over three roadside
/// traces of 14 epochs at Φmax 864 s, every mechanism planned by its run's
/// planner; the whole ledgers and event streams of both steppers agree.
#[test]
#[ignore = "at-scale identity check; run with --release -- --ignored"]
fn fast_path_matches_the_naive_stepper_at_scale() {
    let mut state = 0x5150_u64;
    let mut unit = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let cells = 300;
    for seed in 0..3 {
        let runner = budget_runner(14, 864.0).with_seed(5150 + seed);
        let trace = runner.trace();
        for cell in (seed..cells).step_by(3) {
            let target = 4.0 + 56.0 * (cell as f64 + unit()) / cells as f64;
            let config = SimConfig::paper_defaults().with_zeta_target_secs(target);
            for mechanism in Mechanism::ALL {
                assert_steppers_agree(
                    &config,
                    &trace,
                    runner.mechanism_scheduler(mechanism, target),
                    &format!("{} seed {} ζt={target}", mechanism.label(), 5150 + seed),
                );
            }
        }
    }
}
