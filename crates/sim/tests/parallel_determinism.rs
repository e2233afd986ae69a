//! Determinism proofs for the sweep and the fast path.
//!
//! The contract: instrumentation and the fast path change wall-clock time
//! and nothing else. The tests here compare complete result sets
//! bit-for-bit with observability on and off, and the fast path against
//! the naive reference stepper. Sweeps and fleets sharded across worker
//! processes are pinned to the in-process run by `snip-fleetd`'s
//! `fleet_determinism` tests.

use snip_mobility::EpochProfile;
use snip_sim::{Mechanism, ScenarioRunner, SimConfig, SweepPoint};

const TARGETS: [f64; 3] = [16.0, 32.0, 48.0];

fn paper_runner(epochs: u64) -> ScenarioRunner {
    ScenarioRunner::new(
        EpochProfile::roadside(),
        SimConfig::paper_defaults().with_epochs(epochs),
        86.4,
    )
    .with_seed(2011)
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
    let runner = paper_runner(7);
    for &target in &TARGETS {
        for mechanism in Mechanism::ALL {
            let fast = runner.run_one(mechanism, target);
            let naive = runner.run_one_baseline(mechanism, target);
            for (e, (f, n)) in fast.epochs().iter().zip(naive.epochs()).enumerate() {
                let at = format!("{} ζt={target} epoch {e}", mechanism.label());
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
                "{} ζt={target}: full ledgers must be identical",
                mechanism.label()
            );
        }
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
