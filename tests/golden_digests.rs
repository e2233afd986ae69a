//! Cross-commit bit identity: FNV-1a digests of outputs that must never
//! move unless a change means to move them.
//!
//! `tests/golden_digests.txt` holds one `name hex-digest` line per output:
//!
//! * the exact integer-µs `RunMetrics` of the Fig 7 (Φmax 86.4 s) and
//!   Fig 8 (Φmax 864 s) sweeps at paper defaults, every ζtarget, all three
//!   mechanisms;
//! * the same Fig 8 runs at one ζtarget with 30% beacon loss, which pin
//!   the fast path's own loss draws;
//! * the schedulers outside the paper's three, at Φmax 86.4 s over the 14
//!   roadside epochs of the Fig 7 trace, clean and with 30% beacon loss:
//!   the SNIP-RH+AT hybrid, the adaptive scheduler with and without
//!   seasonal tracking, and SNIP-AT under a budget that binds mid-epoch;
//! * every node of a 20-node fleet with mixed profiles and targets;
//! * the bytes of one recorded CBOR journal;
//! * the `Init` frame the coordinator ships for the same fleet spec, and
//!   that spec's `spec_hash`.
//!
//! Metrics are digested over their canonical CBOR (integer µs), so floats
//! matter only once rounded to the µs ledger. A change that moves any of
//! these must regenerate the file (the failure message prints the new
//! contents) and say why in CHANGES.md. A digest that differs only between
//! hosts is a libm reproducibility finding, not a reason to loosen this.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use snip_replay::event::{JournalHeader, SchedulerSpec};
use snip_replay::journal::{JournalFormat, JournalWriter};
use snip_replay::record::record_run;
use snip_rh_repro::snip_core::{
    AdaptiveConfig, AdaptiveSnipRh, ProbeScheduler, SnipAt, SnipRhPlusAt,
};
use snip_rh_repro::snip_fleetd::transport::PreEncoded;
use snip_rh_repro::snip_fleetd::{
    CoordinatorMsg, FleetSpec, JobRunner, JobSpec, NodeSpec, PROTOCOL_VERSION,
};
use snip_rh_repro::snip_mobility::ContactTrace;
use snip_rh_repro::snip_mobility::{ArrivalProcess, EpochProfile, TraceGenerator};
use snip_rh_repro::snip_model::analysis::{
    PAPER_PHI_MAX_LOOSE, PAPER_PHI_MAX_TIGHT, PAPER_ZETA_TARGETS,
};
use snip_rh_repro::snip_model::LengthDistribution;
use snip_rh_repro::snip_sim::{snip_rh_config, Mechanism, ScenarioRunner, SimConfig, Simulation};
use snip_rh_repro::snip_units::{DutyCycle, SimDuration};

const GOLDEN: &str = include_str!("golden_digests.txt");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest<T: Serialize>(value: &T) -> u64 {
    fnv1a(&serde::cbor::to_vec(value))
}

/// A 20-node SNIP-RH fleet: five profile shapes (stochastic and
/// deterministic roadside, Poisson arrivals with exponential lengths,
/// uniform lengths, and a diurnal curve with contact-free hours) under
/// targets from 4 to 42 s per epoch.
fn mixed_fleet_spec() -> FleetSpec {
    let secs = SimDuration::from_secs;
    let poisson = {
        let mut p = EpochProfile::roadside_with(
            secs(240),
            secs(2400),
            LengthDistribution::exponential(secs(3)),
        );
        let slots = p
            .slots()
            .iter()
            .map(|s| {
                let mut s = *s;
                s.arrivals = Some(ArrivalProcess::poisson(
                    s.arrivals
                        .expect("roadside slots have arrivals")
                        .mean_interval(),
                ));
                s
            })
            .collect();
        p = EpochProfile::new(p.slot_length(), slots);
        p
    };
    let profiles = [
        EpochProfile::roadside(),
        EpochProfile::roadside_deterministic(),
        poisson,
        EpochProfile::roadside_with(
            secs(420),
            secs(1500),
            LengthDistribution::uniform(secs(1), secs(4)),
        ),
        EpochProfile::from_hourly_frequencies(
            &[
                0.2, 0.1, 0.0, 0.0, 0.5, 2.0, 8.0, 14.0, 12.0, 5.0, 3.0, 3.5, 4.0, 3.0, 3.0, 4.5,
                9.0, 15.0, 13.0, 6.0, 3.0, 1.5, 0.8, 0.4,
            ],
            LengthDistribution::log_normal(secs(2), SimDuration::from_millis(500)),
            0.3,
        ),
    ];
    FleetSpec {
        name: "golden-mixed-fleet".into(),
        seed: 20_111,
        epochs: 5,
        phi_max_secs: 86.4,
        job: JobSpec::Fleet {
            mechanism: Mechanism::SnipRh,
            nodes: (0..20u32)
                .map(|i| NodeSpec {
                    name: format!("site-{i:02}"),
                    profile: profiles[i as usize % profiles.len()].clone(),
                    zeta_target: 4.0 + 2.0 * f64::from(i),
                })
                .collect(),
        },
    }
}

/// The digest of one run of `scheduler` over `trace`, beacon losses drawn
/// from seed 2012.
fn run_digest<S: ProbeScheduler>(config: &SimConfig, trace: &ContactTrace, scheduler: S) -> u64 {
    let mut sim = Simulation::new(config.clone(), trace, scheduler);
    digest(&sim.run(&mut StdRng::seed_from_u64(2012)))
}

fn compute() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (figure, phi_max, seed) in [
        ("fig7", PAPER_PHI_MAX_TIGHT, 2011),
        ("fig8", PAPER_PHI_MAX_LOOSE, 2012),
    ] {
        let runner = ScenarioRunner::paper(phi_max).with_seed(seed);
        for target in PAPER_ZETA_TARGETS {
            for mechanism in Mechanism::ALL {
                let metrics = runner.run_one(mechanism, target);
                out.push((
                    format!("{figure}/{}/zeta{target}", mechanism.label()),
                    digest(&metrics),
                ));
            }
        }
    }

    // Fig 8 with lost beacons: pins the fast path's loss draws (one per
    // beacon that lands inside a contact, in order), which the naive
    // stepper does not share.
    let lossy = ScenarioRunner::new(
        EpochProfile::roadside(),
        SimConfig::paper_defaults().with_beacon_loss(0.3),
        PAPER_PHI_MAX_LOOSE,
    )
    .with_seed(2012);
    for mechanism in Mechanism::ALL {
        let metrics = lossy.run_one(mechanism, 32.0);
        out.push((
            format!("fig8-loss30/{}/zeta32", mechanism.label()),
            digest(&metrics),
        ));
    }

    // The budgeted schedulers no paper figure runs. SNIP-AT at 1% would
    // spend 864 s a day, so its 288.01 s budget (not a whole number of
    // beacon windows) binds around 08:00 every epoch.
    let trace = ScenarioRunner::paper(PAPER_PHI_MAX_TIGHT)
        .with_seed(2011)
        .trace_arc();
    let profile = EpochProfile::roadside();
    let adaptive = |tracking| {
        let mut config = AdaptiveConfig::paper_sketch(24, 4);
        config.tracking_duty_cycle = tracking;
        AdaptiveSnipRh::new(config)
    };
    for (set, loss) in [("budgeted", 0.0), ("budgeted-loss30", 0.3)] {
        let config = SimConfig::paper_defaults()
            .with_zeta_target_secs(32.0)
            .with_beacon_loss(loss);
        let rh = snip_rh_config(
            profile.rush_marks(),
            &config,
            PAPER_PHI_MAX_TIGHT,
            profile.mean_contact_length(),
        );
        let at = SnipAt::new(DutyCycle::new(0.01).expect("valid duty cycle"))
            .with_budget(SimDuration::from_micros(288_010_000));
        for (name, d) in [
            (
                "SNIP-RH+AT-bg0.002",
                run_digest(&config, &trace, SnipRhPlusAt::new(rh, 0.002)),
            ),
            (
                "Adaptive-track0.0005",
                run_digest(&config, &trace, adaptive(0.000_5)),
            ),
            (
                "Adaptive-track0",
                run_digest(&config, &trace, adaptive(0.0)),
            ),
            ("SNIP-AT-budget288.01", run_digest(&config, &trace, at)),
        ] {
            out.push((format!("{set}/{name}/zeta32"), d));
        }
    }

    let spec = mixed_fleet_spec();
    let runner = JobRunner::new(&spec);
    for i in 0..runner.job_count() {
        out.push((format!("fleet20/node{i:02}"), digest(&runner.run_job(i))));
    }

    let trace = TraceGenerator::new(EpochProfile::roadside())
        .epochs(3)
        .generate(&mut StdRng::seed_from_u64(1));
    let header = JournalHeader::new(
        SchedulerSpec::At {
            duty_cycle: DutyCycle::new(0.001).expect("valid duty cycle"),
        },
        SimConfig::paper_defaults().with_epochs(3),
        42,
    );
    let mut writer = JournalWriter::new(Vec::new(), JournalFormat::Cbor);
    record_run(&mut writer, &header, &trace).expect("in-memory journal");
    out.push(("journal/cbor".into(), fnv1a(&writer.into_inner())));

    let init = CoordinatorMsg::Init {
        protocol: PROTOCOL_VERSION,
        spec: spec.clone(),
        spec_hash: spec.spec_hash(),
        session: 0,
        plans: Vec::new(),
    };
    out.push(("init/frame".into(), fnv1a(&PreEncoded::new(&init).bytes)));
    out.push(("init/spec_hash".into(), spec.spec_hash()));
    out
}

#[test]
fn outputs_match_the_committed_digests() {
    let computed = compute();
    let rendered: String = computed
        .iter()
        .map(|(name, d)| format!("{name} {d:016x}\n"))
        .collect();
    let golden: Vec<(&str, &str)> = GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| l.split_once(' ').expect("`name digest` lines"))
        .collect();
    let mismatches: Vec<String> = computed
        .iter()
        .zip(&golden)
        .filter(|((name, d), (gname, gd))| name != gname || format!("{d:016x}") != *gd)
        .map(|((name, d), (gname, gd))| format!("{gname} {gd} -> {name} {d:016x}"))
        .collect();
    assert!(
        mismatches.is_empty() && computed.len() == golden.len(),
        "{} of {} digests moved ({} computed, {} committed):\n{}\n\
         If the change is intended, replace the data lines of \
         tests/golden_digests.txt with:\n{rendered}",
        mismatches.len(),
        golden.len(),
        computed.len(),
        golden.len(),
        mismatches.join("\n"),
    );
}
