//! Property tests of the journal pipeline: record → serialize (JSON and
//! binary) → deserialize → replay must reproduce identical `RunMetrics`,
//! and any mutated journal must be rejected with a divergence error.

use std::io::Cursor;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use snip_core::SnipRhConfig;
use snip_mobility::{EpochProfile, TraceGenerator};
use snip_replay::event::{JournalEvent, JournalHeader, SchedulerSpec};
use snip_replay::journal::{convert, JournalFormat, JournalReader, JournalWriter};
use snip_replay::record::record_run;
use snip_replay::replay::{replay_run, ReplayError};
use snip_replay::ReplayReport;
use snip_sim::{RunMetrics, SimConfig, SimEvent};
use snip_units::{DutyCycle, SimDuration, SimTime};

fn rush_marks() -> Vec<bool> {
    let mut m = vec![false; 24];
    for h in [7, 8, 17, 18] {
        m[h] = true;
    }
    m
}

/// A recordable scheduler spec from two random knobs.
fn spec_for(mechanism: usize, duty_millis: u64) -> SchedulerSpec {
    match mechanism % 3 {
        0 => SchedulerSpec::At {
            duty_cycle: DutyCycle::new(duty_millis as f64 / 1_000.0).unwrap(),
        },
        1 => SchedulerSpec::Rh {
            config: SnipRhConfig::paper_defaults(rush_marks())
                .with_phi_max(SimDuration::from_secs_f64(86.4)),
        },
        _ => SchedulerSpec::Opt {
            profile: EpochProfile::roadside(),
            phi_max_secs: 864.0,
            zeta_target: 24.0,
        },
    }
}

fn record_to_vec(
    format: JournalFormat,
    spec: SchedulerSpec,
    epochs: u64,
    trace_seed: u64,
    sim_seed: u64,
    beacon_loss: f64,
) -> (Vec<u8>, RunMetrics) {
    let trace = TraceGenerator::new(EpochProfile::roadside())
        .epochs(epochs)
        .generate(&mut StdRng::seed_from_u64(trace_seed));
    let config = SimConfig::paper_defaults()
        .with_epochs(epochs)
        .with_zeta_target_secs(16.0)
        .with_beacon_loss(beacon_loss);
    let header = JournalHeader::new(spec, config, sim_seed);
    let mut writer = JournalWriter::new(Vec::new(), format);
    let metrics = record_run(&mut writer, &header, &trace).expect("in-memory record");
    (writer.into_inner(), metrics)
}

fn replay_bytes(bytes: Vec<u8>, format: JournalFormat) -> Result<ReplayReport, ReplayError> {
    let mut reader = JournalReader::new(Cursor::new(bytes), format);
    replay_run(&mut reader, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// record → serialize → deserialize → replay is the identity on
    /// metrics, for random mechanisms, seeds, loss rates, in both formats.
    #[test]
    fn replay_reproduces_identical_metrics(
        mechanism in 0usize..3,
        duty_millis in 1u64..20,
        epochs in 1u64..3,
        trace_seed in 0u64..1_000,
        sim_seed in 0u64..1_000,
        loss_pct in 0u64..40,
    ) {
        for format in [JournalFormat::Jsonl, JournalFormat::Cbor] {
            let (bytes, recorded) = record_to_vec(
                format,
                spec_for(mechanism, duty_millis),
                epochs,
                trace_seed,
                sim_seed,
                loss_pct as f64 / 100.0,
            );
            let report = replay_bytes(bytes, format).expect("clean replay");
            // "Identical" means bit-for-bit: RunMetrics PartialEq compares
            // every per-epoch ζ/Φ/upload float and per-slot ledger exactly.
            prop_assert_eq!(&report.metrics, &recorded, "{}", format);
            prop_assert_eq!(
                report.metrics.epochs().len(),
                epochs as usize,
                "{}", format
            );
        }
    }

    /// Format conversion (text <-> binary, both directions) preserves the
    /// event stream exactly: the converted journal still replays clean.
    #[test]
    fn conversion_preserves_replayability(
        mechanism in 0usize..3,
        trace_seed in 0u64..1_000,
    ) {
        let (bytes, recorded) = record_to_vec(
            JournalFormat::Cbor,
            spec_for(mechanism, 1),
            1,
            trace_seed,
            trace_seed.wrapping_add(1),
            0.0,
        );
        // cbor -> jsonl -> cbor
        let mut cbor_reader = JournalReader::new(Cursor::new(bytes), JournalFormat::Cbor);
        let mut jsonl_writer = JournalWriter::new(Vec::new(), JournalFormat::Jsonl);
        convert(&mut cbor_reader, &mut jsonl_writer).expect("cbor -> jsonl");
        let jsonl = jsonl_writer.into_inner();
        let mut jsonl_reader =
            JournalReader::new(Cursor::new(jsonl.clone()), JournalFormat::Jsonl);
        let mut cbor_writer = JournalWriter::new(Vec::new(), JournalFormat::Cbor);
        convert(&mut jsonl_reader, &mut cbor_writer).expect("jsonl -> cbor");

        let report = replay_bytes(jsonl, JournalFormat::Jsonl).expect("jsonl replay");
        prop_assert_eq!(&report.metrics, &recorded);
        let report = replay_bytes(cbor_writer.into_inner(), JournalFormat::Cbor)
            .expect("round-tripped cbor replay");
        prop_assert_eq!(&report.metrics, &recorded);
    }

    /// Mutating any single sim event makes replay fail with a divergence
    /// (never a silent pass, never a metrics-level-only error).
    #[test]
    fn mutated_journal_is_rejected(
        mechanism in 0usize..3,
        trace_seed in 0u64..1_000,
        victim in 0u64..10_000,
    ) {
        let (bytes, _) = record_to_vec(
            JournalFormat::Cbor,
            spec_for(mechanism, 1),
            1,
            trace_seed,
            trace_seed.wrapping_add(7),
            0.0,
        );
        // Decode the full stream, corrupt the victim-th sim event.
        let mut reader = JournalReader::new(Cursor::new(bytes), JournalFormat::Cbor);
        let mut events = Vec::new();
        while let Some(e) = reader.next_event().expect("well-formed journal") {
            events.push(e);
        }
        let sim_indices: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, JournalEvent::Sim(_)))
            .map(|(i, _)| i)
            .collect();
        let target = sim_indices[(victim as usize) % sim_indices.len()];
        let JournalEvent::Sim(victim_event) = &mut events[target] else {
            unreachable!("index filtered to sim events");
        };
        mutate(victim_event);

        let mut writer = JournalWriter::new(Vec::new(), JournalFormat::Cbor);
        for e in &events {
            writer.write(e).expect("rewrite");
        }
        let err = replay_bytes(writer.into_inner(), JournalFormat::Cbor)
            .expect_err("mutation must not replay clean");
        prop_assert!(
            matches!(err, ReplayError::Divergence(_)),
            "expected divergence, got: {}",
            err
        );
    }
}

/// Flips something observable in any sim event variant.
fn mutate(event: &mut SimEvent) {
    match event {
        SimEvent::Decision(d) => {
            d.duty_cycle = match d.duty_cycle {
                None => Some(DutyCycle::new(0.5).unwrap()),
                Some(_) => None,
            };
        }
        SimEvent::Probe { beacon_heard, .. } => *beacon_heard = !*beacon_heard,
        SimEvent::Upload { at, .. } => *at += SimDuration::from_micros(1),
        SimEvent::EpochEnd { metrics, .. } => metrics.charge_phi(SimDuration::from_secs(1)),
    }
}

/// The non-property core of the round-trip requirement, pinned exactly: the
/// roadside scenario records and replays byte-for-byte per-epoch ζ/Φ/ρ.
#[test]
fn roadside_acceptance_record_then_replay() {
    let (bytes, recorded) = record_to_vec(
        JournalFormat::Cbor,
        spec_for(1, 1), // SNIP-RH
        2,
        42,
        43,
        0.0,
    );
    let report = replay_bytes(bytes, JournalFormat::Cbor).expect("clean replay");
    assert_eq!(report.metrics, recorded);
    for (a, b) in report.metrics.epochs().iter().zip(recorded.epochs()) {
        // Integer-µs ledgers: equality IS bit-for-bit.
        assert_eq!(a.zeta_exact(), b.zeta_exact());
        assert_eq!(a.phi_exact(), b.phi_exact());
        assert_eq!(
            a.rho().map(f64::to_bits),
            b.rho().map(f64::to_bits),
            "ρ must match bit-for-bit"
        );
    }
}

/// Replaying against a journal recorded with a *different* scheduler fails
/// with a first-divergence report (the CLI exits non-zero on this error).
#[test]
fn cross_scheduler_replay_diverges() {
    let (bytes, _) = record_to_vec(JournalFormat::Cbor, spec_for(0, 1), 1, 5, 6, 0.0);
    let mut reader = JournalReader::new(Cursor::new(bytes), JournalFormat::Cbor);
    let err = replay_run(
        &mut reader,
        Some(SchedulerSpec::Rh {
            config: SnipRhConfig::paper_defaults(rush_marks())
                .with_phi_max(SimDuration::from_secs_f64(86.4)),
        }),
    )
    .expect_err("SNIP-AT journal cannot replay under SNIP-RH");
    let ReplayError::Divergence(d) = err else {
        panic!("expected divergence, got {err}");
    };
    assert_eq!(d.index, 0, "mechanisms differ at the first decision: {d}");
    assert!(d.expected.is_some() && d.got.is_some());
}

/// Journal events referencing simulated instants keep microsecond identity
/// through both codecs (a spot check on the units' transparent serde).
#[test]
fn event_timestamps_survive_both_codecs() {
    use serde::{Deserialize as _, Serialize as _};
    let event = JournalEvent::Sim(SimEvent::Upload {
        at: SimTime::from_micros(123_456_789_012_345),
        airtime: snip_units::DataSize::from_airtime(SimDuration::from_micros(987_654_321)),
    });
    let json = serde::json::to_string(&event.to_value());
    let back = JournalEvent::from_value(&serde::json::from_str(&json).unwrap()).unwrap();
    assert_eq!(back, event);
    let cbor = serde::cbor::to_vec(&event.to_value());
    let back = JournalEvent::from_value(&serde::cbor::from_slice(&cbor).unwrap()).unwrap();
    assert_eq!(back, event);
}
