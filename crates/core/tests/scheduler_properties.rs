//! Property tests of the scheduling mechanisms: the §VI-B conditions must
//! hold for *arbitrary* configurations and contexts, not just the paper's.
//! Condition 3 is the driver's; `snip-sim` tests it where it is enforced.

use proptest::prelude::*;

use snip_core::{
    Ewma, LengthEstimation, ProbeContext, ProbeScheduler, ProbedContactInfo, SnipAt, SnipRh,
    SnipRhConfig,
};
use snip_units::{DataSize, DutyCycle, SimDuration, SimTime};

fn ctx(now_s: u64, buffered_ms: u64) -> ProbeContext {
    ProbeContext {
        now: SimTime::from_secs(now_s),
        buffered_data: DataSize::from_airtime(SimDuration::from_millis(buffered_ms)),
    }
}

proptest! {
    /// Condition 1: SNIP-RH never activates outside a marked slot, for any
    /// mark pattern, slot count and query time.
    #[test]
    fn rh_never_probes_unmarked_slots(
        marks in proptest::collection::vec(any::<bool>(), 1..48),
        now_s in 0u64..(10 * 86_400),
        buffered_ms in 0u64..100_000,
    ) {
        let slot_count = marks.len();
        let mut rh = SnipRh::new(SnipRhConfig::paper_defaults(marks.clone()));
        let c = ctx(now_s, buffered_ms);
        let decision = rh.decide(&c);
        let epoch_s = 86_400u64;
        let slot_len = epoch_s / slot_count as u64;
        let idx = (((now_s % epoch_s) / slot_len) as usize).min(slot_count - 1);
        if decision.is_some() {
            prop_assert!(marks[idx], "probed in unmarked slot {idx}");
        }
        if !marks[idx] {
            prop_assert!(decision.is_none());
        }
    }

    /// The rush duty-cycle always stays in (0, 1] and tracks 1/T̄contact,
    /// whatever lengths are fed back.
    #[test]
    fn rh_duty_cycle_always_valid(
        lengths in proptest::collection::vec(0.001f64..10_000.0, 1..200),
    ) {
        let mut rh = SnipRh::new(SnipRhConfig::paper_defaults(vec![true; 24]));
        for (i, &len) in lengths.iter().enumerate() {
            rh.record_probed_contact(&ProbedContactInfo {
                probe_time: SimTime::from_secs(8 * 3_600 + i as u64),
                probed_duration: SimDuration::from_secs_f64(len / 2.0),
                uploaded: DataSize::ZERO,
                contact_length: Some(SimDuration::from_secs_f64(len)),
            });
            let d = rh.rush_duty_cycle().as_fraction();
            prop_assert!(d > 0.0 && d <= 1.0, "d = {d}");
        }
        // The estimate stays within the sample hull (EWMA property).
        let min = lengths.iter().cloned().fold(f64::INFINITY, f64::min).min(2.0);
        let max = lengths.iter().cloned().fold(0.0f64, f64::max).max(2.0);
        let est = rh.mean_contact_length().as_secs_f64();
        prop_assert!(est >= min - 1e-9 && est <= max + 1e-9, "T̄ = {est}");
    }

    /// Condition 2 threshold: never negative, never exceeds the largest
    /// reported upload.
    #[test]
    fn rh_upload_threshold_bounded(
        uploads in proptest::collection::vec(0.0f64..100.0, 1..100),
    ) {
        let mut rh = SnipRh::new(SnipRhConfig::paper_defaults(vec![true; 24]));
        for (i, &u) in uploads.iter().enumerate() {
            rh.record_probed_contact(&ProbedContactInfo {
                probe_time: SimTime::from_secs(8 * 3_600 + i as u64),
                probed_duration: SimDuration::from_secs(1),
                uploaded: DataSize::from_airtime(SimDuration::from_secs_f64(u)),
                contact_length: Some(SimDuration::from_secs(2)),
            });
        }
        let max = uploads.iter().cloned().fold(0.0f64, f64::max);
        let thr = rh.upload_threshold().as_secs_f64();
        // DataSize quantizes uploads to whole microseconds (round to
        // nearest), so the threshold can exceed the raw float max by 0.5 µs.
        prop_assert!(thr >= 0.0 && thr <= max + 1e-6, "threshold {thr} vs max {max}");
    }

    /// SNIP-RH keeps its knee duty-cycle and upload threshold between
    /// probes: after every feedback both must equal their definitions
    /// recomputed from scratch — `d_rh = multiplier · Ton / T̄contact`
    /// clamped to `[min_duty_cycle, 1]`, and the EWMA of per-contact
    /// uploads — in either length-estimation mode.
    #[test]
    fn rh_stored_knee_and_threshold_equal_their_definitions(
        double_probed in any::<bool>(),
        multiplier in 0.25f64..4.0,
        min_duty_cycle in 0.0f64..0.05,
        weight in 0.01f64..=1.0,
        contacts in proptest::collection::vec(
            (0.0f64..20.0, 0.0f64..30.0, any::<bool>(), 0.0f64..40.0),
            0..60,
        ),
    ) {
        let mode = if double_probed {
            LengthEstimation::DoubleProbed
        } else {
            LengthEstimation::Exact
        };
        let mut config = SnipRhConfig::paper_defaults(vec![true; 24])
            .with_length_estimation(mode)
            .with_duty_cycle_multiplier(multiplier)
            .with_ewma_weight(weight);
        config.min_duty_cycle = min_duty_cycle;
        let mut rh = SnipRh::new(config.clone());
        let mut uploads = Ewma::new(weight).unwrap();
        let knee = |rh: &SnipRh| {
            let d = config.duty_cycle_multiplier * config.ton.as_secs_f64()
                / rh.mean_contact_length().as_secs_f64();
            DutyCycle::clamped(d.max(config.min_duty_cycle))
        };
        prop_assert_eq!(rh.rush_duty_cycle(), knee(&rh));
        prop_assert_eq!(rh.upload_threshold(), SimDuration::ZERO);
        for (i, &(probed, uploaded, reported, length)) in contacts.iter().enumerate() {
            let info = ProbedContactInfo {
                probe_time: SimTime::from_secs(8 * 3_600 + i as u64),
                probed_duration: SimDuration::from_secs_f64(probed),
                uploaded: DataSize::from_airtime(SimDuration::from_secs_f64(uploaded)),
                contact_length: reported.then(|| SimDuration::from_secs_f64(length)),
            };
            rh.record_probed_contact(&info);
            uploads.observe(info.uploaded.as_airtime_secs_f64());
            prop_assert_eq!(rh.rush_duty_cycle(), knee(&rh));
            prop_assert_eq!(
                rh.upload_threshold(),
                SimDuration::from_secs_f64(uploads.value_or(0.0).max(0.0))
            );
        }
    }

    /// SNIP-AT is time-invariant: the same decision at any instant.
    #[test]
    fn at_is_time_invariant(
        frac in 0.0001f64..=1.0,
        t1 in 0u64..(30 * 86_400),
        t2 in 0u64..(30 * 86_400),
    ) {
        let d = DutyCycle::new(frac).unwrap();
        let mut at = SnipAt::new(d);
        prop_assert_eq!(at.decide(&ctx(t1, 0)), at.decide(&ctx(t2, 0)));
    }
}

/// Feeding `contact_length: None` in Exact mode must not poison the
/// estimator (falls back to 2×Tprobed).
#[test]
fn rh_survives_missing_length_feedback() {
    let mut rh = SnipRh::new(SnipRhConfig::paper_defaults(vec![true; 24]));
    for i in 0..100 {
        rh.record_probed_contact(&ProbedContactInfo {
            probe_time: SimTime::from_secs(i),
            probed_duration: SimDuration::from_millis(500),
            uploaded: DataSize::ZERO,
            contact_length: None,
        });
    }
    let est = rh.mean_contact_length().as_secs_f64();
    assert!((est - 1.0).abs() < 0.05, "T̄ = {est} (expected 2×0.5)");
}
