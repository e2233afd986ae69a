//! Criterion micro-benchmarks of the analytical models.
//!
//! These quantify the cost of the closed-form paths that the figure
//! binaries and the simulator call in tight loops: eq. (1), the numeric
//! length-distribution expectations, a whole SNIP-AT plan, and the Fig 5/6
//! scenario analysis.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use snip_core::SnipAt;
use snip_mobility::EpochProfile;
use snip_model::analysis::{PAPER_PHI_MAX_LOOSE, PAPER_ZETA_TARGETS};
use snip_model::{LengthDistribution, ScenarioAnalysis, SlotProfile, SnipModel};
use snip_units::{DutyCycle, SimDuration};

fn bench_upsilon(c: &mut Criterion) {
    let model = SnipModel::default();
    let contact = SimDuration::from_secs(2);
    let d = DutyCycle::new(0.005).unwrap();
    c.bench_function("model/upsilon_closed_form", |b| {
        b.iter(|| black_box(model.upsilon(black_box(d), black_box(contact))))
    });
}

fn bench_upsilon_exponential(c: &mut Criterion) {
    let model = SnipModel::default();
    let dist = LengthDistribution::exponential(SimDuration::from_secs(2));
    let d = DutyCycle::new(0.005).unwrap();
    c.bench_function("model/upsilon_exponential_closed_form", |b| {
        b.iter(|| black_box(model.upsilon_dist(black_box(d), black_box(&dist))))
    });
}

fn bench_upsilon_normal_numeric(c: &mut Criterion) {
    let model = SnipModel::default();
    let dist = LengthDistribution::paper_normal(SimDuration::from_secs(2));
    let d = DutyCycle::new(0.005).unwrap();
    c.bench_function("model/upsilon_normal_numeric_integration", |b| {
        b.iter(|| black_box(model.upsilon_dist(black_box(d), black_box(&dist))))
    });
}

fn bench_uniform_capacity_normal_profile(c: &mut Criterion) {
    // The profile the simulations plan on: Normal(2 s, 0.2 s) lengths in all
    // 24 slots, evaluated through a fresh memo: one integral that computes
    // its own node densities. A SNIP-AT bisection step reuses a memo's
    // densities and costs less (`model/snip_at_for_target_normal_profile`).
    let profile = SlotProfile::roadside_with_lengths(LengthDistribution::paper_normal(
        SimDuration::from_secs(2),
    ));
    let model = SnipModel::default();
    let d = DutyCycle::new(0.005).unwrap();
    c.bench_function("model/uniform_capacity_normal_profile", |b| {
        b.iter(|| black_box(profile.probed_capacity_uniform(&model, black_box(d))))
    });
}

fn bench_snip_at_for_target_normal_profile(c: &mut Criterion) {
    // A whole SNIP-AT plan on the planning sweep's profile (the roadside
    // epoch with Normal(2 s, 0.2 s) lengths) at Φmax = 864 s and ζ = 16 s:
    // the budget check, the always-on check and 64 bisection midpoints over
    // one memo.
    let profile = EpochProfile::roadside().to_slot_profile();
    let model = SnipModel::default();
    c.bench_function("model/snip_at_for_target_normal_profile", |b| {
        b.iter(|| {
            black_box(SnipAt::for_target(
                model,
                black_box(&profile),
                black_box(PAPER_PHI_MAX_LOOSE),
                black_box(16.0),
            ))
        })
    });
}

fn bench_fig5_analysis_sweep(c: &mut Criterion) {
    c.bench_function("model/fig5_full_analysis_sweep", |b| {
        b.iter(|| {
            let analysis = ScenarioAnalysis::new(
                SnipModel::default(),
                SlotProfile::roadside(),
                black_box(86.4),
            );
            black_box(analysis.sweep(&PAPER_ZETA_TARGETS))
        })
    });
}

criterion_group!(
    benches,
    bench_upsilon,
    bench_upsilon_exponential,
    bench_upsilon_normal_numeric,
    bench_uniform_capacity_normal_profile,
    bench_snip_at_for_target_normal_profile,
    bench_fig5_analysis_sweep
);
criterion_main!(benches);
