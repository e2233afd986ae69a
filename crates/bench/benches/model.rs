//! Criterion micro-benchmarks of the analytical models.
//!
//! These quantify the cost of the closed-form paths that the figure
//! binaries and the simulator call in tight loops: eq. (1), the numeric
//! length-distribution expectations, and the Fig 5/6 scenario analysis.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use snip_model::analysis::PAPER_ZETA_TARGETS;
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
    // 24 slots, one SNIP-AT bisection step's worth of work.
    let profile = SlotProfile::roadside_with_lengths(LengthDistribution::paper_normal(
        SimDuration::from_secs(2),
    ));
    let model = SnipModel::default();
    let d = DutyCycle::new(0.005).unwrap();
    c.bench_function("model/uniform_capacity_normal_profile", |b| {
        b.iter(|| black_box(profile.probed_capacity_uniform(&model, black_box(d))))
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
    bench_fig5_analysis_sweep
);
criterion_main!(benches);
