//! Criterion benchmarks of the SNIP-OPT optimization substrate.
//!
//! Confirms that the two-step optimizer is cheap enough for repeated offline
//! planning, and measures the greedy allocator against the simplex LP on the
//! identical piecewise-linearized problem.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use snip_model::{LengthDistribution, SlotProfile, SnipModel};
use snip_opt::{CapacityCurve, GreedyAllocator, LinearProgram, TwoStepOptimizer};
use snip_units::SimDuration;

fn curves() -> Vec<CapacityCurve> {
    CapacityCurve::for_profile(&SnipModel::default(), &SlotProfile::roadside())
}

fn bench_two_step(c: &mut Criterion) {
    c.bench_function("opt/two_step_solve", |b| {
        let optimizer = TwoStepOptimizer::new(SnipModel::default(), SlotProfile::roadside());
        b.iter(|| black_box(optimizer.solve(black_box(864.0), black_box(40.0))))
    });
}

fn bench_two_step_build_normal_profile(c: &mut Criterion) {
    // Curve construction on the profile the simulations plan on, where every
    // breakpoint is a numeric integral (the fixed-length roadside profile
    // above has closed forms only).
    let profile = SlotProfile::roadside_with_lengths(LengthDistribution::paper_normal(
        SimDuration::from_secs(2),
    ));
    c.bench_function("opt/two_step_build_normal_profile", |b| {
        b.iter(|| {
            black_box(TwoStepOptimizer::new(
                SnipModel::default(),
                black_box(profile.clone()),
            ))
        })
    });
}

fn bench_greedy_allocation(c: &mut Criterion) {
    c.bench_function("opt/greedy_maximize_capacity", |b| {
        let alloc = GreedyAllocator::new(curves());
        b.iter(|| black_box(alloc.maximize_capacity(black_box(864.0))))
    });
}

fn bench_simplex_on_same_problem(c: &mut Criterion) {
    c.bench_function("opt/simplex_maximize_capacity", |b| {
        let curves = curves();
        let segs: Vec<(f64, f64)> = curves
            .iter()
            .flat_map(|cv| cv.segments().iter().map(|s| (s.energy, s.efficiency)))
            .collect();
        b.iter(|| {
            let mut lp = LinearProgram::maximize(segs.iter().map(|s| s.1).collect());
            lp.constrain_le(vec![1.0; segs.len()], 864.0);
            for (j, seg) in segs.iter().enumerate() {
                lp.bound(j, seg.0);
            }
            black_box(lp.solve().expect("feasible"))
        })
    });
}

criterion_group!(
    benches,
    bench_two_step,
    bench_two_step_build_normal_profile,
    bench_greedy_allocation,
    bench_simplex_on_same_problem
);
criterion_main!(benches);
