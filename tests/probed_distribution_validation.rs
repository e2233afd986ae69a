//! Validating the probed-time *distribution* (not just its mean) against
//! the discrete-event simulator: the percentile model a capacity planner
//! would use must match what actually happens in simulation.

use rand::rngs::StdRng;
use rand::SeedableRng;

use snip_rh_repro::snip_core::{ProbeContext, ProbeScheduler, ProbedContactInfo};
use snip_rh_repro::snip_mobility::{Contact, ContactTrace};
use snip_rh_repro::snip_model::{ProbedTimeDistribution, SnipModel};
use snip_rh_repro::snip_sim::{SimConfig, Simulation};
use snip_rh_repro::snip_units::{DutyCycle, SimDuration, SimTime};

/// A recording scheduler: fixed duty-cycle, keeps every probed duration.
struct Recorder {
    d: DutyCycle,
    probed: Vec<f64>,
}

impl ProbeScheduler for Recorder {
    fn decide(&mut self, _ctx: &ProbeContext) -> Option<DutyCycle> {
        Some(self.d)
    }

    fn record_probed_contact(&mut self, info: &ProbedContactInfo) {
        self.probed.push(info.probed_duration.as_secs_f64());
    }

    fn name(&self) -> &str {
        "recorder"
    }

    fn phi_budget(&self) -> Option<SimDuration> {
        None
    }
}

/// A dense, decorrelated contact stream: one 2 s contact at a random offset
/// inside every 60 s window, so beacon phase and contact phase are
/// independent across contacts.
fn dense_trace(days: u64, seed: u64) -> ContactTrace {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = ContactTrace::new();
    for k in 0..(days * 86_400 / 60) {
        let offset = rng.gen_range(0.0..58.0);
        trace.push(Contact::new(
            SimTime::from_secs_f64(k as f64 * 60.0 + offset),
            SimDuration::from_secs(2),
        ));
    }
    trace
}

fn simulate_probed(d: DutyCycle, seed: u64) -> (Vec<f64>, usize) {
    let trace = dense_trace(14, seed);
    let total = trace.len();
    let mut sim = Simulation::new(
        SimConfig::paper_defaults(),
        &trace,
        Recorder {
            d,
            probed: Vec::new(),
        },
    );
    let _ = sim.run(&mut StdRng::seed_from_u64(seed + 1));
    (sim.into_scheduler().probed, total)
}

/// Sparse regime: miss probability and conditional quantiles match.
#[test]
fn sparse_regime_distribution_matches() {
    let d = DutyCycle::new(0.001).unwrap(); // Tcycle = 20 s, P(miss) = 0.9
    let model = ProbedTimeDistribution::new(&SnipModel::default(), d, SimDuration::from_secs(2));
    let (probed, total) = simulate_probed(d, 901);

    let measured_miss = 1.0 - probed.len() as f64 / total as f64;
    assert!(
        (measured_miss - model.miss_probability()).abs() < 0.02,
        "miss {measured_miss} vs model {}",
        model.miss_probability()
    );

    // Conditional distribution on discovery is U(0, 2]: compare quartiles.
    let mut sorted = probed.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let q = |p: f64| sorted[((sorted.len() - 1) as f64 * p) as usize];
    assert!((q(0.25) - 0.5).abs() < 0.1, "q25 {}", q(0.25));
    assert!((q(0.50) - 1.0).abs() < 0.1, "q50 {}", q(0.50));
    assert!((q(0.75) - 1.5).abs() < 0.1, "q75 {}", q(0.75));
}

/// Dense regime: no misses, support bounded below by `l − Tcycle`.
#[test]
fn dense_regime_distribution_matches() {
    let d = DutyCycle::new(0.02).unwrap(); // Tcycle = 1 s < l = 2 s
    let model = ProbedTimeDistribution::new(&SnipModel::default(), d, SimDuration::from_secs(2));
    assert_eq!(model.miss_probability(), 0.0);
    let (probed, total) = simulate_probed(d, 902);
    assert_eq!(probed.len(), total, "dense regime must probe every contact");
    let min = probed.iter().cloned().fold(f64::INFINITY, f64::min);
    // Support is (l − T, l] = (1, 2].
    assert!(min >= 1.0 - 1e-6, "min probed {min}");
    let mean = probed.iter().sum::<f64>() / probed.len() as f64;
    assert!(
        (mean - model.mean().as_secs_f64()).abs() < 0.02,
        "mean {mean} vs model {}",
        model.mean().as_secs_f64()
    );
}

/// The simulated variance matches the model's variance in both regimes.
#[test]
fn variance_matches_in_both_regimes() {
    for (frac, seed) in [(0.001, 903u64), (0.02, 904)] {
        let d = DutyCycle::new(frac).unwrap();
        let model =
            ProbedTimeDistribution::new(&SnipModel::default(), d, SimDuration::from_secs(2));
        let (probed, total) = simulate_probed(d, seed);
        // Include the zero outcomes (misses) for the unconditional variance.
        let n = total as f64;
        let sum: f64 = probed.iter().sum();
        let sum2: f64 = probed.iter().map(|x| x * x).sum();
        let mean = sum / n;
        let var = sum2 / n - mean * mean;
        let rel = (var - model.variance()).abs() / model.variance().max(1e-9);
        assert!(
            rel < 0.10,
            "d={frac}: variance {var} vs model {}",
            model.variance()
        );
    }
}
