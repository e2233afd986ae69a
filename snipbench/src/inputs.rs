//! Seeded workload inputs.
//!
//! Everything a workload feeds the program is generated here from the
//! benchmark seed: the ζ grid of a sweep, and each fleet node's target and
//! `EpochProfile::roadside_with` intervals. The same seed always yields the
//! same [`FleetSpec`]; the program never sees the seed itself, only the
//! spec (whose own `seed` field is drawn from the benchmark seed too).

use serde::Serialize;
use snip_fleetd::{FleetSpec, JobSpec, NodeSpec};
use snip_mobility::{EpochProfile, LengthDistribution};
use snip_sim::Mechanism;
use snip_units::SimDuration;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A Fig 8 sweep on a fine ζ grid, in process: mechanism planning.
    PlanSweep,
    /// A long-horizon SNIP-RH fleet, in process: traces and stepping.
    LongFleet,
    /// A wide, short SNIP-RH fleet over pipes: handshake and frame codec.
    WireFleet,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PlanSweep,
        Workload::LongFleet,
        Workload::WireFleet,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanSweep => "plan-sweep",
            Workload::LongFleet => "long-fleet",
            Workload::WireFleet => "wire-fleet",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The stated size: ζ targets for the sweep, nodes for the fleets.
    #[must_use]
    pub fn default_size(self) -> usize {
        match self {
            Workload::PlanSweep => 100,
            Workload::LongFleet => 500,
            Workload::WireFleet => 2000,
        }
    }

    /// Whether the workload's jobs cross the fleet wire.
    #[must_use]
    pub fn over_wire(self) -> bool {
        self == Workload::WireFleet
    }

    /// Salt mixed into the seed, so two workloads with one seed draw
    /// unrelated inputs.
    fn salt(self) -> u64 {
        match self {
            Workload::PlanSweep => 0x706c_616e,
            Workload::LongFleet => 0x6c6f_6e67,
            Workload::WireFleet => 0x7769_7265,
        }
    }
}

/// SplitMix64: a tiny, fixed generator owned by the benchmark, so inputs
/// stay put for a seed whatever the program's own RNG does.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    fn between(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Per-epoch budget Φmax of the sweep, seconds (a 1% duty-cycle budget).
const SWEEP_PHI_MAX: f64 = 864.0;
/// The sweep's ζ grid: targets SNIP-AT reaches under that budget, below
/// the ~63 s where each `for_target` bisection starts to cost several times
/// more (so a seed's jitter cannot move the workload's total work).
const SWEEP_ZETA_RANGE: (f64, f64) = (4.0, 60.0);
/// Per-epoch budget Φmax of the fleets, seconds (the paper's 86.4 s).
const FLEET_PHI_MAX: f64 = 86.4;

/// The workload's inputs for `seed` at `size` jobs' worth of targets or
/// nodes: the one artifact the program receives.
///
/// # Panics
///
/// Panics if `size` is zero.
#[must_use]
pub fn spec(workload: Workload, seed: u64, size: usize) -> FleetSpec {
    assert!(size > 0, "a workload needs at least one target or node");
    let mut rng = SplitMix64(seed ^ workload.salt());
    let program_seed = rng.next_u64();
    match workload {
        Workload::PlanSweep => FleetSpec {
            name: workload.name().into(),
            seed: program_seed,
            epochs: 14,
            phi_max_secs: SWEEP_PHI_MAX,
            job: JobSpec::Sweep {
                profile: EpochProfile::roadside(),
                zeta_targets: zeta_grid(&mut rng, size),
            },
        },
        Workload::LongFleet => FleetSpec {
            name: workload.name().into(),
            seed: program_seed,
            epochs: 140,
            phi_max_secs: FLEET_PHI_MAX,
            job: fleet_job(&mut rng, size),
        },
        Workload::WireFleet => FleetSpec {
            name: workload.name().into(),
            seed: program_seed,
            epochs: 14,
            phi_max_secs: FLEET_PHI_MAX,
            job: fleet_job(&mut rng, size),
        },
    }
}

/// [`spec`] as JSON text, the `snip fleet --spec` file format.
#[must_use]
pub fn spec_json(workload: Workload, seed: u64, size: usize) -> String {
    serde::json::to_string(&spec(workload, seed, size).to_value())
}

/// `n` targets, one jittered inside each of `n` equal cells of the range:
/// fine, distinct, and spread evenly whatever the seed.
fn zeta_grid(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    let (lo, hi) = SWEEP_ZETA_RANGE;
    let cell = (hi - lo) / n as f64;
    (0..n)
        .map(|i| lo + cell * (i as f64 + rng.unit()))
        .collect()
}

/// A SNIP-RH fleet of `n` roadside-shaped sites, each with its own
/// intervals, contact length and target (±20% around the paper's
/// 300 s / 1800 s / 2 s roadside profile).
fn fleet_job(rng: &mut SplitMix64, n: usize) -> JobSpec {
    let nodes = (0..n)
        .map(|i| {
            let rush = SimDuration::from_secs_f64(rng.between(240.0, 360.0));
            let offpeak = SimDuration::from_secs_f64(rng.between(1440.0, 2160.0));
            let length = SimDuration::from_secs_f64(rng.between(1.6, 2.4));
            NodeSpec {
                name: format!("site-{i}"),
                profile: EpochProfile::roadside_with(
                    rush,
                    offpeak,
                    LengthDistribution::paper_normal(length),
                ),
                zeta_target: rng.between(4.0, 16.0),
            }
        })
        .collect();
    JobSpec::Fleet {
        mechanism: Mechanism::SnipRh,
        nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for workload in Workload::ALL {
            assert_eq!(spec(workload, 7, 16), spec(workload, 7, 16));
            assert_ne!(spec(workload, 7, 16), spec(workload, 8, 16));
        }
    }

    #[test]
    fn specs_are_valid_at_the_stated_size() {
        for workload in Workload::ALL {
            let s = spec(workload, 1, workload.default_size());
            s.validate().expect("generated specs validate");
            let jobs_per_entry = if workload == Workload::PlanSweep {
                3
            } else {
                1
            };
            assert_eq!(
                s.job_count(),
                (workload.default_size() * jobs_per_entry) as u64
            );
        }
    }

    #[test]
    fn zeta_grid_is_strictly_increasing_inside_the_range() {
        let JobSpec::Sweep { zeta_targets, .. } = spec(Workload::PlanSweep, 3, 50).job else {
            panic!("plan-sweep is a sweep");
        };
        assert!(zeta_targets.windows(2).all(|w| w[0] < w[1]));
        let (lo, hi) = SWEEP_ZETA_RANGE;
        assert!(zeta_targets.iter().all(|&t| (lo..hi).contains(&t)));
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
