//! Fleet job specifications: what a distributed run computes.
//!
//! A [`FleetSpec`] is the complete, serializable description of a fleet
//! job — the one artifact the coordinator ships to every worker, and the
//! contents of the file behind `snip fleet --spec`. It names either a
//! *fleet* (many nodes, one mechanism) or a *sweep grid* (the Fig 7/8
//! `(ζtarget, mechanism)` product over one profile), and [`JobRunner`]
//! turns it into an indexed job list: job `i` is a pure function of
//! `(spec, i)`, so any process that holds the spec computes bit-identical
//! metrics for it.

use serde::{Deserialize, Serialize};
use snip_core::MechanismScheduler;
use snip_mobility::EpochProfile;
use snip_sim::{
    Fleet, FleetNode, FleetReport, Mechanism, RunMetrics, ScenarioRunner, SimConfig, SweepPoint,
};

/// One node of a fleet job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Human-readable site name.
    pub name: String,
    /// The contact process at this site.
    pub profile: EpochProfile,
    /// Per-epoch upload target in seconds of airtime.
    pub zeta_target: f64,
}

/// What kind of job the fleet driver shards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobSpec {
    /// A deployment fleet: one job per node, all running `mechanism`.
    Fleet {
        /// The scheduling mechanism every node runs.
        mechanism: Mechanism,
        /// The fleet's nodes, in fleet order.
        nodes: Vec<NodeSpec>,
    },
    /// A Fig 7/8 sweep grid over one profile: one job per
    /// `(ζtarget, mechanism)` pair, in sweep order.
    Sweep {
        /// The contact process all points simulate against.
        profile: EpochProfile,
        /// The capacity targets, seconds per epoch.
        zeta_targets: Vec<f64>,
    },
}

/// A complete, shippable fleet job description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Free-form job name (shows up in reports).
    pub name: String,
    /// Base RNG seed (traces and simulation draws derive from it exactly
    /// as the in-process `Fleet`/`ScenarioRunner` derive theirs).
    pub seed: u64,
    /// Epochs (days) each simulation runs.
    pub epochs: u64,
    /// Per-epoch probing budget `Φmax`, seconds.
    pub phi_max_secs: f64,
    /// The sharded job.
    pub job: JobSpec,
}

impl FleetSpec {
    /// Validates the spec, returning a human-readable complaint.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.epochs == 0 {
            return Err("epochs must be at least 1".into());
        }
        if !(self.phi_max_secs.is_finite() && self.phi_max_secs > 0.0) {
            return Err("phi_max_secs must be positive".into());
        }
        match &self.job {
            JobSpec::Fleet { nodes, .. } => {
                if nodes.is_empty() {
                    return Err("a fleet job needs at least one node".into());
                }
                for node in nodes {
                    if !(node.zeta_target.is_finite() && node.zeta_target >= 0.0) {
                        return Err(format!(
                            "node `{}`: zeta_target must be non-negative",
                            node.name
                        ));
                    }
                }
            }
            JobSpec::Sweep { zeta_targets, .. } => {
                if zeta_targets.is_empty() {
                    return Err("a sweep job needs at least one zeta target".into());
                }
                if zeta_targets.iter().any(|t| !(t.is_finite() && *t > 0.0)) {
                    return Err("sweep zeta targets must all be positive".into());
                }
            }
        }
        Ok(())
    }

    /// The simulation configuration every job runs under (the paper's
    /// defaults at this spec's epoch count; per-node targets are applied
    /// by the fleet machinery exactly as `Fleet::run` applies them).
    #[must_use]
    pub fn sim_config(&self) -> SimConfig {
        SimConfig::paper_defaults().with_epochs(self.epochs)
    }

    /// Number of independent jobs this spec shards into.
    #[must_use]
    pub fn job_count(&self) -> u64 {
        match &self.job {
            JobSpec::Fleet { nodes, .. } => nodes.len() as u64,
            JobSpec::Sweep { zeta_targets, .. } => {
                (zeta_targets.len() * Mechanism::ALL.len()) as u64
            }
        }
    }

    /// A stable 64-bit digest of the complete spec (FNV-1a over its
    /// canonical JSON encoding, streamed into the hash as it is written:
    /// no text and no tree are built). Both sides of the fleet handshake
    /// exchange it so a worker joining the wrong run — or a spec corrupted
    /// in flight — is refused before any shard is dealt, never merged.
    #[must_use]
    pub fn spec_hash(&self) -> u64 {
        let mut writer = serde::json::Writer::new(Fnv1a(0xcbf2_9ce4_8422_2325));
        self.encode(&mut writer);
        writer.into_inner().0
    }

    /// Parses a spec from JSON text (the `--spec` file format), straight
    /// into the struct.
    ///
    /// # Errors
    ///
    /// Returns the codec or validation complaint.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let spec: FleetSpec = serde::json::decode(text).map_err(|e| e.to_string())?;
        spec.validate()?;
        Ok(spec)
    }
}

/// A running FNV-1a hash, fed by a streaming writer.
struct Fnv1a(u64);

impl serde::Sink for Fnv1a {
    fn put(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Merged output of a fleet job — what the coordinator hands back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FleetOutput {
    /// A fleet job's merged report.
    Fleet(FleetReport),
    /// A sweep job's points, in sweep order.
    Sweep(Vec<SweepPoint>),
}

/// A spec turned runnable: the indexed job list plus the merge rules.
///
/// Built identically by the coordinator (for merging and sequential
/// verification) and by every worker (for executing shards): job `i`
/// depends only on the spec, never on which process runs it.
pub struct JobRunner {
    spec: FleetSpec,
    inner: Inner,
}

enum Inner {
    Fleet {
        fleet: Fleet,
    },
    Sweep {
        runner: ScenarioRunner,
        jobs: Vec<(f64, Mechanism)>,
    },
}

impl JobRunner {
    /// Builds the runner for a validated spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid (validate first).
    #[must_use]
    pub fn new(spec: &FleetSpec) -> Self {
        assert!(spec.validate().is_ok(), "spec must be validated");
        let inner = match &spec.job {
            JobSpec::Fleet { nodes, .. } => {
                let fleet_nodes = nodes
                    .iter()
                    .map(|n| FleetNode::new(n.name.clone(), n.profile.clone(), n.zeta_target))
                    .collect();
                Inner::Fleet {
                    fleet: Fleet::new(fleet_nodes, spec.sim_config()).with_seed(spec.seed),
                }
            }
            JobSpec::Sweep {
                profile,
                zeta_targets,
            } => Inner::Sweep {
                runner: ScenarioRunner::new(profile.clone(), spec.sim_config(), spec.phi_max_secs)
                    .with_seed(spec.seed),
                jobs: ScenarioRunner::sweep_jobs(zeta_targets),
            },
        };
        JobRunner {
            spec: spec.clone(),
            inner,
        }
    }

    /// The spec this runner executes.
    #[must_use]
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Number of jobs (equals [`FleetSpec::job_count`]).
    #[must_use]
    pub fn job_count(&self) -> u64 {
        self.spec.job_count()
    }

    /// The scheduler a fleet node runs: [`Mechanism::scheduler`], the
    /// constructor [`ScenarioRunner`] builds its sweep's schedulers with,
    /// against the node's own profile and target.
    #[must_use]
    pub fn node_scheduler(&self, mechanism: Mechanism, node: &FleetNode) -> MechanismScheduler {
        mechanism.scheduler(
            &node.profile,
            &self.spec.sim_config(),
            self.spec.phi_max_secs,
            node.zeta_target,
        )
    }

    /// Runs job `i` and returns its exact-ledger metrics.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn run_job(&self, i: u64) -> RunMetrics {
        match &self.inner {
            Inner::Fleet { fleet } => {
                let JobSpec::Fleet { mechanism, .. } = &self.spec.job else {
                    unreachable!("fleet runner built from a fleet spec");
                };
                let node = &fleet.nodes()[i as usize];
                fleet.run_node(i as usize, self.node_scheduler(*mechanism, node))
            }
            Inner::Sweep { runner, jobs } => {
                let (target, mechanism) = jobs[i as usize];
                runner.run_one(mechanism, target)
            }
        }
    }

    /// Merges per-job metrics (in job order) into the final output,
    /// deriving outcomes exactly as the in-process engines derive them.
    ///
    /// # Panics
    ///
    /// Panics if `metrics` does not carry one entry per job.
    #[must_use]
    pub fn merge(&self, metrics: &[RunMetrics]) -> FleetOutput {
        assert_eq!(
            metrics.len() as u64,
            self.job_count(),
            "need exactly one metrics entry per job"
        );
        match &self.inner {
            Inner::Fleet { fleet } => FleetOutput::Fleet(fleet.report_from_metrics(metrics)),
            Inner::Sweep { jobs, .. } => FleetOutput::Sweep(
                jobs.iter()
                    .zip(metrics)
                    .map(|(&(target, mechanism), m)| {
                        ScenarioRunner::point_from_metrics(target, mechanism, m)
                    })
                    .collect(),
            ),
        }
    }

    /// The single-process reference run: [`Fleet::run`] or
    /// [`ScenarioRunner::sweep`], the sequential baseline every
    /// distributed run must reproduce bit-for-bit.
    #[must_use]
    pub fn run_sequential(&self) -> FleetOutput {
        match &self.inner {
            Inner::Fleet { fleet } => {
                let JobSpec::Fleet { mechanism, .. } = &self.spec.job else {
                    unreachable!("fleet runner built from a fleet spec");
                };
                FleetOutput::Fleet(fleet.run(|node| self.node_scheduler(*mechanism, node)))
            }
            Inner::Sweep { runner, .. } => {
                let JobSpec::Sweep { zeta_targets, .. } = &self.spec.job else {
                    unreachable!("sweep runner built from a sweep spec");
                };
                FleetOutput::Sweep(runner.sweep(zeta_targets))
            }
        }
    }
}

/// A compact built-in example spec (what `snip fleet --example` prints):
/// a four-node roadside fleet on SNIP-RH.
#[must_use]
pub fn example_spec() -> FleetSpec {
    FleetSpec {
        name: "roadside-demo".into(),
        seed: 42,
        epochs: 7,
        phi_max_secs: 86.4,
        job: JobSpec::Fleet {
            mechanism: Mechanism::SnipRh,
            nodes: (0..4)
                .map(|i| NodeSpec {
                    name: format!("site-{i}"),
                    profile: EpochProfile::roadside(),
                    zeta_target: 8.0 + 4.0 * f64::from(i),
                })
                .collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = example_spec();
        let text = serde::json::to_string(&spec);
        let back = FleetSpec::from_json(&text).expect("round trip");
        assert_eq!(back, spec);
    }

    #[test]
    fn hostile_profiles_are_refused_naming_the_profile() {
        const HOUR_US: u64 = 3_600_000_000;
        let profile = EpochProfile::roadside_deterministic();
        let mut spec = example_spec();
        if let JobSpec::Fleet { nodes, .. } = &mut spec.job {
            nodes.truncate(1);
            nodes[0].profile = profile.clone();
        }
        let text = serde::json::to_string(&spec);
        let wire = serde::json::to_string(&profile);
        assert!(text.contains(&wire));
        let off = serde::json::to_string(&profile.slots()[0]);
        let rush = serde::json::to_string(&profile.slots()[7]);
        let with = |slot_length: u64, distinct: &[&str], index: &str| {
            let distinct = distinct.join(",");
            text.replace(
                &wire,
                &format!(
                    r#"{{"slot_length":{slot_length},"distinct":[{distinct}],"index":[{index}]}}"#
                ),
            )
        };
        FleetSpec::from_json(&with(HOUR_US, &[&off, &rush], "0,1,0")).expect("canonical");
        let hostile = [
            (with(HOUR_US, &[&off], ""), "index is empty"),
            (with(0, &[&off], "0"), "slot_length must be positive"),
            (with(HOUR_US, &[&off], "0,1"), "out of range"),
            (with(HOUR_US, &[&off, &rush], "0,0"), "never used"),
            (with(HOUR_US, &[&off, &off], "0,1"), "are equal"),
            (with(HOUR_US, &[&off, &rush], "1,0"), "first-use order"),
        ];
        // Distributions no constructor would build, swapped into the
        // off-peak slot: each would panic a worker mid-shard if it got past
        // the decoder.
        let periodic = r#"{"Periodic":{"interval":1800000000}}"#;
        let fixed = r#"{"Fixed":{"length":2000000}}"#;
        let uniform = r#"{"Uniform":{"low":3000000,"high":1000000}}"#;
        let renewal = format!(r#"{{"Renewal":{{"interval":{uniform}}}}}"#);
        let bad_slots = [
            (
                periodic,
                r#"{"Periodic":{"interval":0}}"#,
                "arrival interval must be",
            ),
            (
                periodic,
                r#"{"Poisson":{"mean_interval":0}}"#,
                "mean arrival interval",
            ),
            (
                periodic,
                r#"{"Renewal":{"interval":{"Fixed":{"length":0}}}}"#,
                "mean arrival",
            ),
            (periodic, &renewal, "arrivals: uniform bounds reversed"),
            (
                fixed,
                r#"{"Normal":{"mean":0,"std_dev":1}}"#,
                "normal mean must be",
            ),
            (
                fixed,
                r#"{"Exponential":{"mean":0}}"#,
                "exponential mean must be",
            ),
            (
                fixed,
                r#"{"LogNormal":{"mean":0,"std_dev":1}}"#,
                "log-normal mean must be",
            ),
            (fixed, uniform, "contact_length: uniform bounds reversed"),
        ];
        let hostile = hostile.into_iter().chain(bad_slots.map(|(good, bad, why)| {
            assert!(off.contains(good), "{off}");
            (with(HOUR_US, &[&off.replace(good, bad), &rush], "0,1"), why)
        }));
        for (bad, why) in hostile {
            let err = FleetSpec::from_json(&bad).expect_err(why);
            assert!(
                err.contains("`profile`") && err.contains("EpochProfile") && err.contains(why),
                "{why}: {err}"
            );
        }
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut spec = example_spec();
        spec.epochs = 0;
        assert!(spec.validate().is_err());
        let mut spec = example_spec();
        spec.phi_max_secs = -1.0;
        assert!(spec.validate().is_err());
        let mut spec = example_spec();
        spec.job = JobSpec::Sweep {
            profile: EpochProfile::roadside(),
            zeta_targets: vec![],
        };
        assert!(spec.validate().is_err());
        assert!(FleetSpec::from_json("{not json").is_err());
    }

    #[test]
    fn fleet_jobs_merge_to_the_sequential_report() {
        let spec = FleetSpec {
            epochs: 3,
            ..example_spec()
        };
        let runner = JobRunner::new(&spec);
        let metrics: Vec<RunMetrics> = (0..runner.job_count()).map(|i| runner.run_job(i)).collect();
        assert_eq!(runner.merge(&metrics), runner.run_sequential());
    }

    #[test]
    fn sweep_jobs_merge_to_the_sequential_sweep() {
        let spec = FleetSpec {
            name: "sweep-demo".into(),
            seed: 7,
            epochs: 2,
            phi_max_secs: 86.4,
            job: JobSpec::Sweep {
                profile: EpochProfile::roadside(),
                zeta_targets: vec![16.0, 32.0],
            },
        };
        let runner = JobRunner::new(&spec);
        assert_eq!(runner.job_count(), 6, "2 targets x 3 mechanisms");
        let metrics: Vec<RunMetrics> = (0..runner.job_count()).map(|i| runner.run_job(i)).collect();
        let FleetOutput::Sweep(points) = runner.merge(&metrics) else {
            panic!("sweep spec merges to sweep points");
        };
        let FleetOutput::Sweep(reference) = runner.run_sequential() else {
            panic!("sweep spec runs a sweep");
        };
        assert_eq!(points, reference);
    }
}
