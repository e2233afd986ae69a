//! One repetition of a workload, run in a fresh process.
//!
//! Untimed work (input generation, digests, codec probes) stays outside
//! the timed region. Every call into the program goes through its public
//! API: [`JobRunner`], [`FleetDriver`], [`TraceGenerator`], [`Simulation`],
//! [`ScenarioRunner::mechanism_scheduler`] and [`snip_replay::frame`].

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use snip_fleetd::{
    CoordinatorMsg, FleetDriver, FleetOutput, FleetSpec, JobRunner, JobSpec, ShardResult,
    WorkerMsg, PROTOCOL_VERSION,
};
use snip_mobility::{ContactTrace, TraceGenerator};
use snip_replay::frame::{encode_binary_frame, FrameReader};
use snip_sim::{FleetNode, Mechanism, RunMetrics, ScenarioRunner, Simulation};

use crate::inputs::{self, Workload};
use crate::spans::Tracer;

/// Fleet workers of `wire-fleet`: the core count of the 2-vCPU host the
/// workload was sized on.
pub const WIRE_WORKERS: usize = 2;

/// Set-up samples per in-process repetition; `setup_s` is their median, so
/// one slow allocation does not decide it.
const SETUP_REPEATS: usize = 9;

/// Least time one set-up sample spans, seconds.
const SETUP_SAMPLE_S: f64 = 2e-3;

/// Span names of the program's layers, as the self-time table lists them.
pub mod layer {
    /// `FleetSpec::from_json` on the workload's spec text.
    pub const SPEC_PARSE: &str = "fleetd.spec_parse";
    /// `JobRunner::new` on the workload's spec.
    pub const JOBRUNNER_NEW: &str = "fleetd.jobrunner_new";
    /// `TraceGenerator::generate`.
    pub const TRACE_GEN: &str = "mobility.trace_gen";
    /// SNIP-AT's `for_target` bisection, through the scheduler constructor.
    pub const AT_PLAN: &str = "core.at_plan";
    /// The SNIP-OPT scheduler build (curve construction and solve).
    pub const OPT_PLAN: &str = "opt.plan";
    /// `SnipRh::new`, through the scheduler constructor.
    pub const RH_NEW: &str = "core.rh_new";
    /// `Simulation::new` plus `run`.
    pub const SIM_STEP: &str = "sim.step";
    /// The benchmark's own per-job bookkeeping around the layer calls.
    pub const JOB_GLUE: &str = "bench.job_glue";
}

/// The exact bits of one value: FNV-1a over its canonical JSON.
#[must_use]
pub fn digest<T: Serialize>(value: &T) -> u64 {
    let text = serde::json::to_string(&value.to_value());
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Per-job digests of a merged output's rows (sweep points or node
/// outcomes) — all a fleet run hands back.
#[must_use]
pub fn row_digests(output: &FleetOutput) -> Vec<u64> {
    match output {
        FleetOutput::Sweep(points) => points.iter().map(digest).collect(),
        FleetOutput::Fleet(report) => report.nodes.iter().map(digest).collect(),
    }
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Jobs completed.
    pub jobs: u64,
    /// Timed wall: workload start to last job merged, seconds.
    pub wall_s: f64,
    /// Workload start to first job dispatched, seconds.
    pub setup_s: f64,
    /// The timed wall cut into laps that add up to it: in process the
    /// set-up, then one per job; over the wire, which the benchmark cannot
    /// cut, the whole wall (untraced runs).
    pub laps_s: Vec<f64>,
    /// Peak resident memory of this process at the end of the timed
    /// region, MB.
    pub peak_rss_mb: f64,
    /// Per-job digests of the full run metrics (in-process runs).
    pub metrics_digests: Vec<u64>,
    /// Per-job digests of the merged output rows.
    pub row_digests: Vec<u64>,
    /// Per-layer metrics (traced repetitions only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Self time per layer, seconds (traced repetitions only).
    pub table: BTreeMap<&'static str, f64>,
    /// The spans, as chrome://tracing JSON (traced in-process breakdowns).
    pub spans_json: Option<String>,
}

/// Parses the workload's spec text, as `snip fleet --spec` does.
///
/// # Errors
///
/// Returns the program's complaint about the text.
pub fn parse_spec(text: &str) -> Result<FleetSpec, String> {
    FleetSpec::from_json(text)
}

/// The reference: the program's own per-job entry point and merge, run
/// sequentially (in its own process, so no cache it warms is timed).
#[must_use]
pub fn reference(spec: &FleetSpec) -> (Vec<u64>, Vec<u64>) {
    let runner = JobRunner::new(spec);
    let metrics: Vec<RunMetrics> = (0..runner.job_count()).map(|i| runner.run_job(i)).collect();
    let rows = row_digests(&runner.merge(&metrics));
    (metrics.iter().map(digest).collect(), rows)
}

/// Runs one repetition of `workload`. The program receives the inputs as
/// spec JSON text, the `snip fleet --spec` format; the workload starts when
/// it gets the text.
///
/// # Errors
///
/// Returns a description of a failed fleet run or an unreadable probe.
pub fn run(
    workload: Workload,
    seed: u64,
    size: usize,
    traced: bool,
    scratch: &Path,
) -> Result<Rep, String> {
    let text = inputs::spec_json(workload, seed, size);
    match (workload.over_wire(), traced) {
        (false, false) => in_process(&text),
        (false, true) => {
            let (mut rep, spec, metrics) = in_process_traced(&text)?;
            codec_probe(&spec, &metrics, &mut rep)?;
            Ok(rep)
        }
        (true, _) => wire(&text, traced, scratch),
    }
}

/// The untraced in-process repetition: parse the spec, `JobRunner::new`,
/// then `run_job` for every job, on this thread. The timed region is cut
/// into laps at consecutive clock reads: the set-up, then one per job.
fn in_process(text: &str) -> Result<Rep, String> {
    let mut setups = setup_samples(text)?;
    let start = Instant::now();
    let spec = parse_spec(text)?;
    let runner = JobRunner::new(&spec);
    let mut laps_s = Vec::with_capacity(runner.job_count() as usize + 1);
    let mut lap_start = start;
    let mut lap = || {
        let now = Instant::now();
        laps_s.push((now - lap_start).as_secs_f64());
        lap_start = now;
    };
    lap();
    let metrics: Vec<RunMetrics> = (0..runner.job_count())
        .map(|i| {
            let m = runner.run_job(black_box(i));
            lap();
            m
        })
        .collect();
    let wall_s = laps_s.iter().sum();
    let peak_rss_mb = peak_rss_mb();

    Ok(Rep {
        jobs: metrics.len() as u64,
        wall_s,
        setup_s: median(&mut setups),
        laps_s,
        peak_rss_mb,
        metrics_digests: metrics.iter().map(digest).collect(),
        row_digests: row_digests(&runner.merge(&metrics)),
        ..Rep::default()
    })
}

/// [`SETUP_REPEATS`] samples of an in-process workload's whole set-up:
/// parsing the spec and `JobRunner::new`. A small spec sets up in
/// microseconds, so each sample times a batch long enough for the clock.
fn setup_samples(text: &str) -> Result<Vec<f64>, String> {
    let batch_time = |n: u32| -> Result<f64, String> {
        let t = Instant::now();
        for _ in 0..n {
            let spec = parse_spec(black_box(text))?;
            black_box(JobRunner::new(&spec));
        }
        Ok(t.elapsed().as_secs_f64() / f64::from(n))
    };
    let once = batch_time(1)?.max(1e-9);
    let batch = (SETUP_SAMPLE_S / once).ceil().clamp(1.0, 1e6) as u32;
    (0..SETUP_REPEATS).map(|_| batch_time(batch)).collect()
}

/// The traced in-process repetition: the spec parse, then each job broken
/// into the public calls the program makes (trace → scheduler →
/// simulation), one span each.
fn in_process_traced(text: &str) -> Result<(Rep, FleetSpec, Vec<RunMetrics>), String> {
    let cache_before = snip_opt::plan_cache_stats();
    let mut tracer = Tracer::new();
    let start = Instant::now();
    let spec = tracer.time(layer::SPEC_PARSE, |_| parse_spec(text))?;
    let (runner, metrics, contacts) = breakdown(&spec, &mut tracer);
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    let cache_after = snip_opt::plan_cache_stats();

    let mut rep = Rep {
        jobs: metrics.len() as u64,
        wall_s,
        peak_rss_mb,
        metrics_digests: metrics.iter().map(digest).collect(),
        row_digests: row_digests(&runner.merge(&metrics)),
        table: tracer.self_times(),
        spans_json: Some(tracer.to_chrome_json()),
        ..Rep::default()
    };
    layer_metrics(&spec, &tracer, contacts, &mut rep.layers);
    let lookups = (cache_after.hits + cache_after.misses)
        .saturating_sub(cache_before.hits + cache_before.misses);
    let hits = cache_after.hits.saturating_sub(cache_before.hits);
    rep.layers.insert("opt.cache_lookups", lookups as f64);
    rep.layers.insert(
        "opt.cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
    );
    Ok((rep, spec, metrics))
}

/// The span-level layer metrics of a traced breakdown.
fn layer_metrics(
    spec: &FleetSpec,
    tracer: &Tracer,
    contacts: u64,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let table = tracer.self_times();
    let secs = |name: &str| table.get(name).copied().unwrap_or(0.0);
    let step_s = secs(layer::SIM_STEP);
    let node_epochs = tracer.count(layer::SIM_STEP) * spec.epochs;
    layers.insert("mobility.trace_gen_s", secs(layer::TRACE_GEN));
    layers.insert("mobility.contacts", contacts as f64);
    layers.insert("sim.step_s", step_s);
    layers.insert("sim.node_epochs", node_epochs as f64);
    layers.insert(
        "sim.us_per_node_epoch",
        if node_epochs == 0 {
            0.0
        } else {
            step_s * 1e6 / node_epochs as f64
        },
    );
    layers.insert("core.at_plan_s", secs(layer::AT_PLAN));
    layers.insert("core.at_plans", tracer.count(layer::AT_PLAN) as f64);
    layers.insert("opt.plan_s", secs(layer::OPT_PLAN));
    layers.insert("opt.plans", tracer.count(layer::OPT_PLAN) as f64);
    layers.insert("fleetd.jobrunner_new_s", secs(layer::JOBRUNNER_NEW));
    layers.insert("fleetd.spec_parse_s", secs(layer::SPEC_PARSE));
}

/// The span name of a mechanism's scheduler construction.
fn plan_span(mechanism: Mechanism) -> &'static str {
    match mechanism {
        Mechanism::SnipAt => layer::AT_PLAN,
        Mechanism::SnipOpt => layer::OPT_PLAN,
        Mechanism::SnipRh => layer::RH_NEW,
    }
}

/// Runs every job of `spec` as the program's public calls, one span per
/// layer call, and returns the runner, the per-job metrics and the number
/// of contacts generated. Each job's metrics must equal `run_job`'s bit
/// for bit; the seed derivations mirror `ScenarioRunner` and `Fleet`.
pub fn breakdown(spec: &FleetSpec, tracer: &mut Tracer) -> (JobRunner, Vec<RunMetrics>, u64) {
    let runner = tracer.time(layer::JOBRUNNER_NEW, |_| JobRunner::new(spec));
    let config = spec.sim_config();
    let generate = |profile, seed: u64| -> ContactTrace {
        TraceGenerator::new(profile)
            .epochs(spec.epochs)
            .generate(&mut StdRng::seed_from_u64(seed))
    };
    let simulate = |trace: &ContactTrace, target: f64, scheduler, seed: u64| {
        Simulation::new(
            config.clone().with_zeta_target_secs(target),
            trace,
            scheduler,
        )
        .run(&mut StdRng::seed_from_u64(seed))
    };
    let mut metrics = Vec::with_capacity(spec.job_count() as usize);
    let mut contacts = 0u64;
    match &spec.job {
        JobSpec::Sweep {
            profile,
            zeta_targets,
        } => {
            let scenario = ScenarioRunner::new(profile.clone(), config.clone(), spec.phi_max_secs)
                .with_seed(spec.seed);
            let trace = tracer.time(layer::TRACE_GEN, |_| generate(profile.clone(), spec.seed));
            contacts += trace.len() as u64;
            for (target, mechanism) in ScenarioRunner::sweep_jobs(zeta_targets) {
                let m = tracer.time(layer::JOB_GLUE, |t| {
                    let scheduler = t.time(plan_span(mechanism), |_| {
                        scenario.mechanism_scheduler(mechanism, target)
                    });
                    t.time(layer::SIM_STEP, |_| {
                        simulate(&trace, target, scheduler, spec.seed.wrapping_add(1))
                    })
                });
                metrics.push(m);
            }
        }
        JobSpec::Fleet { mechanism, nodes } => {
            for (i, node) in nodes.iter().enumerate() {
                let m = tracer.time(layer::JOB_GLUE, |t| {
                    let fleet_node =
                        FleetNode::new(node.name.clone(), node.profile.clone(), node.zeta_target);
                    let trace = t.time(layer::TRACE_GEN, |_| {
                        generate(node.profile.clone(), spec.seed.wrapping_add(i as u64))
                    });
                    contacts += trace.len() as u64;
                    let scheduler = t.time(plan_span(*mechanism), |_| {
                        runner.node_scheduler(*mechanism, &fleet_node)
                    });
                    t.time(layer::SIM_STEP, |_| {
                        simulate(
                            &trace,
                            node.zeta_target,
                            scheduler,
                            spec.seed.wrapping_add(1_000 + i as u64),
                        )
                    })
                });
                metrics.push(m);
            }
        }
    }
    (runner, metrics, contacts)
}

/// The wire repetition: `FleetDriver::new` plus `run` over pipes, the
/// workers being this binary's `fleet-worker` mode. A traced repetition
/// then reads the coordinator registry for this run, reruns the same jobs
/// in process (the compute they cost) and probes the frame codec.
fn wire(text: &str, traced: bool, scratch: &Path) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let ready_log = scratch.join(format!("ready-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&ready_log);
    let worker_args = vec![
        "fleet-worker".to_string(),
        "--ready-log".to_string(),
        ready_log.display().to_string(),
    ];

    let start_unix_ns = unix_ns();
    let start = Instant::now();
    let spec = parse_spec(text)?;
    let spec_parse_s = start.elapsed().as_secs_f64();
    let driver =
        FleetDriver::new(spec.clone(), WIRE_WORKERS)?.with_worker_command(exe, worker_args);
    let run = driver.run().map_err(|e| format!("fleet run failed: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();

    let first_ready_ns = std::fs::read_to_string(&ready_log)
        .map_err(|e| format!("no worker reported ready ({}): {e}", ready_log.display()))?
        .lines()
        .filter_map(|l| l.trim().parse::<u128>().ok())
        .min()
        .ok_or("the ready log is empty")?;
    let _ = std::fs::remove_file(&ready_log);

    let mut rep = Rep {
        jobs: run.stats.jobs,
        wall_s,
        setup_s: first_ready_ns.saturating_sub(start_unix_ns) as f64 * 1e-9,
        laps_s: vec![wall_s],
        peak_rss_mb,
        row_digests: row_digests(&run.output),
        ..Rep::default()
    };
    if !traced {
        return Ok(rep);
    }

    // The coordinator registry, read for this run only: this process ran
    // exactly one fleet.
    use snip_obs::metrics::{histogram, sum_counters};
    let (handshakes, handshake_sum_us) = {
        let h = histogram("snip_handshake_us");
        (h.count().max(1), h.sum_us())
    };
    let peers = handshakes as f64;
    let handshake_s = handshake_sum_us as f64 * 1e-6 / peers;
    let roundtrip_s = histogram("snip_shard_compute_us").sum_us() as f64 * 1e-6 / peers;
    let merge_s = histogram("snip_fleet_merge_us").sum_us() as f64 * 1e-6;
    let wire_bytes =
        sum_counters("snip_frame_tx_bytes_total") + sum_counters("snip_frame_rx_bytes_total");

    // The same jobs in process: the compute the fleet distributed.
    let mut tracer = Tracer::new();
    let compute_start = Instant::now();
    let (_, metrics, contacts) = breakdown(&spec, &mut tracer);
    let compute_s = compute_start.elapsed().as_secs_f64();
    rep.metrics_digests = metrics.iter().map(digest).collect();
    layer_metrics(&spec, &tracer, contacts, &mut rep.layers);
    rep.layers.insert("fleetd.spec_parse_s", spec_parse_s);
    codec_probe(&spec, &metrics, &mut rep)?;

    // After the parse and before the first worker exists, the coordinator
    // builds its JobRunner, hashes the spec and encodes Init once; those
    // are timed from outside by the breakdown and the codec probe. The rest
    // of the wall is split with the registry: per-peer handshake, per-peer
    // share of shard round trips, the merge.
    let pre_spawn_s = rep.layers["fleetd.jobrunner_new_s"]
        + rep.layers["fleetd.spec_hash_s"]
        + rep.layers["replay.init_encode_s"];
    let attributed = spec_parse_s + pre_spawn_s + handshake_s + roundtrip_s + merge_s;
    rep.table = BTreeMap::from([
        (layer::SPEC_PARSE, spec_parse_s),
        ("fleetd.pre_spawn", pre_spawn_s),
        ("fleetd.handshake", handshake_s),
        ("fleetd.shard_roundtrip", roundtrip_s),
        ("fleetd.merge", merge_s),
        ("fleetd.unattributed", wall_s - attributed),
    ]);
    rep.layers.insert("fleetd.handshake_s", handshake_s);
    rep.layers.insert("fleetd.shard_roundtrip_s", roundtrip_s);
    rep.layers.insert("fleetd.merge_s", merge_s);
    rep.layers
        .insert("fleetd.unattributed_s", wall_s - attributed);
    rep.layers.insert(
        "fleetd.compute_share",
        compute_s / (WIRE_WORKERS as f64 * wall_s),
    );
    rep.layers
        .insert("fleetd.workers_lost", run.stats.workers_lost as f64);
    rep.layers.insert(
        "fleetd.shards_reassigned",
        run.stats.shards_reassigned as f64,
    );
    rep.layers.insert(
        "replay.frame_bytes_per_job",
        wire_bytes as f64 / run.stats.jobs.max(1) as f64,
    );
    Ok(rep)
}

/// Times the spec hash on the workload's own spec (both ends of the wire
/// pay it), and the public frame codec on one copy of every frame a fleet
/// run of this spec sends: one `Init`, and one `ShardDone` per shard of
/// this run's `metrics`, cut as the driver cuts them.
fn codec_probe(spec: &FleetSpec, metrics: &[RunMetrics], rep: &mut Rep) -> Result<(), String> {
    let timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let spec_hash_s = timed(&mut || {
        black_box(black_box(spec).spec_hash());
    });

    let init = CoordinatorMsg::Init {
        protocol: PROTOCOL_VERSION,
        spec: spec.clone(),
        spec_hash: spec.spec_hash(),
        session: 0,
        plans: Vec::new(),
    };
    let mut init_frame = Vec::new();
    let init_encode_s = timed(&mut || init_frame = encode_binary_frame(&init.to_value()));
    let mut init_back = None;
    let init_decode_s = timed(&mut || init_back = decode::<CoordinatorMsg>(&init_frame));
    if init_back.as_ref() != Some(&init) {
        return Err("the Init frame does not decode to what was encoded".into());
    }

    // The driver's default cut: about four shards per worker.
    let shard_size = (metrics.len() / (WIRE_WORKERS * 4)).max(1);
    let frames: Vec<WorkerMsg> = metrics
        .chunks(shard_size)
        .enumerate()
        .map(|(id, chunk)| WorkerMsg::ShardDone {
            results: vec![ShardResult {
                id: id as u64,
                metrics: chunk.to_vec(),
            }],
            plans: Vec::new(),
            seeded_hits: 0,
        })
        .collect();
    let mut encoded = Vec::with_capacity(frames.len());
    let result_encode_s = timed(&mut || {
        encoded = frames
            .iter()
            .map(|f| encode_binary_frame(&f.to_value()))
            .collect();
    });
    let mut decoded = Vec::new();
    let result_decode_s = timed(&mut || {
        decoded = encoded.iter().map(|b| decode::<WorkerMsg>(b)).collect();
    });
    if decoded
        .iter()
        .zip(&frames)
        .any(|(d, f)| d.as_ref() != Some(f))
    {
        return Err("a ShardDone frame does not decode to what was encoded".into());
    }
    let result_bytes: usize = encoded.iter().map(Vec::len).sum();

    rep.layers.insert("fleetd.spec_hash_s", spec_hash_s);
    rep.layers
        .insert("replay.init_bytes", init_frame.len() as f64);
    rep.layers.insert(
        "replay.result_bytes_per_job",
        result_bytes as f64 / metrics.len().max(1) as f64,
    );
    rep.layers.insert("replay.init_encode_s", init_encode_s);
    rep.layers
        .insert("replay.encode_s", init_encode_s + result_encode_s);
    rep.layers
        .insert("replay.decode_s", init_decode_s + result_decode_s);
    Ok(())
}

/// Decodes one binary frame into a message.
fn decode<T: Deserialize>(frame: &[u8]) -> Option<T> {
    FrameReader::new(Cursor::new(frame))
        .recv_value()
        .ok()
        .flatten()
        .and_then(|v| T::from_value(&v).ok())
}

/// The median of a non-empty sample (sorted in place).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// This process's peak resident set so far (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall-clock nanoseconds since the Unix epoch: the one clock the
/// coordinator and its worker processes share.
#[must_use]
pub fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_breakdown_matches_run_job_bit_for_bit() {
        for workload in Workload::ALL {
            let spec = inputs::spec(workload, 11, 3);
            let (metrics_ref, rows_ref) = reference(&spec);
            let mut tracer = Tracer::new();
            let (runner, metrics, contacts) = breakdown(&spec, &mut tracer);
            let digests: Vec<u64> = metrics.iter().map(digest).collect();
            assert_eq!(digests, metrics_ref, "{}", workload.name());
            assert_eq!(row_digests(&runner.merge(&metrics)), rows_ref);
            assert!(contacts > 0);
            assert_eq!(tracer.count(layer::SIM_STEP), spec.job_count());
        }
    }

    #[test]
    fn untraced_in_process_repetition_matches_the_reference() {
        let text = inputs::spec_json(Workload::PlanSweep, 5, 2);
        let rep = in_process(&text).expect("valid spec");
        let spec = parse_spec(&text).expect("valid spec");
        assert_eq!(spec, inputs::spec(Workload::PlanSweep, 5, 2));
        assert_eq!(rep.metrics_digests, reference(&spec).0);
        assert!(rep.wall_s > 0.0 && rep.setup_s > 0.0 && rep.peak_rss_mb > 0.0);
        assert_eq!(rep.laps_s.len(), spec.job_count() as usize + 1);
        let laps: f64 = rep.laps_s.iter().sum();
        assert_eq!(laps, rep.wall_s);
    }

    #[test]
    fn codec_probe_round_trips_this_runs_frames() {
        let spec = inputs::spec(Workload::WireFleet, 2, 4);
        let (metrics, _) = reference(&spec);
        let runner = JobRunner::new(&spec);
        let metrics: Vec<RunMetrics> = (0..metrics.len() as u64)
            .map(|i| runner.run_job(i))
            .collect();
        let mut rep = Rep::default();
        codec_probe(&spec, &metrics, &mut rep).expect("frames round-trip");
        assert!(rep.layers["replay.init_bytes"] > 0.0);
        assert!(rep.layers["replay.result_bytes_per_job"] > 0.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
