//! The fleet wire's budget: the canonical 18-point roadside sweep through
//! real `snip fleet-worker` processes, over pipes and over localhost TCP,
//! three runs each.
//!
//! Every run must merge output bit-identical to the sequential
//! reference and move frames both ways, but fewer than
//! [`FRAME_BYTES_PER_RUN`] frame bytes in all, through the coordinator;
//! the TCP best-of-3 wall must stay within [`TCP_VS_PIPE_MAX`] of the
//! pipe best-of-3 wall. The in-process reference must land its sweep
//! points and SNIP-OPT solves in the metrics registry.
//!
//! This file holds a single `#[test]`, so it runs alone in its process
//! and the counters it reads from the `snip-obs` registry count only its
//! own runs.

use std::time::{Duration, Instant};

use snip_fleetd::{FleetDriver, FleetOutput, FleetSpec, JobRunner, JobSpec, TcpConfig};
use snip_mobility::EpochProfile;
use snip_obs::metrics::{sum_counters, sum_histograms};

/// The `snip` binary built alongside this test — the real worker re-exec.
const SNIP_BIN: &str = env!("CARGO_BIN_EXE_snip");

/// Frame bytes (both directions) one run may move through the
/// coordinator: strictly below 1/6 of the 492 054 bytes the JSON-era
/// protocol-v3 wire moved for six runs of this sweep.
const FRAME_BYTES_PER_RUN: u64 = 82_009;

/// The TCP path's best wall may be at most this multiple of the pipe's.
const TCP_VS_PIPE_MAX: f64 = 2.0;

const REPEAT: usize = 3;

/// The roadside Fig 7 sweep: ζtarget 16..56 s × 3 mechanisms, 14 epochs.
fn sweep_spec() -> FleetSpec {
    FleetSpec {
        name: "wire-budget-sweep".into(),
        seed: 2011,
        epochs: 14,
        phi_max_secs: 86.4,
        job: JobSpec::Sweep {
            profile: EpochProfile::roadside(),
            zeta_targets: vec![16.0, 24.0, 32.0, 40.0, 48.0, 56.0],
        },
    }
}

/// Coordinator frame bytes sent and received so far, over all transports.
fn frame_bytes() -> (u64, u64) {
    (
        sum_counters("snip_frame_tx_bytes_total"),
        sum_counters("snip_frame_rx_bytes_total"),
    )
}

/// Runs `driver` [`REPEAT`] times, checking each run's output and frame
/// bytes, and returns the fastest wall.
fn best_wall(driver: &FleetDriver, label: &str, reference: &FleetOutput) -> Duration {
    let mut best = Duration::MAX;
    for repetition in 0..REPEAT {
        let (tx_before, rx_before) = frame_bytes();
        let started = Instant::now();
        let run = driver.run().expect("fleet run succeeds");
        best = best.min(started.elapsed());
        let (tx, rx) = frame_bytes();
        let (tx, rx) = (tx - tx_before, rx - rx_before);
        assert_eq!(
            &run.output, reference,
            "{label} run {repetition} must reproduce the sequential sweep exactly"
        );
        assert!(
            tx > 0 && rx > 0 && tx + rx < FRAME_BYTES_PER_RUN,
            "{label} run {repetition} sent {tx} and received {rx} frame bytes \
             (budget: both nonzero, under {FRAME_BYTES_PER_RUN} in all)"
        );
    }
    best
}

#[test]
fn the_canonical_sweep_stays_within_its_wire_budget_over_pipe_and_tcp() {
    let spec = sweep_spec();
    let reference = JobRunner::new(&spec).run_sequential();
    assert_eq!(
        sum_histograms("snip_sweep_point_us").0,
        spec.job_count(),
        "every in-process sweep point is timed"
    );
    let driver = || {
        FleetDriver::new(spec.clone(), 2)
            .expect("valid spec")
            .with_worker_command(SNIP_BIN, vec!["fleet-worker".into()])
            .with_shard_batch(4)
    };
    let pipe = best_wall(&driver(), "pipe", &reference);
    let tcp_driver = driver()
        .with_tcp(TcpConfig {
            listen: "127.0.0.1:0".into(),
            token: "wire-budget-token".into(),
            spawn_workers: true,
        })
        .expect("ephemeral localhost bind");
    let tcp = best_wall(&tcp_driver, "tcp", &reference);
    let ratio = tcp.as_secs_f64() / pipe.as_secs_f64();
    assert!(
        ratio <= TCP_VS_PIPE_MAX,
        "TCP best-of-{REPEAT} wall {tcp:?} is {ratio:.2}x the pipe's {pipe:?} \
         (bound: {TCP_VS_PIPE_MAX}x)"
    );
}
