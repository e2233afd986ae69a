//! The transport fault matrix: every way a peer can misbehave on the
//! wire, and the clean outcome each must produce.
//!
//! | fault                         | required outcome                      |
//! |-------------------------------|---------------------------------------|
//! | truncated frame mid-message   | peer rejected/lost, shard re-queued    |
//! | wrong or missing auth token   | peer rejected before `Init`            |
//! | mismatched spec hash          | peer rejected before any shard         |
//! | protocol-version skew         | typed rejection naming both versions   |
//! | socket drop mid-shard         | shard re-queued, run completes         |
//! | handshake stall               | peer dropped at the shard timeout      |
//! | duplicated `ShardDone`        | merged exactly once, output exact      |
//! | nobody ever shows up          | `DriverError::Incomplete`, no hang     |
//!
//! Never a hang, never a partial merge: a run either completes with
//! output bit-identical to the sequential reference, or fails loudly as
//! [`DriverError::Incomplete`]. Malicious peers are scripted directly on
//! raw `TcpStream`s (below the worker implementation) so each fault hits
//! the coordinator exactly as a hostile or broken network would deliver
//! it.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use snip_fleetd::{
    run_worker_tcp, ConnectOptions, CoordinatorMsg, DriverError, FleetDriver, FleetRun, FleetSpec,
    JobRunner, JobSpec, NodeSpec, ShardResult, TcpConfig, WorkerError, WorkerMsg, PROTOCOL_VERSION,
    TOKEN_ENV_VAR,
};
use snip_mobility::EpochProfile;
use snip_replay::frame::{FrameReader, FrameWriter};
use snip_sim::Mechanism;

const SNIP_BIN: &str = env!("CARGO_BIN_EXE_snip");
const TOKEN: &str = "fault-matrix-token";

fn small_spec() -> FleetSpec {
    let nodes = (0..4)
        .map(|i| NodeSpec {
            name: format!("site-{i}"),
            profile: EpochProfile::roadside(),
            zeta_target: 8.0 + 2.0 * f64::from(i),
        })
        .collect();
    FleetSpec {
        name: "fault-matrix".into(),
        seed: 7,
        epochs: 2,
        phi_max_secs: 86.4,
        job: JobSpec::Fleet {
            mechanism: Mechanism::SnipRh,
            nodes,
        },
    }
}

/// A serving TCP driver with a short timeout (faults must resolve fast).
fn tcp_driver(spec: &FleetSpec, timeout: Duration) -> FleetDriver {
    FleetDriver::new(spec.clone(), 2)
        .expect("valid spec")
        .with_shard_size(1)
        .with_shard_timeout(timeout)
        .with_tcp(TcpConfig {
            listen: "127.0.0.1:0".into(),
            token: TOKEN.into(),
            spawn_workers: false,
        })
        .expect("ephemeral localhost bind")
}

/// Spawns one honest dialing worker process against `addr`.
fn spawn_honest_worker(addr: SocketAddr) -> Child {
    Command::new(SNIP_BIN)
        .args(["fleet-worker", "--connect", &addr.to_string()])
        .env(TOKEN_ENV_VAR, TOKEN)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("worker binary spawns")
}

/// Runs `driver` on a thread while `hostile` gets to abuse the listener,
/// with an honest worker ensuring the run can still finish. Returns the
/// completed run.
fn run_with_hostile_peer(spec: &FleetSpec, hostile: impl FnOnce(SocketAddr) + Send) -> FleetRun {
    let driver = tcp_driver(spec, Duration::from_secs(5));
    let addr = driver.local_addr().expect("bound");
    let (result, mut worker) = std::thread::scope(|scope| {
        let run = scope.spawn(|| driver.run());
        hostile(addr);
        let worker = spawn_honest_worker(addr);
        (run.join().expect("driver thread joins"), worker)
    });
    // Close the listener (drop the driver) before reaping the worker: if
    // the hostile peer finished the whole run itself, the honest worker
    // can dial in after the run ended and would otherwise sit out its
    // long handshake deadline against a socket nobody will ever serve.
    drop(driver);
    let _ = worker.wait();
    result.expect("the run completes")
}

fn assert_output_exact(spec: &FleetSpec, run: &FleetRun) {
    assert_eq!(
        run.output,
        JobRunner::new(spec).run_sequential(),
        "a faulty peer must never move the merged output by a bit"
    );
}

#[test]
fn wrong_token_is_rejected_and_the_run_completes() {
    let spec = small_spec();
    let run = run_with_hostile_peer(&spec, |addr| {
        let stream = TcpStream::connect(addr).expect("dial");
        let mut w = FrameWriter::new(&stream);
        w.send(&WorkerMsg::Join {
            protocol: PROTOCOL_VERSION,
            token: "not-the-token".into(),
            pid: 1,
            resume: None,
        })
        .expect("join sends");
        // The coordinator severs: the next read returns EOF, never Init.
        let mut r = FrameReader::new(std::io::BufReader::new(&stream));
        assert!(
            matches!(r.recv::<CoordinatorMsg>(), Ok(None) | Err(_)),
            "a wrong token must never be answered with Init"
        );
    });
    assert!(run.stats.peers_rejected >= 1, "{:?}", run.stats);
    assert_eq!(run.stats.workers_lost, 0, "{:?}", run.stats);
    assert_output_exact(&spec, &run);
}

#[test]
fn missing_token_handshake_stall_is_dropped_at_the_timeout() {
    // The satellite fix: a peer that connects and then says nothing must
    // be dropped when the shard timeout expires, not hold its slot
    // forever. The driver's timeout is 5 s; the stall outlives it.
    let spec = small_spec();
    let driver = tcp_driver(&spec, Duration::from_secs(2));
    let addr = driver.local_addr().expect("bound");
    let started = Instant::now();
    let (result, mut worker) = std::thread::scope(|scope| {
        let run = scope.spawn(|| driver.run());
        let _stall = TcpStream::connect(addr).expect("dial");
        let worker = spawn_honest_worker(addr);
        (run.join().expect("driver thread joins"), worker)
    });
    drop(driver);
    let _ = worker.wait();
    let run = result.expect("the run completes");
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "a silent peer must not stall the run"
    );
    assert!(run.stats.peers_rejected >= 1, "{:?}", run.stats);
    assert_output_exact(&spec, &run);
}

#[test]
fn protocol_version_skew_gets_a_typed_rejection_naming_both_versions() {
    // An authenticated worker speaking the wrong protocol version must
    // get a *decodable* answer, not a decode error or a silent sever:
    // the coordinator replies with an Init carrying its own protocol
    // number (and no plans), which the worker turns into its own typed
    // version error.
    let spec = small_spec();
    let run = run_with_hostile_peer(&spec, |addr| {
        let stream = TcpStream::connect(addr).expect("dial");
        let mut w = FrameWriter::new(&stream);
        w.send(&WorkerMsg::Join {
            protocol: PROTOCOL_VERSION + 7,
            token: TOKEN.into(),
            pid: 1,
            resume: None,
        })
        .expect("join sends");
        let mut r = FrameReader::new(std::io::BufReader::new(&stream));
        match r.recv::<CoordinatorMsg>() {
            Ok(Some(CoordinatorMsg::Init {
                protocol, plans, ..
            })) => {
                assert_eq!(
                    protocol, PROTOCOL_VERSION,
                    "the rejection names the coordinator's version"
                );
                assert!(plans.is_empty(), "a rejection ships no plan payload");
            }
            other => panic!("version skew must be answered with a typed Init, got {other:?}"),
        }
        // ...and nothing else: the peer is severed right after.
        assert!(
            matches!(r.recv::<CoordinatorMsg>(), Ok(None) | Err(_)),
            "after the rejection the coordinator severs"
        );
    });
    assert!(run.stats.peers_rejected >= 1, "{:?}", run.stats);
    assert_output_exact(&spec, &run);
}

#[test]
fn a_v4_worker_dialing_an_old_coordinator_gets_a_typed_version_error() {
    // The other direction of the skew matrix: this build's worker dials
    // a coordinator whose Init names protocol 3. The worker must fail
    // with its typed protocol error naming both versions — never a
    // decode error, never a hang. (A real protocol-3 coordinator frames
    // JSON, which the frame reader refuses at the first byte; the Init
    // here is binary so that the worker's version check is what runs.)
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("bound");
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut r = FrameReader::new(std::io::BufReader::new(&stream));
        match r.recv::<WorkerMsg>() {
            Ok(Some(WorkerMsg::Join { .. })) => {}
            other => panic!("expected Join, got {other:?}"),
        }
        let mut w = FrameWriter::new(&stream);
        w.send(&CoordinatorMsg::Init {
            protocol: 3,
            spec: small_spec(),
            spec_hash: small_spec().spec_hash(),
            session: 1,
            plans: vec![],
        })
        .expect("init sends");
    });
    let opts = ConnectOptions {
        addr,
        token: TOKEN.into(),
        retry_for: Duration::from_secs(2),
        backoff_seed: 3,
    };
    match run_worker_tcp(&opts, 1) {
        Err(WorkerError::Protocol(msg)) => {
            assert!(
                msg.contains("protocol 3") && msg.contains(&PROTOCOL_VERSION.to_string()),
                "the error names both versions: {msg}"
            );
        }
        other => panic!("expected a typed protocol error, got {other:?}"),
    }
    fake.join().expect("fake coordinator thread");
}

#[test]
fn mismatched_spec_hash_in_ready_is_rejected_before_any_shard() {
    let spec = small_spec();
    let run = run_with_hostile_peer(&spec, |addr| {
        let stream = TcpStream::connect(addr).expect("dial");
        let mut w = FrameWriter::new(&stream);
        let mut r = FrameReader::new(std::io::BufReader::new(&stream));
        w.send(&WorkerMsg::Join {
            protocol: PROTOCOL_VERSION,
            token: TOKEN.into(),
            pid: 1,
            resume: None,
        })
        .expect("join sends");
        let announced = match r.recv::<CoordinatorMsg>() {
            Ok(Some(CoordinatorMsg::Init { spec_hash, .. })) => spec_hash,
            other => panic!("expected Init after a valid Join, got {other:?}"),
        };
        w.send(&WorkerMsg::Ready {
            protocol: PROTOCOL_VERSION,
            pid: 1,
            spec_hash: announced ^ 0xdead_beef,
        })
        .expect("ready sends");
        // The wrong echo is refused: no shard may ever arrive (the
        // Session frame that trails Init may still be in the buffer).
        loop {
            match r.recv::<CoordinatorMsg>() {
                Ok(Some(CoordinatorMsg::Session { .. })) => {}
                Ok(Some(CoordinatorMsg::Shard { .. })) => {
                    panic!("a peer with the wrong spec hash must never receive a shard")
                }
                _ => break,
            }
        }
    });
    assert!(run.stats.peers_rejected >= 1, "{:?}", run.stats);
    assert_output_exact(&spec, &run);
}

#[test]
fn truncated_frame_mid_message_is_a_clean_rejection() {
    let spec = small_spec();
    let run = run_with_hostile_peer(&spec, |addr| {
        let mut stream = TcpStream::connect(addr).expect("dial");
        // A frame announcing 512 payload bytes, delivering 10, then gone.
        stream.write_all(&[0xC5, 0, 0, 2, 0]).expect("frame header");
        stream.write_all(b"0123456789").expect("partial payload");
        stream.flush().expect("flush");
        drop(stream);
    });
    assert!(run.stats.peers_rejected >= 1, "{:?}", run.stats);
    assert_output_exact(&spec, &run);
}

#[test]
fn socket_drop_mid_shard_requeues_and_the_run_stays_exact() {
    let spec = small_spec();
    let run = run_with_hostile_peer(&spec, |addr| {
        let stream = TcpStream::connect(addr).expect("dial");
        let mut w = FrameWriter::new(&stream);
        let mut r = FrameReader::new(std::io::BufReader::new(&stream));
        w.send(&WorkerMsg::Join {
            protocol: PROTOCOL_VERSION,
            token: TOKEN.into(),
            pid: 1,
            resume: None,
        })
        .expect("join sends");
        let spec_hash = match r.recv::<CoordinatorMsg>() {
            Ok(Some(CoordinatorMsg::Init { spec_hash, .. })) => spec_hash,
            other => panic!("expected Init, got {other:?}"),
        };
        w.send(&WorkerMsg::Ready {
            protocol: PROTOCOL_VERSION,
            pid: 1,
            spec_hash,
        })
        .expect("ready sends");
        // Accept a shard assignment... and die holding it. (The Session
        // frame that follows Init is skipped on the way.)
        loop {
            match r.recv::<CoordinatorMsg>() {
                Ok(Some(CoordinatorMsg::Session { .. })) => {}
                Ok(Some(CoordinatorMsg::Shard { .. })) => break,
                other => panic!("expected a shard, got {other:?}"),
            }
        }
        drop((w, r));
    });
    assert!(
        run.stats.shards_reassigned >= 1,
        "the dropped peer's shard was stolen: {:?}",
        run.stats
    );
    assert_eq!(run.stats.workers_lost, 1, "{:?}", run.stats);
    assert_output_exact(&spec, &run);
}

#[test]
fn duplicate_shard_done_is_merged_exactly_once() {
    // The retransmission a reconnecting worker can produce: the same
    // ShardDone delivered twice. The merge must be idempotent — the
    // duplicate is dropped, never double-counted, and the run stays
    // bit-exact.
    let spec = small_spec();
    let runner = JobRunner::new(&spec);
    let run = run_with_hostile_peer(&spec, |addr| {
        let stream = TcpStream::connect(addr).expect("dial");
        let mut w = FrameWriter::new(&stream);
        let mut r = FrameReader::new(std::io::BufReader::new(&stream));
        w.send(&WorkerMsg::Join {
            protocol: PROTOCOL_VERSION,
            token: TOKEN.into(),
            pid: 1,
            resume: None,
        })
        .expect("join sends");
        let spec_hash = match r.recv::<CoordinatorMsg>() {
            Ok(Some(CoordinatorMsg::Init { spec_hash, .. })) => spec_hash,
            other => panic!("expected Init, got {other:?}"),
        };
        w.send(&WorkerMsg::Ready {
            protocol: PROTOCOL_VERSION,
            pid: 1,
            spec_hash,
        })
        .expect("ready sends");
        let mut duplicated = false;
        loop {
            match r.recv::<CoordinatorMsg>() {
                Ok(Some(CoordinatorMsg::Session { .. })) => {}
                Ok(Some(CoordinatorMsg::Shard { jobs, .. })) => {
                    let done = WorkerMsg::ShardDone {
                        results: jobs
                            .iter()
                            .map(|j| ShardResult {
                                id: j.id,
                                metrics: (j.start..j.end).map(|i| runner.run_job(i)).collect(),
                            })
                            .collect(),
                        plans: vec![],
                        seeded_hits: 0,
                    };
                    w.send(&done).expect("shard done sends");
                    if !duplicated {
                        w.send(&done).expect("duplicate sends");
                        duplicated = true;
                    }
                }
                Ok(Some(CoordinatorMsg::Shutdown)) | Ok(None) => break,
                other => panic!("unexpected coordinator message {other:?}"),
            }
        }
        assert!(duplicated, "the drill never got a shard to duplicate");
    });
    assert_output_exact(&spec, &run);
}

#[test]
fn a_run_nobody_serves_fails_incomplete_instead_of_hanging() {
    let spec = small_spec();
    let driver = tcp_driver(&spec, Duration::from_secs(2));
    let addr = driver.local_addr().expect("bound");
    let started = Instant::now();
    // One hostile stall, zero honest workers: after the timeout with no
    // live peers the run must give up with every shard accounted for.
    let _stall = TcpStream::connect(addr).expect("dial");
    match driver.run() {
        Err(DriverError::Incomplete { missing, .. }) => {
            assert_eq!(missing.len(), 4, "every shard is reported missing");
        }
        other => panic!("expected Incomplete, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "giving up must be prompt, not a hang"
    );
}

#[test]
fn a_blank_environment_token_is_a_usage_error_not_a_dial() {
    // The environment fallback gets the token file's treatment: trimmed,
    // and refused when nothing is left. Port 1 on loopback refuses
    // connections, so a worker that dialed anyway would fail on its
    // retries instead of with this message.
    let out = Command::new(SNIP_BIN)
        .args([
            "fleet-worker",
            "--connect",
            "127.0.0.1:1",
            "--retry-secs",
            "1",
        ])
        .env(TOKEN_ENV_VAR, " ")
        .env_remove("SNIP_LOG")
        .stdin(Stdio::null())
        .output()
        .expect("worker binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("{TOKEN_ENV_VAR} is empty")),
        "expected the empty-token usage error, got: {stderr}"
    );
}
