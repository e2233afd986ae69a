//! Crash-safe checkpoint/resume, end to end: a run that dies after
//! checkpointing some shards is restarted with `--resume` and must
//! produce a merged report `assert_eq!`-identical to an uninterrupted
//! run — with the checkpointed shards loaded from the journal, never
//! recomputed. Driven both in-process (pipe transport, driver API) and
//! at the process level (TCP `snip fleet-serve` killed with SIGKILL
//! mid-run, then restarted). The journal is per-shard and codec-free,
//! so the drills cross protocol-v4 shard-batch widths: a run
//! checkpointed at one width resumes at the other.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use snip_fleetd::{
    ChaosPlan, DriverError, FaultAction, FaultDirection, FaultKind, FaultPlan, FleetDriver,
    FleetSpec, JobRunner, JobSpec, NodeSpec, PeerFaults,
};
use snip_mobility::EpochProfile;
use snip_replay::checkpoint::load_checkpoint;
use snip_sim::Mechanism;

const SNIP_BIN: &str = env!("CARGO_BIN_EXE_snip");

fn resume_spec() -> FleetSpec {
    let nodes = (0..8)
        .map(|i| NodeSpec {
            name: format!("site-{i}"),
            profile: EpochProfile::roadside(),
            zeta_target: 6.0 + 2.0 * f64::from(i),
        })
        .collect();
    FleetSpec {
        name: "resume-fleet".into(),
        seed: 23,
        epochs: 2,
        phi_max_secs: 86.4,
        job: JobSpec::Fleet {
            mechanism: Mechanism::SnipRh,
            nodes,
        },
    }
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("snip-resume-{}-{name}", std::process::id()))
}

fn peer0(actions: Vec<FaultAction>) -> ChaosPlan {
    ChaosPlan {
        peers: vec![PeerFaults {
            peer: 0,
            plan: FaultPlan { actions },
        }],
    }
}

fn pipe_driver(spec: &FleetSpec, workers: usize, batch: u64) -> FleetDriver {
    FleetDriver::new(spec.clone(), workers)
        .expect("valid spec")
        .with_worker_command(SNIP_BIN, vec!["fleet-worker".into()])
        .with_shard_timeout(Duration::from_secs(5))
        .with_shard_size(1)
        .with_shard_batch(batch)
}

#[test]
fn interrupted_pipe_run_resumes_bit_identically_without_recomputing() {
    let spec = resume_spec();
    // Both cross-width directions: a run checkpointed under single-job
    // frames resumes batched, and vice versa — shard journaling is
    // independent of how jobs were framed in flight.
    for (crash_batch, resume_batch) in [(1u64, 4u64), (4, 1)] {
        let journal = tmp_path(&format!("pipe-{crash_batch}-{resume_batch}.snipj"));
        let _ = std::fs::remove_file(&journal);

        // Phase 1: the lone worker's socket is severed after its second
        // ShardDone is suppressed (pipe Rx frames: 1 = Ready, 2 = the
        // first ShardDone — its whole batch merged and checkpointed —
        // 3 = the doomed one). No worker remains, so the run ends
        // Incomplete with at least one shard durably journaled.
        let phase1 = pipe_driver(&spec, 1, crash_batch)
            .with_checkpoint(&journal)
            .with_chaos(peer0(vec![FaultAction {
                dir: FaultDirection::Rx,
                at_frame: 3,
                kind: FaultKind::Sever,
            }]))
            .run();
        let checkpointed = match phase1 {
            Err(DriverError::Incomplete {
                missing, completed, ..
            }) => {
                assert!(
                    !completed.is_empty(),
                    "the sever lands after one merged ShardDone"
                );
                assert!(!missing.is_empty(), "the run was genuinely interrupted");
                completed.len() as u64
            }
            other => panic!("expected Incomplete, got {other:?}"),
        };
        let mid = load_checkpoint(&journal).expect("journal readable after the crash");
        assert_eq!(
            mid.shards.len() as u64,
            checkpointed,
            "every completed shard — and nothing else — is journaled"
        );

        // Phase 2: a fresh driver (a restarted coordinator) resumes from
        // the journal at the other batch width. The merged report must be
        // bit-identical to an uninterrupted run and the journaled shards
        // must come from the checkpoint, not recomputation.
        let run = pipe_driver(&spec, 2, resume_batch)
            .with_resume(&journal)
            .run()
            .expect("the resumed run completes");
        assert_eq!(
            run.output,
            JobRunner::new(&spec).run_sequential(),
            "crash at batch {crash_batch} + resume at batch {resume_batch} must \
             not move a single bit"
        );
        assert_eq!(
            run.stats.checkpoint_shards, checkpointed,
            "exactly the journaled shards are skipped: {:?}",
            run.stats
        );

        // The journal now covers the whole run, each shard exactly once
        // (load_checkpoint hard-fails on out-of-range ids; first-wins on
        // duplicates — equality of count proves uniqueness).
        let full = load_checkpoint(&journal).expect("journal readable after the resume");
        assert!(!full.truncated, "no torn tail in an orderly journal");
        assert_eq!(full.header.total_shards, spec.job_count());
        assert_eq!(
            full.shards.keys().copied().collect::<Vec<_>>(),
            (0..spec.job_count()).collect::<Vec<_>>(),
            "the journal ends covering every shard exactly once"
        );
        let _ = std::fs::remove_file(&journal);
    }
}

#[test]
fn resuming_under_a_different_spec_is_refused() {
    let spec = resume_spec();
    let journal = tmp_path("wrong-spec.snipj");
    let _ = std::fs::remove_file(&journal);
    pipe_driver(&spec, 2, 4)
        .with_checkpoint(&journal)
        .run()
        .expect("the checkpointed run completes");

    let mut other = resume_spec();
    other.seed = 999;
    match pipe_driver(&other, 2, 4).with_resume(&journal).run() {
        Err(DriverError::Checkpoint(msg)) => {
            assert!(
                msg.contains("different run"),
                "the refusal names the mismatch: {msg}"
            );
        }
        other => panic!("expected a checkpoint refusal, got {other:?}"),
    }
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn resuming_a_complete_journal_replays_the_whole_report_from_disk() {
    let spec = resume_spec();
    let journal = tmp_path("complete.jsonl");
    let _ = std::fs::remove_file(&journal);
    let first = pipe_driver(&spec, 2, 4)
        .with_checkpoint(&journal)
        .run()
        .expect("the checkpointed run completes");
    let resumed = pipe_driver(&spec, 2, 1)
        .with_resume(&journal)
        .run()
        .expect("resuming a finished run is a no-op success");
    assert_eq!(resumed.output, first.output);
    assert_eq!(
        resumed.stats.checkpoint_shards,
        spec.job_count(),
        "every shard came from the journal: {:?}",
        resumed.stats
    );
    let _ = std::fs::remove_file(&journal);
}

// ------------------------------------------------------- process level

fn wait_for<T>(what: &str, timeout: Duration, mut poll: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(v) = poll() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn spawn_worker(addr: &str, token_file: &Path, retry_secs: &str) -> Child {
    Command::new(SNIP_BIN)
        .args([
            "fleet-worker",
            "--connect",
            addr,
            "--token-file",
            &token_file.display().to_string(),
            "--retry-secs",
            retry_secs,
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("worker spawns")
}

#[test]
fn sigkilled_coordinator_resumes_bit_identically_over_tcp() {
    let spec = resume_spec();
    let dir = tmp_path("serve");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let spec_file = dir.join("spec.json");
    std::fs::write(&spec_file, serde::json::to_string(&spec)).expect("spec written");
    let token_file = dir.join("token");
    std::fs::write(&token_file, "resume-drill-token\n").expect("token written");
    let journal = dir.join("ckpt.snipj");
    // Slow the deliveries after the first checkpointed shard so the kill
    // window is wide and deterministic: TCP Rx frames 1-2 are Join and
    // Ready, 3 is the first ShardDone, 4-6 are each held 300 ms.
    let chaos_file = dir.join("chaos.json");
    let slow = peer0(
        (4..=6)
            .map(|at_frame| FaultAction {
                dir: FaultDirection::Rx,
                at_frame,
                kind: FaultKind::Delay { ms: 300 },
            })
            .collect(),
    );
    std::fs::write(&chaos_file, slow.to_json()).expect("chaos plan written");

    let serve = |extra: &[&str]| -> Child {
        let addr_file = dir.join("addr");
        let _ = std::fs::remove_file(&addr_file);
        let mut args = vec![
            "fleet-serve".to_string(),
            "--spec".into(),
            spec_file.display().to_string(),
            "--listen".into(),
            "127.0.0.1:0".into(),
            "--token-file".into(),
            token_file.display().to_string(),
            "--addr-file".into(),
            addr_file.display().to_string(),
            "--shard-size".into(),
            "1".into(),
        ];
        args.extend(extra.iter().map(|s| (*s).to_string()));
        Command::new(SNIP_BIN)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("coordinator spawns")
    };
    let read_addr = || -> String {
        wait_for("the bound address", Duration::from_secs(20), || {
            std::fs::read_to_string(dir.join("addr"))
                .ok()
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
        })
    };

    // Phase 1: serve with a checkpoint journal and the slow-down plan,
    // dealing batched assignments (`--shard-batch 4` exercises the v4
    // wire at the process level); SIGKILL the coordinator as soon as one
    // shard is durably journaled. Phase 2 resumes at the default width —
    // the journal does not care how jobs were framed.
    let mut coordinator = serve(&[
        "--checkpoint",
        &journal.display().to_string(),
        "--chaos-plan",
        &chaos_file.display().to_string(),
        "--shard-batch",
        "4",
    ]);
    let addr = read_addr();
    let mut worker = spawn_worker(&addr, &token_file, "1");
    wait_for(
        "the first checkpointed shard",
        Duration::from_secs(30),
        || {
            load_checkpoint(&journal)
                .ok()
                .filter(|l| !l.shards.is_empty())
        },
    );
    coordinator.kill().expect("SIGKILL the coordinator");
    let _ = coordinator.wait();
    let _ = worker.wait(); // exits on its own once redials exhaust 1 s

    let mid = load_checkpoint(&journal).expect("journal survives the kill");
    let checkpointed = mid.shards.len() as u64;
    assert!(
        checkpointed >= 1,
        "the drill checkpointed at least one shard"
    );
    assert!(
        checkpointed < spec.job_count(),
        "the kill landed mid-run, not after the finish line"
    );

    // Phase 2: restart with --resume and --verify: the restarted
    // coordinator must load the journaled shards, finish the rest, and
    // prove bit-identity against the sequential reference itself.
    let coordinator = serve(&["--resume", &journal.display().to_string(), "--verify"]);
    let addr = read_addr();
    let mut worker = spawn_worker(&addr, &token_file, "10");
    let output = coordinator
        .wait_with_output()
        .expect("restarted coordinator finishes");
    let _ = worker.wait();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "the resumed run verifies bit-identical (stdout: {stdout})"
    );
    assert!(
        stdout.contains("bit-identical to the sequential run"),
        "--verify compared against the sequential reference: {stdout}"
    );
    assert!(
        stdout.contains(&format!("{checkpointed} checkpointed shard(s) skipped")),
        "the journaled shards were loaded, not recomputed: {stdout}"
    );

    let full = load_checkpoint(&journal).expect("final journal readable");
    assert_eq!(
        full.shards.keys().copied().collect::<Vec<_>>(),
        (0..spec.job_count()).collect::<Vec<_>>(),
        "the journal ends covering every shard exactly once"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
