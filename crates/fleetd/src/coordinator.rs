//! The coordinator: admit peers, deal shards, steal back from the dead.
//!
//! [`FleetDriver::run`] cuts the spec's job list into contiguous shards
//! and serves the shard queue pull-style over whatever transport its
//! peers arrive on: each worker gets a new shard the moment it returns
//! the previous one, so uneven shard costs balance themselves (work
//! stealing by idle-worker pull). A peer that crashes, hangs past the
//! shard timeout, stalls inside the handshake, or speaks out of protocol
//! is severed and counted lost — its in-flight shard goes back on the
//! queue for a healthy worker. Two dispatch modes share every line of
//! the drive loop:
//!
//! * **Pipe** (default): the coordinator spawns `workers` subprocesses
//!   (`snip fleet-worker`, re-execs of the current binary) and frames the
//!   protocol over their stdio ([`PipeTransport`]).
//! * **TCP** ([`FleetDriver::with_tcp`]): the coordinator listens, and
//!   remote `snip fleet-worker --connect` processes dial in, authenticate
//!   with the shared token, and pass the spec-hash handshake. Late
//!   joiners are admitted mid-run; a dead socket is exactly a killed
//!   worker (shard re-queued). With
//!   [`TcpConfig::spawn_workers`] the coordinator also spawns local
//!   dialing workers itself (test and smoke-test mode).
//!
//! **Determinism:** job `i` is a pure function of `(spec, i)` (per-node
//! traces and RNG seeds derive from the spec exactly as in-process runs
//! derive them), results are stored by shard ordinal and merged in index
//! order, and metrics travel as exact integer-µs ledgers. The merged
//! output is therefore bit-identical to [`JobRunner::run_sequential`] for
//! every transport, worker count, and steal/kill interleaving.
//!
//! **Crash safety:** with [`FleetDriver::with_checkpoint`] every merged
//! `ShardDone` is appended — flushed and fsynced — to a run checkpoint
//! journal *before* the shard is counted complete, and
//! [`FleetDriver::with_resume`] reloads the journal, skips the finished
//! shards, and still merges bit-identically. A TCP worker whose socket
//! drops redials and resumes its session: each result of its in-flight
//! `ShardDone` batch is accepted exactly once — the merge is idempotent
//! by shard ordinal, duplicates are logged and dropped. A scriptable
//! [`ChaosPlan`](crate::fault::ChaosPlan) can injure any peer's
//! transport at exact frame ordinals to drill all of the above, and
//! [`DriverError::Incomplete`] carries the completed shards next to the
//! missing manifest so `--partial-ok` can salvage a wrecked run.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use snip_obs::metrics::{Counter, Gauge, Histogram};
use snip_opt::OptPlan;
use snip_replay::checkpoint::{
    load_checkpoint, CheckpointHeader, CheckpointWriter, CHECKPOINT_VERSION,
};
use snip_sim::RunMetrics;

use crate::fault::{ChaosPlan, FaultTransport};
use crate::proto::{CoordinatorMsg, PlanEntry, ShardJob, ShardResult, WorkerMsg, PROTOCOL_VERSION};
use crate::spec::{FleetOutput, FleetSpec, JobRunner};
use crate::transport::{
    recv_msg, send_msg, PipeTransport, PreEncoded, RecvError, TcpTransport, Transport,
};

/// One contiguous slice of the job list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shard {
    id: u64,
    start: u64,
    end: u64,
}

/// Deliberate failure injection, for exercising the steal path in tests
/// and drills: the coordinator severs one of its own peers' transports
/// after it has returned `after_shards` results — a killed subprocess on
/// pipes, a dead socket on TCP, indistinguishable from a crash either
/// way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultInjection {
    /// Sever peer `worker` once it has completed `after_shards` shards.
    KillWorker {
        /// Zero-based peer index (spawn order on pipes, admission order
        /// on TCP) to sever.
        worker: usize,
        /// Results the peer is allowed to deliver first.
        after_shards: u64,
    },
}

/// Why a fleet run failed.
#[derive(Debug)]
pub enum DriverError {
    /// A worker subprocess could not be spawned at all.
    Spawn {
        /// Zero-based worker index.
        worker: usize,
        /// The OS error.
        error: io::Error,
    },
    /// Workers died (or never arrived) faster than shards could be
    /// reassigned; the listed shard ordinals never completed.
    Incomplete {
        /// Shards with no result — the explicit missing-shard manifest.
        missing: Vec<u64>,
        /// Workers lost along the way.
        workers_lost: usize,
        /// The shards that *did* finish, by ordinal — everything a
        /// `--partial-ok` caller can salvage (checkpointed shards
        /// included on a resumed run).
        completed: Vec<(u64, Vec<RunMetrics>)>,
    },
    /// The run checkpoint journal could not be created, appended, or
    /// resumed from — including a `--resume` against a journal whose
    /// spec hash or shard geometry does not match this run.
    Checkpoint(String),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Spawn { worker, error } => {
                write!(f, "could not spawn fleet worker {worker}: {error}")
            }
            DriverError::Incomplete {
                missing,
                workers_lost,
                completed,
            } => write!(
                f,
                "fleet run incomplete: {} shard(s) unfinished after losing {workers_lost} \
                 worker(s) (ids {missing:?}; {} shard(s) completed)",
                missing.len(),
                completed.len()
            ),
            DriverError::Checkpoint(msg) => write!(f, "checkpoint journal error: {msg}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// Counters describing how a fleet run went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverStats {
    /// Jobs simulated.
    pub jobs: u64,
    /// Shards the job list was cut into.
    pub shards: u64,
    /// Workers admitted through the `Init`/`Ready` handshake (on either
    /// transport) — peers that could actually have served shards.
    pub workers: usize,
    /// Workers lost: admitted peers that crashed, hung, or broke
    /// protocol — plus, on pipes, the coordinator's own spawned re-execs
    /// that failed to spawn or to complete the handshake.
    pub workers_lost: usize,
    /// Peers refused before admission: bad token, protocol skew, spec-hash
    /// mismatch, or a handshake that stalled past the shard timeout.
    pub peers_rejected: usize,
    /// Shards that had to be re-queued from a lost worker.
    pub shards_reassigned: u64,
    /// SNIP-OPT plan entries shipped to workers (`Init` + `Shard`).
    pub plans_shipped: u64,
    /// Worker-side solves answered by coordinator-shipped plans — the
    /// cross-worker cache hits the plan shipping exists for.
    pub plan_seed_hits: u64,
    /// Dropped TCP workers that redialed and resumed their session.
    pub reconnects: u64,
    /// `ShardDone` results delivered on a resumed session (in-flight work
    /// that survived a socket drop instead of being recomputed).
    pub resumed_shards: u64,
    /// Shards preloaded from a `--resume` checkpoint journal — finished
    /// before this run started and never recomputed.
    pub checkpoint_shards: u64,
}

impl fmt::Display for DriverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} job(s) in {} shard(s) on {} worker(s); {} worker(s) lost, \
             {} peer(s) rejected, {} shard(s) reassigned, {} plan(s) shipped, \
             {} cross-worker plan hit(s), {} reconnect(s), {} resumed shard(s), \
             {} checkpointed shard(s) skipped",
            self.jobs,
            self.shards,
            self.workers,
            self.workers_lost,
            self.peers_rejected,
            self.shards_reassigned,
            self.plans_shipped,
            self.plan_seed_hits,
            self.reconnects,
            self.resumed_shards,
            self.checkpoint_shards
        )
    }
}

/// Registry handles for the coordinator's instrumentation, resolved once.
/// Gauges describe the current (or most recent) run and are reset when a
/// run starts; counters are cumulative for the process, mirroring the
/// per-run [`DriverStats`].
struct FleetMetrics {
    workers: &'static Gauge,
    shards_total: &'static Gauge,
    shards_done: &'static Gauge,
    runs: &'static Counter,
    workers_lost: &'static Counter,
    peers_rejected: &'static Counter,
    shards_reassigned: &'static Counter,
    plans_shipped: &'static Counter,
    plan_seed_hits: &'static Counter,
    reconnects: &'static Counter,
    resumed_shards: &'static Counter,
    /// Time a shard sat queued before a worker pulled it.
    queue_us: &'static Histogram,
    /// Checkpoint journal append (encode + write + fsync), per shard.
    checkpoint_write_us: &'static Histogram,
    /// Assignment-to-`ShardDone` round trip (compute plus transport).
    compute_us: &'static Histogram,
    /// Index-ordered merge of the shard results.
    merge_us: &'static Histogram,
    /// `Init`-to-`Ready` handshake, per admitted peer.
    handshake_us: &'static Histogram,
}

fn fleet_metrics() -> &'static FleetMetrics {
    use snip_obs::metrics::{counter, gauge, histogram};
    static METRICS: std::sync::OnceLock<FleetMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| FleetMetrics {
        workers: gauge("snip_fleet_workers"),
        shards_total: gauge("snip_fleet_shards_total"),
        shards_done: gauge("snip_fleet_shards_done"),
        runs: counter("snip_fleet_runs_total"),
        workers_lost: counter("snip_fleet_workers_lost_total"),
        peers_rejected: counter("snip_fleet_peers_rejected_total"),
        shards_reassigned: counter("snip_fleet_shards_reassigned_total"),
        plans_shipped: counter("snip_fleet_plans_shipped_total"),
        plan_seed_hits: counter("snip_fleet_plan_seed_hits_total"),
        reconnects: counter("snip_fleet_reconnects_total"),
        resumed_shards: counter("snip_fleet_resumed_shards_total"),
        queue_us: histogram("snip_shard_queue_us"),
        checkpoint_write_us: histogram("snip_checkpoint_write_us"),
        compute_us: histogram("snip_shard_compute_us"),
        merge_us: histogram("snip_fleet_merge_us"),
        handshake_us: histogram("snip_handshake_us"),
    })
}

/// A completed fleet run: the merged output plus the run counters.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRun {
    /// The merged, index-ordered output.
    pub output: FleetOutput,
    /// How the run went.
    pub stats: DriverStats,
}

/// TCP dispatch configuration ([`FleetDriver::with_tcp`]).
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Address to bind the coordinator's listener on (`127.0.0.1:0`
    /// picks an ephemeral port; read it back with
    /// [`FleetDriver::local_addr`]).
    pub listen: String,
    /// The shared secret every dialing worker must present in `Join`.
    pub token: String,
    /// Also spawn `workers` local dialing worker subprocesses (the token
    /// travels to them through the `SNIP_FLEET_TOKEN` environment
    /// variable, never argv). Off for `snip fleet-serve`, where remote
    /// workers dial in on their own.
    pub spawn_workers: bool,
}

/// Environment variable a spawned dialing worker reads its token from.
pub const TOKEN_ENV_VAR: &str = "SNIP_FLEET_TOKEN";

/// Upper bound on how long an accepted peer may dawdle before `Join`.
/// Kept well under the shard timeout: pre-auth peers hold a thread and a
/// socket, and a stranger should not get to hold either for the length
/// of a shard.
const JOIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Most connections allowed to sit in the pre-auth (pre-`Join`) phase at
/// once; accepts beyond it are closed immediately. Honest fleets
/// authenticate within milliseconds, so this only throttles floods.
const MAX_PREAUTH_PEERS: usize = 64;

struct TcpState {
    listener: TcpListener,
    token: String,
    spawn_workers: bool,
}

/// The transport-generic fleet driver. See the module docs.
pub struct FleetDriver {
    spec: FleetSpec,
    workers: usize,
    shard_size: u64,
    /// Most shards dealt to a peer in one `Shard` frame (≥ 1).
    shard_batch: u64,
    worker_command: Option<(PathBuf, Vec<String>)>,
    shard_timeout: Duration,
    fault: Option<FaultInjection>,
    tcp: Option<TcpState>,
    /// Scripted per-peer transport faults (chaos drills).
    chaos: Option<ChaosPlan>,
    /// Run checkpoint journal path; `resume` reloads it instead of
    /// truncating it.
    checkpoint_path: Option<PathBuf>,
    resume: bool,
    /// SNIP-OPT plans accumulated from workers, persisted across `run`
    /// calls on the same driver (repeated runs re-ship warm plans).
    plans: Mutex<PlanStore>,
}

/// The coordinator's accumulated plan set plus a generation counter, so
/// a peer that is already up to date skips the per-shard rescan.
#[derive(Default)]
struct PlanStore {
    map: BTreeMap<String, OptPlan>,
    /// Bumped whenever `map` gains an entry.
    generation: u64,
}

/// What the coordinator remembers about a dropped worker so a redial can
/// resume the session: the plan-shipping bookkeeping, which would
/// otherwise re-ship every plan the worker already holds.
struct SessionEntry {
    shipped: BTreeSet<String>,
    seen_generation: u64,
}

/// The run's `Init`, encoded into its wire frame exactly once and shipped
/// to every fresh peer verbatim ([`Transport::send_preencoded`]). The
/// plan snapshot it carries is recorded so each admitted peer's shipping
/// bookkeeping starts from the pre-encode state instead of re-scanning.
struct InitFrame {
    frame: PreEncoded,
    /// Keys of the plans baked into the frame.
    plan_keys: Vec<String>,
    /// Plan-store generation at pre-encode time.
    generation: u64,
}

/// Everything one run's peers share: the shard queue, the result slots,
/// and the lifecycle counters.
struct RunState {
    /// Pending shards, each stamped with when it (re)entered the queue so
    /// pulls can record queue latency.
    queue: Mutex<VecDeque<(Shard, Instant)>>,
    wakeup: Condvar,
    results: Vec<Mutex<Option<Vec<RunMetrics>>>>,
    /// The full shard table by ordinal — resumed `ShardDone`s are
    /// validated against it before merging.
    shards: Vec<Shard>,
    total: u64,
    completed: AtomicU64,
    /// Set when the run gives up (no peers, nothing happening): peers
    /// drain out through `next_shard` returning `None`.
    aborted: AtomicBool,
    admitted: AtomicUsize,
    lost: AtomicUsize,
    rejected: AtomicUsize,
    reassigned: AtomicU64,
    plans_shipped: AtomicU64,
    seed_hits: AtomicU64,
    active_peers: AtomicUsize,
    /// Peers accepted but not yet past `Join` (capped at
    /// [`MAX_PREAUTH_PEERS`]).
    preauth_peers: AtomicUsize,
    last_activity: Mutex<Instant>,
    /// Dropped workers' resumable sessions, by session id. An entry is
    /// taken when its worker redials; live peers have no entry.
    sessions: Mutex<BTreeMap<u64, SessionEntry>>,
    next_session: AtomicU64,
    reconnects: AtomicU64,
    resumed_shards: AtomicU64,
    /// The run checkpoint journal, when armed. Appended under the result
    /// slot's lock *before* the shard counts as complete.
    checkpoint: Option<Mutex<CheckpointWriter>>,
    /// Shards preloaded from a resumed checkpoint journal.
    preloaded: u64,
}

impl RunState {
    fn new(
        shards: &[Shard],
        preloaded: BTreeMap<u64, Vec<RunMetrics>>,
        checkpoint: Option<CheckpointWriter>,
    ) -> Self {
        // snip-lint: allow(wall-clock): "queue-wait latency metric; never feeds merged results"
        let enqueued = Instant::now();
        RunState {
            // Checkpointed shards never re-enter the queue: their work is
            // already durable, recomputing it is the thing resume exists
            // to avoid.
            queue: Mutex::new(
                shards
                    .iter()
                    .filter(|s| !preloaded.contains_key(&s.id))
                    .map(|&s| (s, enqueued))
                    .collect(),
            ),
            wakeup: Condvar::new(),
            results: shards
                .iter()
                .map(|s| Mutex::new(preloaded.get(&s.id).cloned()))
                .collect(),
            shards: shards.to_vec(),
            total: shards.len() as u64,
            completed: AtomicU64::new(preloaded.len() as u64),
            aborted: AtomicBool::new(false),
            admitted: AtomicUsize::new(0),
            lost: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
            reassigned: AtomicU64::new(0),
            plans_shipped: AtomicU64::new(0),
            seed_hits: AtomicU64::new(0),
            active_peers: AtomicUsize::new(0),
            preauth_peers: AtomicUsize::new(0),
            // snip-lint: allow(wall-clock): "idle-timeout liveness clock; deadline bookkeeping only"
            last_activity: Mutex::new(Instant::now()),
            sessions: Mutex::new(BTreeMap::new()),
            next_session: AtomicU64::new(1),
            reconnects: AtomicU64::new(0),
            resumed_shards: AtomicU64::new(0),
            checkpoint: checkpoint.map(Mutex::new),
            preloaded: preloaded.len() as u64,
        }
    }

    fn finished(&self) -> bool {
        self.completed.load(Ordering::SeqCst) >= self.total
    }

    fn over(&self) -> bool {
        self.finished() || self.aborted.load(Ordering::SeqCst)
    }

    fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        self.wakeup.notify_all();
    }

    fn touch(&self) {
        // snip-lint: allow(wall-clock): "idle-timeout liveness clock; deadline bookkeeping only"
        *self.last_activity.lock().expect("activity clock poisoned") = Instant::now();
    }

    fn idle_for(&self) -> Duration {
        self.last_activity
            .lock()
            .expect("activity clock poisoned")
            .elapsed()
    }

    /// A lost peer's in-flight shard goes back on the queue for the next
    /// idle worker — the steal.
    fn requeue(&self, shard: Shard) {
        self.queue
            .lock()
            .expect("shard queue poisoned")
            // snip-lint: allow(wall-clock): "in-flight shard age for the reassignment timeout"
            .push_back((shard, Instant::now()));
        self.reassigned.fetch_add(1, Ordering::Relaxed);
        snip_obs::event!(
            snip_obs::log::Level::Debug,
            "shard {} re-queued from a lost worker",
            shard.id
        );
        self.wakeup.notify_all();
    }

    /// Blocks until a shard is available or the run is over; `None` means
    /// the run completed (or aborted) and the peer should shut down.
    fn next_shard(&self) -> Option<Shard> {
        let mut q = self.queue.lock().expect("shard queue poisoned");
        loop {
            if let Some((shard, queued_at)) = q.pop_front() {
                // A re-queued shard can have been merged behind the
                // queue's back: its original owner reconnected and
                // delivered the in-flight result. Recomputing it would be
                // harmless (the merge is idempotent) but wasted.
                if self.merged(shard.id) {
                    continue;
                }
                fleet_metrics().queue_us.observe(queued_at.elapsed());
                return Some(shard);
            }
            if self.over() {
                return None;
            }
            // Re-check periodically as a hang backstop: every shard is
            // either queued, completed, or held by a live handler that
            // re-queues it on its way out.
            let (guard, _timeout) = self
                .wakeup
                .wait_timeout(q, Duration::from_millis(200))
                .expect("shard queue poisoned");
            q = guard;
        }
    }

    /// Blocks for one shard, then greedily (without blocking) tops the
    /// batch up to `max` shards from whatever else is already queued.
    /// Pull-based stealing is preserved: a batch never waits for the
    /// queue to refill, so an idle peer takes exactly what is there.
    fn next_batch(&self, max: u64) -> Option<Vec<Shard>> {
        let first = self.next_shard()?;
        let mut batch = vec![first];
        if max > 1 {
            let mut q = self.queue.lock().expect("shard queue poisoned");
            while (batch.len() as u64) < max {
                let Some((shard, queued_at)) = q.pop_front() else {
                    break;
                };
                if self.merged(shard.id) {
                    continue; // same stale-requeue skip as next_shard
                }
                fleet_metrics().queue_us.observe(queued_at.elapsed());
                batch.push(shard);
            }
        }
        Some(batch)
    }

    /// Parks the accept loop until run progress (a merged shard, a
    /// requeue, an abort) or `timeout`, whichever is first. Progress
    /// notifications via `wakeup` bound end-of-run latency to one wake;
    /// the short timeout bounds accept latency for fresh dialers.
    fn park(&self, timeout: Duration) {
        let guard = self.queue.lock().expect("shard queue poisoned");
        let _ = self
            .wakeup
            .wait_timeout(guard, timeout)
            .expect("shard queue poisoned");
    }

    /// Whether this shard's result is already in its slot.
    fn merged(&self, id: u64) -> bool {
        self.results
            .get(id as usize)
            .is_some_and(|slot| slot.lock().expect("result slot poisoned").is_some())
    }

    /// Merges one shard result, exactly once: a duplicate delivery for an
    /// already-merged ordinal (a re-sent in-flight `ShardDone`, a chaos
    /// duplicate, a stale recompute) is logged and dropped. Returns
    /// whether this call did the merge. When a checkpoint journal is
    /// armed, the record is durable *before* the shard counts as
    /// complete — a coordinator killed right here recovers the shard on
    /// resume or recomputes it, never double-counts it.
    fn finish_shard(&self, shard: Shard, metrics: Vec<RunMetrics>) -> bool {
        let mut slot = self.results[shard.id as usize]
            .lock()
            .expect("result slot poisoned");
        if slot.is_some() {
            snip_obs::event!(
                snip_obs::log::Level::Debug,
                "duplicate ShardDone for shard {} dropped (already merged)",
                shard.id
            );
            return false;
        }
        if let Some(checkpoint) = &self.checkpoint {
            // snip-lint: allow(wall-clock): "checkpoint-append latency metric; observability only"
            let write_start = Instant::now();
            if let Err(e) = checkpoint
                .lock()
                .expect("checkpoint writer poisoned")
                .append_shard(shard.id, &metrics)
            {
                // Keep the run going: a full disk costs the checkpoint,
                // not the computation.
                snip_obs::event!(
                    snip_obs::log::Level::Warn,
                    "checkpoint append for shard {} failed: {e}",
                    shard.id
                );
            }
            fleet_metrics()
                .checkpoint_write_us
                .observe(write_start.elapsed());
        }
        *slot = Some(metrics);
        drop(slot);
        self.completed.fetch_add(1, Ordering::SeqCst);
        fleet_metrics().shards_done.inc();
        self.touch();
        self.wakeup.notify_all();
        true
    }
}

/// How a peer's service ended.
enum PeerOutcome {
    /// Served until the queue drained (or joined after the finish line).
    Finished,
    /// Never made it through `Init`/`Ready`.
    HandshakeFailed,
    /// Admitted, then crashed/hung/spoke out of protocol.
    Lost,
}

/// Whether a `ShardDone` answers exactly the assigned batch: one result
/// per assigned shard (no extras, no repeats, any order), each carrying
/// exactly one metrics entry per job of its range.
fn batch_reply_matches(results: &[ShardResult], batch: &[Shard]) -> bool {
    if results.len() != batch.len() {
        return false;
    }
    let by_id: BTreeMap<u64, &ShardResult> = results.iter().map(|r| (r.id, r)).collect();
    by_id.len() == results.len()
        && batch.iter().all(|s| {
            by_id
                .get(&s.id)
                .is_some_and(|r| r.metrics.len() as u64 == s.end - s.start)
        })
}

/// Constant-time token comparison (length aside): a byte-wise early exit
/// would hand a dialing stranger a timing oracle on the shared secret.
fn token_matches(presented: &str, expected: &str) -> bool {
    let (a, b) = (presented.as_bytes(), expected.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

impl FleetDriver {
    /// Creates a driver for a spec with `workers` subprocesses.
    ///
    /// # Errors
    ///
    /// Returns the spec's validation complaint, or one about `workers`.
    pub fn new(spec: FleetSpec, workers: usize) -> Result<Self, String> {
        spec.validate()?;
        if workers == 0 {
            return Err("need at least one worker".into());
        }
        let jobs = spec.job_count();
        Ok(FleetDriver {
            spec,
            workers,
            // Default granularity: ~4 shards per worker, so the queue has
            // enough pieces for stealing without drowning in round-trips.
            shard_size: (jobs / (workers as u64 * 4)).max(1),
            shard_batch: 1,
            worker_command: None,
            shard_timeout: Duration::from_secs(600),
            fault: None,
            tcp: None,
            chaos: None,
            checkpoint_path: None,
            resume: false,
            plans: Mutex::new(PlanStore::default()),
        })
    }

    /// Overrides the jobs-per-shard granularity.
    ///
    /// # Panics
    ///
    /// Panics if `shard_size` is zero.
    #[must_use]
    pub fn with_shard_size(mut self, shard_size: u64) -> Self {
        assert!(shard_size > 0, "shard size must be at least 1");
        self.shard_size = shard_size;
        self
    }

    /// Overrides how many shards may be dealt to a peer in one `Shard`
    /// frame (default 1). Larger batches amortize the frame round trip
    /// over small shards; pull-based stealing is unchanged — a batch only
    /// grows past one when the queue can fill it without blocking, and a
    /// lost peer's whole unmerged batch is re-queued.
    ///
    /// # Panics
    ///
    /// Panics if `shard_batch` is zero.
    #[must_use]
    pub fn with_shard_batch(mut self, shard_batch: u64) -> Self {
        assert!(shard_batch > 0, "shard batch must be at least 1");
        self.shard_batch = shard_batch;
        self
    }

    /// Overrides the worker command (default: the current executable with
    /// the single argument `fleet-worker`). In TCP spawn mode the driver
    /// appends `--connect <addr>` to these arguments.
    #[must_use]
    pub fn with_worker_command(mut self, program: impl Into<PathBuf>, args: Vec<String>) -> Self {
        self.worker_command = Some((program.into(), args));
        self
    }

    /// Overrides the per-shard response timeout. The same bound applies
    /// to every handshake phase — a peer that connects and then stalls
    /// before `Join` or `Ready` is dropped when it expires, instead of
    /// holding a worker slot forever — and, on TCP, to how long the run
    /// keeps waiting with no live peers before giving up as
    /// [`DriverError::Incomplete`].
    #[must_use]
    pub fn with_shard_timeout(mut self, timeout: Duration) -> Self {
        self.shard_timeout = timeout;
        self
    }

    /// Arms a deliberate peer sever (tests and failure drills).
    #[must_use]
    pub fn with_fault(mut self, fault: FaultInjection) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Arms a scripted [`ChaosPlan`]: each listed peer's transport is
    /// wrapped in a [`FaultTransport`] executing its [`FaultPlan`]
    /// (frame-exact severs, delays, tears, duplicates, reorders). Peers
    /// are keyed by admission ordinal — spawn order on pipes, connection
    /// order on TCP (a reconnecting worker is a *new* connection and gets
    /// the next ordinal).
    ///
    /// [`FaultPlan`]: crate::fault::FaultPlan
    #[must_use]
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Writes a run checkpoint journal at `path` (format by extension,
    /// like every snip journal): the header first, then every merged
    /// `ShardDone`, each fsynced before the shard counts as complete. An
    /// existing file is truncated — use [`FleetDriver::with_resume`] to
    /// continue one.
    #[must_use]
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self.resume = false;
        self
    }

    /// Resumes a run from the checkpoint journal at `path`: finished
    /// shards are preloaded (never recomputed, never re-queued) and new
    /// completions keep appending to the same journal. [`FleetDriver::run`]
    /// refuses with [`DriverError::Checkpoint`] when the journal's spec
    /// hash or shard geometry does not match this driver.
    #[must_use]
    pub fn with_resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self.resume = true;
        self
    }

    /// Switches the driver to TCP dispatch: bind the listener now (so the
    /// address is known before the run), admit dialing workers during
    /// [`FleetDriver::run`].
    ///
    /// # Errors
    ///
    /// Returns the OS bind error.
    pub fn with_tcp(mut self, config: TcpConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.listen)?;
        listener.set_nonblocking(true)?;
        self.tcp = Some(TcpState {
            listener,
            token: config.token,
            spawn_workers: config.spawn_workers,
        });
        Ok(self)
    }

    /// The bound listener address (TCP mode only).
    #[must_use]
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.tcp.as_ref().and_then(|t| t.listener.local_addr().ok())
    }

    /// The shard list for this driver's spec and granularity.
    fn shards(&self) -> Vec<Shard> {
        let jobs = self.spec.job_count();
        (0..jobs)
            .step_by(self.shard_size as usize)
            .enumerate()
            .map(|(id, start)| Shard {
                id: id as u64,
                start,
                end: (start + self.shard_size).min(jobs),
            })
            .collect()
    }

    /// Resolves the worker command line.
    fn command(&self) -> Result<(PathBuf, Vec<String>), io::Error> {
        match &self.worker_command {
            Some((program, args)) => Ok((program.clone(), args.clone())),
            None => Ok((std::env::current_exe()?, vec!["fleet-worker".into()])),
        }
    }

    /// Runs the fleet and merges the shard results in index order.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError`] when no worker could be spawned or when
    /// every worker died (or, on TCP, none arrived) with shards still
    /// unfinished.
    pub fn run(&self) -> Result<FleetRun, DriverError> {
        let runner = JobRunner::new(&self.spec);
        let shards = self.shards();
        let (preloaded, checkpoint) = self.prepare_checkpoint(&shards)?;
        let state = RunState::new(&shards, preloaded, checkpoint);

        let obs = fleet_metrics();
        obs.runs.inc();
        obs.workers.set(0);
        obs.shards_done.set(state.preloaded);
        obs.shards_total.set(state.total);
        let _run_span = snip_obs::span!(
            "fleet-run {} ({} jobs, {} shards)",
            self.spec.name,
            self.spec.job_count(),
            state.total
        );

        let init = self.encode_init();
        let dispatch = match &self.tcp {
            None => {
                self.run_pipe(&state, &init)?;
                "pipe"
            }
            Some(tcp) => {
                self.run_tcp(tcp, &state, &init)?;
                "tcp"
            }
        };

        // Mirror the run's lifecycle counters into the process registry
        // (cumulative there, per-run in DriverStats) before the
        // completeness check, so a failed run's severs still surface on
        // the stats endpoint.
        let workers_lost = state.lost.load(Ordering::Relaxed);
        obs.workers_lost.add(workers_lost as u64);
        obs.peers_rejected
            .add(state.rejected.load(Ordering::Relaxed) as u64);
        obs.shards_reassigned
            .add(state.reassigned.load(Ordering::Relaxed));
        obs.plans_shipped
            .add(state.plans_shipped.load(Ordering::Relaxed));
        obs.plan_seed_hits
            .add(state.seed_hits.load(Ordering::Relaxed));
        obs.reconnects.add(state.reconnects.load(Ordering::Relaxed));
        obs.resumed_shards
            .add(state.resumed_shards.load(Ordering::Relaxed));

        // snip-lint: allow(wall-clock): "merge latency metric; observability only"
        let merge_start = Instant::now();
        let taken: Vec<(u64, Option<Vec<RunMetrics>>)> = state
            .results
            .iter()
            .enumerate()
            .map(|(id, slot)| (id as u64, slot.lock().expect("result slot poisoned").take()))
            .collect();
        let missing: Vec<u64> = taken
            .iter()
            .filter(|(_, m)| m.is_none())
            .map(|(id, _)| *id)
            .collect();
        if !missing.is_empty() {
            // Hand the finished shards back next to the missing manifest:
            // `--partial-ok` salvages them, and a later `--resume` against
            // the checkpoint journal finishes the job.
            let completed = taken
                .into_iter()
                .filter_map(|(id, m)| m.map(|m| (id, m)))
                .collect();
            return Err(DriverError::Incomplete {
                missing,
                workers_lost,
                completed,
            });
        }
        let mut metrics: Vec<RunMetrics> = Vec::with_capacity(self.spec.job_count() as usize);
        for (_, m) in taken {
            metrics.extend(m.expect("missing shards already handled"));
        }

        let output = runner.merge(&metrics);
        obs.merge_us.observe(merge_start.elapsed());
        snip_obs::event!(
            snip_obs::log::Level::Info,
            "fleet run `{}` over {dispatch} merged {} shard(s)",
            self.spec.name,
            state.total
        );

        Ok(FleetRun {
            output,
            stats: DriverStats {
                jobs: self.spec.job_count(),
                shards: state.total,
                workers: state.admitted.load(Ordering::Relaxed),
                workers_lost,
                peers_rejected: state.rejected.load(Ordering::Relaxed),
                shards_reassigned: state.reassigned.load(Ordering::Relaxed),
                plans_shipped: state.plans_shipped.load(Ordering::Relaxed),
                plan_seed_hits: state.seed_hits.load(Ordering::Relaxed),
                reconnects: state.reconnects.load(Ordering::Relaxed),
                resumed_shards: state.resumed_shards.load(Ordering::Relaxed),
                checkpoint_shards: state.preloaded,
            },
        })
    }

    /// Pre-encodes the run's `Init` frame: protocol, spec, spec hash, the
    /// shared placeholder `session: 0` (real ids travel in the `Session`
    /// frame), and every plan accumulated so far. One serialization per
    /// run, not per peer — on a wide fleet the spec-bearing `Init` was
    /// the single largest per-peer encode cost.
    fn encode_init(&self) -> InitFrame {
        let store = self.plans.lock().expect("plan set poisoned");
        let generation = store.generation;
        let plans: Vec<PlanEntry> = store
            .map
            .iter()
            .map(|(key, plan)| PlanEntry {
                key: key.clone(),
                plan: plan.clone(),
            })
            .collect();
        drop(store);
        let plan_keys = plans.iter().map(|e| e.key.clone()).collect();
        let msg = CoordinatorMsg::Init {
            protocol: PROTOCOL_VERSION,
            spec: self.spec.clone(),
            spec_hash: self.spec.spec_hash(),
            session: 0,
            plans,
        };
        InitFrame {
            frame: PreEncoded::new(&msg),
            plan_keys,
            generation,
        }
    }

    /// Arms the run's checkpoint journal. Fresh mode writes the header;
    /// resume mode reloads the journal, validates it against this run's
    /// identity and geometry, and reopens it for appending.
    #[allow(clippy::type_complexity)]
    fn prepare_checkpoint(
        &self,
        shards: &[Shard],
    ) -> Result<(BTreeMap<u64, Vec<RunMetrics>>, Option<CheckpointWriter>), DriverError> {
        let Some(path) = &self.checkpoint_path else {
            return Ok((BTreeMap::new(), None));
        };
        let err = |msg: String| DriverError::Checkpoint(msg);
        if !self.resume {
            let header = CheckpointHeader {
                version: CHECKPOINT_VERSION,
                spec_hash: self.spec.spec_hash(),
                total_shards: shards.len() as u64,
                name: self.spec.name.clone(),
            };
            let writer = CheckpointWriter::create(path, &header)
                .map_err(|e| err(format!("cannot create {}: {e}", path.display())))?;
            return Ok((BTreeMap::new(), Some(writer)));
        }

        let load = load_checkpoint(path)
            .map_err(|e| err(format!("cannot resume from {}: {e}", path.display())))?;
        if load.header.spec_hash != self.spec.spec_hash() {
            return Err(err(format!(
                "{} checkpoints a different run: spec hash {:#x} != this spec's {:#x}",
                path.display(),
                load.header.spec_hash,
                self.spec.spec_hash()
            )));
        }
        if load.header.total_shards != shards.len() as u64 {
            return Err(err(format!(
                "{} was cut into {} shard(s), this run into {} — resume with the same shard size",
                path.display(),
                load.header.total_shards,
                shards.len()
            )));
        }
        for (&id, metrics) in &load.shards {
            let shard = &shards[id as usize];
            if metrics.len() as u64 != shard.end - shard.start {
                return Err(err(format!(
                    "{} shard {id} holds {} job result(s), expected {}",
                    path.display(),
                    metrics.len(),
                    shard.end - shard.start
                )));
            }
        }
        if load.truncated {
            snip_obs::event!(
                snip_obs::log::Level::Warn,
                "checkpoint journal {} ended in a torn record (crash mid-append); \
                 the intact prefix was recovered and the tear trimmed",
                path.display()
            );
        }
        snip_obs::event!(
            snip_obs::log::Level::Info,
            "resuming from {}: {} of {} shard(s) already checkpointed",
            path.display(),
            load.shards.len(),
            shards.len()
        );
        // `resume` (not `append_to`): a torn tail must be cut off first,
        // or every record appended behind it would be invisible to the
        // next load.
        let writer = CheckpointWriter::resume(path, &load)
            .map_err(|e| err(format!("cannot append to {}: {e}", path.display())))?;
        Ok((load.shards, Some(writer)))
    }

    /// Pipe dispatch: spawn the workers, drive each over its stdio.
    fn run_pipe(&self, state: &RunState, init: &InitFrame) -> Result<(), DriverError> {
        let (program, args) = self
            .command()
            .map_err(|error| DriverError::Spawn { worker: 0, error })?;
        let spawn_failure: Mutex<Option<(usize, io::Error)>> = Mutex::new(None);

        // More workers than shards would only spawn processes that
        // handshake and immediately shut down.
        let workers_to_spawn = self.workers.min(state.results.len().max(1));
        std::thread::scope(|scope| {
            for worker_idx in 0..workers_to_spawn {
                let program = &program;
                let args = &args;
                let spawn_failure = &spawn_failure;
                scope.spawn(move || {
                    let transport = match PipeTransport::spawn(program, args) {
                        Ok(t) => t,
                        Err(error) => {
                            let mut slot = spawn_failure.lock().expect("spawn slot poisoned");
                            if slot.is_none() {
                                *slot = Some((worker_idx, error));
                            }
                            state.lost.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    };
                    let mut transport = self.maybe_chaos(worker_idx, Box::new(transport));
                    match self.drive_peer(worker_idx, transport.as_mut(), state, init, None) {
                        PeerOutcome::Finished => {}
                        // A spawned pipe worker that fails its handshake
                        // was still one of our own workers: count it lost.
                        PeerOutcome::HandshakeFailed | PeerOutcome::Lost => {
                            state.lost.fetch_add(1, Ordering::Relaxed);
                            transport.sever();
                        }
                    }
                });
            }
        });

        if let Some((worker, error)) = spawn_failure
            .lock()
            .expect("spawn slot poisoned")
            .take()
            .filter(|_| !state.finished())
        {
            return Err(DriverError::Spawn { worker, error });
        }
        Ok(())
    }

    /// TCP dispatch: optionally spawn local dialing workers, then admit
    /// and drive every peer that makes it through the handshake.
    fn run_tcp(
        &self,
        tcp: &TcpState,
        state: &RunState,
        init: &InitFrame,
    ) -> Result<(), DriverError> {
        let mut children: Vec<Child> = Vec::new();
        if tcp.spawn_workers {
            let addr = tcp
                .listener
                .local_addr()
                .map_err(|error| DriverError::Spawn { worker: 0, error })?;
            let (program, mut args) = self
                .command()
                .map_err(|error| DriverError::Spawn { worker: 0, error })?;
            args.push("--connect".into());
            args.push(addr.to_string());
            let to_spawn = self.workers.min(state.results.len().max(1));
            for worker in 0..to_spawn {
                let mut cmd = Command::new(&program);
                cmd.args(&args)
                    .env(TOKEN_ENV_VAR, &tcp.token)
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::inherit());
                crate::transport::child_trace_env(&mut cmd);
                match cmd.spawn() {
                    Ok(child) => children.push(child),
                    Err(error) => {
                        for mut child in children {
                            let _ = child.kill();
                            let _ = child.wait();
                        }
                        return Err(DriverError::Spawn { worker, error });
                    }
                }
            }
        }

        state.touch();
        std::thread::scope(|scope| {
            let mut next_idx = 0usize;
            loop {
                if state.over() {
                    break;
                }
                // The give-up clause: no live peers and nothing has
                // happened for a full shard timeout — nobody is coming.
                if state.active_peers.load(Ordering::SeqCst) == 0
                    && state.idle_for() > self.shard_timeout
                {
                    state.abort();
                    break;
                }
                match tcp.listener.accept() {
                    // A connection flood must not hold a thread and a
                    // socket per stranger: past the pre-auth cap, close
                    // on arrival.
                    Ok((stream, _addr))
                        if state.preauth_peers.load(Ordering::SeqCst) >= MAX_PREAUTH_PEERS =>
                    {
                        drop(stream);
                        state.rejected.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok((stream, _addr)) => {
                        state.touch();
                        let idx = next_idx;
                        next_idx += 1;
                        state.active_peers.fetch_add(1, Ordering::SeqCst);
                        state.preauth_peers.fetch_add(1, Ordering::SeqCst);
                        scope.spawn(move || {
                            match TcpTransport::accept(stream) {
                                Ok(transport) => {
                                    let mut transport = self.maybe_chaos(idx, Box::new(transport));
                                    self.drive_tcp_peer(
                                        idx,
                                        transport.as_mut(),
                                        state,
                                        init,
                                        &tcp.token,
                                    );
                                }
                                Err(_) => {
                                    state.preauth_peers.fetch_sub(1, Ordering::SeqCst);
                                    state.rejected.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            state.active_peers.fetch_sub(1, Ordering::SeqCst);
                            state.touch();
                        });
                    }
                    // Nonblocking listener: no pending connection. Park
                    // on the run's wakeup condvar instead of a fixed
                    // sleep — a merged shard or an abort ends the wait
                    // immediately, so finishing the run costs one wake
                    // instead of a full poll interval (the old 20 ms
                    // sleep here was most of the TCP-vs-pipe gap on
                    // short runs).
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        state.park(Duration::from_millis(2));
                    }
                    Err(_) => state.park(Duration::from_millis(2)),
                }
            }
        });

        // The listener outlives the run (the driver can run again), so
        // late dialers still sitting in the accept backlog must be closed
        // now: otherwise they wait for an `Init` nobody will send, and the
        // next run would inherit their stale connections.
        Self::drain_backlog(&tcp.listener);

        // Reap spawned workers: Shutdown (or the dropped/drained sockets)
        // ends them; anything still alive after a grace period is killed.
        // snip-lint: allow(wall-clock): "child-reap grace deadline at shutdown"
        let grace = Instant::now() + Duration::from_secs(10);
        for mut child in children {
            loop {
                Self::drain_backlog(&tcp.listener);
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    // snip-lint: allow(wall-clock): "child-reap grace deadline at shutdown"
                    Ok(None) if Instant::now() < grace => {
                        // A worker that just took its Shutdown exits in
                        // about a millisecond; poll at that grain so the
                        // reap adds one, not a coarse poll interval, to
                        // every run's tail.
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Accepts every connection pending on the (nonblocking) listener,
    /// tells each "no work for you" with a `Shutdown` frame, and closes
    /// it — so peers that dialed too late exit cleanly instead of
    /// waiting forever for an `Init` nobody will send.
    fn drain_backlog(listener: &TcpListener) {
        use snip_replay::frame::FrameWriter;
        while let Ok((stream, _)) = listener.accept() {
            // The accepted socket inherits the listener's nonblocking
            // flag on macOS/BSD/Windows; the farewell write must not be
            // torn by a spurious WouldBlock.
            let _ = stream.set_nonblocking(false);
            let _ = FrameWriter::new(&stream).send(&CoordinatorMsg::Shutdown);
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Wraps a peer's transport in its scripted [`FaultTransport`] when
    /// the chaos plan lists this admission ordinal; a transparent
    /// passthrough otherwise.
    fn maybe_chaos(&self, worker_idx: usize, transport: Box<dyn Transport>) -> Box<dyn Transport> {
        match self.chaos.as_ref().and_then(|c| c.plan_for(worker_idx)) {
            Some(plan) => Box::new(FaultTransport::new(transport, plan)),
            None => transport,
        }
    }

    /// Authenticates one dialed-in peer, then hands it to the shared
    /// drive loop. The `Join` wait is bounded by `min(shard timeout,
    /// JOIN_TIMEOUT)`: an unauthenticated peer is the cheapest thing to
    /// stall with, so it gets seconds, not the shard budget.
    fn drive_tcp_peer(
        &self,
        worker_idx: usize,
        transport: &mut dyn Transport,
        state: &RunState,
        init: &InitFrame,
        token: &str,
    ) {
        let join_window = self.shard_timeout.min(JOIN_TIMEOUT);
        let join = self.recv_peer_within(transport, state, join_window);
        state.preauth_peers.fetch_sub(1, Ordering::SeqCst);
        let resume = match join {
            Some(WorkerMsg::Join {
                protocol,
                token: presented,
                pid: _,
                resume,
            }) if protocol == PROTOCOL_VERSION && token_matches(&presented, token) => {
                transport.unlock_frame_limit();
                // A session id is an identity, never a credential: the
                // token was just re-checked, and an id this run does not
                // know (a restarted coordinator, a stale worker) simply
                // falls back to a fresh Init inside the drive loop.
                resume
            }
            // An *authenticated* peer on the wrong protocol version gets
            // told so before the sever: a spec-bearing Init naming this
            // coordinator's version, so the worker reports the skew
            // instead of a bare disconnect.
            // Unauthenticated skew stays indistinguishable from a bad
            // token — the version is not a secret, but uniformity is
            // what keeps the rejection path oracle-free.
            Some(WorkerMsg::Join {
                protocol,
                token: presented,
                ..
            }) if protocol != PROTOCOL_VERSION && token_matches(&presented, token) => {
                let rejection = CoordinatorMsg::Init {
                    protocol: PROTOCOL_VERSION,
                    spec: self.spec.clone(),
                    spec_hash: self.spec.spec_hash(),
                    session: 0,
                    plans: vec![],
                };
                let _ = send_msg(transport, &rejection);
                snip_obs::event!(
                    snip_obs::log::Level::Warn,
                    "peer {worker_idx} ({}) joined with protocol {protocol}, this \
                     coordinator speaks {PROTOCOL_VERSION}; refused with a typed rejection",
                    transport.peer()
                );
                transport.sever();
                state.rejected.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // Bad token, garbage, a stall, or EOF: sever without
            // revealing which check failed.
            _ => {
                transport.sever();
                state.rejected.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        match self.drive_peer(worker_idx, transport, state, init, resume) {
            PeerOutcome::Finished => {}
            PeerOutcome::HandshakeFailed => {
                state.rejected.fetch_add(1, Ordering::Relaxed);
            }
            PeerOutcome::Lost => {
                state.lost.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Receives the peer's next message, bounded by the shard timeout and
    /// sliced so the wait also ends promptly when the run finishes.
    fn recv_peer(&self, transport: &mut dyn Transport, state: &RunState) -> Option<WorkerMsg> {
        self.recv_peer_within(transport, state, self.shard_timeout)
    }

    /// [`Self::recv_peer`] with an explicit bound (the pre-auth `Join`
    /// wait uses a much shorter one than the shard timeout).
    fn recv_peer_within(
        &self,
        transport: &mut dyn Transport,
        state: &RunState,
        timeout: Duration,
    ) -> Option<WorkerMsg> {
        // snip-lint: allow(wall-clock): "peer receive deadline; timeouts only affect fault handling"
        let deadline = Instant::now() + timeout;
        loop {
            // snip-lint: allow(wall-clock): "peer receive deadline; timeouts only affect fault handling"
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let slice = (deadline - now).min(Duration::from_millis(200));
            match recv_msg::<WorkerMsg>(transport, Some(slice)) {
                Ok(Some(msg)) => return Some(msg),
                Ok(None) => return None, // EOF
                Err(RecvError::TimedOut) => {
                    if state.over() {
                        return None;
                    }
                }
                Err(RecvError::Frame(_)) => return None,
            }
        }
    }

    /// Plans the peer has not been sent yet; marks them shipped. The
    /// store's generation counter makes the warm steady state — nothing
    /// new since this peer's last assignment — an O(1) check instead of
    /// a full rescan under the lock.
    fn plans_for(
        &self,
        shipped: &mut BTreeSet<String>,
        seen_generation: &mut u64,
        state: &RunState,
    ) -> Vec<PlanEntry> {
        let store = self.plans.lock().expect("plan set poisoned");
        if store.generation == *seen_generation {
            return Vec::new();
        }
        let delta: Vec<PlanEntry> = store
            .map
            .iter()
            .filter(|(key, _)| !shipped.contains(*key))
            .map(|(key, plan)| PlanEntry {
                key: key.clone(),
                plan: plan.clone(),
            })
            .collect();
        *seen_generation = store.generation;
        drop(store);
        for entry in &delta {
            shipped.insert(entry.key.clone());
        }
        state
            .plans_shipped
            .fetch_add(delta.len() as u64, Ordering::Relaxed);
        delta
    }

    /// Folds a worker's newly solved plans into the global store (and
    /// marks them shipped to that worker — it obviously has them).
    fn absorb_plans(&self, plans: Vec<PlanEntry>, shipped: &mut BTreeSet<String>) {
        let mut store = self.plans.lock().expect("plan set poisoned");
        for entry in plans {
            shipped.insert(entry.key.clone());
            if let std::collections::btree_map::Entry::Vacant(slot) = store.map.entry(entry.key) {
                slot.insert(entry.plan);
                store.generation += 1;
            }
        }
    }

    /// Speaks the post-authentication protocol with one peer until the
    /// queue drains or the peer is lost (any in-flight shard re-queued
    /// first). Transport-generic: this is the whole worker lifecycle for
    /// pipes and TCP both. `resume` is a redialing worker's session id;
    /// when this run still knows it, the handshake is skipped, the
    /// worker's in-flight `ShardDone` (if any) is accepted, and service
    /// continues — otherwise a fresh `Init` assigns a new session.
    fn drive_peer(
        &self,
        worker_idx: usize,
        transport: &mut dyn Transport,
        state: &RunState,
        init: &InitFrame,
        resume: Option<u64>,
    ) -> PeerOutcome {
        // snip-lint: allow(wall-clock): "handshake latency metric; observability only"
        let handshake_start = Instant::now();
        let spec_hash = self.spec.spec_hash();
        let obs = fleet_metrics();
        let resumed = resume.and_then(|sid| {
            state
                .sessions
                .lock()
                .expect("session table poisoned")
                .remove(&sid)
                .map(|entry| (sid, entry))
        });
        let save_session = |sid: u64, shipped: BTreeSet<String>, seen_generation: u64| {
            state
                .sessions
                .lock()
                .expect("session table poisoned")
                .insert(
                    sid,
                    SessionEntry {
                        shipped,
                        seen_generation,
                    },
                );
        };
        let (session_id, mut shipped, mut seen_generation) = match resumed {
            Some((
                sid,
                SessionEntry {
                    mut shipped,
                    seen_generation,
                },
            )) => {
                // The worker was admitted on its first connection —
                // resuming re-counts nothing, only the reconnect itself.
                state.reconnects.fetch_add(1, Ordering::Relaxed);
                obs.reconnects.inc();
                snip_obs::event!(
                    snip_obs::log::Level::Info,
                    "peer {worker_idx} ({}) resumed session {sid}",
                    transport.peer()
                );
                if send_msg(transport, &CoordinatorMsg::Resumed { session: sid }).is_err() {
                    save_session(sid, shipped, seen_generation);
                    transport.sever();
                    return PeerOutcome::Lost;
                }
                // The worker now either re-sends the ShardDone batch that
                // was in flight when the socket dropped, or reports Ready
                // (nothing pending). Each result in the re-sent batch is
                // accepted exactly once: the merge is idempotent by shard
                // ordinal, and every result is validated against the
                // shard table before any of them merge.
                match self.recv_peer(transport, state) {
                    Some(WorkerMsg::ShardDone {
                        results,
                        plans,
                        seeded_hits,
                    }) if !results.is_empty()
                        && results.iter().all(|r| {
                            state
                                .shards
                                .get(r.id as usize)
                                .is_some_and(|s| r.metrics.len() as u64 == s.end - s.start)
                        }) =>
                    {
                        self.absorb_plans(plans, &mut shipped);
                        state.seed_hits.fetch_add(seeded_hits, Ordering::Relaxed);
                        for ShardResult { id, metrics } in results {
                            let shard = state.shards[id as usize];
                            if state.finish_shard(shard, metrics) {
                                state.resumed_shards.fetch_add(1, Ordering::Relaxed);
                                obs.resumed_shards.inc();
                                snip_obs::event!(
                                    snip_obs::log::Level::Info,
                                    "shard {id} recovered from resumed session {sid} \
                                     (in-flight result survived the drop)"
                                );
                            }
                        }
                    }
                    Some(WorkerMsg::Ready {
                        protocol,
                        pid: _,
                        spec_hash: echoed,
                    }) if protocol == PROTOCOL_VERSION && echoed == spec_hash => {}
                    _ => {
                        save_session(sid, shipped, seen_generation);
                        transport.sever();
                        return PeerOutcome::Lost;
                    }
                }
                (sid, shipped, seen_generation)
            }
            None => {
                let sid = state.next_session.fetch_add(1, Ordering::Relaxed);
                // The peer's plan bookkeeping starts from the pre-encode
                // snapshot: the frame already carries those plans, so
                // they count as shipped and the generation is the one
                // the snapshot was taken at.
                let shipped: BTreeSet<String> = init.plan_keys.iter().cloned().collect();
                let seen_generation = init.generation;
                state
                    .plans_shipped
                    .fetch_add(init.plan_keys.len() as u64, Ordering::Relaxed);
                if transport.send_preencoded(&init.frame).is_err()
                    || send_msg(transport, &CoordinatorMsg::Session { session: sid }).is_err()
                {
                    transport.sever();
                    return PeerOutcome::HandshakeFailed;
                }
                match self.recv_peer(transport, state) {
                    Some(WorkerMsg::Ready {
                        protocol,
                        pid: _,
                        spec_hash: echoed,
                    }) if protocol == PROTOCOL_VERSION && echoed == spec_hash => {}
                    _ => {
                        transport.sever();
                        // A joiner that was still shaking hands when the run
                        // finished is neither lost nor rejected.
                        return if state.over() {
                            PeerOutcome::Finished
                        } else {
                            PeerOutcome::HandshakeFailed
                        };
                    }
                }
                state.admitted.fetch_add(1, Ordering::Relaxed);
                obs.workers.inc();
                obs.handshake_us.observe(handshake_start.elapsed());
                snip_obs::event!(
                    snip_obs::log::Level::Debug,
                    "peer {worker_idx} ({}) admitted as session {sid}",
                    transport.peer()
                );
                (sid, shipped, seen_generation)
            }
        };

        // Per-peer utilization: accumulated locally, flushed once when the
        // peer's service ends (any outcome).
        // snip-lint: allow(wall-clock): "per-peer serve-duration metric; observability only"
        let serve_start = Instant::now();
        let mut busy_us = 0u64;
        let mut done_here = 0u64;
        let mut drilled = false;
        let outcome = loop {
            let Some(batch) = state.next_batch(self.shard_batch) else {
                let _ = send_msg(transport, &CoordinatorMsg::Shutdown);
                break PeerOutcome::Finished;
            };
            let _shard_span = snip_obs::span!(
                "shards {:?} jobs {}..{} peer {worker_idx}",
                batch.iter().map(|s| s.id).collect::<Vec<_>>(),
                batch[0].start,
                batch[batch.len() - 1].end
            );
            // snip-lint: allow(wall-clock): "shard compute-latency metric; observability only"
            let compute_start = Instant::now();
            let assignment = CoordinatorMsg::Shard {
                jobs: batch
                    .iter()
                    .map(|s| ShardJob {
                        id: s.id,
                        start: s.start,
                        end: s.end,
                    })
                    .collect(),
                plans: self.plans_for(&mut shipped, &mut seen_generation, state),
            };
            let requeue_batch = |state: &RunState| {
                for &shard in &batch {
                    if !state.merged(shard.id) {
                        state.requeue(shard);
                    }
                }
            };
            if send_msg(transport, &assignment).is_err() {
                requeue_batch(state);
                transport.sever();
                break PeerOutcome::Lost;
            }
            let reply = loop {
                break match self.recv_peer(transport, state) {
                    Some(WorkerMsg::ShardDone {
                        results,
                        plans,
                        seeded_hits,
                    }) if batch_reply_matches(&results, &batch) => {
                        Some((results, plans, seeded_hits))
                    }
                    // A re-delivery of an already-merged batch — a
                    // chaos-injected repeat, or a re-send racing its own
                    // acknowledgement — is logged and dropped; the peer is
                    // still healthy and still owes the current batch.
                    Some(WorkerMsg::ShardDone { results, .. })
                        if !results.is_empty()
                            && results.iter().all(|r| state.merged(r.id))
                            && results.iter().any(|r| batch.iter().all(|s| s.id != r.id)) =>
                    {
                        snip_obs::event!(
                            snip_obs::log::Level::Debug,
                            "peer {worker_idx} re-delivered merged shard batch {:?}; dropped",
                            results.iter().map(|r| r.id).collect::<Vec<_>>()
                        );
                        continue;
                    }
                    _ => None,
                };
            };
            match reply {
                Some((results, plans, seeded_hits)) => {
                    let round_trip = compute_start.elapsed();
                    obs.compute_us.observe(round_trip);
                    busy_us += snip_obs::metrics::duration_us(round_trip);
                    self.absorb_plans(plans, &mut shipped);
                    state.seed_hits.fetch_add(seeded_hits, Ordering::Relaxed);
                    for ShardResult { id, metrics } in results {
                        state.finish_shard(state.shards[id as usize], metrics);
                        done_here += 1;
                    }
                    if let Some(FaultInjection::KillWorker {
                        worker,
                        after_shards,
                    }) = self.fault
                    {
                        if worker == worker_idx && done_here >= after_shards && !drilled {
                            // The drill: this peer "crashes" now; its next
                            // assignment will fail and be stolen.
                            drilled = true;
                            transport.sever();
                        }
                    }
                }
                None => {
                    // Wrong reply, broken frame, EOF, or timeout: the peer
                    // is lost and its unmerged batch goes back on the
                    // queue (a severed batch may have merged through a
                    // resumed session in the meantime — those stay put).
                    requeue_batch(state);
                    transport.sever();
                    break PeerOutcome::Lost;
                }
            }
        };
        // A lost peer's session stays resumable: if the worker redials
        // with this id, it picks up where the socket dropped.
        if matches!(outcome, PeerOutcome::Lost) {
            save_session(session_id, shipped, seen_generation);
        }
        let serve_us = snip_obs::metrics::duration_us(serve_start.elapsed());
        snip_obs::metrics::counter(&format!("snip_peer_busy_us_total{{peer=\"{worker_idx}\"}}"))
            .add(busy_us);
        snip_obs::metrics::counter(&format!(
            "snip_peer_serve_us_total{{peer=\"{worker_idx}\"}}"
        ))
        .add(serve_us);
        snip_obs::metrics::counter(&format!(
            "snip_peer_shards_done_total{{peer=\"{worker_idx}\"}}"
        ))
        .add(done_here);
        snip_obs::event!(
            snip_obs::log::Level::Debug,
            "peer {worker_idx} served {done_here} shard(s), busy {busy_us}µs of {serve_us}µs"
        );
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::example_spec;

    #[test]
    fn shard_cutting_covers_the_job_list_exactly() {
        let driver = FleetDriver::new(example_spec(), 2)
            .unwrap()
            .with_shard_size(3);
        let shards = driver.shards();
        assert_eq!(shards.len(), 2, "4 jobs at 3 per shard");
        assert_eq!(
            shards[0],
            Shard {
                id: 0,
                start: 0,
                end: 3
            }
        );
        assert_eq!(
            shards[1],
            Shard {
                id: 1,
                start: 3,
                end: 4
            }
        );
    }

    #[test]
    fn constructor_validates() {
        assert!(FleetDriver::new(example_spec(), 0).is_err());
        let mut bad = example_spec();
        bad.epochs = 0;
        assert!(FleetDriver::new(bad, 2).is_err());
    }

    #[test]
    fn default_shard_size_is_sane() {
        // 4 jobs, 2 workers: granularity clamps to at least 1.
        let driver = FleetDriver::new(example_spec(), 2).unwrap();
        assert_eq!(driver.shard_size, 1);
    }

    #[test]
    fn unspawnable_worker_command_is_a_spawn_error() {
        let driver = FleetDriver::new(example_spec(), 1)
            .unwrap()
            .with_worker_command("/nonexistent/snip-worker-binary", vec![]);
        match driver.run() {
            Err(DriverError::Spawn { worker: 0, .. }) => {}
            other => panic!("expected a spawn error, got {other:?}"),
        }
    }

    #[test]
    fn tcp_driver_binds_and_reports_its_address() {
        let driver = FleetDriver::new(example_spec(), 1)
            .unwrap()
            .with_tcp(TcpConfig {
                listen: "127.0.0.1:0".into(),
                token: "secret".into(),
                spawn_workers: false,
            })
            .expect("ephemeral bind succeeds");
        let addr = driver.local_addr().expect("tcp mode knows its address");
        assert_eq!(addr.ip().to_string(), "127.0.0.1");
        assert_ne!(addr.port(), 0);
    }

    #[test]
    fn token_comparison_is_exact() {
        assert!(token_matches("abc", "abc"));
        assert!(!token_matches("abc", "abd"));
        assert!(!token_matches("abc", "abcd"));
        assert!(!token_matches("", "x"));
        assert!(token_matches("", ""));
    }
}
