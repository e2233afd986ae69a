//! The coordinator: admit peers, deal shards, steal back from the dead.
//!
//! [`FleetDriver::run`] cuts the spec's job list into contiguous shards
//! and serves the shard queue pull-style over whatever transport its
//! peers arrive on: each worker gets a new shard the moment it returns
//! the previous one, so uneven shard costs balance themselves (work
//! stealing by idle-worker pull). A peer that crashes, hangs past the
//! shard timeout, stalls inside the handshake, or speaks out of protocol
//! is severed and counted lost — its in-flight shard goes back on the
//! queue for a healthy worker.
//!
//! **Shipped state machines.** Every decision of the run is made by the
//! sans-IO [`RunCore`](crate::run_core::RunCore), and every decision about
//! one connection by its [`PeerCore`](crate::run_core::PeerCore) acting on
//! it; `snip check-proto` explores the same two types exhaustively. This
//! module is their IO: one thread per peer receives a frame, hands it to
//! its `PeerCore` under the one `Mutex<RunCore>`, and sends what comes
//! back, waiting on one condvar when there is nothing to deal.
//!
//! Two dispatch modes share every line of the drive loop:
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

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use snip_obs::metrics::{Counter, Gauge, Histogram};
use snip_replay::checkpoint::{
    load_checkpoint, CheckpointHeader, CheckpointWriter, CHECKPOINT_VERSION,
};
use snip_sim::RunMetrics;

use crate::fault::{ChaosPlan, FaultTransport};
use crate::proto::{CoordinatorMsg, ShardJob, ShardResult, WorkerMsg, PROTOCOL_VERSION};
use crate::run_core::{Admit, Deal, PeerCore, PeerPhase, Reply, RunCore, Shard};
use crate::spec::{FleetOutput, FleetSpec, JobRunner};
use crate::transport::{
    recv_msg, send_msg, PipeTransport, PreEncoded, RecvError, TcpTransport, Transport,
};

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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
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
             {} peer(s) rejected, {} shard(s) reassigned, {} reconnect(s), \
             {} resumed shard(s), {} checkpointed shard(s) skipped",
            self.jobs,
            self.shards,
            self.workers,
            self.workers_lost,
            self.peers_rejected,
            self.shards_reassigned,
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
    reconnects: &'static Counter,
    resumed_shards: &'static Counter,
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
        reconnects: counter("snip_fleet_reconnects_total"),
        resumed_shards: counter("snip_fleet_resumed_shards_total"),
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
pub(crate) const MAX_PREAUTH_PEERS: usize = 64;

struct TcpState {
    listener: TcpListener,
    token: String,
    spawn_workers: bool,
}

/// The transport-generic fleet driver. See the module docs.
pub struct FleetDriver {
    spec: FleetSpec,
    /// [`FleetSpec::spec_hash`] of `spec`, computed once when the driver
    /// is built: every handshake, checkpoint and rejection reuses it.
    spec_hash: u64,
    workers: usize,
    shard_size: u64,
    /// Most shards dealt to a peer in one `Shard` frame (≥ 1).
    shard_batch: u64,
    worker_command: Option<(PathBuf, Vec<String>)>,
    shard_timeout: Duration,
    tcp: Option<TcpState>,
    /// Scripted per-peer transport faults (chaos drills).
    chaos: Option<ChaosPlan>,
    /// Run checkpoint journal path; `resume` reloads it instead of
    /// truncating it.
    checkpoint_path: Option<PathBuf>,
    resume: bool,
}

/// One run's state behind its one lock: the core, and the checkpoint
/// journal (when armed) each merged result is fsynced to *before* the
/// core counts it.
struct Run {
    core: RunCore<RunMetrics>,
    checkpoint: Option<CheckpointWriter>,
}

/// What a run's peer threads share: the [`Run`], a condvar to wait on it,
/// and the instant the core's time values count from.
struct Shared {
    run: Mutex<Run>,
    wakeup: Condvar,
    started: Instant,
}

/// Locks a coordinator mutex. Poison means a peer thread panicked while
/// holding it; the others panic too rather than run on a half-updated
/// core, and the thread scope re-raises the panic from the run.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("coordinator lock poisoned")
}

impl Shared {
    /// Time since the run started: the core's clock.
    fn now(&self) -> Duration {
        self.started.elapsed()
    }

    fn lock(&self) -> MutexGuard<'_, Run> {
        lock(&self.run)
    }

    /// Parks until run progress (a merge, a requeue, an abort) or
    /// `timeout`, whichever is first.
    fn park<'a>(&self, guard: MutexGuard<'a, Run>, timeout: Duration) -> MutexGuard<'a, Run> {
        self.wakeup
            .wait_timeout(guard, timeout)
            .expect("coordinator lock poisoned")
            .0
    }

    /// Blocks until the core deals `peer` a batch; `None` means the run
    /// completed (or gave up) and the peer should shut down.
    fn next_batch(&self, peer: &mut PeerCore, max: u64) -> Option<Vec<Shard>> {
        let mut run = self.lock();
        loop {
            match peer.deal(&mut run.core, max) {
                Deal::Batch(batch) => return Some(batch),
                Deal::Over => return None,
                // The 200 ms re-check is a hang backstop: every shard is
                // queued, merged, or held by a live peer thread that
                // requeues it on its way out.
                Deal::Wait => run = self.park(run, Duration::from_millis(200)),
            }
        }
    }

    /// Hands `peer`'s `ShardDone` to its [`PeerCore`]. Fresh results hit
    /// the checkpoint journal before they count as merged.
    fn receive_done(&self, peer: &mut PeerCore, results: Vec<ShardResult>) -> Reply {
        let outs = results.into_iter().map(|r| (r.id, r.metrics)).collect();
        let now = self.now();
        let mut guard = self.lock();
        let Run { core, checkpoint } = &mut *guard;
        let reply = peer.done(core, outs, now, &mut |id, metrics| {
            journal_shard(checkpoint, id, metrics);
        });
        if let Reply::Merged { .. } = reply {
            drop(guard);
            self.wakeup.notify_all();
        }
        reply
    }
}

/// Appends one merged shard to the checkpoint journal, when armed, and
/// counts it done. A failed append keeps the run going: a full disk costs
/// the checkpoint, not the computation.
fn journal_shard(checkpoint: &mut Option<CheckpointWriter>, id: u64, metrics: &[RunMetrics]) {
    if let Some(checkpoint) = checkpoint {
        // snip-lint: allow(wall-clock): "checkpoint-append latency metric; observability only"
        let write_start = Instant::now();
        if let Err(e) = checkpoint.append_shard(id, metrics) {
            snip_obs::event!(
                snip_obs::log::Level::Warn,
                "checkpoint append for shard {id} failed: {e}"
            );
        }
        fleet_metrics()
            .checkpoint_write_us
            .observe(write_start.elapsed());
    }
    fleet_metrics().shards_done.inc();
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
            spec_hash: spec.spec_hash(),
            spec,
            workers,
            // Default granularity: ~4 shards per worker, so the queue has
            // enough pieces for stealing without drowning in round-trips.
            shard_size: (jobs / (workers as u64 * 4)).max(1),
            shard_batch: 1,
            worker_command: None,
            shard_timeout: Duration::from_secs(600),
            tcp: None,
            chaos: None,
            checkpoint_path: None,
            resume: false,
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
        Shard::cut(self.spec.job_count(), self.shard_size)
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
        // snip-lint: allow(wall-clock): "origin of the run's liveness clock; deadline bookkeeping only"
        let started = Instant::now();
        let core = RunCore::new(shards, preloaded, Duration::ZERO);
        let total = core.total();

        let obs = fleet_metrics();
        obs.runs.inc();
        obs.workers.set(0);
        obs.shards_done.set(core.stats.checkpoint_shards);
        obs.shards_total.set(total);
        let _run_span = snip_obs::span!(
            "fleet-run {} ({} jobs, {} shards)",
            self.spec.name,
            self.spec.job_count(),
            total
        );

        let shared = Shared {
            run: Mutex::new(Run { core, checkpoint }),
            wakeup: Condvar::new(),
            started,
        };
        let init = self.encode_init();
        let dispatch = match &self.tcp {
            None => {
                self.run_pipe(&shared, &init)?;
                "pipe"
            }
            Some(tcp) => {
                self.run_tcp(tcp, &shared, &init)?;
                "tcp"
            }
        };
        // Every peer thread has been joined, so nobody can hold the lock.
        let run = shared
            .run
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let (results, stats) = run.core.into_results();

        // Mirror the run's lifecycle counters into the process registry
        // (cumulative there, per-run in DriverStats) before the
        // completeness check, so a failed run's severs still surface on
        // the stats endpoint.
        obs.workers_lost.add(stats.workers_lost as u64);
        obs.peers_rejected.add(stats.peers_rejected as u64);
        obs.shards_reassigned.add(stats.shards_reassigned);
        obs.reconnects.add(stats.reconnects);
        obs.resumed_shards.add(stats.resumed_shards);

        // snip-lint: allow(wall-clock): "merge latency metric; observability only"
        let merge_start = Instant::now();
        let missing: Vec<u64> = (0..total)
            .filter(|&id| results[id as usize].is_none())
            .collect();
        if !missing.is_empty() {
            // Hand the finished shards back next to the missing manifest:
            // `--partial-ok` salvages them, and a later `--resume` against
            // the checkpoint journal finishes the job.
            let completed = (0..total)
                .zip(results)
                .filter_map(|(id, m)| m.map(|m| (id, m)))
                .collect();
            return Err(DriverError::Incomplete {
                missing,
                workers_lost: stats.workers_lost,
                completed,
            });
        }
        let metrics: Vec<RunMetrics> = results.into_iter().flatten().flatten().collect();

        let output = runner.merge(&metrics);
        obs.merge_us.observe(merge_start.elapsed());
        snip_obs::event!(
            snip_obs::log::Level::Info,
            "fleet run `{}` over {dispatch} merged {total} shard(s)",
            self.spec.name
        );

        Ok(FleetRun { output, stats })
    }

    /// Pre-encodes the run's `Init` frame: protocol, spec, spec hash, the
    /// shared placeholder `session: 0` (real ids travel in the `Session`
    /// frame) and the reserved, empty `plans`. One serialization per run,
    /// not per peer: every fresh peer gets the same bytes
    /// ([`Transport::send_frame`]), and so does a version-skewed peer as
    /// its typed rejection.
    fn encode_init(&self) -> PreEncoded {
        PreEncoded::new(&CoordinatorMsg::Init {
            protocol: PROTOCOL_VERSION,
            spec: self.spec.clone(),
            spec_hash: self.spec_hash,
            session: 0,
            plans: Vec::new(),
        })
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
                spec_hash: self.spec_hash,
                total_shards: shards.len() as u64,
                name: self.spec.name.clone(),
            };
            let writer = CheckpointWriter::create(path, &header)
                .map_err(|e| err(format!("cannot create {}: {e}", path.display())))?;
            return Ok((BTreeMap::new(), Some(writer)));
        }

        let load = load_checkpoint(path)
            .map_err(|e| err(format!("cannot resume from {}: {e}", path.display())))?;
        if load.header.spec_hash != self.spec_hash {
            return Err(err(format!(
                "{} checkpoints a different run: spec hash {:#x} != this spec's {:#x}",
                path.display(),
                load.header.spec_hash,
                self.spec_hash
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
    fn run_pipe(&self, shared: &Shared, init: &PreEncoded) -> Result<(), DriverError> {
        let (program, args) = self
            .command()
            .map_err(|error| DriverError::Spawn { worker: 0, error })?;
        let spawn_failure: Mutex<Option<(usize, io::Error)>> = Mutex::new(None);

        // More workers than shards would only spawn processes that
        // handshake and immediately shut down.
        let workers_to_spawn = self.workers.min(shared.lock().core.total().max(1) as usize);
        std::thread::scope(|scope| {
            for worker_idx in 0..workers_to_spawn {
                let program = &program;
                let args = &args;
                let spawn_failure = &spawn_failure;
                scope.spawn(move || {
                    let peer = PeerCore::new(worker_idx, false);
                    let transport = match PipeTransport::spawn(program, args) {
                        Ok(t) => t,
                        Err(error) => {
                            lock(spawn_failure).get_or_insert((worker_idx, error));
                            peer.lost(&mut shared.lock().core);
                            return;
                        }
                    };
                    let mut transport = self.maybe_chaos(worker_idx, Box::new(transport));
                    self.drive_peer(peer, transport.as_mut(), shared, init, None);
                });
            }
        });

        if let Some((worker, error)) = lock(&spawn_failure)
            .take()
            .filter(|_| !shared.lock().core.finished())
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
        shared: &Shared,
        init: &PreEncoded,
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
            let to_spawn = self.workers.min(shared.lock().core.total().max(1) as usize);
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

        std::thread::scope(|scope| {
            let mut next_idx = 0usize;
            loop {
                {
                    // The give-up clause: no live peers and nothing has
                    // happened for a full shard timeout — nobody is coming.
                    let mut run = shared.lock();
                    if run.core.over() {
                        break;
                    }
                    if run.core.give_up_if_idle(shared.now(), self.shard_timeout) {
                        drop(run);
                        shared.wakeup.notify_all();
                        break;
                    }
                }
                match tcp.listener.accept() {
                    Ok((stream, _addr)) => {
                        // A connection flood must not hold a thread and a
                        // socket per stranger: past the pre-auth cap, the
                        // core refuses it and it is closed on arrival.
                        if !shared
                            .lock()
                            .core
                            .peer_accepted(shared.now(), MAX_PREAUTH_PEERS)
                        {
                            continue;
                        }
                        let idx = next_idx;
                        next_idx += 1;
                        scope.spawn(move || {
                            let peer = PeerCore::new(idx, true);
                            match TcpTransport::accept(stream) {
                                Ok(transport) => {
                                    let mut transport = self.maybe_chaos(idx, Box::new(transport));
                                    let token = Some(tcp.token.as_str());
                                    self.drive_peer(peer, transport.as_mut(), shared, init, token);
                                }
                                Err(_) => peer.lost(&mut shared.lock().core),
                            }
                            shared.lock().core.peer_left(shared.now());
                        });
                    }
                    // Nonblocking listener: no pending connection. Park
                    // on the run's condvar, not a fixed sleep: a merged
                    // shard or an abort ends the wait at once, so
                    // finishing the run costs one wake.
                    Err(_) => {
                        drop(shared.park(shared.lock(), Duration::from_millis(2)));
                    }
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

    /// Receives the peer's next message within `timeout` (the shard
    /// timeout, or the much shorter pre-auth `Join` bound), sliced so the
    /// wait also ends promptly when the run finishes.
    fn recv_peer(
        &self,
        transport: &mut dyn Transport,
        shared: &Shared,
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
                    if shared.lock().core.over() {
                        return None;
                    }
                }
                Err(RecvError::Frame(_)) => return None,
            }
        }
    }

    /// Speaks the protocol with one peer until the queue drains or the
    /// peer is lost: the whole worker lifecycle for pipes and TCP both, as
    /// a loop over the peer's [`PeerCore`]. A dialed-in peer (`token`)
    /// authenticates first. Its `Join` wait is bounded by `min(shard
    /// timeout, JOIN_TIMEOUT)`: an unauthenticated peer is the cheapest
    /// thing to stall with, so it gets seconds, not the shard budget. A
    /// redialing worker presents its session id: when this run still
    /// knows it, the worker's in-flight `ShardDone` (if any) is accepted
    /// and service continues; otherwise a fresh `Init` assigns a new
    /// session.
    fn drive_peer(
        &self,
        mut peer: PeerCore,
        transport: &mut dyn Transport,
        shared: &Shared,
        init: &PreEncoded,
        token: Option<&str>,
    ) {
        let worker_idx = peer.peer;
        let join_window = self.shard_timeout.min(JOIN_TIMEOUT);
        let joined = match token {
            // A spawned pipe worker joins unasked.
            None => Ok(None),
            Some(token) => match self.recv_peer(transport, shared, join_window) {
                Some(WorkerMsg::Join {
                    protocol,
                    token: presented,
                    pid: _,
                    resume,
                }) if protocol == PROTOCOL_VERSION && token_matches(&presented, token) => {
                    transport.unlock_frame_limit();
                    Ok(resume)
                }
                // An *authenticated* peer on the wrong protocol version
                // gets told so before the sever: a spec-bearing Init
                // naming this coordinator's version, so the worker reports
                // the skew instead of a bare disconnect.
                // Unauthenticated skew stays indistinguishable from a bad
                // token — the version is not a secret, but uniformity is
                // what keeps the rejection path oracle-free.
                Some(WorkerMsg::Join {
                    protocol,
                    token: presented,
                    ..
                }) if protocol != PROTOCOL_VERSION && token_matches(&presented, token) => {
                    let _ = transport.send_frame(&init.bytes);
                    snip_obs::event!(
                        snip_obs::log::Level::Warn,
                        "peer {worker_idx} ({}) joined with protocol {protocol}, this \
                         coordinator speaks {PROTOCOL_VERSION}; refused with a typed rejection",
                        transport.peer()
                    );
                    Err(())
                }
                // Bad token, garbage, a stall, or EOF: sever without
                // revealing which check failed.
                _ => Err(()),
            },
        };
        let Ok(resume) = joined else {
            transport.sever();
            peer.lost(&mut shared.lock().core);
            return;
        };
        // snip-lint: allow(wall-clock): "handshake latency metric; observability only"
        let handshake_start = Instant::now();
        let obs = fleet_metrics();
        let admit = peer.join(&mut shared.lock().core, resume);
        let opened = match admit.expect("a new connection joins once") {
            // The worker was admitted on its first connection: resuming
            // re-counts nothing, only the reconnect itself. The worker
            // re-sends the `ShardDone` batch in flight when its socket
            // dropped, or reports `Ready` (nothing pending).
            Admit::Resumed(sid) => {
                snip_obs::event!(
                    snip_obs::log::Level::Info,
                    "peer {worker_idx} ({}) resumed session {sid}",
                    transport.peer()
                );
                send_msg(transport, &CoordinatorMsg::Resumed { session: sid })
            }
            Admit::Fresh(sid) => transport
                .send_frame(&init.bytes)
                .and_then(|()| send_msg(transport, &CoordinatorMsg::Session { session: sid })),
        };

        // Per-peer utilization: accumulated locally, flushed once when the
        // peer's service ends (any outcome).
        // snip-lint: allow(wall-clock): "per-peer serve-duration metric; observability only"
        let serve_start = Instant::now();
        let mut busy_us = 0u64;
        let mut done_here = 0u64;
        // The batch the peer owes: its size, when it was dealt, its span.
        let mut owed = None;
        let served = opened.is_ok()
            && loop {
                if let PeerPhase::Dealing(_) = peer.phase() {
                    let Some(batch) = shared.next_batch(&mut peer, self.shard_batch) else {
                        let _ = send_msg(transport, &CoordinatorMsg::Shutdown);
                        break true;
                    };
                    let shard_span = snip_obs::span!(
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
                        plans: Vec::new(),
                    };
                    if send_msg(transport, &assignment).is_err() {
                        break false;
                    }
                    owed = Some((batch.len() as u64, compute_start, shard_span));
                }
                // A wrong reply, broken frame, EOF, or timeout loses the peer.
                match self.recv_peer(transport, shared, self.shard_timeout) {
                    // The reserved plan fields are ignored.
                    Some(WorkerMsg::ShardDone { results, .. }) => {
                        match shared.receive_done(&mut peer, results) {
                            Reply::Merged { .. } => {
                                // A resumed session's re-sent batch was not dealt
                                // on this connection: nothing to time.
                                if let Some((shards, compute_start, _span)) = owed.take() {
                                    let round_trip = compute_start.elapsed();
                                    obs.compute_us.observe(round_trip);
                                    busy_us += snip_obs::metrics::duration_us(round_trip);
                                    done_here += shards;
                                }
                            }
                            // A re-delivery of an already-merged batch — a
                            // chaos-injected repeat, or a re-send racing its own
                            // acknowledgement — is dropped; the peer is still
                            // healthy and still owes the current batch.
                            Reply::Stale => {}
                            Reply::Invalid => break false,
                        }
                    }
                    Some(WorkerMsg::Ready {
                        protocol,
                        spec_hash,
                        ..
                    }) if protocol == PROTOCOL_VERSION && spec_hash == self.spec_hash => {
                        let phase = peer.phase();
                        if !peer.ready() {
                            break false;
                        }
                        if let PeerPhase::AwaitReady(sid) = phase {
                            shared.lock().core.stats.workers += 1;
                            obs.workers.inc();
                            obs.handshake_us.observe(handshake_start.elapsed());
                            snip_obs::event!(
                                snip_obs::log::Level::Debug,
                                "peer {worker_idx} ({}) admitted as session {sid}",
                                transport.peer()
                            );
                        }
                    }
                    _ => break false,
                }
            };
        if !served {
            // A lost peer's unmerged batch goes back on the queue, and its
            // session stays resumable: if the worker redials with this id,
            // it picks up where the socket dropped.
            peer.lost(&mut shared.lock().core);
            shared.wakeup.notify_all();
            transport.sever();
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
        let shards: Vec<_> = driver
            .shards()
            .iter()
            .map(|s| (s.id, s.start, s.end))
            .collect();
        assert_eq!(shards, [(0, 0, 3), (1, 3, 4)], "4 jobs at 3 per shard");
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
