//! The worker half of the fleet protocol (`snip fleet-worker`).
//!
//! A worker serves shards over any [`Transport`]: the stdin/stdout pipes
//! of a coordinator-spawned re-exec, or a TCP socket it dialed with
//! `snip fleet-worker --connect ADDR --token-file F`. It receives the
//! spec once (verifying the coordinator's spec hash against the spec it
//! actually decoded), then serves shard batches until
//! `Shutdown` (or EOF — a vanished coordinator is a clean stop, not a
//! crash: the coordinator owns failure handling, the worker just
//! computes). All simulation happens through [`JobRunner::run_job`], the
//! same pure function of `(spec, index)` the coordinator's verification
//! path uses, so every transport yields bit-identical metrics.
//!
//! **One state machine.** Every protocol decision is made by the sans-IO
//! `WorkerCore`: which frame is due, when a result is acknowledged, what
//! a resume re-sends, and whether a lost link means stop, error or
//! redial. `snip check-proto` steps the same type through every bounded
//! fault interleaving. This module is its IO: receive a frame, hand it
//! to the core, then send or compute what the core asks for.
//!
//! **Reconnect-with-resume (TCP).** A dialing worker remembers the
//! session id the `Session` frame assigned. When the socket drops mid-run
//! it redials under seeded jittered exponential [`Backoff`], re-presents
//! the token plus `Join { resume }`, and — if the coordinator still knows
//! the session — re-sends its un-acknowledged `ShardDone` (delivered
//! exactly once: the coordinator's merge is idempotent) and keeps
//! serving. A coordinator that restarted answers with a fresh `Init`
//! instead, and the worker starts over cleanly. Pipe workers never
//! reconnect: their transport *is* their parent process.

use std::fmt;
use std::io::{BufRead, Write};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use snip_replay::frame::FrameError;

use crate::proto::{CoordinatorMsg, ShardJob, ShardResult, WorkerMsg, PROTOCOL_VERSION};
use crate::spec::{FleetSpec, JobRunner};
use crate::transport::{decode_msg, send_msg, RecvError, StreamTransport, TcpTransport, Transport};

/// Why a worker gave up.
#[derive(Debug)]
pub enum WorkerError {
    /// The transport broke or carried a malformed frame.
    Frame(FrameError),
    /// The coordinator spoke out of grammar (bad version, bad spec, a
    /// spec-hash mismatch, a shard out of range…).
    Protocol(String),
    /// The coordinator could not be reached (TCP dial mode).
    Connect(std::io::Error),
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Frame(e) => write!(f, "worker transport error: {e}"),
            WorkerError::Protocol(msg) => write!(f, "worker protocol error: {msg}"),
            WorkerError::Connect(e) => write!(f, "worker could not reach the coordinator: {e}"),
        }
    }
}

impl std::error::Error for WorkerError {}

/// How long a *dialing* worker lets the coordinator stay silent before
/// assuming its host is gone (a powered-off coordinator never sends a
/// FIN, so EOF alone cannot be relied on across hosts). Generous: in the
/// pull model the coordinator answers every `ShardDone` immediately, so
/// real gaps are milliseconds. Pipe workers have no such deadline — a
/// vanished parent closes the pipe, which is a reliable EOF.
pub const COORDINATOR_SILENCE_TIMEOUT: Duration = Duration::from_secs(600);

/// First retry delay of the dial backoff.
const BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Per-attempt ceiling of the dial backoff (the *total* budget is
/// [`ConnectOptions::retry_for`]).
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Seeded jittered exponential backoff for coordinator dials. Delays
/// double from `BACKOFF_BASE` toward `BACKOFF_CAP`, each drawn
/// uniformly from `[d/2, d]` by a private xorshift64 stream — so a fleet
/// of workers restarting together fans out instead of thundering back in
/// lockstep, while any single worker's schedule is reproducible from its
/// seed.
#[derive(Debug, Clone)]
pub struct Backoff {
    delay: Duration,
    rng: u64,
}

impl Backoff {
    /// A backoff stream for `seed` (workers use their pid; tests pin it).
    #[must_use]
    pub fn new(seed: u64) -> Backoff {
        Backoff {
            delay: BACKOFF_BASE,
            // xorshift64 has a single absorbing zero state.
            rng: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// The next delay to sleep before redialing: jittered into
    /// `[d/2, d]`, then `d` doubles toward the cap.
    pub fn next_delay(&mut self) -> Duration {
        let ceiling = self.delay;
        let floor = ceiling / 2;
        let span_us = (ceiling - floor).as_micros() as u64;
        let jitter = Duration::from_micros(self.next_u64() % (span_us + 1));
        self.delay = (self.delay * 2).min(BACKOFF_CAP);
        floor + jitter
    }

    /// Back to the base delay (call after a successful connection — the
    /// next failure is a fresh incident, not a continuation).
    pub fn reset(&mut self) {
        self.delay = BACKOFF_BASE;
    }
}

/// What a finished worker did (diagnostics/tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct WorkerSummary {
    /// Shards completed.
    pub shards: u64,
    /// Jobs simulated.
    pub jobs: u64,
}

/// Where a worker stands in the protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub(crate) enum Phase {
    /// No link: not dialed yet, or lost and about to be redialed.
    #[default]
    Down,
    /// Linked, awaiting the coordinator's first frame: `Init`, or
    /// `Resumed` after a resume `Join`.
    Handshake,
    /// Admitted, awaiting the next frame.
    Serving,
    /// Computing the batch just dealt.
    Computing,
}

/// A coordinator frame, reduced to what the worker's protocol state
/// depends on. `Init` carries the IO's verdict on its version and spec
/// hash.
#[derive(Debug)]
pub(crate) enum Heard {
    Init(Result<(), String>),
    Session(u64),
    Resumed(u64),
    Shard,
    Shutdown,
}

/// What the worker's IO does next.
#[derive(Debug)]
pub(crate) enum Step {
    /// Receive the next frame.
    Recv,
    /// Send `Ready`: after a fresh `Init` (set the job up from it first),
    /// or after `Resumed` with nothing pending.
    Ready,
    /// Re-send the pending result after `Resumed`.
    Resend,
    /// Compute the batch just heard and hand the result to
    /// [`WorkerCore::computed`].
    Compute,
    /// The link is gone but the session can resume: redial.
    Redial,
    /// Stop cleanly.
    Done,
    /// Stop with this error.
    Fail(WorkerError),
}

/// The worker's side of the protocol as a sans-IO state machine, generic
/// over the result it keeps for re-delivery: the `ShardDone` message in
/// the worker, a shard bitmask in `check-proto`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct WorkerCore<R> {
    /// The id the `Session` frame assigned, presented as
    /// `Join { resume }` on redial.
    session: Option<u64>,
    phase: Phase,
    /// The last result sent and not yet acknowledged by a later
    /// coordinator frame; re-sent after a resume.
    pending: Option<R>,
    pub(crate) summary: WorkerSummary,
}

impl<R> WorkerCore<R> {
    pub(crate) fn new() -> Self {
        WorkerCore {
            session: None,
            phase: Phase::Down,
            pending: None,
            summary: WorkerSummary::default(),
        }
    }

    pub(crate) fn phase(&self) -> Phase {
        self.phase
    }

    /// The result awaiting acknowledgement, if any.
    pub(crate) fn pending(&self) -> Option<&R> {
        self.pending.as_ref()
    }

    /// A link is up. Returns the session to present in `Join { resume }`.
    pub(crate) fn linked(&mut self) -> Option<u64> {
        self.phase = Phase::Handshake;
        self.session
    }

    /// The coordinator sent `heard`.
    pub(crate) fn heard(&mut self, heard: Heard) -> Step {
        use Phase::{Handshake, Serving};
        // Any frame after a `ShardDone` acknowledges it: the result merged
        // (or is idempotently droppable), no re-send is needed.
        if self.phase == Serving {
            self.pending = None;
        }
        match (self.phase, heard) {
            (_, Heard::Shutdown) => Step::Done,
            // A fresh `Init`, also in answer to a resume request (the
            // coordinator restarted): the old session, pending result
            // included, is void. The new id follows in `Session`.
            (Handshake, Heard::Init(Ok(()))) => {
                self.session = None;
                self.pending = None;
                self.phase = Serving;
                Step::Ready
            }
            (Handshake, Heard::Resumed(sid)) if self.session == Some(sid) => {
                self.phase = Serving;
                if self.pending.is_some() {
                    Step::Resend
                } else {
                    Step::Ready
                }
            }
            (Serving, Heard::Session(sid)) => {
                self.session = Some(sid);
                Step::Recv
            }
            (Serving, Heard::Shard) => {
                self.phase = Phase::Computing;
                Step::Compute
            }
            (_, Heard::Init(Err(e))) => fail(e),
            (Handshake, other) => {
                fail(format!("expected Init as the first message, got {other:?}"))
            }
            (_, other) => fail(format!("unexpected mid-run message {other:?}")),
        }
    }

    /// The batch is computed: its result is pending until a later frame
    /// acknowledges it. Returns it, to send.
    pub(crate) fn computed(&mut self, result: R, shards: u64, jobs: u64) -> &R {
        self.phase = Phase::Serving;
        self.summary.shards += shards;
        self.summary.jobs += jobs;
        self.pending.insert(result)
    }

    /// The link ended, at a clean EOF (`None`) or with `error`. A link
    /// that can be redialed is, when there is a session to resume.
    /// Otherwise the worker stops: cleanly at an EOF after admission (a
    /// vanished parent process, or a run that is over), with an error in
    /// every other case.
    pub(crate) fn lost(&mut self, error: Option<RecvError>, redial: bool) -> Step {
        let admitted = self.phase != Phase::Handshake;
        self.phase = Phase::Down;
        match error {
            _ if redial && self.session.is_some() => Step::Redial,
            None if admitted => Step::Done,
            None => fail(
                "coordinator closed the transport before Init (a dialing worker was refused \
                 — wrong token, version skew — or the coordinator vanished)"
                    .into(),
            ),
            Some(RecvError::Frame(e)) => Step::Fail(WorkerError::Frame(e)),
            Some(RecvError::TimedOut) => fail(
                "coordinator went silent past the worker's receive deadline \
                 (host down or network partition?)"
                    .into(),
            ),
        }
    }
}

fn fail(msg: String) -> Step {
    Step::Fail(WorkerError::Protocol(msg))
}

/// What the worker keeps of its job beside the core.
struct Job {
    runner: JobRunner,
    spec_hash: u64,
}

impl Job {
    /// Computes a dealt batch into its `ShardDone`; a batch this job
    /// cannot hold is a protocol error. The reserved plan fields go out
    /// empty: the worker solves its own SNIP-OPT plans.
    fn compute(&self, jobs: &[ShardJob]) -> Result<WorkerMsg, String> {
        let job_count = self.runner.job_count();
        if jobs.is_empty() {
            return Err("empty shard batch".into());
        }
        if let Some(ShardJob { id, start, end }) =
            jobs.iter().find(|j| j.start >= j.end || j.end > job_count)
        {
            return Err(format!(
                "shard {id} range {start}..{end} is invalid for {job_count} jobs"
            ));
        }
        let mut results = Vec::with_capacity(jobs.len());
        for ShardJob { id, start, end } in jobs {
            // snip-lint: allow(wall-clock): "shard compute-latency metric; observability only"
            let compute_start = Instant::now();
            let metrics = {
                let _span = snip_obs::span!("worker shard {id} jobs {start}..{end}");
                (*start..*end).map(|i| self.runner.run_job(i)).collect()
            };
            snip_obs::metrics::histogram("snip_worker_shard_compute_us")
                .observe(compute_start.elapsed());
            results.push(ShardResult { id: *id, metrics });
        }
        Ok(WorkerMsg::ShardDone {
            results,
            plans: Vec::new(),
            seeded_hits: 0,
        })
    }
}

fn check_protocol(protocol: u32) -> Result<(), String> {
    if protocol == PROTOCOL_VERSION {
        Ok(())
    } else {
        Err(format!(
            "coordinator speaks protocol {protocol}, worker speaks {PROTOCOL_VERSION}"
        ))
    }
}

fn check_init(protocol: u32, spec: &FleetSpec, spec_hash: u64) -> Result<(), String> {
    check_protocol(protocol)?;
    spec.validate()?;
    let local_hash = spec.spec_hash();
    if local_hash != spec_hash {
        return Err(format!(
            "spec hash mismatch: coordinator announced {spec_hash:#018x}, the decoded \
             spec hashes to {local_hash:#018x} (corrupted spec or skewed codec)"
        ));
    }
    Ok(())
}

/// The one field of an `Init` every protocol version shares; decoding
/// skips the rest, whatever its shape.
#[derive(serde::Deserialize)]
enum InitProtocol {
    Init { protocol: u32 },
}

/// Serves one link until it ends, with `core` and `job` carried across
/// links; returns the core's last step: `Redial`, `Done` or `Fail`.
/// `join_token` (TCP dial mode) is sent as the opening `Join`, and makes
/// the link redialable; pipe workers pass `None` — their transport is
/// their parent process, there is nothing to redial.
fn serve_link(
    transport: &mut dyn Transport,
    pid: u64,
    join_token: Option<&str>,
    core: &mut WorkerCore<WorkerMsg>,
    job: &mut Option<Job>,
) -> Step {
    let redial = join_token.is_some();
    // Remote coordinators can vanish without a trace (host power-off,
    // partition); bound every wait so the worker process can be relied
    // on to exit on its own.
    let recv_window = join_token.map(|_| COORDINATOR_SILENCE_TIMEOUT);
    let resume = core.linked();
    if let Some(token) = join_token {
        let join = WorkerMsg::Join {
            protocol: PROTOCOL_VERSION,
            token: token.to_string(),
            pid,
            resume,
        };
        if let Err(e) = send_msg(transport, &join) {
            return core.lost(Some(RecvError::Frame(e)), redial);
        }
    }
    loop {
        let payload = match transport.recv_frame(recv_window) {
            Ok(Some(payload)) => payload,
            Ok(None) => return core.lost(None, redial),
            Err(e) => return core.lost(Some(e), redial),
        };
        let msg = match decode_msg::<CoordinatorMsg>(&payload) {
            Ok(msg) => msg,
            Err(e) => match decode_msg::<InitProtocol>(&payload) {
                // Another version may shape `Init` differently; its
                // `protocol` still names the real problem.
                Ok(InitProtocol::Init { protocol }) if protocol != PROTOCOL_VERSION => {
                    return core.heard(Heard::Init(check_protocol(protocol)));
                }
                _ => return core.lost(Some(e), redial),
            },
        };
        let heard = match &msg {
            CoordinatorMsg::Init {
                protocol,
                spec,
                spec_hash,
                ..
            } => Heard::Init(check_init(*protocol, spec, *spec_hash)),
            CoordinatorMsg::Session { session } => Heard::Session(*session),
            CoordinatorMsg::Resumed { session } => Heard::Resumed(*session),
            CoordinatorMsg::Shard { .. } => Heard::Shard,
            CoordinatorMsg::Shutdown => Heard::Shutdown,
        };
        let sent = match core.heard(heard) {
            Step::Recv => Ok(()),
            Step::Ready => {
                // Plans an older protocol-5 coordinator may still send in
                // the reserved `plans` fields are ignored: each worker
                // solves its own.
                match &msg {
                    CoordinatorMsg::Init {
                        spec, spec_hash, ..
                    } => {
                        *job = Some(Job {
                            runner: JobRunner::new(spec),
                            spec_hash: *spec_hash,
                        })
                    }
                    _ => snip_obs::event!(
                        snip_obs::log::Level::Info,
                        "session resumed; nothing was in flight"
                    ),
                }
                let spec_hash = job.as_ref().expect("a session implies its job").spec_hash;
                send_msg(
                    transport,
                    &WorkerMsg::Ready {
                        protocol: PROTOCOL_VERSION,
                        pid,
                        spec_hash,
                    },
                )
            }
            Step::Resend => {
                snip_obs::event!(
                    snip_obs::log::Level::Info,
                    "session resumed; re-sending the in-flight ShardDone"
                );
                send_msg(transport, core.pending().expect("a re-send has a result"))
            }
            Step::Compute => {
                let CoordinatorMsg::Shard { jobs, .. } = &msg else {
                    unreachable!("only a Shard frame is computed")
                };
                let job = job.as_ref().expect("a session implies its job");
                let done = match job.compute(jobs) {
                    Ok(done) => done,
                    Err(e) => return fail(e),
                };
                let count = jobs.iter().map(|j| j.end - j.start).sum();
                // The batch is computed either way; only the delivery is
                // in doubt, so the summary counts it and the core keeps
                // the result pending until a later frame acknowledges it.
                send_msg(transport, core.computed(done, jobs.len() as u64, count))
            }
            end => return end,
        };
        if let Err(e) = sent {
            return core.lost(Some(RecvError::Frame(e)), redial);
        }
    }
}

/// Serves the worker protocol over a reader/writer pair (the spawned
/// worker's stdin/stdout, or in-memory streams in tests). No `Join` is
/// sent: a piped worker was spawned by its coordinator.
///
/// # Errors
///
/// Returns [`WorkerError`] on a broken transport, a malformed frame, or
/// an out-of-grammar coordinator.
pub fn run_worker<R: BufRead + Send + 'static, W: Write + Send>(
    input: R,
    output: W,
    pid: u64,
) -> Result<WorkerSummary, WorkerError> {
    let mut transport = StreamTransport::new(input, output, "stdio");
    let mut core = WorkerCore::new();
    match serve_link(&mut transport, pid, None, &mut core, &mut None) {
        Step::Fail(e) => Err(e),
        _ => Ok(core.summary),
    }
}

/// How a remote worker reaches its coordinator.
#[derive(Debug, Clone)]
pub struct ConnectOptions {
    /// The coordinator's `--listen` address.
    pub addr: SocketAddr,
    /// Shared secret (the coordinator's `--token-file` contents).
    pub token: String,
    /// Total budget for (re)dialing: keep retrying refused connections
    /// under jittered exponential [`Backoff`] until this much time has
    /// passed (the coordinator may still be binding when the worker
    /// starts, or be mid-restart when the worker reconnects).
    pub retry_for: Duration,
    /// Seed for the backoff jitter stream (the CLI uses the worker's
    /// pid, so a restarted host's workers spread out; tests pin it).
    pub backoff_seed: u64,
}

/// Most consecutive reconnect-and-resume attempts that achieve nothing
/// (no shard served, no shutdown) before the worker concludes the
/// coordinator is wedged and stops cleanly.
const MAX_FRUITLESS_RECONNECTS: u32 = 3;

/// Dials the coordinator and serves shards over TCP until `Shutdown`,
/// redialing and resuming the session if the socket drops mid-run.
///
/// # Errors
///
/// Returns [`WorkerError::Connect`] when the coordinator stays
/// unreachable past the retry window *before any session existed*;
/// otherwise as [`run_worker`]. Once a session is established, a coordinator
/// that disappears for good is a clean stop (the run is over for this
/// worker), not an error — mirroring the pipe worker's EOF semantics.
pub fn run_worker_tcp(opts: &ConnectOptions, pid: u64) -> Result<WorkerSummary, WorkerError> {
    let mut backoff = Backoff::new(opts.backoff_seed);
    let mut transport = dial(opts, &mut backoff)?;
    let (mut core, mut job) = (WorkerCore::new(), None);
    let mut fruitless = 0u32;
    loop {
        let shards_before = core.summary.shards;
        match serve_link(&mut transport, pid, Some(&opts.token), &mut core, &mut job) {
            Step::Redial => {}
            Step::Fail(e) => return Err(e),
            _ => return Ok(core.summary),
        }
        fruitless = if core.summary.shards > shards_before {
            0
        } else {
            fruitless + 1
        };
        if fruitless > MAX_FRUITLESS_RECONNECTS {
            snip_obs::event!(
                snip_obs::log::Level::Warn,
                "giving up after {MAX_FRUITLESS_RECONNECTS} fruitless reconnect(s)"
            );
            return Ok(core.summary);
        }
        snip_obs::metrics::counter("snip_worker_reconnects_total").inc();
        backoff.reset();
        match dial(opts, &mut backoff) {
            Ok(t) => transport = t,
            // The redial window expired with a session on the books: the
            // coordinator is gone, the run is over.
            Err(_) if job.is_some() => return Ok(core.summary),
            Err(e) => return Err(e),
        }
    }
}

/// One dial attempt series under `backoff`, bounded by the retry window.
fn dial(opts: &ConnectOptions, backoff: &mut Backoff) -> Result<TcpTransport, WorkerError> {
    // snip-lint: allow(wall-clock): "redial retry deadline; connection bookkeeping only"
    let deadline = Instant::now() + opts.retry_for;
    loop {
        match TcpTransport::connect(&opts.addr) {
            Ok(t) => return Ok(t),
            Err(e) => {
                let delay = backoff.next_delay();
                // snip-lint: allow(wall-clock): "redial retry deadline; connection bookkeeping only"
                if Instant::now() + delay >= deadline {
                    return Err(WorkerError::Connect(e));
                }
                std::thread::sleep(delay);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::PlanEntry;
    use crate::spec::{example_spec, FleetSpec, JobRunner};
    use snip_replay::frame::{FrameReader, FrameWriter};
    use snip_sim::RunMetrics;
    use std::sync::{Arc, Mutex};

    fn small_spec() -> FleetSpec {
        FleetSpec {
            epochs: 2,
            ..example_spec()
        }
    }

    fn init_msg(spec: &FleetSpec) -> CoordinatorMsg {
        CoordinatorMsg::Init {
            protocol: PROTOCOL_VERSION,
            spec: spec.clone(),
            spec_hash: spec.spec_hash(),
            session: 0,
            plans: vec![],
        }
    }

    fn shard(id: u64, start: u64, end: u64) -> CoordinatorMsg {
        CoordinatorMsg::Shard {
            jobs: vec![ShardJob { id, start, end }],
            plans: vec![],
        }
    }

    /// Scripts the coordinator side of the wire.
    fn coordinator_script(msgs: &[CoordinatorMsg]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = FrameWriter::new(&mut buf);
        for m in msgs {
            w.send(m).unwrap();
        }
        buf
    }

    /// A clonable in-memory sink (the pump thread owns the input, so the
    /// test needs shared access to the output side only).
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn run_scripted(script: Vec<u8>, pid: u64) -> (Result<WorkerSummary, WorkerError>, Vec<u8>) {
        let out = SharedBuf::default();
        let result = run_worker(std::io::Cursor::new(script), out.clone(), pid);
        let bytes = out.0.lock().unwrap().clone();
        (result, bytes)
    }

    #[test]
    fn worker_serves_shards_and_shuts_down() {
        let spec = small_spec();
        let script = coordinator_script(&[
            init_msg(&spec),
            CoordinatorMsg::Session { session: 1 },
            shard(0, 0, 2),
            shard(1, 2, 4),
            CoordinatorMsg::Shutdown,
        ]);
        let (summary, out) = run_scripted(script, 7);
        assert_eq!(summary.unwrap(), WorkerSummary { shards: 2, jobs: 4 });

        let mut replies = FrameReader::new(std::io::Cursor::new(out));
        assert_eq!(
            replies.recv::<WorkerMsg>().unwrap(),
            Some(WorkerMsg::Ready {
                protocol: PROTOCOL_VERSION,
                pid: 7,
                spec_hash: spec.spec_hash(),
            })
        );
        let runner = JobRunner::new(&spec);
        let mut merged: Vec<RunMetrics> = Vec::new();
        for id in 0..2u64 {
            match replies.recv::<WorkerMsg>().unwrap() {
                Some(WorkerMsg::ShardDone { results, .. }) => {
                    assert_eq!(results.len(), 1);
                    assert_eq!(results[0].id, id);
                    merged.extend(results[0].metrics.clone());
                }
                other => panic!("expected ShardDone, got {other:?}"),
            }
        }
        // The worker's shard metrics are bit-identical to in-process runs.
        let reference: Vec<RunMetrics> = (0..4).map(|i| runner.run_job(i)).collect();
        assert_eq!(merged, reference);
    }

    #[test]
    fn batched_shards_come_back_as_one_reply() {
        let spec = small_spec();
        let script = coordinator_script(&[
            init_msg(&spec),
            CoordinatorMsg::Session { session: 1 },
            CoordinatorMsg::Shard {
                jobs: vec![
                    ShardJob {
                        id: 0,
                        start: 0,
                        end: 2,
                    },
                    ShardJob {
                        id: 1,
                        start: 2,
                        end: 4,
                    },
                ],
                plans: vec![],
            },
            CoordinatorMsg::Shutdown,
        ]);
        let (summary, out) = run_scripted(script, 7);
        assert_eq!(summary.unwrap(), WorkerSummary { shards: 2, jobs: 4 });

        let mut replies = FrameReader::new(std::io::Cursor::new(out));
        assert!(matches!(
            replies.recv::<WorkerMsg>().unwrap(),
            Some(WorkerMsg::Ready { .. })
        ));
        let runner = JobRunner::new(&spec);
        match replies.recv::<WorkerMsg>().unwrap() {
            Some(WorkerMsg::ShardDone { results, .. }) => {
                assert_eq!(results.len(), 2, "one reply carries the whole batch");
                let merged: Vec<RunMetrics> = results.into_iter().flat_map(|r| r.metrics).collect();
                let reference: Vec<RunMetrics> = (0..4).map(|i| runner.run_job(i)).collect();
                assert_eq!(merged, reference);
            }
            other => panic!("expected ShardDone, got {other:?}"),
        }
    }

    #[test]
    fn shipped_plans_from_an_older_coordinator_are_ignored() {
        // A protocol-5 coordinator of an earlier build ships solved plans
        // in `Init` and `Shard`. This worker serves both frames, solves its
        // own plans, and answers with the reserved fields empty.
        let mut spec = small_spec();
        if let crate::spec::JobSpec::Fleet { mechanism, .. } = &mut spec.job {
            *mechanism = snip_sim::Mechanism::SnipOpt;
        }
        let plan = snip_opt::TwoStepOptimizer::new(
            snip_model::SnipModel::default(),
            snip_model::SlotProfile::roadside(),
        )
        .solve(86.4, 16.0);
        let shipped = vec![PlanEntry {
            key: "a|key|from|another|worker".into(),
            plan,
        }];
        let script = coordinator_script(&[
            CoordinatorMsg::Init {
                protocol: PROTOCOL_VERSION,
                spec: spec.clone(),
                spec_hash: spec.spec_hash(),
                session: 0,
                plans: shipped.clone(),
            },
            CoordinatorMsg::Session { session: 1 },
            CoordinatorMsg::Shard {
                jobs: vec![ShardJob {
                    id: 0,
                    start: 0,
                    end: 4,
                }],
                plans: shipped,
            },
            CoordinatorMsg::Shutdown,
        ]);
        let (summary, out) = run_scripted(script, 7);
        assert_eq!(summary.unwrap(), WorkerSummary { shards: 1, jobs: 4 });

        let mut replies = FrameReader::new(std::io::Cursor::new(out));
        assert!(matches!(
            replies.recv::<WorkerMsg>().unwrap(),
            Some(WorkerMsg::Ready { .. })
        ));
        let runner = JobRunner::new(&spec);
        let reference: Vec<RunMetrics> = (0..4).map(|i| runner.run_job(i)).collect();
        match replies.recv::<WorkerMsg>().unwrap() {
            Some(WorkerMsg::ShardDone {
                results,
                plans,
                seeded_hits,
            }) => {
                assert_eq!(results.len(), 1);
                assert_eq!(results[0].metrics, reference);
                assert_eq!(plans, [], "the reserved plans field goes out empty");
                assert_eq!(seeded_hits, 0);
            }
            other => panic!("expected ShardDone, got {other:?}"),
        }
    }

    #[test]
    fn protocol_violations_are_refused() {
        // Version mismatch.
        let spec = small_spec();
        let script = coordinator_script(&[CoordinatorMsg::Init {
            protocol: PROTOCOL_VERSION + 1,
            spec: spec.clone(),
            spec_hash: spec.spec_hash(),
            session: 1,
            plans: vec![],
        }]);
        let (err, _) = run_scripted(script, 1);
        assert!(matches!(err.unwrap_err(), WorkerError::Protocol(_)));

        // Out-of-range shard.
        let script = coordinator_script(&[init_msg(&spec), shard(0, 0, 99)]);
        let (err, _) = run_scripted(script, 1);
        assert!(matches!(err.unwrap_err(), WorkerError::Protocol(_)));

        // An empty batch.
        let script = coordinator_script(&[
            init_msg(&spec),
            CoordinatorMsg::Shard {
                jobs: vec![],
                plans: vec![],
            },
        ]);
        let (err, _) = run_scripted(script, 1);
        assert!(matches!(err.unwrap_err(), WorkerError::Protocol(_)));

        // No Init at all.
        let (err, _) = run_scripted(Vec::new(), 1);
        assert!(matches!(err.unwrap_err(), WorkerError::Protocol(_)));

        // A Resumed for a session this worker never had.
        let script = coordinator_script(&[CoordinatorMsg::Resumed { session: 9 }]);
        let (err, _) = run_scripted(script, 1);
        assert!(matches!(err.unwrap_err(), WorkerError::Protocol(_)));
    }

    /// `Init` as protocol 4 wrote it: every profile's slots in full.
    fn v4_shaped_init(protocol: u32) -> Vec<u8> {
        let spec = small_spec();
        let profile = snip_mobility::EpochProfile::roadside();
        let slots: Vec<String> = profile.slots().iter().map(serde::json::to_string).collect();
        let v4_profile = format!(
            r#"{{"slot_length":{},"slots":[{}]}}"#,
            serde::json::to_string(&profile.slot_length()),
            slots.join(",")
        );
        let text = serde::json::to_string(&CoordinatorMsg::Init {
            protocol,
            spec: spec.clone(),
            spec_hash: spec.spec_hash(),
            session: 0,
            plans: vec![],
        })
        .replace(&serde::json::to_string(&profile), &v4_profile);
        assert!(serde::json::decode::<CoordinatorMsg>(&text).is_err());
        let mut script = Vec::new();
        FrameWriter::new(&mut script)
            .send(&serde::json::from_str(&text).unwrap())
            .unwrap();
        script
    }

    #[test]
    fn an_init_of_another_shape_is_refused_by_its_version() {
        let (err, out) = run_scripted(v4_shaped_init(4), 1);
        match err.unwrap_err() {
            WorkerError::Protocol(msg) => assert_eq!(
                msg,
                format!("coordinator speaks protocol 4, worker speaks {PROTOCOL_VERSION}")
            ),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert!(
            out.is_empty(),
            "no Ready may be sent to a skewed coordinator"
        );
        // At this build's own version the shape is simply malformed.
        let (err, _) = run_scripted(v4_shaped_init(PROTOCOL_VERSION), 1);
        assert!(matches!(err.unwrap_err(), WorkerError::Frame(_)));
    }

    #[test]
    fn wrong_spec_hash_is_refused() {
        let spec = small_spec();
        let script = coordinator_script(&[CoordinatorMsg::Init {
            protocol: PROTOCOL_VERSION,
            spec: spec.clone(),
            spec_hash: spec.spec_hash() ^ 1,
            session: 1,
            plans: vec![],
        }]);
        let (err, out) = run_scripted(script, 1);
        match err.unwrap_err() {
            WorkerError::Protocol(msg) => assert!(msg.contains("spec hash mismatch"), "{msg}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert!(out.is_empty(), "no Ready may be sent for a bad spec hash");
    }

    #[test]
    fn coordinator_eof_is_a_clean_stop() {
        let script = coordinator_script(&[init_msg(&small_spec())]);
        let (summary, _) = run_scripted(script, 1);
        assert_eq!(summary.unwrap(), WorkerSummary { shards: 0, jobs: 0 });
    }

    /// A worker core admitted as session 1, its `ShardDone` for shards
    /// `0b11` sent and not yet acknowledged.
    fn owing() -> WorkerCore<u16> {
        let mut core = WorkerCore::new();
        assert_eq!(core.linked(), None);
        assert!(matches!(core.heard(Heard::Init(Ok(()))), Step::Ready));
        assert!(matches!(core.heard(Heard::Session(1)), Step::Recv));
        assert!(matches!(core.heard(Heard::Shard), Step::Compute));
        assert_eq!(*core.computed(0b11, 2, 2), 0b11);
        core
    }

    /// The same core after its link dropped and was redialed.
    fn redialed(mut core: WorkerCore<u16>) -> WorkerCore<u16> {
        assert!(matches!(core.lost(None, true), Step::Redial));
        assert_eq!(core.linked(), Some(1), "the redial presents the session");
        core
    }

    #[test]
    fn any_coordinator_frame_after_a_shard_done_acknowledges_it() {
        for heard in [Heard::Session(1), Heard::Shard, Heard::Shutdown] {
            let mut core = owing();
            assert_eq!(core.pending(), Some(&0b11));
            core.heard(heard);
            assert_eq!(core.pending(), None);
        }
    }

    #[test]
    fn resumed_re_sends_exactly_the_pending_result_or_ready() {
        let mut core = redialed(owing());
        assert!(matches!(core.heard(Heard::Resumed(1)), Step::Resend));
        assert_eq!(
            core.pending(),
            Some(&0b11),
            "the re-send is the pending batch"
        );

        let mut core = owing();
        core.heard(Heard::Session(1)); // acknowledges the batch
        let mut core = redialed(core);
        assert!(matches!(core.heard(Heard::Resumed(1)), Step::Ready));
        assert_eq!(core.summary, WorkerSummary { shards: 2, jobs: 2 });
    }

    #[test]
    fn a_fresh_init_voids_the_pending_result_and_the_session() {
        let mut core = redialed(owing());
        assert!(matches!(core.heard(Heard::Init(Ok(()))), Step::Ready));
        assert_eq!(core.pending(), None);
        assert!(
            matches!(core.lost(None, true), Step::Done),
            "no session is left to resume"
        );
    }

    #[test]
    fn out_of_grammar_frames_are_protocol_errors() {
        let mut unknown = redialed(owing());
        let mut init_mid_run = owing();
        let mut resumed_mid_run = owing();
        for step in [
            unknown.heard(Heard::Resumed(9)),
            init_mid_run.heard(Heard::Init(Ok(()))),
            resumed_mid_run.heard(Heard::Resumed(1)),
            WorkerCore::<u16>::new().heard(Heard::Shard),
        ] {
            assert!(
                matches!(step, Step::Fail(WorkerError::Protocol(_))),
                "{step:?}"
            );
        }
    }

    #[test]
    fn a_lost_link_is_decided_by_phase_session_and_redialability() {
        let fresh = || {
            let mut core = WorkerCore::<u16>::new();
            core.linked();
            core
        };
        let broken = || Some(RecvError::Frame(FrameError::Codec("torn".into())));
        let cases: [(WorkerCore<u16>, Option<RecvError>, bool, &str); 6] = [
            (owing(), None, true, "Redial"),
            (redialed(owing()), broken(), true, "Redial"),
            (fresh(), None, true, "closed the transport before Init"),
            (owing(), None, false, "Done"),
            (owing(), broken(), false, "Frame"),
            (owing(), Some(RecvError::TimedOut), false, "went silent"),
        ];
        for (mut core, error, redial, expect) in cases {
            let step = format!("{:?}", core.lost(error, redial));
            assert!(step.contains(expect), "expected {expect}, got {step}");
        }
    }

    #[test]
    fn unreachable_coordinator_is_a_connect_error() {
        // A port nothing listens on; one quick retry window.
        let opts = ConnectOptions {
            addr: "127.0.0.1:1".parse().unwrap(),
            token: "t".into(),
            retry_for: Duration::from_millis(50),
            backoff_seed: 7,
        };
        match run_worker_tcp(&opts, 1) {
            Err(WorkerError::Connect(_)) => {}
            other => panic!("expected a connect error, got {other:?}"),
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_jittered_within_bounds() {
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::new(seed);
            (0..8).map(|_| b.next_delay()).collect()
        };
        assert_eq!(schedule(11), schedule(11), "same seed, same schedule");
        assert_ne!(schedule(11), schedule(12), "different seeds fan out");

        let mut b = Backoff::new(3);
        let mut ceiling = BACKOFF_BASE;
        for _ in 0..8 {
            let d = b.next_delay();
            assert!(
                d >= ceiling / 2 && d <= ceiling,
                "{d:?} outside [{:?}, {ceiling:?}]",
                ceiling / 2
            );
            ceiling = (ceiling * 2).min(BACKOFF_CAP);
        }
        assert_eq!(ceiling, BACKOFF_CAP, "delays saturate at the cap");

        // Reset starts the incident over.
        let mut b = Backoff::new(5);
        for _ in 0..6 {
            b.next_delay();
        }
        b.reset();
        assert!(b.next_delay() <= BACKOFF_BASE);
    }

    #[test]
    fn zero_seed_still_jitters() {
        let mut b = Backoff::new(0);
        let delays: Vec<Duration> = (0..4).map(|_| b.next_delay()).collect();
        assert!(delays.iter().any(|d| *d != Duration::ZERO));
    }
}
