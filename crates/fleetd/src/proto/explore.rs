//! `snip check-proto`: bounded exhaustive exploration of the fleet
//! protocol, with the shipped coordinator state machine in the loop.
//!
//! The protocol promises: every job of a `ShardDone` batch merges exactly
//! once; every run reaches a terminal (complete, or given up with a full
//! missing-shard manifest), never a hang; resume never recomputes a
//! journaled shard. This module enumerates the *entire* reachable state
//! space of a small run within a fault budget and checks every state.
//!
//! The coordinator half is not a model: each coordinator transition is a
//! call into the [`RunCore`] that `FleetDriver::run`'s peer threads drive
//! (deal, `ShardDone` validation and merge, requeue, sessions, restart
//! from the checkpointed set, idle give-up). Only the environment is
//! modelled: workers that dial, compute, answer, and re-send their last
//! unacknowledged `ShardDone` after a resume; one coordinator thread per
//! connection stepping through `drive_peer`; and faults — a sever seen by
//! both ends at once (the chaos layer's `Sever`, `Truncate` and
//! reorder-fatal outcomes), a duplicated `ShardDone`, and a coordinator
//! restart that keeps only the checkpoint journal.
//!
//! Invariants hold in **every reachable state** ([`RunCore::violation`],
//! exactly-once journaling, batch ownership), and terminal reachability
//! is checked by reverse closure over the explored graph, so a livelock
//! is reported, not just a deadlock.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::time::Duration;

use crate::coordinator::{DriverStats, MAX_PREAUTH_PEERS};
use crate::run_core::{Deal, Reply, RunCore, SessionEntry, Shard};

/// The fewest distinct states the default bounds must explore. It is the
/// count [`explore`] reaches with [`ExploreConfig::default`], rounded
/// down: a change that shrinks the explored space fails `check-proto`.
pub const MIN_EXPLORED_STATES: usize = 226_000;

/// What a worker process is doing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
enum WorkerMode {
    /// Not connected; may dial while budget remains.
    #[default]
    Down,
    /// Connected, awaiting the coordinator's next frame.
    Up,
    /// Computing a batch of shards (bitmask; results not yet sent).
    Computing(u16),
}

/// What the coordinator's thread for one worker connection is doing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
enum Conn {
    /// No connection.
    #[default]
    Closed,
    /// Accepted; awaiting `Join`.
    AwaitJoin,
    /// Fresh `Init` sent for this session; awaiting `Ready`.
    AwaitReady(u64),
    /// `Resumed` sent; awaiting the re-sent `ShardDone` or a `Ready`.
    AwaitResume(u64),
    /// Blocked in the core's deal.
    Dealing(u64),
    /// A batch was dealt; awaiting its `ShardDone`.
    Serving(u64),
}

/// Frames in flight, abstracted to what drives the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Msg {
    /// Coordinator → worker: fresh admission (`Init` + `Session`).
    Init(u64),
    /// Coordinator → worker: session resumed.
    Resumed,
    /// Coordinator → worker: compute this batch (bitmask).
    Shard(u16),
    /// Worker → coordinator: `Join`, presenting a session to resume.
    Join(Option<u64>),
    /// Worker → coordinator: `Ready`.
    Ready,
    /// Worker → coordinator: one `ShardDone` for a batch (bitmask).
    Done(u16),
}

/// One worker and its connection.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub(super) struct WorkerSt {
    mode: WorkerMode,
    /// The last `ShardDone` sent and not yet acknowledged by a later
    /// coordinator frame (bitmask) — re-sent after a resume.
    pending: u16,
    /// The session id the worker would present on redial.
    session: Option<u64>,
    conn: Conn,
    /// Coordinator → worker frames in flight.
    c2w: VecDeque<Msg>,
    /// Worker → coordinator frames in flight.
    w2c: VecDeque<Msg>,
    redials_left: u8,
    severs_left: u8,
}

/// The global state: the coordinator's [`RunCore`] plus its environment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(super) struct St {
    pub(super) core: RunCore<()>,
    pub(super) workers: Vec<WorkerSt>,
    /// Shards appended to the checkpoint journal (bitmask). It survives
    /// a restart; the core does not.
    journaled: u16,
    /// A shard reached the journal twice.
    journaled_twice: bool,
    restarts_left: u8,
    dups_left: u8,
}

/// Exploration bounds. Small numbers explode fast.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Shard count (≤ 8), one job each.
    pub shards: u8,
    /// Worker count (≤ 3).
    pub workers: u8,
    /// Sever budget per worker.
    pub severs_per_worker: u8,
    /// Coordinator restart budget.
    pub restarts: u8,
    /// Duplicate-delivery budget (whole run).
    pub dups: u8,
    /// Dial budget per worker, the first dial included.
    pub redials: u8,
    /// Most shards dealt in one `Shard` frame (`--shard-batch`).
    pub batch: u8,
    /// Safety valve: stop (and fail) past this many states.
    pub max_states: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            shards: 3,
            workers: 2,
            severs_per_worker: 1,
            restarts: 1,
            dups: 2,
            redials: 2,
            batch: 2,
            max_states: 5_000_000,
        }
    }
}

/// What the exploration found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreReport {
    /// Distinct states reached.
    pub states: usize,
    /// Transitions taken (edges in the reachability graph).
    pub transitions: usize,
    /// Terminal states where every shard merged.
    pub complete_terminals: usize,
    /// Terminal states where the run gave up with shards missing.
    pub incomplete_terminals: usize,
    /// Transitions in which the exactly-once merge dropped an
    /// already-merged result (must be nonzero when the duplicate budget
    /// is).
    pub dedup_absorptions: usize,
    /// Transitions in which a resumed session re-delivered its pending
    /// `ShardDone` (must be nonzero when the sever budget is).
    pub resume_redeliveries: usize,
    /// Deals that packed more than one shard into a `Shard` frame (must
    /// be nonzero when `batch > 1`).
    pub batched_deals: usize,
    /// `ShardDone` batches whose members split between fresh merges and
    /// dropped duplicates — the partially-stale batch a severed, requeued
    /// and resumed batch produces.
    pub partial_batch_merges: usize,
}

impl fmt::Display for ExploreReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "explored {} distinct states, {} transitions; terminals: {} complete, {} incomplete; \
             {} duplicate ShardDones absorbed, {} resume re-deliveries; \
             {} batched deals, {} partial-batch merges",
            self.states,
            self.transitions,
            self.complete_terminals,
            self.incomplete_terminals,
            self.dedup_absorptions,
            self.resume_redeliveries,
            self.batched_deals,
            self.partial_batch_merges
        )
    }
}

/// An invariant violation: the offending state plus the complaint.
#[derive(Debug, Clone)]
pub struct ProtoViolation {
    /// Which invariant broke.
    pub invariant: &'static str,
    /// Human-readable description of the state that broke it.
    pub state: String,
}

impl ProtoViolation {
    fn new(invariant: &'static str, state: String) -> Self {
        ProtoViolation { invariant, state }
    }
}

impl fmt::Display for ProtoViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant `{}` violated in {}",
            self.invariant, self.state
        )
    }
}

const CHANNEL_CAP: usize = 3;

fn mask_of(ids: impl IntoIterator<Item = u64>) -> u16 {
    ids.into_iter().fold(0, |m, id| m | 1 << id)
}

/// One one-job result per shard of `mask`, as a worker's `ShardDone`.
fn results_of(mask: u16) -> Vec<(u64, Vec<()>)> {
    (0..16)
        .filter(|id| mask & 1 << id != 0)
        .map(|id| (id, vec![()]))
        .collect()
}

impl St {
    pub(super) fn initial(cfg: &ExploreConfig) -> St {
        St {
            core: RunCore::new(
                Shard::cut(cfg.shards.into(), 1),
                BTreeMap::new(),
                Duration::ZERO,
            ),
            workers: (0..cfg.workers)
                .map(|_| WorkerSt {
                    redials_left: cfg.redials,
                    severs_left: cfg.severs_per_worker,
                    ..WorkerSt::default()
                })
                .collect(),
            journaled: 0,
            journaled_twice: false,
            restarts_left: cfg.restarts,
            dups_left: cfg.dups,
        }
    }

    /// No worker can act and nothing is in flight: the coordinator's idle
    /// give-up is the only way out.
    fn stalled(&self) -> bool {
        self.workers.iter().all(|w| {
            w.c2w.is_empty()
                && w.w2c.is_empty()
                && w.mode == WorkerMode::Down
                && w.redials_left == 0
        })
    }

    /// Drops the counters before the state is keyed: they only observe,
    /// and keeping them would multiply states without new behavior.
    fn settled(mut self) -> St {
        self.core.stats = DriverStats::default();
        self
    }
}

/// Enumerates every successor of `st`, tallying what the transitions
/// exercise into `report`.
fn successors(st: &St, cfg: &ExploreConfig, report: &mut ExploreReport) -> Vec<St> {
    let mut out = Vec::new();
    if st.core.over() {
        return out;
    }

    if st.stalled() {
        let mut next = st.clone();
        // No time passes in the explorer: a zero timeout has expired.
        next.core.give_up_if_idle(Duration::ZERO, Duration::ZERO);
        out.push(next);
        return out;
    }

    for (wi, w) in st.workers.iter().enumerate() {
        // Dial (first join) or redial after a sever.
        if w.mode == WorkerMode::Down && w.redials_left > 0 {
            let mut next = st.clone();
            assert!(next.core.peer_accepted(Duration::ZERO, MAX_PREAUTH_PEERS));
            let nw = &mut next.workers[wi];
            nw.redials_left -= 1;
            nw.mode = WorkerMode::Up;
            nw.conn = Conn::AwaitJoin;
            nw.w2c.push_back(Msg::Join(nw.session));
            out.push(next);
        }

        // Worker finishes its compute: the whole batch's results enter
        // the wire as one `ShardDone` frame.
        if let WorkerMode::Computing(mask) = w.mode {
            if w.w2c.len() < CHANNEL_CAP {
                let mut next = st.clone();
                let nw = &mut next.workers[wi];
                nw.mode = WorkerMode::Up;
                nw.pending = mask;
                nw.w2c.push_back(Msg::Done(mask));
                out.push(next);
            }
        }

        // Worker consumes the head coordinator frame.
        if let (Some(&msg), false) = (w.c2w.front(), w.mode == WorkerMode::Down) {
            let mut next = st.clone();
            let nw = &mut next.workers[wi];
            nw.c2w.pop_front();
            match msg {
                // A fresh admission drops a pending result whose session
                // the coordinator no longer knows; a resumed one re-sends it.
                Msg::Init(sid) => {
                    nw.session = Some(sid);
                    nw.pending = 0;
                    nw.w2c.push_back(Msg::Ready);
                }
                Msg::Resumed => nw.w2c.push_back(match nw.pending {
                    0 => Msg::Ready,
                    mask => Msg::Done(mask),
                }),
                Msg::Shard(mask) => {
                    nw.pending = 0;
                    nw.mode = WorkerMode::Computing(mask);
                }
                _ => unreachable!("worker-bound channel never carries worker messages"),
            }
            if nw.w2c.len() <= CHANNEL_CAP {
                out.push(next);
            }
        }

        // Coordinator consumes the head worker frame.
        if let Some(&msg) = w.w2c.front() {
            if let Some(next) = coordinator_recv(st, wi, msg, report) {
                if next.workers[wi].c2w.len() <= CHANNEL_CAP {
                    out.push(next);
                }
            }
        }

        // The coordinator thread blocked in the deal gets its batch.
        if let Conn::Dealing(sid) = w.conn {
            let mut next = st.clone();
            if let Deal::Batch(batch) = next.core.deal(wi, u64::from(cfg.batch)) {
                let nw = &mut next.workers[wi];
                nw.conn = Conn::Serving(sid);
                nw.c2w
                    .push_back(Msg::Shard(mask_of(batch.iter().map(|s| s.id))));
                if nw.c2w.len() <= CHANNEL_CAP {
                    report.batched_deals += usize::from(batch.len() > 1);
                    out.push(next);
                }
            }
        }

        // Duplicate the head worker frame (the chaos layer's Duplicate
        // against the coordinator's receive side).
        if st.dups_left > 0
            && matches!(w.w2c.front(), Some(Msg::Done(_)))
            && w.w2c.len() < CHANNEL_CAP
        {
            let mut next = st.clone();
            next.dups_left -= 1;
            let nw = &mut next.workers[wi];
            let head = nw.w2c[0];
            nw.w2c.push_front(head);
            out.push(next);
        }

        // Sever the worker's connection.
        if w.severs_left > 0 && w.mode != WorkerMode::Down {
            let mut next = st.clone();
            next.workers[wi].severs_left -= 1;
            sever_worker(&mut next, wi);
            out.push(next);
        }
    }

    // Coordinator crash + restart: only the checkpoint journal survives,
    // and the core is rebuilt from it exactly as `--resume` rebuilds it.
    if st.restarts_left > 0 {
        let mut next = st.clone();
        next.restarts_left -= 1;
        let checkpointed = (0..u64::from(cfg.shards))
            .filter(|id| next.journaled & 1 << id != 0)
            .map(|id| (id, vec![()]))
            .collect();
        next.core = RunCore::new(
            Shard::cut(cfg.shards.into(), 1),
            checkpointed,
            Duration::ZERO,
        );
        for w in &mut next.workers {
            drop_link(w);
        }
        out.push(next);
    }

    out.into_iter().map(St::settled).collect()
}

/// The coordinator thread for worker `wi` receives `msg`, stepping
/// `drive_peer` through the core. `None` when that thread is not
/// reading (blocked in the deal, or no connection).
fn coordinator_recv(st: &St, wi: usize, msg: Msg, report: &mut ExploreReport) -> Option<St> {
    let mut next = st.clone();
    next.workers[wi].w2c.pop_front();
    // `None`: the peer broke protocol, and `drive_peer` severs it.
    let conn = match (next.workers[wi].conn, msg) {
        (Conn::Closed | Conn::Dealing(_), _) => return None,
        (Conn::AwaitJoin, Msg::Join(resume)) => {
            next.core.peer_authenticated();
            let known = resume.and_then(|sid| next.core.resume_session(sid).map(|_| sid));
            Some(match known {
                Some(sid) => {
                    next.workers[wi].c2w.push_back(Msg::Resumed);
                    Conn::AwaitResume(sid)
                }
                None => {
                    // Fresh admission, also for a session a restarted
                    // coordinator no longer knows.
                    let sid = next.core.open_session();
                    next.workers[wi].c2w.push_back(Msg::Init(sid));
                    Conn::AwaitReady(sid)
                }
            })
        }
        (Conn::AwaitReady(sid) | Conn::AwaitResume(sid), Msg::Ready) => Some(Conn::Dealing(sid)),
        (Conn::AwaitResume(sid) | Conn::Serving(sid), Msg::Done(mask)) => {
            let resumed = matches!(next.workers[wi].conn, Conn::AwaitResume(_));
            let peer = (!resumed).then_some(wi);
            let (journaled, twice) = (&mut next.journaled, &mut next.journaled_twice);
            let reply =
                next.core
                    .shard_done(peer, results_of(mask), Duration::ZERO, &mut |id, _| {
                        *twice |= *journaled & 1 << id != 0;
                        *journaled |= 1 << id;
                    });
            match reply {
                Reply::Merged { fresh, stale } => {
                    report.resume_redeliveries += usize::from(resumed);
                    report.dedup_absorptions += usize::from(stale > 0);
                    report.partial_batch_merges += usize::from(fresh > 0 && stale > 0);
                    Some(Conn::Dealing(sid))
                }
                Reply::Stale => {
                    report.dedup_absorptions += 1;
                    Some(Conn::Serving(sid))
                }
                Reply::Invalid => None,
            }
        }
        _ => None,
    };
    match conn {
        Some(conn) => next.workers[wi].conn = conn,
        None => sever_worker(&mut next, wi),
    }
    Some(next)
}

/// Connection loss seen by both ends: the coordinator thread ends the way
/// `drive_peer` ends for a failed peer (a lost peer's unmerged batch
/// requeued and its session kept resumable), and the worker keeps its
/// computed results as `pending`.
fn sever_worker(next: &mut St, wi: usize) {
    let conn = next.workers[wi].conn;
    if conn == Conn::AwaitJoin {
        next.core.peer_authenticated();
    }
    if let Conn::AwaitResume(sid) | Conn::Dealing(sid) | Conn::Serving(sid) = conn {
        next.core.sever(wi);
        next.core.save_session(sid, SessionEntry::default());
    }
    if conn != Conn::Closed {
        next.core.peer_left(Duration::ZERO);
    }
    drop_link(&mut next.workers[wi]);
}

/// The worker side of a lost connection.
fn drop_link(w: &mut WorkerSt) {
    // The worker process survives a connection loss and finishes its
    // compute: the results become the pending re-delivery.
    if let WorkerMode::Computing(mask) = w.mode {
        w.pending = mask;
    }
    w.mode = WorkerMode::Down;
    w.conn = Conn::Closed;
    w.c2w.clear();
    w.w2c.clear();
}

/// Per-state invariants: checked on every reachable state.
pub(super) fn check_state(st: &St, cfg: &ExploreConfig) -> Result<(), ProtoViolation> {
    let fail = |invariant| Err(ProtoViolation::new(invariant, format!("{st:?}")));
    if let Some(invariant) = st.core.violation(u64::from(cfg.batch.max(1))) {
        return fail(invariant);
    }
    if st.journaled_twice {
        return fail("a shard must be journaled (and merged) exactly once");
    }
    let merged = mask_of((0..u64::from(cfg.shards)).filter(|&id| st.core.merged(id)));
    if merged != st.journaled {
        return fail("a shard must be journaled before it counts as merged");
    }
    for (wi, w) in st.workers.iter().enumerate() {
        if matches!(w.conn, Conn::Serving(_)) != st.core.holds(wi) {
            return fail("a peer holds a batch exactly while it owes that batch's ShardDone");
        }
    }
    Ok(())
}

/// Runs the bounded exhaustive exploration.
///
/// # Errors
///
/// Returns the first invariant violation (per-state invariants, deadlock
/// freedom, terminal reachability, or fault coverage), or a budget
/// complaint when the state space outgrows `max_states`.
pub fn explore(cfg: &ExploreConfig) -> Result<ExploreReport, ProtoViolation> {
    assert!(cfg.shards >= 1 && cfg.shards <= 8, "1..=8 shards");
    assert!(cfg.workers >= 1 && cfg.workers <= 3, "1..=3 workers");

    // Seen-set only: states are numbered in breadth-first discovery order
    // and every later pass walks those numbers, so no result depends on
    // hash order (and hashing halves the debug-build exploration time).
    // snip-lint: allow(hash-collections): "seen-set lookups only; output follows discovery order"
    let mut ids: std::collections::HashMap<St, u32> = std::collections::HashMap::new();
    // Successor ids by state id; a terminal state is one without any.
    let mut edges: Vec<Vec<u32>> = Vec::new();
    let mut frontier: VecDeque<St> = VecDeque::new();

    let mut report = ExploreReport::default();

    let init = St::initial(cfg).settled();
    check_state(&init, cfg)?;
    ids.insert(init.clone(), 0);
    edges.push(Vec::new());
    frontier.push_back(init);

    while let Some(st) = frontier.pop_front() {
        let id = ids[&st] as usize;
        let succs = successors(&st, cfg, &mut report);
        let is_terminal = st.core.over();
        if succs.is_empty() && !is_terminal {
            let invariant = "deadlock freedom: a non-terminal state has no enabled transition";
            return Err(ProtoViolation::new(invariant, format!("{st:?}")));
        }
        report.complete_terminals += usize::from(is_terminal && st.core.finished());
        report.incomplete_terminals += usize::from(is_terminal && !st.core.finished());
        for next in succs {
            report.transitions += 1;
            let next_id = match ids.get(&next) {
                Some(&n) => n,
                None => {
                    let n = edges.len() as u32;
                    if n as usize >= cfg.max_states {
                        let invariant = "state budget exceeded (raise max_states or shrink bounds)";
                        let state = format!("{} states and counting", cfg.max_states);
                        return Err(ProtoViolation::new(invariant, state));
                    }
                    check_state(&next, cfg)?;
                    ids.insert(next.clone(), n);
                    edges.push(Vec::new());
                    frontier.push_back(next);
                    n
                }
            };
            edges[id].push(next_id);
        }
    }
    report.states = edges.len();

    // Terminal reachability by reverse closure: every explored state must
    // be able to reach some terminal, or a livelock cycle exists.
    let mut reverse: Vec<Vec<u32>> = vec![Vec::new(); edges.len()];
    for (from, outs) in edges.iter().enumerate() {
        for &to in outs {
            reverse[to as usize].push(from as u32);
        }
    }
    let mut reaches: Vec<bool> = edges.iter().map(Vec::is_empty).collect();
    let mut stack: Vec<u32> = (0..edges.len() as u32)
        .filter(|&i| reaches[i as usize])
        .collect();
    while let Some(i) = stack.pop() {
        for &p in &reverse[i as usize] {
            if !reaches[p as usize] {
                reaches[p as usize] = true;
                stack.push(p);
            }
        }
    }
    if let Some(stuck) = reaches.iter().position(|r| !r) {
        let state = ids
            .iter()
            .find(|(_, &v)| v as usize == stuck)
            .map(|(k, _)| format!("{k:?}"))
            .unwrap_or_default();
        let invariant = "terminal reachability: a livelock cycle cannot reach any terminal";
        return Err(ProtoViolation::new(invariant, state));
    }

    // The fault machinery must actually have been exercised — faults that
    // never fire prove nothing.
    let coverage = [
        (
            cfg.dups > 0 && report.dedup_absorptions == 0,
            "coverage: the duplicate budget never produced an absorbed duplicate",
        ),
        (
            cfg.severs_per_worker > 0 && report.resume_redeliveries == 0,
            "coverage: the sever budget never produced a resume re-delivery",
        ),
        (
            cfg.batch > 1 && cfg.shards > 1 && report.batched_deals == 0,
            "coverage: a batch bound above 1 never packed a multi-job Shard frame",
        ),
    ];
    if let Some(&(_, invariant)) = coverage.iter().find(|(missed, _)| *missed) {
        return Err(ProtoViolation::new(invariant, String::new()));
    }

    Ok(report)
}
