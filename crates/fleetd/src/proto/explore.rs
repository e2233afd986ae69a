//! `snip check-proto`: bounded exhaustive exploration of the fleet
//! protocol, with both ends of every connection running shipped code.
//!
//! The protocol promises: every job of a `ShardDone` batch merges exactly
//! once; every run reaches a terminal (complete, or given up with a full
//! missing-shard manifest), never a hang; resume never recomputes a
//! journaled shard. This module enumerates the *entire* reachable state
//! space of a small run within a fault budget and checks every state.
//!
//! Nothing here models the protocol. Each worker is the [`WorkerCore`]
//! its `snip fleet-worker` loop steps; each coordinator connection is the
//! [`PeerCore`] `FleetDriver`'s peer threads step; all of them act on the
//! run's one [`RunCore`] (deal, `ShardDone` validation and merge, requeue,
//! sessions, restart from the checkpointed set, idle give-up). Only the
//! environment is modelled: the frames, abstracted to [`Msg`], two
//! bounded channels per worker, and faults — a sever seen by both ends
//! at once (the chaos layer's `Sever`, `Truncate` and reorder-fatal
//! outcomes), a duplicated `ShardDone`, a coordinator restart that keeps
//! only the checkpoint journal, and a budget of dials per worker.
//!
//! Invariants hold in **every reachable state** ([`RunCore::violation`],
//! exactly-once journaling, batch ownership), no worker ever hears a
//! frame out of grammar, and terminal reachability is checked by reverse
//! closure over the explored graph, so a livelock is reported, not just
//! a deadlock.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::time::Duration;

use crate::coordinator::{DriverStats, MAX_PREAUTH_PEERS};
use crate::run_core::{Admit, Deal, PeerCore, PeerPhase, Reply, RunCore, Shard};
use crate::worker::{Heard, Phase, Step, WorkerCore, WorkerSummary};

/// The fewest distinct states the default bounds must explore. It is the
/// count [`explore`] reaches with [`ExploreConfig::default`], rounded
/// down: a change that shrinks the explored space fails `check-proto`.
pub const MIN_EXPLORED_STATES: usize = 226_000;

/// Frames in flight, abstracted to what drives the state machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Msg {
    /// Coordinator → worker: fresh admission, `Init` and its `Session`.
    Init(u64),
    /// Coordinator → worker: session resumed.
    Resumed(u64),
    /// Coordinator → worker: compute this batch (bitmask).
    Shard(u16),
    /// Worker → coordinator: `Join`, presenting a session to resume.
    Join(Option<u64>),
    /// Worker → coordinator: `Ready`.
    Ready,
    /// Worker → coordinator: one `ShardDone` for a batch (bitmask).
    Done(u16),
}

/// One worker, the coordinator's end of its connection, and the wire.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(super) struct WorkerSt {
    /// The worker process; it keeps its result as a shard bitmask.
    core: WorkerCore<u16>,
    /// The batch being computed (bitmask), while `core` computes.
    computing: u16,
    /// The coordinator's thread for the connection, if one is up.
    peer: Option<PeerCore>,
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
                    core: WorkerCore::new(),
                    computing: 0,
                    peer: None,
                    c2w: VecDeque::new(),
                    w2c: VecDeque::new(),
                    redials_left: cfg.redials,
                    severs_left: cfg.severs_per_worker,
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
                && w.core.phase() == Phase::Down
                && w.redials_left == 0
        })
    }

    /// Drops the counters before the state is keyed: they only observe,
    /// and keeping them would multiply states without new behavior.
    fn settled(mut self) -> St {
        self.core.stats = DriverStats::default();
        for w in &mut self.workers {
            w.core.summary = WorkerSummary::default();
        }
        self
    }
}

/// Enumerates every successor of `st`, tallying what the transitions
/// exercise into `report`.
fn successors(
    st: &St,
    cfg: &ExploreConfig,
    report: &mut ExploreReport,
) -> Result<Vec<St>, ProtoViolation> {
    let mut out = Vec::new();
    if st.core.over() {
        return Ok(out);
    }

    if st.stalled() {
        let mut next = st.clone();
        // No time passes in the explorer: a zero timeout has expired.
        next.core.give_up_if_idle(Duration::ZERO, Duration::ZERO);
        out.push(next);
        return Ok(out);
    }

    for (wi, w) in st.workers.iter().enumerate() {
        let phase = w.core.phase();
        // Dial (first join) or redial after a sever.
        if phase == Phase::Down && w.redials_left > 0 {
            let mut next = st.clone();
            assert!(next.core.peer_accepted(Duration::ZERO, MAX_PREAUTH_PEERS));
            let nw = &mut next.workers[wi];
            nw.redials_left -= 1;
            nw.peer = Some(PeerCore::new(wi, true));
            let resume = nw.core.linked();
            nw.w2c.push_back(Msg::Join(resume));
            out.push(next);
        }

        // Worker finishes its compute: the whole batch's results enter
        // the wire as one `ShardDone` frame.
        if phase == Phase::Computing && w.w2c.len() < CHANNEL_CAP {
            let mut next = st.clone();
            let done = finish_compute(&mut next.workers[wi]);
            next.workers[wi].w2c.push_back(Msg::Done(done));
            out.push(next);
        }

        // Worker consumes the head coordinator frame.
        if let (Some(&msg), Phase::Handshake | Phase::Serving) = (w.c2w.front(), phase) {
            let mut next = st.clone();
            let nw = &mut next.workers[wi];
            nw.c2w.pop_front();
            deliver_to_worker(nw, msg).map_err(|step| {
                let invariant = "a worker must only ever hear frames its protocol expects";
                ProtoViolation::new(invariant, format!("{step:?} after {msg:?} in {st:?}"))
            })?;
            if nw.w2c.len() <= CHANNEL_CAP {
                out.push(next);
            }
        }

        // Coordinator consumes the head worker frame.
        if let Some(&msg) = w.w2c.front() {
            if let Some(next) = deliver_to_peer(st, wi, msg, report) {
                if next.workers[wi].c2w.len() <= CHANNEL_CAP {
                    out.push(next);
                }
            }
        }

        // The coordinator thread blocked in the deal gets its batch.
        if w.peer
            .is_some_and(|p| matches!(p.phase(), PeerPhase::Dealing(_)))
        {
            let mut next = st.clone();
            let nw = &mut next.workers[wi];
            let peer = nw.peer.as_mut().expect("dealing peer");
            if let Deal::Batch(batch) = peer.deal(&mut next.core, u64::from(cfg.batch)) {
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
        if w.severs_left > 0 && phase != Phase::Down {
            let mut next = st.clone();
            next.workers[wi].severs_left -= 1;
            sever(&mut next, wi);
            out.push(next);
        }
    }

    // Coordinator crash + restart: only the checkpoint journal survives,
    // and the core is rebuilt from it exactly as `--resume` rebuilds it.
    if st.restarts_left > 0 {
        let mut next = st.clone();
        next.restarts_left -= 1;
        for wi in 0..next.workers.len() {
            sever(&mut next, wi);
        }
        let checkpointed = (0..u64::from(cfg.shards))
            .filter(|id| next.journaled & 1 << id != 0)
            .map(|id| (id, vec![()]))
            .collect();
        next.core = RunCore::new(
            Shard::cut(cfg.shards.into(), 1),
            checkpointed,
            Duration::ZERO,
        );
        out.push(next);
    }

    Ok(out.into_iter().map(St::settled).collect())
}

/// The worker hands its computed batch to its core; returns the result.
fn finish_compute(w: &mut WorkerSt) -> u16 {
    let done = std::mem::take(&mut w.computing);
    let shards = u64::from(done.count_ones());
    *w.core.computed(done, shards, shards)
}

/// The worker's loop: `msg` goes through its core, and the frame the
/// core asks for goes on the wire. `Err` carries a step the worker's
/// protocol never takes on this frame.
fn deliver_to_worker(w: &mut WorkerSt, msg: Msg) -> Result<(), Step> {
    let heard = match msg {
        Msg::Init(_) => Heard::Init(Ok(())),
        Msg::Resumed(sid) => Heard::Resumed(sid),
        Msg::Shard(_) => Heard::Shard,
        _ => unreachable!("worker-bound channel never carries worker messages"),
    };
    match (w.core.heard(heard), msg) {
        // The `Session` frame follows `Init` on the wire; the two are
        // delivered together.
        (Step::Ready, Msg::Init(sid)) => match w.core.heard(Heard::Session(sid)) {
            Step::Recv => w.w2c.push_back(Msg::Ready),
            step => return Err(step),
        },
        (Step::Ready, _) => w.w2c.push_back(Msg::Ready),
        (Step::Resend, _) => w.w2c.push_back(Msg::Done(
            *w.core.pending().expect("a re-send has a result"),
        )),
        (Step::Compute, Msg::Shard(mask)) => w.computing = mask,
        (step, _) => return Err(step),
    }
    Ok(())
}

/// The coordinator thread for worker `wi` receives `msg` through its
/// [`PeerCore`]. `None` when that thread is not reading (waiting in the
/// deal, or no connection).
fn deliver_to_peer(st: &St, wi: usize, msg: Msg, report: &mut ExploreReport) -> Option<St> {
    let mut next = st.clone();
    let St {
        core,
        workers,
        journaled,
        journaled_twice,
        ..
    } = &mut next;
    let w = &mut workers[wi];
    let peer = w.peer.as_mut()?;
    if let PeerPhase::Dealing(_) = peer.phase() {
        return None;
    }
    w.w2c.pop_front();
    let resumed = matches!(peer.phase(), PeerPhase::AwaitResume(_));
    let in_grammar = match msg {
        Msg::Join(resume) => match peer.join(core, resume) {
            Some(Admit::Fresh(sid)) => Some(Msg::Init(sid)),
            Some(Admit::Resumed(sid)) => Some(Msg::Resumed(sid)),
            None => None,
        }
        .map(|reply| w.c2w.push_back(reply))
        .is_some(),
        Msg::Ready => peer.ready(),
        Msg::Done(mask) => {
            let journal = &mut |id: u64, _: &[()]| {
                *journaled_twice |= *journaled & 1 << id != 0;
                *journaled |= 1 << id;
            };
            match peer.done(core, results_of(mask), Duration::ZERO, journal) {
                Reply::Merged { fresh, stale } => {
                    report.resume_redeliveries += usize::from(resumed);
                    report.dedup_absorptions += usize::from(stale > 0);
                    report.partial_batch_merges += usize::from(fresh > 0 && stale > 0);
                    true
                }
                Reply::Stale => {
                    report.dedup_absorptions += 1;
                    true
                }
                Reply::Invalid => false,
            }
        }
        _ => unreachable!("coordinator-bound channel never carries coordinator messages"),
    };
    // The peer broke protocol, and `drive_peer` severs it.
    if !in_grammar {
        sever(&mut next, wi);
    }
    Some(next)
}

/// Connection loss seen by both ends: the coordinator's thread ends
/// through its [`PeerCore`], the worker's link through its core.
fn sever(next: &mut St, wi: usize) {
    let w = &mut next.workers[wi];
    if let Some(peer) = w.peer.take() {
        peer.lost(&mut next.core);
        next.core.peer_left(Duration::ZERO);
    }
    // The worker process survives a connection loss and finishes its
    // compute; only sending the result fails.
    if w.core.phase() == Phase::Computing {
        finish_compute(w);
    }
    // A worker that stops instead of redialing (it had no session yet)
    // is relaunched fresh: the dial budget covers either.
    if !matches!(w.core.lost(None, true), Step::Redial) {
        w.core = WorkerCore::new();
    }
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
        let serving = w
            .peer
            .is_some_and(|p| matches!(p.phase(), PeerPhase::Serving(_)));
        if serving != st.core.holds(wi) {
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
        let succs = successors(&st, cfg, &mut report)?;
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
