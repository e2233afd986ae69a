//! The coordinator's shard lifecycle and its side of each connection as
//! sans-IO state machines.
//!
//! [`RunCore`] makes every decision of a fleet run: which shards are
//! queued, which batch each peer holds, which results have merged, which
//! dropped sessions may resume, when an idle run gives up, and every
//! [`DriverStats`] counter. It reads no clock, touches no socket and never
//! blocks: events go in as method calls, decisions come out as return
//! values, and time comes in as a [`Duration`] since the run started.
//! It is generic over the per-job result: the driver stores `RunMetrics`,
//! the explorer `()`.
//!
//! [`PeerCore`] is the coordinator's side of one connection: the `Join`
//! admission (fresh or resumed), the `Ready` and `ShardDone` it awaits,
//! and what a lost connection hands back. It acts on the run's `RunCore`.
//! [`FleetDriver`](crate::FleetDriver)'s peer threads step one `PeerCore`
//! each behind the run's one mutex, and `snip check-proto`
//! ([`crate::proto::explore`]) steps the same types, with the worker's
//! own core at the other end of each connection, through every bounded
//! fault interleaving.
//!
//! Its invariants ([`RunCore::violation`]): the FIFO queue never holds a
//! merged shard (a merge retires any queued copy); every unmerged shard
//! is queued or held by exactly one peer; each result merges once.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use crate::coordinator::DriverStats;

/// One contiguous slice of the job list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Shard {
    pub(crate) id: u64,
    pub(crate) start: u64,
    pub(crate) end: u64,
}

impl Shard {
    /// Cuts `jobs` jobs into contiguous shards of `size` (the last one
    /// may be shorter).
    pub(crate) fn cut(jobs: u64, size: u64) -> Vec<Shard> {
        (0..jobs.div_ceil(size))
            .map(|id| Shard {
                id,
                start: id * size,
                end: ((id + 1) * size).min(jobs),
            })
            .collect()
    }

    fn jobs(&self) -> u64 {
        self.end - self.start
    }
}

/// The answer to a peer asking for work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Deal {
    /// Up to `max` shards, dealt in one step and now held by the peer.
    Batch(Vec<Shard>),
    /// Nothing queued, but the run is not over: ask again later.
    Wait,
    /// The run completed or gave up: release the peer.
    Over,
}

/// How a `ShardDone` was received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reply {
    /// It answered the peer's batch: `fresh` results merged, `stale` ones
    /// had already merged through another delivery and were dropped.
    Merged { fresh: u64, stale: u64 },
    /// A repeat of shards that all merged already: dropped, and the peer
    /// still owes its batch.
    Stale,
    /// Neither: the peer broke protocol.
    Invalid,
}

/// The shard lifecycle of one run. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct RunCore<T> {
    shards: Arc<[Shard]>,
    /// Shard ordinals waiting to be dealt, oldest first.
    queue: VecDeque<u64>,
    /// Each shard's merged per-job results.
    results: Vec<Option<Vec<T>>>,
    /// The batch each live peer is computing, keyed by peer ordinal.
    inflight: BTreeMap<usize, Vec<u64>>,
    /// Dropped workers' resumable session ids. An id is taken when its
    /// worker redials; live peers have none here.
    sessions: BTreeSet<u64>,
    next_session: u64,
    aborted: bool,
    /// Accepted TCP connections not yet closed.
    active_peers: usize,
    /// Accepted TCP connections not yet past `Join`.
    preauth_peers: usize,
    last_activity: Duration,
    /// The run's counters, reported as [`DriverStats`].
    pub(crate) stats: DriverStats,
}

impl<T> RunCore<T> {
    /// A run over `shards` whose `checkpointed` results are already
    /// durable: those are merged up front and never queued.
    pub(crate) fn new(
        shards: impl Into<Arc<[Shard]>>,
        mut checkpointed: BTreeMap<u64, Vec<T>>,
        now: Duration,
    ) -> Self {
        let shards: Arc<[Shard]> = shards.into();
        let stats = DriverStats {
            jobs: shards.iter().map(Shard::jobs).sum(),
            shards: shards.len() as u64,
            checkpoint_shards: checkpointed.len() as u64,
            ..DriverStats::default()
        };
        let results: Vec<_> = (0..stats.shards)
            .map(|id| checkpointed.remove(&id))
            .collect();
        RunCore {
            queue: (0..stats.shards)
                .filter(|&id| results[id as usize].is_none())
                .collect(),
            shards,
            results,
            stats,
            inflight: BTreeMap::new(),
            sessions: BTreeSet::new(),
            next_session: 1,
            aborted: false,
            active_peers: 0,
            preauth_peers: 0,
            last_activity: now,
        }
    }

    /// Shards the job list was cut into.
    pub(crate) fn total(&self) -> u64 {
        self.shards.len() as u64
    }

    /// Every shard has merged.
    pub(crate) fn finished(&self) -> bool {
        self.results.iter().all(Option::is_some)
    }

    /// Completed or gave up: peers drain out.
    pub(crate) fn over(&self) -> bool {
        self.finished() || self.aborted
    }

    /// Whether `peer` holds a dealt batch.
    pub(crate) fn holds(&self, peer: usize) -> bool {
        self.inflight.contains_key(&peer)
    }

    /// Overwrites the queue and the dealt batches, to build the broken
    /// states the invariant tests need.
    #[cfg(test)]
    pub(crate) fn force(&mut self, queue: &[u64], inflight: &[(usize, &[u64])]) {
        self.queue = queue.iter().copied().collect();
        self.inflight = inflight.iter().map(|&(p, b)| (p, b.to_vec())).collect();
    }

    /// Whether shard `id` has merged.
    pub(crate) fn merged(&self, id: u64) -> bool {
        self.results.get(id as usize).is_some_and(Option::is_some)
    }

    /// Deals peer `peer` up to `max` queued shards, oldest first, in one
    /// step. A shard stays owed by the peer until its `ShardDone`
    /// arrives or [`RunCore::sever`] requeues it.
    pub(crate) fn deal(&mut self, peer: usize, max: u64) -> Deal {
        if self.queue.is_empty() {
            return if self.over() { Deal::Over } else { Deal::Wait };
        }
        let take = (max.max(1) as usize).min(self.queue.len());
        let ids: Vec<u64> = self.queue.drain(..take).collect();
        let batch = ids.iter().map(|&id| self.shards[id as usize]).collect();
        self.inflight.insert(peer, ids);
        Deal::Batch(batch)
    }

    /// Receives a `ShardDone`. From a live peer (`Some(peer)`) it must
    /// answer the peer's batch exactly: one result per dealt shard, in any
    /// order, each with one entry per job. Re-sent on a resumed session
    /// (`None`: the batch in flight when the connection dropped), it is
    /// checked against the shard table. Each result merges unless it
    /// already did; `journal` sees every fresh result before it counts.
    pub(crate) fn shard_done(
        &mut self,
        peer: Option<usize>,
        results: Vec<(u64, Vec<T>)>,
        now: Duration,
        journal: &mut dyn FnMut(u64, &[T]),
    ) -> Reply {
        let batch = peer
            .and_then(|p| self.inflight.get(&p))
            .map_or(&[][..], Vec::as_slice);
        let ids: BTreeSet<u64> = results.iter().map(|(id, _)| *id).collect();
        let well_formed = !results.is_empty()
            && ids.len() == results.len()
            && results.iter().all(|(id, jobs)| self.fits(*id, jobs));
        let answers =
            peer.is_none() || (batch.len() == ids.len() && batch.iter().all(|id| ids.contains(id)));
        if well_formed && answers {
            let (fresh, stale) = self.merge_all(results, now, journal);
            match peer {
                Some(peer) => drop(self.inflight.remove(&peer)),
                None => self.stats.resumed_shards += fresh,
            }
            return Reply::Merged { fresh, stale };
        }
        // A repeat of an already-merged batch — a duplicated frame, or a
        // re-send racing its own acknowledgement.
        if well_formed
            && ids.iter().all(|&id| self.merged(id))
            && ids.iter().any(|id| !batch.contains(id))
        {
            log_stale(ids.len() as u64);
            return Reply::Stale;
        }
        Reply::Invalid
    }

    fn fits(&self, id: u64, jobs: &[T]) -> bool {
        self.shards
            .get(id as usize)
            .is_some_and(|s| jobs.len() as u64 == s.jobs())
    }

    fn merge_all(
        &mut self,
        results: Vec<(u64, Vec<T>)>,
        now: Duration,
        journal: &mut dyn FnMut(u64, &[T]),
    ) -> (u64, u64) {
        let (mut fresh, mut stale) = (0, 0);
        for (id, jobs) in results {
            if self.merged(id) {
                stale += 1;
                continue;
            }
            journal(id, &jobs);
            self.results[id as usize] = Some(jobs);
            fresh += 1;
            // A requeued copy of this shard may still wait in the queue
            // (its first owner was severed, then resumed and delivered):
            // retire it, so merged work is never dealt again.
            if let Some(pos) = self.queue.iter().position(|&q| q == id) {
                self.queue.remove(pos);
            }
        }
        if stale > 0 {
            log_stale(stale);
        }
        if fresh > 0 {
            self.last_activity = now;
        }
        (fresh, stale)
    }

    /// A peer was lost: the unmerged remainder of its batch goes to the
    /// back of the queue for the next idle worker — the steal.
    pub(crate) fn sever(&mut self, peer: usize) {
        for id in self.inflight.remove(&peer).unwrap_or_default() {
            if !self.merged(id) {
                self.queue.push_back(id);
                self.stats.shards_reassigned += 1;
                snip_obs::event!(
                    snip_obs::log::Level::Debug,
                    "shard {id} re-queued from a lost worker"
                );
            }
        }
    }

    /// A TCP connection arrived. Refused (and counted rejected) when
    /// `preauth_cap` connections are already waiting to authenticate.
    pub(crate) fn peer_accepted(&mut self, now: Duration, preauth_cap: usize) -> bool {
        if self.preauth_peers >= preauth_cap {
            self.stats.peers_rejected += 1;
            return false;
        }
        self.active_peers += 1;
        self.preauth_peers += 1;
        self.last_activity = now;
        true
    }

    /// An accepted connection finished its `Join` phase, either way.
    pub(crate) fn peer_authenticated(&mut self) {
        self.preauth_peers -= 1;
    }

    /// An accepted connection closed.
    pub(crate) fn peer_left(&mut self, now: Duration) {
        self.active_peers -= 1;
        self.last_activity = now;
    }

    /// The give-up clause: with no live peers and nothing merged or
    /// connected for `timeout`, nobody is coming — abort the run.
    pub(crate) fn give_up_if_idle(&mut self, now: Duration, timeout: Duration) -> bool {
        if self.active_peers == 0 && now.saturating_sub(self.last_activity) >= timeout {
            self.aborted = true;
        }
        self.aborted
    }

    /// Hands back every shard's result (`None` where it never merged)
    /// and the run's counters.
    pub(crate) fn into_results(self) -> (Vec<Option<Vec<T>>>, DriverStats) {
        (self.results, self.stats)
    }

    /// The first lifecycle invariant this state breaks, if any, for a
    /// run dealing at most `max_batch` shards at a time.
    pub(crate) fn violation(&self, max_batch: u64) -> Option<&'static str> {
        if self.queue.iter().any(|&id| self.merged(id)) {
            return Some(
                "a merged shard must never sit in the queue (would recompute journaled work)",
            );
        }
        if self
            .inflight
            .values()
            .any(|batch| batch.len() as u64 > max_batch)
        {
            return Some("a dealt batch must never exceed the batch bound");
        }
        let mut copies = vec![0u32; self.shards.len()];
        for &id in self.queue.iter().chain(self.inflight.values().flatten()) {
            copies[id as usize] += 1;
        }
        (0..self.total()).find_map(|id| match copies[id as usize] {
            0 if !self.merged(id) => Some("every unmerged shard must be queued or held by a peer"),
            0 | 1 => None,
            _ => Some("a shard must never be queued twice, or held by two workers at once"),
        })
    }
}

/// Where the coordinator's side of one connection stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PeerPhase {
    /// Awaiting `Join`; a worker spawned over a pipe joins unasked.
    AwaitJoin,
    /// Fresh `Init` sent for this session; awaiting `Ready`.
    AwaitReady(u64),
    /// `Resumed` sent; awaiting the re-sent `ShardDone` or a `Ready`.
    AwaitResume(u64),
    /// Waiting in the core's deal.
    Dealing(u64),
    /// A batch was dealt; awaiting its `ShardDone`.
    Serving(u64),
}

/// How a joining peer was admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Admit {
    /// A new session: send `Init` and `Session`.
    Fresh(u64),
    /// A session this run still knows: send `Resumed`.
    Resumed(u64),
}

/// The coordinator's side of one connection, acting on the run's
/// [`RunCore`]: the handshake, the deal-and-answer loop, and the end of
/// the connection. `FleetDriver`'s peer threads and `check-proto` both
/// step it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PeerCore {
    /// The peer's ordinal: admission order.
    pub(crate) peer: usize,
    /// Dialed in over TCP, rather than spawned over a pipe.
    dialed: bool,
    phase: PeerPhase,
}

impl PeerCore {
    /// Peer ordinal `peer`: a dialed-in connection the run accepted
    /// ([`RunCore::peer_accepted`]) when `dialed`, else a worker spawned
    /// over a pipe.
    pub(crate) fn new(peer: usize, dialed: bool) -> Self {
        PeerCore {
            peer,
            dialed,
            phase: PeerPhase::AwaitJoin,
        }
    }

    pub(crate) fn phase(&self) -> PeerPhase {
        self.phase
    }

    /// The peer joined, presenting `resume`. A session id is an identity,
    /// not a credential: one this run does not know (a restarted
    /// coordinator, a stale worker) gets a fresh session. `None` when the
    /// peer already joined.
    pub(crate) fn join<T>(&mut self, run: &mut RunCore<T>, resume: Option<u64>) -> Option<Admit> {
        if self.phase != PeerPhase::AwaitJoin {
            return None;
        }
        if self.dialed {
            run.peer_authenticated();
        }
        let known = resume.filter(|sid| run.sessions.remove(sid));
        Some(match known {
            Some(sid) => {
                run.stats.reconnects += 1;
                self.phase = PeerPhase::AwaitResume(sid);
                Admit::Resumed(sid)
            }
            None => {
                let sid = run.next_session;
                run.next_session += 1;
                self.phase = PeerPhase::AwaitReady(sid);
                Admit::Fresh(sid)
            }
        })
    }

    /// The peer sent a valid `Ready`. False when none was due.
    pub(crate) fn ready(&mut self) -> bool {
        match self.phase {
            PeerPhase::AwaitReady(sid) | PeerPhase::AwaitResume(sid) => {
                self.phase = PeerPhase::Dealing(sid);
                true
            }
            _ => false,
        }
    }

    /// Asks the core for the peer's next batch ([`RunCore::deal`]). A
    /// dealt batch is owed back.
    pub(crate) fn deal<T>(&mut self, run: &mut RunCore<T>, max: u64) -> Deal {
        let PeerPhase::Dealing(sid) = self.phase else {
            return Deal::Over;
        };
        let deal = run.deal(self.peer, max);
        if let Deal::Batch(_) = deal {
            self.phase = PeerPhase::Serving(sid);
        }
        deal
    }

    /// The peer sent a `ShardDone` ([`RunCore::shard_done`]): after
    /// `Resumed`, the batch in flight when its last connection dropped;
    /// while serving, the answer to its batch. A merge earns the next
    /// deal, and a stale repeat leaves the batch owed.
    pub(crate) fn done<T>(
        &mut self,
        run: &mut RunCore<T>,
        results: Vec<(u64, Vec<T>)>,
        now: Duration,
        journal: &mut dyn FnMut(u64, &[T]),
    ) -> Reply {
        let (peer, sid) = match self.phase {
            PeerPhase::AwaitResume(sid) => (None, sid),
            PeerPhase::Serving(sid) => (Some(self.peer), sid),
            _ => return Reply::Invalid,
        };
        let reply = run.shard_done(peer, results, now, journal);
        if let Reply::Merged { .. } = reply {
            self.phase = PeerPhase::Dealing(sid);
        }
        reply
    }

    /// The connection was lost, refused, or never came up, and is
    /// counted: a dialed-in peer lost before admission as rejected (it
    /// also leaves the pre-auth count), any other as a lost worker — a
    /// spawned pipe worker that fails to start or to shake hands was
    /// still one of ours — except a joiner still shaking hands when the
    /// run finished. A peer that had resumed or been admitted hands its
    /// unmerged batch back ([`RunCore::sever`]) and keeps its session
    /// resumable.
    pub(crate) fn lost<T>(self, run: &mut RunCore<T>) {
        match self.phase {
            PeerPhase::AwaitJoin if self.dialed => {
                run.stats.peers_rejected += 1;
                run.peer_authenticated();
            }
            PeerPhase::AwaitReady(_) if run.over() => {}
            PeerPhase::AwaitReady(_) if self.dialed => run.stats.peers_rejected += 1,
            PeerPhase::AwaitJoin | PeerPhase::AwaitReady(_) => run.stats.workers_lost += 1,
            PeerPhase::AwaitResume(sid) | PeerPhase::Dealing(sid) | PeerPhase::Serving(sid) => {
                run.stats.workers_lost += 1;
                run.sever(self.peer);
                run.sessions.insert(sid);
            }
        }
    }
}

fn log_stale(n: u64) {
    snip_obs::event!(
        snip_obs::log::Level::Debug,
        "{n} already-merged shard result(s) re-delivered; dropped"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Duration = Duration::ZERO;

    /// `n` one-job shards, the ones in `checkpointed` already merged.
    fn core(n: u64, checkpointed: &[u64]) -> RunCore<()> {
        let done = checkpointed.iter().map(|&id| (id, vec![()])).collect();
        RunCore::new(Shard::cut(n, 1), done, T)
    }

    fn done(ids: &[u64]) -> Vec<(u64, Vec<()>)> {
        ids.iter().map(|&id| (id, vec![()])).collect()
    }

    fn ids(deal: Deal) -> Vec<u64> {
        match deal {
            Deal::Batch(batch) => batch.iter().map(|s| s.id).collect(),
            other => panic!("expected a batch, got {other:?}"),
        }
    }

    /// Peer 0 takes shards 0 and 1, then its connection drops.
    fn severed_pair() -> RunCore<()> {
        let mut core = core(3, &[]);
        assert_eq!(ids(core.deal(0, 2)), [0, 1]);
        core.sever(0);
        assert_eq!(core.queue, [2, 0, 1], "requeued at the back, FIFO");
        core
    }

    #[test]
    fn fifo_requeue_yields_a_partially_stale_batch_that_merges_each_job_once() {
        let mut core = severed_pair();
        let mut journaled = Vec::new();
        let mut journal = |id: u64, _: &[()]| journaled.push(id);
        assert_eq!(ids(core.deal(1, 2)), [2, 0]);
        // Peer 0 redials and re-sends its in-flight batch.
        let reply = core.shard_done(None, done(&[0, 1]), T, &mut journal);
        assert_eq!(reply, Reply::Merged { fresh: 2, stale: 0 });
        let reply = core.shard_done(Some(1), done(&[2, 0]), T, &mut journal);
        assert_eq!(reply, Reply::Merged { fresh: 1, stale: 1 });
        assert!(core.finished());
        journaled.sort_unstable();
        assert_eq!(journaled, [0, 1, 2], "each job merged exactly once");
        assert_eq!(
            (core.stats.shards_reassigned, core.stats.resumed_shards),
            (2, 2)
        );
    }

    #[test]
    fn resumed_redelivery_leaves_no_merged_shard_in_the_queue() {
        let mut core = severed_pair();
        core.shard_done(None, done(&[0, 1]), T, &mut |_, _| {});
        assert_eq!(core.queue, [2], "merging retires the requeued copies");
        assert_eq!(core.violation(2), None);
        assert_eq!(ids(core.deal(1, 2)), [2], "no merged shard is dealt again");
    }

    #[test]
    fn a_core_built_from_a_checkpoint_never_deals_a_journaled_shard() {
        let mut core = core(4, &[1, 3]);
        assert_eq!(core.stats.checkpoint_shards, 2);
        assert_eq!(ids(core.deal(0, 8)), [0, 2]);
        assert_eq!(core.deal(1, 8), Deal::Wait, "the rest is owed by peer 0");
        core.shard_done(Some(0), done(&[0, 2]), T, &mut |_, _| {});
        assert_eq!(core.deal(1, 8), Deal::Over);
    }

    /// A pipe peer admitted fresh and dealing.
    fn dealing(core: &mut RunCore<()>, peer: usize) -> (PeerCore, u64) {
        let mut peer = PeerCore::new(peer, false);
        let Some(Admit::Fresh(sid)) = peer.join(core, None) else {
            panic!("a new peer is admitted fresh");
        };
        assert!(peer.ready());
        (peer, sid)
    }

    #[test]
    fn join_resumes_a_known_session_and_admits_anything_else_fresh() {
        let mut core = core(2, &[]);
        let (peer, sid) = dealing(&mut core, 0);
        peer.lost(&mut core);
        for (resume, resumed) in [(None, false), (Some(99), false), (Some(sid), true)] {
            let mut peer = PeerCore::new(1, false);
            match peer.join(&mut core, resume) {
                Some(Admit::Resumed(id)) => assert!(resumed && id == sid),
                Some(Admit::Fresh(id)) => assert!(!resumed && id > sid, "a new id"),
                None => panic!("a new peer joins"),
            }
            assert_eq!(peer.join(&mut core, resume), None, "only once");
        }
        assert_eq!(core.stats.reconnects, 1);
    }

    #[test]
    fn replies_keep_serving_or_break_the_peer() {
        let mut core = core(3, &[]);
        let (mut peer, sid) = dealing(&mut core, 0);
        assert_eq!(ids(peer.deal(&mut core, 1)), [0]);
        let reply = peer.done(&mut core, done(&[0]), T, &mut |_, _| {});
        assert_eq!(reply, Reply::Merged { fresh: 1, stale: 0 });
        assert_eq!(peer.phase(), PeerPhase::Dealing(sid));
        assert_eq!(ids(peer.deal(&mut core, 1)), [1]);
        // A duplicate of the merged batch: dropped, the batch still owed.
        let reply = peer.done(&mut core, done(&[0]), T, &mut |_, _| {});
        assert_eq!(reply, Reply::Stale);
        assert_eq!(peer.phase(), PeerPhase::Serving(sid));
        // A reply to a batch never dealt breaks protocol: the IO severs.
        let reply = peer.done(&mut core, done(&[2]), T, &mut |_, _| {});
        assert_eq!(reply, Reply::Invalid);
        peer.lost(&mut core);
        assert_eq!(core.queue, [2, 1], "the owed batch is requeued");
        assert!(!core.holds(0));
        assert_eq!(core.violation(1), None);
    }

    #[test]
    fn a_peer_lost_while_serving_requeues_its_unmerged_remainder() {
        let mut core = core(3, &[]);
        let (mut peer, sid) = dealing(&mut core, 0);
        assert_eq!(ids(peer.deal(&mut core, 2)), [0, 1]);
        // Shard 0 merges through another delivery meanwhile.
        core.shard_done(None, done(&[0]), T, &mut |_, _| {});
        peer.lost(&mut core);
        assert_eq!(core.queue, [2, 1], "only the unmerged remainder");
        assert_eq!(core.stats.workers_lost, 1);
        let mut again = PeerCore::new(1, false);
        let admit = again.join(&mut core, Some(sid));
        assert!(matches!(admit, Some(Admit::Resumed(id)) if id == sid));
    }

    #[test]
    fn idle_give_up_fires_exactly_timeout_after_the_last_activity() {
        let (secs, timeout) = (Duration::from_secs, Duration::from_secs(10));
        let mut core = core(2, &[]);
        assert!(core.peer_accepted(secs(1), 64));
        assert!(
            !core.give_up_if_idle(secs(100), timeout),
            "a live peer holds the run open"
        );
        core.peer_authenticated();
        core.peer_left(secs(5));
        let last = secs(5);
        assert!(!core.give_up_if_idle(last + timeout - Duration::from_nanos(1), timeout));
        assert!(!core.over());
        assert!(core.give_up_if_idle(last + timeout, timeout));
        assert!(core.over());
    }
}
