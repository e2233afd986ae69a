//! The coordinator's shard lifecycle as a sans-IO state machine.
//!
//! [`RunCore`] makes every decision of a fleet run: which shards are
//! queued, which batch each peer holds, which results have merged, which
//! dropped sessions may resume, when an idle run gives up, and every
//! [`DriverStats`] counter. It reads no clock, touches no socket and never
//! blocks: events go in as method calls, decisions come out as return
//! values, and time comes in as a [`Duration`] since the run started.
//! [`FleetDriver`](crate::FleetDriver)'s peer threads drive it behind one
//! mutex, and `snip check-proto` ([`crate::proto::explore`]) drives the
//! same type through every bounded fault interleaving. It is generic over
//! the per-job result: the driver stores `RunMetrics`, the explorer `()`.
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

/// What the coordinator remembers about a dropped worker so a redial can
/// resume the session: the plan-shipping bookkeeping, which would
/// otherwise re-ship every plan the worker already holds.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub(crate) struct SessionEntry {
    pub(crate) shipped: BTreeSet<String>,
    pub(crate) seen_generation: u64,
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
    /// Dropped workers' resumable sessions. An entry is taken when its
    /// worker redials; live peers have no entry.
    sessions: BTreeMap<u64, SessionEntry>,
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
            sessions: BTreeMap::new(),
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

    /// Assigns a fresh session id.
    pub(crate) fn open_session(&mut self) -> u64 {
        let sid = self.next_session;
        self.next_session += 1;
        sid
    }

    /// Keeps a lost peer's session resumable.
    pub(crate) fn save_session(&mut self, sid: u64, entry: SessionEntry) {
        self.sessions.insert(sid, entry);
    }

    /// Takes a redialing worker's session, when this run knows it.
    pub(crate) fn resume_session(&mut self, sid: u64) -> Option<SessionEntry> {
        let entry = self.sessions.remove(&sid)?;
        self.stats.reconnects += 1;
        Some(entry)
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
