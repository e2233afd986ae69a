//! The coordinator↔worker wire protocol.
//!
//! Messages travel as length-prefixed binary CBOR frames
//! ([`snip_replay::frame`]) over any [`Transport`](crate::transport) —
//! the stdin/stdout pipes of a spawned worker or a TCP socket a remote
//! worker dialed in on. The conversation is strictly alternating after
//! the handshake:
//!
//! ```text
//! (TCP only)
//! worker → coordinator   Join { protocol, token, pid, resume }
//! (all transports)
//! coordinator → worker   Init { protocol, spec, spec_hash, session: 0, plans }
//! coordinator → worker   Session { session }
//! worker → coordinator   Ready { protocol, pid, spec_hash }
//! repeat:
//!   coordinator → worker   Shard { jobs, plans }
//!   worker → coordinator   ShardDone { results, plans, seeded_hits }
//! coordinator → worker   Shutdown
//! ```
//!
//! **Pre-encoded `Init`.** The `Init` payload (spec + accumulated plans)
//! is by far the largest frame, and it is identical for every fresh
//! peer — so the coordinator encodes it **once per run** and every
//! transport ships the same pre-framed bytes. The per-peer session id
//! therefore moved out of the hot frame: `Init` carries the placeholder
//! `session: 0` (never a real id — sessions start at 1) and the tiny
//! `Session` frame that follows assigns the real one.
//!
//! **Batched shards.** `Shard` deals up to `--shard-batch` shard jobs in
//! one frame; the worker computes them all and answers with one
//! `ShardDone` carrying exactly one result per assigned job. Pull-based
//! stealing is unchanged (a batch is only as large as the queue can
//! fill without blocking), and the coordinator merges each result
//! idempotently by shard ordinal — a batch severed mid-delivery and
//! re-sent after resume merges each job exactly once.
//!
//! **Reconnect-with-resume (TCP).** `Session` assigns each admitted
//! worker a run-scoped *session id*. A worker whose socket drops mid-run
//! may redial and present the id in `Join { resume: Some(id) }` (the
//! token is checked again — a session id is an identity, never a
//! credential). A coordinator that still knows the session replies
//! `Resumed { session }`, after which the worker either re-sends its
//! un-acknowledged `ShardDone` (each result accepted exactly once — the
//! coordinator merges idempotently by shard index) or a fresh `Ready`,
//! and the shard loop continues. A coordinator that does *not* know the
//! session (it restarted, or the run is a new one) falls back to a plain
//! `Init`, and the worker starts a fresh session.
//!
//! **Authentication and identity.** A worker dialing in over TCP
//! authenticates first: `Join` carries the shared secret from the
//! coordinator's `--token-file`, and the coordinator severs the
//! connection on any credential mismatch without revealing whether the
//! token or the protocol was wrong. One deliberate exception: a peer
//! that presents the **correct token** but a skewed protocol version is
//! told so before the sever — the coordinator answers with a spec-bearing
//! `Init` naming its own version, so the worker can report "coordinator
//! speaks protocol 4, worker speaks 5" instead of a bare disconnect. A
//! protocol-3 peer, which predates binary frames, cannot authenticate at
//! all: its JSON-framed `Join` is refused at the frame's first byte,
//! exactly like a wrong token. Both handshake messages then pin the *job
//! identity*: `Init`
//! carries the coordinator's [`FleetSpec::spec_hash`] next to the spec
//! (so a spec corrupted in flight is detected by the worker), and `Ready`
//! echoes the hash the worker computed from the spec it actually received
//! (so the coordinator never deals shards to a worker that decoded a
//! different job). Spawned pipe workers skip `Join` — the coordinator
//! created their stdio, there is nothing to authenticate — but the
//! spec-hash exchange is identical.
//!
//! **Plan shipping.** `Init` and `Shard` carry the coordinator's
//! accumulated set of solved SNIP-OPT plans (only entries the receiving
//! worker has not been sent yet), and `ShardDone` returns plans the
//! worker solved itself plus how many solves its seeded entries answered
//! — so a same-profile fleet solves each plan once globally, and the
//! cross-worker reuse is observable in `DriverStats::plan_seed_hits`.
//!
//! Results carry full exact-ledger [`RunMetrics`] (the journal codec's
//! integer-µs shape), never floats-of-floats, so the coordinator's merge
//! is bit-identical to an in-process run. Anything out of grammar — a
//! version mismatch, a bad token, a wrong spec hash, a `ShardDone` whose
//! results don't cover exactly the assigned batch, a truncated frame —
//! is a protocol error, and the coordinator treats the peer as lost (its
//! unmerged shards go back on the queue).

use serde::{Deserialize, Serialize};
use snip_opt::OptPlan;
use snip_sim::RunMetrics;

use crate::spec::FleetSpec;

/// The frame-protocol version. Bump on any message-shape change; both
/// sides refuse mismatches rather than mis-parsing.
///
/// Version history:
/// * 1 — pipe-only: `Init { protocol, spec }` / `Ready { protocol, pid }`.
/// * 2 — transport-generic dispatch: `Join` (TCP authentication),
///   spec-hash exchange in `Init`/`Ready`, SNIP-OPT plan shipping in
///   `Init`/`Shard`/`ShardDone`.
/// * 3 — crash-safe fleets: per-worker session ids (`Init { session }`),
///   reconnect-with-resume (`Join { resume }` / `Resumed`), idempotent
///   `ShardDone` delivery.
/// * 4 — binary wire: length-prefixed CBOR frames, `Init` pre-encoded
///   once per run (`session: 0` placeholder + `Session` frame), batched
///   `Shard { jobs }` / `ShardDone { results }`, and a typed rejection
///   for authenticated version-skewed peers. Binary frames are the only
///   encoding: protocol-3 JSON frames are refused at the first byte.
pub const PROTOCOL_VERSION: u32 = 4;

/// One solved SNIP-OPT plan under its exact cache key, as shipped between
/// processes. The key is the solver's own bit-exact composite (model +
/// profile JSON + raw scalar bits), opaque to the protocol; both sides
/// compute keys with the same code version, which the handshake enforces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanEntry {
    /// The plan cache key ([`snip_opt::solve_cached`]'s exact-input key).
    pub key: String,
    /// The solved plan.
    pub plan: OptPlan,
}

/// One shard assignment inside a `Shard` batch: jobs `start..end` of the
/// spec's job list, merged under ordinal `id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardJob {
    /// Shard ordinal (merge key).
    pub id: u64,
    /// First job index (inclusive).
    pub start: u64,
    /// Last job index (exclusive).
    pub end: u64,
}

/// One completed shard inside a `ShardDone` batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardResult {
    /// The shard ordinal being answered.
    pub id: u64,
    /// `metrics[k]` belongs to job `start + k` of the assigned range.
    pub metrics: Vec<RunMetrics>,
}

/// Messages the coordinator sends to a worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoordinatorMsg {
    /// The handshake: protocol version plus the complete job spec, its
    /// digest, and every plan the coordinator has accumulated so far.
    /// Encoded once per run and shipped to every fresh peer verbatim.
    Init {
        /// [`PROTOCOL_VERSION`] of the coordinator.
        protocol: u32,
        /// The job every shard is cut from.
        spec: FleetSpec,
        /// [`FleetSpec::spec_hash`] of `spec` as the coordinator encoded
        /// it — the worker recomputes it from the decoded spec and refuses
        /// a mismatch.
        spec_hash: u64,
        /// Always `0` since protocol 4 (the frame is shared across peers;
        /// the `Session` frame that follows carries the real id). Kept so
        /// the message shape, and with it [`PROTOCOL_VERSION`], stays
        /// unchanged.
        session: u64,
        /// Warm SNIP-OPT plans to seed the worker's cache with.
        plans: Vec<PlanEntry>,
    },
    /// Assigns the per-peer session id right after `Init`. A worker whose
    /// socket drops presents it in `Join { resume }` to resume instead of
    /// starting over. Run-scoped and worthless without the token.
    Session {
        /// The session id this run knows the worker by (≥ 1).
        session: u64,
    },
    /// Acknowledges a `Join { resume: Some(id) }` from a worker whose
    /// session this coordinator still knows: no new `Init` follows, the
    /// worker re-sends its pending `ShardDone` (or a fresh `Ready`) and
    /// the shard loop continues where it left off.
    Resumed {
        /// Echo of the resumed session id.
        session: u64,
    },
    /// A batch of shard assignments, dealt together to amortize the
    /// frame round trip over small shards.
    Shard {
        /// The assigned shards, at least one, at most `--shard-batch`.
        jobs: Vec<ShardJob>,
        /// Plans accumulated since this worker was last sent any.
        plans: Vec<PlanEntry>,
    },
    /// No more work; the worker exits cleanly.
    Shutdown,
}

/// Messages a worker sends to the coordinator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkerMsg {
    /// A remote worker's opening message: authenticate before anything
    /// else crosses the socket. Pipe workers never send this.
    Join {
        /// [`PROTOCOL_VERSION`] of the worker binary.
        protocol: u32,
        /// The shared secret (`--token-file` contents, trimmed).
        token: String,
        /// The worker's OS process id (diagnostics).
        pid: u64,
        /// `Some(session)` when redialing after a dropped socket: ask the
        /// coordinator to resume that session instead of re-handshaking.
        /// The coordinator answers `Resumed` if it still knows the id,
        /// plain `Init` otherwise.
        resume: Option<u64>,
    },
    /// Handshake response.
    Ready {
        /// [`PROTOCOL_VERSION`] of the worker binary.
        protocol: u32,
        /// The worker's OS process id (diagnostics).
        pid: u64,
        /// [`FleetSpec::spec_hash`] recomputed from the spec the worker
        /// decoded — must equal the hash `Init` announced.
        spec_hash: u64,
    },
    /// A completed batch: exactly one result per assigned shard (each
    /// with one exact-ledger metrics entry per job, in job order), plus
    /// the worker's newly solved plans.
    ShardDone {
        /// One result per shard of the answered batch, in assignment
        /// order.
        results: Vec<ShardResult>,
        /// Plans this worker solved that it has not reported before.
        plans: Vec<PlanEntry>,
        /// Solves during this batch answered by coordinator-seeded plans
        /// (cross-worker cache hits).
        seeded_hits: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::example_spec;
    use snip_replay::frame::{FrameReader, FrameWriter};

    #[test]
    fn messages_round_trip_through_frames() {
        let spec = example_spec();
        let msgs_out = [
            CoordinatorMsg::Init {
                protocol: PROTOCOL_VERSION,
                spec: spec.clone(),
                spec_hash: spec.spec_hash(),
                session: 0,
                plans: vec![],
            },
            CoordinatorMsg::Session { session: 11 },
            CoordinatorMsg::Shard {
                jobs: vec![
                    ShardJob {
                        id: 3,
                        start: 6,
                        end: 8,
                    },
                    ShardJob {
                        id: 4,
                        start: 8,
                        end: 9,
                    },
                ],
                plans: vec![],
            },
            CoordinatorMsg::Resumed { session: 11 },
            CoordinatorMsg::Shutdown,
        ];
        let mut buf = Vec::new();
        {
            let mut w = FrameWriter::new(&mut buf);
            for m in &msgs_out {
                w.send(m).unwrap();
            }
        }
        let mut r = FrameReader::new(std::io::Cursor::new(buf));
        for m in &msgs_out {
            assert_eq!(r.recv::<CoordinatorMsg>().unwrap().as_ref(), Some(m));
        }
        assert!(r.recv::<CoordinatorMsg>().unwrap().is_none());

        let reply = WorkerMsg::ShardDone {
            results: vec![
                ShardResult {
                    id: 3,
                    metrics: vec![RunMetrics::with_epochs(2); 2],
                },
                ShardResult {
                    id: 4,
                    metrics: vec![RunMetrics::with_epochs(2)],
                },
            ],
            plans: vec![],
            seeded_hits: 0,
        };
        assert_eq!(
            WorkerMsg::from_value(&reply.to_value()).unwrap(),
            reply,
            "worker messages survive the codec"
        );
    }

    #[test]
    fn join_and_plans_round_trip() {
        let join = WorkerMsg::Join {
            protocol: PROTOCOL_VERSION,
            token: "a-shared-secret".into(),
            pid: 41,
            resume: None,
        };
        assert_eq!(WorkerMsg::from_value(&join.to_value()).unwrap(), join);
        let rejoin = WorkerMsg::Join {
            protocol: PROTOCOL_VERSION,
            token: "a-shared-secret".into(),
            pid: 41,
            resume: Some(7),
        };
        assert_eq!(WorkerMsg::from_value(&rejoin.to_value()).unwrap(), rejoin);

        let plan = snip_opt::solve_cached(
            snip_model::SnipModel::default(),
            &snip_model::SlotProfile::roadside(),
            86.4,
            16.0,
        );
        let msg = CoordinatorMsg::Shard {
            jobs: vec![ShardJob {
                id: 0,
                start: 0,
                end: 1,
            }],
            plans: vec![PlanEntry {
                key: "some|exact|key".into(),
                plan,
            }],
        };
        assert_eq!(
            CoordinatorMsg::from_value(&msg.to_value()).unwrap(),
            msg,
            "plans survive the codec bit-for-bit"
        );
    }
}
