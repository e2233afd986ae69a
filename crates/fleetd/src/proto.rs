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
//! coordinator → worker   Init { protocol, spec, spec_hash, session: 0, plans: [] }
//! coordinator → worker   Session { session }
//! worker → coordinator   Ready { protocol, pid, spec_hash }
//! repeat:
//!   coordinator → worker   Shard { jobs, plans: [] }
//!   worker → coordinator   ShardDone { results, plans: [], seeded_hits: 0 }
//! coordinator → worker   Shutdown
//! ```
//!
//! **Pre-encoded `Init`.** The `Init` payload (the spec) is by far the
//! largest frame, and it is identical for every fresh
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
//! speaks protocol 5, worker speaks 6" instead of a bare disconnect. A
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
//! **Reserved plan fields.** Earlier builds shipped solved SNIP-OPT plans
//! between processes in `Init.plans`, `Shard.plans`, `ShardDone.plans`
//! and `ShardDone.seeded_hits`. Each worker now solves its own plans: a
//! plan is a pure function of its inputs, one solve costs tens of
//! microseconds, and the shipping saved at most one solve per worker and
//! distinct plan. The fields stay in the message shapes, so the bytes and
//! [`PROTOCOL_VERSION`] 5 do not change: this build always sends them
//! empty (or zero), and decodes and ignores whatever a peer sends in
//! them. The next protocol bump removes them, with `Init.session`.
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

pub mod explore;

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
/// * 5 — compact profiles: every `EpochProfile` in the spec travels as its
///   distinct slots plus one index per slot, and the spec hash covers
///   that shape.
pub const PROTOCOL_VERSION: u32 = 5;

/// One solved SNIP-OPT plan under a key: the element type of the reserved
/// `plans` fields (see the module docs). This build sends none and ignores
/// any it receives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanEntry {
    /// The key the plan was shipped under: once the exact inputs of a
    /// process-wide plan cache, which no longer exists. Never read.
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
    /// The handshake: protocol version plus the complete job spec and its
    /// digest. Encoded once per run and shipped to every fresh peer
    /// verbatim.
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
        /// Reserved: always empty, ignored on receipt.
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
        /// Reserved: always empty, ignored on receipt.
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
    /// with one exact-ledger metrics entry per job, in job order).
    ShardDone {
        /// One result per shard of the answered batch, in assignment
        /// order.
        results: Vec<ShardResult>,
        /// Reserved: always empty, ignored on receipt.
        plans: Vec<PlanEntry>,
        /// Reserved: always zero, ignored on receipt.
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

    /// A sweep spec and a fleet spec whose nodes mix five profile shapes
    /// (every arrival process, every length distribution, contact-free
    /// slots) and fractional targets.
    fn specs() -> [FleetSpec; 2] {
        use snip_mobility::{ArrivalProcess, EpochProfile};
        use snip_model::LengthDistribution;
        use snip_units::SimDuration;
        let secs = SimDuration::from_secs;
        let mut poisson = EpochProfile::roadside_with(
            secs(240),
            secs(2400),
            LengthDistribution::exponential(secs(3)),
        );
        let slots = poisson
            .slots()
            .iter()
            .map(|s| snip_mobility::profile::ProfileSlot {
                arrivals: s
                    .arrivals
                    .map(|a| ArrivalProcess::poisson(a.mean_interval())),
                ..*s
            })
            .collect();
        poisson = EpochProfile::new(poisson.slot_length(), slots);
        let profiles = [
            EpochProfile::roadside(),
            EpochProfile::roadside_deterministic(),
            poisson,
            EpochProfile::roadside_with(
                secs(420),
                secs(1500),
                LengthDistribution::uniform(secs(1), secs(4)),
            ),
            EpochProfile::from_hourly_frequencies(
                &[0.0, 0.2, 3.0, 12.5, 9.0, 0.1],
                LengthDistribution::log_normal(secs(2), SimDuration::from_millis(500)),
                0.3,
            ),
        ];
        let fleet = FleetSpec {
            name: "mixed \"fleet\"".into(),
            seed: u64::MAX,
            epochs: 3,
            phi_max_secs: 86.4,
            job: crate::spec::JobSpec::Fleet {
                mechanism: snip_sim::Mechanism::SnipOpt,
                nodes: profiles
                    .iter()
                    .enumerate()
                    .map(|(i, p)| crate::spec::NodeSpec {
                        name: format!("site-{i}"),
                        profile: p.clone(),
                        zeta_target: 0.1 + 7.25 * i as f64,
                    })
                    .collect(),
            },
        };
        let sweep = FleetSpec {
            name: "sweep".into(),
            seed: 7,
            epochs: 2,
            phi_max_secs: 864.0,
            job: crate::spec::JobSpec::Sweep {
                profile: EpochProfile::roadside(),
                zeta_targets: vec![16.0, 1e-3, 56.5],
            },
        };
        [sweep, fleet]
    }

    /// Every message variant and both spec shapes stream-encode to the
    /// exact bytes their `Value` trees encode to, in CBOR and in JSON, and
    /// stream-decode back to themselves.
    #[test]
    fn streamed_encodings_are_byte_identical_to_the_value_codecs() {
        fn check<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(x: &T) {
            let cbor = serde::cbor::to_vec(x);
            assert_eq!(cbor, serde::cbor::to_vec(&x.to_value()), "{x:?}");
            assert_eq!(&serde::cbor::decode::<T>(&cbor).unwrap(), x);
            let json = serde::json::to_string(x);
            assert_eq!(json, serde::json::to_string(&x.to_value()), "{x:?}");
            assert_eq!(&serde::json::decode::<T>(&json).unwrap(), x);
        }
        let plan = PlanEntry {
            key: "k|1".into(),
            plan: snip_opt::TwoStepOptimizer::new(
                snip_model::SnipModel::default(),
                snip_model::SlotProfile::roadside(),
            )
            .solve(86.4, 16.0),
        };
        let jobs = vec![
            ShardJob {
                id: 0,
                start: 0,
                end: 2,
            },
            ShardJob {
                id: 1,
                start: 2,
                end: 3,
            },
        ];
        for spec in specs() {
            check(&spec);
            check(&CoordinatorMsg::Init {
                protocol: PROTOCOL_VERSION,
                spec_hash: spec.spec_hash(),
                spec,
                session: 0,
                plans: vec![plan.clone()],
            });
        }
        for msg in [
            CoordinatorMsg::Session { session: 3 },
            CoordinatorMsg::Resumed { session: u64::MAX },
            CoordinatorMsg::Shard {
                jobs,
                plans: vec![plan.clone()],
            },
            CoordinatorMsg::Shutdown,
        ] {
            check(&msg);
        }
        for msg in [
            WorkerMsg::Join {
                protocol: PROTOCOL_VERSION,
                token: "t\u{e9}\n".into(),
                pid: 1,
                resume: None,
            },
            WorkerMsg::Join {
                protocol: PROTOCOL_VERSION,
                token: String::new(),
                pid: 2,
                resume: Some(9),
            },
            WorkerMsg::Ready {
                protocol: PROTOCOL_VERSION,
                pid: 3,
                spec_hash: 0xdead_beef,
            },
            WorkerMsg::ShardDone {
                results: vec![ShardResult {
                    id: 4,
                    metrics: vec![RunMetrics::with_epochs(2)],
                }],
                plans: vec![plan],
                seeded_hits: 5,
            },
        ] {
            check(&msg);
        }
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

        let plan = snip_opt::TwoStepOptimizer::new(
            snip_model::SnipModel::default(),
            snip_model::SlotProfile::roadside(),
        )
        .solve(86.4, 16.0);
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

    // The state-space explorer (`explore`), next to the wire tests.

    use super::explore::{check_state, explore, ExploreConfig, St, MIN_EXPLORED_STATES};
    use std::time::Duration;

    #[test]
    fn faultless_single_worker_run_is_tiny_and_clean() {
        let cfg = ExploreConfig {
            shards: 2,
            workers: 1,
            severs_per_worker: 0,
            restarts: 0,
            dups: 0,
            redials: 1,
            batch: 1,
            max_states: 100_000,
        };
        let report = explore(&cfg).expect("clean protocol");
        assert!(report.states > 5 && report.states < 1000, "{report}");
        assert!(report.complete_terminals >= 1);
        assert_eq!(report.incomplete_terminals, 0, "no faults, no failures");
        assert_eq!(report.batched_deals, 0, "batch 1 never packs frames");
    }

    #[test]
    fn default_bounds_clear_ten_thousand_states_with_invariants_holding() {
        let report = explore(&ExploreConfig::default()).expect("invariants hold");
        assert!(
            report.states >= MIN_EXPLORED_STATES,
            "the default bounds must explore at least {MIN_EXPLORED_STATES} states: {report}"
        );
        assert!(report.complete_terminals >= 1, "{report}");
        assert!(
            report.incomplete_terminals >= 1,
            "sever budgets must be able to exhaust a run: {report}"
        );
        assert!(report.dedup_absorptions > 0, "{report}");
        assert!(report.resume_redeliveries > 0, "{report}");
        assert!(report.batched_deals > 0, "default batch is 2: {report}");
        assert!(
            report.partial_batch_merges > 0,
            "a severed batch racing a reassignment must reach the \
             partially-stale merge: {report}"
        );
    }

    /// `batch: 1` deals one shard per `Shard` frame on the same fault
    /// budgets — everything still holds, nothing ever batches.
    #[test]
    fn batch_of_one_never_packs_a_frame() {
        let cfg = ExploreConfig {
            batch: 1,
            ..ExploreConfig::default()
        };
        let report = explore(&cfg).expect("invariants hold at batch 1");
        assert!(report.complete_terminals >= 1, "{report}");
        assert_eq!(report.batched_deals, 0, "{report}");
        assert_eq!(report.partial_batch_merges, 0, "{report}");
        assert!(report.dedup_absorptions > 0, "{report}");
    }

    /// A batch wider than `--shard-batch` would mean the coordinator
    /// ignored its own bound; the per-state invariant pins it.
    #[test]
    fn oversized_batch_assignment_is_caught() {
        let cfg = ExploreConfig::default();
        let mut st = St::initial(&cfg);
        st.core.force(&[], &[(0, &[0, 1, 2])]); // three jobs, bound is two
        let err = check_state(&st, &cfg).expect_err("must be rejected");
        assert!(err.invariant.contains("batch bound"), "{err}");
    }

    /// Requeueing a lost peer's batch without consulting the merged set
    /// would queue a shard whose result already merged (delivered, then
    /// the link died before the next deal). The invariant catches it.
    #[test]
    fn requeue_of_a_merged_shard_is_caught_by_the_invariant() {
        let cfg = ExploreConfig::default();
        let mut st = St::initial(&cfg);
        st.core.deal(0, 1);
        st.core
            .shard_done(Some(0), vec![(0, vec![()])], Duration::ZERO, &mut |_, _| {});
        st.core.force(&[1, 2, 0], &[]); // shard 0 merged *and* queued: the bad state
        let err = check_state(&st, &cfg).expect_err("must be rejected");
        assert!(err.invariant.contains("merged shard"), "{err}");
    }

    #[test]
    fn double_assignment_is_caught() {
        let cfg = ExploreConfig::default();
        let mut st = St::initial(&cfg);
        st.core.force(&[2], &[(0, &[0]), (1, &[0])]);
        let err = check_state(&st, &cfg).expect_err("must be rejected");
        assert!(err.invariant.contains("two workers"), "{err}");
    }
}
