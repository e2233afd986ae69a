//! `snip-fleetd`: a transport-generic, work-stealing fleet driver with
//! deterministic shard merge.
//!
//! `Fleet::run` and `ScenarioRunner::sweep` (snip-sim) run one job after
//! another in one process; the paper's target deployments (10⁵+ probing
//! nodes) call for more. This crate is the one parallel route, across
//! processes and hosts: a **coordinator** cuts a [`FleetSpec`] — a
//! deployment fleet or a Fig 7/8 sweep grid — into contiguous shards and
//! deals them to **workers** over any [`Transport`]: the stdio pipes of
//! spawned `snip fleet-worker` re-execs ([`transport::PipeTransport`]), or
//! TCP sockets that remote `snip fleet-worker --connect` processes dial in
//! on ([`transport::TcpTransport`]), after an authenticated token +
//! spec-hash + protocol-version handshake. Frames are length-prefixed
//! CBOR (the journal codec on a stream, [`snip_replay::frame`]).
//!
//! * **Work stealing** — workers pull: each `ShardDone` immediately earns
//!   the next shard off the shared queue, so slow shards and fast workers
//!   balance without any static partition. A crashed, hung, or
//!   out-of-protocol peer is severed and its in-flight shard goes back
//!   on the queue for a healthy worker; on TCP, late joiners are admitted
//!   mid-run and a dead socket is exactly a killed worker.
//! * **Deterministic merge** — job `i` is a pure function of
//!   `(spec, i)`; results carry exact integer-µs [`RunMetrics`] ledgers
//!   and merge in index order. The output is bit-identical to the
//!   sequential [`Fleet::run`]/[`ScenarioRunner::sweep`] for every
//!   transport, worker count, steal order, and kill interleaving —
//!   `assert_eq!`, not "approximately".
//! * **Local plans** — each worker solves the SNIP-OPT plans its jobs
//!   need through its own process cache ([`snip_opt::solve_cached`]);
//!   no plan crosses the wire, and the coordinator keeps no plan state.
//!
//! The `snip` CLI (hosted here, at the top of the workspace) surfaces the
//! driver as `snip fleet --spec <file> --workers <k>`,
//! `snip fleet-serve --listen <addr> --token-file <f>` (multi-host
//! coordinator) and `snip fleet-worker --connect <addr> --token-file <f>`
//! (remote worker).
//!
//! [`Transport`]: transport::Transport
//! [`RunMetrics`]: snip_sim::RunMetrics
//! [`Fleet::run`]: snip_sim::Fleet::run
//! [`ScenarioRunner::sweep`]: snip_sim::ScenarioRunner::sweep

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod fault;
pub mod proto;
mod run_core;
pub mod spec;
pub mod transport;
pub mod worker;

pub use coordinator::{DriverError, DriverStats, FleetDriver, FleetRun, TcpConfig, TOKEN_ENV_VAR};
pub use fault::{
    ChaosPlan, FaultAction, FaultDirection, FaultKind, FaultPlan, FaultTransport, PeerFaults,
};
pub use proto::{CoordinatorMsg, PlanEntry, ShardJob, ShardResult, WorkerMsg, PROTOCOL_VERSION};
pub use spec::{example_spec, FleetOutput, FleetSpec, JobRunner, JobSpec, NodeSpec};
pub use transport::{PipeTransport, StreamTransport, TcpTransport, Transport};
pub use worker::{run_worker, run_worker_tcp, Backoff, ConnectOptions, WorkerError, WorkerSummary};
