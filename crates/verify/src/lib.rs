//! `snip-verify`: the machinery behind `snip lint` and `snip fuzz`, two of
//! the legs that guard the workspace's one load-bearing claim,
//! bit-identical determinism. The third, `snip check-proto`, lives in
//! `snip-fleetd` (`snip_fleetd::proto::explore`), next to the
//! coordinator state machine it explores.
//!
//! * [`lint`] — a hand-rolled, token-level static-analysis pass over the
//!   workspace's own sources. The determinism contract every PR relies on
//!   ("no wall clock in deterministic code", "no hash-order iteration",
//!   "no ambient RNG", "no float accumulation in the integer-µs
//!   ledgers", "no `unsafe`") is enforced as machine-checked rules with a
//!   narrow, justification-carrying `// snip-lint: allow(<rule>)` escape
//!   hatch.
//! * [`fuzz`] — a seeded structured fuzzer for the three decoders that
//!   face untrusted bytes (frame reader, journal decoder, checkpoint
//!   loader): xorshift-driven structural mutations of valid corpora,
//!   bit-reproducible per `(seed, iters)`, with automatic minimization
//!   and a replayable on-disk crash corpus (`ci/corpus/`).
//!
//! Everything here is std-only (plus the workspace's own crates), in the
//! same spirit as the hand-rolled thread pool and HTTP endpoint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod lint;
