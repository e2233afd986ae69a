//! Deterministic record/replay of SNIP simulations.
//!
//! The paper's evaluation (and this workspace's regression surface) lives
//! and dies by reproducibility: every figure is "a two-week simulation at
//! seed S". This crate makes each such run a *shareable artifact* — a
//! versioned event journal holding the input contact trace, every scheduler
//! decision, probe outcome and upload, the per-epoch ζ/Φ/ρ metrics, and
//! enough header metadata to re-execute the whole thing. Metric records are
//! exact integer-µs ledgers (journal v3), so replay asserts *equality* on
//! ζ/Φ — no tolerance; journals of any other version are refused:
//!
//! * [`record::record_run`] — run a simulation, streaming every event to a
//!   journal (JSONL or CBOR, autodetected by extension, O(1) memory).
//! * [`replay::replay_run`] — re-execute the journal and verify it
//!   event-for-event; the first mismatch aborts with a wasm-rr-style
//!   "expected X but got Y" divergence report, and a clean replay proves the
//!   recorded per-epoch metrics bit-for-bit.
//! * [`diff::diff_journals`] — compare two journals without re-running.
//! * [`journal::convert`] — translate between the text and binary formats.
//!
//! The `snip` binary (hosted by the `snip-fleetd` crate, the top of the
//! workspace) exposes all four as `snip record`, `snip replay`, `snip diff`
//! and `snip convert`. The [`frame`] module carries the journal's CBOR
//! encoding over length-prefixed frames — the fleet driver's wire
//! protocol.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use snip_mobility::{EpochProfile, TraceGenerator};
//! use snip_replay::event::{JournalHeader, SchedulerSpec};
//! use snip_replay::journal::{JournalFormat, JournalReader, JournalWriter};
//! use snip_replay::record::record_run;
//! use snip_replay::replay::replay_run;
//! use snip_sim::SimConfig;
//! use snip_units::DutyCycle;
//!
//! // Record two roadside epochs of SNIP-AT into an in-memory journal.
//! let trace = TraceGenerator::new(EpochProfile::roadside())
//!     .epochs(2)
//!     .generate(&mut rand::rngs::StdRng::seed_from_u64(1));
//! let header = JournalHeader::new(
//!     SchedulerSpec::At { duty_cycle: DutyCycle::new(0.001).unwrap() },
//!     SimConfig::paper_defaults().with_epochs(2),
//!     42,
//! );
//! let mut writer = JournalWriter::new(Vec::new(), JournalFormat::Cbor);
//! let recorded = record_run(&mut writer, &header, &trace).unwrap();
//!
//! // Replaying reproduces the run bit-for-bit.
//! let mut reader = JournalReader::new(
//!     std::io::Cursor::new(writer.into_inner()),
//!     JournalFormat::Cbor,
//! );
//! let report = replay_run(&mut reader, None).unwrap();
//! assert_eq!(report.metrics, recorded);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod diff;
pub mod event;
pub mod frame;
pub mod journal;
pub mod record;
pub mod replay;

pub use checkpoint::{
    load_checkpoint, load_checkpoint_from, CheckpointEvent, CheckpointHeader, CheckpointLoad,
    CheckpointWriter, CHECKPOINT_VERSION,
};
pub use diff::{diff_journals, DiffReport, FirstDifference};
pub use event::{
    JournalEvent, JournalHeader, SchedulerSpec, JOURNAL_VERSION, MIN_SUPPORTED_JOURNAL_VERSION,
};
pub use frame::{FrameError, FrameReader, FrameWriter};
pub use journal::{convert, JournalError, JournalFormat, JournalReader, JournalWriter};
pub use record::{record_run, RecordError, Recorder};
pub use replay::{replay_run, Divergence, ReplayError, ReplayReport};
