//! Run checkpoint journals: crash-safe shard-completion logs for fleet
//! coordinators.
//!
//! A fleet run's unit of durable progress is one merged `ShardDone` — a
//! shard ordinal plus its exact integer-µs [`RunMetrics`] ledgers. This
//! module gives that progress a file: an append-only journal in the same
//! two encodings as the event journals ([`crate::journal`], JSONL or CBOR
//! by extension), holding one [`CheckpointEvent::Header`] followed by one
//! [`CheckpointEvent::ShardDone`] per first-time shard merge. A
//! coordinator that crashes mid-run restarts with `--resume <journal>`:
//! finished shards are preloaded from the journal and never recomputed,
//! and because job `i` is a pure function of `(spec, i)`, the resumed
//! run's merged report is bit-identical to an uninterrupted one.
//!
//! **Crash safety.** Every append is flushed and fsynced before the shard
//! is counted complete in memory, so the journal never trails the
//! coordinator's announced progress. The converse tear — a crash *during*
//! an append — leaves a truncated final record; [`load_checkpoint`]
//! tolerates exactly that (the partial tail is dropped and reported via
//! [`CheckpointLoad::truncated`]), while a corrupt *header* or a record
//! that contradicts the header is a hard error.
//!
//! **Identity.** The header pins the spec hash and the shard count, so a
//! journal can never resume a different run shape: the loader hands both
//! back and the coordinator refuses mismatches before touching the queue.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Write};
use std::path::Path;

use serde::{cbor, json, Deserialize, Serialize};
use snip_sim::RunMetrics;

use crate::journal::{JournalError, JournalFormat};

/// Checkpoint journal format version. Bump on any event-shape change;
/// the loader refuses versions it does not speak.
pub const CHECKPOINT_VERSION: u32 = 1;

/// The first record of every checkpoint journal: which run this is a
/// checkpoint *of*.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointHeader {
    /// [`CHECKPOINT_VERSION`] at write time.
    pub version: u32,
    /// The fleet spec's digest — a resume against a different spec (or
    /// the same spec under a skewed codec) is refused.
    pub spec_hash: u64,
    /// How many shards the run was cut into — pins the shard geometry,
    /// so a resume with a different `--shard-size` is refused too.
    pub total_shards: u64,
    /// The spec's human-readable name (diagnostics only).
    pub name: String,
}

/// One checkpoint journal record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CheckpointEvent {
    /// Run identity; always first.
    Header(CheckpointHeader),
    /// Shard `shard` completed with these per-job metric ledgers
    /// (`metrics[k]` belongs to job `shard_start + k`, exactly the wire
    /// shape of the fleet protocol's `ShardDone`).
    ShardDone {
        /// The shard ordinal.
        shard: u64,
        /// Exact integer-µs ledgers, one per job in the shard.
        metrics: Vec<RunMetrics>,
    },
}

/// An append-only, fsync-per-record checkpoint journal writer.
///
/// Unlike [`crate::journal::JournalWriter`] this writer is deliberately
/// unbuffered: checkpoints are rare (one per shard) and each one must be
/// durable before the coordinator counts the shard done, so every append
/// is written, flushed, and `sync_data`ed as a unit.
pub struct CheckpointWriter {
    out: File,
    format: JournalFormat,
    events: u64,
}

impl CheckpointWriter {
    /// Creates (truncating) a checkpoint journal and writes its header.
    /// Format chosen by extension as for event journals.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on create/write/sync failure.
    pub fn create(path: &Path, header: &CheckpointHeader) -> Result<Self, JournalError> {
        let format = JournalFormat::from_path(path);
        let out = File::create(path)?;
        let mut writer = CheckpointWriter {
            out,
            format,
            events: 0,
        };
        writer.append(&CheckpointEvent::Header(header.clone()))?;
        Ok(writer)
    }

    /// Opens an existing checkpoint journal for appending (resume mode —
    /// the header is already on disk; validate it with
    /// [`load_checkpoint`] first).
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] if the file cannot be opened.
    pub fn append_to(path: &Path) -> Result<Self, JournalError> {
        let format = JournalFormat::from_path(path);
        let out = OpenOptions::new().append(true).open(path)?;
        Ok(CheckpointWriter {
            out,
            format,
            events: 0,
        })
    }

    /// Reopens a loaded journal for appending, first trimming the torn
    /// tail a crash mid-append left behind (if any). Appending *after* a
    /// torn record would strand every new record beyond it — the loader
    /// stops at the first tear — so resume must cut the file back to
    /// [`CheckpointLoad::valid_bytes`] before writing anything.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] if the file cannot be opened,
    /// truncated, or synced.
    pub fn resume(path: &Path, load: &CheckpointLoad) -> Result<Self, JournalError> {
        if load.truncated {
            let out = OpenOptions::new().write(true).open(path)?;
            out.set_len(load.valid_bytes)?;
            out.sync_data()?;
        }
        Self::append_to(path)
    }

    /// Events appended through this writer (excludes pre-existing ones).
    #[must_use]
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Appends one event, flushed and fsynced before returning: when this
    /// returns `Ok`, the record survives a crash of the caller or the
    /// host.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on write or sync failure.
    pub fn append(&mut self, event: &CheckpointEvent) -> Result<(), JournalError> {
        let value = event.to_value();
        match self.format {
            JournalFormat::Jsonl => {
                let mut line = json::to_string(&value);
                line.push('\n');
                self.out.write_all(line.as_bytes())?;
            }
            JournalFormat::Cbor => {
                cbor::write_value(&mut self.out, &value)?;
            }
        }
        self.out.flush()?;
        self.out.sync_data()?;
        self.events += 1;
        Ok(())
    }

    /// Appends a shard-completion record ([`CheckpointEvent::ShardDone`]).
    ///
    /// # Errors
    ///
    /// As [`CheckpointWriter::append`].
    pub fn append_shard(&mut self, shard: u64, metrics: &[RunMetrics]) -> Result<(), JournalError> {
        self.append(&CheckpointEvent::ShardDone {
            shard,
            metrics: metrics.to_vec(),
        })
    }
}

/// What [`load_checkpoint`] recovered from a journal.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointLoad {
    /// The journal's header (validate `spec_hash`/`total_shards` against
    /// the run being resumed).
    pub header: CheckpointHeader,
    /// Completed shards by ordinal. Duplicate records for one ordinal
    /// keep the first occurrence — determinism makes them identical
    /// anyway.
    pub shards: BTreeMap<u64, Vec<RunMetrics>>,
    /// True when the journal ended in a torn record (a crash mid-append):
    /// the partial tail was dropped, everything before it was recovered.
    pub truncated: bool,
    /// Byte length of the intact record prefix — the whole file when
    /// `truncated` is false, the offset of the torn tail otherwise.
    /// [`CheckpointWriter::resume`] cuts the file back to this before
    /// appending, so post-resume records are never stranded behind a tear.
    pub valid_bytes: u64,
}

/// A [`Read`] passthrough that counts the bytes handed out, so the
/// loader can recover the exact file offset of the last intact record
/// (counted bytes minus whatever still sits in the [`BufReader`]).
struct CountingReader<R> {
    inner: R,
    read: u64,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read += n as u64;
        Ok(n)
    }
}

/// Reads a checkpoint journal file back, tolerating a torn final record.
/// The format is chosen by extension as for event journals; see
/// [`load_checkpoint_from`] for what is accepted.
///
/// # Errors
///
/// Returns [`JournalError`] when the file cannot be opened, plus every
/// error of [`load_checkpoint_from`].
pub fn load_checkpoint(path: &Path) -> Result<CheckpointLoad, JournalError> {
    load_checkpoint_from(File::open(path)?, JournalFormat::from_path(path))
}

/// Reads a checkpoint journal from any byte stream, tolerating a torn
/// final record.
///
/// # Errors
///
/// Returns [`JournalError`] when the stream fails or is empty, does not
/// start with a [`CheckpointEvent::Header`], carries an unsupported
/// [`CheckpointHeader::version`], or holds a `ShardDone` for an ordinal
/// outside the header's `total_shards`. A decode failure *after* a valid
/// header is treated as the torn tail of an interrupted append, not an
/// error.
pub fn load_checkpoint_from<R: Read>(
    reader: R,
    format: JournalFormat,
) -> Result<CheckpointLoad, JournalError> {
    let mut input = BufReader::new(CountingReader {
        inner: reader,
        read: 0,
    });

    fn next_value<R: Read>(
        format: JournalFormat,
        input: &mut BufReader<CountingReader<R>>,
        line_buf: &mut String,
    ) -> Result<Option<serde::Value>, JournalError> {
        match format {
            JournalFormat::Jsonl => loop {
                line_buf.clear();
                use std::io::BufRead as _;
                if input.read_line(line_buf)? == 0 {
                    return Ok(None);
                }
                let line = line_buf.trim();
                if line.is_empty() {
                    continue;
                }
                return Ok(Some(json::from_str(line)?));
            },
            JournalFormat::Cbor => Ok(cbor::read_value(input)?),
        }
    }

    // The stream offset the loader has fully consumed: bytes pulled from
    // the stream minus what still sits unparsed in the BufReader.
    fn consumed<R>(input: &BufReader<CountingReader<R>>) -> u64 {
        input.get_ref().read - input.buffer().len() as u64
    }

    let mut line_buf = String::new();
    let header = match next_value(format, &mut input, &mut line_buf)? {
        Some(v) => match CheckpointEvent::from_value(&v)? {
            CheckpointEvent::Header(h) => h,
            other => {
                return Err(JournalError::Codec(format!(
                    "checkpoint journal does not start with a Header (got {other:?})"
                )))
            }
        },
        None => {
            return Err(JournalError::Codec(
                "checkpoint journal is empty (no header)".into(),
            ))
        }
    };
    if header.version != CHECKPOINT_VERSION {
        return Err(JournalError::Codec(format!(
            "checkpoint journal version {} is not supported (this build speaks {})",
            header.version, CHECKPOINT_VERSION
        )));
    }

    let mut shards = BTreeMap::new();
    let mut truncated = false;
    let mut valid_bytes = consumed(&input);
    loop {
        let value = match next_value(format, &mut input, &mut line_buf) {
            Ok(Some(v)) => v,
            Ok(None) => break,
            // A torn record can only be the last one (appends are
            // sequential and fsynced); drop it and keep the prefix.
            Err(_) => {
                truncated = true;
                break;
            }
        };
        match CheckpointEvent::from_value(&value) {
            Ok(CheckpointEvent::ShardDone { shard, metrics }) => {
                if shard >= header.total_shards {
                    return Err(JournalError::Codec(format!(
                        "checkpoint shard {shard} is outside the header's {} shard(s)",
                        header.total_shards
                    )));
                }
                shards.entry(shard).or_insert(metrics);
                valid_bytes = consumed(&input);
            }
            Ok(CheckpointEvent::Header(_)) => {
                return Err(JournalError::Codec(
                    "checkpoint journal holds a second Header".into(),
                ))
            }
            Err(_) => {
                truncated = true;
                break;
            }
        }
    }

    Ok(CheckpointLoad {
        header,
        shards,
        truncated,
        valid_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(total_shards: u64) -> CheckpointHeader {
        CheckpointHeader {
            version: CHECKPOINT_VERSION,
            spec_hash: 0xfeed_beef,
            total_shards,
            name: "checkpoint-test".into(),
        }
    }

    fn shard_metrics(seed: u64) -> Vec<RunMetrics> {
        vec![RunMetrics::with_epochs(1 + (seed as usize % 3)); 2]
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("snip-checkpoint-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_in_both_formats() {
        for name in ["rt.jsonl", "rt.snipj"] {
            let path = tmp(name);
            let mut w = CheckpointWriter::create(&path, &header(3)).unwrap();
            w.append_shard(0, &shard_metrics(0)).unwrap();
            w.append_shard(2, &shard_metrics(2)).unwrap();
            assert_eq!(w.events_written(), 3, "{name}: header + 2 shards");
            drop(w);

            let load = load_checkpoint(&path).unwrap();
            assert_eq!(load.header, header(3), "{name}");
            assert!(!load.truncated, "{name}");
            assert_eq!(
                load.shards.keys().copied().collect::<Vec<_>>(),
                vec![0, 2],
                "{name}"
            );
            assert_eq!(load.shards[&2], shard_metrics(2), "{name}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn append_to_extends_an_existing_journal() {
        let path = tmp("extend.snipj");
        let mut w = CheckpointWriter::create(&path, &header(4)).unwrap();
        w.append_shard(1, &shard_metrics(1)).unwrap();
        drop(w);
        let mut w = CheckpointWriter::append_to(&path).unwrap();
        w.append_shard(3, &shard_metrics(3)).unwrap();
        drop(w);

        let load = load_checkpoint(&path).unwrap();
        assert_eq!(load.shards.keys().copied().collect::<Vec<_>>(), vec![1, 3]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated_not_fatal() {
        for name in ["torn.jsonl", "torn.snipj"] {
            let path = tmp(name);
            let mut w = CheckpointWriter::create(&path, &header(3)).unwrap();
            w.append_shard(0, &shard_metrics(0)).unwrap();
            w.append_shard(1, &shard_metrics(1)).unwrap();
            drop(w);

            // Simulate a crash mid-append: chop bytes off the end.
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

            let load = load_checkpoint(&path).unwrap();
            assert!(load.truncated, "{name}: the tear must be reported");
            assert_eq!(
                load.shards.keys().copied().collect::<Vec<_>>(),
                vec![0],
                "{name}: the intact prefix survives"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn resume_trims_the_torn_tail_so_appended_records_survive_a_reload() {
        // The SIGKILL drill's failure shape: records appended behind a
        // torn tail are invisible to the next load (the loader stops at
        // the first tear). `resume` must cut the tear before appending.
        for name in ["trim.jsonl", "trim.snipj"] {
            let path = tmp(name);
            let mut w = CheckpointWriter::create(&path, &header(4)).unwrap();
            w.append_shard(0, &shard_metrics(0)).unwrap();
            w.append_shard(1, &shard_metrics(1)).unwrap();
            drop(w);

            // Crash mid-append of shard 1's record.
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

            let load = load_checkpoint(&path).unwrap();
            assert!(load.truncated, "{name}");
            assert!(
                load.valid_bytes < bytes.len() as u64 - 7,
                "{name}: the valid prefix ends before the torn record"
            );
            let mut w = CheckpointWriter::resume(&path, &load).unwrap();
            w.append_shard(2, &shard_metrics(2)).unwrap();
            w.append_shard(3, &shard_metrics(3)).unwrap();
            drop(w);

            let full = load_checkpoint(&path).unwrap();
            assert!(!full.truncated, "{name}: the tear is gone after the trim");
            assert_eq!(
                full.shards.keys().copied().collect::<Vec<_>>(),
                vec![0, 2, 3],
                "{name}: the intact prefix and both post-resume appends \
                 all load; nothing is stranded behind the (removed) tear"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn duplicate_shard_records_keep_the_first() {
        let path = tmp("dup.jsonl");
        let mut w = CheckpointWriter::create(&path, &header(2)).unwrap();
        let first = shard_metrics(0);
        w.append_shard(0, &first).unwrap();
        w.append_shard(0, &shard_metrics(2)).unwrap();
        drop(w);
        let load = load_checkpoint(&path).unwrap();
        assert_eq!(load.shards.len(), 1);
        assert_eq!(load.shards[&0], first);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_headers_are_hard_errors() {
        // Empty file.
        let path = tmp("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        assert!(matches!(
            load_checkpoint(&path),
            Err(JournalError::Codec(_))
        ));

        // Unsupported version.
        let mut bad = header(1);
        bad.version = CHECKPOINT_VERSION + 1;
        let mut w = CheckpointWriter::create(&path, &bad).unwrap();
        drop(w.append_shard(0, &shard_metrics(0)));
        match load_checkpoint(&path) {
            Err(JournalError::Codec(msg)) => assert!(msg.contains("version"), "{msg}"),
            other => panic!("expected a version refusal, got {other:?}"),
        }

        // A shard outside the header's geometry.
        let mut w = CheckpointWriter::create(&path, &header(1)).unwrap();
        w.append_shard(5, &shard_metrics(5)).unwrap();
        drop(w);
        match load_checkpoint(&path) {
            Err(JournalError::Codec(msg)) => assert!(msg.contains("outside"), "{msg}"),
            other => panic!("expected a geometry refusal, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }
}
