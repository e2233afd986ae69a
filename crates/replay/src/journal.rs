//! Streaming journal I/O: JSONL and CBOR, autodetected by extension.
//!
//! Two encodings of the same event stream:
//!
//! * **JSONL** (`.json` / `.jsonl`) — one JSON object per line; greppable,
//!   diffable, editable. Floats use shortest round-trip formatting, so the
//!   text form is still bit-exact.
//! * **CBOR** (everything else; `.snipj` is the convention, `.cbor` and
//!   `.bin` work too) — RFC 8949 definite-length items, roughly 2–3×
//!   smaller and faster.
//!
//! Both are written and read *one event at a time*: a multi-week fleet run
//! streams through O(1) memory on both sides.

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use serde::{cbor, json, Deserialize as _, Serialize as _};

use crate::event::JournalEvent;

/// The two journal encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalFormat {
    /// One JSON object per line.
    Jsonl,
    /// Concatenated CBOR items.
    Cbor,
}

impl JournalFormat {
    /// Detects the format from a path's extension: `.json`/`.jsonl` mean
    /// [`JournalFormat::Jsonl`], anything else (the `.snipj` convention,
    /// `.cbor`, `.bin`, …) means [`JournalFormat::Cbor`].
    #[must_use]
    pub fn from_path(path: &Path) -> JournalFormat {
        match path
            .extension()
            .and_then(|e| e.to_str())
            .map(str::to_ascii_lowercase)
            .as_deref()
        {
            Some("json" | "jsonl") => JournalFormat::Jsonl,
            _ => JournalFormat::Cbor,
        }
    }
}

impl fmt::Display for JournalFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JournalFormat::Jsonl => "jsonl",
            JournalFormat::Cbor => "cbor",
        })
    }
}

/// A journal I/O or codec error.
#[derive(Debug)]
pub enum JournalError {
    /// An I/O failure.
    Io(io::Error),
    /// A malformed event (bad JSON/CBOR, or a shape mismatch).
    Codec(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Codec(msg) => write!(f, "journal codec error: {msg}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<serde::Error> for JournalError {
    fn from(e: serde::Error) -> Self {
        JournalError::Codec(e.to_string())
    }
}

/// A streaming journal writer.
pub struct JournalWriter<W: Write> {
    format: JournalFormat,
    out: W,
    events: u64,
}

impl JournalWriter<BufWriter<File>> {
    /// Creates (truncating) a journal file, format chosen by extension.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] if the file cannot be created.
    pub fn create(path: &Path) -> Result<Self, JournalError> {
        let format = JournalFormat::from_path(path);
        let file = File::create(path)?;
        Ok(JournalWriter::new(BufWriter::new(file), format))
    }
}

impl<W: Write> JournalWriter<W> {
    /// Wraps a writer with an explicit format.
    pub fn new(out: W, format: JournalFormat) -> Self {
        JournalWriter {
            format,
            out,
            events: 0,
        }
    }

    /// The journal's format.
    #[must_use]
    pub fn format(&self) -> JournalFormat {
        self.format
    }

    /// Events written so far.
    #[must_use]
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Appends one event.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on write failure.
    pub fn write(&mut self, event: &JournalEvent) -> Result<(), JournalError> {
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
        self.events += 1;
        Ok(())
    }

    /// Flushes buffered output.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on flush failure.
    pub fn flush(&mut self) -> Result<(), JournalError> {
        self.out.flush()?;
        Ok(())
    }

    /// Unwraps the underlying writer (without flushing).
    pub fn into_inner(self) -> W {
        self.out
    }
}

/// A streaming journal reader.
pub struct JournalReader<R: BufRead> {
    format: JournalFormat,
    input: R,
    events: u64,
    line_buf: String,
}

impl JournalReader<BufReader<File>> {
    /// Opens a journal file, format chosen by extension.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] if the file cannot be opened.
    pub fn open(path: &Path) -> Result<Self, JournalError> {
        let format = JournalFormat::from_path(path);
        let file = File::open(path)?;
        Ok(JournalReader::new(BufReader::new(file), format))
    }
}

impl<R: BufRead> JournalReader<R> {
    /// Wraps a reader with an explicit format.
    pub fn new(input: R, format: JournalFormat) -> Self {
        JournalReader {
            format,
            input,
            events: 0,
            line_buf: String::new(),
        }
    }

    /// The journal's format.
    #[must_use]
    pub fn format(&self) -> JournalFormat {
        self.format
    }

    /// Events read so far.
    #[must_use]
    pub fn events_read(&self) -> u64 {
        self.events
    }

    /// Reads the next event; `Ok(None)` on a clean end of journal.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError`] on I/O failure or a malformed event.
    pub fn next_event(&mut self) -> Result<Option<JournalEvent>, JournalError> {
        let value = match self.format {
            JournalFormat::Jsonl => loop {
                self.line_buf.clear();
                if self.input.read_line(&mut self.line_buf)? == 0 {
                    break None;
                }
                let line = self.line_buf.trim();
                if line.is_empty() {
                    continue;
                }
                break Some(json::from_str(line)?);
            },
            JournalFormat::Cbor => cbor::read_value(&mut self.input)?,
        };
        match value {
            None => Ok(None),
            Some(v) => {
                let event = JournalEvent::from_value(&v)?;
                self.events += 1;
                Ok(Some(event))
            }
        }
    }
}

impl<R: BufRead> Iterator for JournalReader<R> {
    type Item = Result<JournalEvent, JournalError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_event().transpose()
    }
}

/// Streams every event from `reader` into `writer` (format conversion).
///
/// Returns the number of events converted.
///
/// # Errors
///
/// Returns [`JournalError`] on the first read or write failure.
pub fn convert<R: BufRead, W: Write>(
    reader: &mut JournalReader<R>,
    writer: &mut JournalWriter<W>,
) -> Result<u64, JournalError> {
    let mut count = 0u64;
    while let Some(event) = reader.next_event()? {
        writer.write(&event)?;
        count += 1;
    }
    writer.flush()?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{JournalHeader, SchedulerSpec};
    use snip_sim::SimConfig;
    use snip_units::DutyCycle;

    fn sample_events() -> Vec<JournalEvent> {
        use snip_mobility::Contact;
        use snip_units::{SimDuration, SimTime};
        vec![
            JournalEvent::Header(JournalHeader::new(
                SchedulerSpec::At {
                    duty_cycle: DutyCycle::new(0.001).unwrap(),
                },
                SimConfig::paper_defaults().with_epochs(1),
                7,
            )),
            JournalEvent::Contact(Contact::new(
                SimTime::from_secs(3),
                SimDuration::from_millis(2_500),
            )),
            JournalEvent::TraceEnd { count: 1 },
            JournalEvent::RunEnd {
                metrics: snip_sim::RunMetrics::with_epochs(1),
            },
        ]
    }

    fn round_trip(format: JournalFormat) {
        let events = sample_events();
        let mut writer = JournalWriter::new(Vec::new(), format);
        for e in &events {
            writer.write(e).unwrap();
        }
        assert_eq!(writer.events_written(), events.len() as u64);
        let bytes = writer.into_inner();
        let mut reader = JournalReader::new(std::io::Cursor::new(bytes), format);
        let back: Vec<JournalEvent> = (&mut reader).map(Result::unwrap).collect();
        assert_eq!(back, events);
        assert_eq!(reader.events_read(), events.len() as u64);
    }

    #[test]
    fn jsonl_round_trips() {
        round_trip(JournalFormat::Jsonl);
    }

    #[test]
    fn cbor_round_trips() {
        round_trip(JournalFormat::Cbor);
    }

    #[test]
    fn format_detection_by_extension() {
        for (path, format) in [
            ("run.json", JournalFormat::Jsonl),
            ("run.JSONL", JournalFormat::Jsonl),
            ("run.snipj", JournalFormat::Cbor),
            ("run.cbor", JournalFormat::Cbor),
            ("run.bin", JournalFormat::Cbor),
            ("run", JournalFormat::Cbor),
        ] {
            assert_eq!(JournalFormat::from_path(Path::new(path)), format, "{path}");
        }
    }

    #[test]
    fn conversion_preserves_events() {
        let events = sample_events();
        let mut jsonl = JournalWriter::new(Vec::new(), JournalFormat::Jsonl);
        for e in &events {
            jsonl.write(e).unwrap();
        }
        let mut reader = JournalReader::new(
            std::io::Cursor::new(jsonl.into_inner()),
            JournalFormat::Jsonl,
        );
        let mut cbor = JournalWriter::new(Vec::new(), JournalFormat::Cbor);
        let n = convert(&mut reader, &mut cbor).unwrap();
        assert_eq!(n, events.len() as u64);
        let mut back =
            JournalReader::new(std::io::Cursor::new(cbor.into_inner()), JournalFormat::Cbor);
        let decoded: Vec<JournalEvent> = (&mut back).map(Result::unwrap).collect();
        assert_eq!(decoded, events);
    }

    #[test]
    fn garbage_is_a_codec_error() {
        let mut reader = JournalReader::new(
            std::io::Cursor::new(b"not json\n".to_vec()),
            JournalFormat::Jsonl,
        );
        assert!(matches!(reader.next_event(), Err(JournalError::Codec(_))));
    }

    #[test]
    fn blank_lines_are_skipped_in_jsonl() {
        let events = sample_events();
        let mut writer = JournalWriter::new(Vec::new(), JournalFormat::Jsonl);
        writer.write(&events[0]).unwrap();
        let mut bytes = writer.into_inner();
        bytes.extend_from_slice(b"\n\n");
        let mut reader = JournalReader::new(std::io::Cursor::new(bytes), JournalFormat::Jsonl);
        assert_eq!(reader.next_event().unwrap().unwrap(), events[0]);
        assert!(reader.next_event().unwrap().is_none());
    }
}
