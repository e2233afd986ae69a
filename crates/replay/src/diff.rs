//! Journal-to-journal comparison.
//!
//! [`diff_journals`] streams two journals side by side and reports the first
//! differing event — the cross-run analogue of replay's divergence check.
//! Comparing a journal recorded before a scheduler change against one
//! recorded after pinpoints the exact decision where behaviour drifted,
//! without re-running anything.
//!
//! Events compare on their *decoded* form, so a JSONL and a CBOR recording
//! of the same run are equal.

use std::fmt;
use std::io::BufRead;

use crate::journal::{JournalError, JournalReader};

/// The first point where two journals disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct FirstDifference {
    /// Zero-based event ordinal (over all journal events, header included).
    pub index: u64,
    /// Journal A's event at that ordinal (`None`: A ended first).
    pub a: Option<String>,
    /// Journal B's event at that ordinal (`None`: B ended first).
    pub b: Option<String>,
}

impl fmt::Display for FirstDifference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "journals diverge at event #{}:", self.index)?;
        match &self.a {
            Some(a) => writeln!(f, "  a: {a}")?,
            None => writeln!(f, "  a: <end of journal>")?,
        }
        match &self.b {
            Some(b) => write!(f, "  b: {b}"),
            None => write!(f, "  b: <end of journal>"),
        }
    }
}

/// The outcome of a journal diff.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// The first difference, if the journals are not identical.
    pub first_difference: Option<FirstDifference>,
    /// Total events in journal A.
    pub events_a: u64,
    /// Total events in journal B.
    pub events_b: u64,
}

impl DiffReport {
    /// `true` when the journals are event-for-event identical.
    #[must_use]
    pub fn identical(&self) -> bool {
        self.first_difference.is_none()
    }
}

/// Streams both journals and compares event-for-event.
///
/// After the first difference both journals are still drained (cheaply) so
/// the report carries exact event counts.
///
/// # Errors
///
/// Returns [`JournalError`] if either journal cannot be read.
pub fn diff_journals<A: BufRead, B: BufRead>(
    a: &mut JournalReader<A>,
    b: &mut JournalReader<B>,
) -> Result<DiffReport, JournalError> {
    let mut index = 0u64;
    let mut first_difference = None;
    let (events_a, events_b) = loop {
        let ea = a.next_event()?;
        let eb = b.next_event()?;
        match (ea, eb) {
            (None, None) => break (index, index),
            (ea, eb) if first_difference.is_none() && ea != eb => {
                first_difference = Some(FirstDifference {
                    index,
                    a: ea.as_ref().map(|e| format!("{e:?}")),
                    b: eb.as_ref().map(|e| format!("{e:?}")),
                });
                index += 1;
                // Drain both sides for the counts.
                let mut na = index - 1 + u64::from(ea.is_some());
                let mut nb = index - 1 + u64::from(eb.is_some());
                while a.next_event()?.is_some() {
                    na += 1;
                }
                while b.next_event()?.is_some() {
                    nb += 1;
                }
                break (na, nb);
            }
            _ => index += 1,
        }
    };
    Ok(DiffReport {
        first_difference,
        events_a,
        events_b,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{JournalEvent, JournalHeader, SchedulerSpec};
    use crate::journal::{JournalFormat, JournalWriter};
    use snip_sim::SimConfig;
    use snip_units::DutyCycle;

    fn journal_with(seed: u64, extra: usize) -> Vec<u8> {
        let header = JournalHeader::new(
            SchedulerSpec::At {
                duty_cycle: DutyCycle::new(0.001).unwrap(),
            },
            SimConfig::paper_defaults(),
            seed,
        );
        let mut w = JournalWriter::new(Vec::new(), JournalFormat::Cbor);
        w.write(&JournalEvent::Header(header)).unwrap();
        for _ in 0..extra {
            w.write(&JournalEvent::TraceEnd { count: 0 }).unwrap();
        }
        w.into_inner()
    }

    fn reader(bytes: Vec<u8>) -> JournalReader<std::io::Cursor<Vec<u8>>> {
        JournalReader::new(std::io::Cursor::new(bytes), JournalFormat::Cbor)
    }

    #[test]
    fn identical_journals_diff_clean() {
        let report = diff_journals(
            &mut reader(journal_with(1, 2)),
            &mut reader(journal_with(1, 2)),
        )
        .unwrap();
        assert!(report.identical());
        assert_eq!(report.events_a, 3);
        assert_eq!(report.events_b, 3);
    }

    #[test]
    fn different_headers_reported_at_index_zero() {
        let report = diff_journals(
            &mut reader(journal_with(1, 1)),
            &mut reader(journal_with(2, 1)),
        )
        .unwrap();
        let d = report.first_difference.expect("seeds differ");
        assert_eq!(d.index, 0);
        assert!(d.a.is_some() && d.b.is_some());
    }

    #[test]
    fn length_mismatch_reported_at_shorter_end() {
        let report = diff_journals(
            &mut reader(journal_with(1, 1)),
            &mut reader(journal_with(1, 3)),
        )
        .unwrap();
        let d = report.first_difference.expect("lengths differ");
        assert_eq!(d.index, 2);
        assert!(d.a.is_none());
        assert!(d.b.is_some());
        assert_eq!(report.events_a, 2);
        assert_eq!(report.events_b, 4);
    }

    #[test]
    fn display_is_wasm_rr_shaped() {
        let d = FirstDifference {
            index: 7,
            a: Some("X".into()),
            b: None,
        };
        let text = d.to_string();
        assert!(text.contains("event #7"));
        assert!(text.contains("a: X"));
        assert!(text.contains("b: <end of journal>"));
    }
}
