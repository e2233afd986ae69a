//! Replay with divergence detection.
//!
//! [`replay_run`] re-executes a journal: it rebuilds the scheduler from the
//! header, replays the recorded contact trace as input, and verifies every
//! simulation event against the journal *as the simulation runs*. The first
//! mismatch aborts the run and reports, wasm-rr style, what the journal
//! expected versus what the live code did (times in microseconds,
//! duty-cycles as fractions — the journal's own units):
//!
//! ```text
//! replay diverged at sim event #18204:
//!   expected: Decision(DecisionRecord { now: SimTime(25200000000), duty_cycle: Some(DutyCycle(0.01)) })
//!   got:      Decision(DecisionRecord { now: SimTime(25200000000), duty_cycle: None })
//! ```
//!
//! A clean replay additionally checks the final [`RunMetrics`] against the
//! recorded trailer bit-for-bit, so per-epoch ζ/Φ/ρ are verified even if a
//! (hypothetical) event-stream-preserving metrics bug slipped in.
//!
//! The event stream holds what the run decides, not how the simulator
//! stepped through it, so a faster stepper replays old journals cleanly; a
//! divergence means the behaviour changed.

use std::fmt;
use std::io::BufRead;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Deserialize;
use snip_mobility::{Contact, ContactTrace};
use snip_sim::{ObserverFlow, RunMetrics, SimEvent, SimObserver, Simulation};

use crate::event::{JournalEvent, JournalHeader, SchedulerSpec, JOURNAL_VERSION};
use crate::journal::{JournalError, JournalReader};

/// A first-divergence report: where replay and journal disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Zero-based ordinal of the diverging sim event.
    pub index: u64,
    /// What the journal recorded at that point (`None`: journal ended).
    pub expected: Option<String>,
    /// What the live simulation produced (`None`: replay ended early).
    pub got: Option<String>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "replay diverged at sim event #{}:", self.index)?;
        match &self.expected {
            Some(e) => writeln!(f, "  expected: {e}")?,
            None => writeln!(f, "  expected: <end of journal>")?,
        }
        match &self.got {
            Some(g) => write!(f, "  got:      {g}"),
            None => write!(f, "  got:      <replay produced no further events>"),
        }
    }
}

/// Why a replay failed.
#[derive(Debug)]
pub enum ReplayError {
    /// The journal could not be read or decoded.
    Journal(JournalError),
    /// The journal does not start with a header.
    MissingHeader,
    /// The journal was written by an incompatible format version.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The trace section is malformed (out-of-order contacts, bad counts,
    /// unexpected event kinds).
    Malformed(String),
    /// The live simulation diverged from the recorded events.
    Divergence(Divergence),
    /// Events matched but the final metrics trailer does not.
    MetricsMismatch {
        /// The recorded metrics (trailer).
        recorded: Box<RunMetrics>,
        /// The metrics the replay produced.
        replayed: Box<RunMetrics>,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Journal(e) => write!(f, "{e}"),
            ReplayError::MissingHeader => {
                write!(f, "journal does not start with a Header event")
            }
            ReplayError::UnsupportedVersion { found } => write!(
                f,
                "unsupported journal version {found} (this build replays version \
                 {JOURNAL_VERSION} only; re-record the run)"
            ),
            ReplayError::Malformed(msg) => write!(f, "malformed journal: {msg}"),
            ReplayError::Divergence(d) => d.fmt(f),
            ReplayError::MetricsMismatch { .. } => write!(
                f,
                "replay produced the recorded event stream but different final metrics \
                 (metrics accounting changed?)"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<JournalError> for ReplayError {
    fn from(e: JournalError) -> Self {
        ReplayError::Journal(e)
    }
}

/// A successful replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// The journal's header.
    pub header: JournalHeader,
    /// The verified, bit-identical metrics.
    pub metrics: RunMetrics,
    /// Number of sim events verified.
    pub events_verified: u64,
    /// Number of contacts in the replayed trace.
    pub contacts: u64,
}

/// Verifies live sim events against the journal, stopping at the first
/// mismatch.
struct Verifier<'r, R: BufRead> {
    reader: &'r mut JournalReader<R>,
    index: u64,
    failure: Option<ReplayError>,
}

impl<R: BufRead> SimObserver for Verifier<'_, R> {
    fn observe(&mut self, got: &SimEvent) -> ObserverFlow {
        let expected = match self.reader.next_event() {
            Err(e) => {
                self.failure = Some(e.into());
                return ObserverFlow::Stop;
            }
            Ok(event) => event,
        };
        match expected {
            Some(JournalEvent::Sim(expected)) if &expected == got => {
                self.index += 1;
                ObserverFlow::Continue
            }
            Some(JournalEvent::Sim(expected)) => {
                self.failure = Some(ReplayError::Divergence(Divergence {
                    index: self.index,
                    expected: Some(format!("{expected:?}")),
                    got: Some(format!("{got:?}")),
                }));
                ObserverFlow::Stop
            }
            Some(other) => {
                // RunEnd (or garbage) while the live sim still emits events.
                self.failure = Some(ReplayError::Divergence(Divergence {
                    index: self.index,
                    expected: Some(format!("<{} event>", other.kind())),
                    got: Some(format!("{got:?}")),
                }));
                ObserverFlow::Stop
            }
            None => {
                self.failure = Some(ReplayError::Divergence(Divergence {
                    index: self.index,
                    expected: None,
                    got: Some(format!("{got:?}")),
                }));
                ObserverFlow::Stop
            }
        }
    }
}

/// The one field of a header event every journal version shares; decoding
/// skips the rest, whatever its shape.
#[derive(Deserialize)]
enum HeaderVersion {
    Header { version: u32 },
}

/// Reads a journal's header, refusing any version but [`JOURNAL_VERSION`]
/// before a later event is decoded: the header names the real problem,
/// where an older event shape would only fail to decode. A header of
/// another version whose body no longer decodes is still refused by its
/// version.
///
/// # Errors
///
/// Returns [`ReplayError::UnsupportedVersion`] for another version,
/// [`ReplayError::MissingHeader`] for an empty journal,
/// [`ReplayError::Malformed`] or [`ReplayError::Journal`] when the first
/// record is not a header, and a [`JournalError::Codec`] naming
/// `SimConfig` when the run configuration fails
/// [`SimConfig::check`](snip_sim::SimConfig::check), or the scheduler's
/// type when it fails [`SchedulerSpec::check`].
pub fn read_header<R: BufRead>(
    reader: &mut JournalReader<R>,
) -> Result<JournalHeader, ReplayError> {
    let format = reader.format();
    let Some(record) = reader.next_bytes()? else {
        return Err(ReplayError::MissingHeader);
    };
    if let Ok(HeaderVersion::Header { version }) = format.decode(record) {
        if version != JOURNAL_VERSION {
            return Err(ReplayError::UnsupportedVersion { found: version });
        }
    }
    match format.decode(record)? {
        JournalEvent::Header(h) => {
            h.config
                .check()
                .map_err(|why| JournalError::Codec(format!("header SimConfig: {why}")))?;
            h.scheduler
                .check()
                .map_err(|why| JournalError::Codec(format!("header scheduler {why}")))?;
            Ok(h)
        }
        other => Err(ReplayError::Malformed(format!(
            "expected Header as first event, got {}",
            other.kind()
        ))),
    }
}

/// Reads the header and trace section, leaving the reader positioned at the
/// first sim event.
fn read_preamble<R: BufRead>(
    reader: &mut JournalReader<R>,
) -> Result<(JournalHeader, ContactTrace), ReplayError> {
    let header = read_header(reader)?;

    let mut contacts: Vec<Contact> = Vec::new();
    loop {
        match reader.next_event()? {
            Some(JournalEvent::Contact(c)) => {
                if let Some(last) = contacts.last() {
                    if c.start < last.end() {
                        return Err(ReplayError::Malformed(format!(
                            "trace section out of order at contact {}",
                            contacts.len()
                        )));
                    }
                }
                contacts.push(c);
            }
            Some(JournalEvent::TraceEnd { count }) => {
                if count != contacts.len() as u64 {
                    return Err(ReplayError::Malformed(format!(
                        "TraceEnd says {count} contacts, journal carried {}",
                        contacts.len()
                    )));
                }
                break;
            }
            Some(other) => {
                return Err(ReplayError::Malformed(format!(
                    "expected Contact or TraceEnd in trace section, got {}",
                    other.kind()
                )))
            }
            None => {
                return Err(ReplayError::Malformed(
                    "journal ended inside the trace section".into(),
                ))
            }
        }
    }
    Ok((header, contacts.into_iter().collect()))
}

/// Replays a journal, verifying every event; see the module docs.
///
/// `override_scheduler` replaces the recorded scheduler spec — the flag
/// behind `snip replay --mechanism`, and the way tests (or users) prove the
/// divergence detector actually detects: replaying a SNIP-AT journal with a
/// SNIP-RH scheduler must fail at the first differing decision.
///
/// # Errors
///
/// Returns [`ReplayError`] on unreadable journals and on any divergence.
pub fn replay_run<R: BufRead>(
    reader: &mut JournalReader<R>,
    override_scheduler: Option<SchedulerSpec>,
) -> Result<ReplayReport, ReplayError> {
    let (header, trace) = read_preamble(reader)?;
    let spec = override_scheduler.unwrap_or_else(|| header.scheduler.clone());
    let scheduler = spec.build(&header.config);

    let mut sim = Simulation::new(header.config.clone(), &trace, scheduler);
    let mut verifier = Verifier {
        reader,
        index: 0,
        failure: None,
    };
    let replayed = sim.run_observed(&mut StdRng::seed_from_u64(header.seed), &mut verifier);
    let events_verified = verifier.index;
    if let Some(failure) = verifier.failure {
        return Err(failure);
    }

    // The live run is done; the journal must now hold exactly RunEnd.
    match reader.next_event()? {
        Some(JournalEvent::RunEnd { metrics: recorded }) => {
            if recorded != replayed {
                return Err(ReplayError::MetricsMismatch {
                    recorded: Box::new(recorded),
                    replayed: Box::new(replayed),
                });
            }
        }
        Some(JournalEvent::Sim(expected)) => {
            // The journal recorded more events than the replay produced.
            return Err(ReplayError::Divergence(Divergence {
                index: events_verified,
                expected: Some(format!("{expected:?}")),
                got: None,
            }));
        }
        Some(other) => {
            return Err(ReplayError::Malformed(format!(
                "expected RunEnd after sim events, got {}",
                other.kind()
            )))
        }
        None => {
            return Err(ReplayError::Malformed(
                "journal ended without a RunEnd trailer".into(),
            ))
        }
    }
    if let Some(extra) = reader.next_event()? {
        return Err(ReplayError::Malformed(format!(
            "unexpected {} event after RunEnd",
            extra.kind()
        )));
    }

    let contacts = trace.len() as u64;
    Ok(ReplayReport {
        header,
        metrics: replayed,
        events_verified,
        contacts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SchedulerSpec;
    use crate::journal::{JournalFormat, JournalWriter};
    use crate::record::record_run;
    use snip_core::SnipRhConfig;
    use snip_mobility::{EpochProfile, TraceGenerator};
    use snip_sim::SimConfig;
    use snip_units::{DutyCycle, SimDuration};

    fn roadside_journal(format: JournalFormat, spec: SchedulerSpec) -> (Vec<u8>, RunMetrics) {
        let trace = TraceGenerator::new(EpochProfile::roadside())
            .epochs(2)
            .generate(&mut StdRng::seed_from_u64(11));
        let header = JournalHeader::new(
            spec,
            SimConfig::paper_defaults()
                .with_epochs(2)
                .with_zeta_target_secs(16.0),
            17,
        );
        let mut writer = JournalWriter::new(Vec::new(), format);
        let metrics = record_run(&mut writer, &header, &trace).unwrap();
        (writer.into_inner(), metrics)
    }

    fn at_spec() -> SchedulerSpec {
        SchedulerSpec::At {
            duty_cycle: DutyCycle::new(0.001).unwrap(),
        }
    }

    fn rh_spec() -> SchedulerSpec {
        let mut marks = vec![false; 24];
        for h in [7, 8, 17, 18] {
            marks[h] = true;
        }
        SchedulerSpec::Rh {
            config: SnipRhConfig::paper_defaults(marks)
                .with_phi_max(SimDuration::from_secs_f64(86.4)),
        }
    }

    #[test]
    fn clean_replay_reproduces_metrics_bit_for_bit() {
        for format in [JournalFormat::Jsonl, JournalFormat::Cbor] {
            let (bytes, recorded) = roadside_journal(format, at_spec());
            let mut reader = JournalReader::new(std::io::Cursor::new(bytes), format);
            let report = replay_run(&mut reader, None).unwrap();
            assert_eq!(report.metrics, recorded, "{format}");
            // SNIP-AT's one decision, a probe and an upload per probed
            // contact, and the two epoch ends.
            assert_eq!(
                report.events_verified,
                1 + 2 * recorded.total_contacts_probed() + 2,
                "{format}"
            );
            assert_eq!(report.header.mechanism, "SNIP-AT");
        }
    }

    #[test]
    fn rh_journals_replay_cleanly_too() {
        let (bytes, recorded) = roadside_journal(JournalFormat::Cbor, rh_spec());
        let mut reader = JournalReader::new(std::io::Cursor::new(bytes), JournalFormat::Cbor);
        let report = replay_run(&mut reader, None).unwrap();
        assert_eq!(report.metrics, recorded);
    }

    #[test]
    fn different_scheduler_diverges_with_a_report() {
        let (bytes, _) = roadside_journal(JournalFormat::Cbor, at_spec());
        let mut reader = JournalReader::new(std::io::Cursor::new(bytes), JournalFormat::Cbor);
        let err = replay_run(&mut reader, Some(rh_spec())).unwrap_err();
        match err {
            ReplayError::Divergence(d) => {
                // SNIP-AT probes at 00:00; SNIP-RH stays silent off-peak —
                // the very first decision differs.
                assert_eq!(d.index, 0, "{d}");
                let text = d.to_string();
                assert!(text.contains("expected:"), "{text}");
                assert!(text.contains("got:"), "{text}");
            }
            other => panic!("expected divergence, got {other}"),
        }
    }

    #[test]
    fn tampered_event_is_rejected() {
        let (bytes, _) = roadside_journal(JournalFormat::Jsonl, at_spec());
        let mut text = String::from_utf8(bytes).unwrap();
        // Flip one recorded decision's duty-cycle.
        let needle = "\"duty_cycle\":0.001";
        let pos = text.find(needle).expect("journal has decisions");
        text.replace_range(pos..pos + needle.len(), "\"duty_cycle\":0.002");
        let mut reader = JournalReader::new(
            std::io::Cursor::new(text.into_bytes()),
            JournalFormat::Jsonl,
        );
        assert!(matches!(
            replay_run(&mut reader, None),
            Err(ReplayError::Divergence(_))
        ));
    }

    #[test]
    fn truncated_journal_is_rejected() {
        let (bytes, _) = roadside_journal(JournalFormat::Jsonl, at_spec());
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Drop the RunEnd trailer and the last few sim events.
        let truncated = lines[..lines.len() - 4].join("\n");
        let mut reader = JournalReader::new(
            std::io::Cursor::new(truncated.into_bytes()),
            JournalFormat::Jsonl,
        );
        let err = replay_run(&mut reader, None).unwrap_err();
        assert!(
            matches!(
                err,
                ReplayError::Divergence(Divergence { expected: None, .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn wrong_version_is_refused() {
        // Every version but JOURNAL_VERSION, older and newer, on both codecs.
        for format in [JournalFormat::Cbor, JournalFormat::Jsonl] {
            for version in [1, 2, 3, 4, 6, 999] {
                let mut header = JournalHeader::new(at_spec(), SimConfig::paper_defaults(), 1);
                header.version = version;
                let mut writer = JournalWriter::new(Vec::new(), format);
                writer.write(&JournalEvent::Header(header)).unwrap();
                let mut reader =
                    JournalReader::new(std::io::Cursor::new(writer.into_inner()), format);
                match replay_run(&mut reader, None) {
                    Err(ReplayError::UnsupportedVersion { found }) => assert_eq!(found, version),
                    other => panic!("version {version} must be refused, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn a_v4_opt_journal_is_refused_by_its_version() {
        // Version 4 wrote a SNIP-OPT header's profile slot by slot, a
        // shape this version's header does not decode.
        let profile = EpochProfile::roadside();
        let slots: Vec<String> = profile.slots().iter().map(serde::json::to_string).collect();
        let v4_profile = format!(
            r#"{{"slot_length":{},"slots":[{}]}}"#,
            serde::json::to_string(&profile.slot_length()),
            slots.join(",")
        );
        let mut header = JournalHeader::new(
            SchedulerSpec::Opt {
                profile: profile.clone(),
                phi_max_secs: 86.4,
                zeta_target: 24.0,
            },
            SimConfig::paper_defaults(),
            1,
        );
        header.version = 4;
        let line = serde::json::to_string(&JournalEvent::Header(header))
            .replace(&serde::json::to_string(&profile), &v4_profile);
        assert!(serde::json::decode::<JournalEvent>(&line).is_err());
        let cbor = serde::cbor::to_vec(&serde::json::from_str(&line).unwrap());
        for (format, bytes) in [
            (JournalFormat::Jsonl, line.into_bytes()),
            (JournalFormat::Cbor, cbor),
        ] {
            let mut reader = JournalReader::new(std::io::Cursor::new(bytes), format);
            match replay_run(&mut reader, None) {
                Err(ReplayError::UnsupportedVersion { found: 4 }) => {}
                other => panic!("{format}: a v4 journal must be refused by version, got {other:?}"),
            }
        }
    }

    #[test]
    fn missing_header_is_refused() {
        let mut writer = JournalWriter::new(Vec::new(), JournalFormat::Cbor);
        writer.write(&JournalEvent::TraceEnd { count: 0 }).unwrap();
        let mut reader = JournalReader::new(
            std::io::Cursor::new(writer.into_inner()),
            JournalFormat::Cbor,
        );
        assert!(matches!(
            replay_run(&mut reader, None),
            Err(ReplayError::Malformed(_))
        ));
        let mut empty = JournalReader::new(std::io::Cursor::new(Vec::new()), JournalFormat::Cbor);
        assert!(matches!(
            replay_run(&mut empty, None),
            Err(ReplayError::MissingHeader)
        ));
    }
}
