//! Recording: run a simulation and journal every event as it happens.

use std::fmt;
use std::io::Write;

use rand::rngs::StdRng;
use rand::SeedableRng;
use snip_mobility::ContactTrace;
use snip_sim::{ObserverFlow, RunMetrics, SimEvent, SimObserver, Simulation};

use crate::event::{JournalEvent, JournalHeader};
use crate::journal::{JournalError, JournalWriter};

/// A recording error.
#[derive(Debug)]
pub enum RecordError {
    /// The journal could not be written.
    Journal(JournalError),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Journal(e) => write!(f, "recording failed: {e}"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<JournalError> for RecordError {
    fn from(e: JournalError) -> Self {
        RecordError::Journal(e)
    }
}

/// A [`SimObserver`] that streams every event into a journal.
///
/// Write failures abort the run at the next event (the error is surfaced
/// when the recorder is [finished](Recorder::finish)).
pub struct Recorder<'w, W: Write> {
    writer: &'w mut JournalWriter<W>,
    error: Option<JournalError>,
    events: u64,
}

impl<'w, W: Write> Recorder<'w, W> {
    /// Wraps a journal writer.
    pub fn new(writer: &'w mut JournalWriter<W>) -> Self {
        Recorder {
            writer,
            error: None,
            events: 0,
        }
    }

    /// Sim events recorded so far.
    #[must_use]
    pub fn events_recorded(&self) -> u64 {
        self.events
    }

    /// Surfaces any deferred write error.
    ///
    /// # Errors
    ///
    /// Returns the first write failure that aborted the run, if any.
    pub fn finish(self) -> Result<u64, JournalError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.events),
        }
    }
}

impl<W: Write> SimObserver for Recorder<'_, W> {
    fn observe(&mut self, event: &SimEvent) -> ObserverFlow {
        match self.writer.write(&JournalEvent::Sim(event.clone())) {
            Ok(()) => {
                self.events += 1;
                ObserverFlow::Continue
            }
            Err(e) => {
                self.error = Some(e);
                ObserverFlow::Stop
            }
        }
    }
}

/// Records one complete run into `writer`: header, the full input trace,
/// every simulation event, and the final metrics.
///
/// The run is driven exactly like [`Simulation::run`] — the scheduler is
/// rebuilt from `header.scheduler` and the RNG seeded with `header.seed` —
/// so a later [`replay`](crate::replay::replay_run) reproduces it
/// deterministically.
///
/// # Errors
///
/// Returns [`RecordError`] if the journal cannot be written.
pub fn record_run<W: Write>(
    writer: &mut JournalWriter<W>,
    header: &JournalHeader,
    trace: &ContactTrace,
) -> Result<RunMetrics, RecordError> {
    writer.write(&JournalEvent::Header(header.clone()))?;
    for contact in trace.iter() {
        writer.write(&JournalEvent::Contact(*contact))?;
    }
    writer.write(&JournalEvent::TraceEnd {
        count: trace.len() as u64,
    })?;

    let scheduler = header.scheduler.build(&header.config);
    let mut sim = Simulation::new(header.config.clone(), trace, scheduler);
    let mut recorder = Recorder::new(writer);
    let metrics = sim.run_observed(&mut StdRng::seed_from_u64(header.seed), &mut recorder);
    recorder.finish()?;

    writer.write(&JournalEvent::RunEnd {
        metrics: metrics.clone(),
    })?;
    writer.flush()?;
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SchedulerSpec;
    use crate::journal::{JournalFormat, JournalReader};
    use snip_mobility::{EpochProfile, TraceGenerator};
    use snip_sim::SimConfig;
    use snip_units::DutyCycle;

    fn record_to_vec() -> (Vec<u8>, RunMetrics) {
        let trace = TraceGenerator::new(EpochProfile::roadside())
            .epochs(2)
            .generate(&mut StdRng::seed_from_u64(1));
        let header = JournalHeader::new(
            SchedulerSpec::At {
                duty_cycle: DutyCycle::new(0.001).unwrap(),
            },
            SimConfig::paper_defaults().with_epochs(2),
            9,
        );
        let mut writer = JournalWriter::new(Vec::new(), JournalFormat::Cbor);
        let metrics = record_run(&mut writer, &header, &trace).unwrap();
        (writer.into_inner(), metrics)
    }

    #[test]
    fn journal_has_the_full_grammar() {
        let (bytes, metrics) = record_to_vec();
        let mut reader = JournalReader::new(std::io::Cursor::new(bytes), JournalFormat::Cbor);
        let events: Vec<JournalEvent> = (&mut reader).map(Result::unwrap).collect();

        assert!(matches!(events[0], JournalEvent::Header(_)));
        let contacts = events
            .iter()
            .filter(|e| matches!(e, JournalEvent::Contact(_)))
            .count() as u64;
        let Some(JournalEvent::TraceEnd { count }) = events
            .iter()
            .find(|e| matches!(e, JournalEvent::TraceEnd { .. }))
        else {
            panic!("no TraceEnd");
        };
        assert_eq!(*count, contacts);
        assert!(contacts > 100, "two roadside epochs have ~176 contacts");

        // The v4 stream of a loss-free SNIP-AT run: its one decision, a
        // heard probe per probed contact, and two epoch ends. The config
        // senses no data, so nothing is uploaded.
        let mut kinds = [0u64; 4];
        for e in &events {
            if let JournalEvent::Sim(sim) = e {
                match sim {
                    SimEvent::Decision(_) => kinds[0] += 1,
                    SimEvent::Probe { beacon_heard, .. } => {
                        assert!(beacon_heard);
                        kinds[1] += 1;
                    }
                    SimEvent::Upload { .. } => kinds[2] += 1,
                    SimEvent::EpochEnd { .. } => kinds[3] += 1,
                }
            }
        }
        let probed = metrics.total_contacts_probed();
        assert!(probed > 0);
        assert_eq!(kinds, [1, probed, 0, 2]);

        match events.last() {
            Some(JournalEvent::RunEnd { metrics: m }) => assert_eq!(m, &metrics),
            other => panic!("journal must end with RunEnd, got {other:?}"),
        }
    }

    #[test]
    fn epoch_end_events_match_final_metrics() {
        let (bytes, metrics) = record_to_vec();
        let mut reader = JournalReader::new(std::io::Cursor::new(bytes), JournalFormat::Cbor);
        let mut seen = 0u64;
        while let Some(e) = reader.next_event().unwrap() {
            if let JournalEvent::Sim(SimEvent::EpochEnd { epoch, metrics: em }) = e {
                assert_eq!(em, metrics.epochs()[epoch as usize], "epoch {epoch}");
                seen += 1;
            }
        }
        assert_eq!(seen, 2);
    }
}
