//! Deterministic fault injection for fleet transports.
//!
//! The fleet protocol is an explicit state machine, so its crash safety
//! can be checked the way coverability checkers treat transition systems:
//! enumerate fault-injected paths and assert the bad states — hang,
//! partial merge, double count — are unreachable. This module supplies
//! the enumerable faults. A [`FaultPlan`] scripts *what* goes wrong and
//! *when* ("sever the link while sending frame 3", "deliver frame 5
//! twice"), and [`FaultTransport`] wraps any [`Transport`] to execute the
//! plan at exact frame ordinals — no timers, no randomness, the same plan
//! produces the same wire history every run.
//!
//! Plans are serializable (`ChaosPlan` ↔ JSON), so a fault schedule can
//! be committed next to the test that pins the behavior it provokes —
//! `snip fleet … --chaos-plan plan.json` runs a production binary under a
//! reproducible storm.
//!
//! Frame ordinals are **1-based per direction per peer**: `at_frame: 3`
//! with [`FaultDirection::Tx`] strikes the 3rd frame this side *sends*
//! to the wrapped peer. Replayed deliveries (a duplicate's second copy, a
//! reordered hold-back) do not advance the ordinal — ordinals count wire
//! frames, not deliveries. Every action fires at most once.

use std::collections::VecDeque;
use std::io;
use std::time::Duration;

use serde::{json, Deserialize, Serialize};
use snip_replay::frame::FrameError;

use crate::transport::{RecvError, Transport};

/// Which side of the wrapped transport an action strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultDirection {
    /// Outgoing frames (this side's sends).
    Tx,
    /// Incoming frames (this side's receives).
    Rx,
}

/// What goes wrong when an action fires.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Cut the connection. On Tx the frame is never sent and the send
    /// errors; on Rx the pending frame is never delivered and the receive
    /// reports a closed stream.
    Sever,
    /// Stall the frame by this many milliseconds, then let it through.
    Delay {
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// Tear the frame mid-write: the peer receives a damaged frame
    /// (length header promising bytes that never arrive, or an
    /// undecodable payload), then the connection is cut. On Rx this acts
    /// as [`FaultKind::Sever`] — an inbound tear is indistinguishable
    /// from one.
    Truncate,
    /// Deliver the frame twice (the duplicate immediately follows the
    /// original).
    Duplicate,
    /// Hold this frame back and swap it with the next one in the same
    /// direction: the peer observes frame N+1 before frame N.
    ReorderNext,
}

/// One scripted fault: strike the `at_frame`-th frame (1-based) in
/// direction `dir` with `kind`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultAction {
    /// Which direction's ordinal counter this action watches.
    pub dir: FaultDirection,
    /// The 1-based wire-frame ordinal to strike.
    pub at_frame: u64,
    /// The fault to inject.
    pub kind: FaultKind,
}

/// A fault schedule for one peer's transport.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scripted faults; each fires at most once.
    pub actions: Vec<FaultAction>,
}

/// The fault schedule for one admitted peer, keyed by admission ordinal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerFaults {
    /// The peer's admission ordinal (0-based: the order the coordinator
    /// admitted or spawned workers).
    pub peer: u64,
    /// That peer's schedule.
    pub plan: FaultPlan,
}

/// A whole run's fault schedule: per-peer plans.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// One entry per afflicted peer; unlisted peers run clean.
    pub peers: Vec<PeerFaults>,
}

impl ChaosPlan {
    /// The fault plan for admission ordinal `peer`, if any.
    #[must_use]
    pub fn plan_for(&self, peer: usize) -> Option<FaultPlan> {
        self.peers
            .iter()
            .find(|p| p.peer == peer as u64)
            .map(|p| p.plan.clone())
    }

    /// Parses a plan from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns the codec error message on malformed JSON or shape.
    pub fn from_json(text: &str) -> Result<ChaosPlan, String> {
        json::decode(text).map_err(|e| e.to_string())
    }

    /// Renders the plan as JSON (the `--chaos-plan` file format).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

/// A [`Transport`] wrapper that executes a [`FaultPlan`] against the
/// frames crossing it. Deterministic: faults key on per-direction wire
/// ordinals, never on time.
pub struct FaultTransport {
    inner: Box<dyn Transport>,
    plan: FaultPlan,
    consumed: Vec<bool>,
    /// Wire frames sent / received so far (replays excluded).
    tx_count: u64,
    rx_count: u64,
    /// A Tx `ReorderNext` hold-back, sent after the next outgoing frame.
    tx_held: Option<Vec<u8>>,
    /// Payloads owed before the next wire frame (duplicates, reordered
    /// hold-backs).
    rx_replay: VecDeque<Vec<u8>>,
}

impl FaultTransport {
    /// Wraps `inner` under `plan`.
    #[must_use]
    pub fn new(inner: Box<dyn Transport>, plan: FaultPlan) -> FaultTransport {
        let consumed = vec![false; plan.actions.len()];
        FaultTransport {
            inner,
            plan,
            consumed,
            tx_count: 0,
            rx_count: 0,
            tx_held: None,
            rx_replay: VecDeque::new(),
        }
    }

    /// The index of the unfired action for (`dir`, `frame`), if any.
    fn pending_action(&self, dir: FaultDirection, frame: u64) -> Option<usize> {
        self.plan
            .actions
            .iter()
            .enumerate()
            .find(|(i, a)| a.dir == dir && a.at_frame == frame && !self.consumed[*i])
            .map(|(i, _)| i)
    }

    fn severed_err() -> FrameError {
        FrameError::Io(io::Error::new(
            io::ErrorKind::BrokenPipe,
            "fault injection severed the transport",
        ))
    }
}

impl Transport for FaultTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), FrameError> {
        self.tx_count += 1;
        let action = self.pending_action(FaultDirection::Tx, self.tx_count);
        let mut flush_held = true;
        match action.map(|i| {
            self.consumed[i] = true;
            self.plan.actions[i].kind.clone()
        }) {
            Some(FaultKind::Sever) => {
                self.inner.sever();
                return Err(Self::severed_err());
            }
            Some(FaultKind::Delay { ms }) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.send_frame(frame)?;
            }
            Some(FaultKind::Truncate) => {
                // The tear is the peer's problem; this side discovers the
                // cut on its next operation, like a real mid-write crash.
                let _ = self.inner.send_truncated(frame);
                self.inner.sever();
                return Ok(());
            }
            Some(FaultKind::Duplicate) => {
                self.inner.send_frame(frame)?;
                self.inner.send_frame(frame)?;
            }
            Some(FaultKind::ReorderNext) => {
                // An earlier unflushed hold-back goes first — hold-backs
                // never jump more than one frame.
                if let Some(prior) = self.tx_held.take() {
                    self.inner.send_frame(&prior)?;
                }
                self.tx_held = Some(frame.to_vec());
                flush_held = false;
            }
            None => self.inner.send_frame(frame)?,
        }
        if flush_held {
            if let Some(held) = self.tx_held.take() {
                self.inner.send_frame(&held)?;
            }
        }
        Ok(())
    }

    fn recv_frame(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, RecvError> {
        if let Some(v) = self.rx_replay.pop_front() {
            return Ok(Some(v));
        }
        let next = self.rx_count + 1;
        let action = self.pending_action(FaultDirection::Rx, next);
        match action.map(|i| self.plan.actions[i].kind.clone()) {
            // The doomed frame is never read off the wire — severing
            // before the receive makes the loss deterministic even when
            // the pump already buffered it.
            Some(FaultKind::Sever | FaultKind::Truncate) => {
                self.consumed[action.expect("matched")] = true;
                self.inner.sever();
                Ok(None)
            }
            Some(FaultKind::Delay { ms }) => {
                self.consumed[action.expect("matched")] = true;
                std::thread::sleep(Duration::from_millis(ms));
                let v = self.inner.recv_frame(timeout)?;
                if v.is_some() {
                    self.rx_count += 1;
                }
                Ok(v)
            }
            Some(FaultKind::Duplicate) => match self.inner.recv_frame(timeout)? {
                // Consume only on delivery: a timeout retry still owes the
                // duplicate when the frame eventually lands.
                Some(v) => {
                    self.consumed[action.expect("matched")] = true;
                    self.rx_count += 1;
                    self.rx_replay.push_back(v.clone());
                    Ok(Some(v))
                }
                None => Ok(None),
            },
            Some(FaultKind::ReorderNext) => match self.inner.recv_frame(timeout)? {
                Some(first) => {
                    self.consumed[action.expect("matched")] = true;
                    self.rx_count += 1;
                    match self.inner.recv_frame(timeout) {
                        Ok(Some(second)) => {
                            self.rx_count += 1;
                            self.rx_replay.push_back(first);
                            Ok(Some(second))
                        }
                        // Nothing to swap with: the held frame is the
                        // stream's last word, deliver it as-is.
                        Ok(None) => Ok(Some(first)),
                        // Keep the hold-back deliverable on the caller's
                        // retry instead of losing it to the error.
                        Err(e) => {
                            self.rx_replay.push_back(first);
                            Err(e)
                        }
                    }
                }
                None => Ok(None),
            },
            None => {
                let v = self.inner.recv_frame(timeout)?;
                if v.is_some() {
                    self.rx_count += 1;
                }
                Ok(v)
            }
        }
    }

    fn sever(&mut self) {
        self.inner.sever();
    }

    fn send_truncated(&mut self, frame: &[u8]) -> Result<(), FrameError> {
        self.inner.send_truncated(frame)
    }

    fn unlock_frame_limit(&mut self) {
        self.inner.unlock_frame_limit();
    }

    fn peer(&self) -> String {
        format!("chaos:{}", self.inner.peer())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{recv_msg, send_msg, StreamTransport};
    use serde::Value;
    use snip_replay::frame::FrameWriter;
    use std::io::Cursor;
    use std::sync::{Arc, Mutex};

    /// A growable byte sink that stays readable after the transport that
    /// wrote into it is boxed away.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn scripted(values: &[Value]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = FrameWriter::new(&mut buf);
        for v in values {
            w.send(v).unwrap();
        }
        buf
    }

    fn frames_in(buf: &SharedBuf) -> Vec<Value> {
        let bytes = buf.0.lock().unwrap().clone();
        let mut r = snip_replay::frame::FrameReader::new(Cursor::new(bytes));
        let mut out = Vec::new();
        while let Some(v) = r.recv_value().unwrap() {
            out.push(v);
        }
        out
    }

    fn wrap(script: Vec<u8>, out: SharedBuf, plan: FaultPlan) -> FaultTransport {
        FaultTransport::new(
            Box::new(StreamTransport::new(Cursor::new(script), out, "test")),
            plan,
        )
    }

    fn v(n: u64) -> Value {
        Value::U64(n)
    }

    #[test]
    fn clean_plan_is_a_transparent_passthrough() {
        let out = SharedBuf::default();
        let mut t = wrap(scripted(&[v(1), v(2)]), out.clone(), FaultPlan::default());
        assert_eq!(recv_msg::<Value>(&mut t, None).unwrap(), Some(v(1)));
        assert_eq!(recv_msg::<Value>(&mut t, None).unwrap(), Some(v(2)));
        assert_eq!(recv_msg::<Value>(&mut t, None).unwrap(), None);
        send_msg(&mut t, &v(10)).unwrap();
        assert_eq!(frames_in(&out), vec![v(10)]);
    }

    #[test]
    fn tx_faults_strike_exact_ordinals() {
        let plan = FaultPlan {
            actions: vec![
                FaultAction {
                    dir: FaultDirection::Tx,
                    at_frame: 1,
                    kind: FaultKind::Duplicate,
                },
                FaultAction {
                    dir: FaultDirection::Tx,
                    at_frame: 2,
                    kind: FaultKind::ReorderNext,
                },
            ],
        };
        let out = SharedBuf::default();
        let mut t = wrap(Vec::new(), out.clone(), plan);
        send_msg(&mut t, &v(1)).unwrap(); // duplicated
        send_msg(&mut t, &v(2)).unwrap(); // held back
        send_msg(&mut t, &v(3)).unwrap(); // jumps the queue
        send_msg(&mut t, &v(4)).unwrap(); // clean
        assert_eq!(frames_in(&out), vec![v(1), v(1), v(3), v(2), v(4)]);
    }

    #[test]
    fn tx_sever_breaks_the_send_and_the_peer_sees_nothing_more() {
        let plan = FaultPlan {
            actions: vec![FaultAction {
                dir: FaultDirection::Tx,
                at_frame: 2,
                kind: FaultKind::Sever,
            }],
        };
        let out = SharedBuf::default();
        let mut t = wrap(Vec::new(), out.clone(), plan);
        send_msg(&mut t, &v(1)).unwrap();
        assert!(
            send_msg(&mut t, &v(2)).is_err(),
            "the severed send must error"
        );
        assert_eq!(frames_in(&out), vec![v(1)], "frame 2 never hit the wire");
    }

    #[test]
    fn rx_duplicate_delivers_twice_without_advancing_ordinals() {
        let plan = FaultPlan {
            actions: vec![FaultAction {
                dir: FaultDirection::Rx,
                at_frame: 2,
                kind: FaultKind::Duplicate,
            }],
        };
        let mut t = wrap(scripted(&[v(1), v(2), v(3)]), SharedBuf::default(), plan);
        assert_eq!(recv_msg::<Value>(&mut t, None).unwrap(), Some(v(1)));
        assert_eq!(recv_msg::<Value>(&mut t, None).unwrap(), Some(v(2)));
        assert_eq!(
            recv_msg::<Value>(&mut t, None).unwrap(),
            Some(v(2)),
            "the duplicate"
        );
        assert_eq!(recv_msg::<Value>(&mut t, None).unwrap(), Some(v(3)));
        assert_eq!(recv_msg::<Value>(&mut t, None).unwrap(), None);
    }

    #[test]
    fn rx_reorder_swaps_adjacent_frames() {
        let plan = FaultPlan {
            actions: vec![FaultAction {
                dir: FaultDirection::Rx,
                at_frame: 1,
                kind: FaultKind::ReorderNext,
            }],
        };
        let mut t = wrap(scripted(&[v(1), v(2), v(3)]), SharedBuf::default(), plan);
        assert_eq!(recv_msg::<Value>(&mut t, None).unwrap(), Some(v(2)));
        assert_eq!(recv_msg::<Value>(&mut t, None).unwrap(), Some(v(1)));
        assert_eq!(recv_msg::<Value>(&mut t, None).unwrap(), Some(v(3)));
    }

    #[test]
    fn rx_sever_suppresses_the_doomed_frame_deterministically() {
        let plan = FaultPlan {
            actions: vec![FaultAction {
                dir: FaultDirection::Rx,
                at_frame: 2,
                kind: FaultKind::Sever,
            }],
        };
        let mut t = wrap(scripted(&[v(1), v(2), v(3)]), SharedBuf::default(), plan);
        assert_eq!(recv_msg::<Value>(&mut t, None).unwrap(), Some(v(1)));
        // Frame 2 is already pumped and buffered — the sever must still
        // win: the fault layer reports a closed stream without touching
        // the buffered frame.
        assert_eq!(recv_msg::<Value>(&mut t, None).unwrap(), None);
    }

    #[test]
    fn chaos_plans_round_trip_through_json() {
        let plan = ChaosPlan {
            peers: vec![PeerFaults {
                peer: 1,
                plan: FaultPlan {
                    actions: vec![
                        FaultAction {
                            dir: FaultDirection::Tx,
                            at_frame: 3,
                            kind: FaultKind::Delay { ms: 20 },
                        },
                        FaultAction {
                            dir: FaultDirection::Rx,
                            at_frame: 4,
                            kind: FaultKind::Truncate,
                        },
                    ],
                },
            }],
        };
        let text = plan.to_json();
        assert_eq!(ChaosPlan::from_json(&text).unwrap(), plan);
        assert!(plan.plan_for(0).is_none());
        assert_eq!(plan.plan_for(1).unwrap().actions.len(), 2);
        assert!(ChaosPlan::from_json("not json").is_err());
    }
}
