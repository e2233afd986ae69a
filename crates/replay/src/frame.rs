//! Length-prefixed message frames over byte streams (pipes, sockets).
//!
//! The fleet driver (`snip-fleetd`) talks to its workers over plain
//! stdin/stdout pipes or TCP sockets. Every frame has one encoding:
//!
//! ```text
//! 0xC5 <payload byte length, u32 big-endian> <payload CBOR>
//! ```
//!
//! The payload reuses the journal's [`serde::cbor`] codec — the same
//! canonical RFC 8949 subset the CBOR journals speak, so anything that
//! can live in a journal can cross a pipe or a socket bit-for-bit. A
//! stream whose next byte is not the magic `0xC5` is refused with
//! [`FrameError::Codec`] before anything more is read.
//!
//! Both sides stream one frame at a time with O(frame) memory; the writer
//! flushes after every frame (transports are request/response, not bulk
//! logs). Reads are partial-read safe — a frame split across arbitrarily
//! small TCP segments reassembles byte-for-byte — and deadline-aware: a
//! stream with a read timeout surfaces an expired deadline as the
//! distinct [`FrameError::TimedOut`], never as a half-consumed frame
//! misread. Untrusted peers (a socket before authentication) can be held
//! to a smaller frame-size budget through a shared, relaxable limit
//! ([`FrameReader::with_frame_limit`]) — the budget is checked before
//! any payload allocation.
//!
//! ```
//! use serde::Value;
//! use snip_replay::frame::{FrameReader, FrameWriter};
//!
//! let mut buf = Vec::new();
//! FrameWriter::new(&mut buf).send_value(&Value::U64(7)).unwrap();
//! let mut reader = FrameReader::new(std::io::Cursor::new(buf));
//! assert_eq!(reader.recv_value().unwrap(), Some(Value::U64(7)));
//! assert_eq!(reader.recv_value().unwrap(), None);
//! ```

use std::fmt;
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde::{cbor, Deserialize, Serialize, Value};
use snip_obs::metrics::{Counter, Histogram};

/// Pre-resolved registry handles for one direction of one transport, so
/// the per-frame cost is a few relaxed atomic ops (the registry mutex is
/// hit once, at wiring time). Byte counts include the 5-byte frame
/// header — the actual wire footprint.
struct FrameMetrics {
    /// CBOR encode or decode time per frame.
    codec_us: &'static Histogram,
    /// Total framed bytes moved.
    bytes: &'static Counter,
    /// Total frames moved.
    frames: &'static Counter,
}

impl FrameMetrics {
    fn new(direction: &str, transport: &str) -> FrameMetrics {
        let codec = if direction == "tx" {
            "encode"
        } else {
            "decode"
        };
        FrameMetrics {
            codec_us: snip_obs::metrics::histogram(&format!(
                "snip_frame_{codec}_us{{transport=\"{transport}\"}}"
            )),
            bytes: snip_obs::metrics::counter(&format!(
                "snip_frame_{direction}_bytes_total{{transport=\"{transport}\"}}"
            )),
            frames: snip_obs::metrics::counter(&format!(
                "snip_frame_{direction}_frames_total{{transport=\"{transport}\"}}"
            )),
        }
    }
}

/// Frames larger than this are refused — a corrupt length prefix must not
/// turn into a multi-gigabyte allocation. Generous for real traffic: the
/// largest fleetd frame is a shard of `RunMetrics`, a few hundred KiB.
pub const MAX_FRAME_BYTES: u64 = 256 * 1024 * 1024;

/// First byte of every frame. A reader checks it before consuming
/// anything else, so a stream speaking some other encoding is refused at
/// once instead of being misread.
pub const BINARY_FRAME_MAGIC: u8 = 0xC5;

/// Bytes of frame header: the magic byte plus a u32 big-endian payload
/// length.
pub const BINARY_HEADER_BYTES: usize = 5;

/// Encodes one complete frame (header + canonical CBOR payload) into a
/// fresh buffer. This is the pre-encode path: the coordinator frames
/// `Init` once per run and every transport ships the same bytes.
#[must_use]
pub fn encode_binary_frame(value: &Value) -> Vec<u8> {
    let mut frame = Vec::with_capacity(BINARY_HEADER_BYTES + 128);
    encode_frame_into(&mut frame, value);
    frame
}

/// Appends one frame for `value` to `out`.
fn encode_frame_into(out: &mut Vec<u8>, value: &Value) {
    let start = out.len();
    out.extend_from_slice(&[BINARY_FRAME_MAGIC, 0, 0, 0, 0]);
    cbor::write_value(out, value).expect("Vec<u8> writes are infallible");
    let len = u32::try_from(out.len() - start - BINARY_HEADER_BYTES)
        .expect("frame payloads are bounded far below 4 GiB");
    out[start + 1..start + BINARY_HEADER_BYTES].copy_from_slice(&len.to_be_bytes());
}

/// A framing, I/O or codec error.
#[derive(Debug)]
pub enum FrameError {
    /// An I/O failure on the underlying stream.
    Io(io::Error),
    /// A malformed frame: a first byte other than [`BINARY_FRAME_MAGIC`],
    /// a length over the frame budget, bad CBOR, or a payload that does
    /// not decode to the expected message shape.
    Codec(String),
    /// The stream ended inside a frame.
    Truncated,
    /// A read deadline expired (the stream has a read timeout and no
    /// complete frame arrived in time). Distinct from [`FrameError::Io`]
    /// so callers can tell a slow peer from a broken one.
    TimedOut,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::Codec(msg) => write!(f, "frame codec error: {msg}"),
            FrameError::Truncated => write!(f, "stream ended inside a frame"),
            FrameError::TimedOut => write!(f, "read deadline expired inside a frame"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            // A stream with a read timeout reports an expired deadline as
            // WouldBlock (unix) or TimedOut (windows).
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FrameError::TimedOut,
            _ => FrameError::Io(e),
        }
    }
}

impl From<serde::Error> for FrameError {
    fn from(e: serde::Error) -> Self {
        FrameError::Codec(e.to_string())
    }
}

/// Writes frames, flushing after each one.
pub struct FrameWriter<W: Write> {
    out: W,
    frames: u64,
    /// Reused per-frame encode buffer — hot-loop sends stop allocating.
    scratch: Vec<u8>,
    metrics: Option<FrameMetrics>,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        FrameWriter {
            out,
            frames: 0,
            scratch: Vec::new(),
            metrics: None,
        }
    }

    /// Records per-frame encode time, byte, and frame counts under the
    /// given transport label (e.g. `"pipe"`, `"tcp"`) in the process
    /// metrics registry.
    #[must_use]
    pub fn with_metrics(mut self, transport: &str) -> Self {
        self.metrics = Some(FrameMetrics::new("tx", transport));
        self
    }

    /// Frames written so far.
    #[must_use]
    pub fn frames_written(&self) -> u64 {
        self.frames
    }

    /// Sends one pre-encoded value.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Io`] on write or flush failure.
    pub fn send_value(&mut self, value: &Value) -> Result<(), FrameError> {
        // snip-lint: allow(wall-clock): "codec timing metric, only taken when a metrics registry is attached"
        let encode_start = self.metrics.as_ref().map(|_| Instant::now());
        self.scratch.clear();
        encode_frame_into(&mut self.scratch, value);
        if let (Some(m), Some(t0)) = (&self.metrics, encode_start) {
            m.codec_us.observe(t0.elapsed());
        }
        self.out.write_all(&self.scratch)?;
        self.out.flush()?;
        self.frames += 1;
        if let Some(m) = &self.metrics {
            m.bytes.add(self.scratch.len() as u64);
            m.frames.inc();
        }
        Ok(())
    }

    /// Sends one pre-framed byte run (header and payload already encoded
    /// by [`encode_binary_frame`]) without re-serializing. This is the
    /// zero-copy shard path: pre-encoded frames are shared across peers
    /// as `Arc<[u8]>` and hit the wire as a single write.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Io`] on write or flush failure.
    pub fn send_raw(&mut self, frame: &[u8]) -> Result<(), FrameError> {
        self.out.write_all(frame)?;
        self.out.flush()?;
        self.frames += 1;
        if let Some(m) = &self.metrics {
            m.bytes.add(frame.len() as u64);
            m.frames.inc();
        }
        Ok(())
    }

    /// Sends one message.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Io`] on write or flush failure.
    pub fn send<T: Serialize>(&mut self, msg: &T) -> Result<(), FrameError> {
        self.send_value(&msg.to_value())
    }
}

/// Reads frames.
pub struct FrameReader<R: BufRead> {
    input: R,
    frames: u64,
    /// Per-frame size budget, shared so the owner of the stream can relax
    /// it while a reader thread holds the reader (e.g. raise an untrusted
    /// peer's budget once it authenticates).
    limit: Arc<AtomicU64>,
    metrics: Option<FrameMetrics>,
}

impl<R: BufRead> FrameReader<R> {
    /// Wraps a reader with the default [`MAX_FRAME_BYTES`] budget.
    pub fn new(input: R) -> Self {
        Self::with_frame_limit(input, Arc::new(AtomicU64::new(MAX_FRAME_BYTES)))
    }

    /// Wraps a reader with a shared per-frame size budget. Frames whose
    /// length prefix exceeds the budget's current value are refused before
    /// any allocation; the budget can be raised (or lowered) at any time
    /// through the shared handle.
    pub fn with_frame_limit(input: R, limit: Arc<AtomicU64>) -> Self {
        FrameReader {
            input,
            frames: 0,
            limit,
            metrics: None,
        }
    }

    /// Records per-frame decode time, byte, and frame counts under the
    /// given transport label (e.g. `"pipe"`, `"tcp"`) in the process
    /// metrics registry.
    #[must_use]
    pub fn with_metrics(mut self, transport: &str) -> Self {
        self.metrics = Some(FrameMetrics::new("rx", transport));
        self
    }

    /// Frames read so far.
    #[must_use]
    pub fn frames_read(&self) -> u64 {
        self.frames
    }

    /// Reads the next frame's value; `Ok(None)` on a clean end of stream
    /// (EOF exactly at a frame boundary). The length is checked against
    /// the shared budget before the payload is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on I/O failure, a first byte other than
    /// [`BINARY_FRAME_MAGIC`], a malformed frame, or a stream that ends
    /// mid-frame.
    pub fn recv_value(&mut self) -> Result<Option<Value>, FrameError> {
        match self.input.fill_buf()?.first() {
            None => return Ok(None), // clean EOF between frames
            Some(&BINARY_FRAME_MAGIC) => {}
            Some(&other) => {
                return Err(FrameError::Codec(format!(
                    "frame opens with byte {other:#04x}, not the frame magic \
                     {BINARY_FRAME_MAGIC:#04x}"
                )))
            }
        }
        let mut header = [0u8; BINARY_HEADER_BYTES];
        self.input
            .read_exact(&mut header)
            .map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => FrameError::Truncated,
                _ => FrameError::from(e),
            })?;
        let len = u64::from(u32::from_be_bytes([
            header[1], header[2], header[3], header[4],
        ]));
        let limit = self.limit.load(Ordering::Relaxed);
        if len > limit {
            return Err(FrameError::Codec(format!(
                "frame of {len} bytes exceeds the {limit}-byte limit"
            )));
        }
        let mut payload = vec![0u8; len as usize];
        self.input
            .read_exact(&mut payload)
            .map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => FrameError::Truncated,
                _ => FrameError::from(e),
            })?;
        // snip-lint: allow(wall-clock): "codec timing metric, only taken when a metrics registry is attached"
        let decode_start = self.metrics.as_ref().map(|_| Instant::now());
        let value = cbor::from_slice(&payload)?;
        self.frames += 1;
        if let (Some(m), Some(t0)) = (&self.metrics, decode_start) {
            m.codec_us.observe(t0.elapsed());
            m.bytes.add(BINARY_HEADER_BYTES as u64 + len);
            m.frames.inc();
        }
        Ok(Some(value))
    }

    /// Reads and decodes the next frame; `Ok(None)` on a clean end of
    /// stream.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] as [`FrameReader::recv_value`], plus
    /// [`FrameError::Codec`] when the payload does not decode as `T`.
    pub fn recv<T: Deserialize>(&mut self) -> Result<Option<T>, FrameError> {
        match self.recv_value()? {
            None => Ok(None),
            Some(v) => Ok(Some(T::from_value(&v)?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let values = [
            Value::U64(1),
            Value::Str("two\nlines".into()),
            Value::Seq(vec![Value::F64(86.4), Value::Bool(true)]),
        ];
        let mut buf = Vec::new();
        {
            let mut w = FrameWriter::new(&mut buf);
            for v in &values {
                w.send_value(v).unwrap();
            }
            assert_eq!(w.frames_written(), 3);
        }
        assert_eq!(buf[0], BINARY_FRAME_MAGIC);
        let mut r = FrameReader::new(Cursor::new(buf));
        for v in &values {
            assert_eq!(r.recv_value().unwrap().as_ref(), Some(v));
        }
        assert!(r.recv_value().unwrap().is_none());
        assert_eq!(r.frames_read(), 3);
    }

    #[test]
    fn a_first_byte_other_than_the_magic_is_refused_unread() {
        // A protocol-3 JSON frame (decimal length prefix), stray text,
        // and near-miss bytes are all refused at the first byte.
        let mut inputs: Vec<Vec<u8>> =
            vec![b"3\n\"x\"\n".to_vec(), b"GET / HTTP/1.1\r\n\r\n".to_vec()];
        inputs.extend([0x00, 0xC4, 0xC6, 0xFF].map(|b| vec![b, 0, 0, 0, 1, 0]));
        for input in inputs {
            let mut r = FrameReader::new(Cursor::new(input.clone()));
            let err = r.recv_value().unwrap_err();
            assert!(
                matches!(&err, FrameError::Codec(msg) if msg.contains("magic")),
                "{input:?}: got {err:?}"
            );
            assert_eq!(r.input.position(), 0, "nothing may be consumed");
        }
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        FrameWriter::new(&mut buf)
            .send_value(&Value::Str("payload".into()))
            .unwrap();
        // Mid-payload cut...
        let mut cut = buf.clone();
        cut.truncate(buf.len() - 4);
        let mut r = FrameReader::new(Cursor::new(cut));
        assert!(matches!(r.recv_value(), Err(FrameError::Truncated)));
        // ...and a mid-header cut.
        let mut cut = buf;
        cut.truncate(3);
        let mut r = FrameReader::new(Cursor::new(cut));
        assert!(matches!(r.recv_value(), Err(FrameError::Truncated)));
    }

    #[test]
    fn oversized_frame_is_refused_before_allocation() {
        let huge = vec![BINARY_FRAME_MAGIC, 0xFF, 0xFF, 0xFF, 0xFF];
        let limit = Arc::new(AtomicU64::new(1024));
        let mut r = FrameReader::with_frame_limit(Cursor::new(huge), limit);
        let err = r.recv_value().unwrap_err();
        assert!(
            matches!(&err, FrameError::Codec(msg) if msg.contains("exceeds")),
            "got {err:?}"
        );
    }

    /// A reader that hands out at most one byte per `read` call — the
    /// worst-case TCP segmentation.
    struct OneByte<R: io::Read>(R);

    impl<R: io::Read> io::Read for OneByte<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    #[test]
    fn frames_reassemble_from_single_byte_reads() {
        let values = [
            Value::Str("split across many tiny reads".into()),
            Value::Seq((0..50).map(Value::U64).collect()),
        ];
        let mut buf = Vec::new();
        {
            let mut w = FrameWriter::new(&mut buf);
            for v in &values {
                w.send_value(v).unwrap();
            }
        }
        // Capacity 1 forces the BufRead layer itself to refill per byte.
        let mut r = FrameReader::new(io::BufReader::with_capacity(1, OneByte(Cursor::new(buf))));
        for v in &values {
            assert_eq!(r.recv_value().unwrap().as_ref(), Some(v));
        }
        assert!(r.recv_value().unwrap().is_none());
    }

    /// A reader that yields a prefix, then reports an expired read
    /// deadline — what a socket with a read timeout does mid-frame.
    struct TimesOutAfter {
        data: Cursor<Vec<u8>>,
    }

    impl io::Read for TimesOutAfter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.data.read(buf) {
                Ok(0) => Err(io::Error::new(io::ErrorKind::WouldBlock, "read timed out")),
                other => other,
            }
        }
    }

    #[test]
    fn expired_read_deadline_is_timed_out_not_truncated() {
        let mut buf = Vec::new();
        FrameWriter::new(&mut buf)
            .send_value(&Value::Str("deadline".into()))
            .unwrap();
        buf.truncate(buf.len() - 4); // deadline expires mid-payload
        let mut r = FrameReader::new(io::BufReader::new(TimesOutAfter {
            data: Cursor::new(buf),
        }));
        assert!(matches!(r.recv_value(), Err(FrameError::TimedOut)));
    }

    #[test]
    fn shared_frame_limit_is_enforced_and_relaxable() {
        let mut buf = Vec::new();
        {
            let mut w = FrameWriter::new(&mut buf);
            w.send_value(&Value::Str("x".repeat(100))).unwrap();
            w.send_value(&Value::Str("small".into())).unwrap();
        }
        // Tight budget refuses the large frame before allocating it...
        let limit = Arc::new(AtomicU64::new(10));
        let mut r = FrameReader::with_frame_limit(Cursor::new(buf.clone()), Arc::clone(&limit));
        assert!(matches!(r.recv_value(), Err(FrameError::Codec(_))));
        // ...and raising the shared handle admits it (fresh reader: the
        // refused stream position is sunk).
        limit.store(MAX_FRAME_BYTES, Ordering::Relaxed);
        let mut r = FrameReader::with_frame_limit(Cursor::new(buf), limit);
        assert!(r.recv_value().unwrap().is_some());
        assert!(r.recv_value().unwrap().is_some());
    }

    #[test]
    fn metrics_labeled_codecs_record_the_wire_footprint() {
        use snip_obs::metrics;
        // The registry is process-global, so measure deltas under a label
        // no other test uses.
        let tx_name = "snip_frame_tx_bytes_total{transport=\"frame-unit-test\"}";
        let rx_name = "snip_frame_rx_bytes_total{transport=\"frame-unit-test\"}";
        let tx_before = metrics::counter_value(tx_name);
        let rx_before = metrics::counter_value(rx_name);

        let mut buf = Vec::new();
        {
            let mut w = FrameWriter::new(&mut buf).with_metrics("frame-unit-test");
            w.send_value(&Value::Str("metered".into())).unwrap();
        }
        let wire = buf.len() as u64;
        assert_eq!(
            metrics::counter_value(tx_name) - tx_before,
            wire,
            "tx bytes must equal the framed wire footprint"
        );

        let mut r = FrameReader::new(Cursor::new(buf)).with_metrics("frame-unit-test");
        assert!(r.recv_value().unwrap().is_some());
        assert!(r.recv_value().unwrap().is_none());
        assert_eq!(
            metrics::counter_value(rx_name) - rx_before,
            wire,
            "rx bytes must equal the framed wire footprint"
        );
        let (count, _sum) = metrics::sum_histograms("snip_frame_encode_us");
        assert!(count >= 1, "encode timing histogram must record");
    }

    #[test]
    fn typed_round_trip() {
        use snip_sim::RunMetrics;
        let metrics = RunMetrics::with_epochs(2);
        let mut buf = Vec::new();
        FrameWriter::new(&mut buf).send(&metrics).unwrap();
        let mut r = FrameReader::new(Cursor::new(buf));
        let back: RunMetrics = r.recv().unwrap().expect("one frame");
        assert_eq!(back, metrics);
    }

    #[test]
    fn pre_encoded_frames_match_the_writer_byte_for_byte() {
        let value = Value::Seq(vec![Value::U64(7), Value::Str("shared".into())]);
        let pre = encode_binary_frame(&value);
        let mut buf = Vec::new();
        FrameWriter::new(&mut buf).send_value(&value).unwrap();
        assert_eq!(pre, buf, "pre-encoded and streaming encodes must agree");

        // send_raw ships the pre-encoded bytes verbatim and counts them.
        let mut raw = Vec::new();
        let mut w = FrameWriter::new(&mut raw);
        w.send_raw(&pre).unwrap();
        assert_eq!(w.frames_written(), 1);
        assert_eq!(raw, pre);
        let mut r = FrameReader::new(Cursor::new(raw));
        assert_eq!(r.recv_value().unwrap(), Some(value));
    }
}
