//! Transport abstraction for fleet dispatch: framed, blocking,
//! deadline-aware message streams.
//!
//! The coordinator and the worker speak [`crate::proto`] over a
//! [`Transport`] — they never know whether the bytes cross a pipe to a
//! spawned subprocess ([`PipeTransport`]), a TCP socket a remote worker
//! dialed in on ([`TcpTransport`]), or an in-memory stream in a test
//! ([`StreamTransport`]). Every transport carries the same
//! length-prefixed binary CBOR frames ([`snip_replay::frame`]), so a
//! message that crosses one transport crosses them all bit-for-bit,
//! which is what lets
//! `fleet_determinism.rs` demand `assert_eq!`-identical merged output
//! regardless of transport.
//!
//! **Frames, not values.** A transport moves complete frames: it sends
//! the bytes [`send_msg`] encoded and hands [`recv_msg`] the payloads it
//! read, and the typed codec runs on either side of it, straight between
//! struct and bytes. Frames that are identical for every peer (the
//! spec-bearing `Init`) are encoded once into a [`PreEncoded`] and every
//! peer's transport sends the shared bytes with a single write. The fault
//! injector works on the same frames.
//!
//! **Deadlines.** Receives take an optional timeout. Internally every
//! transport pumps its read side through a dedicated thread into a
//! channel, so a deadline is a plain `recv_timeout` — no platform socket
//! timeouts, no partial-frame state to untangle after an expiry, and the
//! exact same semantics on pipes (which have no native read timeouts at
//! all) as on sockets.
//!
//! **Severing.** [`Transport::sever`] forcibly disconnects the peer:
//! kill the subprocess, shut the socket down. The coordinator uses it
//! for fault injection drills and to drop peers that fail the handshake;
//! after a sever, the peer observes EOF/reset and both directions of the
//! transport error out. A severed or crashed peer is indistinguishable
//! on the receiving end — exactly the property the steal path is tested
//! under.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use serde::{cbor, Deserialize, Serialize};
use snip_obs::metrics::{histogram, Histogram};
use snip_replay::frame::{
    encode_frame, FrameError, FrameReader, FrameWriter, BINARY_HEADER_BYTES, MAX_FRAME_BYTES,
};

/// A message encoded into its final binary wire frame once, shared
/// across peers as cheap `Arc` clones. The coordinator pre-encodes
/// `Init` this way: one serialization per run instead of one per peer.
pub struct PreEncoded {
    /// The complete binary frame: header plus canonical CBOR payload.
    pub bytes: Arc<[u8]>,
}

impl PreEncoded {
    /// Encodes `msg` into one shared binary frame.
    pub fn new<T: Serialize + ?Sized>(msg: &T) -> Self {
        PreEncoded {
            bytes: encode_frame(msg).into(),
        }
    }
}

/// Frame-size budget for a TCP peer that has not authenticated yet: large
/// enough for any `Join`, far too small to let a stranger park 256 MiB in
/// the coordinator's memory. Raised to [`MAX_FRAME_BYTES`] on
/// [`Transport::unlock_frame_limit`] once the token checks out.
pub const HANDSHAKE_FRAME_BYTES: u64 = 64 * 1024;

/// Why a receive came back empty-handed.
#[derive(Debug)]
pub enum RecvError {
    /// The stream broke or carried a malformed frame.
    Frame(FrameError),
    /// The deadline expired with no complete frame.
    TimedOut,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Frame(e) => write!(f, "transport error: {e}"),
            RecvError::TimedOut => write!(f, "transport receive deadline expired"),
        }
    }
}

impl std::error::Error for RecvError {}

/// A blocking, framed, deadline-capable byte stream to one peer.
pub trait Transport: Send {
    /// Sends one complete frame (header and payload, as
    /// [`encode_frame`] builds it) and flushes it.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] when the stream is broken or severed.
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), FrameError>;

    /// Receives the next frame's payload (header stripped), waiting at
    /// most `timeout` (forever when `None`). `Ok(None)` is a clean end of
    /// stream — the peer closed at a frame boundary.
    ///
    /// # Errors
    ///
    /// [`RecvError::TimedOut`] on deadline expiry, [`RecvError::Frame`]
    /// on a broken stream or malformed frame.
    fn recv_frame(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, RecvError>;

    /// Forcibly severs the connection: the peer sees EOF/reset, and
    /// subsequent sends and receives on this side fail. Idempotent.
    fn sever(&mut self);

    /// Sends a deliberately damaged rendition of `frame` — the fault
    /// injector's "crash mid-write". The peer must observe a frame error,
    /// never a clean copy of the frame.
    ///
    /// The default sends a well-framed torn payload: the first half of
    /// the CBOR item under a header stamped with that half's length. A
    /// CBOR item is self-delimiting, so no strict prefix of one decodes,
    /// and the tear reaches the peer on transports whose framing cannot
    /// be cut from this side (pipes, in-memory streams). [`TcpTransport`]
    /// overrides it with a genuine torn frame: a header promising more
    /// bytes than follow.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] when the stream is already broken.
    fn send_truncated(&mut self, frame: &[u8]) -> Result<(), FrameError> {
        let half = (frame.len() - BINARY_HEADER_BYTES) / 2;
        let mut torn = frame[..BINARY_HEADER_BYTES + half].to_vec();
        let len = u32::try_from(half).expect("frame payloads are bounded far below 4 GiB");
        torn[1..BINARY_HEADER_BYTES].copy_from_slice(&len.to_be_bytes());
        self.send_frame(&torn)
    }

    /// Raises the per-frame size budget to the full [`MAX_FRAME_BYTES`]
    /// (no-op on transports that never restrict it). The coordinator
    /// calls this once a TCP peer has authenticated.
    fn unlock_frame_limit(&mut self) {}

    /// Human-readable peer description for diagnostics.
    fn peer(&self) -> String;
}

/// Codec time of the typed messages every transport carries.
struct MsgCodec {
    encode_us: &'static Histogram,
    decode_us: &'static Histogram,
}

fn msg_codec() -> &'static MsgCodec {
    static CODEC: std::sync::OnceLock<MsgCodec> = std::sync::OnceLock::new();
    CODEC.get_or_init(|| MsgCodec {
        encode_us: histogram("snip_msg_encode_us"),
        decode_us: histogram("snip_msg_decode_us"),
    })
}

/// Sends one typed message over a transport, encoded straight into its
/// frame.
///
/// # Errors
///
/// Returns [`FrameError`] when the stream is broken or severed.
pub fn send_msg<T: Serialize + ?Sized>(
    transport: &mut dyn Transport,
    msg: &T,
) -> Result<(), FrameError> {
    // snip-lint: allow(wall-clock): "codec timing metric; observability only"
    let start = Instant::now();
    let frame = encode_frame(msg);
    msg_codec().encode_us.observe(start.elapsed());
    transport.send_frame(&frame)
}

/// Receives one typed message, decoded straight from the frame's bytes;
/// `Ok(None)` on clean EOF.
///
/// # Errors
///
/// As [`Transport::recv_frame`], plus a codec error when the payload does
/// not decode as `T`.
pub fn recv_msg<T: Deserialize>(
    transport: &mut dyn Transport,
    timeout: Option<Duration>,
) -> Result<Option<T>, RecvError> {
    match transport.recv_frame(timeout)? {
        Some(payload) => decode_msg(&payload).map(Some),
        None => Ok(None),
    }
}

/// Decodes one typed message from a frame's payload.
///
/// # Errors
///
/// Returns a codec error when the payload does not decode as `T`.
pub fn decode_msg<T: Deserialize>(payload: &[u8]) -> Result<T, RecvError> {
    // snip-lint: allow(wall-clock): "codec timing metric; observability only"
    let start = Instant::now();
    let msg =
        cbor::decode(payload).map_err(|e| RecvError::Frame(FrameError::Codec(e.to_string())))?;
    msg_codec().decode_us.observe(start.elapsed());
    Ok(msg)
}

/// The shared read-side pump: a thread reads frames off the stream and
/// feeds their payloads through a channel, turning deadlines into
/// `recv_timeout`.
struct FramePump {
    rx: mpsc::Receiver<Result<Vec<u8>, FrameError>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl FramePump {
    fn start<R: Read + Send + 'static>(
        input: R,
        limit: Arc<AtomicU64>,
        metrics_label: &str,
    ) -> Self {
        let (tx, rx) = mpsc::channel();
        let metrics_label = metrics_label.to_string();
        let handle = std::thread::spawn(move || {
            let mut reader = FrameReader::with_frame_limit(BufReader::new(input), limit)
                .with_metrics(&metrics_label);
            loop {
                match reader.recv_frame() {
                    Ok(Some(payload)) => {
                        if tx.send(Ok(payload)).is_err() {
                            break; // transport dropped; stop pumping
                        }
                    }
                    Ok(None) => break, // clean EOF
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        break;
                    }
                }
            }
        });
        FramePump {
            rx,
            handle: Some(handle),
        }
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, RecvError> {
        let next = match timeout {
            None => self
                .rx
                .recv()
                .map_err(|_| mpsc::RecvTimeoutError::Disconnected),
            Some(t) => self.rx.recv_timeout(t),
        };
        match next {
            Ok(Ok(v)) => Ok(Some(v)),
            Ok(Err(e)) => Err(RecvError::Frame(e)),
            // The pump thread exited: EOF (or a previously delivered
            // error) — either way the stream is over.
            Err(mpsc::RecvTimeoutError::Disconnected) => Ok(None),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(RecvError::TimedOut),
        }
    }
}

impl Drop for FramePump {
    fn drop(&mut self) {
        // The owner severs/closes the underlying stream before dropping,
        // which unblocks the pump thread; join keeps it from outliving
        // the transport.
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// A spawned subprocess with its stdin/stdout as the message stream —
/// the classic `snip fleet-worker` re-exec (pipe dispatch).
pub struct PipeTransport {
    child: Child,
    /// `None` after the write side is torn down (sever/drop).
    writer: Option<FrameWriter<ChildStdin>>,
    pump: Option<FramePump>,
    label: String,
}

/// Redirects a spawned worker's `SNIP_TRACE` to its own file. A child
/// inheriting the parent's value verbatim would `File::create` — and
/// truncate — the very trace the coordinator is writing, so each worker
/// gets `<path>.wN` instead (load them side by side in Perfetto).
pub(crate) fn child_trace_env(cmd: &mut Command) {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    if let Ok(path) = std::env::var("SNIP_TRACE") {
        if !path.is_empty() {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            cmd.env("SNIP_TRACE", format!("{path}.w{n}"));
        }
    }
}

impl PipeTransport {
    /// Spawns `program args…` with piped stdin/stdout (stderr inherited)
    /// and frames messages over the pipes.
    ///
    /// # Errors
    ///
    /// Returns the OS spawn error.
    pub fn spawn(program: &std::path::Path, args: &[String]) -> io::Result<Self> {
        let mut cmd = Command::new(program);
        cmd.args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        child_trace_env(&mut cmd);
        let mut child = cmd.spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let label = format!("pipe:{}", child.id());
        Ok(PipeTransport {
            child,
            writer: Some(FrameWriter::new(stdin).with_metrics("pipe")),
            pump: Some(FramePump::start(
                stdout,
                Arc::new(AtomicU64::new(MAX_FRAME_BYTES)),
                "pipe",
            )),
            label,
        })
    }
}

impl Transport for PipeTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), FrameError> {
        match &mut self.writer {
            Some(w) => w.send_raw(frame),
            None => Err(FrameError::Io(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "transport severed",
            ))),
        }
    }

    fn recv_frame(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, RecvError> {
        match &mut self.pump {
            Some(p) => p.recv(timeout),
            None => Ok(None),
        }
    }

    fn sever(&mut self) {
        let _ = self.child.kill();
        self.writer = None; // closes the child's stdin
    }

    fn peer(&self) -> String {
        self.label.clone()
    }
}

impl Drop for PipeTransport {
    fn drop(&mut self) {
        // Closing stdin is the graceful stop signal (EOF is a clean
        // shutdown for a worker); a peer that ignores it would block the
        // wait, but the coordinator severs (kills) every peer it deems
        // lost before dropping, so only well-behaved workers reach a
        // plain wait here.
        self.writer = None;
        let _ = self.child.wait();
        self.pump = None; // child gone → pump saw EOF → join is prompt
    }
}

/// A connected TCP socket as the message stream — one remote fleet
/// worker. Used on both ends: the coordinator wraps accepted
/// connections, a dialing worker wraps its outbound connection.
pub struct TcpTransport {
    /// Control handle for shutdown; the writer holds its own clone.
    ctl: TcpStream,
    writer: FrameWriter<BufWriter<TcpStream>>,
    pump: Option<FramePump>,
    limit: Arc<AtomicU64>,
    label: String,
}

impl TcpTransport {
    /// Wraps an accepted (coordinator-side) connection. The peer starts
    /// under the restricted [`HANDSHAKE_FRAME_BYTES`] budget until it
    /// authenticates ([`Transport::unlock_frame_limit`]).
    ///
    /// # Errors
    ///
    /// Returns the OS error from cloning the stream handle.
    pub fn accept(stream: TcpStream) -> io::Result<Self> {
        Self::wrap(stream, HANDSHAKE_FRAME_BYTES)
    }

    /// Dials the coordinator at `addr` (worker side, full frame budget —
    /// the worker trusts the coordinator it chose to dial).
    ///
    /// # Errors
    ///
    /// Returns the OS connect error.
    pub fn connect(addr: &SocketAddr) -> io::Result<Self> {
        Self::wrap(TcpStream::connect(addr)?, MAX_FRAME_BYTES)
    }

    fn wrap(stream: TcpStream, frame_limit: u64) -> io::Result<Self> {
        // The coordinator accepts off a nonblocking listener, and on
        // macOS/BSD/Windows the accepted socket inherits that flag — the
        // pump's blocking reads must not see spurious WouldBlock.
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        let label = match stream.peer_addr() {
            Ok(addr) => format!("tcp:{addr}"),
            Err(_) => "tcp:?".into(),
        };
        let read_half = stream.try_clone()?;
        let write_half = stream.try_clone()?;
        let limit = Arc::new(AtomicU64::new(frame_limit));
        Ok(TcpTransport {
            ctl: stream,
            writer: FrameWriter::new(BufWriter::new(write_half)).with_metrics("tcp"),
            pump: Some(FramePump::start(read_half, Arc::clone(&limit), "tcp")),
            limit,
            label,
        })
    }
}

impl Transport for TcpTransport {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), FrameError> {
        self.writer.send_raw(frame)
    }

    fn recv_frame(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, RecvError> {
        match &mut self.pump {
            Some(p) => p.recv(timeout),
            None => Ok(None),
        }
    }

    fn sever(&mut self) {
        let _ = self.ctl.shutdown(Shutdown::Both);
    }

    fn send_truncated(&mut self, frame: &[u8]) -> Result<(), FrameError> {
        // A genuine torn frame: the header promises the whole CBOR
        // payload, the socket carries only half of it. Written straight to
        // the control handle — the frame writer flushes per frame, so the
        // stream is at a frame boundary here.
        let payload = frame.len() - BINARY_HEADER_BYTES;
        self.ctl
            .write_all(&frame[..BINARY_HEADER_BYTES + payload / 2])?;
        self.ctl.flush()?;
        Ok(())
    }

    fn unlock_frame_limit(&mut self) {
        self.limit.store(MAX_FRAME_BYTES, Ordering::Relaxed);
    }

    fn peer(&self) -> String {
        self.label.clone()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        let _ = self.ctl.shutdown(Shutdown::Both); // unblocks the pump
        self.pump = None;
    }
}

/// An arbitrary reader/writer pair as the message stream: the worker's
/// own stdin/stdout, or in-memory buffers in tests.
pub struct StreamTransport<W: Write + Send> {
    writer: FrameWriter<W>,
    pump: Option<FramePump>,
    severed: bool,
    label: String,
}

impl<W: Write + Send> StreamTransport<W> {
    /// Frames messages over `input`/`output`.
    pub fn new<R: Read + Send + 'static>(input: R, output: W, label: impl Into<String>) -> Self {
        let label = label.into();
        StreamTransport {
            writer: FrameWriter::new(output).with_metrics(&label),
            pump: Some(FramePump::start(
                input,
                Arc::new(AtomicU64::new(MAX_FRAME_BYTES)),
                &label,
            )),
            severed: false,
            label,
        }
    }
}

impl<W: Write + Send> Transport for StreamTransport<W> {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), FrameError> {
        if self.severed {
            return Err(FrameError::Io(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "transport severed",
            )));
        }
        self.writer.send_raw(frame)
    }

    fn recv_frame(&mut self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, RecvError> {
        if self.severed {
            return Ok(None);
        }
        match &mut self.pump {
            Some(p) => p.recv(timeout),
            None => Ok(None),
        }
    }

    fn sever(&mut self) {
        // Plain streams have no out-of-band close; refusing further
        // traffic is the best available approximation.
        self.severed = true;
    }

    fn peer(&self) -> String {
        self.label.clone()
    }
}

impl<W: Write + Send> Drop for StreamTransport<W> {
    fn drop(&mut self) {
        if let Some(pump) = self.pump.take() {
            if pump.handle.as_ref().is_some_and(|h| h.is_finished()) {
                drop(pump); // thread at EOF: the join is immediate
            } else {
                // Still blocked on a live stream (the worker's stdin with
                // a silent coordinator): detach rather than deadlock the
                // exit path — the thread dies with the process.
                std::mem::forget(pump);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn stream_transport_round_trips_values_with_deadlines() {
        let mut script = Vec::new();
        FrameWriter::new(&mut script).send(&Value::U64(7)).unwrap();
        let mut out = Vec::new();
        {
            let mut t = StreamTransport::new(io::Cursor::new(script), &mut out, "test");
            assert_eq!(
                recv_msg::<Value>(&mut t, Some(Duration::from_secs(5))).unwrap(),
                Some(Value::U64(7))
            );
            // EOF after the scripted frame.
            assert_eq!(
                recv_msg::<Value>(&mut t, Some(Duration::from_secs(5))).unwrap(),
                None
            );
            send_msg(&mut t, &Value::Bool(true)).unwrap();
        }
        let mut r = FrameReader::new(io::Cursor::new(out));
        assert_eq!(r.recv_value().unwrap(), Some(Value::Bool(true)));
    }

    #[test]
    fn deadline_expires_on_a_silent_stream() {
        // A pipe-like stream that never produces a frame: reading blocks
        // forever, so the deadline must fire. Use an OS pipe via a
        // TcpListener pair for portability.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut t = TcpTransport::accept(server).unwrap();
        let start = std::time::Instant::now();
        match recv_msg::<Value>(&mut t, Some(Duration::from_millis(50))) {
            Err(RecvError::TimedOut) => {}
            other => panic!("expected a deadline expiry, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn severed_tcp_peer_reads_eof() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut coordinator_side = TcpTransport::accept(server).unwrap();
        let mut worker_side = TcpTransport::wrap(client, MAX_FRAME_BYTES).unwrap();

        coordinator_side.sever();
        // The worker observes a closed stream: EOF or a reset error, never
        // a hang.
        match recv_msg::<Value>(&mut worker_side, Some(Duration::from_secs(5))) {
            Ok(None) | Err(RecvError::Frame(_)) => {}
            other => panic!("expected EOF/reset, got {other:?}"),
        }
    }

    #[test]
    fn handshake_frame_budget_rejects_oversized_preauth_frames() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut coordinator_side = TcpTransport::accept(server).unwrap();
        let mut worker_side = TcpTransport::wrap(client, MAX_FRAME_BYTES).unwrap();

        let big = Value::Str("x".repeat(2 * HANDSHAKE_FRAME_BYTES as usize));
        send_msg(&mut worker_side, &big).unwrap();
        match recv_msg::<Value>(&mut coordinator_side, Some(Duration::from_secs(5))) {
            Err(RecvError::Frame(FrameError::Codec(msg))) => {
                assert!(msg.contains("exceeds"), "{msg}");
            }
            other => panic!("expected a frame-budget refusal, got {other:?}"),
        }
    }

    #[test]
    fn preencoded_and_value_frames_cross_tcp_in_order() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut a = TcpTransport::accept(server).unwrap();
        let mut b = TcpTransport::wrap(client, MAX_FRAME_BYTES).unwrap();

        let pre = PreEncoded::new(&Value::Str("shared-init".into()));
        b.send_frame(&pre.bytes).unwrap();
        send_msg(&mut b, &Value::Str("per-peer".into())).unwrap();
        send_msg(&mut b, &Value::U64(9)).unwrap();
        for expect in [
            Value::Str("shared-init".into()),
            Value::Str("per-peer".into()),
            Value::U64(9),
        ] {
            assert_eq!(
                recv_msg::<Value>(&mut a, Some(Duration::from_secs(5))).unwrap(),
                Some(expect)
            );
        }
    }

    /// On a stream whose framing this side cannot cut, the default tear
    /// is a well-framed half payload: the peer reads the frame and fails
    /// to decode it, for any message size.
    #[test]
    fn a_torn_stream_frame_fails_to_decode_on_the_receiving_end() {
        for msg in [Value::U64(7), Value::Str("a shard result".into())] {
            let mut out = Vec::new();
            {
                let mut t = StreamTransport::new(io::empty(), &mut out, "test");
                t.send_truncated(&encode_frame(&msg)).unwrap();
            }
            let mut r = FrameReader::new(io::Cursor::new(out));
            match r.recv_value() {
                Err(FrameError::Codec(_)) => {}
                other => panic!("expected an undecodable frame, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_torn_tcp_frame_is_truncated_on_the_receiving_end() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut coordinator_side = TcpTransport::accept(server).unwrap();
        let mut worker_side = TcpTransport::wrap(client, MAX_FRAME_BYTES).unwrap();

        worker_side
            .send_truncated(&encode_frame(&Value::Str("a shard result".into())))
            .unwrap();
        worker_side.sever();
        match recv_msg::<Value>(&mut coordinator_side, Some(Duration::from_secs(5))) {
            Err(RecvError::Frame(FrameError::Truncated)) => {}
            other => panic!("expected a truncated frame, got {other:?}"),
        }
    }

    #[test]
    fn tcp_transport_round_trips_between_ends() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut a = TcpTransport::accept(server).unwrap();
        let mut b = TcpTransport::wrap(client, MAX_FRAME_BYTES).unwrap();

        send_msg(&mut b, &Value::Str("dial-in".into())).unwrap();
        assert_eq!(
            recv_msg::<Value>(&mut a, Some(Duration::from_secs(5))).unwrap(),
            Some(Value::Str("dial-in".into()))
        );
        a.unlock_frame_limit();
        let big = Value::Str("y".repeat(2 * HANDSHAKE_FRAME_BYTES as usize));
        send_msg(&mut b, &big).unwrap();
        assert_eq!(
            recv_msg::<Value>(&mut a, Some(Duration::from_secs(5))).unwrap(),
            Some(big)
        );
    }
}
