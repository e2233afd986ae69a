//! `snip fuzz`: a seeded structured fuzzer for the decoders that face
//! untrusted bytes.
//!
//! The workspace has exactly three places where bytes of unknown
//! provenance are decoded: the fleet frame reader (magic byte,
//! big-endian length, CBOR payload — pre-auth bytes from the network,
//! fuzzed over generic and proto-shaped seeds, with every payload also
//! run through the typed slice reader the fleet uses and checked
//! against the `Value` format's walker), the journal decoder
//! (`snip replay FILE` on a file somebody handed you, JSONL or CBOR),
//! and the checkpoint loader (`--resume-from` on a journal that may be
//! torn, truncated, or hostile, JSONL or CBOR). Each must *reject* bad input with an
//! error — never panic, never hang, never abort.
//!
//! This fuzzer is deliberately not coverage-guided (that needs compiler
//! instrumentation the no-new-deps rule rules out). It is *structured*
//! instead: mutations start from valid corpora produced by the real
//! encoders and know the shapes that matter — frame length headers,
//! JSON/CBOR nesting, CBOR type-major bytes — so the interesting
//! failure surface (limit checks, truncation handling, recursion) is
//! reached in thousands of iterations rather than billions.
//!
//! Properties:
//!
//! * **Bit-reproducible.** All randomness flows from one xorshift64
//!   stream seeded by `--seed`; `run_fuzz` reports an FNV-1a digest of
//!   the full outcome sequence, and the same `(seed, iters)` produces
//!   the same digest on every run.
//! * **Hang-safe.** Inputs execute on a watchdog-supervised worker
//!   thread; an execution exceeding the timeout is classified as a hang
//!   (a finding, not a fuzzer failure) and the worker is replaced.
//! * **Self-minimizing.** A crashing input is greedily shrunk (chunk
//!   removal at halving granularity) while it still crashes, so the
//!   committed artifact is close to minimal.
//! * **Replayable.** Findings are written under a corpus directory as
//!   `<target>--<class>--<digest>.bin`; [`replay_corpus`] re-feeds every
//!   artifact to its decoder and demands a graceful outcome — the
//!   regression test for every crash ever found.
//!
//! Development-time finding (fixed, pinned in `ci/corpus/`): the
//! vendored JSON parser recursed once per `[`/`{` with no depth ceiling,
//! so a ~100 kB `[[[[…` payload overflowed the stack — a process
//! *abort*, unreachable by `catch_unwind`, in every JSON decoder. The
//! parser now refuses nesting past depth 128 (matching the CBOR
//! decoder). `ci/corpus/checkpoint--abort--nesting-bomb.bin` replays the
//! attack against the fixed code; `frame--abort--nesting-bomb.bin`, its
//! JSON-framed original, is now refused at the frame's first byte.

use std::fmt;
use std::fs;
use std::io::{self, Cursor};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Once;
use std::thread;
use std::time::Duration;

use serde::{Deserialize, Serialize, Value};
use snip_replay::frame::FrameReader;
use snip_replay::journal::{JournalFormat, JournalReader};
use snip_replay::{load_checkpoint_from, CheckpointEvent, CheckpointHeader, FrameWriter};
use snip_sim::EpochProfile;

/// Which decoder an input is fed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Target {
    /// The fleet frame reader (`snip-replay::frame`: `0xC5` magic +
    /// big-endian length + CBOR).
    Frame,
    /// The JSONL journal decoder.
    JournalJsonl,
    /// The CBOR journal decoder.
    JournalCbor,
    /// The checkpoint loader (header validation + shard scan) on a JSONL
    /// journal.
    Checkpoint,
    /// The checkpoint loader on a CBOR journal, the format of any
    /// `--checkpoint` path not ending in `.json` or `.jsonl`.
    CheckpointCbor,
}

impl Target {
    /// Every target, in the order they are fuzzed.
    pub const ALL: [Target; 5] = [
        Target::Frame,
        Target::JournalJsonl,
        Target::JournalCbor,
        Target::Checkpoint,
        Target::CheckpointCbor,
    ];

    /// Stable name used in artifact filenames and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Target::Frame => "frame",
            Target::JournalJsonl => "journal-jsonl",
            Target::JournalCbor => "journal-cbor",
            Target::Checkpoint => "checkpoint",
            Target::CheckpointCbor => "checkpoint-cbor",
        }
    }

    /// Inverse of [`Target::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Target> {
        Target::ALL.into_iter().find(|t| t.name() == name)
    }
}

/// How one input's execution ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Decoded cleanly (`n` frames/events before EOF).
    Ok(u32),
    /// Rejected with a decode error — the *desired* outcome for bad
    /// input.
    Rejected,
    /// The decoder panicked: a finding.
    Panic(String),
    /// The decoder exceeded the watchdog timeout: a finding.
    Hang,
}

impl Outcome {
    fn is_finding(&self) -> bool {
        matches!(self, Outcome::Panic(_) | Outcome::Hang)
    }

    /// Artifact-class label (`panic` / `hang`).
    fn class(&self) -> &'static str {
        match self {
            Outcome::Panic(_) => "panic",
            Outcome::Hang => "hang",
            Outcome::Ok(_) => "ok",
            Outcome::Rejected => "rejected",
        }
    }

    fn code(&self) -> u8 {
        match self {
            Outcome::Ok(_) => 0,
            Outcome::Rejected => 1,
            Outcome::Panic(_) => 2,
            Outcome::Hang => 3,
        }
    }
}

/// Fuzzer configuration: `snip fuzz --seed S --iters N`.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Root of the xorshift64 stream; same seed, same run.
    pub seed: u64,
    /// Mutation-execute iterations *per target*.
    pub iters: u64,
    /// Where findings are written (minimized), if anywhere.
    pub corpus_dir: Option<PathBuf>,
    /// Watchdog timeout per execution.
    pub timeout: Duration,
    /// Subset of targets to fuzz (defaults to all).
    pub targets: Vec<Target>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0x5eed_5eed,
            iters: 500,
            corpus_dir: None,
            timeout: Duration::from_secs(5),
            targets: Target::ALL.to_vec(),
        }
    }
}

/// One finding: the minimized input and how it failed.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which decoder failed.
    pub target: Target,
    /// `panic` or `hang`.
    pub class: &'static str,
    /// Panic payload (empty for hangs).
    pub detail: String,
    /// The minimized crashing input.
    pub input: Vec<u8>,
    /// Where the artifact was written, when a corpus dir was given.
    pub artifact: Option<PathBuf>,
}

/// What a fuzz run did, in aggregate.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Total executions across all targets.
    pub executions: u64,
    /// Executions that decoded cleanly.
    pub ok: u64,
    /// Executions rejected with a decode error.
    pub rejected: u64,
    /// Findings (panics + hangs), minimized.
    pub findings: Vec<Finding>,
    /// FNV-1a digest of the full outcome sequence — the
    /// bit-reproducibility witness: same `(seed, iters)`, same digest.
    pub digest: u64,
}

impl FuzzReport {
    /// True when no execution panicked or hung.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} executions: {} ok, {} rejected, {} findings; outcome digest {:016x}",
            self.executions,
            self.ok,
            self.rejected,
            self.findings.len(),
            self.digest
        )
    }
}

/// Result of re-feeding a committed corpus to the current decoders.
#[derive(Debug, Clone)]
pub struct CorpusReport {
    /// Artifacts replayed.
    pub artifacts: usize,
    /// Artifacts that *still* panic or hang (regressions).
    pub regressions: Vec<(PathBuf, String)>,
}

impl CorpusReport {
    /// True when every artifact decodes gracefully.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }
}

impl fmt::Display for CorpusReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replayed {} corpus artifacts, {} regressions",
            self.artifacts,
            self.regressions.len()
        )
    }
}

// ---------------------------------------------------------------------------
// Deterministic PRNG + digest
// ---------------------------------------------------------------------------

/// xorshift64: tiny, seedable, more than random enough for mutation
/// scheduling. (The workspace's vendored `rand` would also do, but the
/// fuzzer's stream must never change out from under committed seeds, so
/// it owns its generator.)
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the stream (zero is mapped to a fixed odd constant).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Uniform-ish draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(digest, |d, &b| (d ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

// ---------------------------------------------------------------------------
// Seed corpora: valid artifacts from the real encoders
// ---------------------------------------------------------------------------

/// Valid inputs for a target, produced by the workspace's own encoders —
/// mutation starts from structure, not noise.
fn seed_corpus(target: Target) -> Vec<Vec<u8>> {
    match target {
        Target::Frame => {
            // Generic values plus proto-shaped payloads: the fleet
            // messages' derived stand-ins (a Join, a batched Shard
            // assignment, a batched ShardDone carrying run metrics, a
            // unit variant) and a spec's epoch profile (repeated and
            // contact-free slots), so mutations reach the typed decoders'
            // field and variant logic and the profile's canonical-form
            // checks.
            let plan = ProbePlan {
                key: "fuzz|plan".to_string(),
                weights: vec![0.5, 3.0, 86.4],
                duty: Some(1e-3),
                slots: [7, 17],
            };
            let job = |id: u64, start: u64, end: u64| ProbeJob { id, start, end };
            let values = [
                Value::Seq(vec![Value::U64(1), Value::Null, Value::Bool(true)]),
                Value::Str("ready".to_string()),
                ProbeMsg::Join {
                    protocol: 4,
                    token: "fuzz".to_string(),
                    pid: 7,
                    resume: None,
                }
                .to_value(),
                ProbeMsg::Shard {
                    jobs: vec![job(0, 0, 2), job(1, 2, 4)],
                    plans: vec![plan.clone()],
                }
                .to_value(),
                ProbeMsg::ShardDone {
                    results: vec![ProbeResult {
                        id: 0,
                        metrics: vec![snip_sim::RunMetrics::with_epochs(1)],
                    }],
                    plans: vec![plan],
                    seeded_hits: 0,
                }
                .to_value(),
                ProbeMsg::Pair(-3, 0.25).to_value(),
                ProbeMsg::Shutdown.to_value(),
                profile_seed().to_value(),
            ];
            let mut one_each: Vec<Vec<u8>> = values
                .iter()
                .map(|v| {
                    let mut buf = Vec::new();
                    FrameWriter::new(&mut buf)
                        .send(v)
                        .expect("in-memory frame write");
                    buf
                })
                .collect();
            // One multi-frame stream, so truncation mutations land
            // mid-stream as well as mid-frame.
            one_each.push(one_each.concat());
            one_each
        }
        Target::JournalJsonl | Target::JournalCbor => {
            let format = if target == Target::JournalJsonl {
                JournalFormat::Jsonl
            } else {
                JournalFormat::Cbor
            };
            vec![journal_seed(format)]
        }
        Target::Checkpoint => vec![checkpoint_seed(JournalFormat::Jsonl)],
        Target::CheckpointCbor => vec![checkpoint_seed(JournalFormat::Cbor)],
    }
}

/// Six roadside hours, 05:00 to 11:00, with the first made free of
/// contacts: three distinct slots, the contact-free one used once and the
/// other two repeated.
fn profile_seed() -> EpochProfile {
    let roadside = EpochProfile::roadside_deterministic();
    let mut slots = roadside.slots()[5..11].to_vec();
    slots[0].arrivals = None;
    EpochProfile::new(roadside.slot_length(), slots)
}

fn journal_seed(format: JournalFormat) -> Vec<u8> {
    use snip_replay::event::{JournalEvent, JournalHeader, SchedulerSpec};
    use snip_replay::journal::JournalWriter;
    use snip_sim::SimConfig;
    use snip_units::DutyCycle;

    let header = JournalHeader::new(
        SchedulerSpec::At {
            duty_cycle: DutyCycle::new(0.001).expect("valid duty cycle"),
        },
        SimConfig::paper_defaults().with_epochs(1),
        42,
    );
    let mut writer = JournalWriter::new(Vec::new(), format);
    writer
        .write(&JournalEvent::Header(header))
        .expect("in-memory journal write");
    writer
        .write(&JournalEvent::TraceEnd { count: 0 })
        .expect("in-memory journal write");
    writer.flush().expect("in-memory journal flush");
    writer.into_inner()
}

/// A checkpoint journal in `format`: the header plus one shard record.
fn checkpoint_seed(format: JournalFormat) -> Vec<u8> {
    let events = [
        CheckpointEvent::Header(CheckpointHeader {
            version: snip_replay::CHECKPOINT_VERSION,
            spec_hash: 0xfeed_beef,
            total_shards: 4,
            name: "fuzz-seed".to_string(),
        }),
        CheckpointEvent::ShardDone {
            shard: 0,
            metrics: vec![],
        },
    ];
    let mut bytes = Vec::new();
    for event in &events {
        match format {
            JournalFormat::Jsonl => {
                bytes.extend_from_slice(serde::json::to_string(event).as_bytes());
                bytes.push(b'\n');
            }
            JournalFormat::Cbor => bytes.extend_from_slice(&serde::cbor::to_vec(event)),
        }
    }
    bytes
}

// ---------------------------------------------------------------------------
// Structured mutations
// ---------------------------------------------------------------------------

/// Applies one structure-aware mutation. The mutation *kind* and all its
/// operands come from the xorshift stream, so the whole schedule is a
/// pure function of the seed.
fn mutate(rng: &mut XorShift64, input: &[u8], scratch: &[Vec<u8>]) -> Vec<u8> {
    let mut out = input.to_vec();
    match rng.below(11) {
        // Bit flip.
        0 if !out.is_empty() => {
            let i = rng.below(out.len());
            out[i] ^= 1 << rng.below(8);
        }
        // Overwrite a byte with anything.
        1 if !out.is_empty() => {
            let i = rng.below(out.len());
            out[i] = (rng.next_u64() & 0xff) as u8;
        }
        // Truncate (mid-frame EOFs, torn tails).
        2 if !out.is_empty() => {
            out.truncate(rng.below(out.len()));
        }
        // Duplicate a random slice in place.
        3 if out.len() >= 2 => {
            let a = rng.below(out.len());
            let b = a + rng.below(out.len() - a);
            let slice = out[a..=b.min(out.len() - 1)].to_vec();
            let at = rng.below(out.len());
            out.splice(at..at, slice);
        }
        // Splice with another corpus seed.
        4 if !scratch.is_empty() => {
            let other = &scratch[rng.below(scratch.len())];
            if !out.is_empty() && !other.is_empty() {
                let cut = rng.below(out.len());
                let from = rng.below(other.len());
                out.truncate(cut);
                out.extend_from_slice(&other[from..]);
            }
        }
        // Mangle the leading decimal integer (JSONL numbers): huge,
        // negative, overflowing, or non-numeric.
        5 => {
            let repl: &[u8] = match rng.below(4) {
                0 => b"999999999999",
                1 => b"99999999999999999999999999",
                2 => b"-1",
                _ => b"0x10",
            };
            let end = out.iter().position(|b| !b.is_ascii_digit()).unwrap_or(0);
            out.splice(0..end, repl.iter().copied());
        }
        // Nesting bomb: a run of open brackets/braces (the recursion
        // probe). Depth past the parser's ceiling but far below the
        // stack, so a regression shows up as a panic-class finding —
        // the historical unbounded-recursion abort is pinned by the
        // committed `ci/corpus` artifact instead.
        6 => {
            let depth = 200 + rng.below(800);
            let open = if rng.below(2) == 0 { b'[' } else { b'{' };
            let at = rng.below(out.len() + 1);
            out.splice(at..at, std::iter::repeat_n(open, depth));
        }
        // CBOR major-type mangling: overwrite a byte with a type-coded
        // header claiming an enormous definite length.
        7 => {
            let hdr: &[u8] = match rng.below(3) {
                0 => &[0x5b, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff], // bytes, 2^64-ish
                1 => &[0x9b, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00], // array, 2^36
                _ => &[0xbb, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00], // map, huge
            };
            let at = rng.below(out.len() + 1);
            out.splice(at..at, hdr.iter().copied());
        }
        // Binary frame header games: a `0xC5` magic with a lying
        // big-endian length — far past the pre-auth cap, zero, or just
        // bigger than what follows (mid-stream truncation probe).
        9 => {
            let hdr: [u8; 5] = match rng.below(3) {
                0 => [0xC5, 0xFF, 0xFF, 0xFF, 0xFF],
                1 => [0xC5, 0x00, 0x00, 0x00, 0x00],
                _ => {
                    let lie = (out.len() as u32).saturating_add(64);
                    let b = lie.to_be_bytes();
                    [0xC5, b[0], b[1], b[2], b[3]]
                }
            };
            let at = rng.below(out.len() + 1);
            out.splice(at..at, hdr);
        }
        // Insert raw noise.
        8 => {
            let n = 1 + rng.below(16);
            let at = rng.below(out.len() + 1);
            let noise: Vec<u8> = (0..n).map(|_| (rng.next_u64() & 0xff) as u8).collect();
            out.splice(at..at, noise);
        }
        // Newline games: JSONL is line-delimited; drop or double a
        // delimiter.
        _ => {
            if let Some(pos) = out.iter().position(|&b| b == b'\n') {
                if rng.below(2) == 0 {
                    out.remove(pos);
                } else {
                    out.insert(pos, b'\n');
                }
            } else {
                out.push(b'\n');
            }
        }
    }
    // Keep inputs bounded: mutation compounding must not grow them into
    // multi-megabyte slugs that slow every later iteration.
    out.truncate(1 << 16);
    out
}

// ---------------------------------------------------------------------------
// Execution: watchdogged worker thread
// ---------------------------------------------------------------------------

/// The decode loop for one target. Runs on the worker thread, inside
/// `catch_unwind`.
fn decode(target: Target, input: &[u8]) -> Outcome {
    // Cap the number of records drained: a decoder that "succeeds"
    // forever on a small input would otherwise look like a hang.
    const MAX_RECORDS: u32 = 4096;
    match target {
        Target::Frame => {
            let mut reader = FrameReader::new(Cursor::new(input));
            let mut n = 0u32;
            loop {
                match reader.recv_frame() {
                    Ok(Some(payload)) => {
                        typed_decoders_agree(&payload);
                        if serde::cbor::from_slice(&payload).is_err() {
                            return Outcome::Rejected;
                        }
                        n += 1;
                        if n >= MAX_RECORDS {
                            return Outcome::Ok(n);
                        }
                    }
                    Ok(None) => return Outcome::Ok(n),
                    Err(_) => return Outcome::Rejected,
                }
            }
        }
        Target::JournalJsonl | Target::JournalCbor => {
            let format = if target == Target::JournalJsonl {
                JournalFormat::Jsonl
            } else {
                JournalFormat::Cbor
            };
            let mut reader = JournalReader::new(Cursor::new(input), format);
            let mut n = 0u32;
            loop {
                match reader.next_event() {
                    Ok(Some(_)) => {
                        n += 1;
                        if n >= MAX_RECORDS {
                            return Outcome::Ok(n);
                        }
                    }
                    Ok(None) => return Outcome::Ok(n),
                    Err(_) => return Outcome::Rejected,
                }
            }
        }
        Target::Checkpoint | Target::CheckpointCbor => {
            let format = if target == Target::Checkpoint {
                JournalFormat::Jsonl
            } else {
                JournalFormat::Cbor
            };
            match load_checkpoint_from(input, format) {
                Ok(load) => Outcome::Ok(load.shards.len() as u32),
                Err(_) => Outcome::Rejected,
            }
        }
    }
}

/// Derived stand-ins for the fleet messages (`snip-fleetd` depends on
/// this crate, so its types are out of reach): the same derive shapes —
/// an externally tagged enum with struct, tuple, newtype and unit
/// variants, nested structs, `Option`s, sequences, arrays, floats — with
/// the fleet's result type ([`snip_sim::RunMetrics`]) inside.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum ProbeMsg {
    Join {
        protocol: u32,
        token: String,
        pid: u64,
        resume: Option<u64>,
    },
    Shard {
        jobs: Vec<ProbeJob>,
        plans: Vec<ProbePlan>,
    },
    ShardDone {
        results: Vec<ProbeResult>,
        plans: Vec<ProbePlan>,
        seeded_hits: u64,
    },
    Session(u64),
    Pair(i64, f64),
    Shutdown,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ProbeJob {
    id: u64,
    start: u64,
    end: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ProbeResult {
    id: u64,
    metrics: Vec<snip_sim::RunMetrics>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ProbePlan {
    key: String,
    weights: Vec<f64>,
    duty: Option<f64>,
    slots: [u8; 2],
}

/// Decodes `payload` straight through the CBOR slice reader, and through
/// the `Value` format (`cbor::from_slice`, then `from_value` walks the
/// tree), as each stand-in type, as the spec's hand-decoded
/// [`EpochProfile`] and as a bare [`Value`], and panics — a
/// finding — unless both accept with the same value or both refuse.
fn typed_decoders_agree(payload: &[u8]) {
    fn agree<T: Serialize + Deserialize>(payload: &[u8], ty: &str) {
        // Compared as canonical bytes: bit-exact, and NaN-safe.
        let walked = serde::cbor::from_slice(payload)
            .and_then(|v| T::from_value(&v))
            .map(|t| serde::cbor::to_vec(&t.to_value()));
        let read = serde::cbor::decode::<T>(payload).map(|t| serde::cbor::to_vec(&t));
        match (walked, read) {
            (Ok(a), Ok(b)) if a == b => {}
            (Err(_), Err(_)) => {}
            (walked, read) => panic!(
                "the slice reader and the Value walker disagree on a {ty}: \
                 walked {walked:?}, read {read:?}"
            ),
        }
    }
    agree::<ProbeMsg>(payload, "ProbeMsg");
    agree::<ProbeJob>(payload, "ProbeJob");
    agree::<EpochProfile>(payload, "EpochProfile");
    agree::<Value>(payload, "Value");
}

thread_local! {
    /// Set on fuzz worker threads so the panic hook stays quiet: a
    /// thousand expected panics must not spam stderr.
    static SILENT_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static HOOK: Once = Once::new();

fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SILENT_PANICS.with(std::cell::Cell::get) {
                prev(info);
            }
        }));
    });
}

/// A watchdogged executor: inputs run on a worker thread, the caller
/// waits with a timeout, and a timed-out worker is abandoned (detached,
/// leaked) and replaced. Hangs become findings instead of hung fuzzers.
struct Executor {
    tx: mpsc::Sender<(Target, Vec<u8>)>,
    rx: mpsc::Receiver<Outcome>,
    generation: u64,
    timeout: Duration,
}

impl Executor {
    fn new(timeout: Duration) -> Executor {
        install_quiet_hook();
        let mut ex = Executor {
            // Placeholder channels, immediately replaced.
            tx: mpsc::channel().0,
            rx: mpsc::channel().1,
            generation: 0,
            timeout,
        };
        ex.respawn();
        ex
    }

    fn respawn(&mut self) {
        self.generation += 1;
        let (job_tx, job_rx) = mpsc::channel::<(Target, Vec<u8>)>();
        let (out_tx, out_rx) = mpsc::channel::<Outcome>();
        thread::Builder::new()
            .name(format!("snip-fuzz-worker-{}", self.generation))
            .spawn(move || {
                SILENT_PANICS.with(|s| s.set(true));
                while let Ok((target, input)) = job_rx.recv() {
                    let outcome =
                        match panic::catch_unwind(AssertUnwindSafe(|| decode(target, &input))) {
                            Ok(outcome) => outcome,
                            Err(payload) => Outcome::Panic(panic_message(&payload)),
                        };
                    if out_tx.send(outcome).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn fuzz worker");
        self.tx = job_tx;
        self.rx = out_rx;
    }

    fn run(&mut self, target: Target, input: &[u8]) -> Outcome {
        if self.tx.send((target, input.to_vec())).is_err() {
            // Worker died outside catch_unwind (should be impossible);
            // treat as a panic-class finding and recover.
            self.respawn();
            return Outcome::Panic("worker thread died".to_string());
        }
        match self.rx.recv_timeout(self.timeout) {
            Ok(outcome) => outcome,
            Err(_) => {
                // Abandon the stuck worker; it leaks by design.
                self.respawn();
                Outcome::Hang
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Minimization
// ---------------------------------------------------------------------------

/// Greedy chunk-removal minimization: repeatedly try deleting chunks
/// (half the input, then quarters, … down to single bytes), keeping any
/// deletion that preserves the finding class. Deterministic, bounded to
/// `MAX_MIN_EXECUTIONS` executions so a hang-class finding (each probe
/// costs a full timeout) stays affordable.
fn minimize(ex: &mut Executor, target: Target, input: &[u8], class: &str) -> Vec<u8> {
    const MAX_MIN_EXECUTIONS: u32 = 256;
    let mut best = input.to_vec();
    let mut budget = MAX_MIN_EXECUTIONS;
    let mut chunk = (best.len() / 2).max(1);
    while chunk >= 1 && budget > 0 {
        let mut offset = 0;
        let mut shrunk = false;
        while offset < best.len() && budget > 0 {
            let end = (offset + chunk).min(best.len());
            let mut candidate = Vec::with_capacity(best.len() - (end - offset));
            candidate.extend_from_slice(&best[..offset]);
            candidate.extend_from_slice(&best[end..]);
            if candidate.is_empty() {
                offset = end;
                continue;
            }
            budget -= 1;
            if ex.run(target, &candidate).class() == class {
                best = candidate;
                shrunk = true;
                // Same offset again: the next chunk slid into place.
            } else {
                offset = end;
            }
        }
        if chunk == 1 && !shrunk {
            break;
        }
        if !shrunk {
            chunk /= 2;
        }
    }
    best
}

// ---------------------------------------------------------------------------
// The fuzz loop
// ---------------------------------------------------------------------------

/// Runs the fuzzer per [`FuzzConfig`].
///
/// # Errors
///
/// Returns [`io::Error`] only for corpus-directory I/O failures; decoder
/// misbehavior is *data* (findings in the report), not an error.
pub fn run_fuzz(cfg: &FuzzConfig) -> io::Result<FuzzReport> {
    let mut rng = XorShift64::new(cfg.seed);
    let mut ex = Executor::new(cfg.timeout);
    let mut report = FuzzReport {
        executions: 0,
        ok: 0,
        rejected: 0,
        findings: Vec::new(),
        digest: FNV_OFFSET,
    };
    if let Some(dir) = &cfg.corpus_dir {
        fs::create_dir_all(dir)?;
    }

    for &target in &cfg.targets {
        let seeds = seed_corpus(target);
        // The live pool: seeds plus inputs that produced novel outcomes.
        let mut pool = seeds.clone();
        for _ in 0..cfg.iters {
            let base = &pool[rng.below(pool.len())].clone();
            let input = mutate(&mut rng, base, &seeds);
            let outcome = ex.run(target, &input);
            report.executions += 1;
            report.digest = fnv1a(report.digest, &[outcome.code()]);
            report.digest = fnv1a(report.digest, &(input.len() as u64).to_le_bytes());
            match &outcome {
                Outcome::Ok(_) => {
                    report.ok += 1;
                    // A mutated input that still decodes is structurally
                    // interesting: feed it back (bounded pool).
                    if pool.len() < 64 {
                        pool.push(input);
                    }
                }
                Outcome::Rejected => report.rejected += 1,
                Outcome::Panic(_) | Outcome::Hang => {
                    let class = outcome.class();
                    let minimized = minimize(&mut ex, target, &input, class);
                    let detail = match &outcome {
                        Outcome::Panic(msg) => msg.clone(),
                        _ => String::new(),
                    };
                    let artifact = match &cfg.corpus_dir {
                        Some(dir) => {
                            let digest = fnv1a(FNV_OFFSET, &minimized);
                            let path = dir.join(format!(
                                "{}--{}--{digest:016x}.bin",
                                target.name(),
                                class
                            ));
                            fs::write(&path, &minimized)?;
                            Some(path)
                        }
                        None => None,
                    };
                    report.findings.push(Finding {
                        target,
                        class,
                        detail,
                        input: minimized,
                        artifact,
                    });
                }
            }
        }
    }
    Ok(report)
}

/// Replays every `*.bin` artifact in `dir` against its decoder (the
/// target is the filename's first `--`-separated field) and reports any
/// that still panic or hang. This is the standing regression test over
/// every crash the fuzzer ever found.
///
/// # Errors
///
/// Returns [`io::Error`] for unreadable directories/artifacts or a
/// filename whose target field is unknown.
pub fn replay_corpus(dir: &Path) -> io::Result<CorpusReport> {
    let mut ex = Executor::new(Duration::from_secs(10));
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    paths.sort();
    let mut report = CorpusReport {
        artifacts: 0,
        regressions: Vec::new(),
    };
    for path in paths {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        let target_name = stem.split("--").next().unwrap_or_default();
        let target = Target::from_name(target_name).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "corpus artifact `{}` names unknown target `{target_name}`",
                    path.display()
                ),
            )
        })?;
        let bytes = fs::read(&path)?;
        report.artifacts += 1;
        let outcome = ex.run(target, &bytes);
        if outcome.is_finding() {
            let detail = match outcome {
                Outcome::Panic(msg) => format!("panic: {msg}"),
                Outcome::Hang => "hang".to_string(),
                _ => unreachable!("is_finding"),
            };
            report.regressions.push((path, detail));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_decode_cleanly_on_every_target() {
        let mut ex = Executor::new(Duration::from_secs(10));
        for target in Target::ALL {
            for (i, seed) in seed_corpus(target).iter().enumerate() {
                let outcome = ex.run(target, seed);
                assert!(
                    matches!(outcome, Outcome::Ok(n) if n > 0),
                    "{} seed {i} must decode: {outcome:?}",
                    target.name()
                );
            }
        }
    }

    #[test]
    fn same_seed_same_digest() {
        let cfg = FuzzConfig {
            seed: 1234,
            iters: 60,
            ..FuzzConfig::default()
        };
        let a = run_fuzz(&cfg).expect("fuzz run");
        let b = run_fuzz(&cfg).expect("fuzz run");
        assert_eq!(a.digest, b.digest, "bit-reproducibility: {a} vs {b}");
        assert_eq!(a.executions, b.executions);
        assert_eq!(a.ok, b.ok);
        assert_eq!(a.rejected, b.rejected);
    }

    #[test]
    fn a_short_run_finds_no_crashes_in_the_fixed_decoders() {
        let cfg = FuzzConfig {
            seed: 99,
            iters: 120,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&cfg).expect("fuzz run");
        assert!(
            report.is_clean(),
            "decoders must reject, never crash: {:?}",
            report
                .findings
                .iter()
                .map(|f| (f.target.name(), f.class, f.detail.clone()))
                .collect::<Vec<_>>()
        );
        assert!(
            report.rejected > 0,
            "mutations must exercise error paths: {report}"
        );
        assert!(
            report.ok > 0,
            "some mutations must survive decoding: {report}"
        );
    }

    #[test]
    fn hangs_are_caught_and_the_executor_survives() {
        // Not a decoder hang (none are known): prove the watchdog works
        // by timing out an artificially slow execution.
        let mut ex = Executor::new(Duration::from_millis(50));
        let (tx, rx) = mpsc::channel::<()>();
        // Replace the worker with one that sleeps forever on first job.
        ex.tx = {
            let (job_tx, job_rx) = mpsc::channel::<(Target, Vec<u8>)>();
            thread::spawn(move || {
                let _ = job_rx.recv();
                let _ = rx.recv(); // blocks until the test ends
            });
            job_tx
        };
        let outcome = ex.run(Target::Frame, b"anything");
        assert_eq!(outcome, Outcome::Hang);
        // The respawned worker handles the next input normally.
        let mut frame = Vec::new();
        FrameWriter::new(&mut frame)
            .send(&serde::Value::Str("ok".to_string()))
            .expect("frame write");
        let outcome = ex.run(Target::Frame, &frame);
        assert!(matches!(outcome, Outcome::Ok(1)), "{outcome:?}");
        drop(tx);
    }

    #[test]
    fn minimization_shrinks_while_preserving_class() {
        // Minimize against a synthetic "class": Rejected. A frame whose
        // length header lies is rejected however much padding follows.
        let mut ex = Executor::new(Duration::from_secs(5));
        let mut input = vec![0xC5, 0xFF, 0xFF, 0xFF, 0xFF];
        input.extend_from_slice(&[b'x'; 300]);
        let min = minimize(&mut ex, Target::Frame, &input, "rejected");
        assert!(ex.run(Target::Frame, &min).class() == "rejected");
        assert!(
            min.len() < input.len() / 2,
            "shrunk: {} -> {}",
            input.len(),
            min.len()
        );
    }

    #[test]
    fn a_binary_frame_claiming_four_gigabytes_is_rejected_before_allocation() {
        // The frame twin of the journal-cbor huge-text-prealloc finding:
        // a 5-byte header whose big-endian length field claims a ~4 GiB
        // payload. The frame-size cap must reject it before any buffer is
        // sized from the attacker's number (the committed
        // `ci/corpus/frame--abort--huge-len-prealloc.bin` pins the same
        // bytes).
        let mut ex = Executor::new(Duration::from_secs(5));
        let outcome = ex.run(Target::Frame, &[0xC5, 0xFF, 0xFF, 0xFF, 0xFF]);
        assert_eq!(outcome, Outcome::Rejected, "cap must precede allocation");
    }

    #[test]
    fn the_nesting_bomb_is_rejected_not_fatal() {
        // The development-time finding, reconstructed: a single JSONL
        // record that is deeply nested JSON. Before the depth ceiling
        // this overflowed the stack (process abort); now it must be a
        // graceful rejection.
        let line = format!("{}\n", "[".repeat(50_000));
        let mut ex = Executor::new(Duration::from_secs(10));
        let outcome = ex.run(Target::JournalJsonl, line.as_bytes());
        assert_eq!(outcome, Outcome::Rejected, "depth ceiling must hold");
    }
}
