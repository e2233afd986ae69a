//! Edge-case tests for the three untrusted decoders: the frame reader, the
//! journal decoder, and the checkpoint loader.
//!
//! These are the boundary inputs `snip fuzz` mutates toward: zero-length
//! frames, length headers past the cap, and streams that end mid-record.
//! Every one must come back as a graceful error (or a tolerated torn tail,
//! for checkpoints) — never a panic or an allocation sized by
//! attacker-claimed lengths.

use std::io::Write;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use snip_replay::checkpoint::{
    load_checkpoint, CheckpointHeader, CheckpointWriter, CHECKPOINT_VERSION,
};
use snip_replay::frame::{encode_binary_frame, BINARY_FRAME_MAGIC, MAX_FRAME_BYTES};
use snip_replay::journal::{JournalFormat, JournalReader};
use snip_replay::{FrameError, FrameReader};

fn read_one(bytes: &[u8]) -> Result<Option<serde::Value>, FrameError> {
    FrameReader::new(bytes).recv_value()
}

/// A frame header announcing `len` payload bytes.
fn header(len: u32) -> Vec<u8> {
    let mut bytes = vec![BINARY_FRAME_MAGIC];
    bytes.extend_from_slice(&len.to_be_bytes());
    bytes
}

// ---------------------------------------------------------------- frames

#[test]
fn zero_length_frame_is_a_codec_error_not_a_panic() {
    // A bare header is structurally valid framing around an empty
    // payload, but an empty payload is not a CBOR item.
    match read_one(&header(0)) {
        Err(FrameError::Codec(_)) => {}
        other => panic!("zero-length frame: expected Codec error, got {other:?}"),
    }
}

#[test]
fn length_prefix_over_the_default_cap_is_rejected() {
    let over = u32::try_from(MAX_FRAME_BYTES + 1).expect("the cap fits the u32 header");
    match read_one(&header(over)) {
        Err(FrameError::Codec(msg)) => {
            assert!(msg.contains("exceeds"), "unexpected message: {msg}");
        }
        other => panic!("over-cap prefix: expected Codec error, got {other:?}"),
    }
}

#[test]
fn length_prefix_over_a_negotiated_limit_is_rejected() {
    let limit = Arc::new(AtomicU64::new(16));
    let mut input = header(17);
    input.extend_from_slice(&[0x60; 17]);
    let mut r = FrameReader::with_frame_limit(&input[..], limit);
    match r.recv_value() {
        Err(FrameError::Codec(msg)) => {
            assert!(msg.contains("16-byte limit"), "unexpected message: {msg}");
        }
        other => panic!("over-limit prefix: expected Codec error, got {other:?}"),
    }
}

#[test]
fn eof_mid_payload_is_truncated() {
    let mut input = header(10);
    input.extend_from_slice(b"abc");
    match read_one(&input) {
        Err(FrameError::Truncated) => {}
        other => panic!("mid-payload EOF: expected Truncated, got {other:?}"),
    }
}

#[test]
fn eof_at_a_frame_boundary_is_a_clean_end() {
    let frame = encode_binary_frame(&serde::Value::Map(vec![]));
    let mut r = FrameReader::new(&frame[..]);
    assert!(r.recv_value().expect("first frame decodes").is_some());
    assert!(r.recv_value().expect("clean EOF").is_none());
}

// --------------------------------------------------------------- journal

#[test]
fn empty_journal_is_a_clean_end_in_both_formats() {
    for format in [JournalFormat::Jsonl, JournalFormat::Cbor] {
        let mut r = JournalReader::new(&b""[..], format);
        assert!(r.next_event().expect("empty journal reads clean").is_none());
    }
}

#[test]
fn torn_final_jsonl_line_is_a_codec_error() {
    // A crash mid-append leaves a partial line with no closing brace.
    let mut r = JournalReader::new(&b"{\"Trace"[..], JournalFormat::Jsonl);
    assert!(r.next_event().is_err(), "torn JSONL line must not decode");
}

#[test]
fn cbor_item_truncated_mid_body_is_an_error() {
    // Text header claiming 100 bytes with only 3 behind it.
    let bytes: &[u8] = &[0x78, 100, b'a', b'b', b'c'];
    let mut r = JournalReader::new(bytes, JournalFormat::Cbor);
    assert!(
        r.next_event().is_err(),
        "truncated CBOR item must not decode"
    );
}

#[test]
fn cbor_text_claiming_huge_length_errors_without_allocating_it() {
    // 0x7b = text with 8-byte length; the claimed size is 2^63-1. The
    // decoder must treat the lying length as a truncated stream instead of
    // pre-allocating it (which aborts the process, uncatchably).
    let mut bytes = vec![0x7bu8];
    bytes.extend_from_slice(&(u64::MAX >> 1).to_be_bytes());
    let mut r = JournalReader::new(&bytes[..], JournalFormat::Cbor);
    assert!(
        r.next_event().is_err(),
        "huge claimed length must error, not abort"
    );
}

// ------------------------------------------------------------ checkpoint

fn write_checkpoint(path: &std::path::Path) {
    let header = CheckpointHeader {
        version: CHECKPOINT_VERSION,
        spec_hash: 0xDEAD_BEEF,
        total_shards: 4,
        name: "edge-case".into(),
    };
    let mut w = CheckpointWriter::create(path, &header).expect("create checkpoint");
    w.append_shard(0, &[]).expect("append shard 0");
}

#[test]
fn checkpoint_with_a_torn_tail_recovers_everything_before_it() {
    let path = std::env::temp_dir().join(format!(
        "snip-decoder-edges-torn-{}.jsonl",
        std::process::id()
    ));
    write_checkpoint(&path);
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("reopen checkpoint");
        // A torn record: the writer died mid-append.
        f.write_all(b"{\"ShardDone\":{\"shard\":1,")
            .expect("tear the tail");
    }
    let load = load_checkpoint(&path).expect("torn tail is tolerated");
    assert!(load.truncated, "torn tail must be flagged");
    assert!(load.shards.contains_key(&0), "intact shard 0 must survive");
    assert!(
        !load.shards.contains_key(&1),
        "torn shard 1 must be dropped"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_with_an_unsupported_version_is_refused() {
    let path = std::env::temp_dir().join(format!(
        "snip-decoder-edges-version-{}.jsonl",
        std::process::id()
    ));
    let header = CheckpointHeader {
        version: CHECKPOINT_VERSION + 1,
        spec_hash: 1,
        total_shards: 1,
        name: "future".into(),
    };
    CheckpointWriter::create(&path, &header).expect("create checkpoint");
    let err = load_checkpoint(&path).expect_err("future version must be refused");
    assert!(
        err.to_string().contains("not supported"),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn empty_checkpoint_file_is_an_error_not_a_panic() {
    let path = std::env::temp_dir().join(format!(
        "snip-decoder-edges-empty-{}.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, b"").expect("write empty file");
    assert!(
        load_checkpoint(&path).is_err(),
        "empty checkpoint must error"
    );
    let _ = std::fs::remove_file(&path);
}
