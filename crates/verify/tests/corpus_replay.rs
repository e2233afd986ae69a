//! Replays every committed crash artifact under `ci/corpus/` against the
//! current decoders.
//!
//! Each artifact is a raw input that once panicked, hung, or aborted a
//! decoder. The fixes live in the decoders; this test keeps them honest: a
//! regression here means an old crash came back.

use std::path::PathBuf;

use snip_verify::fuzz::replay_corpus;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../ci/corpus")
}

#[test]
fn committed_corpus_replays_clean() {
    let dir = corpus_dir();
    assert!(
        dir.is_dir(),
        "ci/corpus/ is missing — the crash corpus must stay committed"
    );
    let report = replay_corpus(&dir).expect("corpus replay should run");
    assert!(
        report.artifacts >= 4,
        "expected at least the four seeded artifacts, replayed {}",
        report.artifacts
    );
    assert!(
        report.regressions.is_empty(),
        "corpus regressions: {:?}",
        report.regressions
    );
}

#[test]
fn historical_findings_are_pinned() {
    // The development-time findings (plus the checkpoint-path variant of
    // the first) must stay in the corpus by name. Renaming is fine only if
    // the `<target>--` prefix still parses. The huge-len-prealloc frame
    // artifact is the frame twin of the huge-text-prealloc attack: a
    // header whose length field claims ~4 GiB.
    let dir = corpus_dir();
    for name in [
        "frame--abort--nesting-bomb.bin",
        "journal-cbor--abort--huge-text-prealloc.bin",
        "checkpoint--abort--nesting-bomb.bin",
        "frame--abort--huge-len-prealloc.bin",
    ] {
        assert!(
            dir.join(name).is_file(),
            "pinned corpus artifact {name} is missing"
        );
    }
}
