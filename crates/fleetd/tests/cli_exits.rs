//! How `snip` ends when its input or its output goes wrong: quietly when
//! the reader of its stdout has gone away, and with status 2, before any
//! worker starts, when a spec carries a distribution no constructor would
//! build.

use std::process::{Command, Stdio};

const SNIP_BIN: &str = env!("CARGO_BIN_EXE_snip");

#[test]
fn closed_stdout_ends_snip_quietly() {
    // The read end is gone before the child starts, so its first write
    // fails with a broken pipe: no race with a reader that exits early.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(SNIP_BIN)
        .args(["fleet", "--example"])
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("spawn snip");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stderr, "", "a closed stdout is not an error");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

#[test]
fn hostile_arrivals_are_refused_before_any_shard_runs() {
    let example = Command::new(SNIP_BIN)
        .args(["fleet", "--example"])
        .output()
        .expect("spawn snip");
    assert!(example.status.success());
    let text = String::from_utf8(example.stdout).expect("utf-8 spec");
    let offpeak = r#"{"Renewal":{"interval":{"Normal":{"mean":1800000000,"std_dev":180000000}}}}"#;
    assert!(text.contains(offpeak), "example spec changed shape");
    let bad = text.replacen(offpeak, r#"{"Periodic":{"interval":0}}"#, 1);

    let dir = std::env::temp_dir().join(format!("snip-cli-exits-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = dir.join("bad.json");
    std::fs::write(&spec, bad).expect("write spec");
    let out = Command::new(SNIP_BIN)
        .args(["fleet", "--workers", "1", "--spec"])
        .arg(&spec)
        .output()
        .expect("spawn snip");
    let _ = std::fs::remove_dir_all(&dir);

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("EpochProfile"), "{stderr}");
    assert!(
        stderr.contains("arrival interval must be positive"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("unfinished"), "{stderr}");
}
