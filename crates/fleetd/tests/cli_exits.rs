//! How `snip` ends when its input or its output goes wrong: quietly when
//! the reader of its stdout has gone away, with status 2, before any
//! worker starts, when a spec carries a distribution no constructor would
//! build, and with status 2 when a journal header carries a run or
//! scheduler configuration its constructor would refuse.

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

#[test]
fn hostile_snip_rh_headers_are_refused_before_replay() {
    let dir = std::env::temp_dir().join(format!("snip-cli-rh-header-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("run.jsonl");
    let record = Command::new(SNIP_BIN)
        .args(["record", "--scenario", "roadside", "--mechanism", "rh"])
        .args(["--epochs", "1", "--seed", "42", "--out"])
        .arg(&journal)
        .output()
        .expect("spawn snip");
    assert!(record.status.success(), "{record:?}");
    let text = std::fs::read_to_string(&journal).expect("read journal");
    let (header, rest) = text.split_once('\n').expect("a header line");

    let marks_at = header.find(r#""rush_marks":["#).expect("marks in header");
    let marks_end = marks_at + header[marks_at..].find(']').expect("end of marks");
    let no_marks = format!(
        r#"{}"rush_marks":[{}"#,
        &header[..marks_at],
        &header[marks_end..]
    );
    assert!(
        header.contains(r#""ewma_weight":0.1,"#),
        "header changed shape"
    );
    let bad_weight = header.replacen(r#""ewma_weight":0.1,"#, r#""ewma_weight":7.5,"#, 1);
    // The SNIP-RH config comes before the run's `SimConfig`, so the first
    // `epoch` is its own: 10 µs over 24 marks leaves every slot empty.
    assert!(
        header.contains(r#""epoch":86400000000,"#),
        "header changed shape"
    );
    let short_epoch = header.replacen(r#""epoch":86400000000,"#, r#""epoch":10,"#, 1);

    for (case, bad_header, why) in [
        ("no-marks", no_marks, "need at least one slot mark"),
        ("weight", bad_weight, "EWMA weight must be in (0, 1]"),
        (
            "short-epoch",
            short_epoch,
            "epoch must be at least one µs per slot mark",
        ),
    ] {
        let bad = dir.join(format!("{case}.jsonl"));
        std::fs::write(&bad, format!("{bad_header}\n{rest}")).expect("write journal");
        let out = Command::new(SNIP_BIN)
            .arg("replay")
            .arg(&bad)
            .output()
            .expect("spawn snip");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
        assert!(stderr.contains("SnipRhConfig"), "{case}: {stderr}");
        assert!(stderr.contains(why), "{case}: {stderr}");
        assert!(!stderr.contains("panicked"), "{case}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_snip_at_and_snip_opt_headers_are_refused_before_replay() {
    let dir = std::env::temp_dir().join(format!("snip-cli-at-opt-header-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let duty_cycle = r#""duty_cycle":0.001"#;
    let opt_plan = r#""phi_max_secs":86.4,"zeta_target":16.0"#;
    // (field, its hostile value, the type the error names, why)
    type Case<'a> = (&'a str, &'a str, &'a str, &'a str);
    let cases: [(&str, &[Case]); 2] = [
        (
            "at",
            &[
                (
                    duty_cycle,
                    r#""duty_cycle":2.0"#,
                    "DutyCycle",
                    "finite fraction in [0, 1]",
                ),
                (
                    duty_cycle,
                    r#""duty_cycle":-0.5"#,
                    "DutyCycle",
                    "finite fraction in [0, 1]",
                ),
                // SNIP-AT has no epoch of its own: this is the `SimConfig`'s,
                // too short to split into 24 ledger slots.
                (
                    r#""epoch":86400000000,"#,
                    r#""epoch":10,"#,
                    "SimConfig",
                    "epoch must be at least 24 µs",
                ),
            ],
        ),
        (
            "opt",
            &[
                (
                    opt_plan,
                    r#""phi_max_secs":-1.0,"zeta_target":16.0"#,
                    "SchedulerSpec::Opt",
                    "Φmax must be positive",
                ),
                (
                    opt_plan,
                    r#""phi_max_secs":86.4,"zeta_target":-3.0"#,
                    "SchedulerSpec::Opt",
                    "ζtarget must be positive",
                ),
            ],
        ),
    ];
    for (mechanism, cases) in cases {
        let journal = dir.join(format!("{mechanism}.jsonl"));
        let record = Command::new(SNIP_BIN)
            .args(["record", "--scenario", "roadside", "--mechanism", mechanism])
            .args(["--epochs", "1", "--seed", "42", "--out"])
            .arg(&journal)
            .output()
            .expect("spawn snip");
        assert!(record.status.success(), "{record:?}");
        let text = std::fs::read_to_string(&journal).expect("read journal");
        let (header, rest) = text.split_once('\n').expect("a header line");

        for (k, &(field, hostile, ty, why)) in cases.iter().enumerate() {
            let case = format!("{mechanism}-{k}");
            assert!(header.contains(field), "{case}: header changed shape");
            let bad = dir.join(format!("{case}.jsonl"));
            let bad_header = header.replacen(field, hostile, 1);
            std::fs::write(&bad, format!("{bad_header}\n{rest}")).expect("write journal");
            let out = Command::new(SNIP_BIN)
                .arg("replay")
                .arg(&bad)
                .output()
                .expect("spawn snip");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
            assert!(stderr.contains("codec error"), "{case}: {stderr}");
            assert!(stderr.contains(ty), "{case}: {stderr}");
            assert!(stderr.contains(why), "{case}: {stderr}");
            assert!(!stderr.contains("panicked"), "{case}: {stderr}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_sim_config_headers_are_refused_before_replay() {
    let dir = std::env::temp_dir().join(format!("snip-cli-sim-header-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("run.jsonl");
    let record = Command::new(SNIP_BIN)
        .args(["record", "--scenario", "roadside", "--mechanism", "rh"])
        .args(["--epochs", "1", "--seed", "42", "--out"])
        .arg(&journal)
        .output()
        .expect("spawn snip");
    assert!(record.status.success(), "{record:?}");
    let text = std::fs::read_to_string(&journal).expect("read journal");
    let (header, rest) = text.split_once('\n').expect("a header line");
    // The run's `SimConfig` follows the scheduler, whose SNIP-RH config
    // has an `epoch` and a `ton` of its own: edit only the former.
    let at = header
        .find(r#"}}},"config":{"#)
        .expect("SimConfig in header");
    let (scheduler, config) = header.split_at(at);

    for (case, field, hostile, why) in [
        (
            "ton",
            r#""ton":20000,"#,
            r#""ton":0,"#,
            "Ton must be positive",
        ),
        (
            "epoch",
            r#""epoch":86400000000,"#,
            r#""epoch":0,"#,
            "epoch must be positive",
        ),
        (
            "short-epoch",
            r#""epoch":86400000000,"#,
            r#""epoch":10,"#,
            "epoch must be at least 24 µs",
        ),
        (
            "epochs",
            r#""epochs":1,"#,
            r#""epochs":0,"#,
            "at least one epoch",
        ),
        (
            "decision-interval",
            r#""decision_interval":60000000,"#,
            r#""decision_interval":0,"#,
            "decision interval must be positive",
        ),
        (
            "beacon-loss",
            r#""beacon_loss":0.0"#,
            r#""beacon_loss":2.0"#,
            "loss probability must be in [0, 1]",
        ),
        (
            "data-rate",
            r#""data_rate":0.00018518518518518518,"#,
            r#""data_rate":-1.0,"#,
            "data rate must be finite and non-negative",
        ),
    ] {
        assert!(config.contains(field), "{case}: header changed shape");
        let bad_header = format!("{scheduler}{}", config.replacen(field, hostile, 1));
        let bad = dir.join(format!("{case}.jsonl"));
        std::fs::write(&bad, format!("{bad_header}\n{rest}")).expect("write journal");
        let out = Command::new(SNIP_BIN)
            .arg("replay")
            .arg(&bad)
            .output()
            .expect("spawn snip");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
        assert!(stderr.contains("SimConfig"), "{case}: {stderr}");
        assert!(stderr.contains(why), "{case}: {stderr}");
        assert!(!stderr.contains("panicked"), "{case}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
