//! `snipbench`: one repetition of a benchmark workload per process.
//!
//! `run.py` next to this crate drives it: it builds this binary, starts a
//! fresh process per repetition, checks every job against a reference
//! computed in yet another process, and aggregates medians.
//!
//! ```text
//! snipbench rep --workload W --seed N --size K --scratch DIR [--traced] [--spans-out FILE]
//! snipbench reference --workload W --seed N --size K
//! snipbench fleet-worker --ready-log FILE
//! ```
//!
//! `rep` and `reference` print one JSON object on stdout. `fleet-worker`
//! serves the fleet protocol on stdin/stdout, and appends the wall-clock
//! time of its first reply (its `Ready`, after which the coordinator deals
//! it a shard) to the ready log, so the coordinator's process can tell
//! when the first job was dispatched.

mod inputs;
mod spans;
mod workloads;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use serde::Value;

use inputs::Workload;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("rep") => cmd_rep(&args[1..]),
        Some("reference") => cmd_reference(&args[1..]),
        Some("fleet-worker") => cmd_fleet_worker(&args[1..]),
        _ => Err("usage: snipbench rep|reference|fleet-worker [options]".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("snipbench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// The flags of `rep` and `reference`.
struct Options {
    workload: Workload,
    seed: u64,
    size: usize,
    traced: bool,
    scratch: PathBuf,
    spans_out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut size = None;
    let mut traced = false;
    let mut scratch = PathBuf::from(".");
    let mut spans_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--size" => size = Some(value()?.parse().map_err(|_| "--size takes an integer")?),
            "--scratch" => scratch = PathBuf::from(value()?),
            "--spans-out" => spans_out = Some(PathBuf::from(value()?)),
            "--traced" => traced = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let size = size.unwrap_or(workload.default_size());
    if size == 0 {
        return Err("--size must be at least 1".into());
    }
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        size,
        traced,
        scratch,
        spans_out,
    })
}

fn hex(digests: &[u64]) -> Value {
    Value::Seq(
        digests
            .iter()
            .map(|d| Value::Str(format!("{d:016x}")))
            .collect(),
    )
}

fn number_map<'a>(entries: impl IntoIterator<Item = (&'a str, f64)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::F64(v)))
            .collect(),
    )
}

fn cmd_rep(args: &[String]) -> Result<(), String> {
    let opts = parse(args)?;
    let rep = workloads::run(
        opts.workload,
        opts.seed,
        opts.size,
        opts.traced,
        &opts.scratch,
    )?;
    if let (Some(path), Some(json)) = (&opts.spans_out, &rep.spans_json) {
        std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let out = Value::Map(vec![
        ("workload".into(), Value::Str(opts.workload.name().into())),
        ("traced".into(), Value::Bool(opts.traced)),
        ("jobs".into(), Value::U64(rep.jobs)),
        ("wall_s".into(), Value::F64(rep.wall_s)),
        ("setup_s".into(), Value::F64(rep.setup_s)),
        (
            "laps_s".into(),
            Value::Seq(rep.laps_s.into_iter().map(Value::F64).collect()),
        ),
        ("peak_rss_mb".into(), Value::F64(rep.peak_rss_mb)),
        ("metrics_digests".into(), hex(&rep.metrics_digests)),
        ("row_digests".into(), hex(&rep.row_digests)),
        ("layers".into(), number_map(rep.layers.into_iter())),
        ("table".into(), number_map(rep.table.into_iter())),
    ]);
    println!("{}", serde::json::to_string(&out));
    Ok(())
}

fn cmd_reference(args: &[String]) -> Result<(), String> {
    let opts = parse(args)?;
    let spec = workloads::parse_spec(&inputs::spec_json(opts.workload, opts.seed, opts.size))?;
    let (metrics, rows) = workloads::reference(&spec);
    let out = Value::Map(vec![
        ("metrics_digests".into(), hex(&metrics)),
        ("row_digests".into(), hex(&rows)),
    ]);
    println!("{}", serde::json::to_string(&out));
    Ok(())
}

/// Stdout that stamps the wall-clock time of its first write into a log.
struct StampFirstWrite<W: Write> {
    inner: W,
    log: Option<PathBuf>,
}

impl<W: Write> Write for StampFirstWrite<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(log) = self.log.take() {
            let stamp = format!("{}\n", workloads::unix_ns());
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(log)?
                .write_all(stamp.as_bytes())?;
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

fn cmd_fleet_worker(args: &[String]) -> Result<(), String> {
    let log = match args {
        [flag, path] if flag == "--ready-log" => PathBuf::from(path),
        _ => return Err("usage: snipbench fleet-worker --ready-log FILE".into()),
    };
    let output = StampFirstWrite {
        inner: std::io::stdout(),
        log: Some(log),
    };
    snip_fleetd::run_worker(
        std::io::BufReader::new(std::io::stdin()),
        output,
        u64::from(std::process::id()),
    )
    .map(|_| ())
    .map_err(|e| format!("fleet worker failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn flags_parse_and_default_the_size() {
        let opts = parse(&args(&[
            "--workload",
            "long-fleet",
            "--seed",
            "3",
            "--traced",
        ]))
        .expect("valid flags");
        assert_eq!(opts.workload, Workload::LongFleet);
        assert_eq!(opts.seed, 3);
        assert_eq!(opts.size, Workload::LongFleet.default_size());
        assert!(opts.traced);
        assert!(parse(&args(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse(&args(&["--workload", "plan-sweep"])).is_err());
        assert!(parse(&args(&[
            "--workload",
            "plan-sweep",
            "--seed",
            "1",
            "--size",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn names_use_only_the_allowed_characters() {
        let allowed = |s: &str| {
            s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let rep = workloads::run(Workload::PlanSweep, 1, 2, true, std::path::Path::new("."))
            .expect("tiny traced sweep");
        let names: BTreeMap<&str, ()> = Workload::ALL
            .iter()
            .map(|w| (w.name(), ()))
            .chain(rep.layers.keys().map(|k| (*k, ())))
            .chain(rep.table.keys().map(|k| (*k, ())))
            .collect();
        for name in names.keys() {
            assert!(allowed(name), "`{name}`");
        }
    }
}
