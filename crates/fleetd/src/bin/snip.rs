//! `snip` — deterministic record/replay and fleet-scale runs for SNIP
//! simulations.
//!
//! ```text
//! snip record  --out run.snipj [--scenario roadside|crawdad] [--mechanism at|rh|opt]
//!              [--epochs N] [--seed S] [--zeta-target SECS] [--phi-max SECS]
//!              [--beacon-loss P]
//! snip replay  <journal> [--mechanism at|rh|opt] [--summary]
//! snip diff    <a> <b>
//! snip convert <in> <out>
//! snip fleet   --spec <file> [--workers K] [--shard-size N] [--verify] [--out PATH]
//! snip fleet-serve --spec <file> --listen ADDR --token-file F [--verify] [--out PATH]
//! snip fleet-worker [--connect ADDR --token-file F]
//!                                  (no flags: spawned by `snip fleet` over stdio)
//! snip lint    [--root DIR]              determinism lint over the workspace
//! snip check-proto                     exhaustive protocol-v5 state check
//! snip fuzz    [--seed S] [--iters N] [--corpus DIR] [--replay]
//! ```
//!
//! Journal format is chosen by extension: `.json`/`.jsonl` are JSON lines,
//! anything else (`.snipj` by convention) is CBOR.
//!
//! Exit codes: 0 success · 1 divergence or difference · 2 usage/IO error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use snip_core::SnipAt;
use snip_fleetd::{example_spec, FleetDriver, FleetOutput, FleetSpec};
use snip_mobility::{ContactTrace, EpochProfile, SyntheticSightings, TraceGenerator};
use snip_model::SnipModel;
use snip_obs::{error, warn};
use snip_replay::diff::diff_journals;
use snip_replay::event::{JournalHeader, SchedulerSpec};
use snip_replay::journal::{convert, JournalReader, JournalWriter};
use snip_replay::record::record_run;
use snip_replay::replay::{replay_run, ReplayError};
use snip_sim::{snip_rh_config, RunMetrics, SimConfig};
use snip_units::{DutyCycle, SimDuration};

const USAGE: &str = "\
snip — deterministic record/replay and fleet-scale runs for SNIP simulations

USAGE:
    snip record  --out <journal> [options]     record a simulation run
    snip replay  <journal> [--mechanism M]     re-execute and verify a journal
    snip diff    <a> <b>                       compare two journals
    snip convert <in> <out>                    translate jsonl <-> cbor
    snip fleet   --spec <file> [options]       run a fleet spec across worker
                                               subprocesses
    snip fleet-serve --spec <file> [options]   multi-host coordinator: listen
                                               for dialing workers over TCP
    snip fleet-worker [--connect ADDR]         serve shards: over stdin/stdout
                                               (spawned by fleet) or by dialing
                                               a fleet-serve coordinator
    snip lint    [--root DIR]                  enforce the determinism contract
                                               over the workspace's own sources
    snip check-proto                           explore every bounded fault
                                               interleaving of protocol v5 and
                                               check the fleet invariants
    snip fuzz    [options]                     seeded structured fuzzing of the
                                               frame/journal/checkpoint decoders

record options (defaults in brackets):
    --out <path>           journal to write (required)
    --scenario <name>      roadside | crawdad                [roadside]
    --mechanism <name>     at | rh | opt                     [rh]
    --epochs <n>           days to simulate                  [14]
    --seed <n>             base seed (trace: n, sim: n+1)    [42]
    --zeta-target <secs>   per-epoch capacity target         [16]
    --phi-max <secs>       per-epoch probing budget          [86.4]
    --beacon-loss <p>      beacon loss probability           [0]

replay options:
    --mechanism <name>     override the recorded scheduler (at | rh | opt) —
                           a deliberate divergence demonstration
    --summary              print per-event-kind counts, the contact-length
                           distribution, and the journal's wall span instead
                           of re-executing it

fleet options (defaults in brackets):
    --spec <path>          JSON fleet spec (required; see --example)
    --workers <k>          worker subprocesses               [#cores]
    --shard-size <n>       jobs per shard                    [jobs/(4*workers)]
    --shard-batch <n>      shards dealt per wire frame (amortizes round
                           trips for small shards)           [1]
    --timeout-secs <s>     per-shard worker timeout, also bounds every
                           handshake phase                   [600]
    --out <path>           write the merged report as JSON
    --verify               also run single-process and require bit-identical
                           output (exit 1 on any difference)
    --checkpoint <path>    append every finished shard to this crash-safe
                           journal (fsync per record; .json/.jsonl or CBOR)
    --resume <path>        restart a run from a checkpoint journal: finished
                           shards are loaded, not recomputed, and the journal
                           keeps growing (mutually exclusive with --checkpoint)
    --partial-ok           if workers are lost and shards stay missing, write a
                           partial report + missing-shard manifest to --out and
                           exit 1 instead of discarding completed work
    --chaos-plan <path>    JSON fault-injection plan (sever/delay/truncate/
                           duplicate/reorder at exact frame ordinals) for
                           crash drills — see ci/chaos.plan.json
    --example              print a sample spec and exit

fleet-serve options (fleet options above, plus):
    --listen <addr>        address to listen on (required; port 0 picks an
                           ephemeral port — see --addr-file)
    --token-file <path>    file holding the shared worker secret (required;
                           contents are trimmed)
    --addr-file <path>     write the bound address (for scripts that need
                           the ephemeral port)
    --stats-addr <addr>    also serve live Prometheus-text metrics over HTTP
                           at this address (GET any path; port 0 picks an
                           ephemeral port)

fleet-worker options:
    (none)                 serve over stdin/stdout (spawned by `snip fleet`)
    --connect <addr>       dial a fleet-serve coordinator over TCP
    --token-file <path>    shared secret for --connect (or the
                           SNIP_FLEET_TOKEN environment variable)
    --retry-secs <s>       total (re)dial budget: jittered exponential
                           backoff until the coordinator answers    [10]

lint options:
    --root <dir>           workspace root to scan            [.]
                           (rules + the `// snip-lint: allow(<rule>): \"why\"`
                           escape hatch are documented in crates/verify)

fuzz options (defaults in brackets):
    --seed <n>             xorshift seed; same seed, same run  [1592614637]
    --iters <n>            iterations per decoder target       [500]
    --corpus <dir>         minimized findings land here, and --replay reads
                           from here                           [ci/corpus]
    --timeout-secs <s>     per-input hang watchdog             [5]
    --replay               re-feed every committed corpus artifact to its
                           decoder and fail on any panic/hang instead of
                           fuzzing

Formats by extension: .json/.jsonl = JSON lines, anything else = CBOR
(.snipj by convention).

environment:
    SNIP_LOG=<level>       stderr verbosity: error | warn | info | debug
                           [warn — the default output is unchanged]
    SNIP_TRACE=<path>      write a chrome://tracing JSON trace of spans and
                           events (load in chrome://tracing or Perfetto)

Exit codes: 0 ok · 1 divergence/difference · 2 usage or I/O error.
";

/// Writes to stdout, the one route every report line takes. A closed
/// stdout (the reader of a pipe went away, as in `snip fleet --example |
/// head`) ends the process quietly with status 0: the reader asked for no
/// more. Any other write error is fatal (status 2).
fn emit(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        error!("error: writing to stdout: {e}");
        std::process::exit(2);
    }
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "record" => cmd_record(rest),
        "replay" => cmd_replay(rest),
        "diff" => cmd_diff(rest),
        "convert" => cmd_convert(rest),
        "fleet" => cmd_fleet(rest),
        "fleet-serve" => cmd_fleet_serve(rest),
        "fleet-worker" => cmd_fleet_worker(rest),
        "lint" => cmd_lint(rest),
        "check-proto" => cmd_check_proto(rest),
        "fuzz" => cmd_fuzz(rest),
        "help" | "--help" | "-h" => {
            emit(format_args!("{USAGE}"));
            return ExitCode::SUCCESS;
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            error!("error: {msg}");
            error!("run `snip help` for usage");
            ExitCode::from(2)
        }
        Err(CliError::Fatal(msg)) => {
            error!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

enum CliError {
    Usage(String),
    Fatal(String),
}

fn fatal(msg: impl std::fmt::Display) -> CliError {
    CliError::Fatal(msg.to_string())
}

// ------------------------------------------------------------------ options

#[derive(Clone, Copy, PartialEq, Eq)]
enum Scenario {
    Roadside,
    Crawdad,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum MechanismArg {
    At,
    Rh,
    Opt,
}

struct RecordOptions {
    out: PathBuf,
    scenario: Scenario,
    mechanism: MechanismArg,
    epochs: u64,
    seed: u64,
    zeta_target: f64,
    phi_max: f64,
    beacon_loss: f64,
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, CliError> {
    let raw = value.ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
    raw.parse()
        .map_err(|_| CliError::Usage(format!("invalid value `{raw}` for {flag}")))
}

fn parse_mechanism(raw: &str) -> Result<MechanismArg, CliError> {
    match raw.to_ascii_lowercase().as_str() {
        "at" | "snip-at" => Ok(MechanismArg::At),
        "rh" | "snip-rh" => Ok(MechanismArg::Rh),
        "opt" | "snip-opt" => Ok(MechanismArg::Opt),
        other => Err(CliError::Usage(format!(
            "unknown mechanism `{other}` (expected at, rh or opt)"
        ))),
    }
}

fn parse_record_options(args: &[String]) -> Result<RecordOptions, CliError> {
    let mut opts = RecordOptions {
        out: PathBuf::new(),
        scenario: Scenario::Roadside,
        mechanism: MechanismArg::Rh,
        epochs: 14,
        seed: 42,
        zeta_target: 16.0,
        phi_max: 86.4,
        beacon_loss: 0.0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => opts.out = parse_value::<PathBuf>(flag, it.next())?,
            "--scenario" => {
                let raw: String = parse_value(flag, it.next())?;
                opts.scenario = match raw.to_ascii_lowercase().as_str() {
                    "roadside" => Scenario::Roadside,
                    "crawdad" | "synthetic-crawdad" => Scenario::Crawdad,
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown scenario `{other}` (expected roadside or crawdad)"
                        )))
                    }
                };
            }
            "--mechanism" => {
                let raw: String = parse_value(flag, it.next())?;
                opts.mechanism = parse_mechanism(&raw)?;
            }
            "--epochs" => opts.epochs = parse_value(flag, it.next())?,
            "--seed" => opts.seed = parse_value(flag, it.next())?,
            "--zeta-target" => opts.zeta_target = parse_value(flag, it.next())?,
            "--phi-max" => opts.phi_max = parse_value(flag, it.next())?,
            "--beacon-loss" => opts.beacon_loss = parse_value(flag, it.next())?,
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
    }
    if opts.out.as_os_str().is_empty() {
        return Err(CliError::Usage("record needs --out <journal>".into()));
    }
    if opts.epochs == 0 {
        return Err(CliError::Usage("--epochs must be at least 1".into()));
    }
    if opts.zeta_target <= 0.0
        || opts.phi_max <= 0.0
        || !opts.zeta_target.is_finite()
        || !opts.phi_max.is_finite()
    {
        return Err(CliError::Usage(
            "--zeta-target and --phi-max must be positive".into(),
        ));
    }
    if !(0.0..=1.0).contains(&opts.beacon_loss) {
        return Err(CliError::Usage("--beacon-loss must be in [0, 1]".into()));
    }
    Ok(opts)
}

// ------------------------------------------------------------------- record

/// Builds the scenario's input trace and a rebuildable scheduler spec.
fn build_scenario(
    opts: &RecordOptions,
    config: &SimConfig,
) -> Result<(ContactTrace, SchedulerSpec, String), CliError> {
    match opts.scenario {
        Scenario::Roadside => {
            let profile = EpochProfile::roadside();
            let trace = TraceGenerator::new(profile.clone())
                .epochs(opts.epochs)
                .generate(&mut StdRng::seed_from_u64(opts.seed));
            let spec = match opts.mechanism {
                MechanismArg::At => {
                    let at = SnipAt::for_target(
                        SnipModel::new(config.ton),
                        &profile.to_slot_profile(),
                        opts.phi_max,
                        opts.zeta_target,
                    );
                    SchedulerSpec::At {
                        duty_cycle: at.duty_cycle(),
                    }
                }
                MechanismArg::Rh => SchedulerSpec::Rh {
                    config: snip_rh_config(
                        profile.rush_marks(),
                        config,
                        opts.phi_max,
                        profile.mean_contact_length(),
                    ),
                },
                MechanismArg::Opt => SchedulerSpec::Opt {
                    profile,
                    phi_max_secs: opts.phi_max,
                    zeta_target: opts.zeta_target,
                },
            };
            Ok((trace, spec, "roadside".into()))
        }
        Scenario::Crawdad => {
            let external = SyntheticSightings::commuter()
                .days(opts.epochs)
                .generate(&mut StdRng::seed_from_u64(opts.seed));
            let trace = external.contacts_at(0);
            if trace.is_empty() {
                return Err(fatal("synthetic sighting set produced no contacts"));
            }
            let stats = trace.stats(config.epoch, 24);
            let spec = match opts.mechanism {
                MechanismArg::At => SchedulerSpec::At {
                    duty_cycle: DutyCycle::clamped(opts.phi_max / config.epoch.as_secs_f64()),
                },
                MechanismArg::Rh => SchedulerSpec::Rh {
                    config: snip_rh_config(
                        stats.top_k_marks(4),
                        config,
                        opts.phi_max,
                        stats
                            .mean_contact_length()
                            .unwrap_or(SimDuration::from_secs(2)),
                    ),
                },
                MechanismArg::Opt => {
                    return Err(CliError::Usage(
                        "SNIP-OPT needs a generative profile; the crawdad scenario \
                         imports a trace (use --mechanism at or rh)"
                            .into(),
                    ))
                }
            };
            Ok((
                trace,
                spec,
                format!("crawdad ({} sightings)", external.len()),
            ))
        }
    }
}

fn cmd_record(args: &[String]) -> Result<ExitCode, CliError> {
    let opts = parse_record_options(args)?;
    let config = SimConfig::paper_defaults()
        .with_epochs(opts.epochs)
        .with_zeta_target_secs(opts.zeta_target)
        .with_beacon_loss(opts.beacon_loss);
    let (trace, spec, scenario_name) = build_scenario(&opts, &config)?;
    let header = JournalHeader::new(spec, config, opts.seed.wrapping_add(1)).with_comment(format!(
        "snip record --scenario {scenario_name} --epochs {} --seed {} \
             --zeta-target {} --phi-max {}",
        opts.epochs, opts.seed, opts.zeta_target, opts.phi_max
    ));

    let mut writer = JournalWriter::create(&opts.out).map_err(fatal)?;
    let metrics = record_run(&mut writer, &header, &trace).map_err(fatal)?;
    outln!(
        "recorded {} ({} scenario, {} format): {} events, {} contacts",
        opts.out.display(),
        scenario_name,
        writer.format(),
        writer.events_written(),
        trace.len(),
    );
    print_metrics(&header.mechanism, &metrics);
    Ok(ExitCode::SUCCESS)
}

// ------------------------------------------------------------------- replay

fn cmd_replay(args: &[String]) -> Result<ExitCode, CliError> {
    let mut journal: Option<PathBuf> = None;
    let mut override_mechanism: Option<MechanismArg> = None;
    let mut summary = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--mechanism" => {
                let raw: String = parse_value(arg, it.next())?;
                override_mechanism = Some(parse_mechanism(&raw)?);
            }
            "--summary" => summary = true,
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown flag `{flag}`")))
            }
            path if journal.is_none() => journal = Some(PathBuf::from(path)),
            extra => return Err(CliError::Usage(format!("unexpected argument `{extra}`"))),
        }
    }
    let journal = journal.ok_or_else(|| CliError::Usage("replay needs a journal path".into()))?;
    if summary {
        if override_mechanism.is_some() {
            return Err(CliError::Usage(
                "--summary inspects the journal as recorded; it cannot be \
                 combined with --mechanism"
                    .into(),
            ));
        }
        return replay_summary(&journal);
    }

    let mut reader = JournalReader::open(&journal).map_err(fatal)?;
    // An override rebuilds a *different* scheduler against the recorded run —
    // the divergence-detection demonstration.
    let override_spec = match override_mechanism {
        None => None,
        Some(mechanism) => Some(respec_for_override(&journal, mechanism)?),
    };
    match replay_run(&mut reader, override_spec) {
        Ok(report) => {
            outln!(
                "replayed {}: {} sim events verified over {} contacts — bit-for-bit identical",
                journal.display(),
                report.events_verified,
                report.contacts,
            );
            print_metrics(&report.header.mechanism, &report.metrics);
            Ok(ExitCode::SUCCESS)
        }
        Err(e @ (ReplayError::Divergence(_) | ReplayError::MetricsMismatch { .. })) => {
            error!("{e}");
            Ok(ExitCode::FAILURE)
        }
        Err(e) => Err(fatal(e)),
    }
}

/// `snip replay --summary`: one pass over the journal, counting events per
/// kind (with `Sim/...` sub-kinds) and tracking the simulated wall span —
/// the counters and histograms are the `snip-obs` metric types, exercised
/// here as plain values rather than registry entries.
fn replay_summary(journal: &Path) -> Result<ExitCode, CliError> {
    use snip_obs::metrics::{Counter, Histogram};
    use snip_replay::JournalEvent;
    use std::collections::BTreeMap;

    let mut reader = JournalReader::open(journal).map_err(fatal)?;
    let mut counts: BTreeMap<String, Counter> = BTreeMap::new();
    let contact_lengths = Histogram::new();
    let mut total = 0u64;
    let mut span: Option<(u64, u64)> = None;
    let observe_at = |span: &mut Option<(u64, u64)>, us: u64| {
        *span = Some(match *span {
            None => (us, us),
            Some((lo, hi)) => (lo.min(us), hi.max(us)),
        });
    };
    while let Some(event) = reader.next_event().map_err(fatal)? {
        total += 1;
        let kind = match &event {
            JournalEvent::Sim(sim) => format!(
                "Sim/{}",
                match sim {
                    snip_sim::SimEvent::Decision(_) => "Decision",
                    snip_sim::SimEvent::Probe { .. } => "Probe",
                    snip_sim::SimEvent::Upload { .. } => "Upload",
                    snip_sim::SimEvent::EpochEnd { .. } => "EpochEnd",
                }
            ),
            other => other.kind().to_string(),
        };
        counts.entry(kind).or_default().inc();
        match &event {
            JournalEvent::Contact(c) => {
                contact_lengths.observe_us(c.length.as_micros());
                observe_at(&mut span, c.start.as_micros());
                observe_at(&mut span, c.end().as_micros());
            }
            JournalEvent::Sim(sim) => match sim {
                snip_sim::SimEvent::Decision(d) => observe_at(&mut span, d.now.as_micros()),
                snip_sim::SimEvent::Probe { at, .. } | snip_sim::SimEvent::Upload { at, .. } => {
                    observe_at(&mut span, at.as_micros());
                }
                _ => {}
            },
            _ => {}
        }
    }

    outln!(
        "{} ({}): {} events",
        journal.display(),
        reader.format(),
        total
    );
    outln!("kind\tcount");
    for (kind, counter) in &counts {
        outln!("{kind}\t{}", counter.get());
    }
    if contact_lengths.count() > 0 {
        outln!(
            "contacts: {}, mean length {:.3} s",
            contact_lengths.count(),
            contact_lengths.mean_us() / 1e6,
        );
    }
    match span {
        None => outln!("wall span: (no timestamped events)"),
        Some((lo, hi)) => outln!(
            "wall span: {:.3} s .. {:.3} s ({:.3} simulated days)",
            lo as f64 / 1e6,
            hi as f64 / 1e6,
            (hi - lo) as f64 / 1e6 / 86_400.0,
        ),
    }
    Ok(ExitCode::SUCCESS)
}

/// Reads just the header of `journal` and builds a spec for a *different*
/// mechanism against the *recorded* scenario parameters.
///
/// ζtarget is recovered from the recorded `SimConfig` (`data_rate ×
/// Tepoch`), Φmax from the recorded scheduler spec, and the rush-hour
/// marks/profile from the recorded spec where it carries them (SNIP-RH
/// marks, SNIP-OPT profile) — the roadside profile is only the fallback
/// when the journal recorded plain SNIP-AT, which carries neither. An
/// override naming the journal's own mechanism reuses the recorded spec
/// verbatim (and therefore replays clean).
fn respec_for_override(journal: &Path, mechanism: MechanismArg) -> Result<SchedulerSpec, CliError> {
    let mut reader = JournalReader::open(journal).map_err(fatal)?;
    let header = snip_replay::read_header(&mut reader).map_err(fatal)?;
    let recorded_label = header.scheduler.label();
    let wanted_label = match mechanism {
        MechanismArg::At => "SNIP-AT",
        MechanismArg::Rh => "SNIP-RH",
        MechanismArg::Opt => "SNIP-OPT",
    };
    if recorded_label == wanted_label {
        return Ok(header.scheduler);
    }

    let config = &header.config;
    let epoch_secs = config.epoch.as_secs_f64();
    let zeta_target = config.data_rate * epoch_secs;
    let phi_max = match &header.scheduler {
        SchedulerSpec::At { duty_cycle } => duty_cycle.as_fraction() * epoch_secs,
        SchedulerSpec::Rh { config } => config.phi_max.as_secs_f64(),
        SchedulerSpec::Opt { phi_max_secs, .. } => *phi_max_secs,
    };
    // The generative profile, where the recorded spec carries one.
    let profile = match &header.scheduler {
        SchedulerSpec::Opt { profile, .. } => Some(profile.clone()),
        _ => None,
    };
    // Marks the recorded spec already learned, if any.
    let recorded_marks = match &header.scheduler {
        SchedulerSpec::Rh { config } => Some(config.rush_marks.clone()),
        _ => None,
    };

    Ok(match mechanism {
        MechanismArg::At => SchedulerSpec::At {
            // The budget-bound duty-cycle needs no profile knowledge.
            duty_cycle: DutyCycle::clamped(phi_max / epoch_secs),
        },
        MechanismArg::Rh => {
            let profile = profile.unwrap_or_else(EpochProfile::roadside);
            SchedulerSpec::Rh {
                config: snip_rh_config(
                    recorded_marks.unwrap_or_else(|| profile.rush_marks()),
                    config,
                    phi_max,
                    profile.mean_contact_length(),
                ),
            }
        }
        MechanismArg::Opt => SchedulerSpec::Opt {
            profile: profile.unwrap_or_else(EpochProfile::roadside),
            phi_max_secs: phi_max,
            zeta_target,
        },
    })
}

// -------------------------------------------------------------- diff + conv

fn cmd_diff(args: &[String]) -> Result<ExitCode, CliError> {
    let [a, b] = args else {
        return Err(CliError::Usage(
            "diff needs exactly two journal paths".into(),
        ));
    };
    let mut ra = JournalReader::open(Path::new(a)).map_err(fatal)?;
    let mut rb = JournalReader::open(Path::new(b)).map_err(fatal)?;
    let report = diff_journals(&mut ra, &mut rb).map_err(fatal)?;
    match &report.first_difference {
        None => {
            outln!("journals are identical ({} events)", report.events_a);
            Ok(ExitCode::SUCCESS)
        }
        Some(d) => {
            error!("{d}");
            error!(
                "event counts: {} has {}, {} has {}",
                a, report.events_a, b, report.events_b
            );
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_convert(args: &[String]) -> Result<ExitCode, CliError> {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(CliError::Usage(format!("unknown flag `{flag}`")));
    }
    let [input, output] = args else {
        return Err(CliError::Usage(
            "convert needs an input and an output path".into(),
        ));
    };
    let mut reader = JournalReader::open(Path::new(input)).map_err(fatal)?;
    let mut writer = JournalWriter::create(Path::new(output)).map_err(fatal)?;
    let n = convert(&mut reader, &mut writer).map_err(fatal)?;
    outln!(
        "converted {} ({}) -> {} ({}): {} events",
        input,
        reader.format(),
        output,
        writer.format(),
        n
    );
    Ok(ExitCode::SUCCESS)
}

// -------------------------------------------------------------------- fleet

struct FleetOptions {
    spec: PathBuf,
    workers: usize,
    shard_size: Option<u64>,
    shard_batch: Option<u64>,
    timeout_secs: u64,
    out: Option<PathBuf>,
    verify: bool,
    /// Start a fresh checkpoint journal at this path.
    checkpoint: Option<PathBuf>,
    /// Resume a prior run from this checkpoint journal (and keep
    /// appending to it).
    resume: Option<PathBuf>,
    /// On an incomplete run, write a partial report + missing-shard
    /// manifest to `--out` instead of discarding the completed shards.
    partial_ok: bool,
    /// Deterministic fault-injection plan (testing/drills).
    chaos_plan: Option<PathBuf>,
    /// fleet-serve only: listen address, token file, optional bound-address
    /// report file, optional metrics endpoint address.
    listen: Option<String>,
    token_file: Option<PathBuf>,
    addr_file: Option<PathBuf>,
    stats_addr: Option<String>,
}

fn parse_fleet_options(args: &[String], serve: bool) -> Result<Option<FleetOptions>, CliError> {
    let mut opts = FleetOptions {
        spec: PathBuf::new(),
        workers: std::thread::available_parallelism().map_or(1, usize::from),
        shard_size: None,
        shard_batch: None,
        timeout_secs: 600,
        out: None,
        verify: false,
        checkpoint: None,
        resume: None,
        partial_ok: false,
        chaos_plan: None,
        listen: None,
        token_file: None,
        addr_file: None,
        stats_addr: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--spec" => opts.spec = parse_value::<PathBuf>(flag, it.next())?,
            "--workers" => opts.workers = parse_value(flag, it.next())?,
            "--shard-size" => opts.shard_size = Some(parse_value(flag, it.next())?),
            "--shard-batch" => opts.shard_batch = Some(parse_value(flag, it.next())?),
            "--timeout-secs" => opts.timeout_secs = parse_value(flag, it.next())?,
            "--out" => opts.out = Some(parse_value::<PathBuf>(flag, it.next())?),
            "--verify" => opts.verify = true,
            "--checkpoint" => opts.checkpoint = Some(parse_value::<PathBuf>(flag, it.next())?),
            "--resume" => opts.resume = Some(parse_value::<PathBuf>(flag, it.next())?),
            "--partial-ok" => opts.partial_ok = true,
            "--chaos-plan" => opts.chaos_plan = Some(parse_value::<PathBuf>(flag, it.next())?),
            "--example" if !serve => return Ok(None),
            "--listen" if serve => opts.listen = Some(parse_value(flag, it.next())?),
            "--token-file" if serve => {
                opts.token_file = Some(parse_value::<PathBuf>(flag, it.next())?);
            }
            "--addr-file" if serve => {
                opts.addr_file = Some(parse_value::<PathBuf>(flag, it.next())?);
            }
            "--stats-addr" if serve => {
                opts.stats_addr = Some(parse_value(flag, it.next())?);
            }
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
    }
    if opts.spec.as_os_str().is_empty() {
        return Err(CliError::Usage(if serve {
            "fleet-serve needs --spec <file>".into()
        } else {
            "fleet needs --spec <file> (try --example)".into()
        }));
    }
    if opts.workers == 0 {
        return Err(CliError::Usage("--workers must be at least 1".into()));
    }
    if opts.shard_size == Some(0) {
        return Err(CliError::Usage("--shard-size must be at least 1".into()));
    }
    if opts.shard_batch == Some(0) {
        return Err(CliError::Usage("--shard-batch must be at least 1".into()));
    }
    if opts.timeout_secs == 0 {
        return Err(CliError::Usage("--timeout-secs must be at least 1".into()));
    }
    if opts.checkpoint.is_some() && opts.resume.is_some() {
        return Err(CliError::Usage(
            "--checkpoint starts a fresh journal, --resume continues one: pick one \
             (--resume keeps appending to the journal it loads)"
                .into(),
        ));
    }
    if serve && opts.listen.is_none() {
        return Err(CliError::Usage("fleet-serve needs --listen <addr>".into()));
    }
    if serve && opts.token_file.is_none() {
        return Err(CliError::Usage(
            "fleet-serve needs --token-file <path> (workers must authenticate)".into(),
        ));
    }
    Ok(Some(opts))
}

/// Trims a shared-secret token and rejects an empty one; `source` names
/// where it came from in the usage error.
fn checked_token(raw: &str, source: &str) -> Result<String, CliError> {
    let token = raw.trim();
    if token.is_empty() {
        return Err(CliError::Usage(format!("{source} is empty")));
    }
    Ok(token.to_string())
}

/// Reads a shared-secret token file.
fn read_token(path: &Path) -> Result<String, CliError> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| fatal(format!("token file {}: {e}", path.display())))?;
    checked_token(&raw, &format!("token file {}", path.display()))
}

/// Renders the merged output as JSON (the journal codec, so the file is
/// exactly the serde shape of the report).
fn fleet_output_json(output: &FleetOutput) -> String {
    let mut text = serde::json::to_string(output);
    text.push('\n');
    text
}

/// The explicit partial-run manifest written by `--partial-ok`: what
/// finished, what is missing, and how many workers were lost —
/// everything an operator needs to decide between `--resume` and a rerun.
#[derive(Serialize)]
struct PartialManifest {
    incomplete: bool,
    missing_shards: Vec<u64>,
    workers_lost: u64,
    completed_shards: Vec<CompletedShard>,
}

/// One finished shard of a [`PartialManifest`].
#[derive(Serialize)]
struct CompletedShard {
    shard: u64,
    metrics: Vec<RunMetrics>,
}

/// Renders the [`PartialManifest`] of an incomplete run as JSON.
fn partial_manifest_json(
    missing: Vec<u64>,
    workers_lost: usize,
    completed: Vec<(u64, Vec<RunMetrics>)>,
) -> String {
    let manifest = PartialManifest {
        incomplete: true,
        missing_shards: missing,
        workers_lost: workers_lost as u64,
        completed_shards: completed
            .into_iter()
            .map(|(shard, metrics)| CompletedShard { shard, metrics })
            .collect(),
    };
    let mut text = serde::json::to_string(&manifest);
    text.push('\n');
    text
}

/// Shared tail of `fleet` and `fleet-serve`: run the driver, report,
/// write `--out`, check `--verify`.
fn run_fleet_driver(
    driver: &FleetDriver,
    spec: &FleetSpec,
    opts: &FleetOptions,
) -> Result<ExitCode, CliError> {
    let run = match driver.run() {
        Ok(run) => run,
        Err(snip_fleetd::DriverError::Incomplete {
            missing,
            workers_lost,
            completed,
        }) if opts.partial_ok => {
            error!(
                "fleet `{}` incomplete: {} shard(s) missing ({} worker connection(s) lost)",
                spec.name,
                missing.len(),
                workers_lost
            );
            outln!(
                "partial: {} of {} shard(s) completed; missing: {}",
                completed.len(),
                completed.len() + missing.len(),
                missing
                    .iter()
                    .map(|id| id.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            );
            if let Some(out) = &opts.out {
                std::fs::write(out, partial_manifest_json(missing, workers_lost, completed))
                    .map_err(fatal)?;
                outln!("wrote partial manifest to {}", out.display());
            }
            return Ok(ExitCode::FAILURE);
        }
        Err(e) => return Err(fatal(e)),
    };
    outln!("fleet `{}` done: {}", spec.name, run.stats);
    print_fleet_output(&run.output);

    if let Some(out) = &opts.out {
        std::fs::write(out, fleet_output_json(&run.output)).map_err(fatal)?;
        outln!("wrote {}", out.display());
    }
    if opts.verify {
        let reference = snip_fleetd::JobRunner::new(spec).run_sequential();
        if reference == run.output {
            outln!("verify: distributed output is bit-identical to the sequential run");
        } else {
            error!("error: distributed output differs from the sequential run");
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn load_fleet_spec(opts: &FleetOptions) -> Result<FleetSpec, CliError> {
    let text = std::fs::read_to_string(&opts.spec)
        .map_err(|e| fatal(format!("{}: {e}", opts.spec.display())))?;
    FleetSpec::from_json(&text).map_err(CliError::Usage)
}

fn build_driver(spec: &FleetSpec, opts: &FleetOptions) -> Result<FleetDriver, CliError> {
    let mut driver = FleetDriver::new(spec.clone(), opts.workers)
        .map_err(CliError::Usage)?
        .with_shard_timeout(std::time::Duration::from_secs(opts.timeout_secs));
    if let Some(shard_size) = opts.shard_size {
        driver = driver.with_shard_size(shard_size);
    }
    if let Some(shard_batch) = opts.shard_batch {
        driver = driver.with_shard_batch(shard_batch);
    }
    if let Some(path) = &opts.checkpoint {
        driver = driver.with_checkpoint(path.clone());
    }
    if let Some(path) = &opts.resume {
        driver = driver.with_resume(path.clone());
    }
    if let Some(path) = &opts.chaos_plan {
        let text = std::fs::read_to_string(path)
            .map_err(|e| fatal(format!("chaos plan {}: {e}", path.display())))?;
        let plan = snip_fleetd::ChaosPlan::from_json(&text)
            .map_err(|e| CliError::Usage(format!("chaos plan {}: {e}", path.display())))?;
        driver = driver.with_chaos(plan);
    }
    Ok(driver)
}

fn cmd_fleet(args: &[String]) -> Result<ExitCode, CliError> {
    let Some(opts) = parse_fleet_options(args, false)? else {
        outln!("{}", serde::json::to_string(&example_spec()));
        return Ok(ExitCode::SUCCESS);
    };
    let spec = load_fleet_spec(&opts)?;
    let driver = build_driver(&spec, &opts)?;
    warn!(
        "fleet `{}`: {} jobs across {} workers",
        spec.name,
        spec.job_count(),
        opts.workers
    );
    run_fleet_driver(&driver, &spec, &opts)
}

fn cmd_fleet_serve(args: &[String]) -> Result<ExitCode, CliError> {
    let Some(opts) = parse_fleet_options(args, true)? else {
        unreachable!("--example is not a fleet-serve flag");
    };
    let token = read_token(opts.token_file.as_deref().expect("parser enforces"))?;
    let spec = load_fleet_spec(&opts)?;
    let driver = build_driver(&spec, &opts)?
        .with_tcp(snip_fleetd::TcpConfig {
            listen: opts.listen.clone().expect("parser enforces"),
            token,
            spawn_workers: false,
        })
        .map_err(|e| fatal(format!("could not bind listener: {e}")))?;
    let addr = driver.local_addr().expect("tcp driver knows its address");
    warn!(
        "fleet-serve `{}`: listening on {addr} for dialing workers \
         ({} jobs; spec hash {:#018x})",
        spec.name,
        spec.job_count(),
        spec.spec_hash(),
    );
    if let Some(addr_file) = &opts.addr_file {
        std::fs::write(addr_file, format!("{addr}\n")).map_err(fatal)?;
    }
    // The stats endpoint outlives the run on purpose: it is shut down
    // only after the final report is printed, so a scraper polling it
    // sees the finished run's gauges too.
    let stats = match &opts.stats_addr {
        None => None,
        Some(stats_addr) => {
            let server = snip_obs::http::serve(stats_addr.as_str())
                .map_err(|e| fatal(format!("could not bind --stats-addr {stats_addr}: {e}")))?;
            warn!(
                "fleet-serve `{}`: stats endpoint on http://{}/metrics",
                spec.name,
                server.local_addr()
            );
            Some(server)
        }
    };
    let result = run_fleet_driver(&driver, &spec, &opts);
    if let Some(server) = stats {
        // A small example run can start and finish between two polls of
        // an outside scraper, so hold the endpoint open briefly: the
        // end-of-run gauges (workers admitted, shards done) stay
        // scrapeable for a couple of seconds after the report prints.
        std::thread::sleep(std::time::Duration::from_secs(2));
        server.shutdown();
    }
    result
}

/// Summarizes the merged output on stdout.
fn print_fleet_output(output: &FleetOutput) {
    match output {
        FleetOutput::Fleet(report) => {
            outln!("node\tzeta\tphi\tuploaded\ttarget_met");
            for n in &report.nodes {
                outln!(
                    "{}\t{:.3}\t{:.3}\t{:.3}\t{}",
                    n.name,
                    n.zeta,
                    n.phi,
                    n.uploaded,
                    n.target_met
                );
            }
            outln!(
                "{} of {} nodes meet their target; mean phi {:.3} s",
                report.nodes_meeting_target(),
                report.nodes.len(),
                report.mean_phi()
            );
        }
        FleetOutput::Sweep(points) => {
            outln!("zeta_target\tmechanism\tzeta\tphi\trho");
            for p in points {
                outln!(
                    "{}\t{}\t{:.3}\t{:.3}\t{}",
                    p.zeta_target,
                    p.mechanism.label(),
                    p.zeta,
                    p.phi,
                    p.rho.map_or_else(|| "-".into(), |r| format!("{r:.3}")),
                );
            }
        }
    }
}

fn cmd_fleet_worker(args: &[String]) -> Result<ExitCode, CliError> {
    let mut connect: Option<String> = None;
    let mut token_file: Option<PathBuf> = None;
    let mut retry_secs: u64 = 10;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--connect" => connect = Some(parse_value(flag, it.next())?),
            "--token-file" => token_file = Some(parse_value::<PathBuf>(flag, it.next())?),
            "--retry-secs" => retry_secs = parse_value(flag, it.next())?,
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
    }
    if retry_secs == 0 {
        return Err(CliError::Usage("--retry-secs must be at least 1".into()));
    }
    let pid = u64::from(std::process::id());
    let result = match connect {
        None => {
            if token_file.is_some() {
                return Err(CliError::Usage(
                    "--token-file only applies with --connect (stdio workers are \
                     spawned by their coordinator)"
                        .into(),
                ));
            }
            snip_fleetd::run_worker(
                std::io::BufReader::new(std::io::stdin()),
                std::io::stdout(),
                pid,
            )
        }
        Some(addr) => {
            let addr: std::net::SocketAddr = addr
                .parse()
                .map_err(|_| CliError::Usage(format!("invalid --connect address `{addr}`")))?;
            let token = match token_file {
                Some(path) => read_token(&path)?,
                None => {
                    let raw = std::env::var(snip_fleetd::TOKEN_ENV_VAR).map_err(|_| {
                        CliError::Usage(format!(
                            "--connect needs --token-file <path> (or {})",
                            snip_fleetd::TOKEN_ENV_VAR
                        ))
                    })?;
                    checked_token(&raw, snip_fleetd::TOKEN_ENV_VAR)?
                }
            };
            snip_fleetd::run_worker_tcp(
                &snip_fleetd::ConnectOptions {
                    addr,
                    token,
                    retry_for: std::time::Duration::from_secs(retry_secs),
                    // Pid-seeded jitter: co-restarted workers on one host
                    // fan their redials out instead of stampeding.
                    backoff_seed: pid,
                },
                pid,
            )
        }
    };
    match result {
        Ok(_) => Ok(ExitCode::SUCCESS),
        Err(e) => Err(fatal(e)),
    }
}

// ------------------------------------------------------------------ display

fn print_metrics(mechanism: &str, metrics: &RunMetrics) {
    // Ignore write errors: `snip ... | head` closing the pipe mid-table is
    // not a failure worth a backtrace.
    use std::io::Write as _;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(out, "mechanism: {mechanism}");
    let _ = writeln!(out, "epoch\tzeta\tphi\trho");
    for (i, em) in metrics.epochs().iter().enumerate() {
        let _ = writeln!(
            out,
            "{i}\t{:.3}\t{:.3}\t{}",
            em.zeta(),
            em.phi(),
            em.rho().map_or_else(|| "-".into(), |r| format!("{r:.3}")),
        );
    }
    let _ = writeln!(
        out,
        "mean\t{:.3}\t{:.3}\t{}",
        metrics.mean_zeta_per_epoch(),
        metrics.mean_phi_per_epoch(),
        metrics
            .overall_rho()
            .map_or_else(|| "-".into(), |r| format!("{r:.3}")),
    );
}

// ------------------------------------------------------------------ verify

/// `snip lint`: the determinism lint over the workspace's own sources.
fn cmd_lint(args: &[String]) -> Result<ExitCode, CliError> {
    let mut root = PathBuf::from(".");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(
                    it.next()
                        .ok_or_else(|| CliError::Usage("--root needs a path".into()))?,
                );
            }
            other => return Err(CliError::Usage(format!("unknown lint option `{other}`"))),
        }
    }
    let report = snip_verify::lint::lint_workspace(&root)
        .map_err(|e| fatal(format!("lint walk failed under {}: {e}", root.display())))?;
    for v in &report.violations {
        outln!("{v}");
    }
    outln!(
        "snip lint: {} file(s) scanned, {} allow(s) honored, {} violation(s)",
        report.files_scanned,
        report.allows_honored,
        report.violations.len()
    );
    if report.is_clean() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(1))
    }
}

/// `snip check-proto`: the bounded-exhaustive protocol check — state
/// exploration of the shipped cores, then concrete fault schedules
/// against the real driver, then the auth-uniformity wire probe.
fn cmd_check_proto(args: &[String]) -> Result<ExitCode, CliError> {
    if let Some(other) = args.first() {
        return Err(CliError::Usage(format!(
            "unknown check-proto option `{other}`"
        )));
    }

    // Leg 1: every reachable state of the protocol within the fault
    // budget — the shipped worker and coordinator cores in the loop —
    // with the invariants asserted in each one.
    use snip_fleetd::proto::explore::{explore, ExploreConfig, MIN_EXPLORED_STATES};
    let report = explore(&ExploreConfig::default())
        .map_err(|v| fatal(format!("protocol invariant violated: {v}")))?;
    outln!("check-proto [explore]: {report}");
    if report.states < MIN_EXPLORED_STATES {
        return Err(fatal(format!(
            "exploration bound regressed below the {MIN_EXPLORED_STATES}-state floor: {report}"
        )));
    }
    // Leg 2: concrete fault schedules against the real `FleetDriver`,
    // worker subprocesses and all. Every schedule must end clean:
    // bit-identical to the sequential run, or `Incomplete` with the
    // manifest accounting for every shard.
    let spec = check_proto_spec();
    let total_shards = spec.job_count();
    for (name, plan) in check_proto_schedules() {
        let driver = FleetDriver::new(spec.clone(), 2)
            .map_err(|e| fatal(format!("fleet spec rejected: {e}")))?
            .with_shard_size(1)
            .with_shard_timeout(std::time::Duration::from_secs(10))
            .with_chaos(plan);
        check_clean_end(name, &spec, total_shards, driver.run())?;
        outln!("check-proto [fault {name}]: clean end");
    }

    // Leg 3: auth-rejection uniformity on the wire. Whatever the reason
    // — wrong token, protocol skew, or un-frameable garbage — a refused
    // dial must observe exactly the same bytes (none) before the sever.
    check_auth_uniformity(&spec)?;
    outln!(
        "check-proto [auth]: unauthenticated rejection is uniform (0 bytes revealed), \
         authenticated skew gets its typed rejection, and the run still completes"
    );
    Ok(ExitCode::SUCCESS)
}

/// Six single-job shards on two workers: small enough to finish in
/// seconds, enough runway that frame-3 faults land mid-run.
fn check_proto_spec() -> FleetSpec {
    use snip_fleetd::{JobSpec, NodeSpec};
    FleetSpec {
        name: "check-proto".into(),
        seed: 17,
        epochs: 2,
        phi_max_secs: 86.4,
        job: JobSpec::Fleet {
            mechanism: snip_sim::Mechanism::SnipRh,
            nodes: (0..6)
                .map(|i| NodeSpec {
                    name: format!("cp-{i}"),
                    profile: EpochProfile::roadside(),
                    zeta_target: 6.0 + 2.0 * f64::from(i),
                })
                .collect(),
        },
    }
}

/// The concrete schedules: one per protocol hazard the explorer covers —
/// duplication (exactly-once merge), sever (steal + redial), reorder.
fn check_proto_schedules() -> Vec<(&'static str, snip_fleetd::ChaosPlan)> {
    use snip_fleetd::{ChaosPlan, FaultAction, FaultDirection, FaultKind, FaultPlan, PeerFaults};
    let plan = |dir, at_frame, kind| ChaosPlan {
        peers: vec![PeerFaults {
            peer: 0,
            plan: FaultPlan {
                actions: vec![FaultAction {
                    dir,
                    at_frame,
                    kind,
                }],
            },
        }],
    };
    vec![
        (
            "rx-duplicate-sharddone",
            plan(FaultDirection::Rx, 3, FaultKind::Duplicate),
        ),
        (
            "tx-sever-mid-run",
            plan(FaultDirection::Tx, 3, FaultKind::Sever),
        ),
        (
            "rx-reorder",
            plan(FaultDirection::Rx, 3, FaultKind::ReorderNext),
        ),
    ]
}

/// The chaos suite's clean-ending contract, as a CLI check.
fn check_clean_end(
    label: &str,
    spec: &FleetSpec,
    total_shards: u64,
    result: Result<snip_fleetd::FleetRun, snip_fleetd::DriverError>,
) -> Result<(), CliError> {
    use snip_fleetd::{DriverError, JobRunner};
    match result {
        Ok(run) => {
            if run.output != JobRunner::new(spec).run_sequential() {
                return Err(fatal(format!(
                    "{label}: faulted run completed but diverged from the sequential output"
                )));
            }
            Ok(())
        }
        Err(DriverError::Incomplete {
            missing, completed, ..
        }) => {
            let mut ids: Vec<u64> = missing
                .iter()
                .copied()
                .chain(completed.iter().map(|(id, _)| *id))
                .collect();
            ids.sort_unstable();
            if ids != (0..total_shards).collect::<Vec<_>>() || missing.is_empty() {
                return Err(fatal(format!(
                    "{label}: Incomplete manifest does not account for every shard \
                     exactly once (missing {missing:?})"
                )));
            }
            Ok(())
        }
        Err(other) => Err(fatal(format!(
            "{label}: expected Ok or Incomplete, got {other}"
        ))),
    }
}

/// Dials the coordinator with differently-wrong handshakes and asserts
/// the refusals are byte-identical (zero bytes, then sever) — a rejected
/// dialer learns nothing about *which* check failed. A protocol-3 dialer
/// (a JSON-framed `Join`) is refused at the frame check even with the
/// right token. An **authenticated** binary dialer with the wrong
/// protocol version is the one deliberate exception: it proved it holds
/// the token, so it gets a typed rejection naming the coordinator's
/// version (and that reply is asserted here too). A real worker then
/// finishes the run, proving the probes poisoned nothing.
fn check_auth_uniformity(spec: &FleetSpec) -> Result<(), CliError> {
    use snip_fleetd::{
        CoordinatorMsg, JobRunner, TcpConfig, WorkerMsg, PROTOCOL_VERSION, TOKEN_ENV_VAR,
    };
    use snip_replay::frame::{FrameReader, FrameWriter};
    use std::io::{Read, Write};

    let token = "check-proto-secret";
    let driver = FleetDriver::new(spec.clone(), 1)
        .map_err(|e| fatal(format!("fleet spec rejected: {e}")))?
        .with_shard_size(1)
        .with_shard_timeout(std::time::Duration::from_secs(30))
        .with_tcp(TcpConfig {
            listen: "127.0.0.1:0".into(),
            token: token.into(),
            spawn_workers: false,
        })
        .map_err(|e| fatal(format!("coordinator bind failed: {e}")))?;
    let addr = driver
        .local_addr()
        .ok_or_else(|| fatal("coordinator has no bound address"))?;
    let run = std::thread::spawn(move || driver.run());

    let bad_join = |msg: &WorkerMsg| -> Vec<u8> {
        let mut bytes = Vec::new();
        FrameWriter::new(&mut bytes)
            .send(msg)
            .expect("in-memory frame");
        bytes
    };
    // The protocol-3 wire: decimal length, newline, JSON, newline.
    let json_join = |msg: &WorkerMsg| -> Vec<u8> {
        let body = serde::json::to_string(msg);
        format!("{}\n{body}\n", body.len()).into_bytes()
    };
    let probes: Vec<(&str, Vec<u8>)> = vec![
        (
            "wrong-token",
            bad_join(&WorkerMsg::Join {
                protocol: PROTOCOL_VERSION,
                token: "not-the-secret".into(),
                pid: u64::from(std::process::id()),
                resume: None,
            }),
        ),
        (
            // Skewed AND unauthenticated: the token check dominates, so
            // this must be indistinguishable from plain wrong-token.
            "wrong-token-and-skew",
            bad_join(&WorkerMsg::Join {
                protocol: PROTOCOL_VERSION + 1,
                token: "not-the-secret".into(),
                pid: u64::from(std::process::id()),
                resume: None,
            }),
        ),
        ("unframeable-garbage", b"GET / HTTP/1.1\r\n\r\n".to_vec()),
        (
            "json-framed-right-token",
            json_join(&WorkerMsg::Join {
                protocol: PROTOCOL_VERSION,
                token: token.into(),
                pid: u64::from(std::process::id()),
                resume: None,
            }),
        ),
    ];
    let mut responses: Vec<(&str, Vec<u8>)> = Vec::new();
    for (name, payload) in probes {
        let mut sock = std::net::TcpStream::connect(addr)
            .map_err(|e| fatal(format!("auth probe dial failed: {e}")))?;
        sock.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .map_err(|e| fatal(format!("socket timeout: {e}")))?;
        sock.write_all(&payload)
            .map_err(|e| fatal(format!("auth probe send failed: {e}")))?;
        let mut seen = Vec::new();
        let mut buf = [0u8; 1024];
        loop {
            match sock.read(&mut buf) {
                Ok(0) => break, // severed — the expected refusal
                Ok(n) => seen.extend_from_slice(&buf[..n]),
                Err(e) => {
                    return Err(fatal(format!(
                        "auth probe `{name}`: no sever within the window ({e})"
                    )))
                }
            }
        }
        responses.push((name, seen));
    }
    let (first_name, first) = &responses[0];
    for (name, seen) in &responses[1..] {
        if seen != first {
            return Err(fatal(format!(
                "auth refusal is not uniform: `{first_name}` observed {} byte(s) \
                 but `{name}` observed {} — rejection leaks which check failed",
                first.len(),
                seen.len()
            )));
        }
    }
    if !first.is_empty() {
        return Err(fatal(format!(
            "auth refusal leaked {} byte(s) before the sever",
            first.len()
        )));
    }

    // The authenticated-but-skewed dialer: correct token, wrong protocol
    // version. It must receive the typed rejection — a decodable Init
    // naming this coordinator's version — not the silent sever.
    {
        let sock = std::net::TcpStream::connect(addr)
            .map_err(|e| fatal(format!("skew probe dial failed: {e}")))?;
        sock.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .map_err(|e| fatal(format!("socket timeout: {e}")))?;
        FrameWriter::new(&sock)
            .send(&WorkerMsg::Join {
                protocol: PROTOCOL_VERSION + 1,
                token: token.into(),
                pid: u64::from(std::process::id()),
                resume: None,
            })
            .map_err(|e| fatal(format!("skew probe send failed: {e}")))?;
        let mut r = FrameReader::new(std::io::BufReader::new(&sock));
        match r.recv::<CoordinatorMsg>() {
            Ok(Some(CoordinatorMsg::Init { protocol, .. })) if protocol == PROTOCOL_VERSION => {}
            other => {
                return Err(fatal(format!(
                    "authenticated version skew must be answered with a typed Init \
                     naming protocol {PROTOCOL_VERSION}, got {other:?}"
                )))
            }
        }
    }

    // A legitimate worker now joins and finishes the run.
    let exe = std::env::current_exe().map_err(|e| fatal(format!("current_exe: {e}")))?;
    let mut child = std::process::Command::new(exe)
        .args(["fleet-worker", "--connect", &addr.to_string()])
        .env(TOKEN_ENV_VAR, token)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .map_err(|e| fatal(format!("spawning the real worker failed: {e}")))?;
    let result = run
        .join()
        .map_err(|_| fatal("coordinator thread panicked"))?;
    let _ = child.wait();
    match result {
        Ok(run) if run.output == JobRunner::new(spec).run_sequential() => Ok(()),
        Ok(_) => Err(fatal(
            "run after auth probes completed but diverged from the sequential output",
        )),
        Err(e) => Err(fatal(format!("run after auth probes failed: {e}"))),
    }
}

/// `snip fuzz`: the structured decoder fuzzer, or (`--replay`) the
/// corpus regression check.
fn cmd_fuzz(args: &[String]) -> Result<ExitCode, CliError> {
    let mut cfg = snip_verify::fuzz::FuzzConfig::default();
    let mut corpus = PathBuf::from("ci/corpus");
    let mut replay = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--seed: {e}")))?;
            }
            "--iters" => {
                cfg.iters = value("--iters")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--iters: {e}")))?;
            }
            "--timeout-secs" => {
                cfg.timeout = std::time::Duration::from_secs(
                    value("--timeout-secs")?
                        .parse()
                        .map_err(|e| CliError::Usage(format!("--timeout-secs: {e}")))?,
                );
            }
            "--corpus" => corpus = PathBuf::from(value("--corpus")?),
            "--replay" => replay = true,
            other => return Err(CliError::Usage(format!("unknown fuzz option `{other}`"))),
        }
    }

    if replay {
        let report = snip_verify::fuzz::replay_corpus(&corpus)
            .map_err(|e| fatal(format!("corpus replay under {}: {e}", corpus.display())))?;
        outln!("snip fuzz --replay: {report}");
        for (path, detail) in &report.regressions {
            outln!("  REGRESSION {}: {detail}", path.display());
        }
        return Ok(if report.is_clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        });
    }

    cfg.corpus_dir = Some(corpus);
    let report = snip_verify::fuzz::run_fuzz(&cfg).map_err(|e| fatal(format!("fuzz run: {e}")))?;
    outln!("snip fuzz: {report}");
    for f in &report.findings {
        match &f.artifact {
            Some(path) => outln!(
                "  FINDING [{}] {} ({} bytes, minimized) -> {}",
                f.class,
                f.target.name(),
                f.input.len(),
                path.display()
            ),
            None => outln!(
                "  FINDING [{}] {} ({} bytes, minimized)",
                f.class,
                f.target.name(),
                f.input.len()
            ),
        }
        if !f.detail.is_empty() {
            outln!("    {}", f.detail);
        }
    }
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_manifest_json_is_pinned() {
        let completed = vec![
            (0, vec![RunMetrics::with_epochs_and_slots(1, 2)]),
            (
                2,
                vec![
                    RunMetrics::with_epochs_and_slots(0, 1),
                    RunMetrics::with_epochs_and_slots(0, 0),
                ],
            ),
        ];
        let epoch = concat!(
            r#"{"zeta_us":0,"phi_us":0,"uploaded_us":0,"upload_on_time_us":0,"#,
            r#""contacts_total":0,"contacts_probed":0,"beacons":0}"#
        );
        let expected = [
            r#"{"incomplete":true,"missing_shards":[1],"workers_lost":1,"completed_shards":["#,
            r#"{"shard":0,"metrics":[{"epochs":["#,
            epoch,
            r#"],"slot_phi_us":[0,0],"slot_zeta_us":[0,0],"out_of_range_slot_charges":0}]},"#,
            r#"{"shard":2,"metrics":["#,
            r#"{"epochs":[],"slot_phi_us":[0],"slot_zeta_us":[0],"out_of_range_slot_charges":0},"#,
            r#"{"epochs":[],"slot_phi_us":[],"slot_zeta_us":[],"out_of_range_slot_charges":0}]}]}"#,
            "\n",
        ]
        .concat();
        assert_eq!(partial_manifest_json(vec![1], 1, completed), expected);
    }
}
