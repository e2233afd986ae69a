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
//! snip bench   [--out BENCH_sweep.json] [--epochs N] [--threads N] [--seed S]
//!              [--phi-max SECS] [--targets a,b,c] [--fleet K] [--fleet-tcp K]
//! snip lint    [--root DIR]              determinism lint over the workspace
//! snip check-proto [--abstract-only]     exhaustive protocol-v3 state check
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

use snip_core::{SnipAt, SnipRhConfig};
use snip_fleetd::{example_spec, FleetDriver, FleetOutput, FleetSpec};
use snip_mobility::{ContactTrace, EpochProfile, SyntheticSightings, TraceGenerator};
use snip_model::SnipModel;
use snip_obs::{error, warn};
use snip_replay::diff::diff_journals;
use snip_replay::event::{JournalHeader, SchedulerSpec};
use snip_replay::journal::{convert, JournalReader, JournalWriter};
use snip_replay::record::record_run;
use snip_replay::replay::{replay_run, ReplayError};
use snip_sim::{RunMetrics, SimConfig};
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
    snip bench   [options]                     time the canonical paper sweep
    snip lint    [--root DIR]                  enforce the determinism contract
                                               over the workspace's own sources
    snip check-proto [--abstract-only]         explore every bounded fault
                                               interleaving of protocol v4 and
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
    --workers <k>          worker subprocesses               [SNIP_THREADS or #cores]
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

bench options (defaults in brackets):
    --out <path>           where to write the JSON report  [BENCH_sweep.json]
    --history <path>       JSONL file each run appends to; the bench
                           trajectory across commits (`none` disables)
                                                           [BENCH_history.jsonl]
    --epochs <n>           days per simulated point        [14]
    --seed <n>             base seed                       [2011]
    --phi-max <secs>       per-epoch probing budget        [86.4]
    --threads <n>          parallel worker count           [SNIP_THREADS or #cores]
    --repeat <n>           timing repetitions (best-of)    [3]
    --targets <a,b,..>     ζtarget list, seconds           [paper: 16..56]
    --fleet <k>            also run the sweep through the multi-process
                           fleet driver with k workers and record
                           fleet points/sec                [off]
    --fleet-tcp <k>        also run the sweep through the TCP fleet
                           driver (localhost, k dialing workers, full
                           token + spec-hash handshake) and record
                           fleet_tcp points/sec            [off]
    --shard-batch <n>      shards dealt per wire frame in the fleet
                           runs                            [4]

lint options:
    --root <dir>           workspace root to scan            [.]
                           (rules + the `// snip-lint: allow(<rule>): \"why\"`
                           escape hatch are documented in crates/verify)

check-proto options:
    --abstract-only        run only the model exploration; skip the concrete
                           fault-schedule sweep and the auth-uniformity wire
                           probe (which spawn worker subprocesses)

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
        "bench" => cmd_bench(rest),
        "lint" => cmd_lint(rest),
        "check-proto" => cmd_check_proto(rest),
        "fuzz" => cmd_fuzz(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
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

/// The paper's SNIP-RH configuration with the knobs this CLI varies: the
/// marks, the run's epoch/Ton, the budget, and the initial length estimate.
fn rh_config(
    rush_marks: Vec<bool>,
    config: &SimConfig,
    phi_max_secs: f64,
    initial_contact_length: SimDuration,
) -> SnipRhConfig {
    let mut rh = SnipRhConfig::paper_defaults(rush_marks)
        .with_phi_max(SimDuration::from_secs_f64(phi_max_secs));
    rh.epoch = config.epoch;
    rh.ton = config.ton;
    rh.initial_contact_length = initial_contact_length;
    rh
}

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
                    config: rh_config(
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
                    config: rh_config(
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
    println!(
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
            println!(
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
                    snip_sim::SimEvent::NodeStart { .. } => "NodeStart",
                    snip_sim::SimEvent::Decision(_) => "Decision",
                    snip_sim::SimEvent::ProbeBatch { .. } => "ProbeBatch",
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
                snip_sim::SimEvent::ProbeBatch { from, .. } => {
                    observe_at(&mut span, from.as_micros());
                }
                snip_sim::SimEvent::Probe { at, .. } | snip_sim::SimEvent::Upload { at, .. } => {
                    observe_at(&mut span, at.as_micros());
                }
                _ => {}
            },
            _ => {}
        }
    }

    println!(
        "{} ({}): {} events",
        journal.display(),
        reader.format(),
        total
    );
    println!("kind\tcount");
    for (kind, counter) in &counts {
        println!("{kind}\t{}", counter.get());
    }
    if contact_lengths.count() > 0 {
        println!(
            "contacts: {}, mean length {:.3} s",
            contact_lengths.count(),
            contact_lengths.mean_us() / 1e6,
        );
    }
    match span {
        None => println!("wall span: (no timestamped events)"),
        Some((lo, hi)) => println!(
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
    let header = match reader.next_event().map_err(fatal)? {
        Some(snip_replay::JournalEvent::Header(h)) => h,
        _ => return Err(fatal("journal does not start with a header")),
    };
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
                config: rh_config(
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
            println!("journals are identical ({} events)", report.events_a);
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
    println!(
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
        workers: snip_sim::default_threads(),
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

/// Reads and trims a shared-secret token file.
fn read_token(path: &Path) -> Result<String, CliError> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| fatal(format!("token file {}: {e}", path.display())))?;
    let token = raw.trim().to_string();
    if token.is_empty() {
        return Err(CliError::Usage(format!(
            "token file {} is empty",
            path.display()
        )));
    }
    Ok(token)
}

/// Renders the merged output as JSON (the journal codec, so the file is
/// exactly the serde shape of the report).
fn fleet_output_json(output: &FleetOutput) -> String {
    use serde::Serialize as _;
    let mut text = serde::json::to_string(&output.to_value());
    text.push('\n');
    text
}

/// Shared tail of `fleet` and `fleet-serve`: run the driver, report,
/// write `--out`, check `--verify`.
/// Renders the explicit partial-run manifest written by `--partial-ok`:
/// what finished, what is missing, and how many workers were lost —
/// everything an operator needs to decide between `--resume` and a rerun.
fn partial_manifest_json(
    missing: &[u64],
    workers_lost: usize,
    completed: &[(u64, Vec<snip_sim::RunMetrics>)],
) -> String {
    use serde::{Serialize as _, Value};
    let completed_val = Value::Seq(
        completed
            .iter()
            .map(|(shard, metrics)| {
                Value::Map(vec![
                    ("shard".into(), Value::U64(*shard)),
                    (
                        "metrics".into(),
                        Value::Seq(metrics.iter().map(|m| m.to_value()).collect()),
                    ),
                ])
            })
            .collect(),
    );
    let manifest = Value::Map(vec![
        ("incomplete".into(), Value::Bool(true)),
        (
            "missing_shards".into(),
            Value::Seq(missing.iter().map(|id| Value::U64(*id)).collect()),
        ),
        ("workers_lost".into(), Value::U64(workers_lost as u64)),
        ("completed_shards".into(), completed_val),
    ]);
    let mut text = serde::json::to_string(&manifest);
    text.push('\n');
    text
}

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
            println!(
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
                std::fs::write(
                    out,
                    partial_manifest_json(&missing, workers_lost, &completed),
                )
                .map_err(fatal)?;
                println!("wrote partial manifest to {}", out.display());
            }
            return Ok(ExitCode::FAILURE);
        }
        Err(e) => return Err(fatal(e)),
    };
    println!("fleet `{}` done: {}", spec.name, run.stats);
    print_fleet_output(&run.output);

    if let Some(out) = &opts.out {
        std::fs::write(out, fleet_output_json(&run.output)).map_err(fatal)?;
        println!("wrote {}", out.display());
    }
    if opts.verify {
        let reference = snip_fleetd::JobRunner::new(spec).run_sequential();
        if reference == run.output {
            println!("verify: distributed output is bit-identical to the sequential run");
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
        use serde::Serialize as _;
        println!("{}", serde::json::to_string(&example_spec().to_value()));
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
            println!("node\tzeta\tphi\tuploaded\ttarget_met");
            for n in &report.nodes {
                println!(
                    "{}\t{:.3}\t{:.3}\t{:.3}\t{}",
                    n.name, n.zeta, n.phi, n.uploaded, n.target_met
                );
            }
            println!(
                "{} of {} nodes meet their target; mean phi {:.3} s",
                report.nodes_meeting_target(),
                report.nodes.len(),
                report.mean_phi()
            );
        }
        FleetOutput::Sweep(points) => {
            println!("zeta_target\tmechanism\tzeta\tphi\trho");
            for p in points {
                println!(
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
                None => std::env::var(snip_fleetd::TOKEN_ENV_VAR).map_err(|_| {
                    CliError::Usage(format!(
                        "--connect needs --token-file <path> (or {})",
                        snip_fleetd::TOKEN_ENV_VAR
                    ))
                })?,
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

// -------------------------------------------------------------------- bench

struct BenchOptions {
    out: PathBuf,
    history: Option<PathBuf>,
    epochs: u64,
    seed: u64,
    phi_max: f64,
    threads: usize,
    repeat: u32,
    targets: Vec<f64>,
    fleet_workers: Option<usize>,
    fleet_tcp_workers: Option<usize>,
    shard_batch: u64,
}

fn parse_bench_options(args: &[String]) -> Result<BenchOptions, CliError> {
    let mut opts = BenchOptions {
        out: PathBuf::from("BENCH_sweep.json"),
        history: Some(PathBuf::from("BENCH_history.jsonl")),
        epochs: 14,
        seed: 2011,
        phi_max: 86.4,
        threads: snip_sim::default_threads(),
        repeat: 3,
        targets: vec![16.0, 24.0, 32.0, 40.0, 48.0, 56.0],
        fleet_workers: None,
        fleet_tcp_workers: None,
        shard_batch: 4,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => opts.out = parse_value::<PathBuf>(flag, it.next())?,
            "--history" => {
                let raw: String = parse_value(flag, it.next())?;
                opts.history = (raw != "none").then(|| PathBuf::from(raw));
            }
            "--epochs" => opts.epochs = parse_value(flag, it.next())?,
            "--seed" => opts.seed = parse_value(flag, it.next())?,
            "--phi-max" => opts.phi_max = parse_value(flag, it.next())?,
            "--threads" => opts.threads = parse_value(flag, it.next())?,
            "--repeat" => opts.repeat = parse_value(flag, it.next())?,
            "--fleet" => opts.fleet_workers = Some(parse_value(flag, it.next())?),
            "--fleet-tcp" => opts.fleet_tcp_workers = Some(parse_value(flag, it.next())?),
            "--shard-batch" => opts.shard_batch = parse_value(flag, it.next())?,
            "--targets" => {
                let raw: String = parse_value(flag, it.next())?;
                opts.targets = raw
                    .split(',')
                    .map(|s| s.trim().parse::<f64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| CliError::Usage(format!("invalid --targets list `{raw}`")))?;
            }
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
    }
    if opts.epochs == 0 {
        return Err(CliError::Usage("--epochs must be at least 1".into()));
    }
    if opts.threads == 0 {
        return Err(CliError::Usage("--threads must be at least 1".into()));
    }
    if opts.repeat == 0 {
        return Err(CliError::Usage("--repeat must be at least 1".into()));
    }
    if opts.targets.is_empty() {
        return Err(CliError::Usage("--targets must name at least one".into()));
    }
    if !(opts.phi_max.is_finite() && opts.phi_max > 0.0) {
        return Err(CliError::Usage("--phi-max must be positive".into()));
    }
    if opts.targets.iter().any(|t| !(t.is_finite() && *t > 0.0)) {
        return Err(CliError::Usage("--targets must all be positive".into()));
    }
    if opts.fleet_workers == Some(0) {
        return Err(CliError::Usage("--fleet must be at least 1".into()));
    }
    if opts.fleet_tcp_workers == Some(0) {
        return Err(CliError::Usage("--fleet-tcp must be at least 1".into()));
    }
    if opts.shard_batch == 0 {
        return Err(CliError::Usage("--shard-batch must be at least 1".into()));
    }
    Ok(opts)
}

/// A locally unique shared secret for self-spawned bench fleets. Not a
/// cryptographic token — the workers are children of this very process on
/// the loopback interface; the token exists to exercise the same
/// authenticated handshake multi-host fleets use.
fn bench_fleet_token() -> String {
    use std::time::{SystemTime, UNIX_EPOCH};
    // snip-lint: allow(wall-clock): "entropy for a locally unique bench fleet token, not simulation state"
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    format!("bench-{nanos:032x}-{}", std::process::id())
}

/// Times the canonical Fig 7 sweep three ways — pre-optimization baseline,
/// optimized sequential, optimized parallel — verifies that all three agree
/// bit-for-bit (metrics are exact integer-µs ledgers, so the optimized
/// engines must reproduce even the baseline's Φ exactly), and writes the
/// measurements as JSON.
fn cmd_bench(args: &[String]) -> Result<ExitCode, CliError> {
    use std::time::Instant;

    let opts = parse_bench_options(args)?;
    let runner = snip_sim::ScenarioRunner::new(
        EpochProfile::roadside(),
        SimConfig::paper_defaults().with_epochs(opts.epochs),
        opts.phi_max,
    )
    .with_seed(opts.seed);
    let points = opts.targets.len() * snip_sim::Mechanism::ALL.len();
    warn!(
        "benching {points} points ({} targets x 3 mechanisms, {} epochs each), {} threads",
        opts.targets.len(),
        opts.epochs,
        opts.threads
    );

    // Best-of-N wall clock: robust to scheduling noise on busy hosts.
    let timed = |f: &dyn Fn() -> Vec<snip_sim::SweepPoint>| {
        let mut best = f64::INFINITY;
        let mut out = Vec::new();
        for _ in 0..opts.repeat {
            // snip-lint: allow(wall-clock): "bench harness wall-time measurement — timing is its output"
            let t = Instant::now();
            out = f();
            best = best.min(t.elapsed().as_secs_f64());
        }
        (out, best)
    };
    let (baseline, baseline_secs) = timed(&|| runner.sweep_baseline(&opts.targets));
    warn!("  baseline (naive stepper, sequential): {baseline_secs:.3} s");
    let (sequential, sequential_secs) = timed(&|| runner.sweep_parallel(&opts.targets, 1));
    warn!("  optimized sequential:                 {sequential_secs:.3} s");
    let (parallel, parallel_secs) = timed(&|| runner.sweep_parallel(&opts.targets, opts.threads));
    warn!(
        "  optimized parallel ({} threads):       {parallel_secs:.3} s",
        opts.threads
    );

    // Optional: the same sweep through the multi-process fleet driver —
    // the deployment-scale points/sec figure (spawn + transport overhead
    // included), plus its own bit-exactness gate against the sequential
    // sweep. `--fleet` uses pipe dispatch, `--fleet-tcp` the full TCP
    // path (localhost dial-in, token + spec-hash handshake).
    #[derive(Clone, Copy)]
    struct FleetBench {
        workers: usize,
        secs: f64,
        matches: bool,
        stats: snip_fleetd::DriverStats,
    }
    let bench_spec = || FleetSpec {
        name: "bench-sweep".into(),
        seed: opts.seed,
        epochs: opts.epochs,
        phi_max_secs: opts.phi_max,
        job: snip_fleetd::JobSpec::Sweep {
            profile: EpochProfile::roadside(),
            zeta_targets: opts.targets.clone(),
        },
    };
    let measure_fleet = |driver: &FleetDriver, workers: usize| -> Result<FleetBench, CliError> {
        let mut best = f64::INFINITY;
        let mut output = None;
        let mut stats = None;
        for _ in 0..opts.repeat {
            // snip-lint: allow(wall-clock): "bench harness wall-time measurement — timing is its output"
            let t = Instant::now();
            let run = driver.run().map_err(fatal)?;
            best = best.min(t.elapsed().as_secs_f64());
            output = Some(run.output);
            stats = Some(run.stats);
        }
        let matches = match output {
            Some(FleetOutput::Sweep(ref fleet_points)) => fleet_points == &sequential,
            _ => false,
        };
        Ok(FleetBench {
            workers,
            secs: best,
            matches,
            stats: stats.expect("repeat >= 1"),
        })
    };
    let fleet_bench = match opts.fleet_workers {
        None => None,
        Some(workers) => {
            let driver = FleetDriver::new(bench_spec(), workers)
                .map_err(CliError::Usage)?
                .with_shard_batch(opts.shard_batch);
            let bench = measure_fleet(&driver, workers)?;
            warn!(
                "  fleet driver ({workers} workers):           {:.3} s",
                bench.secs
            );
            Some(bench)
        }
    };
    let fleet_tcp_bench = match opts.fleet_tcp_workers {
        None => None,
        Some(workers) => {
            let driver = FleetDriver::new(bench_spec(), workers)
                .map_err(CliError::Usage)?
                .with_shard_batch(opts.shard_batch)
                .with_tcp(snip_fleetd::TcpConfig {
                    listen: "127.0.0.1:0".into(),
                    token: bench_fleet_token(),
                    spawn_workers: true,
                })
                .map_err(|e| fatal(format!("could not bind bench listener: {e}")))?;
            let bench = measure_fleet(&driver, workers)?;
            warn!(
                "  fleet driver, TCP ({workers} workers):      {:.3} s \
                 ({} plans shipped, {} cross-worker hits)",
                bench.secs, bench.stats.plans_shipped, bench.stats.plan_seed_hits
            );
            Some(bench)
        }
    };

    // Determinism: parallel must equal sequential bit-for-bit.
    let parallel_equals_sequential = sequential.len() == parallel.len()
        && sequential.iter().zip(&parallel).all(|(a, b)| {
            a.zeta_target == b.zeta_target
                && a.mechanism == b.mechanism
                && a.zeta == b.zeta
                && a.phi == b.phi
                && a.rho == b.rho
        });
    // Fidelity: the optimized engine must reproduce the baseline results
    // bit-for-bit — metrics are integer-µs ledgers, so Φ is exact too.
    let baseline_matches = baseline.len() == sequential.len()
        && baseline
            .iter()
            .zip(&sequential)
            .all(|(b, s)| b.zeta == s.zeta && b.phi == s.phi);

    let speedup_vs_baseline = baseline_secs / parallel_secs;
    let speedup_vs_sequential = sequential_secs / parallel_secs;
    // SNIP-OPT plan-cache effectiveness across everything this process
    // solved (the sweep re-solves each (profile, Φmax, ζtarget) point
    // once; every repetition after the first should hit).
    let cache = snip_opt::plan_cache_stats();
    // Where the run's time actually went, straight from the snip-obs
    // registry: everything this process (and its in-process fleet
    // coordinators) observed. All integer µs / bytes — exact sums, not
    // sampled estimates.
    let timing_breakdown = {
        use snip_obs::metrics::{sum_counters, sum_histograms};
        let (solve_count, solve_us) = sum_histograms("snip_opt_solve_us");
        let (sweep_count, sweep_us) = sum_histograms("snip_sweep_point_us");
        let (_, encode_us) = sum_histograms("snip_frame_encode_us");
        let (_, decode_us) = sum_histograms("snip_frame_decode_us");
        let (_, queue_us) = sum_histograms("snip_shard_queue_us");
        let (_, compute_us) = sum_histograms("snip_shard_compute_us");
        let (_, merge_us) = sum_histograms("snip_fleet_merge_us");
        format!(
            "  \"timing_breakdown\": {{\"sweep_point_count\": {sweep_count}, \
             \"sweep_point_us_total\": {sweep_us}, \
             \"opt_solve_count\": {solve_count}, \"opt_solve_us_total\": {solve_us}, \
             \"frame_tx_bytes_total\": {tx}, \"frame_rx_bytes_total\": {rx}, \
             \"frame_encode_us_total\": {encode_us}, \"frame_decode_us_total\": {decode_us}, \
             \"shard_queue_us_total\": {queue_us}, \"shard_compute_us_total\": {compute_us}, \
             \"fleet_merge_us_total\": {merge_us}}},\n",
            tx = sum_counters("snip_frame_tx_bytes_total"),
            rx = sum_counters("snip_frame_rx_bytes_total"),
        )
    };
    let fleet_report_fields = |prefix: &str, bench: Option<&FleetBench>| -> String {
        match bench {
            None => String::new(),
            Some(b) => format!(
                "  \"{prefix}_workers\": {workers},\n  \"{prefix}_secs\": {secs:.6},\n  \
                 \"points_per_sec_{prefix}\": {pps:.3},\n  \
                 \"{prefix}_matches_sequential\": {matches},\n  \
                 \"{prefix}_plan_cache\": {{\"shipped\": {shipped}, \
                 \"cross_worker_hits\": {hits}}},\n",
                workers = b.workers,
                secs = b.secs,
                pps = points as f64 / b.secs,
                matches = b.matches,
                shipped = b.stats.plans_shipped,
                hits = b.stats.plan_seed_hits,
            ),
        }
    };
    let fleet_fields = format!(
        "{}{}",
        fleet_report_fields("fleet", fleet_bench.as_ref()),
        fleet_report_fields("fleet_tcp", fleet_tcp_bench.as_ref()),
    );
    // Wire efficiency: total frame bytes (both directions, every fleet
    // run above) per sweep point, and how far TCP trails the pipe path.
    // Both are CI-tracked — the binary protocol is held to a byte budget
    // and the ROADMAP target of TCP within 2x of pipe.
    let wire_fields = {
        let frame_bytes = snip_obs::metrics::sum_counters("snip_frame_tx_bytes_total")
            + snip_obs::metrics::sum_counters("snip_frame_rx_bytes_total");
        let mut fields = String::new();
        if fleet_bench.is_some() || fleet_tcp_bench.is_some() {
            fields.push_str(&format!(
                "  \"frame_bytes_per_point\": {:.1},\n",
                frame_bytes as f64 / points as f64
            ));
        }
        if let (Some(pipe), Some(tcp)) = (fleet_bench.as_ref(), fleet_tcp_bench.as_ref()) {
            fields.push_str(&format!(
                "  \"tcp_vs_pipe_ratio\": {:.3},\n",
                tcp.secs / pipe.secs
            ));
        }
        fields
    };
    let report = format!(
        "{{\n  \"bench\": \"sweep\",\n  \"schema_version\": 1,\n  \
         \"host_cores\": {cores},\n  \"threads\": {threads},\n  \"repeat\": {repeat},\n  \
         \"config\": {{\"epochs\": {epochs}, \"seed\": {seed}, \"phi_max_secs\": {phi_max}, \
         \"zeta_targets\": [{targets}]}},\n  \
         \"points\": {points},\n  \
         \"baseline_sequential_secs\": {baseline_secs:.6},\n  \
         \"sequential_secs\": {sequential_secs:.6},\n  \
         \"parallel_secs\": {parallel_secs:.6},\n  \
         \"points_per_sec_parallel\": {pps:.3},\n  \
         \"speedup_parallel_vs_baseline\": {speedup_vs_baseline:.3},\n  \
         \"speedup_parallel_vs_sequential\": {speedup_vs_sequential:.3},\n\
         {fleet_fields}\
         {wire_fields}\
         {timing_breakdown}  \
         \"opt_plan_cache\": {{\"hits\": {cache_hits}, \"misses\": {cache_misses}}},\n  \
         \"determinism\": {{\"parallel_equals_sequential\": {parallel_equals_sequential}, \
         \"optimized_matches_baseline\": {baseline_matches}}}\n}}\n",
        cores = std::thread::available_parallelism().map_or(1, usize::from),
        threads = opts.threads,
        repeat = opts.repeat,
        epochs = opts.epochs,
        seed = opts.seed,
        phi_max = opts.phi_max,
        targets = opts
            .targets
            .iter()
            .map(|t| format!("{t}"))
            .collect::<Vec<_>>()
            .join(", "),
        pps = points as f64 / parallel_secs,
        cache_hits = cache.hits,
        cache_misses = cache.misses,
    );
    std::fs::write(&opts.out, &report).map_err(fatal)?;
    println!(
        "wrote {}: {points} points, baseline {baseline_secs:.2} s -> parallel {parallel_secs:.2} s \
         ({speedup_vs_baseline:.1}x vs baseline, {speedup_vs_sequential:.1}x vs sequential)",
        opts.out.display()
    );
    let fleet_ok =
        fleet_bench.is_none_or(|b| b.matches) && fleet_tcp_bench.is_none_or(|b| b.matches);
    if let Some(history) = &opts.history {
        let history_fleet = fleet_bench.map(|b| (b.workers, b.secs));
        let history_fleet_tcp = fleet_tcp_bench.map(|b| (b.workers, b.secs));
        append_bench_history(
            history,
            &opts,
            points,
            baseline_secs,
            sequential_secs,
            parallel_secs,
            history_fleet,
            history_fleet_tcp,
            parallel_equals_sequential && baseline_matches && fleet_ok,
        )?;
    }
    if !(parallel_equals_sequential && baseline_matches && fleet_ok) {
        error!(
            "error: determinism check failed (see {})",
            opts.out.display()
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Appends one compact JSONL entry for this run to the tracked bench
/// history and diffs it against the previous entry, so a perf regression
/// shows up as a line-by-line trajectory in the repo rather than a lost
/// one-off report.
#[allow(clippy::too_many_arguments)]
fn append_bench_history(
    path: &Path,
    opts: &BenchOptions,
    points: usize,
    baseline_secs: f64,
    sequential_secs: f64,
    parallel_secs: f64,
    fleet_bench: Option<(usize, f64)>,
    fleet_tcp_bench: Option<(usize, f64)>,
    deterministic: bool,
) -> Result<(), CliError> {
    use std::io::Write as _;
    use std::time::{SystemTime, UNIX_EPOCH};

    // The previous entry (if any) is this run's comparison baseline.
    let previous = std::fs::read_to_string(path).ok().and_then(|text| {
        text.lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .map(String::from)
    });

    // snip-lint: allow(wall-clock): "bench history row timestamp; report metadata only"
    let unix_secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let history_fields = |prefix: &str, bench: Option<(usize, f64)>| -> String {
        match bench {
            None => String::new(),
            Some((workers, secs)) => format!(
                ", \"{prefix}_workers\": {workers}, \"{prefix}_secs\": {secs:.6}, \
                 \"points_per_sec_{prefix}\": {pps:.3}",
                pps = points as f64 / secs,
            ),
        }
    };
    let fleet_fields = format!(
        "{}{}",
        history_fields("fleet", fleet_bench),
        history_fields("fleet_tcp", fleet_tcp_bench),
    );
    let entry = format!(
        "{{\"schema_version\": 1, \"unix_secs\": {unix_secs}, \"points\": {points}, \
         \"epochs\": {epochs}, \"seed\": {seed}, \"threads\": {threads}, \"repeat\": {repeat}, \
         \"baseline_sequential_secs\": {baseline_secs:.6}, \
         \"sequential_secs\": {sequential_secs:.6}, \"parallel_secs\": {parallel_secs:.6}, \
         \"points_per_sec_parallel\": {pps:.3}{fleet_fields}, \
         \"deterministic\": {deterministic}}}",
        epochs = opts.epochs,
        seed = opts.seed,
        threads = opts.threads,
        repeat = opts.repeat,
        pps = points as f64 / parallel_secs,
    );
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(fatal)?;
    writeln!(file, "{entry}").map_err(fatal)?;

    match previous {
        None => println!("started {} with its first entry", path.display()),
        Some(prev) => {
            println!("appended to {} — previous entry:", path.display());
            println!("  - {prev}");
            println!("  + {entry}");
            // A crude but dependency-free regression probe: compare the
            // parallel wall-clock against the previous entry when the
            // workload shape matches.
            let field = |line: &str, key: &str| -> Option<f64> {
                let tag = format!("\"{key}\": ");
                let rest = &line[line.find(&tag)? + tag.len()..];
                let end = rest.find([',', '}'])?;
                rest[..end].trim().parse().ok()
            };
            let same_shape = field(&prev, "points") == Some(points as f64)
                && field(&prev, "epochs") == Some(opts.epochs as f64)
                && field(&prev, "threads") == Some(opts.threads as f64);
            if let (true, Some(prev_secs)) = (same_shape, field(&prev, "parallel_secs")) {
                let ratio = parallel_secs / prev_secs.max(1e-9);
                if ratio > 1.25 {
                    warn!(
                        "warning: parallel sweep is {ratio:.2}x slower than the previous \
                         entry ({parallel_secs:.3} s vs {prev_secs:.3} s)"
                    );
                } else {
                    println!("parallel sweep vs previous entry: {ratio:.2}x");
                }
            }
        }
    }
    Ok(())
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
        println!("{v}");
    }
    println!(
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

/// `snip check-proto`: the bounded-exhaustive protocol check — model
/// exploration, then concrete fault schedules against the real driver,
/// then the auth-uniformity wire probe.
fn cmd_check_proto(args: &[String]) -> Result<ExitCode, CliError> {
    let mut abstract_only = false;
    for arg in args {
        match arg.as_str() {
            "--abstract-only" => abstract_only = true,
            other => {
                return Err(CliError::Usage(format!(
                    "unknown check-proto option `{other}`"
                )))
            }
        }
    }

    // Leg 1: every reachable state of the protocol model within the
    // fault budget, with the invariants asserted in each one.
    let cfg = snip_verify::proto::ExploreConfig::default();
    let report = snip_verify::proto::explore(&cfg)
        .map_err(|v| fatal(format!("protocol invariant violated: {v}")))?;
    println!("check-proto [model]: {report}");
    if report.states < 10_000 {
        return Err(fatal(format!(
            "exploration bound regressed below the 10^4-state bar: {report}"
        )));
    }
    if abstract_only {
        return Ok(ExitCode::SUCCESS);
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
        println!("check-proto [fault {name}]: clean end");
    }

    // Leg 3: auth-rejection uniformity on the wire. Whatever the reason
    // — wrong token, protocol skew, or un-frameable garbage — a refused
    // dial must observe exactly the same bytes (none) before the sever.
    check_auth_uniformity(&spec)?;
    println!(
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

/// The concrete schedules: one per protocol hazard the model explores —
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
    use serde::Serialize as _;
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
        let body = serde::json::to_string(&msg.to_value());
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
        println!("snip fuzz --replay: {report}");
        for (path, detail) in &report.regressions {
            println!("  REGRESSION {}: {detail}", path.display());
        }
        return Ok(if report.is_clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        });
    }

    cfg.corpus_dir = Some(corpus);
    let report = snip_verify::fuzz::run_fuzz(&cfg).map_err(|e| fatal(format!("fuzz run: {e}")))?;
    println!("snip fuzz: {report}");
    for f in &report.findings {
        match &f.artifact {
            Some(path) => println!(
                "  FINDING [{}] {} ({} bytes, minimized) -> {}",
                f.class,
                f.target.name(),
                f.input.len(),
                path.display()
            ),
            None => println!(
                "  FINDING [{}] {} ({} bytes, minimized)",
                f.class,
                f.target.name(),
                f.input.len()
            ),
        }
        if !f.detail.is_empty() {
            println!("    {}", f.detail);
        }
    }
    Ok(if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
