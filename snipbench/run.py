#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of a checkout:

    python3 snipbench/run.py --workload plan-sweep --seed 1 --seconds 15 --trace 0

It builds the `snipbench` crate next to this file (into `$CARGO_TARGET_DIR`,
default `.bench_build`), computes a reference for the seed's inputs in one
process, then starts a fresh process per repetition until `--seconds` have
passed. Every job of every repetition is checked bit for bit against the
reference. The last line of stdout is one JSON object: with `--trace 0` the
end-to-end metrics over untraced repetitions (`jobs_per_s` over the wall of
`unhindered_wall`, `setup_s` as the lower quartile of `fast`), with
`--trace 1` the per-layer metrics (medians over traced
repetitions, which alternate with untraced ones so the tracing overhead can
be measured). The self-time table
of a traced run goes to stderr; the spans of its last repetition are written
to `$CARGO_TARGET_DIR/snipbench-spans/`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("plan-sweep", "long-fleet", "wire-fleet")

END_TO_END = {
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "mobility.trace_gen_s": "s",
    "mobility.contacts": "count",
    "sim.step_s": "s",
    "sim.node_epochs": "count",
    "sim.us_per_node_epoch": "us",
    "core.at_plan_s": "s",
    "core.at_plans": "count",
    "opt.plan_s": "s",
    "opt.plans": "count",
    "opt.cache_lookups": "count",
    "opt.cache_hit_ratio": "ratio",
    "fleetd.spec_parse_s": "s",
    "fleetd.spec_hash_s": "s",
    "fleetd.jobrunner_new_s": "s",
    "fleetd.handshake_s": "s",
    "fleetd.shard_roundtrip_s": "s",
    "fleetd.merge_s": "s",
    "fleetd.unattributed_s": "s",
    "fleetd.compute_share": "ratio",
    "fleetd.workers_lost": "count",
    "fleetd.shards_reassigned": "count",
    "replay.init_bytes": "bytes",
    "replay.result_bytes_per_job": "bytes",
    "replay.frame_bytes_per_job": "bytes",
    "replay.encode_s": "s",
    "replay.decode_s": "s",
    "bench.trace_overhead_frac": "ratio",
    "bench.attributed_frac": "ratio",
    "bench.dominant_share": "ratio",
}

# The layers each workload was chosen to load, by per-layer metric; their
# share of the untraced wall is `bench.dominant_share` and should exceed
# one half. For wire-fleet the loaded layers are everything but compute.
DOMINANT = {
    "plan-sweep": ("core.at_plan_s", "opt.plan_s"),
    "long-fleet": ("mobility.trace_gen_s", "sim.step_s"),
}

# Layer self-times must add up to the untraced wall within this share.
ATTRIBUTION_TOLERANCE = 0.10

# Environment that would carry state into a repetition or change its work.
CLEARED_ENV = ("SNIP_TRACE", "SNIP_LOG", "SNIP_THREADS", "SNIP_FLEET_TOKEN")

MIN_UNTRACED = 3
MIN_TRACED = 2
REP_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", type=int, help="override the workload's stated size (tests)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.size is not None and args.size < 1):
        p.error("--seed must be non-negative, --seconds and --size positive")
    return args


def build(target_dir):
    """Builds the benchmark binary; returns its path, or None."""
    manifest = HERE / "Cargo.toml"
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"snipbench: build failed: {e}")
        return None
    if proc.returncode != 0:
        log("snipbench: build failed (is this the root of a full checkout?)")
        return None
    binary = target_dir / "release" / "snipbench"
    return binary if binary.is_file() else None


class Runner:
    def __init__(self, binary, args):
        self.binary = binary
        self.base = ["--workload", args.workload, "--seed", str(args.seed)]
        if args.size is not None:
            self.base += ["--size", str(args.size)]
        self.env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}

    def call(self, mode, extra=()):
        """Runs one fresh process; returns its JSON result, or None."""
        cmd = [str(self.binary), mode, *self.base, *extra]
        try:
            proc = subprocess.run(
                cmd, env=self.env, capture_output=True, text=True, timeout=REP_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            log(f"snipbench: `{mode}` timed out")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"snipbench: `{mode}` failed (exit {proc.returncode}): {proc.stderr.strip()}")
            return None
        return json.loads(lines[-1])


def failed_jobs(rep, ref):
    """Jobs of a repetition missing or not bit-identical to the reference."""
    n = len(ref["row_digests"])
    bad = set()
    for key in ("metrics_digests", "row_digests"):
        got = rep[key]
        if not got:
            continue  # this kind of repetition does not produce these
        bad.update(i for i in range(n) if i >= len(got) or got[i] != ref[key][i])
    if not rep["metrics_digests"] and not rep["row_digests"]:
        return n
    return len(bad)


def median(values):
    return statistics.median(values)


def fast(values):
    """The lower quartile: the time a repetition takes when the host does
    not slow it. A shared host's slowdowns are one-sided and come in spells
    of whole repetitions, so a median flips between the fast and the slow
    mode from run to run; the lower quartile stays in the fast one."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def unhindered_wall(reps):
    """The wall a repetition takes when the host slows none of it. A
    repetition cuts its wall into laps (in process the set-up, then one per
    job; over the wire one lap); summed over laps, each lap's fastest time
    across the run's repetitions moves only if a slow spell covers every
    repetition of some lap, where a quartile of whole walls moves when it
    covers a quarter of the run."""
    return sum(min(lap) for lap in zip(*(r["laps_s"] for r in reps)))


def attributed(rep):
    """Seconds of a traced repetition's table that the program's layers
    account for (the benchmark's own rows and the remainder excluded)."""
    return sum(v for k, v in rep["table"].items()
               if not k.startswith("bench.") and not k.endswith(".unattributed"))


def dominant(workload, rep):
    """Share of a traced repetition taken by the layers the workload loads."""
    if workload in DOMINANT:
        return sum(rep["layers"].get(m, 0.0) for m in DOMINANT[workload]) / rep["wall_s"]
    return 1.0 - rep["layers"]["fleetd.compute_share"]


def summarize_trace(workload, traced, untraced):
    """Per-layer metrics from the traced repetitions; logs the table."""
    layers = {name: median([r["layers"].get(name, 0.0) for r in traced]) for name in PER_LAYER}
    wall = fast([r["wall_s"] for r in untraced])
    layers["bench.trace_overhead_frac"] = fast([r["wall_s"] for r in traced]) / wall - 1.0
    layers["bench.attributed_frac"] = fast([attributed(r) for r in traced]) / wall
    layers["bench.dominant_share"] = median([dominant(workload, r) for r in traced])

    log(f"self time per layer, {workload} (medians of {len(traced)} traced runs; share of "
        f"each run's wall; untraced wall {wall:.4f} s, lower quartile of {len(untraced)} runs):")
    rows = {k for r in traced for k in r["table"]}
    for name in sorted(rows, key=lambda k: -median([r["table"].get(k, 0.0) for r in traced])):
        secs = median([r["table"].get(name, 0.0) for r in traced])
        share = median([r["table"].get(name, 0.0) / r["wall_s"] for r in traced])
        log(f"  {name:<28} {secs:10.4f} s  {100 * share:6.1f}%")
    log(f"  layers add up to {100 * layers['bench.attributed_frac']:.1f}% of the untraced wall "
        f"(tolerance ±{100 * ATTRIBUTION_TOLERANCE:.0f}%); tracing overhead "
        f"{100 * layers['bench.trace_overhead_frac']:+.1f}%")
    if abs(layers["bench.attributed_frac"] - 1.0) > ATTRIBUTION_TOLERANCE:
        log("  WARNING: layer self-times do not add up to the untraced wall")
    if layers["bench.dominant_share"] <= 0.5:
        log(f"  WARNING: the layers {workload} was chosen for take only "
            f"{100 * layers['bench.dominant_share']:.1f}% of it")
    return layers


def main(argv):
    args = parse_args(argv)
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    binary = build(target_dir)
    if binary is None:
        return 2
    scratch = target_dir / "snipbench-scratch"
    spans_dir = target_dir / "snipbench-spans"
    scratch.mkdir(parents=True, exist_ok=True)
    spans_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(binary, args)

    # The reference runs in its own process, so nothing it warms (the
    # SNIP-OPT plan cache, the metrics registry) reaches a timed run.
    ref = runner.call("reference")
    if ref is None:
        return 1
    jobs = len(ref["row_digests"])

    untraced, traced = [], []
    attempted = failed = failed_reps = 0
    spans_out = spans_dir / f"{args.workload}-seed{args.seed}.json"

    def enough():
        if args.trace == 0:
            return len(untraced) >= MIN_UNTRACED
        return len(untraced) >= MIN_TRACED and len(traced) >= MIN_TRACED

    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline or not enough():
        if failed_reps >= 3:
            log("snipbench: too many repetitions failed")
            return 1
        want_traced = args.trace == 1 and len(traced) < len(untraced)
        extra = ["--scratch", str(scratch)]
        if want_traced:
            extra += ["--traced", "--spans-out", str(spans_out)]
        rep = runner.call("rep", extra)
        attempted += jobs
        if rep is None:
            failed += jobs
            failed_reps += 1
            continue
        failed += failed_jobs(rep, ref)
        (traced if want_traced else untraced).append(rep)

    if args.trace == 0:
        values = {
            "jobs_per_s": jobs / unhindered_wall(untraced),
            "setup_s": fast([r["setup_s"] for r in untraced]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        }
        units = END_TO_END
        walls = sorted(r["wall_s"] for r in untraced)
        log(f"{args.workload}: {len(walls)} untraced runs of {jobs} jobs, wall min {walls[0]:.4f} "
            f"lower quartile {fast(walls):.4f} median {median(walls):.4f} max {walls[-1]:.4f} s, "
            f"unhindered {unhindered_wall(untraced):.4f} s; "
            + ", ".join(f"{k} {v:.6g}" for k, v in values.items()))
    else:
        values = summarize_trace(args.workload, traced, untraced)
        units = PER_LAYER

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
