#!/usr/bin/env python3
"""Builds and runs one perfbench workload, checks its outputs and prints its
metrics.

    python3 perfbench/run.py --workload sim-online --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  The driver (perfbench/driver.cc) is built
from the checkout's own sources into .bench_build/perfbench, runs the
workload in a child process and reports raw measurements; this script turns
them into the metrics named in BENCHMARK.json.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics for --trace 0, the per-layer metrics for --trace 1.

The exit code is 0 only when every output check passed.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"

WORKLOADS = ("sim-online", "grid-warm")
# The seed claims are made on, and the one held out for checking them
# afterwards (a claim must also hold on a seed not used while writing it).
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
    "acs_energy_norm": "ratio",
    "wcs_energy_norm": "ratio",
    "scenario_energy_norm": "ratio",
}

LAYER_UNITS = {
    "workload.calibrate_ms": "ms",
    "fps.expand_ms": "ms",
    "fps.sub_instances": "count",
    "core.solve_wcs_ms": "ms",
    "core.solve_acs_ms": "ms",
    "core.solve_planned_ms": "ms",
    "core.timed_solves": "count",
    "opt.evaluations_per_solve": "count",
    "opt.inner_iterations_per_solve": "count",
    "opt.outer_iterations_per_solve": "count",
    "opt.capped_ratio": "ratio",
    "opt.max_violation": "abs",
    "core.fallback_ratio": "ratio",
    "sim.greedy_us_per_hp": "us",
    "sim.expected_case_us_per_hp": "us",
    "sim.dispatches_per_hp": "count",
    "sim.dp_dispatches_per_hp": "count",
    "sim.voltage_switches_per_hp": "count",
    "mp.partition_us": "us",
    "mp.fleet_ms": "ms",
    "dpm.consolidate_us": "us",
    "dpm.sleeps_per_hp": "count",
    "dpm.migrations": "count",
    "core.store_load_us": "us",
    "core.store_writeback_ms": "ms",
    "core.store_entry_bytes": "bytes",
    "core.persist_hit_ratio": "ratio",
    "core.prepare_hit_ratio": "ratio",
    "runner.worker_busy_ratio": "ratio",
    "runner.overhead_ms": "ms",
    "runner.family_steals": "count",
    "obs.overhead_ratio": "ratio",
    "host.ref_loop_ms": "ms",
}

# Samples a reported percentile must leave beyond it.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-quantile of `values` (0 < q < 1).

    Raises ValueError unless at least MIN_BEYOND samples lie beyond the
    reported rank, so a high percentile is never read off a handful of ops.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must lie in (0, 1)")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples leaves {beyond} beyond "
            f"it; need {MIN_BEYOND}")
    return ordered[rank - 1]


def log(message):
    print(message, file=sys.stderr, flush=True)


def content_id(directory, prefix):
    """Content hash of the files under `directory`: a build identity that
    does not need the checkout to be a git repository."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(directory)).encode())
            digest.update(path.read_bytes())
    return prefix + digest.hexdigest()[:12]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def child_env():
    """Environment of the build and the driver: temporary files stay inside
    the checkout."""
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, CCACHE_DISABLE="1", TMPDIR=str(tmp))


def build():
    """Configures (when the source identity changed) and builds the driver.
    Returns its path, or None when the build failed."""
    if not (ROOT / "src").is_dir():
        log("error: no library sources under src/")
        return None
    ident = content_id(ROOT / "src", "src-")
    env = child_env()
    stamp = BUILD_DIR / "source_id"
    if not stamp.exists() or stamp.read_text() != ident:
        BUILD_DIR.mkdir(parents=True, exist_ok=True)
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release",
                     f"-DACS_BENCH_SOURCE_ID={ident}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        result = subprocess.run(configure, env=env, stdout=sys.stderr,
                                stderr=sys.stderr, check=False)
        if result.returncode != 0:
            return None
        stamp.write_text(ident)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                            env=env, stdout=sys.stderr, stderr=sys.stderr,
                            check=False)
    if result.returncode != 0:
        return None
    driver = BUILD_DIR / "perfbench_driver"
    return driver if driver.exists() else None


def run_driver(driver, args, deadline):
    env = child_env()
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=env["TMPDIR"])
    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--smoke", "1" if args.smoke else "0", "--tmp", tmp]
    try:
        result = subprocess.run(command, capture_output=True, text=True,
                                env=env, check=False,
                                timeout=max(10.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        log("error: driver timed out")
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stderr.write(result.stderr[-4000:])
    if result.returncode != 0:
        log(f"error: driver exited with {result.returncode}")
        return None
    lines = result.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def end_to_end(raw):
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "op_ms_p50": percentile(raw["op_ms"], 0.5),
        "op_ms_p90": percentile(raw["op_ms"], 0.9),
        "work_per_s": (raw["work"] * raw["provenance"]["threads"]
                       / (math.fsum(raw["op_ms"]) / 1000.0)),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_ratio": 1.0 - raw["failed"] / raw["attempted"],
        "acs_energy_norm": raw["norms"]["acs_energy_norm"],
        "wcs_energy_norm": raw["norms"]["wcs_energy_norm"],
        "scenario_energy_norm": raw["norms"]["scenario_energy_norm"],
    }


def per_layer(raw):
    layers = dict(raw["layers"])
    layers["host.ref_loop_ms"] = statistics.mean(raw["ref_loop_ms"])
    return layers


def check(workload, raw, metrics, trace, declared):
    """Returns the list of failed output checks."""
    problems = list(raw["failures"])
    if raw["failed"]:
        problems.append(f"{raw['failed']} of {raw['attempted']} ops failed")
    for name, value in raw["norms"].items():
        if not (math.isfinite(value) and 0.0 < value <= 1.0):
            problems.append(f"{name} = {value} is outside (0, 1]")
    for name in declared:
        if name not in metrics:
            problems.append(f"metric {name} named in BENCHMARK.json is "
                            "missing")
    if trace:
        if metrics["core.timed_solves"] != 0:
            problems.append("timed ops ran offline solves")
        if (workload == "grid-warm"
                and metrics["core.persist_hit_ratio"] != 1.0):
            problems.append("warm boots missed the persistent store")
    return problems


def check_ledger(workload, seed, smoke, raw):
    """Energy norms and solver counts must repeat bit-for-bit across runs of
    one build at one seed and SIMD level; the first run records them."""
    prov = raw["provenance"]
    key = (f"{workload}-seed{seed}{'-smoke' if smoke else ''}-"
           f"{prov['source_id']}-{content_id(HERE, 'bench-')}-{prov['simd']}")
    path = BUILD_ROOT / "ledger" / f"{key}.json"
    record = {"norms": {k: float(v).hex() for k, v in raw["norms"].items()},
              "digest": {k: float(v).hex() for k, v in raw["digest"].items()}}
    if path.exists():
        previous = json.loads(path.read_text())
        if previous != record:
            return [f"outputs differ from an earlier run at seed {seed}: "
                    f"{previous} vs {record}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True))
    return []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the self-tests)")
    args = parser.parse_args(argv)
    deadline = time.time() + 175.0

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        log("error: BENCHMARK.json not found at the checkout root")
        return 1
    spec = json.loads(spec_path.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    declared = [m["name"] for m in spec[section]]

    driver = build()
    if driver is None:
        log("error: build failed")
        return 1
    # The first run in a checkout may spend most of its budget building.
    deadline = max(deadline, time.time() + 120.0)
    raw = run_driver(driver, args, deadline)
    if raw is None:
        return 1

    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    problems = check(args.workload, raw, metrics, args.trace, declared)
    problems += check_ledger(args.workload, args.seed, args.smoke, raw)

    prov = dict(raw["provenance"], git_sha=git_sha(), ops=raw["attempted"],
                inputs=len(raw["op_ms"]), passes=raw["passes"],
                work_unit=raw["work_unit"])
    results_dir = BUILD_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "trace": args.trace,
        "provenance": prov, "metrics": metrics,
        "setup_s": raw["setup_s"], "ref_loop_ms": raw["ref_loop_ms"],
        "norms": raw["norms"], "digest": raw["digest"],
        "problems": problems,
    }
    suffix = "-smoke" if args.smoke else ""
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
     f"{suffix}.json").write_text(json.dumps(record, indent=1))

    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"host.ref_loop_ms before/after: {raw['ref_loop_ms'][0]:.3f} "
          f"{raw['ref_loop_ms'][1]:.3f}")
    for name, value in raw["norms"].items():
        print(f"{name:32s} {value:.6f}")
    for name in sorted(metrics):
        print(f"{name:32s} {metrics[name]:.6g} {units[name]}")
    for problem in problems:
        print(f"FAILED: {problem}")

    print(json.dumps({
        "correct": not problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                    if name in declared},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
