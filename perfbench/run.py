"""coxkit benchmark: one command prints every metric with its unit.

    python3 perfbench/run.py --workload rank-scan --seed 42 --seconds 25 \
        --trace 0

Run from the root of a checkout.  Each pass runs in a fresh interpreter
(passrun.py); passes repeat until the next one would end after --seconds,
but an untraced run always has at least three passes and enough to pool
100 op latencies.  Before each pass, two interpreters stop just before the
first op, so set-up time is a median over starts spread through the run.
Every time is scaled to a reference host speed by the host-speed probe
taken beside it (hostspeed.py), and each metric is a median over the run
(README.md).  With --trace 0 the last line holds the end-to-end metrics;
with --trace 1 traced and untraced passes alternate and it holds the
per-layer metrics.  Every op's result is checked exactly; ``correct`` is
false if any op failed or, when traced, if two traced passes disagree on a
count.  Lines before the last one give the run environment, host-speed
calibration and a readable table.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # the traced report imports the workload list

WORKLOADS = ("verify-sweep", "rank-scan", "series-braid")
END_TO_END = {"pass_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms",
              "setup_s": "s", "peak_rss_mb": "MB", "ops_ok_ratio": "ratio"}
SETUP_PROBES = 2  # before each pass
# an untraced run pools at least this many op latencies, so that at least
# ten lie beyond the 90th percentile, and has at least three passes to take
# the median of; both hold even when that outlasts --seconds
P90_SAMPLES = 100
MIN_PASSES = 3
PASS_TIMEOUT_S = 170


class BenchError(Exception):
    """A pass process failed as a whole; there is no result to print."""


def calibrate() -> float:
    """Median of five host-speed probes, in seconds, as metadata."""
    return statistics.median(hostspeed.probe() for _ in range(5))


def commit() -> str:
    """HEAD of the checkout, or "unknown" if it is not a git work tree."""
    # the ceiling keeps git from reporting a repository that encloses ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": commit(),
            "seed": seed}


def run_child(workload: str, seed: int, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "passrun.py"), workload, str(seed),
           *flags]
    # a fixed hash seed keeps set iteration, and so every traced count,
    # identical from pass to pass
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {PASS_TIMEOUT_S}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = scaled(out["first_op"] - start, out["setup_probe"])
    return out


def scaled(seconds: float, probe_s: float) -> float:
    """A time measured beside a probe, at the reference host speed."""
    return seconds * hostspeed.NOMINAL_S / probe_s


def op_times(p: dict) -> list[float]:
    """A pass's op latencies at the reference host speed."""
    return [scaled(t, probe) for t, probe in zip(p["latencies"], p["probes"])]


def pass_time(p: dict) -> float:
    """A pass's wall time without probes, at the reference host speed."""
    return scaled(p["pass_s"], statistics.median(p["probes"]))


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[8]


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    lat = [t for p in passes for t in op_times(p)]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "pass_s": statistics.median(sum(op_times(p)) for p in passes),
        "op_ms_p50": 1000 * statistics.median(lat),
        "op_ms_p90": 1000 * p90(lat),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ops_ok_ratio": 1 - failed / attempted,
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, bool]:
    """Median of each layer value over the traced passes, and whether every
    count repeated exactly across them."""
    import layertrace

    values = {name: statistics.median(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    values["trace.overhead_ratio"] = (
        statistics.median(pass_time(p) for p in traced)
        / statistics.median(pass_time(p) for p in untraced))
    repeat = all(p["layers"][name] == traced[0]["layers"][name]
                 for p in traced for name in layertrace.COUNTS)
    return values, repeat


def enough(untraced: list[dict], traced: list[dict], trace: bool) -> bool:
    """A traced run needs two traced passes, so that their counts can be
    compared; it reports no end-to-end metric, so needs no more."""
    if trace:
        return len(traced) >= 2
    ops = len(untraced[0]["latencies"])
    return len(untraced) >= max(MIN_PASSES, -(-P90_SAMPLES // ops))


def measure(workload: str, seed: int, seconds: float, trace: bool):
    start = time.perf_counter()
    untraced, traced, setups, rounds = [], [], [], []
    while True:
        round_start = time.perf_counter()
        setups += [run_child(workload, seed, "--setup-only")["setup_s"]
                   for _ in range(SETUP_PROBES)]
        untraced.append(run_child(workload, seed))
        setups.append(untraced[-1]["setup_s"])
        if trace:
            traced.append(run_child(workload, seed, "--trace"))
        now = time.perf_counter()
        rounds.append(now - round_start)
        if (enough(untraced, traced, trace)
                and now - start + statistics.median(rounds) > seconds):
            break
    return untraced, traced, setups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "coxkit" / "__init__.py").is_file():
        print(f"error: no coxkit source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # byte-compile up front so the first pass does not pay for it
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    meta = environment(args.seed)
    meta.update(workload=args.workload, seconds=args.seconds,
                trace=args.trace, calibration_start_s=calibrate())
    try:
        untraced, traced, setups = measure(args.workload, args.seed,
                                           args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta["calibration_end_s"] = calibrate()

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    lat = [t for p in untraced for t in op_times(p)]
    cut = p90(lat)
    meta.update(passes=len(untraced), traced_passes=len(traced),
                pass_s_each=[sum(op_times(p)) for p in untraced],
                pass_wall_s_each=[p["pass_s"] for p in untraced],
                probe_s_each=[statistics.median(p["probes"])
                              for p in untraced],
                setup_samples=len(setups), op_samples=len(lat),
                op_samples_beyond_p90=sum(1 for x in lat if x > cut),
                errors=sorted({e for p in passes for e in p["errors"]})[:20])
    correct = failed == 0
    if args.trace:
        import layertrace
        values, repeat = per_layer(traced, untraced)
        correct = correct and repeat
        meta["counts_repeat"] = repeat
        units = layertrace.per_layer_units()
        share = {m: values[f"{m}.self_share"] for m in layertrace.ROLLUP}
        print("self time by module (median traced pass):")
        for mod in sorted(share, key=share.get, reverse=True):
            print(f"  {mod:<11} {values[f'{mod}.self_s']:10.4f} s "
                  f"{100 * share[mod]:6.1f} %")
    else:
        values, units = end_to_end(untraced, setups), END_TO_END
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, value in values.items():
        print(f"{name:<40} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
