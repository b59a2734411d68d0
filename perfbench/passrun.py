"""One benchmark pass in a fresh interpreter.

    python3 perfbench/passrun.py WORKLOAD SEED [--trace] [--setup-only]

Imports coxkit from the checkout's ``src``, generates the workload from the
seed, reads the clock just before the first op, probes the host's speed
(hostspeed.py) and runs one pass.  Prints one JSON line: that clock reading
(the parent turns it into set-up time) and probe, the pass's wall time
without its probes, every op latency with the probe beside it, the failure
count and peak RSS and, with ``--trace``, the per-layer values.
``--setup-only`` stops after the first probe.  run.py starts this script
once per pass, so no in-process cache outlives a pass, just as none
outlives one ``coxkit`` command.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import coxkit  # noqa: E402,F401  (set-up time covers the import)

import hostspeed  # noqa: E402
import workloads  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(workloads.BUILDERS))
    ap.add_argument("seed", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    groups = workloads.BUILDERS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import layertrace
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    first_op = time.perf_counter()
    out = {"first_op": first_op, "setup_probe": hostspeed.probe()}
    if not args.setup_only:
        start = time.perf_counter()
        result = workloads.run_pass(groups, hostspeed.probe)
        pass_s = time.perf_counter() - start - result.probe_s
        out.update(pass_s=pass_s, latencies=result.latencies,
                   probes=result.probes,
                   attempted=result.attempted, failed=result.failed,
                   errors=result.errors[:20])
        if tracer is not None:
            out["layers"] = layertrace.layer_values(tracer, pass_s)
    out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
