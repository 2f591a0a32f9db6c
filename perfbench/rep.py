"""One repetition of one workload, in the fresh interpreter it runs in.

    python perfbench/rep.py --workload NAME --seed N --trace 0|1 --checks 0|1 [--spans FILE]

Imports manincount from the checkout's ``src``, runs the workload once
(traced or not), reads peak RSS before any check runs, then runs the
output checks (with tracing removed) and prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def _mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checks", type=int, choices=(0, 1), default=1)
    parser.add_argument("--spans")
    args = parser.parse_args()

    import manincount
    import manincount.cli
    import manincount.verify

    if Path(manincount.__file__).resolve().parent != ROOT / "src" / "manincount":
        print(f"imported manincount from {manincount.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    inputs = make_inputs(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(manincount)
    error = None
    t0 = perf_counter()
    try:
        outputs = workload.run(manincount, inputs)
    except Exception:
        outputs = {}
        error = traceback.format_exc()
    wall = perf_counter() - t0
    if tracer:
        tracer.uninstall()

    import mpmath
    import numpy

    result = {
        "inputs": inputs,
        "wall_s": wall,
        "peak_rss_mb": _mb(resource.RUSAGE_SELF),
        "worker_rss_mb": _mb(resource.RUSAGE_CHILDREN),
        "outputs": outputs,
        "checks": [],
        "extras": {},
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
        },
    }
    if tracer:
        result["trace"] = tracer.metrics(wall)
        result["semantic"] = tracer.semantic()
        if args.spans:
            tracer.write_spans(args.spans)
    if error is not None:
        print(error, file=sys.stderr)
        result["checks"].append(("workload runs without an exception", False,
                                 error.strip().splitlines()[-1]))
    elif args.checks:
        try:
            result["checks"], result["extras"] = workload.check(manincount, inputs, outputs)
        except Exception:
            detail = traceback.format_exc()
            print(detail, file=sys.stderr)
            result["checks"].append(("output checks run without an exception", False,
                                     detail.strip().splitlines()[-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
