"""The manincount benchmark: one command for every workload and metric.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Closed loop, one client: each repetition runs the workload's calls in
sequence, in a fresh interpreter (so lazy caches start cold), at most two
pool workers.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` reports the per-layer metrics of a traced
repetition and checks that tracing changed no output.  Human-readable
lines start with ``#``; the last line is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER_UNITS  # noqa: E402
from workloads import RANGES, WORKLOADS, make_inputs  # noqa: E402

SETUP_STARTS = 9
BUDGET_S = 165  # one workload's run must end well inside 180 s


class BenchError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MANIN_WORKERS", None)  # workloads pass their worker counts explicitly
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


def _run_child(argv: list[str], deadline: float) -> str:
    """Run a fresh interpreter; return its stdout.  Kills its whole process
    group if it outlives the deadline."""
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE, text=True,
                            env=_child_env(), cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{argv} did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv} exited with {proc.returncode}")
    return stdout


def setup_time(deadline: float) -> float:
    """Seconds from starting an interpreter until ``import manincount`` returns."""
    t0 = time.monotonic()
    out = _run_child(["-c", "import manincount, time; print(time.monotonic())"], deadline)
    return float(out.split()[-1]) - t0


def repetition(name: str, seed: int, deadline: float, trace: bool = False,
               checks: bool = False, spans: Path | None = None) -> dict:
    argv = [str(HERE / "rep.py"), "--workload", name, "--seed", str(seed),
            "--trace", str(int(trace)), "--checks", str(int(checks))]
    if spans is not None:
        argv += ["--spans", str(spans)]
    return json.loads(_run_child(argv, deadline).splitlines()[-1])


def _env(rep: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, **rep["env"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + BUDGET_S
    why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    print(f"# workload {name} seed {seed}: {why[name]}")
    print(f"# inputs {json.dumps(make_inputs(name, seed))} ranges {json.dumps(RANGES[name])}")

    if not trace:
        setups = [setup_time(deadline) for _ in range(SETUP_STARTS)]
        reps = [repetition(name, seed, deadline, checks=True)]
        # repeat until --seconds of workload time is measured, leaving room
        # for one more repetition before the deadline
        while (sum(r["wall_s"] for r in reps) < seconds
               and time.monotonic() + 1.5 * reps[-1]["wall_s"] < deadline):
            reps.append(repetition(name, seed, deadline))
        checks = list(reps[0]["checks"])
        for i, rep in enumerate(reps[1:], 1):
            checks.append((f"repetition {i} outputs identical to repetition 0",
                           rep["outputs"] == reps[0]["outputs"], ""))
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        }
        extra = {"worker_rss_mb": (max(r["worker_rss_mb"] for r in reps), "MB")}
        print(f"# {len(reps)} repetition(s), wall_s each: "
              + " ".join(f"{r['wall_s']:.3f}" for r in reps)
              + f"; {SETUP_STARTS} starts, setup_s each: "
              + " ".join(f"{s:.3f}" for s in setups))
    else:
        OUT.mkdir(exist_ok=True)
        plain = repetition(name, seed, deadline, checks=True)
        traced = [repetition(name, seed, deadline, trace=True,
                             spans=OUT / f"spans-{name}-seed{seed}-{i}.jsonl") for i in (1, 2)]
        reps = [plain, *traced]
        checks = list(plain["checks"])
        for i, rep in enumerate(traced, 1):
            checks.append((f"traced run {i} outputs byte-identical to the untraced run",
                           rep["outputs"] == plain["outputs"], ""))
        sem = [rep["semantic"] for rep in traced]
        checks.append(("semantic counters repeat across two traced runs", sem[0] == sem[1],
                       json.dumps(sem)))
        layer = dict(traced[0]["trace"])
        layer["trace_overhead_frac"] = traced[0]["wall_s"] / plain["wall_s"] - 1
        layer["counting.worker_rss_mb"] = plain["worker_rss_mb"]
        layer["asymptotics.c4_digits"] = plain["extras"].get("c4_digits", 0.0)
        metrics = {key: (layer[key], unit) for key, unit in PER_LAYER_UNITS.items()}
        extra = {}
        print(f"# untraced wall_s {plain['wall_s']:.3f}; traced wall_s "
              + " ".join(f"{r['wall_s']:.3f}" for r in traced)
              + f"; spans written to {OUT.name}/")
        print(f"# scheduling counter (not semantic): counting.workers_started "
              f"{layer['counting.workers_started']}")

    print(f"# env {json.dumps(_env(reps[0]))}")
    failed = sum(1 for _, ok, _ in checks if not ok)
    for check_name, ok, detail in checks:
        print(f"# check {'ok' if ok else 'FAIL'}: {check_name}" + (f" ({detail})" if detail else ""))
    print(f"# verdict {name}: {'PASS' if not failed else 'FAIL'}, "
          f"{len(checks) - failed}/{len(checks)} checks passed")
    if not trace:
        extra["failed_frac"] = (failed / len(checks), "ratio")
        if "c4_digits" in reps[0]["extras"]:
            extra["c4_digits"] = (reps[0]["extras"]["c4_digits"], "digits")
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"# metric {key} {value:.6g} {unit}")
    print(f"# run took {time.monotonic() - start:.1f} s")
    return {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "manincount" / "__init__.py").is_file():
        print(f"no manincount package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
