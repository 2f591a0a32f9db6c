"""Spans and counters around manincount's public functions.

The tracer patches module attributes from the outside; the package source
is never edited.  Every public function of the six modules is replaced,
in every module (and module-level dict) that holds a reference to it, by
one wrapper.  Hot leaf functions get a call counter only; the rest get a
span as well.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import multiprocessing.process
from time import perf_counter

MODULES = ("arith", "counting", "asymptotics", "hessian", "verify", "cli")

# Leaf functions called hundreds of thousands of times per workload: a span
# each would cost more than the work, so they are only counted.
COUNT_ONLY = {
    "arith.factorize",
    "arith.is_prime",
    "arith.rn_star_prime_powers",
    "arith.rn_star",
    "arith.r4_star",
    "arith.r4",
    "arith.divisor_count",
    "counting.introot",
    "counting.resolve_workers",
    "asymptotics.local_factor",
    "asymptotics.zeta_real",
    "hessian.hessian_at",
    "hessian.rank_over_rationals",
}

# Counters whose values are fixed by the inputs: two traced runs of one
# seed must give the same numbers.
SEMANTIC = ("counting.values", "arith.conv_entries", "asymptotics.primes_multiplied", "verify.checks")

# Inclusive span times reported per workload (metric name + ".s").
SPAN_METRICS = (
    "counting.s_sum",
    "counting.t_sum",
    "counting.count_affine_exact",
    "counting.count_projective",
    "counting.count_affine_bruteforce",
    "counting.identity_scan",
    "counting.mean_value_M",
    "arith.rn_exact_table",
    "arith.primes_upto",
    "arith.mobius_sieve",
    "asymptotics.euler_product_G",
    "asymptotics.constant_C4",
    "asymptotics.constant_Cn",
    "asymptotics.poly_P",
    "asymptotics.zbar",
    "hessian.rank_profile",
    "verify.suite_identities",
    "verify.suite_oracles",
    "verify.suite_constants",
    "verify.suite_bracketing",
    "verify.suite_hessian",
)

CALL_METRICS = (
    "counting.count_affine_exact",
    "counting.mean_value_M",
    "arith.rn_exact_table",
    "arith.factorize",
    "arith.rn_star_prime_powers",
    "asymptotics.euler_product_G",
    "asymptotics.zbar",
    "hessian.rank_over_rationals",
    "cli.main",
)

PER_LAYER_UNITS = {
    **{f"{m}.self_s": "s" for m in MODULES},
    **{f"{name}.s": "s" for name in SPAN_METRICS},
    **{f"{name}.calls": "count" for name in CALL_METRICS},
    "counting.count_affine_exact.p50_s": "s",
    "counting.count_affine_exact.p95_s": "s",
    **{name: "count" for name in SEMANTIC},
    "counting.workers_started": "count",
    "counting.worker_rss_mb": "MB",
    "asymptotics.c4_digits": "digits",
    "trace_overhead_frac": "ratio",
    "unattributed_s": "s",
}


@functools.cache
def _prime_count(limit: int) -> int:
    """pi(limit) by the benchmark's own sieve (never the package's)."""
    if limit < 2:
        return 0
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return sum(sieve)


def _primes_multiplied(args: dict) -> int:
    return _prime_count(args["prime_limit"])


# Computed work counters: function -> (counter, amount from bound arguments).
# constant_Cn runs its own expanded product loop besides the
# euler_product_G call it makes, which is counted on its own.
WORK = {
    "counting.s_sum": ("counting.values", lambda a: a["x"]),
    "counting.t_sum": ("counting.values", lambda a: a["B"]),
    "counting.count_affine_exact": ("counting.values", lambda a: a["B"]),
    "arith.rn_exact_table": ("arith.conv_entries", lambda a: (a["limit"] + 1) * (a["n"] // 4 + 1)),
    "asymptotics.euler_product_G": ("asymptotics.primes_multiplied", _primes_multiplied),
    "asymptotics.constant_C4": ("asymptotics.primes_multiplied", _primes_multiplied),
    "asymptotics.constant_Cn": ("asymptotics.primes_multiplied", _primes_multiplied),
}


class Tracer:
    """Installs wrappers on the package, records spans and counters, and
    turns them into per-layer metrics."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, t0, t1
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {name: 0 for name in SEMANTIC}
        self.counters["counting.workers_started"] = 0
        self._stack = [0]
        self._ids = itertools.count(1)
        self._undo: list = []  # callables that restore what install() replaced

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        calls = self.calls
        calls[name] = 0
        if name in COUNT_ONLY or inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        signature = inspect.signature(fn)
        counters = self.counters
        work = WORK.get(name)
        is_suite = name.startswith("verify.suite_")
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[name] += 1
            if work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counters[work[0]] += work[1](bound.arguments)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if is_suite:
                counters["verify.checks"] += len(result)
            return result

        return spanned

    def install(self, package) -> None:
        """Wrap every public function of the six modules, everywhere the
        package holds a reference to it, and count process starts."""
        modules = [getattr(package, m) for m in MODULES]
        wrappers: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == mod.__name__
                ):
                    wrappers[id(value)] = self._wrap(f"{short}.{attr}", value)
        for holder in [package, *modules]:
            for attr, value in list(vars(holder).items()):
                if id(value) in wrappers:
                    self._patch(holder, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._patch(value, key, wrappers[id(item)])

        original_start = multiprocessing.process.BaseProcess.start
        counters = self.counters

        def start(process):
            counters["counting.workers_started"] += 1
            return original_start(process)

        self._patch(multiprocessing.process.BaseProcess, "start", start)

    def _patch(self, holder, key, new) -> None:
        if isinstance(holder, dict):
            old = holder[key]
            holder[key] = new
            self._undo.append(lambda: holder.__setitem__(key, old))
        else:
            old = getattr(holder, key)
            setattr(holder, key, new)
            self._undo.append(lambda: setattr(holder, key, old))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": t0, "end": t1}) + "\n")

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced repetition of wall time wall_s."""
        by_id = {s[0]: s for s in self.spans}
        covered: dict[int, float] = {}
        for sid, parent, _, t0, t1 in self.spans:
            covered[parent] = covered.get(parent, 0.0) + (t1 - t0)

        out: dict[str, float] = {f"{m}.self_s": 0.0 for m in MODULES}
        inclusive: dict[str, float] = {}
        for sid, parent, name, t0, t1 in self.spans:
            dur = t1 - t0
            out[name.split(".", 1)[0] + ".self_s"] += dur - covered.get(sid, 0.0)
            ancestor = parent
            while ancestor and by_id[ancestor][2] != name:
                ancestor = by_id[ancestor][1]
            if not ancestor:  # outermost call of this function
                inclusive[name] = inclusive.get(name, 0.0) + dur
        for name in SPAN_METRICS:
            out[f"{name}.s"] = inclusive.get(name, 0.0)
        for name in CALL_METRICS:
            out[f"{name}.calls"] = self.calls.get(name, 0)
        samples = sorted(t1 - t0 for _, _, name, t0, t1 in self.spans
                         if name == "counting.count_affine_exact")
        out["counting.count_affine_exact.p50_s"] = _nearest_rank(samples, 0.50)
        out["counting.count_affine_exact.p95_s"] = _nearest_rank(samples, 0.95)
        out.update(self.counters)
        out["unattributed_s"] = wall_s - covered.get(0, 0.0)
        return out

    def semantic(self) -> dict[str, int]:
        return {name: self.counters[name] for name in SEMANTIC}


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]
