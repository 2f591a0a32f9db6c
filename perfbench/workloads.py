"""The four benchmark workloads: seeded inputs, the timed calls, and the
output checks that run after the timed region.

Every check reaches its reference value by a route that shares no fast
path with the value it checks.  Workload bodies look package functions
up at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

# name -> (nominal value, relative half-width of the seeded range).  The
# widths keep one repetition's work within about +-3% across seeds; the
# lattice sizes enter the O(L^2) convolutions as B^4, so they vary least.
RANGES = {
    "counts-n4": {"B": (30_000, 0.02), "Bp": (8 * 10**9, 0.05)},
    "lattice": {"B8": (190, 0.01), "B12": (64, 0.015)},
    "constants": {"P": (20_000, 0.02)},
    "verify-quick": {},
}

CONSTANTS_FIELDS = ("n", "C_script", "C_star", "C_proj", "prime_limit", "tail_bound",
                    "digits", "a0", "a1", "a2", "notes")

Check = tuple[str, bool, str]


@dataclass(frozen=True)
class Workload:
    run: Callable[[object, dict], dict[str, str]]
    check: Callable[[object, dict, dict[str, str]], tuple[list[Check], dict[str, float]]]


def make_inputs(name: str, seed: int) -> dict:
    """The workload's inputs, drawn from its ranges by ``seed`` alone."""
    rng = random.Random(f"{name}/{seed}")
    inputs = {key: round(nominal * rng.uniform(1 - rel, 1 + rel))
              for key, (nominal, rel) in RANGES[name].items()}
    if name == "lattice":
        inputs["oracle_d"] = sorted(rng.sample(range(201), 12))
    if name == "verify-quick":
        inputs["seed"] = seed
    return inputs


def _cli(mc, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mc.cli.main(argv)
    return code, buf.getvalue()


def _icbrt(n: int) -> int:
    r = round(n ** (1 / 3))
    while r**3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


def _mobius(limit: int) -> list[int]:
    """mu(0..limit) by a linear sieve (the benchmark's own, not the package's)."""
    mu = [1] * (limit + 1)
    mu[0] = 0
    composite = bytearray(limit + 1)
    primes: list[int] = []
    for i in range(2, limit + 1):
        if not composite[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > limit:
                break
            composite[i * p] = 1
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


# ---------------------------------------------------------------------------
# counts-n4


def run_counts(mc, x: dict) -> dict[str, str]:
    B = x["B"]
    S = mc.s_sum(B, B * B, workers=1)
    T = mc.t_sum(B, workers=1)
    A = mc.count_affine_exact(B, 4, workers=1)
    N = mc.count_projective(x["Bp"], 4, workers=2)
    return {"S": str(S), "T": str(T), "Nstar4": str(A), "N4": str(N)}


def check_counts(mc, x: dict, out: dict[str, str]):
    S, T, A, N = (int(out[k]) for k in ("S", "T", "Nstar4", "N4"))
    checks = [("N*_4(B) = 16(S(B,B^2) - T(B))", A == 16 * (S - T), f"B={x['B']}")]
    R = _icbrt(x["Bp"])
    _, _, A_all = mc.identity_scan(R)
    mu = _mobius(R)
    ref = sum(mu[d] * A_all[R // d] for d in range(1, R + 1) if mu[d])
    checks.append(("N_4(Bp) = sum mu(d) A[R//d] over one identity_scan(R)", N == ref,
                   f"Bp={x['Bp']} R={R} count={N} scan={ref}"))
    return checks, {}


# ---------------------------------------------------------------------------
# lattice


def run_lattice(mc, x: dict) -> dict[str, str]:
    out = {}
    for n, B in ((8, x["B8"]), (12, x["B12"])):
        out[f"Nstar{n}"] = str(mc.count_affine_exact(B, n))
        out[f"Nstar{n}_brute"] = str(mc.count_affine_bruteforce(B, n))
    return out


def check_lattice(mc, x: dict, out: dict[str, str]):
    checks = []
    for n, B in ((8, x["B8"]), (12, x["B12"])):
        a, b = int(out[f"Nstar{n}"]), int(out[f"Nstar{n}_brute"])
        checks.append((f"N*_{n} equals its brute-force twin", a == b, f"B={B}"))
    B = x["B8"]
    # Jacobi: r_8 = 16 r_8*, so the rn_star divisor sums give N*_8 without
    # the lattice table that both N*_8 counters share
    jacobi = 32 * (mc.s_sum(B, B * B, 2, workers=1) - mc.t_sum(B, 2, workers=1))
    checks.append(("N*_8(B) = 32(S_2(B,B^2) - T_2(B))", int(out["Nstar8"]) == jacobi, f"B={B}"))
    table = mc.rn_exact_table(12, 200)
    bad = [d for d in x["oracle_d"] if table[d] != mc.verify.rn_lattice_oracle(12, d)]
    checks.append(("rn_exact_table(12) = rn_lattice_oracle on sampled d <= 200", not bad,
                   f"d={x['oracle_d']} mismatches={bad}"))
    return checks, {}


# ---------------------------------------------------------------------------
# constants


def run_constants(mc, x: dict) -> dict[str, str]:
    out = {}
    for n in (4, 8):
        code, text = _cli(mc, ["constants", "--n", str(n), "--prime-limit", str(x["P"]),
                               "--digits", "30"])
        out[f"n{n}"] = text
        out[f"n{n}_exit"] = str(code)
    return out


def check_constants(mc, x: dict, out: dict[str, str]):
    from mpmath import mp, mpf, workdps

    checks = []
    docs = {}
    for n in (4, 8):
        ok = out[f"n{n}_exit"] == "0"
        try:
            docs[n] = json.loads(out[f"n{n}"])
        except json.JSONDecodeError as exc:
            checks.append((f"constants --n {n} prints a JSON document", False, str(exc)))
            continue
        missing = [f for f in CONSTANTS_FIELDS if f not in docs[n]]
        ok = ok and not missing and docs[n]["n"] == n and docs[n]["prime_limit"] == x["P"]
        checks.append((f"constants --n {n} exits 0 with every documented field", ok,
                       f"exit={out[f'n{n}_exit']} missing={missing}"))
    if 4 not in docs:
        return checks, {}
    with workdps(60):
        closed = 27 * mp.zeta(4) / (392 * mp.zeta(3) ** 2)
        rel = abs(mpf(docs[4]["C_script"]) - closed) / closed
        tail = mpf(docs[4]["tail_bound"])
        digits = float(-mp.log10(max(rel, mpf(10) ** -60)))
    checks.append(("C_script(4) within its printed tail_bound of 27 zeta(4)/(392 zeta(3)^2)",
                   rel <= tail, f"rel_err={mp.nstr(rel, 4)} tail_bound={mp.nstr(tail, 4)}"))
    return checks, {"c4_digits": digits}


# ---------------------------------------------------------------------------
# verify-quick


def run_verify(mc, x: dict) -> dict[str, str]:
    code, text = _cli(mc, ["verify", "--suite", "all", "--budget", "quick", "--workers", "1",
                           "--seed", str(x["seed"])])
    return {"stdout": text, "exit": str(code)}


def check_verify(mc, x: dict, out: dict[str, str]):
    checks = []
    for line in out["stdout"].splitlines():
        status, _, rest = line.partition(" ")
        if status in ("ok", "FAIL"):
            name, _, detail = rest.partition(": ")
            checks.append((f"verify {name}", status == "ok", detail))
    checks.append(("verify exits 0 after reporting checks", out["exit"] == "0" and bool(checks),
                   f"exit={out['exit']}"))
    return checks, {}


WORKLOADS = {
    "counts-n4": Workload(run_counts, check_counts),
    "lattice": Workload(run_lattice, check_lattice),
    "constants": Workload(run_constants, check_constants),
    "verify-quick": Workload(run_verify, check_verify),
}
