"""Verification suites: every library-level invariant as a runnable check.

Each suite is a generator that yields one CheckResult per check, in a
fixed order, with the failing case in the detail field of a failed check.
Every suite takes (budget, seed, workers) and reads only what it needs.
``run_suite`` is the one consumer: it collects the checks of one suite
(or of all of them) and stops at the first failed check.  The command
line front end serializes its results, and the tests read suites through
it too, so the CLI and pytest agree on what "verified" means.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, floor, isqrt
from typing import Iterator

from mpmath import mp, mpf, workdps

from . import arith, asymptotics, counting, hessian

__all__ = [
    "BUDGETS",
    "CheckResult",
    "SUITES",
    "rn_lattice_oracle",
    "run_suite",
    "suite_bracketing",
    "suite_constants",
    "suite_hessian",
    "suite_identities",
    "suite_oracles",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# independent lattice oracle: partitions of d into at most n squares


def rn_lattice_oracle(n: int, d: int) -> int:
    """#{y in Z^n : sum y_i^2 = d} by enumerating square partitions.

    Walks multisets of positive squares summing to d with at most n parts
    and counts ordered signed placements with multinomials.  Shares no code
    with the convolution tables or the divisor-sum formulas.
    """
    if d == 0:
        return 1
    squares = [i * i for i in range(1, isqrt(d) + 1)]
    total = 0

    def rec(remaining: int, idx: int, used: int, perm_div: int) -> None:
        nonlocal total
        if remaining == 0:
            t = used
            total += factorial(n) // (perm_div * factorial(n - t)) * (1 << t)
            return
        if idx < 0 or used == n:
            return
        s = squares[idx]
        rec(remaining, idx - 1, used, perm_div)
        mult = 0
        while remaining >= s and used < n:
            remaining -= s
            used += 1
            mult += 1
            rec(remaining, idx - 1, used, perm_div * factorial(mult))

    rec(d, len(squares) - 1, 0, 1)
    return total


# ---------------------------------------------------------------------------
# finite-difference oracle for P(t)


def _poly_fd_oracle(k: int, digits: int, prime_limit: int) -> tuple[mpf, mpf, mpf, mpf]:
    """(a0, a1, a2, error_estimate) of P(t) by finite differences.

    g_k(s) = (27/2) zb(s) zb((2s+1)/3) zb((s+2)/3) G(s, (6k-2-s)/3)
    / ((6k-2-s)(6k+1-s) s (s+1)) is evaluated at s = 1 + m h/4,
    m in {-4, -2, -1, 0, 1, 2, 4}, h = 1e-3, through the public
    euler_product_G and zbar; derivatives come from central differences at
    steps h, h/2, h/4 plus one Richardson level, and error_estimate is the
    gap between the two Richardson values.  The table must contract
    monotonically or NumericalError is raised.  constants_bundle takes the
    derivatives analytically instead, from its line pass's jet of the odd
    Euler factor and each zb's Stieltjes series; zbar evaluates
    (s - 1) zeta(s) itself, so this route shares neither that line pass
    nor the zb expansion.
    """
    with workdps(digits + asymptotics._GUARD_DIGITS):
        h = mpf(1e-3)

        def g_of_s(s: mpf) -> mpf:
            g = asymptotics.euler_product_G(s, (6 * k - 2 - s) / 3, k, prime_limit, digits).value
            num = (mpf(27) / 2 * asymptotics.zbar(s) * asymptotics.zbar((2 * s + 1) / 3)
                   * asymptotics.zbar((s + 2) / 3) * g)
            return num / ((6 * k - 2 - s) * (6 * k + 1 - s) * s * (s + 1))

        # offsets in units of h/4
        g_at = {m: g_of_s(1 + m * h / 4) for m in (-4, -2, -1, 0, 1, 2, 4)}

        def d1(m: int) -> mpf:
            return (g_at[m] - g_at[-m]) / (2 * h * m / 4)

        def d2(m: int) -> mpf:
            return (g_at[m] - 2 * g_at[0] + g_at[-m]) / (h * m / 4) ** 2

        d1_seq = [d1(4), d1(2), d1(1)]
        d2_seq = [d2(4), d2(2), d2(1)]
        gaps1 = [abs(d1_seq[0] - d1_seq[1]), abs(d1_seq[1] - d1_seq[2])]
        gaps2 = [abs(d2_seq[0] - d2_seq[1]), abs(d2_seq[1] - d2_seq[2])]
        if gaps1[1] > gaps1[0] or gaps2[1] > gaps2[0]:
            raise asymptotics.NumericalError(
                f"finite-difference table for g_{k} does not contract: "
                f"d1 gaps {[mp.nstr(x, 4) for x in gaps1]}, d2 gaps {[mp.nstr(x, 4) for x in gaps2]}"
            )
        rich1 = [(4 * d1_seq[i + 1] - d1_seq[i]) / 3 for i in range(2)]
        rich2 = [(4 * d2_seq[i + 1] - d2_seq[i]) / 3 for i in range(2)]
        err = max(abs(rich1[1] - rich1[0]), abs(rich2[1] - rich2[0]))
        return +(rich2[1] / 2), +rich1[1], +(g_at[0] / 2), +err


# ---------------------------------------------------------------------------
# suites


def suite_identities(budget: str, seed: int, workers: int) -> Iterator[CheckResult]:
    """The affine decomposition N*_4(B) = 16 (S(B, B^2) - T(B)) for every B
    of the scan, and at full budget once more over two sieve blocks."""
    bmax = 500 if budget == "quick" else 10_000
    S, T, A = counting.identity_scan(bmax)
    for B in range(1, bmax + 1):
        if A[B] != 16 * (S[B] - T[B]):
            yield CheckResult("affine-identity", False,
                              f"B={B}: A={A[B]}, 16(S-T)={16 * (S[B] - T[B])}")
            break
    else:
        yield CheckResult("affine-identity", True, f"all B <= {bmax}")
    # min(999, bmax) adds B = 999 at full and repeats bmax at quick
    samples = sorted({1, 2, 3, 5, 17, 100, 211, min(999, bmax), bmax // 7 + 1, bmax // 2, bmax})
    for B in samples:
        okS = S[B] == counting.s_sum(B, B * B, 1, workers=workers)
        okT = T[B] == counting.t_sum(B, 1, workers=workers)
        okA = A[B] == counting.count_affine_exact(B, 4, workers=workers)
        yield CheckResult(f"scan-vs-api-B{B}", okS and okT and okA,
                          f"S ok={okS} T ok={okT} A ok={okA}")
    if budget == "full":
        # two sieve blocks, so workers >= 2 runs the three sums in a pool
        B = counting._SIEVE_BLOCK + 1
        s = counting.s_sum(B, B * B, 1, workers=workers)
        t = counting.t_sum(B, 1, workers=workers)
        a = counting.count_affine_exact(B, 4, workers=workers)
        yield CheckResult("affine-identity-two-blocks", a == 16 * (s - t),
                          f"B={B}: A={a}, 16(S-T)={16 * (s - t)}")


def suite_oracles(budget: str, seed: int, workers: int) -> Iterator[CheckResult]:
    """Brute-force counters against the exact ones, and the r-function routes."""
    b_aff = 50 if budget == "quick" else 200
    b_proj = 64 if budget == "quick" else 512
    d_r4 = 2000 if budget == "quick" else 10_000
    d_rn = 60 if budget == "quick" else 200

    for n in (4, 8):
        # at n = 4 the quick range adds B = 150 > sqrt(3^9), where d = 3^9
        # (a divisor of 27^3) brings in the first odd p^j with j >= 9
        extra = (150,) if n == 4 and budget == "quick" else ()
        bs = [*range(1, b_aff + 1), *extra]
        counting.count_affine_bruteforce(bs[-1], n)  # warm the largest table once
        for B in bs:
            a = counting.count_affine_exact(B, n, workers=workers)
            b = counting.count_affine_bruteforce(B, n)
            if a != b:
                yield CheckResult(f"affine-oracle-n{n}", False, f"B={B}: exact={a} brute={b}")
                break
        else:
            yield CheckResult(f"affine-oracle-n{n}", True,
                              f"all B <= {b_aff}" + "".join(f" and B = {B}" for B in extra))

    for B in range(1, b_proj + 1):
        a = counting.count_projective(B, 4, workers=workers)
        b = counting.count_projective_bruteforce(B, 4)
        if a != b:
            yield CheckResult("projective-oracle-n4", False, f"B={B}: exact={a} brute={b}")
            break
    else:
        yield CheckResult("projective-oracle-n4", True, f"all B <= {b_proj}")

    table4 = arith.rn_exact_table(4, d_r4)
    for d in range(1, d_r4 + 1):
        r4 = 8 * arith.rn_star(d)
        if r4 != table4[d]:
            yield CheckResult("r4-oracle", False, f"d={d}: r4={r4} table={table4[d]}")
            break
    else:
        yield CheckResult("r4-oracle", True, f"all d <= {d_r4}")

    for n in (8, 12):
        table = arith.rn_exact_table(n, d_rn)
        for d in range(0, d_rn + 1):
            ref = rn_lattice_oracle(n, d)
            if table[d] != ref:
                yield CheckResult(f"rn-table-oracle-n{n}", False,
                                  f"d={d}: table={table[d]} lattice={ref}")
                break
        else:
            yield CheckResult(f"rn-table-oracle-n{n}", True, f"all d <= {d_rn}")

    r8_2 = arith.rn_star(2, 2)
    yield CheckResult("r8-prime-power", r8_2 == 7 and arith.rn_exact_table(8, 2)[2] == 16 * 7,
                      f"rn_star(2, k=2)={r8_2}")


def suite_constants(budget: str, seed: int, workers: int) -> Iterator[CheckResult]:
    """Cross-route, dual-line, leading-coefficient, P(t)-derivative and
    Eisenstein-prefactor identities."""
    plim = 10_000 if budget == "quick" else 100_000
    fd_ks = (1,) if budget == "quick" else (1, 2, 3)
    plim_cross = 100_000 if budget == "quick" else 1_000_000
    digits = 30
    with workdps(digits + asymptotics._GUARD_DIGITS):
        closed = asymptotics.closed_form_C4(digits)
        g11 = asymptotics.euler_product_G(1, 1, 1, plim_cross, digits)
        c4 = mpf(3) / 16 * g11.value
        excess = c4 - closed
        bound = c4 * g11.tail_bound
        yield CheckResult("cross-route-C4", 0 < excess <= bound,
                          f"(3/16)G(1,1) - closed form={mp.nstr(excess, 6)} "
                          f"tail bound={mp.nstr(bound, 6)}")

        for k in (1, 2, 3, 4):
            try:
                bundle = asymptotics.constants_bundle(4 * k, prime_limit=plim, digits=digits)
            except asymptotics.InternalConsistencyError as exc:
                yield CheckResult(f"dual-line-k{k}", False, str(exc))
                continue
            c, p = bundle.C_script, bundle.poly
            rel = abs(p.a2 - c) / abs(c)
            yield CheckResult(f"leading-coeff-k{k}", rel < mpf(10) ** -25,
                              f"a2 vs C rel={mp.nstr(rel, 6)}")
            if k in fd_ks:
                try:
                    a0, a1, a2, err = _poly_fd_oracle(k, digits, plim)
                except asymptotics.NumericalError as exc:
                    yield CheckResult(f"poly-derivatives-k{k}", False, str(exc))
                else:
                    gap1, gap0 = abs(p.a1 - a1), abs(p.a0 - a0)
                    rel2 = abs(p.a2 - a2) / abs(a2)
                    yield CheckResult(f"poly-derivatives-k{k}",
                                      gap1 <= err and gap0 <= err and rel2 < mpf(10) ** -25,
                                      f"|a1-fd|={mp.nstr(gap1, 3)} |a0-fd|={mp.nstr(gap0, 3)} "
                                      f"fd_error={mp.nstr(err, 3)} a2 rel={mp.nstr(rel2, 3)}")
            yield CheckResult(f"dual-line-k{k}", True, f"C_script={mp.nstr(c, 12)}")

            # C*/C = 2 E_n n(n-2)/(3(3n-4)), E_n = r_n(p)/r_n*(p) at the prime
            # p = 199 read from the lattice table, not from the Bernoulli
            # prefactor; from n = 12 on a cusp form moves the ratio by at
            # most 32 p^(1/2 - n/4) (Deligne's bound)
            n, p = 4 * k, 199
            e_n = Fraction(arith.rn_exact_table(n, p)[p], arith.rn_star(p, k))
            want = 2 * e_n * Fraction(n * (n - 2), 3 * (3 * n - 4))
            rel = abs(bundle.C_star / bundle.C_script / (mpf(want.numerator) / want.denominator) - 1)
            tol = mpf(10) ** -25 if n <= 8 else 32 * mpf(p) ** (mpf(1) / 2 - mpf(n) / 4)
            yield CheckResult(f"eisenstein-n{n}", rel <= tol,
                              f"C*/C vs 2 E_n n(n-2)/(3(3n-4)) rel={mp.nstr(rel, 3)} "
                              f"tol={mp.nstr(tol, 3)}")

        bundle = asymptotics.constants_bundle(4, prime_limit=plim, digits=digits)
        yield CheckResult("prefactor-16/3", bundle.prefactor == Fraction(16, 3),
                          f"got {bundle.prefactor}")

        for (s, w, k) in ((1, 1, 1), (1, 3, 2)):
            lo = asymptotics.euler_product_G(s, w, k, plim // 10, digits)
            hi = asymptotics.euler_product_G(s, w, k, plim // 5, digits)
            drift = abs(lo.value - hi.value) / abs(lo.value)
            yield CheckResult(f"tail-honesty-{s}-{w}-{k}", drift <= lo.tail_bound,
                              f"drift={mp.nstr(drift, 6)} tail={mp.nstr(lo.tail_bound, 6)}")


def suite_bracketing(budget: str, seed: int, workers: int) -> Iterator[CheckResult]:
    """Second-difference bracketing of S by the mean value M, exact rationals."""
    trials = 200
    rng = random.Random(seed)
    for i in range(trials):
        qx, qy = rng.randint(1, 16), rng.randint(1, 16)
        X = Fraction(rng.randint(qx, 50 * qx), qx)
        Y = Fraction(rng.randint(qy, 200 * qy), qy)
        H = X * Fraction(rng.randint(1, 64), 64)
        J = Y * Fraction(rng.randint(1, 64), 64)
        low = counting.apply_D(counting.mean_value_M, X - H, X, Y - J, Y)
        mid = H * J * counting.s_sum(floor(X), floor(Y))
        high = counting.apply_D(counting.mean_value_M, X, X + H, Y, Y + J)
        if not low <= mid <= high:
            yield CheckResult("bracketing", False,
                              f"case {i}: X={X} Y={Y} H={H} J={J}: {low} <= {mid} <= {high} fails")
            break
    else:
        yield CheckResult("bracketing", True, f"{trials} seeded cases (seed={seed})")


def suite_hessian(budget: str, seed: int, workers: int) -> Iterator[CheckResult]:
    """Closed-form rank counts against a Bareiss enumeration of the whole
    box, and the z = 0 rank collapse."""
    bmax = 2 if budget == "quick" else 3
    n = 4
    for B in range(1, bmax + 1):
        enumerated: dict[int, int] = {}
        worst, bad = 0, None
        for x, *y, z in product(range(-B, B + 1), repeat=n + 2):
            r = hessian.rank_over_rationals(hessian.hessian_at(x, y, z))
            enumerated[r] = enumerated.get(r, 0) + 1
            if z == 0:
                worst = max(worst, r)
                if r > 3 and bad is None:
                    bad = f"x={x} y={tuple(y)}: rank {r} > 3"
        yield CheckResult(f"z0-rank-B{B}", bad is None, bad or f"max rank {worst} over z=0 slice")

        prof = hessian.rank_profile(B, n)
        enumerated = dict(sorted(enumerated.items()))
        yield CheckResult(f"rank-profile-B{B}", prof == enumerated,
                          f"closed form {prof}, enumeration {enumerated}")
        total = sum(prof.values())
        yield CheckResult(f"rank-partition-B{B}", total == (2 * B + 1) ** (n + 2),
                          f"sum {total}")
        cum3 = sum(c for r, c in prof.items() if r <= 3)
        yield CheckResult(f"rank-le3-growth-B{B}", cum3 >= (2 * B + 1) ** (n + 1),
                          f"rank<=3 count {cum3} vs {(2 * B + 1) ** (n + 1)}")


BUDGETS = ("quick", "full")

SUITES = {
    "identities": suite_identities,
    "oracles": suite_oracles,
    "constants": suite_constants,
    "bracketing": suite_bracketing,
    "hessian": suite_hessian,
}


def run_suite(name: str, budget: str = "quick", seed: int = 0,
              workers: int = 1) -> list[CheckResult]:
    """Run one named suite (or 'all', in SUITES order) at budget 'quick' or
    'full'; the results stop at the first failed check."""
    if budget not in BUDGETS:
        raise ValueError(f"unknown budget {budget!r}; expected one of {BUDGETS}")
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    results: list[CheckResult] = []
    for key in SUITES if name == "all" else (name,):
        for res in SUITES[key](budget, seed, workers):
            results.append(res)
            if not res.ok:
                return results
    return results
