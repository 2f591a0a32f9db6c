"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  The trend criterion records its scaled-error baseline in
tests/data/trend_baseline.json on the first full run and enforces a 10%
no-regression band afterwards.
"""

import json
import math
import os
from fractions import Fraction

import pytest
from mpmath import mp, mpf, workdps

from manincount import arith, asymptotics, counting, verify
from manincount.cli import scan_rows

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
BASELINE_PATH = os.path.join(DATA_DIR, "trend_baseline.json")

TREND_B = [1000, 10_000, 100_000, 300_000]
TREND_QUANTITIES = ("S", "T", "Nstar")
PLIM = 100_000
DIGITS = 30


def report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}", flush=True)
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def trend_csvs():
    """Worker-1 scan reports for the trend quantities (shared with #10)."""
    return {q: scan_rows(q, TREND_B, 4, workers=1) for q in TREND_QUANTITIES}


def parse_scan(csv_text):
    rows = {}
    lines = csv_text.strip().splitlines()
    assert lines[0] == "B,n,exact,predicted,ratio,log_B,scaled_error"
    for line in lines[1:]:
        parts = line.split(",")
        rows[int(parts[0])] = {
            "exact": int(parts[2]),
            "predicted": float(parts[3]),
            "ratio": float(parts[4]),
            "scaled_error": float(parts[6]),
        }
    return rows


def test_criterion_01_exact_decomposition():
    bmax = 10_000
    S, T, A = counting.identity_scan(bmax)
    bad = [B for B in range(1, bmax + 1) if A[B] != 16 * (S[B] - T[B])]
    spot = True
    for B in (1, 2, 3, 17, 100, 999, 5000, bmax):
        spot &= S[B] == counting.s_sum(B, B * B, 1)
        spot &= T[B] == counting.t_sum(B, 1)
        spot &= A[B] == counting.count_affine_exact(B, 4)
    report(1, not bad and spot,
           f"N*_4(B) = 16(S(B,B^2) - T(B)) exactly for all B <= {bmax} "
           f"(scan cross-checked against the API at 8 sampled B)")


def test_criterion_02_oracle_equivalence():
    ok = True
    detail = []
    for n in (4, 8):
        counting.count_affine_bruteforce(200, n)  # build the biggest table first
        mism = [B for B in range(1, 201)
                if counting.count_affine_exact(B, n) != counting.count_affine_bruteforce(B, n)]
        ok &= not mism
        detail.append(f"affine n={n}: B<=200")
    mism = [B for B in range(1, 513)
            if counting.count_projective(B, 4) != counting.count_projective_bruteforce(B, 4)]
    ok &= not mism
    detail.append("projective n=4: B<=512")
    report(2, ok, "; ".join(detail))


def test_criterion_03_r_function_oracles():
    table4 = arith.rn_exact_table(4, 10_000)
    ok = all(arith.r4(d) == table4[d] for d in range(1, 10_001))
    for n in (8, 12):
        table = arith.rn_exact_table(n, 200)
        ok &= all(table[d] == verify.rn_lattice_oracle(n, d) for d in range(201))
    ok &= arith.rn_star(arith.factorize(2), 2) == 7
    ok &= arith.rn_exact_table(8, 2)[2] // 16 == 7
    report(3, ok, "r4 vs lattice table d<=1e4; r8/r12 tables vs square-partition "
                  "oracle d<=200; r8(2)/16 = rn_star(2,k=2) = 7")


def test_criterion_04_constant_cross_route():
    with workdps(DIGITS + 10):
        c4 = asymptotics.constant_C4(10**6, DIGITS)
        g = asymptotics.euler_product_G(1, 1, 1, 10**6, DIGITS)
        residual = abs(c4.value - mpf(3) / 16 * g.value)
        combined = abs(c4.value) * c4.tail_bound + mpf(3) / 16 * abs(g.value) * g.tail_bound
        rel = residual / abs(c4.value)
    report(4, residual <= combined and rel < mpf(10) ** -12,
           f"|C_4 - (3/16) G(1,1)| = {mp.nstr(residual, 4)} <= combined tails "
           f"{mp.nstr(combined, 4)}, relative {mp.nstr(rel, 4)} < 1e-12 (prime limit 1e6)")


def test_criterion_05_leading_coefficient():
    ok = True
    rels = []
    for k in (1, 2, 3):
        p = asymptotics.cached_poly(k, DIGITS, PLIM)
        c = asymptotics.constant_Cn(k, PLIM, DIGITS)
        with workdps(DIGITS + 10):
            rel = abs(p.a2 - c.value) / abs(c.value)
        ok &= rel < mpf(10) ** -25
        rels.append(mp.nstr(rel, 3))
    report(5, ok, f"P(t) leading coefficient equals the constant for k=1,2,3 "
                  f"(relative gaps {rels}, tolerance 1e-25)")


def test_criterion_06_prefactor_and_dual_line():
    bundle = asymptotics.cached_bundle(4, DIGITS, PLIM)
    ok = bundle.prefactor == Fraction(16, 3)
    dual_ok = True
    try:
        for k in (1, 2, 3):
            asymptotics.constant_Cn(k, PLIM, DIGITS, consistency_tol=1e-9)
    except asymptotics.InternalConsistencyError:
        dual_ok = False
    report(6, ok and dual_ok,
           "affine/script prefactor is exactly 16/3 at n=4; compact and expanded "
           "constant forms agree to 1e-9 for k=1,2,3")


def test_criterion_07_bracketing():
    results = verify.suite_bracketing(budget="full", seed=7)
    ok = all(r.ok for r in results)
    report(7, ok, "200 seeded rational boxes (X<=50, Y<=200): "
                  "D(M) lower <= HJ S <= D(M) upper in exact arithmetic")


def test_criterion_08_asymptotic_trend(trend_csvs):
    rows = {q: parse_scan(trend_csvs[q]) for q in TREND_QUANTITIES}
    finite = all(
        math.isfinite(rows[q][B]["scaled_error"]) and math.isfinite(rows[q][B]["ratio"])
        for q in TREND_QUANTITIES for B in TREND_B
    )
    decreasing = all(
        abs(rows[q][10_000]["ratio"] - 1)
        > abs(rows[q][100_000]["ratio"] - 1)
        > abs(rows[q][300_000]["ratio"] - 1)
        for q in TREND_QUANTITIES
    )
    # internal consistency tying the three scans together
    joined = all(
        rows["Nstar"][B]["exact"] == 16 * (rows["S"][B]["exact"] - rows["T"][B]["exact"])
        for B in TREND_B
    )

    current = {q: {str(B): rows[q][B]["scaled_error"] for B in TREND_B}
               for q in TREND_QUANTITIES}
    if not os.path.exists(BASELINE_PATH):
        os.makedirs(DATA_DIR, exist_ok=True)
        with open(BASELINE_PATH, "w") as fh:
            json.dump(current, fh, indent=2, sort_keys=True)
        bounded = True
        base_note = "baseline recorded on this first full run"
    else:
        with open(BASELINE_PATH) as fh:
            baseline = json.load(fh)
        bounded = all(
            current[q][str(B)] <= 1.1 * baseline[q][str(B)]
            for q in TREND_QUANTITIES for B in TREND_B
        )
        base_note = "within 10% of the recorded baseline"
    report(8, finite and bounded and decreasing and joined,
           f"scaled errors finite and {base_note}; |ratio-1| strictly decreasing "
           f"from B=1e4 to 3e5 for S, T, N*")


def test_criterion_09_hessian_audit():
    results = verify.suite_hessian(budget="full")
    ok = all(r.ok for r in results)
    report(9, ok, "z=0 forces rank <= 3 over the B<=3 box (n=4); rank<=3 counts "
                  "reach (2B+1)^5 for B=1,2,3")


def test_criterion_10_determinism(trend_csvs):
    scans_ok = True
    for q in TREND_QUANTITIES:
        for w in (4, 8):
            if scan_rows(q, TREND_B, 4, workers=w) != trend_csvs[q]:
                scans_ok = False

    def identity_report(workers):
        res = verify.suite_identities(budget="full", workers=workers)
        return "\n".join(f"{r.ok} {r.name} {r.detail}" for r in res)

    ref = identity_report(1)
    ident_ok = all(identity_report(w) == ref for w in (4, 8))
    report(10, scans_ok and ident_ok,
           "trend scans and the full identity report are byte-identical at "
           "worker counts 1, 4, 8")
