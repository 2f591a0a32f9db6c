"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  The trend criterion enforces a 10% no-regression band against
the scaled-error baseline in tests/data/trend_baseline.json; a missing
baseline fails it, so the gate cannot re-baseline itself.
"""

import json
import math
import os
import sys
from fractions import Fraction

import pytest
from mpmath import mp, mpf, workdps

from manincount import asymptotics, verify
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


@pytest.fixture(scope="module")
def identity_results():
    """The full identities suite at workers=1 (shared with #10)."""
    return verify.run_suite("identities", "full", workers=1)


@pytest.fixture(scope="module")
def oracle_results():
    """One full oracles suite run, shared by #02 and #03."""
    return verify.run_suite("oracles", "full")


def named_checks(results, names):
    """(all named checks ran and passed, their details joined)."""
    by_name = {r.name: r for r in results}
    ok = all(name in by_name and by_name[name].ok for name in names)
    detail = "; ".join(f"{name}: {by_name[name].detail if name in by_name else 'not run'}"
                       for name in names)
    return ok, detail


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


def test_criterion_01_exact_decomposition(identity_results):
    samples = (1, 2, 3, 17, 100, 999, 5000, 10_000)
    ok, _ = named_checks(identity_results,
                         ["affine-identity"] + [f"scan-vs-api-B{B}" for B in samples])
    last = identity_results[-1]
    report(1, ok and all(r.ok for r in identity_results),
           f"N*_4(B) = 16(S(B,B^2) - T(B)) exactly for all B <= 10000, scan "
           f"cross-checked against the API at sampled B including {samples} "
           f"(last check {last.name}: {last.detail})")


def test_criterion_02_oracle_equivalence(oracle_results):
    ok, detail = named_checks(oracle_results, ["affine-oracle-n4", "affine-oracle-n8",
                                               "projective-oracle-n4"])
    report(2, ok, detail)


def test_criterion_03_r_function_oracles(oracle_results):
    ok, detail = named_checks(oracle_results, ["r4-oracle", "rn-table-oracle-n8",
                                               "rn-table-oracle-n12", "r8-prime-power"])
    report(3, ok, "r4 vs lattice table; r8/r12 tables vs square-partition oracle; "
                  f"r8(2)/16 = rn_star(2,k=2) = 7: {detail}")


def test_criterion_04_constant_cross_route():
    with workdps(DIGITS + 10):
        closed = asymptotics.closed_form_C4(DIGITS)
        g = asymptotics.euler_product_G(1, 1, 1, 10**6, DIGITS)
        c = mpf(3) / 16 * g.value
        excess = c - closed
        bound = c * g.tail_bound
        rel = excess / closed
    report(4, 0 < excess <= bound and rel < mpf(10) ** -12,
           f"0 < (3/16) G(1,1) - 27 zeta(4)/(392 zeta(3)^2) = {mp.nstr(excess, 4)} <= "
           f"tail {mp.nstr(bound, 4)}, relative {mp.nstr(rel, 4)} < 1e-12 (prime limit 1e6)")


def test_criterion_05_leading_coefficient():
    ok = True
    rels = []
    for k in (1, 2, 3):
        b = asymptotics.constants_bundle(4 * k, prime_limit=PLIM, digits=DIGITS)
        with workdps(DIGITS + 10):
            rel = abs(b.poly.a2 - b.C_script) / abs(b.C_script)
        ok &= rel < mpf(10) ** -25
        rels.append(mp.nstr(rel, 3))
    report(5, ok, f"P(t) leading coefficient equals the constant for k=1,2,3 "
                  f"(relative gaps {rels}, tolerance 1e-25)")


def test_criterion_06_prefactor_and_dual_line():
    bundle = asymptotics.constants_bundle(4, prime_limit=PLIM, digits=DIGITS)
    ok = bundle.prefactor == Fraction(16, 3)
    dual_ok = True
    try:
        for k in (1, 2, 3):
            asymptotics.constants_bundle(4 * k, prime_limit=PLIM, digits=DIGITS)
    except asymptotics.InternalConsistencyError:
        dual_ok = False
    report(6, ok and dual_ok,
           "affine/script prefactor is exactly 16/3 at n=4; compact and expanded "
           "constant forms agree to 1e-30 for k=1,2,3")


def test_criterion_07_bracketing():
    results = verify.run_suite("bracketing", seed=7)
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
        report(8, False, f"trend baseline {BASELINE_PATH} is missing; restore it from "
                         "version control rather than recording a new one")
    with open(BASELINE_PATH) as fh:
        baseline = json.load(fh)
    bounded = all(
        current[q][str(B)] <= 1.1 * baseline[q][str(B)]
        for q in TREND_QUANTITIES for B in TREND_B
    )
    report(8, finite and bounded and decreasing and joined,
           "scaled errors finite and within 10% of the recorded baseline; |ratio-1| "
           "strictly decreasing from B=1e4 to 3e5 for S, T, N*")


def test_criterion_08_missing_baseline_fails(trend_csvs, monkeypatch, tmp_path, capsys):
    missing = tmp_path / "trend_baseline.json"
    monkeypatch.setattr(sys.modules[__name__], "BASELINE_PATH", str(missing))
    with pytest.raises(AssertionError, match="criterion 8 failed"):
        test_criterion_08_asymptotic_trend(trend_csvs)
    assert "ACCEPTANCE 08 FAIL: trend baseline" in capsys.readouterr().out
    assert not missing.exists()


def test_criterion_09_hessian_audit():
    results = verify.run_suite("hessian", "full")
    ok = all(r.ok for r in results)
    report(9, ok, "z=0 forces rank <= 3 over the B<=3 box (n=4); the closed-form "
                  "rank profile equals the Bareiss enumeration and its rank<=3 counts "
                  "reach (2B+1)^5 for B=1,2,3")


def test_criterion_10_determinism(trend_csvs, identity_results):
    scans_ok = True
    for q in TREND_QUANTITIES:
        for w in (4, 8):
            if scan_rows(q, TREND_B, 4, workers=w) != trend_csvs[q]:
                scans_ok = False

    def identity_report(results):
        return "\n".join(f"{r.ok} {r.name} {r.detail}" for r in results)

    ref = identity_report(identity_results)
    ident_ok = all(identity_report(verify.run_suite("identities", "full", workers=w)) == ref
                   for w in (4, 8))
    report(10, scans_ok and ident_ok,
           "trend scans and the full identity report are byte-identical at "
           "worker counts 1, 4, 8")
