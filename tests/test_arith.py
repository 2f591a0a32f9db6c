import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from math import comb, isqrt
from pathlib import Path

import pytest

import manincount
from manincount import verify
from manincount.arith import (
    ResourceBudgetError,
    _convolve_exact,
    _r2_table,
    _table_bytes,
    bernoulli,
    factorize,
    mobius_sieve,
    primes_upto,
    rn_exact_table,
    rn_star,
)


def trial_division(m):
    """Independent factorization oracle: plain trial division up to sqrt(m)."""
    out = []
    d = 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def r4_star_by_definition(d):
    return sum(l for l in range(1, d + 1) if d % l == 0 and l % 4 != 0)


def convolve_naive(a, b, length):
    """Reference for _convolve_exact: the direct double loop."""
    out = [0] * length
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < length:
                out[i + j] += ai * bj
    return out


class TestPrimes:
    def test_matches_trial_division(self):
        for n in range(300):
            assert primes_upto(n) == [m for m in range(2, n + 1)
                                      if trial_division(m) == ((m, 1),)], n

    def test_prime_count_to_one_million(self):
        assert len(primes_upto(10**6)) == 78_498


class TestFactorize:
    def test_examples(self):
        assert factorize(1) == ()
        assert factorize(12) == ((2, 2), (3, 1))
        assert factorize(999999937) == trial_division(999999937)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_random_against_trial_division(self):
        rng = random.Random(42)
        for _ in range(300):
            m = rng.randint(1, 10**7)
            assert factorize(m) == trial_division(m)

    def test_trial_division_boundaries(self):
        # m = p*p sits on the loop bound p*p <= m; 65521 is the largest
        # prime below 2**16
        for p in (2, 3, 65521):
            assert factorize(p * p) == ((p, 2),)
        assert factorize(2**40) == ((2, 40),)
        assert factorize(3**20 * 65521) == ((3, 20), (65521, 1))


class TestR4Star:
    def test_examples(self):
        assert rn_star(1) == 1
        assert rn_star(2) == 3
        assert rn_star(12) == 12

    def test_against_divisor_sum_definition(self):
        for d in range(1, 800):
            assert rn_star(d) == r4_star_by_definition(d)

    def test_multiplicative(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rng.randint(1, 100)
            b = rng.randint(1, 100)
            if a * b > 10**4:
                continue
            from math import gcd

            if gcd(a, b) != 1:
                continue
            assert rn_star(a * b) == rn_star(a) * rn_star(b)
            assert rn_star(a * b, 3) == rn_star(a, 3) * rn_star(b, 3)

    def test_bounded_by_d_tau(self):
        for d in range(1, 10**4 + 1):
            tau = 1
            for _, e in trial_division(d):
                tau *= e + 1
            assert rn_star(d) <= d * tau


class TestRnStar:
    def test_examples(self):
        assert rn_star(3, 2) == 28  # 1 + 3^3
        assert rn_star(2, 2) == 7
        assert rn_star(1, 5) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            rn_star(0)

    def test_power_of_two_k1_always_3(self):
        for mu in range(1, 12):
            assert rn_star(2**mu, 1) == 3


class TestR4AndTables:
    def test_r4_examples(self):
        # Jacobi: r_4(d) = 8 r_4*(d)
        assert 8 * rn_star(1) == 8
        assert 8 * rn_star(4) == 24
        assert 8 * rn_star(3) == 32

    def test_table_entries(self):
        t8 = rn_exact_table(8, 4)
        assert t8[0] == 1
        assert t8[1] == 16
        assert t8[2] == 112  # two nonzero slots out of 8 with signs: C(8,2)*4

    def test_r4_table_matches_r4(self):
        t4 = rn_exact_table(4, 3000)
        for d in range(1, 3001):
            assert t4[d] == 8 * rn_star(d)

    def test_budget_error_names_limit(self):
        with pytest.raises(ResourceBudgetError, match="limit=10000000000"):
            rn_exact_table(8, 10**10)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            rn_exact_table(6, 10)

    def test_n16_matches_lattice_oracle(self):
        # the r12 * r4 product at this length has entries far past 2^64
        t16 = rn_exact_table(16, 20_000)
        for d in range(121):
            assert t16[d] == verify.rn_lattice_oracle(16, d), d

    @pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 5, 48, 49, 50, 120, 143, 144, 145])
    def test_r2_count_matches_double_loop(self, limit):
        k = isqrt(limit)
        expected = [0] * (limit + 1)
        for i in range(-k, k + 1):
            for j in range(-k, k + 1):
                if i * i + j * j <= limit:
                    expected[i * i + j * j] += 1
        assert _r2_table(limit) == expected

    @pytest.mark.parametrize("n", [8, 12])
    def test_squared_tables_match_lattice_oracle(self, n):
        table = rn_exact_table(n, 120)
        assert table == [verify.rn_lattice_oracle(n, d) for d in range(121)]

    def test_tiny_limits(self):
        for n in (4, 8, 12, 16):
            assert rn_exact_table(n, 0) == [1]
            assert rn_exact_table(n, 1) == [1, 2 * n]

    def test_budget_estimate_covers_peak(self):
        tracemalloc.start()
        try:
            rn_exact_table(12, 50_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _table_bytes(12, 50_000) >= peak


class TestConvolveExact:
    def test_random_against_naive(self):
        rng = random.Random(2017)
        for lo, hi in ((0, 1), (0, 1000), (2**64, 2**64 + 1000), (0, 2**200)):
            for _ in range(40):
                a = [rng.randint(lo, hi) for _ in range(rng.randint(1, 30))]
                b = [rng.randint(lo, hi) for _ in range(rng.randint(1, 30))]
                length = rng.randint(1, len(a) + len(b) + 5)
                assert _convolve_exact(a, b, length) == convolve_naive(a, b, length)

    def test_square_against_naive(self):
        rng = random.Random(2018)
        for lo, hi in ((0, 1), (0, 1000), (2**64, 2**64 + 1000), (0, 2**200)):
            for _ in range(40):
                a = [rng.randint(lo, hi) for _ in range(rng.randint(1, 30))]
                length = rng.randint(1, 2 * len(a) + 5)
                assert _convolve_exact(a, a, length) == convolve_naive(a, a, length)

    def test_all_zero_input(self):
        assert _convolve_exact([0, 0, 0], [5, 6], 4) == [0, 0, 0, 0]
        assert _convolve_exact([0], [0], 3) == [0, 0, 0]
        zeros = [0, 0, 0]
        assert _convolve_exact(zeros, zeros, 5) == [0] * 5

    def test_length_one(self):
        assert _convolve_exact([7, 1, 2], [3, 4], 1) == [21]
        assert _convolve_exact([2**100], [2**90], 1) == [2**190]
        a = [2**100, 5]
        assert _convolve_exact(a, a, 1) == [2**200]

    def test_length_past_full_product(self):
        a, b = [1, 2, 3], [4, 5]
        assert _convolve_exact(a, b, 9) == [4, 13, 22, 15, 0, 0, 0, 0, 0]
        assert _convolve_exact(a, a, 8) == [1, 4, 10, 12, 9, 0, 0, 0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            _convolve_exact([1, -1], [1, 1], 3)
        with pytest.raises(ValueError):
            _convolve_exact([1, 1], [0, -2**70], 3)


def _fresh_interpreter(code):
    src = str(Path(manincount.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout.strip()


@pytest.mark.parametrize("module", ["numpy", "multiprocessing", "mpmath", "manincount.asymptotics"])
def test_import_does_not_load(module):
    code = f"import sys, manincount; print({module!r} in sys.modules)"
    assert _fresh_interpreter(code) == "False"


def test_constants_names_load_on_first_use():
    code = textwrap.dedent("""
        import sys
        import manincount

        lazy = ["ConstantsBundle", "EulerProductValue", "PolynomialP", "closed_form_C4",
                "constants_bundle", "euler_product_G", "predict_S", "predict_T",
                "predict_counts"]
        assert set(lazy + ["asymptotics"]) <= set(dir(manincount))
        try:
            manincount.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("an unknown name resolved")
        assert "mpmath" not in sys.modules and "manincount.asymptotics" not in sys.modules

        manincount.constants_bundle(4, 1000)
        assert "mpmath" in sys.modules and "manincount.asymptotics" in sys.modules
        from manincount import constants_bundle

        asymptotics = manincount.asymptotics
        assert asymptotics is sys.modules["manincount.asymptotics"]
        assert constants_bundle is asymptotics.constants_bundle
        for name in lazy:
            assert getattr(manincount, name) is getattr(asymptotics, name), name
            assert name not in vars(manincount), name  # the submodule is the one holder
        star = {}
        exec("from manincount import *", star)
        assert set(lazy) <= set(star), set(lazy) - set(star)
        print("ok")
    """)
    assert _fresh_interpreter(code) == "ok"


class TestBernoulli:
    KNOWN = {
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }

    def test_known_values(self):
        for m, v in self.KNOWN.items():
            assert bernoulli(m) == v

    def test_recurrence_oracle(self):
        # sum_{j=0}^{m} C(m+1, j) B_j = 0 with B_1 = -1/2 and zero odd tail
        B = {0: Fraction(1), 1: Fraction(-1, 2)}
        for m in range(2, 31):
            B[m] = bernoulli(m) if m % 2 == 0 else Fraction(0)
        for m in range(2, 30):
            total = sum(comb(m + 1, j) * B[j] for j in range(m + 1))
            assert total == 0, m

    def test_odd_rejected(self):
        for m in (1, 3, 7):
            with pytest.raises(ValueError):
                bernoulli(m)


class TestMobius:
    def test_examples(self):
        mu = mobius_sieve(20)
        assert mu[1] == 1
        assert mu[6] == 1
        assert mu[12] == 0
        assert mu[2] == -1

    def test_against_factorization(self):
        mu = mobius_sieve(5000)
        for d in range(1, 5001):
            f = factorize(d)
            if any(e > 1 for _, e in f):
                assert mu[d] == 0
            else:
                assert mu[d] == (-1) ** len(f)
