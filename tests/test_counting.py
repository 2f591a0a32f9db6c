import multiprocessing
import random
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from math import floor, isqrt

import pytest

from manincount import arith, counting
from manincount.arith import factorize, rn_star, rn_star_prime_powers
from manincount.counting import (
    _LEAF_MAX,
    _SIEVE_BLOCK,
    _SIEVE_SEGMENT,
    _block_tables,
    _cube_divisors,
    _rstar_sum,
    _tables,
    apply_D,
    count_affine_bruteforce,
    count_affine_exact,
    count_projective,
    count_projective_bruteforce,
    identity_scan,
    introot,
    mean_value_M,
    s_sum,
    t_sum,
)


def s_sum_naive(x, y):
    total = 0
    for n in range(1, x + 1):
        cube = n**3
        for d in range(1, min(cube, y) + 1):
            if cube % d == 0:
                total += rn_star(d)
    return total


def t_sum_naive(B):
    total = 0
    for n in range(1, B + 1):
        cube = n**3
        for d in range(1, cube + 1):
            if cube % d == 0 and d * B < cube:
                total += rn_star(d)
    return total


def cube_divisors_naive(n, hi=None):
    """Divisors d <= hi of n**3 by trial division."""
    cube = n**3
    top = cube if hi is None else min(cube, hi)
    return [d for d in range(1, top + 1) if cube % d == 0]


def cube_divisors_of_divisors(n):
    """Divisors of n**3 as the products a*b*c of divisors of n, where those
    come from trial division up to sqrt(n): no factorization, no sieve.
    Every p**j with j <= 3e splits into three exponents <= e."""
    small = [a for a in range(1, isqrt(n) + 1) if n % a == 0]
    divs = set(small) | {n // a for a in small}
    return {a * b * c for a in divs for b in divs for c in divs}


def tables_of(n, k):
    """The tables of n, from the sieve the counting sums use."""
    ((_, tab),) = _tables(n, n + 1, k)
    return tab


def rest_of(n):
    """n >= 2 without the power of its largest prime, by trial division."""
    p, e = factorize(n)[-1]
    return n // p**e


def next_prime(m):
    """The least prime > m, by trial division."""
    m += 1
    while factorize(m) != ((m, 1),):
        m += 1
    return m


class TestCubeDivisors:
    def test_against_trial_division(self):
        rng = random.Random(17)
        for _ in range(150):
            n = rng.randint(1, 60)
            k = rng.randint(1, 3)
            hi = rng.choice([None, rng.randint(-5, n**3 + 5)])
            items = _cube_divisors(tables_of(n, k), n**3 if hi is None else hi)
            assert sorted(d for d, _ in items) == cube_divisors_naive(n, hi)
            for d, r in items:
                assert r == rn_star(d, k)

    def test_divisors_of_8(self):
        assert sorted(d for d, _ in _cube_divisors(tables_of(2, 1), 8)) == [1, 2, 4, 8]

    def test_divisors_of_216_up_to_10(self):
        ds = sorted(d for d, _ in _cube_divisors(tables_of(6, 1), 10))
        assert ds == [1, 2, 3, 4, 6, 8, 9]

    def test_unit(self):
        assert _cube_divisors(tables_of(1, 1), 1000) == [(1, 1)]

    def test_count_is_product_of_3e_plus_1(self):
        for m in (2, 12, 30, 360, 1001):
            expected = 1
            for _, e in factorize(m):
                expected *= 3 * e + 1
            ds = [d for d, _ in _cube_divisors(tables_of(m, 1), m**3)]
            assert len(ds) == expected
            assert len(set(ds)) == expected  # no repeats

    def test_folded_sum_matches_list(self):
        rng = random.Random(23)
        for _ in range(400):
            n = rng.randint(1, 10**4)
            k = rng.randint(1, 3)
            tab = tables_of(n, k)
            lo = rng.randint(-3, n**3 + 3)
            hi = rng.choice([rng.randint(-3, n**3 + 3), rng.randint(-3, 3), lo - 1])
            listed = sum(r for d, r in _cube_divisors(tab, hi) if d >= lo)
            assert _rstar_sum(tab, lo, hi, {}) == listed, (n, k, lo, hi)

    def test_folded_sum_against_trial_division(self):
        # the walk against divisors found without factorizing n and values
        # from rn_star(d), which factors d by trial division, so it does not
        # share the tables it reads.  One memo serves every window of an
        # (n, k): from the first window on an n whose rest is at most
        # _LEAF_MAX is answered by a leaf at the root, built on that first
        # call, and any other n descends past it; both kinds must occur at
        # every k.
        rng = random.Random(31)
        ns = [2**14, 3**9, 2**15 + 1, 2**16 - 1, 65521 * 2, 3 * 5 * 7 * 11 * 13 * 3,
              7 * 10007, 2**3 * 3**2 * 4099,  # 4099 and 10007 exceed the square root
              2**10 * 3 * 5, 2 * 3 * 5 * 7 * 11 * 13]  # rests 3072 and 15015 exceed _LEAF_MAX
        ns += [rng.randint(2**15, 2**17) for _ in range(6)]
        windows = 0
        for k in (1, 2, 3):
            branches = {"leaf": 0, "descent": 0}
            for n in ns:
                divs = sorted(cube_divisors_of_divisors(n))
                tab = tables_of(n, k)
                rstar = {d: rn_star(d, k) for d in divs}
                cuts = [0, 1, 2, n, n**3 - 1, n**3, n**3 + 1]
                cuts += [rng.choice(divs) + rng.randint(-1, 1) for _ in range(8)]
                memo = {}
                for lo in cuts:
                    for hi in cuts:
                        want = sum(rstar[d] for d in divs if lo <= d <= hi)
                        assert _rstar_sum(tab, lo, hi, memo) == want, (n, k, lo, hi)
                        windows += want > 0
                rest = rest_of(n)
                if rest <= _LEAF_MAX:
                    assert memo.get(rest**3), (n, k)  # the root's leaf was built
                    branches["leaf"] += 1
                else:
                    assert rest**3 not in memo, (n, k)
                    branches["descent"] += 1
            assert min(branches.values()) >= 2, (k, branches)
        assert windows > 1000

    def test_leaf_against_trial_division(self):
        # rests on both sides of _LEAF_MAX, rest 1, and head exponents 1 to 3
        # under a prime above every prime of the rest; each window once
        # with a fresh memo, whose call builds the root's leaf or walks past
        # the root, and once with a memo already holding the root's leaf.
        # Head exponent 2 puts n**3 above 2**63, so the bisections compare
        # Python ints beyond int64 with array('q').
        P = next_prime(_LEAF_MAX + 1)
        rests = (_LEAF_MAX - 1, _LEAF_MAX, _LEAF_MAX + 1, 1)
        rng = random.Random(37)
        leaf_windows = widest = 0
        for k in (1, 2, 3):
            for rest in rests:
                for e in (1, 2, 3):
                    n = P**e * rest
                    if e == 3 and rest != 1:
                        continue
                    divs = sorted(cube_divisors_of_divisors(n))
                    rstar = {d: rn_star(d, k) for d in divs}
                    tab = tables_of(n, k)
                    memo = {}
                    _rstar_sum(tab, 2, n**3, memo)
                    _rstar_sum(tab, 2, n**3, memo)
                    root_leaf = rest <= _LEAF_MAX
                    assert bool(memo.get(rest**3)) == root_leaf, (n, k)
                    cuts = [-(2**64), -1, 0, 1, 2, n**3 - 1, n**3, n**3 + 1, 2**63 - 1,
                            2**63, 2**64 + 7]
                    cuts += [rng.choice(divs) + rng.randint(-1, 1) for _ in range(6)]
                    for lo in cuts:
                        for hi in cuts:
                            want = sum(rstar[d] for d in divs if lo <= d <= hi)
                            assert _rstar_sum(tab, lo, hi, {}) == want, (n, k, lo, hi)
                            assert _rstar_sum(tab, lo, hi, memo) == want, (n, k, lo, hi)
                            leaf_windows += root_leaf and want > 0
                    widest = max(widest, n**3)
        assert leaf_windows > 500
        assert widest > 2**63

    def test_shared_memo_matches_fresh_memo(self):
        # one memo across every m of [1, 2**15 + 6), two sieve blocks, gives
        # what a fresh memo per m gives for the windows of S, T and N*_4
        B = 2**15 + 5
        B2 = B * B
        shared = {}
        for m, tab in _tables(1, B + 1, 1):
            cube = m**3
            for lo, hi in ((1, B2), (1, (cube - 1) // B), ((cube + B - 1) // B, B2)):
                assert _rstar_sum(tab, lo, hi, shared) == _rstar_sum(tab, lo, hi, {}), (m, lo, hi)
        assert 0 < len(shared) <= _LEAF_MAX
        assert all(1 <= c <= _LEAF_MAX**3 for c in shared)  # keyed by rest**3

    def test_shared_memo_holds_only_leaves(self):
        # every rest at most _LEAF_MAX gets its leaf at first sight, so the
        # memo holds leaves only, at most one per rest
        memo = {}
        for _, t in _block_tables(1, 2**15 + 1, 1):
            _rstar_sum(t, 1, 2**30, memo)
        assert 0 < len(memo) <= _LEAF_MAX
        for cube, leaf in memo.items():
            s = round(cube ** (1 / 3))
            assert s**3 == cube and 1 <= s <= _LEAF_MAX, cube
            assert leaf is not None, s
            ds, pre = leaf
            assert list(ds) == sorted(cube_divisors_of_divisors(s)), s
            assert list(pre) == list(accumulate((rn_star(d) for d in ds), initial=0)), s

    def test_folded_sum_narrow_windows_near_top(self):
        # count_affine_exact's windows start at ceil(n^3/B), so most of the
        # tree lies below lo; hi - 1 and hi leave at most two divisors
        rng = random.Random(29)
        empty = nonempty = 0
        for _ in range(300):
            n = rng.randint(1, 5000)
            k = rng.randint(1, 3)
            B = rng.randint(n, 2 * n + 3)
            tab = tables_of(n, k)
            for hi in (B * B, n**3, n**3 - 1):
                for lo in ((n**3 + B - 1) // B, hi - 1, hi):
                    listed = sum(r for d, r in _cube_divisors(tab, hi) if d >= lo)
                    assert _rstar_sum(tab, lo, hi, {}) == listed, (n, k, lo, hi)
                    if listed:
                        nonempty += 1
                    else:
                        empty += 1
        assert empty > 100 and nonempty > 100


class TestTables:
    def test_cofactor_entries_shared_within_block(self):
        # 401 exceeds the sieved primes (<= 44) and is below the block
        # length, so the m = 401 j of the block share one entry for it
        tabs = dict(_block_tables(1, 2001, 1))
        heads = [tabs[401 * j][0] for j in (1, 2, 3, 4)]
        assert heads[0] == ((1, 401, 401**2, 401**3), (1, 402, 402 + 401**2, 402 + 401**2 + 401**3),
                            401**3, 4 + 3 * 401 + 2 * 401**2 + 401**3)
        assert all(h is heads[0] for h in heads)

    def test_cofactor_entries_shared_across_segments(self):
        # 4099 is prime, above the sieved primes (<= 181) and below the block
        # length, so the m = 4099 j of the block share one entry for it,
        # although each lies in a different sub-segment
        ms = [4099 * j for j in range(1, 8)]
        assert len({(m - 1) // _SIEVE_SEGMENT for m in ms}) == len(ms)
        tabs = dict(_block_tables(1, 2**15 + 1, 1))
        heads = [tabs[m][0] for m in ms]
        assert heads[0][0] == (1, 4099, 4099**2, 4099**3)
        assert all(h is heads[0] for h in heads)

    def test_block_sieve_memory(self):
        # only one sub-segment's per-m lists exist at a time: a whole block
        # of per-m lists peaked at about 3.4 MB traced
        tracemalloc.start()
        try:
            for _, tab in _block_tables(1, 2**15 + 1, 1):
                del tab
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    def test_block_seams(self):
        # the counting sums start their blocks at 1 + j * 2**15, so 2**15 and
        # 2**16 each end one; sieved from 2**15 - 20, this range's own first
        # block ends at 2**16 - 21, inside the second window.  Sieved from 1,
        # the first block's sub-segments start at 1 + j * 2**12: 4096, 8192,
        # 16384 and 32768 each end one (their top stride pass hits one
        # index), and 6561 = 3**8 and 16807 = 7**5 take exponent passes deep
        # inside one
        block_seams = {*range(2**15 - 20, 2**15 + 21), *range(2**16 - 20, 2**16 + 21)}
        segment_seams = {m for j in range(1, 2**15 // _SIEVE_SEGMENT)
                         for m in range(1 + j * _SIEVE_SEGMENT - 20, 1 + j * _SIEVE_SEGMENT + 21)}
        assert {4096, 8192, 16384} <= segment_seams and 32768 in block_seams
        windows = block_seams | segment_seams | {6561, 16807}
        for k in (1, 2, 3):
            for start in (1, 2**15 - 20):
                checked = 0
                for m, tab in _tables(start, max(windows) + 1, k):
                    if m not in windows:
                        continue
                    want = []
                    for p, e in sorted(factorize(m), reverse=True):
                        rv = rn_star_prime_powers(p, 3 * e, k)
                        want.append((tuple(p**j for j in range(3 * e + 1)), tuple(rv),
                                     p ** (3 * e), sum(rv)))
                    assert tab == want, (m, k, start)
                    # entries are shared by the m of a block, so none may be mutable
                    for entry in tab:
                        assert type(entry) is tuple
                        assert type(entry[0]) is tuple and type(entry[1]) is tuple
                    checked += 1
                assert checked == sum(m >= start for m in windows)


class TestIntroot:
    def test_exact_powers(self):
        for b in range(1, 40):
            for e in (2, 3, 5, 7):
                assert introot(b**e, e) == b
                assert introot(b**e + 1, e) == b
                if b > 1:
                    assert introot(b**e - 1, e) == b - 1

    def test_edges(self):
        assert introot(0, 3) == 0
        assert introot(1, 9) == 1
        assert introot(10**18, 1) == 10**18

    def test_roots_past_float_precision(self):
        # roots above 2**53, beyond what a float holds exactly
        assert introot(10**81, 3) == 10**27
        assert introot(10**81 + 1, 3) == 10**27
        assert introot(10**175 + 1, 7) == 10**25

    def test_random_against_definition(self):
        rng = random.Random(41)
        for _ in range(2000):
            x = rng.getrandbits(rng.randint(1, 2000))
            e = rng.randint(1, 40)
            r = introot(x, e)
            assert r**e <= x < (r + 1) ** e, (x, e)


class TestSsum:
    def test_examples(self):
        assert s_sum(1, 1) == 1
        assert s_sum(2, 2) == 5
        assert s_sum(2, 8) == 11

    def test_against_naive(self):
        rng = random.Random(3)
        for _ in range(20):
            x = rng.randint(1, 25)
            y = rng.randint(1, x**3 + 10)
            assert s_sum(x, y) == s_sum_naive(x, y)

    def test_monotone_in_both_arguments(self):
        prev = 0
        for x in range(1, 40):
            cur = s_sum(x, 50)
            assert cur >= prev
            prev = cur
        prev = 0
        for y in range(0, 300, 13):
            cur = s_sum(12, y)
            assert cur >= prev
            prev = cur

    def test_worker_count_invariant(self):
        for x in (300, 2**15 + 5):  # the second spans two sieve blocks
            ref = s_sum(x, x**2)
            for w in (2, 3, 5):
                assert s_sum(x, x**2, workers=w) == ref

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="worker count must be >= 1"):
            s_sum(10, 100, workers=0)


class TestTsum:
    def test_examples(self):
        assert t_sum(1) == 0
        assert t_sum(2) == 4
        assert t_sum(3) == t_sum_naive(3)

    def test_against_naive(self):
        for B in range(1, 28):
            assert t_sum(B) == t_sum_naive(B)

    def test_worker_count_invariant(self):
        assert t_sum(250, workers=4) == t_sum(250)
        x = 2**15 + 5  # two sieve blocks, so a pool runs
        assert t_sum(x, workers=4) == t_sum(x)


class TestRunBlocks:
    @staticmethod
    def _no_pool(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(multiprocessing, "get_context", refuse)

    def test_three_blocks_worker_invariant(self):
        x = 2 * 2**15 + 7
        for f in (lambda w: s_sum(x, x * x, workers=w),
                  lambda w: t_sum(x, workers=w),
                  lambda w: count_affine_exact(x, 4, workers=w),
                  lambda w: s_sum(x, x * x, 2, workers=w),
                  lambda w: t_sum(x, 2, workers=w)):
            ref = f(1)
            assert f(2) == ref
            assert f(3) == ref

    def test_single_block_starts_no_process(self, monkeypatch):
        x = _SIEVE_BLOCK
        expected = (s_sum(x, x * x), t_sum(x), count_affine_exact(x, 4), count_projective(10**9, 4))
        self._no_pool(monkeypatch)
        got = (s_sum(x, x * x, workers=2), t_sum(x, workers=2),
               count_affine_exact(x, 4, workers=2), count_projective(10**9, 4, workers=2))
        assert got == expected

    def test_two_blocks_reach_the_pool(self, monkeypatch):
        self._no_pool(monkeypatch)
        with pytest.raises(AssertionError, match="pool was started"):
            s_sum(_SIEVE_BLOCK + 1, 1, workers=2)


class TestAffine:
    def test_examples(self):
        assert count_affine_exact(1, 4) == 16
        assert count_affine_exact(2, 4) == 64
        assert count_affine_exact(1, 8) == 32

    def test_bruteforce_examples(self):
        assert count_affine_bruteforce(1, 4) == 16
        assert count_affine_bruteforce(2, 4) == 64
        assert count_affine_bruteforce(1, 8) == 32

    @pytest.mark.parametrize("n", [4, 8])
    def test_oracle_equivalence_sample(self, n):
        count_affine_bruteforce(60, n)  # warm the table at the largest size
        for B in range(1, 61):
            assert count_affine_exact(B, n) == count_affine_bruteforce(B, n), B

    def test_n8_reads_no_lattice_table(self, monkeypatch):
        # Jacobi's r_8 = 16 r_8* puts N*_8 on the folded walk at k = 2, so
        # the lattice table is left to the brute-force twin, and B = 2013
        # (past the table's memory budget) returns
        def no_table(n, limit):
            raise AssertionError(f"lattice table requested: n={n} limit={limit}")

        with monkeypatch.context() as m:
            m.setattr(counting, "_rn_table", no_table)
            walked = [count_affine_exact(B, 8) for B in range(1, 61)]
            assert count_affine_exact(2013, 8) > walked[-1]
        assert walked == [count_affine_bruteforce(B, 8) for B in range(1, 61)]

    def test_decomposition_identity(self):
        for B in (1, 2, 3, 10, 37, 100):
            assert count_affine_exact(B, 4) == 16 * (s_sum(B, B * B) - t_sum(B))

    def test_n8_past_int64_products(self):
        # at L = 450^2 the r4 * r4 entry products pass 2^62, out of int64
        # range; Jacobi's r_8 = 16 r_8* gives the third value without the table
        B = 450
        exact = count_affine_exact(B, 8)
        assert exact == count_affine_bruteforce(B, 8)
        assert exact == 32 * (s_sum(B, B * B, 2) - t_sum(B, 2))

    def test_table_grows_to_exactly_the_requested_limit(self, monkeypatch):
        # 6000 fits this budget, 9500 does not
        monkeypatch.setattr(arith, "_TABLE_MEMORY_BUDGET", arith._table_bytes(8, 9000))
        monkeypatch.setattr(counting, "_RN_TABLES", {})
        assert len(counting._rn_table(8, 5000)) == 5001
        table = counting._rn_table(8, 6000)
        assert table == arith.rn_exact_table(8, 6000)
        assert counting._rn_table(8, 100) is table  # a shorter limit reuses it
        with pytest.raises(arith.ResourceBudgetError, match="limit=9500"):
            counting._rn_table(8, 9500)
        assert counting._RN_TABLES[8] is table

    def test_query_validation(self):
        with pytest.raises(ValueError, match="B must be >= 1"):
            count_affine_exact(0, 4)
        with pytest.raises(ValueError, match="positive multiple of 4"):
            count_projective(5, 6)


class TestProjective:
    def test_examples(self):
        assert count_projective(1, 4) == 16
        assert count_projective(8, 4) == 48
        assert count_projective(1, 8) == 32

    def test_bruteforce_examples(self):
        assert count_projective_bruteforce(1, 4) == 16
        assert count_projective_bruteforce(8, 4) == 48
        assert count_projective_bruteforce(1, 8) == 32

    def test_oracle_equivalence_sample(self):
        for B in list(range(1, 90)) + [125, 216, 217, 341, 342, 343, 511, 512]:
            assert count_projective(B, 4) == count_projective_bruteforce(B, 4), B

    @pytest.mark.xfail(strict=True, reason=(
        "count_projective's scale class d gets the y-ball (R//d)^2 where the height "
        "max(|x|, sqrt(sum y^2), |z|) <= R needs R^2//d^2 (12912 against 12272 at R = 11)"))
    def test_height_defect_at_r11(self):
        assert count_projective(1331, 4) == count_projective_bruteforce(1331, 4)

    def test_oracle_equivalence_n8(self):
        for B in (1, 127, 128, 129, 2187, 16384):
            assert count_projective(B, 8) == count_projective_bruteforce(B, 8), B


class TestMeanValue:
    def test_examples(self):
        assert mean_value_M(1, 1) == 0
        assert mean_value_M(2, 2) == 1
        assert mean_value_M(Fraction(5, 2), 2) == 2

    def test_direct_sum_oracle(self):
        rng = random.Random(11)
        for k in (1, 2):
            for _ in range(25):
                X = Fraction(rng.randint(1, 60), rng.randint(1, 5))
                Y = Fraction(rng.randint(1, 120), rng.randint(1, 5))
                if X < 1 or Y < 1:
                    continue
                total = Fraction(0)
                for n in range(1, floor(X) + 1):
                    cube = n**3
                    for d in range(1, floor(Y) + 1):
                        if cube % d == 0:
                            total += rn_star(d, k) * (X - n) * (Y - d)
                assert mean_value_M(X, Y, k) == total

    def test_zero_below_one(self):
        assert mean_value_M(Fraction(1, 2), 5) == 0


class TestApplyD:
    def test_product_rule(self):
        rng = random.Random(5)
        for _ in range(40):
            a, b, c, d = (Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(4))
            f = lambda x, y: (x * x + a * x) * (y + b)  # noqa: E731
            X, H, Y, J = (Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(4))
            f1 = lambda x: x * x + a * x  # noqa: E731
            f2 = lambda y: y + b  # noqa: E731
            assert apply_D(f, X, H, Y, J) == (f1(H) - f1(X)) * (f2(J) - f2(Y))

    def test_constant_collapses(self):
        assert apply_D(lambda x, y: Fraction(7), 1, 2, 3, 4) == 0

    def test_bracketing_seeded(self):
        rng = random.Random(1)
        cases = [(Fraction(7, 2), Fraction(9), Fraction(2), Fraction(9))]
        for _ in range(30):
            X = Fraction(rng.randint(2, 40), rng.randint(1, 4))
            Y = Fraction(rng.randint(2, 150), rng.randint(1, 4))
            H = X * Fraction(rng.randint(1, 16), 16)
            J = Y * Fraction(rng.randint(1, 16), 16)
            cases.append((X, Y, H, J))
        for X, Y, H, J in cases:
            mid = H * J * s_sum(floor(X), floor(Y))
            low = apply_D(mean_value_M, X - H, X, Y - J, Y)
            high = apply_D(mean_value_M, X, X + H, Y, Y + J)
            assert low <= mid <= high


class TestIdentityScan:
    def test_matches_api(self):
        S, T, A = identity_scan(150)
        for B in (1, 2, 3, 7, 50, 149, 150):
            assert S[B] == s_sum(B, B * B)
            assert T[B] == t_sum(B)
            assert A[B] == count_affine_exact(B, 4)

    def test_identity_everywhere(self):
        S, T, A = identity_scan(400)
        for B in range(1, 401):
            assert A[B] == 16 * (S[B] - T[B])
