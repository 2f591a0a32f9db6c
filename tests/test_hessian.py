import random
from itertools import product

from manincount.hessian import hessian_at, rank_over_rationals, rank_profile


def closed_form_rank(x, y, z, n):
    """Rank by the block structure: the x-row is independent, the (y, z)
    block has rank n+1 if z != 0 and y != 0, n if only z != 0, 2 if only
    y != 0, else 0."""
    r = 1 if x != 0 else 0
    ynz = any(v != 0 for v in y)
    if z != 0:
        return r + n + (1 if ynz else 0)
    return r + (2 if ynz else 0)


class TestHessianAt:
    def test_zero_point(self):
        h = hessian_at(0, (0, 0, 0, 0), 0)
        assert all(v == 0 for row in h for v in row)

    def test_x_only(self):
        h = hessian_at(1, (0, 0, 0, 0), 0)
        assert h[0][0] == -6
        assert sum(abs(v) for row in h for v in row) == 6

    def test_unit_point(self):
        h = hessian_at(1, (1, 0, 0, 0), 1)
        assert h[0][0] == -6
        for i in (1, 2, 3, 4):
            assert h[i][i] == 2
        assert h[1][5] == h[5][1] == 2
        assert h[5][5] == 0


class TestRank:
    def test_examples(self):
        assert rank_over_rationals(hessian_at(0, (0, 0, 0, 0), 0)) == 0
        assert rank_over_rationals(hessian_at(1, (0, 0, 0, 0), 0)) == 1
        assert rank_over_rationals(hessian_at(1, (1, 0, 0, 0), 1)) == 6

    def test_leaves_its_input_unchanged(self):
        rows = [[2, 4, 1], [1, 2, 3], [3, 6, 4]]
        assert rank_over_rationals(rows) == 2
        assert rows == [[2, 4, 1], [1, 2, 3], [3, 6, 4]]

    def test_full_box_against_closed_form(self):
        rng = range(-1, 2)
        for x in rng:
            for y in product(rng, repeat=4):
                for z in rng:
                    got = rank_over_rationals(hessian_at(x, y, z))
                    assert got == closed_form_rank(x, y, z, 4)

    def test_random_large_coordinates(self):
        rng = random.Random(9)
        for n in (4, 8):
            for _ in range(200):
                x = rng.randint(-10**6, 10**6)
                z = rng.randint(-10**6, 10**6)
                y = tuple(rng.randint(-10**6, 10**6) for _ in range(n))
                got = rank_over_rationals(hessian_at(x, y, z))
                assert got == closed_form_rank(x, y, z, n)

    def test_negation_invariance(self):
        rng = random.Random(13)
        for _ in range(100):
            x = rng.randint(-50, 50)
            z = rng.randint(-50, 50)
            y = tuple(rng.randint(-50, 50) for _ in range(4))
            p = hessian_at(x, y, z)
            q = hessian_at(-x, tuple(-v for v in y), -z)
            assert rank_over_rationals(p) == rank_over_rationals(q)


class TestRankCounts:
    def test_partition(self):
        for B in (1, 2):
            prof = rank_profile(B, 4)
            assert sum(prof.values()) == (2 * B + 1) ** 6
            assert set(prof) <= set(range(7))

    def test_zero_rank_singleton(self):
        assert rank_profile(2, 4)[0] == 1

    def test_z_zero_forces_rank_le_3(self):
        B = 2
        rng = range(-B, B + 1)
        for x in rng:
            for y in product(rng, repeat=4):
                assert rank_over_rationals(hessian_at(x, y, 0)) <= 3

    def test_rank_le3_layer_grows_like_codim_one(self):
        for B in (1, 2):
            prof = rank_profile(B, 4)
            cum = sum(c for r, c in prof.items() if r <= 3)
            assert cum >= (2 * B + 1) ** 5

    def test_any_box_size(self):
        assert sum(rank_profile(6, 8).values()) == 13**10
        B = 10**6
        prof = rank_profile(B, 4)
        assert prof[0] == 1
        assert prof[1] == 2 * B
        assert prof[2] == (2 * B + 1) ** 4 - 1

    def test_matches_enumeration(self):
        for B, n in ((1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (1, 5), (1, 6)):
            counts = {}
            for x, *y, z in product(range(-B, B + 1), repeat=n + 2):
                r = rank_over_rationals(hessian_at(x, tuple(y), z))
                counts[r] = counts.get(r, 0) + 1
            assert rank_profile(B, n) == counts, (B, n)
