import dataclasses
from fractions import Fraction
from itertools import accumulate
from math import factorial

import pytest
from mpmath import mp, mpf, workdps, workprec

from manincount import asymptotics, cli
from manincount.arith import primes_upto, rn_exact_table, rn_star, rn_star_prime_powers
from manincount.asymptotics import (
    _FIXED_GUARD_BITS,
    _GUARD_DIGITS,
    DomainError,
    InternalConsistencyError,
    _g2,
    _gamma1,
    _gp_odd,
    _Jet,
    _log_chain,
    closed_form_C4,
    constants_bundle,
    euler_product_G,
    predict_S,
    predict_T,
    predict_counts,
    zbar,
)
from manincount.verify import _poly_fd_oracle, run_suite

PLIM = 10_000
DIGITS = 30


def fixed_bits(digits: int) -> int:
    """The fixed-point width W that the line pass works at for this many digits."""
    with workdps(digits + _GUARD_DIGITS):
        return mp.prec + _FIXED_GUARD_BITS


def g2_exact(k: int) -> Fraction:
    """The 2-adic Euler factor at (s, w) = (1, 2k-1) in exact rationals."""
    w = 2 * k - 1
    half = Fraction(1, 2)
    if k == 1:
        num = 1 + 3 * half**2 + 3 * half**3 + 2 * half**4
        den = 1 - half**4
        return num / den * (1 - half) ** 3
    q = 2 ** (2 * k - 1)
    sign = -1 if k % 2 else 1
    a = 1 - Fraction(sign, 1 - q)
    b = Fraction(sign) * (1 - 2 ** (2 * k)) / (1 - q)
    mid = 1 + 3 * a - b * half ** (1 + w) * (1 + half**w + half ** (2 * w)) / (1 - half ** (1 + 3 * w))
    return Fraction(1, 8) * mid


def dyadic_prefactor(k: int) -> Fraction:
    """The closed dyadic factor of the expanded constant formula."""
    half = Fraction(1, 2)
    sign = -1 if k % 2 else 1
    bracket = (2 ** (2 * k + 1) - 4) * (1 - half ** (6 * k - 2)) + sign * (
        2 - half ** (2 * k) - half ** (4 * k - 1) - half ** (6 * k - 3)
    )
    return Fraction(3) * bracket / (128 * k * (2 * k - 1) * (2 ** (2 * k - 1) - 1))


def _gp_odd_jet(p: int, k: int) -> _Jet:
    """The odd Euler factor G_p(1 + e, (6k-3-e)/3) as an mpf jet in e.

    With u = 1/p, E1 = p^(-2e/3) and E2 = p^(-e/3):
    G_p = [1 + u^2k + u^(4k-1) + (u + u^2k + u^4k) E1 + (u + u^2k + u^(4k-1)) E2]
          (1 - u E1)(1 - u E2) / (1 - u^(6k-2)).
    """
    u = mpf(1) / p
    lg = mp.log(p)
    e1 = _Jet(mpf(1), -2 * lg / 3, 2 * lg * lg / 9)
    e2 = _Jet(mpf(1), -lg / 3, lg * lg / 18)
    u2k = u ** (2 * k)
    u4k1 = u ** (4 * k - 1)
    num = (u + u2k + u4k1 * u) * e1 + (u + u2k + u4k1) * e2 + (1 + u2k + u4k1)
    return num * (1 - u * e1) * (1 - u * e2) / (1 - u ** (6 * k - 2))


def poly_P_mpf(k: int, digits: int, prime_limit: int) -> tuple[mpf, mpf, mpf]:
    """(a0, a1, a2) from an mpf jet pass over _gp_odd_jet at digits + 20."""
    with workdps(digits + 20):
        s = _Jet(mpf(1), mpf(1))
        g = _g2(s, (6 * k - 2 - s) / 3, k)
        for p in primes_upto(prime_limit)[1:]:
            g = g * _gp_odd_jet(p, k)
        g0, g1 = +mp.euler, mp.stieltjes(1)
        for a in (1, mpf(2) / 3, mpf(1) / 3):
            g = g * _Jet(mpf(1), a * g0, -a * a * g1)
        g = mpf(27) / 2 * g / ((6 * k - 2 - s) * (6 * k + 1 - s) * s * (s + 1))
        return g.c2, g.c1, g.c0 / 2


def g_p(p: int, s, w, k: int) -> mpf:
    """The Euler factor G_p(s, w) by its mpf formula (_g2 at p = 2, _gp_odd
    at odd p), at the working precision."""
    s, w = mpf(s), mpf(w)
    return _g2(s, w, k) if p == 2 else _gp_odd(mpf(p), s, w, k)


def euler_product_mpf(s, w, k: int, digits: int, prime_limit: int) -> mpf:
    """The product of g_p over the primes p <= prime_limit at digits + 20."""
    with workdps(digits + 20):
        prod = mpf(1)
        for p in primes_upto(prime_limit):
            prod *= g_p(p, s, w, k)
        return prod


def zbar_stieltjes(sigma, digits: int) -> mpf:
    """1 + sum_{n < 12} (-1)^n g_n (sigma-1)^(n+1) / n!, the Stieltjes-constant
    Taylor series of (sigma - 1) zeta(sigma) at digits + 20."""
    with workdps(digits + 20):
        x = mpf(sigma) - 1
        return 1 + sum((-1) ** n * mp.stieltjes(n) * x ** (n + 1) / factorial(n)
                       for n in range(12))


class TestZeta:
    def test_zbar_taylor_matches_direct(self):
        with workdps(DIGITS + 20):
            for eps in ("1e-30", "1e-12", "5e-5", "9e-5"):
                for sign in (1, -1):
                    sigma = 1 + sign * mpf(eps)
                    err = abs(zbar(sigma) - zbar_stieltjes(sigma, DIGITS))
                    assert err < mpf(10) ** -DIGITS, (sign, eps)
            assert zbar(1) == 1


class TestLocalFactor:
    def test_g2_at_11(self):
        with workdps(40):
            assert abs(g_p(2, 1, 1, 1) - mpf(3) / 10) < mpf(10) ** -30

    def test_odd_prime_algebraic_identity(self):
        # G_p(1,1) = (1 + 2/p + 3/p^2 + 2/p^3 + 1/p^4)(1 - 1/p)^2 / (1 - 1/p^4)
        with workdps(40):
            for p in primes_upto(1000):
                if p == 2:
                    continue
                u = mpf(1) / p
                alg = (1 + 2 * u + 3 * u**2 + 2 * u**3 + u**4) * (1 - u) ** 2 / (1 - u**4)
                assert abs(g_p(p, 1, 1, 1) - alg) < mpf(10) ** -30, p

    def test_general_k_reduces_to_k1_at_2(self):
        # oracle: the k = 1 factor written out,
        # (1 + 3 X1 + 3 X2 + 2 X3) / (1 - X3) * prod_j (1 - 2^-(s + jw - j)), X_j = 2^-(s + jw)
        with workdps(40):
            for (s, w) in ((mpf(1), mpf(1)), (mpf("1.3"), mpf("0.8")), (mpf(2), mpf("1.5"))):
                x1, x2, x3 = (mpf(2) ** -(s + j * w) for j in (1, 2, 3))
                pr = mpf(1)
                for j in (1, 2, 3):
                    pr *= 1 - mpf(2) ** (-(s + j * w - j))
                want = (1 + 3 * x1 + 3 * x2 + 2 * x3) / (1 - x3) * pr
                assert abs(_g2(s, w, 1) - want) < mpf(10) ** -30

    def test_matches_summed_definition(self):
        # G_p(s, w) = F_p(s, w) prod_{j=0..3} (1 - p^-(s + jw - j(2k-1))) with
        # F_p = sum_a sum_{b <= 3a} r*_{4k}(p^b) p^(-as-bw), the local factor
        # of sum_n sum_{d | n^3} r*_{4k}(d) n^-s d^-w, cut at a <= A; the
        # terms past A = 120 are below 1e-33 relative on this grid
        A = 120
        with workdps(40):
            for k in (1, 2):
                grid = ((1, 2 * k - 1), (mpf("1.3"), 2 * k - mpf("0.8")), (2, 2 * k))
                for p in (2, 3, 5, 7):
                    rstar = rn_star_prime_powers(p, 3 * A, k)
                    for s, w in grid:
                        s, w = mpf(s), mpf(w)
                        inner = list(accumulate(r * mpf(p) ** (-b * w) for b, r in enumerate(rstar)))
                        F = sum(mpf(p) ** (-a * s) * inner[3 * a] for a in range(A + 1))
                        want = F
                        for j in range(4):
                            want *= 1 - mpf(p) ** -(s + j * w - j * (2 * k - 1))
                        err = abs(g_p(p, s, w, k) - want) / want
                        assert err <= mpf("1e-25"), (p, k, s, w, err)

    def test_decay_on_prime_grid(self):
        with workdps(30):
            for (s, w, k) in ((1, 1, 1), (1, 3, 2), (mpf("1.2"), mpf("0.9"), 1)):
                for p in (101, 1009, 9973):
                    dev = abs(g_p(p, s, w, k) - 1)
                    assert dev <= 20 * mpf(p) ** mpf("-1.5"), (s, w, k, p)

    def test_domain_error_names_j(self):
        # w = 0.8 satisfies the j = 1, 2 constraints but not j = 3
        with pytest.raises(DomainError, match="3w"):
            euler_product_G(1, 0.8, 1, prime_limit=3)
        with pytest.raises(DomainError, match="1w"):
            euler_product_G(1, 0.4, 1, prime_limit=3)


class TestEulerProduct:
    def test_single_factor(self):
        v = euler_product_G(1, 1, 1, prime_limit=2, digits=30)
        with workdps(40):
            assert abs(v.value - g_p(2, 1, 1, 1)) < mpf(10) ** -30

    def test_monotone_convergence(self):
        with workdps(40):
            prev = None
            for P in (1000, 10_000, 100_000):
                cur = euler_product_G(1, 1, 1, P, 30)
                if prev is not None:
                    assert abs(cur.value - prev.value) <= prev.tail_bound * abs(prev.value) * 2
                prev = cur
            assert prev.tail_bound < mpf(10) ** -9  # at P = 1e5

    def test_general_k_point(self):
        v1 = euler_product_G(1, 3, 2, 2000, 30)
        v2 = euler_product_G(1, 3, 2, 4000, 30)
        with workdps(40):
            assert abs(v1.value - v2.value) / abs(v1.value) <= v1.tail_bound

    def test_reproducible_bits(self):
        # the product is exact integer fixed point over the primes in
        # ascending order, so every call reproduces the same bits
        a = euler_product_G(1, 1, 1, 30_000, 30)
        b = euler_product_G(1, 1, 1, 30_000, 30)
        assert mp.nstr(a.value, 40) == mp.nstr(b.value, 40)

    @pytest.mark.parametrize("digits", [30, 60])
    @pytest.mark.parametrize("prime_limit", [2, 3, 3000])
    def test_matches_mpf_product(self, digits, prime_limit):
        # integer points take ONE // p^e, the non-integer one exp per prime
        with workdps(digits):
            s1 = 1 + mpf("2.5e-4")
            points = [(1, 1, 1), (1, 3, 2), (1, 5, 3), (s1, (4 - s1) / 3, 1)]
        for (s, w, k) in points:
            got = euler_product_G(s, w, k, prime_limit, digits).value
            want = euler_product_mpf(s, w, k, digits, prime_limit)
            with workdps(digits + 20):
                assert abs(got - want) / abs(want) < mpf(10) ** -(digits + 3), (s, w, k)


class TestConstants:
    def test_cross_route(self):
        # every omitted factor (1 - p^-3)^2 / (1 - p^-4) is below 1
        with workdps(40):
            closed = closed_form_C4(DIGITS)
            for P in (50_000, 100_000):
                g = euler_product_G(1, 1, 1, P, DIGITS)
                c = mpf(3) / 16 * g.value
                assert 0 < c - closed <= c * g.tail_bound, P

    def test_prime_limit_doubling_within_tail(self):
        with workdps(40):
            a = euler_product_G(1, 1, 1, 50_000, DIGITS)
            b = euler_product_G(1, 1, 1, 100_000, DIGITS)
            assert 0 < a.value - b.value <= a.value * a.tail_bound

    def test_dyadic_identity_exact(self):
        # expanded-line prefactor == (3/(16k(2k-1))) * G_2(1,2k-1) * (1 - 2^-(6k-2))
        for k in range(1, 6):
            lhs = Fraction(3, 16 * k * (2 * k - 1)) * g2_exact(k) * (1 - Fraction(1, 2 ** (6 * k - 2)))
            assert lhs == dyadic_prefactor(k), k

    def test_dual_line_agreement(self):
        for k in (1, 2, 3):
            constants_bundle(4 * k, PLIM, DIGITS)  # raises on failure

    @pytest.mark.parametrize("prime_limit", [2, 3])
    def test_tiny_prime_limits_match_mpf_product(self, prime_limit):
        # the line pass is covered by the bundle's own twin check, which
        # raises if that pass drops or repeats the prime 3
        for k in (1, 2, 3):
            c = constants_bundle(4 * k, prime_limit, DIGITS).C_script
            g = euler_product_mpf(1, 2 * k - 1, k, DIGITS, prime_limit)
            with workdps(50):
                want = mpf(3) / (16 * k * (2 * k - 1)) * g
                assert abs(c - want) / abs(want) < mpf(10) ** -(DIGITS + 3), k

    @pytest.mark.parametrize("n, plim", [(4, 2), (4, 50), (4, 99), (4, 200), (4, 372), (8, 2), (12, 2)])
    def test_small_prime_limits_consistent(self, n, plim):
        # the two forms differ by the zeta(6k-2) tail past plim, which the
        # consistency check allows for; before that it raised below plim 373
        constants_bundle(n, plim, DIGITS)

    def test_bundle_n4(self):
        b = constants_bundle(4, PLIM, DIGITS)
        assert b.prefactor == Fraction(16, 3)
        with workdps(40):
            assert abs(b.C_star - Fraction(16, 3) * b.C_script) < mpf(10) ** -30
            assert abs(b.C_proj - b.C_star / (9 * mp.zeta(3))) < mpf(10) ** -25
        assert b.notes == ()

    def test_bundle_n8_uses_abs_bernoulli(self):
        b = constants_bundle(8, PLIM, DIGITS)
        assert b.prefactor == Fraction(2 * 8) / (Fraction(1, 30) * 15) * Fraction(8 * 6, 3 * 20)
        assert b.prefactor == Fraction(128, 5)
        assert any("negative" in note for note in b.notes)
        assert b.C_star > 0 and b.C_proj > 0

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_prefactor_is_the_eisenstein_ratio(self, n):
        # C*_n / C_script = 2 E_n n(n-2) / (3(3n-4)), where E_n = r_n(p) / r_n*(p)
        # at a large prime p: the lattice count over the multiplicative r*,
        # read without the Bernoulli prefactor.  r_4 and r_8 are pure
        # Eisenstein series, so the ratio is exact; from n = 12 on a cusp
        # form adds O(p^-(n/4-1/2)) relative to the Eisenstein part.
        p = 997
        e_n = Fraction(rn_exact_table(n, p)[p], rn_star(p, n // 4))
        want = 2 * e_n * Fraction(n * (n - 2), 3 * (3 * n - 4))
        b = constants_bundle(n, prime_limit=3000, digits=30)
        with workdps(40):
            rel = abs(b.C_star / b.C_script / (mpf(want.numerator) / want.denominator) - 1)
            tol = mpf(10) ** -25 if n <= 8 else 32 * mpf(p) ** (mpf(1) / 2 - mpf(n) / 4)
            assert rel < tol, (n, rel)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            constants_bundle(6, PLIM, DIGITS)

    @pytest.mark.parametrize("target, eps", [
        pytest.param("_g2", "1e-6", id="_g2"),
        pytest.param("euler_product_G", "1e-6", id="euler_product_G"),
        pytest.param("_g2", "1e-12", id="_g2-1e-12"),
        pytest.param("euler_product_G", "1e-12", id="euler_product_G-1e-12"),
    ])
    def test_twin_reads_neither_g2_nor_euler_product_G(self, monkeypatch, target, eps):
        # scaling either by 1 + eps moves C_script but not its expanded
        # twin, which is the same truncated product, so the consistency
        # check at 1e-30 must fire, in the library and as the CLI's exit 4
        orig = getattr(asymptotics, target)
        scale = 1 + mpf(eps)

        def patched(*args):
            v = orig(*args)
            return v * scale if target == "_g2" else dataclasses.replace(v, value=v.value * scale)

        constants_bundle.cache_clear()
        monkeypatch.setattr(asymptotics, target, patched)
        try:
            for k in (1, 2, 3):
                with pytest.raises(InternalConsistencyError, match="expanded"):
                    constants_bundle(4 * k, 3000, 30)
            assert cli.main(["constants", "--n", "8", "--prime-limit", "3000"]) == 4
        finally:
            constants_bundle.cache_clear()

    def test_verify_has_the_eisenstein_twin(self):
        # verify's constants suite checks C*/C against r_n(p)/r_n*(p) from
        # the lattice table for every n = 4k up to 16
        checks = {r.name: r for r in run_suite("constants", "quick")}
        for n in (4, 8, 12, 16):
            assert checks[f"eisenstein-n{n}"].ok, checks[f"eisenstein-n{n}"]

    def test_one_line_pass_and_memo(self, monkeypatch):
        # euler_product_G and the line pass sieve once each; repeated calls
        # with the CLI's arguments are memo hits
        calls = []
        orig = asymptotics.primes_upto
        monkeypatch.setattr(asymptotics, "primes_upto",
                            lambda limit: calls.append(limit) or orig(limit))
        constants_bundle.cache_clear()
        assert cli.main(["constants", "--n", "4", "--prime-limit", "3000"]) == 0
        assert calls == [3000, 3000]
        first = constants_bundle(4, prime_limit=3000, digits=30)
        assert constants_bundle(4, prime_limit=3000, digits=30) is first
        assert calls == [3000, 3000]


class TestPolyP:
    def test_leading_coefficient_matches_constant(self):
        for k in (1, 2, 3):
            b = constants_bundle(4 * k, PLIM, DIGITS)
            with workdps(40):
                assert abs(b.poly.a2 - b.C_script) / abs(b.C_script) < mpf(10) ** -25, k

    def test_matches_finite_difference_oracle(self):
        for k in (1, 2, 3):
            p = constants_bundle(4 * k, PLIM, DIGITS).poly
            a0, a1, a2, err = _poly_fd_oracle(k, DIGITS, PLIM)
            with workdps(40):
                assert err < mpf(10) ** -10, k
                assert abs(p.a1 - a1) <= err, k
                assert abs(p.a0 - a0) <= err, k
                assert abs(p.a2 - a2) / abs(a2) < mpf(10) ** -25, k

    @staticmethod
    def factor_taylor(p, k):
        # mp.taylor differentiates at several times the working precision,
        # and g_p evaluates at whatever precision is current
        return mp.taylor(lambda e: g_p(p, 1 + e, (6 * k - 3 - e) / 3, k), 0, 2)

    def test_odd_factor_jet(self):
        with workdps(60):
            for k in (1, 2, 3):
                for p in (3, 5, 101):
                    jet = _gp_odd_jet(p, k)
                    for got, want in zip((jet.c0, jet.c1, jet.c2), self.factor_taylor(p, k)):
                        assert abs(got - want) < mpf(10) ** -30, (p, k)

    def test_two_adic_factor_jet(self):
        with workdps(60):
            for k in (1, 2, 3):
                s = _Jet(mpf(1), mpf(1))
                jet = _g2(s, (6 * k - 2 - s) / 3, k)
                for got, want in zip((jet.c0, jet.c1, jet.c2), self.factor_taylor(2, k)):
                    assert abs(got - want) < mpf(10) ** -30, k

    # the 30-digit cases keep their bare prime-limit ids
    @pytest.mark.parametrize("prime_limit, digits", [
        pytest.param(plim, digits, id=str(plim) if digits == 30 else f"{plim}-{digits}")
        for digits in (30, 60, 120) for plim in (2, 3, 3000)])
    def test_matches_mpf_jet_pass(self, prime_limit, digits):
        for k in (1, 2, 3):
            p = constants_bundle(4 * k, prime_limit, digits).poly
            want = poly_P_mpf(k, digits, prime_limit)
            with workdps(digits + 20):
                for got, ref in zip((p.a0, p.a1, p.a2), want):
                    assert abs(got - ref) / abs(ref) < mpf(10) ** -(digits + 5), (k, got, ref)

    @pytest.mark.parametrize("digits", [30, 60, 120, 200])
    def test_gamma1_matches_stieltjes(self, digits):
        W = fixed_bits(digits)
        with workprec(W + 20):
            assert abs(_gamma1(W) - mp.ldexp(mp.stieltjes(1), W)) < 1

    @pytest.mark.parametrize("digits", [30, 120])
    def test_log_chain_within_one_unit(self, digits):
        W = fixed_bits(digits)
        primes = primes_upto(20_000)
        with workprec(W + 20):
            for p, lg in zip(primes, _log_chain(primes, W), strict=True):
                assert abs(lg - mp.ldexp(mp.log(p), W)) < 1, p

    def test_small_prime_limit(self):
        with pytest.raises(ValueError):
            constants_bundle(4, 1, DIGITS)
        p = constants_bundle(4, 2, DIGITS).poly
        _, a1, _, err = _poly_fd_oracle(1, DIGITS, 2)
        with workdps(40):
            assert abs(p.a1 - a1) <= err

    def test_polynomial_evaluation(self):
        p = constants_bundle(4, PLIM, DIGITS).poly
        with workdps(40):
            t = mpf("1.7")
            assert abs(p(t) - (p.a2 * t**2 + p.a1 * t + p.a0)) == 0
            assert p.deriv2(t) == 2 * p.a2


class TestPredictors:
    def test_T_over_S_leading_is_quarter(self):
        with workdps(40):
            B = mpf(1000)
            r = predict_T(B) / predict_S(B, B * B, 1, "leading")
            assert abs(r - mpf(1) / 4) < mpf(10) ** -30

    def test_full_at_psi_zero(self):
        poly = constants_bundle(4).poly
        with workdps(40):
            x = mpf(50)
            got = predict_S(x, x**3, 1, "full")
            want = x * x**3 * (4 * poly.a0 + mpf(4) / 3 * poly.a1 - mpf(2) / 3 * poly.a2)
            assert abs(got - want) / abs(want) < mpf(10) ** -30

    def test_nstar_consistency_with_S_minus_T(self):
        with workdps(40):
            B = mpf(5000)
            lhs = 16 * (predict_S(B, B * B, 1, "leading") - predict_T(B))
            rhs = predict_counts(B, 4)[0]
            assert abs(lhs - rhs) / rhs < mpf(10) ** -25

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            predict_S(5, 25, 1)
        with pytest.raises(DomainError):
            predict_S(100, 100**4, 1)
        with pytest.raises(DomainError):
            predict_T(2)

    def test_full_predictor_tracks_k2_sums(self):
        # x y^3 (8P + (10/3)P' - P''/3) should sit within a few percent of
        # the exact k=2 sums already at modest B, closing as B grows
        from manincount.counting import s_sum

        with workdps(40):
            r400 = s_sum(400, 400**2, 2) / predict_S(400, 400**2, 2, "full")
            r1600 = s_sum(1600, 1600**2, 2) / predict_S(1600, 1600**2, 2, "full")
            assert abs(r400 - 1) < mpf("0.06")
            assert abs(r1600 - 1) < mpf("0.04")
            assert abs(r1600 - 1) < abs(r400 - 1)
