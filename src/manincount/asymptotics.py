"""High-precision Euler products, the constants driving the point-count
asymptotics, the residue polynomial P(t), and the main-term predictors.

The constants run through mpmath at a caller-chosen number of digits
(30 minimum; double precision has no headroom for the dual-route
identities), zbar and the main-term predictors at _DEFAULT_DIGITS.  Two
passes run over the odd primes, both in exact integer fixed point:
euler_product_G, and the line pass that carries G's odd part on the
line w = (6k-2-s)/3 as a jet in s - 1.  Each factor is a
Python int scaled by 2^W, W the working precision plus _FIXED_GUARD_BITS,
the primes are multiplied in ascending order with one truncation per
multiply, and the result becomes an mpf once.  So a given
(s, w, k, prime_limit, digits) always reproduces the same bits.  The line
pass takes its ln p from a chain of atanh series over consecutive primes,
and P(t) its Stieltjes constant gamma_1 from an Euler-Maclaurin sum, both
in fixed point with their own guard bits sized from the prime count and
from W.  constants_bundle runs each pass once per (n, prime_limit, digits):
the line pass gives P(t) and, from its value term over its denominator,
the expanded twin of C_script, truncated at the same primes as the compact
form, so the two agree to the working precision.  closed_form_C4, the
independent twin of (3/16) G(1, 1), is exact.

Normalization note: the leading constant is defined here as
C_script(4k) = (3 / (16 k (2k-1))) * G(1, 2k-1), with the matching
expanded form (27/512) zeta(4) prod_p>2 (...) at k = 1, whose odd
factor is (1 - p^-3)^2, so that C_script(4) = 27 zeta(4) / (392 zeta(3)^2).
The routes agree within the tail bounds, and the exact counters converge
to these values (ratio -> 1 with O(1/log B) error); see the acceptance
suite's trend criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from mpmath import mp, mpf, workdps, workprec

from .arith import bernoulli, primes_upto

__all__ = [
    "ConstantsBundle",
    "DomainError",
    "EulerProductValue",
    "InternalConsistencyError",
    "NumericalError",
    "PolynomialP",
    "closed_form_C4",
    "constants_bundle",
    "euler_product_G",
    "predict_S",
    "predict_T",
    "predict_counts",
    "zbar",
]

_GUARD_DIGITS = 10
# one truncation of at most one unit of 2^-W per multiply, a handful of
# multiplies per prime: 40 bits absorb them for any prime count below 2^30
_FIXED_GUARD_BITS = 40
_DEFAULT_PRIME_LIMIT = 100_000
_DEFAULT_DIGITS = 30
# distance from the edge of the absolute convergence region that
# _check_domain requires of every (s, w)
_DOMAIN_EPS = 1e-9


class DomainError(ValueError):
    """Argument outside the convergence / validity region."""


class InternalConsistencyError(RuntimeError):
    """Two supposedly equal evaluation routes disagree beyond tolerance."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge as required."""


@dataclass(frozen=True)
class EulerProductValue:
    """A truncated Euler product with a rigorous multiplicative tail bound.

    The untruncated product lies in [value*(1-tail_bound), value*(1+tail_bound)].
    """

    value: mpf
    tail_bound: mpf


@dataclass(frozen=True)
class PolynomialP:
    """The residue quadratic P(t) = a2 t^2 + a1 t + a0 with derivative data."""

    a0: mpf
    a1: mpf
    a2: mpf

    def __call__(self, t) -> mpf:
        return self.a2 * t**2 + self.a1 * t + self.a0

    def deriv1(self, t) -> mpf:
        return 2 * self.a2 * t + self.a1

    def deriv2(self, t) -> mpf:
        return 2 * self.a2


@dataclass(frozen=True)
class ConstantsBundle:
    """The constants and the residue quadratic P(t) (poly) for one dimension
    n = 4k, with the prefactor C*/C, the tail bound and the notes."""

    C_script: mpf
    C_star: mpf
    C_proj: mpf
    poly: PolynomialP
    prefactor: Fraction
    tail_bound: mpf
    notes: tuple[str, ...] = ()


def zbar(sigma) -> mpf:
    """(sigma - 1) * zeta(sigma), analytic through sigma = 1.

    Exactly 1 at sigma = 1.  Elsewhere zeta runs at _DEFAULT_DIGITS, with
    the working precision raised by the -mag(sigma - 1) bits it loses near
    its pole, so the triple-pole cancellation in g_k(s) stays stable at
    points near s = 1 (the finite-difference route to P(t) in the verify
    suites).
    """
    with workdps(_DEFAULT_DIGITS + _GUARD_DIGITS):
        sigma = mpf(sigma)
        x = sigma - 1
        if not x:
            return mpf(1)
        with workprec(mp.prec + max(0, -mp.mag(x))):
            v = x * mp.zeta(sigma)
        return +v


def _check_domain(s, w, k: int) -> None:
    """Require min_j (s + j w - j(2k-1)) >= 1/2 + _DOMAIN_EPS, the region
    where every Euler factor G_p(s, w) converges absolutely."""
    for j in range(4):
        if s + j * w - j * (2 * k - 1) < mpf(1) / 2 + _DOMAIN_EPS:
            raise DomainError(
                f"(s, w) = ({s}, {w}) violates s + {j}w - {j}(2k-1) >= 1/2 + eps for k={k}"
            )


def _g2(s, w, k: int) -> mpf:
    two = mpf(2)
    q = 2 ** (2 * k - 1)
    sign = -1 if k % 2 else 1
    a = 1 - mpf(sign) / (1 - q)
    b = mpf(sign) * (1 - 2 ** (2 * k)) / (1 - q)
    pr = mpf(1)
    for j in (1, 2, 3):
        pr *= 1 - two ** (-(s + j * w - j * (2 * k - 1)))
    mid = (
        1
        + a
        * (1 + two ** (-w + (2 * k - 1)) + two ** (-2 * w + 2 * (2 * k - 1)))
        / (two ** (s + w - (2 * k - 1)) - two ** (-2 * w + 2 * (2 * k - 1)))
        - b * two ** (-s - w) * (1 + two ** (-w) + two ** (-2 * w)) / (1 - two ** (-s - 3 * w))
    )
    return pr * mid


def _tail_log_bound(s, w, k: int, P: int) -> mpf:
    """Upper bound for sum_{p > P} |log G_p(s, w)|.

    At the balanced point (1, 1, k=1) the factor is (1 - p^-3)^2/(1 - p^-4)
    and the sharp bound sum 3/p^3 <= 3/(2 P^2 log P) applies.  Elsewhere a
    proven envelope |G_p - 1| <= 1.1 (3 p^-2m + 2 p^-3m + 15 p^-(m+2k-1)
    + p^-(m+3)), m = min_j (s + jw - j(2k-1)), is integrated term by term.
    """
    if (k, s, w) == (1, 1, 1):
        return mpf(3) / (2 * mpf(P) ** 2 * mp.log(P))
    m0 = min(mpf(s) + j * mpf(w) - j * (2 * k - 1) for j in range(4))

    def tail_power(a: mpf) -> mpf:
        # sum_{n > P} n^-a <= P^(1-a) / (a - 1)
        return mpf(P) ** (1 - a) / (a - 1)

    env = mpf("1.1") * (
        3 * tail_power(2 * m0)
        + 2 * tail_power(3 * m0)
        + 15 * tail_power(m0 + 2 * k - 1)
        + tail_power(m0 + 3)
    )
    return mpf("1.01") * env


def euler_product_G(
    s,
    w,
    k: int = 1,
    prime_limit: int = _DEFAULT_PRIME_LIMIT,
    digits: int = _DEFAULT_DIGITS,
) -> EulerProductValue:
    """G(s, w) = prod_p G_p(s, w) truncated at prime_limit, with tail bound.

    At an odd prime p, with z = p^(2k-1) and X_b = p^-(s + b w),
    G_p = [1 + (z+1) X_1 + (z^2+z+1) X_2 + (z^2+z) X_3 + z^2 X_2^2]
    (1 - z X_1) (1 - z^2 X_2) / (1 - X_3), taken here in fixed point.
    Its nine monomials z^c p^-(a s + b w) = p^-(a s + b w - c(2k-1)) have
    exponents >= 1/2 on the domain.  Write t_b = s + b w = n_b + f_b with
    n_b an integer and 0 <= f_b < 1; then a = 1 monomials are p^-f_b //
    p^(n_b - c(2k-1)), the one with a = 2 is the square of (b, c) = (2, 1),
    and p^-f_b is exactly 1 when t_b is an integer, else one exp per prime.
    """
    _check_domain(s, w, k)
    if prime_limit < 2:
        raise ValueError("prime_limit must be >= 2")
    primes = primes_upto(prime_limit)
    with workdps(digits + _GUARD_DIGITS):
        s = mpf(s)
        w = mpf(w)
        q = 2 * k - 1
        splits = []
        for b in (1, 2, 3):
            t = s + b * w
            n = int(mp.floor(t))
            splits.append((n, t - n))
        (n1, f1), (n2, f2), (n3, f3) = splits
        fractional = any(f for _, f in splits)
        W = mp.prec + _FIXED_GUARD_BITS
        one = 1 << W
        num = den = one
        x1 = x2 = x3 = one
        with workprec(W):
            for p in primes[1:]:
                if fractional:
                    lg = mp.log(p)
                    x1, x2, x3 = (int(mp.ldexp(mp.exp(-f * lg), W)) if f else one
                                  for f in (f1, f2, f3))
                # m_bc = z^c X_b with X_b = p^-t_b; floor(floor(x/a)/b) = floor(x/ab),
                # so each is exactly x_b // p^(n_b - cq)
                z = p**q
                m11 = x1 // p ** (n1 - q)
                m10 = m11 // z
                m22 = x2 // p ** (n2 - 2 * q)
                m21 = m22 // z
                m20 = m21 // z
                m32 = x3 // p ** (n3 - 2 * q)
                m31 = m32 // z
                m30 = m31 // z
                # G_p = [1 + (z+1) X1 + (z^2+z+1) X2 + (z^2+z) X3 + z^2 X2^2]
                #       (1 - z X1)(1 - z^2 X2) / (1 - X3)
                top = one + m10 + m11 + m20 + m21 + m22 + m31 + m32 + (m21 * m21 >> W)
                num = num * top * (one - m11) * (one - m22) >> 3 * W
                den = den * (one - m30) >> W
        prod = _g2(s, w, k) * mp.ldexp(num, -W) / mp.ldexp(den, -W)
        tail_log = _tail_log_bound(s, w, k, prime_limit)
        return EulerProductValue(+prod, +mp.expm1(tail_log))


def closed_form_C4(digits: int = _DEFAULT_DIGITS) -> mpf:
    """C_script(4) = 27 zeta(4) / (392 zeta(3)^2), the untruncated value.

    At (s, w) = (1, 1) the odd factor of G is (1 - p^-3)^2 / (1 - p^-4) and
    _g2 is 3/10, so (3/16) G(1, 1) = (3/16) (3/10) (15/16) (8/7)^2
    zeta(4) / zeta(3)^2.  Every factor past a prime limit is below 1, so a
    truncated (3/16) G(1, 1) exceeds this value.
    """
    with workdps(digits + _GUARD_DIGITS):
        return +(27 * mp.zeta(4) / (392 * mp.zeta(3) ** 2))


# ---------------------------------------------------------------------------
# the line pass, the residue polynomial and the constants bundle


class _Jet:
    """c0 + c1 e + c2 e^2 modulo e^3: the value and first two Taylor
    coefficients of a function of e at e = 0.  Mixes with mpf and int
    scalars, so formulas written for mpf arguments run on jets unchanged."""

    __slots__ = ("c0", "c1", "c2")

    def __init__(self, c0, c1=mpf(0), c2=mpf(0)):
        self.c0, self.c1, self.c2 = c0, c1, c2

    def __add__(self, o):
        if isinstance(o, _Jet):
            return _Jet(self.c0 + o.c0, self.c1 + o.c1, self.c2 + o.c2)
        return _Jet(self.c0 + o, self.c1, self.c2)

    __radd__ = __add__

    def __neg__(self):
        return _Jet(-self.c0, -self.c1, -self.c2)

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if isinstance(o, _Jet):
            a0, a1, a2 = self.c0, self.c1, self.c2
            b0, b1, b2 = o.c0, o.c1, o.c2
            return _Jet(a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0)
        return _Jet(self.c0 * o, self.c1 * o, self.c2 * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, _Jet):
            return _Jet(self.c0 / o, self.c1 / o, self.c2 / o)
        q0 = self.c0 / o.c0
        q1 = (self.c1 - q0 * o.c1) / o.c0
        return _Jet(q0, q1, (self.c2 - q0 * o.c2 - q1 * o.c1) / o.c0)

    def __rpow__(self, base):
        # base^(c0 + c1 e + c2 e^2) = base^c0 exp(c1 L e + c2 L e^2), L = log base
        lg = mp.log(base)
        v = base**self.c0
        d1 = self.c1 * lg
        return _Jet(v, v * d1, v * (self.c2 * lg + d1 * d1 / 2))


def _fixed_jet_mul(x: tuple[int, int, int], y: tuple[int, int, int], W: int
                   ) -> tuple[int, int, int]:
    """The product of two degree-2 jets whose coefficients are ints scaled by 2^W."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    return x0 * y0 >> W, (x0 * y1 + x1 * y0) >> W, (x0 * y2 + x1 * y1 + x2 * y0) >> W


def _log_chain(xs, bits: int):
    """Yield round(2^bits ln x), within one unit, for each x of xs.

    xs is a sized, increasing sequence of ints >= 2, each at most twice the
    one before it (consecutive primes or integers).  The logs come from one
    fixed-point sum at bits + G bits: ln x = ln q + 2 atanh((x - q)/(x + q)),
    q the previous x and q = 1 first, so ln 2 = 2 atanh(1/3).  As
    (x - q)/(x + q) <= 1/3, each atanh series stops after at most
    (bits + G)/3 + 1 terms and each term truncates by less than 2.2 units;
    so G = bit_length(3 len(xs) (bits + 64)) keeps the whole chain's error
    below 2^(G-1), and every rounded value within one unit.
    """
    G = (3 * len(xs) * (bits + 64)).bit_length()
    B = bits + G
    half = 1 << (G - 1)
    acc, q = 0, 1
    for x in xs:
        d, s = x - q, x + q
        t = tot = (d << B) // s
        d2, s2, i = d * d, s * s, 3
        while t:
            t = t * d2 // s2
            tot += t // i
            i += 2
        acc += 2 * tot
        q = x
        yield (acc + half) >> G


def _gamma1(bits: int) -> int:
    """round(2^bits gamma_1), within one unit; gamma_1 the first Stieltjes constant.

    Euler-Maclaurin on f(x) = ln x / x, with f^(m)(x) = (-1)^m m! (ln x - H_m) / x^(m+1):
    gamma_1 = sum_{k<N} f(k) - (ln N)^2/2 + f(N)/2
              + sum_{j<=J} (B_2j / 2j) (ln N - H_(2j-1)) / N^2j,
    with B_2j / 2j = (-1)^(j-1) T_j / (4^j (4^j - 1)), T_j the tangent numbers.
    J is the largest j with H_2j < ln N, so f^(2J) keeps one sign on [N, oo)
    and the remainder is at most the j = J term, |B_2J| / (2J)! |f^(2J-1)(N)|.
    N = 2 bits / 5 + 10 makes that term at most one unit of 2^-(bits + G),
    which is checked; the < 4N units of truncation sit below the G guard bits.
    """
    N = 2 * bits // 5 + 10
    G = (8 * N).bit_length()
    B = bits + G
    logs = [0, 0, *_log_chain(range(2, N + 1), B)]
    ln_n = logs[N]
    # H_(2j-1) for each j with H_2j < ln N, tested against ln_n - 1 < ln N
    h_odd, h, m = [], Fraction(1), 1
    while (h2 := h + Fraction(1, m + 1)).numerator << B < (ln_n - 1) * h2.denominator:
        h_odd.append(h)
        h = h2 + Fraction(1, m + 2)
        m += 2
    J = len(h_odd)
    # Brent-Harvey: the tangent numbers T_1..T_J in O(J^2) integer steps
    tan = [0, 1] + [0] * (J - 1)
    for j in range(2, J + 1):
        tan[j] = (j - 1) * tan[j - 1]
    for i in range(2, J + 1):
        for j in range(i, J + 1):
            tan[j] = (j - i) * tan[j - 1] + (j - i + 2) * tan[j]
    val = sum(logs[k] // k for k in range(2, N)) - (ln_n * ln_n >> B) // 2 + ln_n // (2 * N)
    t = 1 << B
    for j, hj in enumerate(h_odd, 1):
        t = (tan[j] * (ln_n * hj.denominator - (hj.numerator << B))
             // (hj.denominator * 4**j * (4**j - 1) * N ** (2 * j)))
        val += t if j % 2 else -t
    if t > 1:
        raise NumericalError(f"gamma_1 at {bits} bits: the Euler-Maclaurin remainder "
                             f"bound {t} exceeds one unit")
    return (val + (1 << (G - 1))) >> G


def _line_pass(k: int, prime_limit: int, W: int) -> tuple[tuple[int, int, int], int]:
    """The odd part of G(s, (6k-2-s)/3) over the primes 2 < p <= prime_limit,
    as (numerator jet in e = s - 1, denominator product), all scaled by 2^W.

    On the line w = (6k-2-s)/3 every exponent of the odd factor is an
    integer plus a multiple of e.  With u = 1/p, E1 = p^(-2e/3) and
    E2 = p^(-e/3),
    G_p = [1 + u^2k + u^(4k-1) + (u + u^2k + u^4k) E1 + (u + u^2k + u^(4k-1)) E2]
          (1 - u E1)(1 - u E2) / (1 - u^(6k-2)),
    and with L = log p, E1 = 1 - (2L/3) e + (2L^2/9) e^2 and
    E2 = 1 - (L/3) e + (L^2/18) e^2.  So, with a, b the brackets of E1, E2,
    n0 = 1 + u^2k + u^(4k-1) + a + b and r = 1 - u, the numerator
    [...] (1 - u E1)(1 - u E2) is the jet (c0, L beta, L^2 gamma) with c0 = n0 r^2,
    beta = r (n0 u - (2a + b) r/3) and
    gamma = (4a + b) r^2/18 - (2a + b) r u/3 + n0 (4u^2 - 5ru)/18,
    one fixed-point jet multiply per prime; the denominators are one
    separate product.  c0 = (1 + 2u + 3u^2k + 2u^(4k-1) + u^4k)(1 - u)^2 is
    the odd factor of C_script's expanded form, so the numerator's value
    term over the denominators is that form's odd product.

    There is no mpmath call per prime: each 2^W L comes from _log_chain,
    within one unit.  The _FIXED_GUARD_BITS that W carries past the
    working precision absorb the one-unit truncations, a few dozen per
    prime, for any prime count below 2^30.
    """
    primes = primes_upto(prime_limit)
    one = 1 << W
    num = (one, 0, 0)
    den = one
    chain = zip(primes, _log_chain(primes, W))
    next(chain)  # ln 2 seeds the chain; the 2-adic factor is _g2's
    for p, lg in chain:
        u = one // p
        u2k = one // p ** (2 * k)
        u4k1 = one // p ** (4 * k - 1)
        a = u + u2k + one // p ** (4 * k)
        b = u + u2k + u4k1
        n0 = a + b + one + u2k + u4k1
        r = one - u
        c = 2 * a + b
        beta3 = r * (3 * n0 * u - c * r) >> 2 * W
        gamma18 = (((2 * c - b) * r - 6 * c * u) * r + n0 * (4 * u - 5 * r) * u) >> 2 * W
        num = _fixed_jet_mul(num, (n0 * r * r >> 2 * W, lg * beta3 // 3 >> W,
                                   (lg * lg >> W) * gamma18 // 18 >> W), W)
        den = den * (one - one // p ** (6 * k - 2)) >> W
    return num, den


@cache
def constants_bundle(
    n: int,
    prime_limit: int = _DEFAULT_PRIME_LIMIT,
    digits: int = _DEFAULT_DIGITS,
) -> ConstantsBundle:
    """All constants for dimension n = 4k, memoized per argument tuple.

    C_script = (3 / (16 k (2k-1))) G(1, 2k-1) from euler_product_G.  Its
    expanded twin is an exact dyadic prefactor over 1 - 2^-(6k-2) times the
    odd-prime product of (1 + 2/p + 3/p^2k + 2/p^(4k-1) + 1/p^4k)(1 - 1/p)^2
    / (1 - p^-(6k-2)), the value term of _line_pass's numerator over its
    denominator; it reads neither _g2 nor euler_product_G.  Both forms are
    the same product truncated at prime_limit, so a relative disagreement
    beyond 10^-digits raises InternalConsistencyError.

    poly is the residue quadratic P(t): a2 = g(1)/2, a1 = g'(1),
    a0 = g''(1)/2 for g_k(s) = 3 (s-1)^3 F3*(s) / ((6k-2-s)(6k+1-s) s (s+1)),
    F3* carrying G(s, (6k-2-s)/3), whose value, slope and curvature drive
    the S(x, y) main term.  The triple pole cancels analytically:
    (s-1)^3 zeta(s) zeta((2s+1)/3) zeta((s+2)/3) = (9/2) zb(s) zb((2s+1)/3) zb((s+2)/3).
    Every factor is a degree-2 jet in e = s - 1: the odd Euler product from
    the same line pass, _g2 on jets, and each zb from its Stieltjes series
    zb(1 + a e) = 1 + a g0 e - a^2 g1 e^2 + O(e^3), g1 = gamma_1 from
    _gamma1 within one unit of 2^-W.  The derivatives are exact for the
    product truncated at prime_limit.

    C_star = C_script * (2n / (|B_{n/2}| (2^{n/2} - 1))) * (n(n-2) / (3(3n-4)))
    with the rational prefactor kept exact (16/3 at n = 4), and
    C_proj = C_star / ((n-1)^2 zeta(n-1)).
    """
    if n < 4 or n % 4 != 0:
        raise ValueError(f"n must be a positive multiple of 4, got {n}")
    k = n // 4
    g = euler_product_G(1, 2 * k - 1, k, prime_limit, digits)
    b = bernoulli(n // 2)
    notes = []
    if b < 0:
        notes.append(
            f"B_{n // 2} = {b} is negative; the affine prefactor uses |B_{n // 2}| "
            "(the only sign making the count positive)"
        )
    pref = Fraction(2 * n) / (abs(b) * (2 ** (n // 2) - 1)) * Fraction(n * (n - 2), 3 * (3 * n - 4))
    with workdps(digits + _GUARD_DIGITS):
        W = mp.prec + _FIXED_GUARD_BITS
        num, den = _line_pass(k, prime_limit, W)
        c_script = mpf(3) / (16 * k * (2 * k - 1)) * g.value

        sign = -1 if k % 2 else 1
        half = Fraction(1, 2)
        bracket = (2 ** (2 * k + 1) - 4) * (1 - half ** (6 * k - 2)) + sign * (
            2 - half ** (2 * k) - half ** (4 * k - 1) - half ** (6 * k - 3)
        )
        dyadic = Fraction(3) * bracket / (128 * k * (2 * k - 1) * (2 ** (2 * k - 1) - 1))
        dyadic /= 1 - half ** (6 * k - 2)
        expanded = (mpf(dyadic.numerator) / dyadic.denominator * mp.ldexp(num[0], -W)
                    / mp.ldexp(den, -W))
        rel = abs(c_script - expanded) / abs(c_script)
        tol = mpf(10) ** -digits
        if rel > tol:
            raise InternalConsistencyError(
                f"constants_bundle(n={n}): compact and expanded forms of C_script differ by "
                f"{mp.nstr(rel, 6)} relative (tolerance {mp.nstr(tol, 6)})"
            )

        s = _Jet(mpf(1), mpf(1))
        w = (6 * k - 2 - s) / 3
        odd = _Jet(*(mp.ldexp(c, -W) for c in num)) / mp.ldexp(den, -W)
        gk = _g2(s, w, k) * odd
        g0, g1 = +mp.euler, mp.ldexp(_gamma1(W), -W)
        for a in (1, mpf(2) / 3, mpf(1) / 3):
            gk = gk * _Jet(mpf(1), a * g0, -a * a * g1)
        gk = mpf(27) / 2 * gk / ((6 * k - 2 - s) * (6 * k + 1 - s) * s * (s + 1))
        poly = PolynomialP(a0=+gk.c2, a1=+gk.c1, a2=+(gk.c0 / 2))

        znm1 = +mp.zeta(n - 1)
        c_star = +(mpf(pref.numerator) / pref.denominator * c_script)
        c_proj = +(c_star / ((n - 1) ** 2 * znm1))
    return ConstantsBundle(
        C_script=c_script,
        C_star=c_star,
        C_proj=c_proj,
        poly=poly,
        prefactor=pref,
        tail_bound=g.tail_bound,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# main-term predictors


def predict_S(x, y, k: int = 1, mode: str = "full") -> mpf:
    """Main term of S(x, y) (no error term), from constants_bundle(4k) at
    its default prime limit and digits.

    mode='full': x y^(2k-1) (4k P(psi) + (2k - 2/3) P'(psi) - (1/3) P''(psi))
    with psi = log x - (1/3) log y; mode='leading': 4k C_script x y^(2k-1) psi^2.
    At k = 1 these are the familiar xy (4P + (4/3)P' - (1/3)P'') and
    4 C xy psi^2.  Arguments outside 10 <= x <= y <= x^3 raise DomainError.

    This is a main term with no proven power saving.  At k = 1 and
    y = x^lambda the residual (S - full)/(xy), measured at x = 3000 and
    30000, is -3.8 and -5.9 at lambda = 1.2, -0.03 and -0.05 at 2.0, and
    +0.007 and +0.011 at 2.9; its size grows with x at each of these.
    """
    if mode not in ("full", "leading"):
        raise ValueError(f"mode must be 'full' or 'leading', got {mode!r}")
    with workdps(_DEFAULT_DIGITS + _GUARD_DIGITS):
        x = mpf(x)
        y = mpf(y)
        if x < 10 or y < x or y > x**3:
            raise DomainError(f"need 10 <= x <= y <= x^3, got x={x}, y={y}")
        poly = constants_bundle(4 * k).poly
        psi = mp.log(x) - mp.log(y) / 3
        scale = x * y ** (2 * k - 1)
        if mode == "leading":
            return +(4 * k * poly.a2 * scale * psi**2)
        main = (
            4 * k * poly(psi)
            + (2 * k - mpf(2) / 3) * poly.deriv1(psi)
            - poly.deriv2(psi) / 3
        )
        return +(scale * main)


def predict_T(B) -> mpf:
    """Main term of T(B) at n = 4: (1/9) C_script B^3 (log B)^2, from
    constants_bundle(4) at its default prime limit and digits.

    Only n = 4 has one: the dyadic bracketing that produces the 1/9 has
    only been worked out for that case.
    """
    with workdps(_DEFAULT_DIGITS + _GUARD_DIGITS):
        B = mpf(B)
        if B < 10:
            raise DomainError(f"need B >= 10, got {B}")
        poly = constants_bundle(4).poly
        return +(poly.a2 / 9 * B**3 * mp.log(B) ** 2)


def predict_counts(B, n: int = 4) -> tuple[mpf, mpf]:
    """(N*_n prediction, N_n prediction) = (C*_n B^(n-1) (log B)^2, C_n B (log B)^2),
    from constants_bundle(n) at its default prime limit and digits."""
    bundle = constants_bundle(n)
    with workdps(_DEFAULT_DIGITS + _GUARD_DIGITS):
        B = mpf(B)
        if B < 10:
            raise DomainError(f"need B >= 10, got {B}")
        lg2 = mp.log(B) ** 2
        return +(bundle.C_star * B ** (n - 1) * lg2), +(bundle.C_proj * B * lg2)
