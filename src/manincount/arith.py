"""Exact integer arithmetic kernel.

Factorization, the multiplicative sum-of-squares companions r4*/rn*,
exact r_n tables built by lattice convolution, Bernoulli numbers and a
Moebius sieve.  Everything here is exact: values are Python ints or
Fractions, never floats.
"""

from __future__ import annotations

import decimal
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Sequence

__all__ = [
    "Factorization",
    "ResourceBudgetError",
    "bernoulli",
    "factorize",
    "is_prime",
    "mobius_sieve",
    "primes_upto",
    "r4",
    "r4_star",
    "rn_exact_table",
    "rn_star",
    "rn_star_prime_powers",
]

# Trial division handles cofactors up to this bound squared before the
# rho stage kicks in.
_TRIAL_BOUND = 100_000

# Peak bytes (by _table_bytes) that rn_exact_table may hold.
_TABLE_MEMORY_BUDGET = 1 << 31

# Witnesses proving primality for every n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class ResourceBudgetError(RuntimeError):
    """Raised when a table or enumeration would exceed its memory budget."""


def primes_upto(n: int) -> list[int]:
    """All primes <= n by a bytearray sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, n + 1) if sieve[i]]


def is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for n < 3.3e24; extra witnesses beyond."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = _MR_BASES
    if n >= 3_317_044_064_679_887_385_961_981:
        rng = random.Random(n)
        bases = _MR_BASES + tuple(rng.randrange(2, n - 1) for _ in range(20))
    for a in bases:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime-power decomposition ``value = prod p**e``.

    ``factors`` is a tuple of (prime, exponent) pairs with strictly
    increasing primes and all exponents >= 1; ``value == 1`` iff the
    tuple is empty.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.value < 1:
            raise ValueError(f"value must be >= 1, got {self.value}")
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            last = p
            prod *= p**e
        if prod != self.value:
            raise ValueError(f"factors multiply to {prod}, not {self.value}")


def _rho_brent(n: int, rng: random.Random) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    return tuple(primes_upto(_TRIAL_BOUND))


@lru_cache(maxsize=200_000)
def _factor_cached(m: int) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for p in _trial_primes():
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        if m < _TRIAL_BOUND * _TRIAL_BOUND or is_prime(m):
            out.append((m, 1))
        else:
            # rho stage, seeded by the cofactor for determinism
            pending = [m]
            found: dict[int, int] = {}
            rng = random.Random(m)
            while pending:
                c = pending.pop()
                if is_prime(c):
                    found[c] = found.get(c, 0) + 1
                    continue
                d = _rho_brent(c, rng)
                pending.extend([d, c // d])
            for p in sorted(found):
                out.append((p, found[p]))
    return tuple(sorted(out))


def factorize(m: int) -> Factorization:
    """Exact factorization of m >= 1.

    Trial division by sieved primes, then deterministic-seeded Brent rho
    for any remaining large cofactor.  Results are memoized; the cache is
    per-process and never changes the returned value.
    """
    if m < 1:
        raise ValueError(f"cannot factorize {m}; need a positive integer")
    return Factorization(m, _factor_cached(m))


def rn_star_prime_powers(p: int, emax: int, k: int = 1) -> list[int]:
    """[r_{4k}*(p^j) for j = 0..emax], exact integers.

    For p > 2 this is the geometric sum 1 + p^(2k-1) + ... + p^(j(2k-1)).
    For p = 2 and j >= 1 it is (-1)^k * (-1 + q + q^2 + ... + q^(j-1)) + q^j
    with q = 2^(2k-1); at k = 1 every entry past j = 0 equals 3.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q = p ** (2 * k - 1)
    vals = [1]
    if p == 2:
        sign = -1 if k % 2 else 1
        geo = 0  # q + q^2 + ... + q^(j-1)
        qj = 1
        for j in range(1, emax + 1):
            qj *= q
            vals.append(sign * (geo - 1) + qj)
            geo += qj
    else:
        acc = 1
        qj = 1
        for _ in range(emax):
            qj *= q
            acc += qj
            vals.append(acc)
    return vals


def rn_star(f: Factorization, k: int = 1) -> int:
    """Multiplicative r_{4k}*(value); rn_star(f, 1) == r4_star(f)."""
    out = 1
    for p, e in f.factors:
        out *= rn_star_prime_powers(p, e, k)[e]
    return out


def r4_star(f: Factorization) -> int:
    """Sum of the divisors of value not divisible by 4.

    Computed multiplicatively: (p^(e+1)-1)/(p-1) for odd p, a factor 3
    for any positive power of 2.
    """
    return rn_star(f, 1)


def r4(d: int) -> int:
    """Number of (y1..y4) in Z^4 with y1^2+...+y4^2 = d, via 8*r4_star."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return 8 * r4_star(factorize(d))


def _convolve_exact(a: Sequence[int], b: Sequence[int], length: int) -> list[int]:
    """First ``length`` entries of the additive convolution of nonnegative a and b.

    Kronecker substitution: a and b become the integers sum a_i 10**(w i)
    and sum b_j 10**(w j), written in decimal with a fixed slot of w
    digits per entry, and one exact decimal product (libmpdec multiplies
    large operands by a number-theoretic transform) carries entry k of the
    convolution in slot k.  For nonnegative input entry k is
    sum_i a_i b_(k-i) <= sum(a) * max(b), and symmetrically
    <= max(a) * sum(b); w is the digit count of the smaller bound, so
    every entry is below 10**w, no slot carries into the next, and each
    slot read back is the exact entry.
    Entries past ``length`` in a or b cannot reach the first ``length``
    slots and are dropped before packing.
    """
    if length <= 0:
        return []
    a, b = a[:length], b[:length]
    if not a or not b:
        return [0] * length
    if min(a) < 0 or min(b) < 0:
        raise ValueError("_convolve_exact needs nonnegative entries")
    w = len(str(min(sum(a) * max(b), max(a) * sum(b))))
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])
    product = ctx.multiply(decimal.Decimal("".join([str(x).zfill(w) for x in reversed(a)])),
                           decimal.Decimal("".join([str(x).zfill(w) for x in reversed(b)])))
    width = length * w
    digits = str(product)[-width:].zfill(width)
    return [int(digits[i : i + w]) for i in range(width - w, -1, -w)]


def _table_bytes(n: int, limit: int) -> int:
    """Upper estimate of the bytes ``rn_exact_table(n, limit)`` holds at its peak.

    Every r_m(d) with d <= limit counts points of a cube of side
    2 isqrt(limit) + 1 in Z^m, so w = digits((2 isqrt(limit) + 1)**n)
    bounds every table entry and every Kronecker slot width.  Per entry
    the peak holds seven list slots (theta, r2, r4, the running table,
    the output and the two truncated operands), four Python ints of at
    most w digits (28 bytes plus 4 per further 30-bit digit), and the
    buffers of one product, under 10 w bytes: the packed operands and
    their product as decimals (8 bytes per 19 digits), libmpdec's
    transform arrays (four, each at most twice the product's words) and
    the product's digit string with its slice.  A fixed 4 KiB covers the
    decimal context and the list headers at tiny limits.
    """
    w = len(str((2 * isqrt(limit) + 1) ** n))
    return 4096 + (limit + 1) * (7 * 8 + 4 * (32 + w // 2) + 10 * w)


def rn_exact_table(n: int, limit: int) -> list[int]:
    """Exact r_n(d) for d = 0..limit, n a positive multiple of 4.

    Built purely by lattice counting: the one-dimensional theta table
    (y^2 = d has 1 solution at d=0, 2 at each positive square) is
    convolved up to r4, then r4 is convolved (n/4)-fold.  No
    divisor-sum formula is involved, so this is an independent oracle
    for the r4/rn_star route.

    Each convolution is one exact Kronecker-substitution product
    (``_convolve_exact``), O(L log L) in the table length L.  All inputs
    are nonnegative counts, so the slot bound min(sum a * max b,
    max a * sum b) exceeds every entry of the product and no slot
    carries: the table is exact at any limit.  ``_table_bytes`` is
    checked against ``_TABLE_MEMORY_BUDGET`` before anything is allocated.
    """
    if n < 4 or n % 4 != 0:
        raise ValueError(f"n must be a positive multiple of 4, got {n}")
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if _table_bytes(n, limit) > _TABLE_MEMORY_BUDGET:
        raise ResourceBudgetError(
            f"rn_exact_table(n={n}, limit={limit}) exceeds memory budget "
            f"{_TABLE_MEMORY_BUDGET} bytes"
        )
    theta = [0] * (limit + 1)
    i = 0
    while i * i <= limit:
        theta[i * i] = 1 if i == 0 else 2
        i += 1
    r2 = _convolve_exact(theta, theta, limit + 1)
    r4_table = _convolve_exact(r2, r2, limit + 1)
    table = r4_table
    for _ in range(n // 4 - 1):
        table = _convolve_exact(table, r4_table, limit + 1)
    return table


def bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number B_m for even m >= 2 (B_2 = 1/6, B_4 = -1/30).

    Akiyama-Tanigawa gives the B_1 = +1/2 convention; even indices agree
    under both sign conventions, and only even indices are exposed here.
    """
    if m < 2 or m % 2 != 0:
        raise ValueError(f"only even m >= 2 supported, got {m}")
    row = [Fraction(0)] * (m + 1)
    for j in range(m + 1):
        row[j] = Fraction(1, j + 1)
        for i in range(j, 0, -1):
            row[i - 1] = i * (row[i - 1] - row[i])
    return row[0]


def mobius_sieve(limit: int) -> list[int]:
    """mu(d) for 0 <= d <= limit (entry 0 is unused and set to 0)."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    spf = list(range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p
    mu = [0] * (limit + 1)
    if limit >= 1:
        mu[1] = 1
    for d in range(2, limit + 1):
        p = spf[d]
        rest = d // p
        mu[d] = 0 if rest % p == 0 else -mu[rest]
    return mu
