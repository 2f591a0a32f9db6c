"""Exact integer arithmetic kernel.

Factorization by trial division, the multiplicative sum-of-squares
companions r4*/rn*, exact r_n tables built by lattice convolution,
Bernoulli numbers and a Moebius sieve.  Everything here is exact: values
are Python ints or Fractions, never floats.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from itertools import compress
from math import isqrt
from typing import Sequence

__all__ = [
    "ResourceBudgetError",
    "bernoulli",
    "factorize",
    "mobius_sieve",
    "primes_upto",
    "rn_exact_table",
    "rn_star",
    "rn_star_prime_powers",
]

# Peak bytes (by _table_bytes) that rn_exact_table may hold.
_TABLE_MEMORY_BUDGET = 1 << 31


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
    return list(compress(range(n + 1), sieve))


def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of m >= 1, primes increasing; () for m = 1.

    Plain trial division by 2 and then by every odd p with p*p <= m, so
    the cost is O(sqrt(m)) divisions when m is prime or the product of
    two close primes: fine for the oracles and tests, hopeless for a
    20-digit semiprime.  It shares no sieve, table or prime list with the
    counting paths, which read r* from their own prime-power tables, so
    the oracles built on it stay independent of them.
    """
    if m < 1:
        raise ValueError(f"cannot factorize {m}; need a positive integer")
    out: list[tuple[int, int]] = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


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


def rn_star(d: int, k: int = 1) -> int:
    """Multiplicative r_{4k}*(d) for d >= 1, from factorize(d).

    At k = 1 this is the sum of the divisors of d not divisible by 4:
    (p^(e+1)-1)/(p-1) for odd p, a factor 3 for any positive power of 2.
    """
    out = 1
    for p, e in factorize(d):
        out *= rn_star_prime_powers(p, e, k)[e]
    return out


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
    slots and are dropped before packing.  A square (``a is b``) packs
    its operand once and multiplies that decimal by itself.
    """
    if length <= 0:
        return []
    square = a is b
    a = a[:length]
    b = a if square else b[:length]
    if not a or not b:
        return [0] * length
    if min(a) < 0 or min(b) < 0:
        raise ValueError("_convolve_exact needs nonnegative entries")
    w = len(str(min(sum(a) * max(b), max(a) * sum(b))))
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])
    x = decimal.Decimal("".join([str(v).zfill(w) for v in reversed(a)]))
    y = x if square else decimal.Decimal("".join([str(v).zfill(w) for v in reversed(b)]))
    product = ctx.multiply(x, y)
    width = length * w
    digits = str(product)[-width:].zfill(width)
    return [int(digits[i : i + w]) for i in range(width - w, -1, -w)]


def _table_bytes(n: int, limit: int) -> int:
    """Upper estimate of the bytes ``rn_exact_table(n, limit)`` holds at its peak.

    Every r_m(d) with d <= limit counts points of a cube of side
    2 isqrt(limit) + 1 in Z^m, so w = digits((2 isqrt(limit) + 1)**n)
    bounds every table entry and every Kronecker slot width.  Per entry
    the estimate allows seven list slots and four Python ints of at most
    w digits (28 bytes plus 4 per further 30-bit digit), more than is
    ever live: one product holds at most five slots (two input tables,
    their truncated copies, of which a square makes one, and the output)
    and three ints (the two inputs and the output).  Add the buffers of
    one product, under 10 w bytes: the packed operands and their product
    as decimals (8 bytes per 19 digits), libmpdec's transform arrays
    (four, each at most twice the product's words) and the product's
    digit string with its slice.  A fixed 4 KiB covers the decimal
    context and the list headers at tiny limits.
    """
    w = len(str((2 * isqrt(limit) + 1) ** n))
    return 4096 + (limit + 1) * (7 * 8 + 4 * (32 + w // 2) + 10 * w)


def _r2_table(limit: int) -> list[int]:
    """r_2(d) for d = 0..limit: the pairs (i, j) in Z^2 with i^2 + j^2 = d.

    (i, j) -> (-j, i) carries the quarter plane i >= 1, j >= 0 onto the
    other three, and the four copies cover Z^2 minus the origin, so each
    pair of that quarter plane adds 4.
    """
    squares = [i * i for i in range(isqrt(limit) + 1)]
    r2 = [0] * (limit + 1)
    r2[0] = 1
    for ii in squares[1:]:
        for jj in squares[: isqrt(limit - ii) + 1]:
            r2[ii + jj] += 4
    return r2


def rn_exact_table(n: int, limit: int) -> list[int]:
    """Exact r_n(d) for d = 0..limit, n a positive multiple of 4.

    Built purely by lattice counting: r2 counts the pairs (i, j) with
    i^2 + j^2 = d directly, r4 = r2 * r2, and r_n = r4^(n/4) by
    square-and-multiply (r8 = r4^2, r12 = r8 * r4, r16 = r8^2).  No
    divisor-sum formula is involved, so this is an independent oracle
    for Jacobi's r_4 = 8 rn_star route.

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
    power = _r2_table(limit)
    power = _convolve_exact(power, power, limit + 1)
    table = None
    m = n // 4
    while True:
        if m & 1:
            table = power if table is None else _convolve_exact(table, power, limit + 1)
        m >>= 1
        if not m:
            return table
        power = _convolve_exact(power, power, limit + 1)


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
    mu = [1] * (limit + 1)
    mu[0] = 0
    for p in primes_upto(limit):
        mu[p::p] = [-v for v in mu[p::p]]
        mu[p * p :: p * p] = [0] * (limit // (p * p))
    return mu
