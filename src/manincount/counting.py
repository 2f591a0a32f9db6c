"""Exact counting: the divisor sums S(x,y) and T(B), their mean value
M(X,Y), the bracketing operator, and the affine/projective point counts
with independent brute-force oracles.

All counters are exact; divisor-range conditions are integer
cross-multiplications (d*B >= m**3 and the like), never floats.  The
fast paths read every n through its prime-power tables, which one
segmented sieve builds block by block, _SIEVE_SEGMENT values at a time,
and walk the divisors of n**3 on them.  The folded walk answers every
subtree whose rest (the part of n below a node) is at most _LEAF_MAX
from a leaf of sorted divisors and prefix sums, kept in a memo that
lives for one block worker's call, so memory stays bounded.  The heavy
sums cut the outer range into fixed blocks of _SIEVE_BLOCK values,
whatever the worker count, and start a process pool only for two
blocks or more; exact integer addition makes the result independent of
the worker count.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import isqrt
from typing import Callable, Iterator, Sequence

from .arith import mobius_sieve, primes_upto, rn_exact_table, rn_star_prime_powers

__all__ = [
    "apply_D",
    "count_affine_bruteforce",
    "count_affine_exact",
    "count_projective",
    "count_projective_bruteforce",
    "identity_scan",
    "introot",
    "mean_value_M",
    "s_sum",
    "t_sum",
]


def _check_query(B: int, n: int) -> None:
    """Reject a point count with B < 1 or n not a positive multiple of 4."""
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    if n < 4 or n % 4 != 0:
        raise ValueError(f"n must be a positive multiple of 4, got {n}")


def introot(x: int, e: int) -> int:
    """floor(x**(1/e)) for x >= 0, e >= 1, by integer Newton iteration.

    Newton starts at 2^ceil(bits/e), above the root, and decreases
    strictly while it stays above; the first step that does not decrease
    leaves r with r**e <= x < (r+1)**e.
    """
    if x < 0 or e < 1:
        raise ValueError("need x >= 0 and e >= 1")
    if e == 1 or x < 2:
        return x
    r = 1 << -(-x.bit_length() // e)
    while (nr := ((e - 1) * r + x // r ** (e - 1)) // e) < r:
        r = nr
    return r


# ---------------------------------------------------------------------------
# prime-power tables of a contiguous block of integers

# Values of m per pool job (the scope of the shared entries and of the leaf
# memo), sieved _SIEVE_SEGMENT at a time.  Constants, so peak memory stays
# flat in x and does not depend on the worker count.
_SIEVE_BLOCK = 1 << 15
_SIEVE_SEGMENT = 1 << 12

# One prime power p^e of m, as the walks over the divisors of m**3 read it:
# (p^0..p^(3e), r_{4k}*(p^0)..r_{4k}*(p^(3e)), p^(3e), their r* sum).
# Immutable, because the m of a sieve block share them.
Entry = tuple[tuple[int, ...], tuple[int, ...], int, int]

# Largest rest that _rstar_sum answers from a leaf instead of walking (see
# the walks below).  Every divisor in a leaf is at most _LEAF_CUBE, so a
# leaf stores them as array('q'), and its prefix sums of r* too while they
# fit in 64 bits (at k = 1; from k = 2 on they stay a list).
_LEAF_MAX = 256
_LEAF_CUBE = _LEAF_MAX**3
Leaf = tuple[array, Sequence[int]]


def _entry(p: int, e: int, k: int) -> Entry:
    e3 = 3 * e
    pw = [1] * (e3 + 1)
    for j in range(1, e3 + 1):
        pw[j] = pw[j - 1] * p
    rv = tuple(rn_star_prime_powers(p, e3, k))
    return tuple(pw), rv, pw[e3], sum(rv)


def _block_tables(lo: int, hi: int, k: int) -> Iterator[tuple[int, list[Entry]]]:
    """(m, tables of m) for 1 <= lo <= m < hi, largest prime first, by a
    segmented sieve of the block, _SIEVE_SEGMENT values at a time.

    Stride passes strip each prime p <= sqrt(hi-1): over the multiples of
    p they divide the residue by p and append p's entry, over those of
    p^2, p^3, ... divide again and replace it; the residual cofactor is
    then 1 or prime.  The m of the block share one entry per sieved p^e and
    one per cofactor prime below the block length (a larger one occurs at
    most once).  Only one segment's per-m lists exist at a time, and each
    leaves the segment once yielded, so the walk releases it.
    """
    powers: dict[int, list[Entry]] = {}  # sieved p -> entries of p^1, p^2, ...
    cofactors: dict[int, Entry] = {}
    primes = primes_upto(isqrt(hi - 1))
    for a in range(lo, hi, _SIEVE_SEGMENT):
        n = min(a + _SIEVE_SEGMENT, hi) - a
        rem = list(range(a, a + n))
        tabs: list[list[Entry] | None] = [[] for _ in range(n)]
        for p in primes:
            ents = powers.setdefault(p, [])
            e, q = 0, p
            while (i0 := -a % q) < n:
                if e == len(ents):
                    ents.append(_entry(p, e + 1, k))
                ent = ents[e]
                if e:
                    for i in range(i0, n, q):
                        rem[i] //= p
                        tabs[i][-1] = ent
                else:
                    for i in range(i0, n, q):
                        rem[i] //= p
                        tabs[i].append(ent)
                e += 1
                q *= p
        for i, q in enumerate(rem):
            t = tabs[i]
            tabs[i] = None
            if q > 1:
                ent = cofactors.get(q) or _entry(q, 1, k)
                if q < hi - lo:  # q recurs in the block: share its entry
                    cofactors[q] = ent
                t.append(ent)
            t.reverse()  # largest prime first
            yield a + i, t


def _tables(lo: int, hi: int, k: int) -> Iterator[tuple[int, list[Entry]]]:
    """(m, tables of m) for lo <= m < hi, sieved _SIEVE_BLOCK values at a time."""
    for a in range(lo, hi, _SIEVE_BLOCK):
        yield from _block_tables(a, min(a + _SIEVE_BLOCK, hi), k)


# ---------------------------------------------------------------------------
# the two walks over the divisors of n**3
#
# Both walk prime-by-prime, largest prime first, on the tables of _tables.
# _rstar_sum folds: the inner sums are multiplicative, so a subtree whose
# divisors all lie in the range adds its r* at the node times the r* sum of
# the remaining primes.  Every child is tested before any recursion: one
# whose largest divisor lies below the range is skipped, one wholly inside
# is folded, and only a child that straddles a bound is entered, so the
# walk touches only the boundary region.
#
# Below a node the divisors are d times (a power of the node's prime) times
# (a divisor of s**3), where s, the rest, is the product of the smaller
# prime powers of n.  When s <= _LEAF_MAX the walk does not descend: a
# leaf, the sorted divisors of s**3 with the prefix sums of their r*,
# answers each straddling child dq with two bisections,
# pre[bisect_right(ds, hi // dq)] - pre[bisect_left(ds, ceil(lo / dq))].
# Leaves live in a memo that a block worker passes to every n of its
# block; it is keyed by s**3 (so by s; k is fixed per call) and holds at
# most one leaf per s <= _LEAF_MAX, built at the rest's first sight.
# _cube_divisors lists every divisor, for callers that need each d.


def _rstar_sum(tab: Sequence[Entry], lo: int, hi: int, memo: dict) -> int:
    """Sum of r_{4k}*(d) over divisors d of n**3 with lo <= d <= hi, where
    ``tab`` holds the tables of n at k and ``memo`` the leaves at that k."""
    if hi < lo or hi < 1:
        return 0
    r = len(tab)
    if r == 0:
        return 1 if lo <= 1 else 0
    rest = 1
    for j in range(1, r):
        rest *= tab[j][2]
    if rest <= _LEAF_CUBE:
        return _leaf_node(tab[0], 1, lo, hi, memo.get(rest) or _leaf(memo, rest, tab, 1))
    # the walk descends past the root: tail products of the tables
    full_tail = [1] * (r + 1)
    sum_tail = [1] * (r + 1)
    for i in range(r - 1, -1, -1):
        _, _, full, rsum = tab[i]
        full_tail[i] = full_tail[i + 1] * full
        sum_tail[i] = sum_tail[i + 1] * rsum
    if lo <= 1 and full_tail[0] <= hi:
        return sum_tail[0]

    # Called only on a node d <= hi whose subtree [d, d * full_tail[i]]
    # straddles a bound.  A leaf child has full_tail == 1, so it is always
    # skipped or folded and the walk never indexes past the last prime.
    # The root's rest is above _LEAF_CUBE, so only deeper nodes reach a leaf.
    def rec(i: int, d: int) -> int:
        ft = full_tail[i + 1]
        if 1 < ft <= _LEAF_CUBE:
            return _leaf_node(tab[i], d, lo, hi, memo.get(ft) or _leaf(memo, ft, tab, i + 1))
        pws, rvs, _, _ = tab[i]
        st = sum_tail[i + 1]
        s = 0
        for q, rq in zip(pws, rvs):
            dn = d * q
            if dn > hi:
                break
            top = dn * ft
            if top < lo:
                continue
            if dn >= lo and top <= hi:
                s += rq * st
            else:
                s += rq * rec(i + 1, dn)
        return s

    return rec(0, 1)


def _leaf(memo: dict, cube: int, tab: Sequence[Entry], i: int) -> Leaf:
    """Build, memoize and return the leaf of the rest held by tab[i:],
    whose cube is ``cube``."""
    pairs = sorted(_cube_divisors(tab[i:], cube))
    ds = array("q", [d for d, _ in pairs])
    pre = list(accumulate((r for _, r in pairs), initial=0))
    try:
        leaf = memo[cube] = (ds, array("q", pre))
    except OverflowError:  # r* outgrows 64 bits from k = 2 on
        leaf = memo[cube] = (ds, pre)
    return leaf


def _leaf_node(head: Entry, d: int, lo: int, hi: int, leaf: Leaf) -> int:
    """The walk's sum below node d, whose children are d times the powers
    in ``head`` and whose rest below them ``leaf`` answers."""
    ds, pre = leaf
    ft = ds[-1]
    st = pre[-1]
    s = 0
    for q, rq in zip(head[0], head[1]):
        dn = d * q
        if dn > hi:
            break
        top = dn * ft
        if top < lo:
            continue
        up = st if top <= hi else pre[bisect_right(ds, hi // dn)]
        s += rq * (up - pre[bisect_left(ds, -(-lo // dn))] if dn < lo else up)
    return s


def _cube_divisors(tab: Sequence[Entry], hi: int) -> list[tuple[int, int]]:
    """(d, r_{4k}*(d)) for every divisor d <= hi of n**3, in no fixed order,
    where ``tab`` holds the tables of n at k."""
    if hi < 1:
        return []
    out = [(1, 1)]
    for pw, rv, _, _ in tab:
        nxt = []
        for d, r in out:
            for q, rq in zip(pw, rv):
                dn = d * q
                if dn > hi:
                    break
                nxt.append((dn, r * rq))
        out = nxt
    return out


# ---------------------------------------------------------------------------
# block workers (top level so a process pool can address them)


def _block_s(args: tuple[int, int, int, int]) -> int:
    lo, hi, k, y = args
    memo: dict = {}
    return sum(_rstar_sum(t, 1, y, memo) for _, t in _block_tables(lo, hi, k))


def _block_t(args: tuple[int, int, int, int]) -> int:
    lo, hi, k, B = args
    memo: dict = {}
    return sum(_rstar_sum(t, 1, (n**3 - 1) // B, memo) for n, t in _block_tables(lo, hi, k))


def _block_affine(args: tuple[int, int, int, int]) -> int:
    lo, hi, k, B = args
    B2 = B * B
    memo: dict = {}
    return sum(_rstar_sum(t, (m**3 + B - 1) // B, B2, memo) for m, t in _block_tables(lo, hi, k))


def _run_blocks(fn: Callable[[tuple], int], x: int, extra: tuple, workers: int) -> int:
    """Apply a block worker over [1, x] in sieve blocks, summed in order.

    The jobs are the blocks of _tables, whatever ``workers`` is; a pool
    starts only when there are two jobs or more to share.
    """
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    jobs = [(a, min(a + _SIEVE_BLOCK, x + 1)) + extra for a in range(1, x + 1, _SIEVE_BLOCK)]
    procs = min(workers, len(jobs))
    if procs <= 1:
        return sum(fn(job) for job in jobs)
    from multiprocessing import get_context

    with get_context("fork").Pool(procs) as pool:
        return sum(pool.map(fn, jobs, chunksize=1))


# ---------------------------------------------------------------------------
# the divisor sums


def s_sum(x: int, y: int, k: int = 1, workers: int = 1) -> int:
    """S(x, y) = sum over n <= x and d | n**3 with d <= y of r_{4k}*(d)."""
    if x < 1:
        raise ValueError("x must be >= 1")
    if y < 0:
        raise ValueError("y must be >= 0")
    return _run_blocks(_block_s, x, (k, y), workers)


def t_sum(B: int, k: int = 1, workers: int = 1) -> int:
    """T(B) = sum over n <= B and d | n**3 with d*B < n**3 of r_{4k}*(d)."""
    if B < 1:
        raise ValueError("B must be >= 1")
    return _run_blocks(_block_t, B, (k, B), workers)


# ---------------------------------------------------------------------------
# affine counts


# Longest lattice table built so far, per n.  Convolution prefixes are
# stable, so a longer table serves every smaller limit; a shorter one is
# replaced by the table at exactly the requested limit.
_RN_TABLES: dict[int, list[int]] = {}


def _rn_table(n: int, limit: int) -> list[int]:
    t = _RN_TABLES.get(n)
    if t is None or len(t) <= limit:
        t = _RN_TABLES[n] = rn_exact_table(n, limit)
    return t


def count_affine_exact(B: int, n: int = 4, workers: int = 1) -> int:
    """Number of integral (x, y1..yn, z) on x**3 = (y1^2+...+yn^2) z with
    max(|x|, sqrt(sum y^2), |z|) <= B and x, z nonzero.

    Evaluates 2 * sum_{m<=B} sum_{d | m^3, m^3/B <= d <= B^2} r_n(d).  For
    n = 4 and 8 Jacobi's identities r_4 = 8 r_4* and r_8 = 16 r_8* turn it
    into 4n times the folded walk at k = n/4, with no lattice table; for
    n >= 12 the inner values come from the exact lattice table of length
    B^2 + 1, so its memory budget caps B.  The divisor range applies both
    bounds directly, which keeps this structurally separate from
    s_sum - t_sum.
    """
    _check_query(B, n)
    if n <= 8:
        return 4 * n * _run_blocks(_block_affine, B, (n // 4, B), workers)
    table = _rn_table(n, B * B)
    total = 0
    for m, t in _tables(1, B + 1, 1):
        lo = (m**3 + B - 1) // B
        total += sum(table[d] for d, _ in _cube_divisors(t, B * B) if d >= lo)
    return 2 * total


def _trial_pairs(X: int, Y: int) -> Iterator[tuple[int, int, int]]:
    """(x, z, x**3 / z) for 1 <= x, z <= X with z | x**3 and x**3 / z <= Y,
    z found by trial division only (never by the sieve or a divisor walk)."""
    for x in range(1, X + 1):
        cube = x**3
        for z in range(1, X + 1):
            Q, rem = divmod(cube, z)
            if rem == 0 and Q <= Y:
                yield x, z, Q


def count_affine_bruteforce(B: int, n: int = 4) -> int:
    """Oracle for count_affine_exact: walk the (x, z) pairs of _trial_pairs
    at (B, B^2) directly.

    Each pair's y-layer contributes r_n(x**3 / z) taken from the
    lattice-convolution table at every n (never from Jacobi's r_n* identity,
    which count_affine_exact reads for n <= 8), and the x < 0 half doubles
    the count.
    """
    _check_query(B, n)
    table = _rn_table(n, B * B)
    return 2 * sum(table[Q] for _, _, Q in _trial_pairs(B, B * B))


# ---------------------------------------------------------------------------
# projective counts


def count_projective(B: int, n: int = 4, workers: int = 1) -> int:
    """Coprime-representative count with height max(...)**(n-1) <= B.

    Moebius inversion over the scaling classes: with R = floor(B**(1/(n-1))),
    N_n(B) = sum_{d <= R} mu(d) * N*_n(floor(R/d)).

    Known defect: N*_n(floor(R/d)) bounds sum y^2 by floor(R/d)**2, but the
    height max(|x|, sqrt(sum y^2), |z|) <= R of the class d needs
    sum y^2 <= floor(R**2/d**2), which can be larger.  So the result can
    exceed count_projective_bruteforce: at B = 1331 (R = 11), n = 4 it is
    12 912 against 12 272.
    """
    _check_query(B, n)
    R = introot(B, n - 1)
    mu = mobius_sieve(R)
    cache: dict[int, int] = {}
    total = 0
    for d in range(1, R + 1):
        if mu[d] == 0:
            continue
        m = R // d
        if m not in cache:
            cache[m] = count_affine_exact(m, n, workers)
        total += mu[d] * cache[m]
    return total


@lru_cache(maxsize=4)
def _vectors_by_norm(n: int, qmax: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All y in Z^n with sum of squares q <= qmax, grouped by q."""
    out: list[list[tuple[int, ...]]] = [[] for _ in range(qmax + 1)]

    def rec(i: int, q: int, prefix: tuple[int, ...]) -> None:
        if i == n:
            out[q].append(prefix)
            return
        r = isqrt(qmax - q)
        for v in range(-r, r + 1):
            rec(i + 1, q + v * v, prefix + (v,))

    rec(0, 0, ())
    return tuple(tuple(g) for g in out)


def count_projective_bruteforce(B: int, n: int = 4) -> int:
    """Oracle for count_projective: enumerate solutions in the box of
    radius R = floor(B**(1/(n-1))) and keep tuples whose n+2 coordinates
    have gcd 1.

    The (x, z) pairs come from one _trial_pairs call at (R, R^2), whose
    second argument is the y-ball (see count_projective's known defect).
    For n = 4 the y-vectors are enumerated literally and the gcd is taken
    per tuple.  For n >= 8 full vector enumeration is hopeless, so the
    y-layer is counted by sieving the common divisor e | gcd(x, z):
    sum_{e | gcd(x,z), e^2 | Q} mu(e) r_n(Q / e^2).
    """
    _check_query(B, n)
    R = introot(B, n - 1)
    R2 = R * R
    pairs = _trial_pairs(R, R2)
    total = 0
    if n == 4:
        vecs = _vectors_by_norm(4, R2)
        for x, z, Q in pairs:
            g0 = math.gcd(x, z)
            for y in vecs[Q]:
                if math.gcd(g0, *y) == 1:
                    total += 1
        return 2 * total
    table = _rn_table(n, R2)
    mu = mobius_sieve(R)
    for x, z, Q in pairs:
        g0 = math.gcd(x, z)
        for e in range(1, isqrt(Q) + 1):
            if g0 % e == 0 and Q % (e * e) == 0 and mu[e] != 0:
                total += mu[e] * table[Q // (e * e)]
    return 2 * total


# ---------------------------------------------------------------------------
# mean value and the bracketing operator


def mean_value_M(X: Fraction | int, Y: Fraction | int, k: int = 1) -> Fraction:
    """M(X, Y) = sum_{n<=X} sum_{d|n^3, d<=Y} r_{4k}*(d) (X-n) (Y-d), exact.

    Equals the double integral of S over [1,X] x [1,Y] because S is a step
    function jumping only at integer n and d.  Arguments may be rational.
    Expanding (X-n)(Y-d) leaves four integer sums and one rational
    expression at the end.
    """
    X = Fraction(X)
    Y = Fraction(Y)
    ylim = math.floor(Y)
    s_r = s_nr = s_rd = s_nrd = 0
    for n, t in _tables(1, math.floor(X) + 1, k):
        for d, r in _cube_divisors(t, ylim):
            s_r += r
            s_nr += n * r
            s_rd += r * d
            s_nrd += n * r * d
    return X * Y * s_r - Y * s_nr - X * s_rd + s_nrd


def apply_D(f: Callable[[Fraction, Fraction], Fraction], X, H, Y, J):
    """The second-difference operator: f(H,J) - f(H,Y) - f(X,J) + f(X,Y)."""
    return f(H, J) - f(H, Y) - f(X, J) + f(X, Y)


# ---------------------------------------------------------------------------
# one-pass profile of S, T and the affine count over every B <= Bmax


def identity_scan(Bmax: int) -> tuple[list[int], list[int], list[int]]:
    """Arrays S[B], T[B], A[B] for all 1 <= B <= Bmax (index 0 unused), where
    S[B] = s_sum(B, B^2), T[B] = t_sum(B) and A[B] = count_affine_exact(B, 4).

    One pass over the pairs (m, d | m^3): each pair contributes to S for
    B >= max(m, ceil(sqrt(d))), to T for m <= B <= floor((m^3-1)/d), and to
    A (times 16) for B >= max(m, ceil(m^3/d), ceil(sqrt(d))).  Difference
    arrays turn those into prefix sums.
    """
    if Bmax < 1:
        raise ValueError("Bmax must be >= 1")
    dS = [0] * (Bmax + 2)
    dT = [0] * (Bmax + 2)
    dA = [0] * (Bmax + 2)
    lim = Bmax * Bmax
    for m, t in _tables(1, Bmax + 1, 1):
        cube = m**3
        for d, r in _cube_divisors(t, lim):
            sq = isqrt(d - 1) + 1  # ceil(sqrt(d))
            b0 = m if m >= sq else sq
            if b0 <= Bmax:
                dS[b0] += r
            b1 = (cube - 1) // d
            if b1 >= m:
                dT[m] += r
                if b1 <= Bmax:
                    dT[b1 + 1] -= r
            lo = (cube + d - 1) // d  # ceil(m^3 / d)
            b2 = b0 if b0 >= lo else lo
            if b2 <= Bmax:
                dA[b2] += 16 * r
    S = [0] * (Bmax + 1)
    T = [0] * (Bmax + 1)
    A = [0] * (Bmax + 1)
    accS = accT = accA = 0
    for B in range(1, Bmax + 1):
        accS += dS[B]
        accT += dT[B]
        accA += dA[B]
        S[B] = accS
        T[B] = accT
        A[B] = accA
    return S, T, A
