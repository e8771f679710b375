"""Exact integer utilities: Kronecker symbols, factorization, fundamental discriminants."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "kronecker",
    "is_fundamental",
    "fundamental_flags",
    "factorize",
    "is_squarefree",
    "prime_discriminant_factorization",
    "prime_discriminant_tables",
    "is_prime",
    "primes_up_to",
    "ext_gcd",
]


def kronecker(m: int, n: int) -> int:
    """Kronecker symbol (m|n), extended to every integer n (0, negative, even).

    Completely multiplicative in n; (m|0) is 1 exactly for m = +-1, and
    (m|-1) is the sign character of m.
    """
    if n == 0:
        return 1 if m in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if m < 0:
            result = -result
    if n % 2 == 0:
        if m % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if m % 8 in (3, 5):
                result = -result
    # Jacobi symbol for odd positive n via quadratic reciprocity
    m %= n
    while m:
        while m % 2 == 0:
            m //= 2
            if n % 8 in (3, 5):
                result = -result
        m, n = n, m
        if m % 4 == 3 and n % 4 == 3:
            result = -result
        m %= n
    return result if n == 1 else 0


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Trial-division factorization of n >= 1 as ((prime, exponent), ...), primes ascending."""
    if n < 1:
        raise ValueError(f"factorize expects a positive integer, got {n}")
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
        d += 6
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return all(e == 1 for _, e in factorize(abs(n)))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    facs = factorize(n)
    return len(facs) == 1 and facs[0][1] == 1


def primes_up_to(n: int) -> list[int]:
    """Sieve of Eratosthenes, inclusive."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, v in enumerate(sieve) if v]


def is_fundamental(delta: int) -> bool:
    """True iff delta < 0 is the discriminant of the maximal order of Q(sqrt(delta)):
    a squarefree delta = 1 (mod 4), or delta = 4m with m = 2 or 3 (mod 4) squarefree.

    Raises for delta >= 0; positive discriminants are out of scope here.
    """
    if delta >= 0:
        raise ValueError(f"expected a negative discriminant, got {delta}")
    if delta % 4 == 1:
        return is_squarefree(delta)
    m, rem = divmod(delta, 4)
    return rem == 0 and m % 4 in (2, 3) and is_squarefree(m)


# delta mod 16 of a fundamental delta: 1 mod 4, or 8 or 12, that is 4 m with
# m = 2 or 3 (mod 4)
_FUNDAMENTAL_MOD_16 = np.array([r % 4 == 1 or r in (8, 12) for r in range(16)])
_FUNDAMENTAL_MOD_16.setflags(write=False)


@lru_cache(maxsize=None)
def _prime_squares(bits: int) -> np.ndarray:
    """The squares of the primes below 2^bits, as a read-only int64 array."""
    squares = np.array(primes_up_to((1 << bits) - 1), dtype=np.int64) ** 2
    squares.setflags(write=False)
    return squares


# fundamental_flags compares at most this many (delta, p^2) pairs at once
SQUAREFREE_BLOCK = 1 << 16
# fundamental_flags sieves the primes below 2^20 at most: a run with a delta at
# or beyond -2^40 is tested delta by delta by is_fundamental, whose trial
# division needs no table
FLAGS_SIEVE_BOUND = 1 << 40


def fundamental_flags(deltas) -> np.ndarray:
    """is_fundamental of every delta < 0 of the sequence deltas, and False for
    every delta >= 0, as one bool array from one exact pass over all of them:
    the mod-4 rules of is_fundamental, read from a table of delta mod 16, then
    m % p^2 for the part m = delta or delta/4 that must be squarefree and every
    prime p below the power of 2 above isqrt(max |m|), in blocks of
    SQUAREFREE_BLOCK pairs.  A prime beyond isqrt(|m|) never divides m twice,
    and a range run reads the squares of one bound.  With a delta at or below
    -FLAGS_SIEVE_BOUND, each delta is tested by is_fundamental."""
    if min(deltas, default=0) <= -FLAGS_SIEVE_BOUND:
        return np.array([delta < 0 and is_fundamental(delta) for delta in deltas], dtype=bool)
    delta = np.asarray(deltas, dtype=np.int64).ravel()
    flags = _FUNDAMENTAL_MOD_16[delta % 16] & (delta < 0)
    m = delta[flags]
    if len(m):
        m = np.where(m % 2 == 1, m, m // 4)
        squares = _prime_squares(math.isqrt(-int(m.min())).bit_length())
        step = max(1, SQUAREFREE_BLOCK // len(m))
        squarefree = np.ones(len(m), dtype=bool)
        for lo in range(0, len(squares), step):
            squarefree &= (m[:, None] % squares[lo : lo + step]).all(axis=1)
        flags[flags] = squarefree
    return flags


@lru_cache(maxsize=None)
def prime_discriminant_factorization(delta: int) -> tuple[int, ...]:
    """Split a fundamental delta < 0 into prime discriminants whose product is delta.

    Each factor is -4, 8, -8, a prime p = 1 (mod 4), or -p for a prime
    p = 3 (mod 4); the factors multiply back to delta and there is at most
    one even factor.  Sorted by absolute value.
    """
    if not is_fundamental(delta):
        raise ValueError(f"{delta} is not a negative fundamental discriminant")
    factors = []
    for p, _ in factorize(-delta):
        if p == 2:
            continue
        factors.append(p if p % 4 == 1 else -p)
    odd_part = math.prod(factors) if factors else 1
    even_part = delta // odd_part
    if even_part * odd_part != delta or even_part not in (1, -4, 8, -8):
        raise RuntimeError(f"{delta} = {even_part} * {odd_part} is not a prime-discriminant split")
    if even_part != 1:
        factors.append(even_part)
    return tuple(sorted(factors, key=abs))


# An odd prime discriminant's table is filled from blocks of this many squares,
# so that its int64 working memory does not grow with |delta|.
SQUARES_BLOCK = 1 << 16


@lru_cache(maxsize=1)
def prime_discriminant_tables(delta: int) -> tuple[tuple[int, np.ndarray], ...]:
    """(p, [(p|r) for r in range(|p|)] as int8) for each prime discriminant p of
    delta; read-only, and kept for the last delta only.  An odd prime
    discriminant's character at r >= 0 is the Legendre symbol (r|p); the -4, 8
    or -8 factor has period at most 8 and is read from kronecker once
    (_even_table)."""
    tables = []
    for factor in prime_discriminant_factorization(delta):
        m = abs(factor)
        if m % 2:
            table = np.full(m, -1, dtype=np.int8)
            table[0] = 0
            half = (m + 1) // 2
            for start in range(1, half, SQUARES_BLOCK):
                x = np.arange(start, min(start + SQUARES_BLOCK, half), dtype=np.int64)
                np.multiply(x, x, out=x)
                np.remainder(x, m, out=x)
                table[x] = 1
            table.setflags(write=False)
        else:
            table = _even_table(factor)
        tables.append((factor, table))
    return tuple(tables)


@lru_cache(maxsize=None)
def _even_table(factor: int) -> np.ndarray:
    """[(factor|r) for r in range(|factor|)] of the prime discriminant -4, 8 or
    -8, read-only, from kronecker itself."""
    table = np.array([kronecker(factor, r) for r in range(abs(factor))], dtype=np.int8)
    table.setflags(write=False)
    return table

