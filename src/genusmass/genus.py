"""Genus characters: discriminant factorizations (d, D) acting on genera by (d|r)."""

from __future__ import annotations

from itertools import combinations
from math import prod

import numpy as np

from .arith import is_fundamental, prime_discriminant_factorization
from .class_group import ClassGroup

__all__ = [
    "character_pairs",
    "build_genus_characters",
]


def character_pairs(delta: int) -> list[tuple[int, int]]:
    """The 2^(t-1) factorizations delta = d * D with d > 0, sorted by d.

    d runs over the positive products of subsets of the prime discriminants
    of delta; (1, delta) is always first.
    """
    if not is_fundamental(delta):
        raise ValueError(f"{delta} is not a negative fundamental discriminant")
    factors = prime_discriminant_factorization(delta)
    ds = set()
    for k in range(len(factors) + 1):
        for subset in combinations(factors, k):
            d = prod(subset)
            if d > 0:
                ds.add(d)
    return [(d, delta // d) for d in sorted(ds)]


def build_genus_characters(group: ClassGroup) -> np.ndarray:
    """The character table X of the genus group, as a read-only int64 matrix:
    X[i, k] = chi_{d_i}(genus_ids[k]), with rows in character_pairs order.

    chi_{d,D}(g) = (d|r) for a value r of the genus coprime to d, so it is the
    product of the genus's assigned characters over the prime discriminants p
    that divide d, each (p|r) at a value r of the genus that p does not divide:
    -1 to the number of those that are -1.
    """
    delta, genus_ids, genus_signs = group.delta, group.genus_ids, group.genus_signs
    factors = prime_discriminant_factorization(delta)
    signs = np.array(genus_signs, dtype=np.int64).reshape(len(genus_ids), len(factors))
    bad = (np.abs(signs) != 1).any(axis=1)
    if bad.any():
        k = int(bad.argmax())
        raise RuntimeError(f"genus {genus_ids[k]} of {delta}: assigned characters {genus_signs[k]}")
    divides = np.array([[d % p == 0 for p in factors] for d, _ in character_pairs(delta)],
                       dtype=np.int64)
    table = 1 - 2 * ((divides @ (signs < 0).T.astype(np.int64)) % 2)
    table.setflags(write=False)
    return table
