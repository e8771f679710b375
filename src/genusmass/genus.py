"""Genus characters: discriminant factorizations (d, D) acting on genera by (d|r),
and the character tables X of many class groups at once."""

from __future__ import annotations

from itertools import accumulate, combinations
from math import prod

import numpy as np

from .arith import is_fundamental, prime_discriminant_factorization
from .class_group import ClassGroup, Stack, stack_of

__all__ = [
    "character_pairs",
    "build_genus_characters",
    "character_tables",
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


def character_tables(stack: Stack, pairs: list[list[tuple[int, int]]]) -> list[np.ndarray]:
    """The character table X of each group of the stack, as read-only int64
    matrices: X[i, k] = chi_{d_i}(genus_ids[k]), with a row for each character
    pair (d_i, D_i) of the group's pairs (pairs[j] for groups[j]).

    chi_{d,D}(g) = (d|r) for a value r of the genus coprime to d, so it is the
    product of the genus's assigned characters (stack.genus_signs) over the
    prime discriminants p that divide d, each (p|r) at a value r of the genus
    that p does not divide: -1 to the number of those that are -1.  The groups
    go in blocks of one shape (number of prime discriminants, of pairs and of
    genera), one batched matmul each, so that no block is padded; each table is
    a view of its block."""
    groups = stack.groups
    factors = [prime_discriminant_factorization(group.delta) for group in groups]
    genera = [len(group.genus_ids) for group in groups]
    genus_starts = list(accumulate(genera, initial=0))
    blocks: dict[tuple[int, int, int], list[int]] = {}
    for j, shape in enumerate(zip(map(len, factors), map(len, pairs), genera)):
        blocks.setdefault(shape, []).append(j)
    tables: list[np.ndarray] = [None] * len(groups)
    for (t, count, size), members in blocks.items():
        rows = [g for j in members for g in range(genus_starts[j], genus_starts[j] + size)]
        signs = stack.genus_signs[rows, :t].reshape(len(members), size, t)
        if (signs * signs != 1).any():
            j, k = np.argwhere((signs * signs != 1).any(axis=2))[0].tolist()
            group = groups[members[j]]
            raise RuntimeError(f"genus {group.genus_ids[k]} of {group.delta}: "
                               f"assigned characters {group.genus_signs[k]}")
        ds = np.array([[d for d, _ in pairs[j]] for j in members], dtype=np.int64)
        ps = np.array([factors[j] for j in members], dtype=np.int64)
        divides = ds.reshape(len(members), count, 1) % ps.reshape(len(members), 1, t) == 0
        odd = divides.astype(np.int64) @ (signs < 0).transpose(0, 2, 1).astype(np.int64)
        block = 1 - 2 * (odd & 1)
        block.setflags(write=False)
        for j, table in zip(members, block):
            tables[j] = table
    return tables


def build_genus_characters(group: ClassGroup) -> np.ndarray:
    """The character table X of the genus group, as a read-only int64 matrix, with
    rows in character_pairs order: character_tables on the stack of this one
    group."""
    return character_tables(stack_of(group), [character_pairs(group.delta)])[0]
