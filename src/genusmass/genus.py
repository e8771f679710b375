"""Genus characters: discriminant factorizations (d, D) acting on genera by (d|r),
and the character tables X of many class groups at once."""

from __future__ import annotations

from itertools import combinations
from math import prod
from typing import NamedTuple

import numpy as np

from .arith import is_fundamental, prime_discriminant_factorization
from .class_group import Stack

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


class CharacterTables(NamedTuple):
    """The character tables X of the groups of a stack, in blocks of groups of one
    shape (number of prime discriminants, of pairs and of genera): blocks[j] is
    (members, X), the indices of its groups in order and a read-only
    len(members) x pairs x genera int64 array of their tables; the table of
    group k is X[position[k]] of blocks[block[k]]."""

    blocks: list[tuple[np.ndarray, np.ndarray]]
    block: np.ndarray
    position: np.ndarray

    def table(self, k: int) -> np.ndarray:
        return self.blocks[self.block[k]][1][self.position[k]]


def character_tables(stack: Stack, pair_d: np.ndarray, pair_counts: np.ndarray) -> CharacterTables:
    """The character table X of every group of the stack: X[i, k] =
    chi_{d_i}(g_k), g_k the group's k-th genus, with a row for each character
    pair (d_i, D_i) of the group, where pair_d holds the d of every group's
    pairs in order and pair_counts how many each group has.

    chi_{d,D}(g) = (d|r) for a value r of the genus coprime to d, so it is the
    product of the genus's assigned characters (stack.genus_signs) over the
    prime discriminants p that divide d, each (p|r) at a value r of the genus
    that p does not divide: -1 to the number of those that are -1.  The groups
    go in blocks of one shape, one batched matmul each, so that no block is
    padded."""
    runs: dict[tuple[int, int, int], list[int]] = {}
    for k, shape in enumerate(zip(stack.t.tolist(), pair_counts.tolist(), stack.genus_counts.tolist())):
        runs.setdefault(shape, []).append(k)
    pair_starts = pair_counts.cumsum() - pair_counts
    block, position = np.empty((2, len(pair_counts)), dtype=np.int64)
    blocks = []
    for j, ((t, count, size), members) in enumerate(runs.items()):
        members = np.array(members)
        block[members], position[members] = j, np.arange(len(members))
        signs = stack.genus_signs[stack.genus_starts[members][:, None] + np.arange(size), :t]
        if (signs * signs != 1).any():
            m, g = np.argwhere((signs * signs != 1).any(axis=2))[0].tolist()
            k = int(members[m])
            row = int(stack.genus_starts[k]) + g
            raise RuntimeError(f"genus {int(stack.leaders[row] - stack.starts[k])} of {stack.deltas[k]}: "
                               f"assigned characters {tuple(stack.genus_signs[row, :t].tolist())}")
        ds = pair_d[pair_starts[members][:, None] + np.arange(count)]
        divides = ds[:, :, None] % stack.factors[members, :t][:, None, :] == 0
        odd = divides.astype(np.int64) @ (signs < 0).transpose(0, 2, 1).astype(np.int64)
        tables = 1 - 2 * (odd & 1)
        tables.setflags(write=False)
        blocks.append((members, tables))
    return CharacterTables(blocks, block, position)


def build_genus_characters(group: Stack) -> np.ndarray:
    """The character table X of the genus group of a stack of one group, as a
    read-only int64 matrix, with rows in character_pairs order: character_tables
    on that stack."""
    ds = np.array([d for d, _ in character_pairs(group.delta)], dtype=np.int64)
    return character_tables(group, ds, np.array([len(ds)])).table(0)
