"""Genus characters: discriminant factorizations (d, D) acting on genera by (d|r)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod

from .arith import is_fundamental, prime_discriminant_factorization
from .class_group import ClassGroup

__all__ = [
    "GenusCharacter",
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


@dataclass(frozen=True, eq=False)
class GenusCharacter:
    """A real character of the genus group, keyed by its factorization (d, D)."""

    d: int
    D: int
    values: dict[int, int]  # genus id -> +-1

    def value(self, genus_id: int) -> int:
        return self.values[genus_id]


def build_genus_characters(group: ClassGroup) -> tuple[GenusCharacter, ...]:
    """All genus characters of the class group, in character_pairs order.

    chi_{d,D}(g) = (d|r) for a value r of the genus coprime to delta, so it is the
    product of the genus's assigned characters (p|r) over the prime
    discriminants p that divide d.
    """
    factors = prime_discriminant_factorization(group.delta)
    out = []
    for d, big_d in character_pairs(group.delta):
        values = {}
        for g, signs in zip(group.genus_ids, group.genus_signs):
            value = prod(s for p, s in zip(factors, signs) if d % p == 0)
            if value not in (-1, 1):
                raise RuntimeError(f"genus {g} of {group.delta}: assigned characters {signs}")
            values[g] = value
        out.append(GenusCharacter(d=d, D=big_d, values=values))
    return tuple(out)
