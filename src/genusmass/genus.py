"""Genus characters: discriminant factorizations (d, D) acting on genera by (d|r)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod

from .arith import is_fundamental, kronecker, prime_discriminant_factorization
from .class_group import ClassGroup
from .forms import represented_coprime_value

__all__ = [
    "GenusCharacter",
    "character_pairs",
    "character_value",
    "build_genus_characters",
    "orthogonality_sum",
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


def character_value(group: ClassGroup, d: int, genus_id: int) -> int:
    """chi_{d,D}(g) = (d | r) for any r > 0 represented by the genus with gcd(r, d) = 1."""
    r = represented_coprime_value(group.classes[genus_id], d)
    value = kronecker(d, r)
    if value not in (-1, 1):
        raise RuntimeError(f"({d}|{r}) = {value}: {r} is not coprime to {d}")
    return value


@dataclass(frozen=True, eq=False)
class GenusCharacter:
    """A real character of the genus group, keyed by its factorization (d, D)."""

    d: int
    D: int
    values: dict[int, int]  # genus id -> +-1

    def value(self, genus_id: int) -> int:
        return self.values[genus_id]


def build_genus_characters(group: ClassGroup) -> tuple[GenusCharacter, ...]:
    """All genus characters of the class group, in character_pairs order."""
    out = []
    for d, big_d in character_pairs(group.delta):
        values = {g: character_value(group, d, g) for g in group.genus_ids}
        out.append(GenusCharacter(d=d, D=big_d, values=values))
    return tuple(out)


def orthogonality_sum(group: ClassGroup, genus_id: int) -> Fraction:
    """(1/|G|) * sum over all characters of chi(g): 1 on the principal genus, else 0."""
    chars = build_genus_characters(group)
    total = sum(chi.value(genus_id) for chi in chars)
    return Fraction(total, len(chars))
