"""The form class group of a negative fundamental discriminant.

Classes are the reduced forms.  Composition is Dirichlet composition of two
reduced triples followed by Gauss reduction, computed on demand; no
composition table is stored.  The genus of a class is read off the assigned
characters (one per prime discriminant of delta) at a value the class
represents coprime to delta, and the build checks the group laws and the
principal genus theorem (the squares are exactly the principal genus).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arith import ext_gcd, is_prime, kronecker, prime_discriminant_factorization
from .forms import (
    QuadForm,
    automorph_count,
    reduce_form,
    reduce_triple,
    reduced_forms,
    represented_coprime_value,
)

__all__ = [
    "ClassGroup",
    "build_class_group",
    "prime_form",
    "prime_ideal_class",
]

Triple = tuple[int, int, int]


def _compose_triples(f1: Triple, f2: Triple) -> Triple:
    """Reduced Dirichlet composition of two primitive forms of one discriminant.

    Cohen, A Course in Computational Algebraic Number Theory, Algorithm 5.4.7.
    """
    if f1[0] > f2[0]:
        f1, f2 = f2, f1
    a1, b1, _ = f1
    a2, b2, c2 = f2
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        d, y1, _ = ext_gcd(a2, a1)
    if s % d == 0:
        x2, y2, d1 = 0, -1, d
    else:
        d1, x2, y2 = ext_gcd(s, d)
        y2 = -y2
    v1, v2 = a1 // d1, a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    return reduce_triple(v1 * v2, b2 + 2 * v2 * r, (c2 * d1 + r * (b2 + v2 * r)) // v1)


@dataclass(frozen=True)
class ClassGroup:
    """The form class group of a fundamental discriminant, with its genus partition.

    classes holds the lexicographically sorted reduced forms and index_of maps
    each one's (a, b, c) to its position; genus ids are the smallest class
    index in each genus.  genus_signs[k] holds the assigned characters of the
    genus genus_ids[k]: (p|r) for each prime discriminant p of delta, in
    prime_discriminant_factorization order, at a value r coprime to delta
    that the genus represents.
    """

    delta: int
    classes: tuple[QuadForm, ...]
    index_of: dict[Triple, int] = field(repr=False, compare=False)
    identity: int
    inverses: tuple[int, ...]
    squares: tuple[int, ...]
    genus_of: tuple[int, ...]
    genus_ids: tuple[int, ...]
    genus_signs: tuple[tuple[int, ...], ...]

    @property
    def h(self) -> int:
        return len(self.classes)

    @property
    def w(self) -> int:
        return automorph_count(self.delta)

    def compose(self, h1: int, h2: int) -> int:
        return self.index_of[_compose_triples(self.classes[h1].triple(), self.classes[h2].triple())]

    def inverse(self, h: int) -> int:
        return self.inverses[h]

    def genus_members(self, genus_id: int) -> tuple[int, ...]:
        return tuple(i for i in range(self.h) if self.genus_of[i] == genus_id)

    def genus_product(self, g1: int, g2: int) -> int:
        """Product in the genus group G = H/H^2, via coset representatives."""
        return self.genus_of[self.compose(g1, g2)]

    @property
    def principal_genus(self) -> int:
        return self.genus_of[self.identity]


def _check_group(group: ClassGroup) -> None:
    """Raise unless the identity and inverse laws and the principal genus theorem hold."""
    for i in range(group.h):
        if group.compose(group.identity, i) != i:
            raise RuntimeError(f"delta={group.delta}: the principal class is not the identity at {i}")
        if group.compose(i, group.inverses[i]) != group.identity:
            raise RuntimeError(f"delta={group.delta}: the inverse law fails at {i}")
    principal = group.genus_members(group.principal_genus)
    if group.squares != principal:
        raise RuntimeError(
            f"delta={group.delta}: squares {group.squares} are not the principal genus {principal}"
        )
    sizes = {len(group.genus_members(g)) for g in group.genus_ids}
    if sizes != {len(group.squares)}:
        raise RuntimeError(f"delta={group.delta}: genera of unequal sizes {sorted(sizes)}")


def _coprime_values(classes: tuple[QuadForm, ...], delta: int) -> list[int]:
    """represented_coprime_value(q, -delta) for every class q, by one np.gcd.

    Its shell |x|, |y| <= 1 gives a reduced form the values a <= c <= a - |b| + c
    <= a + |b| + c, so the search stops there at the smallest of them coprime to
    delta; only the classes where none is coprime, such as (3, 0, 7) at -84, run
    the scalar search."""
    a, b, c = np.array([q.triple() for q in classes], dtype=np.int64).T
    shell = np.stack((a, c, a - np.abs(b) + c, a + np.abs(b) + c), axis=1)
    coprime = np.gcd(shell, -delta) == 1
    first = shell[np.arange(len(classes)), coprime.argmax(axis=1)].tolist()
    return [r if found else represented_coprime_value(q, -delta)
            for q, r, found in zip(classes, first, coprime.any(axis=1).tolist())]


@lru_cache(maxsize=None)
def build_class_group(delta: int) -> ClassGroup:
    """Class group of a fundamental discriminant: classes, inverses, squares, genera."""
    classes = reduced_forms(delta)
    index_of = {q.triple(): i for i, q in enumerate(classes)}
    identity = index_of[reduce_triple(1, delta % 2, (delta % 2 - delta) // 4)]
    inverses = tuple(index_of[reduce_triple(q.a, -q.b, q.c)] for q in classes)

    # assigned characters at a value coprime to delta; the first class of each genus names it
    factors = prime_discriminant_factorization(delta)
    first_of: dict[tuple[int, ...], int] = {}
    genus_of = []
    for i, r in enumerate(_coprime_values(classes, delta)):
        genus_of.append(first_of.setdefault(tuple(kronecker(p, r) for p in factors), i))

    squares = tuple(sorted({index_of[_compose_triples(t, t)] for t in index_of}))
    group = ClassGroup(
        delta=delta,
        classes=classes,
        index_of=index_of,
        identity=identity,
        inverses=inverses,
        squares=squares,
        genus_of=tuple(genus_of),
        genus_ids=tuple(first_of.values()),
        genus_signs=tuple(first_of),
    )
    _check_group(group)
    return group


def prime_form(delta: int, p: int) -> QuadForm:
    """The form [p, b, (b^2 - delta)/(4p)] for the smallest valid b in [0, 2p).

    Exists exactly when p is not inert, i.e. (delta|p) != -1.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if kronecker(delta, p) == -1:
        raise ValueError(f"{p} is inert for discriminant {delta}: no ideal of norm {p}")
    for b in range(0, 2 * p):
        if (b - delta) % 2 == 0 and (b * b - delta) % (4 * p) == 0:
            return QuadForm(p, b, (b * b - delta) // (4 * p))
    raise AssertionError(f"no square root of {delta} mod {4 * p} found for non-inert {p}")


def prime_ideal_class(group: ClassGroup, p: int) -> int:
    """Class index of the prime ideal above a split or ramified p."""
    return group.index_of[reduce_form(prime_form(group.delta, p)).triple()]
