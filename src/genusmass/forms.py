"""Positive-definite integral binary quadratic forms: reduction, enumeration, counts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import is_fundamental

__all__ = [
    "QuadForm",
    "reduce_triple",
    "reduce_form",
    "reduced_forms",
    "representation_counts",
    "automorph_count",
    "represented_coprime_value",
]


@dataclass(frozen=True, order=True)
class QuadForm:
    """An integral form a*x^2 + b*x*y + c*y^2, positive definite and primitive."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ValueError(f"leading coefficient must be positive: ({self.a},{self.b},{self.c})")
        if self.discriminant() >= 0:
            raise ValueError(f"form is not positive definite: ({self.a},{self.b},{self.c})")
        if math.gcd(self.a, math.gcd(self.b, self.c)) != 1:
            raise ValueError(f"form is not primitive: ({self.a},{self.b},{self.c})")

    def __repr__(self) -> str:
        return f"[{self.a},{self.b},{self.c}]"

    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y


def reduce_triple(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Gauss reduction of the positive definite form (a, b, c), on bare integers."""
    while True:
        # shift x -> x + r*y to bring b into (-a, a]
        r = (a - b) // (2 * a)
        if r:
            b, c = b + 2 * r * a, a * r * r + b * r + c
        if a > c or (a == c and b < 0):
            # (x, y) -> (-y, x)
            a, b, c = c, -b, a
        else:
            return a, b, c


def reduce_form(q: QuadForm) -> QuadForm:
    """The unique reduced form SL2(Z)-equivalent to q."""
    return QuadForm(*reduce_triple(q.a, q.b, q.c))


@lru_cache(maxsize=None)
def reduced_forms(delta: int) -> tuple[QuadForm, ...]:
    """One reduced representative per form class of fundamental discriminant delta.

    Enumerates 0 < a <= sqrt(|delta|/3), -a < b <= a with b = delta (mod 2)
    and integral c = (b^2 - delta)/(4a) >= a, dropping b < 0 on the a = c
    boundary.  Lexicographically sorted.
    """
    if not is_fundamental(delta):
        raise ValueError(f"{delta} is not a negative fundamental discriminant")
    out = []
    for a in range(1, math.isqrt(-delta // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b - delta) % 2:
                continue
            num = b * b - delta
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (b < 0 and a == c):
                continue
            out.append(QuadForm(a, b, c))
    return tuple(sorted(out))


def representation_counts(q: QuadForm, n_max: int) -> list[int]:
    """Vector [r(q, 0), ..., r(q, n_max)] by one sweep over the ellipse q <= n_max."""
    if n_max < 0:
        raise ValueError(f"expected n_max >= 0, got {n_max}")
    a, b, c = q.a, q.b, q.c
    abs_disc = 4 * a * c - b * b
    counts = [0] * (n_max + 1)
    two_c = 2 * c
    xmax = math.isqrt(4 * c * n_max // abs_disc)
    for x in range(-xmax, xmax + 1):
        s2 = 4 * c * n_max - abs_disc * x * x
        if s2 < 0:
            continue
        s = math.isqrt(s2)
        ylo = -((b * x + s) // two_c)
        yhi = (-b * x + s) // two_c
        for y in range(ylo, yhi + 1):
            counts[a * x * x + b * x * y + c * y * y] += 1
    return counts


def automorph_count(delta: int) -> int:
    """Unit count w of the order of discriminant delta: 6, 4, or 2."""
    if not is_fundamental(delta):
        raise ValueError(f"{delta} is not a negative fundamental discriminant")
    if delta == -3:
        return 6
    if delta == -4:
        return 4
    return 2


def represented_coprime_value(q: QuadForm, d: int) -> int:
    """Smallest positive value of q coprime to d, by expanding square shells.

    Primitive forms represent values coprime to any fixed modulus, so the
    search never legitimately exhausts its |x|,|y| <= 4d region.
    """
    if d < 1:
        raise ValueError(f"expected d >= 1, got {d}")
    for k in range(1, 4 * d + 1):
        best = None
        for x in range(-k, k + 1):
            ys = (-k, k) if abs(x) < k else range(-k, k + 1)
            for y in ys:
                value = q(x, y)
                if value > 0 and math.gcd(value, d) == 1 and (best is None or value < best):
                    best = value
        if best is not None:
            return best
    raise RuntimeError(f"no value of {q} coprime to {d} in |x|,|y| <= {4 * d}")
