"""The form class group of a negative fundamental discriminant.

Classes are the reduced forms.  A product of classes is Dirichlet composition
followed by Gauss reduction; compose_stacked computes a whole array of products
at once, in the groups of many discriminants, by a scalar loop for a few rows
and by one int64 array kernel for many, finds each among the stacked classes
by np.searchsorted, and no composition table is stored.  The genus of a class
is read off the assigned characters: one per prime discriminant p of delta,
read from the table of p (arith.prime_discriminant_tables) at a value of the
class that p does not divide.  class_group_stack builds the groups of many
discriminants as one Stack of arrays (inverses, genera, |H^2|; the first class
of each group is its principal class), check_laws checks the group laws and
the principal genus theorem (the squares are exactly the principal genus) for
all of them from one composition call, and prime_ideal_rows finds the prime
ideal classes of all of them.  One group is a stack of one, in which stack rows
are class indices, and build_class_group builds one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .arith import ext_gcd, is_prime, prime_discriminant_factorization, prime_discriminant_tables
from .forms import INT64_BOUND, UNIT_COUNTS, reduce_triple, stacked_reduced_forms

__all__ = [
    "Stack",
    "build_class_group",
    "compose_stacked",
    "composes_in_int64",
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


def _ext_gcd_rows(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """arith.ext_gcd elementwise on int64 arrays with y > 0, as (g, u) with
    u x + v y = g = gcd(x, y): the same Euclid steps, each taken only by the rows
    not yet done.  y > 0 makes every remainder after the first step
    non-negative, so g > 0 needs no sign fix; v is (g - u x) / y."""
    g, u = np.empty_like(x), np.empty_like(x)
    rows = np.arange(len(x))
    old_r, r, old_s, s = x, y, np.ones_like(x), np.zeros_like(x)
    while len(rows):
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        g[rows], u[rows] = old_r, old_s
        more = np.flatnonzero(r)
        rows, old_r, r, old_s, s = rows[more], old_r[more], r[more], old_s[more], s[more]
    return g, u


def _reduce_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """forms.reduce_triple elementwise on int64 arrays, as a 3 x n array: each
    round shifts b into (-a, a] and swaps the rows that then need it, until no
    row needs a swap."""
    out = np.empty((3, len(a)), dtype=np.int64)
    rows = np.arange(len(a))
    while len(rows):
        r = (a - b) // (2 * a)
        b, c = b + 2 * r * a, (a * r + b) * r + c
        out[0, rows], out[1, rows], out[2, rows] = a, b, c
        swap = np.flatnonzero((a > c) | ((a == c) & (b < 0)))
        rows, a, b, c = rows[swap], c[swap], -b[swap], a[swap]
    return out


def _compose_arrays(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """_compose_triples on the rows of two n x 3 int64 arrays, as a 3 x n array.

    The same steps of Algorithm 5.4.7: where a1 divides a2 (or d divides s),
    Euclid's first step already gives the algorithm's special values y1 = 0,
    d = a1 (x2 = 0, y2 = -1, d1 = d)."""
    swap = f1[:, 0] > f2[:, 0]
    (a1, b1, _), (a2, b2, c2) = np.where(swap, f2.T, f1.T), np.where(swap, f1.T, f2.T)
    s = (b1 + b2) // 2
    n = b2 - s
    d, y1 = _ext_gcd_rows(a2, a1)
    d1, x2 = _ext_gcd_rows(s, d)
    y2 = (x2 * s - d1) // d
    v1, v2 = a1 // d1, a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    return _reduce_rows(v1 * v2, b2 + 2 * v2 * r, (c2 * d1 + r * (b2 + v2 * r)) // v1)


class Stack(NamedTuple):
    """Class groups stacked as arrays.  The classes of group k are the rows
    starts[k] <= row < starts[k] + h[k] of classes, lexicographically sorted
    reduced forms, and owner[row] is k; the first of them, starts[k], is the
    principal class (class_group_stack checks it).
    - Per class: inverses[row], the stack row of its inverse; genus[row], the
      row of its genus among the stacked genera (the groups in order, each
      one's genera in the order of their first classes).
    - Per group: deltas[k]; w[k], its unit count; squares[k], |H^2|, the size
      of the principal genus; factors[k], the prime discriminants of delta in
      prime_discriminant_factorization order, t[k] of them, padded on the right
      with 1s; genus_starts[k] and genus_counts[k], where its genera start
      among the stacked genera and how many it has.
    - Per genus: leaders[g], the stack row of its first class, whose index in
      its group is the genus id; genus_signs[g], its assigned characters, (p|r)
      for each prime discriminant p of its delta, padded on the right with 1s.
    Every array is read-only.  In a stack of one group, stack rows are class
    indices and leaders are the genus ids."""

    deltas: tuple[int, ...]
    classes: np.ndarray
    starts: np.ndarray
    h: np.ndarray
    owner: np.ndarray
    inverses: np.ndarray
    genus: np.ndarray
    w: np.ndarray
    squares: np.ndarray
    factors: np.ndarray
    t: np.ndarray
    genus_starts: np.ndarray
    genus_counts: np.ndarray
    leaders: np.ndarray
    genus_signs: np.ndarray

    @property
    def delta(self) -> int:
        """The discriminant of a stack of one group."""
        if len(self.deltas) != 1:
            raise ValueError(f"a stack of {len(self.deltas)} groups has no one delta")
        return self.deltas[0]


def _read_only(stack: Stack) -> Stack:
    for array in stack[1:]:
        array.setflags(write=False)
    return stack


# compose_stacked runs the scalar _compose_triples loop below this many rows, and
# the int64 array kernel from it on: the measured crossover.  It was measured with
# both paths on the same random rows of one group (2 vCPU, Python 3.11, numpy 2.4,
# best of 15): the array kernel costs about 0.18 ms for any small number of rows,
# and a scalar product 1.5-2.5 us.  At -420 (h = 8) 32 rows take 0.05 ms scalar
# and 0.18 ms as arrays, and the two tie at 160 rows (0.26 ms); at 192 rows the
# arrays win at every h measured (8, 88, 124, 706, 999: 0.30-0.52 ms scalar,
# 0.22-0.30 ms arrays); at -400391 (h = 999) 3000 rows take 8.7 ms scalar and
# 2.0 ms as arrays.
ARRAY_MIN_ROWS = 192


def _class_keys(classes: np.ndarray, owner: np.ndarray, which: np.ndarray, a: np.ndarray,
                b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort keys (i (a_max + 1) + a) m + b, m = 2 a_max + 1, of the stacked classes
    (i = owner, their group) and of the pairs (a, b) in the groups which:
    increasing in the order of the stack, and one key per (group, a, b) with
    |b| <= a <= a_max."""
    a_max = int(classes[:, 0].max())
    m = 2 * a_max + 1
    if not owner[-1]:  # one group: i = 0 throughout
        return classes[:, 0] * m + classes[:, 1], a * m + b
    keys = (owner * (a_max + 1) + classes[:, 0]) * m + classes[:, 1]
    return keys, (which * (a_max + 1) + a) * m + b


def _find_classes(classes: np.ndarray, owner: np.ndarray, which: np.ndarray,
                  forms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stack rows of the reduced forms (the 3 x n array forms) in the groups
    which, among the stacked classes (owner[row] the group of each), by
    np.searchsorted of their (group, a, b) keys; and where a form is not a
    class of its group, which is where it differs from the row found: a form
    is found in its own group when it is a class there, and (a, b, c) fixes
    delta, so a form that is not matches no class of any group."""
    keys, found = _class_keys(classes, owner, which, forms[0], forms[1])
    index = np.minimum(keys.searchsorted(found), len(classes) - 1)
    return index, (classes.take(index, axis=0) != forms.T).any(axis=1)


def compose_stacked(stack: Stack, left, right) -> np.ndarray:
    """The stack rows of the products left[k] * right[k], where left[k] and
    right[k] are stack rows of one group, as an int64 array.

    The products come from the scalar _compose_triples loop below
    ARRAY_MIN_ROWS rows (the measured crossover), and from _compose_arrays on
    int64 arrays from it on; on either path each one is then found among the
    stacked classes by _find_classes, and one that is not a class raises
    RuntimeError.  In a stack of one group, rows are class indices.

    int64 bound: Algorithm 5.4.7's product before reduction has a3 = v1 v2 <= a1 a2
    <= |delta|/3 and |b3| <= 2 a1 a2 <= 2|delta|/3, as reduced inputs have
    a <= sqrt(|delta|/3); its other intermediates (y1 y2 n, x2 c2, r (b2 + v2 r))
    are at most a1 a2^2 or a1 (|delta| + 1)/4.  The reduction squares b: its first
    shift forms (a r + b) r + c, at most b3^2 + |delta| in absolute value, and every
    later round works on a smaller form.  So every int64 intermediate is at most
    (2|delta|/3)^2 + |delta|, and the array path raises ValueError when that could
    reach INT64_BOUND (composes_in_int64), for the largest |delta| of a stack.
    The sort keys of a stack of at most n groups are below 2 n |delta|."""
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    classes = stack.classes
    if len(left) < ARRAY_MIN_ROWS:
        pairs = zip(map(tuple, classes[left].tolist()), map(tuple, classes[right].tolist()))
        products = np.fromiter(chain.from_iterable(_compose_triples(f1, f2) for f1, f2 in pairs), dtype=np.int64,
                               count=3 * len(left)).reshape(-1, 3).T
    else:
        if not composes_in_int64(min(stack.deltas)):
            raise ValueError(f"|delta| = {-min(stack.deltas)} is too large for int64 composition")
        products = _compose_arrays(classes.take(left, axis=0), classes.take(right, axis=0))
    index, bad = _find_classes(classes, stack.owner, stack.owner[left], products)
    if bad.any():
        k = int(bad.argmax())
        raise _not_a_class(stack, left[k], right[k], tuple(products[:, k].tolist()))
    return index


def composes_in_int64(delta: int) -> bool:
    """Whether every int64 intermediate of the array path of compose_stacked
    stays below INT64_BOUND for the discriminant delta: (2|delta|/3)^2 + |delta|
    does, that is |delta| <= 3,221,225,470.  It is the tightest int64 bound of
    the library, so a delta within it passes series.l_zero's too."""
    q = abs(delta)
    return (2 * q) ** 2 // 9 + q < INT64_BOUND


def _not_a_class(stack: Stack, i, j, product: Triple) -> RuntimeError:
    k = int(stack.owner[i])
    start = int(stack.starts[k])
    return RuntimeError(f"delta={stack.deltas[k]}: the product of classes {i - start} and "
                        f"{j - start} is {product}, not a class")


def law_rows(stack: Stack) -> tuple[np.ndarray, np.ndarray]:
    """The stack rows of the products e * h, h * h^-1 and h * h of every class h
    of every group, in three blocks of the stack's length, for check_laws."""
    every = np.arange(len(stack.classes))
    return (np.concatenate((stack.starts[stack.owner], every, every)),
            np.concatenate((every, stack.inverses, every)))


def check_laws(stack: Stack, products: np.ndarray) -> None:
    """Raise unless, in every group, the products e * h, h * h^-1 and h * h of
    every class h (products, the stack rows of law_rows' products) are h, the
    identity and a member of the principal genus, every member of which is a
    square, and the genera have one size.  Each law is compared for the whole
    stack at once; the error names the first group where one fails, and the
    first law that fails there."""
    owner, n = stack.owner, len(stack.classes)
    unit, inverse, squares = np.asarray(products).reshape(3, n)
    every = np.arange(n)
    # each class is a square of its own group exactly when it is in the
    # principal genus; a square in another group fails its own
    own = owner[squares] == owner
    square = np.zeros(n, dtype=bool)
    square[squares[own]] = True
    principal = stack.genus == stack.genus[stack.starts][owner]
    sizes = np.bincount(stack.genus, minlength=len(stack.leaders))
    failing = (unit != every, inverse != stack.starts[owner], (square != principal) | ~own,
               sizes != stack.squares[owner[stack.leaders]])
    groups = (owner, owner, owner, owner[stack.leaders])
    first = [int(at[bad.argmax()]) if bad.any() else len(stack.deltas) for bad, at in zip(failing, groups)]
    k = min(first)
    if k == len(stack.deltas):
        return
    start, h, delta = int(stack.starts[k]), int(stack.h[k]), stack.deltas[k]
    rows = slice(start, start + h)
    if first[0] == k:
        local = int(failing[0][rows].argmax())
        raise RuntimeError(f"delta={delta}: the principal class is not the identity at {local}")
    if first[1] == k:
        raise RuntimeError(f"delta={delta}: the inverse law fails at {int(failing[1][rows].argmax())}")
    if first[2] == k:
        found = tuple(sorted(set((squares[rows] - start).tolist())))
        expected = tuple(np.flatnonzero(principal[rows]).tolist())
        raise RuntimeError(f"delta={delta}: squares {found} are not the principal genus {expected}")
    g0 = int(stack.genus_starts[k])
    counts = sorted(set(sizes[g0 : g0 + int(stack.genus_counts[k])].tolist()))
    raise RuntimeError(f"delta={delta}: genera of unequal sizes {counts}")


# a, c and a + b + c of each row (a, b, c)
_VALUES = np.array([[1, 0, 1], [0, 0, 1], [0, 1, 1]], dtype=np.int64)


def _genera(classes: np.ndarray, starts: np.ndarray, owner: np.ndarray, factors: np.ndarray,
            deltas: list[int], read_tables=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The genus of every stacked class (classes, the groups' rows from starts,
    owner[row] the group of each, factors[k] the prime discriminants of
    deltas[k] padded with 1s), as its row among the stacked genera; the stack
    row of the first class of each genus, in order; and the assigned characters
    of every genus, (p|r) for the prime discriminants p of its delta in order,
    padded with 1s.

    The character (p|r) of a prime discriminant p of delta takes one value on
    every r the class represents that p does not divide (Cox, Primes of the Form
    x^2 + ny^2, Thm 3.15; Buell, Binary Quadratic Forms, ch. 4).  So it is read
    from the table of p (arith.prime_discriminant_tables) at the first of a, c
    and a + b + c not divisible by q, where q is |p|, or 2 for p = -4, 8 or -8.
    A primitive form has one: if q divides a and c, it does not divide b, nor
    then a + b + c.  Where to read is worked out for all classes at once, with
    the padding read as p = 1; then each table is read in place, one gather per
    prime discriminant of each delta, then read_tables(delta) when it is given.
    The first class of a group with a row of characters names its genus, found
    by one integer key per class, its group, then its characters as base-3
    digits, and one np.unique over the keys."""
    width = factors.shape[1]
    size = np.abs(factors)
    q = np.where(factors % 2 == 0, 2, size)[owner]
    values = classes @ _VALUES
    first = (values[:, :, None] % q[:, None, :] != 0).argmax(axis=1)
    at = values[np.arange(len(values))[:, None], first] % size[owner]
    signs = np.ones(at.shape, dtype=np.int64)
    bounds = starts.tolist() + [len(classes)]
    for k, delta in enumerate(deltas):
        lo, hi = bounds[k], bounds[k + 1]
        tables = prime_discriminant_tables(delta)
        for j, (_, table) in enumerate(tables):
            signs[lo:hi, j] = table[at[lo:hi, j]]
        if read_tables is not None:
            read_tables(delta)
    keys = owner * 3**width + (signs + 1) @ 3 ** np.arange(width)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = first.argsort()
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    leaders = first[order]
    return rank[inverse.ravel()], leaders, signs[leaders]


def class_group_stack(deltas: list[int], classes: np.ndarray, counts, read_tables=None) -> Stack:
    """The stack of the class groups of the fundamental discriminants deltas, in
    order, from their stacked reduced forms (forms.stacked_reduced_forms), with
    their inverses and genera as read-only arrays over all of them at once, and
    each group's first class checked to be its principal class; the group laws
    are not yet checked (check_laws).
    read_tables(delta), when given, is called on each delta right after its
    genus characters are read from its prime-discriminant tables, while they are
    still the ones arith.prime_discriminant_tables keeps (the last delta's), so
    that a caller can read them too without building them again."""
    deltas = tuple(int(delta) for delta in deltas)
    classes = classes.copy()
    counts = np.array(counts, dtype=np.int64)
    starts = counts.cumsum() - counts
    owner = np.arange(len(deltas)).repeat(counts)
    found = [prime_discriminant_factorization(delta) for delta in deltas]
    width = max(map(len, found))
    factors = np.array([f + (1,) * (width - len(f)) for f in found], dtype=np.int64)
    genus, leaders, signs = _genera(classes, starts, owner, factors, deltas, read_tables)
    genus_counts = np.bincount(owner[leaders], minlength=len(deltas))
    # the inverse of (a, b, c) is (a, -b, c): a class of its own, or, when b = a
    # or a = c, not reduced and the class itself
    keys, opposite = _class_keys(classes, owner, owner, classes[:, 0], -classes[:, 1])
    index = np.minimum(keys.searchsorted(opposite), len(classes) - 1)
    inverses = np.where(keys[index] == opposite, index, np.arange(len(classes)))
    # the principal form (1, delta mod 2, (delta mod 2 - delta)/4) is the one
    # reduced form of delta with a = 1, so it is a class exactly when the first
    # class of its group has a = 1
    bad = classes[starts, 0] != 1
    if bad.any():
        delta = deltas[int(bad.argmax())]
        raise RuntimeError(f"delta={delta}: the principal form {(1, delta % 2, (delta % 2 - delta) // 4)} "
                           f"is not a class")
    return _read_only(Stack(
        deltas=deltas, classes=classes, starts=starts, h=counts, owner=owner, inverses=inverses, genus=genus,
        w=np.array([UNIT_COUNTS.get(delta, 2) for delta in deltas]),
        squares=np.bincount(genus, minlength=len(leaders))[genus[starts]], factors=factors,
        t=np.array(list(map(len, found))), genus_starts=genus_counts.cumsum() - genus_counts,
        genus_counts=genus_counts, leaders=leaders, genus_signs=signs))


@lru_cache(maxsize=None)
def build_class_group(delta: int) -> Stack:
    """The class group of a fundamental discriminant, as the read-only stack of
    this one group, with its group laws checked by one compose_stacked call."""
    delta = int(delta)
    stack = class_group_stack([delta], *stacked_reduced_forms([delta]))
    check_laws(stack, compose_stacked(stack, *law_rows(stack)))
    return stack


def prime_ideal_class(group: Stack, p: int) -> int:
    """The class index of the prime ideal above a split or ramified p in a stack
    of one group: prime_ideal_rows at p alone."""
    delta = group.delta
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    chi, rows = prime_ideal_rows(group, (p,))
    if chi[0, 0] == -1:
        raise ValueError(f"{p} is inert for discriminant {delta}: no ideal of norm {p}")
    return int(rows[0, 0])


class _PrimeTables(NamedTuple):
    """Residue tables of the primes p_i, concatenated: (delta|p_i) is
    chi[chi_at[i] + delta mod chi_mod[i]], where chi_mod[i] is p_i, or 8 at
    p_i = 2; and the smallest b in [0, 2 p_i) with b^2 = delta (mod 4 p_i) is
    roots[roots_at[i] + delta mod 4 p_i], or -1 where there is none: the prime
    form (p_i, b, (b^2 - delta)/(4 p_i)) exists exactly where p_i is not
    inert."""

    primes: np.ndarray
    chi: np.ndarray
    chi_at: np.ndarray
    chi_mod: np.ndarray
    roots: np.ndarray
    roots_at: np.ndarray


# (r|2) for r mod 8: 0 at even r, 1 at r = 1, 7 and -1 at r = 3, 5
_CHI_2 = (0, 1, 0, -1, 0, -1, 0, 1)


@lru_cache(maxsize=1)
def _prime_tables(primes: tuple[int, ...]) -> _PrimeTables:
    """The residue tables of primes, read-only and kept for the last primes
    only: they depend on no discriminant, so a range run builds them once.  At
    an odd p, (r|p) is 0 at r = 0, 1 at the nonzero squares mod p and -1
    elsewhere."""
    chi, roots = [], []
    for p in primes:
        if p == 2:
            chi.append(np.array(_CHI_2, dtype=np.int64))
        else:
            table = np.full(p, -1, dtype=np.int64)
            table[np.arange(p) ** 2 % p] = 1
            table[0] = 0
            chi.append(table)
        b = np.arange(2 * p, dtype=np.int64)
        squares, smallest = np.unique(b * b % (4 * p), return_index=True)
        table = np.full(4 * p, -1, dtype=np.int64)
        table[squares] = smallest
        roots.append(table)
    out = _PrimeTables(np.array(primes, dtype=np.int64), np.concatenate(chi),
                       np.cumsum([0] + [len(t) for t in chi[:-1]]), np.array([len(t) for t in chi]),
                       np.concatenate(roots), np.cumsum([0] + [4 * p for p in primes[:-1]]))
    for array in out:
        array.setflags(write=False)
    return out


def prime_ideal_rows(stack: Stack, primes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(delta_k|p_i) for every group k of the stack and every prime p_i, as a
    len(stack.deltas) x len(primes) int64 array; and the stack row of the class
    of the prime ideal above p_i in group k, or -1 where p_i is inert, all at
    once: chi and b from the residue tables of the primes (_prime_tables), the
    prime forms (p, b, c) reduced by reduce_triple one at a time below
    ARRAY_MIN_ROWS forms and by _reduce_rows from it on, and found by
    _find_classes.  A prime form that is not a class raises RuntimeError.  The
    crossover is compose_stacked's: on the prime forms of [-3, -2000] (2 vCPU,
    numpy 2.4, best of 7), 34 forms took 15 us scalar and 36 us as arrays, 148
    forms 46 and 38 us, and 500 forms 190 and 53 us."""
    shape = (len(stack.deltas), len(primes))
    if not primes:
        return np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64)
    tables = _prime_tables(tuple(primes))
    deltas = np.array(stack.deltas, dtype=np.int64)
    chi = tables.chi[tables.chi_at + deltas[:, None] % tables.chi_mod]
    k, i = np.nonzero(chi != -1)
    p, delta = tables.primes[i], deltas[k]
    b = tables.roots[tables.roots_at[i] + delta % (4 * p)]
    if (b < 0).any():
        j = int((b < 0).argmax())
        raise RuntimeError(f"no square root of {int(delta[j])} mod {4 * int(p[j])} for non-inert {int(p[j])}")
    c = (b * b - delta) // (4 * p)
    if len(p) < ARRAY_MIN_ROWS:
        reduced = chain.from_iterable(map(reduce_triple, p.tolist(), b.tolist(), c.tolist()))
        forms = np.fromiter(reduced, dtype=np.int64, count=3 * len(p)).reshape(-1, 3).T
    else:
        forms = _reduce_rows(p, b, c)
    index, bad = _find_classes(stack.classes, stack.owner, k, forms)
    if bad.any():
        j = int(bad.argmax())
        raise RuntimeError(f"delta={int(delta[j])}: the prime ideal above {int(p[j])} is "
                           f"{tuple(forms[:, j].tolist())}, not a class")
    rows = np.full(shape, -1, dtype=np.int64)
    rows[k, i] = index
    return chi, rows
