"""The form class group of a negative fundamental discriminant.

Classes are the reduced forms.  A product of classes is Dirichlet composition
followed by Gauss reduction; compose_stacked computes a whole array of products
at once, in the groups of many discriminants, by a scalar loop for a few rows
and by one int64 array kernel for many, and no composition table is stored.
The genus of a class is read off the assigned characters: one per prime
discriminant p of delta, read from the table of p (arith.prime_discriminant_tables)
at a value of the class that p does not divide.  The build checks the group laws and the
principal genus theorem (the squares are exactly the principal genus) with one
composition call.  class_group_stack builds the groups of many discriminants as
stacked arrays; build_class_group is the group of one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .arith import ext_gcd, is_prime, kronecker, prime_discriminant_factorization, prime_discriminant_tables
from .cache import memo
from .forms import INT64_BOUND, automorph_count, reduce_triple, stacked_reduced_forms

__all__ = [
    "ClassGroup",
    "build_class_group",
    "compose_rows",
    "compose_stacked",
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


@dataclass(frozen=True)
class ClassGroup:
    """The form class group of a fundamental discriminant, with its genus partition.

    classes holds the lexicographically sorted reduced forms (a, b, c) as the rows
    of a read-only h x 3 int64 array, and index_of maps each (a, b, c) to its
    position; genus ids are the smallest class index in each genus.
    genus_signs[k] holds the assigned characters of the genus genus_ids[k]:
    (p|r) for each prime discriminant p of delta, in
    prime_discriminant_factorization order, at a value r of the genus that p
    does not divide.  squares is the principal genus, which the build checks
    is exactly the set of squares.
    """

    delta: int
    classes: np.ndarray = field(compare=False)
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

    def genus_members(self, genus_id: int) -> tuple[int, ...]:
        return tuple(i for i in range(self.h) if self.genus_of[i] == genus_id)


class Stack(NamedTuple):
    """Class groups stacked: the classes of groups[i] are the rows
    starts[i] <= row < starts[i] + groups[i].h of classes, and owner[row] is i."""

    groups: list[ClassGroup]
    classes: np.ndarray
    starts: np.ndarray
    owner: np.ndarray


def stack_of(group: ClassGroup) -> Stack:
    """The stack of one group."""
    return Stack([group], group.classes, np.zeros(1, dtype=np.int64), np.zeros(group.h, dtype=np.int64))


# compose_stacked runs the scalar _compose_triples loop below this many rows, and
# the int64 array kernel from it on: the measured crossover (see compose_rows).
ARRAY_MIN_ROWS = 192


def _class_keys(stack: Stack, which: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort keys (i (a_max + 1) + a) m + b, m = 2 a_max + 1, of the stacked classes
    (i their group) and of the pairs (a, b) in the groups which: increasing in
    the order of the stack, and one key per (group, a, b) with
    |b| <= a <= a_max."""
    classes = stack.classes
    a_max = int(classes[:, 0].max())
    m = 2 * a_max + 1
    if len(stack.starts) == 1:  # i = 0 throughout
        return classes[:, 0] * m + classes[:, 1], a * m + b
    keys = (stack.owner * (a_max + 1) + classes[:, 0]) * m + classes[:, 1]
    return keys, (which * (a_max + 1) + a) * m + b


def compose_stacked(stack: Stack, left, right) -> np.ndarray:
    """The stack rows of the products left[k] * right[k], where left[k] and
    right[k] are stack rows of one group, as an int64 array.

    Below ARRAY_MIN_ROWS rows this is the scalar _compose_triples loop and each
    group's index_of; from it on, _compose_arrays on int64 arrays, then
    np.searchsorted of each result's (group, a, b) among the stacked classes.  On
    either path a result that is not a class raises RuntimeError.  See
    compose_rows for the crossover and the int64 bound."""
    left = np.asarray(left, dtype=np.int64)
    right = np.asarray(right, dtype=np.int64)
    classes, groups = stack.classes, stack.groups
    which = stack.owner[left]
    if len(left) < ARRAY_MIN_ROWS:
        pairs = zip(map(tuple, classes[left].tolist()), map(tuple, classes[right].tolist()))
        products = [_compose_triples(f1, f2) for f1, f2 in pairs]
        found, starts = [], stack.starts.tolist()
        for k, (i, product) in enumerate(zip(which.tolist(), products)):
            index = groups[i].index_of.get(product)
            if index is None:
                raise _not_a_class(stack, left[k], right[k], product)
            found.append(starts[i] + index)
        return np.array(found, dtype=np.int64)
    q = -min(group.delta for group in groups)
    if (2 * q) ** 2 // 9 + q >= INT64_BOUND:
        raise ValueError(f"|delta| = {q} is too large for int64 composition")
    products = _compose_arrays(classes.take(left, axis=0), classes.take(right, axis=0))
    keys, found = _class_keys(stack, which, products[0], products[1])
    index = np.minimum(keys.searchsorted(found), len(classes) - 1)
    bad = (classes.take(index, axis=0) != products.T).any(axis=1)
    if bad.any():
        k = int(bad.argmax())
        raise _not_a_class(stack, left[k], right[k], tuple(products[:, k].tolist()))
    return index


def compose_rows(group: ClassGroup, left, right) -> np.ndarray:
    """The class indices of the products left[k] * right[k], as an int64 array:
    compose_stacked on the stack of this one group.

    The crossover was measured with both paths on the same random rows (2 vCPU,
    Python 3.11, numpy 2.4, best of 15): the array kernel costs about 0.18 ms
    for any small number of rows, and a scalar product 1.5-2.5 us.  At -420
    (h = 8) 32 rows take 0.05 ms scalar and 0.18 ms as arrays, and the two tie
    at 160 rows (0.26 ms); at 192 rows the arrays win at every h measured (8, 88,
    124, 706, 999: 0.30-0.52 ms scalar, 0.22-0.30 ms arrays); at -400391 (h = 999)
    3000 rows take 8.7 ms scalar and 2.0 ms as arrays.

    int64 bound: Algorithm 5.4.7's product before reduction has a3 = v1 v2 <= a1 a2
    <= |delta|/3 and |b3| <= 2 a1 a2 <= 2|delta|/3, as reduced inputs have
    a <= sqrt(|delta|/3); its other intermediates (y1 y2 n, x2 c2, r (b2 + v2 r))
    are at most a1 a2^2 or a1 (|delta| + 1)/4.  The reduction squares b: its first
    shift forms (a r + b) r + c, at most b3^2 + |delta| in absolute value, and every
    later round works on a smaller form.  So every int64 intermediate is at most
    (2|delta|/3)^2 + |delta|, and the array path raises ValueError when that could
    reach INT64_BOUND (|delta| above about 3.2 * 10^9), for the largest |delta|
    of a stack.  The sort keys of a stack of at most n groups are below
    2 n |delta|.
    """
    return compose_stacked(stack_of(group), left, right)


def _not_a_class(stack: Stack, i, j, product: Triple) -> RuntimeError:
    k = int(stack.owner[i])
    start = int(stack.starts[k])
    return RuntimeError(f"delta={stack.groups[k].delta}: the product of classes {i - start} and "
                        f"{j - start} is {product}, not a class")


def law_rows(stack: Stack) -> tuple[np.ndarray, np.ndarray]:
    """The stack rows of the products e * h, h * h^-1 and h * h of every class h
    of every group, in three blocks of the stack's length, for check_laws."""
    every = np.arange(len(stack.classes))
    identities = stack.starts + [group.identity for group in stack.groups]
    inverses = stack.starts[stack.owner] + np.fromiter(
        (i for group in stack.groups for i in group.inverses), dtype=np.int64, count=len(every))
    return (np.concatenate((identities[stack.owner], every, every)),
            np.concatenate((every, inverses, every)))


def check_laws(stack: Stack, products: np.ndarray) -> None:
    """Raise, for the first group where one fails, unless the identity and inverse
    laws and the principal genus theorem hold: products are the stack rows of
    law_rows' products."""
    local = (products.reshape(3, -1) - stack.starts[stack.owner]).ravel()
    for k, group in enumerate(stack.groups):
        start, h = int(stack.starts[k]), group.h
        _check_group(group, *(local[j * len(stack.classes) + start :][:h] for j in range(3)))


def _check_group(group: ClassGroup, unit_law: np.ndarray, inverse_law: np.ndarray,
                 squares: np.ndarray) -> None:
    """Raise unless the products e * h, h * h^-1 and h * h of every class h are h,
    the identity and a member of the principal genus, every member of which is
    a square, and the genera have one size."""
    every = np.arange(group.h)
    bad = unit_law != every
    if bad.any():
        raise RuntimeError(f"delta={group.delta}: the principal class is not the identity at {bad.argmax()}")
    bad = inverse_law != group.identity
    if bad.any():
        raise RuntimeError(f"delta={group.delta}: the inverse law fails at {bad.argmax()}")
    squares = tuple(sorted(set(squares.tolist())))
    if squares != group.squares:
        raise RuntimeError(
            f"delta={group.delta}: squares {squares} are not the principal genus {group.squares}"
        )
    sizes = set(Counter(group.genus_of).values())
    if sizes != {len(group.squares)}:
        raise RuntimeError(f"delta={group.delta}: genera of unequal sizes {sorted(sizes)}")


# a, c and a + b + c of each row (a, b, c)
_VALUES = np.array([[1, 0, 1], [0, 0, 1], [0, 1, 1]], dtype=np.int64)


def _genera(stack: Stack, deltas: list[int], read_tables=None) -> tuple[list[int], np.ndarray]:
    """The genus of every stacked class, as the stack row of the first class of
    its genus; and the assigned characters of every class, one row per class:
    (p|r) for the prime discriminants p of its delta in order, padded with 1s to
    the most any delta has.

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
    by one integer key per class: its group, then its characters as base-3
    digits."""
    factors = [prime_discriminant_factorization(delta) for delta in deltas]
    width = max(map(len, factors))
    # per group and prime discriminant: q and |p|
    pad = [[1] * (width - len(f)) for f in factors]
    reads = [([2 if p % 2 == 0 else abs(p) for p in f] + ones, [abs(p) for p in f] + ones)
             for f, ones in zip(factors, pad)]
    q, size = np.array(reads, dtype=np.int64)[stack.owner].transpose(1, 0, 2)
    values = stack.classes @ _VALUES
    first = (values[:, :, None] % q[:, None, :] != 0).argmax(axis=1)
    at = values[np.arange(len(values))[:, None], first] % size
    signs = np.ones(at.shape, dtype=np.int64)
    bounds = stack.starts.tolist() + [len(stack.classes)]
    for k, delta in enumerate(deltas):
        lo, hi = bounds[k], bounds[k + 1]
        tables = prime_discriminant_tables(delta)
        for j, (_, table) in enumerate(tables):
            signs[lo:hi, j] = table[at[lo:hi, j]]
        if read_tables is not None:
            read_tables(delta)
    keys = (stack.owner * 3**width + (signs + 1) @ 3 ** np.arange(width)).tolist()
    leaders: dict[int, int] = {}
    return [leaders.setdefault(key, i) for i, key in enumerate(keys)], signs


def class_group_stack(deltas: list[int], classes: np.ndarray, counts: np.ndarray, read_tables=None) -> Stack:
    """The stack of the class groups of the fundamental discriminants deltas, in
    order, from their stacked reduced forms (forms.stacked_reduced_forms), with
    their inverses and genera as arrays over all of them at once; the group laws
    are not yet checked (check_laws).  read_tables(delta), when given, is
    called on each delta right after its genus characters are read from its
    prime-discriminant tables, while they are still the ones
    arith.prime_discriminant_tables keeps (the last delta's), so that a caller
    can read them too without building them again."""
    classes = classes.copy()
    classes.setflags(write=False)
    starts = counts.cumsum() - counts
    owner = np.arange(len(deltas)).repeat(counts)
    stack = Stack([], classes, starts, owner)
    # the inverse of (a, b, c) is (a, -b, c): a class of its own, or, when b = a
    # or a = c, not reduced and the class itself
    keys, opposite = _class_keys(stack, owner, classes[:, 0], -classes[:, 1])
    index = np.minimum(keys.searchsorted(opposite), len(classes) - 1)
    inverses = np.where(keys[index] == opposite, index, np.arange(len(classes))) - starts[owner]
    genus_first, signs = _genera(stack, deltas, read_tables)
    forms, inverses = classes.tolist(), inverses.tolist()
    for k, (delta, lo, h) in enumerate(zip(deltas, starts.tolist(), counts.tolist())):
        hi, t = lo + h, len(prime_discriminant_factorization(delta))
        index_of = {tuple(q): i for i, q in enumerate(forms[lo:hi])}
        principal = reduce_triple(1, delta % 2, (delta % 2 - delta) // 4)
        if principal not in index_of:
            raise RuntimeError(f"delta={delta}: the principal form {principal} is not a class")
        identity = index_of[principal]
        group_of = [g - lo for g in genus_first[lo:hi]]
        ids = [i for i, g in enumerate(group_of) if g == i]
        stack.groups.append(ClassGroup(
            delta=delta,
            classes=classes[lo:hi],
            index_of=index_of,
            identity=identity,
            inverses=tuple(inverses[lo:hi]),
            squares=tuple(i for i, g in enumerate(group_of) if g == group_of[identity]),
            genus_of=tuple(group_of),
            genus_ids=tuple(ids),
            genus_signs=tuple(map(tuple, signs[[lo + i for i in ids], :t].tolist())),
        ))
    return stack


def genus_rows(stack: Stack) -> np.ndarray:
    """The genus of every stacked class as its row among the stacked genera: the
    groups' genera in order, each group's in genus_ids order."""
    first = stack.starts[stack.owner] + np.fromiter(
        (g for group in stack.groups for g in group.genus_of), dtype=np.int64, count=len(stack.owner))
    return np.flatnonzero(first == np.arange(len(first))).searchsorted(first)


@memo(maxsize=None)
def build_class_group(delta: int) -> ClassGroup:
    """Class group of a fundamental discriminant: classes, inverses, squares, genera;
    a stack of one group, with its group laws checked by one compose_stacked call."""
    delta = int(delta)
    stack = class_group_stack([delta], *stacked_reduced_forms([delta]))
    check_laws(stack, compose_stacked(stack, *law_rows(stack)))
    return stack.groups[0]


def prime_form(delta: int, p: int) -> Triple:
    """The form (p, b, (b^2 - delta)/(4p)) for the smallest valid b in [0, 2p).

    Exists exactly when p is not inert, i.e. (delta|p) != -1.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if kronecker(delta, p) == -1:
        raise ValueError(f"{p} is inert for discriminant {delta}: no ideal of norm {p}")
    for b in range(0, 2 * p):
        if (b - delta) % 2 == 0 and (b * b - delta) % (4 * p) == 0:
            return p, b, (b * b - delta) // (4 * p)
    raise AssertionError(f"no square root of {delta} mod {4 * p} found for non-inert {p}")


def prime_ideal_class(group: ClassGroup, p: int) -> int:
    """Class index of the prime ideal above a split or ramified p."""
    form = reduce_triple(*prime_form(group.delta, p))
    try:
        return group.index_of[form]
    except KeyError:
        raise RuntimeError(f"delta={group.delta}: the prime ideal above {p} is {form}, not a class") from None
