"""Graded pieces of the coordinate rings of (P^{n-1})^d and of P^{n-1}.

Two polynomial rings appear throughout: the Z^d-graded coordinate ring of
the d-factor Segre product and the Z-graded coordinate ring of the Veronese
target.  Every graded piece gets one canonical monomial order, lexicographically
decreasing on the flattened exponent table, so that coefficient vectors, and
hence row-reduced subspace bases, are bit-for-bit comparable.

This module owns that order, and every other module reads it from here:
`monomials` enumerates it, `rank_monomial` and `unrank_monomial` look
positions up in that enumeration, `degrees_up_to` lists degrees the same way,
as a cached tuple, and `_product_map`, the table S_u x S_v -> S_{u+v}, is the
only place monomials are multiplied.  `contractions` and `colon` read it to
contract functionals by monomials, for the apolar ideal of a form and the
saturation test.  A degree is checked once, by `check_degree` in the export
that takes it, and the canonical form that returns (an int on V, a tuple of
ints on S) is what travels below, to `_dim_piece`, `_product_map` and the
private helpers of the other modules.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from functools import lru_cache
from operator import add
from types import MappingProxyType

from .linalg import QQ, RowSource, Subspace


class RingKind(Enum):
    SEGRE_COORD = "S"
    VERONESE_COORD = "V"


@dataclass(frozen=True)
class RingSpec:
    """n variables per factor, d factors; the Veronese ring is Z-graded.

    `is_multigraded` and the hash are worked out once, when the ring is made:
    every cache keyed by a ring hashes it, and the hash is of ints alone, so
    it is the same in every process."""

    n: int
    d: int
    kind: RingKind
    is_multigraded: bool = dataclass_field(init=False, repr=False, compare=False)
    _hash: int = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", integer(self.n, "n"))
        object.__setattr__(self, "d", integer(self.d, "factor count"))
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.d < 1:
            raise ValueError(f"need d >= 1, got {self.d}")
        multigraded = self.kind is RingKind.SEGRE_COORD
        object.__setattr__(self, "is_multigraded", multigraded)
        object.__setattr__(self, "_hash", hash((self.n, self.d, multigraded)))

    def __hash__(self):
        return self._hash


def segre_ring(n: int, d: int) -> RingSpec:
    return _ring(integer(n, "n"), integer(d, "factor count"), RingKind.SEGRE_COORD)


def veronese_ring(n: int) -> RingSpec:
    return _ring(integer(n, "n"), 1, RingKind.VERONESE_COORD)


@lru_cache(maxsize=None)
def _ring(n: int, d: int, kind: RingKind) -> RingSpec:
    """One ring per shape, its sizes read as ints; a refused one is not kept."""
    return RingSpec(n, d, kind)


# -- degree arithmetic --------------------------------------------------------

def integer(x, what: str) -> int:
    """x as an int when it is integral (2.0 counts as 2); anything else, such
    as 2.5 or "2", raises ValueError naming `what` rather than being read."""
    try:
        if int(x) == x:  # only for an integral number
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} {x!r} is not an integer")


def check_degree(ring: RingSpec, u):
    """Normalize a degree for `ring`: a length-d tuple, or an int for Veronese.

    Entries must be integers (2.0 counts as 2); anything else, such as 1.5 or
    a bare int on the Segre ring, raises ValueError rather than being
    truncated or reaching a TypeError."""
    if ring.is_multigraded:
        if type(u) is not tuple:
            if isinstance(u, str) or not isinstance(u, Iterable):
                raise ValueError(f"S(n={ring.n}, d={ring.d}) takes a degree of {ring.d} parts, "
                                 f"got {u!r}")
            u = tuple(u)
        try:
            t = tuple(map(int, u))
        except (TypeError, ValueError, OverflowError):
            t = None
        if t != u:  # int(x) == x only for an integral x
            raise ValueError(f"degree {u!r} has an entry that is not an integer")
        if len(t) != ring.d:
            raise ValueError(f"degree vector {t} has length {len(t)}, expected {ring.d}")
        if min(t) < 0:
            raise ValueError(f"negative degree in {t}")
        return t
    if isinstance(u, (tuple, list)):
        if len(u) != 1:
            raise ValueError(f"single grading expects an integer degree, got {u}")
        u = u[0]
    if type(u) is not int:
        u = integer(u, "degree")
    if u < 0:
        raise ValueError(f"negative degree {u}")
    return u


def degree_total(u) -> int:
    return sum(u) if isinstance(u, tuple) else int(u)


def ones(d: int) -> tuple:
    return (1,) * d


def unit_degree(d: int, i: int) -> tuple:
    """Standard basis degree e_i, factors indexed from 0."""
    if not 0 <= i < d:
        raise ValueError(f"factor index {i} out of range for d={d}")
    return tuple(1 if k == i else 0 for k in range(d))


def add_degrees(u, v):
    if isinstance(u, tuple):
        return tuple(a + b for a, b in zip(u, v))
    return u + v


def sub_degrees(u, v):
    if isinstance(u, tuple):
        w = tuple(a - b for a, b in zip(u, v))
        if any(x < 0 for x in w):
            raise ValueError(f"{u} - {v} is not a valid degree")
        return w
    if u - v < 0:
        raise ValueError(f"{u} - {v} is not a valid degree")
    return u - v


# -- dimension counts and enumeration -----------------------------------------

def dim_piece(ring: RingSpec, u) -> int:
    """Number of monomials of `ring` in degree `u`."""
    return _dim_piece(ring, check_degree(ring, u))


def _dim_piece(ring: RingSpec, u) -> int:
    """`dim_piece` at a degree already checked: dim V_u on V, the product of
    the dim V_{u_i} on S, each read off `_veronese_dims` within its range."""
    dims, out = _veronese_dims(ring.n), 1
    for k in (u if ring.is_multigraded else (u,)):
        out *= dims[k] if k < len(dims) else math.comb(ring.n + k - 1, k)
    return out


@lru_cache(maxsize=None)
def _veronese_dims(n: int) -> tuple:
    """dim V_k = C(n + k - 1, k) for the degrees k < 64 in n variables."""
    return tuple(math.comb(n + k - 1, k) for k in range(64))


def _compositions_desc(total: int, parts: int):
    """Weak compositions of `total` into `parts` parts, lexicographically decreasing."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions_desc(total - first, parts - 1):
            yield (first,) + rest


def degrees_up_to(ring: RingSpec, bound: int) -> tuple:
    """All degrees of total degree <= bound, sorted by (total, reverse-lex).

    Each total's block is its weak compositions into d parts in lexicographically
    decreasing order, read off the cached monomials of that degree in d variables.
    The bound is read before the cache (2.0 counts as 2, 1.5 is refused)."""
    if type(bound) is not int:
        bound = integer(bound, "truncation bound")
    return _degrees_up_to(ring, bound)


@lru_cache(maxsize=None)
def _degrees_up_to(ring: RingSpec, bound: int) -> tuple:
    if not ring.is_multigraded:
        return tuple(range(bound + 1))
    ring_d = veronese_ring(ring.d)
    return tuple(u for total in range(bound + 1) for u in monomials(ring_d, total))


degrees_up_to.cache_clear = _degrees_up_to.cache_clear


@lru_cache(maxsize=None)
def _degree_set(ring: RingSpec, bound: int) -> MappingProxyType:
    """`degrees_up_to(ring, bound)` as a read-only map from each degree to itself,
    for `u in pieces` and the degree as listed, (2, 1, 0) at (2.0, 1, 0)."""
    return MappingProxyType({u: u for u in degrees_up_to(ring, bound)})


def monomials(ring: RingSpec, u) -> tuple:
    """Canonically ordered monomial basis of the graded piece.

    Veronese monomials are length-n exponent tuples, in lexicographically
    decreasing order; Segre monomials are d x n exponent tables (row i sums to
    u_i), the product of the Veronese blocks of the u_i, first factor slowest.
    The degree is checked before the cache is read, so a list is a degree too."""
    return _monomials(ring, check_degree(ring, u))


@lru_cache(maxsize=None)
def _monomials(ring: RingSpec, u) -> tuple:
    if not ring.is_multigraded:
        return tuple(_compositions_desc(u, ring.n))
    ring_v = veronese_ring(ring.n)
    return tuple(itertools.product(*[_monomials(ring_v, ui) for ui in u]))


monomials.cache_info = _monomials.cache_info  # perfbench's tracer counts its hits


def rank_monomial(ring: RingSpec, mono) -> int:
    """Position of `mono` in the canonical order of its graded piece.

    Each exponent row is found by bisection in its block `monomials(V, |row|)`,
    which is lexicographically decreasing; on the Segre ring the rank is the
    mixed-radix number of those positions, first factor most significant.  A
    row in no block, with a negative or a non-integral exponent, is refused."""
    if ring.is_multigraded:
        rows = tuple(tuple(row) for row in mono)
        if len(rows) != ring.d or any(len(row) != ring.n for row in rows):
            raise ValueError(f"bad monomial shape {mono}")
        ring_v = veronese_ring(ring.n)
    else:
        rows, ring_v = (tuple(mono),), ring
    idx = 0
    for row in rows:
        try:
            block = monomials(ring_v, sum(row))
        except ValueError:  # a negative or non-integral total
            block = ()
        pos = bisect_left(block, [-e for e in row], key=lambda m: [-e for e in m])
        if block[pos:pos + 1] != (row,):
            raise ValueError(f"bad monomial {rows if ring.is_multigraded else rows[0]}")
        idx = idx * len(block) + pos
    return idx


def unrank_monomial(ring: RingSpec, u, index: int):
    """Inverse of rank_monomial on the piece of degree `u`."""
    basis = monomials(ring, u)
    if not 0 <= index < len(basis):
        raise ValueError(f"index {index} out of range for piece of dimension {len(basis)}")
    return basis[index]


@lru_cache(maxsize=None)
def _product_map(ring: RingSpec, u, v) -> tuple:
    """The monomial product table S_u x S_v -> S_{u+v}: entry c * dim S_v + m is
    the column of (monomial c of S_u) * (monomial m of S_v).

    On the Veronese ring each product is looked up among the monomials of
    V_{u+v}.  The columns of a Segre piece are the mixed-radix products of
    per-factor monomial positions, so there the table folds in the Veronese
    tables one factor at a time.  Both degrees come checked.
    """
    if not ring.is_multigraded:
        position = {m: r for r, m in enumerate(monomials(ring, u + v))}
        return tuple(position[tuple(map(add, a, b))]
                     for a in monomials(ring, u) for b in monomials(ring, v))
    ring_v = veronese_ring(ring.n)
    table = [[0]]  # table[c][m] over the factors folded so far
    for uf, vf in zip(u, v):
        f, width = _product_map(ring_v, uf, vf), _dim_piece(ring_v, vf)
        steps = [f[a:a + width] for a in range(0, len(f), width)]
        wide = _dim_piece(ring_v, uf + vf)
        table = [[o * wide + s for o in row for s in step] for row in table for step in steps]
    return tuple(x for row in table for x in row)


def contractions(ring: RingSpec, u, v, functionals) -> RowSource:
    """Each sparse-row functional phi on S_{u+v} contracted by each monomial m
    of S_v, m first: the sparse row t -> phi(t * m) on S_u, empty ones kept.
    A row is made when it is read, so an elimination that reaches full
    column rank makes none of the rest."""
    table, dim_v = _product_map(ring, u, v), _dim_piece(ring, v)
    phis = [dict(phi) for phi in functionals]

    def rows():
        for m in range(dim_v):
            column = table[m::dim_v]
            for phi in phis:
                yield [(t, phi[c]) for t, c in enumerate(column) if c in phi]

    return RowSource(dim_v * len(phis), rows)


def colon(ring: RingSpec, u, v, functionals, piece=None, field=QQ) -> Subspace:
    """(H : S_v)_u, the f of degree u with f * m in H for every monomial m of
    S_v, where H is cut out of S_{u+v} by the sparse-row `functionals` (any
    iterable): the subspace their `contractions` cut out (all of S_u for none)."""
    return Subspace.cut_out(_dim_piece(ring, u), contractions(ring, u, v, functionals), piece,
                            field)


def monomial_degree(ring: RingSpec, mono):
    if ring.is_multigraded:
        return tuple(sum(row) for row in mono)
    return sum(mono)


# -- elements of a single graded piece -----------------------------------------

@dataclass(frozen=True)
class PieceElement:
    """A vector in one graded piece, in canonical monomial coordinates."""

    ring: RingSpec
    degree: object
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "degree", check_degree(self.ring, self.degree))  # kept canonical
        expected = _dim_piece(self.ring, self.degree)
        if len(self.coords) != expected:
            raise ValueError(
                f"coordinate vector has length {len(self.coords)}, expected {expected}"
            )

    @classmethod
    def from_terms(cls, ring: RingSpec, u, terms: dict, field=QQ):
        u = check_degree(ring, u)
        coords = [field.zero] * _dim_piece(ring, u)
        for mono, c in terms.items():
            if monomial_degree(ring, mono) != u:
                raise ValueError(f"monomial {mono} not of degree {u}")
            coords[rank_monomial(ring, mono)] += field.of(c)
        return cls._at_checked(ring, u, tuple(coords))

    @classmethod
    def _at_checked(cls, ring: RingSpec, u, coords: tuple) -> "PieceElement":
        """The element at a degree already checked, whose coords have its
        piece's length: `__post_init__` does not check the degree again."""
        el = object.__new__(cls)
        for name, value in (("ring", ring), ("degree", u), ("coords", coords)):
            object.__setattr__(el, name, value)
        return el

    def terms(self) -> dict:
        basis = monomials(self.ring, self.degree)
        return {basis[i]: c for i, c in enumerate(self.coords) if c}

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "PieceElement") -> "PieceElement":
        self._check_same_piece(other)
        return PieceElement(
            self.ring, self.degree, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def _check_same_piece(self, other: "PieceElement"):
        if self.ring != other.ring or self.degree != other.degree:
            raise ValueError(
                f"graded piece mismatch: {self.ring}@{self.degree} vs {other.ring}@{other.degree}"
            )


# -- plain-text formatting ------------------------------------------------------

def format_monomial(ring: RingSpec, mono) -> str:
    parts = []
    for i, row in enumerate(mono if ring.is_multigraded else (mono,)):
        for j, e in enumerate(row):
            name = f"a({i + 1},{j + 1})" if ring.is_multigraded else f"b{j + 1}"
            if e >= 1:
                parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_element(ring: RingSpec, u, coords) -> str:
    basis = monomials(ring, u)
    parts = []
    for i, c in enumerate(coords):
        if not c:
            continue
        mono = format_monomial(ring, basis[i])
        if c == 1 and mono != "1":
            parts.append(mono)
        elif mono == "1":
            parts.append(str(c))
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts) if parts else "0"
