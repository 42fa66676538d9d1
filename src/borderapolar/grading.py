"""Graded pieces of the coordinate rings of (P^{n-1})^d and of P^{n-1}.

Two polynomial rings appear throughout: the Z^d-graded coordinate ring of
the d-factor Segre product and the Z-graded coordinate ring of the Veronese
target.  Every graded piece gets one
canonical monomial order (lexicographic on the flattened exponent table,
within a fixed degree), so that coefficient vectors, and hence row-reduced
subspace bases, are bit-for-bit comparable.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .linalg import QQ


class RingKind(Enum):
    SEGRE_COORD = "S"
    VERONESE_COORD = "V"


@dataclass(frozen=True)
class RingSpec:
    """n variables per factor, d factors; the Veronese ring is Z-graded."""

    n: int
    d: int
    kind: RingKind

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.d < 1:
            raise ValueError(f"need d >= 1, got {self.d}")

    @property
    def is_multigraded(self) -> bool:
        return self.kind is RingKind.SEGRE_COORD


def segre_ring(n: int, d: int) -> RingSpec:
    return RingSpec(n, d, RingKind.SEGRE_COORD)


def veronese_ring(n: int) -> RingSpec:
    return RingSpec(n, 1, RingKind.VERONESE_COORD)


# -- degree arithmetic --------------------------------------------------------

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
        try:
            k = int(u)
        except (TypeError, ValueError, OverflowError):
            k = None
        if k != u:
            raise ValueError(f"degree {u!r} is not an integer")
        u = k
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

def _vdim(nvars: int, k: int) -> int:
    if nvars < 1:
        return 1 if k == 0 else 0
    return math.comb(nvars + k - 1, k)


def dim_piece(ring: RingSpec, u) -> int:
    """Number of monomials of `ring` in degree `u`."""
    u = check_degree(ring, u)
    if ring.is_multigraded:
        out = 1
        for ui in u:
            out *= _vdim(ring.n, ui)
        return out
    return _vdim(ring.n, u)


def _compositions_desc(total: int, parts: int):
    """Weak compositions of `total` into `parts` parts, lexicographically decreasing."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions_desc(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def monomials(ring: RingSpec, u) -> tuple:
    """Canonically ordered monomial basis of the graded piece.

    Veronese monomials are length-n exponent tuples; Segre monomials are
    d x n exponent tables (row i sums to u_i).
    """
    u = check_degree(ring, u)
    if not ring.is_multigraded:
        return tuple(_compositions_desc(u, ring.n))
    per_factor = [tuple(_compositions_desc(ui, ring.n)) for ui in u]
    return tuple(itertools.product(*per_factor))


def _rank_composition(exps: tuple) -> int:
    n = len(exps)
    r = 0
    rem = sum(exps)
    for j in range(n - 1):
        for t in range(rem, exps[j], -1):
            r += _vdim(n - 1 - j, rem - t)
        rem -= exps[j]
    return r


def _unrank_composition(n: int, k: int, idx: int) -> tuple:
    exps = []
    rem = k
    for j in range(n - 1):
        for t in range(rem, -1, -1):
            block = _vdim(n - 1 - j, rem - t)
            if idx < block:
                exps.append(t)
                rem -= t
                break
            idx -= block
        else:  # pragma: no cover - guarded by callers
            raise ValueError("index out of range")
    exps.append(rem)
    return tuple(exps)


def rank_monomial(ring: RingSpec, mono) -> int:
    """Position of `mono` in the canonical order of its graded piece."""
    if not ring.is_multigraded:
        mono = tuple(mono)
        if len(mono) != ring.n or any(e < 0 for e in mono):
            raise ValueError(f"bad monomial {mono}")
        return _rank_composition(mono)
    rows = tuple(tuple(row) for row in mono)
    if len(rows) != ring.d or any(len(row) != ring.n for row in rows):
        raise ValueError(f"bad monomial shape {mono}")
    idx = 0
    for row in rows:
        idx = idx * _vdim(ring.n, sum(row)) + _rank_composition(row)
    return idx


def unrank_monomial(ring: RingSpec, u, index: int):
    """Inverse of rank_monomial on the piece of degree `u`."""
    u = check_degree(ring, u)
    total = dim_piece(ring, u)
    if not 0 <= index < total:
        raise ValueError(f"index {index} out of range for piece of dimension {total}")
    if not ring.is_multigraded:
        return _unrank_composition(ring.n, u, index)
    rows = []
    for ui in reversed(u):
        block = _vdim(ring.n, ui)
        index, rem = divmod(index, block)
        rows.append(_unrank_composition(ring.n, ui, rem))
    return tuple(reversed(rows))


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
        expected = dim_piece(self.ring, self.degree)
        if len(self.coords) != expected:
            raise ValueError(
                f"coordinate vector has length {len(self.coords)}, expected {expected}"
            )

    @classmethod
    def from_terms(cls, ring: RingSpec, u, terms: dict, field=QQ):
        u = check_degree(ring, u)
        coords = [field.zero] * dim_piece(ring, u)
        for mono, c in terms.items():
            if monomial_degree(ring, mono) != u:
                raise ValueError(f"monomial {mono} not of degree {u}")
            coords[rank_monomial(ring, mono)] += field.of(c)
        return cls(ring, u, tuple(coords))

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
    if ring.is_multigraded:
        parts = []
        for i, row in enumerate(mono):
            for j, e in enumerate(row):
                if e == 1:
                    parts.append(f"a({i + 1},{j + 1})")
                elif e > 1:
                    parts.append(f"a({i + 1},{j + 1})^{e}")
        return "*".join(parts) if parts else "1"
    parts = []
    for j, e in enumerate(mono):
        if e == 1:
            parts.append(f"b{j + 1}")
        elif e > 1:
            parts.append(f"b{j + 1}^{e}")
    return "*".join(parts) if parts else "1"


def format_element(ring: RingSpec, u, coords) -> str:
    basis = monomials(ring, check_degree(ring, u))
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
