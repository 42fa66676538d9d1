"""Truncated homogeneous ideals: one subspace per degree up to a total-degree bound.

An ideal is stored extensionally, degree by degree, with the closure
invariant that multiplying any stored piece by a variable lands inside the
piece one degree up.  Saturated ideals of finite point sets are computed as
kernels of evaluation maps; no generator normal forms or global saturation
are ever needed.
"""

from __future__ import annotations

import itertools
import random
import warnings
from dataclasses import dataclass
from functools import lru_cache

from .grading import (
    RingSpec,
    add_degrees,
    check_degree,
    degree_total,
    dim_piece,
    monomials,
    rank_monomial,
    sub_degrees,
    unit_degree,
)
from .linalg import QQ, Matrix, Subspace, kernel


class GenericityError(RuntimeError):
    """Randomly drawn points failed to be in general position twice in a row."""


def degrees_up_to(ring: RingSpec, bound: int) -> list:
    """All degrees of total degree <= bound, sorted by (total, reverse-lex)."""
    if not ring.is_multigraded:
        return list(range(bound + 1))
    out = []
    for total in range(bound + 1):
        block = [u for u in itertools.product(range(total + 1), repeat=ring.d)
                 if sum(u) == total]
        block.sort(key=lambda u: tuple(-x for x in u))
        out.extend(block)
    return out


@lru_cache(maxsize=None)
def _var_index_map(ring: RingSpec, u, i: int, j: int) -> tuple:
    """Monomial index map for multiplication by the (i,j) variable: u -> u+e_i."""
    out = []
    for mono in monomials(ring, u):
        if ring.is_multigraded:
            new = tuple(
                tuple(e + 1 if (f == i and v == j) else e for v, e in enumerate(row))
                for f, row in enumerate(mono)
            )
        else:
            new = tuple(e + 1 if v == j else e for v, e in enumerate(mono))
        out.append(rank_monomial(ring, new))
    return tuple(out)


def multiply_vector_by_variable(ring: RingSpec, u, row, i: int, j: int) -> list:
    """The sparse row of (variable i,j) * element, in the degree-(u+e_i) piece.

    Multiplying by a variable maps monomials one to one and keeps their order,
    so each (column, value) pair just moves to its new column.
    """
    idx_map = _var_index_map(ring, check_degree(ring, u), i, j)
    return [(idx_map[c], x) for c, x in row]


def variable_multiples(ring: RingSpec, u, rows, i: int):
    """Each sparse row of `rows` (degree u) times each variable of factor i, in turn."""
    for b in rows:
        for j in range(ring.n):
            yield multiply_vector_by_variable(ring, u, b, i, j)


def _degrees_below(ring: RingSpec, u) -> list:
    """The pairs (i, u - e_i) over the factors i with u_i >= 1."""
    if not ring.is_multigraded:
        return [(0, u - 1)] if u >= 1 else []
    return [(i, sub_degrees(u, unit_degree(ring.d, i))) for i in range(ring.d) if u[i]]


def span_from_below(ring: RingSpec, u, piece_at, field=QQ, rows=(), piece=None) -> Subspace:
    """The span of the sparse `rows` and of sum_i S_{e_i} J_{u-e_i}, where
    J_v = piece_at(v)."""
    rows = list(rows)
    for i, prev in _degrees_below(ring, u):
        rows.extend(variable_multiples(ring, prev, piece_at(prev).sparse, i))
    dim = dim_piece(ring, u)
    return Subspace.from_rows(dim, Matrix.of_sparse(dim, rows, field), piece=piece)


@dataclass
class TruncatedIdeal:
    """Degree-indexed family of subspaces, ideal-closed within the bound.

    `provenance` records how the ideal arose ("point", "upsilon-of-point", ...)
    so that downstream certificates can state honestly whether membership in
    the closure of point ideals is known.
    """

    ring: RingSpec
    bound: int
    pieces: dict
    generators: list | None = None
    provenance: str = "user"
    field: object = QQ

    def degrees(self) -> list:
        return degrees_up_to(self.ring, self.bound)

    def piece(self, u) -> Subspace:
        u = check_degree(self.ring, u)
        if degree_total(u) > self.bound:
            raise ValueError(f"degree {u} exceeds the truncation bound {self.bound}")
        return self.pieces[u]

    def with_piece(self, u, sub: Subspace) -> "TruncatedIdeal":
        """Copy with one piece replaced (used to build adversarial examples)."""
        u = check_degree(self.ring, u)
        pieces = dict(self.pieces)
        pieces[u] = sub
        return TruncatedIdeal(self.ring, self.bound, pieces, None, "user", self.field)


def _piece_tag(ring: RingSpec, u):
    return (ring, u)


def zero_ideal(ring: RingSpec, bound: int, field=QQ) -> TruncatedIdeal:
    pieces = {
        u: Subspace.zero(dim_piece(ring, u), piece=_piece_tag(ring, u), field=field)
        for u in degrees_up_to(ring, bound)
    }
    return TruncatedIdeal(ring, bound, pieces, [], "zero", field)


def expand(generators, ring: RingSpec, bound: int, provenance: str = "user",
           field=QQ) -> TruncatedIdeal:
    """Span the ideal generated by homogeneous elements, degree by degree.

    Each piece is the span of the new generators of that degree together with
    all variable multiples of the pieces one degree down, so closure holds by
    construction.  Generators beyond the bound are skipped with a warning.
    """
    by_degree: dict = {}
    for g in generators:
        if g.ring != ring:
            raise ValueError(f"generator ring {g.ring} does not match {ring}")
        u = check_degree(ring, g.degree)
        if degree_total(u) > bound:
            warnings.warn(
                f"generator of degree {u} exceeds bound {bound}; ignored", stacklevel=2
            )
            continue
        by_degree.setdefault(u, []).append(
            [(c, x) for c, x in enumerate(map(field.of, g.coords)) if x])
    pieces: dict = {}
    for u in degrees_up_to(ring, bound):
        pieces[u] = span_from_below(ring, u, pieces.__getitem__, field,
                                    rows=by_degree.get(u, ()), piece=_piece_tag(ring, u))
    return TruncatedIdeal(ring, bound, pieces, list(generators), provenance, field)


def is_ideal_closed(j: TruncatedIdeal) -> bool:
    """Every variable multiple of every stored piece lands in the next piece."""
    ring = j.ring
    return not any(
        j.pieces[u]._remainder(v)
        for u in j.degrees()
        for i, prev in _degrees_below(ring, u)
        for v in variable_multiples(ring, prev, j.pieces[prev].sparse, i)
    )


def hilbert_function(j: TruncatedIdeal, u) -> int:
    u = check_degree(j.ring, u)
    return dim_piece(j.ring, u) - j.piece(u).dim


def generic_hf(r: int, ring: RingSpec, u) -> int:
    """Hilbert function of r very general points: min(r, dim of the piece)."""
    if r < 0:
        raise ValueError("negative point count")
    return min(r, dim_piece(ring, u))


# -- point sets and their saturated ideals ------------------------------------------

def _is_projectively_equal(a, b) -> bool:
    """Proportionality of coordinate vectors (2x2 minors vanish, supports match)."""
    if any(bool(x) != bool(y) for x, y in zip(a, b)):
        return False
    for (x1, y1), (x2, y2) in itertools.combinations(zip(a, b), 2):
        if x1 * y2 != x2 * y1:
            return False
    return True


@dataclass(frozen=True)
class PointSet:
    """Rational points on the Segre (tuple of factor coords) or Veronese target."""

    ring: RingSpec
    points: tuple
    field: object = QQ

    def __post_init__(self):
        if not self.points:
            raise ValueError("need at least one point")
        norm = []
        for p in self.points:
            if self.ring.is_multigraded:
                if len(p) != self.ring.d:
                    raise ValueError(f"point {p} does not have {self.ring.d} factors")
                fac = tuple(tuple(self.field.of(x) for x in f) for f in p)
                if any(len(f) != self.ring.n for f in fac):
                    raise ValueError("factor coordinate length mismatch")
                if any(not any(f) for f in fac):
                    raise ValueError(f"point {p} has an all-zero factor")
            else:
                fac = tuple(self.field.of(x) for x in p)
                if len(fac) != self.ring.n:
                    raise ValueError("coordinate length mismatch")
                if not any(fac):
                    raise ValueError("zero point")
            norm.append(fac)
        object.__setattr__(self, "points", tuple(norm))
        for a, b in itertools.combinations(range(len(self.points)), 2):
            if self._same_point(self.points[a], self.points[b]):
                raise ValueError(f"duplicate points at positions {a} and {b}")

    def _same_point(self, p, q) -> bool:
        if self.ring.is_multigraded:
            return all(_is_projectively_equal(f, g) for f, g in zip(p, q))
        return _is_projectively_equal(p, q)

    @property
    def count(self) -> int:
        return len(self.points)


@lru_cache(maxsize=None)
def _predecessors(ring: RingSpec, u) -> tuple:
    """(u - e_i, i, steps) for a degree u above zero, where i is the first
    factor with u_i >= 1: monomial c of degree u is monomial steps[c][0] of
    degree u - e_i times variable steps[c][1] of factor i, its first one."""
    i, below = _degrees_below(ring, u)[0]
    steps = []
    for mono in monomials(ring, u):
        row = list(mono[i] if ring.is_multigraded else mono)
        j = next(v for v, e in enumerate(row) if e)
        row[j] -= 1
        prev = (mono[:i] + (tuple(row),) + mono[i + 1:]) if ring.is_multigraded else row
        steps.append((rank_monomial(ring, prev), j))
    return below, i, tuple(steps)


def point_ideal(zs: PointSet, bound: int, provenance: str = "point") -> TruncatedIdeal:
    """Saturated ideal of a reduced point set, degreewise: ker of evaluation.

    Each monomial is evaluated with one multiplication, from the value of its
    predecessor one degree down."""
    ring = zs.ring
    field = zs.field
    values = {}
    pieces = {}
    for u in degrees_up_to(ring, bound):
        if degree_total(u) == 0:
            rows = [[field.one] for _ in zs.points]
        else:
            below, i, steps = _predecessors(ring, u)
            coords = (p[i] if ring.is_multigraded else p for p in zs.points)
            rows = [[prev[t] * x[j] for t, j in steps] for prev, x in zip(values[below], coords)]
        values[u] = rows
        sparse = [[(c, x) for c, x in enumerate(row) if x] for row in rows]
        ker = kernel(Matrix.of_sparse(len(rows[0]), sparse, field))
        pieces[u] = Subspace(len(rows[0]), tuple(ker.sparse), _piece_tag(ring, u), field)
    return TruncatedIdeal(ring, bound, pieces, None, provenance, field)


def diagonal_points(zs: PointSet, d: int) -> PointSet:
    """Image of a Veronese point set under the diagonal embedding into d factors."""
    if zs.ring.is_multigraded:
        raise ValueError("expected points on the Veronese target")
    from .grading import segre_ring

    return PointSet(
        segre_ring(zs.ring.n, d),
        tuple(tuple(p for _ in range(d)) for p in zs.points),
        field=zs.field,
    )


def very_general_points(ring: RingSpec, r: int, bound: int, rng: random.Random,
                        coord_bound: int = 100) -> PointSet:
    """Draw r random integer points and certify the generic Hilbert function.

    Genericity failures over the rationals are measure-zero-like but possible
    on integer draws: one resample is attempted before giving up.
    """
    def draw_factor():
        while True:
            v = tuple(rng.randint(-coord_bound, coord_bound) for _ in range(ring.n))
            if any(v):
                return v

    for attempt in range(2):
        try:
            if ring.is_multigraded:
                pts = tuple(
                    tuple(draw_factor() for _ in range(ring.d)) for _ in range(r)
                )
            else:
                pts = tuple(draw_factor() for _ in range(r))
            zs = PointSet(ring, pts)
        except ValueError:
            continue
        ideal = point_ideal(zs, bound)
        if all(
            hilbert_function(ideal, u) == generic_hf(r, ring, u)
            for u in degrees_up_to(ring, bound)
        ):
            return zs
        warnings.warn(
            f"resampling: draw {attempt} was not in general position", stacklevel=2
        )
    raise GenericityError(
        f"failed twice to draw {r} points with the generic Hilbert function"
    )


# -- degreewise tests -----------------------------------------------------------------

def _multilinear_monomial_sets(ring: RingSpec):
    """Index tuples (one variable per factor) generating the irrelevant ideal."""
    if ring.is_multigraded:
        return list(itertools.product(range(ring.n), repeat=ring.d))
    return [(j,) for j in range(ring.n)]


def is_saturated_degreewise(j: TruncatedIdeal, u) -> bool:
    """Whether f * (every multilinear monomial) in J forces f in J, at degree u.

    This is the degreewise content of saturation with respect to the
    irrelevant ideal; it needs the pieces one multilinear step up, so the
    bound must cover |u| + d (or |u| + 1 on the Veronese side).
    """
    ring = j.ring
    u = check_degree(ring, u)
    step = ring.d if ring.is_multigraded else 1
    if degree_total(u) + step > j.bound:
        raise ValueError(
            f"bound {j.bound} too small to test saturation at degree {u}"
        )
    target = add_degrees(u, tuple([1] * ring.d)) if ring.is_multigraded else u + 1
    upper = j.pieces[target]
    cons = [dict(row) for row in upper.constraints().sparse]
    dim_u = dim_piece(ring, u)
    stacked = []
    for combo in _multilinear_monomial_sets(ring):
        idx_map = list(range(dim_u))
        deg = u
        for i, var in enumerate(combo):
            step_map = _var_index_map(ring, deg, i if ring.is_multigraded else 0, var)
            idx_map = [step_map[t] for t in idx_map]
            deg = add_degrees(deg, unit_degree(ring.d, i)) if ring.is_multigraded else deg + 1
        for crow in cons:
            stacked.append([(t, crow[c]) for t, c in enumerate(idx_map) if c in crow])
    if not stacked:
        pre = Subspace.full(dim_u, field=j.field)
    else:
        ker = kernel(Matrix.of_sparse(dim_u, stacked, j.field))
        pre = Subspace(dim_u, tuple(ker.sparse), None, j.field)
    return pre == j.pieces[u]


def min_generators_in_degree(j: TruncatedIdeal, u) -> int:
    """dim J_u minus the dimension of the from-below part sum_i S_{e_i} J_{u-e_i}."""
    u = check_degree(j.ring, u)
    return j.piece(u).dim - span_from_below(j.ring, u, j.piece, j.field).dim


def diagonal_ideal(n: int, d: int, bound: int) -> TruncatedIdeal:
    """The diagonal ideal as a truncated ideal, pieces taken as ker pi per degree."""
    from .diagonal_maps import ir_generators, ir_piece
    from .grading import segre_ring

    ring = segre_ring(n, d)
    pieces = {u: ir_piece(n, d, u) for u in degrees_up_to(ring, bound)}
    return TruncatedIdeal(ring, bound, pieces, ir_generators(n, d), "diagonal-ideal", QQ)
