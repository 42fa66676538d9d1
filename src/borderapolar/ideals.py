"""Truncated homogeneous ideals: one subspace per degree up to a total-degree bound.

An ideal is given degree by degree, with the closure invariant that
multiplying any piece by a variable lands inside the piece one degree up.  It
is held in one of two ways.  Most ideals store every piece.  An ideal on the
Segre side that contains the diagonal ideal I_R is J_u = pi^{-1}(W_|u|) for
subspaces W_k of V_k, since S_u = (I_R)_u + psi_u(V_|u|); such an ideal
(`TruncatedIdeal.pi_preimage`, made by `upsilon`) keeps only the W_k, and a
Segre piece is built only when something reads it.

This module is the only one that knows how an ideal is held.  Readers outside
it get the same answers from either kind: `pieces`, `piece_dim`, `pi_image`
(pi(J_u), which is W_|u| on a kept ideal and otherwise made once, on V_|u|),
`first_without_diagonal` and `saturation_degrees`, so each transport map and
certificate stage has one path.

Saturated ideals of finite point sets are the kernels of evaluation maps,
and each piece is held by its annihilator, the span of the evaluation rows:
r rows per degree at r points, evaluated on integer representatives of the
points, so elimination receives integer rows.  The kernel itself, the
piece's basis, is made only when something reads it.  On the Segre side,
factors whose integer coordinates
are equal at every point form a class, and J_u is the preimage of the
collapsed point set's piece J'_kappa(u) under the map phi_u that multiplies
the monomials within each class, an index map (`_merge_table`, folded by
`diagonal_maps.product_fibres` as pi's table is).  So a point
ideal evaluates and reduces once per class degree: at diagonal points, one
class, once per total degree, on dim V_k columns.  No generator normal forms
or global saturation are ever needed.  A draw of very general points is
certified by the ranks of the same evaluation matrices, with no kernel.

A kept ideal's Segre piece is a preimage of the same kind, pi^{-1}(W_|u|)
along the pi-fibre table; `diagonal_maps.pullback` writes both, from the
annihilator rows when W holds them, and writes the basis from W's basis
when it is read.

Every monomial product is read off `grading`'s cached table
S_u x S_v -> S_{u+v} (`_product_map`): variable multiples at v = e_i, and,
off its fibres (`diagonal_maps.fibre_table`), each monomial's first pair
x_{ij} t, from which point evaluation steps and to which
`annihilator_from_below` equates the others; the saturation test
(J_{u+v} : S_v)_u is `grading.colon`, so no monomial is ranked or multiplied here.
"""

from __future__ import annotations

import itertools
import random
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache
from types import MappingProxyType

from .grading import (
    RingSpec,
    _degree_set,
    _dim_piece,
    _product_map,
    add_degrees,
    check_degree,
    colon,
    degree_total,
    degrees_up_to,
    dim_piece,
    integer,
    ones,
    sub_degrees,
    unit_degree,
    segre_ring,
    veronese_ring,
)
from .diagonal_maps import fibre_table, pi_fibres, pi_image, product_fibres, pullback
from .linalg import QQ, IntRows, Subspace, kernel, rank


class GenericityError(RuntimeError):
    """Randomly drawn points failed to be in general position twice in a row."""


def _bound(bound) -> int:
    """A truncation bound as an int (2.0 counts as 2), refused when negative,
    read once where it enters the package."""
    if type(bound) is not int:
        bound = integer(bound, "truncation bound")
    if bound < 0:
        raise ValueError(f"negative truncation bound {bound}")
    return bound


def _variable_table(ring: RingSpec, u, i: int) -> tuple:
    """`_product_map(ring, u, e_i)`; variable j of factor i is monomial j of S_{e_i}.
    On the Veronese ring e_0 is the int 1, the key `pi_fibres` caches the table by."""
    e_i = (0,) * i + (1,) + (0,) * (ring.d - 1 - i) if ring.is_multigraded else 1
    return _product_map(ring, u, e_i)


def multiply_vector_by_variable(ring: RingSpec, u, row, i: int, j: int) -> list:
    """The sparse row of (variable i,j) * element, in the degree-(u+e_i) piece.

    Multiplying by a variable maps monomials one to one and keeps their order,
    so each (column, value) pair just moves to its new column.
    """
    table, n = _variable_table(ring, u, i), ring.n
    return [(table[c * n + j], x) for c, x in row]


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
    return Subspace.from_rows(_dim_piece(ring, u), rows, piece, field)


def annihilator_from_below(ring: RingSpec, u, i: int, ann, field=QQ) -> tuple:
    """A basis of (S_{e_i} J_u)^perp on S_{u+e_i}, as integer rows (not in
    RREF), from integer rows `ann` that form a basis of J_u^perp on S_u: one
    elimination in n r unknowns, r = len(ann), where `span_from_below` takes
    n dim J_u rows.

    A functional phi on S_{u+e_i} is fixed by its contractions
    c_j = x_{ij} _| phi, the functionals t -> phi(x_{ij} t) on S_u, since
    every monomial of S_{u+e_i} is a variable of factor i times one of S_u.
    phi vanishes on S_{e_i} J_u exactly when every c_j lies in J_u^perp, that
    is c_j = sum_a lambda_{j,a} ann_a, and a family (c_j) comes from some phi
    exactly when c_j(t) = c_{j'}(t') whenever x_{ij} t = x_{ij'} t'.  So the
    lambdas are the kernel of one equation per pair (j, t) of
    `_variable_table` past the first pair of its product m, n dim S_u -
    dim S_{u+e_i} of them, and each kernel row gives phi(m) = c_j(t) at that
    first pair.  lambda -> phi is one to one, as the ann_a are independent,
    so the rows are independent.  On V, i is 0.  The pairs depend on the
    shape alone and are made once (`_compatibility`).
    """
    if not ann:  # J_u = S_u, and so is S_{e_i} J_u
        return ()
    pairs, owners = _compatibility(ring, u, i)
    n, r, normalize = ring.n, len(ann), field.normalize
    at = [[] for _ in range(_dim_piece(ring, u))]  # at[t]: the (a, ann_a(t)), ann_a(t) != 0
    for a, row in enumerate(ann):
        for t, x in row:
            at[t].append((a, x))
    equations = IntRows()
    for j0, t0, j, t in pairs:
        if at[t0] or at[t]:
            row = [0] * (n * r)
            for a, x in at[t0]:
                row[j0 * r + a] = x
            for a, x in at[t]:
                row[j * r + a] = -x
            equations.append(normalize(row))
    out, dim = [], len(at)
    for lam in kernel(n * r, equations, field=field).sparse:
        c = [[0] * dim for _ in range(n)]  # c[j]: c_j = sum_a lambda_{j,a} ann_a, densely
        for q, x in lam:
            c_j = c[q // r]
            for t, y in ann[q % r]:
                c_j[t] += x * y
        phi = [c[j][t] for j, t in owners]
        out.append(tuple([(m, x) for m, x in enumerate(normalize(phi)) if x]))
    return tuple(out)


@lru_cache(maxsize=None)
def _compatibility(ring: RingSpec, u, i: int) -> tuple:
    """(pairs, owners) for `annihilator_from_below` at u and factor i, read off
    the fibres of `_variable_table`, whose entry t n + j is x_{ij} t:
    owners[m] is the first pair (j, t) with x_{ij} t = m, for each monomial m
    of S_{u+e_i}, and pairs holds (j0, t0, j, t) for every later pair (j, t)
    of m, (j0, t0) being its first, t ascending, then j."""
    fib, n = fibre_table(_variable_table(ring, u, i)), ring.n
    owners = tuple([(c % n, c // n) for c in fib.section])
    return tuple([owners[m] + (c % n, c // n) for c, m in enumerate(fib.f)
                  if fib.section[m] != c]), owners


class _Preimages(Mapping):
    """The Segre pieces J_u = pi^{-1}(W_|u|) of an ideal kept by its Veronese
    pieces `w` = {k: W_k}, read-only.

    A piece is built each time it is read, and none is kept: it is
    `pullback` of W_|u| along the pi-fibre table, at the degree as the ideal
    lists it, so (2.0, 1, 0) reads the piece of (2, 1, 0), as a stored
    ideal's dict does.  It holds the side W holds: W's annihilator rows
    pulled back, for a W held by them, such as a point ideal's.  Its basis,
    read by a digest, is written from W's RREF.  W_k makes that once and
    keeps it in each order of its columns that a degree's fibres ask for,
    and its own rows serve every order in which each row's leading column
    comes first, so W = 0, W = V_k, a W spanned by monomials and a degree
    whose fibres come in the order of V_k eliminate nothing.
    """

    def __init__(self, ring: RingSpec, bound: int, w):
        self.ring, self.w = ring, w
        self._degrees = degrees_up_to(ring, bound)
        self._known = _degree_set(ring, bound)

    def __getitem__(self, u):
        u, ring = self._known[u], self.ring  # KeyError off the degrees
        return pullback(self.w[degree_total(u)], pi_fibres(ring.n, ring.d, u), (ring, u))

    def __contains__(self, u):
        return u in self._known

    def __iter__(self):
        return iter(self._degrees)

    def __len__(self):
        return len(self._degrees)

    def __repr__(self):
        return f"pi^-1({dict(self.w)!r})"


@dataclass(frozen=True)
class TruncatedIdeal:
    """Degree-indexed family of subspaces, ideal-closed within the bound.

    `pieces` is a read-only mapping from each degree to its subspace.  An ideal
    made by `TruncatedIdeal.pi_preimage` is kept by its Veronese pieces W_k
    (`veronese`) and builds a Segre piece afresh each time `pieces[u]` or
    `piece(u)` reads it; `piece_dim` and `pi_image` read W_k directly.
    Every other ideal stores its pieces, and keeps each pi-image it computes.

    `provenance` records how the ideal arose ("point", "upsilon-of-point", ...)
    so that downstream certificates can state honestly whether membership in
    the closure of point ideals is known.  `field` is read off the pieces (W_0
    on a kept ideal), which must all lie in one field.  The bound is an
    integer (2.0 counts as 2) of at least 0, so there is a piece to read it
    off.  Every degree at or below the bound has a piece of the right ambient
    dimension (W_k in V_k on a kept ideal); stored pieces above the bound are
    allowed.
    """

    ring: RingSpec
    bound: int
    pieces: Mapping
    provenance: str = "user"
    field: object = dataclass_field(init=False, repr=False)

    def __post_init__(self):
        bound = _bound(self.bound)
        object.__setattr__(self, "bound", bound)
        if isinstance(self.pieces, _Preimages):
            ring, pieces, name = veronese_ring(self.ring.n), self.pieces.w, "W"
        else:
            ring, pieces, name = self.ring, dict(self.pieces), "J"
            object.__setattr__(self, "pieces", MappingProxyType(pieces))
            object.__setattr__(self, "_images", {})
        for u in degrees_up_to(ring, bound):
            sub = pieces.get(u)
            if sub is None:
                raise ValueError(f"missing piece {name}_{u}: every degree up to the bound "
                                 f"{bound} needs one")
            if sub.ambient_dim != _dim_piece(ring, u):
                raise ValueError(f"{name}_{u}: subspace ambient {sub.ambient_dim} "
                                 f"is not dim {ring.kind.value}_{u} = {_dim_piece(ring, u)}")
        field = next(iter(pieces.values())).field  # degree 0 at least has a piece
        for sub in pieces.values():
            if sub.field is not field and sub.field != field:
                raise ValueError(f"pieces in two fields: {field!r} and {sub.field!r}")
        object.__setattr__(self, "field", field)

    @classmethod
    def _made(cls, ring: RingSpec, bound: int, pieces, provenance: str,
              field) -> "TruncatedIdeal":
        """The ideal of pieces (a dict or a `_Preimages`) that the package has
        just made, all in `field` and of the right shapes: nothing is checked."""
        j = object.__new__(cls)
        attrs = vars(j)
        attrs.update(ring=ring, bound=bound, provenance=provenance, field=field)
        if isinstance(pieces, _Preimages):
            attrs["pieces"] = pieces
        else:
            attrs.update(pieces=MappingProxyType(pieces), _images={})
        return j

    @classmethod
    def _kept(cls, ring: RingSpec, bound: int, w: dict, provenance: str,
              field) -> "TruncatedIdeal":
        """`pi_preimage` of w = {k: W_k}, k <= bound, pieces the package has
        made or checked: nothing is checked again."""
        return cls._made(ring, bound, _Preimages(ring, bound, MappingProxyType(w)),
                         provenance, field)

    @classmethod
    def pi_preimage(cls, ring: RingSpec, bound: int, w,
                    provenance: str = "user") -> "TruncatedIdeal":
        """The ideal J_u = pi^{-1}(W_|u|) = (I_R)_u + psi_u(W_|u|) on the Segre
        ring, kept by its Veronese pieces w = {k: W_k}, k <= bound, each of
        them a subspace of V_k."""
        if not ring.is_multigraded:
            raise ValueError(f"a kept ideal lives on a Segre ring, got {ring}")
        bound = _bound(bound)
        w = MappingProxyType({k: w[k] for k in range(bound + 1) if k in w})
        return cls(ring, bound, _Preimages(ring, bound, w), provenance)

    @property
    def veronese(self):
        """{k: W_k} when every piece is pi^{-1}(W_|u|) by construction, else None."""
        return self.pieces.w if isinstance(self.pieces, _Preimages) else None

    def degrees(self) -> tuple:
        return degrees_up_to(self.ring, self.bound)

    def _checked(self, u):
        u = check_degree(self.ring, u)
        if degree_total(u) > self.bound:
            raise ValueError(f"degree {u} exceeds the truncation bound {self.bound}")
        return u

    def piece(self, u) -> Subspace:
        return self.pieces[self._checked(u)]

    def piece_dim(self, u) -> int:
        """dim J_u; on the Veronese side dim S_u - dim V_k + dim W_k, k = |u|."""
        u = self._checked(u)
        if self.veronese is None:
            return self.pieces[u].dim
        w = self.veronese[degree_total(u)]
        return _dim_piece(self.ring, u) - w.ambient_dim + w.dim

    def pi_image(self, u) -> Subspace:
        """pi(J_u) inside V_|u|: W_|u| on an ideal kept by its Veronese pieces,
        else one elimination on V_|u| (none for a zero piece), made once."""
        return self._pi_image(self._checked(u))

    def _pi_image(self, u) -> Subspace:
        """`pi_image` at a degree within the bound, already checked."""
        if self.veronese is not None:
            return self.veronese[degree_total(u)]
        if u not in self._images:
            n, p = self.ring.n, self.pieces[u]
            self._images[u] = (pi_image(n, self.ring.d, u, p) if p.dim else Subspace.zero(
                _dim_piece(veronese_ring(n), degree_total(u)), field=p.field))
        return self._images[u]

    def with_piece(self, u, sub: Subspace) -> "TruncatedIdeal":
        """Copy with one piece replaced (used to build adversarial examples)."""
        pieces = {**self.pieces, check_degree(self.ring, u): sub}
        return TruncatedIdeal(self.ring, self.bound, pieces, "user")


def zero_ideal(ring: RingSpec, bound: int, field=QQ) -> TruncatedIdeal:
    bound = _bound(bound)
    pieces = {
        u: Subspace.zero(_dim_piece(ring, u), piece=(ring, u), field=field)
        for u in degrees_up_to(ring, bound)
    }
    return TruncatedIdeal(ring, bound, pieces, "zero")


def expand(generators, ring: RingSpec, bound: int, field=QQ) -> TruncatedIdeal:
    """Span the ideal generated by homogeneous elements, degree by degree.

    Each piece is the span of the new generators of that degree together with
    all variable multiples of the pieces one degree down, so closure holds by
    construction.  Generators beyond the bound are skipped with a warning; a
    negative bound is refused before any generator is read.
    """
    bound = _bound(bound)
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
                                    rows=by_degree.get(u, ()), piece=(ring, u))
    return TruncatedIdeal(ring, bound, pieces)


def is_ideal_closed(j: TruncatedIdeal) -> bool:
    """Every variable multiple of every stored piece lands in the next piece."""
    ring = j.ring
    return not any(
        not j.pieces[u]._contains_row(v)
        for u in j.degrees()
        for i, prev in _degrees_below(ring, u)
        for v in variable_multiples(ring, prev, j.pieces[prev].sparse, i)
    )


def hilbert_function(j: TruncatedIdeal, u) -> int:
    """dim S_u - dim J_u: codim J_u, or codim W_|u| on a kept ideal (pi is onto)."""
    u = j._checked(u)
    if j.veronese is not None:
        return j.veronese[degree_total(u)].codim
    return j.pieces[u].codim


def _point_count(r) -> int:
    """A point count as an int (2.0 counts as 2), refused when negative."""
    r = integer(r, "point count")
    if r < 0:
        raise ValueError("negative point count")
    return r


def generic_hf(r: int, ring: RingSpec, u) -> int:
    """Hilbert function of r very general points: min(r, dim of the piece)."""
    return min(_point_count(r), dim_piece(ring, u))


def first_non_generic(j: TruncatedIdeal, r: int):
    """The first degree where J's Hilbert function is not `generic_hf(r, ...)`,
    min(r, dim S_u), or None; r is read as `generic_hf` reads it."""
    r = _point_count(r)
    return next((u for u in j.degrees()
                 if hilbert_function(j, u) != min(r, _dim_piece(j.ring, u))), None)


def first_without_diagonal(j: TruncatedIdeal):
    """The first degree u whose piece J_u misses (I_R)_u, or None.

    An ideal kept by its Veronese pieces contains I_R by construction, and no
    pi-image is read.  Otherwise J_u meets ker pi = (I_R)_u in a subspace of
    dimension dim J_u - dim pi(J_u), and pi is onto, so
    dim (I_R)_u = dim S_u - dim V_|u|: the two dimensions agree exactly when
    J_u contains (I_R)_u.  Each pi(J_u) read is kept with the ideal.
    """
    if j.veronese is not None:
        return None
    for u in j.degrees():
        im = j.pi_image(u)
        if j.piece_dim(u) - im.dim != _dim_piece(j.ring, u) - im.ambient_dim:
            return u
    return None


def _multilinear(ring: RingSpec):
    """The degree v that saturation multiplies by: (1,...,1), or 1 on V."""
    return ones(ring.d) if ring.is_multigraded else 1


def saturation_degrees(j: TruncatedIdeal) -> tuple:
    """(testable, deciding): the degrees u whose bound covers
    `is_saturated_degreewise` at u, and those of them whose tests decide all of
    them.  On an ideal kept by its Veronese pieces the test at u reads W_|u|
    alone, so the first degree of each total decides; otherwise every one does.
    """
    step = degree_total(_multilinear(j.ring))
    testable = [u for u in j.degrees() if degree_total(u) + step <= j.bound]
    if j.veronese is None:
        return testable, testable
    return testable, [next(same) for _, same in itertools.groupby(testable, degree_total)]


# -- point sets and their saturated ideals ------------------------------------------

@dataclass(frozen=True)
class PointSet:
    """Rational points on the Segre (tuple of factor coords) or Veronese target.

    Two points are one when each factor (the point, on V) of one is
    proportional to the other's, decided on normal forms: `_integers` with
    its first nonzero entry made positive over Q, and made 1 over GF(p).
    """

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
        stored, at = self.field.stored, {}  # at: normal form -> the positions holding it
        for i, p in enumerate(self._integers):
            factors = p if self.ring.is_multigraded else (p,)
            key = tuple([stored(f, next(c for c, x in enumerate(f) if x)) for f in factors])
            at.setdefault(key, []).append(i)
        for same in at.values():  # by first position, so the first pair in order is named
            if len(same) > 1:
                raise ValueError(f"duplicate points at positions {same[0]} and {same[1]}")

    @cached_property
    def _integers(self) -> tuple:
        """Each point on integer coordinates: primitive integers over Q (per
        factor on the Segre side) and residues over GF(p).  Rescaling a
        point, or one factor of a Segre point, scales its row of every
        evaluation matrix, so each kernel is read off these."""
        def integers(coords):
            return self.field.to_ints(list(enumerate(coords)), len(coords))

        if self.ring.is_multigraded:
            return tuple([tuple(map(integers, p)) for p in self.points])
        return tuple(map(integers, self.points))

    @property
    def count(self) -> int:
        return len(self.points)


@lru_cache(maxsize=None)
def _predecessors(ring: RingSpec, u) -> tuple:
    """(u - e_i, i, steps) for a degree u above zero, where i is the first
    factor with u_i >= 1: monomial c of degree u is monomial steps[c][0] of
    degree u - e_i times variable steps[c][1] of factor i, the first such
    pair of the product table S_{u-e_i} x S_{e_i}, read off its section."""
    i, below = _degrees_below(ring, u)[0]
    section = fibre_table(_variable_table(ring, below, i)).section
    return below, i, tuple([divmod(c, ring.n) for c in section])


@lru_cache(maxsize=None)
def _merge_table(n: int, u: tuple, classes: tuple) -> tuple:
    """(kappa, fibres) for a degree u whose factor i falls in class
    classes[i], the classes numbered from 0 in order of first appearance:
    kappa is the class degree, u summed within each class, on
    segre_ring(n, #classes), and fibres.f[c] the column of S_kappa that
    monomial c of S_u goes to when the monomials within each class are
    multiplied (phi_u), in the table `pullback` reads.

    It is the product of the collapsed ring's pieces of degree u_i on class
    classes[i], folded as `pi_fibres` is (`product_fibres`).  One class is
    pi's fibre table, read from `pi_fibres`, and a class per factor the
    identity."""
    if not any(classes):
        return (sum(u),), pi_fibres(n, len(u), u)
    ring = segre_ring(n, max(classes) + 1)
    steps = [tuple(ui if t == k else 0 for t in range(ring.d)) for ui, k in zip(u, classes)]
    kappa = tuple([sum(ui for ui, k in zip(u, classes) if k == t) for t in range(ring.d)])
    return kappa, product_fibres(ring, steps)


def _evaluations(ring: RingSpec, field, points, bound: int):
    """(u, rows) for each degree u up to the bound, in order: the integer rows
    of the evaluation matrix at u, one per point of `points`, given on
    integer coordinates (`PointSet._integers`).  Each monomial takes one
    multiplication, from the value of its predecessor one degree down, and
    the field's `normalize` keeps each row small: an `IntRows`."""
    values = {}  # degree -> its integer rows
    for u in degrees_up_to(ring, bound):
        if degree_total(u) == 0:
            rows = IntRows([[1] for _ in points])
        else:
            below, i, steps = _predecessors(ring, u)
            coords = [p[i] for p in points] if ring.is_multigraded else points
            rows = IntRows([field.normalize([prev[t] * x[j] for t, j in steps])
                            for prev, x in zip(values[below], coords)])
        values[u] = rows
        yield u, rows


def point_ideal(zs: PointSet, bound: int, provenance: str = "point") -> TruncatedIdeal:
    """Saturated ideal of a reduced point set, degreewise: ker of evaluation.

    Each piece is held by its annihilator, the span of the evaluation rows,
    and its basis, the kernel, is made only when read (see `linalg`).
    Rescaling a point, or one factor of a Segre point, leaves each span
    alone, so the integer evaluation rows of `_evaluations` go to
    `Subspace.from_rows` as they are, dense: r rows per degree.  On the
    Segre side, factors whose integer coordinates are equal at every point
    form a class, and the evaluation at u is that of the collapsed set (one
    factor per class) at the class degree kappa(u), read through the map
    phi_u that multiplies the monomials within each class:
    J_u = phi_u^{-1}(J'_kappa(u)), `pullback` along `_merge_table`, whose
    annihilator is J'_kappa(u)'s pulled back.  So the call reduces once per
    class degree (at diagonal points, one class, once per total degree), and
    once more per merge table whose `section` does not increase.  Degrees
    with one class degree and one merge table share their rows, and each
    piece keeps its own (ring, u) tag."""
    bound = _bound(bound)
    ring, field, points = zs.ring, zs.field, zs._integers
    collapsed = ring
    if ring.is_multigraded:
        factors = list(zip(*points))
        first = [factors.index(f) for f in factors]
        reps = sorted(set(first))
        if len(reps) < ring.d:
            classes = tuple(map(reps.index, first))
            collapsed = segre_ring(ring.n, len(reps))
            points = [tuple([p[i] for i in reps]) for p in points]
    held = {}  # the collapsed pieces, each by the span of its evaluation rows
    for v, rows in _evaluations(collapsed, field, points, bound):
        held[v] = Subspace.cut_out(_dim_piece(collapsed, v), rows, (collapsed, v), field)
    if collapsed is ring:
        return TruncatedIdeal._made(ring, bound, held, provenance, field)
    shared, pieces = {}, {}  # shared: (kappa, f) -> phi^{-1}(J'_kappa)
    for u in degrees_up_to(ring, bound):
        v, fib = _merge_table(ring.n, u, classes)
        sub = shared.get((v, fib.f))
        if sub is None:
            sub = shared[v, fib.f] = pullback(held[v], fib, (ring, u))
        pieces[u] = sub.tagged((ring, u))
    return TruncatedIdeal._made(ring, bound, pieces, provenance, field)


def _has_generic_hf(zs: PointSet, bound: int) -> bool:
    """Whether the points' Hilbert function is min(r, dim S_u) at every degree
    u up to the bound, read as the rank of their evaluation rows at u; the
    first degree that misses stops the walk."""
    for u, rows in _evaluations(zs.ring, zs.field, zs._integers, bound):
        dim = _dim_piece(zs.ring, u)
        if rank(dim, rows, zs.field) != min(zs.count, dim):
            return False
    return True


def diagonal_points(zs: PointSet, d: int) -> PointSet:
    """Image of a Veronese point set under the diagonal embedding into d
    factors; d is an integer (2.0 counts as 2).

    The points were checked, normalized and put on integer coordinates when
    `zs` was made, and a point's d copies of one factor are distinct from
    another point's exactly when the two points are, so the Segre set is
    built from those with no check and no conversion: d references to each."""
    if zs.ring.is_multigraded:
        raise ValueError("expected points on the Veronese target")
    ring = segre_ring(zs.ring.n, d)
    out = object.__new__(PointSet)  # frozen: the fields go into its __dict__
    vars(out).update(ring=ring, points=tuple([(p,) * ring.d for p in zs.points]),
                     field=zs.field, _integers=tuple([(p,) * ring.d for p in zs._integers]))
    return out


def very_general_points(ring: RingSpec, r: int, bound: int, rng: random.Random,
                        coord_bound: int = 100) -> PointSet:
    """Draw r random integer points and certify the generic Hilbert function,
    read as the rank of their evaluation rows (`_has_generic_hf`).

    Genericity failures over the rationals are measure-zero-like but possible
    on integer draws: one resample is attempted before giving up.  r is an
    integer (2.0 counts as 2).
    """
    r, bound = integer(r, "point count"), _bound(bound)
    if r < 1:
        raise ValueError(f"need at least one point, got r={r}")
    if coord_bound < 1:  # every draw would be zero
        raise ValueError(f"coord_bound must be at least 1, got {coord_bound}")

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
        if _has_generic_hf(zs, bound):
            return zs
        warnings.warn(
            f"resampling: draw {attempt} was not in general position", stacklevel=2
        )
    raise GenericityError(
        f"failed twice to draw {r} points with the generic Hilbert function"
    )


# -- degreewise tests -----------------------------------------------------------------

def is_saturated_degreewise(j: TruncatedIdeal, u) -> bool:
    """Whether f * (every multilinear monomial) in J forces f in J, at degree u.

    This is the degreewise content of saturation with respect to the
    irrelevant ideal, (J_{u+v} : S_v)_u = J_u with v = (1,...,1) (v = 1 on the
    Veronese side), so the bound must cover |u| + |v|.  An ideal kept by its
    Veronese pieces is J = pi^{-1}(W), and pi is a ring map that sends the
    multilinear monomials onto the monomials of V_d, so the test at u is
    (W_{k+d} : V_d)_k = W_k with k = |u|, the same for every u of total k.
    """
    ring = j.ring
    u, v = check_degree(ring, u), _multilinear(ring)
    if degree_total(u) + degree_total(v) > j.bound:
        raise ValueError(f"bound {j.bound} too small to test saturation at degree {u}")
    pieces = j.pieces
    if j.veronese is not None:
        ring, u, v, pieces = veronese_ring(ring.n), degree_total(u), degree_total(v), j.veronese
    upper = pieces[add_degrees(u, v)]
    # an iterator, so the constraint rows are freed before the elimination
    return colon(ring, u, v, iter(upper.constraints()), field=upper.field) == pieces[u]


def min_generators(ring: RingSpec, u, piece_at, field=QQ) -> int:
    """Minimal generators of degree u: dim J_u minus the dimension of the
    from-below part sum_i S_{e_i} J_{u-e_i}, where J_v = piece_at(v)."""
    return piece_at(u).dim - span_from_below(ring, u, piece_at, field).dim


def min_generators_in_degree(j: TruncatedIdeal, u) -> int:
    """Minimal generators of J in degree u."""
    return min_generators(j.ring, j._checked(u), j.pieces.__getitem__, j.field)


def diagonal_ideal(n: int, d: int, bound: int) -> TruncatedIdeal:
    """The diagonal ideal I_R = pi^{-1}(0), kept by its zero Veronese pieces."""
    ring_v, bound = veronese_ring(n), _bound(bound)
    w = {k: Subspace.zero(_dim_piece(ring_v, k), (ring_v, k)) for k in range(bound + 1)}
    return TruncatedIdeal.pi_preimage(segre_ring(n, d), bound, w, "diagonal-ideal")
