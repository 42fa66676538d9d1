"""Differential tests: the sparse canonical rows against the dense constructions.

A Subspace stores each RREF row as the (column, value) pairs of its nonzero
entries.  Every operation that now reads or writes those pairs is compared here
with the dense construction it replaced, over Q and over GF(2^31 - 1), and
`ideal_digest`, which streams the repr of the dense bases from the pairs, must
give the very same hash as hashing that repr.
"""

import itertools
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from borderapolar.diagonal_maps import ir_generators, pi_fibres
from borderapolar.grading import (
    PieceElement,
    dim_piece,
    monomials,
    rank_monomial,
    segre_ring,
    veronese_ring,
)
from borderapolar.ideals import (
    PointSet,
    TruncatedIdeal,
    degrees_up_to,
    diagonal_points,
    expand,
    multiply_vector_by_variable,
    point_ideal,
    very_general_points,
    zero_ideal,
)
from borderapolar.linalg import QQ, Matrix, PrimeField, Subspace
from borderapolar.transfer import ideal_digest, upsilon
from support import (
    RATIONAL_POINTS,
    RATIONAL_SEGRE_POINTS,
    assert_canonical,
    constraints_reference,
    expand_reference,
    ideal_digest_reference,
    intersect_reference,
    multiply_vector_by_variable_reference,
    point_ideal_reference,
    reduce_vector_reference,
    sparse_rows,
)

FIELDS = [QQ, PrimeField(2147483647)]


def random_rows(rng, count, dim):
    return [[rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 7)))
             for _ in range(dim)] for _ in range(count)]


def sample_subspaces(field, rng):
    """Zero, full, single-row and one-column subspaces, then random ones."""
    yield Subspace.zero(5, field=field)
    yield Subspace.full(5, field=field)
    yield Subspace.from_rows(5, sparse_rows([[0, 2, 0, -1, 3]], field), field=field)
    yield Subspace.from_rows(1, sparse_rows([[4]], field), field=field)
    yield Subspace.zero(1, field=field)
    for _ in range(40):
        dim = rng.randint(1, 9)
        rows = random_rows(rng, rng.randint(0, dim + 1), dim)
        yield Subspace.from_rows(dim, sparse_rows(rows, field), field=field)


class TestCanonicalRows:
    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_rows_are_canonical_and_round_trip(self, field):
        for sub in sample_subspaces(field, random.Random(1)):
            assert_canonical(sub)
            assert Subspace.from_rows(sub.ambient_dim, sparse_rows(sub.basis, field),
                                      field=field) == sub
            assert Subspace.from_rows(sub.ambient_dim, sub.sparse, field=field) == sub
            assert sub.matrix().rows == [list(row) for row in sub.basis]

    def test_stored_rows_cannot_be_reassigned(self):
        sub = Subspace.from_rows(3, sparse_rows([[1, 2, 0], [0, 0, 5]]))
        assert sub.sparse == (((0, 1), (1, 2)), ((2, 1),))
        with pytest.raises(FrozenInstanceError):
            sub.sparse = ()
        with pytest.raises(TypeError):
            sub.sparse[0][0] = (0, 2)


class TestDigest:
    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_edge_pieces(self, field):
        """Zero, full and single-row pieces, and one-column pieces, whose rows
        and bases are 1-tuples written with a trailing comma."""
        ring = veronese_ring(2)
        pieces = {0: Subspace.full(1, field=field),
                  1: Subspace.from_rows(2, sparse_rows([[0, 3]], field), field=field),
                  2: Subspace.zero(3, field=field),
                  3: Subspace.full(4, field=field)}
        j = TruncatedIdeal(ring, 3, pieces)
        assert ideal_digest(j) == ideal_digest_reference(j)
        line = TruncatedIdeal(veronese_ring(1), 2, {k: Subspace.full(1, field=field)
                                                     for k in range(3)})
        assert ideal_digest(line) == ideal_digest_reference(line)
        for bound in (0, 2):
            zero = zero_ideal(segre_ring(2, 2), bound, field)
            assert ideal_digest(zero) == ideal_digest_reference(zero)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_point_diagonal_and_upsilon_ideals(self, field):
        for n, d, r, bound in ((2, 3, 2, 4), (3, 3, 4, 4), (3, 2, 5, 3)):
            z = very_general_points(veronese_ring(n), r, bound, random.Random(n + r))
            zs = PointSet(z.ring, z.points, field=field)
            ideal = point_ideal(zs, bound)
            diag = point_ideal(diagonal_points(zs, d), bound, provenance="diagonal-points")
            for j in (ideal, diag, upsilon(ideal, d, bound)):
                assert ideal_digest(j) == ideal_digest_reference(j)


class TestAgainstDenseReferences:
    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_constraints_intersect_and_reduce(self, field):
        rng = random.Random(2)
        subs = list(sample_subspaces(field, rng))
        for a in subs:
            cons = a.constraints()
            # each integer row divided by its leading entry, at its column f
            assert all(type(x) is int for row in cons for _, x in row)
            assert repr(Matrix(a.ambient_dim, [field.elements(row) for row in cons], field).rows) \
                == repr(constraints_reference(a).rows)
            for b in subs:
                if b.ambient_dim == a.ambient_dim:
                    got = a.intersect(b)
                    assert_canonical(got)
                    assert repr(got.basis) == repr(intersect_reference(a, b).basis)
            for v in random_rows(rng, 4, a.ambient_dim) + list(a.basis[:1]):
                rem = a.reduce_vector(v)
                assert repr(rem) == repr(reduce_vector_reference(a, v))
                assert a.contains(v) == (not any(rem))

    @pytest.mark.parametrize("ring, u", [(veronese_ring(3), 2), (segre_ring(3, 2), (1, 2)),
                                         (segre_ring(2, 3), (0, 2, 1))], ids=repr)
    def test_multiply_vector_by_variable(self, ring, u):
        rng = random.Random(3)
        for _ in range(5):
            coords = [Fraction(rng.choice((0, 0, rng.randint(-9, 9)))) for _ in
                      range(dim_piece(ring, u))]
            row = [(c, x) for c, x in enumerate(coords) if x]
            for i in range(ring.d if ring.is_multigraded else 1):
                for j in range(ring.n):
                    got = multiply_vector_by_variable(ring, u, row, i, j)
                    want = multiply_vector_by_variable_reference(ring, u, coords, i, j)
                    assert got == [(c, x) for c, x in enumerate(want) if x]

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_expand(self, field):
        rng = random.Random(4)
        ring = segre_ring(2, 3)
        extra = PieceElement(ring, (1, 1, 0), tuple(Fraction(rng.randint(-3, 3))
                                                     for _ in range(4)))
        for gens, bound in ((ir_generators(2, 3), 3), (ir_generators(2, 3)[:1] + [extra], 4)):
            got = expand(gens, ring, bound, field=field)
            want = expand_reference(gens, ring, bound, field)
            for u in degrees_up_to(ring, bound):
                assert_canonical(got.pieces[u])
                assert repr(got.pieces[u].basis) == repr(want[u].basis)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_point_ideal(self, field):
        cases = []
        for n, r, bound in ((2, 3, 4), (3, 4, 3)):
            z = very_general_points(veronese_ring(n), r, bound, random.Random(5 + n))
            zs = PointSet(z.ring, z.points, field=field)
            cases += [(zs, bound), (diagonal_points(zs, 3), 3)]
        # a Segre point set with distinct factors, so each factor's coordinates count
        z = very_general_points(segre_ring(3, 2), 4, 3, random.Random(9))
        cases.append((PointSet(z.ring, z.points, field=field), 3))
        cases += [(PointSet(veronese_ring(3), RATIONAL_POINTS, field=field), 4),
                  (PointSet(segre_ring(2, 3), RATIONAL_SEGRE_POINTS, field=field), 4)]
        # repeated factors, whose degrees share evaluation matrices: factor 0
        # equal to factor 2 but not to factor 1, and diagonal points whose
        # factors are scaled differently
        cases.append((PointSet(segre_ring(2, 3), tuple((p[0], p[1], p[0])
                                                       for p in RATIONAL_SEGRE_POINTS),
                               field=field), 4))
        z = very_general_points(veronese_ring(3), 4, 3, random.Random(11))
        scaled = tuple((p, tuple(2 * x for x in p), tuple(Fraction(-x, 3) for x in p))
                       for p in z.points)
        cases.append((PointSet(segre_ring(3, 3), scaled, field=field), 3))
        for points, b in cases:
            got = point_ideal(points, b)
            want = point_ideal_reference(points, b)
            for u in got.degrees():
                assert got.pieces[u].piece == (points.ring, u)
                assert_canonical(got.pieces[u])
                assert repr(got.pieces[u].basis) == repr(want[u].basis)

    def test_pi_fibres_match_per_column_ranking(self):
        for n, d in itertools.product((1, 2, 3, 4), (1, 2, 3)):
            ring_s, ring_v = segre_ring(n, d), veronese_ring(n)
            for u in degrees_up_to(ring_s, 4):
                f = tuple(rank_monomial(ring_v, tuple(map(sum, zip(*mono))))
                          for mono in monomials(ring_s, u))
                assert pi_fibres(n, d, u).f == f
