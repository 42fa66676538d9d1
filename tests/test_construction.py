"""Every way the package makes a `Subspace`, a `RingSpec` or a `TruncatedIdeal`
gives the object its public constructor makes of the same fields.

A `Subspace` writes its fields straight into its instance dict, the rings
are made once per shape, and the ideals the package builds from pieces it
has just made are not checked again.  Each such object must still equal the
publicly constructed one, with the same hash and repr, survive pickle, refuse
assignment to a field and, for a subspace, leave `piece` out of equality.
"""

import dataclasses
import pickle
import random

import pytest

from borderapolar.grading import RingKind, RingSpec, dim_piece, segre_ring, veronese_ring
from borderapolar.ideals import (
    PointSet,
    TruncatedIdeal,
    diagonal_points,
    point_ideal,
    very_general_points,
)
from borderapolar.linalg import QQ, IntRows, PrimeField, Subspace, kernel
from borderapolar.transfer import rho_ideal, sigma, upsilon
from support import sparse_rows

GF = PrimeField(2147483647)
FIELDS = [QQ, GF]


def same_as_public(got: Subspace):
    """`got` against the public constructor of the side it holds,
    `Subspace(...)` or `Subspace.by_perp(...)`, and against its pickled copy
    (taken before the other side is made): equal, with equal hash and repr,
    the tag kept, fields frozen.  Once both sides are read, each holds the
    same fields."""
    if got.held_by_perp:
        public = Subspace.by_perp(got.ambient_dim, got.perp, got.piece, got.field)
    else:
        public = Subspace(got.ambient_dim, got.sparse, got.piece, got.field)
    copy = pickle.loads(pickle.dumps(got))
    for other in (public, copy):
        assert other == got and hash(other) == hash(got) and repr(other) == repr(got)
        assert other.piece == got.piece and other.field == got.field
    for sub in (got, public, copy):
        assert (sub.sparse, sub.perp) == (got.sparse, got.perp)
    for other in (public, copy):
        assert vars(other) == vars(got)
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.sparse = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.piece = "elsewhere"
    retagged = Subspace(got.ambient_dim, got.sparse, "elsewhere", got.field)
    assert retagged == got and hash(retagged) == hash(got)


def rows_for(field, rng, nrows=4, ncols=7):
    return sparse_rows([[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)], field)


class TestSubspaces:
    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_elimination_and_the_classmethods(self, field):
        rng = random.Random(7)
        for _ in range(20):
            rows = rows_for(field, rng)
            for got in (Subspace.from_rows(7, rows, "p", field), kernel(7, rows, "q", field),
                        Subspace.zero(7, "z", field), Subspace.full(7, "f", field),
                        Subspace.from_rows(7, [], None, field), kernel(7, [], None, field)):
                same_as_public(got)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_dense_integer_rows_give_the_same_subspace(self, field):
        """An `IntRows` of normalized dense rows is read as it is, and gives
        the subspace its sparse rows give."""
        rng = random.Random(8)
        for _ in range(20):
            dense = [field.normalize([rng.randint(-9, 9) for _ in range(6)]) for _ in range(3)]
            sparse = [[(c, x) for c, x in enumerate(row) if x] for row in dense]
            for make in (Subspace.from_rows, kernel):
                got = make(6, IntRows(dense), "p", field)
                assert got == make(6, sparse, "p", field)
                same_as_public(got)

    def test_the_rational_field_unpickles_as_itself(self):
        assert pickle.loads(pickle.dumps(QQ)) is QQ
        assert pickle.loads(pickle.dumps(GF)) == GF


class TestRings:
    def test_one_ring_per_shape(self):
        for n in (1, 2, 3):
            for d in (1, 2, 4):
                ring = segre_ring(n, d)
                assert ring is segre_ring(n, d) is segre_ring(float(n), float(d))
                public = RingSpec(n, d, RingKind.SEGRE_COORD)
                for other in (public, pickle.loads(pickle.dumps(ring))):
                    assert other == ring and hash(other) == hash(ring)
                    assert repr(other) == repr(ring)
            ring = veronese_ring(n)
            assert ring is veronese_ring(n) and ring == RingSpec(n, 1, RingKind.VERONESE_COORD)
            with pytest.raises(dataclasses.FrozenInstanceError):
                ring.n = n + 1

    def test_a_refused_shape_is_refused_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="need n >= 1"):
                segre_ring(0, 2)
            with pytest.raises(ValueError, match="factor count 2.5 is not an integer"):
                segre_ring(2, 2.5)
            with pytest.raises(ValueError, match=r"n \[2\] is not an integer"):
                veronese_ring([2])


def stored(j: TruncatedIdeal) -> TruncatedIdeal:
    """The ideal the public constructor makes of j's pieces, each stored."""
    return TruncatedIdeal(j.ring, j.bound, dict(j.pieces), j.provenance)


class TestIdeals:
    """Point ideals, the pullback pieces of diagonal points and of kept
    ideals, and the transport maps' pieces, retagged or not."""

    @pytest.fixture(params=FIELDS, ids=repr)
    def points(self, request):
        z = very_general_points(veronese_ring(3), 4, 3, random.Random(11))
        return PointSet(z.ring, z.points, field=request.param)

    def test_point_ideals_and_their_pullback_pieces(self, points):
        for zs in (points, diagonal_points(points, 3)):
            j = point_ideal(zs, 3)
            public = stored(j)
            assert j == public and repr(j) == repr(public) and j.field == public.field
            assert vars(j).keys() == vars(public).keys()
            for u in j.degrees():
                assert j.pieces[u].piece == (zs.ring, u)
                same_as_public(j.pieces[u])

    def test_the_transport_maps(self, points):
        i = point_ideal(points, 3)
        lifted = upsilon(i, 3)
        public = TruncatedIdeal.pi_preimage(lifted.ring, 3, dict(i.pieces), lifted.provenance)
        assert lifted == public and lifted.field == public.field
        assert repr(lifted) == repr(public)
        for u in lifted.degrees():
            same_as_public(lifted.pieces[u])
            assert lifted.pieces[u] == public.pieces[u]
        for j in (rho_ideal(lifted), sigma(lifted)):
            assert j == stored(j) and repr(j) == repr(stored(j))
            for k in j.degrees():
                assert j.pieces[k] is i.pieces[k]  # already tagged (V, k): not copied

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_tagged(self, field):
        ring_v = veronese_ring(2)
        sub = Subspace.from_rows(3, rows_for(field, random.Random(3), 2, 3), field=field)
        got = sub.tagged((ring_v, 2))
        assert got.piece == (ring_v, 2) and got == sub and got.sparse is sub.sparse
        same_as_public(got)
        assert got.tagged((ring_v, 2)) is got
        assert got.tagged((ring_v, 1)).piece == (ring_v, 1)
        assert dim_piece(ring_v, 2) == got.ambient_dim
