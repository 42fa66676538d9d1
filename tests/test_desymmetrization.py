"""Differential tests: the closed-form desymmetrization against elimination.

The reference builds each piece (I_R)_u + psi_u(I_|u|) the way `upsilon` did
before it read the piece off the pi-fibre table: stack the rows of
ker pi_u and of psi_u(I_|u|) and row-reduce the stack on all of S_u.  The
closed form must return the very same basis tuples, equal in value and in
repr, so that every `ideal_digest` is unchanged.
"""

import random

import pytest

from borderapolar.grading import PieceElement, dim_piece, segre_ring, veronese_ring
from borderapolar.ideals import (
    PointSet,
    TruncatedIdeal,
    degrees_up_to,
    expand,
    point_ideal,
    very_general_points,
    zero_ideal,
)
from borderapolar.linalg import QQ, PrimeField, Subspace, kernel
from borderapolar.transfer import ideal_digest, upsilon
from support import image_reference, pi_matrix_reference, psi_matrix_reference

FIELDS = [QQ, PrimeField(2147483647)]


def reference_upsilon(i: TruncatedIdeal, d: int, bound: int) -> TruncatedIdeal:
    n = i.ring.n
    ring_s = segre_ring(n, d)
    pieces = {}
    for u in degrees_up_to(ring_s, bound):
        pi_u = pi_matrix_reference(n, d, u, i.field)
        base = kernel(pi_u.ncols, pi_u.sparse, field=i.field)
        lifted = image_reference(psi_matrix_reference(n, d, u, i.field), i.piece(sum(u)))
        pieces[u] = Subspace.from_rows(
            dim_piece(ring_s, u), base.sparse + lifted.sparse,
            piece=(ring_s, u), field=i.field,
        )
    return TruncatedIdeal(ring_s, bound, pieces, "user")


def assert_same_lift(i: TruncatedIdeal, d: int, bound: int):
    got = upsilon(i, d, bound)
    want = reference_upsilon(i, d, bound)
    for u in want.degrees():
        assert got.piece(u).basis == want.piece(u).basis, u
        assert repr(got.piece(u).basis) == repr(want.piece(u).basis), u
    assert ideal_digest(got) == ideal_digest(want)


def full_ideal(ring, bound, field):
    pieces = {k: Subspace.full(dim_piece(ring, k), piece=(ring, k), field=field)
              for k in degrees_up_to(ring, bound)}
    return TruncatedIdeal(ring, bound, pieces, "user")


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("n,d,bound", [(2, 3, 4), (3, 3, 3), (3, 2, 4)])
def test_zero_and_full_ideals(field, n, d, bound):
    ring_v = veronese_ring(n)
    assert_same_lift(zero_ideal(ring_v, bound, field), d, bound)
    assert_same_lift(full_ideal(ring_v, bound, field), d, bound)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_point_ideals(field):
    rng = random.Random(31)
    for n, d, r in ((2, 3, 3), (3, 3, 4), (3, 2, 5)):
        ring_v = veronese_ring(n)
        z = very_general_points(ring_v, r, d + 1, rng)
        zs = PointSet(ring_v, z.points, field=field)
        assert_same_lift(point_ideal(zs, d + 1), d, d + 1)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_expanded_random_generators(field):
    rng = random.Random(32)
    for n, d, bound, degs in ((2, 3, 4, (2, 3)), (3, 3, 3, (2, 2, 3)), (3, 2, 4, (1, 3))):
        ring_v = veronese_ring(n)
        gens = [
            PieceElement(ring_v, k, tuple(field.of(rng.randint(-9, 9))
                                          for _ in range(dim_piece(ring_v, k))))
            for k in degs
        ]
        assert_same_lift(expand(gens, ring_v, bound, field=field), d, bound)
