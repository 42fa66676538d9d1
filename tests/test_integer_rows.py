"""The producers that hand elimination integer rows, over Q and GF(2^31 - 1).

`point_ideal` evaluates on integer representatives of its points, and
`pi_image` pushes integer rows through the fibres, dropping what cancels: it
is compared with the dense image of `tests/support.py` on rows with
denominators and rows that collapse to zero.  (`point_ideal` on rational
points is compared with its dense reference in `test_sparse_rows.py`.)
"""

import random
from fractions import Fraction as F

import pytest

from borderapolar.diagonal_maps import ir_piece, pi_fibres, pi_image
from borderapolar.grading import segre_ring, veronese_ring
from borderapolar.ideals import PointSet, point_ideal
from borderapolar.linalg import QQ, PrimeField, Subspace
from support import (
    RATIONAL_POINTS,
    RATIONAL_SEGRE_POINTS,
    assert_canonical,
    image_reference,
    integer_row,
    kept_piece,
    mat_vec,
    pi_matrix_reference,
    sparse_rows,
)

FIELDS = [QQ, PrimeField(2147483647)]


class TestPointIdeal:
    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_rescaled_points_give_the_same_ideal(self, field):
        first = tuple(tuple(x * s for x in f)
                      for f, s in zip(RATIONAL_SEGRE_POINTS[0], (F(-7, 3), 5, F(1, 11))))
        scaled = (first,) + RATIONAL_SEGRE_POINTS[1:]
        a = point_ideal(PointSet(segre_ring(2, 3), RATIONAL_SEGRE_POINTS, field=field), 3)
        b = point_ideal(PointSet(segre_ring(2, 3), scaled, field=field), 3)
        assert a.pieces == b.pieces

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_kernel_gets_integer_rows(self, field, eliminations):
        point_ideal(PointSet(veronese_ring(3), RATIONAL_POINTS, field=field), 3)
        assert eliminations.rows
        values = [x for rows in eliminations.rows for row in rows for _, x in row]
        assert values and all(type(x) is int for x in values)


def collapsing_rows(n, d, u, field, rng):
    """Sparse integer rows over S_u, made from rows of field elements: each
    pair of columns of one fibre with opposite fractional values, which
    collapses to zero, the same pair plus one more entry, which partly
    cancels, and one dense row with denominators."""
    fib = pi_fibres(n, d, u)
    dim = len(fib.f)
    fibres = {}
    for c, m in enumerate(fib.f):
        fibres.setdefault(m, []).append(c)
    rows = []
    for cols in fibres.values():
        if len(cols) < 2:
            continue
        a, b = rng.sample(cols, 2)
        x = F(rng.choice((1, -3, 5)), rng.choice((2, 3, 7)))
        rows.append({a: x, b: -x})
        rows.append({a: x, b: -x, rng.randrange(dim): F(rng.randint(1, 9), rng.randint(2, 9))})
    rows.append({c: F(rng.randint(-9, 9), rng.randint(1, 12)) for c in range(dim)})
    return dim, [integer_row([(c, field.of(x)) for c, x in sorted(r.items()) if x], field)
                 for r in rows]


class TestPiImage:
    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_matches_dense_reference_and_drops_collapsed_rows(self, field, eliminations):
        rng = random.Random(81)
        for n, d, u in ((2, 2, (1, 1)), (2, 3, (2, 1, 0)), (3, 2, (2, 1)), (3, 3, (1, 1, 1))):
            m = pi_matrix_reference(n, d, u, field)
            dim, rows = collapsing_rows(n, d, u, field, rng)
            w = Subspace.from_rows(m.nrows, sparse_rows([[F(rng.randint(-5, 5), rng.randint(1, 6))
                                                          for _ in range(m.nrows)]], field),
                                   field=field)
            # rows that are not an RREF, a pi-preimage whose e_c - e_top rows all
            # collapse, and a diagonal piece whose image is zero
            for sub in (Subspace(dim, tuple(rows), None, field), kept_piece(n, d, u, w),
                        ir_piece(n, d, u, field)):
                eliminations.clear()
                got = pi_image(n, d, u, sub)
                [pushed] = eliminations.rows
                surviving = sum(1 for row in sub.basis if any(mat_vec(m, row)))
                assert len(pushed) == surviving
                assert all(type(x) is int and x for row in pushed for _, x in row)
                assert_canonical(got)
                assert repr(got.basis) == repr(image_reference(m, sub).basis)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_residues_that_sum_to_p_cancel(self, field, eliminations):
        # 1/2 and -1/2 are (p+1)/2 and (p-1)/2 mod p: their integer sum is p
        n, d, u = 2, 2, (1, 1)
        fib = pi_fibres(n, d, u)
        a, b = [c for c, m in enumerate(fib.f) if m == 1]
        row = integer_row(((a, field.of(F(1, 2))), (b, field.of(F(-1, 2)))), field)
        sub = Subspace(4, (row,), None, field)
        assert pi_image(n, d, u, sub).is_zero
        assert [len(rows) for rows in eliminations.rows] == [0]
