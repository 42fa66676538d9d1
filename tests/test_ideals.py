"""Tests for truncated ideals, point ideals, Hilbert functions, and saturation."""

import itertools
import random
import warnings
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from borderapolar.diagonal_maps import ir_generators, pi_fibres
from borderapolar import grading, ideals, linalg
from borderapolar.grading import (
    PieceElement,
    _product_map,
    add_degrees,
    colon,
    dim_piece,
    monomials,
    ones,
    rank_monomial,
    segre_ring,
    unit_degree,
    veronese_ring,
)
from borderapolar.ideals import (
    GenericityError,
    PointSet,
    TruncatedIdeal,
    annihilator_from_below,
    degrees_up_to,
    diagonal_ideal,
    diagonal_points,
    expand,
    first_non_generic,
    generic_hf,
    hilbert_function,
    is_ideal_closed,
    is_saturated_degreewise,
    min_generators_in_degree,
    point_ideal,
    span_from_below,
    very_general_points,
    zero_ideal,
)
from borderapolar.linalg import QQ, PrimeField, Subspace, kernel
from borderapolar.transfer import ideal_digest, upsilon
from support import (assert_canonical, colon_reference, colon_rows_reference, diagonal_tensor,
                     fibre_order, multiply_monomials, pi_matrix_reference, point_ideal_reference,
                     preimage_reference, sparse_rows, very_general_points_reference)


V2 = veronese_ring(2)
V3 = veronese_ring(3)
GF = PrimeField(2147483647)


def principal_ideal(coeffs_by_mono, ring, degree, bound):
    gen = PieceElement.from_terms(ring, degree, coeffs_by_mono)
    return expand([gen], ring, bound)


def scaled_factor_points(field):
    """Four Segre points (p, 2p, -p/3) with p general in P^2: projectively one
    factor three times, whose primitive integers over Q are p, p and -p, and
    whose residues over GF(p) all differ."""
    z = very_general_points(V3, 4, 3, random.Random(33))
    return PointSet(segre_ring(3, 3), tuple((p, tuple(2 * x for x in p),
                                             tuple(Fraction(-x, 3) for x in p))
                                            for p in z.points), field=field)


class TestDegreeEnumeration:
    def test_degrees_up_to_matches_filtering_definition(self):
        for d in range(1, 7):
            ring = segre_ring(2, d)
            blocks = []
            for total in range(8):
                block = [u for u in itertools.product(range(total + 1), repeat=d)
                         if sum(u) == total]
                block.sort(key=lambda u: tuple(-x for x in u))
                blocks.append(block)
            for bound in range(-1, 8):
                want = [u for block in blocks[:bound + 1] for u in block]
                assert degrees_up_to(ring, bound) == tuple(want), (d, bound)

    def test_veronese_degrees(self):
        assert degrees_up_to(V3, 3) == (0, 1, 2, 3)


class TestProductMap:
    """The folded product tables against ranking every product monomial, for
    v = e_i (multiplication by a variable), (1,...,1) and d (saturation)."""

    @pytest.mark.parametrize("ring, bound", [
        (veronese_ring(1), 4), (V2, 5), (V3, 4), (veronese_ring(4), 3),
        (segre_ring(1, 3), 3), (segre_ring(2, 2), 4), (segre_ring(3, 3), 3),
        (segre_ring(2, 4), 3),
    ], ids=repr)
    def test_matches_rank_monomial(self, ring, bound):
        if ring.is_multigraded:
            vs = [unit_degree(ring.d, i) for i in range(ring.d)] + [ones(ring.d)]
        else:
            vs = [1, 2, 3]
        for u in degrees_up_to(ring, bound):
            for v in vs:
                want = [rank_monomial(ring, multiply_monomials(ring, a, b))
                        for a in monomials(ring, u) for b in monomials(ring, v)]
                assert _product_map(ring, u, v) == tuple(want), (u, v)


class TestColon:
    """`colon` of the constraints of `upper` against the colon that composes
    one variable step at a time: the same stacked rows, in the same order, and
    the same subspace."""

    @staticmethod
    def cases(field):
        """(ring, u, v, upper) on kept Veronese, stored Segre and stored
        Veronese ideals, and on a full and a zero `upper`."""
        rng = random.Random(f"colon/{field!r}")
        for n, r in ((2, 2), (3, 4)):
            z = very_general_points(veronese_ring(n), r, 4, rng)
            i = point_ideal(PointSet(veronese_ring(n), z.points, field=field), 4)
            for k in range(3):
                yield i.ring, k, 1, i.pieces[k + 1]
            w = upsilon(i, 3, 4).veronese
            for k in range(2):
                yield i.ring, k, 3, w[k + 3]
        for n, d in ((2, 2), (2, 3), (3, 2)):
            z = very_general_points(segre_ring(n, d), 3, d + 1, rng)
            j = point_ideal(PointSet(z.ring, z.points, field=field), d + 1)
            for u in degrees_up_to(j.ring, 1):
                yield j.ring, u, ones(d), j.pieces[add_degrees(u, ones(d))]
        for ring, u, v in ((V3, 1, 2), (segre_ring(2, 3), (1, 0, 0), ones(3))):
            dim = dim_piece(ring, add_degrees(u, v))
            yield ring, u, v, Subspace.full(dim, field=field)
            yield ring, u, v, Subspace.zero(dim, field=field)

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    def test_matches_reference(self, monkeypatch, field):
        """The colon is held by the RREF of the stacked rows, one `from_rows`
        of them, and makes the reference's basis when read; with no
        functionals the rows span 0 and the colon is the full piece."""
        stacked, real = [], Subspace.from_rows.__func__

        def recording(cls, ncols, rows, piece=None, field=QQ):
            stacked.append(rows)
            return real(cls, ncols, rows, piece, field)

        monkeypatch.setattr(Subspace, "from_rows", classmethod(recording))
        for ring, u, v, upper in self.cases(field):
            stacked.clear()
            got = colon(ring, u, v, upper.constraints(), field=upper.field)
            rows = colon_rows_reference(ring, u, v, upper)
            assert [list(s) for s in stacked] == [rows], (ring, u, v)
            want = colon_reference(ring, u, v, upper)
            span = real(Subspace, want.ambient_dim, rows, field=field)
            assert got.held_by_perp and got.perp == span.sparse, (ring, u, v)
            assert got == want and got.field == want.field == field, (ring, u, v)
            assert repr(got.sparse) == repr(want.sparse), (ring, u, v)
        full = Subspace.full(dim_piece(V3, 3), field=field)
        assert colon(V3, 1, 2, full.constraints(), field=field) == Subspace.full(
            dim_piece(V3, 1), field=field)

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    def test_makes_no_row_past_full_column_rank(self, monkeypatch, field):
        """The contraction rows are made as elimination reads them: once the
        rows made have full column rank, no later row is made.  Here
        (W_4 : V_3)_1 = W_1 = 0 at four points of P^2, from 3 of 40 rows."""
        made, real = [], grading.RowSource

        def counting(count, make):
            def rows():
                for row in make():
                    made.append(row)
                    yield row
            return real(count, rows)

        monkeypatch.setattr(grading, "RowSource", counting)
        z = very_general_points(V3, 4, 4, random.Random(3))
        upper = point_ideal(PointSet(V3, z.points, field=field), 4).pieces[4]
        got = colon(V3, 1, 3, upper.constraints(), field=field)
        assert got == Subspace.zero(3, field=field)
        rows = colon_rows_reference(V3, 1, 3, upper)
        assert len(rows) == 40 and made == rows[:len(made)]
        assert len(made) == next(i for i in range(len(rows) + 1)
                                 if linalg.rank(3, rows[:i], field) == 3) == 3


class TestFieldFromPieces:
    """An ideal's field is its pieces' field."""

    def test_pieces_above_the_bound_are_allowed(self):
        """Every degree up to the bound needs a piece; one above it is kept,
        as a file's pieces are under a lower --degree-bound."""
        j = point_ideal(PointSet(V2, ((1, 0), (0, 1))), 3)
        low = TruncatedIdeal(V2, 1, j.pieces)
        assert low.degrees() == (0, 1) and hilbert_function(low, 1) == 2

    def test_rebuilt_prime_field_ideal(self):
        j = point_ideal(PointSet(V2, ((1, 0), (0, 1), (1, 1)), field=GF), 3)
        rebuilt = TruncatedIdeal(V2, 3, j.pieces)
        assert rebuilt.field == GF
        assert ideal_digest(rebuilt) == ideal_digest(j) == "8e6789cd1a1aeafb"
        assert is_saturated_degreewise(rebuilt, 1)
        kept = upsilon(j, 2, 3)
        assert TruncatedIdeal.pi_preimage(kept.ring, 3, kept.veronese).field == GF

    def test_pieces_in_two_fields_refused(self):
        j = point_ideal(PointSet(V2, ((1, 0), (0, 1), (1, 1)), field=GF), 3)
        with pytest.raises(ValueError, match="pieces in two fields"):
            j.with_piece(2, Subspace.zero(dim_piece(V2, 2)))
        w = {k: Subspace.zero(dim_piece(V2, k), field=GF if k else QQ) for k in range(3)}
        with pytest.raises(ValueError, match="pieces in two fields"):
            TruncatedIdeal.pi_preimage(segre_ring(2, 2), 2, w)


class TestPiImageDegree:
    """`pi_image` reads its degree as `piece` does, on a kept ideal and on a
    stored one alike."""

    def test_list_degree_is_the_tuple(self):
        kept = diagonal_ideal(2, 3, 4)
        stored = TruncatedIdeal(kept.ring, kept.bound, dict(kept.pieces))
        for j in (kept, stored):
            assert j.pi_image([1, 0, 0]) == j.pi_image((1, 0, 0)) == Subspace.zero(2)
            assert j.pi_image([2, 1, 0]) == j.pi_image((2, 1, 0)) == Subspace.zero(4)


class TestExpand:
    def test_diagonal_ideal_quotient_dim(self):
        ring = segre_ring(2, 2)
        j = expand(ir_generators(2, 2), ring, 4)
        assert hilbert_function(j, (1, 1)) == 3  # dim V_2

    def test_principal_ideal_codim(self):
        j = principal_ideal({(1, 0): 1}, V2, 1, 3)
        # codim of b1*V_{k-1} inside V_k counts the monomials without b1
        for k in range(4):
            assert hilbert_function(j, k) == 1

    def test_empty_generators(self):
        j = expand([], V2, 3)
        assert all(j.piece(k).is_zero for k in range(4))

    def test_closure_invariant(self):
        rng = random.Random(0)
        ring = segre_ring(2, 2)
        for _ in range(5):
            gens = []
            for _ in range(2):
                u = (rng.randint(0, 1), rng.randint(0, 1))
                coords = tuple(
                    Fraction(rng.randint(-3, 3)) for _ in range(dim_piece(ring, u))
                )
                gens.append(PieceElement(ring, u, coords))
            assert is_ideal_closed(expand(gens, ring, 3))

    def test_generator_beyond_bound_warns(self):
        g = PieceElement.from_terms(V2, 3, {(3, 0): 1})
        with pytest.warns(UserWarning):
            j = expand([g], V2, 2)
        assert all(j.piece(k).is_zero for k in range(3))

    def test_negative_bound_refused_before_any_generator(self):
        read = []

        def generators():
            for g in (PieceElement.from_terms(V2, 1, {(1, 0): 1}),
                      PieceElement.from_terms(V2, 2, {(0, 2): 1})):
                read.append(g)
                yield g

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="negative truncation bound -1"):
                expand(generators(), V2, -1)
        assert read == []

    def test_hand_built_hole_is_not_closed(self):
        j = principal_ideal({(1, 0): 1}, V2, 1, 3)
        broken = j.with_piece(2, Subspace.zero(dim_piece(V2, 2)))
        assert not is_ideal_closed(broken)


class TestHilbertFunction:
    def test_zero_ideal(self):
        j = zero_ideal(V2, 3)
        assert [hilbert_function(j, k) for k in range(4)] == [1, 2, 3, 4]

    def test_diagonal_ideal_n2_d3(self):
        j = diagonal_ideal(2, 3, 3)
        assert hilbert_function(j, (1, 1, 1)) == 4  # dim V_3

    def test_beyond_bound_raises(self):
        j = zero_ideal(V2, 2)
        with pytest.raises(ValueError):
            hilbert_function(j, 3)

    def test_generic_hf(self):
        x = segre_ring(2, 3)
        assert generic_hf(4, x, (1, 1, 0)) == 4
        assert generic_hf(4, x, (1, 1, 1)) == 4
        assert generic_hf(0, x, (1, 1, 1)) == 0
        with pytest.raises(ValueError):
            generic_hf(-1, x, (1, 0, 0))

    @pytest.mark.parametrize("ring,r", [(V2, 3), (V3, 5), (segre_ring(2, 2), 3),
                                        (segre_ring(2, 3), 4)])
    def test_first_non_generic_none_on_general_points(self, ring, r):
        z = very_general_points(ring, r, 3, random.Random(19))
        assert first_non_generic(point_ideal(z, 3), r) is None

    def test_first_non_generic_on_zero_ideal(self):
        # the zero ideal has HF dim V_k = 1, 2, 3, 4, 5 against min(3, dim V_k)
        assert first_non_generic(zero_ideal(V2, 4), 3) == 3
        # (1, 1, 0) is the first degree, in enumeration order, with dim S_u = 4 > 3
        assert first_non_generic(zero_ideal(segre_ring(2, 3), 3), 3) == (1, 1, 0)
        assert first_non_generic(zero_ideal(segre_ring(2, 3), 3), 8) is None

    @pytest.mark.parametrize("k", [3, 4])
    def test_first_non_generic_on_a_replaced_piece(self, k):
        j = point_ideal(very_general_points(V2, 3, 4, random.Random(20)), 4)
        assert first_non_generic(j, 3) is None
        broken = j.with_piece(k, Subspace.zero(dim_piece(V2, k)))
        assert first_non_generic(broken, 3) == k

    def test_first_non_generic_on_a_replaced_segre_piece(self):
        from borderapolar.transfer import upsilon

        z = very_general_points(V2, 3, 3, random.Random(21))
        lifted = upsilon(point_ideal(z, 3), 3, 3)
        assert first_non_generic(lifted, 3) is None
        u = (2, 1, 0)
        broken = lifted.with_piece(u, Subspace.zero(dim_piece(lifted.ring, u)))
        assert first_non_generic(broken, 3) == u


class TestPointIdeal:
    def test_single_coordinate_point(self):
        z = PointSet(V2, ((1, 0),))
        j = point_ideal(z, 3)
        # degree 2: forms vanishing at (1:0) are spanned by b1b2 and b2^2
        assert j.piece(2).basis == ((0, 1, 0), (0, 0, 1))
        assert j.piece(2).dim == 2

    def test_three_general_points_hf(self):
        rng = random.Random(12)
        z = very_general_points(V2, 3, 4, rng)
        j = point_ideal(z, 4)
        assert [hilbert_function(j, k) for k in range(5)] == [1, 2, 3, 3, 3]

    def test_two_general_points_degree_three(self):
        rng = random.Random(17)
        z = very_general_points(V2, 2, 3, rng)
        assert hilbert_function(point_ideal(z, 3), 3) == 2

    def test_distinctness_enforced(self):
        with pytest.raises(ValueError):
            PointSet(V2, ((1, 2), (2, 4)))  # projectively equal

    @staticmethod
    def first_duplicate_reference(ring, points, field):
        """The first pair of positions, in order, whose points are equal, as
        the pairs were once compared: factor by factor, supports first and
        then every 2x2 minor, in field elements."""
        def same(a, b):
            a, b = [field.of(x) for x in a], [field.of(x) for x in b]
            return (all(bool(x) == bool(y) for x, y in zip(a, b))
                    and all(x1 * y2 == x2 * y1 for (x1, y1), (x2, y2)
                            in itertools.combinations(zip(a, b), 2)))

        for a, b in itertools.combinations(range(len(points)), 2):
            pairs = zip(points[a], points[b]) if ring.is_multigraded else [(points[a], points[b])]
            if all(same(f, g) for f, g in pairs):
                return a, b
        return None

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    def test_duplicates_are_named_by_their_first_pair(self, field):
        """Duplicates are found on each point's normal form; the pair named
        is the first in the order of positions, as pairwise comparison names
        it, with the same message."""
        half, S2 = Fraction(1, 2), segre_ring(2, 2)
        cases = [
            (V2, ((1, 2), (3, 4), (-2, -4))),  # a negative multiple
            (V2, ((1, 0), (0, 1), (0, 3), (5, 0))),  # (0, 3) comes before (1, 2)
            (V2, ((1, 2), (1, 2 + GF.p))),  # one point mod p, two over Q
            (V3, ((1, 2, 0), (half, 1, 0), (0, 0, 7))),
            (S2, (((1, 2), (1, 1)), ((-1, -2), (2, 3)), ((2, 4), (-3, -3)))),
            (S2, (((1, 2), (1, 1)), ((1, 2), (1, -1)))),  # one factor agrees: distinct
        ]
        rng = random.Random(37)
        for ring in (V2, S2):
            for _ in range(200):
                def coords():
                    return tuple(rng.choice((0, 1, -1, 2, half)) for _ in range(2))
                points = []
                while len(points) < 5:
                    p = (coords(), coords()) if ring.is_multigraded else coords()
                    if all(any(f) for f in (p if ring.is_multigraded else (p,))):
                        points.append(p)
                cases.append((ring, tuple(points)))
        named = 0
        for ring, points in cases:
            want = self.first_duplicate_reference(ring, points, field)
            if want is None:
                assert PointSet(ring, points, field=field).count == len(points)
                continue
            named += 1
            with pytest.raises(ValueError) as err:
                PointSet(ring, points, field=field)
            assert str(err.value) == f"duplicate points at positions {want[0]} and {want[1]}"
        assert 50 < named < len(cases) - 50

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            PointSet(segre_ring(2, 2), (((0, 0), (1, 1)),))

    def test_hf_monotone_toward_r(self):
        rng = random.Random(13)
        for r in (2, 4, 6):
            z = very_general_points(V3, r, 3, rng)
            j = point_ideal(z, 3)
            vals = [hilbert_function(j, k) for k in range(4)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
            assert vals[-1] <= r

    def test_hf_monotone_per_coordinate_direction(self):
        rng = random.Random(18)
        ring = segre_ring(2, 3)
        z = very_general_points(ring, 3, 3, rng)
        j = point_ideal(z, 3)
        for u in degrees_up_to(ring, 2):
            here = hilbert_function(j, u)
            assert here <= 3
            for i in range(3):
                up = tuple(x + 1 if t == i else x for t, x in enumerate(u))
                assert here <= hilbert_function(j, up)

    def test_very_general_matches_generic_hf(self):
        rng = random.Random(14)
        for ring, r in ((V2, 3), (V3, 5), (segre_ring(2, 2), 3), (segre_ring(3, 3), 6)):
            bound = 3
            z = very_general_points(ring, r, bound, rng)
            j = point_ideal(z, bound)
            for u in degrees_up_to(ring, bound):
                assert hilbert_function(j, u) == generic_hf(r, ring, u)

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    @pytest.mark.parametrize("n, d, r, bound", [(3, 3, 5, 4), (2, 4, 3, 4)])
    def test_diagonal_points_reduce_each_distinct_matrix_once(self, eliminations, field,
                                                              n, d, r, bound):
        # diagonal points have one factor class, so the call reduces the
        # evaluation rows of the collapsed points once per total degree, on
        # dim V_k columns, and then pulls each span back along the pi-fibres,
        # whose sections increase, with no elimination: 5 against 35 and 70
        # degrees, and no kernel in any fibre order
        z = very_general_points(veronese_ring(n), r, bound, random.Random(21))
        zs = diagonal_points(PointSet(z.ring, z.points, field=field), d)
        eliminations.clear()
        j = point_ideal(zs, bound)
        assert len(eliminations) == bound + 1 < len(j.degrees())
        assert all(j.pieces[u].piece == (zs.ring, u) for u in j.degrees())
        dims = [dim_piece(veronese_ring(n), k) for k in range(bound + 1)]
        assert eliminations == [(r, dim) for dim in dims]
        assert len({repr(rows) for rows in eliminations.rows}) == bound + 1

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    def test_one_call_never_reduces_a_matrix_twice(self, field, eliminations):
        cases = []
        for n, r, bound in ((2, 3, 4), (3, 5, 4), (4, 6, 3)):
            z = very_general_points(veronese_ring(n), r, bound, random.Random(40 + n))
            cases.append((diagonal_points(PointSet(z.ring, z.points, field=field), 3), bound))
        z = very_general_points(segre_ring(2, 2), 4, 3, random.Random(43))
        # a Segre point set whose factor 0 repeats as factor 2
        cases.append((PointSet(segre_ring(2, 3), tuple((p[0], p[1], p[0]) for p in z.points),
                               field=field), 3))
        for zs, bound in cases:
            eliminations.clear()
            j = point_ideal(zs, bound)
            handed = [(ncols, repr(rows)) for (_, ncols), rows in zip(eliminations,
                                                                     eliminations.rows)]
            assert handed and len(set(handed)) == len(handed)
            assert len(handed) < len(j.degrees())
            want = point_ideal_reference(zs, bound)
            assert all(repr(j.pieces[u].sparse) == repr(want[u].sparse) for u in j.degrees())

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    def test_distinct_factors_reduce_once_per_degree(self, eliminations, field):
        for ring, r in ((segre_ring(3, 3), 5), (V3, 5)):
            z = very_general_points(ring, r, 4, random.Random(22))
            eliminations.clear()
            j = point_ideal(PointSet(ring, z.points, field=field), 4)
            assert len(eliminations) == len(j.degrees())
            assert eliminations == [(r, dim_piece(ring, u)) for u in j.degrees()]

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    def test_matches_unmerged_reference(self, field):
        # `point_ideal_reference` runs `kernel` on every column of every degree
        cases = []
        for n, r, bound, d in ((2, 3, 4, 2), (3, 5, 4, 3), (2, 3, 4, 4)):
            z = very_general_points(veronese_ring(n), r, bound, random.Random(30 + d))
            zs = PointSet(z.ring, z.points, field=field)
            cases += [(zs, bound), (diagonal_points(zs, d), bound)]
        rng = random.Random(31)
        z = very_general_points(segre_ring(2, 2), 4, 3, rng)
        # only some factor columns repeat: factor 0 twice, factor 1 once
        cases.append((PointSet(segre_ring(2, 3), tuple((p[0], p[1], p[0]) for p in z.points),
                               field=field), 3))
        # zero coordinates, so some columns of every degree are zero
        zeros = ((1, 0, 0), (0, 2, 0), (3, -1, 0), (1, 1, 0))
        cases += [(PointSet(V3, zeros, field=field), 4),
                  (diagonal_points(PointSet(V3, zeros, field=field), 3), 3),
                  (PointSet(segre_ring(3, 2), (((1, 0, 0), (0, 2, 5)), ((0, 1, 0), (0, 0, 3))),
                            field=field), 3)]
        # a single point, where every column of a diagonal degree is equal
        single = PointSet(V3, ((2, -3, 5),), field=field)
        cases += [(single, 3), (diagonal_points(single, 3), 3)]
        # more points than dim S_u in the low degrees
        many = very_general_points(V2, 7, 3, random.Random(32))
        many = PointSet(V2, many.points, field=field)
        cases += [(many, 3), (diagonal_points(many, 3), 3)]
        cases.append((scaled_factor_points(field), 3))
        # d = 4: factor i of each point is factor pattern[i] of a general
        # point on segre_ring(3, #classes), so the factors fall in classes
        for pattern in ((0, 1, 0, 1), (0, 0, 1, 1), (0, 1, 1, 0), (0, 1, 2, 0)):
            z = very_general_points(segre_ring(3, max(pattern) + 1), 3, 3, random.Random(35))
            cases.append((PointSet(segre_ring(3, 4), tuple(tuple(p[c] for c in pattern)
                                                          for p in z.points), field=field), 3))
        for points, b in cases:
            got, want = point_ideal(points, b), point_ideal_reference(points, b)
            for u in got.degrees():
                assert got.pieces[u].piece == (points.ring, u)
                assert repr(got.pieces[u].sparse) == repr(want[u].sparse), (points, u)

    def test_scaled_factors_are_not_merged_over_gf(self, eliminations):
        # over GF(p) the factors p, 2p and -p/3 have different residues, so
        # there are three classes and each of the 20 degrees is reduced; over
        # Q the first two are one class, so the 10 class degrees of
        # segre_ring(3, 2) up to 3 are reduced, and each is pulled back from
        # its annihilator with no elimination: 10
        for field, count in ((GF, 20), (QQ, 10)):
            points = scaled_factor_points(field)
            eliminations.clear()
            j = point_ideal(points, 3)
            assert len(eliminations) == count <= len(j.degrees())

    def test_diagonal_points_never_read_the_pi_fibre_preimage(self, monkeypatch):
        # upsilon(I_Z) is checked against the ideal of the diagonal points, so
        # that ideal must not be built by the preimage that upsilon uses
        z = very_general_points(V3, 5, 4, random.Random(34))
        zs = diagonal_points(z, 3)
        want = point_ideal(zs, 4)

        def refuse(*args, **kwargs):
            raise AssertionError("the pi-fibre preimage was read")

        monkeypatch.setattr(TruncatedIdeal, "pi_preimage", refuse)
        monkeypatch.setattr(ideals._Preimages, "__getitem__", refuse)
        got = point_ideal(zs, 4)
        assert got.veronese is None
        assert all(repr(got.pieces[u].sparse) == repr(want.pieces[u].sparse)
                   for u in got.degrees())
        assert ideal_digest(got) == ideal_digest(want)

    def test_diagonal_points(self):
        z = PointSet(V2, ((1, 0), (1, 1)))
        dz = diagonal_points(z, 3)
        assert dz.ring == segre_ring(2, 3)
        assert dz.points[0] == ((1, 0), (1, 0), (1, 0))


class TestDiagonalPoints:
    """`diagonal_points` builds the Segre set from the checked Veronese set's
    normalized points and integer coordinates, as the checked construction
    would from the same coordinates."""

    # rational, negative and non-primitive coordinates, and a string
    POINTS = ((2, 4, 6), (-1, 0, 3), (Fraction(1, 2), Fraction(-3, 4), 5), (0, 0, -7),
              (Fraction(2, 3), 4, Fraction(-1, 6)), ("3/5", -9, 12))

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    @pytest.mark.parametrize("d", range(1, 5))
    def test_equals_the_checked_construction(self, field, d):
        got = diagonal_points(PointSet(V3, self.POINTS, field=field), d)
        want = PointSet(segre_ring(3, d), tuple((p,) * d for p in self.POINTS), field)
        assert got.ring == want.ring and got.field == want.field
        assert got.points == want.points and repr(got.points) == repr(want.points)
        assert got._integers == want._integers
        assert got == want and hash(got) == hash(want)
        assert ideal_digest(point_ideal(got, 2)) == ideal_digest(point_ideal(want, 2))

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    def test_converts_each_point_once(self, field, monkeypatch):
        """At most r conversions for r points, made once for the Veronese set
        and read by every diagonal set after it, not one per factor copy."""
        z = PointSet(V3, self.POINTS, field=field)
        calls = []
        for name in ("of", "to_ints"):
            real = getattr(type(field), name)

            def spy(self, *args, real=real, name=name):
                calls.append(name)
                return real(self, *args)

            monkeypatch.setattr(type(field), name, spy)
        first = diagonal_points(z, 4)
        assert first._integers and len(calls) <= len(self.POINTS)
        calls.clear()
        second = diagonal_points(z, 3)
        assert second._integers and second.count == first.count == len(self.POINTS)
        assert calls == []


KEPT_KINDS = ("zero", "full", "monomial", "random")


def kept_ideal(n: int, d: int, bound: int, kind: str, field, rng) -> TruncatedIdeal:
    """An ideal kept by Veronese pieces W_k of one kind: zero, full, spanned
    by monomials, or random, which need not be an ideal's pieces, saturated
    or not."""
    ring_v, w = veronese_ring(n), {}
    for k in range(bound + 1):
        dim = dim_piece(ring_v, k)
        if kind in ("zero", "full"):
            w[k] = (Subspace.zero if kind == "zero" else Subspace.full)(dim, field=field)
            continue
        if kind == "monomial":
            # the constraint columns of the monomials in W are all zero
            rows = [[int(c == m) for c in range(dim)]
                    for m in rng.sample(range(dim), dim // 2 + 1)]
        else:
            rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
                    for _ in range(rng.randint(1, dim))]
        w[k] = Subspace.from_rows(dim, sparse_rows(rows, field), field=field)
    return TruncatedIdeal.pi_preimage(segre_ring(n, d), bound, w)


class TestKeptPieces:
    """A kept ideal's Segre piece pi^{-1}(W_|u|) is W pulled back along the
    pi-fibres, written from W's RREF rows: it is checked against the dense
    preimage of `tests/support.py`."""

    SHAPES = ((2, 3, 3), (3, 2, 3), (3, 3, 3))

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    @pytest.mark.parametrize("kind", KEPT_KINDS)
    def test_matches_preimage_reference(self, field, kind):
        rng = random.Random(f"kept/{kind}")
        for n, d, bound in self.SHAPES:
            j = kept_ideal(n, d, bound, kind, field, rng)
            for u in j.degrees():
                got = j.pieces[u]
                want = preimage_reference(pi_matrix_reference(n, d, u, field),
                                          j.veronese[sum(u)])
                assert_canonical(got)
                assert got.piece == (j.ring, u)
                assert repr(got.basis) == repr(want.basis), (n, d, kind, u)

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    def test_equal_degrees_read_the_listed_piece_from_either_holding(self, field):
        """A degree equal to a listed one, as (2.0, 1, 0) or (True, 1, 0) is,
        reads the piece at the listed degree, tagged with it, from an ideal
        kept by its Veronese pieces as from one that stores its pieces; a
        degree off the list, or with an entry that is not integral, raises
        KeyError from both, and a list TypeError, as a dict's key does."""
        zs = PointSet(V3, ((1, 2, 3), (1, -1, 0), (2, 0, 5)), field)
        kept = upsilon(point_ideal(zs, 4), 3)
        stored = point_ideal(diagonal_points(zs, 3), 4)
        assert kept.veronese is not None and stored.veronese is None
        for j in (kept, stored):
            for alias, u in (((2.0, 1, 0), (2, 1, 0)), ((True, 1, 0), (1, 1, 0)),
                             ((0, 0.0, 4), (0, 0, 4))):
                assert alias in j.pieces
                got = j.pieces[alias]
                assert got.piece == (j.ring, u) and all(type(x) is int for x in got.piece[1])
                assert got == j.pieces[u] and got.field == field
            for off in ((5, 0, 0), (1, 1), (0, 0, 0, 0), (2.5, 1, 0), (-1, 1, 0), (1, "1", 0),
                        (1.0, float("nan"), 0), 3, "abc"):
                assert off not in j.pieces
                with pytest.raises(KeyError):
                    j.pieces[off]
            for unhashable in ([2, 1, 0], ([2], 1, 0)):
                with pytest.raises(TypeError):
                    unhashable in j.pieces
                with pytest.raises(TypeError):
                    j.pieces[unhashable]

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    def test_repeated_columns_merge_across_fibres(self, field, eliminations):
        """With W spanned by monomials, each RREF row of W is a unit row, led
        by its only column in every order, so W's own rows serve every fibre
        order and no degree eliminates, though most orders are not the
        identity."""
        j = kept_ideal(3, 3, 3, "monomial", field, random.Random(61))
        assert any(order != tuple(sorted(order))
                   for order in (fibre_order(3, 3, u) for u in j.degrees()))
        eliminations.clear()
        for u in j.degrees():
            j.pieces[u]
        assert eliminations == []

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    @pytest.mark.parametrize("kind", KEPT_KINDS)
    def test_identity_order_and_zero_do_no_elimination(self, field, kind, eliminations,
                                                        monkeypatch):
        """A degree whose fibre order is the identity reads the kernel off W
        (every degree when n = 2), even when W's columns repeat, with no
        re-sorting: W's own stored rows are its RREF in that order.  W = 0 is
        `ir_piece` and asks W for no order, and W = V_k eliminates at no
        degree, as its unit rows serve every order."""
        read = []  # for each order asked of W: whether W handed out its stored rows
        real = Subspace._rows_in

        def spy(w, at):
            rows = real(w, at)
            read.append(rows is w.sparse)
            return rows

        monkeypatch.setattr(Subspace, "_rows_in", spy)
        rng = random.Random(f"identity/{kind}")
        for n, d, bound in self.SHAPES:
            j = kept_ideal(n, d, bound, kind, field, rng)
            orders = {u: fibre_order(n, d, u) for u in j.degrees()}
            identity = [u for u, order in orders.items() if order == tuple(sorted(order))]
            read.clear()
            eliminations.clear()
            for u in identity:
                j.pieces[u]
            assert eliminations == [], (n, d, kind)
            assert all(read), (n, d, kind)
            if kind in ("zero", "full"):
                for u in j.degrees():
                    j.pieces[u]
                assert eliminations == [], (n, d, kind)
            if kind == "zero":
                assert read == [], (n, d)


def positions(order) -> list:
    """at[m]: the position of column m in `order`."""
    at = [0] * len(order)
    for p, m in enumerate(order):
        at[m] = p
    return at


def class_patterns(d: int) -> list:
    """Every way to put d factors in classes, numbered in order of first
    appearance."""
    patterns = [()]
    for _ in range(d):
        patterns = [p + (c,) for p in patterns for c in range(max(p, default=-1) + 2)]
    return patterns


class TestPullback:
    """The parts of `ideals._pullback`: `Subspace._rows_in`, which takes an
    RREF to another column order, with no arithmetic when it can, and keeps
    it, and `_merge_table`, the index map of a point set's factor classes."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([QQ, GF]), st.integers(1, 6).flatmap(lambda c: st.tuples(
        st.lists(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3)), min_size=c, max_size=c),
                 max_size=c),
        st.permutations(range(c)))))
    @example(QQ, ([[1, 0, 1], [0, 1, 1]], [2, 0, 1]))  # the re-sorted rows are not the RREF
    @example(GF, ([[1, 0, 1], [0, 1, 1]], [2, 0, 1]))
    @example(QQ, ([[1, 1, 0]], [1, 0, 2]))  # refused, though the re-sorted row is the RREF
    @example(GF, ([[1, 0, 0, 2], [0, 0, 1, 3]], [2, 0, 3, 1]))  # each lead first: kept
    def test_reorder_rule_matches_the_kernel_of_the_moved_constraints(self, field, case):
        """K's rows in a new order are its stored rows re-sorted, with no
        elimination, exactly when each row's leading column comes first in
        that order, and either way they are the `kernel` of K's constraints
        with their columns moved; the order is made once."""
        rows, order = case
        k = Subspace.from_rows(len(order), sparse_rows(rows, field), field=field)
        at = tuple(positions(order))
        moved = [[(at[m], x) for m, x in row] for row in k.constraints()]
        want = tuple(tuple((order[p], x) for p, x in row)
                     for row in kernel(len(order), moved, field=field).sparse)
        seen = []
        real = linalg.rref_with_pivots
        with mock.patch.object(linalg, "rref_with_pivots", lambda m: seen.append(m) or real(m)):
            got = k._rows_in(at)
            again = k._rows_in(at)
        kept = all(at[row[0][0]] == min(at[m] for m, _ in row) for row in k.sparse)
        assert (seen == []) == kept
        assert got == want and again is got

    def test_one_class_is_the_pi_fibre_table_and_one_per_factor_the_identity(self):
        for n in (1, 2, 3):
            for d in range(1, 5):
                ring = segre_ring(n, d)
                for u in degrees_up_to(ring, 4):
                    kappa, fib = ideals._merge_table(n, u, (0,) * d)
                    assert kappa == (sum(u),) and fib is pi_fibres(n, d, u)
                    kappa, fib = ideals._merge_table(n, u, tuple(range(d)))
                    assert kappa == u and fib.f == tuple(range(dim_piece(ring, u)))
                    assert fib.section == fib.top == fib.order == fib.at == fib.f

    def test_fibre_tables_hold_their_pullback_orders(self):
        """Each table's `top`, `order`, `at` and `rising`, made once with it,
        are the last column of each fibre, the targets sorted by it, their
        positions there and whether `section` increases, for pi and for
        every merge of factor classes."""
        for n in (1, 2, 3):
            for d in range(1, 4):
                for classes in class_patterns(d):
                    for u in degrees_up_to(segre_ring(n, d), 3):
                        fib = ideals._merge_table(n, u, classes)[1]
                        targets = range(len(fib.section))
                        assert fib.top == tuple(max(c for c, m in enumerate(fib.f) if m == t)
                                                for t in targets)
                        assert fib.section == tuple(fib.f.index(t) for t in targets)
                        assert fib.order == tuple(sorted(targets, key=fib.top.__getitem__))
                        assert all(fib.order[fib.at[t]] == t for t in targets)
                        # a pi-fibre table (one class) always rises: its
                        # annihilator rows pull back with no elimination
                        assert fib.rising == (list(fib.section) == sorted(fib.section))
                        assert fib.rising or any(classes)

    def test_merge_table_multiplies_within_each_class(self):
        for n in (2, 3):
            for d in range(1, 5):
                ring = segre_ring(n, d)
                for classes in class_patterns(d):
                    merged = segre_ring(n, max(classes) + 1)
                    for u in degrees_up_to(ring, 3):
                        kappa, fib = ideals._merge_table(n, u, classes)
                        f = fib.f
                        assert kappa == tuple(sum(x for x, k in zip(u, classes) if k == c)
                                              for c in range(merged.d))
                        want = []
                        for mono in monomials(ring, u):
                            rows = [(0,) * n] * merged.d
                            for row, k in zip(mono, classes):
                                rows[k] = tuple(a + b for a, b in zip(rows[k], row))
                            want.append(rank_monomial(merged, rows))
                        assert f == tuple(want), (n, classes, u)


class TestSaturation:
    def test_point_ideals_saturated(self):
        rng = random.Random(15)
        z = very_general_points(V2, 2, 4, rng)
        j = point_ideal(z, 4)
        for k in range(4):
            assert is_saturated_degreewise(j, k)
        zx = very_general_points(segre_ring(2, 2), 2, 4, rng)
        jx = point_ideal(zx, 4)
        for u in degrees_up_to(jx.ring, 2):
            assert is_saturated_degreewise(jx, u)

    def test_irrelevant_ideal_not_saturated_at_zero(self):
        ring = segre_ring(2, 2)
        gens = []
        from borderapolar.grading import monomials

        for mono in monomials(ring, (1, 1)):
            gens.append(PieceElement.from_terms(ring, (1, 1), {mono: 1}))
        bx = expand(gens, ring, 3)
        assert not is_saturated_degreewise(bx, (0, 0))

    def test_zero_ideal_saturated(self):
        j = zero_ideal(V2, 3)
        assert is_saturated_degreewise(j, 1)

    def test_bound_guard(self):
        j = zero_ideal(segre_ring(2, 3), 3)
        with pytest.raises(ValueError):
            is_saturated_degreewise(j, (1, 0, 0))


class TestMinGenerators:
    def test_principal_at_generator_degree(self):
        j = principal_ideal({(1, 1): 1}, V2, 2, 4)
        assert min_generators_in_degree(j, 2) == 1

    def test_principal_above_generator_degree(self):
        j = principal_ideal({(1, 1): 1}, V2, 2, 4)
        assert min_generators_in_degree(j, 3) == 0
        assert min_generators_in_degree(j, 1) == 0

    def test_random_generators_counted(self):
        rng = random.Random(16)
        for _ in range(5):
            gens = []
            degs = sorted(rng.sample(range(1, 4), k=2))
            for deg in degs:
                coords = [Fraction(rng.randint(-3, 3)) for _ in range(dim_piece(V3, deg))]
                if not any(coords):
                    coords[0] = Fraction(1)
                gens.append(PieceElement(V3, deg, tuple(coords)))
            j = expand(gens, V3, 4)
            # oracle: rank bookkeeping during expansion
            for deg in range(4):
                independent = 0
                from_below = expand(
                    [g for g in gens if g.degree < deg], V3, max(deg, 1)
                )
                below = from_below.piece(deg) if deg <= from_below.bound else None
                new_rows = [list(g.coords) for g in gens if g.degree == deg]
                if below is not None:
                    merged = Subspace.from_rows(
                        dim_piece(V3, deg), sparse_rows(list(below.basis) + new_rows)
                    )
                    independent = merged.dim - below.dim
                assert min_generators_in_degree(j, deg) == independent

    def test_diagonal_tensor_annihilator_generators(self):
        # cross-check with the annihilator of the Fermat cubic
        from borderapolar.apolarity import depolarize
        from borderapolar.bounds import (
            min_generators_degree_one,
            min_generators_sym_in_degree,
        )

        f = diagonal_tensor(2, 3)
        assert min_generators_degree_one(f) == 1
        p = depolarize(f)  # y1^3 + y2^3 up to scaling
        assert min_generators_sym_in_degree(p, 3) == 1


def _annihilator_cases() -> list:
    """(ring, u, i) with u_i = 0 and u_i > 0, on S and on V."""
    s23, s32, s14 = segre_ring(2, 3), segre_ring(3, 2), segre_ring(1, 4)
    cases = [(s23, (0, 0, 0), 1), (s23, (1, 0, 0), 1), (s23, (1, 1, 0), 0), (s23, (2, 1, 0), 0),
             (s23, (1, 1, 1), 2), (s23, (0, 2, 1), 1), (s32, (1, 1), 0), (s32, (2, 0), 1),
             (s32, (0, 2), 1), (s14, (1, 0, 1, 0), 0)]
    return cases + [(ring, k, 0) for ring in (V2, V3) for k in range(4)]


class TestAnnihilatorFromBelow:
    """(S_{e_i} J_u)^perp grown on the annihilator side, against the perp of
    the span `span_from_below` makes on the primal side."""

    @pytest.mark.parametrize("field", [QQ, GF], ids=["QQ", "GFp"])
    def test_equals_the_perp_of_the_primal_span(self, field):
        rng = random.Random(74)
        kinds = set()
        for ring, u, i in _annihilator_cases():
            dim = dim_piece(ring, u)
            up = u + 1 if isinstance(u, int) else add_degrees(u, unit_degree(ring.d, i))
            for kind in ("zero", "full", "random", "random", "random"):
                rows = ([] if kind == "zero" else [[(c, 1)] for c in range(dim)] if kind == "full"
                        else [[(c, rng.randint(-4, 4)) for c in range(dim) if rng.random() < 0.5]
                              for _ in range(rng.randint(1, dim))])
                j = Subspace.from_rows(dim, rows, field=field)
                zero = {v: Subspace.zero(dim_piece(ring, v), field=field) for v in
                        ([up - 1] if isinstance(up, int) else
                         [sub for sub in (tuple(x - (t == k) for t, x in enumerate(up))
                                          for k in range(ring.d)) if min(sub) >= 0])}
                primal = span_from_below(ring, up, {**zero, u: j}.__getitem__, field)
                got = annihilator_from_below(ring, u, i, j.constraints(), field)
                assert all(type(x) is int for row in got for _, x in row)
                perp = Subspace.from_rows(primal.ambient_dim, got, field=field)
                assert len(got) == perp.dim == primal.codim, (ring, u, i, kind)
                assert perp == Subspace.from_rows(primal.ambient_dim, primal.constraints(),
                                                  field=field), (ring, u, i, kind)
                kinds.add((kind, u[i] if isinstance(u, tuple) else u) if dim > 1 else kind)
        assert {("zero", 0), ("full", 0), ("random", 0), ("random", 1), ("random", 2)} <= kinds

    def test_one_elimination_in_n_codim_unknowns(self, eliminations):
        # n dim S_u - dim S_{u+e_i} equations at most, in n r unknowns; none
        # for a full piece
        ring = segre_ring(3, 3)
        j = Subspace.from_rows(dim_piece(ring, (2, 1, 0)), [[(0, 1), (5, 2)], [(7, 1)]])
        eliminations.clear()
        got = annihilator_from_below(ring, (2, 1, 0), 0, j.constraints())
        codim = j.codim
        (rows, cols), = eliminations
        assert cols == 3 * codim
        assert rows <= 3 * dim_piece(ring, (2, 1, 0)) - dim_piece(ring, (3, 1, 0))
        assert len(got) == dim_piece(ring, (3, 1, 0)) - 3 * j.dim  # the 6 multiples are independent
        eliminations.clear()
        assert annihilator_from_below(ring, (2, 1, 0), 0, ()) == () and eliminations == []


class TestGenericity:
    @pytest.mark.parametrize("ring, r, bound, coord_bound", [
        (V3, 4, 2, 1), (V3, 5, 3, 1), (veronese_ring(2), 3, 2, 1), (segre_ring(2, 2), 3, 2, 1),
        (segre_ring(3, 2), 4, 2, 1), (V3, 6, 3, 100), (segre_ring(2, 3), 3, 3, 100),
    ], ids=repr)
    def test_draws_warnings_and_failures_match_the_kernel_check(self, ring, r, bound,
                                                                 coord_bound, monkeypatch):
        """Reading the Hilbert function as ranks of evaluation rows keeps the
        points drawn, the rng state after, the warnings and GenericityError
        of checking the codimension of every evaluation kernel, and reduces
        no kernel.  Coordinates in [-1, 1] give collinear and repeated draws."""
        def refuse(*args, **kwargs):
            raise AssertionError("the genericity check reduced a kernel")

        for seed in range(12):
            outcomes = []
            for draw in (very_general_points, very_general_points_reference):
                rng = random.Random(seed)
                with warnings.catch_warnings(record=True) as seen, monkeypatch.context() as patch:
                    warnings.simplefilter("always")
                    if draw is very_general_points:
                        patch.setattr(ideals, "kernel", refuse)
                    try:
                        got = draw(ring, r, bound, rng, coord_bound).points
                    except GenericityError as exc:
                        got = str(exc)
                outcomes.append((got, [str(w.message) for w in seen], rng.getstate()))
            assert outcomes[0] == outcomes[1], seed

    def test_failure_after_retry(self):
        class RiggedRandom(random.Random):
            def randint(self, a, b):  # collinear draws: all points equal
                return 1

        with pytest.raises(GenericityError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                very_general_points(V2, 3, 2, RiggedRandom())

    @pytest.mark.parametrize("r", [0, -1])
    def test_no_points_refused_up_front(self, r):
        class UnusedRandom(random.Random):
            def randint(self, a, b):
                raise AssertionError("drew a coordinate for no points")

        with pytest.raises(ValueError, match=rf"^need at least one point, got r={r}$"):
            very_general_points(veronese_ring(2), r, 3, UnusedRandom())
