"""Tests for truncated ideals, point ideals, Hilbert functions, and saturation."""

import itertools
import random
import warnings
from fractions import Fraction

import pytest

from borderapolar.diagonal_maps import ir_generators
from borderapolar import grading, ideals
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
        stacked = []

        def recording(ncols, rows, piece=None, field=QQ):
            stacked.append(rows)
            return kernel(ncols, rows, piece, field)

        monkeypatch.setattr(grading, "kernel", recording)
        for ring, u, v, upper in self.cases(field):
            stacked.clear()
            got = colon(ring, u, v, upper.constraints(), field=upper.field)
            want = colon_reference(ring, u, v, upper)
            assert got == want and got.field == want.field == field, (ring, u, v)
            assert repr(got.sparse) == repr(want.sparse), (ring, u, v)
            rows = colon_rows_reference(ring, u, v, upper)
            assert stacked == ([rows] if rows else []), (ring, u, v)
        full = Subspace.full(dim_piece(V3, 3), field=field)
        assert colon(V3, 1, 2, full.constraints(), field=field) == Subspace.full(
            dim_piece(V3, 1), field=field)


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
    @pytest.mark.parametrize("n, d, r, bound, count", [(3, 3, 5, 4, 15), (2, 4, 3, 4, 5)])
    def test_diagonal_points_reduce_each_distinct_matrix_once(self, eliminations, field,
                                                              n, d, r, bound, count):
        # at diagonal points the columns of S_u with one image under pi are
        # equal, so the distinct columns of the matrix at u are the monomials
        # of V_|u|, in the order of their last columns in S_u (the pi-fibre
        # order): 15 pairs (|u|, order) for n = 3, one per sequence of nonzero
        # parts of u, and 5 for n = 2, where every order is the identity,
        # against 35 and 70 degrees
        z = very_general_points(veronese_ring(n), r, bound, random.Random(21))
        zs = diagonal_points(PointSet(z.ring, z.points, field=field), d)
        eliminations.clear()
        j = point_ideal(zs, bound)
        assert len(eliminations) == count < len(j.degrees())
        assert all(j.pieces[u].piece == (zs.ring, u) for u in j.degrees())
        # each distinct matrix of distinct columns is reduced once, the first
        # time a degree has it
        merged = dict.fromkeys((grading.degree_total(u), fibre_order(n, d, u))
                               for u in j.degrees())
        assert eliminations == [(r, dim_piece(veronese_ring(n), k)) for k, _ in merged]

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    def test_one_call_never_reduces_a_matrix_twice(self, field, monkeypatch):
        cases = []
        for n, r, bound in ((2, 3, 4), (3, 5, 4), (4, 6, 3)):
            z = very_general_points(veronese_ring(n), r, bound, random.Random(40 + n))
            cases.append((diagonal_points(PointSet(z.ring, z.points, field=field), 3), bound))
        z = very_general_points(segre_ring(2, 2), 4, 3, random.Random(43))
        # a Segre point set whose factor 0 repeats as factor 2
        cases.append((PointSet(segre_ring(2, 3), tuple((p[0], p[1], p[0]) for p in z.points),
                               field=field), 3))
        handed = []

        def spy(ncols, rows, piece=None, field=QQ):
            rows = tuple(tuple(row) for row in rows)
            handed.append((ncols, rows))
            return kernel(ncols, rows, piece, field)

        monkeypatch.setattr(ideals, "kernel", spy)
        for zs, bound in cases:
            handed.clear()
            j = point_ideal(zs, bound)
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
        for points, b in cases:
            got, want = point_ideal(points, b), point_ideal_reference(points, b)
            for u in got.degrees():
                assert got.pieces[u].piece == (points.ring, u)
                assert repr(got.pieces[u].sparse) == repr(want[u].sparse), (points, u)

    def test_scaled_factors_are_not_merged_over_gf(self, eliminations):
        # over GF(p) the factors p, 2p and -p/3 have different residues, so
        # each of the 20 degrees has its own matrix, and no two have the same
        # distinct columns; over Q the first two are one factor, so the
        # nonzero (u_i, factor) pairs of the 20 degrees take 14 values, and as
        # (-p)^2 = p^2 the matrices at (0, 0, 2) and (1, 0, 2) have the
        # distinct columns of those at (2, 0, 0) and (1, 2, 0): 12 eliminations
        for field, count in ((GF, 20), (QQ, 12)):
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
    """A kept ideal's Segre piece pi^{-1}(W_|u|) is the kernel of W's
    constraint columns taken along the pi-fibres, reduced on its distinct
    columns: it is checked against the dense preimage of `tests/support.py`."""

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
    def test_repeated_columns_merge_across_fibres(self, field, eliminations):
        """With W spanned by monomials, the zero constraint columns of its
        monomials are one column, so each matrix reduced has one column more
        than its codim W rows, fewer than dim V_k."""
        j = kept_ideal(3, 3, 3, "monomial", field, random.Random(61))
        eliminations.clear()
        for u in j.degrees():
            j.pieces[u]
        assert eliminations
        assert all(ncols == nrows + 1 for nrows, ncols in eliminations)

    @pytest.mark.parametrize("field", [QQ, GF], ids=repr)
    @pytest.mark.parametrize("kind", KEPT_KINDS)
    def test_identity_order_and_zero_do_no_elimination(self, field, kind, eliminations):
        """A degree whose fibre order is the identity reads the kernel off W
        (every degree when n = 2), even when W's columns repeat, and W = 0 is
        `ir_piece`."""
        rng = random.Random(f"identity/{kind}")
        for n, d, bound in self.SHAPES:
            j = kept_ideal(n, d, bound, kind, field, rng)
            orders = {u: fibre_order(n, d, u) for u in j.degrees()}
            identity = [u for u, order in orders.items()
                        if kind == "zero" or order == tuple(sorted(order))]
            eliminations.clear()
            for u in identity:
                j.pieces[u]
            assert eliminations == [], (n, d, kind)


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
