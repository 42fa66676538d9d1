"""Tests for pi, rho, tau, psi, the diagonal ideal, and the direct-sum split."""

import math
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from borderapolar import bounds, ideals
from borderapolar.apolarity import ann_piece, ann_sym_piece, depolarize
from borderapolar.diagonal_maps import (
    direct_sum_check,
    ir_generators,
    ir_piece,
    pi,
    pi_fibres,
    pi_image,
    psi,
    psi_image,
    rho,
    staircase_degrees,
    tau,
)
from borderapolar.grading import (
    PieceElement,
    degree_total,
    dim_piece,
    ones,
    segre_ring,
    veronese_ring,
)
from borderapolar.ideals import PointSet, degrees_up_to, expand
from borderapolar.linalg import QQ, PrimeField, Subspace, kernel
from support import (
    assert_canonical,
    compatibility_reference,
    image_dim_reference,
    image_reference,
    ir_piece_reference,
    kept_piece,
    mat_vec,
    pi_fibres_reference,
    pi_matrix_reference,
    predecessors_reference,
    preimage_reference,
    psi_matrix_reference,
    random_symmetric_tensor,
    sparse_rows,
    two_ones_degrees,
)

FIELDS = [QQ, PrimeField(2147483647)]


def random_element(ring, u, rng):
    return PieceElement(
        ring, u, tuple(Fraction(rng.randint(-5, 5)) for _ in range(dim_piece(ring, u)))
    )


class TestPi:
    def test_substitution(self):
        ring = segre_ring(2, 2)
        theta = PieceElement.from_terms(ring, (1, 1), {((1, 0), (0, 1)): 1})
        assert pi(theta).terms() == {(1, 1): 1}

    def test_kills_minor(self):
        ring = segre_ring(2, 2)
        theta = PieceElement.from_terms(
            ring, (1, 1), {((1, 0), (0, 1)): 1, ((0, 1), (1, 0)): -1}
        )
        assert pi(theta).is_zero

    def test_pure_factor_power(self):
        ring = segre_ring(2, 2)
        theta = PieceElement.from_terms(ring, (2, 0), {((2, 0), (0, 0)): 1})
        assert pi(theta).terms() == {(2, 0): 1}

    def test_wrong_kind(self):
        g = PieceElement.from_terms(veronese_ring(2), 1, {(1, 0): 1})
        with pytest.raises(ValueError):
            pi(g)


class TestRhoTauPsi:
    def test_rho_first_factor(self):
        ring = segre_ring(2, 2)
        theta = PieceElement.from_terms(ring, (2, 0), {((1, 1), (0, 0)): 1})
        assert rho(theta).terms() == {(1, 1): 1}

    def test_rho_mixed_degree_is_zero(self):
        ring = segre_ring(2, 2)
        theta = PieceElement.from_terms(ring, (1, 1), {((1, 0), (1, 0)): 1})
        assert rho(theta).is_zero

    def test_rho_equals_pi_on_first_factor_pieces(self):
        rng = random.Random(1)
        ring = segre_ring(3, 3)
        for k in range(4):
            el = random_element(ring, (k, 0, 0), rng)
            assert rho(el).coords == pi(el).coords

    def test_tau_example(self):
        g = PieceElement.from_terms(veronese_ring(2), 2, {(1, 1): 1})
        # b1*b2 -> a(1,1)*a(1,2)
        assert tau(g, 2).terms() == {((1, 1), (0, 0)): 1}

    def test_sections(self):
        rng = random.Random(2)
        ring_v = veronese_ring(2)
        for k in range(5):
            g = random_element(ring_v, k, rng)
            t = tau(g, 3)
            assert pi(t).coords == g.coords
            assert rho(t).coords == g.coords

    def test_psi_block_splitting(self):
        # u=(2,1), n=2: b1*b2^2 has sorted indices (1,2,2) -> a(1,1)a(1,2)*a(2,2)
        g = PieceElement.from_terms(veronese_ring(2), 3, {(1, 2): 1})
        el = psi((2, 1), g)
        assert el.terms() == {((1, 1), (0, 1)): 1}

    def test_psi_section_property(self):
        rng = random.Random(3)
        ring_v = veronese_ring(3)
        for u in ((1, 1), (2, 1), (0, 3), (1, 1, 1), (2, 0, 1)):
            g = random_element(ring_v, sum(u), rng)
            assert pi(psi(u, g)).coords == g.coords

    def test_psi_injective(self):
        for n, u in ((2, (2, 1)), (3, (1, 1, 1)), (2, (0, 2))):
            k = sum(u)
            assert psi_image(n, len(u), u).dim == dim_piece(veronese_ring(n), k)

    def test_psi_degree_mismatch(self):
        g = PieceElement.from_terms(veronese_ring(2), 2, {(1, 1): 1})
        with pytest.raises(ValueError):
            psi((1, 0), g)


class TestDiagonalIdeal:
    def test_single_generator(self):
        gens = ir_generators(2, 2)
        assert len(gens) == 1
        assert gens[0].terms() == {
            ((1, 0), (0, 1)): 1,
            ((0, 1), (1, 0)): -1,
        }

    def test_counts(self):
        assert len(ir_generators(2, 3)) == 3
        assert len(ir_generators(1, 4)) == 0
        assert len(ir_generators(3, 3)) == math.comb(3, 2) * math.comb(3, 2)

    def test_kernel_equals_expansion(self):
        for n, d in ((2, 2), (2, 3), (3, 2)):
            ring = segre_ring(n, d)
            expanded = expand(ir_generators(n, d), ring, 4)
            for u in degrees_up_to(ring, 4):
                assert expanded.piece(u) == ir_piece(n, d, u), (n, d, u)

    def test_codimension_formula(self):
        for n, d in ((2, 2), (2, 3), (3, 3)):
            ring = segre_ring(n, d)
            for u in degrees_up_to(ring, 5 if n == 2 else 4):
                k = sum(u)
                got = dim_piece(ring, u) - ir_piece(n, d, u).dim
                assert got == math.comb(n + k - 1, k)

    def test_degree_e1_is_zero(self):
        assert ir_piece(2, 2, (1, 0)).is_zero

    def test_two_ones_inside_annihilator(self):
        rng = random.Random(4)
        for n, d in ((2, 3), (3, 3)):
            f = random_symmetric_tensor(n, d, rng)
            for u in two_ones_degrees(d):
                assert ann_piece(f, u).contains(ir_piece(n, d, u))

    def test_degree_one_image_lemma(self):
        rng = random.Random(5)
        for n, d in ((2, 3), (2, 4), (3, 3)):
            f = random_symmetric_tensor(n, d, rng)
            lifted = pi_image(n, d, ones(d), ann_piece(f, ones(d)))
            assert lifted == ann_sym_piece(depolarize(f), d)


class TestDirectSum:
    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_direct_sum(self, n, d):
        ring = segre_ring(n, d)
        for u in degrees_up_to(ring, 5 if (n, d) != (3, 3) else 4):
            assert direct_sum_check(n, d, u), (n, d, u)
            # the closed form against the kernel it replaced
            m = pi_matrix_reference(n, d, u)
            assert ir_piece(n, d, u).basis == kernel(m.ncols, m.sparse).basis, (n, d, u)

    def test_degree_zero(self):
        assert direct_sum_check(2, 2, (0, 0))

    def test_single_factor(self):
        # d=1: I_R is zero and psi is an isomorphism
        assert ir_piece(2, 1, (3,)).is_zero
        assert direct_sum_check(2, 1, (3,))


def small_pieces():
    """Every degree u of S with n <= 3, d <= 3 and |u| <= 3."""
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            for u in degrees_up_to(segre_ring(n, d), 3):
                yield n, d, u


def sample_subspaces(dim, field, rng):
    """The zero and full subspaces and a few random ones, some rank-deficient."""
    yield Subspace.zero(dim, field=field)
    yield Subspace.full(dim, field=field)
    for count in (1, max(dim // 2, 1), dim + 1):
        rows = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(dim)]
                for _ in range(count)]
        yield Subspace.from_rows(dim, sparse_rows(rows, field), field=field)


def assert_same_subspace(got: Subspace, want: Subspace):
    assert_canonical(got)
    assert got.basis == want.basis
    assert repr(got.basis) == repr(want.basis)
    assert repr(got) == repr(want)


class TestIndexMaps:
    """The fibre-table maps against the dense 0/1 matrices they replaced."""

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_pi_image_matches_dense_reference(self, field):
        rng = random.Random(41)
        for n, d, u in small_pieces():
            m = pi_matrix_reference(n, d, u, field)
            for sub in sample_subspaces(m.ncols, field, rng):
                assert_same_subspace(pi_image(n, d, u, sub), image_reference(m, sub))

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_psi_image_and_section_match_dense_reference(self, field):
        for n, d, u in small_pieces():
            m = psi_matrix_reference(n, d, u, field)
            full_v = Subspace.full(m.ncols, field=field)
            assert_same_subspace(psi_image(n, d, u, field), image_reference(m, full_v))
            section = pi_fibres(n, d, u).section
            assert section == tuple(next(c for c in range(m.nrows) if m.rows[c][k])
                                    for k in range(m.ncols))

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_pi_preimage_matches_dense_reference(self, field):
        rng = random.Random(42)
        for n, d, u in small_pieces():
            m = pi_matrix_reference(n, d, u, field)
            for w in sample_subspaces(m.nrows, field, rng):
                got = kept_piece(n, d, u, w)
                assert_canonical(got)
                assert repr(got.basis) == repr(preimage_reference(m, w).basis)

    def test_element_maps_match_dense_reference(self):
        rng = random.Random(43)
        for n, d, u in small_pieces():
            theta = random_element(segre_ring(n, d), u, rng)
            g = random_element(veronese_ring(n), sum(u), rng)
            assert list(pi(theta).coords) == mat_vec(pi_matrix_reference(n, d, u), theta.coords)
            assert list(psi(u, g).coords) == mat_vec(psi_matrix_reference(n, d, u), g.coords)

    def test_pi_image_rejects_wrong_ambient(self):
        with pytest.raises(ValueError, match="ambient"):
            pi_image(2, 2, (1, 1), Subspace.full(3))

    def test_fibre_table_is_frozen(self):
        fib = pi_fibres(2, 3, (1, 1, 1))
        assert all(isinstance(t, tuple) for t in (fib.f, fib.section))
        with pytest.raises(FrozenInstanceError):
            fib.section = ()


def test_degree_enumerators():
    assert two_ones_degrees(3) == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    assert staircase_degrees(3) == [(0, 0, 0), (1, 0, 0), (1, 1, 0)]


@given(
    n=st.integers(2, 3),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_section_property_everywhere(n, data):
    d = data.draw(st.integers(1, 3))
    u = tuple(data.draw(st.integers(0, 2)) for _ in range(d))
    ring_v = veronese_ring(n)
    coords = tuple(
        Fraction(data.draw(st.integers(-4, 4)))
        for _ in range(dim_piece(ring_v, sum(u)))
    )
    g = PieceElement(ring_v, sum(u), coords)
    assert pi(psi(u, g)).coords == g.coords



def random_points(ring, field, rng) -> PointSet:
    """Three integer points with entries in [-5, 5] (one when n = 1, where
    every two factors are proportional)."""
    def draw():
        def factor():
            return tuple(rng.randint(-5, 5) for _ in range(ring.n))

        return tuple(factor() for _ in range(ring.d)) if ring.is_multigraded else factor()

    while True:
        try:
            return PointSet(ring, tuple(draw() for _ in range(3 if ring.n > 1 else 1)), field)
        except ValueError:  # a zero factor, or two points that are one: draw again
            continue


class TestIndexMapsAgainstHandDerivations:
    """Every fibre table is folded in `diagonal_maps`, and every pullback
    written there: each reader's index map, and `ir_piece`'s rows, against
    the derivation it once wrote by hand (`tests/support.py`), on the Segre
    and the Veronese ring, for n <= 4, d <= 4 and |u| <= 5."""

    SHAPES = [(n, d) for n in range(1, 5) for d in range(1, 5)]
    RINGS = [veronese_ring(n) for n in range(1, 5)] + [segre_ring(n, d) for n, d in SHAPES]

    def test_pi_fibres_and_ir_pieces(self):
        for n, d in self.SHAPES:
            for u in degrees_up_to(segre_ring(n, d), 5):
                f = pi_fibres_reference(n, d, u)
                fib = pi_fibres(n, d, u)
                assert fib.f == f
                assert fib.section == tuple(f.index(m) for m in range(max(f) + 1))
                for field in FIELDS:
                    got, want = ir_piece(n, d, u, field), ir_piece_reference(n, d, u, field)
                    assert got.piece == want.piece
                    assert repr(got.sparse) == repr(want.sparse), (n, d, u, field)

    def test_variable_steps(self):
        """`_variable_fibres` holds the pairs of the hand derivation: a
        product's first pair is its fibre's first column; `_predecessors`
        steps from the first pair of each product, where the hand derivation
        kept the lowest variable, another factorisation of the same monomial."""
        count = differ = 0
        for ring in self.RINGS:
            factors = range(ring.d) if ring.is_multigraded else (0,)
            for u in degrees_up_to(ring, 5):
                if degree_total(u) < 5:
                    for i in factors:
                        fib, n = ideals._variable_fibres(ring, u, i), ring.n
                        owners = tuple([(c % n, c // n) for c in fib.section])
                        pairs = tuple([owners[m] + (c % n, c // n) for c, m in enumerate(fib.f)
                                       if fib.section[m] != c])
                        assert (pairs, owners) == compatibility_reference(ring, u, i), \
                            (ring, u, i)
                if degree_total(u) == 0:
                    continue
                below, i, steps = ideals._predecessors(ring, u)
                want_below, want_i, want_steps = predecessors_reference(ring, u)
                assert (below, i) == (want_below, want_i)
                table, n = ideals._variable_table(ring, below, i), ring.n
                for factorisation in (steps, want_steps):
                    assert [table[t * n + j] for t, j in factorisation] == list(range(len(steps)))
                count, differ = count + 1, differ + (steps != want_steps)
        assert count > 500 and differ > 100

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_evaluation_rows(self, field, monkeypatch):
        """A monomial's value does not depend on how it is factored, so the
        evaluation rows at random integer points are those of the steps
        written by hand."""
        rng = random.Random(45)
        cases = [(ring, random_points(ring, field, rng)._integers) for ring in self.RINGS]

        def evaluations(ring, points):
            return [(u, [list(row) for row in rows])
                    for u, rows in ideals._evaluations(ring, field, points, 5)]

        got = [evaluations(*case) for case in cases]
        monkeypatch.setattr(ideals, "_predecessors", predecessors_reference)
        assert got == [evaluations(*case) for case in cases]

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_image_dimensions(self, field):
        rng = random.Random(46)
        seen = set()
        for n, d in self.SHAPES:
            for u in degrees_up_to(segre_ring(n, d), 5):
                fib = pi_fibres(n, d, u)
                dim = len(fib.f)
                rows = [[rng.choice((0, 0, 0, 1, -2, 3)) for _ in range(dim)]
                        for _ in range(rng.randint(1, 3))]
                perp = Subspace.from_rows(dim, sparse_rows(rows, field), field=field).sparse
                got = bounds._image_dim(fib, perp, field)
                assert got == image_dim_reference(fib.f, perp, field), (n, d, u)
                seen.add(got)
        assert len(seen) > 5
