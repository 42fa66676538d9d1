"""Tests for monomial enumeration, dimension counts, and rank/unrank indexing."""

import dataclasses
import itertools
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from borderapolar import apolarity, diagonal_maps, grading
from borderapolar.apolarity import HomPoly, ann_piece, ann_sym_piece
from borderapolar.diagonal_maps import direct_sum_check, pi, psi, rho
from borderapolar.selftest import sum_of_powers_tensor
from borderapolar.grading import (
    PieceElement,
    RingKind,
    RingSpec,
    _dim_piece,
    check_degree,
    dim_piece,
    format_element,
    format_monomial,
    monomials,
    rank_monomial,
    segre_ring,
    unrank_monomial,
    veronese_ring,
)
from support import multiply


def nondecreasing_sequences(n, r):
    """Independent oracle: sequences 1 <= a_1 <= ... <= a_r <= n."""
    return sum(1 for _ in itertools.combinations_with_replacement(range(1, n + 1), r))


class TestDimPiece:
    def test_veronese_n2_k3(self):
        assert dim_piece(veronese_ring(2), 3) == 4

    def test_segre_product(self):
        assert dim_piece(segre_ring(2, 3), (1, 1, 1)) == 8

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("r", range(0, 7))
    def test_matches_sequence_count(self, n, r):
        assert dim_piece(veronese_ring(n), r) == nondecreasing_sequences(n, r)
        assert dim_piece(veronese_ring(n), r) == math.comb(n + r - 1, r)

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("d", range(1, 5))
    def test_segre_is_product_of_veronese(self, n, d):
        ring = segre_ring(n, d)
        vr = veronese_ring(n)
        for u in itertools.product(range(7), repeat=d):
            if sum(u) > 6:
                continue
            prod = 1
            for ui in u:
                prod *= dim_piece(vr, ui)
            assert dim_piece(ring, u) == prod

    def test_bad_degree_length(self):
        with pytest.raises(ValueError):
            dim_piece(segre_ring(2, 3), (1, 1))


class TestDimTable:
    """`_dim_piece` reads dim V_k off a table keyed by n alone."""

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("d", range(1, 5))
    def test_counts_the_monomials(self, n, d):
        ring = segre_ring(n, d)
        for u in itertools.product(range(7), repeat=d):
            if sum(u) <= 6:
                assert _dim_piece(ring, u) == len(monomials(ring, u))
        for k in range(7):
            assert _dim_piece(veronese_ring(n), k) == len(monomials(veronese_ring(n), k))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_degrees_past_the_table(self, n):
        for k in (63, 64, 65, 200):
            assert _dim_piece(veronese_ring(n), k) == math.comb(n + k - 1, k)
            assert _dim_piece(segre_ring(n, 3), (2, k, 1)) \
                == n * math.comb(n + k - 1, k) * math.comb(n + 1, 2)


RINGS = (segre_ring(2, 3), segre_ring(3, 1), segre_ring(1, 4), veronese_ring(4))


class TestRingSpec:
    """`is_multigraded` and the hash are stored when a ring is made; the repr,
    equality and hash read as before, also through pickle and `replace`."""

    def test_repr_and_equality(self):
        assert repr(segre_ring(2, 3)) == "RingSpec(n=2, d=3, kind=<RingKind.SEGRE_COORD: 'S'>)"
        assert repr(veronese_ring(4)) == "RingSpec(n=4, d=1, kind=<RingKind.VERONESE_COORD: 'V'>)"
        assert segre_ring(2, 3) == RingSpec(2, 3, RingKind.SEGRE_COORD)
        assert segre_ring(2, 1) != veronese_ring(2) and segre_ring(2, 3) != segre_ring(3, 2)
        assert [ring.is_multigraded for ring in RINGS] == [True, True, True, False]
        assert len({segre_ring(2, 3), segre_ring(2.0, 3), *RINGS}) == len(RINGS)

    @pytest.mark.parametrize("ring", RINGS, ids=repr)
    def test_pickle_and_replace(self, ring):
        for copy in (pickle.loads(pickle.dumps(ring)), dataclasses.replace(ring)):
            assert copy == ring and hash(copy) == hash(ring) and repr(copy) == repr(ring)
            assert copy.is_multigraded == ring.is_multigraded
        wider = dataclasses.replace(ring, n=ring.n + 1)
        assert wider == RingSpec(ring.n + 1, ring.d, ring.kind)
        assert hash(wider) == hash(RingSpec(ring.n + 1, ring.d, ring.kind))
        other = RingKind.VERONESE_COORD if ring.is_multigraded else RingKind.SEGRE_COORD
        flipped = dataclasses.replace(ring, kind=other)
        assert flipped.is_multigraded is not ring.is_multigraded
        with pytest.raises(ValueError):
            dataclasses.replace(ring, is_multigraded=not ring.is_multigraded)

    def test_hash_is_the_same_in_every_process(self):
        """The stored hash is of ints alone, so string hash randomization
        leaves it alone."""
        code = ("from borderapolar.grading import segre_ring, veronese_ring\n"
                "print([hash(r) for r in (segre_ring(2, 3), segre_ring(3, 1), "
                "segre_ring(1, 4), veronese_ring(4))])")
        src = str(Path(__file__).resolve().parent.parent / "src")
        seen = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                               check=True, timeout=60).stdout
                for seed in ("0", "1", "12345")}
        assert seen == {f"{[hash(r) for r in RINGS]}\n"}


class TestCheckDegree:
    @pytest.mark.parametrize("ring, u, want", [
        (veronese_ring(2), 3, 3), (veronese_ring(2), [3], 3), (veronese_ring(2), 2.0, 2),
        (veronese_ring(2), Fraction(4, 2), 2), (segre_ring(2, 3), (1, 0, 2), (1, 0, 2)),
        (segre_ring(2, 3), [1, 0, 2], (1, 0, 2)), (segre_ring(2, 2), (1.0, 2), (1, 2)),
    ])
    def test_integral_degrees_are_normalized(self, ring, u, want):
        got = check_degree(ring, u)
        assert got == want and type(got) is type(want)
        assert all(type(x) is int for x in (got if isinstance(got, tuple) else (got,)))

    @pytest.mark.parametrize("u", [0, 3, "11", None])
    def test_segre_degree_needs_parts(self, u):
        with pytest.raises(ValueError, match=r"S\(n=2, d=2\) takes a degree of 2 parts"):
            check_degree(segre_ring(2, 2), u)

    @pytest.mark.parametrize("ring, u", [
        (veronese_ring(2), 1.5), (veronese_ring(3), 2.9), (veronese_ring(2), Fraction(3, 2)),
        (veronese_ring(2), [0.5]), (veronese_ring(2), "3"), (veronese_ring(2), float("nan")),
        (veronese_ring(2), float("inf")), (segre_ring(2, 2), (1.7, 0.2)),
        (segre_ring(2, 2), (1, Fraction(1, 2))), (segre_ring(2, 2), (1, None)),
        (segre_ring(2, 2), ("1", 1)),
    ])
    def test_non_integral_entries_are_refused(self, ring, u):
        with pytest.raises(ValueError, match="not an integer"):
            check_degree(ring, u)

    def test_refused_before_any_count(self):
        with pytest.raises(ValueError):
            dim_piece(veronese_ring(3), 2.9)
        with pytest.raises(ValueError):
            dim_piece(segre_ring(2, 2), 2)

    @pytest.mark.parametrize("ring, u, message", [
        (segre_ring(2, 2), (1, -1), "negative degree"),
        (veronese_ring(2), -1, "negative degree"),
        (veronese_ring(2), (1, 1), "single grading expects an integer degree"),
    ])
    def test_sign_and_single_grading_are_checked(self, ring, u, message):
        with pytest.raises(ValueError, match=message):
            check_degree(ring, u)

    @pytest.mark.parametrize("ring, call", [
        (segre_ring(2, 3), lambda f: ann_piece(f, [1, 0, 1])),
        (segre_ring(2, 3), lambda f: ann_piece(f, (2, 0, 1))),
        (veronese_ring(2), lambda f: ann_sym_piece(HomPoly(2, 2, {(2, 0): 1}), 1.0)),
        (veronese_ring(2), lambda f: ann_sym_piece(HomPoly(2, 2, {(2, 0): 1}), 3.0)),
        (segre_ring(2, 3), lambda f: direct_sum_check(2, 3, [1, 1, 0])),
        (segre_ring(2, 2),
         lambda f: PieceElement.from_terms(segre_ring(2, 2), [1, 1], {((1, 0), (0, 1)): 3})),
        (segre_ring(2, 2), lambda f: psi([1, 1], PieceElement(veronese_ring(2), 2, (1, 0, 2)))),
    ], ids=["ann_piece", "ann_piece-full", "ann_sym_piece", "ann_sym_piece-full",
            "direct_sum_check", "from_terms", "psi"])
    def test_an_export_checks_its_degree_once(self, ring, call, monkeypatch):
        """Each export below takes one degree on `ring` from its caller and
        runs `check_degree` on it once, whatever module the check is bound
        in; checks on other rings (a monomial's factors) are not counted.  The
        caches are cleared first, so a cold table counts too: a form is
        placed in V_d by `rank_monomial`, which lists no piece and checks no
        degree."""
        real, seen = grading.check_degree, []

        def counted(r, u):
            seen.append((r, u))
            return real(r, u)

        f = sum_of_powers_tensor(2, 3, [(1, 2), (3, -1)])
        for cached in (grading._monomials, grading._product_map, grading._degrees_up_to):
            cached.cache_clear()
        for module in (grading, apolarity, diagonal_maps):
            monkeypatch.setattr(module, "check_degree", counted)
        call(f)
        assert len([u for r, u in seen if r == ring]) == 1, seen


class TestMonomials:
    def test_veronese_order(self):
        assert monomials(veronese_ring(2), 2) == ((2, 0), (1, 1), (0, 2))

    def test_segre_order(self):
        got = monomials(segre_ring(2, 2), (1, 1))
        want = (
            ((1, 0), (1, 0)),
            ((1, 0), (0, 1)),
            ((0, 1), (1, 0)),
            ((0, 1), (0, 1)),
        )
        assert got == want

    def test_degree_zero(self):
        assert monomials(segre_ring(3, 2), (0, 0)) == (((0, 0, 0), (0, 0, 0)),)
        assert len(monomials(segre_ring(3, 2), (0, 0))) == 1

    @pytest.mark.parametrize("n,d,u", [(2, 2, (2, 1)), (3, 2, (1, 1)), (2, 3, (1, 2, 0))])
    def test_count_matches_dim(self, n, d, u):
        ring = segre_ring(n, d)
        assert len(monomials(ring, u)) == dim_piece(ring, u)


class TestRankUnrank:
    def test_rank_example(self):
        assert rank_monomial(veronese_ring(2), (1, 1)) == 1

    def test_unrank_example(self):
        assert unrank_monomial(veronese_ring(2), 2, 2) == (0, 2)

    def test_round_trip_segre_11(self):
        ring = segre_ring(2, 2)
        for i in range(dim_piece(ring, (1, 1))):
            assert rank_monomial(ring, unrank_monomial(ring, (1, 1), i)) == i

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            unrank_monomial(veronese_ring(2), 2, 3)

    @given(
        n=st.integers(1, 4),
        d=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_bijection_property(self, n, d, data):
        u = tuple(data.draw(st.integers(0, 3)) for _ in range(d))
        ring = segre_ring(n, d)
        basis = monomials(ring, u)
        assert len(basis) == dim_piece(ring, u)
        for i, mono in enumerate(basis):
            assert rank_monomial(ring, mono) == i
            assert unrank_monomial(ring, u, i) == mono

    @given(n=st.integers(1, 5), k=st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_bijection_veronese(self, n, k):
        ring = veronese_ring(n)
        basis = monomials(ring, k)
        for i, mono in enumerate(basis):
            assert rank_monomial(ring, mono) == i
            assert unrank_monomial(ring, k, i) == mono


def _pieces(max_n=4, max_d=3, max_total=4):
    """Every piece with n <= 4, d <= 3 and total degree <= 4, on both rings."""
    for n in range(1, max_n + 1):
        for k in range(max_total + 1):
            yield veronese_ring(n), k
        for d in range(1, max_d + 1):
            for u in itertools.product(range(max_total + 1), repeat=d):
                if sum(u) <= max_total:
                    yield segre_ring(n, d), u


@pytest.mark.parametrize("ring, u", list(_pieces()), ids=repr)
def test_rank_and_unrank_are_positions_in_monomials(ring, u):
    """The one monomial order: `monomials` is the lexicographically decreasing
    order of the exponent tables, and rank and unrank are positions in it."""
    n = ring.n
    rows = ([[e for e in itertools.product(range(ui + 1), repeat=n) if sum(e) == ui]
             for ui in u] if ring.is_multigraded else
            [[e for e in itertools.product(range(u + 1), repeat=n) if sum(e) == u]])
    want = sorted(itertools.product(*rows), reverse=True)
    basis = monomials(ring, u)
    assert list(basis) == (want if ring.is_multigraded else [m for (m,) in want])
    for i, mono in enumerate(basis):
        assert rank_monomial(ring, mono) == i
        assert unrank_monomial(ring, u, i) == mono


class TestPieceElement:
    def test_from_terms_and_back(self):
        ring = veronese_ring(2)
        el = PieceElement.from_terms(ring, 2, {(1, 1): 3, (2, 0): -1})
        assert el.terms() == {(1, 1): 3, (2, 0): -1}

    def test_from_terms_is_over_q_by_default(self):
        ring = veronese_ring(2)
        el = PieceElement.from_terms(ring, 1, {(1, 0): 3})
        assert repr(el.coords) == "(Fraction(3, 1), Fraction(0, 1))"
        with pytest.raises(TypeError, match="cannot coerce 0.5 into Q"):
            PieceElement.from_terms(ring, 1, {(1, 0): 0.5})

    def test_degree_mismatch(self):
        ring = veronese_ring(2)
        with pytest.raises(ValueError):
            PieceElement.from_terms(ring, 2, {(1, 0): 1})

    def test_multiply(self):
        ring = veronese_ring(2)
        b1 = PieceElement.from_terms(ring, 1, {(1, 0): 1})
        b2 = PieceElement.from_terms(ring, 1, {(0, 1): 1})
        prod = multiply(b1, b2)
        assert prod.terms() == {(1, 1): 1}

    def test_add_checks_piece(self):
        ring = veronese_ring(2)
        a = PieceElement.from_terms(ring, 1, {(1, 0): 1})
        b = PieceElement.from_terms(ring, 2, {(1, 1): 1})
        with pytest.raises(ValueError):
            a + b

    def test_keeps_the_degree_it_checks(self):
        """A degree given as a list or an integral float is kept as
        `check_degree` returns it, so the element's maps read it as a tuple."""
        ring = segre_ring(2, 2)
        el = PieceElement(ring, [1, 0], (1, 0))
        assert el == PieceElement(ring, (1, 0), (1, 0)) and type(el.degree) is tuple
        assert el.terms() == {((1, 0), (0, 0)): 1}
        assert pi(el).terms() == rho(el).terms() == {(1, 0): 1}
        assert format_element(ring, [1, 0], el.coords) == "a(1,1)"
        assert type(PieceElement(veronese_ring(2), 1.0, (0, 1)).degree) is int


def test_format_monomial():
    assert format_monomial(veronese_ring(2), (2, 1)) == "b1^2*b2"
    assert format_monomial(segre_ring(2, 2), ((1, 0), (0, 1))) == "a(1,1)*a(2,2)"
    assert format_monomial(segre_ring(2, 2), ((0, 0), (0, 0))) == "1"
