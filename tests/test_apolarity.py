"""Tests for polarization, contraction, annihilator pieces, and flattenings."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from borderapolar.apolarity import (
    GeneralTensor,
    HomPoly,
    SymTensor,
    _catalecticant,
    ann_piece,
    ann_sym_piece,
    contract_poly,
    contract_tensor,
    depolarize,
    flattening_lower_bound,
    flattening_ranks,
    is_concise,
    polarize,
    slice_spans,
)
from borderapolar.bounds import (
    is_111_sharp,
    is_sharp,
    verify_containment_lemma,
    verify_gen_count_transfer,
    verify_lemma_1_minus_ed,
)
from borderapolar.grading import (
    PieceElement,
    dim_piece,
    monomials,
    segre_ring,
    veronese_ring,
)
from borderapolar.linalg import QQ, PrimeField, Subspace, kernel
from borderapolar.selftest import random_forms
from borderapolar.transfer import digest_of, tensor_digest
from support import (ann_piece_reference, ann_sym_piece_reference, catalecticant_reference,
                     colon_reference, contract_poly_reference, contract_tensor_reference,
                     contraction_rows_reference, depolarize_reference, diagonal_tensor, multiply, power_of_form,
                     random_form, random_symmetric_tensor, slice_spans_reference, sparse_rows,
                     sum_of_powers_tensor, symmetry_error_reference)


class TestPolarize:
    def test_pure_power(self):
        f = polarize(HomPoly(2, 3, {(3, 0): 1}))
        assert f.entries == {(0, 0, 0): 1}

    def test_coefficient_convention(self):
        # 3*y1^2*y2 puts weight 3 * 2!1!/3! = 1 on each permutation of (1,1,2)
        f = polarize(HomPoly(2, 3, {(2, 1): 3}))
        assert f.entries == {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1}

    def test_round_trip_random_cubics(self):
        rng = random.Random(2)
        for _ in range(20):
            n = rng.choice((2, 3))
            p = random_form(n, 3, rng)
            assert depolarize(polarize(p)) == p

    def test_polarize_after_depolarize(self):
        rng = random.Random(3)
        for _ in range(20):
            f = random_symmetric_tensor(2, rng.choice((3, 4)), rng)
            assert polarize(depolarize(f)) == f

    def test_depolarize_needs_symmetry(self):
        g = GeneralTensor(2, 2, {(0, 1): 1})
        with pytest.raises(ValueError):
            depolarize(g)

    def test_depolarize_example(self):
        f = SymTensor(2, 3, {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1})
        assert depolarize(f) == HomPoly(2, 3, {(2, 1): 3})

    def test_symmetry_validation(self):
        with pytest.raises(ValueError):
            SymTensor(2, 2, {(0, 1): 1, (1, 0): 2})
        with pytest.raises(ValueError):
            SymTensor(2, 2, {(0, 1): 1})  # missing the mirrored entry

    @pytest.mark.parametrize("field", [QQ, PrimeField(2**31 - 1)], ids=["QQ", "GFp"])
    def test_symmetry_check_matches_the_permutation_scan(self, field):
        """One pass per orbit raises exactly what scanning every permutation of
        every entry raises: symmetric tensors, a missing permutation, one wrong
        value (also after shuffling the dict order) and random entries."""
        rng = random.Random(11)
        cases = [("symmetric", 1, 3, {}), ("symmetric", 1, 1, {(0,): 1}),
                 ("wrong", 2, 2, {(0, 1): 1, (1, 0): 2}), ("missing", 2, 2, {(0, 1): 1})]
        for n, d in [(1, 3), (2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 3)]:
            for _ in range(4):
                sym = random_symmetric_tensor(n, d, rng).entries
                cases.append(("symmetric", n, d, sym))
                unsorted = [idx for idx in sym if list(idx) != sorted(idx)]
                if unsorted:
                    idx = rng.choice(unsorted)
                    cases.append(("missing", n, d, {k: c for k, c in sym.items() if k != idx}))
                    cases.append(("wrong", n, d, {**sym, idx: sym[idx] + 1}))
                    shuffled = list(sym.items())
                    rng.shuffle(shuffled)
                    cases.append(("wrong", n, d, {**dict(shuffled), idx: 2 * sym[idx]}))
                cases.append(("random", n, d, {
                    tuple(rng.randrange(n) for _ in range(d)): rng.randint(1, 3)
                    for _ in range(rng.randint(1, 6))}))
        for kind, n, d, entries in cases:
            g = GeneralTensor(n, d, entries, field=field)
            want = symmetry_error_reference(g.entries, field.zero)
            assert (want is None) == (kind == "symmetric") or kind == "random"
            if want is None:
                assert SymTensor(n, d, entries, field=field).entries == g.entries
                continue
            with pytest.raises(ValueError) as exc:
                SymTensor(n, d, entries, field=field)
            assert str(exc.value) == want
        assert {kind for kind, *_ in cases} == {"symmetric", "missing", "wrong", "random"}


class TestForm:
    """A SymTensor keeps its form p_F, built in the orbit pass of its symmetry
    check; depolarize reads it, and conciseness can be read off Ann(p_F)_1."""

    @staticmethod
    def _tensors(rng):
        """Dense and sparse random forms, power sums of n and n + 1 forms, x^d
        and the zero tensor, as (n, d, entries)."""
        out = []
        for n, d in ((1, 3), (2, 3), (3, 3), (4, 3), (3, 4), (2, 5)):
            monos = monomials(veronese_ring(n), d)
            sparse = {m: rng.choice((-2, -1, 1, 2))
                      for m in rng.sample(monos, min(len(monos), n + 1))}
            for f in (random_symmetric_tensor(n, d, rng), polarize(HomPoly(n, d, sparse)),
                      sum_of_powers_tensor(n, d, random_forms(n, n, rng)),
                      sum_of_powers_tensor(n, d, random_forms(n, n + 1, rng)),
                      polarize(HomPoly(n, d, {(d,) + (0,) * (n - 1): 1}))):
                out.append((n, d, f.entries))
            out.append((n, d, {}))
        return out

    @pytest.mark.parametrize("field", [QQ, PrimeField(2**31 - 1)], ids=["QQ", "GFp"])
    def test_form_matches_the_entry_scan_and_the_flattening_ranks(self, field):
        ranks = set()
        for n, d, entries in self._tensors(random.Random(12)):
            f = SymTensor(n, d, entries, field=field)
            p = depolarize(f)
            assert p is f.form and p.field == field
            assert p == depolarize_reference(f), (n, d, entries)
            assert depolarize(GeneralTensor(n, d, entries, field=field)) == p
            rank = n - ann_sym_piece(p, 1).dim
            assert flattening_ranks(f) == (rank,) * d, (n, d, entries)
            ranks.add("zero" if not rank else "full" if rank == n else "partial")
        assert ranks == {"zero", "partial", "full"}

    def test_form_is_read_only(self):
        f = polarize(HomPoly(2, 3, {(2, 1): 3}))
        with pytest.raises(TypeError):
            depolarize(f).terms[(2, 1)] = 1
        with pytest.raises(TypeError):
            depolarize(f).terms[(3, 0)] = 1
        assert depolarize(f) == HomPoly(2, 3, {(2, 1): 3})

    def test_entries_are_read_only(self):
        entries = {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1}
        for f in (GeneralTensor(2, 3, entries), SymTensor(2, 3, entries),
                  polarize(HomPoly(2, 3, {(2, 1): 3}))):
            with pytest.raises(TypeError):
                f.entries[(0, 0, 1)] = 2
            with pytest.raises(TypeError):
                f.entries[(1, 1, 1)] = 1
            assert f.entries == entries


def _outcome(check, f):
    """A certificate as a dict, or the message of the ValueError refusing F."""
    try:
        return check(f).to_dict()
    except ValueError as exc:
        return str(exc)


class TestHeldByForm:
    """polarize(p) holds F by p alone and writes its entries on first read; it
    reads exactly as the SymTensor built from those entries, whichever reader
    comes first."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(2**31 - 1)], ids=["QQ", "GFp"])
    def test_polarized_reads_as_entry_built(self, field):
        checks = (is_sharp, is_111_sharp, verify_lemma_1_minus_ed, verify_gen_count_transfer,
                  verify_containment_lemma)
        concise = 0
        for n, d, entries in TestForm._tensors(random.Random(17)):
            p = SymTensor(n, d, entries, field=field).form
            f = polarize(p)
            assert f.form is p and "entries" not in vars(f)
            g = SymTensor(n, d, dict(f.entries), field=field)
            assert f.entries == g.entries == SymTensor(n, d, entries, field=field).entries
            assert polarize(p) == g and g == polarize(p)
            assert slice_spans(polarize(p)) == slice_spans(g)
            for u in itertools.product((0, 1), repeat=d):
                assert ann_piece(polarize(p), u) == ann_piece(g, u), (n, d, u)
            assert tensor_digest(polarize(p)) == tensor_digest(g)
            for check in checks:
                assert _outcome(check, polarize(p)) == _outcome(check, g), (check, n, d)
            concise += is_concise(g)
        assert concise  # the certificates are compared on concise tensors too


    @pytest.mark.parametrize("field", [QQ, PrimeField(2**31 - 1)], ids=["QQ", "GFp"])
    def test_digest_streams_the_sorted_entries(self, field):
        """`tensor_digest` hashes the repr of the sorted entries, byte for byte,
        for a polarized, an entry-built and a general F; a polarized F's
        entries are written only by the reference, after the digest.  (5, 6)
        has 15,625 entries, so its text goes in several chunks."""
        rng = random.Random(21)
        shapes = TestForm._tensors(rng) + [(2, 0, {(): 3}), (3, 1, {(1,): -2}),
                                           (5, 6, polarize(random_form(5, 6, rng)).entries)]
        tensors = []
        for n, d, entries in shapes:
            g = SymTensor(n, d, entries, field=field)
            tensors += [polarize(g.form), g, GeneralTensor(n, d, entries, field=field),
                        GeneralTensor(n, d, _random_entries(n, d, rng, n), field=field)]
        for f in tensors:
            polarized = isinstance(f, SymTensor) and "entries" not in vars(f)
            digest = tensor_digest(f)
            assert not polarized or "entries" not in vars(f)
            assert digest == digest_of(f.n, f.order, sorted(f.entries.items())), f
        assert len(tensors) == 4 * 39

    def test_digest_reads_no_entry_of_a_polarized_tensor(self, monkeypatch):
        written = []
        write = SymTensor.entries.func
        entries = functools.cached_property(lambda f: written.append(f) or write(f))
        entries.__set_name__(SymTensor, "entries")
        monkeypatch.setattr(SymTensor, "entries", entries)
        f = polarize(random_form(3, 4, random.Random(22)))
        digest = tensor_digest(f)
        assert written == []
        assert digest == digest_of(3, 4, sorted(f.entries.items()))
        assert written == [f]


class TestSparseTensorCost:
    def test_a_sparse_tensor_builds_no_table_of_its_indices(self, eliminations):
        """A diagonal F with 6 entries among 6^7 = 279,936 indices: contracting
        it at a slice degree and at e_0, and reducing the flattenings in
        `slice_spans`, allocate fewer bytes at their peak than F has indices,
        so no table with an entry per index is built, cached or not, and no
        row of the flattening's width: its one reduction runs on the 6
        columns its rows touch."""
        import tracemalloc

        n, d = 6, 7
        f = GeneralTensor(n, d, {(j,) * d: j + 1 for j in range(n)})
        ring = segre_ring(n, d)
        width = n ** (d - 1)
        theta = PieceElement(ring, (0,) + (1,) * (d - 1),
                             tuple(QQ.of(c % 7) for c in range(width)))
        linear = PieceElement(ring, (1,) + (0,) * (d - 1), tuple(QQ.of(c + 1) for c in range(n)))
        diagonal = [sum(j * n ** k for k in range(d - 1)) for j in range(n)]
        eliminations.clear()
        tracemalloc.start()
        try:
            sliced = contract_tensor(theta, f)
            contracted = contract_tensor(linear, f)
            spans = slice_spans(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n ** d
        assert sliced.entries == {(j,): (j + 1) * (diagonal[j] % 7) for j in range(n)
                                  if diagonal[j] % 7}
        assert contracted.entries == {(j,) * (d - 1): (j + 1) ** 2 for j in range(n)}
        assert eliminations == [(n, n)]
        assert all(span is spans[0] for span in spans) and spans[0].ambient_dim == width
        assert spans[0].sparse == tuple(((c, 1),) for c in diagonal)
        assert is_concise(f) and flattening_ranks(f) == (n,) * d

    def test_a_diagonal_form_of_high_order_costs_its_entries(self):
        """A diagonal (10, 8) `SymTensor` has flattenings of width 10^7; its
        ranks take well under 0.1 s and 1 MB at the peak, as no row of that
        width is written."""
        import time
        import tracemalloc

        n, d = 10, 8
        f = SymTensor(n, d, {(j,) * d: j + 1 for j in range(n)})
        tracemalloc.start()
        try:
            start = time.perf_counter()
            ranks = flattening_ranks(f)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ranks == (n,) * d
        assert elapsed < 0.1 and peak < 1 << 20, (elapsed, peak)

    @pytest.mark.parametrize("field", [QQ, PrimeField(2**31 - 1)], ids=["QQ", "GFp"])
    def test_reduction_on_the_touched_columns_matches_the_full_width(self, field, eliminations):
        """On random sparse tensors, entry-built and polarized, `slice_spans`
        agrees with reducing each flattening on all its columns; those with
        fewer entries than columns are reduced on fewer columns."""
        rng = random.Random(44)
        narrowed = 0
        for _ in range(60):
            n, d = rng.randint(1, 3), rng.randint(1, 4)
            count = rng.randint(0, n ** (d - 1))
            if rng.random() < 0.5:
                f = GeneralTensor(n, d, _random_entries(n, d, rng, count), field=field)
            else:
                terms = {m: rng.choice((-3, -1, 1, 2)) for m in
                         rng.sample(monomials(veronese_ring(n), d),
                                    min(count, dim_piece(veronese_ring(n), d)))}
                f = polarize(HomPoly(n, d, terms, field=field))
            eliminations.clear()
            got = slice_spans(f)
            if len(f.entries) < n ** (d - 1):
                assert all(width < n ** (d - 1) for _, width in eliminations), f
                narrowed += 1
            assert got == slice_spans_reference(f), f
        assert narrowed > 10


class TestContractTensor:
    def test_slice(self):
        ring = segre_ring(2, 2)
        theta = PieceElement.from_terms(ring, (1, 0), {((1, 0), (0, 0)): 1})
        f = GeneralTensor(2, 2, {(0, 1): 1})  # x_{1,1} (x) x_{2,2}
        out = contract_tensor(theta, f)
        assert out.factors == (1,)
        assert out.entries == {(1,): 1}

    def test_contracted_labels_are_kept_as_ints(self):
        # labels need not start at 0 or be consecutive, only distinct and >= 0
        for labels in ((1, 2), (2.0, 0), (0, 3)):
            f = GeneralTensor(2, 2, {(0, 1): 1}, factors=labels)
            assert f.factors == tuple(int(i) for i in labels)
            assert all(type(i) is int for i in f.factors)

    def test_wrong_slot_kills(self):
        ring = segre_ring(2, 2)
        theta = PieceElement.from_terms(ring, (1, 0), {((0, 1), (0, 0)): 1})
        f = GeneralTensor(2, 2, {(0, 1): 1})
        assert contract_tensor(theta, f).is_zero

    def test_degree_two_kills(self):
        ring = segre_ring(2, 2)
        theta = PieceElement.from_terms(ring, (2, 0), {((2, 0), (0, 0)): 1})
        f = GeneralTensor(2, 2, {(0, 1): 1, (1, 0): -2})
        assert contract_tensor(theta, f).is_zero

    def test_bilinear(self):
        rng = random.Random(5)
        ring = segre_ring(2, 3)
        f = random_symmetric_tensor(2, 3, rng)
        g = GeneralTensor(2, 3, {k: rng.randint(-4, 4) for k in itertools.product(range(2), repeat=3)})
        u = (1, 1, 0)
        t1 = PieceElement.from_terms(ring, u, {((1, 0), (0, 1), (0, 0)): 2})
        t2 = PieceElement.from_terms(ring, u, {((0, 1), (1, 0), (0, 0)): -3})
        both = t1 + t2
        lhs = contract_tensor(both, f)
        a, b = contract_tensor(t1, f), contract_tensor(t2, f)
        merged = dict(a.entries)
        for k, v in b.entries.items():
            merged[k] = merged.get(k, Fraction(0)) + v
        merged = {k: v for k, v in merged.items() if v}
        assert lhs.entries == merged

    def test_associative_action(self):
        rng = random.Random(6)
        ring = segre_ring(2, 3)
        f = random_symmetric_tensor(2, 3, rng)
        theta1 = PieceElement.from_terms(ring, (1, 0, 0), {((1, 0), (0, 0), (0, 0)): 1,
                                                           ((0, 1), (0, 0), (0, 0)): 2})
        theta2 = PieceElement.from_terms(ring, (0, 1, 0), {((0, 0), (1, 0), (0, 0)): -1,
                                                           ((0, 0), (0, 1), (0, 0)): 3})
        prod = multiply(theta1, theta2)
        via_product = contract_tensor(prod, f)
        via_steps = contract_tensor(theta1, contract_tensor(theta2, f))
        assert via_product.entries == via_steps.entries
        assert via_product.factors == via_steps.factors


def _random_entries(n, d, rng, count=None):
    """Nonzero entries at `count` random index tuples, or at all n^d of them."""
    idx = list(itertools.product(range(n), repeat=d))
    if count is not None:
        idx = rng.sample(idx, min(count, len(idx)))
    return {i: rng.choice((-3, -1, 1, 2, Fraction(1, 2))) for i in idx}


def _random_element(ring, u, rng, field):
    """An element of S_u with coordinates in -3..3, zeros included."""
    return PieceElement(ring, u, tuple(field.of(rng.randint(-3, 3))
                                       for _ in range(dim_piece(ring, u))))


class _IterateOnly(dict):
    """Entries that can be iterated but not looked up."""

    def get(self, *args):
        raise AssertionError("an entry was looked up")

    def __getitem__(self, key):
        raise AssertionError("an entry was looked up")


class TestContractionMap:
    """`ann_piece`, `slice_spans` and `contract_tensor` read F through one pass
    over its entries; the references look each entry up by its index tuple."""

    @staticmethod
    def _tensors(rng, field):
        """Dense, sparse, symmetric and zero tensors."""
        out = []
        for n, d in ((1, 3), (2, 3), (3, 3), (2, 4), (3, 4)):
            out += [GeneralTensor(n, d, _random_entries(n, d, rng), field=field),
                    GeneralTensor(n, d, _random_entries(n, d, rng, n), field=field),
                    polarize(HomPoly(n, d, random_form(n, d, rng).terms, field=field)),
                    GeneralTensor(n, d, {}, field=field)]
        return out

    @pytest.mark.parametrize("field", [QQ, PrimeField(2**31 - 1)], ids=["QQ", "GFp"])
    def test_matches_the_index_lookups(self, field):
        """`ann_piece` at a 0/1 degree holds the RREF of the contraction rows,
        reduced on the columns they touch when they hold fewer entries than
        there are columns, and makes the reference's basis when read."""
        rng = random.Random(18)
        paths = set()  # whether the rows were reduced on the columns they touch
        for f in self._tensors(rng, field):
            ring = segre_ring(f.n, f.order)
            for u in itertools.product((0, 1), repeat=f.order):
                got, want = ann_piece(f, u), ann_piece_reference(f, u)
                rows = contraction_rows_reference(f, u)
                paths.add(sum(map(len, rows)) < want.ambient_dim)
                span = Subspace.from_rows(want.ambient_dim, rows, field=field)
                assert got.held_by_perp and got.perp == span.sparse, (f, u)
                assert got == want and got.piece == want.piece, (f, u)
                assert repr(got.sparse) == repr(want.sparse), (f, u)
                theta = _random_element(ring, u, rng, field)
                assert contract_tensor(theta, f) == contract_tensor_reference(theta, f), (f, u)
        # F on slots (2, 0) of three: the columns follow slot order, not position order
        part = GeneralTensor(3, 2, _random_entries(3, 2, rng), field=field, factors=(2, 0))
        for u in itertools.product((0, 1), repeat=3):
            theta = _random_element(segre_ring(3, 3), u, rng, field)
            got = contract_tensor(theta, part)
            assert got == contract_tensor_reference(theta, part), u
            assert got.factors == tuple(i for i in (2, 0) if not u[i])
        assert paths == {False, True}

    def test_entries_are_only_iterated(self):
        rng = random.Random(19)
        for f in self._tensors(rng, QQ):
            g = GeneralTensor(f.n, f.order, {}, field=f.field)
            g.entries = _IterateOnly(f.entries)
            ring = segre_ring(f.n, f.order)
            for u in itertools.product((0, 1), repeat=f.order):
                assert ann_piece(g, u) == ann_piece_reference(f, u), (f, u)
                theta = _random_element(ring, u, rng, QQ)
                assert contract_tensor(theta, g) == contract_tensor_reference(theta, f), (f, u)
            assert slice_spans(g) == slice_spans_reference(f), f


class TestContractPoly:
    def test_derivative(self):
        ring = veronese_ring(2)
        b1 = PieceElement.from_terms(ring, 1, {(1, 0): 1})
        out = contract_poly(b1, HomPoly(2, 2, {(2, 0): 1}))
        assert out == HomPoly(2, 1, {(1, 0): 2})

    def test_mixed_kills_fermat(self):
        ring = veronese_ring(2)
        b1b2 = PieceElement.from_terms(ring, 2, {(1, 1): 1})
        p = HomPoly(2, 3, {(3, 0): 1, (0, 3): 1})
        assert contract_poly(b1b2, p).is_zero

    def test_square_on_fermat(self):
        ring = veronese_ring(2)
        b1sq = PieceElement.from_terms(ring, 2, {(2, 0): 1})
        p = HomPoly(2, 3, {(3, 0): 1, (0, 3): 1})
        assert contract_poly(b1sq, p) == HomPoly(2, 1, {(1, 0): 6})


class TestAnnPiece:
    def test_rank_one_two_factors(self):
        f = GeneralTensor(2, 2, {(0, 0): 1})
        sub = ann_piece(f, (1, 0))
        assert sub.basis == ((0, 1),)

    def test_degree_kills_full(self):
        f = GeneralTensor(2, 2, {(0, 0): 1})
        assert ann_piece(f, (2, 0)).is_full

    def test_diagonal_three_factor_kernel(self):
        # oracle-confirmed: rank of the 2x4 contraction matrix is 2
        f = diagonal_tensor(2, 3)
        assert ann_piece(f, (1, 1, 0)).dim == 2

    def test_diagonal_two_factor_kernel(self):
        f = diagonal_tensor(2, 2)
        assert ann_piece(f, (1, 1)).dim == 3

    def test_zero_tensor_everything(self):
        f = GeneralTensor(2, 2, {})
        assert ann_piece(f, (1, 1)).is_full
        assert not is_concise(f)

    def test_codim_bound_and_conciseness(self):
        rng = random.Random(9)
        for n, d in ((2, 3), (3, 3)):
            f = random_symmetric_tensor(n, d, rng)
            for i in range(d):
                u = tuple(1 if t == i else 0 for t in range(d))
                sub = ann_piece(f, u)
                assert sub.codim <= n ** (d - 1)
                if is_concise(f):
                    assert sub.codim == n

    def test_factor_permutation_invariance(self):
        rng = random.Random(10)
        f = random_symmetric_tensor(2, 3, rng)
        ring = segre_ring(2, 3)
        sub_a = ann_piece(f, (1, 1, 0))
        sub_b = ann_piece(f, (0, 1, 1))
        # relabel factors by the cycle sending (1,1,0) to (0,1,1)
        perm = (2, 0, 1)  # new factor i reads old factor perm[i]
        basis_a = monomials(ring, (1, 1, 0))
        relabeled = []
        for row in sub_a.basis:
            out = [Fraction(0)] * dim_piece(ring, (0, 1, 1))
            for col, c in enumerate(row):
                if c:
                    mono = basis_a[col]
                    new_mono = tuple(mono[perm[i]] for i in range(3))
                    from borderapolar.grading import rank_monomial

                    out[rank_monomial(ring, new_mono)] = c
            relabeled.append(out)
        from borderapolar.linalg import Subspace

        assert Subspace.from_rows(dim_piece(ring, (0, 1, 1)), sparse_rows(relabeled)) == sub_b


class TestAnnSymPiece:
    def test_product_of_variables(self):
        sub = ann_sym_piece(HomPoly(2, 2, {(1, 1): 1}), 2)
        assert sub.basis == ((1, 0, 0), (0, 0, 1))

    def test_fermat_cubic(self):
        sub = ann_sym_piece(HomPoly(2, 3, {(3, 0): 1, (0, 3): 1}), 2)
        assert sub.basis == ((0, 1, 0),)

    def test_above_degree_full(self):
        p = HomPoly(2, 3, {(3, 0): 1})
        assert ann_sym_piece(p, 4).is_full

    def test_integral_floats_read_as_ints(self):
        """2.0 reads as 2 wherever an integer is read (tests/test_refusals.py
        has the values that are refused)."""
        p = HomPoly(2.0, 3.0, {(3.0, 0): 1, (0, 3): 1})
        assert p == HomPoly(2, 3, {(3, 0): 1, (0, 3): 1})
        assert (p.n, p.d) == (2, 3) and type(p.n) is int
        assert ann_sym_piece(p, 2.0) == ann_sym_piece(p, 2)
        f = GeneralTensor(2.0, 2.0, {(1.0, 0): 1})
        assert f == GeneralTensor(2, 2, {(1, 0): 1}) and list(f.entries) == [(1, 0)]


class TestCatalecticant:
    """`ann_sym_piece` reads the catalecticant from its one writer,
    `_catalecticant`, and `contract_poly` through `grading.contractions`; the
    references look up every (mu, delta) pair, or compose the colon one
    variable step at a time."""

    @staticmethod
    def _forms(rng, field):
        for n, d in itertools.product((1, 2, 3, 4), (1, 2, 3, 4)):
            monos = monomials(veronese_ring(n), d)
            dense = {m: Fraction(rng.randint(1, 9), rng.choice((1, 2, 3))) * rng.choice((1, -1))
                     for m in monos}
            sparse = {m: rng.randint(-5, 5) for m in rng.sample(monos, min(2, len(monos)))}
            power = {(d,) + (0,) * (n - 1): 1}
            for terms in (dense, sparse, {}, power):
                yield HomPoly(n, d, terms, field=field)

    @pytest.mark.parametrize("field", [QQ, PrimeField(2**31 - 1)], ids=["QQ", "GFp"])
    def test_matches_the_pair_lookup(self, field):
        rng = random.Random(20)
        for p in self._forms(rng, field):
            ring = veronese_ring(p.n)
            for k in range(p.d + 2):
                got, want = ann_sym_piece(p, k), ann_sym_piece_reference(p, k)
                # held by the RREF of Cat_k's rows (none above d), the basis made when read
                rows = Subspace.from_rows(want.ambient_dim, catalecticant_reference(p, k),
                                          field=field)
                assert got.held_by_perp and got.perp == rows.sparse, (p.terms, k)
                assert repr(got.sparse) == repr(want.sparse), (p.terms, k)
                assert got == want
                g = _random_element(ring, k, rng, field)
                got, want = contract_poly(g, p), contract_poly_reference(g, p)
                assert (got.n, got.d, got.field) == (want.n, want.d, want.field)
                assert repr(sorted(got.terms.items())) == repr(sorted(want.terms.items())), (
                    p.terms, g.coords)


    @pytest.mark.parametrize("field", [QQ, PrimeField(2**31 - 1)], ids=["QQ", "GFp"])
    def test_writer_is_the_pair_lookup_up_to_scale(self, field):
        """Row mu of `_catalecticant` is mu! times row mu of the pair lookup,
        all times one common positive scale, which is 1 over GF(p), and its
        entries are ints."""
        rng = random.Random(20)
        for p in self._forms(rng, field):
            ring = veronese_ring(p.n)
            for k in range(p.d + 2):
                got, want = list(_catalecticant(p, k)), catalecticant_reference(p, k)
                if k > p.d:
                    assert got == want == []
                    continue
                assert len(got) == len(want) == dim_piece(ring, p.d - k)
                scales = set()
                for mu, got_row, want_row in zip(monomials(ring, p.d - k), got, want):
                    assert [c for c, _ in got_row] == [c for c, _ in want_row], (p.terms, k, mu)
                    assert all(type(x) is int for _, x in got_row)
                    w = math.prod(map(math.factorial, mu))
                    scales |= {field.of(x) / (y * w) for (_, x), (_, y) in zip(got_row, want_row)}
                assert len(scales) <= 1, (p.terms, k)
                assert all(s > 0 for s in scales) if field is QQ else scales <= {field.one}

    @pytest.mark.parametrize("field", [QQ, PrimeField(2**31 - 1)], ids=["QQ", "GFp"])
    def test_is_the_colon_of_the_hyperplane(self, field):
        """Ann(p)_k = (p^perp : V_{d-k})_k, where p^perp is the hyperplane of V_d
        that the pairing with p cuts out (all of V_d for p = 0)."""
        rng = random.Random(27)
        for n, d in itertools.product((1, 2, 3), (1, 2, 3, 4)):
            ring = veronese_ring(n)
            forms = ({}, power_of_form(random_forms(n, 1, rng)[0], d).terms,
                     random_form(n, d, rng).terms)
            for terms in forms:
                p = HomPoly(n, d, terms, field=field)
                pairing = [(c, p.terms[m] * math.prod(map(math.factorial, m)))
                           for c, m in enumerate(monomials(ring, d)) if m in p.terms]
                hyperplane = kernel(dim_piece(ring, d), [pairing], field=field)
                for k in range(d + 1):
                    got, want = ann_sym_piece(p, k), colon_reference(ring, k, d - k, hyperplane)
                    assert got == want and got.field == want.field == field, (terms, k)


class TestFlattenings:
    def test_diagonal_concise(self):
        f = diagonal_tensor(3, 3)
        assert flattening_ranks(f) == (3, 3, 3)
        assert is_concise(f)
        assert flattening_lower_bound(f) == 3

    def test_rank_one_not_concise(self):
        f = GeneralTensor(2, 3, {(0, 0, 0): 1})
        assert flattening_ranks(f) == (1, 1, 1)
        assert not is_concise(f)
        assert flattening_lower_bound(f) == 1

    def test_polarized_monomial(self):
        f = polarize(HomPoly(2, 3, {(2, 1): 1}))
        assert is_concise(f)
        assert flattening_ranks(f) == (2, 2, 2)
        assert flattening_lower_bound(f) == 2
