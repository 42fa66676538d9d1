"""Tests for Macaulay representations, sharpness, and the supporting identities."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from borderapolar import apolarity, bounds
from borderapolar.apolarity import (
    GeneralTensor,
    HomPoly,
    SymTensor,
    ann_piece,
    ann_sym_piece,
    depolarize,
    is_concise,
    polarize,
    slice_spans,
)
from borderapolar.bounds import (
    MacaulayRep,
    is_111_sharp,
    is_sharp,
    macaulay_bound,
    macaulay_rep,
    min_generators_degree_one,
    min_generators_sym_in_degree,
    verify_containment_lemma,
    verify_gen_count_transfer,
    verify_lemma_1_minus_ed,
)
from borderapolar.diagonal_maps import pi_image, proper_unit_box_degrees
from borderapolar.grading import dim_piece, monomials, segre_ring, veronese_ring
from borderapolar.linalg import QQ, PrimeField, Subspace
from borderapolar.ideals import multiply_vector_by_variable
from borderapolar.selftest import random_forms
from borderapolar.transfer import tensor_digest
from support import (
    concise_power_sum_instance,
    diagonal_tensor,
    independent_forms,
    is_sharp_reference,
    min_generators_degree_one_reference,
    min_generators_sym_in_degree_reference,
    proper_degree_annihilator_ideal,
    random_symmetric_tensor,
    slice_spans_reference,
    sum_of_powers_tensor,
    verify_containment_lemma_reference,
    verify_lemma_1_minus_ed_reference,
)


def test_every_certificate_digests_the_tensor(monkeypatch):
    """Each certificate here digests F as `tensor_digest` does, byte for byte as
    before (the sorted entries are hashed as a list), and only when
    `inputs_digest` is read."""
    f = concise_power_sum_instance(3, 3, random.Random(64))
    digested = []
    monkeypatch.setattr(bounds, "tensor_digest",
                        lambda g: digested.append(g) or tensor_digest(g))
    for check in (is_sharp, is_111_sharp, verify_lemma_1_minus_ed, verify_gen_count_transfer,
                  verify_containment_lemma):
        cert = check(f)
        assert cert.verdict and digested == []
        assert cert.inputs_digest == tensor_digest(f) and digested == [f]
        assert cert.to_dict()["inputs_digest"] == tensor_digest(f) and digested == [f]
        digested.clear()
    assert is_sharp(diagonal_tensor(3, 3)).inputs_digest == "c7fc4eedcadb168b"


def all_representations(m, a):
    """Exhaustive oracle: every strictly-decreasing binomial decomposition of m."""
    found = []

    def rec(i, rem, prefix, k_cap):
        if rem == 0:
            found.append(tuple(prefix))
            return
        if i < 1:
            return
        for k in range(i, k_cap):
            c = math.comb(k, i)
            if c > rem:
                break
            rec(i - 1, rem - c, prefix + [(k, i)], k)

    rec(a, m, [], m + a + 2)
    return found


class TestMacaulayRep:
    def test_example(self):
        rep = macaulay_rep(5, 2)
        assert rep.terms == ((3, 2), (2, 1))
        assert rep.reconstruct() == 5

    def test_zero(self):
        assert macaulay_rep(0, 4).terms == ()
        assert macaulay_bound(0, 4) == 0

    def test_reconstruction_range(self):
        for a in range(1, 9):
            for m in range(0, 201):
                assert macaulay_rep(m, a).reconstruct() == m

    def test_uniqueness_vs_exhaustive(self):
        for a in range(1, 6):
            for m in range(1, 51):
                reps = all_representations(m, a)
                # exactly one valid representation exists and greedy finds it
                assert len(reps) == 1, (m, a, reps)
                assert reps[0] == macaulay_rep(m, a).terms

    def test_validation(self):
        with pytest.raises(ValueError):
            MacaulayRep(5, 2, ((2, 2), (3, 1)))  # tops must decrease
        with pytest.raises(ValueError):
            MacaulayRep(4, 2, ((3, 2),))  # does not sum to m


class TestMacaulayBound:
    def test_example(self):
        assert macaulay_bound(5, 2) == 7  # C(4,3) + C(3,2)

    @pytest.mark.parametrize("a", range(1, 7))
    def test_fixpoint_below_a(self, a):
        for m in range(0, a + 1):
            assert macaulay_bound(m, a) == m

    def test_monotone_in_m(self):
        for a in range(1, 6):
            vals = [macaulay_bound(m, a) for m in range(0, 60)]
            assert all(x <= y for x, y in zip(vals, vals[1:]))

    def test_bounds_actual_hilbert_growth(self):
        # the shifted sum really does bound HF(a+1) by HF(a)^<a> on graded
        # quotients: cross-check against point ideals of varying size
        from borderapolar.grading import veronese_ring
        from borderapolar.ideals import (
            hilbert_function,
            point_ideal,
            very_general_points,
        )

        rng = random.Random(46)
        for r in (1, 3, 5, 8):
            z = very_general_points(veronese_ring(3), r, 5, rng)
            j = point_ideal(z, 5)
            for a in range(1, 5):
                assert hilbert_function(j, a + 1) <= macaulay_bound(
                    hilbert_function(j, a), a
                )


class TestSharpness:
    def test_diagonal_tensors_sharp(self):
        for n in (2, 3):
            f = diagonal_tensor(n, 3)
            assert is_sharp(f).verdict
            assert is_111_sharp(f).verdict

    def test_diagonal_d4(self):
        assert is_sharp(diagonal_tensor(2, 4)).verdict

    def test_unit_rank_one_edge(self):
        # n=1: zero generators required, all Hilbert values equal 1
        f = diagonal_tensor(1, 3)
        assert is_sharp(f).verdict
        assert is_111_sharp(f).verdict

    def test_condition_two_automatic_for_d3(self):
        rng = random.Random(41)
        for n in (2, 3):
            f = concise_power_sum_instance(n, 3, rng)
            for u in proper_unit_box_degrees(3):
                assert ann_piece(f, u).codim == n

    def test_sharp_iff_111_on_power_sums(self):
        rng = random.Random(42)
        for _ in range(10):
            n = rng.choice((2, 3))
            f = concise_power_sum_instance(n, 3, rng)
            assert is_sharp(f).verdict == is_111_sharp(f).verdict

    def test_minimal_border_rank_diagonals_111(self):
        for n in range(2, 6):
            assert is_111_sharp(diagonal_tensor(n, 3)).verdict

    @pytest.mark.parametrize("check", [is_sharp, verify_lemma_1_minus_ed,
                                       verify_gen_count_transfer, verify_containment_lemma],
                             ids=lambda fn: fn.__name__)
    def test_a_concise_tensor_that_is_not_symmetric_is_refused(self, check):
        f = GeneralTensor(2, 3, {(0, 0, 0): 1, (1, 1, 1): 1, (0, 1, 1): 1})
        assert is_concise(f)
        with pytest.raises(ValueError, match="^sharpness is defined for symmetric tensors$"):
            check(f)

    def test_guards(self):
        with pytest.raises(ValueError):
            is_111_sharp(diagonal_tensor(2, 4))  # d != 3
        from borderapolar.apolarity import SymTensor

        with pytest.raises(ValueError):
            is_sharp(SymTensor(2, 3, {(0, 0, 0): 1}))  # not concise


class TestGeneratorCounts:
    def test_diagonal_n2(self):
        f = diagonal_tensor(2, 3)
        assert min_generators_degree_one(f) == 1
        assert min_generators_sym_in_degree(depolarize(f), 3) == 1

    def test_diagonal_n3(self):
        f = diagonal_tensor(3, 3)
        assert min_generators_degree_one(f) == 2
        assert min_generators_sym_in_degree(depolarize(f), 3) == 2

    def test_transfer_on_power_sums(self):
        rng = random.Random(43)
        for _ in range(3):
            f = concise_power_sum_instance(3, 3, rng)
            cert = verify_gen_count_transfer(f)
            assert cert.verdict, cert.witnesses

    @staticmethod
    def _forms(field) -> list:
        """Concise (power sums of n and n + 1 forms, random dense forms),
        non-concise (x^d, a form in fewer variables, a sparse form) and zero
        forms, n = 1 ... 4, d = 0 ... 5."""
        rng = random.Random(44)
        forms = [HomPoly(n, d, {}, field=field) for n, d in [(1, 0), (2, 0), (2, 3), (3, 2)]]
        for n, d in [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 4),
                     (4, 3)]:
            for count in (n, n + 1):
                forms.append(depolarize(sum_of_powers_tensor(n, d, random_forms(n, count, rng))))
            terms = random_symmetric_tensor(n, d, rng).form.terms
            forms.append(HomPoly(n, d, dict(terms), field=field))
            forms.append(HomPoly(n, d, {(d,) + (0,) * (n - 1): 3}, field=field))
            if n > 1:
                forms.append(HomPoly(n, d, {m: c for m, c in terms.items() if not m[-1]},
                                     field=field))
                forms.append(HomPoly(n, d, dict(list(terms.items())[:2]), field=field))
        return [HomPoly(p.n, p.d, dict(p.terms), field=field) for p in forms]

    @pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["QQ", "GFp"])
    def test_form_side_count_equals_the_primal_count(self, field):
        """The annihilator-side count against the kernel-and-span count it
        replaced, at every degree k = 0 ... d + 1."""
        forms = self._forms(field)
        counts = set()
        for p in forms:
            for k in range(p.d + 2):
                count = min_generators_sym_in_degree(p, k)
                assert count == min_generators_sym_in_degree_reference(p, k), (p.terms, k)
                counts.add(count)
        assert len(forms) == 60 and len(counts) > 3

    def test_form_side_count_builds_no_annihilator_piece(self, eliminations):
        # Cat_{d-1}'s row span, one step from below in n^2 unknowns and the
        # rank of Cat_d, where the primal count made the kernels Ann(p)_d
        # (1 x 20) and Ann(p)_{d-1} (4 x 10) and spanned V_1 Ann(p)_{d-1}
        # from n dim Ann(p)_{d-1} = 24 rows
        p = depolarize(concise_power_sum_instance(4, 3, random.Random(45)))
        eliminations.clear()
        assert min_generators_sym_in_degree(p, 3) == 3
        assert eliminations == [(4, 10), (20, 16), (1, 20)]

    def test_form_side_count_refuses_a_bad_degree(self):
        p = depolarize(diagonal_tensor(2, 3))
        for k, message in [(-1, "negative degree"), (1.5, "not an integer"),
                           ("2", "not an integer")]:
            with pytest.raises(ValueError, match=message):
                min_generators_sym_in_degree(p, k)


def _unit_rows(p, k):
    """A wrong form side: the unit rows of V_k^*, which cut out Ann(p)_k = 0."""
    return [[(c, 1)] for c in range(dim_piece(veronese_ring(p.n), k))]


class TestLemmaSuite:
    def test_one_minus_last_equality_on_diagonals(self):
        for n, d in ((2, 3), (3, 3), (2, 4)):
            cert = verify_lemma_1_minus_ed(diagonal_tensor(n, d))
            assert cert.verdict
            assert cert.witnesses[0]["equal"]

    def test_one_minus_last_containment_always(self):
        rng = random.Random(44)
        from support import random_symmetric_tensor
        from borderapolar.apolarity import is_concise

        count = 0
        while count < 6:
            n, d = rng.choice(((2, 3), (3, 3), (2, 4)))
            f = random_symmetric_tensor(n, d, rng)
            if not is_concise(f):
                continue
            count += 1
            cert = verify_lemma_1_minus_ed(f)
            assert cert.verdict  # containment holds unconditionally

    def test_generic_quartic_equality(self):
        rng = random.Random(45)
        from support import random_symmetric_tensor
        from borderapolar.apolarity import is_concise

        while True:
            f = random_symmetric_tensor(2, 4, rng)
            if is_concise(f):
                break
        cert = verify_lemma_1_minus_ed(f)
        assert cert.verdict and cert.witnesses[0]["equal"]

    def test_containment_lemma_diagonals(self):
        for n, d in ((2, 3), (3, 3), (2, 4), (3, 4)):
            assert verify_containment_lemma(diagonal_tensor(n, d)).verdict

    def test_containment_lemma_vacuous_case(self):
        # a concise cubic whose proper-degree annihilator pieces vanish would be
        # vacuous; generic power sums have nonzero pieces, so check the flag
        f = diagonal_tensor(2, 3)
        cert = verify_containment_lemma(f)
        assert "vacuous" in cert.witnesses[0]

    @pytest.mark.parametrize("check, patched, fake, failure, witness", [
        (verify_lemma_1_minus_ed, "_catalecticant", _unit_rows,
         "the projected annihilator piece is not apolar to the form",
         {"degree": (1, 1, 0), "dim_image": 3, "dim_target": 0, "contained": False,
          "equal": False}),
        (verify_gen_count_transfer, "min_generators_sym_in_degree", lambda p, k: 3,
         "generator counts differ: 2 vs 3", {"tensor_side": 2, "form_side": 3, "ok": False}),
        (verify_containment_lemma, "_catalecticant", _unit_rows,
         "the projected piece escapes the form's annihilator",
         {"degree": (2, 1, 0), "dim_image": 7, "dim_target": 0, "ok": False, "vacuous": False}),
    ], ids=["lemma_1_minus_ed", "gen_count_transfer", "containment_lemma"])
    def test_each_check_can_fail(self, monkeypatch, check, patched, fake, failure, witness):
        """Each identity holds for every concise symmetric F, so its failing
        verdict is driven by a wrong form side: catalecticant rows that span
        all of V_k^*, so that Ann(p_F)_k = 0, or a generator count off by one."""
        monkeypatch.setattr(bounds, patched, fake)
        cert = check(diagonal_tensor(3, 3))
        assert (cert.verdict, cert.failure, cert.witnesses[-1]) == (False, failure, witness)

    def test_intermediate_claims_n2_d4(self):
        """The stepwise containments behind the proper-ideal lemma, s = 1..d-2."""
        n, d = 2, 4
        f = diagonal_tensor(n, d)
        p = depolarize(f)
        ideal = proper_degree_annihilator_ideal(f, d)
        ring = segre_ring(n, d)
        ann_dm1 = ann_sym_piece(p, d - 1)
        dim = dim_piece(veronese_ring(n), d)
        v1_ann = Subspace.from_rows(dim, [
            multiply_vector_by_variable(veronese_ring(n), d - 1, b, 0, j)
            for b in ann_dm1.sparse
            for j in range(n)
        ])
        for s in range(1, d - 1):
            deg_a = tuple(
                (s if t == 0 else 0) + (1 if 1 <= t <= d - s - 1 else 0)
                for t in range(d)
            )
            lifted_a = pi_image(n, d, deg_a, ideal.piece(deg_a))
            assert ann_dm1.contains(lifted_a), f"A({s})"
            deg_b = tuple(
                (s + 1 if t == 0 else 0) + (1 if 1 <= t <= d - s - 1 else 0)
                for t in range(d)
            )
            lifted_b = pi_image(n, d, deg_b, ideal.piece(deg_b))
            assert v1_ann.contains(lifted_b), f"B({s})"


# -- elimination counts and the short side -------------------------------------------

def _recording(monkeypatch, name):
    """Patch bounds.<name> to record the degree (second argument) of each call."""
    seen = []
    real = getattr(bounds, name)

    def wrapper(*args, **kwargs):
        seen.append(tuple(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(bounds, name, wrapper)
    return seen


class TestEliminationCounts:
    @pytest.mark.parametrize("n,d,count", [(3, 3, 4), (2, 4, 6)])
    def test_containment_lemma_reads_the_down_set_only(self, monkeypatch, eliminations,
                                                       n, d, count):
        # one slice span (F's d flattenings are equal), the proper piece at
        # e_1 + e_2 for d >= 4 (R_3 is its annihilator at d = 3), one
        # annihilator step at each k e_1 + e_2, k = 1..d-2, in n codim
        # unknowns, the containment rank on codim + 1 rows and the fibre
        # rank in codim unknowns: d + 1 eliminations, and one more for d >= 4
        f = concise_power_sum_instance(n, d, random.Random(60 + d))
        ann = _recording(monkeypatch, "ann_piece")
        steps = _recording(monkeypatch, "annihilator_from_below")
        eliminations.clear()
        assert verify_containment_lemma(f).verdict
        assert len(eliminations) == count == d + 1 + (d > 3)
        u = (d - 1, 1) + (0,) * (d - 2)
        built = ann + steps
        assert all(all(a <= b for a, b in zip(v, u)) for v in built), built
        assert ann == ([(1, 1) + (0,) * (d - 2)] if d > 3 else [])
        assert steps == [(s, 1) + (0,) * (d - 2) for s in range(1, d - 1)]
        chain = eliminations[len(eliminations) - d:-2]
        assert [cols for _, cols in chain] == [n * n] * (d - 2)
        assert eliminations[-2] == (n + 1, math.comb(n + d - 2, d - 1) * n)
        assert eliminations[-1][1] == n

    @pytest.mark.parametrize("n,d", [(2, 3), (3, 3), (2, 4), (2, 5)])
    def test_is_sharp_builds_one_unit_box_piece_per_weight(self, monkeypatch, n, d):
        # the pieces of weight 1 and d-1 are read off the slice spans, and the
        # growth chain steps along factor 0 from e_0 + e_1 alone
        seen = _recording(monkeypatch, "ann_piece")
        steps = _recording(monkeypatch, "annihilator_from_below")
        assert is_sharp(concise_power_sum_instance(n, d, random.Random(61))).verdict
        assert seen == [(1,) * w + (0,) * (d - w) for w in range(2, d - 1)]
        assert steps == [(s, 1) + (0,) * (d - 2) for s in range(1, d - 1)]

    @pytest.mark.parametrize("check", [is_sharp, verify_gen_count_transfer,
                                       verify_containment_lemma, is_111_sharp],
                             ids=lambda fn: fn.__name__)
    def test_second_call_does_the_same_work(self, eliminations, check):
        # nothing computed for a tensor may outlive the call that computed it
        f = concise_power_sum_instance(3, 3, random.Random(62))
        eliminations.clear()
        first = check(f).to_dict()
        shapes = list(eliminations)
        eliminations.clear()
        assert check(f).to_dict() == first
        assert eliminations == shapes and shapes

    @pytest.mark.parametrize("check,count", [(is_111_sharp, 2), (verify_gen_count_transfer, 5),
                                             (is_sharp, 3)],
                             ids=lambda v: getattr(v, "__name__", str(v)))
    def test_slice_spans_are_reduced_once(self, eliminations, check, count):
        # conciseness is read off the slice spans the degree-one count uses,
        # and F's 3 flattenings are equal: 1 span and the short system, then
        # 3 Veronese-side eliminations for the generator-count transfer and
        # 1 growth step for sharpness, whose unit-box values and first
        # annihilator are the slice spans; reducing each flattening would add
        # 2 to each
        f = concise_power_sum_instance(4, 3, random.Random(63))
        eliminations.clear()
        assert check(f).verdict
        assert len(eliminations) == count

    @pytest.mark.parametrize("n,d,count", [(4, 3, 3), (2, 4, 5), (2, 5, 7)])
    def test_is_sharp_uses_one_piece_per_weight_and_one_growth_chain(self, eliminations,
                                                                    n, d, count):
        # one slice span and the short system, d-3 unit-box pieces (weights
        # 2..d-2) and d-2 growth steps, for (i, j) = (0, 1) alone, each in
        # n codim = n^2 unknowns: 2d - 3 eliminations
        f = concise_power_sum_instance(n, d, random.Random(63))
        eliminations.clear()
        assert is_sharp(f).verdict
        assert len(eliminations) == count == 2 * d - 3
        assert [cols for _, cols in eliminations[-(d - 2):]] == [n * n] * (d - 2)

    def test_degree_one_count_is_one_short_system(self, eliminations):
        # one slice span of shape n x n^(d-1) (F's d flattenings are equal),
        # then one system with a row for each of the n dim R_0 unknowns and
        # n (n^(d-1) - dim R_i) columns per factor i >= 1 written: factor 1
        # alone for a SymTensor (16 x 48), each of the d-1 for a GeneralTensor
        # with the same entries (16 x 96)
        f = concise_power_sum_instance(4, 3, random.Random(63))
        for g, shape in ((f, (16, 48)), (GeneralTensor(4, 3, f.entries), (16, 96))):
            eliminations.clear()
            assert min_generators_degree_one(g) == 3
            assert eliminations == [(4, 16), shape]
        f = concise_power_sum_instance(3, 4, random.Random(63))
        eliminations.clear()
        assert min_generators_degree_one(f) == 2
        assert eliminations == [(3, 27), (9, 72)]


def _random_tensor(n, d, rng, field, symmetric):
    """A random tensor with entries in [-2, 2], a random share of them zero."""
    if symmetric:
        f = random_symmetric_tensor(n, d, rng)
        return SymTensor(n, d, f.entries, field=field)
    density = rng.choice((0.2, 0.5, 1.0))
    entries = {idx: rng.randint(-2, 2) for idx in itertools.product(range(n), repeat=d)
               if rng.random() < density}
    return GeneralTensor(n, d, entries, field=field)


def _not_concise(n, d, rng, field):
    """Two tensors that are not concise: one supported on the first n-1
    coordinates of every factor, and one whose last slice along factor 0
    repeats its first, so that its raw slices are dependent."""
    small = {idx: rng.randint(1, 3) for idx in itertools.product(range(n - 1), repeat=d)}
    slices = [_random_tensor(n, d - 1, rng, field, False).entries for _ in range(n - 1)]
    slices.append(slices[0])
    repeated = {(a,) + idx: x for a, s in enumerate(slices) for idx, x in s.items()}
    return [GeneralTensor(n, d, small, field=field), GeneralTensor(n, d, repeated, field=field)]


def _short_side_tensors(field) -> list:
    """For each n in 1..3 and d in 2..4: the zero tensor, two random symmetric
    tensors, two random general ones and, for n > 1, the two of `_not_concise`."""
    rng = random.Random(64)
    tensors = []
    for n in (1, 2, 3):
        for d in (2, 3, 4):
            tensors.append(GeneralTensor(n, d, {}, field=field))
            for symmetric in (True, False):
                tensors += [_random_tensor(n, d, rng, field, symmetric) for _ in range(2)]
            if n > 1:
                tensors += _not_concise(n, d, rng, field)
    return tensors


class TestShortSideCount:
    @pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["QQ", "GFp"])
    def test_agrees_with_the_from_below_oracle(self, field):
        tensors = _short_side_tensors(field)
        concise = [f for f in tensors if is_concise(f)]
        assert len(tensors) == 57 and 10 < len(concise) < 50
        for f in tensors:
            assert min_generators_degree_one(f) == min_generators_degree_one_reference(f), f

    def test_power_sums_and_diagonals(self):
        rng = random.Random(65)
        for n, d in ((2, 3), (3, 3), (2, 4), (3, 4), (4, 3)):
            for f in (diagonal_tensor(n, d), concise_power_sum_instance(n, d, rng)):
                assert min_generators_degree_one(f) == n - 1
                assert min_generators_degree_one_reference(f) == n - 1


def _distinct_flattenings(f) -> int:
    """How many of F's d flattenings differ, each read as its set of
    ((slice index, other indices), value) entries."""
    return len({frozenset(((idx[i],) + idx[:i] + idx[i + 1:], x) for idx, x in f.entries.items())
                for i in range(f.order)})


class TestSliceSpans:
    @pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["QQ", "GFp"])
    def test_equal_the_per_factor_reductions(self, eliminations, field):
        # each distinct flattening is reduced once: 1 elimination when all d
        # agree (F symmetric, whatever its type), d when all differ
        rng = random.Random(68)
        tensors = []
        for n, d in ((1, 2), (2, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4)):
            sym = random_symmetric_tensor(n, d, rng).entries
            # symmetric in the last d-1 factors only: d-1 equal flattenings
            last = {(a,) + idx: x for a in range(n)
                    for idx, x in random_symmetric_tensor(n, d - 1, rng).entries.items()}
            tensors += [("symmetric", SymTensor(n, d, sym, field=field)),
                        ("symmetric", GeneralTensor(n, d, sym, field=field)),
                        ("other", GeneralTensor(n, d, last, field=field)),
                        ("other", _random_tensor(n, d, rng, field, False))]
            if n > 1:
                tensors += [("other", f) for f in _not_concise(n, d, rng, field)]
        seen = set()
        for kind, f in tensors:
            eliminations.clear()
            spans = slice_spans(f)
            count = len(eliminations)
            assert spans == slice_spans_reference(f), f
            assert all(span.field == field for span in spans)
            assert count == _distinct_flattenings(f), f
            if kind == "symmetric":
                assert count == 1, f
            seen.add("one" if count == 1 else "all" if count == f.order else "some")
        assert len(tensors) == 40 and seen == {"one", "some", "all"}


class TestSymmetricShortcut:
    """A `SymTensor` reduces one flattening and writes one constraint block;
    a `GeneralTensor` with the same entries takes the general path."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["QQ", "GFp"])
    def test_symmetric_and_general_counts_agree(self, field):
        # the tensors of TestShortSideCount with symmetric entries, the zero
        # ones among them, and a few at d = 5
        tensors = [f for f in _short_side_tensors(field) if isinstance(f, SymTensor) or f.is_zero]
        rng = random.Random(65)
        for n, d in ((2, 3), (3, 3), (2, 4), (3, 4), (4, 3)):
            tensors += [diagonal_tensor(n, d), concise_power_sum_instance(n, d, rng)]
        rng = random.Random(69)
        for n in (2, 3):
            tensors += [diagonal_tensor(n, 5), concise_power_sum_instance(n, 5, rng),
                        random_symmetric_tensor(n, 5, rng), _sparse_symmetric_tensor(n, 5, rng)]
        counts = set()
        for f in tensors:
            sym = SymTensor(f.n, f.order, f.entries, field=field)
            general = GeneralTensor(f.n, f.order, f.entries, field=field)
            count = min_generators_degree_one(sym)
            assert count == min_generators_degree_one(general), f
            assert count == min_generators_degree_one_reference(sym), f
            counts.add(count)
        assert len(tensors) == 48 and len(counts) > 3

    @pytest.mark.parametrize("n,d", [(1, 1), (2, 2), (3, 3), (2, 5)])
    def test_slice_spans_builds_one_flattening(self, monkeypatch, n, d):
        built = []
        real = apolarity._contraction_rows
        monkeypatch.setattr(apolarity, "_contraction_rows",
                            lambda f, picked: built.append(list(picked)) or real(f, picked))
        f = random_symmetric_tensor(n, d, random.Random(70))
        spans = slice_spans(f)
        assert built == [list(range(1, d))]
        assert len(spans) == d and all(span is spans[0] for span in spans)
        assert spans == slice_spans_reference(f)
        built.clear()
        contracted = SymTensor(n, d, f.entries, factors=range(1, d + 1))
        with pytest.raises(ValueError, match="on all original factors"):
            slice_spans(contracted)
        assert built == []

    def test_order_zero_has_no_spans(self):
        for f in (SymTensor(2, 0, {(): 3}), GeneralTensor(2, 0, {(): 3})):
            assert slice_spans(f) == []


class TestDownSetPiece:
    @pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["QQ", "GFp"])
    def test_equals_the_piece_of_the_full_ideal(self, monkeypatch, field):
        # the growth chain ends at P^perp for the piece P at (d-1, 1, 0, ...)
        # of the ideal that the proper unit-box pieces generate
        captured = []
        real = bounds._growth_chain
        monkeypatch.setattr(bounds, "_growth_chain",
                            lambda f, first: captured.append(real(f, first)) or captured[-1])
        rng = random.Random(66)
        for n, d in ((2, 3), (3, 3), (2, 4), (3, 4)):
            for f in (diagonal_tensor(n, d), concise_power_sum_instance(n, d, rng)):
                f = SymTensor(n, d, f.entries, field=field)
                captured.clear()
                assert verify_containment_lemma(f).verdict
                (chain,), u = captured, (d - 1, 1) + (0,) * (d - 2)
                piece = proper_degree_annihilator_ideal(f, d).piece(u)
                perp = Subspace.from_rows(piece.ambient_dim, chain[-1], field=field)
                assert len(chain) == d - 1 and len(chain[-1]) == perp.dim == piece.codim
                assert perp == Subspace.from_rows(piece.ambient_dim, piece.constraints(),
                                                  field=field)
                assert perp.field == field and not piece.is_zero


def _sparse_symmetric_tensor(n, d, rng):
    """The polarization of a form with n + 1 random monomials, coefficients +-1, +-2."""
    monos = monomials(veronese_ring(n), d)
    terms = {m: F(rng.choice((-2, -1, 1, 2))) for m in rng.sample(monos, min(len(monos), n + 1))}
    return polarize(HomPoly(n, d, terms))


def _reference_tensors(rng) -> list:
    """A concise tensor that is not symmetric, a symmetric one that is not
    concise, and for each shape a power sum of n forms, one of n + 1 forms, a
    random symmetric tensor and a sparse one."""
    tensors = [GeneralTensor(2, 3, {(0, 0, 0): 1, (1, 1, 1): 1, (0, 1, 1): 1}),
               SymTensor(2, 4, {(0,) * 4: 1})]
    for n, d in ((1, 3), (2, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (2, 5)):
        tensors += [sum_of_powers_tensor(n, d, independent_forms(n, rng)),
                    sum_of_powers_tensor(n, d, random_forms(n, n + 1, rng)),
                    random_symmetric_tensor(n, d, rng), _sparse_symmetric_tensor(n, d, rng)]
    return tensors


def _in_field(f, field):
    kind = SymTensor if isinstance(f, SymTensor) else GeneralTensor
    return kind(f.n, f.order, f.entries, field=field)


def _outcome(check, f):
    """The certificate as `to_dict` gives it, or the refusal's message."""
    try:
        return check(f).to_dict()
    except ValueError as exc:
        return str(exc)


class TestSharpnessAgainstReference:
    @pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["QQ", "GFp"])
    def test_certificates_equal_the_per_degree_per_pair_oracle(self, field):
        tensors = _reference_tensors(random.Random(67))
        outcomes, failing = set(), set()
        for f in tensors:
            f = _in_field(f, field)
            results = [_outcome(check, f) for check in (is_sharp, is_sharp_reference)]
            assert results[0] == results[1], f
            got = results[0]
            outcomes.add(got if isinstance(got, str) else got["verdict"])
            if isinstance(got, dict):
                failing |= {w["stage"] for w in got["witnesses"] if w.get("ok") is False}
        assert outcomes == {"pass", "fail", "sharpness is defined for symmetric tensors",
                            "sharpness is defined for concise tensors",
                            "sharpness needs at least three factors"}
        assert failing == {"degree-one-generators", "unit-box-hilbert", "two-factor-growth"}

    @pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=["QQ", "GFp"])
    def test_lemma_certificates_equal_the_primal_oracle(self, field):
        # the annihilator-side lemmas against the kernels, pi-images and
        # containments of the primal path, on the tensors above: sharp and
        # not sharp, with images of every dimension and both equalities
        tensors = _reference_tensors(random.Random(71))
        rng = random.Random(72)
        for n, d in ((2, 3), (3, 3), (2, 4), (3, 4)):
            tensors += [sum_of_powers_tensor(n, d, random_forms(n, n + 2, rng)),
                        diagonal_tensor(n, d)]
        seen = set()
        for f in tensors:
            f = _in_field(f, field)
            for check, oracle in ((verify_lemma_1_minus_ed, verify_lemma_1_minus_ed_reference),
                                  (verify_containment_lemma,
                                   verify_containment_lemma_reference)):
                got = _outcome(check, f)
                assert got == _outcome(oracle, f), (check.__name__, f)
                if isinstance(got, dict):
                    w = got["witnesses"][0]
                    seen.add((check.__name__, w.get("equal", w.get("vacuous"))))
                    seen.add(w["dim_image"])
        # equality of the lemma's two sides held on every concise form tried;
        # test_each_check_can_fail makes it fail
        assert {(verify_lemma_1_minus_ed.__name__, True), (verify_containment_lemma.__name__, True),
                (verify_containment_lemma.__name__, False)} <= seen
        assert len(seen) > 10
