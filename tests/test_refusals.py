"""The input checks of each package module: every refusal raises its own
message, one group of cases per module."""

import random
from types import SimpleNamespace

import pytest

from borderapolar.apolarity import (
    GeneralTensor,
    HomPoly,
    SymTensor,
    ann_piece,
    ann_sym_piece,
    contract_poly,
    contract_tensor,
    polarize,
)
from borderapolar.bounds import (
    MacaulayRep,
    is_sharp,
    macaulay_rep,
    min_generators_degree_one,
    verify_gen_count_transfer,
)
from borderapolar.diagonal_maps import direct_sum_check, ir_piece, pi_image, psi, tau
from borderapolar.grading import (
    PieceElement,
    degrees_up_to,
    dim_piece,
    monomials,
    rank_monomial,
    segre_ring,
    sub_degrees,
    unit_degree,
    unrank_monomial,
    veronese_ring,
)
from borderapolar.ideals import (
    PointSet,
    TruncatedIdeal,
    diagonal_ideal,
    diagonal_points,
    expand,
    first_non_generic,
    generic_hf,
    hilbert_function,
    is_saturated_degreewise,
    min_generators_in_degree,
    point_ideal,
    very_general_points,
    zero_ideal,
)
from borderapolar.linalg import Mod, PrimeField, Subspace, kernel, rank
from borderapolar.selftest import run_selftest, sum_of_powers_tensor
from borderapolar.transfer import comon_certificate, upsilon

P, Q = 2147483647, 1048583
V2, V3, S22 = veronese_ring(2), veronese_ring(3), segre_ring(2, 2)
X2 = HomPoly(2, 2, {(2, 0): 1})
GF = PrimeField(P)
GF_FULL = Subspace.full(3, field=GF)


def refused(call, exc, match):
    with pytest.raises(exc, match=match):
        call()


class FewDraws(random.Random):
    """An rng whose `randint` raises after 1,000 draws, so that a loop which
    never stops drawing fails instead of hanging."""

    def __init__(self):
        super().__init__(0)
        self.left = 1000

    def randint(self, a, b):
        self.left -= 1
        if self.left < 0:
            raise RuntimeError("drew 1,000 times")
        return super().randint(a, b)


LINALG = {
    "graded-piece-mismatch": (lambda: Subspace.zero(2, piece="a").sum(Subspace.zero(2, piece="b")),
                              ValueError, "graded piece mismatch: a vs b"),
    "mixed-moduli-arithmetic": (lambda: Mod(1, P) + Mod(1, Q), ValueError, "mixed moduli"),
    "mixed-moduli-coercion": (lambda: PrimeField(P).of(Mod(1, Q)), ValueError, "mixed moduli"),
    "division-by-zero": (lambda: Mod(1, P) / 0, ZeroDivisionError,
                         "division by zero in prime field"),
    "vector-length": (lambda: Subspace.zero(3).reduce_vector([1, 2]), ValueError,
                      "vector length mismatch"),
    "mixed-fields-contains": (lambda: Subspace.full(3).contains(GF_FULL), ValueError,
                              r"field mismatch: QQ vs GF\(2147483647\)"),
    "mixed-fields-sum": (lambda: Subspace.full(3).sum(GF_FULL), ValueError,
                         r"field mismatch: QQ vs GF\(2147483647\)"),
    "mixed-fields-intersect": (lambda: GF_FULL.intersect(Subspace.full(3)), ValueError,
                               r"field mismatch: GF\(2147483647\) vs QQ"),
    "prime-field-float": (lambda: PrimeField(P).of(1.5), TypeError,
                          r"cannot coerce 1.5 into GF\(2147483647\)"),
    # a row that names a column twice, where the last entry would win (rank 1)
    "repeated-column-rank": (lambda: rank(2, [[(0, 1), (0, -1)]]), ValueError,
                             "column 0 appears twice in one row"),
    "repeated-column-kernel": (lambda: kernel(3, [[(0, 1)], [(1, 1), (2, 5), (1, 2)]]),
                               ValueError, "column 1 appears twice in one row"),
    "repeated-column-from-rows": (lambda: Subspace.from_rows(2, [[(1, 1), (1, 1)]], field=GF),
                                  ValueError, "column 1 appears twice in one row"),
    # a float column inside the range, which no list takes as an index
    "float-column-rank": (lambda: rank(2, [[(1.0, 1)]]), ValueError,
                          r"column 1\.0 is not an integer"),
    "float-column-kernel": (lambda: kernel(2, [[(0, 1)], [(-0.5, 1)]]), ValueError,
                            r"column -0\.5 is not an integer"),
    "float-column-from-rows": (lambda: Subspace.from_rows(3, [[(0, 1), (2.0, 1)]], field=GF),
                               ValueError, r"column 2\.0 is not an integer"),
}

IDEALS = {
    "expand-ring": (lambda: expand([PieceElement(V2, 1, (1, 0))], V3, 2), ValueError,
                    r"generator ring .* does not match"),
    "no-points": (lambda: PointSet(V2, ()), ValueError, "need at least one point"),
    "factor-count": (lambda: PointSet(segre_ring(2, 3), (((1, 0), (0, 1)),)), ValueError,
                     r"point .* does not have 3 factors"),
    "factor-length": (lambda: PointSet(S22, (((1, 0, 0), (0, 1)),)), ValueError,
                      "factor coordinate length mismatch"),
    "zero-factor": (lambda: PointSet(S22, (((0, 0), (0, 1)),)), ValueError,
                    r"point .* has an all-zero factor"),
    "coordinate-length": (lambda: PointSet(V2, ((1, 2, 3),)), ValueError,
                          "coordinate length mismatch"),
    "zero-point": (lambda: PointSet(V2, ((0, 0),)), ValueError, "zero point"),
    "zero-coord-bound": (lambda: very_general_points(V2, 1, 2, FewDraws(), coord_bound=0),
                         ValueError, "coord_bound must be at least 1, got 0"),
    "diagonal-of-segre-points": (lambda: diagonal_points(PointSet(S22, (((1, 0), (0, 1)),)), 2),
                                 ValueError, "expected points on the Veronese target"),
    "pi-image-degree-length": (lambda: diagonal_ideal(2, 3, 4).pi_image((1, 1)), ValueError,
                               r"degree vector \(1, 1\) has length 2, expected 3"),
    "pi-image-degree-above-bound": (lambda: diagonal_ideal(2, 3, 4).pi_image((9, 0, 0)),
                                    ValueError, "exceeds the truncation bound 4"),
    "pi-image-of-a-stored-ideal": (lambda: zero_ideal(S22, 2).pi_image((3, 0)), ValueError,
                                   "exceeds the truncation bound 2"),
    "kept-piece-ambient": (lambda: TruncatedIdeal.pi_preimage(
        segre_ring(2, 3), 1, {0: Subspace.zero(1), 1: Subspace.zero(5)}), ValueError,
        r"W_1: subspace ambient 5 is not dim V_1 = 2"),
    "kept-piece-missing": (lambda: TruncatedIdeal.pi_preimage(
        S22, 2, {0: Subspace.full(1), 1: Subspace.zero(2)}), ValueError,
        "missing piece W_2: every degree up to the bound 2 needs one"),
    "kept-ideal-on-veronese": (lambda: TruncatedIdeal.pi_preimage(
        V2, 1, {0: Subspace.full(1), 1: Subspace.zero(2)}), ValueError,
        "a kept ideal lives on a Segre ring, got RingSpec"),
    "stored-piece-missing": (lambda: TruncatedIdeal(V2, 2, {0: Subspace.zero(1),
                                                            1: Subspace.zero(2)}),
                             ValueError, "missing piece J_2: every degree up to the bound 2"),
    "stored-piece-ambient": (lambda: zero_ideal(V2, 2).with_piece(1, Subspace.zero(5)),
                             ValueError, "J_1: subspace ambient 5 is not dim V_1 = 2"),
    "segre-piece-ambient": (lambda: TruncatedIdeal(S22, 1, {(0, 0): Subspace.zero(1),
                                                            (1, 0): Subspace.zero(2),
                                                            (0, 1): Subspace.zero(3)}),
                            ValueError,
                            r"J_\(0, 1\): subspace ambient 3 is not dim S_\(0, 1\) = 2"),
}

APOLARITY = {
    "exponent-length": (lambda: HomPoly(2, 2, {(1, 1, 0): 1}), ValueError,
                        r"bad exponent vector \(1, 1, 0\)"),
    "negative-exponent": (lambda: HomPoly(2, 2, {(3, -1): 1}), ValueError,
                          r"bad exponent vector \(3, -1\)"),
    "exponent-sum": (lambda: HomPoly(2, 2, {(1, 0): 1}), ValueError,
                     r"exponents \(1, 0\) do not sum to degree 2"),
    "factor-labels": (lambda: GeneralTensor(2, 2, {}, factors=(0,)), ValueError,
                      "factor labels do not match the tensor order"),
    "factor-label-negative": (lambda: GeneralTensor(2, 2, {(0, 1): 1}, factors=(-1, 0)),
                              ValueError, "factor label -1 is negative"),
    "factor-label-repeated": (lambda: GeneralTensor(2, 2, {(0, 1): 1}, factors=(0, 0)),
                              ValueError, "factor label 0 is repeated"),
    "factor-label-non-integral": (lambda: GeneralTensor(2, 2, {}, factors=(0.5, 1)), ValueError,
                                  "factor label 0.5 is not an integer"),
    "factor-label-string": (lambda: GeneralTensor(2, 2, {}, factors="01"), ValueError,
                            "factor label '0' is not an integer"),
    "sym-factor-label-repeated": (lambda: SymTensor(2, 2, {(0, 0): 1}, factors=(1, 1)),
                                  ValueError, "factor label 1 is repeated"),
    "index-range": (lambda: GeneralTensor(2, 2, {(0, 2): 1}), ValueError,
                    r"index tuple \(0, 2\) out of range"),
    "contract-segre-element": (lambda: contract_poly(PieceElement(S22, (1, 0), (1, 0)), X2),
                               ValueError, "expected an element of the Veronese coordinate ring"),
    "contract-variable-count": (lambda: contract_poly(PieceElement(V3, 1, (1, 0, 0)), X2),
                                ValueError, "variable count mismatch"),
    "contract-tensor-veronese-element": (lambda: contract_tensor(PieceElement(V2, 1, (1, 0)),
                                                                 GeneralTensor(2, 2, {})),
                                         ValueError,
                                         "expected an element of the Segre coordinate ring"),
    "contract-tensor-ring-shape": (lambda: contract_tensor(
        PieceElement(segre_ring(3, 2), (1, 0), (1, 0, 0)), GeneralTensor(2, 2, {})), ValueError,
        r"ring shape mismatch: element has \(n,d\)=\(3,2\), tensor has \(2,2\)"),
    "contract-tensor-too-few-factors": (lambda: contract_tensor(
        PieceElement(segre_ring(2, 1), (1,), (1, 0)), GeneralTensor(2, 2, {(0, 0): 1, (1, 1): 1})),
        ValueError, r"ring shape mismatch: element has \(n,d\)=\(2,1\), tensor has \(2,2\)"),
    "contract-tensor-slots-past-the-ring": (lambda: contract_tensor(
        PieceElement(S22, (1, 0), (1, 0)), GeneralTensor(2, 2, {(0, 0): 1}, factors=(1, 2))),
        ValueError, r"ring shape mismatch: element has \(n,d\)=\(2,2\), tensor has \(2,3\)"),
    "ann-of-a-contraction": (lambda: ann_piece(GeneralTensor(2, 2, {(0, 0): 1}, factors=(0, 2)),
                                               (1, 0)),
                             ValueError, "on all original factors"),
    "negative-sym-degree": (lambda: ann_sym_piece(X2, -1), ValueError, "negative degree"),
    "non-integral-sym-degree": (lambda: ann_sym_piece(X2, 1.5), ValueError,
                                "degree 1.5 is not an integer"),
    "negative-non-integral-sym-degree": (lambda: ann_sym_piece(X2, -0.5), ValueError,
                                         "degree -0.5 is not an integer"),
    "string-sym-degree": (lambda: ann_sym_piece(X2, "2"), ValueError,
                          "degree '2' is not an integer"),
    "non-integral-exponent": (lambda: HomPoly(2, 2, {(2.5, -0.5): 1}), ValueError,
                              "exponent 2.5 is not an integer"),
    "negative-non-integral-exponent": (lambda: HomPoly(2, 2, {(2, -0.5): 1}), ValueError,
                                       "exponent -0.5 is not an integer"),
    "string-exponent": (lambda: HomPoly(2, 2, {("2", 0): 1}), ValueError,
                        "exponent '2' is not an integer"),
    "non-integral-form-n": (lambda: HomPoly(2.5, 2, {}), ValueError, "n 2.5 is not an integer"),
    "string-form-degree": (lambda: HomPoly(2, "2", {}), ValueError,
                           "degree '2' is not an integer"),
    "non-integral-index": (lambda: GeneralTensor(2, 2, {(0.5, 1.9): 1}), ValueError,
                           "index 0.5 is not an integer"),
    "non-integral-tensor-n": (lambda: GeneralTensor(2.5, 2, {}), ValueError,
                              "n 2.5 is not an integer"),
    "non-integral-order": (lambda: GeneralTensor(2, 1.5, {}), ValueError,
                           "order 1.5 is not an integer"),
}

GRADING = {
    "unit-degree-factor": (lambda: unit_degree(2, 2), ValueError,
                           "factor index 2 out of range for d=2"),
    "negative-multidegree": (lambda: sub_degrees((1, 0), (0, 1)), ValueError,
                             r"\(1, 0\) - \(0, 1\) is not a valid degree"),
    "negative-degree": (lambda: sub_degrees(1, 2), ValueError, "1 - 2 is not a valid degree"),
    "veronese-monomial": (lambda: rank_monomial(V2, (3, -1)), ValueError,
                          r"bad monomial \(3, -1\)"),
    "segre-monomial-shape": (lambda: rank_monomial(S22, ((1, 0),)), ValueError,
                             "bad monomial shape"),
    "veronese-negative-total": (lambda: rank_monomial(V2, (-1, 0)), ValueError,
                                r"bad monomial \(-1, 0\)"),
    "veronese-non-integral-exponent": (lambda: rank_monomial(V2, (1.5, 0.5)), ValueError,
                                       r"bad monomial \(1.5, 0.5\)"),
    "segre-negative-exponent": (lambda: rank_monomial(S22, ((3, -1), (1, 0))), ValueError,
                                r"bad monomial \(\(3, -1\), \(1, 0\)\)"),
    "segre-non-integral-exponent": (lambda: rank_monomial(S22, ((1, 0), (0.5, 0.5))),
                                    ValueError, r"bad monomial \(\(1, 0\), \(0.5, 0.5\)\)"),
    "segre-non-integral-total": (lambda: rank_monomial(S22, ((1, 0), (0.5, 0))), ValueError,
                                 r"bad monomial \(\(1, 0\), \(0.5, 0\)\)"),
    "coordinate-count": (lambda: PieceElement(S22, (1, 1), (1, 2)), ValueError,
                         "coordinate vector has length 2, expected 4"),
}

BOUNDS = {
    "term-below-its-index": (lambda: MacaulayRep(1, 2, ((1, 2),)), ValueError,
                             r"need k_i >= i >= 1 in every term"),
    "lower-indices-skip": (lambda: MacaulayRep(5, 3, ((4, 3), (2, 1))), ValueError,
                           "lower indices must run a, a-1, ... consecutively"),
    "negative-m": (lambda: macaulay_rep(-1, 1), ValueError, "need m >= 0 and a >= 1"),
    "zero-a": (lambda: macaulay_rep(3, 0), ValueError, "need m >= 0 and a >= 1"),
    # the order is checked before F's slice spans, which would find x^2 not concise
    "sharp-two-factors-not-concise": (lambda: is_sharp(SymTensor(2, 2, {(0, 0): 1})), ValueError,
                                      "^sharpness needs at least three factors$"),
    # an order-0 tensor has no factor to count generators along, and no row is built
    "degree-one-count-order-zero": (
        lambda: min_generators_degree_one(polarize(HomPoly(2, 0, {(0, 0): 1}))), ValueError,
        "^the degree-one count needs a tensor with at least one factor$"),
    # the counts differ at d = 2 by C(n, 2), the 2x2 minors of I_R: the order
    # is checked as `is_sharp` checks it, before F's slice spans are read
    "gen-count-transfer-order-zero": (
        lambda: verify_gen_count_transfer(SymTensor(2, 0, {(): 3})), ValueError,
        "^sharpness needs at least three factors$"),
    "gen-count-transfer-two-factors": (
        lambda: verify_gen_count_transfer(SymTensor(2, 2, {(0, 0): 1, (1, 1): 1})), ValueError,
        "^sharpness needs at least three factors$"),
    "gen-count-transfer-two-factors-not-concise": (
        lambda: verify_gen_count_transfer(SymTensor(2, 2, {(0, 0): 1})), ValueError,
        "^sharpness needs at least three factors$"),
}

SELFTEST = {
    "unknown-scale": (lambda: run_selftest(scale="huge"), ValueError,
                      r"unknown scale 'huge'; choose from \['deep', 'desk'\]"),
    "form-length": (lambda: sum_of_powers_tensor(3, 2, [(1, 1, 1), (1, 2)]), ValueError,
                    r"form \(1, 2\) has 2 coordinates, expected n=3"),
}

DIAGONAL_MAPS = {
    "image-ambient": (lambda: pi_image(2, 2, (1, 1), Subspace.zero(5)), ValueError,
                      r"subspace ambient 5 is not dim S_\(1, 1\) = 4"),
}


def cases(group: dict):
    return pytest.mark.parametrize("call, exc, match", group.values(), ids=list(group))


@cases(LINALG)
def test_linalg_refuses(call, exc, match):
    refused(call, exc, match)


@cases(IDEALS)
def test_ideals_refuses(call, exc, match):
    refused(call, exc, match)


@cases(APOLARITY)
def test_apolarity_refuses(call, exc, match):
    refused(call, exc, match)


@cases(GRADING)
def test_grading_refuses(call, exc, match):
    refused(call, exc, match)


@cases(BOUNDS)
def test_bounds_refuses(call, exc, match):
    refused(call, exc, match)


@cases(SELFTEST)
def test_selftest_refuses(call, exc, match):
    refused(call, exc, match)


@cases(DIAGONAL_MAPS)
def test_diagonal_maps_refuses(call, exc, match):
    refused(call, exc, match)


GF_POINTS = PointSet(V2, ((1, 2), (3, 4)), field=PrimeField(P))

NEGATIVE_BOUND = {
    "zero-ideal": lambda: zero_ideal(V2, -1),
    "expand": lambda: expand([], V2, -1),
    "point-ideal-over-gf": lambda: point_ideal(GF_POINTS, -1),
    "diagonal-ideal": lambda: diagonal_ideal(2, 3, -1),
    "upsilon": lambda: upsilon(point_ideal(GF_POINTS, 2), 3, -1),
}


@pytest.mark.parametrize("call", NEGATIVE_BOUND.values(), ids=list(NEGATIVE_BOUND))
def test_negative_truncation_bound_refused(call):
    """A truncated ideal has a piece in degree 0 at least, so no constructor
    makes one with a negative bound."""
    refused(call, ValueError, "negative truncation bound -1")


# A truncation bound is read once where it enters, with `integer`, so what a
# bound of 2.0 or 1.5 does cannot depend on whether `degrees_up_to`'s cache
# already holds the degrees for 2 (2.0 and 2 are one key there).
BOUND_TAKERS = {
    "zero-ideal": lambda b: zero_ideal(V2, b),
    "expand": lambda b: expand([], V2, b),
    "point-ideal": lambda b: point_ideal(PointSet(V2, ((1, 2), (3, 4))), b),
    "point-ideal-segre": lambda b: point_ideal(PointSet(S22, (((1, 2), (3, 4)),)), b),
    "diagonal-ideal": lambda b: diagonal_ideal(2, 3, b),
    "very-general-points": lambda b: very_general_points(V2, 2, b, random.Random(1)),
    "upsilon": lambda b: upsilon(point_ideal(GF_POINTS, 3), 3, b),
    "truncated-ideal": lambda b: TruncatedIdeal(V2, b, dict(zero_ideal(V2, 3).pieces)),
    "pi-preimage": lambda b: TruncatedIdeal.pi_preimage(S22, b, diagonal_ideal(2, 2, 3).veronese),
    # called directly, as `selftest` and `proper_unit_box_degrees` call it
    "degrees-up-to-segre": lambda b: degrees_up_to(S22, b),
    "degrees-up-to-veronese": lambda b: degrees_up_to(V2, b),
}


@pytest.mark.parametrize("call", BOUND_TAKERS.values(), ids=list(BOUND_TAKERS))
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_integral_bound_counts_as_an_int(call, warm):
    """2.0 counts as 2 whether or not the degrees for 2 are cached."""
    degrees_up_to.cache_clear()
    want = call(2)
    if not warm:
        degrees_up_to.cache_clear()
    got = call(2.0)
    if isinstance(got, TruncatedIdeal):
        assert type(got.bound) is int and got.bound == 2
        assert got.degrees() == want.degrees()
        assert all(got.pieces[u] == want.pieces[u] for u in got.degrees())
    else:
        assert got == want


@pytest.mark.parametrize("call", BOUND_TAKERS.values(), ids=list(BOUND_TAKERS))
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_non_integral_bound_refused(call, warm):
    degrees_up_to.cache_clear()
    if warm:
        call(1)
        call(2)
    refused(lambda: call(1.5), ValueError, "truncation bound 1.5 is not an integer")
    refused(lambda: call("2"), ValueError, "truncation bound '2' is not an integer")


# -- the degree boundary --------------------------------------------------------------

STORED = point_ideal(PointSet(S22, (((1, 0), (0, 1)), ((1, 1), (1, 2)))), 3)
KEPT = diagonal_ideal(2, 2, 3)
F22 = GeneralTensor(2, 2, {(0, 0): 1, (1, 1): 1})
G2 = PieceElement(V2, 2, (1, 2, 3))
X3 = sum_of_powers_tensor(2, 3, [(1, 0)])

# export -> (the export as a function of the degree, a bad degree,
#            another spelling of a good degree, that degree as `check_degree` returns it)
DEGREE_BOUNDARY = {
    "dim_piece": (lambda u: dim_piece(S22, u), (1,), [1, 0], (1, 0)),
    "monomials": (lambda u: monomials(S22, u), (1, -1), [1, 0], (1, 0)),
    "unrank_monomial": (lambda u: unrank_monomial(S22, u, 1), (1, 1.5), [1, 1], (1, 1)),
    "piece-element": (lambda u: PieceElement(S22, u, (1, 2)), (1,), [1, 0], (1, 0)),
    "from-terms": (lambda u: PieceElement.from_terms(V2, u, {(2, 0): 1}), 1.5, 2.0, 2),
    "ann_piece": (lambda u: ann_piece(F22, u), (1, 0, 0), [1, 0], (1, 0)),
    "ann_sym_piece": (lambda u: ann_sym_piece(X2, u), -1, 1.0, 1),
    "psi": (lambda u: psi(u, G2), (3, -1), [1, 1], (1, 1)),
    "psi-int": (lambda u: psi(u, G2), 2, (1.0, 1), (1, 1)),
    "psi-none": (lambda u: psi(u, G2), None, iter([2, 0]), (2, 0)),
    "ir_piece": (lambda u: ir_piece(2, 2, u), (1, 1.5), [1, 1], (1, 1)),
    "direct_sum_check": (lambda u: direct_sum_check(2, 2, u), (-1, 1), [1, 1], (1, 1)),
    "hilbert_function": (lambda u: hilbert_function(STORED, u), (1,), [1, 0], (1, 0)),
    "hilbert_function-kept": (lambda u: hilbert_function(KEPT, u), (1, 1, 0), (2.0, 1), (2, 1)),
    "generic_hf": (lambda u: generic_hf(3, S22, u), (1, 1, 1), [1, 1], (1, 1)),
    "is_saturated_degreewise": (lambda u: is_saturated_degreewise(STORED, u), (0.5, 0),
                                [1, 0], (1, 0)),
    "min_generators_in_degree": (lambda u: min_generators_in_degree(STORED, u), (1,),
                                 [1, 1], (1, 1)),
    "expand": (lambda u: dict(expand([SimpleNamespace(ring=V2, degree=u, coords=(1, 0, 0))],
                                     V2, 3).pieces), -1, 2.0, 2),
    "piece": (lambda u: STORED.piece(u), (1, 0, 0), [1, 1], (1, 1)),
    "piece_dim": (lambda u: KEPT.piece_dim(u), (1, -1), (1.0, 1), (1, 1)),
    "pi_image": (lambda u: STORED.pi_image(u), 1.5, [1, 1], (1, 1)),
    "piece-kept": (lambda u: KEPT.piece(u), (2,), [2, 0], (2, 0)),
    "with_piece": (lambda u: dict(zero_ideal(V2, 2).with_piece(u, Subspace.full(2)).pieces),
                   -1, [1.0], 1),
}


@pytest.mark.parametrize("call, bad, spelled, canonical", DEGREE_BOUNDARY.values(),
                         ids=list(DEGREE_BOUNDARY))
def test_each_degree_taking_export_checks_its_degree(call, bad, spelled, canonical):
    """Every export that takes a degree refuses a bad one, and reads a list or
    an integral float as the degree `check_degree` makes of it."""
    refused(lambda: call(bad), ValueError, "degree")
    assert call(spelled) == call(canonical)


# -- ring sizes and point counts ------------------------------------------------------

RING_SIZES = {
    "segre-non-integral-n": (lambda: segre_ring(2.5, 3), ValueError, "n 2.5 is not an integer"),
    "segre-non-integral-d": (lambda: segre_ring(2, 1.5), ValueError,
                             "factor count 1.5 is not an integer"),
    "veronese-string-n": (lambda: veronese_ring("3"), ValueError, "n '3' is not an integer"),
    "generic-hf-non-integral-r": (lambda: generic_hf(1.5, S22, (1, 1)), ValueError,
                                  "point count 1.5 is not an integer"),
    "generic-hf-string-r": (lambda: generic_hf("3", S22, (1, 1)), ValueError,
                            "point count '3' is not an integer"),
    "first-non-generic-negative-r": (lambda: first_non_generic(zero_ideal(S22, 2), -1),
                                     ValueError, "negative point count"),
    "first-non-generic-non-integral-r": (lambda: first_non_generic(zero_ideal(S22, 2), 2.5),
                                         ValueError, "point count 2.5 is not an integer"),
    "tau-non-integral-d": (lambda: tau(G2, 2.5), ValueError, "factor count 2.5 is not an integer"),
    "tau-no-factors": (lambda: tau(G2, 0), ValueError, "need d >= 1, got 0"),
    "diagonal-points-non-integral-d": (lambda: diagonal_points(PointSet(V2, ((1, 2),)), 2.5),
                                       ValueError, "factor count 2.5 is not an integer"),
    "diagonal-points-no-factors": (lambda: diagonal_points(PointSet(V2, ((1, 2),)), 0),
                                   ValueError, "need d >= 1, got 0"),
    # x^3 is not concise, so a point count read late would give a certificate
    "comon-non-integral-r": (lambda: comon_certificate(X3, 2.5, diagonal_ideal(2, 3, 3)),
                             ValueError, "point count 2.5 is not an integer"),
    "comon-string-r": (lambda: comon_certificate(X3, "2", diagonal_ideal(2, 3, 3)), ValueError,
                       "point count '2' is not an integer"),
    "very-general-non-integral-r": (lambda: very_general_points(V2, 1.5, 3, FewDraws()),
                                    ValueError, "point count 1.5 is not an integer"),
    "very-general-string-r": (lambda: very_general_points(V2, "x", 3, FewDraws()), ValueError,
                              "point count 'x' is not an integer"),
}


@cases(RING_SIZES)
def test_ring_sizes_and_point_counts_refused(call, exc, match):
    refused(call, exc, match)


def test_integral_ring_sizes_and_point_counts_are_kept_as_ints():
    """2.0 counts as 2, as for a degree, and the int is what is kept."""
    ring = segre_ring(2.0, 3.0)
    assert ring == segre_ring(2, 3) and (type(ring.n), type(ring.d)) == (int, int)
    assert dim_piece(ring, (1, 1, 1)) == 8
    assert type(veronese_ring(3.0).n) is int
    assert tau(G2, 2.0) == tau(G2, 2) and tau(G2, 2).degree == (2, 0)
    hf = generic_hf(2.0, S22, (1, 1))
    assert hf == 2 and type(hf) is int
    assert first_non_generic(zero_ideal(S22, 2), 2.0) == first_non_generic(zero_ideal(S22, 2), 2)
    cert = comon_certificate(X3, 2.0, diagonal_ideal(2, 3, 3))
    assert cert.to_dict() == comon_certificate(X3, 2, diagonal_ideal(2, 3, 3)).to_dict()
    points = very_general_points(V2, 2.0, 3, random.Random(1))
    assert points == very_general_points(V2, 2, 3, random.Random(1)) and points.count == 2
    diagonal = diagonal_points(points, 2.0)
    assert diagonal == diagonal_points(points, 2) and type(diagonal.ring.d) is int
    assert all(len(p) == 2 for p in diagonal.points)
