"""Macaulay binomial representations and the sharpness tests for symmetric tensors.

The growth bound machinery is purely arithmetic: the a-th Macaulay
representation of an integer and its degree-shifted sum.  The sharpness
tests count minimal generators of annihilator ideals degreewise and compare
Hilbert function values, with a separate quick test in the three-factor case.
They take a symmetric F, and permuting the factors maps Ann(F)_u onto
Ann(F)_{σu}, so `is_sharp` computes each Hilbert value once per orbit of
degrees under that permutation.  For the same reason a `SymTensor`'s slice
spans are one span and its degree-one count writes one block of constraints
where a general F writes d - 1 (`_degree_one_generators`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

from .apolarity import (
    SymTensor,
    ann_piece,
    ann_sym_piece,
    depolarize,
    slice_spans,
)
from .diagonal_maps import pi_image, proper_unit_box_degrees, staircase_degrees
from .grading import _dim_piece, segre_ring, veronese_ring
from .ideals import min_generators, span_from_below, variable_multiples
from .linalg import Subspace, rank
from .transfer import Certificate, tensor_digest


# -- Macaulay representations -----------------------------------------------------

@dataclass(frozen=True)
class MacaulayRep:
    """Greedy expansion m = C(k_a, a) + C(k_{a-1}, a-1) + ... with k_a > k_{a-1} > ..."""

    m: int
    a: int
    terms: tuple  # pairs (k_i, i), i descending

    def __post_init__(self):
        ks = [k for k, _ in self.terms]
        idxs = [i for _, i in self.terms]
        if any(k <= k2 for k, k2 in zip(ks, ks[1:])):
            raise ValueError("binomial tops must strictly decrease")
        if any(k < i or i < 1 for k, i in self.terms):
            raise ValueError("need k_i >= i >= 1 in every term")
        if idxs and (idxs[0] > self.a or any(i - j != 1 for i, j in zip(idxs, idxs[1:]))):
            raise ValueError("lower indices must run a, a-1, ... consecutively")
        if sum(math.comb(k, i) for k, i in self.terms) != self.m:
            raise ValueError("terms do not sum back to m")

    def reconstruct(self) -> int:
        return sum(math.comb(k, i) for k, i in self.terms)

    def shifted_sum(self) -> int:
        return sum(math.comb(k + 1, i + 1) for k, i in self.terms)


def macaulay_rep(m: int, a: int) -> MacaulayRep:
    """The unique greedy a-th Macaulay representation of m >= 0."""
    if m < 0 or a < 1:
        raise ValueError("need m >= 0 and a >= 1")
    terms = []
    rem = m
    i = a
    while rem > 0 and i >= 1:
        k = i
        while math.comb(k + 1, i) <= rem:
            k += 1
        terms.append((k, i))
        rem -= math.comb(k, i)
        i -= 1
    if rem:  # pragma: no cover - greedy representation always terminates
        raise ArithmeticError(f"no representation found for m={m}, a={a}")
    return MacaulayRep(m, a, tuple(terms))


def macaulay_bound(m: int, a: int) -> int:
    """m^<a>: shift every binomial C(k,i) of the representation to C(k+1,i+1)."""
    return macaulay_rep(m, a).shifted_sum()


# -- minimal generator counts for annihilators --------------------------------------

def _concise_spans(f, what: str) -> list:
    """F's slice spans; F is concise exactly when every one has dimension n."""
    spans = slice_spans(f)
    if any(span.dim != f.n for span in spans):
        raise ValueError(f"{what} is defined for concise tensors")
    return spans


def _require_concise_symmetric(f) -> list:
    if not isinstance(f, SymTensor):
        raise ValueError("sharpness is defined for symmetric tensors")
    return _concise_spans(f, "sharpness")


def min_generators_degree_one(f) -> int:
    """Minimal generators of Ann(F) in degree (1,...,1), counted on the short side."""
    return _degree_one_generators(f, slice_spans(f))


def _degree_one_generators(f, spans) -> int:
    """`min_generators_degree_one` from F's slice spans R_i (`slice_spans`).

    Ann(F)_{1-e_i} is the orthogonal complement of R_i, the span of F's slices
    along factor i, so the from-below part B = sum_i S_{e_i} Ann(F)_{1-e_i} has
    B^perp = {T : every slice T_{i=j} lies in R_i}.  As Ann(F)_{1,...,1} = F^perp
    and F lies in B^perp, the count is dim B^perp - [F != 0].  B^perp is solved
    for inside C^n (x) R_0, one unknown per variable of factor 0 and basis row
    of R_0, on its short side: one integer row per unknown, whose column
    offset_i + j codim R_i + q pairs constraint q of R_i with the slice T_{i=j}.

    For a `SymTensor` only factor 1's block is written.  Its R_i all equal R_0,
    which is spanned by slices of F and so holds symmetric (d-1)-tensors only.
    For an unknown T = e_a (x) s, s in R_0, the slice T_{i=j} is e_a (x) s_j,
    s_j being s with one index fixed at j, whichever i >= 1 it is: blocks
    2 ... d-1 repeat block 1 column for column, and the rank is block 1's.
    """
    n, d, field = f.n, f.order, f.field
    rests = list(itertools.product(range(n), repeat=d - 1))
    cols = {t: c for c, t in enumerate(rests)}
    # at[k]: (width + q, entry) for each constraint q of R_i with an entry at k,
    # width being offset_i, the column count of the factors before i
    factors, width = [], 0
    for i in range(1, d)[:1] if isinstance(f, SymTensor) else range(1, d):
        cons = spans[i].constraints()
        at = [[] for _ in cols]
        for q, row in enumerate(cons):
            for k, y in row:
                at[k].append((width + q, y))
        factors.append((i, len(cons), at))
        width += n * len(cons)
    rows = []
    for a in range(n):
        for row in spans[0].sparse:  # the unknown e_a (x) row, an integer tensor
            acc = {}
            for c, x in row:
                idx = (a,) + rests[c]
                for i, codim, at in factors:
                    shift = idx[i] * codim
                    for col, y in at[cols[idx[:i] + idx[i + 1:]]]:
                        acc[col + shift] = acc.get(col + shift, 0) + y * x
            rows.append(sorted([(col, x) for col, x in acc.items() if x]))
    dim_perp = len(rows) - rank(width, rows, field)
    return dim_perp - (not f.is_zero)


def min_generators_sym_in_degree(p, k: int) -> int:
    """Minimal generators of Ann(p) in degree k."""
    return min_generators(veronese_ring(p.n), k, partial(ann_sym_piece, p), p.field)


# -- sharpness -----------------------------------------------------------------------

def is_sharp(f) -> Certificate:
    """Three exact conditions: n-1 degree-one minimal generators, Hilbert value n
    on the proper 0/1 degrees, and Hilbert value n along s e_i + e_j for the
    ideal generated by the single piece Ann(F)_{e_i+e_j}.

    F is symmetric, so permuting the factors maps Ann(F)_u onto Ann(F)_{σu}:
    one piece per weight w, at (1^w, 0^(d-w)), gives every unit-box value, and
    the growth chain for (i, j) = (0, 1) gives the values of every pair."""
    if f.order < 3:  # before F's slice spans are read
        raise ValueError("sharpness needs at least three factors")
    spans = _require_concise_symmetric(f)
    n, d = f.n, f.order
    ring = segre_ring(n, d)
    cert = Certificate("sharp", partial(tensor_digest, f))
    gens = _degree_one_generators(f, spans)
    cond1 = gens == n - 1
    cert.add(stage="degree-one-generators", count=gens, want=n - 1, ok=cond1)

    by_weight = {sum(u): ann_piece(f, u) for u in staircase_degrees(d)[1:]}
    for u in proper_unit_box_degrees(d):
        hf = by_weight[sum(u)].codim
        if hf != n:
            cert.add(stage="unit-box-hilbert", degree=u, have=hf, want=n, ok=False)
    cond2 = all(piece.codim == n for piece in by_weight.values())
    cert.add(stage="unit-box-hilbert", ok=cond2)

    sub, growth = by_weight[2], []
    for s in range(1, d):
        deg = (s, 1) + (0,) * (d - 2)
        growth.append(_dim_piece(ring, deg) - sub.dim)
        if s < d - 1:
            dim = _dim_piece(ring, (s + 1, 1) + (0,) * (d - 2))
            rows = variable_multiples(ring, deg, sub.sparse, 0)
            sub = Subspace.from_rows(dim, rows, field=f.field)
    for (i, j), (s, hf) in itertools.product(itertools.permutations(range(d), 2),
                                             enumerate(growth, 1)):
        if hf != n:
            cert.add(stage="two-factor-growth", i=i, j=j, s=s, have=hf, want=n, ok=False)
    cond3 = all(hf == n for hf in growth)
    cert.add(stage="two-factor-growth", ok=cond3)
    cert.verdict = cond1 and cond2 and cond3
    if not cert.verdict:
        cert.failure = "a sharpness condition fails (see witnesses)"
    return cert


def is_111_sharp(f) -> Certificate:
    """Exactly n-1 minimal generators of multidegree (1,1,1); three factors only."""
    if f.order != 3:
        raise ValueError("the 111 test is defined for three-factor tensors")
    gens = _degree_one_generators(f, _concise_spans(f, "the 111 test"))
    ok = gens == f.n - 1
    cert = Certificate("111-sharp", partial(tensor_digest, f), verdict=ok)
    cert.add(stage="degree-111-generators", count=gens, want=f.n - 1, ok=ok)
    if not ok:
        cert.failure = f"found {gens} minimal generators, expected {f.n - 1}"
    return cert


# -- supporting identity checks ------------------------------------------------------

def verify_lemma_1_minus_ed(f) -> Certificate:
    """Compare pi(Ann(F)_{1-e_d}) with Ann(p_F)_{d-1}: containment always
    reported, equality recorded separately (it holds under sharpness)."""
    _require_concise_symmetric(f)
    n, d = f.n, f.order
    u = tuple(1 if t < d - 1 else 0 for t in range(d))
    lifted = pi_image(n, d, u, ann_piece(f, u))
    target = ann_sym_piece(depolarize(f), d - 1)
    contained = target.contains(lifted)
    equal = lifted == target
    cert = Certificate("image-of-degree-one-minus-last", partial(tensor_digest, f),
                       verdict=contained)
    cert.add(degree=u, dim_image=lifted.dim, dim_target=target.dim,
             contained=contained, equal=equal)
    if not contained:
        cert.failure = "the projected annihilator piece is not apolar to the form"
    return cert


def verify_gen_count_transfer(f) -> Certificate:
    """Minimal generators of Ann(p_F) in degree d vs Ann(F) in degree (1,...,1)."""
    s_tensor = _degree_one_generators(f, _require_concise_symmetric(f))
    s_poly = min_generators_sym_in_degree(depolarize(f), f.order)
    ok = s_tensor == s_poly
    cert = Certificate("generator-count-transfer", partial(tensor_digest, f), verdict=ok)
    cert.add(tensor_side=s_tensor, form_side=s_poly, ok=ok)
    if not ok:
        cert.failure = f"generator counts differ: {s_tensor} vs {s_poly}"
    return cert


def _proper_ideal_piece(f, u) -> Subspace:
    """Piece u of the ideal generated by every Ann(F)_v with v strictly inside
    the unit box, built from the pieces at the degrees v <= u (componentwise)
    alone.

    A proper unit-box piece of the ideal is Ann(F)_v itself, since Ann(F) is an
    ideal; every other piece is spanned from below, as in `expand`."""
    ring = segre_ring(f.n, f.order)
    proper = set(proper_unit_box_degrees(f.order))
    pieces: dict = {}

    def piece_at(v):
        if v not in pieces:
            pieces[v] = (ann_piece(f, v) if v in proper else
                         span_from_below(ring, v, piece_at, f.field, piece=(ring, v)))
        return pieces[v]

    return piece_at(u)


def verify_containment_lemma(f) -> Certificate:
    """pi of the (d-1)e_1 + e_2 piece of the proper-degree annihilator ideal
    lies inside Ann(p_F)_d."""
    _require_concise_symmetric(f)
    n, d = f.n, f.order
    u = tuple([d - 1, 1] + [0] * (d - 2))
    lifted = pi_image(n, d, u, _proper_ideal_piece(f, u))
    target = ann_sym_piece(depolarize(f), d)
    ok = target.contains(lifted)
    cert = Certificate("proper-ideal-containment", partial(tensor_digest, f), verdict=ok)
    cert.add(degree=u, dim_image=lifted.dim, dim_target=target.dim, ok=ok,
             vacuous=lifted.is_zero)
    if not ok:
        cert.failure = "the projected piece escapes the form's annihilator"
    return cert
