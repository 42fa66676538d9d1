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

The checks on a concise F work on the annihilator side, where every piece they
grow has codimension at most n.  A piece J of S_u is held by a basis of
J^perp, and S_{e_i} J is grown by `ideals.annihilator_from_below`, the fibre
duality of `ideals.annihilator_of_image` along a product table: one system in
n codim J unknowns, where spanning S_{e_i} J takes n dim J rows.  A pi-image
is read through the same duality: pi(P) lies in Ann(p_F)_k exactly when the
catalecticant rows cutting out Ann(p_F)_k, pulled back along pi, lie in the
span of P^perp, and dim pi(P) is read off the rank of that system along pi
(`_image_dim`).  The form side's generators are counted the same way:
`ann_sym_piece` holds Ann(p_F)_{k-1} by the RREF of the catalecticant
Cat_{k-1}'s rows, so one step from below in n rank Cat_{k-1} unknowns and the
row count of Ann(p_F)_k give the count, and no basis of Ann(p_F) is made
(`min_generators_sym_in_degree`).  Every Cat_k here is read from
`apolarity._catalecticant`, which cuts out `ann_sym_piece` from the integers
the form was made with; F's slice spans stay read off F's own entries.  The
systems these checks write, the degree-one count here, the fibre equations in
`ideals` and a `SymTensor`'s flattening in `apolarity`, reach `rank` and
`kernel` as dense integer rows (`linalg.IntRows`), each normalized once.

Nothing computed for F outlives a check.  The index maps that depend on
the shape alone are read from tables built once per shape: the degree-one
count splits each index at a slot with `_slice_keys`, and
`annihilator_from_below` reads its product table's fibres from `ideals`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial

from .apolarity import (SymTensor, _catalecticant, ann_piece, ann_sym_piece, depolarize,
                        slice_spans)
from .diagonal_maps import pi_fibres, proper_unit_box_degrees
from .grading import _dim_piece, check_degree, segre_ring, veronese_ring
from .ideals import _image_equations, annihilator_from_below
from .linalg import IntRows, rank
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
    segre_ring(f.n, f.order)  # refuses a tensor with no factor
    return _concise_spans(f, "sharpness")


def min_generators_degree_one(f) -> int:
    """Minimal generators of Ann(F) in degree (1,...,1), counted on the short side."""
    if not f.order:  # before any row is built
        raise ValueError("the degree-one count needs a tensor with at least one factor")
    return _degree_one_generators(f, slice_spans(f))


@lru_cache(maxsize=None)
def _slice_keys(n: int, d: int, i: int) -> tuple:
    """For the c-th index (i_1, ..., i_{d-1}) off slot 0 of an order-d tensor,
    in `itertools.product` order, and a slot i >= 1: the pair (i_i, the
    mixed-radix rank of the other d-2 indices, the first most significant).
    An entry at (a, i_1, ..., i_{d-1}) lies in row i_i and column
    a n^(d-2) + that rank of the contraction map at 1 - e_i.  The table has
    n^(d-1) pairs, as many as the count's per-call `at` list."""
    step = n ** (d - 1 - i)
    return tuple([(c // step % n, c // (step * n) * step + c % step)
                  for c in range(n ** (d - 1))])


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
    width_0 = n ** (d - 1)  # the columns of R_i: the indices off one slot
    # Per factor i: codim R_i, at[t], the (offset_i + q, entry) of each
    # constraint q of R_i with an entry at t, and the shape's table that
    # splits the c-th index off slot 0 at slot i.
    factors, width = [], 0
    for i in range(1, d)[:1] if isinstance(f, SymTensor) else range(1, d):
        cons = spans[i].constraints()
        at = [[] for _ in range(width_0)]
        for q, row in enumerate(cons):
            for t, y in row:
                at[t].append((width + q, y))
        factors.append((len(cons), at, _slice_keys(n, d, i)))
        width += n * len(cons)
    rows, normalize = IntRows(), field.normalize
    for a in range(n):
        first = a * width_0 // n  # the first column of R_i with a at slot 0
        for row in spans[0].sparse:  # the unknown e_a (x) row, an integer tensor
            acc = [0] * width
            for c, x in row:
                for codim, at, keys in factors:
                    j, t = keys[c]
                    shift = j * codim
                    for col, y in at[first + t]:
                        acc[col + shift] += y * x
            rows.append(normalize(acc))
    dim_perp = len(rows) - rank(width, rows, field)
    return dim_perp - (not f.is_zero)


def min_generators_sym_in_degree(p, k: int) -> int:
    """Minimal generators of Ann(p) in degree k, counted on the annihilator
    side: dim Ann(p)_k - dim V_1 Ann(p)_{k-1} = dim (V_1 Ann(p)_{k-1})^perp -
    codim Ann(p)_k.  `ann_sym_piece` holds Ann(p)_{k-1} by the RREF of
    Cat_{k-1}'s rows, so the first term is one `annihilator_from_below` on
    those rows, and no basis of an annihilator piece is made.  Nothing lies
    below degree 0, where the first term is dim V_0 = 1."""
    ring = veronese_ring(p.n)
    k = check_degree(ring, k)
    if not k:
        below = 1
    else:
        below = len(annihilator_from_below(ring, k - 1, 0, ann_sym_piece(p, k - 1).perp, p.field))
    return below - ann_sym_piece(p, k).codim


# -- sharpness -----------------------------------------------------------------------

def _growth_chain(f, first) -> list:
    """The annihilators of S_{e_0}^{s-1} Ann(F)_{e_0+e_1}, at (s, 1, 0, ...) for
    s = 1, ..., d-1, each as a basis of integer rows: `first`, a basis of
    Ann(F)_{e_0+e_1}^perp, then one `annihilator_from_below` step per s."""
    d, ring, chain = f.order, segre_ring(f.n, f.order), [first]
    for s in range(1, d - 1):
        chain.append(annihilator_from_below(ring, (s, 1) + (0,) * (d - 2), 0, chain[-1], f.field))
    return chain


def is_sharp(f) -> Certificate:
    """Three exact conditions: n-1 degree-one minimal generators, Hilbert value n
    on the proper 0/1 degrees, and Hilbert value n along s e_i + e_j for the
    ideal generated by the single piece Ann(F)_{e_i+e_j}.

    F is symmetric, so permuting the factors maps Ann(F)_u onto Ann(F)_{σu}:
    one piece per weight w, at (1^w, 0^(d-w)), gives every unit-box value, and
    the growth chain for (i, j) = (0, 1) gives the values of every pair.  F is
    concise, so the pieces of weight 1 and d-1 are read off the slice spans
    (Ann(F)_{e_0} = 0 and Ann(F)_{1-e_{d-1}} = R_{d-1}^perp), and `ann_piece`
    runs only for 2 <= w <= d-2.  The chain starts from Ann(F)_{e_0+e_1}^perp,
    R_{d-1} at d = 3 and the constraints of the weight-2 piece above, and each
    value is the row count of one annihilator (`_growth_chain`)."""
    if f.order < 3:  # before F's slice spans are read
        raise ValueError("sharpness needs at least three factors")
    spans = _require_concise_symmetric(f)
    n, d = f.n, f.order
    cert = Certificate("sharp", partial(tensor_digest, f))
    gens = _degree_one_generators(f, spans)
    cond1 = gens == n - 1
    cert.add(stage="degree-one-generators", count=gens, want=n - 1, ok=cond1)

    pieces = {w: ann_piece(f, (1,) * w + (0,) * (d - w)) for w in range(2, d - 1)}
    codims = {1: spans[0].dim, d - 1: spans[d - 1].dim}
    codims.update((w, piece.codim) for w, piece in pieces.items())
    for u in proper_unit_box_degrees(d):
        hf = codims[sum(u)]
        if hf != n:
            cert.add(stage="unit-box-hilbert", degree=u, have=hf, want=n, ok=False)
    cond2 = all(hf == n for hf in codims.values())
    cert.add(stage="unit-box-hilbert", ok=cond2)

    first = pieces[2].perp if d > 3 else spans[d - 1].sparse
    growth = [len(ann) for ann in _growth_chain(f, first)]
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

def _pulled_back(fib, row) -> list:
    """A functional on V_|u| read on S_u along pi: column c takes its entry at fib.f[c]."""
    at = dict(row)
    return [(c, at[m]) for c, m in enumerate(fib.f) if m in at]


def _image_dim(fib, perp, field) -> int:
    """dim pi(P) for the piece P of S_u cut out by the independent integer
    rows `perp`, along pi's fibre table `fib`: dim V_|u| - codim P + the rank
    of `ideals.annihilator_of_image`'s equations, with no kernel made."""
    r = len(perp)
    return len(fib.section) - r + rank(r, _image_equations(fib, perp, 1, field), field)


def verify_lemma_1_minus_ed(f) -> Certificate:
    """Compare pi(Ann(F)_{1-e_d}) with Ann(p_F)_{d-1}: containment always
    reported, equality recorded separately (it holds under sharpness).

    P = Ann(F)_{1-e_d} has P^perp = R_{d-1}, whose rows are stored.  pi(P)
    lies in Ann(p_F)_{d-1}, cut out by the n rows of Cat_{d-1}, exactly when
    each of those rows, pulled back along pi, lies in R_{d-1}; F is concise,
    so they are independent and dim Ann(p_F)_{d-1} = dim V_{d-1} - n."""
    spans = _require_concise_symmetric(f)
    n, d = f.n, f.order
    u = tuple(1 if t < d - 1 else 0 for t in range(d))
    fib = pi_fibres(n, d, u)
    cat = _catalecticant(depolarize(f), d - 1)
    perp = spans[d - 1]
    contained = all(perp._contains_row(_pulled_back(fib, row)) for row in cat)
    dim_image = _image_dim(fib, perp.sparse, f.field)
    dim_target = _dim_piece(veronese_ring(n), d - 1) - len(cat)
    equal = contained and dim_image == dim_target
    cert = Certificate("image-of-degree-one-minus-last", partial(tensor_digest, f),
                       verdict=contained)
    cert.add(degree=u, dim_image=dim_image, dim_target=dim_target,
             contained=contained, equal=equal)
    if not contained:
        cert.failure = "the projected annihilator piece is not apolar to the form"
    return cert


def verify_gen_count_transfer(f) -> Certificate:
    """Minimal generators of Ann(p_F) in degree d vs Ann(F) in degree (1,...,1).

    The counts agree for d >= 3 only: at d = 2 the 2x2 minors of I_R are
    minimal generators in degree (1, 1), C(n, 2) more on the tensor side, so
    F is refused as `is_sharp` refuses it, before its slice spans are read."""
    if f.order < 3:
        raise ValueError("sharpness needs at least three factors")
    s_tensor = _degree_one_generators(f, _require_concise_symmetric(f))
    s_poly = min_generators_sym_in_degree(depolarize(f), f.order)
    ok = s_tensor == s_poly
    cert = Certificate("generator-count-transfer", partial(tensor_digest, f), verdict=ok)
    cert.add(tensor_side=s_tensor, form_side=s_poly, ok=ok)
    if not ok:
        cert.failure = f"generator counts differ: {s_tensor} vs {s_poly}"
    return cert


def verify_containment_lemma(f) -> Certificate:
    """pi of the (d-1)e_1 + e_2 piece of the proper-degree annihilator ideal
    lies inside Ann(p_F)_d.

    F is concise, so Ann(F) is zero at e_0 and e_1, and the piece P at
    u = (d-1, 1, 0, ...) is S_{e_0}^{d-2} Ann(F)_{e_0+e_1}, the end of
    `is_sharp`'s growth chain (P = 0 when d < 3, where e_0 + e_1 is not
    proper).  pi(P) lies in Ann(p_F)_d, the kernel of p_F's functional, exactly
    when the functional pulled back along pi lies in the span of P^perp: one
    rank on codim P + 1 rows."""
    spans = _require_concise_symmetric(f)
    n, d = f.n, f.order
    u = tuple([d - 1, 1] + [0] * (d - 2))
    fib = pi_fibres(n, d, u)
    if d < 3:
        perp = [((c, 1),) for c in range(len(fib.f))]
    else:
        first = spans[2].sparse if d == 3 else ann_piece(f, (1, 1) + (0,) * (d - 2)).perp
        perp = _growth_chain(f, first)[-1]
    top = _catalecticant(depolarize(f), d)
    ok = rank(len(fib.f), [*perp, *[_pulled_back(fib, row) for row in top]],
              f.field) == len(perp)
    dim_image = _image_dim(fib, perp, f.field)
    cert = Certificate("proper-ideal-containment", partial(tensor_digest, f), verdict=ok)
    cert.add(degree=u, dim_image=dim_image,
             dim_target=_dim_piece(veronese_ring(n), d) - len(top), ok=ok,
             vacuous=not dim_image)
    if not ok:
        cert.failure = "the projected piece escapes the form's annihilator"
    return cert
