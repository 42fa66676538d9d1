"""Macaulay binomial representations and the sharpness tests for symmetric tensors.

The growth bound machinery is purely arithmetic: the a-th Macaulay
representation of an integer and its degree-shifted sum.  The sharpness
tests count minimal generators of annihilator ideals degreewise and compare
Hilbert function values, with a separate quick test in the three-factor case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .apolarity import (
    SymTensor,
    ann_piece,
    ann_sym_piece,
    depolarize,
    is_concise,
)
from .diagonal_maps import pi_image, proper_unit_box_degrees
from .grading import (
    PieceElement,
    add_degrees,
    dim_piece,
    ones,
    segre_ring,
    unit_degree,
    veronese_ring,
)
from .ideals import expand, min_generators, variable_multiples
from .linalg import Matrix, Subspace
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

def _require_concise_symmetric(f) -> SymTensor:
    if not isinstance(f, SymTensor):
        raise ValueError("sharpness is defined for symmetric tensors")
    if not is_concise(f):
        raise ValueError("sharpness is defined for concise tensors")
    return f


def min_generators_degree_one(f) -> int:
    """Minimal generators of Ann(F) in degree (1,...,1)."""
    return min_generators(segre_ring(f.n, f.order), ones(f.order), partial(ann_piece, f), f.field)


def min_generators_sym_in_degree(p, k: int) -> int:
    """Minimal generators of Ann(p) in degree k."""
    return min_generators(veronese_ring(p.n), k, partial(ann_sym_piece, p), p.field)


# -- sharpness -----------------------------------------------------------------------

def is_sharp(f) -> Certificate:
    """Three exact conditions: n-1 degree-one minimal generators, Hilbert value n
    on the proper 0/1 degrees, and Hilbert value n along s e_i + e_j for the
    ideal generated by the single piece Ann(F)_{e_i+e_j}."""
    f = _require_concise_symmetric(f)
    n, d = f.n, f.order
    if d < 3:
        raise ValueError("sharpness needs at least three factors")
    ring = segre_ring(n, d)
    cert = Certificate(
        check="sharp",
        inputs_digest=tensor_digest(f),
        verdict=False,
    )
    gens = min_generators_degree_one(f)
    cond1 = gens == n - 1
    cert.add(stage="degree-one-generators", count=gens, want=n - 1, ok=cond1)

    cond2 = True
    for u in proper_unit_box_degrees(d):
        hf = ann_piece(f, u).codim
        ok = hf == n
        if not ok:
            cond2 = False
            cert.add(stage="unit-box-hilbert", degree=u, have=hf, want=n, ok=False)
    cert.add(stage="unit-box-hilbert", ok=cond2)

    cond3 = True
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            base_u = tuple(1 if t in (i, j) else 0 for t in range(d))
            sub = ann_piece(f, base_u)
            for s in range(1, d):
                deg = tuple(
                    (s if t == i else 0) + (1 if t == j else 0) for t in range(d)
                )
                hf = dim_piece(ring, deg) - sub.dim
                ok = hf == n
                if not ok:
                    cond3 = False
                    cert.add(stage="two-factor-growth", i=i, j=j, s=s,
                             have=hf, want=n, ok=False)
                if s < d - 1:
                    dim = dim_piece(ring, add_degrees(deg, unit_degree(d, i)))
                    rows = variable_multiples(ring, deg, sub.sparse, i)
                    sub = Subspace.from_rows(dim, Matrix.of_sparse(dim, rows, f.field))
    cert.add(stage="two-factor-growth", ok=cond3)
    cert.verdict = cond1 and cond2 and cond3
    if not cert.verdict:
        cert.failure = "a sharpness condition fails (see witnesses)"
    return cert


def is_111_sharp(f) -> Certificate:
    """Exactly n-1 minimal generators of multidegree (1,1,1); three factors only."""
    if f.order != 3:
        raise ValueError("the 111 test is defined for three-factor tensors")
    if not is_concise(f):
        raise ValueError("the 111 test is defined for concise tensors")
    gens = min_generators_degree_one(f)
    ok = gens == f.n - 1
    cert = Certificate(
        check="111-sharp",
        inputs_digest=tensor_digest(f),
        verdict=ok,
    )
    cert.add(stage="degree-111-generators", count=gens, want=f.n - 1, ok=ok)
    if not ok:
        cert.failure = f"found {gens} minimal generators, expected {f.n - 1}"
    return cert


# -- supporting identity checks ------------------------------------------------------

def verify_lemma_1_minus_ed(f) -> Certificate:
    """Compare pi(Ann(F)_{1-e_d}) with Ann(p_F)_{d-1}: containment always
    reported, equality recorded separately (it holds under sharpness)."""
    f = _require_concise_symmetric(f)
    n, d = f.n, f.order
    u = tuple(1 if t < d - 1 else 0 for t in range(d))
    lifted = pi_image(n, d, u, ann_piece(f, u))
    target = ann_sym_piece(depolarize(f), d - 1)
    contained = target.contains(lifted)
    equal = lifted == target
    cert = Certificate(
        check="image-of-degree-one-minus-last",
        inputs_digest=tensor_digest(f),
        verdict=contained,
    )
    cert.add(degree=u, dim_image=lifted.dim, dim_target=target.dim,
             contained=contained, equal=equal)
    if not contained:
        cert.failure = "the projected annihilator piece is not apolar to the form"
    return cert


def verify_gen_count_transfer(f) -> Certificate:
    """Minimal generators of Ann(p_F) in degree d vs Ann(F) in degree (1,...,1)."""
    f = _require_concise_symmetric(f)
    p = depolarize(f)
    s_tensor = min_generators_degree_one(f)
    s_poly = min_generators_sym_in_degree(p, f.order)
    ok = s_tensor == s_poly
    cert = Certificate(
        check="generator-count-transfer",
        inputs_digest=tensor_digest(f),
        verdict=ok,
    )
    cert.add(tensor_side=s_tensor, form_side=s_poly, ok=ok)
    if not ok:
        cert.failure = f"generator counts differ: {s_tensor} vs {s_poly}"
    return cert


def proper_degree_annihilator_ideal(f, bound: int):
    """The ideal generated by every Ann(F)_u with u strictly inside the unit box."""
    n, d = f.n, f.order
    ring = segre_ring(n, d)
    gens = []
    for u in proper_unit_box_degrees(d):
        for b in ann_piece(f, u).basis:
            gens.append(PieceElement(ring, u, tuple(b)))
    return expand(gens, ring, bound, provenance="proper-annihilator", field=f.field)


def verify_containment_lemma(f) -> Certificate:
    """pi of the (d-1)e_1 + e_2 piece of the proper-degree annihilator ideal
    lies inside Ann(p_F)_d."""
    f = _require_concise_symmetric(f)
    n, d = f.n, f.order
    ideal = proper_degree_annihilator_ideal(f, d)
    u = tuple([d - 1, 1] + [0] * (d - 2))
    lifted = pi_image(n, d, u, ideal.piece(u))
    target = ann_sym_piece(depolarize(f), d)
    ok = target.contains(lifted)
    cert = Certificate(
        check="proper-ideal-containment",
        inputs_digest=tensor_digest(f),
        verdict=ok,
    )
    cert.add(degree=u, dim_image=lifted.dim, dim_target=target.dim, ok=ok,
             vacuous=lifted.is_zero)
    if not ok:
        cert.failure = "the projected piece escapes the form's annihilator"
    return cert
