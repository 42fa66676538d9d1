"""Acceptance suite: every exact identity the library promises, one test per
criterion, each printing a single pass/fail line (run with -s to see them all).

All assertions are exact (tolerance zero); the stated wall-clock budgets are
asserted too, with wide margins on commodity hardware.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from borderapolar.apolarity import (
    HomPoly,
    ann_piece,
    ann_sym_piece,
    depolarize,
    polarize,
)
from borderapolar.bounds import (
    is_111_sharp,
    is_sharp,
    macaulay_bound,
    macaulay_rep,
    verify_containment_lemma,
    verify_gen_count_transfer,
    verify_lemma_1_minus_ed,
)
from borderapolar.diagonal_maps import (
    direct_sum_check,
    ir_generators,
    ir_piece,
    pi_image,
)
from borderapolar.grading import dim_piece, ones, segre_ring, veronese_ring
from borderapolar.ideals import (
    PointSet,
    degrees_up_to,
    diagonal_points,
    expand,
    generic_hf,
    hilbert_function,
    is_ideal_closed,
    point_ideal,
    very_general_points,
)
from borderapolar.linalg import Subspace
from borderapolar.transfer import (
    check_condition_ii,
    check_condition_iii,
    comon_certificate,
    rho_ideal,
    sigma,
    upsilon,
)
from support import (
    concise_power_sum_instance,
    diagonal_tensor,
    power_of_form,
    random_symmetric_tensor,
    sparse_rows,
)
from test_bounds import all_representations


def report(tag: str, ok: bool):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}")
    assert ok, tag


# -- criterion 1 --------------------------------------------------------------

def test_criterion_01_kernel_identity():
    t0 = time.perf_counter()
    ok = True
    for n, d in itertools.product((2, 3), repeat=2):
        ring = segre_ring(n, d)
        expanded = expand(ir_generators(n, d), ring, 4)
        for u in degrees_up_to(ring, 4):
            k = sum(u)
            ok = ok and expanded.piece(u) == ir_piece(n, d, u)
            ok = ok and (
                dim_piece(ring, u) - ir_piece(n, d, u).dim == math.comb(n + k - 1, k)
            )
    elapsed = time.perf_counter() - t0
    report("criterion-01 kernel identity ker(pi) = diagonal ideal", ok and elapsed < 60)


# -- criterion 2 --------------------------------------------------------------

def test_criterion_02_counting():
    ok = True
    for n in range(1, 6):
        for r in range(0, 7):
            seqs = sum(
                1 for _ in itertools.combinations_with_replacement(range(n), r)
            )
            ok = ok and seqs == math.comb(n + r - 1, r)
            ok = ok and seqs == dim_piece(veronese_ring(n), r)
    report("criterion-02 non-decreasing sequence count", ok)


# -- criterion 3 --------------------------------------------------------------

def test_criterion_03_degree_one_image():
    t0 = time.perf_counter()
    rng = random.Random(101)
    ok = True
    checked = 0
    for n, d in ((2, 3), (2, 4), (3, 3)):
        for _ in range(7):
            f = random_symmetric_tensor(n, d, rng)
            lifted = pi_image(n, d, ones(d), ann_piece(f, ones(d)))
            ok = ok and lifted == ann_sym_piece(depolarize(f), d)
            checked += 1
    elapsed = time.perf_counter() - t0
    report(
        f"criterion-03 pi(Ann_1) equals Ann(p)_d on {checked} random tensors",
        ok and checked >= 20 and elapsed < 120,
    )


# -- criterion 4 --------------------------------------------------------------

def test_criterion_04_direct_sum():
    ok = True
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            ring = segre_ring(n, d)
            for u in degrees_up_to(ring, 5):
                ok = ok and direct_sum_check(n, d, u)
    report("criterion-04 direct sum split of every graded piece", ok)


# -- criteria 5 and 6 share their instances ------------------------------------

def _transport_instances():
    rng = random.Random(202)
    d = 3
    out = []
    for n in (2, 3):
        ring_v = veronese_ring(n)
        for r in range(n, math.comb(n + 1, 2) + 1):
            zs = very_general_points(ring_v, r, 4, rng)
            ideal = point_ideal(zs, 4)
            lifted = upsilon(ideal, d, 4)
            out.append((n, r, zs, ideal, lifted))
    return out


INSTANCES = None


def _instances():
    global INSTANCES
    if INSTANCES is None:
        INSTANCES = _transport_instances()
    return INSTANCES


def test_criterion_05_upsilon_transport():
    t0 = time.perf_counter()
    d = 3
    ok = True
    for n, r, zs, ideal, lifted in _instances():
        for u in lifted.degrees():
            ok = ok and hilbert_function(lifted, u) == generic_hf(r, lifted.ring, u)
        ok = ok and is_ideal_closed(lifted)
        diag = point_ideal(diagonal_points(zs, d), 4)
        ok = ok and all(lifted.piece(u) == diag.piece(u) for u in lifted.degrees())
        # apolarity transport for p = sum of d-th powers of the drawn points
        terms = {}
        for pt in zs.points:
            for mono, c in power_of_form(pt, d).terms.items():
                terms[mono] = terms.get(mono, Fraction(0)) + c
        p = HomPoly(n, d, terms)
        ok = ok and all(
            ann_sym_piece(p, k).contains(ideal.piece(k)) for k in range(5)
        )
        f = polarize(p)
        for u in lifted.degrees():
            if all(x <= 1 for x in u):
                ok = ok and ann_piece(f, u).contains(lifted.piece(u))
    elapsed = time.perf_counter() - t0
    report("criterion-05 desymmetrization transport", ok and elapsed < 300)


def test_criterion_06_round_trips():
    ok = True
    for n, r, zs, ideal, lifted in _instances():
        back = rho_ideal(lifted)
        tw = sigma(lifted)
        for k in range(5):
            ok = ok and back.piece(k) == ideal.piece(k)
            ok = ok and tw.piece(k) == ideal.piece(k)
    report("criterion-06 restriction and symmetrization round trips", ok)


# -- criterion 7 --------------------------------------------------------------

def test_criterion_07_main_theorem_pipeline():
    d = 3
    ok = True
    for n in (2, 3):
        f = diagonal_tensor(n, d)
        pts = PointSet(
            veronese_ring(n),
            tuple(tuple(1 if j == t else 0 for j in range(n)) for t in range(n)),
        )
        lifted = upsilon(point_ideal(pts, d + 1), d, d + 1)
        two = check_condition_ii(lifted, f)
        three = check_condition_iii(lifted, f)
        ok = ok and two.verdict and three.verdict
        ok = ok and (not two.verdict or three.verdict)  # (ii) implies (iii)
        restricted = rho_ideal(lifted)
        p = depolarize(f)
        ok = ok and all(
            ann_sym_piece(p, k).contains(restricted.piece(k))
            for k in range(restricted.bound + 1)
        )
        ok = ok and all(
            hilbert_function(restricted, k) == generic_hf(n, restricted.ring, k)
            for k in range(restricted.bound + 1)
        )
        cert = comon_certificate(f, n, lifted)
        ok = ok and cert.verdict
    report("criterion-07 containment conditions and restriction", ok)


# -- criteria 8 and 9 share their instances --------------------------------------

SHARP_INSTANCES = None


def _sharp_instances():
    global SHARP_INSTANCES
    if SHARP_INSTANCES is None:
        rng = random.Random(303)
        out = []
        for k in range(10):
            n = 2 if k % 2 else 3
            out.append(concise_power_sum_instance(n, 3, rng))
        SHARP_INSTANCES = out
    return SHARP_INSTANCES


def test_criterion_08_sharpness_coherence():
    ok = True
    for f in _sharp_instances():
        ok = ok and is_sharp(f).verdict == is_111_sharp(f).verdict
    report("criterion-08 sharp iff 111-sharp on 10 power-sum instances", ok)


def test_criterion_09_lemma_suite():
    ok = True
    instances = list(_sharp_instances()) + [diagonal_tensor(2, 4)]
    for f in instances:
        lem = verify_lemma_1_minus_ed(f)
        ok = ok and lem.verdict  # containment holds on every concise instance
        if is_sharp(f).verdict:
            ok = ok and lem.witnesses[0]["equal"]
        ok = ok and verify_gen_count_transfer(f).verdict
        ok = ok and verify_containment_lemma(f).verdict
    report("criterion-09 projection lemmas and generator-count transfer", ok)


# -- criterion 10 --------------------------------------------------------------

def test_criterion_10_macaulay():
    t0 = time.perf_counter()
    ok = True
    for a in range(1, 9):
        for m in range(0, 201):
            ok = ok and macaulay_rep(m, a).reconstruct() == m
            if m <= a:
                ok = ok and macaulay_bound(m, a) == m
    for a in range(1, 6):
        for m in range(1, 51):
            reps = all_representations(m, a)
            ok = ok and len(reps) == 1 and reps[0] == macaulay_rep(m, a).terms
    elapsed = time.perf_counter() - t0
    report("criterion-10 Macaulay representations and growth bound", ok and elapsed < 10)


# -- criterion 11 --------------------------------------------------------------

def test_criterion_11_negative_controls():
    d = 3
    f = diagonal_tensor(2, d)
    pts = PointSet(veronese_ring(2), ((1, 0), (0, 1)))
    lifted = upsilon(point_ideal(pts, d + 1), d, d + 1)
    u_first = (d, 0, 0)
    dim = dim_piece(lifted.ring, u_first)
    rows = list(lifted.piece(u_first).basis)
    rows[0] = tuple(1 if i == 0 else 0 for i in range(dim))
    bad = lifted.with_piece(u_first, Subspace.from_rows(dim, sparse_rows(rows)))
    cert = check_condition_iii(bad, f)
    perturbed_fails = (not cert.verdict) and str(u_first) in (cert.failure or "")

    refused = False
    z = PointSet(segre_ring(2, d), (((1, 2), (3, 4), (5, 7)),))
    try:
        sigma(point_ideal(z, 3))
    except ValueError:
        refused = True

    range_guarded = 0
    for bad_r in (1, math.comb(3, 2) + 1):
        try:
            comon_certificate(f, bad_r, lifted)
        except ValueError:
            range_guarded += 1

    report(
        "criterion-11 negative controls (perturbation, refusal, range guard)",
        perturbed_fails and refused and range_guarded == 2,
    )


# -- criterion 12 --------------------------------------------------------------

def test_criterion_12_provenance_honesty():
    d = 3
    f = diagonal_tensor(2, d)
    pts = PointSet(veronese_ring(2), ((1, 0), (0, 1)))
    lifted = upsilon(point_ideal(pts, d + 1), d, d + 1)
    hand = lifted.with_piece((0, 0, 0), lifted.piece((0, 0, 0)))  # user-supplied copy
    assert hand.provenance == "user"
    cert = comon_certificate(f, 2, hand)
    honest = cert.slip_provenance.startswith("Slip-unknown")
    certified = comon_certificate(f, 2, lifted).slip_provenance.startswith(
        "Slip-certified"
    )
    report("criterion-12 honest closure-membership provenance", honest and certified)
