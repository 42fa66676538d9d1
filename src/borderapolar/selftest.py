"""Built-in invariant suites, runnable from the command line at two scales.

Each suite re-derives one family of exact identities from scratch and
reports an instance count; the desk scale is sized for a coffee-break run,
the deep scale raises dimensions, factors, and bounds by one notch.

A suite is written as a generator over (cfg, rng) that yields once per
instance: a failure detail, or "" when the instance passes.  The `_suite`
decorator names it and turns it into `suite(cfg, rng) -> SuiteResult`: it runs
the generator to its first failure, never resuming it after one, and counts
and times the instances it saw.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import bounds as bounds_mod
from . import diagonal_maps as dmaps
from .apolarity import (
    HomPoly,
    SymTensor,
    ann_piece,
    ann_sym_piece,
    depolarize,
    is_concise,
    polarize,
)
from .grading import _dim_piece, monomials, ones, segre_ring, veronese_ring
from .ideals import (
    PointSet,
    annihilator_of_image,
    degrees_up_to,
    diagonal_points,
    expand,
    first_non_generic,
    point_ideal,
    very_general_points,
)
from .transfer import (
    check_condition_ii,
    check_condition_iii,
    comon_certificate,
    rho_ideal,
    sigma,
    upsilon,
)
from .linalg import Subspace


@dataclass
class ScaleConfig:
    max_n: int
    max_d: int
    bound: int
    instances: int


SCALES = {
    "desk": ScaleConfig(max_n=3, max_d=3, bound=3, instances=4),
    "deep": ScaleConfig(max_n=4, max_d=4, bound=4, instances=8),
}


@dataclass
class SuiteResult:
    name: str
    instances: int
    passed: bool
    seconds: float
    detail: str = ""


def diagonal_tensor(n: int, d: int) -> SymTensor:
    """sum_j e_j^{tensor d}: the unit tensor, concise of minimal border rank."""
    return SymTensor(n, d, {tuple([j] * d): 1 for j in range(n)})


def sum_of_powers_tensor(n: int, d: int, forms) -> SymTensor:
    """sum_j l_j^{tensor d} for linear forms given by coefficient vectors of
    ints or Fractions: the polarization of sum_j l_j^d, whose coefficient of
    b^gamma is (d!/gamma!) sum_j l_j^gamma.  With l_j = L_j / D_j, L_j
    integer, that is sum_j L_j^gamma / D_j^d, read off power tables."""
    bad = next((l for l in forms if len(l) != n), None)
    if bad is not None:
        raise ValueError(f"form {bad!r} has {len(bad)} coordinates, expected n={n}")
    scaled = []  # (L_j, D_j)
    for l in forms:
        if not all(isinstance(c, (int, Fraction)) for c in l):
            raise TypeError(f"form {l!r} has a coordinate that is not an int or a Fraction")
        den = math.lcm(*[c.denominator for c in l])
        scaled.append(([c.numerator * (den // c.denominator) for c in l], den))
    common = math.lcm(*[den ** d for _, den in scaled])
    gammas = monomials(veronese_ring(n), d)
    total = [0] * len(gammas)
    for ints, den in scaled:
        powers, weight = [[c ** e for e in range(d + 1)] for c in ints], common // den ** d
        total = [t + weight * math.prod([p[e] for p, e in zip(powers, gamma)])
                 for t, gamma in zip(total, gammas)]
    fac = math.factorial(d)
    terms = {gamma: Fraction(fac // math.prod(map(math.factorial, gamma)) * t, common)
             for gamma, t in zip(gammas, total)}
    return polarize(HomPoly(n, d, terms))


def random_forms(n: int, count: int, rng: random.Random):
    """`count` nonzero linear forms with integer coefficients in [-5, 5]."""
    while True:
        forms = [tuple(Fraction(rng.randint(-5, 5)) for _ in range(n)) for _ in range(count)]
        if all(any(f) for f in forms):
            return forms


def random_form(n: int, d: int, rng: random.Random) -> HomPoly:
    """A nonzero form of degree d with integer coefficients in [-5, 5]."""
    terms = {}
    for mono in monomials(veronese_ring(n), d):
        c = rng.randint(-5, 5)
        if c:
            terms[mono] = Fraction(c)
    if not terms:
        terms[tuple([d] + [0] * (n - 1))] = Fraction(1)
    return HomPoly(n, d, terms)


def random_symmetric_tensor(n: int, d: int, rng: random.Random) -> SymTensor:
    return polarize(random_form(n, d, rng))


# -- the suites -----------------------------------------------------------------

def _suite(name: str):
    def wrap(instances):
        def run(cfg: ScaleConfig, rng: random.Random) -> SuiteResult:
            t0 = time.perf_counter()
            count, detail = 0, ""
            for detail in instances(cfg, rng):
                count += 1
                if detail:
                    break
            return SuiteResult(name, count, not detail, time.perf_counter() - t0, detail)
        run.suite_name = name
        return run
    return wrap


@_suite("pi-kernel-direct-sum")
def suite_pi_kernel_direct_sum(cfg: ScaleConfig, rng: random.Random):
    for n in range(2, cfg.max_n + 1):
        for d in range(2, cfg.max_d + 1):
            ring = segre_ring(n, d)
            expanded = expand(dmaps.ir_generators(n, d), ring, cfg.bound)
            for u in degrees_up_to(ring, cfg.bound):
                k = sum(u)
                want = dmaps.ir_piece(n, d, u)
                if expanded.piece(u) != want:
                    yield f"generator expansion differs from ker pi at n={n} d={d} u={u}"
                elif _dim_piece(ring, u) - want.dim != math.comb(n + k - 1, k):
                    yield f"codimension of the diagonal ideal wrong at n={n} d={d} u={u}"
                elif not dmaps.direct_sum_check(n, d, u):
                    yield f"direct sum fails at n={n} d={d} u={u}"
                else:
                    yield ""


@_suite("counting")
def suite_counting(cfg: ScaleConfig, rng: random.Random):
    for n in range(1, cfg.max_n + 2):
        for r in range(0, cfg.bound + 3):
            seqs = sum(
                1 for _ in itertools.combinations_with_replacement(range(n), r)
            )
            if seqs != math.comb(n + r - 1, r):
                yield f"sequence count mismatch at n={n} r={r}"
            elif seqs != _dim_piece(veronese_ring(n), r):
                yield f"dimension formula mismatch at n={n} r={r}"
            else:
                yield ""


@_suite("degree-one-image")
def suite_degree_one_image(cfg: ScaleConfig, rng: random.Random):
    shapes = [(2, 3), (2, 4), (3, 3)]
    if cfg.max_n >= 4:
        shapes.append((3, 4))
    for n, d in shapes:
        for _ in range(cfg.instances):
            f = random_symmetric_tensor(n, d, rng)
            image = annihilator_of_image(dmaps.pi_fibres(n, d, ones(d)),
                                         ann_piece(f, ones(d)).perp, field=f.field)
            target = ann_sym_piece(depolarize(f), d)  # held by the RREF of its perp
            held = Subspace(target.ambient_dim, target.perp, field=target.field)
            same = len(image) == target.codim and all(map(held._contains_row, image))
            yield "" if same else f"projected annihilator differs at n={n} d={d}"


@_suite("upsilon-transport")
def suite_upsilon_transport(cfg: ScaleConfig, rng: random.Random):
    d = 3
    for n in sorted({2, cfg.max_n}):
        for r in range(n, math.comb(n + 1, 2) + 1):
            zs = very_general_points(veronese_ring(n), r, cfg.bound, rng)
            ideal = point_ideal(zs, cfg.bound)
            lifted = upsilon(ideal, d, cfg.bound)
            diag = point_ideal(diagonal_points(zs, d), cfg.bound,
                               provenance="diagonal-points")
            bad = first_non_generic(lifted, r)
            differs = [u for u in lifted.degrees() if lifted.piece(u) != diag.piece(u)]
            if bad is not None:
                yield f"Hilbert transport fails at n={n} r={r} u={bad}"
            elif differs:
                yield f"lifted ideal differs from diagonal points at n={n} r={r} u={differs[0]}"
            else:
                back, twisted = rho_ideal(lifted), sigma(lifted)
                wrong = [k for k in range(cfg.bound + 1)
                         if back.piece(k) != ideal.piece(k) or twisted.piece(k) != ideal.piece(k)]
                yield f"round trip fails at n={n} r={r} degree {wrong[0]}" if wrong else ""


@_suite("pipeline")
def suite_pipeline(cfg: ScaleConfig, rng: random.Random):
    d = 3
    for n in range(2, cfg.max_n + 1):
        f = diagonal_tensor(n, d)
        pts = [tuple(1 if j == t else 0 for j in range(n)) for t in range(n)]
        zs = PointSet(veronese_ring(n), tuple(pts))
        ideal = point_ideal(zs, d + 1)
        lifted = upsilon(ideal, d, d + 1)
        cert = comon_certificate(f, n, lifted)
        if not cert.verdict:
            yield f"pipeline certificate fails for the diagonal tensor, n={n}: {cert.failure}"
        elif not (check_condition_ii(lifted, f).verdict and check_condition_iii(lifted, f).verdict):
            yield f"containment conditions fail for the diagonal tensor, n={n}"
        else:
            yield ""


@_suite("sharpness-coherence")
def suite_sharpness(cfg: ScaleConfig, rng: random.Random):
    for n in (2, min(cfg.max_n, 3)):
        for _ in range(cfg.instances):
            forms = random_forms(n, n, rng)
            f = sum_of_powers_tensor(n, 3, forms)
            agree = (not is_concise(f)
                     or bounds_mod.is_sharp(f).verdict == bounds_mod.is_111_sharp(f).verdict)
            yield "" if agree else f"sharpness tests disagree at n={n}"


@_suite("macaulay")
def suite_macaulay(cfg: ScaleConfig, rng: random.Random):
    for a in range(1, 7):
        for m in range(0, 101):
            if bounds_mod.macaulay_rep(m, a).reconstruct() != m:
                yield f"reconstruction fails at m={m} a={a}"
            elif m <= a and bounds_mod.macaulay_bound(m, a) != m:
                yield f"degenerate bound fails at m={m} a={a}"
            else:
                yield ""


def _rejects(fn, *args) -> bool:
    """Whether fn(*args) raises ValueError."""
    try:
        fn(*args)
    except ValueError:
        return True
    return False


@_suite("negative-controls")
def suite_negative_controls(cfg: ScaleConfig, rng: random.Random):
    n, d = 2, 3
    f = diagonal_tensor(n, d)
    zs = PointSet(veronese_ring(n), ((1, 0), (0, 1)))
    ideal = point_ideal(zs, d + 1)
    lifted = upsilon(ideal, d, d + 1)
    u_first = (d, 0, 0)
    ring = lifted.ring
    bad_rows = list(lifted.piece(u_first).sparse)
    # swap in a vector that is visibly not apolar: the pure power monomial
    bad_rows[0] = ((0, 1),)
    perturbed = lifted.with_piece(
        u_first,
        Subspace.from_rows(_dim_piece(ring, u_first), bad_rows),
    )
    accepted = check_condition_iii(perturbed, f).verdict
    yield "condition iii accepted a piece that is not apolar to the tensor" if accepted else ""
    no_diagonal = point_ideal(PointSet(ring, (((1, 2), (3, 4), (5, 7)),)), 2)
    yield "" if _rejects(sigma, no_diagonal) else "sigma accepted an ideal without I_R"
    too_many = math.comb(n + 1, 2) + 1
    yield "" if _rejects(comon_certificate, f, too_many, lifted) else (
        f"comon_certificate accepted r={too_many} above the admissible range")


SUITES = tuple((suite.suite_name, suite) for suite in (
    suite_counting,
    suite_macaulay,
    suite_pi_kernel_direct_sum,
    suite_degree_one_image,
    suite_upsilon_transport,
    suite_pipeline,
    suite_sharpness,
    suite_negative_controls,
))


def run_selftest(scale: str = "desk", seed: int = 0):
    """Run every suite; returns (results, all_passed)."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    cfg = SCALES[scale]
    results = [fn(cfg, random.Random(seed + k)) for k, (_, fn) in enumerate(SUITES)]
    return results, all(r.passed for r in results)
