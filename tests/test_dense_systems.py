"""The systems the sharpness checks hand elimination as dense integer rows
(`IntRows`), over Q and GF(2^31 - 1), against the (column, value) pair
systems they replace, kept here as they were written, and against the
references of `tests/support.py`: the degree-one count, the compatibility
equations of `annihilator_from_below`, the fibre equations of `_image_dim`
and a symmetric F's flattening in `slice_spans`.

The tensors: for each n <= 4 and d <= 5 shape, a `SymTensor` built from
entries, the polarization of a form with rational coefficients, a sparse
polarized form, the zero tensor and a `GeneralTensor` with the symmetric
entries."""

import random
from fractions import Fraction as F

import pytest

from borderapolar import bounds
from borderapolar.apolarity import (
    GeneralTensor,
    HomPoly,
    SymTensor,
    _catalecticant,
    _contraction_rows,
    depolarize,
    polarize,
    slice_spans,
)
from borderapolar.bounds import _image_dim, _slice_keys, min_generators_degree_one
from borderapolar.diagonal_maps import pi_fibres
from borderapolar.grading import dim_piece, monomials, segre_ring, veronese_ring
from borderapolar.ideals import _compatibility, annihilator_from_below, span_from_below
from borderapolar.linalg import QQ, IntRows, PrimeField, Subspace, kernel, rank
from support import (
    image_reference,
    min_generators_degree_one_reference,
    pi_matrix_reference,
    slice_spans_reference,
)

FIELDS = [QQ, PrimeField(2147483647)]
SHAPES = ((1, 3), (2, 2), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (2, 5), (3, 5))


def _tensors(field) -> list:
    rng = random.Random(72)
    out = []
    for n, d in SHAPES:
        monos = monomials(veronese_ring(n), d)
        integral = HomPoly(n, d, {m: rng.randint(-5, 5) for m in monos}, field=field)
        rational = HomPoly(n, d, {m: F(rng.randint(-5, 5), rng.randint(1, 7)) for m in monos},
                           field=field)
        sparse = HomPoly(n, d, {m: rng.choice((-2, 1, 3))
                                for m in rng.sample(monos, min(len(monos), n))}, field=field)
        built = SymTensor(n, d, polarize(integral).entries, field=field)
        out += [built, polarize(rational), polarize(sparse), SymTensor(n, d, {}, field=field),
                GeneralTensor(n, d, built.entries, field=field)]
    return out


# -- the pair-built systems, as they were ---------------------------------------------

def degree_one_pairs(f, spans) -> tuple:
    """(width, rows) of the degree-one count as sparse pairs, summed in dicts."""
    n, d = f.n, f.order
    width_0 = n ** (d - 1)
    factors, width = [], 0
    for i in range(1, d)[:1] if isinstance(f, SymTensor) else range(1, d):
        cons = spans[i].constraints()
        at = [[] for _ in range(width_0)]
        for q, row in enumerate(cons):
            for t, y in row:
                at[t].append((width + q, y))
        factors.append((len(cons), at, _slice_keys(n, d, i)))
        width += n * len(cons)
    rows = []
    for a in range(n):
        first = a * width_0 // n
        for row in spans[0].sparse:
            acc = {}
            for c, x in row:
                for codim, at, keys in factors:
                    j, t = keys[c]
                    for col, y in at[first + t]:
                        acc[col + j * codim] = acc.get(col + j * codim, 0) + y * x
            rows.append([(col, x) for col, x in acc.items() if x])
    return width, rows


def annihilator_from_below_pairs(ring, u, i, ann, field) -> tuple:
    """`annihilator_from_below` with pair equations and per-j dicts of lambda."""
    if not ann:
        return ()
    pairs, owners = _compatibility(ring, u, i)
    n, r = ring.n, len(ann)
    at = [[] for _ in range(dim_piece(ring, u))]
    for a, row in enumerate(ann):
        for t, x in row:
            at[t].append((a, x))
    equations = []
    for j0, t0, j, t in pairs:
        row = [(j0 * r + a, x) for a, x in at[t0]] + [(j * r + a, -x) for a, x in at[t]]
        if row:
            equations.append(row)
    out = []
    for lam in kernel(n * r, equations, field=field).sparse:
        by_j = [{} for _ in range(n)]
        for q, x in lam:
            by_j[q // r][q % r] = x
        phi = [sum([by_j[j].get(a, 0) * x for a, x in at[t]]) for j, t in owners]
        out.append(tuple([(m, x) for m, x in enumerate(field.normalize(phi)) if x]))
    return tuple(out)


def image_dim_pairs(fibre, perp, field) -> int:
    """`_image_dim` with the fibre equations as pairs, differences in dicts."""
    at = [{} for _ in fibre]
    for a, row in enumerate(perp):
        for c, x in row:
            at[c][a] = x
    top = {m: c for c, m in enumerate(fibre)}
    equations = []
    for c, m in enumerate(fibre):
        here, there = at[c], at[top[m]]
        if c != top[m] and (here or there):
            diff = dict(here)
            for a, x in there.items():
                diff[a] = diff.get(a, 0) - x
            equations.append([(a, x) for a, x in diff.items() if x])
    return len(top) - len(perp) + rank(len(perp), equations, field)


# -- the differential tests ------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_degree_one_system_spans_what_the_pairs_span(monkeypatch, field):
    systems = []
    real = bounds.rank
    monkeypatch.setattr(bounds, "rank", lambda ncols, rows, fd:
                        systems.append((ncols, rows)) or real(ncols, rows, fd))
    counts = set()
    for f in _tensors(field):
        systems.clear()
        count = min_generators_degree_one(f)
        assert count == min_generators_degree_one_reference(f), f
        [(width, rows)] = systems
        assert type(rows) is IntRows
        want_width, want = degree_one_pairs(f, slice_spans(f))
        assert width == want_width and len(rows) == len(want)
        assert Subspace.from_rows(width, rows, field=field) \
            == Subspace.from_rows(width, want, field=field), f
        counts.add(count)
    assert len(counts) > 3


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_compatibility_step_matches_the_pairs_and_the_primal_span(field):
    # on the Segre side from R_{d-1} = Ann(F)_{1-e_{d-1}}^perp, along the
    # first and the last factor; on the Veronese side from the row span of
    # the catalecticant Cat_{d-1}
    steps = 0
    for f in _tensors(field):
        n, d = f.n, f.order
        ring, u = segre_ring(n, d), (1,) * (d - 1) + (0,)
        r_last = slice_spans(f)[d - 1]
        cases = [(ring, u, i, r_last) for i in (0, d - 1)]
        p = depolarize(f) if isinstance(f, SymTensor) else None
        if p is not None:
            vring = veronese_ring(n)
            cat = Subspace.from_rows(dim_piece(vring, d - 1), _catalecticant(p, d - 1),
                                     field=field)
            cases.append((vring, d - 1, 0, cat))
        for ring, u, i, perp in cases:
            got = annihilator_from_below(ring, u, i, perp.sparse, field)
            want = annihilator_from_below_pairs(ring, u, i, perp.sparse, field)
            up = u + 1 if isinstance(u, int) else tuple(x + (k == i) for k, x in enumerate(u))
            dim = dim_piece(ring, up)
            assert len(got) == len(want)
            assert Subspace.from_rows(dim, got, field=field) \
                == Subspace.from_rows(dim, want, field=field), (f, u, i)
            below = kernel(perp.ambient_dim, perp.sparse, field=field)
            pieces = {u: below}
            primal = span_from_below(
                ring, up, lambda v: pieces.get(v, Subspace.zero(dim_piece(ring, v), field=field)),
                field)
            assert len(got) == primal.codim, (f, u, i)
            steps += 1
    assert steps > 100


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_fibre_equations_give_the_image_dimension(field):
    # pi(P) for P = Ann(F)_{1-e_{d-1}}, whose annihilator is R_{d-1}, and for
    # the piece cut out by the growth chain's first step, against the dense
    # image of the reference pi matrix
    seen = set()
    for f in _tensors(field):
        n, d = f.n, f.order
        u = (1,) * (d - 1) + (0,)
        perp = slice_spans(f)[d - 1].sparse
        cases = [(u, perp)]
        if d >= 3:
            up = (2,) + (1,) * (d - 2) + (0,)
            cases.append((up, annihilator_from_below(segre_ring(n, d), u, 0, perp, field)))
        for v, rows in cases:
            fib = pi_fibres(n, d, v)
            got = _image_dim(fib, rows, field)
            assert got == image_dim_pairs(fib.f, rows, field)
            piece = kernel(len(fib.f), rows, field=field)
            assert got == image_reference(pi_matrix_reference(n, d, v, field), piece).dim, (f, v)
            seen.add(got)
    assert len(seen) > 5


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_symmetric_flattening_spans_what_its_pairs_span(field):
    for f in _tensors(field):
        spans = slice_spans(f)
        assert spans == slice_spans_reference(f), f
        if isinstance(f, SymTensor):
            pairs = [sorted(row) for _, row in sorted(_contraction_rows(f, range(1, f.order))
                                                      .items())]
            assert spans[0] == Subspace.from_rows(f.n ** (f.order - 1), pairs, field=field)
