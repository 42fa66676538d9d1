"""Pieces held by their annihilators, cross-checked against the primal path.

A point ideal's pieces, the pieces of its diagonal points and of any Segre
point set (factors distinct or repeated, with merge tables whose `section`
does not increase), and a kept ideal's Segre pieces each hold the RREF of
their annihilator and make their basis when it is first read.  Over Q and
GF(2^31-1) the basis must be the piece an unmerged `kernel` per degree gives
(`point_ideal_reference`) or the dense preimage (`kept_piece`), the
annihilator must be the `kernel` of that basis, and `==`, `contains` and
`codim` must answer the same whichever side each operand holds.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from borderapolar import bounds, diagonal_maps, ideals, transfer
from borderapolar.apolarity import HomPoly, ann_sym_piece
from borderapolar.diagonal_maps import pi_image, psi_image
from borderapolar.grading import degrees_up_to, monomials, segre_ring, veronese_ring
from borderapolar.ideals import (
    PointSet,
    diagonal_points,
    point_ideal,
    saturation_degrees,
    very_general_points,
)
from borderapolar.linalg import QQ, PrimeField, Subspace, kernel
from borderapolar.selftest import sum_of_powers_tensor
from borderapolar.apolarity import SymTensor
from borderapolar.transfer import comon_certificate, upsilon
from support import ann_sym_piece_reference, kept_piece, point_ideal_reference, sparse_rows

GF = PrimeField(2147483647)
FIELDS = [QQ, GF]
# each factor's class on segre_ring(n, 3); (0, 1, 0) has merge tables whose
# section does not increase, such as the one at (0, 1, 1)
PATTERNS = [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2)]


def draw_points(ring, r: int, rng: random.Random, field, pattern=None) -> PointSet:
    """r distinct points with small integer coordinates; on the Segre side
    factor i of each point is factor pattern[i] of a point with one factor
    per class."""
    while True:
        def factor():
            while True:
                v = tuple(rng.randint(-3, 3) for _ in range(ring.n))
                if any(v):
                    return v

        if ring.is_multigraded:
            pts = []
            for _ in range(r):
                classes = [factor() for _ in range(max(pattern) + 1)]
                pts.append(tuple(classes[c] for c in pattern))
        else:
            pts = [factor() for _ in range(r)]
        try:
            return PointSet(ring, tuple(pts), field=field)
        except ValueError:  # two points are one
            continue


def both_sides(sub: Subspace) -> tuple:
    """The same subspace held by its basis alone and by its annihilator alone."""
    return (Subspace(sub.ambient_dim, sub.sparse, None, sub.field),
            Subspace.by_perp(sub.ambient_dim, sub.perp, None, sub.field))


def assert_dual(got: Subspace, want: Subspace, rng: random.Random):
    """`got` holds its annihilator, makes `want`'s basis and has the kernel of
    that basis as its annihilator; comparisons agree across representations."""
    field = want.field
    assert got.held_by_perp and got.codim == want.codim
    assert repr(got.sparse) == repr(want.sparse)
    assert got.perp == kernel(want.ambient_dim, want.sparse, field=field).sparse
    # another subspace, inside it, around it or neither
    n = want.ambient_dim
    rows = [row for row in want.sparse if rng.random() < 0.5]
    rows += sparse_rows([[rng.randint(-2, 2) for _ in range(n)]
                         for _ in range(rng.randint(0, 2))], field)
    other = Subspace.from_rows(n, rows, field=field)
    primal, ref = both_sides(want)[0], both_sides(other)[0]
    for a in both_sides(want):
        assert a == primal and primal == a and hash(a) == hash(primal)
        assert a.codim == want.codim and a.contains(primal) and primal.contains(a)
        for b in both_sides(other):
            assert (a == b) == (primal == ref) == (b == a)
            assert a.contains(b) == primal.contains(ref)
            assert b.contains(a) == ref.contains(primal)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from(["veronese", "segre"]), st.integers(2, 3),
       st.integers(1, 5), st.sampled_from(PATTERNS), st.integers(0, 10 ** 6))
@example(QQ, "segre", 2, 3, (0, 1, 0), 0)
@example(GF, "segre", 3, 4, (0, 1, 0), 1)
def test_point_ideal_pieces_against_the_primal_path(field, side, n, r, pattern, seed):
    rng = random.Random(seed)
    ring = veronese_ring(n) if side == "veronese" else segre_ring(n, len(pattern))
    zs = draw_points(ring, r, rng, field, pattern)
    got, want = point_ideal(zs, 3), point_ideal_reference(zs, 3)
    for u in got.degrees():
        assert got.pieces[u].piece == (ring, u)
        assert_dual(got.pieces[u], want[u], rng)


def test_a_repeated_factor_has_merge_tables_that_do_not_rise():
    """The pattern (0, 1, 0) above reaches merge tables whose section does
    not increase, where the pulled-back rows are reduced once."""
    tables = [ideals._merge_table(2, u, (0, 1, 0))[1] for u in degrees_up_to(segre_ring(2, 3), 3)]
    assert [fib.rising for fib in tables].count(False) == 4


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(2, 3), st.integers(2, 3), st.integers(1, 6),
       st.integers(0, 10 ** 6))
def test_kept_pieces_against_the_dense_preimage(field, n, d, r, seed):
    """A kept ideal's Segre piece pulls W's annihilator back; its basis is the
    dense preimage of W, and the diagonal points' piece equals it."""
    rng = random.Random(seed)
    zs = draw_points(veronese_ring(n), r, rng, field)
    i = point_ideal(zs, 3)
    lifted = upsilon(i, d, 3)
    diag = point_ideal(diagonal_points(zs, d), 3)
    for u in lifted.degrees():
        piece = lifted.pieces[u]
        assert piece == diag.pieces[u]
        assert_dual(piece, kept_piece(n, d, u, i.pieces[sum(u)]), rng)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_a_verdict_only_certificate_makes_no_basis_of_w(field, monkeypatch):
    """comon_certificate on upsilon(point_ideal(...)) reads every W_k by its
    annihilator: the Hilbert function by its row count, apolarity and
    pi-containment by reducing rows against it, and saturation's colon by
    pairing with it.  No basis of any W_k is made, in the deciding degrees of
    saturation or elsewhere, and no Segre piece is built."""
    n, d, r = 3, 3, 4
    z = very_general_points(veronese_ring(n), r, d + 1, random.Random(5))
    f = sum_of_powers_tensor(n, d, z.points)
    f = SymTensor(f.n, f.order, f.entries, field=field)
    j = upsilon(point_ideal(PointSet(z.ring, z.points, field=field), d + 1), d, d + 1)

    def unreachable(*args):
        raise AssertionError("a Segre piece was built")

    monkeypatch.setattr(ideals._Preimages, "__getitem__", unreachable)
    cert = comon_certificate(f, r, j)
    assert cert.verdict
    assert saturation_degrees(j)[1]  # saturation was tested
    assert [k for k, w in j.veronese.items() if "sparse" in vars(w)] == []


@pytest.fixture
def apolar_pieces(monkeypatch):
    """Every piece `ann_sym_piece` or `ann_piece` hands to `transfer` or `bounds`."""
    made = []
    for module in (transfer, bounds):
        for name in ("ann_sym_piece", "ann_piece"):
            monkeypatch.setattr(module, name,
                                lambda *a, real=getattr(module, name): made.append(real(*a))
                                or made[-1])
    return made


def scan_workload(monkeypatch):
    """The benchmark's `perfbench/workloads.py`, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_no_basis_of_an_apolar_piece_is_made(field, apolar_pieces, monkeypatch):
    """Ann(p_F)_k and Ann(F)_u are read by their held rows and their sizes: a
    verdict-only `comon_certificate` on a kept point ideal, and the five
    checks of the `apolarity-scan` workload on its seed-1 tensors, make no
    basis of any of them."""
    n, d, r = 3, 3, 4
    z = very_general_points(veronese_ring(n), r, d + 1, random.Random(5))
    f = sum_of_powers_tensor(n, d, z.points)
    f = SymTensor(f.n, f.order, f.entries, field=field)
    j = upsilon(point_ideal(PointSet(z.ring, z.points, field=field), d + 1), d, d + 1)
    assert comon_certificate(f, r, j).verdict
    assert len(apolar_pieces) == d + 1
    workloads = scan_workload(monkeypatch)
    for item in workloads.scan_items(1):
        f = item.tensor
        item.tensor = SymTensor(f.n, f.order, f.entries, field=field)
        assert all(cert.verdict for cert in workloads.run_scan(item, bounds).values())
    assert {p.piece[0].kind.value for p in apolar_pieces} == {"V", "S"}
    assert [p for p in apolar_pieces if "sparse" in vars(p)] == []


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_a_vector_is_paired_with_the_held_rows(field, eliminations):
    """`contains_vector`, and `contains` of a vector, on a piece held by its
    annihilator pair the vector with the `perp` rows: members and
    non-members get the answer reduction by the basis gives, coerced through
    the field,
    and a vector of the wrong length is refused, with no elimination and no
    basis made."""
    rng = random.Random(11)
    zs = draw_points(veronese_ring(3), 4, rng, field)
    terms = {m: rng.randint(-3, 3) for m in monomials(veronese_ring(3), 3)}
    p = HomPoly(3, 3, terms, field=field)
    ideal, want_ideal = point_ideal(zs, 3), point_ideal_reference(zs, 3)
    pairs = [(ideal.pieces[k], want_ideal[k]) for k in range(4)]
    pairs += [(ann_sym_piece(p, k), ann_sym_piece_reference(p, k)) for k in range(5)]
    cases = []  # (piece, vector, answer)
    for got, want in pairs:
        n = want.ambient_dim
        for _ in range(3):
            member = [sum(rng.randint(-2, 2) * row[c] for row in want.basis) for c in range(n)]
            other = [rng.randint(-2, 2) for _ in range(n)]
            for v in (member, [str(x) for x in other]):
                cases.append((got, v, not any(want.reduce_vector(v))))
    answers = {answer for _, _, answer in cases}
    eliminations.clear()
    for got, v, answer in cases:
        assert got.contains_vector(v) is answer and got.contains(v) is answer
        with pytest.raises(ValueError, match="vector length mismatch"):
            got.contains_vector(v + [0])
    assert answers == {False, True} and eliminations == []
    assert all(got.held_by_perp and "sparse" not in vars(got) for got, _ in pairs)


class TestDegreesOfTheImages:
    """`pi_image` and `psi_image` read their degree through `check_degree`."""

    @pytest.mark.parametrize("u", [(1.0, 1), [1, 1]])
    def test_an_integral_degree_reads_as_its_ints(self, u, monkeypatch):
        """Each gives what (1, 1) gives, and every fibre table is asked for,
        and so cached, under a tuple of ints."""
        keys = []
        real = diagonal_maps.pi_fibres
        monkeypatch.setattr(diagonal_maps, "pi_fibres",
                            lambda n, d, v: keys.append(v) or real(n, d, v))
        full = Subspace.full(4)
        assert pi_image(2, 2, u, full) == pi_image(2, 2, (1, 1), full)
        assert psi_image(2, 2, u) == psi_image(2, 2, (1, 1))
        assert psi_image(2, 2, (2.0, 1)).sparse == psi_image(2, 2, (2, 1)).sparse
        assert all(type(v) is tuple and all(type(x) is int for x in v) for v in keys)

    @pytest.mark.parametrize("u, message", [((1.5, 1), "not an integer"),
                                            ((1, 1, 0), "length 3"), ((-1, 1), "negative")])
    def test_a_bad_degree_is_refused(self, u, message):
        with pytest.raises(ValueError, match=message):
            pi_image(2, 2, u, Subspace.full(4))
        with pytest.raises(ValueError, match=message):
            psi_image(2, 2, u)
