"""Ideals kept by their Veronese pieces against the same ideals stored piece by piece.

`upsilon` returns J_u = pi^{-1}(W_|u|) kept by the W_k alone.  Every reader
(dimensions, saturation, the certificate stages, transport and the digest)
must give exactly what it gives on the stored pieces, which take the explicit
path: verdicts, witnesses and digests alike.  The stored copies are built
from the kept ideal's own pieces, and ideals loaded from a file and
`with_piece` copies, which miss I_R, go through the same comparison.

Both kinds take one path through each certificate stage.  With a symmetric
tensor F the apolarity stage reads pi(J_u) alone, which rests on
Ann(F)_u = pi^{-1}(Ann(p_F)_|u|) at every 0/1 degree u.
"""

import functools
import itertools
import json
import random

import pytest

from borderapolar import apolarity, ideals, linalg, transfer
from borderapolar.apolarity import (
    GeneralTensor,
    SymTensor,
    ann_piece,
    ann_sym_piece,
    depolarize,
    is_concise,
)
from borderapolar.cli import load_ideal_file
from borderapolar.diagonal_maps import ir_piece
from borderapolar.grading import PieceElement, degree_total, dim_piece, monomials, veronese_ring
from borderapolar.ideals import (
    PointSet,
    TruncatedIdeal,
    expand,
    hilbert_function,
    is_saturated_degreewise,
    point_ideal,
    very_general_points,
)
from borderapolar.linalg import QQ, PrimeField, Subspace
from borderapolar.transfer import (
    check_condition_ii,
    check_condition_iii,
    comon_certificate,
    ideal_digest,
    rho_ideal,
    sigma,
    upsilon,
)
from support import (
    diagonal_tensor,
    ideal_digest_reference,
    kept_piece,
    random_symmetric_tensor,
    rho_stages_reference,
    sparse_rows,
    sum_of_powers_tensor,
)

GF = PrimeField(2147483647)
FIELDS = [QQ, GF]
# (n, d, bound): n <= 3, d <= 4
SHAPES = [(2, 3, 4), (2, 4, 5), (3, 3, 4), (3, 4, 4)]


def stored(j: TruncatedIdeal) -> TruncatedIdeal:
    """The same ideal with every piece stored."""
    return TruncatedIdeal(j.ring, j.bound, dict(j.pieces), j.provenance)


def in_field(f: SymTensor, field) -> SymTensor:
    return SymTensor(f.n, f.order, f.entries, field=field)


def veronese_ideals(n: int, bound: int, field, rng: random.Random):
    """(ideal, points or None): point ideals of r general points for
    r = n .. C(n+1, 2), and ideals of random generators, which are in
    general neither saturated nor of generic Hilbert function."""
    ring = veronese_ring(n)
    for r in sorted({n, n + 1, n * (n + 1) // 2}):
        z = very_general_points(ring, r, bound, rng)
        yield point_ideal(PointSet(ring, z.points, field=field), bound), z.points
    for degree in (1, 2):
        monos = monomials(ring, degree)
        gens = [PieceElement.from_terms(ring, degree, {m: rng.randint(-2, 2) for m in monos},
                                        field=field) for _ in range(2)]
        yield expand(gens, ring, bound, field=field), None
    gens = [PieceElement.from_terms(ring, 2, {(2,) + (0,) * (n - 1): 1}, field=field),
            PieceElement.from_terms(ring, 2, {(1, 1) + (0,) * (n - 2): 1}, field=field)]
    yield expand(gens, ring, bound, field=field), None  # (x^2, xy): not saturated


def tensors(n: int, d: int, points, field, rng: random.Random):
    out = [diagonal_tensor(n, d), random_symmetric_tensor(n, d, rng)]
    if points is not None:
        out.append(sum_of_powers_tensor(n, d, points))
    return [in_field(f, field) for f in out]


def certificates(j: TruncatedIdeal, f: SymTensor, r: int):
    return [comon_certificate(f, r, j).to_dict(), check_condition_ii(j, f).to_dict(),
            check_condition_iii(j, f).to_dict()]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("n, d, bound", SHAPES)
def test_kept_and_stored_ideals_agree(field, n, d, bound):
    rng = random.Random(f"{n}/{d}/{field!r}")
    seen = set()
    for i, points in veronese_ideals(n, bound, field, rng):
        kept = upsilon(i, d, bound)
        explicit = stored(upsilon(i, d, bound))
        assert kept.veronese is not None and explicit.veronese is None
        for u in kept.degrees():
            assert kept.piece_dim(u) == explicit.pieces[u].dim
            assert hilbert_function(kept, u) == hilbert_function(explicit, u)
            if degree_total(u) + d <= bound:
                assert is_saturated_degreewise(kept, u) == is_saturated_degreewise(explicit, u)
        r = n if points is None else len(points)
        for f in tensors(n, d, points, field, rng):
            got, want = certificates(kept, f, r), certificates(explicit, f, r)
            assert got == want
            seen.add((got[0]["verdict"], got[0]["failure"]))
        general = GeneralTensor(n, d, {(0,) * d: 1, (1,) + (0,) * (d - 1): 2}, field=field)
        assert (check_condition_iii(kept, general).to_dict()
                == check_condition_iii(explicit, general).to_dict())
        assert sigma(kept) == sigma(explicit) and rho_ideal(kept) == rho_ideal(explicit)
        assert ideal_digest(kept) == ideal_digest(explicit)
    verdicts = {v for v, _ in seen}
    assert verdicts == {"pass", "fail"}, seen


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("n, d", [(1, 3), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_symmetric_annihilator_is_a_pi_preimage(field, n, d):
    """Ann(F)_u = pi^{-1}(Ann(p_F)_|u|) at every 0/1 degree u, for the zero
    tensor, a power and random symmetric tensors, against `ann_piece`."""
    rng = random.Random(f"ann/{n}/{d}")
    fs = [SymTensor(n, d, {}), SymTensor(n, d, {(0,) * d: 1})]
    fs += [random_symmetric_tensor(n, d, rng) for _ in range(3)]
    for f in (in_field(f, field) for f in fs):
        p = depolarize(f)
        for u in itertools.product((0, 1), repeat=d):
            assert ann_piece(f, u) == kept_piece(n, d, u, ann_sym_piece(p, sum(u))), (f, u)


def test_symmetric_tensor_reads_no_segre_annihilator(monkeypatch):
    """With a symmetric tensor no stage calls `ann_piece`, on kept and on stored
    ideals, passing or failing; a general tensor still reads it."""
    def unreachable(*args):
        raise AssertionError("ann_piece was called")

    monkeypatch.setattr(transfer, "ann_piece", unreachable)
    for n, d in ((2, 3), (3, 3), (2, 4)):
        z = very_general_points(veronese_ring(n), n + 1, d + 1, random.Random(n * d))
        kept = upsilon(point_ideal(z, d + 1), d)
        for f, passes in ((sum_of_powers_tensor(n, d, z.points), True),
                          (diagonal_tensor(n, d), False)):
            for j in (kept, stored(kept)):
                assert comon_certificate(f, n + 1, j).verdict == passes
                assert check_condition_ii(j, f).verdict == passes
                assert check_condition_iii(j, f).verdict == passes
    with pytest.raises(AssertionError, match="ann_piece was called"):
        check_condition_iii(kept, GeneralTensor(n, d, dict(diagonal_tensor(n, d).entries)))


def test_symmetric_witnesses_equal_the_segre_ones():
    """One point of P^1 against the concise diagonal F: J_1 = W_1 is not in
    Ann(p_F)_1 = 0, so both checkers fail first at degree (1, 0, 0).  Kept or
    stored, the witnesses at every 0/1 degree equal those read off Ann(F)_u
    itself, as for a general tensor."""
    j = upsilon(point_ideal(PointSet(veronese_ring(2), ((1, 0),)), 4), 3)
    f = diagonal_tensor(2, 3)
    general = GeneralTensor(2, 3, dict(f.entries))
    for check in (check_condition_ii, check_condition_iii):
        want = check(stored(j), general)
        assert want.failure == "ideal is not apolar to the tensor at degree (1, 0, 0)"
        assert len(want.witnesses) == 8
        for ideal in (j, stored(j)):
            got = check(ideal, f)
            assert (got.failure, got.witnesses) == (want.failure, want.witnesses)


def test_non_saturated_ideal_is_caught_on_both_paths():
    """(x^2, xy) has saturation (x): the colon test fails at total degree 1."""
    ring = veronese_ring(2)
    gens = [PieceElement.from_terms(ring, 2, {(2, 0): 1}),
            PieceElement.from_terms(ring, 2, {(1, 1): 1})]
    kept = upsilon(expand(gens, ring, 5), 3, 5)
    for j in (kept, stored(kept)):
        assert [is_saturated_degreewise(j, u) for u in ((0, 0, 0), (1, 0, 0), (0, 1, 1))] == [
            True, False, True]


def write_ideal_file(path, j: TruncatedIdeal):
    """The ideal as an ideal file with explicit pieces, residues written as integers."""
    def plain(x):
        return str(x.v if isinstance(x, linalg.Mod) else x)

    data = {"ring": "S", "n": j.ring.n, "d": j.ring.d, "bound": j.bound,
            "pieces": [{"degree": list(u), "basis": [[plain(x) for x in row]
                                                     for row in j.pieces[u].basis]}
                       for u in j.degrees()]}
    path.write_text(json.dumps(data), encoding="utf-8")


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_loaded_and_with_piece_ideals(tmp_path, field):
    """An ideal loaded from a file takes the explicit path and certifies like
    the kept ideal it was written from, but for its membership label.  A
    `with_piece` copy that drops a row of (I_R)_u misses I_R: it is refused by
    sigma and fails the diagonal containment on either representation of the
    rest of the ideal."""
    n, d, bound = 2, 3, 4
    z = very_general_points(veronese_ring(n), 3, bound, random.Random(5))
    kept = upsilon(point_ideal(PointSet(z.ring, z.points, field=field), bound), d, bound)
    f = in_field(sum_of_powers_tensor(n, d, z.points), field)
    path = tmp_path / "ideal.json"
    write_ideal_file(path, kept)
    loaded = load_ideal_file(str(path), field, None)
    assert loaded.veronese is None and loaded.provenance == "user"
    got, want = comon_certificate(f, 3, loaded).to_dict(), comon_certificate(f, 3, kept).to_dict()
    assert got["slip_provenance"].startswith("Slip-unknown")
    assert {**got, "slip_provenance": None} == {**want, "slip_provenance": None}
    assert got["verdict"] == "pass"

    u = (1, 1, 0)
    ir = ir_piece(n, d, u, field)
    rows = [row for row in kept.piece(u).basis if not ir.contains_vector(row)]
    rows += list(ir.basis[1:])
    missing = Subspace.from_rows(dim_piece(kept.ring, u), sparse_rows(rows, field), field=field)
    for base in (kept, stored(kept)):
        j = base.with_piece(u, missing)
        assert j.veronese is None
        with pytest.raises(ValueError, match="does not contain the diagonal ideal"):
            sigma(j)
        cert = check_condition_ii(j, f)
        assert cert.witnesses[-1] == {"stage": "diagonal-containment", "degree": u, "ok": False}
        assert cert.inputs_digest == check_condition_ii(stored(j), f).inputs_digest


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (2, 4)])
def test_digest_streams_from_w(field, n, d):
    """The digest of a kept ideal, which builds each piece as it reads it,
    equals the dense reference, and is unchanged when read again."""
    z = very_general_points(veronese_ring(n), n + 1, d + 1, random.Random(n * d))
    kept = upsilon(point_ideal(PointSet(z.ring, z.points, field=field), d + 1), d)
    digest = ideal_digest(kept)
    assert digest == ideal_digest_reference(kept)
    assert ideal_digest(kept) == digest


def coordinate_points(n: int) -> PointSet:
    return PointSet(veronese_ring(n),
                    tuple(tuple(1 if j == t else 0 for j in range(n)) for t in range(n)))


def test_verdict_only_certificate_never_digests_the_ideal(monkeypatch):
    """Neither the ideal nor the tensor is digested before `inputs_digest` is
    read, and each is digested once when it is."""
    calls = []
    real, real_tensor = transfer.ideal_digest, transfer.tensor_digest

    def counted(j):
        calls.append(j)
        return real(j)

    def counted_tensor(f):
        calls.append(f)
        return real_tensor(f)

    monkeypatch.setattr(transfer, "ideal_digest", counted)
    monkeypatch.setattr(transfer, "tensor_digest", counted_tensor)
    f = diagonal_tensor(3, 3)
    j = upsilon(point_ideal(coordinate_points(3), 4), 3, 4)
    cert = comon_certificate(f, 3, j)
    assert cert.verdict and calls == []
    digest = cert.inputs_digest
    assert calls == [f, j]
    assert cert.to_dict()["inputs_digest"] == digest and calls == [f, j]
    assert digest == transfer.digest_of(real_tensor(f), 3, real(j))


def test_verdict_only_certificate_writes_no_entries(monkeypatch):
    """A polarized F is held by its form through a verdict-only certificate:
    no entry is written and F is not digested.  Reading `inputs_digest`
    digests F once, streamed from its form, and still writes no entry."""
    written, digested = [], []
    write = apolarity.SymTensor.entries.func
    entries = functools.cached_property(lambda f: written.append(f) or write(f))
    entries.__set_name__(apolarity.SymTensor, "entries")
    monkeypatch.setattr(apolarity.SymTensor, "entries", entries)
    real = transfer.tensor_digest
    monkeypatch.setattr(transfer, "tensor_digest", lambda f: digested.append(f) or real(f))
    z = very_general_points(veronese_ring(3), 4, 4, random.Random(7))
    f = sum_of_powers_tensor(3, 3, z.points)
    j = upsilon(point_ideal(z, 4), 3, 4)
    cert = comon_certificate(f, 4, j)
    assert cert.verdict and written == [] and digested == []
    digest = cert.inputs_digest
    assert written == [] and digested == [f]
    assert digest == transfer.digest_of(real(f), 4, ideal_digest(j))
    assert cert.to_dict()["inputs_digest"] == digest
    assert written == [] and digested == [f]


@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (3, 4)])
def test_apolarity_stage_compares_held_rows(monkeypatch, eliminations, n, d):
    """Ann(p_F)_k and a kept ideal's W_k are both held by the RREF of the
    functionals that cut them out, so a verdict-only certificate makes one
    containment test per 0/1 degree u, inside Ann(p_F)_|u|, then one for
    pi-containment, 2^d + 1 in all, and none of them eliminates; the rho
    witnesses make none.  The stored copy, with one pi-image per degree, gives
    the same witnesses from as many tests, none eliminating either."""
    calls = []
    real = Subspace.contains

    def counted(a, b):
        before = len(eliminations)
        ok = real(a, b)
        calls.append((a.ambient_dim, len(eliminations) - before))
        return ok

    monkeypatch.setattr(Subspace, "contains", counted)
    z = very_general_points(veronese_ring(n), n, d + 1, random.Random(7))
    f = sum_of_powers_tensor(n, d, z.points)
    kept = upsilon(point_ideal(z, d + 1), d, d + 1)
    cert = comon_certificate(f, n, kept)
    dims = [dim_piece(veronese_ring(n), k) for k in range(d + 1)]
    want = [(dims[sum(u)], 0) for u in kept.degrees() if max(u) <= 1] + [(dims[d], 0)]
    assert cert.verdict and len(want) == 2 ** d + 1 and calls == want
    calls.clear()
    assert comon_certificate(f, n, stored(kept)).witnesses == cert.witnesses
    assert calls == want


def test_pipeline_builds_no_segre_piece(monkeypatch):
    """upsilon -> comon_certificate reads W alone: the lazy builder never runs
    unless the digest or a piece is read."""
    def unreachable(*args):
        raise AssertionError("a Segre piece was built")

    monkeypatch.setattr(ideals._Preimages, "__getitem__", unreachable)
    for n, d in ((2, 3), (3, 3), (4, 3), (3, 4)):
        j = upsilon(point_ideal(coordinate_points(n), d + 1), d, d + 1)
        cert = comon_certificate(diagonal_tensor(n, d), n, j)
        assert cert.verdict, cert.failure
        assert check_condition_ii(j, diagonal_tensor(n, d)).verdict
        assert check_condition_iii(j, diagonal_tensor(n, d)).verdict
        sigma(j), rho_ideal(j)
        with pytest.raises(AssertionError, match="a Segre piece was built"):
            cert.inputs_digest


def test_pieces_are_read_only_and_built_alike():
    j = upsilon(point_ideal(coordinate_points(2), 4), 3, 4)
    assert len(j.pieces) == len(j.degrees()) and tuple(j.pieces) == j.degrees()
    assert (1, 0, 0) in j.pieces and (5, 0, 0) not in j.pieces
    with pytest.raises(KeyError):
        j.pieces[(5, 0, 0)]
    with pytest.raises(TypeError):
        j.pieces[(1, 0, 0)] = None
    with pytest.raises(ValueError, match="exceeds the truncation bound"):
        j.piece((5, 0, 0))
    assert j.piece((1, 1, 0)) == j.pieces[(1, 1, 0)]
    explicit = stored(j)
    with pytest.raises(TypeError):
        explicit.pieces[(1, 0, 0)] = None


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("n, d, r", [(2, 3, 2), (3, 3, 4), (4, 3, 4), (5, 4, 5)])
def test_rho_witnesses_match_the_restriction(monkeypatch, field, n, d, r):
    """The rho-apolarity and rho-hilbert-function witnesses, read off earlier
    stages, equal those of rho(J) built and checked, on the kept ideal and on a
    stored copy; the certificate itself builds no rho(J)."""
    ring = veronese_ring(n)
    z = very_general_points(ring, r, d + 1, random.Random(7))
    f = in_field(sum_of_powers_tensor(n, d, z.points), field)
    kept = upsilon(point_ideal(PointSet(ring, z.points, field=field), d + 1), d, d + 1)
    want = [rho_stages_reference(f, r, j) for j in (kept, stored(kept))]
    assert [verdict for _, verdict in want] == [True, True]

    def unreachable(*args):
        raise AssertionError("the certificate built rho(J)")

    monkeypatch.setattr(transfer, "rho_ideal", unreachable)
    for j, (witnesses, _) in zip((kept, stored(kept)), want):
        got = comon_certificate(f, r, j).to_dict()
        assert (got["verdict"], got["witnesses"][-2:]) == ("pass", witnesses)


class TestEliminationCount:
    """Eliminations of the pipeline on r very general points, counted by
    patching `linalg.rref_with_pivots`.  upsilon makes none; the verdict-only
    certificate makes one Veronese annihilator per total degree up to d
    (conciseness reads Ann(p_F)_1, so no flattening is reduced) and one colon
    per testable total degree, and no basis of W; reading the digest makes
    W's basis once per total degree where W != 0 and adds W's reduction once
    per fibre order that neither W's own rows nor an earlier reduction
    serve."""

    @pytest.mark.parametrize("n, d, r, cert_shapes", [
        (3, 3, 4, [(1, 10), (3, 6), (6, 3), (10, 1), (40, 1), (40, 3)]),
        (4, 3, 4, [(1, 20), (4, 10), (10, 4), (20, 1), (80, 1), (80, 4)]),
    ])
    def test_pipeline_counts(self, monkeypatch, eliminations, n, d, r, cert_shapes):
        """No flattening is built and F is not digested until `inputs_digest`
        is read."""
        def unreachable(*args):
            raise AssertionError("F's contraction map was built")

        digested = []
        real = transfer.tensor_digest
        monkeypatch.setattr(apolarity, "_contraction_rows", unreachable)
        monkeypatch.setattr(transfer, "tensor_digest", lambda f: digested.append(f) or real(f))
        z = very_general_points(veronese_ring(n), r, d + 1, random.Random(7))
        f = sum_of_powers_tensor(n, d, z.points)
        i = point_ideal(z, d + 1)
        eliminations.clear()
        j = upsilon(i, d, d + 1)
        assert eliminations == []
        cert = comon_certificate(f, r, j)
        assert cert.verdict and digested == []
        assert cert.witnesses[0] == {"stage": "conciseness", "flattening_ranks": (n,) * d,
                                     "ok": True}
        assert sorted(eliminations) == cert_shapes
        eliminations.clear()
        cert.inputs_digest
        # W_k != 0 for k = 2, 3, 4, as r = 4 <= dim V_2, and 2 or 5 reorders
        assert len(eliminations) == {3: 3 + 2, 4: 3 + 5}[n] and digested == [f]

    @pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (4, 3), (3, 4)])
    def test_is_concise_reduces_one_flattening(self, eliminations, n, d):
        """A symmetric F's d flattenings are equal, so one is reduced."""
        z = very_general_points(veronese_ring(n), n, d + 1, random.Random(7))
        f = sum_of_powers_tensor(n, d, z.points)
        eliminations.clear()
        assert is_concise(f)
        assert eliminations == [(n, n ** (d - 1))]

    @pytest.mark.parametrize("n, d, r, shapes", [
        (3, 3, 4, [(1, 10), (3, 6), (3, 6), (3, 6), (3, 6), (4, 6), (4, 10), (4, 10),
                   (6, 3), (6, 10), (10, 1), (17, 10), (108, 1), (108, 3), (108, 3),
                   (108, 3)]),
        (4, 3, 4, [(1, 20), (4, 10), (4, 10), (4, 10), (4, 20), (4, 20), (9, 10), (9, 10),
                   (9, 10), (10, 4), (16, 20), (20, 1), (54, 20), (256, 1), (256, 4),
                   (256, 4), (256, 4)]),
    ])
    def test_stored_copy_counts(self, eliminations, n, d, r, shapes):
        """On the stored copy: one Veronese annihilator per total degree up to d,
        one pi-image per nonzero piece read (each made once, for apolarity and
        pi-containment together; rho(J) is not built), and one colon per
        testable degree.  The copy's pieces hold their annihilators, so the
        first pi-image read at a total degree k >= 2 makes W_k's basis (r rows
        on dim V_k columns), and W_k is reduced once more per fibre order
        among the pieces read that its rows do not serve."""
        z = very_general_points(veronese_ring(n), r, d + 1, random.Random(7))
        f = sum_of_powers_tensor(n, d, z.points)
        kept = upsilon(point_ideal(z, d + 1), d, d + 1)
        explicit = stored(kept)
        eliminations.clear()
        cert = comon_certificate(f, r, explicit)
        assert sorted(eliminations) == shapes
        assert cert.to_dict() == comon_certificate(f, r, kept).to_dict()
