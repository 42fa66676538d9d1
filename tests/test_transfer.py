"""Tests for desymmetrization, symmetrization, restriction, and the checkers."""

import random
import re
from fractions import Fraction

import pytest

from borderapolar import ideals, transfer
from borderapolar.apolarity import (
    GeneralTensor,
    HomPoly,
    SymTensor,
    ann_sym_piece,
    polarize,
)
from borderapolar.diagonal_maps import (
    ir_generators,
    ir_piece,
    psi_image,
)
from borderapolar.grading import dim_piece, ones, segre_ring, veronese_ring
from borderapolar.ideals import (
    PointSet,
    TruncatedIdeal,
    degrees_up_to,
    diagonal_points,
    expand,
    first_without_diagonal,
    hilbert_function,
    is_ideal_closed,
    is_saturated_degreewise,
    point_ideal,
    very_general_points,
    zero_ideal,
)
from borderapolar.linalg import QQ, PrimeField, Subspace
from borderapolar.transfer import (
    check_condition_ii,
    check_condition_iii,
    comon_certificate,
    rho_ideal,
    sigma,
    slip_label,
    upsilon,
)
from support import (contains_diagonal_ideal, diagonal_tensor, mat_vec, pi_matrix_reference,
                     power_of_form, sparse_rows)


V2 = veronese_ring(2)
V3 = veronese_ring(3)


def coordinate_points(n):
    return PointSet(
        veronese_ring(n),
        tuple(tuple(1 if j == t else 0 for j in range(n)) for t in range(n)),
    )


class TestUpsilon:
    def test_zero_ideal_gives_diagonal_ideal(self):
        j = upsilon(zero_ideal(V2, 3), 3, 3)
        for u in j.degrees():
            assert j.piece(u) == ir_piece(2, 3, u)

    def test_point_ideal_matches_diagonal_points(self):
        rng = random.Random(21)
        for n, d in ((2, 3), (3, 3), (2, 4)):
            ring_v = veronese_ring(n)
            z = very_general_points(ring_v, n, 4, rng)
            lifted = upsilon(point_ideal(z, 4), d, 4)
            diag = point_ideal(diagonal_points(z, d), 4)
            for u in lifted.degrees():
                assert lifted.piece(u) == diag.piece(u)
            assert is_ideal_closed(lifted)

    def test_hilbert_transport(self):
        rng = random.Random(22)
        for n in (2, 3):
            z = very_general_points(veronese_ring(n), n + 1, 4, rng)
            i = point_ideal(z, 4)
            lifted = upsilon(i, 3, 4)
            for u in lifted.degrees():
                assert hilbert_function(lifted, u) == hilbert_function(i, sum(u))

    def test_apolarity_preserved(self):
        # I inside Ann(p) degreewise implies the lift inside Ann(polarize(p))
        from borderapolar.apolarity import ann_piece

        rng = random.Random(23)
        n, d = 2, 3
        z = very_general_points(veronese_ring(n), 2, 4, rng)
        terms = {}
        for pt in z.points:
            q = power_of_form(pt, d)
            for mono, c in q.terms.items():
                terms[mono] = terms.get(mono, Fraction(0)) + c
        from borderapolar.apolarity import HomPoly

        p = HomPoly(n, d, terms)
        i = point_ideal(z, 4)
        for k in range(5):
            assert ann_sym_piece(p, k).contains(i.piece(k))
        f = polarize(p)
        lifted = upsilon(i, d, 4)
        for u in lifted.degrees():
            if all(x <= 1 for x in u):
                assert ann_piece(f, u).contains(lifted.piece(u))

    def test_saturation_preserved(self):
        rng = random.Random(24)
        z = very_general_points(V2, 2, 5, rng)
        lifted = upsilon(point_ideal(z, 5), 3, 5)
        for u in degrees_up_to(lifted.ring, 2):
            assert is_saturated_degreewise(lifted, u)

    def test_bound_guard(self):
        with pytest.raises(ValueError):
            upsilon(zero_ideal(V2, 2), 3, 3)

    def test_wrong_ring(self):
        with pytest.raises(ValueError):
            upsilon(zero_ideal(segre_ring(2, 2), 2), 2, 2)


class TestSigmaRho:
    def test_sigma_round_trip(self):
        rng = random.Random(25)
        for n in (2, 3):
            z = very_general_points(veronese_ring(n), n, 4, rng)
            i = point_ideal(z, 4)
            lifted = upsilon(i, 3, 4)
            back = sigma(lifted)
            for k in range(5):
                assert back.piece(k) == i.piece(k)

    def test_sigma_of_diagonal_points(self):
        z = coordinate_points(2)
        dz = diagonal_points(z, 3)
        j = point_ideal(dz, 4, provenance="diagonal-points")
        assert contains_diagonal_ideal(j)
        back = sigma(j)
        i = point_ideal(z, 4)
        for k in range(5):
            assert back.piece(k) == i.piece(k)

    def test_sigma_of_diagonal_ideal_is_zero(self):
        j = expand(ir_generators(2, 3), segre_ring(2, 3), 4)
        out = sigma(j)
        assert all(out.piece(k).is_zero for k in range(5))

    def test_sigma_refuses_without_diagonal(self):
        z = PointSet(segre_ring(2, 2), (((1, 2), (3, 5)),))
        j = point_ideal(z, 3)
        with pytest.raises(ValueError, match="diagonal"):
            sigma(j)

    def test_rho_round_trip(self):
        rng = random.Random(26)
        z = very_general_points(V2, 2, 4, rng)
        i = point_ideal(z, 4)
        back = rho_ideal(upsilon(i, 3, 4))
        for k in range(5):
            assert back.piece(k) == i.piece(k)

    def test_rho_of_zero(self):
        out = rho_ideal(zero_ideal(segre_ring(2, 3), 3))
        assert all(out.piece(k).is_zero for k in range(4))

    def test_rho_of_diagonal_point_ideal(self):
        z = coordinate_points(3)
        j = point_ideal(diagonal_points(z, 3), 3)
        out = rho_ideal(j)
        i = point_ideal(z, 3)
        for k in range(4):
            assert out.piece(k) == i.piece(k)

    def test_outputs_are_ideal_closed(self):
        rng = random.Random(32)
        z = very_general_points(V2, 2, 4, rng)
        lifted = upsilon(point_ideal(z, 4), 3, 4)
        assert is_ideal_closed(sigma(lifted))
        assert is_ideal_closed(rho_ideal(lifted))

    def test_sigma_hilbert_identity(self):
        # with the diagonal ideal inside J, symmetrization preserves the
        # Hilbert function along the staircase degrees
        z = coordinate_points(2)
        j = point_ideal(diagonal_points(z, 3), 4, provenance="diagonal-points")
        out = sigma(j)
        d = 3
        for total in range(5):
            a, m = divmod(total, d)
            u = tuple(a + 1 if t < m else a for t in range(d))
            assert hilbert_function(out, total) == hilbert_function(j, u)


def segre_point_ideal(n, d, bound, rng, field=QQ):
    """The ideal of two random Segre points: it misses the diagonal ideal."""
    while True:
        pts = tuple(
            tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(d))
            for _ in range(2)
        )
        try:
            return point_ideal(PointSet(segre_ring(n, d), pts, field=field), bound)
        except ValueError:
            continue


def diagonal_fixtures(field):
    """Ideals that contain I_R, ideals that miss it, and ideals with one piece
    moved to either side of the edge: a basis row dropped, or a vector added."""
    rng = random.Random(34)
    ring = segre_ring(2, 3)
    yield expand(ir_generators(2, 3), ring, 4, field=field)
    yield zero_ideal(ring, 3, field)
    yield point_ideal(PointSet(segre_ring(2, 2), (((1, 2), (3, 5)),), field=field), 3)
    for n in (2, 3):
        z = very_general_points(veronese_ring(n), n + 1, 4, rng)
        zs = PointSet(veronese_ring(n), z.points, field=field)
        lifted = upsilon(point_ideal(zs, 4), 3, 4)
        yield lifted
        yield point_ideal(diagonal_points(zs, 3), 4, provenance="diagonal-points")
        yield segre_point_ideal(n, 3, 3, rng, field)
        # a kept ideal builds its pieces afresh on each read; the variants share
        # the pieces of one stored copy
        stored = TruncatedIdeal(lifted.ring, lifted.bound, dict(lifted.pieces))
        for u in lifted.degrees()[1::3]:
            sub = stored.pieces[u]
            rows = list(sub.basis)
            if rows:
                del rows[rng.randrange(len(rows))]
                yield stored.with_piece(u, Subspace.from_rows(
                    sub.ambient_dim, sparse_rows(rows, field), field=field))
            extra = [rng.randint(-3, 3) for _ in range(sub.ambient_dim)]
            yield stored.with_piece(u, Subspace.from_rows(
                sub.ambient_dim, sparse_rows(list(sub.basis) + [extra], field), field=field))


class TestDiagonalContainment:
    """dim J_u - dim pi(J_u) = dim S_u - dim V_|u| exactly when J_u contains (I_R)_u."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=repr)
    def test_rank_identity_agrees_with_contains(self, field):
        """The first degree the rank identity reports is the first whose piece
        does not contain (I_R)_u; each variant changes one piece, so each of
        those degrees is reported in turn."""
        # (n, d, u, id of the piece) -> (the piece, kept alive, and its verdict);
        # the variants share every piece but one with the ideal they came from
        verdicts = {}
        for j in diagonal_fixtures(field):
            n, d, pieces = j.ring.n, j.ring.d, dict(j.pieces)
            for u, sub in pieces.items():
                key = (n, d, u, id(sub))
                if key not in verdicts:
                    verdicts[key] = sub, sub.contains(ir_piece(n, d, u, field))
            missing = [u for u, sub in pieces.items() if not verdicts[n, d, u, id(sub)][1]]
            assert first_without_diagonal(j) == next(iter(missing), None), j.ring
            assert contains_diagonal_ideal(j) == (not missing)
        assert {v for _, v in verdicts.values()} == {True, False}

    def test_first_missing_degree_is_reported(self):
        j = segre_point_ideal(2, 3, 3, random.Random(35))
        cert = check_condition_ii(j, GeneralTensor(2, 3, {}))
        missing = [u for u in j.degrees() if not j.pieces[u].contains(ir_piece(2, 3, u))]
        assert cert.witnesses[-1] == {"stage": "diagonal-containment",
                                      "degree": missing[0], "ok": False}


class TestEliminationCount:
    """On stored pieces, pi-images eliminate once per nonzero piece, on V_|u|;
    psi-images not at all.  On an ideal kept by its Veronese pieces, transport eliminates
    nothing, and reading its pieces reduces W once per fibre order."""

    @pytest.fixture
    def kept(self):
        z = very_general_points(V3, 4, 4, random.Random(36))
        return upsilon(point_ideal(z, 4), 3, 4)

    @pytest.fixture
    def lifted(self, kept):
        """The same ideal with every piece stored by its basis, as an ideal
        file gives it: a kept piece holds its annihilator, and would make its
        basis when a pi-image first reads it."""
        pieces = {u: Subspace(p.ambient_dim, p.sparse, p.piece, p.field)
                  for u, p in kept.pieces.items()}
        return TruncatedIdeal(kept.ring, kept.bound, pieces, kept.provenance)

    def test_sigma_eliminates_once_per_piece(self, eliminations, lifted):
        """One elimination per nonzero piece, of the rows whose pi-image is
        nonzero: the e_c - e_top rows of the upsilon pieces never reach it, and
        a zero piece has the zero image without one."""
        def surviving(u):
            m = pi_matrix_reference(3, 3, u)
            return sum(1 for row in lifted.pieces[u].basis if any(mat_vec(m, row)))

        eliminations.clear()
        sigma(lifted)
        assert eliminations == [(surviving(u), dim_piece(V3, sum(u))) for u in lifted.degrees()
                          if lifted.pieces[u].dim]
        assert sum(rows for rows, _ in eliminations) < sum(p.dim for p in lifted.pieces.values())

    @pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=repr)
    @pytest.mark.parametrize("n, r, count", [(2, 3, 0), (3, 4, 2)])
    def test_upsilon_reduces_once_per_fibre_order(self, eliminations, field, n, r, count):
        """upsilon itself eliminates nothing, and neither does reading its
        pieces: each holds W = I_k's annihilator pulled back.  The digest
        reads their bases, written from W's: it makes W's basis once for
        each k with W != 0, and reduces W only for a fibre order among the
        degrees of total k that neither W's own rows nor a reduction made
        earlier serve, never in the identity order (every order when n = 2).
        Each reduction is the kernel of W's codim W annihilator rows, in the
        stored order or with their columns in the fibre order, on dim V_k
        columns, and each is made once: digesting again reduces nothing."""
        z = very_general_points(veronese_ring(n), r, 4, random.Random(36))
        ideal = point_ideal(PointSet(z.ring, z.points, field=field), 4)
        eliminations.clear()
        lifted = upsilon(ideal, 3, 4)
        for u in lifted.degrees():
            lifted.piece(u)
        assert eliminations == []
        transfer.ideal_digest(lifted)
        nonzero = [k for k in range(5) if ideal.piece(k).dim]
        shapes = {(ideal.piece(k).codim, dim_piece(veronese_ring(n), k)) for k in nonzero}
        assert set(eliminations) <= shapes
        assert len(eliminations) == len(nonzero) + count
        eliminations.clear()
        transfer.ideal_digest(lifted)
        assert eliminations == []

    def test_contains_diagonal_ideal_eliminates_once_per_piece(self, eliminations, lifted):
        eliminations.clear()
        assert contains_diagonal_ideal(lifted)
        assert len(eliminations) == sum(1 for u in lifted.degrees() if lifted.pieces[u].dim)

    def test_rho_ideal_eliminates_once_per_piece(self, eliminations, lifted):
        eliminations.clear()
        rho_ideal(lifted)
        assert eliminations == [(lifted.piece((k, 0, 0)).dim, dim_piece(V3, k))
                          for k in range(lifted.bound + 1) if lifted.piece((k, 0, 0)).dim]

    def test_psi_image_does_not_eliminate(self, eliminations, lifted):
        eliminations.clear()
        for u in lifted.degrees():
            assert psi_image(3, 3, u).dim == dim_piece(V3, sum(u))
        assert eliminations == []

    def test_transport_of_a_kept_ideal_does_not_eliminate(self, monkeypatch, eliminations,
                                                          kept):
        """sigma, rho and the diagonal test read W_k: no elimination, no Segre
        piece built, and the same ideals as from the stored pieces."""
        def unreachable(*args):
            raise AssertionError("a Segre piece was built")

        eliminations.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ideals._Preimages, "__getitem__", unreachable)
            assert contains_diagonal_ideal(kept)
            back, twisted = rho_ideal(kept), sigma(kept)
        assert eliminations == []
        stored = TruncatedIdeal(kept.ring, kept.bound, dict(kept.pieces), kept.provenance)
        assert back == rho_ideal(stored) and twisted == sigma(stored)


    @pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=repr)
    def test_one_round_trip_is_pinned(self, eliminations, field):
        """One (n, d, bound, r) = (3, 3, 3, 4) round trip, as the transport
        benchmark runs it, makes eight eliminations, each pinned by its shape:
        the point ideal's four spans of evaluation rows (r rows on dim V_k
        columns), none in upsilon, rho or sigma, and the diagonal-points
        ideal's four again, pulled back along the pi-fibres with no
        reordering.  Every piece holds its annihilator and no basis is made.
        So no change to the bookkeeping around them can add an elimination
        unnoticed."""
        z = very_general_points(V3, 4, 3, random.Random(42))
        z = PointSet(z.ring, z.points, field=field)
        evaluations = [(4, dim_piece(V3, k)) for k in range(4)]
        eliminations.clear()
        i = point_ideal(z, 3)
        assert eliminations == evaluations
        eliminations.clear()
        lifted = upsilon(i, 3, 3)
        back, twisted = rho_ideal(lifted), sigma(lifted)
        assert eliminations == []
        diag = point_ideal(diagonal_points(z, 3), 3, provenance="diagonal-points")
        assert eliminations == evaluations
        assert dict(back.pieces) == dict(twisted.pieces) == dict(i.pieces)
        assert all(diag.pieces[u] == lifted.pieces[u] for u in diag.degrees())
        assert eliminations == evaluations
        assert all(j.pieces[u].held_by_perp and "sparse" not in vars(j.pieces[u])
                   for j in (i, diag) for u in j.degrees())


class TestConditionChecks:
    def _passing_instance(self, n, rng):
        d = 3
        z = very_general_points(veronese_ring(n), n, d + 1, rng)
        terms = {}
        for pt in z.points:
            q = power_of_form(pt, d)
            for mono, c in q.terms.items():
                terms[mono] = terms.get(mono, Fraction(0)) + c
        from borderapolar.apolarity import HomPoly

        f = polarize(HomPoly(n, d, terms))
        j = upsilon(point_ideal(z, d + 1), d, d + 1)
        return f, j

    def test_decomposition_scenario_passes(self):
        rng = random.Random(27)
        for n in (2, 3):
            f, j = self._passing_instance(n, rng)
            cert = check_condition_iii(j, f)
            assert cert.verdict, cert.failure

    def test_zero_ideal_vacuous_pass(self):
        f = diagonal_tensor(2, 3)
        j = zero_ideal(segre_ring(2, 3), 3)
        cert = check_condition_iii(j, f)
        assert cert.verdict

    def test_perturbed_ideal_fails_with_witness(self):
        rng = random.Random(28)
        f, j = self._passing_instance(2, rng)
        u_first = (3, 0, 0)
        dim = dim_piece(j.ring, u_first)
        rows = list(j.piece(u_first).basis)
        rows[0] = tuple(1 if i == 0 else 0 for i in range(dim))  # pure power monomial
        bad = j.with_piece(u_first, Subspace.from_rows(dim, sparse_rows(rows)))
        cert = check_condition_iii(bad, f)
        assert not cert.verdict
        assert str(u_first) in (cert.failure or "")

    def test_condition_ii_on_lift(self):
        rng = random.Random(29)
        f, j = self._passing_instance(2, rng)
        cert = check_condition_ii(j, f)
        assert cert.verdict, cert.failure

    def test_condition_ii_fails_without_diagonal(self):
        # non-diagonal generic points on the Segre side: apolar to the matching
        # rank-2 tensor but the diagonal ideal is not contained
        rng = random.Random(30)
        n, d = 2, 3
        while True:
            pts = tuple(
                tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(d))
                for _ in range(2)
            )
            try:
                z = PointSet(segre_ring(n, d), pts)
            except ValueError:
                continue
            break
        entries = {}
        import itertools as it

        for idx in it.product(range(n), repeat=d):
            val = Fraction(0)
            for p in z.points:
                term = Fraction(1)
                for slot, i in enumerate(idx):
                    term *= p[slot][i]
                val += term
            if val:
                entries[idx] = val
        f = GeneralTensor(n, d, entries)
        j = point_ideal(z, d + 1)
        if contains_diagonal_ideal(j):  # pragma: no cover - measure zero
            pytest.skip("accidentally diagonal draw")
        cert = check_condition_ii(j, f)
        assert not cert.verdict
        assert "diagonal" in cert.failure

    def test_condition_ii_walks_the_degrees_once(self, monkeypatch):
        """The pi-image-equality stage walks J's degrees once, grouped by total
        degree as `degrees_up_to` sorts them: one `degree_total` per degree,
        as the apolarity stage reads one per degree and one more per 0/1
        degree, and one witness per total degree with the pi-image dimensions
        in degree order."""
        calls = []
        monkeypatch.setattr(transfer, "degree_total", lambda u: calls.append(u) or sum(u))
        j = upsilon(point_ideal(PointSet(V2, ((1, 0), (0, 1))), 6), 3, 6)
        cert = check_condition_ii(j, diagonal_tensor(2, 3))
        degrees = j.degrees()
        assert cert.verdict and len(calls) == 2 * len(degrees) + 2 ** 3
        want = [{"stage": "pi-image-equality", "total_degree": t, "ok": True,
                 "dims": tuple([j.pi_image(u).dim for u in degrees if sum(u) == t])}
                for t in range(j.bound + 1)]
        assert [w for w in cert.witnesses if w.get("stage") == "pi-image-equality"] == want

    def test_ii_implies_iii(self):
        rng = random.Random(31)
        for n in (2, 3):
            f, j = self._passing_instance(n, rng)
            two = check_condition_ii(j, f)
            three = check_condition_iii(j, f)
            if two.verdict:
                assert three.verdict


class TestComonCertificate:
    def test_diagonal_instance(self):
        f = diagonal_tensor(2, 3)
        j = upsilon(point_ideal(coordinate_points(2), 4), 3, 4)
        cert = comon_certificate(f, 2, j)
        assert cert.verdict
        assert cert.slip_provenance.startswith("Slip-certified")

    def test_monomial_with_three_powers(self):
        # y1^2 y2 = ((y1+y2)^3 - (y1-y2)^3 - 2 y2^3)/6: a rank-3 decomposition
        p_terms = {(2, 1): 1}
        from borderapolar.apolarity import HomPoly

        p = HomPoly(2, 3, p_terms)
        f = polarize(p)
        z = PointSet(V2, ((1, 1), (1, -1), (0, 1)))
        i = point_ideal(z, 4)
        for k in range(5):
            assert ann_sym_piece(p, k).contains(i.piece(k))
        j = upsilon(i, 3, 4)
        cert = comon_certificate(f, 3, j)
        assert cert.verdict, cert.failure

    def test_r_range_guard(self):
        f = diagonal_tensor(3, 3)
        j = upsilon(point_ideal(coordinate_points(3), 4), 3, 4)
        with pytest.raises(ValueError):
            comon_certificate(f, 10, j)  # 10 > C(4,2) = 6
        with pytest.raises(ValueError):
            comon_certificate(f, 2, j)  # 2 < n

    @pytest.mark.parametrize("checker", ["comon_certificate", "check_condition_iii"])
    def test_bound_below_order_raises_before_any_stage(self, monkeypatch, checker):
        f = diagonal_tensor(2, 3)
        j = upsilon(point_ideal(coordinate_points(2), 2), 3, 2)

        def unreachable(*args, **kwargs):
            raise AssertionError("a stage ran on an ideal truncated below the order")

        for name in ("first_non_generic", "hilbert_function", "_apolarity_stage",
                     "saturation_degrees", "is_saturated_degreewise", "_pi_containment_stage",
                     "rho_ideal", "ideal_digest", "tensor_digest"):
            monkeypatch.setattr(transfer, name, unreachable)
        with pytest.raises(ValueError, match=r"^need the truncation bound >= 3, got 2$"):
            if checker == "comon_certificate":
                comon_certificate(f, 2, j)
            else:
                check_condition_iii(j, f)

    @pytest.mark.parametrize("checker", [comon_certificate, check_condition_ii,
                                         check_condition_iii], ids=lambda c: c.__name__)
    @pytest.mark.parametrize("ring, held", [
        ("S(n=2, d=4)", "kept"), ("S(n=2, d=4)", "stored"),
        ("S(n=3, d=3)", "kept"), ("S(n=3, d=3)", "stored"), ("V(n=2)", "stored"),
    ])
    def test_ideal_outside_the_tensor_ring_raises_before_any_stage(
            self, monkeypatch, checker, ring, held):
        """With the same n, S(n, 4) and S(n, 3) share every V_k, so only the
        ring check keeps the stages from reading one against the other."""
        f = diagonal_tensor(2, 3)
        if ring == "V(n=2)":
            j = point_ideal(coordinate_points(2), 4)
        else:
            n, d = (2, 4) if ring == "S(n=2, d=4)" else (3, 3)
            j = upsilon(point_ideal(coordinate_points(n), d + 1), d, d + 1)
            if held == "stored":
                j = TruncatedIdeal(j.ring, j.bound, dict(j.pieces), j.provenance)

        def unreachable(*args, **kwargs):
            raise AssertionError("a stage ran on an ideal outside the tensor's ring")

        for name in ("first_non_generic", "_apolarity_stage", "saturation_degrees",
                     "_pi_containment_stage", "rho_ideal", "tensor_digest"):
            monkeypatch.setattr(transfer, name, unreachable)
        message = f"the ideal's ring {ring} is not the tensor's Segre ring S(n=2, d=3)"
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            if checker is comon_certificate:
                checker(f, 2, j)
            else:
                checker(j, f)

    @pytest.mark.parametrize("checker", [comon_certificate, check_condition_ii,
                                         check_condition_iii], ids=lambda c: c.__name__)
    @pytest.mark.parametrize("tensor_field, ideal_field", [
        (PrimeField(2147483647), QQ), (QQ, PrimeField(2147483647))], ids=repr)
    def test_ideal_over_another_field_raises_before_any_stage(
            self, monkeypatch, checker, tensor_field, ideal_field):
        f = SymTensor(2, 3, {(0, 0, 0): 1, (1, 1, 1): 1}, field=tensor_field)
        z = PointSet(V2, ((1, 0), (0, 1)), field=ideal_field)
        j = upsilon(point_ideal(z, 4), 3, 4)

        def unreachable(*args, **kwargs):
            raise AssertionError("a stage ran on an ideal over another field")

        for name in ("ann_sym_piece", "first_non_generic", "_apolarity_stage",
                     "saturation_degrees", "_pi_containment_stage", "rho_ideal",
                     "tensor_digest"):
            monkeypatch.setattr(transfer, name, unreachable)
        message = f"the ideal is over {ideal_field!r} but the tensor over {tensor_field!r}"
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            if checker is comon_certificate:
                checker(f, 2, j)
            else:
                checker(j, f)

    @pytest.mark.parametrize("stage", ["conciseness", "saturation", "pi-image-equality",
                                       "pi-containment"])
    def test_each_stage_can_fail(self, stage):
        """A stored copy of the two-point ideal, with one piece replaced by the
        span of the given monomials, stops at the named stage; F = x^3 is not
        concise.  Once pi-containment passes, rho(J) passes the Veronese-side
        checks, so no rho stage can fail."""
        z = PointSet(V2, ((1, 0), (0, 1)))
        j = upsilon(point_ideal(z, 5), 3, 5)
        pieces = dict(j.pieces)
        replaced = {"saturation": ((2, 0, 0), [(1, 0, 0)]),
                    "pi-image-equality": ((0, 2, 0), [(1, 0, 0)]),
                    "pi-containment": ((3, 0, 0), [(1, 0, 0, 0), (0, 0, 0, 1)])}.get(stage)
        if replaced is not None:
            u, rows = replaced
            pieces[u] = Subspace.from_rows(len(rows[0]), sparse_rows(rows))
        j = TruncatedIdeal(j.ring, j.bound, pieces, j.provenance)
        if stage == "pi-containment":
            cert = comon_certificate(diagonal_tensor(2, 3), 2, j)
            failure = "pi(J_(3, 0, 0)) is not inside pi(J_(1, 1, 1))"
            last = {"stage": stage, "dim_lhs": 2, "dim_rhs": 2, "ok": False}
        elif stage == "pi-image-equality":
            cert = check_condition_ii(j, diagonal_tensor(2, 3))
            failure = "pi-images differ within total degree 2"
            last = {"stage": stage, "total_degree": 2, "dims": (1,) * 6, "ok": False}
        elif stage == "saturation":
            cert = comon_certificate(diagonal_tensor(2, 3), 2, j)
            failure = "a testable degree fails the degreewise saturation check"
            last = {"stage": stage, "tested_degrees": 10, "ok": False}
        else:
            cert = comon_certificate(polarize(HomPoly(2, 3, {(3, 0): 1})), 2, j)
            failure = "tensor is not concise"
            last = {"stage": stage, "flattening_ranks": (1, 1, 1), "ok": False}
        assert (cert.verdict, cert.failure, cert.witnesses[-1]) == (False, failure, last)

    def test_non_symmetric_rejected(self):
        g = GeneralTensor(2, 3, {(0, 0, 1): 1})
        j = zero_ideal(segre_ring(2, 3), 4)
        with pytest.raises(TypeError):
            comon_certificate(g, 2, j)

    def test_user_ideal_provenance(self):
        f = diagonal_tensor(2, 3)
        lifted = upsilon(point_ideal(coordinate_points(2), 4), 3, 4)
        handmade = lifted.with_piece((1, 0, 0), lifted.piece((1, 0, 0)))
        assert handmade.provenance == "user"
        cert = comon_certificate(f, 2, handmade)
        assert cert.slip_provenance.startswith("Slip-unknown")
        # the math still passes; only the membership claim is weakened
        assert cert.verdict


def test_slip_labels():
    assert slip_label("point").startswith("Slip-certified")
    assert slip_label("upsilon-of-point").startswith("Slip-certified")
    assert slip_label("user").startswith("Slip-unknown")


class TestPrimeFieldMode:
    def test_transport_round_trip_over_gf(self):
        from borderapolar.linalg import PrimeField

        gf = PrimeField(1048583)
        z = PointSet(V2, ((1, 0), (0, 1)), field=gf)
        i = point_ideal(z, 4)
        lifted = upsilon(i, 3, 4)
        assert is_ideal_closed(lifted)
        back = rho_ideal(lifted)
        tw = sigma(lifted)
        for k in range(5):
            assert back.piece(k) == i.piece(k)
            assert tw.piece(k) == i.piece(k)

    def test_pipeline_over_gf(self):
        from borderapolar.apolarity import SymTensor
        from borderapolar.linalg import PrimeField

        gf = PrimeField(1048583)
        f = SymTensor(2, 3, {(0, 0, 0): 1, (1, 1, 1): 1}, field=gf)
        z = PointSet(V2, ((1, 0), (0, 1)), field=gf)
        j = upsilon(point_ideal(z, 4), 3, 4)
        cert = comon_certificate(f, 2, j)
        assert cert.verdict
