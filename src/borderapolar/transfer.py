"""Transport of truncated ideals between the Veronese and Segre settings.

Desymmetrization adds the diagonal ideal and the psi-images of the input
pieces, J_u = (I_R)_u + psi_u(I_|u|) = pi^{-1}(I_|u|), and keeps the result
by its Veronese pieces I_k (see `ideals`); symmetrization collects pi-images
along the staircase degrees; the first-factor restriction rho recovers a
Z-graded ideal.  On an ideal kept by its Veronese pieces W_k, pi(J_u) is W_|u|,
so `sigma` and `rho_ideal` return W_k with no elimination.

The certificate checkers decide the containment conditions under which a
border rank decomposition on the Segre side descends to the Veronese side,
and record witness dimensions plus an honest statement of what was and was
not tested.  On an ideal kept by W_k every stage reads W_k: diagonal and
pi-containment hold by construction, apolarity with a symmetric tensor F is
W_k inside Ann(p_F)_k, and saturation is one colon ideal per total degree.
A certificate digests its inputs only when `inputs_digest` is first read.
"""

from __future__ import annotations

import hashlib
import math
from functools import cached_property
from itertools import groupby

from .apolarity import (
    GeneralTensor,
    SymTensor,
    ann_piece,
    ann_sym_piece,
    depolarize,
    flattening_ranks,
)
from .diagonal_maps import pi_image, staircase_degrees
from .grading import (
    RingKind,
    degree_total,
    dim_piece,
    ones,
    segre_ring,
    veronese_ring,
)
from .linalg import Subspace
from .ideals import (
    TruncatedIdeal,
    first_non_generic,
    generic_hf,
    hilbert_function,
    is_saturated_degreewise,
    _piece_tag,
)

SLIP_CERTIFIED = {"point", "upsilon-of-point", "rho-of-certified", "diagonal-points"}


def slip_label(provenance: str) -> str:
    if provenance in SLIP_CERTIFIED:
        return f"Slip-certified ({provenance})"
    return f"Slip-unknown ({provenance} ideal)"


class Certificate:
    """Structured verdict of one checker: what was tested, at which degrees.

    `inputs_digest` is either given or hashed from `digest_parts` the first
    time it is read, an ideal among the parts entering through
    `ideal_digest`; a caller that reads only the verdict never digests an ideal.
    """

    def __init__(self, check: str, inputs_digest: str | None = None, verdict: bool = False,
                 tested_bound: int | None = None, slip_provenance: str | None = None,
                 failure: str | None = None, digest_parts: tuple = ()):
        self.check = check
        self.verdict = verdict
        self.witnesses = []
        self.tested_bound = tested_bound
        self.slip_provenance = slip_provenance
        self.failure = failure
        self.digest_parts = tuple(digest_parts)
        if inputs_digest is not None:
            self.__dict__["inputs_digest"] = inputs_digest

    @cached_property
    def inputs_digest(self) -> str:
        return digest_of(*(ideal_digest(p) if isinstance(p, TruncatedIdeal) else p
                           for p in self.digest_parts))

    def add(self, **kw):
        self.witnesses.append(kw)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "inputs_digest": self.inputs_digest,
            "verdict": "pass" if self.verdict else "fail",
            "tested_bound": self.tested_bound,
            "slip_provenance": self.slip_provenance,
            "failure": self.failure,
            "witnesses": [
                {k: _plain(v) for k, v in w.items()} for w in self.witnesses
            ],
        }


def _plain(v):
    if isinstance(v, tuple):
        return list(v)
    return v


def digest_of(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def ideal_digest(j: TruncatedIdeal) -> str:
    """digest_of(j.ring, j.bound, [(u, j.pieces[u].basis) for u in j.degrees()]).

    The repr of the dense bases is streamed from the sparse rows, one row at a
    time, with each run of zeros written as one repeated string.  An ideal kept
    by its Veronese pieces streams each piece's rows from W and the fibre
    table, and stores no piece it has not built already.
    """
    h = hashlib.sha256(f"{j.ring!r}\x00{j.bound!r}\x00[".encode())
    zero = f"{j.field.zero!r}, ".encode()
    for k, u in enumerate(j.degrees()):
        n, count = dim_piece(j.ring, u), j.piece_dim(u)
        h.update(f"{', ' if k else ''}({u!r}, (".encode())
        for r, row in enumerate(j.piece_rows(u)):
            parts = [b", (" if r else b"("]
            at = 0
            for c, x in row:
                parts += (zero * (c - at), f"{x!r}, ".encode())
                at = c + 1
            parts.append(zero * (n - at))
            line = b"".join(parts)
            h.update(memoryview(line)[:-2])  # the separator after the last entry
            h.update(b",)" if n == 1 else b")")
        h.update(b",))" if count == 1 else b"))")
    h.update(b"]\x00")
    return h.hexdigest()[:16]


def tensor_digest(f: GeneralTensor) -> str:
    return digest_of(f.n, f.order, sorted(f.entries.items()))


# -- the three transport maps ---------------------------------------------------

def upsilon(i: TruncatedIdeal, d: int, bound: int | None = None,
            provenance: str | None = None) -> TruncatedIdeal:
    """Desymmetrize a Z-graded ideal: piece at u is (I_R)_u + psi_u(I_{|u|}).

    That sum is pi^{-1}(I_{|u|}), so the result is kept by the pieces I_k
    alone (`TruncatedIdeal.pi_preimage`), and a Segre piece is built only
    when it is read.
    """
    if i.ring.kind is not RingKind.VERONESE_COORD:
        raise ValueError("desymmetrization expects an ideal in the Veronese ring")
    bound = i.bound if bound is None else bound
    if bound > i.bound:
        raise ValueError(f"requested bound {bound} exceeds the input bound {i.bound}")
    ring_v = veronese_ring(i.ring.n)
    w = {k: _tagged(i.piece(k), ring_v, k, i.field) for k in range(bound + 1)}
    if provenance is None:
        provenance = "upsilon-of-point" if i.provenance in ("point", "diagonal-points") else "user"
    return TruncatedIdeal.pi_preimage(segre_ring(i.ring.n, d), bound, w, provenance, i.field)


def _pi_image(j: TruncatedIdeal, u) -> Subspace:
    """pi(J_u): W_|u| on an ideal kept by its Veronese pieces, else one
    elimination on V_|u|."""
    if j.veronese is not None:
        return j.veronese[degree_total(u)]
    return pi_image(j.ring.n, j.ring.d, u, j.pieces[u])


def _pi_images(j: TruncatedIdeal, degrees) -> dict:
    """pi(J_u) for each degree u, in the given order."""
    return {u: _pi_image(j, u) for u in degrees}


def _first_without_diagonal(j: TruncatedIdeal, images: dict):
    """The first degree u whose piece misses (I_R)_u, or None.

    An ideal kept by its Veronese pieces contains I_R by construction.
    Otherwise J_u meets ker pi = (I_R)_u in a subspace of dimension
    dim J_u - dim pi(J_u), and pi is onto, so dim (I_R)_u = dim S_u - dim V_|u|:
    the two dimensions agree exactly when J_u contains (I_R)_u.
    """
    if j.veronese is not None:
        return None
    for u, im in images.items():
        if j.piece_dim(u) - im.dim != dim_piece(j.ring, u) - im.ambient_dim:
            return u
    return None


def contains_diagonal_ideal(j: TruncatedIdeal) -> bool:
    return _first_without_diagonal(j, _pi_images(j, j.degrees())) is None


def _tagged(sub: Subspace, ring_v, k: int, field) -> Subspace:
    return Subspace(sub.ambient_dim, sub.sparse, _piece_tag(ring_v, k), field)


def sigma(j: TruncatedIdeal) -> TruncatedIdeal:
    """Symmetrize an ideal containing I_R: degree N = a*d + m collects pi(J_{a1+s_m})."""
    ring = j.ring
    if ring.kind is not RingKind.SEGRE_COORD:
        raise ValueError("symmetrization expects an ideal in the Segre coordinate ring")
    images = _pi_images(j, j.degrees())
    if _first_without_diagonal(j, images) is not None:
        raise ValueError(
            "symmetrization is undefined: the ideal does not contain the diagonal ideal"
        )
    d = ring.d
    ring_v = veronese_ring(ring.n)
    stairs = staircase_degrees(d)
    pieces = {}
    for total in range(j.bound + 1):
        a, m = divmod(total, d)
        u = tuple(a + s for s in stairs[m])
        pieces[total] = _tagged(images[u], ring_v, total, j.field)
    provenance = "point" if j.provenance in ("upsilon-of-point", "diagonal-points") else "user"
    return TruncatedIdeal(ring_v, j.bound, pieces, provenance, j.field)


def rho_ideal(j: TruncatedIdeal) -> TruncatedIdeal:
    """Restriction to the first factor: degree-k piece is rho(J_{(k,0,...,0)})."""
    ring = j.ring
    if ring.kind is not RingKind.SEGRE_COORD:
        raise ValueError("rho expects an ideal in the Segre coordinate ring")
    ring_v = veronese_ring(ring.n)
    pieces = {}
    for k in range(j.bound + 1):
        u = tuple([k] + [0] * (ring.d - 1))
        pieces[k] = _tagged(_pi_image(j, u), ring_v, k, j.field)
    provenance = (
        "rho-of-certified" if j.provenance in SLIP_CERTIFIED else "user"
    )
    return TruncatedIdeal(ring_v, j.bound, pieces, provenance, j.field)


# -- containment bookkeeping ------------------------------------------------------

def _ideal_certificate(check: str, j: TruncatedIdeal, tested_bound: int, *parts) -> Certificate:
    """A not-yet-passed certificate on J, its inputs digested from `parts`."""
    return Certificate(check=check, verdict=False, tested_bound=tested_bound,
                       slip_provenance=slip_label(j.provenance), digest_parts=parts)


class _SymAnnihilator(dict):
    """k -> Ann(p_F)_k for a symmetric tensor F, each piece computed when first read."""

    def __init__(self, f: SymTensor):
        super().__init__()
        self.p = depolarize(f)

    def __missing__(self, k):
        self[k] = ann_sym_piece(self.p, k)
        return self[k]


def _apolarity_stage(cert: Certificate, j: TruncatedIdeal, f: GeneralTensor,
                     up_to: int, sym: _SymAnnihilator | None = None) -> bool:
    """Degreewise containment J_u in Ann(F)_u for |u| <= up_to; pieces above the
    unit box are full, so only 0/1 degrees need a kernel computation.

    A symmetric F is annihilated by I_R, and pi(Ann(F)_u) = Ann(p_F)_k with
    k = |u|.  So on an ideal kept by its Veronese pieces the test is W_k inside
    Ann(p_F)_k, read from `sym` (made here unless the caller passes one to
    reuse), and both witness dimensions are dim S_u - dim V_k plus the
    Veronese one.
    """
    w = j.veronese if isinstance(f, SymTensor) else None
    if w is not None and sym is None:
        sym = _SymAnnihilator(f)
    first_failure = None
    for u in j.degrees():
        if degree_total(u) > up_to or any(x > 1 for x in u):
            continue
        if w is None:
            ann, piece = ann_piece(f, u), j.pieces[u]
        else:
            k = degree_total(u)
            ann, piece = sym[k], w[k]
        ok = ann.contains(piece)
        lift = dim_piece(j.ring, u) - piece.ambient_dim
        cert.add(degree=u, dim_ideal=lift + piece.dim, dim_ann=lift + ann.dim, ok=ok)
        if not ok and first_failure is None:
            first_failure = u
    if first_failure is not None:
        cert.failure = f"ideal is not apolar to the tensor at degree {first_failure}"
    return first_failure is None


def _pi_containment_stage(cert: Certificate, j: TruncatedIdeal, with_degree: bool) -> bool:
    """pi(J_{(d,0,...,0)}) inside pi(J_{(1,...,1)})."""
    d = j.ring.d
    u_first = tuple([d] + [0] * (d - 1))
    lhs = _pi_image(j, u_first)
    rhs = _pi_image(j, ones(d))
    ok = rhs.contains(lhs)
    witness = {"stage": "pi-containment"}
    if with_degree:
        witness["degree"] = u_first
    cert.add(**witness, dim_lhs=lhs.dim, dim_rhs=rhs.dim, ok=ok)
    if not ok:
        cert.failure = f"pi(J_{u_first}) is not inside pi(J_{ones(d)})"
    return ok


def _require_bound(j: TruncatedIdeal, d: int):
    """Both pi-containment checks read J_{(d,0,...,0)}, so J must reach degree d."""
    if j.bound < d:
        raise ValueError(f"need the truncation bound >= {d}, got {j.bound}")


def check_condition_iii(j: TruncatedIdeal, f: GeneralTensor) -> Certificate:
    """pi(J_{(d,0,...,0)}) inside pi(J_1), after verifying J is apolar to F."""
    d = j.ring.d
    _require_bound(j, d)
    cert = _ideal_certificate("condition-iii", j, j.bound, tensor_digest(f), j)
    if _apolarity_stage(cert, j, f, d):
        cert.verdict = _pi_containment_stage(cert, j, with_degree=True)
    return cert


def check_condition_ii(j: TruncatedIdeal, f: GeneralTensor,
                       bound: int | None = None) -> Certificate:
    """I_R inside J and pi(J_u) independent of u within each total degree."""
    d = j.ring.d
    bound = j.bound if bound is None else min(bound, j.bound)
    cert = _ideal_certificate("condition-ii", j, bound, tensor_digest(f), j, bound)
    if not _apolarity_stage(cert, j, f, d):
        return cert
    images = _pi_images(j, [u for u in j.degrees() if degree_total(u) <= bound])
    missing = _first_without_diagonal(j, images)
    if missing is not None:
        cert.add(stage="diagonal-containment", degree=missing, ok=False)
        cert.failure = f"the diagonal ideal is not inside J at degree {missing}"
        return cert
    cert.add(stage="diagonal-containment", ok=True)
    verdict = True
    for total in range(bound + 1):
        same_total = [im for u, im in images.items() if degree_total(u) == total]
        same = all(im == same_total[0] for im in same_total[1:])
        cert.add(stage="pi-image-equality", total_degree=total,
                 dims=tuple(im.dim for im in same_total), ok=same)
        if not same:
            verdict = False
            cert.failure = f"pi-images differ within total degree {total}"
            break
    cert.verdict = verdict
    return cert


# -- the full pipeline -------------------------------------------------------------

def comon_certificate(f: SymTensor, r: int, j: TruncatedIdeal) -> Certificate:
    """Run the full transfer pipeline for a symmetric tensor and a candidate ideal.

    Checks conciseness, the flattening lower bound against r, the generic
    Hilbert function, apolarity, degreewise saturation where the bound allows,
    and the pi-containment condition; on success it also produces rho(J) and
    verifies that it is apolar to the corresponding form with the expected
    Hilbert function.  An ideal truncated below total degree d is refused with
    a ValueError before any stage runs.
    """
    if not isinstance(f, SymTensor):
        raise TypeError("the transfer pipeline requires a symmetric tensor")
    n, d = f.n, f.order
    if not n <= r <= math.comb(n + 1, 2):
        raise ValueError(
            f"r={r} outside the admissible range [{n}, {math.comb(n + 1, 2)}]"
        )
    _require_bound(j, d)
    cert = _ideal_certificate("comon-transfer", j, j.bound, tensor_digest(f), r, j)
    ranks = flattening_ranks(f)
    concise = all(rk == n for rk in ranks)
    cert.add(stage="conciseness", flattening_ranks=ranks, ok=concise)
    if not concise:
        cert.failure = "tensor is not concise"
        return cert
    flb = max(ranks)
    cert.add(stage="flattening-lower-bound", bound=flb, r=r, ok=flb <= r)
    if flb > r:
        cert.failure = f"flattening lower bound {flb} exceeds r={r}"
        return cert
    bad = first_non_generic(j, r)
    if bad is not None:
        cert.add(stage="hilbert-function", degree=bad, have=hilbert_function(j, bad),
                 want=generic_hf(r, j.ring, bad), ok=False)
        cert.add(stage="hilbert-function", ok=False)
        cert.failure = "Hilbert function differs from the generic one"
        return cert
    cert.add(stage="hilbert-function", ok=True)
    sym = _SymAnnihilator(f)
    if not _apolarity_stage(cert, j, f, d, sym):
        return cert
    for k in range(d):
        sym.pop(k, None)  # only Ann(p_F)_d is read again, by the rho check
    sat_degrees = [u for u in j.degrees() if degree_total(u) + d <= j.bound]
    # on the Veronese side the test reads W_|u| alone: one degree per total decides it
    read = (sat_degrees if j.veronese is None
            else [next(same) for _, same in groupby(sat_degrees, degree_total)])
    sat_ok = all(is_saturated_degreewise(j, u) for u in read)
    cert.add(stage="saturation", tested_degrees=len(sat_degrees), ok=sat_ok)
    if not sat_ok:
        cert.failure = "a testable degree fails the degreewise saturation check"
        return cert
    if not _pi_containment_stage(cert, j, with_degree=False):
        return cert
    restricted = rho_ideal(j)
    ann_d = sym[d]
    apolar = ann_d.contains(restricted.piece(d))
    cert.add(stage="rho-apolarity", degree=d, dim=restricted.piece(d).dim,
             dim_ann=ann_d.dim, ok=apolar)
    hf_v = first_non_generic(restricted, r) is None
    cert.add(stage="rho-hilbert-function", ok=hf_v)
    cert.verdict = apolar and hf_v
    if not cert.verdict:
        cert.failure = "the restricted ideal fails the Veronese-side checks"
    return cert
