"""Transport of truncated ideals between the Veronese and Segre settings.

Desymmetrization adds the diagonal ideal and the psi-images of the input
pieces, J_u = (I_R)_u + psi_u(I_|u|) = pi^{-1}(I_|u|), and keeps the result
by its Veronese pieces I_k (see `ideals`); symmetrization collects pi-images
along the staircase degrees; the first-factor restriction rho recovers a
Z-graded ideal.  Each map reads pi(J_u) through `TruncatedIdeal.pi_image`,
which is W_|u| with no elimination on an ideal kept by its Veronese pieces.

The certificate checkers decide the containment conditions under which a
border rank decomposition on the Segre side descends to the Veronese side,
and record witness dimensions plus an honest statement of what was and was
not tested.  Each stage has one path, whichever way the ideal is held: what
depends on that is answered by `ideals`.  Each fact is decided once, so the
rho(J) witnesses of `comon_certificate` are read off the stages that proved
them.  A symmetric tensor F is annihilated by I_R, so Ann(F)_u =
pi^{-1}(Ann(p_F)_|u|) at every 0/1 degree u, and apolarity is pi(J_u) inside
Ann(p_F)_|u|; a general tensor reads Ann(F)_u.  Every flattening of F has rank
codim Ann(p_F)_1, so conciseness is read off p_F too.  A certificate is
given a function that digests F and J, called the first time `inputs_digest`
is read: the verdict writes no entry of a polarized F.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from functools import cached_property

from .apolarity import (
    GeneralTensor,
    SymTensor,
    ann_piece,
    ann_sym_piece,
)
from .diagonal_maps import staircase_degrees
from .grading import (
    RingKind,
    _dim_piece,
    degree_total,
    integer,
    ones,
    segre_ring,
    veronese_ring,
)
from .ideals import (
    TruncatedIdeal,
    _bound,
    first_non_generic,
    first_without_diagonal,
    generic_hf,
    hilbert_function,
    is_saturated_degreewise,
    saturation_degrees,
)

SLIP_CERTIFIED = {"point", "upsilon-of-point", "rho-of-certified", "diagonal-points"}


def slip_label(provenance: str) -> str:
    if provenance in SLIP_CERTIFIED:
        return f"Slip-certified ({provenance})"
    return f"Slip-unknown ({provenance} ideal)"


class Certificate:
    """Structured verdict of one checker: what was tested, at which degrees.

    `digest` is called, with no arguments, the first time `inputs_digest` is
    read; a caller reading only the verdict digests no input.
    """

    def __init__(self, check: str, digest, verdict: bool = False,
                 tested_bound: int | None = None, slip_provenance: str | None = None,
                 failure: str | None = None):
        self.check = check
        self.verdict = verdict
        self.witnesses = []
        self.tested_bound = tested_bound
        self.slip_provenance = slip_provenance
        self.failure = failure
        self._digest = digest

    @cached_property
    def inputs_digest(self) -> str:
        return self._digest()

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


def _list_digest(parts, items) -> str:
    """digest_of(*parts, x) for a list x that is never built: `items` yields
    the repr of each element of x as an iterable of byte strings, so no
    element's repr need be held whole either."""
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x00")
    h.update(b"[")
    for k, item in enumerate(items):
        if k:
            h.update(b", ")
        for chunk in item:
            h.update(chunk)
    h.update(b"]\x00")
    return h.hexdigest()[:16]


def ideal_digest(j: TruncatedIdeal) -> str:
    """digest_of(j.ring, j.bound, [(u, j.pieces[u].basis) for u in j.degrees()]).

    The repr of the dense bases is streamed from the stored integer rows, one
    row at a time, with each entry's text written by the field (`reprs`)
    without making the element, and each run of zeros written as one repeated
    string.  A piece held by its annihilator makes its basis as it is read.
    An ideal kept by its Veronese pieces builds each piece as it is read, and
    keeps none; its basis is written from W_|u|'s, made once per W.
    """
    zero, reprs = f"{j.field.zero!r}, ".encode(), j.field.reprs

    def piece(u):
        n, rows = _dim_piece(j.ring, u), j.pieces[u].sparse
        yield f"({u!r}, (".encode()
        for r, row in enumerate(rows):
            parts = [b", (" if r else b"("]
            at = 0
            for (c, _), text in zip(row, reprs(row)):
                parts += (zero * (c - at), f"{text}, ".encode())
                at = c + 1
            parts.append(zero * (n - at))
            line = b"".join(parts)
            yield memoryview(line)[:-2]  # the separator after the last entry
            yield b",)" if n == 1 else b")"
        yield b",))" if len(rows) == 1 else b"))"

    return _list_digest((j.ring, j.bound), map(piece, j.degrees()))


def tensor_digest(f: GeneralTensor) -> str:
    """digest_of(f.n, f.order, sorted(f.entries.items())), as in every digest
    made so far.

    A `SymTensor` whose entries are not yet written has its list streamed in
    index order from its form's orbits (`SymTensor.sorted_entries`), so they
    stay unwritten."""
    if isinstance(f, SymTensor) and "entries" not in vars(f):
        return _list_digest((f.n, f.order), ((repr(e).encode(),) for e in f.sorted_entries()))
    return digest_of(f.n, f.order, sorted(f.entries.items()))


# -- the three transport maps ---------------------------------------------------

def upsilon(i: TruncatedIdeal, d: int, bound: int | None = None) -> TruncatedIdeal:
    """Desymmetrize a Z-graded ideal: piece at u is (I_R)_u + psi_u(I_{|u|}).

    That sum is pi^{-1}(I_{|u|}), so the result is kept by the pieces I_k
    alone (`TruncatedIdeal.pi_preimage`), and a Segre piece is built only
    when it is read.
    """
    if i.ring.kind is not RingKind.VERONESE_COORD:
        raise ValueError("desymmetrization expects an ideal in the Veronese ring")
    bound = i.bound if bound is None else _bound(bound)
    if bound > i.bound:
        raise ValueError(f"requested bound {bound} exceeds the input bound {i.bound}")
    ring_v, ring = veronese_ring(i.ring.n), segre_ring(i.ring.n, d)
    w = {k: i.pieces[k].tagged((ring_v, k)) for k in range(bound + 1)}
    provenance = "upsilon-of-point" if i.provenance in ("point", "diagonal-points") else "user"
    return TruncatedIdeal._kept(ring, bound, w, provenance, i.field)


def _pi_images(j, what: str, degree_at, provenance: str, needs_diagonal=False) -> TruncatedIdeal:
    """The Veronese ideal whose degree-k piece is pi(J_{degree_at(k)}), k up to j's bound."""
    if j.ring.kind is not RingKind.SEGRE_COORD:
        raise ValueError(f"{what} expects an ideal in the Segre coordinate ring")
    if needs_diagonal and first_without_diagonal(j) is not None:
        raise ValueError(f"{what} is undefined: the ideal does not contain the diagonal ideal")
    ring_v = veronese_ring(j.ring.n)
    pieces = {k: j._pi_image(degree_at(k)).tagged((ring_v, k)) for k in range(j.bound + 1)}
    return TruncatedIdeal._made(ring_v, j.bound, pieces, provenance, j.field)


def sigma(j: TruncatedIdeal) -> TruncatedIdeal:
    """Symmetrize an ideal containing I_R: degree N = a*d + m collects pi(J_{a1+s_m})."""
    d = j.ring.d
    stairs = staircase_degrees(d)
    provenance = "point" if j.provenance in ("upsilon-of-point", "diagonal-points") else "user"
    return _pi_images(j, "symmetrization", lambda k: tuple(k // d + s for s in stairs[k % d]),
                      provenance, needs_diagonal=True)


def rho_ideal(j: TruncatedIdeal) -> TruncatedIdeal:
    """Restriction to the first factor: degree-k piece is rho(J_{(k,0,...,0)})."""
    rest = (0,) * (j.ring.d - 1)
    provenance = "rho-of-certified" if j.provenance in SLIP_CERTIFIED else "user"
    return _pi_images(j, "rho", lambda k: (k,) + rest, provenance)


# -- containment bookkeeping ------------------------------------------------------

def _apolarity_stage(cert: Certificate, j: TruncatedIdeal, f: GeneralTensor,
                     up_to: int, ann: dict | None = None) -> bool:
    """Degreewise containment J_u in Ann(F)_u for |u| <= up_to; pieces above the
    unit box are full, so only 0/1 degrees are tested.

    A symmetric F is annihilated by I_R, so Ann(F)_u = pi^{-1}(Ann(p_F)_k) with
    k = |u|, and J_u lies in it exactly when pi(J_u) lies in Ann(p_F)_k, read
    from `ann` (made here unless the caller passes it to reuse); then dim_ann is
    dim S_u - dim V_k + dim Ann(p_F)_k.  A general tensor reads Ann(F)_u.  Each
    of Ann(p_F)_k, Ann(F)_u and a kept ideal's W_k holds its annihilator rows,
    and a test compares or reduces those.
    """
    if ann is None and isinstance(f, SymTensor):
        ann = {k: ann_sym_piece(f.form, k) for k in range(min(up_to, j.bound) + 1)}
    first_failure = None
    for u in j.degrees():
        if degree_total(u) > up_to or any(x > 1 for x in u):
            continue
        a, piece = ((ann_piece(f, u), j.pieces[u]) if ann is None
                    else (ann[degree_total(u)], j.pi_image(u)))
        ok = a.contains(piece)
        cert.add(degree=u, dim_ideal=j.piece_dim(u),
                 dim_ann=_dim_piece(j.ring, u) - a.ambient_dim + a.dim, ok=ok)
        if not ok and first_failure is None:
            first_failure = u
    if first_failure is not None:
        cert.failure = f"ideal is not apolar to the tensor at degree {first_failure}"
    return first_failure is None


def _pi_containment_stage(cert: Certificate, j: TruncatedIdeal, with_degree: bool) -> bool:
    """pi(J_{(d,0,...,0)}) inside pi(J_{(1,...,1)})."""
    d = j.ring.d
    u_first = tuple([d] + [0] * (d - 1))
    lhs = j.pi_image(u_first)
    rhs = j.pi_image(ones(d))
    ok = rhs.contains(lhs)
    witness = {"stage": "pi-containment"}
    if with_degree:
        witness["degree"] = u_first
    cert.add(**witness, dim_lhs=lhs.dim, dim_rhs=rhs.dim, ok=ok)
    if not ok:
        cert.failure = f"pi(J_{u_first}) is not inside pi(J_{ones(d)})"
    return ok


def _require_inputs(j: TruncatedIdeal, f: GeneralTensor, reach_order: bool = True):
    """J must be an ideal of F's ring S(n, d) over F's field and, where the
    pi-containment check reads J_{(d,0,...,0)}, reach degree d."""
    if j.ring != segre_ring(f.n, f.order):
        factors = f", d={j.ring.d}" if j.ring.is_multigraded else ""
        raise ValueError(f"the ideal's ring {j.ring.kind.value}(n={j.ring.n}{factors}) is "
                         f"not the tensor's Segre ring S(n={f.n}, d={f.order})")
    if j.field != f.field:
        raise ValueError(f"the ideal is over {j.field!r} but the tensor over {f.field!r}")
    if reach_order and j.bound < f.order:
        raise ValueError(f"need the truncation bound >= {f.order}, got {j.bound}")


def check_condition_iii(j: TruncatedIdeal, f: GeneralTensor) -> Certificate:
    """pi(J_{(d,0,...,0)}) inside pi(J_1), after verifying J is apolar to F."""
    _require_inputs(j, f)
    cert = Certificate("condition-iii", lambda: digest_of(tensor_digest(f), ideal_digest(j)),
                       tested_bound=j.bound, slip_provenance=slip_label(j.provenance))
    if _apolarity_stage(cert, j, f, f.order):
        cert.verdict = _pi_containment_stage(cert, j, with_degree=True)
    return cert


def check_condition_ii(j: TruncatedIdeal, f: GeneralTensor) -> Certificate:
    """I_R inside J and pi(J_u) independent of u within each total degree."""
    _require_inputs(j, f, reach_order=False)
    cert = Certificate("condition-ii", lambda: digest_of(tensor_digest(f), ideal_digest(j), j.bound),
                       tested_bound=j.bound, slip_provenance=slip_label(j.provenance))
    if not _apolarity_stage(cert, j, f, f.order):
        return cert
    missing = first_without_diagonal(j)
    if missing is not None:
        cert.add(stage="diagonal-containment", degree=missing, ok=False)
        cert.failure = f"the diagonal ideal is not inside J at degree {missing}"
        return cert
    cert.add(stage="diagonal-containment", ok=True)
    for total, degrees in itertools.groupby(j.degrees(), degree_total):  # sorted by total
        same_total = [j.pi_image(u) for u in degrees]
        same = all(im == same_total[0] for im in same_total[1:])
        cert.add(stage="pi-image-equality", total_degree=total,
                 dims=tuple(im.dim for im in same_total), ok=same)
        if not same:
            cert.failure = f"pi-images differ within total degree {total}"
            return cert
    cert.verdict = True
    return cert


# -- the full pipeline -------------------------------------------------------------

def comon_certificate(f: SymTensor, r: int, j: TruncatedIdeal) -> Certificate:
    """Run the full transfer pipeline for a symmetric tensor and a candidate ideal.

    Checks conciseness (read off Ann(p_F)_1), the flattening lower bound
    against r (an integer; 2.0 counts as 2), the generic Hilbert function, apolarity, degreewise saturation
    where the bound allows, and pi-containment; an ideal outside F's Segre ring
    S(n, d) or field, or truncated below degree d, is refused with a ValueError
    first.  rho(J) then passes the Veronese-side checks, and is not built: pi is
    the identity on S_(k,0,...,0), so rho(J)_k has the rows of J_(k,0,...,0),
    whose Hilbert function was checked, and rho(J)_d = pi(J_(d,0,...,0)) lies
    in pi(J_(1,...,1)) (pi-containment), inside Ann(p_F)_d (apolarity at
    (1,...,1), tested as d <= bound).
    """
    if not isinstance(f, SymTensor):
        raise TypeError("the transfer pipeline requires a symmetric tensor")
    n, d, r = f.n, f.order, integer(r, "point count")
    if not n <= r <= math.comb(n + 1, 2):
        raise ValueError(
            f"r={r} outside the admissible range [{n}, {math.comb(n + 1, 2)}]"
        )
    _require_inputs(j, f)
    cert = Certificate("comon-transfer", lambda: digest_of(tensor_digest(f), r, ideal_digest(j)),
                       tested_bound=j.bound, slip_provenance=slip_label(j.provenance))
    ann = {k: ann_sym_piece(f.form, k) for k in range(d + 1)}  # Ann(p_F)_k
    rank, dim_ann_d = ann[1].codim, ann[d].dim  # each flattening's rank; dim Ann(p_F)_d
    concise = rank == n
    cert.add(stage="conciseness", flattening_ranks=(rank,) * d, ok=concise)
    if not concise:
        cert.failure = "tensor is not concise"
        return cert
    # every flattening rank of a concise F is n, and n <= r was checked above
    cert.add(stage="flattening-lower-bound", bound=n, r=r, ok=True)
    bad = first_non_generic(j, r)
    if bad is not None:
        cert.add(stage="hilbert-function", degree=bad, have=hilbert_function(j, bad),
                 want=generic_hf(r, j.ring, bad), ok=False)
        cert.add(stage="hilbert-function", ok=False)
        cert.failure = "Hilbert function differs from the generic one"
        return cert
    cert.add(stage="hilbert-function", ok=True)
    if not _apolarity_stage(cert, j, f, d, ann):
        return cert
    del ann  # every Ann(p_F)_k is freed before saturation
    testable, deciding = saturation_degrees(j)
    sat_ok = all(is_saturated_degreewise(j, u) for u in deciding)
    cert.add(stage="saturation", tested_degrees=len(testable), ok=sat_ok)
    if not sat_ok:
        cert.failure = "a testable degree fails the degreewise saturation check"
        return cert
    if _pi_containment_stage(cert, j, with_degree=False):
        cert.add(stage="rho-apolarity", degree=d, dim=j.piece_dim((d,) + (0,) * (d - 1)),
                 dim_ann=dim_ann_d, ok=True)
        cert.add(stage="rho-hilbert-function", ok=True)
        cert.verdict = True
    return cert
