"""The diagonal machinery: the collapse map pi, its section psi, rho, tau, and I_R.

pi sends every factor's variable a(i,j) to b_j, so its kernel on each graded
piece is the corresponding piece of the diagonal ideal I_R (the 2x2 mixed
minors).  psi_u splits a sorted Veronese monomial into consecutive blocks of
sizes u_1,...,u_d and is a section of pi, giving the decomposition
S_u = (I_R)_u + psi_u(V_|u|) with zero intersection.

Both maps only merge or pick monomials, so both are read off one cached
pi-fibre table of S_u (`pi_fibres`): `f[c]` is the V-monomial that column c
collapses to, `top[m]` the largest column in the fibre of m, `order` the
V-monomials sorted by `top`, and `section[m]` the column psi_u sends m to.
`pi_image` adds each row's entries into their fibres and eliminates once, on
V_|u|; `psi_image` is a set of unit rows and needs no elimination.

Because of the split, every subspace of S_u that contains (I_R)_u is the
pi-preimage of its pi-image: (I_R)_u + psi_u(W) = pi^{-1}(W) for any W inside
V_|u|.  `pi_preimage` writes that subspace down in reduced row echelon form
from the table, eliminating only on W; `ir_piece` is the case W = 0 and
`upsilon` the case W = I_|u|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .grading import (
    PieceElement,
    RingKind,
    check_degree,
    degree_total,
    dim_piece,
    monomials,
    rank_monomial,
    segre_ring,
    veronese_ring,
)
from .linalg import QQ, Subspace, _rref_permuted


def _require_kind(el: PieceElement, kind: RingKind, what: str):
    if el.ring.kind is not kind:
        raise ValueError(f"{what} expects ring kind {kind.value}, got {el.ring.kind.value}")


def _collapse(mono) -> tuple:
    """Column sums of a Segre exponent table: the pi-image monomial."""
    n = len(mono[0])
    return tuple(sum(row[j] for row in mono) for j in range(n))


def _split_blocks(delta: tuple, u: tuple) -> tuple:
    """Sorted variable indices of a Veronese monomial, split into u-sized blocks."""
    n = len(delta)
    idx = [j for j, e in enumerate(delta) for _ in range(e)]
    rows = []
    pos = 0
    for ui in u:
        row = [0] * n
        for j in idx[pos:pos + ui]:
            row[j] += 1
        rows.append(tuple(row))
        pos += ui
    return tuple(rows)


@dataclass(frozen=True)
class PiFibres:
    """How pi collapses the monomial columns of S_u onto those of V_|u|.

    `f[c]` is the V-monomial that column c collapses to, `top[m]` the largest
    column in the fibre of m, `order` the V-monomials sorted by `top`, and
    `section[m]` the column that psi_u sends m to.
    """

    f: tuple
    top: tuple
    order: tuple
    section: tuple


@lru_cache(maxsize=None)
def pi_fibres(n: int, d: int, u: tuple) -> PiFibres:
    ring_s = segre_ring(n, d)
    ring_v = veronese_ring(n)
    u = check_degree(ring_s, u)
    f = tuple(rank_monomial(ring_v, _collapse(mono)) for mono in monomials(ring_s, u))
    # pi is onto (psi is a section), so every fibre is nonempty; columns
    # ascend, so the last write leaves the largest column of each fibre.
    top = [0] * dim_piece(ring_v, degree_total(u))
    for c, m in enumerate(f):
        top[m] = c
    order = tuple(sorted(range(len(top)), key=top.__getitem__))
    section = tuple(rank_monomial(ring_s, _split_blocks(delta, u))
                    for delta in monomials(ring_v, degree_total(u)))
    return PiFibres(f, tuple(top), order, section)


def _push(index: tuple, size: int, row, zero) -> list:
    """A coordinate row moved along an index map: entry i is added at index[i]."""
    out = [zero] * size
    for t, x in zip(index, row):
        if x:
            out[t] += x
    return out


def pi(theta: PieceElement) -> PieceElement:
    """Ring-map image under a(i,j) -> b_j, on one graded piece."""
    _require_kind(theta, RingKind.SEGRE_COORD, "pi")
    ring = theta.ring
    fib = pi_fibres(ring.n, ring.d, check_degree(ring, theta.degree))
    out = _push(fib.f, len(fib.top), theta.coords, theta.coords[0] * 0)
    return PieceElement(veronese_ring(ring.n), degree_total(theta.degree), tuple(out))


def rho(theta: PieceElement) -> PieceElement:
    """a(1,j) -> b_j and every other factor's variable to zero."""
    _require_kind(theta, RingKind.SEGRE_COORD, "rho")
    u = theta.degree
    if any(u[1:]):
        ring_v = veronese_ring(theta.ring.n)
        return PieceElement(ring_v, u[0], (theta.coords[0] * 0,) * dim_piece(ring_v, u[0]))
    return pi(theta)  # on a first-factor piece, rho is pi


def tau(g: PieceElement, d: int) -> PieceElement:
    """The inclusion b_j -> a(1,j), landing in degree (k,0,...,0)."""
    _require_kind(g, RingKind.VERONESE_COORD, "tau")
    return psi(tuple([g.degree] + [0] * (d - 1)), g, d=d)


def psi(u, g: PieceElement, d: int | None = None) -> PieceElement:
    """Section of pi on the degree-u piece, by block-splitting sorted monomials."""
    _require_kind(g, RingKind.VERONESE_COORD, "psi")
    if d is None:
        d = len(tuple(u))
    ring_s = segre_ring(g.ring.n, d)
    u = check_degree(ring_s, u)
    if degree_total(u) != g.degree:
        raise ValueError(f"|u| = {degree_total(u)} does not match element degree {g.degree}")
    fib = pi_fibres(g.ring.n, d, u)
    out = _push(fib.section, len(fib.f), g.coords, g.coords[0] * 0)
    return PieceElement(ring_s, u, tuple(out))


# -- the diagonal ideal -----------------------------------------------------------

def ir_generators(n: int, d: int) -> list:
    """The 2x2 mixed minors a(i,j)a(k,l) - a(i,l)a(k,j), i<k factors, j<l variables."""
    ring = segre_ring(n, d)
    gens = []
    for i in range(d):
        for k in range(i + 1, d):
            deg = tuple(1 if t in (i, k) else 0 for t in range(d))
            for j in range(n):
                for l in range(j + 1, n):
                    def mono(ji, jk):
                        return tuple(
                            tuple(
                                1 if (t == i and v == ji) or (t == k and v == jk) else 0
                                for v in range(n)
                            )
                            for t in range(d)
                        )
                    gens.append(
                        PieceElement.from_terms(
                            ring, deg, {mono(j, l): 1, mono(l, j): -1}
                        )
                    )
    return gens


def pi_preimage(n: int, d: int, u: tuple, w: Subspace) -> Subspace:
    """pi^{-1}(w) inside S_u, equal to (I_R)_u + psi_u(w), in RREF.

    Every non-top column c of a fibre is a pivot, with row e_c - e_top; the top
    of the fibre of m is a pivot exactly when m is a pivot of w reduced in the
    column order `order`, with that reduced row lifted onto the top columns as
    its row.  A non-top row whose top is a pivot adds the top's row, which
    clears the top entry.  Only w is eliminated, never S_u.
    """
    ring_s = segre_ring(n, d)
    u = check_degree(ring_s, u)
    fib = pi_fibres(n, d, u)
    field = w.field
    if w.ambient_dim != len(fib.top):
        raise ValueError(
            f"subspace ambient {w.ambient_dim} is not dim V_{degree_total(u)} = {len(fib.top)}"
        )
    zero, one = field.zero, field.one
    ncols = len(fib.f)
    lifted = {}
    if w.basis:
        red, pivots = _rref_permuted(w.basis, fib.order, field)
        tops = [fib.top[m] for m in fib.order]
        for row, p in zip(red, pivots):
            x = [zero] * ncols
            for t, a in zip(tops, row):
                if a:
                    x[t] = a
            lifted[fib.order[p]] = x
    rows = []
    for c, m in enumerate(fib.f):
        t = fib.top[m]
        top_row = lifted.get(m)
        if c == t:
            if top_row is not None:
                rows.append(tuple(top_row))
            continue
        if top_row is None:
            x = [zero] * ncols
            x[t] = -one
        else:
            x = list(top_row)
            x[t] = zero
        x[c] = one
        rows.append(tuple(x))
    return Subspace(ncols, tuple(rows), (ring_s, u), field)


@lru_cache(maxsize=None)
def ir_piece(n: int, d: int, u: tuple, field=QQ) -> Subspace:
    """Degree-u piece of the diagonal ideal: ker pi = pi^{-1}(0) on S_u."""
    return pi_preimage(n, d, u, Subspace.zero(len(pi_fibres(n, d, u).top), field=field))


def pi_image(n: int, d: int, u: tuple, sub: Subspace) -> Subspace:
    """pi(sub) inside V_|u|, from one elimination of dim sub x dim V_|u|."""
    fib = pi_fibres(n, d, check_degree(segre_ring(n, d), u))
    if sub.ambient_dim != len(fib.f):
        raise ValueError(
            f"subspace ambient {sub.ambient_dim} is not dim S_{tuple(u)} = {len(fib.f)}"
        )
    zero = sub.field.zero
    rows = [_push(fib.f, len(fib.top), row, zero) for row in sub.basis]
    return Subspace.from_rows(len(fib.top), rows, field=sub.field)


def psi_image(n: int, d: int, u: tuple, field=QQ) -> Subspace:
    """psi_u(V_{|u|}) as a subspace of S_u: the unit rows at the section's columns."""
    fib = pi_fibres(n, d, check_degree(segre_ring(n, d), u))
    zero, one = field.zero, field.one
    ncols = len(fib.f)
    rows = tuple(tuple(one if c == s else zero for c in range(ncols))
                 for s in sorted(set(fib.section)))
    return Subspace(ncols, rows, None, field)


def direct_sum_check(n: int, d: int, u) -> bool:
    """(I_R)_u and psi_u(V_{|u|}) meet trivially and fill S_u."""
    ring_s = segre_ring(n, d)
    u = check_degree(ring_s, u)
    a = ir_piece(n, d, u)
    b = psi_image(n, d, u)
    return a.intersect(b).dim == 0 and a.dim + b.dim == dim_piece(ring_s, u)


# -- degree enumerators used by the transfer pipeline ------------------------------

def two_ones_degrees(d: int) -> list:
    """All 0/1 degree vectors with exactly two ones (where I_R has its generators)."""
    out = []
    for i in range(d):
        for k in range(i + 1, d):
            out.append(tuple(1 if t in (i, k) else 0 for t in range(d)))
    return out


def staircase_degrees(d: int) -> list:
    """The staircase 0, e_1, e_1+e_2, ..., e_1+...+e_{d-1}."""
    return [tuple(1 if t < m else 0 for t in range(d)) for m in range(d)]


def proper_unit_box_degrees(d: int) -> list:
    """All 0/1 degree vectors strictly between 0 and (1,...,1)."""
    out = []
    for mask in range(1, (1 << d) - 1):
        out.append(tuple((mask >> t) & 1 for t in range(d)))
    out.sort(key=lambda u: (sum(u), tuple(-x for x in u)))
    return out
