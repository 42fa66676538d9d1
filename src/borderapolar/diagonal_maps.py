"""The diagonal machinery: the collapse map pi, its section psi, rho, tau, and I_R.

pi sends every factor's variable a(i,j) to b_j, so its kernel on each graded
piece is the corresponding piece of the diagonal ideal I_R (the 2x2 mixed
minors).  psi_u splits a sorted Veronese monomial into consecutive blocks of
sizes u_1,...,u_d and is a section of pi, giving the decomposition
S_u = (I_R)_u + psi_u(V_|u|) with zero intersection.

This module owns the package's index maps, each held as a fibre table
(`fibre_table`): `f[c]` is the target of column c, and `section[m]` the first
column of m's fibre.  A product of pieces is folded factor by factor from
`grading`'s product table (`product_fibres`): pi on S_u is V_u1 x ... x V_ud
-> V_|u| (`pi_fibres`), with psi_u its section, and `ideals` folds its merges
of factor classes the same way.  `pi_image` adds each row, scaled to
integers once, into its fibres and eliminates once, on V_|u|; `psi_image` is
a set of unit rows and needs no elimination.

Because of the split, every subspace of S_u that contains (I_R)_u is the
pi-preimage of its pi-image: (I_R)_u + psi_u(W) = pi^{-1}(W) for any W inside
V_|u|.  `pullback` writes f^{-1}(K) for any onto index map f, held by the
side K holds: from K's annihilator rows, r rows pulled back along the
fibres, with its basis written from K's RREF rows when first read; or from
K's RREF rows directly.  It makes a kept ideal's Segre piece, a point ideal's
pieces along its merge table, and `ir_piece`, the case W = 0, whose rows
e_c - e_top it writes with no elimination.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

from .grading import (
    PieceElement,
    RingKind,
    RingSpec,
    _dim_piece,
    _product_map,
    add_degrees,
    check_degree,
    degree_total,
    degrees_up_to,
    segre_ring,
    veronese_ring,
)
from .linalg import QQ, Subspace, _dense


def _require_kind(el: PieceElement, kind: RingKind, what: str):
    if el.ring.kind is not kind:
        raise ValueError(f"{what} expects ring kind {kind.value}, got {el.ring.kind.value}")


@dataclass(frozen=True)
class PiFibres:
    """How an onto index map f collapses its columns onto those of a smaller
    piece: pi, a merge of factor classes (`ideals._merge_table`) or a product
    table S_u x S_e_i -> S_(u+e_i) read by pairs.

    `f[c]` is the column that column c collapses to, and `section[m]` the
    first column of m's fibre (on pi, the column psi_u sends m to), so
    `len(section)` is the number of targets.  For a pullback along f the table also holds the
    last column `top[m]` of each fibre, the targets sorted by their tops
    (`order`), each target's position there (`at`) and whether `section`
    increases (`rising`).
    """

    f: tuple
    section: tuple
    top: tuple = dataclass_field(init=False, repr=False, compare=False)
    order: tuple = dataclass_field(init=False, repr=False, compare=False)
    at: tuple = dataclass_field(init=False, repr=False, compare=False)
    rising: bool = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        top = [0] * len(self.section)
        for c, m in enumerate(self.f):
            top[m] = c  # a later c overwrites
        order = sorted(range(len(top)), key=top.__getitem__)
        object.__setattr__(self, "top", tuple(top))
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "at", tuple(sorted(range(len(order)), key=order.__getitem__)))
        object.__setattr__(self, "rising", all(a < b for a, b in zip(self.section,
                                                                      self.section[1:])))


def fibre_table(f: tuple) -> PiFibres:
    """The table of an onto index map f, a tuple; the last write of a target
    is its first column."""
    section = [0] * (max(f) + 1)
    for c in reversed(range(len(f))):
        section[f[c]] = c
    return PiFibres(f, tuple(section))


def product_fibres(ring: RingSpec, steps) -> PiFibres:
    """The table of the product S_v1 x ... x S_vt -> S_(v1+...+vt), for checked
    degrees steps = (v1, ..., vt), v1 slowest, folded in one step at a time off
    `grading`'s product tables S_k x S_vi -> S_(k+vi)."""
    f, k = [0], (0,) * ring.d if ring.is_multigraded else 0
    for v in steps:
        table, width = _product_map(ring, k, v), _dim_piece(ring, v)
        f = [table[r * width + b] for r in f for b in range(width)]
        k = add_degrees(k, v)
    return fibre_table(tuple(f))


@lru_cache(maxsize=None)
def pi_fibres(n: int, d: int, u: tuple) -> PiFibres:
    """The fibre table of S_u, for a degree u already checked: the product
    V_u1 x ... x V_ud -> V_|u|.  A fibre's first column is psi's: the lowest
    variables on the first factors give the lex-largest rows, which rank first."""
    return product_fibres(veronese_ring(n), u)


def pullback(k: Subspace, fib: PiFibres, piece=None) -> Subspace:
    """f^{-1}(K) = {x : sum_c x_c e_f[c] in K} on len(f) columns, for a
    subspace K on `k.ambient_dim` columns and the onto index map f of the
    table `fib`, held by the side K holds.

    Its annihilator is f^*(K^perp): each row of K's `perp` puts its entry at
    m on every column of m's fibre.  Where `section` increases those rows are
    already the RREF, as each leads at the section of its own lead, a column
    where no other row has an entry; otherwise the r rows are reduced once.
    Its basis is `preimage_rows`, written from K's RREF when first read.
    """
    if not k.held_by_perp:
        return Subspace(len(fib.f), preimage_rows(k, fib), piece, k.field)
    rows = [tuple([(c, x) for c, x in enumerate(map(dict(row).get, fib.f)) if x])
            for row in k.perp]
    if not fib.rising:
        rows = Subspace.from_rows(len(fib.f), rows, field=k.field).sparse
    return Subspace.by_perp(len(fib.f), tuple(rows), piece, k.field,
                            lambda: preimage_rows(k, fib))


def preimage_rows(k: Subspace, fib: PiFibres) -> tuple:
    """The RREF basis rows of f^{-1}(K), as `pullback` names it, written from
    K's RREF rows.

    Let top(m) be the last column c with f[c] = m.  f^{-1}(K) is spanned by
    e_c - e_top(f[c]) for each column c below its top and by K's rows placed
    on the tops, so its RREF row at such a c is K's row led by f[c] with its
    leading entry moved to c, when f[c] leads one, and e_c - e_top(f[c])
    otherwise; a top leading a row of K keeps that row.  This takes K's RREF
    with its columns in the order of their tops, which K makes and keeps
    (`Subspace._rows_in(fib.at)`).  K = 0 and K full never eliminate.
    """
    top = fib.top
    tails = [None] * k.ambient_dim  # tails[m]: K's row led by m, off its lead, on the tops
    for row in k._rows_in(fib.at) if k.dim else ():
        tails[row[0][0]] = row[0][1], tuple([(top[m], x) for m, x in row[1:]])
    minus_one = k.field.minus_one
    out = []
    for c, m in enumerate(fib.f):
        tail = tails[m]
        if tail is not None:
            out.append(((c, tail[0]),) + tail[1])
        elif c != top[m]:
            out.append(((c, 1), (top[m], minus_one)))
    return tuple(out)


def _push(index: tuple, row, zero) -> dict:
    """A sparse row moved along an index map: entry (i, x) is added at index[i]."""
    out = {}
    for i, x in row:
        t = index[i]
        out[t] = out.get(t, zero) + x
    return out


def pi(theta: PieceElement) -> PieceElement:
    """Ring-map image under a(i,j) -> b_j, on one graded piece."""
    _require_kind(theta, RingKind.SEGRE_COORD, "pi")
    ring = theta.ring
    fib = pi_fibres(ring.n, ring.d, theta.degree)
    zero = theta.coords[0] * 0
    out = _dense(_push(fib.f, enumerate(theta.coords), zero).items(), len(fib.section), zero)
    return PieceElement(veronese_ring(ring.n), degree_total(theta.degree), tuple(out))


def rho(theta: PieceElement) -> PieceElement:
    """a(1,j) -> b_j and every other factor's variable to zero."""
    _require_kind(theta, RingKind.SEGRE_COORD, "rho")
    u = theta.degree
    if any(u[1:]):
        ring_v = veronese_ring(theta.ring.n)
        return PieceElement(ring_v, u[0], (theta.coords[0] * 0,) * _dim_piece(ring_v, u[0]))
    return pi(theta)  # on a first-factor piece, rho is pi


def tau(g: PieceElement, d: int) -> PieceElement:
    """The inclusion b_j -> a(1,j), landing in degree (k,0,...,0) of d parts."""
    _require_kind(g, RingKind.VERONESE_COORD, "tau")
    ring_s = segre_ring(g.ring.n, d)  # refuses a factor count that is not an integer >= 1
    return psi((g.degree,) + (0,) * (ring_s.d - 1), g)


def psi(u, g: PieceElement) -> PieceElement:
    """Section of pi on the degree-u piece, by block-splitting sorted monomials."""
    _require_kind(g, RingKind.VERONESE_COORD, "psi")
    if isinstance(u, str) or not isinstance(u, Iterable):
        raise ValueError(f"psi takes a degree of one part per factor, got {u!r}")
    u = tuple(u)
    ring_s = segre_ring(g.ring.n, len(u))
    u = check_degree(ring_s, u)
    if degree_total(u) != g.degree:
        raise ValueError(f"|u| = {degree_total(u)} does not match element degree {g.degree}")
    fib = pi_fibres(g.ring.n, ring_s.d, u)
    zero = g.coords[0] * 0
    out = _dense(_push(fib.section, enumerate(g.coords), zero).items(), len(fib.f), zero)
    return PieceElement._at_checked(ring_s, u, tuple(out))


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


def ir_piece(n: int, d: int, u: tuple, field=QQ) -> Subspace:
    """Degree-u piece of the diagonal ideal, ker pi = pi^{-1}(0) on S_u, in RREF:
    the `pullback` of the zero subspace, one row e_c - e_top per column c
    below the largest column, top, of its fibre.  No elimination."""
    u = check_degree(segre_ring(n, d), u)
    fib = pi_fibres(n, d, u)
    return pullback(Subspace.zero(len(fib.section), field=field), fib, (segre_ring(n, d), u))


def pi_image(n: int, d: int, u: tuple, sub: Subspace) -> Subspace:
    """pi(sub) inside V_|u|, from one elimination on V_|u|.

    Each stored integer row is pushed through the fibres as it is, and
    entries that cancel and rows that collapse to zero, such as every
    e_c - e_top row of a pi-preimage, are dropped before the elimination.
    The degree is read as `ir_piece` reads it.
    """
    u = check_degree(segre_ring(n, d), u)
    fib = pi_fibres(n, d, u)
    if sub.ambient_dim != len(fib.f):
        raise ValueError(
            f"subspace ambient {sub.ambient_dim} is not dim S_{u} = {len(fib.f)}"
        )
    field = sub.field
    rows = []
    for row in sub.sparse:
        pushed = _push(fib.f, row, 0)
        ints = [(t, v) for t, v in zip(pushed, field.normalize(list(pushed.values()))) if v]
        if ints:
            rows.append(ints)
    return Subspace.from_rows(len(fib.section), rows, field=field)


def psi_image(n: int, d: int, u: tuple, field=QQ) -> Subspace:
    """psi_u(V_{|u|}) as a subspace of S_u: the unit rows at the section's
    columns.  The degree is read as `ir_piece` reads it."""
    return _psi_image(n, d, check_degree(segre_ring(n, d), u), field)


def _psi_image(n: int, d: int, u: tuple, field=QQ) -> Subspace:
    """`psi_image` at a degree already checked."""
    fib = pi_fibres(n, d, u)
    rows = tuple(((s, 1),) for s in sorted(set(fib.section)))
    return Subspace(len(fib.f), rows, None, field)


def direct_sum_check(n: int, d: int, u) -> bool:
    """(I_R)_u and psi_u(V_{|u|}) meet trivially and fill S_u."""
    a = ir_piece(n, d, u)  # checks the degree, which its piece tag holds as checked
    b = _psi_image(n, d, a.piece[1])
    return a.intersect(b).dim == 0 and a.dim + b.dim == a.ambient_dim


# -- degree enumerators used by the transfer pipeline ------------------------------

def staircase_degrees(d: int) -> list:
    """The staircase 0, e_1, e_1+e_2, ..., e_1+...+e_{d-1}."""
    return [tuple(1 if t < m else 0 for t in range(d)) for m in range(d)]


def proper_unit_box_degrees(d: int) -> list:
    """All 0/1 degree vectors strictly between 0 and (1,...,1), in the order
    of `degrees_up_to`."""
    return [u for u in degrees_up_to(segre_ring(1, d), d - 1) if max(u) == 1]
