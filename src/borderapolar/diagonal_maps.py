"""The diagonal machinery: the collapse map pi, its section psi, rho, tau, and I_R.

pi sends every factor's variable a(i,j) to b_j, so its kernel on each graded
piece is the corresponding piece of the diagonal ideal I_R (the 2x2 mixed
minors).  psi_u splits a sorted Veronese monomial into consecutive blocks of
sizes u_1,...,u_d and is a section of pi, giving the decomposition
S_u = (I_R)_u + psi_u(V_|u|) with zero intersection.

Both maps only merge or pick monomials, so both are read off one cached
pi-fibre table of S_u (`pi_fibres`), folded factor by factor from `grading`'s
monomial product table: `f[c]` is the V-monomial that column c collapses to,
and `section[m]` the smallest column in the fibre of m, which is the column
psi_u sends m to.  `pi_image` scales each row to integers once, adds them into
their fibres, drops the rows that collapse to zero and eliminates the rest
once, on V_|u|; `psi_image` is a set of unit rows and needs no elimination.

Because of the split, every subspace of S_u that contains (I_R)_u is the
pi-preimage of its pi-image: (I_R)_u + psi_u(W) = pi^{-1}(W) for any W inside
V_|u|.  `ir_piece` is the case W = 0, whose rows e_c - e_top (top the largest
column of c's fibre) it writes from the table with no elimination.  Any other
W is the business of `ideals`: pi^{-1}(W) is W pulled back along `f`, which
`ideals` writes from W's RREF rows as it writes a point ideal's pieces.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

from .grading import (
    PieceElement,
    RingKind,
    _dim_piece,
    _product_map,
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
    """How pi, or a merge of factor classes (`ideals._merge_table`), collapses
    the monomial columns of S_u onto those of a smaller piece.

    `f[c]` is the column that column c collapses to, and `section[m]` the
    first column of m's fibre, which psi_u sends m to, so `len(section)` is
    the number of targets.  For a pullback along f the table also holds the
    last column `top[m]` of each fibre, the targets sorted by their tops
    (`order`) and each target's position there (`at`).
    """

    f: tuple
    section: tuple
    top: tuple = dataclass_field(init=False, repr=False, compare=False)
    order: tuple = dataclass_field(init=False, repr=False, compare=False)
    at: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        top = [0] * len(self.section)
        for c, m in enumerate(self.f):
            top[m] = c  # a later c overwrites
        order = sorted(range(len(top)), key=top.__getitem__)
        object.__setattr__(self, "top", tuple(top))
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "at", tuple(sorted(range(len(order)), key=order.__getitem__)))


def fibre_table(f: tuple) -> PiFibres:
    """The table of an onto index map f, a tuple; the last write of a target
    is its first column."""
    section = [0] * (max(f) + 1)
    for c in reversed(range(len(f))):
        section[f[c]] = c
    return PiFibres(f, tuple(section))


@lru_cache(maxsize=None)
def pi_fibres(n: int, d: int, u: tuple) -> PiFibres:
    """The fibre table of S_u, for a degree u already checked."""
    ring_v = veronese_ring(n)
    # The columns of S_u are the mixed-radix products of per-factor monomials,
    # so f folds in one factor at a time: a partial collapse in V_k times a
    # monomial of V_ui is read off the product table V_k x V_ui -> V_{k+ui}.
    f, k = [0], 0
    for ui in u:
        table, width = _product_map(ring_v, k, ui), _dim_piece(ring_v, ui)
        f = [table[r * width + b] for r in f for b in range(width)]
        k += ui
    # pi is onto (psi is a section), so every fibre is nonempty.  The first
    # column of a fibre is psi's: handing the lowest variables to the first
    # factors gives the lex-largest exponent rows, which rank first.
    return fibre_table(tuple(f))


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
    one row e_c - e_top per column c below the largest column, top, of its
    fibre.  No elimination."""
    u = check_degree(segre_ring(n, d), u)
    fib = pi_fibres(n, d, u)
    f, top = fib.f, fib.top
    minus_one = field.minus_one
    rows = tuple([((c, 1), (top[m], minus_one)) for c, m in enumerate(f) if c != top[m]])
    return Subspace(len(f), rows, (segre_ring(n, d), u), field)


def pi_image(n: int, d: int, u: tuple, sub: Subspace) -> Subspace:
    """pi(sub) inside V_|u|, from one elimination on V_|u|.

    Each stored integer row is pushed through the fibres as it is, and
    entries that cancel and rows that collapse to zero, such as every
    e_c - e_top row of a pi-preimage, are dropped before the elimination.
    """
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
    """psi_u(V_{|u|}) as a subspace of S_u: the unit rows at the section's columns."""
    fib = pi_fibres(n, d, u)
    rows = tuple(((s, 1),) for s in sorted(set(fib.section)))
    return Subspace(len(fib.f), rows, None, field)


def direct_sum_check(n: int, d: int, u) -> bool:
    """(I_R)_u and psi_u(V_{|u|}) meet trivially and fill S_u."""
    a = ir_piece(n, d, u)  # checks the degree, which its piece tag holds as checked
    b = psi_image(n, d, a.piece[1])
    return a.intersect(b).dim == 0 and a.dim + b.dim == a.ambient_dim


# -- degree enumerators used by the transfer pipeline ------------------------------

def staircase_degrees(d: int) -> list:
    """The staircase 0, e_1, e_1+e_2, ..., e_1+...+e_{d-1}."""
    return [tuple(1 if t < m else 0 for t in range(d)) for m in range(d)]


def proper_unit_box_degrees(d: int) -> list:
    """All 0/1 degree vectors strictly between 0 and (1,...,1), in the order
    of `degrees_up_to`."""
    return [u for u in degrees_up_to(segre_ring(1, d), d - 1) if max(u) == 1]
