"""Tensors, forms, polarization, and the apolarity (contraction) action.

The coordinate rings act on their graded duals by partial differentiation:
a Segre-side variable contracts one tensor factor against the dual basis,
and a Veronese-side variable differentiates a form.  Annihilator pieces are
kernels of the induced linear maps, so any nonzero rescaling of the pairing
yields the same subspaces; each is held by the RREF of the map's rows.  A
`SymTensor` holds F by its form p_F, which `polarize` is given and an
entry-built tensor makes as it checks symmetry; the entries of a polarized F
are written on first read, and `entries` is read-only on every tensor;
`SymTensor.sorted_entries` lists them in index order from the form's orbits,
for a digest, without writing them.  A multilinear F is read through one
contraction map: at a 0/1 degree u, each entry lands in the row named by its
indices off u and the column of its indices on u, in one pass over the
entries.  `ann_piece` is cut out by its rows, `slice_spans` is its row spans
at the degrees 1 - e_i, and `contract_tensor` applies an element of S_u to
it.  A form is a functional on V_d, a_gamma * gamma! at gamma, written once
per form as ints and a scale (`_weighted`); readers divide, none converts.
`_catalecticant` writes Cat_k, its `grading.contractions` by V_{d-k}: they
cut out `ann_sym_piece`, `bounds` reads them, and `contract_poly` pairs them
with an element of V_k.  A polarized F's entries are its values over d!.
"""

from __future__ import annotations

import heapq
import itertools
import math
from functools import cached_property
from types import MappingProxyType

from .grading import (
    PieceElement,
    RingKind,
    check_degree,
    contractions,
    integer,
    monomials,
    segre_ring,
    sparse_row,
    veronese_ring,
)
from .linalg import QQ, IntRows, Subspace


class HomPoly:
    """Homogeneous degree-d form in n dual variables; `terms` is read-only,
    and `weighted` is a_gamma * gamma! * `scale` at each term's column of V_d,
    as ints in the order of `terms` (`_weighted`)."""

    __slots__ = ("n", "d", "terms", "field", "weighted", "scale")

    def __init__(self, n: int, d: int, terms: dict, field=QQ):
        self.n = integer(n, "n")
        self.d = integer(d, "degree")
        self.field = field
        clean = {}
        for exps, c in terms.items():
            exps = tuple(integer(e, "exponent") for e in exps)
            if len(exps) != self.n or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps}")
            if sum(exps) != self.d:
                raise ValueError(f"exponents {exps} do not sum to degree {self.d}")
            c = field.of(c)
            if c:
                clean[exps] = c
        self.terms = MappingProxyType(clean)
        self.weighted, self.scale = _weighted(self.n, clean, field)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, HomPoly)
            and (self.n, self.d) == (other.n, other.d)
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"HomPoly(n={self.n}, d={self.d}, {len(self.terms)} terms)"


class GeneralTensor:
    """Element of a tensor product of copies of C^n, indexed over `factors`.

    `factors` records which of the original d slots the tensor still lives on,
    as distinct non-negative labels; contraction returns tensors on the
    surviving slots.
    """

    __slots__ = ("n", "order", "entries", "field", "factors")

    def __init__(self, n: int, order: int, entries: dict, field=QQ, factors=None):
        self.n = integer(n, "n")
        self.order = integer(order, "order")
        self.field = field
        labels = range(self.order) if factors is None else factors
        self.factors = tuple(integer(i, "factor label") for i in labels)
        if len(self.factors) != self.order:
            raise ValueError("factor labels do not match the tensor order")
        for k, i in enumerate(self.factors):  # a label indexes a degree: no wraparound
            if i < 0 or i in self.factors[:k]:
                raise ValueError(f"factor label {i} is {'negative' if i < 0 else 'repeated'}")
        clean = {}
        for idx, c in entries.items():
            idx = tuple(integer(i, "index") for i in idx)
            if len(idx) != self.order or any(not 0 <= i < self.n for i in idx):
                raise ValueError(f"index tuple {idx} out of range")
            c = field.of(c)
            if c:
                clean[idx] = c
        self.entries = MappingProxyType(clean)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, GeneralTensor)
            and (self.n, self.order, self.factors) == (other.n, other.order, other.factors)
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, order={self.order}, {len(self.entries)} entries)"


class SymTensor(GeneralTensor):
    """Symmetric tensor held by its form p_F, whose coefficient of b^gamma is the
    sum of the orbit's d!/gamma! entries.  Built from entries, it keeps them and
    checks each orbit; built by `polarize`, it writes them on first read."""

    def __init__(self, n: int, order: int, entries: dict, field=QQ, factors=None):
        super().__init__(n, order, entries, field=field, factors=factors)
        # Stored entries are nonzero, so F is symmetric iff each permutation
        # orbit it touches is stored whole, with one value.
        orbits = {}
        for idx, c in self.entries.items():
            orbits.setdefault(tuple(sorted(idx)), []).append(c)
        fac = math.factorial(self.order)
        terms = {}  # the form's terms, from the orbits that pass
        for key, values in orbits.items():
            gamma = tuple(map(key.count, range(self.n)))
            size = fac // _gamma_factorial(gamma)
            if len(values) == size and all(c == values[0] for c in values):
                terms[gamma] = values[0] * self.field.of(size)
        if len(terms) < len(orbits):  # name the first bad entry's first differing permutation
            idx = next(idx for idx in self.entries
                       if tuple(map(idx.count, range(self.n))) not in terms)
            c = self.entries[idx]
            for perm in itertools.permutations(idx):
                other = self.entries.get(perm, self.field.zero)
                if other != c:
                    raise ValueError(f"not symmetric: entry at {idx} is {c}, at {perm} is {other}")
        self.form = HomPoly(self.n, self.order, terms, field=self.field)

    @cached_property
    def entries(self):
        entries = {}
        for base, c in _orbits(self.form):
            for idx in set(itertools.permutations(base)):
                entries[idx] = c
        return MappingProxyType(entries)

    def sorted_entries(self):
        """The pairs of `sorted(entries.items())`, one at a time, written from
        the form's orbits without writing `entries`: each orbit's distinct
        permutations come in ascending order, no index lies in two orbits,
        and the orbits are merged."""
        return heapq.merge(*[zip(_ascending_permutations(base), itertools.repeat(c))
                             for base, c in _orbits(self.form)])


def _orbits(p: HomPoly):
    """(sorted index, entry) for each orbit of nonzero entries of polarize(p):
    the entry is a_gamma * gamma!/d!, p's weighted coefficient over scale * d!."""
    per = p.field.one / (p.scale * math.factorial(p.d))
    for exps, (_, x) in zip(p.terms, p.weighted):
        yield tuple(j for j, e in enumerate(exps) for _ in range(e)), per * x


def _ascending_permutations(base: tuple):
    """The distinct permutations of the sorted tuple `base`, in ascending order
    (each the next permutation of the one before)."""
    idx, d = list(base), len(base)
    while True:
        yield tuple(idx)
        k = d - 2
        while k >= 0 and idx[k] >= idx[k + 1]:
            k -= 1
        if k < 0:
            return
        last = d - 1
        while idx[last] <= idx[k]:
            last -= 1
        idx[k], idx[last] = idx[last], idx[k]
        idx[k + 1:] = idx[:k:-1]


def as_symmetric(f: GeneralTensor) -> SymTensor:
    if isinstance(f, SymTensor) and f.order:  # an order-0 tensor has no factor
        return f
    return SymTensor(f.n, f.order, f.entries, field=f.field, factors=f.factors)


# -- polarization ---------------------------------------------------------------

def _gamma_factorial(exps) -> int:
    return math.prod(map(math.factorial, exps))


def _weighted(n: int, terms: dict, field) -> tuple:
    """(weighted, scale) of a form: a_gamma * gamma! times the scale, as ints,
    primitive over Q (the scale is a positive rational) and residues over
    GF(p) (the scale is 1)."""
    values = [a * _gamma_factorial(m) for m, a in terms.items()]
    ints = field.to_ints(list(enumerate(values)), len(values))
    return (sparse_row(veronese_ring(n), zip(terms, ints)),
            field.of(ints[0]) / values[0] if values else field.one)


def polarize(p: HomPoly) -> SymTensor:
    """F held by p: no entry is written and, F being symmetric by construction, no
    symmetry check runs.  Each orbit's entries will be coeff * gamma!/d!."""
    f = SymTensor.__new__(SymTensor)
    f.n, f.order, f.field, f.factors, f.form = p.n, p.d, p.field, tuple(range(p.d)), p
    return f


def depolarize(f: GeneralTensor) -> HomPoly:
    """Inverse of polarize: the form a symmetric F keeps (`SymTensor.form`)."""
    return as_symmetric(f).form


# -- contraction ----------------------------------------------------------------

def _contraction_rows(f: GeneralTensor, picked) -> dict:
    """F's contraction by the square-free monomials on the positions `picked`,
    as sparse rows keyed by the indices off `picked`, in one pass over F's
    entries.  An entry sits in column c, the mixed-radix rank of its indices on
    `picked` with the first most significant: the rank of the contracting
    monomial in its graded piece when `picked` follows slot order.  Each key
    and column is computed as its entry is read, so a sparse F costs its
    number of entries and no table of n^d indices is built."""
    n, off = f.n, [k for k in range(f.order) if k not in picked]
    rows: dict = {}
    for idx, x in f.entries.items():
        c = 0
        for k in picked:
            c = c * n + idx[k]
        rows.setdefault(tuple([idx[k] for k in off]), []).append((c, x))
    return rows


def contract_tensor(theta: PieceElement, f: GeneralTensor) -> GeneralTensor:
    """Apply a Segre-side element to a multilinear tensor.

    Degrees above (1,...,1) on the surviving factors kill everything; at a 0/1
    degree each row of F's contraction map meets theta once.  F's slot labels
    index theta's degree, so theta's ring needs a factor for every slot.
    """
    if theta.ring.kind is not RingKind.SEGRE_COORD:
        raise ValueError(f"expected an element of the Segre coordinate ring, got {theta.ring}")
    n, d, slots = theta.ring.n, theta.ring.d, max(f.factors, default=-1) + 1
    if n != f.n or d < slots:
        raise ValueError(
            f"ring shape mismatch: element has (n,d)=({n},{d}), tensor has ({f.n},{slots})")
    u = theta.degree
    remaining = tuple(i for i in f.factors if u[i] == 0)
    pos_of = {i: k for k, i in enumerate(f.factors)}
    out: dict = {}
    if all(u[i] == 0 or (u[i] == 1 and i in pos_of) for i in range(d)):
        # slot order, not position order, sets the column order
        picked = [pos_of[i] for i in range(d) if u[i]]
        for key, row in _contraction_rows(f, picked).items():
            out[key] = sum((theta.coords[c] * x for c, x in row), f.field.zero)
    return GeneralTensor(f.n, len(remaining), out, field=f.field, factors=remaining)


def contract_poly(g: PieceElement, p: HomPoly) -> HomPoly:
    """Apply a Veronese-side element to a form by iterated differentiation:
    g paired with row mu of Cat_k, divided by p's scale and by mu!."""
    if g.ring.kind is not RingKind.VERONESE_COORD:
        raise ValueError(f"expected an element of the Veronese coordinate ring, got {g.ring}")
    if g.ring.n != p.n:
        raise ValueError("variable count mismatch")
    k = g.degree
    if k > p.d:
        return HomPoly(p.n, max(p.d - k, 0), {}, field=p.field)
    out: dict = {}
    for mu, row in zip(monomials(g.ring, p.d - k), _catalecticant(p, k)):
        x = sum((g.coords[c] * y for c, y in row), p.field.zero)
        if x:
            out[mu] = x / (p.scale * _gamma_factorial(mu))
    return HomPoly(p.n, p.d - k, out, field=p.field)


# -- annihilator pieces -----------------------------------------------------------

def _require_full_tensor(f: GeneralTensor):
    if f.factors != tuple(range(f.order)):
        raise ValueError("annihilators are computed for tensors on all original factors")


def ann_piece(f: GeneralTensor, u) -> Subspace:
    """Degree-u piece of the apolar ideal of a multilinear tensor: the kernel
    of F's contraction map at u, held at a 0/1 degree by the RREF of that
    map's row span (`_row_span`); the basis is made on first read."""
    _require_full_tensor(f)
    ring = segre_ring(f.n, f.order)
    u = check_degree(ring, u)
    tag, ncols = (ring, u), math.prod([math.comb(f.n + x - 1, x) for x in u])  # dim S_u
    if any(ui > 1 for ui in u):
        return Subspace.full(ncols, tag, f.field)
    rows = _contraction_rows(f, [i for i, ui in enumerate(u) if ui]).values()
    return Subspace.by_perp(ncols, _row_span(ncols, rows, f.field).sparse, tag, f.field)


def _catalecticant(p: HomPoly, k: int):
    """Cat_k of p at a checked degree k: integer rows on V_k, made as they are
    read, one per monomial mu of V_{d-k}: p's weighted coefficients contracted
    by mu, with no conversion.  Row mu is mu! times Cat_k's row times p's
    scale (1 over GF(p)), so they cut out Ann(p)_k; above d there is none."""
    if k > p.d:
        return []
    return contractions(veronese_ring(p.n), k, p.d - k, [p.weighted])


def ann_sym_piece(p: HomPoly, k: int) -> Subspace:
    """Degree-k piece of the apolar ideal of a form, (p^perp : V_{d-k})_k: the
    kernel of Cat_k on the C(n + k - 1, k) monomials of V_k, held by the RREF
    of Cat_k's rows (none above d, where the piece is full)."""
    ring = veronese_ring(p.n)
    k = check_degree(ring, k)
    return Subspace.cut_out(math.comb(p.n + k - 1, k), _catalecticant(p, k), (ring, k), p.field)


# -- flattenings ------------------------------------------------------------------

def slice_spans(f: GeneralTensor) -> list:
    """R_i, the span of F's slices along factor i, for each factor i: the row
    space of F's contraction map at 1 - e_i, whose column c stands for the c-th
    index of the other d-1 factors in `product` order.

    A `SymTensor`'s d flattenings are one matrix, so factor 0's is reduced and
    its span is returned for every factor; no other flattening is built.  Any
    other tensor has each distinct flattening reduced once, told apart by its
    sorted sparse rows (all d agree when its entries are symmetric).  The rows
    are compared, not hashed, since hashing a Fraction costs more than
    comparing two.  Each is reduced by `_row_span`, so a sparse F costs its
    entries, not the flattening's width."""
    _require_full_tensor(f)
    ncols = f.n ** (f.order - 1)
    if isinstance(f, SymTensor) and f.order:  # an order-0 tensor has no factor
        rows = [row for _, row in sorted(_contraction_rows(f, range(1, f.order)).items())]
        return [_row_span(ncols, rows, f.field)] * f.order
    reduced, spans = [], []  # reduced: (sorted rows, span) per distinct flattening
    for i in range(f.order):
        slices = sorted(_contraction_rows(f, [k for k in range(f.order) if k != i]).items())
        rows = [sorted(row) for _, row in slices]
        span = next((span for seen, span in reduced if seen == rows), None)
        if span is None:
            span = _row_span(ncols, rows, f.field)
            reduced.append((rows, span))
        spans.append(span)
    return spans


def _row_span(ncols: int, rows, field) -> Subspace:
    """The span of a contraction map's sparse `rows` (a list or a dict's
    values) on `ncols` columns, handed to elimination as integer rows.  When
    the rows hold fewer entries than there are columns, they are reduced on
    the columns they touch, kept in order, and the stored rows are moved
    back: the RREF is the same, as every other column is zero in every row,
    and no row of the full width is written."""
    if sum(map(len, rows)) >= ncols:
        return Subspace.from_rows(ncols, IntRows([field.to_ints(row, ncols) for row in rows]),
                                  field=field)
    cols = sorted({c for row in rows for c, _ in row})
    at = {c: i for i, c in enumerate(cols)}
    width = len(cols)
    span = Subspace.from_rows(
        width, IntRows([field.to_ints([(at[c], x) for c, x in row], width) for row in rows]),
        field=field)
    return Subspace(ncols, tuple([tuple([(cols[i], x) for i, x in row]) for row in span.sparse]),
                    field=field)


def flattening_ranks(f: GeneralTensor) -> tuple:
    """Rank of each one-factor flattening: the dimension of its slice span."""
    return tuple(span.dim for span in slice_spans(f))


def is_concise(f: GeneralTensor) -> bool:
    """True when every one-factor flattening has full rank n."""
    return not f.is_zero and all(r == f.n for r in flattening_ranks(f))


def flattening_lower_bound(f: GeneralTensor) -> int:
    """max flattening rank: a lower bound for the border rank."""
    return max(flattening_ranks(f), default=0)
