"""Shared builders for the test suite: model tensors, random instances, oracles."""

from __future__ import annotations

import itertools
import random
import warnings
from fractions import Fraction
from functools import partial

import math

from borderapolar.apolarity import (
    GeneralTensor,
    HomPoly,
    SymTensor,
    ann_piece,
    ann_sym_piece,
    as_symmetric,
    depolarize,
    is_concise,
)
from borderapolar.grading import (
    PieceElement,
    add_degrees,
    check_degree,
    degree_total,
    dim_piece,
    monomials,
    ones,
    rank_monomial,
    segre_ring,
    sub_degrees,
    unit_degree,
    veronese_ring,
)
from borderapolar.diagonal_maps import pi_fibres, pi_image, proper_unit_box_degrees
from borderapolar.grading import _product_map
from borderapolar.ideals import (
    GenericityError,
    _degrees_below,
    _variable_table,
    PointSet,
    TruncatedIdeal,
    degrees_up_to,
    expand,
    first_non_generic,
    first_without_diagonal,
    min_generators,
    span_from_below,
    variable_multiples,
)
from borderapolar.linalg import QQ, Matrix, Subspace, kernel, rank
from borderapolar.transfer import Certificate, digest_of, rho_ideal, tensor_digest
from borderapolar.selftest import (  # noqa: F401  (the library's model tensors)
    diagonal_tensor,
    random_form,
    random_symmetric_tensor,
    sum_of_powers_tensor,
)


F = Fraction
# non-integer, negative and zero coordinates; the factors of one Segre point
# have different denominators
RATIONAL_POINTS = ((F(1, 2), -3, 0), (0, F(2, 3), F(-5, 7)), (-1, 0, F(4, 9)),
                   (F(3, 4), F(5, 6), F(-1, 8)), (6, -4, 10))
RATIONAL_SEGRE_POINTS = (((F(1, 2), -3), (0, F(2, 7)), (5, F(-1, 3))),
                         ((F(-4, 9), F(2, 3)), (F(5, 6), 1), (0, -7)),
                         ((2, 0), (F(-1, 5), F(3, 10)), (F(7, 4), F(7, 8))))


def independent_forms(n: int, rng: random.Random, bound: int = 5):
    """n random integer linear forms spanning C^n (redraw until full rank)."""
    while True:
        forms = [
            tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n))
            for _ in range(n)
        ]
        if rank(n, sparse_rows(forms)) == n:
            return forms


def concise_power_sum_instance(n: int, d: int, rng: random.Random) -> SymTensor:
    """A concise minimal-border-rank instance sum_j l_j^{tensor d}."""
    while True:
        f = sum_of_powers_tensor(n, d, independent_forms(n, rng))
        if is_concise(f):
            return f


def power_of_form(coords, d: int) -> HomPoly:
    """(c_1 y_1 + ... + c_n y_n)^d expanded exactly."""
    n = len(coords)
    terms = {}
    for mono in monomials(veronese_ring(n), d):
        coef = Fraction(math.factorial(d))
        for e in mono:
            coef /= math.factorial(e)
        for c, e in zip(coords, mono):
            coef *= Fraction(c) ** e
        if coef:
            terms[mono] = coef
    return HomPoly(n, d, terms)


def symmetry_error_reference(entries: dict, zero):
    """The message `SymTensor` raises for these nonzero entries, or None: a scan
    of every permutation of every stored entry, in dict order."""
    for idx, c in entries.items():
        for perm in itertools.permutations(idx):
            if entries.get(perm, zero) != c:
                return (f"not symmetric: entry at {idx} is {c}, at {perm} is "
                        f"{entries.get(perm, zero)}")
    return None


def depolarize_reference(f: GeneralTensor) -> HomPoly:
    """The form of a symmetric F from a scan of its entries: each sorted index
    carries its value times d!/gamma!."""
    f = as_symmetric(f)
    fac_d = math.factorial(f.order)
    terms = {}
    for idx, c in f.entries.items():
        if tuple(sorted(idx)) != idx:
            continue
        exps = tuple(idx.count(j) for j in range(f.n))
        gamma_fac = math.prod(map(math.factorial, exps))
        terms[exps] = c * f.field.of(Fraction(fac_d, gamma_fac))
    return HomPoly(f.n, f.order, terms, field=f.field)


# -- helpers that only the tests read ------------------------------------------------

def integer_row(row, field=QQ) -> tuple:
    """A sparse row of field elements as integers on the same line: times the
    lcm of its denominators over Q, as residues over GF(p)."""
    if field == QQ:
        den = math.lcm(*[x.denominator for _, x in row])
        return tuple([(c, x.numerator * (den // x.denominator)) for c, x in row])
    return tuple([(c, x.v) for c, x in row])


def sparse_rows(rows, field=QQ) -> list:
    """Dense rows as sparse rows of field elements, zeros dropped: the rows
    that elimination takes."""
    return [[(c, x) for c, x in enumerate(map(field.of, row)) if x] for row in rows]


def multiply_monomials(ring, a, b):
    if ring.is_multigraded:
        return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
    return tuple(x + y for x, y in zip(a, b))


def multiply(a: PieceElement, b: PieceElement) -> PieceElement:
    """Product of two piece elements, landing in the sum of their degrees."""
    if a.ring != b.ring:
        raise ValueError("elements live in different rings")
    ring = a.ring
    w = add_degrees(a.degree, b.degree)
    zero = a.coords[0] * 0
    out = [zero] * dim_piece(ring, w)
    basis_a = monomials(ring, a.degree)
    basis_b = monomials(ring, b.degree)
    for ia, ca in enumerate(a.coords):
        if not ca:
            continue
        for ib, cb in enumerate(b.coords):
            if not cb:
                continue
            m = multiply_monomials(ring, basis_a[ia], basis_b[ib])
            out[rank_monomial(ring, m)] += ca * cb
    return PieceElement(ring, w, tuple(out))


def two_ones_degrees(d: int) -> list:
    """All 0/1 degree vectors with exactly two ones (where I_R has its generators)."""
    out = []
    for i in range(d):
        for k in range(i + 1, d):
            out.append(tuple(1 if t in (i, k) else 0 for t in range(d)))
    return out


def contains_diagonal_ideal(j: TruncatedIdeal) -> bool:
    return first_without_diagonal(j) is None


# -- dense 0/1 matrices of pi and psi, the reference for the fibre-table maps --------

def pi_matrix_reference(n: int, d: int, u, field=QQ) -> Matrix:
    """pi on S_u as a V_|u| x S_u matrix: column c has a 1 in the row of the
    column sums of monomial c."""
    ring_s, ring_v = segre_ring(n, d), veronese_ring(n)
    u = check_degree(ring_s, u)
    cols = monomials(ring_s, u)
    rows = [[0] * len(cols) for _ in range(dim_piece(ring_v, degree_total(u)))]
    for c, mono in enumerate(cols):
        rows[rank_monomial(ring_v, tuple(map(sum, zip(*mono))))][c] = 1
    return Matrix(len(cols), sparse_rows(rows, field), field)


def psi_matrix_reference(n: int, d: int, u, field=QQ) -> Matrix:
    """psi_u as an S_u x V_|u| matrix: the sorted variable indices of each
    Veronese monomial are cut into consecutive blocks of sizes u_1, ..., u_d."""
    ring_s, ring_v = segre_ring(n, d), veronese_ring(n)
    u = check_degree(ring_s, u)
    dom = monomials(ring_v, degree_total(u))
    rows = [[0] * len(dom) for _ in range(dim_piece(ring_s, u))]
    for m, delta in enumerate(dom):
        idx = [j for j, e in enumerate(delta) for _ in range(e)]
        starts = [sum(u[:t]) for t in range(d)]
        blocks = tuple(tuple(idx[a:a + ut].count(j) for j in range(n))
                       for a, ut in zip(starts, u))
        rows[rank_monomial(ring_s, blocks)][m] = 1
    return Matrix(len(dom), sparse_rows(rows, field), field)


def mat_vec(m: Matrix, v) -> list:
    """m applied to the column vector v."""
    assert len(v) == m.ncols
    return [sum((a * b for a, b in zip(row, v) if a and b), m.field.zero) for row in m.rows]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    assert a.ncols == b.nrows
    cols = list(zip(*b.rows)) if b.rows else [()] * b.ncols
    rows = [[sum((x * y for x, y in zip(ra, cb) if x and y), a.field.zero) for cb in cols]
            for ra in a.rows]
    return Matrix(b.ncols, sparse_rows(rows, a.field), a.field)


def rref_gf_reference(m: Matrix):
    """Textbook Gauss-Jordan over GF(p) in `Mod` arithmetic: scale each pivot
    row to a leading 1 and clear its column everywhere else.  Returns (rows,
    pivots)."""
    rows = [list(r) for r in m.rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(m.ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv if x else x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


class SpanReference:
    """A subspace held as its dense RREF rows of field elements (Fractions
    over Q, Mods over GF(p)), every operation done in the field's own
    arithmetic by textbook Gauss-Jordan (`rref_gf_reference`, which does not
    care which field it runs in): the reference that the integer rows of
    `Subspace` are checked against."""

    def __init__(self, ncols: int, rows, field=QQ):
        self.ncols, self.field = ncols, field
        m = Matrix(ncols, sparse_rows([list(r) for r in rows], field), field)
        self.rows, self.pivots = rref_gf_reference(m)

    @classmethod
    def kernel(cls, ncols: int, rows, field=QQ) -> "SpanReference":
        return cls(ncols, cls(ncols, rows, field).constraints(), field)

    def constraints(self) -> list:
        """e_f - sum_i rows[i][f] e_{p_i} for each non-pivot column f, densely."""
        field, out = self.field, []
        for f in range(self.ncols):
            if f not in self.pivots:
                v = [field.zero] * self.ncols
                v[f] = field.one
                for row, p in zip(self.rows, self.pivots):
                    if row[f]:
                        v[p] = -row[f]
                out.append(v)
        return out

    def sum(self, other: "SpanReference") -> "SpanReference":
        return SpanReference(self.ncols, self.rows + other.rows, self.field)

    def intersect(self, other: "SpanReference") -> "SpanReference":
        return SpanReference.kernel(self.ncols, self.constraints() + other.constraints(),
                                    self.field)

    def reduce(self, v) -> list:
        v = [self.field.of(x) for x in v]
        for row, p in zip(self.rows, self.pivots):
            f = v[p]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def contains(self, other: "SpanReference") -> bool:
        return not any(x for row in other.rows for x in self.reduce(row))


def image_reference(m: Matrix, a: Subspace) -> Subspace:
    """The image of `a` under m, row-reduced on the codomain."""
    assert m.ncols == a.ambient_dim
    rows = sparse_rows([mat_vec(m, r) for r in a.basis], a.field)
    return Subspace.from_rows(m.nrows, rows, field=a.field)


def preimage_reference(m: Matrix, w: Subspace) -> Subspace:
    """{x : m x in w}: the kernel of (annihilator of w) . m."""
    assert m.nrows == w.ambient_dim
    cons = w.constraints()
    if not cons:
        return Subspace.full(m.ncols, field=m.field)
    return kernel(m.ncols, matmul(Matrix(w.ambient_dim, cons, w.field), m).sparse,
                  field=m.field)


def fibre_order(n: int, d: int, u: tuple) -> tuple:
    """The monomials of V_|u| sorted by the last column of S_u in their pi-fibre:
    the column order in which a subspace of V_|u| is pulled back along the
    fibres."""
    top = {m: c for c, m in enumerate(pi_fibres(n, d, u).f)}  # a later c overwrites
    return tuple(sorted(top, key=top.__getitem__))


def kept_piece(n: int, d: int, u: tuple, w: Subspace) -> Subspace:
    """pi^{-1}(w) inside S_u, read as the degree-u piece of an ideal kept by its
    Veronese pieces, with w at |u| and zero below."""
    k, ring_v = degree_total(u), veronese_ring(n)
    pieces = {i: Subspace.zero(dim_piece(ring_v, i), field=w.field) for i in range(k)}
    return TruncatedIdeal.pi_preimage(segre_ring(n, d), k, {**pieces, k: w}).pieces[u]


# -- the index maps derived by hand, as each reader once wrote them ------------------
# `diagonal_maps` now folds every fibre table and writes every pullback; these
# are the derivations it replaced, kept to check it against.

def pi_fibres_reference(n: int, d: int, u: tuple) -> tuple:
    """pi's index map on S_u, folded over the Veronese product tables."""
    ring_v = veronese_ring(n)
    f, k = [0], 0
    for ui in u:
        table, width = _product_map(ring_v, k, ui), dim_piece(ring_v, ui)
        f = [table[r * width + b] for r in f for b in range(width)]
        k += ui
    return tuple(f)


def predecessors_reference(ring, u) -> tuple:
    """`ideals._predecessors` by inverting the product table, written from the
    highest variable to the lowest, so the lowest variable is the one kept."""
    i, below = _degrees_below(ring, u)[0]
    table, n = _variable_table(ring, below, i), ring.n
    steps = [None] * dim_piece(ring, u)
    for j in reversed(range(n)):
        for prev in range(dim_piece(ring, below)):
            steps[table[prev * n + j]] = (prev, j)
    return below, i, tuple(steps)


def compatibility_reference(ring, u, i: int) -> tuple:
    """(pairs, owners) of a variable step, with a dict of the first pair seen of
    each product x_{ij} t: owners[m] is the first pair (j, t) of monomial m of
    S_{u+e_i}, and pairs holds (j0, t0, j, t) for every later pair (j, t) of
    m, (j0, t0) being its first, t ascending, then j."""
    table, n = _variable_table(ring, u, i), ring.n
    first, pairs = {}, []
    for t in range(dim_piece(ring, u)):
        for j in range(n):
            m = table[t * n + j]
            if m in first:
                pairs.append(first[m] + (j, t))
            else:
                first[m] = j, t
    return tuple(pairs), tuple([first[m] for m in range(len(first))])


def ir_piece_reference(n: int, d: int, u: tuple, field=QQ) -> Subspace:
    """(I_R)_u written row by row: e_c - e_top for each column c below the
    last column, top, of its pi-fibre."""
    f = pi_fibres_reference(n, d, u)
    top = {m: c for c, m in enumerate(f)}  # a later c overwrites
    rows = tuple([((c, 1), (top[m], field.minus_one)) for c, m in enumerate(f) if c != top[m]])
    return Subspace(len(f), rows, (segre_ring(n, d), u), field)


def image_dim_reference(fibre, perp, field) -> int:
    """`bounds._image_dim` on the index map `fibre`, against each fibre's last
    column (kept in a dict) where the shared system takes its first."""
    r = len(perp)
    at = [[0] * r for _ in fibre]
    for a, row in enumerate(perp):
        for c, x in row:
            at[c][a] = x
    top = {m: c for c, m in enumerate(fibre)}  # a later c overwrites
    equations = []
    for c, m in enumerate(fibre):
        here, there = at[c], at[top[m]]
        if c != top[m] and (any(here) or any(there)):
            equations.append(field.normalize([x - y for x, y in zip(here, there)]))
    return len(top) - r + rank(r, [[(a, x) for a, x in enumerate(e) if x] for e in equations],
                               field)


# -- dense references for the sparse-row subspace calculus ---------------------------

def assert_canonical(sub: Subspace):
    """The stored rows are tuples of (column, int) pairs with no zero value, in
    ascending column order, with every pivot column clear in the other rows; a
    row's pivot is its first column.  Over Q each row is primitive (content 1)
    with a positive pivot entry; over GF(p) its entries are residues and its
    pivot entry is 1."""
    assert isinstance(sub.sparse, tuple)
    leads = tuple(row[0][0] for row in sub.sparse)
    pivots = set(leads)
    assert list(leads) == sorted(pivots) and len(pivots) == sub.dim
    for row in sub.sparse:
        assert isinstance(row, tuple) and all(isinstance(e, tuple) for e in row)
        cols = [c for c, _ in row]
        assert cols == sorted(set(cols)) and 0 <= cols[0] and cols[-1] < sub.ambient_dim
        values = [x for _, x in row]
        assert all(type(x) is int and x for x in values)
        if sub.field == QQ:
            assert math.gcd(*values) == 1 and values[0] > 0
        else:
            assert values[0] == 1 and all(0 < x < sub.field.p for x in values)
        assert not pivots.intersection(cols[1:])


def dense_pivots(basis) -> list:
    return [next(c for c, x in enumerate(row) if x) for row in basis]


def ideal_digest_reference(j) -> str:
    """The ideal digest as first defined: the hash of the repr of the dense bases."""
    return digest_of(j.ring, j.bound, [(u, j.pieces[u].basis) for u in j.degrees()])


def constraints_reference(sub: Subspace) -> Matrix:
    """For each non-pivot column c, e_c - sum_i basis[i][c] e_{p_i}, from dense rows."""
    n, field, basis = sub.ambient_dim, sub.field, sub.basis
    pivots = dense_pivots(basis)
    rows = []
    for c in range(n):
        if c in pivots:
            continue
        v = [field.zero] * n
        v[c] = field.one
        for row, p in zip(basis, pivots):
            if row[c]:
                v[p] = -row[c]
        rows.append(v)
    return Matrix(n, sparse_rows(rows, field), field)


def intersect_reference(a: Subspace, b: Subspace) -> Subspace:
    """The kernel of both dense constraint matrices stacked."""
    stacked = constraints_reference(a).rows + constraints_reference(b).rows
    return kernel(a.ambient_dim, sparse_rows(stacked, a.field), field=a.field)


def reduce_vector_reference(sub: Subspace, v) -> list:
    """The remainder of v after subtracting multiples of the dense basis rows."""
    v = [sub.field.of(x) for x in v]
    for row, c in zip(sub.basis, dense_pivots(sub.basis)):
        f = v[c]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return v


def multiply_vector_by_variable_reference(ring, u, coords, i: int, j: int) -> list:
    """Dense coordinates of (variable i,j) * element, ranking each product monomial."""
    u = check_degree(ring, u)
    target = add_degrees(u, unit_degree(ring.d, i)) if ring.is_multigraded else u + 1
    out = [coords[0] * 0] * dim_piece(ring, target)
    for mono, c in zip(monomials(ring, u), coords):
        if ring.is_multigraded:
            new = tuple(tuple(e + (f == i and v == j) for v, e in enumerate(row))
                        for f, row in enumerate(mono))
        else:
            new = tuple(e + (v == j) for v, e in enumerate(mono))
        out[rank_monomial(ring, new)] += c
    return out


def variable_step_reference(ring, u, i: int, j: int) -> list:
    """The column of (variable i,j) * each monomial of degree u, ranked one by one."""
    if ring.is_multigraded:
        var = tuple(tuple(int(f == i and t == j) for t in range(ring.n)) for f in range(ring.d))
    else:
        var = tuple(int(t == j) for t in range(ring.n))
    return [rank_monomial(ring, multiply_monomials(ring, mono, var))
            for mono in monomials(ring, u)]


def colon_rows_reference(ring, u, v, upper: Subspace) -> list:
    """The rows whose kernel is (upper : S_v)_u, as the colon first stacked
    them: each monomial of S_v as its (factor, variable) steps, V_v as
    combinations with replacement and S_(1,...,1) as a product, and the ranked
    index maps of the steps composed monomial by monomial."""
    u, n = check_degree(ring, u), ring.n
    if ring.is_multigraded:
        if v != ones(ring.d):
            raise ValueError("the reference colon multiplies S by S_(1,...,1) only")
        monos = (list(enumerate(m)) for m in itertools.product(range(n), repeat=ring.d))
    else:
        monos = ([(0, var) for var in m]
                 for m in itertools.combinations_with_replacement(range(n), v))
    cons = [dict(row) for row in upper.constraints()]
    stacked = []
    for steps in monos:
        idx_map, deg = list(range(dim_piece(ring, u))), u
        for i, var in steps:
            step_map = variable_step_reference(ring, deg, i, var)
            idx_map = [step_map[t] for t in idx_map]
            deg = add_degrees(deg, unit_degree(ring.d, i)) if ring.is_multigraded else deg + 1
        for crow in cons:
            stacked.append([(t, crow[c]) for t, c in enumerate(idx_map) if c in crow])
    return stacked


def colon_reference(ring, u, v, upper: Subspace) -> Subspace:
    """(upper : S_v)_u: the kernel of `colon_rows_reference`, full when there
    are no rows; its field is `upper`'s."""
    stacked, dim_u = colon_rows_reference(ring, u, v, upper), dim_piece(ring, u)
    if not stacked:
        return Subspace.full(dim_u, field=upper.field)
    return kernel(dim_u, stacked, field=upper.field)


def expand_reference(generators, ring, bound: int, field=QQ) -> dict:
    """The pieces of the ideal the generators span: in each degree, the dense
    generators of that degree and every variable multiple of the pieces below."""
    pieces = {}
    for u in degrees_up_to(ring, bound):
        rows = [list(g.coords) for g in generators if g.degree == u]
        if ring.is_multigraded:
            below = [(i, sub_degrees(u, unit_degree(ring.d, i))) for i in range(ring.d) if u[i]]
        else:
            below = [(0, u - 1)] if u else []
        for i, prev in below:
            rows += [multiply_vector_by_variable_reference(ring, prev, b, i, j)
                     for b in pieces[prev].basis for j in range(ring.n)]
        pieces[u] = Subspace.from_rows(dim_piece(ring, u), sparse_rows(rows, field), field=field)
    return pieces


def point_ideal_reference(zs, bound: int) -> dict:
    """The pieces of a point ideal, every monomial evaluated through powers."""
    ring, field = zs.ring, zs.field
    pieces = {}
    for u in degrees_up_to(ring, bound):
        basis = monomials(ring, u)
        rows = []
        for p in zs.points:
            row = []
            for mono in basis:
                val = field.one
                pairs = zip(mono, p) if ring.is_multigraded else [(mono, p)]
                for exps, coords in pairs:
                    for e, c in zip(exps, coords):
                        val = val * c ** e
                row.append(val)
            rows.append(row)
        pieces[u] = kernel(len(basis), sparse_rows(rows, field), field=field)
    return pieces


def very_general_points_reference(ring, r: int, bound: int, rng, coord_bound: int = 100):
    """The draw as first written: a draw of r integer points is kept when the
    kernels of its evaluation matrices (`point_ideal_reference`) have the
    generic codimension min(r, dim S_u) at every degree up to the bound, and
    is redrawn once, with a warning, before GenericityError."""
    def draw_factor():
        while True:
            v = tuple(rng.randint(-coord_bound, coord_bound) for _ in range(ring.n))
            if any(v):
                return v

    for attempt in range(2):
        try:
            if ring.is_multigraded:
                pts = tuple(tuple(draw_factor() for _ in range(ring.d)) for _ in range(r))
            else:
                pts = tuple(draw_factor() for _ in range(r))
            zs = PointSet(ring, pts)
        except ValueError:
            continue
        if all(p.codim == min(r, p.ambient_dim) for p in point_ideal_reference(zs, bound).values()):
            return zs
        warnings.warn(f"resampling: draw {attempt} was not in general position", stacklevel=2)
    raise GenericityError(f"failed twice to draw {r} points with the generic Hilbert function")


def min_generators_degree_one_reference(f) -> int:
    """The from-below count of Ann(F)'s generators in degree (1,...,1): dim
    Ann(F)_{1,...,1} minus dim sum_i S_{e_i} Ann(F)_{1-e_i}, every piece a kernel."""
    return min_generators(segre_ring(f.n, f.order), ones(f.order), partial(ann_piece, f),
                          f.field)


def min_generators_sym_in_degree_reference(p, k: int) -> int:
    """The form-side count of Ann(p)'s generators in degree k as the library
    made it before it counted on the annihilator side: dim Ann(p)_k, a
    catalecticant kernel, minus the dimension of V_1 Ann(p)_{k-1}, spanned
    from n dim Ann(p)_{k-1} rows (`span_from_below`)."""
    return min_generators(veronese_ring(p.n), k, partial(ann_sym_piece, p), p.field)


def flattening(f: GeneralTensor, i: int, cols: dict) -> list:
    """F's flattening along factor i, as sparse rows: row j is the slice F_{i=j},
    and the index on the other factors goes to column cols[index]."""
    rows = [[] for _ in range(f.n)]
    for idx, x in f.entries.items():
        rows[idx[i]].append((cols[idx[:i] + idx[i + 1:]], x))
    return rows


def slice_spans_reference(f) -> list:
    """R_i for each factor i by d separate reductions, one per flattening:
    column c stands for the c-th index of the other d-1 factors in `product` order."""
    cols = {t: c for c, t in enumerate(itertools.product(range(f.n), repeat=f.order - 1))}
    return [Subspace.from_rows(len(cols), flattening(f, i, cols), field=f.field)
            for i in range(f.order)]


def ann_piece_reference(f: GeneralTensor, u) -> Subspace:
    """`apolarity.ann_piece` as the kernel of `contraction_rows_reference`."""
    ring = segre_ring(f.n, f.order)
    u = check_degree(ring, u)
    dim, tag = dim_piece(ring, u), (ring, u)
    if any(ui > 1 for ui in u):
        return Subspace.full(dim, piece=tag, field=f.field)
    return kernel(dim, contraction_rows_reference(f, u), tag, f.field)


def contraction_rows_reference(f: GeneralTensor, u) -> list:
    """F's contraction map at a 0/1 degree u by a lookup of every index tuple:
    one row per index on the factors off u, one column per monomial of S_u."""
    ring = segre_ring(f.n, f.order)
    selected = [i for i, ui in enumerate(u) if ui == 1]
    remaining = [i for i, ui in enumerate(u) if ui == 0]
    selectors = [{i: mono[i].index(1) for i in selected} for mono in monomials(ring, u)]
    rows = []
    for tail in itertools.product(range(f.n), repeat=len(remaining)):
        row = []
        for c, sel in enumerate(selectors):
            idx = [0] * f.order
            for i, j in sel.items():
                idx[i] = j
            for i, j in zip(remaining, tail):
                idx[i] = j
            x = f.entries.get(tuple(idx))
            if x is not None:
                row.append((c, x))
        rows.append(row)
    return rows


def contract_tensor_reference(theta: PieceElement, f: GeneralTensor) -> GeneralTensor:
    """`apolarity.contract_tensor` by a scan of F's entries for every nonzero
    coordinate of theta, each naming one index per contracted factor."""
    u, d = theta.degree, theta.ring.d
    selected = [i for i in range(d) if u[i] >= 1]
    remaining = tuple(i for i in f.factors if u[i] == 0)
    pos_of = {i: k for k, i in enumerate(f.factors)}
    out: dict = {}
    if all(ui <= 1 for ui in u) and all(i in pos_of for i in selected):
        basis = monomials(theta.ring, u)
        for col, c in enumerate(theta.coords):
            if not c:
                continue
            row_sel = {i: basis[col][i].index(1) for i in selected}
            for idx, val in f.entries.items():
                if any(idx[pos_of[i]] != row_sel[i] for i in selected):
                    continue
                key = tuple(idx[pos_of[i]] for i in remaining)
                out[key] = out.get(key, f.field.zero) + c * val
    return GeneralTensor(f.n, len(remaining), out, field=f.field, factors=remaining)


def catalecticant_reference(p: HomPoly, k: int) -> list:
    """Cat_k of p by a lookup of every (mu, delta) pair of V_{d-k} x V_k: row
    mu has a_gamma times the falling factorial gamma!/mu! at delta, gamma =
    mu + delta, in field elements; there is no row above d."""
    ring = veronese_ring(p.n)
    if k > p.d:
        return []
    rows = []
    for mu in monomials(ring, p.d - k):
        row = []
        for c, delta in enumerate(monomials(ring, k)):
            gamma = tuple(m + dl for m, dl in zip(mu, delta))
            a = p.terms.get(gamma)
            if a is not None:
                fall = 1
                for gj, dj in zip(gamma, delta):
                    fall *= math.factorial(gj) // math.factorial(gj - dj)
                row.append((c, a * fall))
        rows.append(row)
    return rows


def ann_sym_piece_reference(p: HomPoly, k: int) -> Subspace:
    """`apolarity.ann_sym_piece` as the kernel of `catalecticant_reference`."""
    ring = veronese_ring(p.n)
    dim, tag = dim_piece(ring, k), (ring, k)
    if k > p.d:
        return Subspace.full(dim, piece=tag, field=p.field)
    return kernel(dim, catalecticant_reference(p, k), tag, p.field)


def contract_poly_reference(g: PieceElement, p: HomPoly) -> HomPoly:
    """`apolarity.contract_poly` by differentiating each term of p by each
    monomial of g, term by term."""
    k = g.degree
    if k > p.d:
        return HomPoly(p.n, max(p.d - k, 0), {}, field=p.field)
    basis = monomials(g.ring, k)
    out: dict = {}
    for col, b in enumerate(g.coords):
        if not b:
            continue
        delta = basis[col]
        for gamma, a in p.terms.items():
            if any(dj > gj for dj, gj in zip(delta, gamma)):
                continue
            fall = 1
            for dj, gj in zip(delta, gamma):
                fall *= math.factorial(gj) // math.factorial(gj - dj)
            mu = tuple(gj - dj for gj, dj in zip(gamma, delta))
            out[mu] = out.get(mu, p.field.zero) + a * b * fall
    return HomPoly(p.n, p.d - k, out, field=p.field)


def proper_degree_annihilator_ideal(f, bound: int):
    """The ideal generated by every Ann(F)_u with u strictly inside the unit box,
    expanded to the bound: the oracle for the proper-ideal piece that
    `bounds.verify_containment_lemma` reads by its annihilator."""
    ring = segre_ring(f.n, f.order)
    gens = []
    for u in proper_unit_box_degrees(f.order):
        for b in ann_piece(f, u).basis:
            gens.append(PieceElement(ring, u, tuple(b)))
    return expand(gens, ring, bound, field=f.field)


def rho_stages_reference(f: SymTensor, r: int, j: TruncatedIdeal) -> tuple:
    """(witnesses, verdict) of the rho stages of `comon_certificate`, computed
    on rho(J) itself: rho(J)_d inside Ann(p_F)_d, and the generic Hilbert
    function of r points on every rho(J)_k."""
    d = f.order
    restricted, ann_d = rho_ideal(j), ann_sym_piece(f.form, d)
    apolar = ann_d.contains(restricted.piece(d))
    hf = first_non_generic(restricted, r) is None
    return ([{"stage": "rho-apolarity", "degree": d, "dim": restricted.piece(d).dim,
              "dim_ann": ann_d.dim, "ok": apolar},
             {"stage": "rho-hilbert-function", "ok": hf}], apolar and hf)


def _require_concise_symmetric_reference(f):
    if not isinstance(f, SymTensor):
        raise ValueError("sharpness is defined for symmetric tensors")
    if not is_concise(f):
        raise ValueError("sharpness is defined for concise tensors")


def is_sharp_reference(f) -> Certificate:
    """`bounds.is_sharp` with no use of F's symmetry: a kernel for every proper
    unit-box degree, and a growth chain for every ordered pair (i, j)."""
    n, d = f.n, f.order
    if d < 3:
        raise ValueError("sharpness needs at least three factors")
    _require_concise_symmetric_reference(f)
    ring = segre_ring(n, d)
    cert = Certificate("sharp", lambda: tensor_digest(f))
    gens = min_generators_degree_one_reference(f)
    cond1 = gens == n - 1
    cert.add(stage="degree-one-generators", count=gens, want=n - 1, ok=cond1)

    box = {u: ann_piece(f, u) for u in proper_unit_box_degrees(d)}
    cond2 = True
    for u, piece in box.items():
        if piece.codim != n:
            cond2 = False
            cert.add(stage="unit-box-hilbert", degree=u, have=piece.codim, want=n, ok=False)
    cert.add(stage="unit-box-hilbert", ok=cond2)

    cond3 = True
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            sub = box[tuple(1 if t in (i, j) else 0 for t in range(d))]
            for s in range(1, d):
                deg = tuple((s if t == i else 0) + (1 if t == j else 0) for t in range(d))
                hf = dim_piece(ring, deg) - sub.dim
                if hf != n:
                    cond3 = False
                    cert.add(stage="two-factor-growth", i=i, j=j, s=s,
                             have=hf, want=n, ok=False)
                if s < d - 1:
                    dim = dim_piece(ring, add_degrees(deg, unit_degree(d, i)))
                    rows = variable_multiples(ring, deg, sub.sparse, i)
                    sub = Subspace.from_rows(dim, rows, field=f.field)
    cert.add(stage="two-factor-growth", ok=cond3)
    cert.verdict = cond1 and cond2 and cond3
    if not cert.verdict:
        cert.failure = "a sharpness condition fails (see witnesses)"
    return cert


def verify_lemma_1_minus_ed_reference(f) -> Certificate:
    """`bounds.verify_lemma_1_minus_ed` on the primal side: the kernel
    Ann(F)_{1-e_d}, its pi-image, the kernel Ann(p_F)_{d-1} and their
    containment and equality as subspaces."""
    _require_concise_symmetric_reference(f)
    n, d = f.n, f.order
    u = tuple(1 if t < d - 1 else 0 for t in range(d))
    lifted = pi_image(n, d, u, ann_piece(f, u))
    target = ann_sym_piece(depolarize(f), d - 1)
    contained = target.contains(lifted)
    cert = Certificate("image-of-degree-one-minus-last", lambda: tensor_digest(f),
                       verdict=contained)
    cert.add(degree=u, dim_image=lifted.dim, dim_target=target.dim,
             contained=contained, equal=lifted == target)
    if not contained:
        cert.failure = "the projected annihilator piece is not apolar to the form"
    return cert


def proper_ideal_piece_reference(f, u) -> Subspace:
    """Piece u of the ideal generated by every Ann(F)_v with v strictly inside
    the unit box, spanned from below over the degrees v <= u alone: Ann(F)_v
    itself at a proper unit-box degree, `span_from_below` at every other."""
    ring = segre_ring(f.n, f.order)
    proper = set(proper_unit_box_degrees(f.order))
    pieces: dict = {}

    def piece_at(v):
        if v not in pieces:
            pieces[v] = (ann_piece(f, v) if v in proper else
                         span_from_below(ring, v, piece_at, f.field, piece=(ring, v)))
        return pieces[v]

    return piece_at(u)


def verify_containment_lemma_reference(f) -> Certificate:
    """`bounds.verify_containment_lemma` on the primal side: the proper-ideal
    piece P at (d-1, 1, 0, ...) spanned from below, its pi-image and the
    kernel Ann(p_F)_d."""
    _require_concise_symmetric_reference(f)
    n, d = f.n, f.order
    u = tuple([d - 1, 1] + [0] * (d - 2))
    lifted = pi_image(n, d, u, proper_ideal_piece_reference(f, u))
    target = ann_sym_piece(depolarize(f), d)
    ok = target.contains(lifted)
    cert = Certificate("proper-ideal-containment", lambda: tensor_digest(f), verdict=ok)
    cert.add(degree=u, dim_image=lifted.dim, dim_target=target.dim, ok=ok,
             vacuous=lifted.is_zero)
    if not ok:
        cert.failure = "the projected piece escapes the form's annihilator"
    return cert
