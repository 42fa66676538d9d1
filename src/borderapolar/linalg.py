"""Exact linear algebra over Q, or over a large prime field for fast re-checks.

Vectors are rows.  A Subspace stores the unique reduced row echelon basis of
its row span, so two subspaces are equal as sets exactly when their stored
bases compare equal.  Both fields run one fraction-free Gauss-Jordan loop on
integer rows.  The field supplies the rest: how a row becomes integers
(primitive integers over Q, residues over GF(p)), how a row is kept small after
each update (divided by its content over Q, reduced mod p over GF(p)) and how a
finished row becomes field elements.  Those are made once, at the end, one per
nonzero entry.

A kernel costs one elimination and an annihilator none.  Both come from a
basis whose pivot columns are clean: the annihilator of such a basis has one
row e_c - sum_i row_i[c] e_{p_i} per non-pivot column c.  A Subspace applies
this to its stored RREF basis (the rows span the annihilator but are not in
RREF).  `kernel` applies it to the RREF of m with its columns reversed, where
each pivot is the last nonzero column of its row, and there the rows come out
already in RREF.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm


# -- scalar fields -------------------------------------------------------------

class RationalField:
    """The exact rationals; elements are fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)
    is_rational = True

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def to_ints(self, row) -> list:
        """The row scaled to primitive integers."""
        dens = [x.denominator for x in row]
        den = lcm(*dens)
        ints = [x.numerator for x in row]
        if den > 1:
            ints = [v * (den // e) for v, e in zip(ints, dens)]
        return self.normalize(ints)

    @staticmethod
    def normalize(ints) -> list:
        """Divide an integer row by its content."""
        g = gcd(*ints)
        return [v // g for v in ints] if g > 1 else ints

    def from_ints(self, ints, pivot) -> list:
        """The integer row divided by its pivot entry."""
        zero = self.zero
        return [Fraction(v, pivot) if v else zero for v in ints]

    def __repr__(self):
        return "QQ"


QQ = RationalField()

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Mod:
    """Element of Z/p; arithmetic also accepts plain ints."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, Mod):
            if other.p != self.p:
                raise ValueError("mixed moduli")
            return other.v
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        w = self._lift(other)
        return NotImplemented if w is NotImplemented else Mod(self.v + w, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._lift(other)
        return NotImplemented if w is NotImplemented else Mod(self.v - w, self.p)

    def __rsub__(self, other):
        w = self._lift(other)
        return NotImplemented if w is NotImplemented else Mod(w - self.v, self.p)

    def __mul__(self, other):
        w = self._lift(other)
        return NotImplemented if w is NotImplemented else Mod(self.v * w, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        if w == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return Mod(self.v * pow(w, self.p - 2, self.p), self.p)

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        return Mod(pow(self.v, e, self.p), self.p)

    def __neg__(self):
        return Mod(-self.v, self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        w = self._lift(other)
        return NotImplemented if w is NotImplemented else self.v == w

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v} (mod {self.p})"


class PrimeField:
    """Z/p for a configured prime p > 2^20 (verdicts over Z/p are probabilistic)."""

    is_rational = False

    def __init__(self, p: int):
        if p <= 1 << 20:
            raise ValueError(f"modulus must exceed 2^20, got {p}")
        if not _is_probable_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.zero = Mod(0, p)
        self.one = Mod(1, p)

    def of(self, x):
        if isinstance(x, Mod):
            if x.p != self.p:
                raise ValueError("mixed moduli")
            return x
        if isinstance(x, int):
            return Mod(x, self.p)
        if isinstance(x, Fraction):
            if not x.denominator % self.p:
                raise ValueError(
                    f"{x} has no value mod {self.p}: its denominator is divisible by {self.p}")
            return Mod(x.numerator, self.p) / Mod(x.denominator, self.p)
        if isinstance(x, str):
            return self.of(Fraction(x))
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    def to_ints(self, row) -> list:
        """The residues of the row."""
        return [x.v for x in row]

    def normalize(self, ints) -> list:
        """Reduce an integer row mod p."""
        p = self.p
        return [v % p for v in ints]

    def from_ints(self, ints, pivot) -> list:
        """The row of residues times the inverse of its pivot entry."""
        p, zero = self.p, self.zero
        inv = pow(pivot, -1, p)
        return [Mod(v * inv, p) if v else zero for v in ints]

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


def field_for_modulus(p) -> object:
    return QQ if p is None else PrimeField(p)


# -- matrices ------------------------------------------------------------------

class Matrix:
    """Dense rectangular matrix over a fixed field."""

    __slots__ = ("rows", "ncols", "field")

    def __init__(self, rows, ncols=None, field=QQ):
        rows = [list(r) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.rows = [[field.of(x) for x in r] for r in rows]
        self.ncols = ncols
        self.field = field

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field})"


def _eliminate(row, pivot_row, c, normalize) -> list:
    """Clear column c of an integer row against pivot_row.

    With a = row[c], b = pivot_row[c] and g = gcd(b, a), the result is the
    normalized (b/g) row - (a/g) pivot_row.  Over GF(p) the factor b/g is a
    nonzero residue, so the update keeps the span there too.
    """
    a, b = row[c], pivot_row[c]
    g = gcd(b, a)
    x, y = b // g, a // g
    return normalize([x * u - y * v if v else x * u for u, v in zip(row, pivot_row)])


def rref_with_pivots(m: Matrix):
    # Gauss-Jordan on integer rows that the field keeps small after every
    # update: primitive over Q, so entries never outgrow the line they span,
    # and reduced mod p over GF(p).  The only field elements made are the
    # nonzero entries of the result.
    field = m.field
    normalize = field.normalize
    rows = [field.to_ints(row) for row in m.rows]
    nrows = len(rows)
    pivots = []
    for c in range(m.ncols):
        r = len(pivots)
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot_row = rows[r]
        for i in range(r + 1, nrows):
            if rows[i][c]:
                rows[i] = _eliminate(rows[i], pivot_row, c, normalize)
        pivots.append(c)
        if r + 1 == nrows:
            break
    del rows[len(pivots):]
    for i in reversed(range(len(rows))):
        pivot_row = rows[i]
        c = pivots[i]
        for k in range(i):
            if rows[k][c]:
                rows[k] = _eliminate(rows[k], pivot_row, c, normalize)
    out = Matrix([], ncols=m.ncols, field=field)
    out.rows = [field.from_ints(row, row[c]) for row, c in zip(rows, pivots)]
    return out, pivots


def rref(m: Matrix) -> Matrix:
    """Unique reduced row echelon form, zero rows dropped."""
    return rref_with_pivots(m)[0]


def rank(m: Matrix) -> int:
    return len(rref_with_pivots(m)[1])


def _rref_permuted(rows, order, field):
    """RREF of `rows` with column k taken from column order[k].

    Returns (reduced rows, pivots), both in the permuted coordinates.  The
    rows must already hold elements of `field`.
    """
    m = Matrix([], ncols=len(order), field=field)
    m.rows = [[row[c] for c in order] for row in rows]
    red, pivots = rref_with_pivots(m)
    return red.rows, pivots


def _annihilator(ncols: int, rows, pivots, field) -> Matrix:
    """The right kernel of a basis whose pivot columns are clean.

    Each row i has a 1 at pivots[i] and 0 at every other pivot.  For each
    non-pivot column c the kernel gets the row e_c - sum_i rows[i][c] e_{p_i};
    these rows are a basis of the kernel, in ascending c.
    """
    pivot_set = set(pivots)
    out = []
    for c in range(ncols):
        if c in pivot_set:
            continue
        v = [field.zero] * ncols
        v[c] = field.one
        for row, p in zip(rows, pivots):
            a = row[c]
            if a:
                v[p] = -a
        out.append(v)
    m = Matrix([], ncols=ncols, field=field)
    m.rows = out
    return m


def kernel(m: Matrix) -> Matrix:
    """RREF basis of the right kernel {v : m v = 0}, from one elimination.

    m is row-reduced with its columns reversed, so each pivot q is the last
    nonzero column of its row.  The kernel row of a non-pivot column c then
    involves only pivots q > c, so the rows of `_annihilator`, in ascending c,
    are already the reduced row echelon form.
    """
    n = m.ncols
    red, rev_pivots = _rref_permuted(m.rows, range(n - 1, -1, -1), m.field)
    return _annihilator(n, [row[::-1] for row in red], [n - 1 - p for p in rev_pivots],
                        m.field)


# -- subspaces ------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace given by its RREF row basis inside a fixed ambient piece."""

    ambient_dim: int
    basis: tuple
    piece: object = None
    field: object = QQ

    @classmethod
    def from_rows(cls, ambient_dim: int, rows, piece=None, field=QQ) -> "Subspace":
        m = Matrix(rows, ncols=ambient_dim, field=field)
        red = rref(m)
        return cls(ambient_dim, tuple(tuple(r) for r in red.rows), piece, field)

    @classmethod
    def zero(cls, ambient_dim: int, piece=None, field=QQ) -> "Subspace":
        return cls(ambient_dim, (), piece, field)

    @classmethod
    def full(cls, ambient_dim: int, piece=None, field=QQ) -> "Subspace":
        rows = tuple(
            tuple(field.one if i == j else field.zero for j in range(ambient_dim))
            for i in range(ambient_dim)
        )
        return cls(ambient_dim, rows, piece, field)

    @cached_property
    def pivots(self) -> tuple:
        """The pivot column of each basis row, ascending."""
        return tuple(next(c for c, x in enumerate(row) if x) for row in self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.dim

    @property
    def is_zero(self) -> bool:
        return not self.basis

    @property
    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _check_compatible(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient mismatch: dim {self.ambient_dim} vs {other.ambient_dim}"
            )
        if self.piece is not None and other.piece is not None and self.piece != other.piece:
            raise ValueError(f"graded piece mismatch: {self.piece} vs {other.piece}")

    def matrix(self) -> Matrix:
        m = Matrix([], ncols=self.ambient_dim, field=self.field)
        m.rows = [list(r) for r in self.basis]
        return m

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.from_rows(
            self.ambient_dim,
            list(self.basis) + list(other.basis),
            piece=self.piece or other.piece,
            field=self.field,
        )

    def constraints(self) -> Matrix:
        """Rows spanning the linear functionals that vanish on this subspace.

        Read off the RREF basis with no elimination: for each non-pivot column
        f, the row e_f - sum_i basis[i][f] e_{p_i}.  There are codim rows and
        they span the annihilator, but they are not in RREF.
        """
        return _annihilator(self.ambient_dim, self.basis, self.pivots, self.field)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        stacked = Matrix(
            list(self.constraints().rows) + list(other.constraints().rows),
            ncols=self.ambient_dim,
            field=self.field,
        )
        ker = kernel(stacked)
        return Subspace(
            self.ambient_dim,
            tuple(tuple(r) for r in ker.rows),
            self.piece or other.piece,
            self.field,
        )

    def reduce_vector(self, v) -> list:
        """Remainder of v after elimination against the RREF basis."""
        v = [self.field.of(x) for x in v]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        for row, c in zip(self.basis, self.pivots):
            f = v[c]
            if f:
                v = [a - f * b if b else a for a, b in zip(v, row)]
        return v

    def contains_vector(self, v) -> bool:
        return not any(self.reduce_vector(v))

    def contains(self, other) -> bool:
        if isinstance(other, Subspace):
            self._check_compatible(other)
            return all(self.contains_vector(r) for r in other.basis)
        return self.contains_vector(other)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        tag = f" @ {self.piece}" if self.piece is not None else ""
        return f"Subspace(dim {self.dim} of {self.ambient_dim}{tag})"

