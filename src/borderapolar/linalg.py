"""Exact linear algebra over Q, or over a large prime field for fast re-checks.

Vectors are rows, held sparsely as the (column, value) pairs of their nonzero
entries; dense rows are built only on demand, for dumps and tests.  Elimination
takes a column count and any iterable of such rows, refusing a column outside
that count, and returns a Subspace (`Subspace.from_rows`, `kernel`) or a number
(`rank`); these three are its only entry points.  Each eliminates the rows as
given, so a caller whose system is tall writes it on its short side (the
degree-one count in `bounds` does).  A Subspace stores the unique
reduced row echelon basis of its row span, each row in ascending column order
with its pivot first, so two subspaces over one field are equal as sets exactly
when their stored rows compare equal.  Both fields run one fraction-free
Gauss-Jordan pass, `rref_with_pivots`: it makes each row a dense integer row
only when it reads it (the field's `to_ints` writes it in one pass, with no
sparse integer row between), clears the row at every pivot it keeps, keeps a
nonzero remainder as a new pivot row and clears that column from the others,
and stops at full column rank, so at most rank dense rows are held at once.
The `Matrix` it reads is only the record of the rows, their width and their
field, and is made in this module alone.  The field supplies the rest: how a
row becomes integers (primitive integers over Q, residues over GF(p)), how a
row is kept small after each update (divided by its content over Q, reduced mod
p over GF(p)) and how an integer row divided by one of its entries becomes
field elements.  Elimination hands back the integer rows and their pivots, and
each consumer makes the field elements it keeps: `Subspace.from_rows` and
`kernel` one per nonzero entry of the reduced rows, with no second pass to
negate them, and `rank` none.  As elimination reads only integers, the rows may
hold plain ints in place of field elements, each standing for its image in the
field: producers that know a row only up to a scalar, such as an evaluation at
a point or a row pushed through an index map, pass integers and make no field
element at all.

A kernel costs one elimination and an annihilator none.  Both come from a basis
whose pivot columns are clean: the annihilator of such a basis has one row
e_c - sum_i row_i[c] e_{p_i} per non-pivot column c.  A Subspace applies this
to its stored RREF basis (`constraints`: the rows span the annihilator but are
not in RREF), so the subspace in another column order is the `kernel` of those
rows with their columns moved.  `kernel` applies it to the RREF of its rows
with the columns reversed, where each pivot is the last nonzero column of its
row, and there the rows come out already in RREF; it divides each integer row
by minus its pivot entry and appends each entry to the kernel row of its
column, so the annihilator is written straight from the integer rows, with no
copy of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm


# -- scalar fields -------------------------------------------------------------

class RationalField:
    """The exact rationals; elements are fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    @staticmethod
    def integer_row(row) -> list:
        """A sparse row (of Fractions or ints) times the lcm of its
        denominators: sparse integers on the same line."""
        den = lcm(*[x.denominator for _, x in row])
        return [(c, x.numerator * (den // x.denominator)) for c, x in row]

    def to_ints(self, row, ncols: int) -> list:
        """A sparse row as a dense row of primitive integers, written in one
        pass once the lcm of its denominators is known."""
        den = lcm(*[x.denominator for _, x in row])
        ints = [0] * ncols
        if den == 1:
            for c, x in row:
                ints[c] = x.numerator
        else:
            for c, x in row:
                ints[c] = x.numerator * (den // x.denominator)
        return self.normalize(ints)

    @staticmethod
    def normalize(ints) -> list:
        """Divide an integer row by its content."""
        g = gcd(*ints)
        return [v // g for v in ints] if g > 1 else ints

    def from_ints(self, ints, pivot) -> tuple:
        """The integer row divided by `pivot`, as a sparse row."""
        return tuple([(c, Fraction(v, pivot)) for c, v in enumerate(ints) if v])

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
        if isinstance(other, Mod):  # elements of two prime fields differ; arithmetic raises
            return self.v == other.v and self.p == other.p
        w = self._lift(other)
        return NotImplemented if w is NotImplemented else self.v == w

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v} (mod {self.p})"


class PrimeField:
    """Z/p for a configured prime p > 2^20 (verdicts over Z/p are probabilistic)."""

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

    def integer_row(self, row) -> list:
        """A sparse row (of Mods or ints) as sparse residues."""
        p = self.p
        return [(c, x.v if isinstance(x, Mod) else x % p) for c, x in row]

    def to_ints(self, row, ncols: int) -> list:
        """A sparse row as a dense row of residues, written in one pass."""
        p = self.p
        ints = [0] * ncols
        for c, x in row:
            ints[c] = x.v if isinstance(x, Mod) else x % p
        return ints

    def normalize(self, ints) -> list:
        """Reduce an integer row mod p."""
        p = self.p
        return [v % p for v in ints]

    def from_ints(self, ints, pivot) -> tuple:
        """The row of residues times the inverse of `pivot`, as a sparse row."""
        p = self.p
        inv = pow(pivot, -1, p)
        return tuple([(c, Mod(v * inv, p)) for c, v in enumerate(ints) if v])

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


def field_for_modulus(p) -> object:
    return QQ if p is None else PrimeField(p)


# -- matrices ------------------------------------------------------------------

def _dense(row, ncols: int, zero) -> list:
    """A sparse row as a dense list."""
    out = [zero] * ncols
    for c, x in row:
        out[c] = x
    return out


class Matrix:
    """What `rref_with_pivots` reads: `ncols` columns and the `sparse` rows.

    Each row is a sequence of (column, value) pairs with distinct columns.  A
    value is a field element or a plain int, which stands for its image in the
    field; elimination reads both.  `rows` gives the dense rows.
    """

    __slots__ = ("ncols", "sparse", "field")

    def __init__(self, ncols: int, sparse, field=QQ):
        self.ncols, self.sparse, self.field = ncols, sparse, field

    @property
    def rows(self) -> list:
        return [_dense(row, self.ncols, self.field.zero) for row in self.sparse]

    @property
    def nrows(self) -> int:
        return len(self.sparse)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field})"


def _in_range(ncols: int, rows) -> list:
    """The sparse `rows` as a list, refused if an entry's column lies outside
    range(ncols): past the end, or negative, which indexing would wrap."""
    rows = list(rows)
    for row in rows:
        for c, _ in row:
            if not 0 <= c < ncols:
                raise ValueError(f"column {c} outside an ambient of dimension {ncols}")
    return rows


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
    """The reduced rows of m as integers, and their pivot columns.

    Row i is a dense integer row (primitive over Q, residues over GF(p)) that
    is zero in every pivot column but pivots[i]; divided by its entry there it
    is row i of the RREF.  The rows of m are read once, in order, and none
    past full column rank.  No field element is made: each caller makes the
    ones it keeps.
    """
    # The field keeps each row small after every update: primitive over Q,
    # so entries never outgrow the line they span, and reduced mod p over
    # GF(p).  `kept` maps each pivot to its row, zero at every other pivot.
    field, ncols = m.field, m.ncols
    to_ints, normalize = field.to_ints, field.normalize
    kept = {}
    for row in m.sparse:
        ints = to_ints(row, ncols)
        for c, pivot_row in kept.items():
            if ints[c]:
                ints = _eliminate(ints, pivot_row, c, normalize)
        for c, v in enumerate(ints):
            if v:
                break
        else:
            continue  # zero: the row is in the span of the kept ones
        for p, other in kept.items():
            if other[c]:
                kept[p] = _eliminate(other, ints, c, normalize)
        kept[c] = ints
        if len(kept) == ncols:
            break  # full column rank: every later row is in the span
    pivots = sorted(kept)
    return [kept[c] for c in pivots], pivots


def rank(ncols: int, rows, field=QQ) -> int:
    """Rank of the sparse `rows`, from one elimination of the rows as given.
    No field element is made."""
    return len(rref_with_pivots(Matrix(ncols, _in_range(ncols, rows), field))[1])


def kernel(ncols: int, rows, piece=None, field=QQ) -> "Subspace":
    """The right kernel {v : row . v = 0 for every row} of the sparse `rows`,
    from one elimination.

    The rows are reduced with their columns reversed, so that, turned back,
    each reduced row ends at its pivot q.  The kernel row of a non-pivot
    column c then starts at c and has its other entries at pivots q > c, so
    with the reduced rows taken in ascending q the kernel rows, in ascending
    c, are already the reduced row echelon form.  Each integer row is divided
    by minus its pivot entry, so every kernel entry is made once, and goes
    straight to the end of the kernel row of its column.
    """
    last = ncols - 1
    rev = Matrix(ncols, [[(last - c, x) for c, x in row] for row in _in_range(ncols, rows)],
                 field)
    ints, pivots = rref_with_pivots(rev)
    one = field.one
    ann = [[(c, one)] for c in range(ncols)]
    for row, p in zip(reversed(ints), reversed(pivots)):
        q, pivot = last - p, -row[p]
        row[p] = 0  # the row is ours: its other nonzeros are the kernel entries
        for c, a in field.from_ints(row, pivot):
            ann[last - c].append((q, a))
        ann[q] = None
    return Subspace(ncols, tuple([tuple(a) for a in ann if a is not None]), piece, field)


# -- subspaces ------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A linear subspace given by its RREF row basis inside a fixed ambient piece.

    `sparse` holds each basis row as the (column, value) pairs of its nonzero
    entries in ascending column order, so the pivot comes first; `basis`
    builds the dense rows.
    """

    ambient_dim: int
    sparse: tuple
    piece: object = dataclass_field(default=None, compare=False)
    field: object = QQ

    @classmethod
    def from_rows(cls, ambient_dim: int, rows, piece=None, field=QQ) -> "Subspace":
        """The span of the sparse `rows` over `field`, from one elimination."""
        ints, pivots = rref_with_pivots(Matrix(ambient_dim, _in_range(ambient_dim, rows), field))
        rows = tuple([field.from_ints(row, row[c]) for row, c in zip(ints, pivots)])
        return cls(ambient_dim, rows, piece, field)

    @classmethod
    def zero(cls, ambient_dim: int, piece=None, field=QQ) -> "Subspace":
        return cls(ambient_dim, (), piece, field)

    @classmethod
    def full(cls, ambient_dim: int, piece=None, field=QQ) -> "Subspace":
        return cls(ambient_dim, tuple(((i, field.one),) for i in range(ambient_dim)),
                   piece, field)

    @property
    def basis(self) -> tuple:
        """The basis rows as dense tuples."""
        zero = self.field.zero
        return tuple(tuple(_dense(row, self.ambient_dim, zero)) for row in self.sparse)

    @property
    def dim(self) -> int:
        return len(self.sparse)

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.dim

    @property
    def is_zero(self) -> bool:
        return not self.sparse

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
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field!r} vs {other.field!r}")

    def matrix(self) -> Matrix:
        """The basis rows as the record elimination reads."""
        return Matrix(self.ambient_dim, self.sparse, self.field)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.from_rows(self.ambient_dim, self.sparse + other.sparse,
                                  self.piece or other.piece, self.field)

    def constraints(self) -> tuple:
        """Rows spanning the linear functionals that vanish on this subspace.

        Read off the RREF basis with no elimination: for each non-pivot column
        f, the row e_f - sum_i basis[i][f] e_{p_i}, led by its entry at f.
        There are codim rows and they span the annihilator, but they are not
        in RREF.
        """
        ann = [[] for _ in range(self.ambient_dim)]
        for row in self.sparse:
            p = row[0][0]
            ann[p] = None  # no other basis row has an entry at its pivot
            for c, a in row[1:]:
                ann[c].append((p, -a))
        one = self.field.one
        return tuple([((c, one),) + tuple(a) for c, a in enumerate(ann) if a is not None])

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return kernel(self.ambient_dim, self.constraints() + other.constraints(),
                      self.piece or other.piece, self.field)

    @cached_property
    def _row_at(self) -> dict:
        return {row[0][0]: row for row in self.sparse}

    def _remainder(self, row) -> dict:
        """{column: value} of a sparse vector's remainder against the basis.

        Subtracting a basis row leaves every other pivot entry as it is, so
        each pivot column in the vector's support is cleared once.
        """
        v = dict(row)
        row_at, zero = self._row_at, self.field.zero
        for p in [p for p in v if p in row_at]:
            f = v[p]
            for c, b in row_at[p]:
                v[c] = v.get(c, zero) - f * b
        return {c: x for c, x in v.items() if x}

    def reduce_vector(self, v) -> list:
        """Remainder of v after elimination against the RREF basis."""
        v = [self.field.of(x) for x in v]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        rem = self._remainder((c, x) for c, x in enumerate(v) if x)
        return _dense(rem.items(), self.ambient_dim, self.field.zero)

    def contains_vector(self, v) -> bool:
        return not any(self.reduce_vector(v))

    def contains(self, other) -> bool:
        if isinstance(other, Subspace):
            self._check_compatible(other)
            return not any(self._remainder(row) for row in other.sparse)
        return self.contains_vector(other)

    def __repr__(self):
        tag = f" @ {self.piece}" if self.piece is not None else ""
        return f"Subspace(dim {self.dim} of {self.ambient_dim}{tag})"
