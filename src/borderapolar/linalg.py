"""Exact linear algebra over Q, or over a large prime field for fast re-checks.

Vectors are rows, held sparsely as the (column, value) pairs of their nonzero
entries; dense rows are built only on demand, for dumps and tests.  Elimination
takes a column count and any iterable of such rows, refusing a column that is
not an int inside that count or that a row names twice (or an `IntRows` of
dense integer rows, or a `RowSource` whose rows are made as they are read,
both read as they are), and returns a Subspace
(`Subspace.from_rows`, `kernel`) or a number (`rank`); these three are its
only entry points.  Each eliminates the rows as given, so a caller whose
system is tall writes it on its short side (the degree-one count in `bounds`
does).  Both fields run one fraction-free Gauss-Jordan pass,
`rref_with_pivots`: it makes each row a dense integer row only when it reads
it (the field's `to_ints` writes it in one pass, with no sparse integer row
between), clears the row at every pivot it keeps, keeps a nonzero remainder as
a new pivot row and clears that column from the others, and stops at full
column rank, so at most rank dense rows are held at once.  `rank` runs it
forward only: it counts the pivots, and no kept row is reduced against a
later one (no back-substitution).  The `Matrix` it reads is only the record
of the rows, their width, their field and that mode, and is made in this
module alone.  The field supplies the rest: how a row becomes
integers (primitive integers over Q, residues over GF(p)), how a row is kept
small (`normalize`: divided by its content over Q, reduced mod p over GF(p))
and how a reduced row is stored.  A kept row is always normalized; a row
being reduced is normalized once the factors it was multiplied by since it
last was add up to more than the field's `slack` bits: 64 over Q, so a
row's content is divided out then or when it is kept, and 0 over GF(p),
where every update is reduced because the zero test reads residues.

A Subspace holds the unique reduced row echelon form of its row span
(`sparse`) or of its annihilator (`perp`) as integers: each RREF row as its
primitive integer multiple with a positive pivot entry over Q, and as
residues with pivot entry 1 over GF(p), in ascending column order with its
pivot first.  Each side is the `kernel` of the other, and the side a
subspace was not made with is made the first time it is read.  The form is
unique, so two subspaces over one field are equal as sets exactly when the
rows of a side both hold compare equal; where one holds only its basis and
the other only its annihilator, the dimensions are compared and the rows
paired.  A piece cut out by functionals, such as a point ideal's, is held
by their RREF (`cut_out`): r rows in place of dim - r.  As elimination reads
only integers, rows may hold plain ints in place of field elements, each
standing for its image in the field, so the stored rows go back into
elimination as they are, and producers that know a row only up to a scalar,
such as an evaluation at a point or a row pushed through an index map, pass
integers too.  Field elements are made only where a row is read out:
`basis`, `matrix` and `reduce_vector` divide each stored row by its pivot
entry (`elements`), and a digest writes the text of those elements without
making them (`reprs`).  Containment, of a subspace or of a vector, is
decided by cross-multiplication or by pairing rows, with no elimination.

A kernel costs one elimination and an annihilator none.  Both come from a basis
whose pivot columns are clean: the annihilator of such a basis has one row
e_c - sum_i (row_i[c] / row_i[p_i]) e_{p_i} per non-pivot column c, written
as integers once scaled by the lcm of the pivot entries it touches
(`annihilator_row`).  A Subspace held by its basis applies this to it
(`constraints`: the rows span the annihilator but are not in RREF; one held
by its annihilator hands out its `perp` rows), so the subspace in another
column order is the `kernel` of those rows with their columns moved, made
once per order (`_rows_in`).  `kernel` applies it to the reduced rows of its
rows with each pivot taken at the last nonzero column of its row, and there
the rows come out already in RREF and in the stored form, written straight
from the dense integer rows, with no copy of them.
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
    minus_one = -1  # the stored integer of -1
    slack = 64  # bits a row may grow by in elimination before it is normalized

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def to_ints(self, row, ncols: int) -> list:
        """A sparse row as a dense row of primitive integers: a row of ints,
        such as a stored row, is written as it is read, and any other row in
        one pass once the lcm of its denominators is known."""
        ints = [0] * ncols
        for c, x in row:
            if type(x) is not int:
                break
            ints[c] = x
        else:
            return self.normalize(ints)
        den = lcm(*[x.denominator for _, x in row])
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

    @staticmethod
    def stored(ints, c) -> tuple:
        """A primitive dense integer row, nonzero at c, as a stored sparse
        row: its entry at c made positive."""
        if ints[c] < 0:
            return tuple([(j, -v) for j, v in enumerate(ints) if v])
        return tuple([(j, v) for j, v in enumerate(ints) if v])

    @staticmethod
    def annihilator_scales(pivot_entries) -> tuple:
        """(den, factors) for rows with the nonzero `pivot_entries` b: den
        the lcm of the |b|, and -den / b for each, so that an entry a of the
        row with pivot q puts a * (-den / b) at q in the annihilator row
        den e_c + ... of its column c."""
        den = lcm(*pivot_entries)
        return den, [-(den // b) for b in pivot_entries]

    @staticmethod
    def annihilator_row(c, den, entries) -> tuple:
        """den e_c + sum v e_q over the (q, v) of `entries`, den > 0, as a
        primitive integer row led by its entry at c."""
        if den == 1:
            return ((c, 1),) + tuple(entries)
        g = gcd(den, *[v for _, v in entries])
        if g == 1:
            return ((c, den),) + tuple(entries)
        return ((c, den // g),) + tuple([(q, v // g) for q, v in entries])

    @staticmethod
    def elements(row) -> list:
        """A stored row divided by its pivot entry, as (column, Fraction) pairs."""
        b = row[0][1]
        return [(c, Fraction(v, b)) for c, v in row]

    @staticmethod
    def reprs(row) -> list:
        """The repr of each of `elements(row)`, written without making it."""
        b = row[0][1]
        return [f"Fraction({v // (g := gcd(v, b))}, {b // g})" for _, v in row]

    def __repr__(self):
        return "QQ"

    def __reduce__(self):
        return "QQ"  # unpickled as the one instance, which equality and hashes read


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
        self.minus_one = p - 1
        self.slack = 0  # every update is reduced: the zero test reads residues

    def of(self, x):
        if isinstance(x, Mod):
            if x.p != self.p:
                raise ValueError("mixed moduli")
            return x
        if isinstance(x, int):
            return Mod(x, self.p)
        if isinstance(x, Fraction):
            return Mod(self._residue(x), self.p)
        if isinstance(x, str):
            return self.of(Fraction(x))
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    def _residue(self, x: Fraction) -> int:
        """The residue of a rational, refused when its denominator is 0 mod p."""
        p = self.p
        if not x.denominator % p:
            raise ValueError(f"{x} has no value mod {p}: its denominator is divisible by {p}")
        return x.numerator * pow(x.denominator, -1, p) % p

    def to_ints(self, row, ncols: int) -> list:
        """A sparse row as a dense row of residues, written in one pass; a
        `Fraction` entry is reduced as `of` reduces it."""
        p = self.p
        ints = [0] * ncols
        for c, x in row:
            if isinstance(x, Mod):
                ints[c] = x.v
            elif isinstance(x, Fraction):
                ints[c] = self._residue(x)
            else:
                ints[c] = x % p
        return ints

    def normalize(self, ints) -> list:
        """Reduce an integer row mod p."""
        p = self.p
        return [v % p for v in ints]

    def stored(self, ints, c) -> tuple:
        """A dense row of residues, nonzero at c, as a stored sparse row: its
        entry at c made 1."""
        p = self.p
        inv = pow(ints[c], -1, p)
        return tuple([(j, v * inv % p) for j, v in enumerate(ints) if v])

    def annihilator_scales(self, pivot_entries) -> tuple:
        """(1, factors): -1 / b for each of the nonzero `pivot_entries` b, as
        `RationalField.annihilator_scales` with the pivot entries made 1."""
        p = self.p
        return 1, [-pow(b, -1, p) for b in pivot_entries]

    def annihilator_row(self, c, den, entries) -> tuple:
        """e_c + sum v e_q over the (q, v) of `entries`, as residues; den is 1
        (`annihilator_scales`)."""
        p = self.p
        return ((c, 1),) + tuple([(q, v % p) for q, v in entries])

    def elements(self, row) -> list:
        """A stored row, whose pivot entry is 1, as (column, Mod) pairs."""
        p = self.p
        return [(c, Mod(v, p)) for c, v in row]

    def reprs(self, row) -> list:
        """The repr of each of `elements(row)`, written without making it."""
        return [f"{v} (mod {self.p})" for _, v in row]

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


class IntRows(list):
    """Dense integer rows of the full width, each already through the field's
    `normalize`, that elimination reads with no check and no conversion."""

    __slots__ = ()


class RowSource:
    """`count` sparse rows made as elimination reads them: each read calls
    `make()` for a fresh iterator over them, so a recorder may read them
    too.  Each row is a list of (column, value) pairs with distinct columns
    in range, which elimination reads with no check; elimination stops at
    full column rank, and no row past it is made."""

    __slots__ = ("count", "make")

    def __init__(self, count: int, make):
        self.count, self.make = count, make

    def __len__(self):
        return self.count

    def __iter__(self):
        return self.make()


class Matrix:
    """What `rref_with_pivots` reads: `ncols` columns and the rows `given`.

    Each row is a sequence of (column, value) pairs with distinct columns.  A
    value is a field element or a plain int, which stands for its image in the
    field; elimination reads both, and an `IntRows` as it is (`sparse` gives
    it as pairs).  `rows` gives the dense rows.  `forward` asks for the
    pivots alone: no kept row is back-substituted (`rank`).  `last` takes
    each row's pivot at its last nonzero column, not its first, which is the
    reduction of the rows with their columns reversed (`kernel`).
    """

    __slots__ = ("ncols", "given", "field", "forward", "last")

    def __init__(self, ncols: int, sparse, field=QQ, forward=False, last=False):
        self.ncols, self.given, self.field = ncols, sparse, field
        self.forward, self.last = forward, last

    @property
    def sparse(self):
        if type(self.given) is IntRows:
            return [[(c, x) for c, x in enumerate(row) if x] for row in self.given]
        return self.given

    @property
    def rows(self) -> list:
        return [_dense(row, self.ncols, self.field.zero) for row in self.sparse]

    @property
    def nrows(self) -> int:
        return len(self.given)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field})"


def _in_range(ncols: int, rows) -> list:
    """The sparse `rows` as a list, refused if an entry's column is not an int
    in range(ncols) (past the end, negative, which indexing would wrap, or a
    float, which no list takes as an index) or if a row names a column twice,
    where the last entry would silently win.

    One pass marks each column with the last row that has it: a column past
    the end or a float fails to index the marks, and a negative one is tested.
    A row that is neither a list nor a tuple, such as a one-shot iterator, is
    made a list first, so that elimination reads the entries this pass read.
    An `IntRows` or a `RowSource` is returned as it is.
    """
    if type(rows) is IntRows or type(rows) is RowSource:
        return rows
    rows = list(rows)
    seen = [-1] * ncols
    try:
        for i, row in enumerate(rows):
            if not isinstance(row, (list, tuple)):
                row = rows[i] = list(row)
            for c, _ in row:
                if c < 0 or seen[c] == i:
                    raise IndexError
                seen[c] = i
    except (IndexError, TypeError):
        _refuse(ncols, rows[i])
    return rows


def _refuse(ncols: int, row):
    """Raise the ValueError that names the first column of `row` that
    `_in_range` refuses."""
    seen = set()
    for c, _ in row:
        if type(c) is not int:
            raise ValueError(f"column {c!r} is not an integer")
        if not 0 <= c < ncols:
            raise ValueError(f"column {c} outside an ambient of dimension {ncols}")
        if c in seen:
            raise ValueError(f"column {c} appears twice in one row")
        seen.add(c)


def _eliminate(row, pivot_row, c) -> tuple:
    """Clear column c of an integer row against pivot_row.

    With a = row[c], b = pivot_row[c] and g = gcd(b, a), the result is the
    row (b/g) row - (a/g) pivot_row, not normalized, and the factor b/g.
    Over GF(p) b/g is a nonzero residue, so the update keeps the span there
    too.
    """
    a, b = row[c], pivot_row[c]
    g = gcd(b, a)
    x, y = b // g, a // g
    return [x * u - y * v if v else x * u for u, v in zip(row, pivot_row)], x


def rref_with_pivots(m: Matrix):
    """The reduced rows of m as integers, and their pivot columns.

    Row i is a dense integer row (primitive over Q, residues over GF(p)) that
    is zero in every pivot column but pivots[i]; divided by its entry there it
    is row i of the RREF.  The rows of m are read once, in order, and none
    past full column rank.  No field element is made.

    With `m.last` each row's pivot is its last nonzero column once reduced,
    as if the columns were reversed.  With `m.forward` the pivots are the
    same and the rows only echelon: no kept row is reduced against a later
    one.  A row is reduced against the kept rows in the order they were
    kept, and each kept row is zero at every pivot kept before it, so a step
    never refills a pivot column already cleared.
    """
    # A kept row is normalized; a row being reduced is normalized once its
    # factors since it last was pass `field.slack` bits: 64 over Q, 0 over
    # GF(p), where every update is reduced.  `kept` maps each pivot to its
    # row, zero at every pivot kept before it (and, unless forward, at every
    # other pivot).
    field, ncols, given = m.field, m.ncols, m.given
    to_ints, normalize, slack = field.to_ints, field.normalize, field.slack
    scan = range(ncols - 1, -1, -1) if m.last else range(ncols)
    kept = {}
    reading = given if type(given) is IntRows else (to_ints(row, ncols) for row in given)
    for ints in reading:
        grown = 0  # bits of the factors since the row was last normalized
        for c, pivot_row in kept.items():
            if ints[c]:
                ints, x = _eliminate(ints, pivot_row, c)
                grown += x.bit_length()
                if grown > slack:
                    ints, grown = normalize(ints), 0
        for c in scan:
            if ints[c]:
                break
        else:
            continue  # zero: the row is in the span of the kept ones
        if grown:
            ints = normalize(ints)
        if not m.forward:
            for p, other in kept.items():
                if other[c]:
                    kept[p] = normalize(_eliminate(other, ints, c)[0])
        kept[c] = ints
        if len(kept) == ncols:
            break  # full column rank: every later row is in the span
    pivots = sorted(kept)
    return [kept[c] for c in pivots], pivots


def rank(ncols: int, rows, field=QQ) -> int:
    """Rank of the sparse `rows`, from one forward elimination of the rows as
    given: the pivots are counted and no row is back-substituted."""
    return len(rref_with_pivots(Matrix(ncols, _in_range(ncols, rows), field, True))[1])


def kernel(ncols: int, rows, piece=None, field=QQ) -> "Subspace":
    """The right kernel {v : row . v = 0 for every row} of the sparse `rows`,
    from one elimination.

    Each row's pivot is taken at its last nonzero column (`Matrix.last`), so
    each reduced row ends at its pivot q.  The kernel row of a non-pivot
    column c then starts at c and has its other entries at pivots q > c, so
    with the reduced rows taken in ascending q the kernel rows, in ascending
    c, are already the reduced row echelon form.  Each entry of a reduced
    row, scaled by its row's factor (`field.annihilator_scales`: to the
    common denominator den, the lcm of the pivot entries, over Q), goes
    straight from the dense integer row to the end of the kernel row of its
    column; `field.annihilator_row` writes each kernel row as integers.
    """
    ints, pivots = rref_with_pivots(Matrix(ncols, _in_range(ncols, rows), field, last=True))
    den, factors = field.annihilator_scales([row[q] for row, q in zip(ints, pivots)])
    ann = [[] for _ in range(ncols)]
    for row, q, f in zip(ints, pivots, factors):
        for c, a in zip(range(q), row):
            if a:
                ann[c].append((q, a * f))
        ann[q] = None
    make = field.annihilator_row
    return Subspace(ncols, tuple([make(c, den, a) for c, a in enumerate(ann) if a is not None]),
                    piece, field)


def _leads_first(rows, at) -> bool:
    """Whether each row's leading column comes first in the order of `at`."""
    for row in rows:
        lead = at[row[0][0]]
        for m, _ in row:
            if at[m] < lead:
                return False
    return True


# -- subspaces ------------------------------------------------------------------

def _in_span(row, row_at, field) -> bool:
    """Whether a sparse integer row (residues over GF(p)) lies in the span of
    stored RREF rows, given by pivot in `row_at`.

    With den the lcm of the pivot entries of the rows whose pivots the row
    meets, den * row minus (den * row[p] / b) times the stored row with pivot
    p and pivot entry b, for each such p, is den times the remainder:
    subtracting a stored row leaves every other pivot entry as it is, so each
    pivot column is cleared once, in integers.
    """
    v = dict(row)
    hits = [row_at[c] for c in v if c in row_at]
    den = lcm(*[r[0][1] for r in hits])
    if den != 1:
        v = {c: x * den for c, x in v.items()}
    for r in hits:
        p, b = r[0]
        f = v.pop(p) // b
        for c, x in r[1:]:
            v[c] = v.get(c, 0) - f * x
    return not any(field.normalize(list(v.values())))


def _annihilates(perp, rows, ncols: int, field) -> bool:
    """Whether every sparse row of `perp` pairs to zero with every one of
    `rows`, on `ncols` columns; one `perp` row is written densely at a time."""
    dense = [0] * ncols
    for ell in perp:
        for c, x in ell:
            dense[c] = x
        if any(field.normalize([sum([x * dense[c] for c, x in row]) for row in rows])):
            return False
        for c, _ in ell:
            dense[c] = 0
    return True


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Subspace:
    """A linear subspace of a fixed ambient piece, held by the canonical RREF
    of its row span (`sparse`) or of its annihilator (`perp`).

    Each side holds its rows as the (column, integer) pairs of their nonzero
    entries in ascending column order, so the pivot comes first: the RREF row
    times its pivot entry, primitive with a positive pivot entry over Q,
    residues with pivot entry 1 over GF(p).  A subspace is made holding one
    side, and the other is made the first time it is read: each is the
    `kernel` of the other.  A subspace held by its annihilator may instead be
    given a function that writes its basis (a pullback writes it from its
    source's basis), called on that first read.  `basis` builds the dense rows
    of field elements.  The fields are written into the instance dict, as the
    frozen class's own `__init__` would with four `object.__setattr__`.
    """

    ambient_dim: int
    piece: object = None
    field: object = QQ

    def __init__(self, ambient_dim: int, sparse: tuple, piece=None, field=QQ):
        attrs = self.__dict__
        attrs["ambient_dim"], attrs["sparse"] = ambient_dim, sparse
        attrs["piece"], attrs["field"] = piece, field

    @classmethod
    def by_perp(cls, ambient_dim: int, perp: tuple, piece=None, field=QQ,
                make_basis=None) -> "Subspace":
        """The subspace whose annihilator has the stored RREF rows `perp`; its
        basis is made on first read, by `make_basis()` when given."""
        sub = object.__new__(cls)
        attrs = sub.__dict__
        attrs["ambient_dim"], attrs["perp"] = ambient_dim, perp
        attrs["piece"], attrs["field"] = piece, field
        if make_basis is not None:
            attrs["_make_basis"] = make_basis
        return sub

    @classmethod
    def from_rows(cls, ambient_dim: int, rows, piece=None, field=QQ) -> "Subspace":
        """The span of the sparse `rows` over `field`, from one elimination."""
        ints, pivots = rref_with_pivots(Matrix(ambient_dim, _in_range(ambient_dim, rows), field))
        stored = field.stored
        return cls(ambient_dim, tuple([stored(row, c) for row, c in zip(ints, pivots)]),
                   piece, field)

    @classmethod
    def cut_out(cls, ambient_dim: int, rows, piece=None, field=QQ) -> "Subspace":
        """The subspace the sparse functionals `rows` cut out, held by the RREF
        of their span from one elimination; its basis is made on first read."""
        return cls.by_perp(ambient_dim, cls.from_rows(ambient_dim, rows, field=field).sparse,
                           piece, field)

    @classmethod
    def zero(cls, ambient_dim: int, piece=None, field=QQ) -> "Subspace":
        return cls(ambient_dim, (), piece, field)

    @classmethod
    def full(cls, ambient_dim: int, piece=None, field=QQ) -> "Subspace":
        return cls(ambient_dim, tuple(((i, 1),) for i in range(ambient_dim)), piece, field)

    @cached_property
    def sparse(self) -> tuple:
        """The stored RREF basis rows; on a subspace held by its annihilator,
        made on first read."""
        make = self.__dict__.pop("_make_basis", None)
        if make is not None:
            return make()
        return kernel(self.ambient_dim, self.perp, field=self.field).sparse

    @cached_property
    def perp(self) -> tuple:
        """The stored RREF rows of the annihilator; on a subspace held by its
        basis, made on first read."""
        return kernel(self.ambient_dim, self.sparse, field=self.field).sparse

    @property
    def held_by_perp(self) -> bool:
        """Whether the annihilator's rows are held (the basis may be too)."""
        return "perp" in self.__dict__

    def tagged(self, piece) -> "Subspace":
        """This subspace tagged as `piece`, itself when it is tagged so: a copy
        holds the sides this one holds, and shares a basis made later."""
        if self.piece == piece:
            return self
        sub = object.__new__(Subspace)
        attrs = sub.__dict__
        attrs.update(self.__dict__)
        attrs["piece"] = piece
        if "sparse" not in attrs:
            attrs["_make_basis"] = lambda: self.sparse
        return sub

    def __getstate__(self):
        """The instance dict without a function that would make the basis: the
        kernel of `perp` makes the same rows."""
        return {k: v for k, v in self.__dict__.items() if k != "_make_basis"}

    @property
    def basis(self) -> tuple:
        """The RREF rows as dense tuples of field elements."""
        n, zero, elements = self.ambient_dim, self.field.zero, self.field.elements
        return tuple(tuple(_dense(elements(row), n, zero)) for row in self.sparse)

    @property
    def dim(self) -> int:
        attrs = self.__dict__
        if "sparse" in attrs:
            return len(attrs["sparse"])
        return self.ambient_dim - len(attrs["perp"])

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.dim

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    @property
    def is_full(self) -> bool:
        return self.codim == 0

    def __eq__(self, other):
        """Equal as sets, the tag aside: the rows of a side both hold compare
        equal, or, where one holds only its basis and the other only its
        annihilator, the dimensions agree and the one annihilates the other."""
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            return False
        mine, theirs = self.__dict__, other.__dict__
        for side in ("sparse", "perp"):
            if side in mine and side in theirs:
                return mine[side] == theirs[side]
        if self.dim != other.dim:
            return False
        held, spanned = (self, other) if "perp" in mine else (other, self)
        return _annihilates(held.perp, spanned.sparse, self.ambient_dim, self.field)

    def __hash__(self):
        return hash((self.ambient_dim, self.dim, self.field))

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
        """The RREF rows, as field elements, in the record elimination reads."""
        return Matrix(self.ambient_dim, [self.field.elements(row) for row in self.sparse],
                      self.field)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.from_rows(self.ambient_dim, self.sparse + other.sparse,
                                  self.piece or other.piece, self.field)

    def constraints(self) -> tuple:
        """Integer rows spanning the linear functionals that vanish on this
        subspace, codim of them.

        On a subspace held by its annihilator these are the stored `perp`
        rows, in RREF.  Otherwise they are read off the stored basis with no
        elimination: for each non-pivot column f, the row
        e_f - sum_i (row_i[f] / row_i[p_i]) e_{p_i} as its primitive integer
        multiple, led by its entry at f; they are not in RREF.
        """
        if "perp" in self.__dict__:
            return self.perp
        den, factors = self.field.annihilator_scales([row[0][1] for row in self.sparse])
        ann = [[] for _ in range(self.ambient_dim)]
        for row, f in zip(self.sparse, factors):
            p = row[0][0]
            ann[p] = None  # no other basis row has an entry at its pivot
            for c, a in row[1:]:
                ann[c].append((p, a * f))
        make = self.field.annihilator_row
        return tuple([make(c, den, a) for c, a in enumerate(ann) if a is not None])

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return kernel(self.ambient_dim, self.constraints() + other.constraints(),
                      self.piece or other.piece, self.field)

    @cached_property
    def _row_at(self) -> dict:
        return {row[0][0]: row for row in self.sparse}

    @cached_property
    def _orders(self) -> dict:
        """`_rows_in`'s rows by order; the identity order holds the stored rows."""
        return {tuple(range(self.ambient_dim)): self.sparse}

    def _rows_in(self, at: tuple) -> tuple:
        """The RREF rows with column m at position at[m], as (m, x) pairs in
        ascending position, made once per order.

        Rows made in one order serve another that puts each row's leading
        column first, re-sorted: the pivots and pivot entries stay.  Any other
        order is one `kernel` of `constraints` moved into it, as dense integer
        rows (primitive, so normalized), with few updates to make: each of
        those rows has a column of its own.
        """
        orders = self._orders
        rows = orders.get(at)
        if rows is not None:
            return rows
        for known in orders.values():
            if _leads_first(known, at):
                rows = sorted([sorted([(at[m], m, x) for m, x in row]) for row in known])
                rows = tuple([tuple([(m, x) for _, m, x in row]) for row in rows])
                break
        else:
            moved = IntRows([[0] * len(at) for _ in range(self.codim)])
            for dense, row in zip(moved, self.constraints()):
                for m, x in row:
                    dense[at[m]] = x
            order = sorted(range(len(at)), key=at.__getitem__)
            rows = tuple([tuple([(order[p], x) for p, x in row])
                          for row in kernel(len(at), moved, field=self.field).sparse])
        orders[at] = rows
        return rows

    def _contains_row(self, row) -> bool:
        """Whether a sparse integer row (residues over GF(p)) lies in the span."""
        return _in_span(row, self._row_at, self.field)

    def reduce_vector(self, v) -> list:
        """Remainder of v after elimination against the RREF basis, as field
        elements."""
        field = self.field
        v = [field.of(x) for x in v]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        for row in self.sparse:
            f = v[row[0][0]]
            if f:
                for c, x in field.elements(row):
                    v[c] -= f * x
        return v

    def contains_vector(self, v) -> bool:
        """Whether v lies in this subspace: each of its `constraints` pairs to
        zero with v, so one held by its annihilator makes no basis."""
        field = self.field
        v = [field.of(x) for x in v]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        return not any([sum([x * v[c] for c, x in row], field.zero) for row in self.constraints()])

    def contains(self, other) -> bool:
        """Whether `other`, a Subspace or a vector, lies in this subspace.

        Of equal dimensions, A contains B exactly when A == B.  Otherwise,
        against a subspace held by its annihilator, A contains B exactly when
        A^perp lies in B^perp: each of A's `constraints` is reduced by B's
        `perp` rows.  Otherwise each of B's basis rows is reduced by A's, or
        paired with A's `perp` rows when A holds only those.  None eliminates.
        """
        if not isinstance(other, Subspace):
            return self.contains_vector(other)
        self._check_compatible(other)
        if other.dim >= self.dim:
            return other.dim == self.dim and self == other
        if "perp" in other.__dict__:
            at = {row[0][0]: row for row in other.perp}
            return all(_in_span(row, at, self.field) for row in self.constraints())
        if "sparse" in self.__dict__:
            return all(self._contains_row(row) for row in other.sparse)
        return _annihilates(self.perp, other.sparse, self.ambient_dim, self.field)

    def __repr__(self):
        tag = f" @ {self.piece}" if self.piece is not None else ""
        return f"Subspace(dim {self.dim} of {self.ambient_dim}{tag})"
