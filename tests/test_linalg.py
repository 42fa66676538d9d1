"""Tests for exact elimination, kernels, and the canonical subspace calculus."""

import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from borderapolar.grading import veronese_ring
from borderapolar.ideals import (
    PointSet,
    is_saturated_degreewise,
    point_ideal,
    very_general_points,
)
from borderapolar.linalg import (
    QQ,
    Matrix,
    Mod,
    PrimeField,
    Subspace,
    kernel,
    rank,
    rref_with_pivots,
)
from borderapolar import linalg
from support import (
    SpanReference,
    assert_canonical,
    integer_row,
    mat_vec,
    rref_gf_reference,
    sparse_rows,
)

GF = PrimeField(2147483647)
FIELDS = [QQ, GF]
# the reference tests also run over a modulus just above the 2^20 floor
REF_FIELDS = [QQ, GF, PrimeField(1048583)]


def matrix(rows, ncols=None, field=QQ) -> Matrix:
    """The elimination record of dense rows over `field`; ncols defaults to
    the length of the first row."""
    rows = [list(r) for r in rows]
    return Matrix(len(rows[0]) if ncols is None else ncols, sparse_rows(rows, field), field)


def span(m: Matrix) -> Subspace:
    """The span of m's rows: its RREF, zero rows dropped."""
    return Subspace.from_rows(m.ncols, m.sparse, field=m.field)


def kernel_of(m: Matrix) -> Subspace:
    return kernel(m.ncols, m.sparse, field=m.field)


def rank_of(m: Matrix) -> int:
    return rank(m.ncols, m.sparse, m.field)


def listed(rows) -> list:
    return [list(row) for row in rows]


def small_matrix_strategy(max_rows=6, max_cols=7, bound=9):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-bound, bound), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


def shaped_matrix_strategy():
    """Random integer matrices, plus the shapes elimination gets wrong first:
    zero rows, repeated rows, the zero matrix and full column rank."""
    base = small_matrix_strategy(max_rows=8, max_cols=8)
    with_zero_row = base.flatmap(
        lambda rows: st.integers(0, len(rows)).map(
            lambda i: rows[:i] + [[0] * len(rows[0])] + rows[i:]))
    with_repeat = base.flatmap(
        lambda rows: st.tuples(st.sampled_from(rows), st.integers(-3, 3)).map(
            lambda rk: rows + [[rk[1] * x for x in rk[0]]]))
    zero = st.tuples(st.integers(1, 6), st.integers(1, 7)).map(
        lambda rc: [[0] * rc[1] for _ in range(rc[0])])
    full_col_rank = small_matrix_strategy(max_rows=4, max_cols=6).flatmap(
        lambda rows: st.permutations(
            rows + [[int(i == j) for j in range(len(rows[0]))] for i in range(len(rows[0]))]))
    return st.one_of(base, with_zero_row, with_repeat, zero, full_col_rank)


def kernel_reference(m: Matrix) -> Subspace:
    """The former kernel: forward RREF, fill the free columns, RREF again."""
    red, pivots = span(m), rref_with_pivots(m)[1]
    field = m.field
    pivot_set = set(pivots)
    vecs = []
    for f in range(m.ncols):
        if f in pivot_set:
            continue
        v = [field.zero] * m.ncols
        v[f] = field.one
        for i, c in enumerate(pivots):
            v[c] = -red.basis[i][f]
        vecs.append(v)
    return span(matrix(vecs, m.ncols, field))


def _bareiss_int_rows(rows) -> list:
    """Scale each rational row to coprime integers."""
    out = []
    for row in rows:
        den = 1
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x.numerator) * (den // x.denominator) for x in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _echelon_bareiss(m: list, ncols: int):
    """Fraction-free forward elimination; returns (rows, pivot columns)."""
    nrows = len(m)
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pivot = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            row_i = m[i]
            row_r = m[r]
            m[i] = [(pivot * row_i[j] - mic * row_r[j]) // prev for j in range(ncols)]
        pivots.append(c)
        prev = pivot
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def rref_reference(m: Matrix):
    """The former rational RREF: Bareiss forward pass, then back-substitution
    in dense Fraction arithmetic.  Returns (rows, pivots)."""
    ech, pivots = _echelon_bareiss(_bareiss_int_rows(m.rows), m.ncols)
    rows = [[Fraction(v) for v in row] for row in ech]
    for i in reversed(range(len(rows))):
        c = pivots[i]
        inv = rows[i][c]
        rows[i] = [x / inv for x in rows[i]]
        for k in range(i):
            f = rows[k][c]
            if f:
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[i])]
    return rows, pivots


ENTRIES = (
    st.integers(-3, 3),
    st.integers(-(2**64), 2**64),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def rational_matrices(draw):
    """Matrices over Q of every shape from 0x0 to 8x8: small, huge or rational
    entries, optionally low rank, with dependent, repeated and zero rows."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    entry = draw(st.sampled_from(ENTRIES))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    if nrows and draw(st.booleans()):
        # nrows integer combinations of k drawn rows: rank at most k
        k = draw(st.integers(1, nrows))
        basis = draw(st.lists(row, min_size=k, max_size=k))
        coeffs = st.lists(st.integers(-4, 4), min_size=k, max_size=k)
        rows = [[sum(a * b[j] for a, b in zip(cs, basis)) for j in range(ncols)]
                for cs in draw(st.lists(coeffs, min_size=nrows, max_size=nrows))]
    else:
        rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    if rows and draw(st.booleans()):
        rows.append([-3 * x for x in draw(st.sampled_from(rows))])
    if draw(st.booleans()):
        rows.append([0] * ncols)
    return matrix(draw(st.permutations(rows)), ncols)


def assert_matches_reference(m: Matrix, field=QQ):
    """The RREF of m over `field` equals Bareiss over Q and the textbook
    Gauss-Jordan over GF(p)."""
    m = matrix(m.rows, m.ncols, field)
    before = repr(m.rows)
    red, pivots = span(m), rref_with_pivots(m)[1]
    ref_rows, ref_pivots = rref_reference(m) if field is QQ else rref_gf_reference(m)
    assert pivots == ref_pivots == [row[0][0] for row in red.sparse]
    # repr also tells Fraction from int, checks lowest terms and reduced residues
    assert repr(listed(red.basis)) == repr(ref_rows)
    assert repr(m.rows) == before
    return red, pivots


def assert_rref(rows):
    """Ascending leading 1s, and every other row zero in each pivot column."""
    seen = -1
    for row in rows:
        c = next(i for i, x in enumerate(row) if x)
        assert c > seen
        seen = c
        assert row[c] == 1
        for other in rows:
            if other is not row:
                assert not other[c]


class TestRref:
    """`Subspace.from_rows` stores the RREF of its rows."""

    def test_rank_one(self):
        assert listed(span(matrix([[2, 4], [1, 2]])).basis) == [[1, 2]]

    def test_identity_fixed(self):
        i3 = matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert listed(span(i3).basis) == i3.rows

    def test_zero_row_dropped(self):
        assert span(matrix([[0, 0]])).basis == ()

    def test_fraction_entries(self):
        m = matrix([[Fraction(1, 2), Fraction(1, 3)], [3, 2]])
        assert listed(span(m).basis) == [[1, Fraction(2, 3)]]  # rows are proportional
        m2 = matrix([[Fraction(1, 2), Fraction(1, 3)], [3, 1]])
        assert listed(span(m2).basis) == [[1, 0], [0, 1]]

    @given(small_matrix_strategy())
    @settings(max_examples=80, deadline=None)
    def test_idempotent(self, rows):
        once = span(matrix(rows))
        again = Subspace.from_rows(once.ambient_dim, once.sparse)
        assert once.basis == again.basis

    @given(small_matrix_strategy())
    @settings(max_examples=80, deadline=None)
    def test_pivots_are_clean(self, rows):
        assert_rref(span(matrix(rows)).basis)

    @given(rational_matrices())
    @settings(max_examples=400, deadline=None)
    def test_matches_bareiss_reference(self, m):
        for field in REF_FIELDS:
            red, _ = assert_matches_reference(m, field)
            assert_rref(red.basis)

    def test_edge_shapes_match_reference(self):
        for m in (matrix([], 0), matrix([], 5), matrix([[], []]),
                  matrix([[0] * 5] * 3), matrix([[-7, 0, 14]]),
                  matrix([[0, -(2**64), 3], [0, 2**64 - 1, 5]]),
                  matrix([[1048583, 2], [2147483647, 1]])):
            for field in REF_FIELDS:
                assert_matches_reference(m, field)

    def test_plain_int_rows(self):
        """Sparse rows of plain ints, as producers pass them, reduce exactly as
        the same values made into field elements: ints below zero, beyond a
        modulus and multiples of one included."""
        rows = [[(0, 3), (2, -(2**64)), (3, 2147483648)],
                [(1, 5 * 2147483647), (2, 1048583), (3, -1)],
                [(0, 6), (2, -(2**65)), (3, 2 * 2147483648)],
                [(0, 2 * 2147483647), (3, 7)]]
        for field in REF_FIELDS:
            as_field = [[(c, field.of(x)) for c, x in row] for row in rows]
            want = Subspace.from_rows(4, as_field, field=field)
            want_pivots = rref_with_pivots(Matrix(4, as_field, field))[1]
            got = Subspace.from_rows(4, rows, field=field)
            pivots = rref_with_pivots(Matrix(4, rows, field))[1]
            assert repr(got.sparse) == repr(want.sparse) and pivots == want_pivots

    def test_hilbert_matrix(self):
        h = [[Fraction(1, i + j + 1) for j in range(10)] for i in range(10)]
        for field in REF_FIELDS:
            red, pivots = assert_matches_reference(matrix(h), field)
            assert pivots == list(range(10))
        rng = random.Random(3)
        coeffs = [[Fraction(rng.randint(-5, 5), rng.randint(1, 9)) for _ in range(6)]
                  for _ in range(6)]
        combos = [[sum(c * h[i][j] for i, c in enumerate(cs)) for j in range(10)]
                  for cs in coeffs]
        stack = h[:6] + combos + [[-x for x in h[2]], [Fraction(0)] * 10]
        rng.shuffle(stack)
        for field in REF_FIELDS:
            red, pivots = assert_matches_reference(matrix(stack), field)
            assert pivots == list(range(6))


def rows_of_rank(rng, nrows: int, ncols: int, r: int) -> list:
    """r random rows with some fractional entries, then nrows - r integer
    combinations of them: rank r for the seeds used here."""
    basis = [[Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for _ in range(ncols)]
             for _ in range(r)]
    coeffs = [[rng.randint(-3, 3) for _ in basis] for _ in range(nrows - r)]
    return basis + [[sum(c * b[j] for c, b in zip(cs, basis)) for j in range(ncols)]
                    for cs in coeffs]


class _ReadOnce:
    """Rows that raise once iteration passes the first `allowed` of them."""

    def __init__(self, rows, allowed: int):
        self.rows, self.allowed = rows, allowed

    def __iter__(self):
        for i, row in enumerate(self.rows):
            if i == self.allowed:
                raise AssertionError(f"row {i} was read after full column rank")
            yield row


class TestOnePass:
    """`rref_with_pivots` reads each row once, in order, and stops at full
    column rank; its rows divided by their pivots are the references' RREF."""

    # (nrows, ncols, rank): tall, wide and square, each of full and of
    # deficient rank, all-zero and empty
    SHAPES = [(40, 5, 5), (40, 5, 3), (3, 9, 3), (6, 9, 2), (6, 6, 6), (6, 6, 4),
              (7, 4, 0), (0, 4, 0), (5, 0, 0), (0, 0, 0)]

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    @pytest.mark.parametrize("nrows, ncols, r", SHAPES)
    def test_matches_the_references_in_any_row_order(self, field, nrows, ncols, r):
        rng = random.Random(100 * nrows + 10 * ncols + r)
        rows = rows_of_rank(rng, nrows, ncols, r) + [[0] * ncols] * (nrows > r)
        for _ in range(4):
            rng.shuffle(rows)
            m = matrix(rows, ncols, field)
            ints, pivots = rref_with_pivots(m)
            ref_rows, ref_pivots = rref_reference(m) if field is QQ else rref_gf_reference(m)
            assert pivots == ref_pivots and len(pivots) == r
            got = [[dict(field.elements(field.stored(row, c))).get(j, field.zero)
                    for j in range(ncols)] for row, c in zip(ints, pivots)]
            assert repr(got) == repr(ref_rows)
            assert all(type(v) is int for row in ints for v in row)
            assert_matches_reference(m, field)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_stops_at_full_column_rank(self, field):
        """Once ncols pivots are held no later row is read: here the first
        five rows have full rank, the sixth raises when it is reached."""
        rng = random.Random(5)
        rows = sparse_rows(rows_of_rank(rng, 12, 4, 4)[:3] + [[0, 0, 0, 0]]
                           + rows_of_rank(rng, 8, 4, 4), field)
        assert rank(4, rows[:5], field) == 4
        ints, pivots = rref_with_pivots(Matrix(4, _ReadOnce(rows, 5), field))
        assert pivots == [0, 1, 2, 3]
        assert field.stored(ints[2], 2) == ((2, 1),)
        # a rank-deficient prefix reads on
        with pytest.raises(AssertionError, match="row 3 was read"):
            rref_with_pivots(Matrix(4, _ReadOnce(rows, 3), field))


class TestForwardRank:
    """`rank` runs the one counted `rref_with_pivots` forward only: no kept row
    is back-substituted, and the count is the pivot count of the full
    reduction of the same rows."""

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    @settings(max_examples=150, deadline=None)
    @given(m=rational_matrices(), entries=st.sampled_from(["elements", "ints", "fractions",
                                                           "one-shot"]))
    def test_counts_the_pivots_of_the_full_reduction(self, field, m, entries):
        rows = sparse_rows(m.rows, field)  # Fraction over Q, Mod over GF(p)
        want = len(rref_with_pivots(Matrix(m.ncols, rows, field))[1])
        given_rows = {
            "elements": rows,
            "ints": [integer_row(row, field) for row in rows],
            "fractions": [[(c, x) for c, x in enumerate(row) if x] for row in m.rows],
            "one-shot": [iter(row) for row in rows],
        }[entries]
        assert rank(m.ncols, given_rows, field) == want

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_dependent_and_zero_rows(self, field):
        # rows 3 and 4 are combinations of rows 0 and 1, and row 2 is zero;
        # the second matrix has full rank, but reduced against the kept rows
        # from the highest pivot down, a row refills a cleared pivot column
        # and a pivot is lost
        rows = [[0, 1, 1, 0], [1, 2, 0, 0], [0, 0, 0, 0], [1, 3, 1, 0], [2, 4, 0, 0],
                [0, 0, 1, 1], [1, 1, 1, 1]]
        assert rank(4, sparse_rows(rows, field), field) == 4
        assert rank(4, sparse_rows(rows[:5], field), field) == 2
        assert rank(4, sparse_rows([[-1, 1, 0, 0], [0, -1, 0, 1], [1, 0, -1, 0],
                                    [-1, 1, -1, 2], [0, 0, -1, -1]], field), field) == 4
        assert rank(4, [[], [(2, 0)]], field) == 0

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_only_rank_is_forward(self, monkeypatch, field):
        modes = []
        real = linalg.rref_with_pivots
        monkeypatch.setattr(linalg, "rref_with_pivots",
                            lambda m: modes.append(m.forward) or real(m))
        rows = sparse_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]], field)
        assert rank(3, rows, field) == 2
        assert Subspace.from_rows(3, rows, field=field).dim == 2
        assert kernel(3, rows, field=field).dim == 1
        assert modes == [True, False, False]

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_stops_at_full_column_rank(self, field):
        """Forward only, no row past full column rank is read either, and the
        rows come out echelon but not reduced."""
        rng = random.Random(5)
        rows = sparse_rows(rows_of_rank(rng, 12, 4, 4)[:3] + [[0, 0, 0, 0]]
                           + rows_of_rank(rng, 8, 4, 4), field)
        ints, pivots = rref_with_pivots(Matrix(4, _ReadOnce(rows, 5), field, forward=True))
        assert pivots == [0, 1, 2, 3]
        assert all(not any(row[:c]) and row[c] for row, c in zip(ints, pivots))
        full = rref_with_pivots(Matrix(4, rows[:5], field))[0]
        assert ints != full
        with pytest.raises(AssertionError, match="row 3 was read"):
            rref_with_pivots(Matrix(4, _ReadOnce(rows, 3), field, forward=True))


class TestLastPivot:
    """`Matrix.last` reduces the rows as if their columns were reversed,
    with no reversed copy: the same rows and pivots, mirrored."""

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_is_the_reduction_with_the_columns_reversed(self, field):
        rng = random.Random(11)
        for _ in range(60):
            ncols = rng.randint(1, 7)
            dense = rows_of_rank(rng, rng.randint(0, 8), ncols, rng.randint(0, ncols))
            dense += [[0] * ncols] * rng.randint(0, 1)
            rng.shuffle(dense)
            rows = sparse_rows(dense, field)
            ints, pivots = rref_with_pivots(Matrix(ncols, rows, field, last=True))
            mirrored = [[(ncols - 1 - c, x) for c, x in row] for row in rows]
            want, want_pivots = rref_with_pivots(Matrix(ncols, mirrored, field))
            assert pivots == sorted(ncols - 1 - p for p in want_pivots)
            assert ints == [row[::-1] for row in reversed(want)]
            assert all(not any(row[q + 1:]) and row[q] for row, q in zip(ints, pivots))


class TestKernel:
    def test_line(self):
        assert listed(kernel_of(matrix([[1, 1]])).basis) == [[1, -1]]

    def test_identity_trivial(self):
        assert kernel_of(matrix([[1, 0], [0, 1]])).basis == ()

    def test_piece_and_field(self):
        gf = FIELDS[1]
        ker = kernel(3, [[(0, 1), (2, 2)]], piece="tag", field=gf)
        assert ker.piece == "tag" and ker.field == gf
        assert ker == Subspace.from_rows(3, [[(0, -2), (2, 1)], [(1, 1)]], field=gf)

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(7)
        for k in range(200):
            nr = rng.randint(1, 12)
            nc = rng.randint(1, 20)
            m = matrix([[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)],
                       field=FIELDS[k % 2])
            ker = kernel_of(m)
            assert ker.dim == nc - rank_of(m)
            for v in ker.basis:
                assert all(not x for x in mat_vec(m, v))
            assert_rref(ker.basis)
            assert ker.basis == kernel_reference(m).basis

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    @given(rows=shaped_matrix_strategy())
    @settings(max_examples=120, deadline=None)
    def test_matches_two_elimination_reference(self, field, rows):
        m = matrix(rows, field=field)
        ker = kernel_of(m)
        ref = kernel_reference(m)
        assert ker.ambient_dim == m.ncols
        assert ker.basis == ref.basis
        # the sparse rows are canonical too: ascending columns, pivot first
        assert repr(ker.sparse) == repr(ref.sparse)
        assert_rref(ker.basis)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_edge_shapes(self, field):
        one, zero = field.one, field.zero
        identity4 = [[one if i == j else zero for j in range(4)] for i in range(4)]
        assert listed(kernel_of(matrix([], 4, field)).basis) == identity4
        assert listed(kernel_of(matrix([[0] * 4] * 3, field=field)).basis) == identity4
        assert kernel_of(matrix(identity4 + [[1, 2, 3, 4]], field=field)).basis == ()
        assert kernel_of(matrix([], 0, field)).basis == ()


class TestSubspace:
    def test_sum_of_axes(self):
        a = Subspace.from_rows(3, sparse_rows([[1, 0, 0]]))
        b = Subspace.from_rows(3, sparse_rows([[0, 1, 0]]))
        assert a.sum(b).dim == 2

    def test_intersect_self(self):
        a = Subspace.from_rows(3, sparse_rows([[1, 2, 0], [0, 0, 1]]))
        assert a.intersect(a) == a

    def test_canonical_equality(self):
        rows = [[1, 2, 3], [0, 1, 1]]
        a = Subspace.from_rows(3, sparse_rows(rows))
        # same span, different presentation: recombined rows
        rows2 = [[1, 3, 4], [2, 5, 7]]
        b = Subspace.from_rows(3, sparse_rows(rows2))
        assert a == b
        assert a.basis == b.basis

    def test_equality_includes_the_field_but_not_the_piece(self):
        for make in (Subspace.zero, Subspace.full):
            over_q, over_gf = make(3), make(3, field=GF)
            assert over_q != over_gf and len({over_q, over_gf}) == 2
            assert over_gf == make(3, field=PrimeField(GF.p))
            labelled = make(3, piece="a")
            assert labelled == over_q and hash(labelled) == hash(over_q)

    def test_contains_vector_and_subspace(self):
        a = Subspace.from_rows(3, sparse_rows([[1, 0, 1], [0, 1, 0]]))
        assert a.contains([1, 1, 1])
        assert not a.contains([0, 0, 1])
        assert a.contains(Subspace.from_rows(3, sparse_rows([[1, 1, 1]])))

    def test_ambient_mismatch(self):
        a = Subspace.from_rows(3, sparse_rows([[1, 0, 0]]))
        b = Subspace.from_rows(4, sparse_rows([[1, 0, 0, 0]]))
        with pytest.raises(ValueError):
            a.sum(b)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    @pytest.mark.parametrize("column", [3, 4, 5, -1, -4])
    @pytest.mark.parametrize("eliminate", [
        lambda rows, field: Subspace.from_rows(3, rows, field=field),
        lambda rows, field: kernel(3, rows, field=field),
        lambda rows, field: rank(3, rows, field=field),
        lambda rows, field: rank(3, rows * 3, field=field),  # tall: more rows than columns
    ], ids=["from_rows", "kernel", "rank", "rank-tall"])
    def test_columns_outside_the_ambient_refused(self, eliminate, column, field):
        """A column past the end, and a negative one that indexing would wrap,
        named as the caller gave it, before kernel reverses the columns."""
        message = f"column {column} outside an ambient of dimension 3"
        with pytest.raises(ValueError, match=message):
            eliminate([[(0, 1)], [(1, 2), (column, 1)]], field)

    def test_grassmann_identity(self):
        rng = random.Random(3)
        for _ in range(50):
            da = rng.randint(0, 5)
            db = rng.randint(0, 5)
            a = Subspace.from_rows(
                8, sparse_rows([[rng.randint(-4, 4) for _ in range(8)] for _ in range(da)])
            )
            b = Subspace.from_rows(
                8, sparse_rows([[rng.randint(-4, 4) for _ in range(8)] for _ in range(db)])
            )
            assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_constraints_read_off_basis(self, field):
        rng = random.Random(5)
        cases = [Subspace.zero(6, field=field), Subspace.full(6, field=field)]
        for _ in range(60):
            n = rng.randint(1, 9)
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
            cases.append(Subspace.from_rows(n, sparse_rows(rows, field), field=field))
        for s in cases:
            cons = s.constraints()
            assert isinstance(cons, tuple) and len(cons) == s.codim
            assert all(0 <= c < s.ambient_dim for row in cons for c, _ in row)
            for c in Matrix(s.ambient_dim, cons, field).rows:
                for b in s.basis:
                    assert not sum((x * y for x, y in zip(c, b)), field.zero)
            assert Subspace.from_rows(s.ambient_dim, cons, field=field).basis \
                == kernel_reference(s.matrix()).basis

    def test_codim(self):
        a = Subspace.from_rows(5, sparse_rows([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]))
        assert a.codim == 3


class TestRank:
    """rank(m) is the pivot count of m's RREF, whichever side it eliminates."""

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    @given(m=rational_matrices())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_pivot_count(self, field, m):
        m = matrix(m.rows, m.ncols, field)
        assert rank_of(m) == len(rref_with_pivots(m)[1])

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_tall_wide_square_empty_and_zero(self, field):
        rng = random.Random(16)
        for nrows, ncols in ((9, 3), (3, 9), (5, 5), (0, 4), (4, 0), (0, 0)):
            for k in range(min(nrows, ncols) + 1):
                # nrows integer combinations of k random rows: rank at most k
                basis = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(k)]
                rows = []
                for _ in range(nrows):
                    cs = [rng.randint(-3, 3) for _ in basis]
                    rows.append([sum(c * b[j] for c, b in zip(cs, basis)) for j in range(ncols)])
                m = matrix(rows, ncols, field)
                assert rank_of(m) == len(rref_with_pivots(m)[1]) <= k
            zero = matrix([[0] * ncols for _ in range(nrows)], ncols, field)
            assert rank_of(zero) == len(rref_with_pivots(zero)[1]) == 0


@st.composite
def tall_wide_entry_matrices(draw):
    """(ncols, rows): tall dense integer matrices with entries of up to 40
    bits, as integer combinations of fewer rows than columns or as many, so
    that most rows are read to the end and reduced against kept rows whose
    pivot entries, minors of the matrix, run to hundreds of bits: a row's
    factors pass 64 bits within two updates."""
    ncols = draw(st.integers(2, 7))
    nrows = draw(st.integers(ncols + 1, 2 * ncols + 3))
    row = st.lists(st.integers(-(2**40), 2**40), min_size=ncols, max_size=ncols)
    basis = draw(st.lists(row, min_size=1, max_size=ncols))
    coeffs = st.lists(st.integers(-5, 5), min_size=len(basis), max_size=len(basis))
    return ncols, [[sum(a * b[j] for a, b in zip(cs, basis)) for j in range(ncols)]
                   for cs in draw(st.lists(coeffs, min_size=nrows, max_size=nrows))]


class TestDeferredDivision:
    """Over Q a row being reduced is divided by its content once the factors
    it was multiplied by since it last was pass 64 bits, and when it is kept;
    over GF(p) after every update.  Either way the rows that come out are
    those of `SpanReference`."""

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    @given(case=tall_wide_entry_matrices())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_rank_kernel_and_span_match_the_reference(self, field, case):
        ncols, rows = case
        ref = SpanReference(ncols, rows, field)
        span_rows = repr(tuple(tuple(row) for row in ref.rows))
        ref_kernel = SpanReference.kernel(ncols, rows, field)
        kernel_rows = repr(tuple(tuple(row) for row in ref_kernel.rows))
        ints = linalg.IntRows([field.normalize(list(row)) for row in rows])
        for given_rows in (sparse_rows(rows, field), ints):
            assert rank(ncols, given_rows, field) == len(ref.pivots)
            assert repr(Subspace.from_rows(ncols, given_rows, field=field).basis) == span_rows
            assert repr(kernel(ncols, given_rows, field=field).basis) == kernel_rows

    @pytest.mark.parametrize("bits,divided", [(34, 2), (32, 1)])
    def test_a_row_is_divided_past_64_bits_and_when_kept(self, monkeypatch, bits, divided):
        # three kept rows with pairwise coprime pivot entries b_k of `bits`
        # bits, and a row that each of them clears, multiplying it by b_k.
        # At 34 bits the factors reach 68 > 64 bits at the second update,
        # which divides, and 34 at the third, so the row is divided again
        # when it is kept.  At 32 bits they reach 64 at the second, which
        # does not divide, and 96 at the third, which does, and the row is
        # kept as it is.
        seen = []
        real = linalg.RationalField.normalize
        monkeypatch.setattr(linalg.RationalField, "normalize",
                            staticmethod(lambda ints: seen.append(list(ints)) or real(ints)))
        b1, b2, b3 = (2 ** (bits - 1) + k for k in (1, 3, 5))
        rows = linalg.IntRows([[b1, 0, 0, 1], [0, b2, 0, 1], [0, 0, b3, 1], [1, 1, 1, 0]])
        assert rank(4, rows) == 4
        last = [0, 0, 0, -b3 * (b1 + b2) - b1 * b2]
        assert seen == ([[0, 0, b1 * b2, -(b1 + b2)], last] if divided == 2 else [last])

    def test_a_residue_row_is_reduced_after_every_update(self, monkeypatch):
        seen = []
        real = PrimeField.normalize
        monkeypatch.setattr(PrimeField, "normalize",
                            lambda self, ints: seen.append(list(ints)) or real(self, ints))
        rows = linalg.IntRows([[2, 0, 0, 1], [0, 3, 0, 1], [0, 0, 5, 1], [1, 1, 1, 0]])
        assert rank(4, rows, GF) == 4
        assert len(seen) == 3  # one per update, and none again when the row is kept


class TestEliminationCount:
    """Each kernel and annihilator costs at most one elimination, in each field."""

    def test_kernel_eliminates_once(self, eliminations):
        for field in FIELDS:
            eliminations.clear()
            kernel_of(matrix([[1, 2, 3, 4], [2, 4, 6, 9]], field=field))
            assert eliminations == [(2, 4)]

    def test_rank_eliminates_the_rows_as_given_once(self, eliminations):
        # the caller picks the side: a tall matrix is eliminated tall
        for field in FIELDS:
            for nrows, ncols in ((9, 3), (3, 9), (5, 5), (4, 0)):
                eliminations.clear()
                rank_of(matrix([[i + 2 * j for j in range(ncols)] for i in range(nrows)],
                               ncols, field))
                assert eliminations == [(nrows, ncols)]

    def test_constraints_do_not_eliminate(self, eliminations):
        for field in FIELDS:
            rows = sparse_rows([[1, 2, 0, 1, 3], [0, 1, 1, 0, 2]], field)
            a = Subspace.from_rows(5, rows, field=field)
            eliminations.clear()
            assert len(a.constraints()) == 3
            assert eliminations == []

    def test_intersect_eliminates_once(self, eliminations):
        for field in FIELDS:
            rows = sparse_rows([[1, 2, 0, 1], [0, 1, 1, 0]], field)
            a = Subspace.from_rows(4, rows, field=field)
            b = Subspace.from_rows(4, sparse_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]],
                                                  field), field=field)
            eliminations.clear()
            a.intersect(b)
            assert len(eliminations) == 1

    def test_saturation_eliminates_once_per_call(self, eliminations):
        z = very_general_points(veronese_ring(2), 2, 4, random.Random(15))
        for field in FIELDS:
            j = point_ideal(PointSet(z.ring, z.points, field=field), 4)
            eliminations.clear()
            for k in range(4):
                assert is_saturated_degreewise(j, k)
            assert len(eliminations) == 4


class TestRowIterables:
    """`kernel`, `rank` and `Subspace.from_rows` read their rows from any
    iterable: a generator gives the result a list gives, by the same
    eliminations."""

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_generator_rows_match_a_list(self, field, eliminations):
        rng = random.Random(37)
        for _ in range(30):
            nrows, ncols = rng.randint(0, 9), rng.randint(0, 9)
            rows = sparse_rows([[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(ncols)]
                                for _ in range(nrows)], field)
            for consumer in (lambda r: kernel(ncols, r, field=field),
                             lambda r: rank(ncols, r, field),
                             lambda r: Subspace.from_rows(ncols, r, field=field)):
                eliminations.clear()
                want = consumer(rows)
                seen = list(eliminations), eliminations.rows[:]
                eliminations.clear()
                got = consumer(row for row in rows)
                assert got == want and repr(got) == repr(want)
                assert (list(eliminations), eliminations.rows) == seen

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_one_shot_rows_are_read_by_elimination(self, field):
        # the column check reads each row, and elimination reads it again: a
        # row given as an iterator or a generator is not used up by the check
        assert rank(2, [iter([(0, 1)])], field) == 1
        assert Subspace.from_rows(2, [((c, 1) for c in (0,))], field=field).dim == 1
        assert kernel(2, [iter([(0, 1)])], field=field) == Subspace(2, (((1, 1),),), field=field)
        rng = random.Random(38)
        for _ in range(20):
            ncols = rng.randint(1, 7)
            rows = [[(c, rng.randint(-5, 5)) for c in range(ncols) if rng.random() < 0.6]
                    for _ in range(rng.randint(0, 6))]
            assert rank(ncols, [iter(row) for row in rows], field) == rank(ncols, rows, field)
            for make in (Subspace.from_rows, kernel):
                got = make(ncols, [(x for x in row) for row in rows], field=field)
                assert got == make(ncols, rows, field=field)

    def test_a_one_shot_row_is_refused_by_its_column(self):
        with pytest.raises(ValueError, match="column 2 outside an ambient of dimension 2"):
            rank(2, [iter([(0, 1), (2, 1)])])


class TestPrimeField:
    def test_rejects_small_or_composite(self):
        with pytest.raises(ValueError):
            PrimeField(97)
        with pytest.raises(ValueError):
            PrimeField((1 << 21) + 1)  # 2097153 = 3 * 699051

    def test_arithmetic(self):
        gf = PrimeField(1048583)
        x = gf.of(Fraction(2, 3))
        assert x * 3 == gf.of(2)
        assert (x - x) == gf.zero
        assert bool(gf.zero) is False
        with pytest.raises(ValueError, match="1/2097166 has no value mod 1048583"):
            gf.of("1/2097166")

    def test_fraction_entries_reduce_as_of_reduces_them(self):
        # a Fraction entry in a row is its residue, as `of` makes it
        half = Fraction(1, 2)
        assert GF.to_ints([(0, half), (1, Fraction(-3, 7))], 2) == [GF.of(half).v,
                                                                  GF.of(Fraction(-3, 7)).v]
        assert Subspace.from_rows(2, [[(0, half)]], field=GF) == Subspace(2, (((0, 1),),), field=GF)
        rows = [[(0, half), (1, 1)], [(0, 1), (1, Fraction(2, 3))]]
        residues = [[(c, GF.of(x)) for c, x in row] for row in rows]
        assert rank(2, rows, GF) == rank(2, residues, GF)
        assert Subspace.from_rows(2, rows, field=GF) == Subspace.from_rows(2, residues, field=GF)
        assert kernel(2, rows, field=GF) == kernel(2, residues, field=GF)
        bad = Fraction(1, GF.p)
        for call in (lambda: Subspace.from_rows(2, [[(0, bad)]], field=GF),
                     lambda: rank(2, [[(1, bad)]], GF), lambda: GF.of(bad)):
            with pytest.raises(ValueError,
                               match=f"^1/{GF.p} has no value mod {GF.p}: its denominator "
                                     f"is divisible by {GF.p}$"):
                call()

    def test_rref_matches_rational_rank(self):
        gf = PrimeField(1048583)
        rng = random.Random(11)
        for _ in range(20):
            rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(4)]
            rk_q = rank_of(matrix(rows))
            rk_p = rank_of(matrix(rows, field=gf))
            # ranks can only drop mod p; on small random integers they agree
            assert rk_p == rk_q

    def test_kernel_over_gf(self):
        gf = PrimeField(1048583)
        m = matrix([[1, 1, 0], [0, 1, 1]], field=gf)
        ker = kernel_of(m)
        assert ker.dim == 1
        for v in ker.basis:
            assert all(not x for x in mat_vec(m, v))

    def test_subspace_calculus_over_gf(self):
        gf = PrimeField(1048583)
        a = Subspace.from_rows(3, sparse_rows([[1, 2, 3]], gf), field=gf)
        b = Subspace.from_rows(3, sparse_rows([[1, 2, 3], [0, 1, 0]], gf), field=gf)
        assert b.contains(a)
        assert a.sum(b) == b

    def test_two_prime_fields_compare_unequal(self):
        small = PrimeField(1048583)
        a, b = GF.of(3), small.of(3)
        assert a != b and not a == b and a == GF.of(3) == 3
        for make in (Subspace.full, Subspace.from_rows):
            args = (3,) if make is Subspace.full else (3, [[(0, 1), (2, 5)]])
            assert make(*args, field=GF) != make(*args, field=small)
        # arithmetic across moduli still refuses
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(ValueError, match="mixed moduli"):
                op(a, b)


class TestFieldElementsMade:
    """Elimination hands back integer rows and a Subspace stores them: `rank`
    stores no row, `kernel` stores each reduced row once, and `from_rows`,
    `kernel` and `contains` on integer rows make no field element."""

    @staticmethod
    def matrices(field, seed):
        rng = random.Random(seed)
        ms = []
        for _ in range(40):
            nrows, ncols = rng.randint(0, 9), rng.randint(0, 9)
            ms.append(matrix([[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(ncols)]
                              for _ in range(nrows)], ncols, field))
        return ms

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_elimination_returns_integer_rows(self, field):
        """Each row is primitive over Q (residues over GF(p)), zero at every
        other pivot, and stored it is the subspace's row."""
        for m in self.matrices(field, 29):
            rows, pivots = rref_with_pivots(m)
            assert len(rows) == len(pivots)
            for row, p in zip(rows, pivots):
                assert len(row) == m.ncols and all(type(v) is int for v in row)
                assert [c for c in pivots if row[c]] == [p]
                if field is QQ:
                    assert gcd(*row) == 1
                else:
                    assert all(0 <= v < field.p for v in row)
            assert [field.stored(row, p) for row, p in zip(rows, pivots)] \
                == list(span(m).sparse)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_rank_stores_no_row(self, field, monkeypatch):
        ms = self.matrices(field, 19)
        want = [span(m).dim for m in ms]

        def refuse(self, ints, c):
            raise AssertionError("rank stored a row")

        monkeypatch.setattr(type(field), "stored", refuse)
        assert [rank_of(m) for m in ms] == want

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_kernel_stores_no_row(self, field, monkeypatch):
        """The kernel rows are written from the dense reduced rows, with no
        stored copy of them in between."""
        ms = self.matrices(field, 23)
        want = [kernel_reference(m).basis for m in ms]

        def refuse(self, ints, c):
            raise AssertionError("kernel stored a row")

        monkeypatch.setattr(type(field), "stored", refuse)
        assert [kernel_of(m).basis for m in ms] == want

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_integer_rows_make_no_field_element(self, field, monkeypatch):
        """A spy on the element constructor (`Fraction.__new__` over Q,
        `Mod.__init__` over GF(p)) sees no call from `from_rows`, `kernel`,
        `constraints`, `intersect`, `sum` or `contains` on integer rows,
        and sees the ones `basis` makes."""
        rng = random.Random(41)
        cases = []
        for _ in range(30):
            ncols = rng.randint(1, 8)
            cases.append((ncols, [[(c, rng.randint(-9, 9)) for c in range(ncols)
                                   if rng.random() < 0.6] for _ in range(rng.randint(0, 7))]))
        made = []
        owner, name = (Fraction, "__new__") if field is QQ else (Mod, "__init__")
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            made.append(args[1:])
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        for ncols, rows in cases:
            a = Subspace.from_rows(ncols, rows, field=field)
            k = kernel(ncols, rows, field=field)
            both = a.intersect(k).sum(k)
            assert a.contains(a) and both.contains(k)
            assert k.contains(k.intersect(a)) and len(a.constraints()) == a.codim
        assert made == []
        a.basis  # one element per stored entry
        assert len(made) == sum(len(row) for row in a.sparse) > 0


@st.composite
def subspace_pairs(draw):
    """(ncols, rows of a, rows of b, vectors) over one entry kind: small,
    huge or rational, each row set optionally of low rank or holding a
    repeated, negated or zero row."""
    ncols = draw(st.integers(0, 7))
    entry = draw(st.sampled_from(ENTRIES))
    row = st.lists(entry, min_size=ncols, max_size=ncols)

    def rows():
        out = draw(st.lists(row, max_size=6))
        if out and draw(st.booleans()):  # combinations of the first: low rank
            out += [[3 * x - y for x, y in zip(out[0], r)] for r in out[:2]]
        if out and draw(st.booleans()):
            out.append([-2 * x for x in draw(st.sampled_from(out))])
        if draw(st.booleans()):
            out.append([0] * ncols)
        return out

    a, b = rows(), rows()
    if a and draw(st.booleans()):  # b shares a row with a, so they meet
        b.append(draw(st.sampled_from(a)))
    return ncols, a, b, draw(st.lists(row, max_size=3))


class TestAgainstFractionReference:
    """Every Subspace operation against `SpanReference`, which keeps dense
    RREF rows of Fractions (Mods over GF(p)) and computes in them: the
    integer rows must give the same field elements wherever they are read,
    and be canonical (`assert_canonical`) wherever they are stored."""

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    @given(case=subspace_pairs())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_every_operation(self, field, case):
        ncols, a_rows, b_rows, vectors = case
        a = Subspace.from_rows(ncols, sparse_rows(a_rows, field), field=field)
        b = Subspace.from_rows(ncols, sparse_rows(b_rows, field), field=field)
        ra, rb = SpanReference(ncols, a_rows, field), SpanReference(ncols, b_rows, field)
        pairs = [(a, ra), (b, rb),
                 (kernel(ncols, sparse_rows(a_rows, field), field=field),
                  SpanReference.kernel(ncols, a_rows, field)),
                 (a.intersect(b), ra.intersect(rb)), (a.sum(b), ra.sum(rb)),
                 (Subspace.full(ncols, field=field), SpanReference.kernel(ncols, [], field))]
        for got, want in pairs:
            assert_canonical(got)
            assert repr(got.basis) == repr(tuple(tuple(row) for row in want.rows))
            assert got.dim == rank(ncols, sparse_rows(want.rows, field), field)
            # each integer constraint row divided by its leading entry
            cons = Matrix(ncols, [field.elements(row) for row in got.constraints()], field)
            assert repr(cons.rows) == repr(want.constraints())
            assert Subspace.from_rows(ncols, got.sparse, field=field) == got
        assert rank(ncols, sparse_rows(a_rows, field), field) == a.dim
        assert (a == b) == (ra.rows == rb.rows)
        meet, ref_meet = a.intersect(b), ra.intersect(rb)
        for x, y, rx, ry in ((a, b, ra, rb), (b, a, rb, ra), (a, meet, ra, ref_meet),
                             (meet, a, ref_meet, ra)):
            assert x.contains(y) == rx.contains(ry)
        for v in vectors + [list(row) for row in b.basis[:1]]:
            assert repr(a.reduce_vector(v)) == repr(ra.reduce(v))
            assert a.contains(v) == (not any(ra.reduce(v)))


class TestMixedEntries:
    """Rows that mix plain ints, integral Fractions and fractions with
    denominators (over GF(p) the fractions enter as their residues): each row
    is made a dense integer row in one pass, scaled by the lcm of its
    denominators, and `kernel`, `Subspace.from_rows` and `rank` agree with
    the references, which read every entry as a field element."""

    @staticmethod
    def entry(rng):
        v = rng.randint(-9, 9)
        return rng.choice((0, v, Fraction(v), Fraction(v, rng.randint(2, 12))))

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_kernel_span_and_rank_match_the_references(self, field):
        rng = random.Random(61)
        reference = rref_reference if field is QQ else rref_gf_reference
        for _ in range(80):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
            dense = [[self.entry(rng) for _ in range(ncols)] for _ in range(nrows)]
            rows = [[(c, x if field is QQ or type(x) is int else field.of(x))
                     for c, x in enumerate(row) if x] for row in dense]
            ref_rows, ref_pivots = reference(matrix(dense, ncols, field))
            assert repr(listed(Subspace.from_rows(ncols, rows, field=field).basis)) \
                == repr(ref_rows)
            assert rank(ncols, rows, field) == len(ref_pivots)
            # the kernel from the reference RREF: e_f - sum_i ref_i[f] e_{p_i}
            # for each non-pivot column f, reduced by the reference again
            free = []
            for f in (f for f in range(ncols) if f not in ref_pivots):
                v = [field.zero] * ncols
                v[f] = field.one
                for row, p in zip(ref_rows, ref_pivots):
                    v[p] = -row[f]
                free.append(v)
            want = reference(matrix(free, ncols, field))[0] if free else []
            assert repr(listed(kernel(ncols, rows, field=field).basis)) == repr(want)
