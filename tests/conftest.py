"""Fixtures shared by the test modules."""

import pytest

from borderapolar import linalg


class Eliminations(list):
    """The shape (nrows, ncols) of every matrix handed to `rref_with_pivots`,
    in call order; `rows[i]` is a snapshot of the sparse rows of matrix i."""

    def __init__(self):
        super().__init__()
        self.rows = []

    def clear(self):
        super().clear()
        self.rows.clear()


@pytest.fixture
def eliminations(monkeypatch):
    """Record every elimination: the one counted entry point is patched.  An
    `IntRows` handed over is checked as elimination would not check it: every
    row has the full width and equals the field's `normalize` of itself."""
    seen = Eliminations()
    real = linalg.rref_with_pivots

    def recording(m):
        if type(m.given) is linalg.IntRows:
            for row in m.given:
                assert len(row) == m.ncols and all(type(x) is int for x in row), row
                assert row == m.field.normalize(row), row
        seen.append((m.nrows, m.ncols))
        seen.rows.append([list(row) for row in m.sparse])
        return real(m)

    monkeypatch.setattr(linalg, "rref_with_pivots", recording)
    return seen
