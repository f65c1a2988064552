"""Dense GF(2) linear algebra on Python-int rows.

A row is one int: bit j is column j.  Elimination reduces each row against
a dict of pivot rows keyed on ``bit_length()``, so the pivot of a row is its
highest set column.  All operations are deterministic and leave their
inputs unmodified; rows hold no bits at or above ``ncols``.
"""
from __future__ import annotations

__all__ = [
    "GF2Matrix",
    "bits_of",
    "rank_of_words",
    "rref_of_words",
    "nullspace_of_words",
    "left_nullspace_of_words",
]


def bits_of(x: int) -> list[int]:
    """Indices of the set bits of ``x``, ascending."""
    out = []
    while x:
        b = x.bit_length() - 1
        out.append(b)
        x ^= 1 << b
    out.reverse()
    return out


def _pivots(words) -> dict[int, int]:
    """Echelon basis of the row span: ``bit_length()`` of each row -> row."""
    piv: dict[int, int] = {}
    for x in words:
        while x:
            h = x.bit_length()
            p = piv.get(h)
            if p is None:
                piv[h] = x
                break
            x ^= p
    return piv


def rank_of_words(words: list[int], ncols: int) -> int:
    """GF(2) rank of the rows ``words`` over ``ncols`` columns."""
    return len(_pivots(words))


def rref_of_words(words: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced echelon form.  Returns (nonzero rows, pivot columns), both
    ordered by ascending pivot column; each pivot column is set in its own
    row only."""
    piv = _pivots(words)
    order = sorted(piv)
    rows: list[int] = []
    for h in order:
        x = piv[h]
        # rows[k] holds no pivot column but its own, so clearing one pivot
        # column never sets another; higher pivots lie above x's top bit
        for k, y in enumerate(rows):
            if (x >> (order[k] - 1)) & 1:
                x ^= y
        rows.append(x)
    return rows, [h - 1 for h in order]


def left_nullspace_of_words(words: list[int], ncols: int) -> list[int]:
    """Basis of the left null space of ``words``.

    Each basis vector is an int over the row indices of ``words``: bit r
    set means row r is in a set of rows that sums to zero.
    """
    nr = len(words)
    piv: dict[int, int] = {}
    out = []
    for r, x in enumerate(words):
        # data above bit nr, the row's identity below it
        x = (x << nr) | (1 << r)
        while x >> nr:
            h = x.bit_length()
            p = piv.get(h)
            if p is None:
                piv[h] = x
                break
            x ^= p
        else:
            out.append(x)
    return out


def nullspace_of_words(words: list[int], ncols: int) -> list[int]:
    """Basis of the right null space, one row per free column, ascending."""
    rows, pivots = rref_of_words(words, ncols)
    pivset = set(pivots)
    out = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = 1 << f
        for x, p in zip(rows, pivots):
            if (x >> f) & 1:
                v |= 1 << p
        out.append(v)
    return out


class GF2Matrix:
    """A dense GF(2) matrix with one int per row."""

    __slots__ = ("nrows", "ncols", "words")

    def __init__(self, nrows: int, ncols: int, words: list[int] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.words = [0] * nrows if words is None else words

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def rank(self) -> int:
        return rank_of_words(self.words, self.ncols)

    def nullspace(self) -> "GF2Matrix":
        """Matrix whose rows are a basis of the right kernel."""
        ns = nullspace_of_words(self.words, self.ncols)
        return GF2Matrix(len(ns), self.ncols, ns)

    def transpose(self) -> "GF2Matrix":
        cols = [0] * self.ncols
        for i, x in enumerate(self.words):
            for j in bits_of(x):
                cols[j] |= 1 << i
        return GF2Matrix(self.ncols, self.nrows, cols)

    def __repr__(self) -> str:
        return f"GF2Matrix({self.nrows}x{self.ncols})"
