"""Dense GF(2) linear algebra on Python-int rows.

A row is one int: bit j is column j.  :func:`echelon` is the package's one
elimination loop: it reduces each picked row against a dict of pivot rows
keyed on ``bit_length()``, so the pivot of a row is its highest set column.
Ranks, reduced echelon forms, left null spaces and the span ranks of
:class:`~tnt.homology.ChainEngine` all read its result.  All operations are
deterministic and leave their inputs unmodified; rows hold no bits at or
above ``ncols``.
"""
from __future__ import annotations

from typing import Iterable

__all__ = [
    "GF2Matrix",
    "bits_of",
    "echelon",
    "rank_of_words",
    "rref_of_words",
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


def echelon(rows: list[int], picks: Iterable[int], cols: int | None = None, piv: dict[int, int] | None = None) -> int:
    """Pivot columns, as an int, of the ``rows`` at the indices ``picks``,
    each masked to ``cols`` (None: unmasked), taken in that order.  Their
    echelon rows go into ``piv``, keyed on ``bit_length()``, when a dict
    is given."""
    if piv is None:
        piv = {}
    heads = 0
    for c in picks:
        x = rows[c] if cols is None else rows[c] & cols
        while x and (p := piv.get(h := x.bit_length())):
            x ^= p
        if x:
            piv[h] = x
            heads |= 1 << h
    return heads >> 1


def rank_of_words(words: list[int], ncols: int) -> int:
    """GF(2) rank of the rows ``words`` over ``ncols`` columns."""
    return echelon(words, range(len(words))).bit_count()


def rref_of_words(words: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced echelon form.  Returns (nonzero rows, pivot columns), both
    ordered by ascending pivot column; each pivot column is set in its own
    row only."""
    piv: dict[int, int] = {}
    pivots = bits_of(echelon(words, range(len(words)), piv=piv))
    rows: list[int] = []
    for p in pivots:
        x = piv[p + 1]
        # rows[k] holds no pivot column but its own, so clearing one pivot
        # column never sets another; higher pivots lie above x's top bit
        for k, y in enumerate(rows):
            if (x >> pivots[k]) & 1:
                x ^= y
        rows.append(x)
    return rows, pivots


def left_nullspace_of_words(words: list[int], ncols: int) -> list[int]:
    """Basis of the left null space of ``words``, in echelon form.

    Each basis vector is an int over the row indices of ``words``: bit r
    set means row r is in a set of rows that sums to zero.  They are the
    echelon rows of the rows augmented with their identity, data above bit
    ``len(words)``, that are left with no data.
    """
    nr = len(words)
    piv: dict[int, int] = {}
    echelon([(x << nr) | (1 << r) for r, x in enumerate(words)], range(nr), piv=piv)
    return [x for x in piv.values() if not x >> nr]


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

    def transpose(self) -> "GF2Matrix":
        cols = [0] * self.ncols
        for i, x in enumerate(self.words):
            for j in bits_of(x):
                cols[j] |= 1 << i
        return GF2Matrix(self.ncols, self.nrows, cols)

    def __repr__(self) -> str:
        return f"GF2Matrix({self.nrows}x{self.ncols})"
