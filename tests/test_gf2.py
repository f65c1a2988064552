import random

from conftest import dense_gf2_rank
from tnt.gf2 import (
    GF2Matrix,
    bits_of,
    left_nullspace_of_words,
    rank_of_words,
    rref_of_words,
)


def random_dense(rng, nr, nc):
    return [[rng.randint(0, 1) for _ in range(nc)] for _ in range(nr)]


def to_matrix(dense, nc):
    return GF2Matrix(len(dense), nc, [sum(b << j for j, b in enumerate(row)) for row in dense])


def test_pack_bool_little_endian():
    # bit j of a row int is column j, with no word boundary at 64
    assert to_matrix([[1, 0, 0, 1]], 4).words == [0b1001]
    m = to_matrix([[int(j == 64) for j in range(130)], [int(j in (0, 129)) for j in range(130)]], 130)
    assert m.words == [1 << 64, (1 << 129) | 1]
    assert bits_of(m.words[1]) == [0, 129]


def test_rank_against_dense_oracle():
    rng = random.Random(1)
    for _ in range(200):
        nr = rng.randint(0, 14)
        nc = rng.randint(1, 200)
        dense = random_dense(rng, nr, nc)
        m = to_matrix(dense, nc)
        assert m.rank() == dense_gf2_rank(dense)


def test_rank_does_not_mutate():
    rng = random.Random(2)
    dense = random_dense(rng, 8, 70)
    m = to_matrix(dense, 70)
    before = list(m.words)
    m.rank()
    rref_of_words(m.words, 70)
    left_nullspace_of_words(m.words, 70)
    assert m.words == before


def test_rref_pivots_and_idempotence():
    rng = random.Random(3)
    for _ in range(50):
        nr, nc = rng.randint(1, 10), rng.randint(1, 100)
        dense = random_dense(rng, nr, nc)
        m = to_matrix(dense, nc)
        rows, pivots = rref_of_words(m.words, nc)
        assert len(pivots) == m.rank()
        assert sorted(pivots) == pivots
        # each pivot column has exactly one set bit across the rref rows
        for k, col in enumerate(pivots):
            bits = [(row >> col) & 1 for row in rows]
            assert sum(bits) == 1 and bits[k] == 1
        # the rows span the same space and are already reduced
        assert rank_of_words(rows + m.words, nc) == len(rows) == rank_of_words(rows, nc)
        assert rref_of_words(rows, nc) == (rows, pivots)


def test_left_nullspace_marks_zero_row_combinations():
    rng = random.Random(6)
    for _ in range(60):
        nr, nc = rng.randint(1, 12), rng.randint(1, 60)
        dense = random_dense(rng, nr, nc)
        m = to_matrix(dense, nc)
        ln = left_nullspace_of_words(m.words, nc)
        assert len(ln) == nr - m.rank()
        assert rank_of_words(ln, nr) == len(ln)
        for z in ln:
            acc = [0] * nc
            for r in range(nr):
                if (z >> r) & 1:
                    acc = [a ^ b for a, b in zip(acc, dense[r])]
            assert not any(acc)


def test_transpose_round_trip():
    rng = random.Random(7)
    dense = random_dense(rng, 9, 75)
    m = to_matrix(dense, 75)
    t = m.transpose()
    assert t.shape == (75, 9)
    for i in range(9):
        for j in range(75):
            assert (m.words[i] >> j) & 1 == (t.words[j] >> i) & 1
    assert m.rank() == t.rank()


def test_zero_and_empty_edges():
    assert rank_of_words([], 5) == 0
    assert rref_of_words([], 5) == ([], [])
    assert left_nullspace_of_words([], 5) == []
    z = GF2Matrix(3, 17)
    assert z.rank() == 0
