"""Randomized invariant checks over generated inputs."""
import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from tnt import (
    apply_move,
    betti_numbers,
    from_facets,
    from_json,
    from_text,
    induced_kernel_dim,
    mu_vector,
    relative_mu_contribution,
    simplex,
    stacked_sphere,
    to_json,
    to_text,
    valid_moves,
)
from tnt.gf2 import GF2Matrix
from tnt.homology import engine

from conftest import dense_gf2_rank, mu_contribution_oracle, oracle_betti, random_sphere

facet_lists = st.lists(
    st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True),
    min_size=1,
    max_size=8,
)

bit_matrices = st.integers(1, 8).flatmap(
    lambda m: st.integers(1, 90).flatmap(
        lambda n: st.lists(
            st.lists(st.booleans(), min_size=n, max_size=n), min_size=m, max_size=m
        )
    )
)


# -- complex construction ------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(facet_lists)
def test_facets_are_maximal_and_cover_input(raw):
    K = from_facets(raw)
    inputs = {tuple(sorted(set(r))) for r in raw}
    for f in K.facets:
        # nothing in the complex strictly contains a facet
        assert not any(set(f) < set(g) for g in K.facets)
    for s in inputs:
        assert any(set(s) <= set(f) for f in K.facets)
    assert K.vertices == tuple(sorted({v for r in raw for v in r}))


@settings(max_examples=60, deadline=None)
@given(facet_lists)
def test_f_vector_counts_downward_closure(raw):
    K = from_facets(raw)
    faces = set()
    for f in K.facets:
        for r in range(1, len(f) + 1):
            faces.update(combinations(f, r))
    fv = K.f_vector()
    assert sum(fv) == len(faces)
    for j, cnt in enumerate(fv):
        assert cnt == sum(1 for s in faces if len(s) == j + 1)
    assert K.euler_characteristic() == sum(
        (-1) ** (len(s) - 1) for s in faces
    )


@settings(max_examples=60, deadline=None)
@given(facet_lists)
def test_text_and_json_round_trips(raw):
    K = from_facets(raw)
    assert from_text(to_text(K)) == K
    assert from_json(to_json(K)) == K
    assert from_text(to_text(K)).canonical_hash() == K.canonical_hash()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=6, unique=True))
def test_simplex_sorts(vs):
    s = simplex(vs)
    assert s == tuple(sorted(vs))


# -- GF(2) algebra -------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(bit_matrices)
def test_rank_matches_dense_oracle(rows):
    ncols = len(rows[0])
    A = GF2Matrix(len(rows), ncols, [sum(b << j for j, b in enumerate(r)) for r in rows])
    r = A.rank()
    assert r == dense_gf2_rank([[int(b) for b in row] for row in rows])
    assert r == A.transpose().rank()
    assert r <= min(A.nrows, A.ncols)


@settings(max_examples=50, deadline=None)
@given(bit_matrices)
def test_nullspace_annihilates(rows):
    ncols = len(rows[0])
    A = GF2Matrix(len(rows), ncols, [sum(b << j for j, b in enumerate(r)) for r in rows])
    null = A.nullspace()
    assert null.nrows == A.ncols - A.rank()
    for k in range(null.nrows):
        vec = [(null.words[k] >> j) & 1 for j in range(ncols)]
        for row in rows:
            assert sum(int(a) & b for a, b in zip(row, vec)) & 1 == 0


# -- bistellar moves --------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 3))
def test_move_then_inverse_is_identity(seed, pick):
    rng = random.Random(seed)
    d = rng.choice([2, 3])
    S = stacked_sphere(d, d + 3 + rng.randrange(3), seed=seed)
    moves = valid_moves(S)
    if not moves:
        return
    mv = moves[pick % len(moves)]
    T = apply_move(S, mv)
    assert apply_move(T, mv.inverse()) == S
    assert betti_numbers(T).betti == betti_numbers(S).betti


# -- homology ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(facet_lists)
def test_betti_matches_dense_oracle(raw):
    K = from_facets(raw)
    assert betti_numbers(K).betti == oracle_betti(K)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_span_kernel_routes_agree(seed):
    rng = random.Random(seed)
    S = stacked_sphere(2, 6 + rng.randrange(3), seed=seed)
    verts = list(S.vertices)
    sub = tuple(sorted(rng.sample(verts, rng.randrange(2, len(verts)))))
    eng = engine(S)
    word = eng.word_of(sub)
    A = S.span(sub)
    for i in range(1, S.dim + 1):
        assert eng.span_kernel_dim(eng.span_selection(word), i) == induced_kernel_dim(S, A, i)


def _check_mu_contributions(K, rng):
    # lower sets draw from K's vertices, outside lk(v) too, and from labels
    # that are no vertex of K
    labels = list(K.vertices) + [max(K.vertices) + 1, max(K.vertices) + 2]
    for v in K.vertices:
        lower = frozenset(u for u in labels if u != v and rng.random() < 0.5)
        assert relative_mu_contribution(K, v, lower) == mu_contribution_oracle(K, v, lower), (v, lower)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 4]))
def test_mu_contribution_matches_oracle_on_spheres(seed, d):
    rng = random.Random(seed)
    _check_mu_contributions(random_sphere(rng, d), rng)


@settings(max_examples=60, deadline=None)
@given(facet_lists, st.integers(0, 10**6))
def test_mu_contribution_matches_oracle_on_small_complexes(raw, seed):
    _check_mu_contributions(from_facets(raw), random.Random(seed))


# -- morse theory -------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_morse_relations_random_spheres(seed):
    rng = random.Random(seed)
    d = rng.choice([2, 3])
    S = stacked_sphere(d, d + 3 + rng.randrange(4), seed=seed)
    order = list(S.vertices)
    rng.shuffle(order)
    mv = mu_vector(S, order)
    betti = betti_numbers(S).betti
    assert sum((-1) ** i * m for i, m in enumerate(mv.mu)) == S.euler_characteristic()
    assert all(m >= b for m, b in zip(mv.mu, betti))
    # vertex contributions account for the whole vector
    totals = [0] * (S.dim + 1)
    for _, contrib in mv.per_vertex:
        for i, c in enumerate(contrib):
            totals[i] += c
    assert tuple(totals) == mv.mu
