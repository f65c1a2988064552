"""Randomized invariant checks over generated inputs."""
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnt import (
    SimplicialComplex,
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

from conftest import (
    dense_gf2_rank,
    dense_span_kernel_dim,
    mu_contribution_oracle,
    oracle_betti,
    packed_gf2_rank,
    random_sphere,
)

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
        dense = dense_span_kernel_dim(S, sub, i)
        assert eng.span_kernel_dim(eng.span_selection(word), i) == induced_kernel_dim(S, A, i) == dense


def _face_masks(eng, s, w, top):
    """Per dimension from dim s (0 for the empty s) up to ``top``, the int
    over the engine's face list of the faces holding ``s`` and lying inside
    ``w``; cut at the first empty dimension."""
    out = []
    for j in range(max(len(s) - 1, 0), top + 1):
        x = sum(1 << c for c, f in enumerate(eng.faces[j]) if set(s) <= set(f) <= w)
        if not x:
            break
        out.append(x)
    return out


def _uncleared_dense_ranks(eng, masks, base):
    """Ranks of every masked boundary matrix, built from the face lists and
    reduced densely: for t >= 1 the faces of ``masks[t]`` against the faces
    of ``masks[t - 1]``, with no row left out."""
    ranks = [0] * (len(masks) + 1)
    for t in range(1, len(masks)):
        j = base + t
        cols = [f for c, f in enumerate(eng.faces[j - 1]) if (masks[t - 1] >> c) & 1]
        rows = [f for c, f in enumerate(eng.faces[j]) if (masks[t] >> c) & 1]
        ranks[t] = dense_gf2_rank([[int(set(g) <= set(f)) for g in cols] for f in rows])
    return ranks


def _check_cleared_ranks(K, rng):
    eng = engine(K)
    verts = set(K.vertices)
    d = K.dim
    # vertex spans, cut at every jmax
    for jmax in range(d + 1):
        w = {v for v in verts if rng.random() < 0.6}
        inside, ranks, _ = eng.span_selection(eng.word_of(w), jmax)
        assert inside == _face_masks(eng, (), w, jmax)
        assert ranks == _uncleared_dense_ranks(eng, inside, 0), (w, jmax)
    # the star of a single vertex, whole and inside a random span (as the
    # mu contributions select it), and the stars of faces (link homology)
    for v in verts:
        for w in (verts, {v} | {u for u in verts if rng.random() < 0.5}):
            masks = _face_masks(eng, (v,), w, d)
            assert eng._masked_ranks(masks, 0) == _uncleared_dense_ranks(eng, masks, 0), (v, w)
    faces = [f for j in range(1, d + 1) for f in eng.faces[j]]
    for s in rng.sample(faces, min(6, len(faces))):
        masks = _face_masks(eng, s, verts, d)
        assert eng._masked_ranks(masks, len(s) - 1) == _uncleared_dense_ranks(eng, masks, len(s) - 1), s


def _scattered_complex(rng, n):
    """A non-pure, disconnected complex on n vertices with scattered labels:
    random simplices of up to five vertices and one isolated vertex."""
    labels = sorted(rng.sample(range(1, 4 * n), n))
    facets = [rng.sample(labels[:-1], rng.randint(2, min(5, n - 1))) for _ in range(n)]
    K = SimplicialComplex(facets + [[v] for v in labels])
    assert not K.is_pure and K.connectivity() > 1
    return K


# The span tables take 5 vertex positions per chunk: one short chunk, one
# full, a full one and one of a vertex, two full and one of a vertex, and
# fourteen (the 70-vertex path too).
@pytest.mark.parametrize("n", [4, 5, 6, 11, 70])
def test_span_tables_match_face_lists(n):
    rng = random.Random(n)
    complexes = [_scattered_complex(rng, n)]
    if n == 70:
        complexes.append(SimplicialComplex([[i, i + 1] for i in range(1, 70)]))
    cut = 0
    for K in complexes:
        eng = engine(K)
        verts, vpos = K.vertices, eng._vertex_faces()[1]
        spans = [set(), set(verts), {verts[-1]}, set(verts[::8])]
        spans += [{v for v in verts if rng.random() < p} for p in (0.2, 0.5, 0.8) for _ in range(4)]
        for w in spans:
            # bits above the vertex positions are ignored: -1 selects every vertex
            word = eng.word_of(w)
            high = -1 << n if len(w) == n else rng.getrandbits(9) << n
            for top in range(K.dim + 1):
                masks = eng._span_masks(word, top)
                assert masks == _face_masks(eng, (), w, top), (sorted(w), top)
                assert eng._span_masks(word | high, top) == masks, (sorted(w), top)
                cut += len(masks) <= top
            # stars: the faces holding a face s, inside the span and outside it
            faces = K.faces(rng.randrange(K.dim + 1))
            for s in rng.sample(faces, min(2, len(faces))):
                for u in (w, w | set(s)):
                    holding = [vpos[v] for v in s]
                    assert eng._span_masks(eng.word_of(u), K.dim, holding) == _face_masks(eng, s, u, K.dim), (s, u)
    assert cut > 0  # some spans' top dimensions are empty


@settings(max_examples=100, deadline=None)
@given(bit_matrices, st.integers(0, 2**90 - 1), st.integers(0, 2**8 - 1), st.randoms(use_true_random=False))
def test_span_rank_pivots_match_rref(bits, cols, sel, rnd):
    ncols = len(bits[0])
    rows = [sum(b << j for j, b in enumerate(r)) for r in bits]
    sel &= (1 << len(rows)) - 1
    picked = [r for c, r in enumerate(rows) if sel >> c & 1]
    eng = engine(from_facets([[1]]))
    perm = list(range(len(rows)))
    rnd.shuffle(perm)
    moved = [0] * len(rows)
    for c, r in enumerate(rows):
        moved[perm[c]] = r
    msel = sum(1 << perm[c] for c in range(len(rows)) if sel >> c & 1)
    for mask in (None, cols):
        kept = picked if mask is None else [r & mask for r in picked]
        # c is a pivot when some row sum has its top bit at c: keeping the
        # columns from c on has a larger rank than keeping those above c
        ranks = [packed_gf2_rank([r >> c for r in kept]) for c in range(ncols + 1)]
        got = eng.span_rank(sel, rows, mask)
        assert got == sum(1 << c for c in range(ncols) if ranks[c] > ranks[c + 1])
        # the same rows in another order have the same pivots
        assert eng.span_rank(msel, moved, mask) == got


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 4]))
def test_cleared_ranks_match_dense_oracle_on_spheres(seed, d):
    rng = random.Random(seed)
    _check_cleared_ranks(random_sphere(rng, d), rng)


@settings(max_examples=60, deadline=None)
@given(facet_lists, st.integers(0, 10**6))
def test_cleared_ranks_match_dense_oracle_on_small_complexes(raw, seed):
    _check_cleared_ranks(from_facets(raw), random.Random(seed))


@settings(max_examples=60, deadline=None)
@given(facet_lists, st.integers(0, 10**6))
def test_span_kernels_match_dense_oracle_on_small_complexes(raw, seed):
    # random complexes, most of them non-pure or disconnected: every degree
    # of a random span, cut at every jmax, where the cut leaves it exact
    K = from_facets(raw)
    eng = engine(K)
    rng = random.Random(seed)
    for jmax in range(K.dim + 1):
        w = [v for v in K.vertices if rng.random() < 0.6]
        span = eng.span_selection(eng.word_of(w), jmax)
        for i in range(jmax if jmax < K.dim else K.dim + 1):
            assert eng.span_kernel_dim(span, i) == dense_span_kernel_dim(K, w, i), (w, jmax, i)


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
