import os
import random
import subprocess
import sys
import textwrap
import types
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnt import (
    AmbientPolytope,
    SimplicialComplex,
    betti_numbers,
    boundary_simplex,
    central_symmetry,
    cross_polytope_boundary,
    cyclic_polytope_boundary,
    dataset,
    hamiltonian_check,
    is_polar,
    kuehnel_series,
    lacunary_tight_pattern,
    mu_vector,
    simplicial_product,
    stacked_sphere,
    stackedness_certificate,
    stellar_subdivide,
    tight_neighborly_check,
    tightness_verify,
    walkup_class_membership,
)
from tnt import gf2, homology, morse, symmetry
from tnt.morse import _admissible_masks, _family_size, _sampled_subsets

from conftest import (
    admissible_subsets,
    as_vertex_maps,
    decode_mask,
    dense_span_kernel_dim,
    homology_manifold_oracle,
    random_sphere,
    replay_oracle,
    span_failures,
)

SRC = Path(__file__).resolve().parents[1] / "src"


# -- mu vectors ----------------------------------------------------------------


def test_mu_vector_boundary_simplex():
    B = boundary_simplex(4)
    mv = mu_vector(B, [1, 2, 3, 4, 5])
    assert tuple(mv) == (1, 0, 0, 1)
    assert is_polar(mv)
    assert len(mv.per_vertex) == 5


def test_mu_vector_ordering_validation():
    B = boundary_simplex(3)
    with pytest.raises(ValueError):
        mu_vector(B, [1, 2, 3])  # not all vertices
    with pytest.raises(ValueError):
        mu_vector(B, [1, 2, 3, 3])
    with pytest.raises(ValueError):
        mu_vector(SimplicialComplex([[1, 2, 3], [4, 5]]), [1, 2, 3, 4, 5])


def test_mu_vector_morse_relations_random_orderings():
    rng = random.Random(41)
    for M in (cross_polytope_boundary(3), dataset('walkup_M3'), stacked_sphere(3, 8, seed=2)):
        chi = M.euler_characteristic()
        betti = betti_numbers(M).betti
        verts = list(M.vertices)
        for _ in range(30):
            order = verts[:]
            rng.shuffle(order)
            mu = tuple(mu_vector(M, order))
            assert sum((-1) ** i * m for i, m in enumerate(mu)) == chi
            assert all(m >= b for m, b in zip(mu, betti))


def test_mu_vector_duality_on_closed_manifolds():
    rng = random.Random(42)
    for M in (cross_polytope_boundary(4), dataset('walkup_M3')):
        d = M.dim
        verts = list(M.vertices)
        for _ in range(10):
            rng.shuffle(verts)
            mu_f = tuple(mu_vector(M, verts))
            mu_r = tuple(mu_vector(M, verts[::-1]))
            assert all(mu_f[i] == mu_r[d - i] for i in range(d + 1))


def test_mu_vector_per_vertex_sums():
    W = dataset('walkup_M3')
    order = sorted(W.vertices)
    mv = mu_vector(W, order)
    assert [v for v, _ in mv.per_vertex] == order
    total = [0] * (W.dim + 1)
    for _, contrib in mv.per_vertex:
        for i, c in enumerate(contrib):
            total[i] += c
    assert tuple(total) == tuple(mv)


def test_mu_vector_walkup_is_perfect():
    W = dataset('walkup_M3')
    rng = random.Random(43)
    verts = list(W.vertices)
    for _ in range(25):
        rng.shuffle(verts)
        assert tuple(mu_vector(W, verts)) == (1, 1, 1, 1)


def test_mu_vector_on_a_ball_telescopes_to_one():
    P = dataset('walkup_P')
    rng = random.Random(44)
    verts = list(P.vertices)
    for _ in range(10):
        rng.shuffle(verts)
        mu = tuple(mu_vector(P, verts))
        assert sum((-1) ** i * m for i, m in enumerate(mu)) == 1


# After a warm-up batch fills the link and engine caches, the child caps
# its address space 12 MB above what it holds.  3,000 further orderings of
# M6_16 make about 31,000 distinct (vertex, lower set) keys, some 26 MB
# unbounded, so they fit only if the mu contribution cache stays bounded.
MU_CACHE_SCRIPT = textwrap.dedent(
    """
    import os, random, resource
    from tnt import dataset, from_facets, homology, mu_vector

    M = from_facets(dataset("M6_16").facets)
    rng = random.Random(5)
    verts = list(M.vertices)

    def run(n):
        for _ in range(n):
            order = verts[:]
            rng.shuffle(order)
            mu = mu_vector(M, order).mu
            assert sum((-1) ** i * m for i, m in enumerate(mu)) == 4, mu

    run(100)
    with open("/proc/self/statm") as f:
        size = int(f.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    resource.setrlimit(resource.RLIMIT_AS, (size + (12 << 20), size + (12 << 20)))
    run(3000)
    assert len(M._cache["mu_contrib"]) == homology._MU_CACHE_CAP
    print("ok")
    """
)


def test_mu_contribution_cache_is_bounded():
    proc = subprocess.run(
        [sys.executable, "-c", MU_CACHE_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


def test_mu_contribution_cache_evicts_oldest(monkeypatch):
    from tnt import homology

    monkeypatch.setattr(homology, "_MU_CACHE_CAP", 3)
    B = boundary_simplex(3)
    lowers = [frozenset(), frozenset({2}), frozenset({2, 3}), frozenset({2, 3, 4})]
    got = [homology.relative_mu_contribution(B, 1, w) for w in lowers]
    assert list(B._cache["mu_contrib"]) == [(1, w) for w in lowers[1:]]
    # an evicted entry is recomputed to the same value
    assert homology.relative_mu_contribution(B, 1, lowers[0]) == got[0]
    assert list(B._cache["mu_contrib"]) == [(1, w) for w in lowers[2:] + lowers[:1]]


# -- polarity and lacunarity -----------------------------------------------------


def test_is_polar_cases():
    assert is_polar((1, 0, 0, 1))
    assert is_polar((1, 3, 0, 3, 1))
    assert not is_polar((2, 0, 0, 1))
    assert not is_polar((1, 0, 0, 2))


def test_lacunary_pattern_pins():
    assert lacunary_tight_pattern((1, 0, 0, 1))
    assert lacunary_tight_pattern((1, 3, 0, 3, 1))
    assert not lacunary_tight_pattern((1, 0, 1, 0, 1))
    assert not lacunary_tight_pattern((1, 1, 1, 1))
    assert not lacunary_tight_pattern((1, 2, 0, 3, 1))  # symmetry broken


# -- admissible subsets -----------------------------------------------------------


def test_admissible_subsets_simplex_ambient():
    B = boundary_simplex(3)
    amb = AmbientPolytope.simplex(4)
    subs = admissible_subsets(B, amb)
    assert len(subs) == 16
    assert subs[0] == ()
    assert subs == sorted(subs, key=lambda w: (len(w), w))


def test_admissible_subsets_cross_ambient_count():
    O = cross_polytope_boundary(3)
    amb = AmbientPolytope.cross([(1, 2), (3, 4), (5, 6)])
    subs = admissible_subsets(O, amb)
    # 3 diagonals: 3^3 + 3^3 - 2^3 = 46
    assert len(subs) == 46
    seen = set(subs)
    assert len(seen) == 46
    # the all-vertices subset is admissible in the >=1 family
    assert tuple(O.vertices) in seen
    # subsets violating both families are excluded
    assert (1, 2, 3) not in seen or all(
        len(set(w) & {1, 2}) <= 1 and len(set(w) & {3, 4}) <= 1 and len(set(w) & {5, 6}) <= 1
        for w in [(1, 2, 3)]
    )


@pytest.mark.parametrize("kind", ["simplex", "cross"])
def test_sampled_subsets_uniform(kind):
    # single draws from many seeds: every admissible subset about equally often
    if kind == "simplex":
        M, amb = boundary_simplex(2), AmbientPolytope.simplex(3)
    else:
        M, amb = cross_polytope_boundary(2), AmbientPolytope.cross([(1, 2), (3, 4)])
    family = admissible_subsets(M, amb)
    draws = 700 * len(family)
    counts = Counter(decode_mask(M, w) for s in range(draws) for w in _sampled_subsets(M, amb, 1, random.Random(s)))
    assert set(counts) == set(family)
    # 700 expected per subset, standard deviation below 27
    assert all(560 < c < 840 for c in counts.values()), counts


def test_sampled_subsets_small_family():
    O = cross_polytope_boundary(3)
    amb = AmbientPolytope.cross([(1, 2), (3, 4), (5, 6)])
    family = list(_admissible_masks(O, amb))
    assert _sampled_subsets(O, amb, 1000, random.Random(1)) == family
    dense = _sampled_subsets(O, amb, 40, random.Random(1))
    assert len(set(dense)) == 40 and set(dense) <= set(family)
    decoded = [decode_mask(O, w) for w in dense]
    assert decoded == sorted(decoded, key=lambda w: (len(w), w))
    assert _sampled_subsets(O, amb, 0, random.Random(1)) == []
    with pytest.raises(ValueError):
        _sampled_subsets(O, amb, -1, random.Random(1))


# The child caps its own address space, so an input that starts enumerating
# the 2^40 (simplex) or about 7e9 (cross) admissible subsets fails with a
# MemoryError instead of exhausting the machine.
LARGE_INPUT_SCRIPT = textwrap.dedent(
    """
    import random, resource, time
    resource.setrlimit(resource.RLIMIT_AS, (768 << 20, 768 << 20))
    from tnt import AmbientPolytope, stacked_sphere, tightness_verify
    from tnt.morse import _sampled_subsets

    M = stacked_sphere(2, 40, seed=3)
    assert len(M.vertices) == 40
    edges = M.face_set(1)
    # a perfect matching of non-edges: each vertex meets its least free non-neighbour
    free, diagonals = list(M.vertices), []
    while free:
        a = free.pop(0)
        b = next(v for v in free if (a, v) not in edges)
        free.remove(b)
        diagonals.append((a, b))
    ambients = {"simplex": AmbientPolytope.simplex(40), "cross": AmbientPolytope.cross(diagonals)}

    def admissible(w, kind):
        if kind == "simplex":
            return set(w) <= set(M.vertices)
        hits = [len(set(w) & set(d)) for d in diagonals]
        return max(hits) <= 1 or min(hits) >= 1

    for kind, amb in ambients.items():
        t = time.perf_counter()
        try:
            tightness_verify(M, amb)
            raise AssertionError("no ceiling error")
        except ValueError as e:
            assert "ceiling" in str(e), e
        assert time.perf_counter() - t < 2.0, "ceiling error was slow"

        subs = _sampled_subsets(M, amb, 500, random.Random(11))
        assert len(subs) == len(set(subs)) == 500
        decoded = [tuple(v for p, v in enumerate(M.vertices) if w >> p & 1) for w in subs]
        assert decoded == sorted(decoded, key=lambda w: (len(w), w))
        assert all(admissible(w, kind) for w in decoded)
        assert subs == _sampled_subsets(M, amb, 500, random.Random(11))
        assert subs != _sampled_subsets(M, amb, 500, random.Random(12))

        rep = tightness_verify(M, amb, sample=200, seed=5)
        assert not rep.exhaustive and 1 <= rep.subsets_checked <= 200
        assert rep.to_json() == tightness_verify(M, amb, sample=200, seed=5).to_json()
        if rep.witness is not None:
            assert admissible(rep.witness[0], kind)
    print("ok")
    """
)


def test_tightness_large_input_is_lazy():
    proc = subprocess.run(
        [sys.executable, "-c", LARGE_INPUT_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


def test_admissible_count_eight_diagonals():
    M = dataset('M6_16')
    amb = AmbientPolytope.cross(M.missing_faces(1))
    subs = admissible_subsets(M, amb)
    assert len(subs) == 3**8 + 3**8 - 2**8 == 12866


def test_ambient_validation():
    O = cross_polytope_boundary(3)
    with pytest.raises(ValueError):
        AmbientPolytope.cross([(1, 2), (3, 4)]).validate_for(O)  # misses 5,6
    with pytest.raises(ValueError):
        AmbientPolytope.cross([(1, 3), (2, 4), (5, 6)]).validate_for(O)  # (1,3) is an edge
    with pytest.raises(ValueError):
        AmbientPolytope.simplex(5).validate_for(O)
    AmbientPolytope.simplex(6).validate_for(boundary_simplex(5))


# -- tightness ---------------------------------------------------------------------


def test_tightness_boundary_simplex():
    B = boundary_simplex(4)
    rep = tightness_verify(B, AmbientPolytope.simplex(5))
    assert rep.tight and rep.exhaustive
    assert rep.subsets_checked == 32
    assert rep.witness is None


def test_tightness_walkup():
    W = dataset('walkup_M3')
    rep = tightness_verify(W, AmbientPolytope.simplex(9))
    assert rep.tight
    assert rep.subsets_checked == 512
    assert rep.exhaustive


def test_tightness_witness_cyclic():
    C = cyclic_polytope_boundary(4, 6)
    rep = tightness_verify(C, AmbientPolytope.simplex(6))
    assert not rep.tight
    w, i, kd = rep.witness
    assert w == (1, 3, 5) and i == 1 and kd >= 1


def test_tightness_first_witness_in_size_lex_order():
    # a disconnected span is the earliest possible witness kind
    K = SimplicialComplex([[1, 2], [2, 3], [3, 4], [4, 1]])  # 4-cycle
    rep = tightness_verify(K, AmbientPolytope.simplex(4), i_max=1)
    assert not rep.tight
    w, i, kd = rep.witness
    assert w == (1, 3) and i == 0
    assert kd == 1  # one extra component


def test_tightness_octahedron_cross_ambient():
    O = cross_polytope_boundary(3)
    amb = AmbientPolytope.cross([(1, 2), (3, 4), (5, 6)])
    rep = tightness_verify(O, amb)
    assert rep.tight and rep.subsets_checked == 46
    assert rep.ambient_kind == "cross"


def test_tightness_octahedron_simplex_ambient_fails():
    # an antipodal vertex pair spans a disconnected subcomplex: earliest witness
    O = cross_polytope_boundary(3)
    rep = tightness_verify(O, AmbientPolytope.simplex(6))
    assert not rep.tight
    w, i, kd = rep.witness
    assert w == (1, 2) and i == 0 and kd == 1


def test_tightness_requires_connected_input():
    K = SimplicialComplex([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        tightness_verify(K, AmbientPolytope.simplex(4))


def test_tightness_sampled_mode():
    M = dataset('M6_16')
    amb = AmbientPolytope.cross(M.missing_faces(1))
    rep = tightness_verify(M, amb, ceiling=10, sample=40, seed=5)
    assert rep.subsets_checked == 40
    assert not rep.exhaustive
    rep2 = tightness_verify(M, amb, ceiling=10, sample=40, seed=5)
    assert rep2.to_json() == rep.to_json()
    with pytest.raises(ValueError):
        tightness_verify(M, amb, ceiling=10)  # sampled mode needs sample+seed


def test_sampled_run_needs_a_subset():
    # a sampled run of no subset would be a vacuous verdict
    M = dataset("M6_16")
    amb = AmbientPolytope.cross(M.missing_faces(1))
    with pytest.raises(ValueError, match=r"sample= \(at least 1\)"):
        tightness_verify(M, amb, ceiling=10, sample=0, seed=5)
    # an exhaustive run ignores sample
    O = cross_polytope_boundary(3)
    rep = tightness_verify(O, AmbientPolytope.simplex(6), sample=0, seed=5)
    assert rep.exhaustive and rep.to_json() == tightness_verify(O, AmbientPolytope.simplex(6)).to_json()


# -- complement duality ------------------------------------------------------------


def _family(K, ambient):
    """The admissible family in (size, lex) order, filtered from all subsets."""
    verts = K.vertices
    subsets = [w for size in range(len(verts) + 1) for w in combinations(verts, size)]
    if ambient.kind == "simplex":
        return subsets
    out = []
    for w in subsets:
        hits = [len(set(w) & set(dg)) for dg in ambient.diagonals]
        if max(hits) <= 1 or min(hits) >= 1:
            out.append(w)
    return out


def _assert_duality_and_full_sweep(K, ambient, dense=False):
    """W at i and V - W at d - 1 - i have equal kernel dimensions, so W
    fails at i exactly when V - W fails at d - 1 - i: by the oracle and by
    the complement's span in the engine on every subset and degree, and,
    if ``dense``, by ``dense_span_kernel_dim`` on every subset of a family
    of at most 256, else on a seeded 128 of them.  The sweep reports what a
    plain full sweep of the oracle finds."""
    family = _family(K, ambient)
    fails = span_failures(K, family)
    kernel = {(w, i): kd for w, i, kd in fails}
    V, d = set(K.vertices), K.dim
    members = set(family)
    eng = homology.engine(K)
    for w in family:
        comp = tuple(sorted(V - set(w)))
        assert comp in members
        span = eng.span_selection(eng.word_of(comp))
        for i in range(d):
            kd = kernel.get((w, i), 0)
            assert kd == kernel.get((comp, d - 1 - i), 0) == eng.span_kernel_dim(span, d - 1 - i), (w, i)
    dense_family = family if len(family) <= 256 else random.Random(0).sample(family, 128)
    for w in dense_family if dense else ():
        comp = tuple(sorted(V - set(w)))
        for i in range(d):
            kd = dense_span_kernel_dim(K, w, i)
            assert kd == dense_span_kernel_dim(K, comp, d - 1 - i) == kernel.get((w, i), 0), (w, i)
    rep = tightness_verify(K, ambient)
    if fails:
        w = fails[0][0]
        assert not rep.tight and rep.witness == fails[0]
        assert rep.subsets_checked == family.index(w) + 1
    else:
        assert rep.tight and rep.witness is None
        assert rep.subsets_checked == len(family) == _family_size(K, ambient)
    return fails


def _relabel(K, rng):
    verts = list(K.vertices)
    relabel = dict(zip(verts, rng.sample(range(1, 2 * len(verts) + 1), len(verts))))
    return SimplicialComplex([[relabel[v] for v in f] for f in K.facets])


DUALITY_FIXTURES = {
    "cyclic_4_6": lambda: (cyclic_polytope_boundary(4, 6), None),
    "cyclic_3_8": lambda: (cyclic_polytope_boundary(3, 8), None),
    "kuehnel_3": lambda: (kuehnel_series(3), None),
    "kuehnel_4": lambda: (kuehnel_series(4), None),
    "walkup_M3": lambda: (dataset("walkup_M3"), None),
    "cross_4_simplex": lambda: (cross_polytope_boundary(4), None),
    "cross_4_cross": lambda: (cross_polytope_boundary(4), [(1, 2), (3, 4), (5, 6), (7, 8)]),
}


@pytest.mark.parametrize("name", sorted(DUALITY_FIXTURES))
def test_unmasked_span_ranks_match_masked(name):
    # a span's rows lie in the span, so span_selection ranks them whole:
    # masked to the span one dimension down, each rank and pivot is the same
    K = SimplicialComplex(DUALITY_FIXTURES[name]()[0].facets)
    eng = homology.engine(K)
    rng = random.Random(name)
    for _ in range(30):
        w = [v for v in K.vertices if rng.random() < rng.random()]
        inside, ranks, _ = eng.span_selection(eng.word_of(w))
        assert ranks == eng._masked_ranks(inside, 0), w
        for t in range(1, len(inside)):
            rows = eng.boundary_rows(t)
            assert eng.span_rank(inside[t], rows) == eng.span_rank(inside[t], rows, inside[t - 1]), (w, t)


def _fresh_cocycle_rows(eng):
    """:attr:`ChainEngine.cocycle_rows` by the same formula, each d_{i+1}
    eliminated whole by a fresh ``gf2.echelon``."""
    out = []
    for i, b in enumerate(eng.betti()):
        rows = eng.boundary_rows(i) or [0] * eng.f[i]
        if b:
            up, ech = eng.boundary_rows(i + 1), {}
            gf2.echelon(up, range(len(up)), piv=ech)
            free = [c for c in range(eng.f[i]) if c + 1 not in ech]
            cycles = gf2.left_nullspace_of_words([rows[c] for c in free], eng.f[i - 1] if i else 0)
            phis = [1 << free[z.bit_length() - 1] for z in cycles]
            for p in sorted(ech):
                phis = [phi | ((ech[p] & phi).bit_count() & 1) << (p - 1) for phi in phis]
            rows = [(r << b) | c for r, c in zip(rows, gf2.GF2Matrix(b, eng.f[i], phis).transpose().words)]
        out.append((b, rows))
    return out


@pytest.mark.parametrize("name", [*sorted(DUALITY_FIXTURES), "product_3_5"])
def test_cocycle_rows_reuse_the_cleared_elimination(name):
    # the cleared elimination of betti() keeps the echelon rows of a full one
    if name == "product_3_5":
        K = simplicial_product(boundary_simplex(3), boundary_simplex(5))
    else:
        K = SimplicialComplex(DUALITY_FIXTURES[name]()[0].facets)
    eng = homology.engine(K)
    pivs = [{} for _ in range(K.dim + 2)]
    eng.betti(pivs)
    for j in range(1, K.dim + 1):
        rows, ech = eng.boundary_rows(j), {}
        gf2.echelon(rows, range(len(rows)), piv=ech)
        assert pivs[j] == ech, j
    assert eng.cocycle_rows == _fresh_cocycle_rows(eng)


@pytest.mark.parametrize("name", sorted(DUALITY_FIXTURES))
def test_complement_duality_and_full_sweep(name):
    K, diagonals = DUALITY_FIXTURES[name]()
    K = SimplicialComplex(K.facets)
    ambient = AmbientPolytope.simplex(len(K.vertices)) if diagonals is None else AmbientPolytope.cross(diagonals)
    assert homology._is_homology_manifold(K)
    fails = _assert_duality_and_full_sweep(K, ambient, dense=True)
    assert bool(fails) == name.startswith(("cyclic", "cross_4_simplex"))


@pytest.mark.parametrize("name", sorted(DUALITY_FIXTURES))
def test_cut_span_sweep_matches_oracle(name):
    # below the dimension, spans are selected only up to i_max + 1 and the
    # whole family is swept
    K, diagonals = DUALITY_FIXTURES[name]()
    K = SimplicialComplex(K.facets)
    ambient = AmbientPolytope.simplex(len(K.vertices)) if diagonals is None else AmbientPolytope.cross(diagonals)
    family = _family(K, ambient)
    fails = span_failures(K, family)
    for i_max in range(K.dim):
        cut = [f for f in fails if f[1] <= i_max]
        rep = tightness_verify(K, ambient, i_max=i_max)
        assert rep.tight == (not cut), i_max
        if cut:
            assert rep.witness == cut[0]
            assert rep.subsets_checked == family.index(cut[0][0]) + 1
        else:
            assert rep.witness is None and rep.subsets_checked == len(family)


def test_tightness_rejects_negative_i_max(monkeypatch):
    K = SimplicialComplex([[1, 2], [2, 3], [3, 4], [4, 1]])  # 4-cycle
    monkeypatch.setattr("tnt.morse._admissible_masks", None)  # no subset is built
    with pytest.raises(ValueError, match="i_max"):
        tightness_verify(K, AmbientPolytope.simplex(4), i_max=-1)


def test_span_failures_matches_dense_oracle():
    K = cyclic_polytope_boundary(4, 6)
    family = _family(K, AmbientPolytope.simplex(6))
    expect = []
    for w in family:
        for i in range(K.dim):
            kd = dense_span_kernel_dim(K, w, i)
            if kd:
                expect.append((w, i, kd))
    assert span_failures(K, family) == expect and expect


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 4]))
def test_complement_duality_on_random_spheres(seed, d):
    rng = random.Random(seed)
    S = _relabel(random_sphere(rng, d, walk=rng.randrange(8)), rng)
    if len(S.vertices) > 10:
        S = _relabel(random_sphere(rng, d, walk=0), rng)
    assert homology._is_homology_manifold(S)
    _assert_duality_and_full_sweep(S, AmbientPolytope.simplex(len(S.vertices)))


def _suspension(K, a, b):
    return SimplicialComplex([f + (a,) for f in K.facets] + [f + (b,) for f in K.facets])


NON_MANIFOLDS = {
    # two tetrahedron boundaries sharing vertex 1: its link is two circles
    "wedge": lambda: SimplicialComplex(
        list(boundary_simplex(3).facets) + [tuple(v + 3 if v > 1 else 1 for v in f) for f in boundary_simplex(3).facets]
    ),
    # the apexes have the 7-vertex torus as link
    "suspended_torus": lambda: _suspension(kuehnel_series(2), 8, 9),
    # the apexes have two disjoint triangles as link
    "suspended_triangles": lambda: _suspension(SimplicialComplex([[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]]), 7, 8),
}


class _SweepSpy:
    """The chain engine as ``tightness_verify`` sees it: span_selection
    records each subset, span_betti marks every span tight, and all else
    is the real engine's."""

    def __init__(self, eng, seen):
        self._eng, self._seen = eng, seen

    def __getattr__(self, name):
        return getattr(self._eng, name)

    def span_selection(self, wmask, jmax=None):
        self._seen.append(tuple(v for p, v in enumerate(self._eng.K.vertices) if wmask >> p & 1))
        return self._eng.span_selection(wmask, jmax)

    def span_betti(self, span):
        return (1,)


def _spy_sweep(monkeypatch, K, ambient, orbits=False, **kw):
    """Run the sweep with every span checked as tight, recording the
    subsets that reach span_selection.  Only the engine that
    ``tightness_verify`` fetches through ``morse.homology.engine`` is
    spied on, so other callers of the engine, such as the manifold
    precondition, run unstubbed.  Unless ``orbits``, the automorphism
    search finds nothing, so no subset is skipped as an image."""
    seen = []
    spy_homology = types.SimpleNamespace(**vars(homology))
    spy_homology.engine = lambda M: _SweepSpy(homology.engine(M), seen)
    monkeypatch.setattr(morse, "homology", spy_homology)
    if not orbits:
        monkeypatch.setattr(symmetry, "_some_automorphisms", lambda M, count=0: [])
    rep = tightness_verify(K, ambient, **kw)
    monkeypatch.undo()
    return rep, seen


@pytest.mark.parametrize("name", sorted(NON_MANIFOLDS))
def test_non_manifolds_sweep_the_full_family(name, monkeypatch):
    K = NON_MANIFOLDS[name]()
    assert K.is_pure and K.pseudomanifold_check().closed and K.connectivity() == 1
    assert not homology._is_homology_manifold(K)
    ambient = AmbientPolytope.simplex(len(K.vertices))
    family = _family(K, ambient)
    rep, seen = _spy_sweep(monkeypatch, K, ambient)
    assert seen == family[1:]
    assert rep.tight and rep.subsets_checked == len(family)
    # unstubbed, the sweep agrees with the oracle's full sweep
    fails = span_failures(K, family)
    assert tightness_verify(K, ambient).witness == fails[0]


@pytest.mark.parametrize("name", sorted(NON_MANIFOLDS))
def test_orbit_sweep_skips_only_images_of_passes(name, monkeypatch):
    # with every span tight, a family subset is skipped only as the image,
    # under a map of the search, of a computed subset of 3 or more vertices
    K = NON_MANIFOLDS[name]()
    ambient = AmbientPolytope.simplex(len(K.vertices))
    family = _family(K, ambient)
    rep, seen = _spy_sweep(monkeypatch, K, ambient, orbits=True)
    maps = as_vertex_maps(K, symmetry._some_automorphisms(K))
    assert maps and len(seen) < len(family) - 1
    assert rep.tight and rep.subsets_checked == len(family)
    images = {tuple(sorted(g[v] for v in w)) for w in seen if len(w) > 2 for g in maps}
    computed = set(seen)
    assert len(computed) == len(seen) and computed <= set(family)
    assert all(w in images for w in family[1:] if w not in computed)


def test_half_sweep_only_on_the_manifold_precondition(monkeypatch):
    K = SimplicialComplex(kuehnel_series(3).facets)
    n = len(K.vertices)
    ambient = AmbientPolytope.simplex(n)
    family = _family(K, ambient)
    rep, seen = _spy_sweep(monkeypatch, K, ambient)
    assert seen == [w for w in family[1:] if 2 * len(w) <= n]
    assert rep.tight and rep.subsets_checked == len(family)
    # i_max below the dimension: the lower half, then the complements of
    # the upper half
    rep, seen = _spy_sweep(monkeypatch, K, ambient, i_max=K.dim - 1)
    upper = [tuple(sorted(set(K.vertices) - set(w))) for w in family if 2 * len(w) > n]
    assert seen == [w for w in family[1:] if 2 * len(w) <= n] + upper
    assert rep.subsets_checked == len(family)
    # no manifold: the full family at every i_max
    X = NON_MANIFOLDS["suspended_torus"]()
    family = _family(X, AmbientPolytope.simplex(len(X.vertices)))
    for i_max in range(X.dim):
        rep, seen = _spy_sweep(monkeypatch, X, AmbientPolytope.simplex(len(X.vertices)), i_max=i_max)
        assert seen == family[1:] and rep.subsets_checked == len(family)
    # a sampled run draws from the full family
    M = SimplicialComplex(dataset("M6_16").facets)
    amb = AmbientPolytope.cross(M.missing_faces(1))
    rep, seen = _spy_sweep(monkeypatch, M, amb, ceiling=10, sample=40, seed=5)
    assert seen == [decode_mask(M, w) for w in _sampled_subsets(M, amb, 40, random.Random(5))] and not rep.exhaustive
    assert any(2 * len(w) > len(M.vertices) for w in seen)


def test_sampled_sweeps_search_no_automorphisms(monkeypatch):
    def refuse(M):
        raise AssertionError("searched for automorphisms")

    monkeypatch.setattr(symmetry, "_some_automorphisms", refuse)
    G = SimplicialComplex(combinations(range(1, 37), 2))  # every span is connected
    rep = tightness_verify(G, AmbientPolytope.simplex(36), sample=300, seed=1)
    assert rep.tight and not rep.exhaustive and rep.subsets_checked == 300
    M = SimplicialComplex(dataset("M6_16").facets)
    rep = tightness_verify(M, AmbientPolytope.cross(M.missing_faces(1)), ceiling=15, sample=50, seed=2)
    assert not rep.exhaustive and rep.tight


def test_early_failures_search_little():
    # (1, 3, 5) fails after at most five passing triples: the first pass
    # searches once, for 63 of the 71 non-identity maps; a non-edge fails
    # before any search
    C = SimplicialComplex(cyclic_polytope_boundary(4, 6).facets)
    assert tightness_verify(C, AmbientPolytope.simplex(6)).witness == ((1, 3, 5), 1, 1)
    assert len(C._cache["some_automorphisms"]) == 63
    X = SimplicialComplex(cross_polytope_boundary(4).facets)
    assert tightness_verify(X, AmbientPolytope.simplex(8)).witness == ((1, 2), 0, 1)
    assert "some_automorphisms" not in X._cache


def test_huge_group_sweep_is_unreduced(monkeypatch):
    # boundary_simplex(8) has 9! automorphisms: 63 of them mark images
    B = SimplicialComplex(boundary_simplex(8).facets)
    rep = tightness_verify(B, AmbientPolytope.simplex(9))
    assert len(symmetry._some_automorphisms(B)) == 63
    assert rep.tight and rep.subsets_checked == 2**9
    monkeypatch.setattr(symmetry, "_some_automorphisms", lambda M, count=0: [])
    assert tightness_verify(SimplicialComplex(B.facets), AmbientPolytope.simplex(9)).to_json() == rep.to_json()


def _precondition_others():
    return [
        dataset("walkup_P"),  # a ball: not closed
        SimplicialComplex([[1, 2, 3], [3, 4]]),  # not pure
        SimplicialComplex([[1], [2]]),  # dimension 0
        _suspension(kuehnel_series(3), 10, 11),  # the apex links have b_1 = 1
    ]


def test_homology_manifold_precondition():
    manifolds = [
        boundary_simplex(2),  # a circle
        boundary_simplex(4),
        cross_polytope_boundary(3),
        cyclic_polytope_boundary(5, 9),
        kuehnel_series(2),
        kuehnel_series(5),
        dataset("walkup_M3"),
        dataset("M6_16"),
        stacked_sphere(4, 9, seed=1),
    ]
    for M in manifolds:
        assert homology._is_homology_manifold(SimplicialComplex(M.facets)), M
    for K in _precondition_others():
        assert not homology._is_homology_manifold(K), K
    K = SimplicialComplex(kuehnel_series(3).facets)
    homology._is_homology_manifold(K)
    assert K._cache["homology_manifold"] is True
    assert not any(isinstance(key, tuple) and key[0] == "link" for key in K._cache)


def test_homology_manifold_matches_oracle_on_fixtures():
    complexes = [DUALITY_FIXTURES[name]()[0] for name in sorted(DUALITY_FIXTURES)]
    complexes += [NON_MANIFOLDS[name]() for name in sorted(NON_MANIFOLDS)]
    complexes += _precondition_others()
    for K in complexes:
        K = SimplicialComplex(K.facets)
        assert homology._is_homology_manifold(K) == homology_manifold_oracle(K), K


def _non_edge_matching(K):
    """Diagonals of a cross ambient for K: a perfect matching of its
    vertices by non-edges, or None when there is none."""
    edges = K.face_set(1)

    def match(rest):
        if not rest:
            return []
        for b in rest[1:]:
            if (rest[0], b) not in edges:
                m = match([v for v in rest[1:] if v != b])
                if m is not None:
                    return [(rest[0], b), *m]
        return None

    return match(list(K.vertices))


ORBIT_FIXTURES = {
    **{name: lambda f=f: f()[0] for name, f in DUALITY_FIXTURES.items() if name != "cross_4_cross"},
    **NON_MANIFOLDS,
    "kuehnel_4_relabelled": lambda: _relabel(kuehnel_series(4), random.Random(4)),
}


@pytest.mark.parametrize("name", sorted(ORBIT_FIXTURES))
def test_orbit_sweep_matches_unreduced_sweep_and_oracle(name, monkeypatch):
    # at every i_max and on both ambients where K has a cross ambient, the
    # sweep that skips images under automorphisms reports what the sweep
    # without them and the oracle's full sweep report
    K = SimplicialComplex(ORBIT_FIXTURES[name]().facets)
    maps = as_vertex_maps(K, symmetry._some_automorphisms(K))
    diagonals = _non_edge_matching(K)
    ambients = [AmbientPolytope.simplex(len(K.vertices))]
    ambients += [AmbientPolytope.cross(diagonals)] if diagonals else []
    assert bool(diagonals) == (name in ("cross_4_simplex", "suspended_triangles"))
    for ambient in ambients:
        family = _family(K, ambient)
        fails = span_failures(K, family)
        if ambient.kind == "simplex":  # each map permutes the failures
            assert maps
            for g in maps:
                assert {(tuple(sorted(g[v] for v in w)), i, kd) for w, i, kd in fails} == set(fails)
        for i_max in range(K.dim + 1):
            cut = [f for f in fails if f[1] <= i_max]
            expect = (False, cut[0], family.index(cut[0][0]) + 1) if cut else (True, None, len(family))
            rep = tightness_verify(K, ambient, i_max=i_max)
            with monkeypatch.context() as m:
                m.setattr(symmetry, "_some_automorphisms", lambda M, count=0: [])
                unreduced = tightness_verify(SimplicialComplex(K.facets), ambient, i_max=i_max)
            assert (rep.tight, rep.witness, rep.subsets_checked) == expect, (ambient.kind, i_max)
            assert rep.to_json() == unreduced.to_json()


def test_orbit_manifold_check_matches_oracle(monkeypatch):
    # symmetric non-manifolds: one face per orbit finds the bad link
    complexes = [NON_MANIFOLDS[name]() for name in sorted(NON_MANIFOLDS)]
    complexes += [_suspension(kuehnel_series(3), 10, 11), _suspension(cross_polytope_boundary(3), 7, 8)]
    for K in complexes:
        K = SimplicialComplex(K.facets)
        assert symmetry._some_automorphisms(K)
        with monkeypatch.context() as m:
            m.setattr(symmetry, "_some_automorphisms", lambda M, count=0: [])
            unreduced = homology._homology_manifold(K)
        assert homology._homology_manifold(K) == unreduced == homology_manifold_oracle(K), K


def test_orbit_marks_hold_one_size(monkeypatch):
    # an automorphism keeps a set's size and the sweep goes by size, so a
    # mark of a new size drops the old marks: the sweep still computes one
    # span per orbit of passing subsets, 273 on the series manifold
    marks, sizes, spans = symmetry._orbit_marks, [], []

    def spy(K):
        passed, mark = marks(K)

        def checked(positions):
            mark(positions)
            sizes.append({w.bit_count() for w in passed})

        return passed, checked

    selection = homology.ChainEngine.span_selection
    monkeypatch.setattr(symmetry, "_orbit_marks", spy)
    monkeypatch.setattr(homology.ChainEngine, "span_selection", lambda eng, *a: spans.append(a[0]) or selection(eng, *a))
    K = _relabel(kuehnel_series(5), random.Random(5))
    rep = tightness_verify(K, AmbientPolytope.simplex(13))
    assert rep.tight and rep.subsets_checked == 8192
    assert len(spans) == 273
    assert sizes and all(len(s) == 1 for s in sizes)
    assert [min(s) for s in sizes] == sorted(min(s) for s in sizes) and min(sizes[0]) == 3 < min(sizes[-1])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 4]))
def test_homology_manifold_matches_oracle_on_random_spheres(seed, d):
    rng = random.Random(seed)
    S = _relabel(random_sphere(rng, d, walk=rng.randrange(8)), rng)
    n, top = len(S.vertices), max(S.vertices)
    expect = {S: True}
    if n <= 9:
        expect[_suspension(S, top + 1, top + 2)] = True
    if n + d + 1 <= 11:
        # glued to the boundary of a (d+1)-simplex at S's top vertex
        b = boundary_simplex(d + 1)
        expect[SimplicialComplex(list(S.facets) + [tuple(top + v - 1 for v in f) for f in b.facets])] = False
    for K, manifold in expect.items():
        assert len(K.vertices) <= 11
        assert homology._is_homology_manifold(K) == homology_manifold_oracle(K) == manifold, K


def test_admissible_masks_match_independent_families():
    # decoded, the masks are plain combinations (simplex) or a product of
    # choices per diagonal (cross), in (size, lex) order, at every size bound
    O = cross_polytope_boundary(4)
    shuffle = dict(zip(O.vertices, [1, 5, 2, 7, 3, 8, 4, 6]))  # diagonals (1, 5), (2, 7), (3, 8), (4, 6)
    O = SimplicialComplex([[shuffle[v] for v in f] for f in O.facets])
    M = dataset("M6_16")
    cases = [
        (cyclic_polytope_boundary(4, 9), AmbientPolytope.simplex(9)),
        (O, AmbientPolytope.cross([(1, 5), (2, 7), (3, 8), (4, 6)])),
        (M, AmbientPolytope.cross(M.missing_faces(1))),
    ]
    for K, amb in cases:
        n = len(K.vertices)
        if amb.kind == "simplex":
            family = [w for k in range(n + 1) for w in combinations(K.vertices, k)]
        else:
            per = [[(), (a,), (b,)] for a, b in amb.diagonals], [[(a,), (b,), (a, b)] for a, b in amb.diagonals]
            family = sorted({tuple(sorted(sum(c, ()))) for p in per for c in product(*p)}, key=lambda w: (len(w), w))
        assert len(family) == _family_size(K, amb)
        bounds = [(lo, hi) for lo in range(n + 2) for hi in range(lo - 1, n + 2)] if n < 10 else [(0, 8), (9, 16)]
        for lo, hi in bounds:
            got = [decode_mask(K, w) for w in _admissible_masks(K, amb, lo, hi)]
            assert got == [w for w in family if lo <= len(w) <= hi], (lo, hi)
        assert [decode_mask(K, w) for w in _admissible_masks(K, amb)] == family


def test_admissible_subsets_size_cap():
    for K, amb in (
        (boundary_simplex(4), AmbientPolytope.simplex(5)),
        (cross_polytope_boundary(4), AmbientPolytope.cross([(1, 2), (3, 4), (5, 6), (7, 8)])),
    ):
        full = admissible_subsets(K, amb)
        assert len(full) == _family_size(K, amb) == len(_family(K, amb))
        for cap in range(len(K.vertices) + 2):
            assert admissible_subsets(K, amb, cap) == [w for w in full if len(w) <= cap]


# -- membership, hamiltonicity, neighborliness --------------------------------------


def test_walkup_class_membership_certifies_links():
    W = dataset('walkup_M3')
    rep = walkup_class_membership(W, 1, budget=50000, seed=0)
    assert rep.certified
    assert rep.k == 1
    assert set(rep.per_vertex) == set(W.vertices)


def test_walkup_class_membership_rejects_octahedron_ambient_k():
    O = cross_polytope_boundary(3)
    with pytest.raises(ValueError):
        walkup_class_membership(O, 2, budget=1000, seed=0)  # links are 1-spheres, k must be <= 1


def test_walkup_class_membership_exact_route_stops_at_first_failed_link():
    # links of a 3-sphere are 2-spheres, so k = 2 takes the exact route; the
    # link of 1 is the tetrahedron boundary on 2345, while 2 gains the new
    # vertex 6 and so goes over the ceiling of 4 vertices: the check stops there
    M = stellar_subdivide(boundary_simplex(4), (2, 3, 4, 5), 6)
    rep = walkup_class_membership(M, 2, ceiling=4)
    assert (rep.certified, rep.route) == (False, "exact")
    assert rep.per_vertex == {1: "yes", 2: "aborted"}
    assert walkup_class_membership(M, 2, ceiling=5).per_vertex == {v: "yes" for v in M.vertices}


def test_walkup_class_membership_exact_route_decides_each_orbit_once(monkeypatch):
    # 1 and 6 swap, as do 2, 3, 4 and 5: two links are decided
    M = stellar_subdivide(boundary_simplex(4), (2, 3, 4, 5), 6)
    decided = []
    exact = morse.k_stacked_exact
    monkeypatch.setattr(morse, "k_stacked_exact", lambda S, *a, **kw: decided.append(S) or exact(S, *a, **kw))
    rep = walkup_class_membership(M, 2, ceiling=5)
    assert rep.certified and list(rep.per_vertex) == list(M.vertices)
    assert decided == [M.link((1,)), M.link((2,))]


ORBIT_CASES = {
    "M6_16": (lambda: dataset("M6_16"), 2),
    "walkup_M3": (lambda: dataset("walkup_M3"), 1),
    **{f"kuehnel_{d}": (lambda d=d: kuehnel_series(d), 1) for d in (5, 6, 7, 8)},
}


@pytest.mark.parametrize("name", ORBIT_CASES)
def test_relabelled_link_certificates_replay_on_their_own_links(name):
    # each orbit's least vertex keeps its own search; every other vertex's
    # certificate, relabelled from it, must take its own link to a simplex
    # boundary under the plain-set replay of conftest, with both hashes
    make, k = ORBIT_CASES[name]
    M = make()
    orbits = symmetry._vertex_orbits(M)
    mates = [w for w, (v, _) in orbits.items() if v != w]
    assert mates
    for seed in (1, 2, 3):
        rep = walkup_class_membership(M, k, seed=seed)
        assert rep.certified and list(rep.per_vertex) == list(M.vertices)
        for w, cert in rep.per_vertex.items():
            S = M.link((w,))
            end = replay_oracle(S.facets, [(mv.A, mv.B) for mv in cert.moves])
            assert isinstance(end, set), (w, end)
            left = set().union(*end)
            assert len(left) == len(end) == S.dim + 2 and all(len(f) == S.dim + 1 for f in end)
            assert cert.start == S.canonical_hash()
            assert cert.end == SimplicialComplex(sorted(tuple(sorted(f)) for f in end)).canonical_hash()
            v = orbits[w][0]
            if v == w:
                assert cert.dumps() == stackedness_certificate(S, k, seed=seed * 65537 + v).dumps()
            else:
                assert len(cert.moves) == len(rep.per_vertex[v].moves)


def test_failed_orbit_searches_leave_their_mates_unknown(monkeypatch):
    # with no budget every search fails at once: one search per orbit, and
    # every vertex reports "unknown", in vertex order
    M = dataset("M6_16")
    searched = []
    search = morse.stackedness_certificate
    monkeypatch.setattr(morse, "stackedness_certificate", lambda S, *a, **kw: searched.append(S) or search(S, *a, **kw))
    rep = walkup_class_membership(M, 2, budget=0)
    assert not rep.certified
    assert rep.to_json()["links"] == {str(v): {"status": "unknown"} for v in M.vertices}
    assert len(searched) == 8


def _bipyramid(n):
    """The suspension of the n-cycle 1..n, with apexes n + 1 and n + 2."""
    return SimplicialComplex([(i, i % n + 1, a) for i in range(1, n + 1) for a in (n + 1, n + 2)])


@pytest.mark.parametrize("case", ["no_nodes", "above_32_vertices"])
def test_membership_without_orbits_searches_every_link(case, monkeypatch):
    # with singleton orbits every vertex is searched with its own seed, and
    # the verdict is the one the orbits give
    if case == "no_nodes":
        M, k = dataset("M6_16"), 2
        with_orbits = walkup_class_membership(SimplicialComplex(M.facets), k, seed=4)
        monkeypatch.setattr(symmetry, "_SOME_NODES", 0)
    else:
        M, k = _bipyramid(34), 1
        with_orbits = None
    M = SimplicialComplex(M.facets)
    rep = walkup_class_membership(M, k, seed=4)
    assert all(v == w for w, (v, _) in symmetry._vertex_orbits(M).items())
    assert rep.certified and (with_orbits is None or with_orbits.certified)
    for v, cert in rep.per_vertex.items():
        assert cert.dumps() == stackedness_certificate(M.link((v,)), k, seed=4 * 65537 + v).dumps()


def test_hamiltonian_check_cross():
    M = dataset('M6_16')
    amb = AmbientPolytope.cross(M.missing_faces(1))
    assert hamiltonian_check(M, 2, amb)
    assert not hamiltonian_check(M, 3, amb)


def test_hamiltonian_check_simplex():
    C = cyclic_polytope_boundary(4, 6)
    amb = AmbientPolytope.simplex(6)
    assert hamiltonian_check(C, 1, amb)  # 2-neighborly
    assert not hamiltonian_check(C, 2, amb)  # (1,3,5) missing


def test_central_symmetry_wrapper():
    O = cross_polytope_boundary(3)
    sym = central_symmetry(O)
    assert sym == {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5}
    assert central_symmetry(boundary_simplex(3)) is None


def test_tight_neighborly_check_kuehnel():
    for d, f0 in ((3, 9), (4, 11)):
        rep = tight_neighborly_check(kuehnel_series(d))
        assert rep.equality
        assert rep.bound == f0 and rep.f0 == f0
        assert rep.two_neighborly
        assert rep.field == "GF2"


def test_tight_neighborly_check_surface():
    rep = tight_neighborly_check(kuehnel_series(2))
    assert rep.dim == 2
    assert rep.bound == 7 and rep.equality


def test_tight_neighborly_check_notes_counts_below_bound():
    # the complete graph on 6 vertices with one triangle: chi = 6 - 15 + 1,
    # so the Heawood form asks for 12 vertices, and beta1 = 15 - 5 - 1
    K = SimplicialComplex(list(combinations(range(1, 7), 2)) + [(1, 2, 3)])
    rep = tight_neighborly_check(K)
    assert (rep.dim, rep.f0, rep.beta1, rep.bound) == (2, 6, 9, 12)
    assert not rep.equality and rep.two_neighborly
    assert rep.note == "below bound: no manifold with this beta1 admits so few vertices"


def test_tight_neighborly_check_boundary_simplex():
    # beta_1 = 0: the bound degenerates to d+2, attained by the simplex boundary
    rep = tight_neighborly_check(boundary_simplex(4))  # a 3-sphere on 5 vertices
    assert rep.dim == 3
    assert rep.beta1 == 0
    assert rep.bound == 5
    assert rep.equality


# -- the source paper's theorem as a cross-check of the sweep ---------------------

THEOREM_FIXTURES = {
    **{f"kuehnel_{d}": (lambda d=d: kuehnel_series(d)) for d in (2, 3, 4, 5)},
    **{f"simplex_{d}": (lambda d=d: boundary_simplex(d)) for d in (4, 5)},
    "cyclic_4_6": lambda: cyclic_polytope_boundary(4, 6),
    "cyclic_5_8": lambda: cyclic_polytope_boundary(5, 8),
    "cross_4": lambda: cross_polytope_boundary(4),
    "walkup_M3": lambda: dataset("walkup_M3"),
    "walkup_P": lambda: dataset("walkup_P"),
    "M6_16": lambda: dataset("M6_16"),
}


def _tight_neighborly(K):
    """2-neighborly with every vertex link certified stacked (so in
    Walkup's class K(d)), each read from its own code path."""
    return K.is_k_neighborly(2) and walkup_class_membership(K, 1).certified


def test_tight_neighborly_fixtures_sweep_tight():
    # the source paper (arXiv 0911.5037): in dimension d >= 4, tight-neighborly
    # triangulations are tight; the exhaustive simplex-ambient sweep must agree
    covered = []
    for name, make in sorted(THEOREM_FIXTURES.items()):
        K = make()
        if K.dim >= 4 and _tight_neighborly(K):
            rep = tightness_verify(K, AmbientPolytope.simplex(len(K.vertices)))
            assert rep.tight and rep.exhaustive and rep.witness is None, name
            covered.append(name)
    assert {"kuehnel_4", "kuehnel_5"} <= set(covered)


def test_tight_neighborly_theorem_needs_d_at_least_4():
    # the control: 2-neighborly with stacked links, yet of dimension 3 and not tight
    C = cyclic_polytope_boundary(4, 6)
    assert C.dim == 3 and _tight_neighborly(C)
    rep = tightness_verify(C, AmbientPolytope.simplex(6))
    assert not rep.tight and rep.witness == ((1, 3, 5), 1, 1)
