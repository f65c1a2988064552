import random
from itertools import combinations

import pytest

from conftest import (
    dense_kernel_dim,
    dense_span_kernel_dim,
    faces_of,
    oracle_betti,
    packed_gf2_rank,
    plain_boundary_rows,
    random_sphere,
    span_failures,
)
from tnt import (
    SimplicialComplex,
    betti_numbers,
    boundary_matrix,
    boundary_simplex,
    cross_polytope_boundary,
    cyclic_polytope_boundary,
    dataset,
    induced_kernel_dim,
    kuehnel_series,
    reduced_betti,
    relative_mu_contribution,
    simplicial_product,
    stacked_sphere,
)
from tnt.homology import ChainEngine, engine


def test_boundary_matrix_shapes():
    B = boundary_simplex(3)
    m1 = boundary_matrix(B, 1)
    assert m1.shape == (4, 6)
    m0 = boundary_matrix(B, 0)
    assert m0.shape == (0, 4)
    m2 = boundary_matrix(B, 2)
    assert m2.shape == (6, 4)


def _check_engine_build(K):
    eng = ChainEngine(K)
    rows, masks = plain_boundary_rows(K)
    assert [eng.boundary_rows(j) for j in range(K.dim + 1)] == rows
    vfaces, vpos = eng._vertex_faces()
    assert vfaces == masks
    assert vpos == {v: p for p, v in enumerate(K.vertices)}


def test_engine_build_matches_plain_rows_on_random_spheres():
    rng = random.Random(71)
    for _ in range(12):
        _check_engine_build(random_sphere(rng, d=rng.choice([1, 2, 3, 4]), walk=rng.randrange(6)))


@pytest.mark.parametrize("name", ["nonpure", "M6_16", "stacked_70"])
def test_engine_build_matches_plain_rows(name):
    K = {
        # lower facets: a triangle, an edge and two isolated vertices
        "nonpure": lambda: SimplicialComplex([[1, 2, 3, 4], [2, 3, 5], [5, 6], [7], [9]]),
        "M6_16": lambda: dataset("M6_16"),
        # 70 vertices, more than 64
        "stacked_70": lambda: stacked_sphere(3, 70, seed=2),
    }[name]()
    _check_engine_build(K)


def test_boundary_matrix_entries():
    K = SimplicialComplex([[1, 2, 3]])
    m = boundary_matrix(K, 2)
    # single column: the three edges of the triangle
    assert m.shape == (3, 1)
    assert [m.words[i] & 1 for i in range(3)] == [1, 1, 1]
    m1 = boundary_matrix(K, 1)
    # edge (1,2) has boundary {1}, {2}
    col0 = [m1.words[i] & 1 for i in range(3)]
    assert col0 == [1, 1, 0]


def test_boundary_squared_is_zero():
    # each (j-1)-face of a (j+1)-face appears in an even number of j-faces
    rng = random.Random(11)
    for _ in range(5):
        S = random_sphere(rng)
        eng = engine(S)
        for j in range(1, S.dim):
            for fac in eng.faces[j + 1]:
                cnt: dict = {}
                for k in range(len(fac)):
                    sub = fac[:k] + fac[k + 1 :]
                    for t in range(len(sub)):
                        ss = sub[:t] + sub[t + 1 :]
                        cnt[ss] = cnt.get(ss, 0) + 1
                assert all(v % 2 == 0 for v in cnt.values())


def test_betti_spheres():
    for d in (2, 3, 4, 5):
        B = boundary_simplex(d + 1)
        expected = tuple(1 if i in (0, d) else 0 for i in range(d + 1))
        assert betti_numbers(B).betti == expected
    O = cross_polytope_boundary(4)
    assert betti_numbers(O).betti == (1, 0, 0, 1)


def test_betti_matches_dense_oracle_on_random_complexes():
    rng = random.Random(12)
    for _ in range(12):
        S = random_sphere(rng, walk=4)
        assert betti_numbers(S).betti == oracle_betti(S)
    # non-manifold input
    K = SimplicialComplex([[1, 2, 3], [1, 2, 4], [1, 2, 5], [6, 7]])
    assert betti_numbers(K).betti == oracle_betti(K)


def test_betti_empty_and_point():
    assert betti_numbers(SimplicialComplex()).betti == ()
    assert betti_numbers(SimplicialComplex()).reduced == (1,)
    pt = SimplicialComplex([[1]])
    assert betti_numbers(pt).betti == (1,)
    assert betti_numbers(pt).reduced == (0, 0)


def test_reduced_betti_convention():
    # two points: unreduced (2,), reduced H_0 has rank 1, shifted by one slot
    K = SimplicialComplex([[1], [2]])
    rep = betti_numbers(K)
    assert rep.betti == (2,)
    assert rep.reduced == (0, 1)
    assert reduced_betti(K) == (0, 1)
    B = boundary_simplex(3)
    assert betti_numbers(B).reduced == (0, 0, 0, 1)


def test_cone_is_acyclic():
    rng = random.Random(13)
    for _ in range(6):
        S = random_sphere(rng, d=2, walk=3)
        apex = max(S.vertices) + 1
        cone = SimplicialComplex([f + (apex,) for f in S.facets])
        rep = betti_numbers(cone)
        assert rep.betti == (1,) + (0,) * cone.dim
        assert all(r == 0 for r in rep.reduced)


def test_torus_and_datasets():
    M = dataset('M6_16')
    assert betti_numbers(M).betti == (1, 0, 1, 0, 1, 0, 1)
    W = dataset('walkup_M3')
    assert betti_numbers(W).betti == (1, 1, 1, 1)
    P = dataset('walkup_P')
    assert betti_numbers(P).betti == (1, 0, 0, 0, 0)


def test_poincare_duality_gf2_on_closed_datasets():
    for name in ('M6_16', 'walkup_M3'):
        M = dataset(name)
        b = betti_numbers(M).betti
        d = M.dim
        assert all(b[i] == b[d - i] for i in range(d + 1)), (name, b)
    for d in (3, 4, 6):
        B = boundary_simplex(d + 1)
        b = betti_numbers(B).betti
        assert all(b[i] == b[d - i] for i in range(d + 1))


def test_facet_count_from_links():
    # each tetrahedron of a 3-complex appears in exactly 4 vertex links as a triangle
    W = dataset('walkup_M3')
    total = sum(W.link((v,)).f_vector()[2] for v in W.vertices)
    assert total == 4 * W.f_vector()[3]
    M = dataset('M6_16')
    total = sum(M.link((v,)).f_vector()[2] for v in M.vertices)
    assert total == 4 * M.f_vector()[3] == 4 * 980


def test_span_betti_matches_direct_computation():
    rng = random.Random(14)
    for _ in range(10):
        S = random_sphere(rng)
        eng = engine(S)
        verts = S.vertices
        w = tuple(v for v in verts if rng.random() < 0.6)
        if not w:
            continue
        got = eng.span_betti(eng.span_selection(eng.word_of(w)))
        direct = oracle_betti(S.span(w))
        direct = direct + (0,) * (len(got) - len(direct))
        assert tuple(got) == direct


def test_induced_kernel_contractible_subcomplex():
    # a single facet of a sphere boundary is contractible: kernels vanish
    B = boundary_simplex(4)
    A = SimplicialComplex([B.facets[0]])
    for i in range(1, 4):
        assert induced_kernel_dim(B, A, i) == 0


def test_induced_kernel_equator():
    # the equator of a suspension carries the fundamental class of the fiber:
    # its cycles bound in the ambient sphere
    O = cross_polytope_boundary(3)
    eq = O.span((3, 4, 5, 6))  # a 4-cycle: the equator square
    k1 = induced_kernel_dim(O, eq, 1)
    assert k1 == 1  # the square bounds in the octahedron
    assert induced_kernel_dim(O, eq, 2) == 0


def test_induced_kernel_rejects_non_subcomplex():
    B = boundary_simplex(3)
    bad = SimplicialComplex([[1, 2, 5]])
    with pytest.raises(ValueError):
        induced_kernel_dim(B, bad, 1)


def test_induced_kernel_two_routes_agree():
    # the span route and the public induced_kernel_dim of the span must
    # both equal the dense oracle, on random subsets (kernels almost all
    # zero) and on subsets with known non-zero kernels
    rng = random.Random(15)
    cases = []
    for _ in range(25):
        S = random_sphere(rng)
        w = tuple(v for v in S.vertices if rng.random() < 0.6)
        if len(w) >= 2:
            cases.append((S, w, None))
    for d in (3, 4, 5):
        # j whole diagonals span a (j-1)-sphere, null-homologous in the (d-1)-sphere
        X = cross_polytope_boundary(d)
        for j in range(2, d):
            for J in combinations(range(1, d + 1), j):
                w = tuple(v for i in J for v in (2 * i - 1, 2 * i))
                cases.append((X, w, {j - 1: 1}))
    C = cyclic_polytope_boundary(4, 6)
    # the tightness witness W = {1, 3, 5} (i = 1) and its complement
    cases += [(C, (1, 3, 5), {1: 1}), (C, (2, 4, 6), {1: 1})]
    nonzero = 0
    for S, w, known in cases:
        eng = engine(S)
        wmask = eng.word_of(w)
        A = S.span(w)
        for i in range(1, S.dim + 1):
            fast = eng.span_kernel_dim(eng.span_selection(wmask), i)
            public = induced_kernel_dim(S, A, i)
            assert fast == public == dense_span_kernel_dim(S, w, i), (w, i, fast, public)
            if known is not None:
                assert fast == known.get(i, 0), (w, i, fast)
            nonzero += fast > 0
    assert nonzero >= 40


def test_induced_kernel_of_subcomplexes_that_are_not_spans():
    # A given by its faces, not by a vertex set, against the dense oracle
    # with "f is a face of A"
    O = cross_polytope_boundary(3)
    t = O.facets[0]
    rim = SimplicialComplex(list(combinations(t, 2)))  # bounds the triangle t
    assert induced_kernel_dim(O, rim, 1) == 1 == dense_kernel_dim(O, faces_of(rim), 1)
    rng = random.Random(18)
    cases = [(O, rim)]
    for _ in range(12):
        S = random_sphere(rng)
        # closures of random facet subsets
        picked = [f for f in S.facets if rng.random() < 0.6] or [S.facets[0]]
        cases.append((S, SimplicialComplex(picked)))
        # skeleta: every j-cycle of S but those of its top dimension is in the kernel
        for j in range(S.dim):
            cases.append((S, SimplicialComplex(S.faces(j))))
    nonzero = 0
    for S, A in cases:
        for i in range(S.dim + 2):
            kd = induced_kernel_dim(S, A, i)
            assert kd == dense_kernel_dim(S, faces_of(A), i), (A.facets, i)
            nonzero += kd > 0
    assert nonzero >= 20


def test_relative_mu_contribution_cases():
    B = boundary_simplex(3)
    # no predecessors: contribution 1 at index 0
    c = relative_mu_contribution(B, 1, frozenset())
    assert c == (1, 0, 0)
    # all others precede vertex 4: its link is a triangle boundary minus nothing...
    c2 = relative_mu_contribution(B, 4, frozenset({1, 2, 3}))
    # span of {1,2,3} inside lk(4) is the full link (a 2-sphere equator = triangle)
    assert c2 == (0, 0, 1)


def test_relative_mu_partial_lower_set():
    O = cross_polytope_boundary(3)
    # lower set hits two adjacent link vertices: contractible span, no contribution
    c = relative_mu_contribution(O, 1, frozenset({3, 5}))
    assert c == (0, 0, 0)
    # lower set hits the two poles of the link 4-cycle: disconnected span
    c2 = relative_mu_contribution(O, 1, frozenset({3, 4}))
    assert c2 == (0, 1, 0)


def test_mu_contribution_cache_key_isolated():
    B = boundary_simplex(3)
    a = relative_mu_contribution(B, 1, frozenset({2}))
    b = relative_mu_contribution(B, 1, frozenset({3}))
    assert a == b  # symmetric roles
    again = relative_mu_contribution(B, 1, frozenset({2}))
    assert a == again


def test_engine_caching():
    B = boundary_simplex(3)
    assert engine(B) is engine(B)


def test_engine_vertex_cap():
    # vertex masks are Python ints: the span engine has no vertex cap
    big = SimplicialComplex([[i, i + 1] for i in range(1, 70)])
    eng = engine(big)
    assert eng.word_of((1, 70)) == 1 | 1 << 69
    assert eng.span_betti(eng.span_selection(eng.word_of((1, 2, 68, 69, 70)))) == (2, 0)


def test_span_betti_beyond_64_vertices():
    rng = random.Random(16)
    S = stacked_sphere(3, 70, seed=16)
    eng = engine(S)
    for _ in range(6):
        w = tuple(v for v in S.vertices if rng.random() < 0.5)
        got = eng.span_betti(eng.span_selection(eng.word_of(w)))
        direct = oracle_betti(S.span(w))
        assert got == direct + (0,) * (len(got) - len(direct))


def test_span_kernel_matches_dense_oracle():
    # an oracle that shares no code with gf2 or ChainEngine
    rng = random.Random(17)
    cases = []
    for _ in range(12):
        S = random_sphere(rng)
        cases.append((S, tuple(v for v in S.vertices if rng.random() < 0.4)))
    for d in (3, 4):
        X = cross_polytope_boundary(d)
        for _ in range(3):
            # whole diagonals span a smaller sphere, which bounds in X
            diags = sorted(rng.sample(range(d), rng.randint(1, d - 1)))
            cases.append((X, tuple(v for k in diags for v in (2 * k + 1, 2 * k + 2))))
    M = dataset("M6_16")
    for _ in range(2):
        cases.append((M, tuple(sorted(rng.sample(M.vertices, rng.randint(4, 12))))))
    nonzero = 0
    for S, w in cases:
        eng = engine(S)
        wmask = eng.word_of(w)
        for i in range(S.dim + 1):
            kd = eng.span_kernel_dim(eng.span_selection(wmask), i)
            assert kd == dense_span_kernel_dim(S, w, i), (w, i)
            nonzero += kd > 0
    assert nonzero >= 6


# -- the pairing with K's cocycles ---------------------------------------------

PAIRING_FIXTURES = {
    # beta_1 = 2
    "torus": lambda: simplicial_product(boundary_simplex(2), boundary_simplex(2)),
    # a tetrahedron boundary and a disjoint octahedron: beta_0 = beta_2 = 2
    "two_spheres": lambda: SimplicialComplex(
        list(boundary_simplex(3).facets) + [tuple(v + 4 for v in f) for f in cross_polytope_boundary(3).facets]
    ),
    # non-pure: a triangle with a hanging circle, a point and a separate circle
    "nonpure": lambda: SimplicialComplex([[1, 2, 3], [3, 4], [4, 5], [3, 5], [6], [7, 8], [8, 9], [7, 9]]),
    # non-pure and connected: a 2-sphere, a filled triangle on one of its
    # edges and a circle through one of its vertices
    "nonpure_sphere": lambda: SimplicialComplex(
        list(boundary_simplex(3).facets) + [[1, 2, 5], [4, 6], [6, 7], [4, 7]]
    ),
    # S^2 x S^1 and the cyclic 3-sphere with a tightness witness
    "kuehnel_3": lambda: kuehnel_series(3),
    "cyclic_4_6": lambda: cyclic_polytope_boundary(4, 6),
}


def _check_pairing(K, subsets, kernel):
    """Every degree of every subset's span, whole and cut at each jmax,
    against ``kernel(w, i)``, an oracle's dim ker(H_i(span w) -> H_i(K))."""
    eng = engine(K)
    nonzero = 0
    for w in subsets:
        word = eng.word_of(w)
        full = eng.span_selection(word)
        bet = eng.span_betti(full)
        kd = [kernel(w, i) for i in range(len(bet))]
        for i in range(-1, K.dim + 2):
            assert eng.span_kernel_dim(full, i) == (kd[i] if 0 <= i < len(bet) else 0), (w, i)
        # image[t] is the rank of H_t(span) -> H_t(K)
        assert full[2][1:] == [bet[t] - kd[t] for t in range(1, len(bet))], w
        nonzero += sum(x > 0 for x in full[2]) + sum(x > 0 for x in kd)
        for jmax in range(K.dim):
            cut = eng.span_selection(word, jmax)
            # the image is exact at every cut dimension, the kernel below it
            assert cut[2] == full[2][: len(cut[0])], (w, jmax)
            for i in range(min(jmax, len(cut[0]))):
                assert eng.span_kernel_dim(cut, i) == kd[i], (w, jmax, i)
    return nonzero


@pytest.mark.parametrize("name", sorted(PAIRING_FIXTURES))
def test_span_kernel_pairing_matches_dense_oracle(name):
    K = PAIRING_FIXTURES[name]()
    subsets = [w for r in range(len(K.vertices) + 1) for w in combinations(K.vertices, r)]
    assert _check_pairing(K, subsets, lambda w, i: dense_span_kernel_dim(K, w, i)) > 0


def test_span_kernel_pairing_on_a_sphere_product():
    # S^2 x S^4 on 24 vertices: one cocycle in each even degree.  Products of
    # vertex sets of the factors span products of spheres and simplices
    P = simplicial_product(boundary_simplex(3), boundary_simplex(5))
    rng = random.Random(19)
    subsets = []
    for a in (range(1, 5), (1, 3, 4)):
        for b in (range(1, 7), (2, 3, 5, 6), (4,)):
            subsets.append(tuple(sorted(6 * (u - 1) + v for u in a for v in b)))
    # spans with a 4-cycle and a 5-cycle that bound in P
    subsets += [(1, 2, 3, 4, 7, 8, 9, 10, 11, 12, 17, 19, 20, 21, 24)]
    subsets += [(1, 4, 5, 6, 7, 8, 12, 13, 14, 15, 17, 20, 21, 22, 23, 24)]
    subsets += [tuple(sorted(rng.sample(P.vertices, rng.randint(3, 16)))) for _ in range(24)]
    fails = {(w, i): kd for w, i, kd in span_failures(P, subsets)}
    assert {i for _, i in fails} >= {0, 1, 4, 5}
    assert _check_pairing(P, subsets, lambda w, i: fails.get((w, i), 0)) >= 10


COCYCLE_FIXTURES = {
    **PAIRING_FIXTURES,
    # S^1 x S^2: beta_1 = beta_2 = 1
    "sphere_product": lambda: simplicial_product(boundary_simplex(2), boundary_simplex(3)),
}


@pytest.mark.parametrize("name", sorted(COCYCLE_FIXTURES))
def test_cocycle_rows_hold_a_cohomology_basis(name):
    K = COCYCLE_FIXTURES[name]()
    eng = engine(K)
    bet = oracle_betti(K)
    for i, (b, rows) in enumerate(eng.cocycle_rows):
        assert b == bet[i]
        faces = K.faces(i)
        index = {f: c for c, f in enumerate(faces)}
        # above the lowest b bits, the rows of d_i (none for i = 0)
        assert [r >> b for r in rows] == (eng.boundary_rows(i) if i else [0] * len(faces))
        co = [r & ((1 << b) - 1) for r in rows]
        # each cocycle sums to zero over the boundary of every (i+1)-face
        for g in K.faces(i + 1) if i < K.dim else []:
            acc = 0
            for k in range(len(g)):
                acc ^= co[index[g[:k] + g[k + 1 :]]]
            assert acc == 0, (i, g)
        # and they are independent modulo the coboundaries
        cob = [sum(1 << c for c, f in enumerate(faces) if set(h) <= set(f)) for h in K.faces(i - 1)] if i else []
        cocycles = [sum((x >> k & 1) << c for c, x in enumerate(co)) for k in range(b)]
        assert packed_gf2_rank(cob + cocycles) == packed_gf2_rank(cob) + b, i
