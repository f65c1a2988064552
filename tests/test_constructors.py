import random
from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from conftest import are_isomorphic, oracle_betti
from tnt import constructors, morse, symmetry
from tnt import (
    SimplicialComplex,
    betti_numbers,
    boundary_complex,
    boundary_simplex,
    connected_sum,
    cross_polytope_boundary,
    cyclic_polytope_boundary,
    dataset,
    dataset_names,
    handle_addition,
    kuehnel_series,
    simplicial_product,
    stacked_sphere,
    stackedness_certificate,
)


def test_boundary_simplex_labels_and_counts():
    B = boundary_simplex(4)
    assert B.vertices == (1, 2, 3, 4, 5)
    assert B.f_vector() == tuple(comb(5, j + 1) for j in range(4))
    assert len(B.facets) == 5
    with pytest.raises(ValueError):
        boundary_simplex(0)


def test_cross_polytope_diagonals():
    O = cross_polytope_boundary(3)
    assert O.f_vector() == (6, 12, 8)
    assert O.missing_faces(1) == [(1, 2), (3, 4), (5, 6)]
    O4 = cross_polytope_boundary(4)
    assert O4.f_vector() == (8, 24, 32, 16)
    assert O4.missing_faces(1) == [(1, 2), (3, 4), (5, 6), (7, 8)]
    assert betti_numbers(O4).betti == (1, 0, 0, 1)


def test_stacked_sphere_properties():
    for seed in range(5):
        S = stacked_sphere(3, 9, seed=seed)
        fv = S.f_vector()
        assert fv[0] == 9
        # stacked 3-sphere: f_3 grows by 3 per extra vertex beyond 5
        assert fv[3] == 5 + 3 * 4
        assert betti_numbers(S).betti == (1, 0, 0, 1)
        assert S.pseudomanifold_check().is_closed_pseudomanifold
    # label contract: new vertices take consecutive labels
    S = stacked_sphere(2, 7, seed=0)
    assert S.vertices == tuple(range(1, 8))
    with pytest.raises(ValueError):
        stacked_sphere(3, 4, seed=0)


def test_stacked_sphere_deterministic_per_seed():
    a = stacked_sphere(4, 11, seed=9)
    b = stacked_sphere(4, 11, seed=9)
    c = stacked_sphere(4, 11, seed=10)
    assert a == b
    assert a != c or a.canonical_hash() == c.canonical_hash()


def test_stacked_sphere_certificates():
    S = stacked_sphere(5, 9, seed=1)
    cert = stackedness_certificate(S, 1, budget=20000, seed=0)
    assert cert is not None


def test_connected_sum():
    A = boundary_simplex(4)
    B = boundary_simplex(4)
    S = connected_sum(A, B, A.facets[0], B.facets[0], [(1, 1), (2, 2), (3, 3), (4, 4)])
    assert S.f_vector() == (6, 14, 16, 8)
    assert betti_numbers(S).betti == (1, 0, 0, 1)


def test_connected_sum_betti_additivity():
    # connected sum of two copies of a handle body boundary adds middle Betti
    W = dataset('walkup_M3')
    f1 = W.facets[0]
    S = connected_sum(W, W, f1, f1, [(v, v) for v in f1])
    b = betti_numbers(S).betti
    assert b[0] == 1 and b[3] == 1
    assert b[1] == 2 and b[2] == 2


def test_handle_addition_guards():
    B = boundary_simplex(4)
    # facets of a simplex boundary overlap: disjointness fails first
    with pytest.raises(ValueError) as ei:
        handle_addition(B, B.facets[0], B.facets[1], [(1, 1), (2, 2), (3, 3), (4, 5)])
    assert "disjoint" in str(ei.value)
    # disjoint but too close: the offending pair is reported
    S = boundary_complex(dataset('walkup_P'))
    with pytest.raises(ValueError) as ei:
        handle_addition(S, (1, 2, 3, 4), (5, 6, 7, 9), [(1, 5), (2, 6), (3, 7), (4, 9)])
    assert "distance" in str(ei.value)


def _bfs_distance(M, a, b):
    """Graph distance of a and b in the 1-skeleton of M, -1 when apart."""
    dist, frontier = {a: 0}, [a]
    while frontier:
        v = frontier.pop(0)
        for e in M.faces(1):
            for x, y in (e, e[::-1]):
                if x == v and y not in dist:
                    dist[y] = dist[v] + 1
                    frontier.append(y)
    return dist.get(b, -1)


def test_handle_distance_guard_matches_a_graph_search():
    # the guard reports the first pair, by facet2 vertex, at distance 1 or
    # 2, as a breadth-first search finds it; pairs in different components
    # pass.  Sorted and rotated pairings of disjoint facet pairs
    T = boundary_simplex(3)
    two = SimplicialComplex(list(T.facets) + [tuple(v + 10 for v in f) for f in T.facets])
    complexes = [boundary_complex(dataset("walkup_P")), stacked_sphere(2, 12, seed=4), stacked_sphere(3, 14, seed=0), two]
    seen = Counter()
    for M in complexes:
        pairs = [(f, g) for f in M.facets for g in M.facets if f < g and not set(f) & set(g)]
        for f, g in pairs[:: max(1, len(pairs) // 20)]:
            for rot in (0, 1):
                pairing = [(f[i], g[(i + rot) % len(g)]) for i in range(len(f))]
                near = [(v, w, dd) for v, w in sorted(pairing, key=lambda p: p[1]) if 0 < (dd := _bfs_distance(M, v, w)) < 3]
                if near:
                    v, w, dd = near[0]
                    with pytest.raises(ValueError, match=rf"^paired vertices \({v}, {w}\) are at graph distance {dd} < 3$"):
                        handle_addition(M, f, g, pairing)
                else:
                    handle_addition(M, f, g, pairing)
                seen[near[0][2] if near else 3] += 1
    assert seen[1] and seen[2] and seen[3], seen


def test_boundary_of_points_is_empty():
    # the only ridge of a point set is the empty face, which no complex holds
    for facets in ([[1]], [[1], [2]]):
        assert boundary_complex(SimplicialComplex(facets)) == SimplicialComplex()
    assert boundary_complex(SimplicialComplex([[1, 2]])) == SimplicialComplex([[1], [2]])


def test_walkup_manifold_from_handle():
    P = dataset('walkup_P')
    S = boundary_complex(P)
    assert S.f_vector() == (13, 42, 58, 29)
    W = handle_addition(S, (1, 2, 3, 4), (10, 11, 12, 13), [(1, 10), (2, 11), (3, 12), (4, 13)])
    assert W.f_vector() == (9, 36, 54, 27)
    assert W == dataset('walkup_M3')


def test_handle_pairing_in_either_order():
    # the pairs may name the facet2 vertex first, and the facets may come
    # larger first: the labels of the smaller facet survive either way
    S = boundary_complex(dataset('walkup_P'))
    f1, f2 = (1, 2, 3, 4), (10, 11, 12, 13)
    forward = [(i, i + 9) for i in range(1, 5)]
    backward = [(i + 9, i) for i in range(1, 5)]
    W = dataset('walkup_M3')
    for a, b in ((f1, f2), (f2, f1)):
        for pairing in (forward, backward, forward[:2] + backward[2:]):
            assert handle_addition(S, a, b, pairing) == W, (a, pairing)


def test_connected_sum_without_pairing_matches_sorted_vertices():
    # without a pairing the first facets' vertices are matched in sorted
    # order, after the second summand is shifted past the first's labels
    T = boundary_simplex(3)
    S = connected_sum(T, T)
    assert S == connected_sum(T, T, (1, 2, 3), (1, 2, 3), [(1, 1), (2, 2), (3, 3)])
    # two tetrahedra glued along 123: the bipyramid over it with apexes 4, 8
    assert S.facets == ((1, 2, 4), (1, 2, 8), (1, 3, 4), (1, 3, 8), (2, 3, 4), (2, 3, 8))
    A = boundary_simplex(4)
    assert connected_sum(A, A) == connected_sum(A, A, A.facets[0], A.facets[0], [(v, v) for v in A.facets[0]])
    assert connected_sum(A, A).f_vector() == (6, 14, 16, 8)


def test_boundary_complex():
    ball = SimplicialComplex([[1, 2, 3], [2, 3, 4]])
    assert boundary_complex(ball).facets == ((1, 2), (1, 3), (2, 4), (3, 4))
    # closed input: empty boundary
    assert boundary_complex(boundary_simplex(3)).dim == -1
    with pytest.raises(ValueError):
        boundary_complex(SimplicialComplex([[1, 2, 3], [4, 5]]))


def test_simplicial_product_counts():
    # product of two intervals: a square split into two triangles
    I = SimplicialComplex([[1, 2]])
    P = simplicial_product(I, I)
    assert P.dim == 2
    assert P.f_vector() == (4, 5, 2)
    # product complexes triangulate the cartesian product
    T = simplicial_product(boundary_simplex(2), boundary_simplex(2))
    assert T.f_vector()[0] == 9
    assert betti_numbers(T).betti == (1, 2, 1)  # the torus


def test_simplicial_product_euler_multiplicativity():
    rng = random.Random(31)
    pairs = [
        (boundary_simplex(2), boundary_simplex(3)),
        (boundary_simplex(3), boundary_simplex(3)),
        (SimplicialComplex([[1, 2], [2, 3]]), boundary_simplex(2)),
    ]
    for A, B in pairs:
        P = simplicial_product(A, B)
        assert P.euler_characteristic() == A.euler_characteristic() * B.euler_characteristic()


def test_simplicial_product_closed_manifold():
    P = simplicial_product(boundary_simplex(3), boundary_simplex(5))
    assert P.dim == 6
    assert P.f_vector()[0] == 24
    assert P.euler_characteristic() == 4
    assert P.pseudomanifold_check().is_closed_pseudomanifold
    assert betti_numbers(P).betti == (1, 0, 1, 0, 1, 0, 1)


def test_cyclic_polytope_boundary():
    C = cyclic_polytope_boundary(4, 6)
    assert C.f_vector() == (6, 15, 18, 9)
    assert C.is_k_neighborly(2)
    assert betti_numbers(C).betti == (1, 0, 0, 1)
    # C(4, 7): still 2-neighborly, f_0 = 7
    C7 = cyclic_polytope_boundary(4, 7)
    assert C7.f_vector()[0] == 7 and C7.is_k_neighborly(2)
    assert betti_numbers(C7).betti == (1, 0, 0, 1)
    # C(2k, n) boundary is k-neighborly
    C36 = cyclic_polytope_boundary(6, 9)
    assert C36.is_k_neighborly(3)
    # n = d+1 degenerates to the simplex boundary
    assert cyclic_polytope_boundary(4, 5) == boundary_simplex(4)
    with pytest.raises(ValueError):
        cyclic_polytope_boundary(4, 4)


def test_cyclic_polytope_gale_pins():
    # d=3, n=6: facets follow Gale evenness; simple sanity pin on counts
    C = cyclic_polytope_boundary(3, 6)
    assert C.f_vector() == (6, 12, 8)
    assert betti_numbers(C).betti == (1, 0, 1)


def _gale_all_pairs(d, n):
    # Gale evenness as stated: every two non-elements of S have an even
    # number of elements of S strictly between them
    facets = []
    for s in combinations(range(1, n + 1), d):
        comp = [v for v in range(1, n + 1) if v not in s]
        if all(sum(lo < x < hi for x in s) % 2 == 0 for lo, hi in combinations(comp, 2)):
            facets.append(s)
    return tuple(facets)


@pytest.mark.parametrize("d", range(2, 7))
def test_cyclic_polytope_matches_all_pairs_gale(d):
    for n in range(d + 1, 13):
        assert cyclic_polytope_boundary(d, n).facets == _gale_all_pairs(d, n), (d, n)


def test_kuehnel_series_self_validation():
    K2 = kuehnel_series(2)
    assert K2.f_vector() == (7, 21, 14)
    assert betti_numbers(K2).betti == (1, 2, 1)
    K3 = kuehnel_series(3)
    assert K3.f_vector() == (9, 36, 54, 27)
    assert betti_numbers(K3).betti == (1, 1, 1, 1)
    K4 = kuehnel_series(4)
    assert K4.f_vector()[0] == 11
    assert K4.is_k_neighborly(2)
    assert betti_numbers(K4).betti == (1, 1, 0, 1, 1)


@pytest.mark.parametrize("orbits", [True, False], ids=["one_orbit", "singleton_orbits"])
def test_kuehnel_validation_names_the_first_uncertified_link(orbits, monkeypatch):
    # the links are certified one search per vertex orbit, the least vertex
    # v of each with the seed v: with the series' one orbit, a failing
    # search of vertex 1 fails every link; with singleton orbits only
    # vertex 5's own search fails, after vertices 1-4 pass
    search = morse.stackedness_certificate
    failing = 1 if orbits else 5
    seeds = []

    def spy(S, k, budget, seed):
        seeds.append(seed)
        return None if seed == failing else search(S, k, budget=budget, seed=seed)

    if not orbits:
        monkeypatch.setattr(symmetry, "_SOME_NODES", 0)
    monkeypatch.setattr(morse, "stackedness_certificate", spy)
    K = SimplicialComplex(kuehnel_series(3).facets)
    with pytest.raises(AssertionError, match=f"series construction: link of {failing} not certified stacked"):
        constructors._validate_kuehnel(K, 3, 9)
    assert seeds == ([1] if orbits else list(K.vertices))
    monkeypatch.setattr(morse, "stackedness_certificate", search)
    constructors._validate_kuehnel(SimplicialComplex(K.facets), 3, 9)


def test_kuehnel_series_cached():
    assert kuehnel_series(3) is kuehnel_series(3)


def test_kuehnel_3_matches_handle_route():
    # the 9-vertex 3-manifold is combinatorially unique; the modular facet
    # rule and the handle construction must agree up to relabeling
    assert are_isomorphic(kuehnel_series(3), dataset('walkup_M3'))


def test_dataset_names_and_errors():
    assert dataset_names() == ["M6_16", "walkup_P", "walkup_M3"]
    with pytest.raises(KeyError):
        dataset("nope")
    # case-insensitive access
    assert dataset("m6_16") == dataset("M6_16")


def test_dataset_caching():
    assert dataset("M6_16") is dataset("M6_16")


def test_packaged_data_matches_repo_data():
    # dataset() reads exactly the files shipped in the package's data directory
    import tnt
    from tnt import load_complex

    pkg_dir = Path(tnt.__file__).parent / "data"
    assert sorted(p.name for p in pkg_dir.iterdir()) == ["M6_16.facets", "walkup_P.facets"]
    for name in ("M6_16", "walkup_P"):
        assert load_complex(str(pkg_dir / f"{name}.facets")) == dataset(name)


def test_m6_16_dataset_shape():
    M = dataset("M6_16")
    assert M.f_vector() == (16, 112, 448, 980, 1232, 840, 240)
    assert M.euler_characteristic() == 4
    assert M.missing_faces(1) == [(2 * i - 1, 2 * i) for i in range(1, 9)]
    assert M.pseudomanifold_check().is_closed_pseudomanifold
