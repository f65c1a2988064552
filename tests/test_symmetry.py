import random
from itertools import combinations, permutations

import pytest

from conftest import random_sphere
from tnt import (
    SimplicialComplex,
    automorphism_group_order,
    automorphisms,
    boundary_simplex,
    cross_polytope_boundary,
    cyclic_polytope_boundary,
    dataset,
    find_central_involution,
    is_automorphism,
)
from tnt.errors import SearchLimitError


def test_path_graph_automorphisms():
    P = SimplicialComplex([[1, 2], [2, 3]])
    auts = automorphisms(P)
    assert auts == [{1: 1, 2: 2, 3: 3}, {1: 3, 2: 2, 3: 1}]


def test_boundary_simplex_full_symmetric_group():
    B = boundary_simplex(3)
    assert automorphism_group_order(B) == 24


def test_octahedron_group_order():
    # signed permutations of 3 coordinates: 2^3 * 3! = 48
    O = cross_polytope_boundary(3)
    assert automorphism_group_order(O) == 48


def test_is_automorphism():
    B = boundary_simplex(3)
    assert is_automorphism(B, {1: 2, 2: 1, 3: 3, 4: 4})
    K = SimplicialComplex([[1, 2], [2, 3]])
    assert not is_automorphism(K, {1: 2, 2: 1, 3: 3})
    assert not is_automorphism(K, {1: 1, 2: 2})  # not a bijection on vertices


def test_automorphisms_are_sorted_and_contain_identity():
    O = cross_polytope_boundary(3)
    auts = automorphisms(O)
    assert auts[0] == {v: v for v in O.vertices}
    keys = [tuple(a[v] for v in O.vertices) for a in auts]
    assert keys == sorted(keys)


def test_order_cap_raises():
    B = boundary_simplex(5)  # order 5040
    with pytest.raises(SearchLimitError):
        automorphisms(B, order_cap=100)


def test_dataset_automorphism_group():
    M = dataset('M6_16')
    auts = automorphisms(M)
    assert len(auts) == 2
    nontrivial = auts[1]
    assert all(nontrivial[2 * i - 1] == 2 * i and nontrivial[2 * i] == 2 * i - 1 for i in range(1, 9))


def test_central_involution_octahedron():
    O = cross_polytope_boundary(3)
    inv = find_central_involution(O)
    assert inv == {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5}


def test_central_involution_none_cases():
    # boundary simplex: no missing edges, so no fixed-point-free involution
    assert find_central_involution(boundary_simplex(3)) is None
    # odd vertex count
    assert find_central_involution(SimplicialComplex([[1, 2], [2, 3]])) is None


def test_central_involution_is_lex_least():
    # two squares sharing no vertices: several pairings exist; lex-least returned
    K = SimplicialComplex([[1, 3], [3, 2], [2, 4], [4, 1]])
    inv = find_central_involution(K)
    assert inv is not None
    assert inv == {1: 2, 2: 1, 3: 4, 4: 3}


def test_central_involution_m6_16():
    M = dataset('M6_16')
    inv = find_central_involution(M)
    assert inv is not None
    assert all(inv[inv[v]] == v and inv[v] != v for v in M.vertices)
    assert is_automorphism(M, inv)
    # every orbit pair is a missing edge
    for v in M.vertices:
        assert not M.has_face(tuple(sorted((v, inv[v]))))


# -- brute-force oracle ------------------------------------------------------------


def _brute_force(K):
    """Every facet-preserving vertex permutation, by image tuple, and the
    lex-least fixed-point-free involution among them whose pairs are non-edges."""
    verts = K.vertices
    facets = set(K.facets)
    edges = {pair for f in facets for pair in combinations(f, 2)}
    auts = []
    for images in permutations(verts):
        perm = dict(zip(verts, images))
        if all(tuple(sorted(perm[v] for v in f)) in facets for f in facets):
            auts.append(perm)
    central = None
    for perm in auts:
        if all(perm[v] != v and perm[perm[v]] == v and (min(v, perm[v]), max(v, perm[v])) not in edges for v in verts):
            central = perm
            break
    return auts, central


def _small_fixtures():
    yield SimplicialComplex([[1, 2], [2, 3]])
    yield SimplicialComplex([[1, 2], [2, 3], [3, 4], [4, 1]])
    yield SimplicialComplex([[1, 3], [3, 2], [2, 4], [4, 1]])
    yield SimplicialComplex([[1, 2], [3, 4], [5, 6]])
    yield cross_polytope_boundary(3)
    yield boundary_simplex(3)
    yield boundary_simplex(4)
    yield cyclic_polytope_boundary(4, 6)
    yield cyclic_polytope_boundary(4, 7)
    rng = random.Random(1309)
    for _ in range(40):
        S = random_sphere(rng, d=rng.choice([2, 3]), walk=rng.randrange(5))
        if len(S.vertices) <= 7:
            yield S


def test_searches_match_brute_force_oracle():
    checked = 0
    for K in _small_fixtures():
        auts, central = _brute_force(K)
        assert automorphisms(K) == auts
        got = find_central_involution(K)
        if central is None:
            assert got is None
        else:
            # pairs listed smaller member first, in order of the smaller one
            pairs = [(v, w) for v, w in central.items() if v < w]
            assert list(got.items()) == [kv for v, w in pairs for kv in ((v, w), (w, v))]
        checked += 1
    assert checked >= 20


def test_central_involution_key_order_pinned():
    C4 = SimplicialComplex([[1, 2], [2, 3], [3, 4], [4, 1]])
    assert list(find_central_involution(C4).items()) == [(1, 3), (3, 1), (2, 4), (4, 2)]


def test_symmetry_builds_no_link_complexes():
    M = SimplicialComplex(dataset('M6_16').facets)
    automorphisms(M)
    find_central_involution(M)
    assert not [key for key in M._cache if isinstance(key, tuple) and key[0] == "link"]
