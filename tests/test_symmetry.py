import os
import random
import subprocess
import sys
import textwrap
import time
from itertools import combinations, permutations
from pathlib import Path

import pytest

from conftest import as_vertex_maps, random_sphere
from tnt import (
    AmbientPolytope,
    SimplicialComplex,
    automorphism_group_order,
    automorphisms,
    boundary_simplex,
    cross_polytope_boundary,
    cyclic_polytope_boundary,
    dataset,
    find_central_involution,
    is_automorphism,
    kuehnel_series,
    stacked_sphere,
    tightness_verify,
)
from tnt import symmetry
from tnt.errors import SearchLimitError
from tnt.symmetry import _pair_counts, _signatures, _some_automorphisms


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


def _keys(K, maps):
    return sorted(tuple(g[v] for v in K.vertices) for g in maps)


def _relabelled_spheres(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        S = random_sphere(rng, d=rng.choice([2, 3, 4]), walk=rng.randrange(6))
        image = rng.sample(range(1, 3 * len(S.vertices) + 1), len(S.vertices))
        relabel = dict(zip(S.vertices, image))
        yield SimplicialComplex([[relabel[v] for v in f] for f in S.facets])


def test_some_automorphisms_are_the_whole_small_group():
    # up to order 64 the orbit maps are the whole group but the identity:
    # against the brute-force oracle, and against automorphisms on
    # relabelled random spheres
    checked = 0
    for K, group in [(K, _brute_force(K)[0]) for K in _small_fixtures()] + [
        (K, automorphisms(K)) for K in _relabelled_spheres(30, 2917)
    ]:
        maps = as_vertex_maps(K, _some_automorphisms(SimplicialComplex(K.facets)))
        assert all(is_automorphism(K, g) for g in maps)
        if len(group) <= 64:
            assert _keys(K, maps) == _keys(K, group[1:])
            checked += 1
        else:
            assert len(maps) == 63 and len(set(_keys(K, maps))) == 63
    assert checked >= 50


def test_order_cap_is_checked_before_enumerating(monkeypatch):
    # the search's orbit lengths multiply to the group order, so a group
    # past the cap raises before any map is composed
    monkeypatch.setattr(symmetry, "_group", None)
    X = cross_polytope_boundary(6)  # order 2^6 * 6! = 46080
    start = time.perf_counter()
    with pytest.raises(SearchLimitError, match="exceeds cap 10000"):
        automorphisms(X)
    assert time.perf_counter() - start < 1.0
    monkeypatch.undo()
    assert automorphism_group_order(boundary_simplex(6)) == 5040
    assert automorphism_group_order(cross_polytope_boundary(5), order_cap=3840) == 3840
    with pytest.raises(SearchLimitError, match="exceeds cap 3839"):
        automorphisms(cross_polytope_boundary(5), order_cap=3839)


def _cyclic_triples(n, blocks):
    return SimplicialComplex([sorted((i + a) % n + 1 for a in b) for b in blocks for i in range(n)])


def test_searches_prune_by_facets():
    # every permutation of the Fano plane or the 7-vertex torus keeps each
    # signature and pair count, so only the facets tell automorphisms apart
    for K, order in ((_cyclic_triples(7, [(0, 1, 3)]), 168), (kuehnel_series(2), 42)):
        auts, _ = _brute_force(K)
        assert automorphisms(K) == auts and len(auts) == order


STEINER_13 = textwrap.dedent(
    """
    import time
    from tnt import AmbientPolytope, SimplicialComplex, automorphism_group_order, tightness_verify

    # the cyclic Steiner triple system on 13 points: each pair in one triple
    K = SimplicialComplex([sorted((i + a) % 13 + 1 for a in b) for b in ((0, 1, 4), (0, 2, 7)) for i in range(13)])
    start = time.perf_counter()
    assert automorphism_group_order(K) == 39
    assert tightness_verify(SimplicialComplex(K.facets), AmbientPolytope.simplex(13)).tight
    assert time.perf_counter() - start < 10
    print("ok")
    """
)


def test_uniform_pair_counts_search_is_not_factorial():
    # with pair counts alone the search had 13! leaves; sweeps search too
    proc = subprocess.run(
        [sys.executable, "-c", STEINER_13],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


def test_orbit_search_budget_drops_maps_not_verdicts(monkeypatch):
    # a search cut off early finds fewer maps, each still an automorphism,
    # and a sweep that marks images under them reports the same
    facets = [sorted((i + a) % 13 + 1 for a in b) for b in ((0, 1, 4), (0, 2, 7)) for i in range(13)]
    K = SimplicialComplex(facets)
    full = _some_automorphisms(K)
    report = tightness_verify(K, AmbientPolytope.simplex(13)).to_json()
    monkeypatch.setattr(symmetry, "_SOME_NODES", 300)
    K = SimplicialComplex(facets)
    report_cut = tightness_verify(K, AmbientPolytope.simplex(13)).to_json()
    maps = _some_automorphisms(K)
    assert 0 < len(maps) < len(full) == 38
    assert all(is_automorphism(K, g) for g in as_vertex_maps(K, maps))
    assert report_cut == report
    # the maps found generate a subgroup: with the identity, closed
    # under composition
    keys = {tuple(b.bit_length() - 1 for b in g) for g in maps} | {tuple(range(13))}
    assert {tuple(g[p] for p in h) for g in keys for h in keys} == keys


def test_central_involution_key_order_pinned():
    C4 = SimplicialComplex([[1, 2], [2, 3], [3, 4], [4, 1]])
    assert list(find_central_involution(C4).items()) == [(1, 3), (3, 1), (2, 4), (4, 2)]


def _cycle(n):
    return SimplicialComplex([(i, i % n + 1) for i in range(1, n + 1)])


def test_central_involution_vertex_cap():
    # C_32 is at the cap: its only such involution is the half-turn
    assert find_central_involution(_cycle(32)) == {v: (v + 15) % 32 + 1 for v in range(1, 33)}
    assert find_central_involution(_cycle(33)) is None
    for n in (34, 400):
        start = time.perf_counter()
        with pytest.raises(SearchLimitError, match=f"at most 32 vertices, got {n}"):
            find_central_involution(_cycle(n))
        assert time.perf_counter() - start < 1.0


def test_symmetry_builds_no_link_complexes():
    M = SimplicialComplex(dataset('M6_16').facets)
    automorphisms(M)
    find_central_involution(M)
    assert not [key for key in M._cache if isinstance(key, tuple) and key[0] == "link"]


def test_some_automorphisms_are_true_and_bounded():
    groups = {
        boundary_simplex(8): None,  # order 9!
        cross_polytope_boundary(5): None,  # order 3840
        cyclic_polytope_boundary(6, 12): 24,
        kuehnel_series(5): 26,
        dataset("M6_16"): 2,
        stacked_sphere(3, 12, seed=0): 1,
        _cycle(32): 64,
    }
    for K, order in groups.items():
        K = SimplicialComplex(K.facets)
        maps = as_vertex_maps(K, _some_automorphisms(K))
        assert all(is_automorphism(K, g) for g in maps)
        assert all(any(v != w for v, w in g.items()) for g in maps)
        keys = {tuple(g[v] for v in K.vertices) for g in maps}
        assert len(keys) == len(maps) == min(63, (order or 10**6) - 1)
        if order is not None:  # the whole group but the identity
            assert keys == {tuple(g[v] for v in K.vertices) for g in automorphisms(K)[1:]}
        assert _some_automorphisms(K) is _some_automorphisms(K)  # cached


def test_some_automorphisms_search_once(monkeypatch):
    # the first call searches and takes 63 maps of the group breadth-first;
    # later calls return the same list, and a fresh copy of K the same maps
    K = SimplicialComplex(cross_polytope_boundary(5).facets)
    maps = _some_automorphisms(K)
    assert len(maps) == 63
    monkeypatch.setattr(symmetry, "_generators", None)
    assert _some_automorphisms(K) is maps
    monkeypatch.undo()
    assert _some_automorphisms(SimplicialComplex(K.facets)) == maps


def test_some_automorphisms_never_search_above_the_cap():
    for n in (33, 400):
        K = _cycle(n)
        start = time.perf_counter()
        assert _some_automorphisms(K) == []
        assert time.perf_counter() - start < 1.0
        assert "pair_counts" not in K._cache
    assert _some_automorphisms(SimplicialComplex()) == []


def test_searches_share_their_inputs():
    M = SimplicialComplex(dataset("M6_16").facets)
    find_central_involution(M)
    sig, pairs = _signatures(M), _pair_counts(M)
    assert len(automorphisms(M)) == 2
    assert _signatures(M) is sig and _pair_counts(M) is pairs
    assert pairs[1] == {u: n for u, n in pairs[1].items() if n} and 2 not in pairs[1]  # 1, 2 a diagonal


def test_searches_read_only_vertex_stars():
    # signatures, pair counts and edges come from the vertex star masks:
    # neither search builds a face lattice or a chain engine
    M = SimplicialComplex(dataset("M6_16").facets)
    assert len(automorphisms(M)) == 2 and find_central_involution(M) is not None
    assert "chain_engine" not in M._cache and "face_sets" not in M._cache
    # the 8 signature classes of M6_16 are its 8 orbits of size 2
    assert len(set(_signatures(M).values())) == 8


@pytest.mark.parametrize(
    "K",
    [dataset("walkup_M3"), kuehnel_series(4), stacked_sphere(3, 9, seed=1), SimplicialComplex([[1, 2, 3], [3, 4], [5]])],
    ids=["walkup_M3", "kuehnel_4", "stacked_3_9", "mixed"],
)
def test_signatures_count_facets_and_pair_cofacets(K):
    for v in K.vertices:
        holding = [f for f in K.facets if v in f]
        counts = sorted(n for u in K.vertices if u != v and (n := sum(u in f for f in holding)))
        assert _signatures(K)[v] == (len(holding), *counts)
