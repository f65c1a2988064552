import json
import random
import re
from enum import IntEnum
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import plain_link, quadratic_maximalize, random_sphere
from tnt import (
    AmbientPolytope,
    SimplicialComplex,
    boundary_simplex,
    cross_polytope_boundary,
    dataset,
    dataset_names,
    from_facets,
    from_json,
    hamiltonian_check,
    from_text,
    load_complex,
    save_complex,
    simplex,
    to_text,
)
from tnt.complexes import _maximalize


def test_simplex_normalization():
    assert simplex([3, 1, 2]) == (1, 2, 3)
    assert simplex((5,)) == (5,)


def test_simplex_rejects_bad_input():
    with pytest.raises(ValueError):
        simplex([])
    with pytest.raises(ValueError):
        simplex([1, 1, 2])
    with pytest.raises(ValueError):
        simplex([0, 1])
    with pytest.raises(ValueError):
        simplex([-3])
    with pytest.raises(ValueError):
        simplex([True, 2])


def test_maximalization_absorbs_contained_faces():
    K = SimplicialComplex([[1, 2, 3], [1, 2], [2, 3], [4]])
    assert K.facets == ((1, 2, 3), (4,))
    assert not K.is_pure


def test_facets_sorted_lexicographically():
    K = SimplicialComplex([[2, 5, 7], [1, 9, 11], [2, 3, 4]])
    assert K.facets == ((1, 9, 11), (2, 3, 4), (2, 5, 7))


def test_empty_complex():
    K = SimplicialComplex()
    assert K.dim == -1
    assert K.f_vector() == ()
    assert K.euler_characteristic() == 0
    assert len(K) == 0
    assert K.vertices == ()


def test_f_vector_boundary_simplex():
    # binomial coefficients C(d+2, j+1)
    B = boundary_simplex(4)
    assert B.f_vector() == (5, 10, 10, 5)
    assert B.euler_characteristic() == 0
    B3 = boundary_simplex(3)
    assert B3.f_vector() == (4, 6, 4)
    assert B3.euler_characteristic() == 2


def test_faces_and_membership():
    K = SimplicialComplex([[1, 2, 3]])
    assert K.faces(0) == [(1,), (2,), (3,)]
    assert K.faces(1) == [(1, 2), (1, 3), (2, 3)]
    assert (1, 3) in K
    assert K.has_face((1, 2, 3))
    assert not K.has_face((1, 4))
    assert K.faces(5) == []


def test_membership_of_non_simplices_is_false():
    # a query that is not iterable, or whose labels do not compare, is no
    # face, as are those that are not simplices
    K = SimplicialComplex([[1, 2, 3]])
    for query in (5, None, ("a", 1), (1, 1), (0,), (), (1.0, 2)):
        assert query not in K, query
    assert (1, 2) in K and [3, 1] in K and (1, 2, 3) in K


def test_link_of_vertex_in_boundary_simplex():
    # the link of any vertex is the boundary of the opposite simplex
    B = boundary_simplex(4)
    L = B.link((1,))
    assert L.f_vector() == (4, 6, 4)
    assert set(L.vertices) == {2, 3, 4, 5}
    assert L == SimplicialComplex([[2, 3, 4], [2, 3, 5], [2, 4, 5], [3, 4, 5]])


def test_link_errors_and_cases():
    K = SimplicialComplex([[1, 2, 3], [3, 4, 5]])
    with pytest.raises(KeyError):
        K.link((9,))
    # link of a facet is the empty complex
    assert K.link((1, 2, 3)).dim == -1
    assert K.link((3,)).facets == ((1, 2), (4, 5))


@settings(max_examples=200, deadline=None)
@given(
    raw=st.lists(st.lists(st.integers(1, 9), min_size=1, max_size=6, unique=True), min_size=1, max_size=25),
    nest=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 63)), max_size=20),
    size=st.integers(1, 5),
)
def test_maximalize_matches_quadratic_scan(raw, nest, size):
    simplices = [simplex(s) for s in raw]
    # sub-simplices of drawn ones by bit mask; the empty mask repeats one
    for i, mask in nest:
        s = simplices[i % len(simplices)]
        simplices.append(tuple(v for k, v in enumerate(s) if mask >> k & 1) or s)
    assert _maximalize(simplices) == quadratic_maximalize(simplices)
    pure = [s[:size] for s in simplices if len(s) >= size]
    assert _maximalize(pure) == quadratic_maximalize(pure) == tuple(sorted(set(pure)))


def _maximalized_link(K, s):
    parts = [tuple(v for v in f if v not in s) for f in K.facets if set(s) <= set(f)]
    return SimplicialComplex([p for p in parts if p])


def test_pure_link_matches_maximalized_parts():
    # links skip _maximalize on pure and non-pure complexes alike
    M = dataset("M6_16")
    for s in M.faces(0) + M.faces(1):
        L, R = M.link(s), _maximalized_link(M, s)
        assert L.facets == R.facets and (L.dim, L.is_pure) == (R.dim, R.is_pure), s
    L = M.link(M.facets[0])
    assert L.facets == _maximalized_link(M, M.facets[0]).facets == () and L.dim == -1
    K = SimplicialComplex([[1, 2, 3], [1, 2, 4], [1, 5], [2, 5, 6], [6, 7]])
    assert not K.is_pure
    for s in K.faces(0) + K.faces(1):
        assert K.link(s).facets == _maximalized_link(K, s).facets, s
    assert K.link((1,)).facets == ((2, 3), (2, 4), (5,))
    assert K.link((2,)).facets == ((1, 3), (1, 4), (5, 6))


def _link_star_cases():
    rng = random.Random(2501)
    spheres = [random_sphere(rng, d=d, walk=w) for d in (1, 2, 3, 4) for w in (0, 5)]
    # lower facets on old and new labels, a hanging triangle and an edge
    S = spheres[3]
    new = max(S.vertices) + 1
    mixed = SimplicialComplex(list(S.facets) + [(1, new), (new, new + 1, new + 2), (2, 3, new + 3), (new + 4,)])
    assert not mixed.is_pure
    return spheres + [mixed, dataset("M6_16")]


@pytest.mark.parametrize("K", _link_star_cases(), ids=lambda K: f"f{K.f_vector()}")
def test_link_and_star_match_a_plain_scan(K):
    # every face, facets among them with their empty links, against a scan
    # of the facets as plain sets; non-faces raise the same KeyError
    fresh = SimplicialComplex(K.facets)
    fresh.link(K.facets[-1])
    fresh.star(K.facets[0][:1])
    assert "face_sets" not in fresh._cache
    for j in range(K.dim + 1):
        for s in K.faces(j):
            L, scan = K.link(s), plain_link(K, s)
            assert L.facets == scan.facets and K.link(s) is L, s
            assert K.star(s).facets == tuple(f for f in K.facets if set(s) <= set(f)), s
    for f in K.facets:
        assert K.link(f).facets == () and K.link(f).dim == -1
        assert K.star(f).facets == (f,)
    rng = random.Random(len(K.facets))
    verts = list(K.vertices) + [max(K.vertices) + 1]
    non_faces = [(verts[-1],)] + [tuple(sorted(rng.sample(verts, k))) for k in (2, 3, 4) for _ in range(8)]
    for s in non_faces:
        if s in K:
            continue
        for query in (K.link, K.star):
            with pytest.raises(KeyError, match=re.escape(f"{s} is not a face")):
                query(s)
        with pytest.raises(KeyError):
            plain_link(K, s)


def _membership_cases():
    # every dataset, the shared sphere fixtures, the link cases (a non-pure
    # one among them), and a complex with facets of three sizes
    mixed = SimplicialComplex([[1, 2, 3], [3, 4], [5]])
    fixtures = [boundary_simplex(3), cross_polytope_boundary(3)]
    return [dataset(name) for name in dataset_names()] + fixtures + _link_star_cases() + [mixed]


@pytest.mark.parametrize("K", _membership_cases(), ids=lambda K: f"f{K.f_vector()}")
def test_membership_and_faces_match_a_facet_scan(K):
    # has_face and `in` against "lies in some facet", on faces, on vertex
    # sets with labels outside K and in any order; `in` is False for what
    # is no simplex, where has_face raises; faces and the f-vector against
    # the subsets of the facets
    fresh = SimplicialComplex(K.facets)
    scan = [sorted({s for f in K.facets for s in combinations(f, j + 1)}) for j in range(K.dim + 1)]
    assert [fresh.faces(j) for j in range(-1, K.dim + 2)] == [[], *scan, []]
    assert SimplicialComplex(K.facets).f_vector() == tuple(map(len, scan))
    rng = random.Random(len(K.facets))
    verts = list(K.vertices) + [max(K.vertices) + 1, max(K.vertices) + 7]
    queries = [f for j in range(K.dim + 1) for f in rng.sample(scan[j], min(5, len(scan[j])))]
    queries += [tuple(rng.sample(verts, k)) for k in range(1, min(K.dim + 3, len(verts)) + 1) for _ in range(12)]
    for s in queries:
        want = any(set(s) <= set(f) for f in K.facets)
        assert fresh.has_face(s) == (s in fresh) == (list(s) in fresh) == want, s
    for bad in [(), (1, 1), (0,), (-2, 3), (1.5,), ("a",), (True, 2)]:
        assert bad not in fresh
        with pytest.raises(ValueError):
            fresh.has_face(bad)


def _face_keys(K):
    return [k for k in K._cache if k == "face_sets" or isinstance(k, tuple) and k[0] in ("face_set", "faces")]


def test_membership_queries_build_no_face_lists():
    # the paper's combinatorial conditions are membership questions: missing
    # edges, diagonals that are no edges, the cross-polytope 2-skeleton
    M = SimplicialComplex(dataset("M6_16").facets)
    missing = M.missing_faces(1)
    assert missing == [(2 * i - 1, 2 * i) for i in range(1, 9)]
    cross = AmbientPolytope.cross(missing)
    cross.validate_for(M)
    assert hamiltonian_check(M, 2, cross)
    assert _face_keys(M) == []
    # neighborliness counts the one dimension it asks about
    assert not M.is_k_neighborly(2)
    assert _face_keys(M) == [("faces", 1)]


def test_star_and_span():
    K = SimplicialComplex([[1, 2, 3], [2, 3, 4], [4, 5]])
    st = K.star((2,))
    assert st.facets == ((1, 2, 3), (2, 3, 4))
    sp = K.span((1, 2, 3, 4))
    assert sp.facets == ((1, 2, 3), (2, 3, 4))
    sp2 = K.span((1, 4, 5))
    assert sp2.facets == ((1,), (4, 5))
    with pytest.raises(ValueError):
        K.span((1, 99))


def test_span_of_all_vertices_is_identity():
    B = boundary_simplex(3)
    assert B.span(B.vertices) == B


def test_neighborliness():
    B = boundary_simplex(5)
    assert B.is_k_neighborly(1)
    assert B.is_k_neighborly(2)
    assert B.is_k_neighborly(3)  # every 3 of 7 vertices span a face
    K = SimplicialComplex([[1, 2], [3, 4]])
    assert K.is_k_neighborly(1)
    assert not K.is_k_neighborly(2)
    with pytest.raises(ValueError):
        B.is_k_neighborly(0)


def test_missing_faces():
    K = SimplicialComplex([[1, 2], [2, 3], [3, 4], [1, 4]])  # 4-cycle
    assert K.missing_faces(1) == [(1, 3), (2, 4)]
    B = boundary_simplex(3)
    assert B.missing_faces(1) == []
    assert B.missing_faces(3) == [(1, 2, 3, 4)]


def test_connectivity():
    K = SimplicialComplex([[1, 2], [3, 4]])
    assert K.connectivity() == 2
    L = SimplicialComplex([[1, 2], [2, 3]])
    assert L.connectivity() == 1


def test_pseudomanifold_check():
    B = boundary_simplex(3)
    rep = B.pseudomanifold_check()
    assert rep.closed and rep.facet_graph_connected and rep.is_closed_pseudomanifold
    assert rep.dim == 2
    # a ball: ridges on the boundary sit in one facet
    ball = SimplicialComplex([[1, 2, 3], [2, 3, 4]])
    rep2 = ball.pseudomanifold_check()
    assert not rep2.closed
    with pytest.raises(ValueError):
        SimplicialComplex([[1, 2, 3], [4, 5]]).pseudomanifold_check()


def test_equality_and_hash():
    K1 = SimplicialComplex([[1, 2, 3], [3, 4]])
    K2 = SimplicialComplex([[3, 4], [2, 3, 1]])
    assert K1 == K2
    assert hash(K1) == hash(K2)
    assert K1.canonical_hash() == K2.canonical_hash()
    K3 = SimplicialComplex([[1, 2, 3]])
    assert K1 != K3
    assert K1.canonical_hash() != K3.canonical_hash()


def test_canonical_hash_is_stable():
    # frozen: changing this value silently would break stored certificates
    B = boundary_simplex(3)
    assert B.canonical_hash() == SimplicialComplex([[2, 3, 4], [1, 3, 4], [1, 2, 4], [1, 2, 3]]).canonical_hash()
    assert len(B.canonical_hash()) == 32


def test_text_round_trip(tmp_path):
    K = SimplicialComplex([[1, 2, 3], [2, 3, 4]])
    text = to_text(K)
    assert from_text(text) == K
    p = tmp_path / "k.facets"
    save_complex(K, str(p))
    assert load_complex(str(p)) == K


def test_text_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError) as ei:
        from_text("1 2 3\nfoo bar\n")
    assert "line 2" in str(ei.value)
    with pytest.raises(ValueError) as ei:
        from_text("1 2 3\n\n# ok\n1 1\n")
    assert "line 4" in str(ei.value)


def test_text_ignores_comments_and_blanks():
    K = from_text("# header\n\n1 2 3\n # another\n2 3 4\n")
    assert K.facets == ((1, 2, 3), (2, 3, 4))


def test_json_round_trip(tmp_path):
    K = SimplicialComplex([[1, 2, 3], [3, 4, 5]])
    p = tmp_path / "k.json"
    save_complex(K, str(p))
    assert load_complex(str(p)) == K
    payload = json.loads(p.read_text())
    assert payload["format"] == "facets-v1"
    assert payload["facets"] == [[1, 2, 3], [3, 4, 5]]


# outside text that is not a list of facets of positive ints raises
# ValueError, as from_text does, never TypeError
MALFORMED_JSON = {
    "number": ('{"facets": 5}', "'facets' must be a list of lists of vertex labels"),
    "null": ('{"facets": null}', "'facets' must be a list of lists of vertex labels"),
    "number_facet": ('{"facets": [5]}', "'facets' must be a list of lists of vertex labels"),
    "string_label": ('{"facets": [[1, 2], [2, "a"]]}', "vertex labels must be positive ints, got 'a'"),
    "float_label": ('{"facets": [[1.5, 2]]}', "vertex labels must be positive ints, got 1.5"),
    "bool_label": ('{"facets": [[true, 3]]}', "vertex labels must be positive ints, got True"),
}


@pytest.mark.parametrize("case", MALFORMED_JSON)
def test_from_json_rejects_malformed_facets(case):
    text, message = MALFORMED_JSON[case]
    with pytest.raises(ValueError) as info:
        from_json(text)
    assert str(info.value) == message


def test_from_facets_rejects_empty():
    with pytest.raises(ValueError):
        from_facets([])


def test_caches_do_not_leak_between_instances():
    K1 = SimplicialComplex([[1, 2, 3]])
    K2 = SimplicialComplex([[1, 2, 3]])
    K1.f_vector()
    assert ("faces", 0) in K1._cache
    assert ("faces", 0) not in K2._cache and K2._cache is not K1._cache


@pytest.mark.parametrize("first", ["f_vector", "faces"])
def test_faces_are_the_sorted_face_sets(first):
    # the sorted lists and the sets are one face lattice, in either call order
    for src in (dataset("M6_16"), boundary_simplex(3), SimplicialComplex([[1, 2, 3], [3, 4], [5]])):
        K = from_facets(src.facets)
        if first == "f_vector":
            fv = K.f_vector()
        for j in range(-1, K.dim + 2):
            assert K.faces(j) == sorted(K.face_set(j))
        if first == "faces":
            fv = K.f_vector()
        assert fv == tuple(len(K.faces(j)) for j in range(K.dim + 1))


class _Label(IntEnum):
    ZERO = 0
    ONE = 1


def test_int_subclass_labels_become_plain_ints():
    K = from_facets([[_Label.ONE, 2, 3]])
    assert all(type(v) is int for f in K.facets for v in f)
    assert all(type(v) is int for v in simplex([_Label.ONE, 2]))
    plain = from_facets([[1, 2, 3]])
    assert K.canonical_hash() == plain.canonical_hash()
    assert to_text(K) == "1 2 3\n"


# messages as raised when every facet went through simplex() in turn
@pytest.mark.parametrize("raw, exc, message", [
    ([[True, 2, 3]], ValueError, "vertex labels must be positive ints, got True"),
    ([[1, 2], [1, True]], ValueError, "vertex labels must be positive ints, got True"),
    ([[0, 1, 2]], ValueError, "vertex labels must be positive ints, got 0"),
    ([[-1, 2, 3]], ValueError, "vertex labels must be positive ints, got -1"),
    ([[1.5, 2, 3]], ValueError, "vertex labels must be positive ints, got 1.5"),
    ([[1, 2], [1.0, 3]], ValueError, "vertex labels must be positive ints, got 1.0"),
    ([[_Label.ZERO, 2, 3]], ValueError, "vertex labels must be positive ints, got <_Label.ZERO: 0>"),
    ([[1, 2, 2]], ValueError, "repeated label 2 in simplex (1, 2, 2)"),
    ([[1, 2], []], ValueError, "empty simplex"),
    ([[1, 2, 3], [2, 2, 4], [0, 5, 6]], ValueError, "repeated label 2 in simplex (2, 2, 4)"),
    ([[1, 2], [3, -4], [1, 1]], ValueError, "vertex labels must be positive ints, got -4"),
    ([[1, 2], (x for x in (3, 0))], ValueError, "vertex labels must be positive ints, got 0"),
    ([[1, "a"]], TypeError, "'<' not supported between instances of 'str' and 'int'"),
    ([[1, 2], 5], TypeError, "'int' object is not iterable"),
])
def test_from_facets_error_messages(raw, exc, message):
    with pytest.raises(exc) as ei:
        from_facets(raw)
    assert str(ei.value) == message


@pytest.mark.parametrize("text, message", [
    ("1 2 3\n0 1 2\n", "line 2: vertex labels must be positive ints, got 0"),
    ("1 -2\n", "line 1: vertex labels must be positive ints, got -2"),
    ("1 2 3\n2 2 4\n", "line 2: repeated label 2 in simplex (2, 2, 4)"),
    ("1 2\nx y\n", "line 2: not a list of integers: 'x y'"),
    ("1 2 3\n\n1 1 5\n0 2\n", "line 3: repeated label 1 in simplex (1, 1, 5)"),
    ("# only a comment\n\n", "no facets found in input"),
])
def test_from_text_error_messages(text, message):
    with pytest.raises(ValueError) as ei:
        from_text(text)
    assert str(ei.value) == message


def test_accepted_labels_build_as_per_facet_simplices():
    for raw in ([[3, 1, 2], (2, 3, 4), [1, 2], [4]], [[_Label.ONE, 2, 3], [3, 4]], [range(1, 4), {3, 4}]):
        K = from_facets(raw)
        assert K.facets == _maximalize([simplex(f) for f in raw])
    assert from_text("3 1 2\n1 2\n2 3 4\n").facets == ((1, 2, 3), (2, 3, 4))
