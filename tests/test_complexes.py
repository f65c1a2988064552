import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import quadratic_maximalize
from tnt import (
    SimplicialComplex,
    boundary_simplex,
    dataset,
    from_facets,
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
    # a pure complex skips _maximalize for its links; a non-pure one keeps it
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


def test_from_facets_rejects_empty():
    with pytest.raises(ValueError):
        from_facets([])


def test_caches_do_not_leak_between_instances():
    K1 = SimplicialComplex([[1, 2, 3]])
    K2 = SimplicialComplex([[1, 2, 3]])
    K1.f_vector()
    assert "faces" not in K2._cache or K2._cache is not K1._cache
