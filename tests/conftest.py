"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the package's own linear algebra and
search code so that the main engines are checked against a second route.
"""
from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

import pytest

from tnt import (
    SimplicialComplex,
    apply_move,
    boundary_simplex,
    cross_polytope_boundary,
    stacked_sphere,
    valid_moves,
)
from tnt.morse import _admissible_masks


# -- dense rational-rank oracle ------------------------------------------------


def dense_gf2_rank(rows: list[list[int]]) -> int:
    """Row-reduce a dense 0/1 matrix over GF(2), no packing, no numpy."""
    mat = [row[:] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                mat[i] = [a ^ b for a, b in zip(mat[i], mat[r])]
        r += 1
        rank += 1
    return rank


def oracle_betti(K: SimplicialComplex) -> tuple[int, ...]:
    """GF(2) Betti numbers from scratch: dense boundary matrices, dense rank."""
    if not K.facets:
        return ()
    d = K.dim
    faces = [sorted({f for fac in K.facets for f in combinations(fac, j + 1)}) for j in range(d + 1)]
    ranks = [0] * (d + 2)
    for j in range(1, d + 1):
        index = {f: i for i, f in enumerate(faces[j - 1])}
        rows = []
        for f in faces[j]:
            row = [0] * len(faces[j - 1])
            for k in range(len(f)):
                row[index[f[:k] + f[k + 1 :]]] = 1
            rows.append(row)
        ranks[j] = dense_gf2_rank(rows)
    out = []
    for j in range(d + 1):
        out.append(len(faces[j]) - ranks[j] - ranks[j + 1])
    return tuple(out)


def plain_link(K: SimplicialComplex, s) -> SimplicialComplex:
    """The link of the face ``s`` of K by a plain scan: F minus ``s`` over
    the facets F holding it, as plain sets, maximalized by
    :func:`quadratic_maximalize`; KeyError when ``s`` is no face."""
    fs = set(s)
    holding = [f for f in K.facets if fs <= set(f)]
    if not holding:
        raise KeyError(f"{tuple(s)} is not a face")
    parts = [tuple(v for v in f if v not in fs) for f in holding]
    return SimplicialComplex(quadratic_maximalize(p for p in parts if p), _canonical=True)


def homology_manifold_oracle(K: SimplicialComplex) -> bool:
    """Is K a closed GF(2)-homology manifold of dimension at least 1?

    Every nonempty face that is not a facet of the pure complex K must have
    a link with the Betti numbers of a sphere: (2,) in dimension 0, else
    (1, 0, ..., 0, 1).  Links come from :func:`plain_link`, ranks from
    :func:`oracle_betti`.
    """
    d = K.dim
    if d < 1 or not K.is_pure:
        return False
    for j in range(d):
        for s in K.faces(j):
            L = plain_link(K, s)
            sphere = (2,) if L.dim == 0 else (1,) + (0,) * (L.dim - 1) + (1,)
            if oracle_betti(L) != sphere:
                return False
    return True


def mu_contribution_oracle(K: SimplicialComplex, v: int, lower) -> tuple[int, ...]:
    """Reduced Betti numbers of the span, inside lk(v), of the link vertices
    in ``lower``: index k holds reduced b_{k-1}, padded to length dim K + 1,
    and an empty span gives 1 at index 0.  From :func:`plain_link`,
    ``.span`` and :func:`oracle_betti`.
    """
    L = plain_link(K, (v,))
    w = set(lower) & set(L.vertices)
    out = [0] * (K.dim + 1)
    if not w:
        out[0] = 1
        return tuple(out)
    bet = oracle_betti(L.span(w))
    reduced = (bet[0] - 1,) + bet[1:]
    out[1 : len(reduced) + 1] = reduced
    return tuple(out)


@lru_cache(maxsize=32)
def _dense_boundary(K: SimplicialComplex, i: int):
    """The i-faces, the (i+1)-faces, the dense matrix D of d_{i+1} over
    them and rank D, built once per complex and degree."""
    lower = sorted({f for fac in K.facets for f in combinations(fac, i + 1)})
    upper = sorted({f for fac in K.facets for f in combinations(fac, i + 2)})
    index = {f: c for c, f in enumerate(lower)}
    D = []
    for f in upper:
        row = [0] * len(lower)
        for k in range(len(f)):
            row[index[f[:k] + f[k + 1 :]]] = 1
        D.append(row)
    return lower, upper, D, dense_gf2_rank(D)


def dense_kernel_dim(K: SimplicialComplex, is_face, i: int) -> int:
    """dim ker(H_i(A) -> H_i(K)) from dense boundary matrices, for the
    subcomplex A of K whose faces f are those with ``is_face(f)``.

    With D the matrix of d_{i+1} (one row per (i+1)-face, one column per
    i-face), B_i(K) has dimension rank D, the boundaries supported inside
    A form the kernel of D restricted to the columns outside A, and B_i(A)
    is spanned by the rows of the (i+1)-faces of A.
    """
    if not K.facets or i + 1 > K.dim:
        return 0
    lower, upper, D, rank_d = _dense_boundary(K, i)
    outside = [c for c, f in enumerate(lower) if not is_face(f)]
    r_out = dense_gf2_rank([[row[c] for c in outside] for row in D])
    inside = [row for f, row in zip(upper, D) if is_face(f)]
    return rank_d - r_out - dense_gf2_rank(inside)


def dense_span_kernel_dim(K: SimplicialComplex, W, i: int) -> int:
    """dim ker(H_i(span W) -> H_i(K)) by :func:`dense_kernel_dim`: a face
    of K is a face of span W when W holds its vertices."""
    return dense_kernel_dim(K, set(W).issuperset, i)


def faces_of(A: SimplicialComplex):
    """The test "f is a face of A", against A's facets as plain sets."""
    facets = [set(g) for g in A.facets]
    return lambda f: any(g.issuperset(f) for g in facets)


def packed_gf2_rank(rows: list[int]) -> int:
    """GF(2) rank of 0/1 rows packed into ints, each reduced against the
    pivot rows keyed on their lowest set bit."""
    pivots: dict[int, int] = {}
    for x in rows:
        while x:
            low = x & -x
            if low not in pivots:
                pivots[low] = x
                break
            x ^= pivots[low]
    return len(pivots)


def span_failures(K: SimplicialComplex, subsets) -> list[tuple[tuple[int, ...], int, int]]:
    """Every (W, i, dim ker(H_i(span W) -> H_i(K))) with a nonzero kernel,
    for 0 <= i < dim K, ordered as ``subsets`` and then by i.

    The formula of :func:`dense_span_kernel_dim`, with each d_{i+1} built
    once and its rows packed into ints so that whole families stay fast.
    For i = 0 the kernel counts the extra components of a connected K.
    """
    mats = []
    for i in range(K.dim):
        lower = sorted({f for fac in K.facets for f in combinations(fac, i + 1)})
        upper = sorted({f for fac in K.facets for f in combinations(fac, i + 2)})
        index = {f: c for c, f in enumerate(lower)}
        D = [sum(1 << index[f[:k] + f[k + 1 :]] for k in range(len(f))) for f in upper]
        mats.append((lower, upper, D, packed_gf2_rank(D)))
    out = []
    for W in subsets:
        w = set(W)
        for i, (lower, upper, D, rank_d) in enumerate(mats):
            outside = sum(1 << c for c, f in enumerate(lower) if not w.issuperset(f))
            inside = [row for f, row in zip(upper, D) if w.issuperset(f)]
            kd = rank_d - packed_gf2_rank([row & outside for row in D]) - packed_gf2_rank(inside)
            if kd:
                out.append((tuple(W), i, kd))
    return out


def decode_mask(K: SimplicialComplex, w: int) -> tuple[int, ...]:
    """The vertices of K at the set bits of the vertex mask ``w``."""
    return tuple(v for p, v in enumerate(K.vertices) if w >> p & 1)


def admissible_subsets(K: SimplicialComplex, ambient, cap: int | None = None) -> list[tuple[int, ...]]:
    """``morse._admissible_masks`` up to ``cap`` vertices, decoded."""
    return [decode_mask(K, w) for w in _admissible_masks(K, ambient, 0, cap)]


def as_vertex_maps(K: SimplicialComplex, maps) -> list[dict[int, int]]:
    """Automorphisms given as the image bit of each vertex position (the
    form ``symmetry._some_automorphisms`` returns) as vertex dicts."""
    return [{v: K.vertices[b.bit_length() - 1] for v, b in zip(K.vertices, g)} for g in maps]


# -- move oracle ----------------------------------------------------------------


def dense_valid_moves(K: SimplicialComplex, indices) -> list[tuple[int, tuple, tuple]]:
    """(index, A, B) of every applicable move of the given indices, in
    (index, A, B) order, read off :func:`plain_link` and a facet scan.

    For index i, A is a (d - i)-face whose link is exactly the boundary of
    an (i + 1)-set B that no facet of K contains.
    """
    d = K.dim
    out = []
    for i in sorted({i for i in indices if 1 <= i <= d}):
        for a in K.faces(d - i):
            link = set(plain_link(K, a).facets)
            b = tuple(sorted({v for g in link for v in g}))
            if len(b) == i + 1 and link == set(combinations(b, i)) and not any(set(b) <= set(f) for f in K.facets):
                out.append((i, a, b))
    return out


def plain_boundary_rows(K: SimplicialComplex) -> tuple[list[list[int]], list[list[int]]]:
    """Per dimension j, the boundary rows of d_j over the (j-1)-faces (none
    for j = 0), each face minus one vertex looked up in a dict over
    ``K.faces(j - 1)``, and per vertex of ``K.vertices`` the int of the
    j-faces holding it, by testing every j-face."""
    rows, masks = [], []
    for j in range(K.dim + 1):
        faces = K.faces(j)
        index = {f: c for c, f in enumerate(K.faces(j - 1))} if j else {}
        rows.append([sum(2 ** index[f[:k] + f[k + 1 :]] for k in range(len(f))) for f in faces] if j else [])
        masks.append([sum(2 ** c for c, f in enumerate(faces) if v in f) for v in K.vertices])
    return rows, masks


def top_cofacet_scan(K: SimplicialComplex, sizes) -> dict[tuple, set[tuple]]:
    """Every face of K of the given sizes, with the top-dimensional facets
    whose vertex set contains it, by a plain scan over the facets."""
    tops = [(f, set(f)) for f in K.facets if len(f) == K.dim + 1]
    out = {}
    for size in sizes:
        for a in K.faces(size - 1):
            out[a] = {f for f, fs in tops if fs.issuperset(a)}
    return out


def replay_oracle(facets, moves):
    """Chain the four move clauses over plain sets of frozensets: the final
    facet set, or (position, clause) of the first move that fails."""
    K = {frozenset(f) for f in facets}
    for pos, (a, b) in enumerate(moves):
        a, b = frozenset(a), frozenset(b)
        verts, cof = set().union(*K), [f for f in K if a <= f]
        if not cof:
            return pos, "A not a face"
        if len(b) == 1 and not b <= verts:
            if a not in K:
                return pos, "link mismatch"
        elif any(b <= f for f in K):
            return pos, "B already a face"
        elif not b.difference(*cof) <= verts:
            return pos, "label not fresh"
        elif {f - a for f in cof} != {b - {w} for w in b}:
            return pos, "link mismatch"
        u = a | b
        K = K - {u - {w} for w in b} | {u - {v} for v in a}
    return K


def quadratic_maximalize(simplices) -> tuple[tuple[int, ...], ...]:
    """Distinct simplices contained in no other one, sorted: each tested
    against every simplex kept before it, largest first."""
    kept: list[frozenset[int]] = []
    for s in sorted(set(simplices), key=lambda s: (-len(s), s)):
        if not any(frozenset(s) <= k for k in kept):
            kept.append(frozenset(s))
    return tuple(sorted(tuple(sorted(k)) for k in kept))


# -- small-complex isomorphism (brute force over signatures) -------------------


def are_isomorphic(K1: SimplicialComplex, K2: SimplicialComplex) -> bool:
    """Exact isomorphism test for small vertex counts, by backtracking."""
    v1, v2 = K1.vertices, K2.vertices
    if len(v1) != len(v2) or K1.f_vector() != K2.f_vector():
        return False

    def sig(K, v):
        L = plain_link(K, (v,))
        return (len(L.facets), L.f_vector())

    s1 = {v: sig(K1, v) for v in v1}
    s2 = {v: sig(K2, v) for v in v2}
    if sorted(s1.values()) != sorted(s2.values()):
        return False
    fs2 = set(K2.facets)

    def extend(mapping, remaining):
        if not remaining:
            img = {tuple(sorted(mapping[x] for x in f)) for f in K1.facets}
            return img == fs2
        v = remaining[0]
        used = set(mapping.values())
        for w in v2:
            if w in used or s2[w] != s1[v]:
                continue
            mapping[v] = w
            ok = True
            # partial consistency: edges must map to edges
            for u in mapping:
                if u == v:
                    continue
                e1 = tuple(sorted((u, v)))
                e2 = tuple(sorted((mapping[u], w)))
                if K1.has_face(e1) != K2.has_face(e2):
                    ok = False
                    break
            if ok and extend(mapping, remaining[1:]):
                return True
            del mapping[v]
        return False

    order = sorted(v1, key=lambda v: (sorted(s1.values()).count(s1[v]), v))
    return extend({}, order)


# -- random sphere generator ---------------------------------------------------


def random_sphere(rng: random.Random, d: int | None = None, walk: int = 6) -> SimplicialComplex:
    """A small sphere: random stacked start plus a short bistellar walk."""
    if d is None:
        d = rng.choice([2, 3, 4])
    n = rng.randint(d + 2, d + 6)
    M = stacked_sphere(d, n, seed=rng.randrange(10**6))
    for _ in range(walk):
        mvs = valid_moves(M)
        if not mvs:
            break
        M = apply_move(M, mvs[rng.randrange(len(mvs))])
    return M


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def octahedron():
    return cross_polytope_boundary(3)


@pytest.fixture(scope="session")
def sphere2():
    return boundary_simplex(3)
