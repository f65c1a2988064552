"""Shared test fixtures and independent oracles.

The oracles here deliberately avoid the package's own linear algebra and
search code so that the main engines are checked against a second route.
"""
from __future__ import annotations

import random
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


def homology_manifold_oracle(K: SimplicialComplex) -> bool:
    """Is K a closed GF(2)-homology manifold of dimension at least 1?

    Every nonempty face that is not a facet of the pure complex K must have
    a link with the Betti numbers of a sphere: (2,) in dimension 0, else
    (1, 0, ..., 0, 1).  Links come from ``K.link``, ranks from
    :func:`oracle_betti`.
    """
    d = K.dim
    if d < 1 or not K.is_pure:
        return False
    for j in range(d):
        for s in K.faces(j):
            L = K.link(s)
            sphere = (2,) if L.dim == 0 else (1,) + (0,) * (L.dim - 1) + (1,)
            if oracle_betti(L) != sphere:
                return False
    return True


def mu_contribution_oracle(K: SimplicialComplex, v: int, lower) -> tuple[int, ...]:
    """Reduced Betti numbers of the span, inside lk(v), of the link vertices
    in ``lower``: index k holds reduced b_{k-1}, padded to length dim K + 1,
    and an empty span gives 1 at index 0.  From ``K.link``, ``.span`` and
    :func:`oracle_betti`.
    """
    L = K.link((v,))
    w = set(lower) & set(L.vertices)
    out = [0] * (K.dim + 1)
    if not w:
        out[0] = 1
        return tuple(out)
    bet = oracle_betti(L.span(w))
    reduced = (bet[0] - 1,) + bet[1:]
    out[1 : len(reduced) + 1] = reduced
    return tuple(out)


def dense_span_kernel_dim(K: SimplicialComplex, W, i: int) -> int:
    """dim ker(H_i(span W) -> H_i(K)) from dense boundary matrices.

    With D the matrix of d_{i+1} (one row per (i+1)-face, one column per
    i-face), B_i(K) has dimension rank D, the boundaries supported inside
    span W form the kernel of D restricted to the columns outside W, and
    B_i(span W) is spanned by the rows of the (i+1)-faces inside W.
    """
    if not K.facets or i + 1 > K.dim:
        return 0
    w = set(W)
    lower = sorted({f for fac in K.facets for f in combinations(fac, i + 1)})
    upper = sorted({f for fac in K.facets for f in combinations(fac, i + 2)})
    index = {f: c for c, f in enumerate(lower)}
    D = []
    for f in upper:
        row = [0] * len(lower)
        for k in range(len(f)):
            row[index[f[:k] + f[k + 1 :]]] = 1
        D.append(row)
    outside = [c for c, f in enumerate(lower) if not w.issuperset(f)]
    r_out = dense_gf2_rank([[row[c] for c in outside] for row in D])
    inside = [row for f, row in zip(upper, D) if w.issuperset(f)]
    return dense_gf2_rank(D) - r_out - dense_gf2_rank(inside)


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


# -- move oracle ----------------------------------------------------------------


def dense_valid_moves(K: SimplicialComplex, indices) -> list[tuple[int, tuple, tuple]]:
    """(index, A, B) of every applicable move of the given indices, in
    (index, A, B) order, read off links and face sets.

    For index i, A is a (d - i)-face whose link facets of size i, the ones
    that come from top-dimensional facets, are exactly the boundary of an
    (i + 1)-set B that is no face of K.
    """
    d = K.dim
    out = []
    for i in sorted({i for i in indices if 1 <= i <= d}):
        for a in K.faces(d - i):
            top = {g for g in K.link(a).facets if len(g) == i}
            b = tuple(sorted({v for g in top for v in g}))
            if len(b) == i + 1 and b not in K.face_set(i) and top == set(combinations(b, i)):
                out.append((i, a, b))
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
        return (len(K.link((v,)).facets), K.link((v,)).f_vector())

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
