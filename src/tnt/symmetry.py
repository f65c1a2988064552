"""Automorphism search for labeled simplicial complexes.

Backtracking over vertex images with invariant pruning: vertex signatures
(degree plus link f-vector) must match, and for every previously mapped
vertex the cofacet count of the pair must be preserved.  Complete maps are
verified against the facet set before being reported.
"""
from __future__ import annotations

from itertools import combinations

from .complexes import SimplicialComplex
from .errors import SearchLimitError

__all__ = ["automorphisms", "automorphism_group_order", "is_automorphism", "find_central_involution"]

_VERTEX_CAP = 32


def _signatures(K: SimplicialComplex):
    verts = K.vertices
    deg = {v: 0 for v in verts}
    for a, b in K.faces(1):
        deg[a] += 1
        deg[b] += 1
    sig = {}
    for v in verts:
        lk = K.link((v,))
        sig[v] = (deg[v], lk.f_vector())
    return sig


def _pair_counts(K: SimplicialComplex):
    """The cofacet count of a vertex pair, in either order; 0 when the
    pair never shares a facet."""
    pc: dict[tuple[int, int], int] = {}
    for f in K.facets:
        for a, b in combinations(f, 2):
            pc[(a, b)] = pc.get((a, b), 0) + 1

    def pair(a: int, b: int) -> int:
        return pc.get((a, b) if a < b else (b, a), 0)

    return pair


def is_automorphism(K: SimplicialComplex, perm: dict[int, int]) -> bool:
    """Check that a vertex bijection maps the facet set onto itself."""
    verts = set(K.vertices)
    if set(perm) != verts or set(perm.values()) != verts:
        return False
    facets = set(K.facets)
    return all(tuple(sorted(perm[v] for v in f)) in facets for f in facets)


def automorphisms(K: SimplicialComplex, order_cap: int = 10000) -> list[dict[int, int]]:
    """All vertex automorphisms of the complex, identity included.

    Limits: at most 32 vertices; raises SearchLimitError when the group
    order would exceed ``order_cap``.  Output is sorted by image tuple.
    """
    verts = K.vertices
    n = len(verts)
    if n == 0:
        return [{}]
    if n > _VERTEX_CAP:
        raise SearchLimitError(f"automorphism search supports at most {_VERTEX_CAP} vertices, got {n}")
    sig = _signatures(K)
    pair = _pair_counts(K)
    # order vertices by signature rarity, then greedily by constraint to the prefix
    sig_count: dict = {}
    for v in verts:
        sig_count[sig[v]] = sig_count.get(sig[v], 0) + 1
    remaining = sorted(verts, key=lambda v: (sig_count[sig[v]], sig[v], v))
    order: list[int] = []
    chosen: set[int] = set()
    while remaining:
        best = max(remaining, key=lambda v: (sum(1 for u in order if pair(u, v)), -sig_count[sig[v]], -v))
        order.append(best)
        chosen.add(best)
        remaining.remove(best)

    by_sig: dict = {}
    for v in verts:
        by_sig.setdefault(sig[v], []).append(v)

    found: list[dict[int, int]] = []
    image: dict[int, int] = {}
    used: set[int] = set()

    def extend(k: int):
        if k == len(order):
            perm = dict(image)
            if is_automorphism(K, perm):
                found.append(perm)
                if len(found) > order_cap:
                    raise SearchLimitError(f"automorphism group order exceeds cap {order_cap}")
            return
        v = order[k]
        for w in by_sig[sig[v]]:
            if w in used:
                continue
            ok = True
            for u in order[:k]:
                if pair(u, v) != pair(image[u], w):
                    ok = False
                    break
            if ok:
                image[v] = w
                used.add(w)
                extend(k + 1)
                used.discard(w)
                del image[v]

    extend(0)
    found.sort(key=lambda p: tuple(p[v] for v in verts))
    return found


def automorphism_group_order(K: SimplicialComplex, order_cap: int = 10000) -> int:
    return len(automorphisms(K, order_cap))


def find_central_involution(K: SimplicialComplex) -> dict[int, int] | None:
    """Search for a fixed-point-free involutive automorphism with every
    orbit pair a missing edge.

    Such a map is free on the whole face lattice: any face fixed setwise
    would contain both members of some pair, but those pairs are not
    edges.  Vertices are paired smallest-first with candidate partners in
    increasing order, so the first complete map found is lexicographically
    least; returns None when no such involution exists.
    """
    verts = K.vertices
    n = len(verts)
    if n % 2 == 1 or n == 0:
        return None
    sig = _signatures(K)
    pair = _pair_counts(K)
    edges = K.face_set(1)

    def feasible(v: int, w: int, image: dict[int, int]) -> bool:
        if sig[v] != sig[w]:
            return False
        if (v, w) in edges:
            return False
        for a, b in image.items():
            if a in (v, w):
                continue
            if pair(a, v) != pair(b, w) or pair(a, w) != pair(b, v):
                return False
        return True

    image: dict[int, int] = {}

    def extend() -> dict[int, int] | None:
        free = [v for v in verts if v not in image]
        if not free:
            perm = dict(image)
            return perm if is_automorphism(K, perm) else None
        v = free[0]
        for w in free[1:]:
            if feasible(v, w, image):
                image[v] = w
                image[w] = v
                result = extend()
                if result is not None:
                    return result
                del image[v]
                del image[w]
        return None

    return extend()
