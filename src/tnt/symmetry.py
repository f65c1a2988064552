"""Automorphism search for labeled simplicial complexes.

One backtracking search over vertex images serves both public searches.
Its pruning: a vertex's signature, the f-vector of its link read as the
bit counts of its star masks in ``engine(K)``, must match; and for every
previously mapped vertex the cofacet count of the pair must be preserved.
Complete maps are verified against the facet set before being yielded.
"""
from __future__ import annotations

from itertools import combinations

from .complexes import SimplicialComplex
from .errors import SearchLimitError
from .homology import engine

__all__ = ["automorphisms", "automorphism_group_order", "is_automorphism", "find_central_involution"]

_VERTEX_CAP = 32


def _signatures(K: SimplicialComplex):
    """Each vertex's link f-vector: the number of j-faces holding it, j >= 1."""
    vfaces, vpos = engine(K)._vertex_faces()
    return {v: tuple(masks[i].bit_count() for masks in vfaces[1:]) for v, i in vpos.items()}


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


def _vertex_maps(K: SimplicialComplex, sig, pair, order, allowed):
    """Yield every automorphism with each ``order[k]`` mapped to a vertex w
    with ``allowed(order[k], w, image)``, where ``image`` holds the vertices
    before it; images are tried in ascending order, so maps come
    lexicographically by image tuple along ``order``."""
    by_sig: dict = {}
    for v in K.vertices:
        by_sig.setdefault(sig[v], []).append(v)
    image: dict[int, int] = {}
    used: set[int] = set()

    def extend(k: int):
        if k == len(order):
            if is_automorphism(K, image):
                yield dict(image)
            return
        v = order[k]
        for w in by_sig[sig[v]]:
            if w in used or not allowed(v, w, image):
                continue
            if any(pair(u, v) != pair(image[u], w) for u in order[:k]):
                continue
            image[v] = w
            used.add(w)
            yield from extend(k + 1)
            used.discard(w)
            del image[v]

    return extend(0)


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
    # greedily by constraint to the prefix, then by signature rarity
    sig_count: dict = {}
    for v in verts:
        sig_count[sig[v]] = sig_count.get(sig[v], 0) + 1
    remaining = list(verts)
    order: list[int] = []
    while remaining:
        best = max(remaining, key=lambda v: (sum(1 for u in order if pair(u, v)), -sig_count[sig[v]], -v))
        order.append(best)
        remaining.remove(best)

    found: list[dict[int, int]] = []
    for perm in _vertex_maps(K, sig, pair, order, lambda v, w, image: True):
        found.append(perm)
        if len(found) > order_cap:
            raise SearchLimitError(f"automorphism group order exceeds cap {order_cap}")
    found.sort(key=lambda p: tuple(p[v] for v in verts))
    return found


def automorphism_group_order(K: SimplicialComplex, order_cap: int = 10000) -> int:
    return len(automorphisms(K, order_cap))


def find_central_involution(K: SimplicialComplex) -> dict[int, int] | None:
    """Search for a fixed-point-free involutive automorphism with every
    orbit pair a missing edge.

    Such a map is free on the whole face lattice: any face fixed setwise
    would contain both members of some pair, but those pairs are not
    edges.  Vertices are mapped in increasing order, each either back to
    the earlier vertex already paired with it or to a later non-neighbour,
    so the first map found is lexicographically least.  Pairs are listed
    smaller member first; None if none exists.  Limit: 32 vertices, if even.
    """
    verts = K.vertices
    if len(verts) % 2 == 1 or not verts:
        return None
    if len(verts) > _VERTEX_CAP:
        raise SearchLimitError(f"involution search supports at most {_VERTEX_CAP} vertices, got {len(verts)}")
    edges = K.face_set(1)

    def paired(v: int, w: int, image: dict[int, int]) -> bool:
        if w in image:
            return image[w] == v
        return w != v and v not in image.values() and (v, w) not in edges

    inv = next(_vertex_maps(K, _signatures(K), _pair_counts(K), verts, paired), None)
    if inv is None:
        return None
    return {u: inv[u] for v, w in inv.items() if v < w for u in (v, w)}
