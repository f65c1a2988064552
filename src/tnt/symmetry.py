"""Automorphism search for labeled simplicial complexes.

One backtracking search over vertex images serves both public searches
and the automorphisms by whose orbits tightness sweeps and the manifold
check skip work.  Its pruning: a vertex's signature, its facet count and
the sorted cofacet counts of its pairs, must match; for every previously
mapped vertex the cofacet count of the pair must be preserved; and a
facet whose vertices are all mapped must map to a facet, so complete maps
are automorphisms.  Signatures and pair counts are read off the vertex
star masks of :meth:`SimplicialComplex._stars` once per complex, so no
search builds a face lattice.

The group is not enumerated leaf by leaf.  The search finds one map per
coset of a stabiliser chain along its vertex order (Sims 1970; McKay,
"Practical graph isomorphism", 1981), and these maps generate the group:
the orbit lengths multiply to its order, and its elements are their
compositions, which need no facet check.  The central-involution search
runs the backtracking search directly, since its pairing condition is
not preserved by composition.
"""
from __future__ import annotations

import functools
import math
from itertools import repeat
from operator import xor

from .complexes import SimplicialComplex
from .errors import SearchLimitError
from .gf2 import bits_of

__all__ = ["automorphisms", "automorphism_group_order", "is_automorphism", "find_central_involution"]

_VERTEX_CAP = 32
_SOME_MAPS = 63  # orbit sweeps mark a pass's images under at most this many maps
_SOME_NODES = 20_000  # search nodes for them in all: 500 find the order-39 group of the Steiner triple system on 13 points


def _signatures(K: SimplicialComplex):
    """Each vertex's facet count and the sorted cofacet counts of its pairs
    from :func:`_pair_counts`.  Cached in ``K._cache``."""
    if "vertex_signatures" not in K._cache:
        pairs = _pair_counts(K)
        K._cache["vertex_signatures"] = {v: (s.bit_count(), *sorted(pairs[v].values())) for v, s in K._stars().items()}
    return K._cache["vertex_signatures"]


def _pair_counts(K: SimplicialComplex) -> dict[int, dict[int, int]]:
    """Per vertex v, the cofacet count of each pair (v, u) that shares a
    facet: the bit count of the AND of their star masks.  Cached in
    ``K._cache``."""
    if "pair_counts" not in K._cache:
        stars = K._stars()
        K._cache["pair_counts"] = {
            v: {u: c for u, m in stars.items() if u != v and (c := (s & m).bit_count())} for v, s in stars.items()
        }
    return K._cache["pair_counts"]


def is_automorphism(K: SimplicialComplex, perm: dict[int, int]) -> bool:
    """Check that a vertex bijection maps the facet set onto itself."""
    verts = set(K.vertices)
    if set(perm) != verts or set(perm.values()) != verts:
        return False
    facets = set(K.facets)
    return all(tuple(sorted(perm[v] for v in f)) in facets for f in facets)


def _vertex_maps(K: SimplicialComplex, sig, pairs, order, allowed, nodes=repeat(True)):
    """Yield every automorphism with each ``order[k]`` mapped to a vertex w
    with ``allowed(order[k], w, image)``, where ``image`` holds the vertices
    before it; images are tried in ascending order, so maps come
    lexicographically by image tuple along ``order``.

    A facet is checked once its last vertex along ``order`` is mapped, so
    a complete map sends every facet to a facet and, being a bijection,
    the facet set onto itself.  On a complex whose pair counts are all
    equal, such as a 2-neighborly surface, this check is the only pruning:
    signatures and pair counts leave all n! maps open.  Each search node
    (call of its recursion) below the root takes one item of ``nodes``, and
    the search stops for good when it runs out, so searches that share the
    iterator share its budget."""
    by_sig: dict = {}
    for v in K.vertices:
        by_sig.setdefault(sig[v], []).append(v)
    # the pair counts of order[k] with each vertex before it
    want = [list(map(pairs[v].get, order[:k], repeat(0))) for k, v in enumerate(order)]
    rank = {v: k for k, v in enumerate(order)}
    closing: list[list] = [[] for _ in order]  # facets by the rank of their last vertex
    for f in K.facets:
        closing[max(map(rank.__getitem__, f))].append(f)
    bit = {v: 1 << i for i, v in enumerate(K.vertices)}
    facets = {sum(map(bit.__getitem__, f)) for f in K.facets}
    image: dict[int, int] = {}
    image_bit: dict[int, int] = {}
    used: set[int] = set()

    def extend(k: int):
        if k == len(order):
            yield dict(image)
            return
        v = order[k]
        before = list(map(image.__getitem__, order[:k]))
        for w in by_sig[sig[v]]:
            if w in used or not allowed(v, w, image):
                continue
            if list(map(pairs[w].get, before, repeat(0))) != want[k]:
                continue
            image[v], image_bit[v] = w, bit[w]
            if all(sum(map(image_bit.__getitem__, f)) in facets for f in closing[k]):
                if not next(nodes, False):  # the budget is spent
                    del image[v]
                    return
                used.add(w)
                yield from extend(k + 1)
                used.discard(w)
            del image[v]

    return extend(0)


def _search_order(K: SimplicialComplex) -> list[int]:
    """The vertices of a nonempty complex in the order the searches map
    them, taken greedily: the one closing the most facets on those before
    it, then the one sharing facets with the most of them, then the rarest
    signature.  Closing facets early prunes early: once two points of a
    Steiner triple system are mapped, so is the third."""
    sig, pairs = _signatures(K), _pair_counts(K)
    sig_count: dict = {}
    for v in K.vertices:
        sig_count[sig[v]] = sig_count.get(sig[v], 0) + 1
    star = {v: bits_of(m) for v, m in K._stars().items()}  # per vertex, the indices of its facets
    left = [len(f) for f in K.facets]  # per facet, its vertices not yet ordered
    rest = [functools.reduce(xor, f) for f in K.facets]  # their XOR: the last one when one is left
    closes = dict.fromkeys(K.vertices, 0)  # per vertex, the facets it would close
    for n, x in zip(left, rest):
        if n == 1:
            closes[x] += 1
    shared = dict.fromkeys(K.vertices, 0)
    remaining = list(K.vertices)
    order: list[int] = []
    while remaining:
        best = max(remaining, key=lambda v: (closes[v], shared[v], -sig_count[sig[v]], -v))
        order.append(best)
        remaining.remove(best)
        for u in pairs[best]:
            shared[u] += 1
        for i in star[best]:
            left[i] -= 1
            rest[i] ^= best
            if left[i] == 1:
                closes[rest[i]] += 1
    return order


def _generators(K: SimplicialComplex, order_cap=math.inf, nodes=repeat(True)) -> list[dict[int, int]]:
    """Automorphisms generating the automorphism group of a nonempty
    complex: at most one per coset of a stabiliser chain (Sims 1970).

    Along :func:`_search_order` b_1 ... b_n, let G_k fix b_1 ... b_{k-1}.
    Level by level from the deepest up, each image x of b_k that the maps
    found so far (all in G_k) do not already reach from b_k is searched
    with :func:`_vertex_maps` for a map of G_k sending b_k to x; a map
    found joins the generators, and the orbit of b_k under them grows.
    Every other candidate is searched, so the maps found at levels k and
    deeper move b_k as far as G_k does, and by induction generate G_k.
    The group order is the product of the orbit lengths: SearchLimitError
    is raised as soon as it exceeds ``order_cap``.  ``nodes`` is the node
    budget of all the searches together; a search cut short leaves fewer
    generators, true automorphisms all the same."""
    sig, pairs = _signatures(K), _pair_counts(K)
    order = _search_order(K)
    rank = {v: k for k, v in enumerate(order)}
    gens: list[dict[int, int]] = []
    size = 1  # the order of the stabiliser G_{k+1}
    for k in reversed(range(len(order))):
        b, fixed = order[k], order[:k]
        # no search where b_k can only stay put: no other vertex shares its
        # signature and its pair counts with b_1 ... b_{k-1}
        if any(
            rank[w] > k and all(pairs[w].get(u, 0) == pairs[b].get(u, 0) for u in fixed)
            for w in K.vertices
            if sig[w] == sig[b]
        ):
            orbit = {b}

            def allowed(v, w, image):
                # b_1 ... b_{k-1} fixed, b_k to a new image, and no search
                # below a b_k whose image a map already reaches
                r = rank[v]
                return w == v if r < k else w not in orbit if r == k else image[b] not in orbit

            for g in _vertex_maps(K, sig, pairs, order, allowed, nodes):
                gens.append(g)
                reached = list(orbit)
                for x in reached:  # close the orbit of b under the generators
                    for h in gens:
                        if h[x] not in orbit:
                            orbit.add(h[x])
                            reached.append(h[x])
                if size * len(orbit) > order_cap:
                    raise SearchLimitError(f"automorphism group order exceeds cap {order_cap}")
            size *= len(orbit)
    return gens


def _group(K: SimplicialComplex, gens, limit=math.inf) -> list[tuple[int, ...]]:
    """The group the vertex maps ``gens`` generate, as tuples of image
    positions (positions in ``K.vertices``), breadth-first from the
    identity by composition with each generator; at most ``limit``
    elements.  A composition of automorphisms is one, so nothing is
    checked against the facets."""
    pos = {v: p for p, v in enumerate(K.vertices)}
    gens = [tuple(pos[g[v]] for v in K.vertices) for g in gens]
    group = [tuple(range(len(pos)))]
    seen = set(group)
    for g in group:  # grows as it is read: breadth-first
        for s in gens:
            h = tuple(map(g.__getitem__, s))
            if h not in seen:
                if len(group) >= limit:
                    return group
                seen.add(h)
                group.append(h)
    return group


def _some_automorphisms(K: SimplicialComplex) -> list[list[int]]:
    """Non-identity automorphisms, each as the bit of every vertex
    position's image (positions in ``K.vertices``): the group of
    :func:`_generators` but the identity, at most 63 maps of it taken
    breadth-first, from searches of at most ``_SOME_NODES`` nodes in all,
    and none above 32 vertices, where no search runs and nothing is
    raised.  Cached in ``K._cache``.  A search cut short finds fewer
    generators, whose compositions still map faces, links and spans of K
    onto isomorphic ones, so no soundness is lost."""
    if "some_automorphisms" not in K._cache:
        maps: list[list[int]] = []
        if 0 < len(K.vertices) <= _VERTEX_CAP:
            gens = _generators(K, nodes=repeat(True, _SOME_NODES))
            maps = [[1 << p for p in g] for g in _group(K, gens, _SOME_MAPS + 1)[1:]]
        K._cache["some_automorphisms"] = maps
    return K._cache["some_automorphisms"]


def _orbit_marks(K: SimplicialComplex):
    """``(passed, mark)`` for a sweep that computes one vertex set per orbit:
    ``mark(positions)`` adds to the set ``passed`` the vertex masks (bit p
    for ``K.vertices[p]``) of the images of those positions under every map
    of :func:`_some_automorphisms`, searched at the first mark.  Kept as
    per-position columns of image bits, the maps cost no frame each.  K
    must have a vertex."""
    passed: set[int] = set()
    columns: list[list[int]] = []

    def mark(positions) -> None:
        if not columns:
            maps = _some_automorphisms(K)
            columns.extend([g[p] for g in maps] for p in range(len(K.vertices)))
        passed.update(map(sum, zip(*map(columns.__getitem__, positions))))

    return passed, mark


def automorphisms(K: SimplicialComplex, order_cap: int = 10000) -> list[dict[int, int]]:
    """All vertex automorphisms of the complex, identity included.

    Limits: at most 32 vertices; raises SearchLimitError when the group
    order would exceed ``order_cap``, as soon as the search of
    :func:`_generators` shows it, before any map is enumerated.  Output is
    sorted by image tuple.
    """
    verts = K.vertices
    n = len(verts)
    if n == 0:
        return [{}]
    if n > _VERTEX_CAP:
        raise SearchLimitError(f"automorphism search supports at most {_VERTEX_CAP} vertices, got {n}")
    group = sorted(_group(K, _generators(K, order_cap)))  # by image tuple
    return [dict(zip(verts, map(verts.__getitem__, g))) for g in group]


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
    pairs = _pair_counts(K)  # per vertex, the vertices joined to it by an edge

    def paired(v: int, w: int, image: dict[int, int]) -> bool:
        if w in image:
            return image[w] == v
        return w != v and v not in image.values() and w not in pairs[v]

    inv = next(_vertex_maps(K, _signatures(K), pairs, verts, paired), None)
    if inv is None:
        return None
    return {u: inv[u] for v, w in inv.items() if v < w for u in (v, w)}
