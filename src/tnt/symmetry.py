"""Automorphism search for labeled simplicial complexes.

One backtracking search over vertex images serves the group search and
the central-involution search.  Its pruning: a vertex's signature, its
facet count and the sorted cofacet counts of its pairs, must match; for
every previously mapped vertex the cofacet count of the pair must be
preserved; and a facet whose vertices are all mapped must map to a facet,
so complete maps are automorphisms.  Signatures and pair counts are read off the vertex
star masks of :meth:`SimplicialComplex._stars` once per complex, so no
search builds a face lattice.

The group is not enumerated leaf by leaf.  The group search finds one
map per coset of a stabiliser chain along its vertex order (Sims 1970;
McKay, "Practical graph isomorphism", 1981), each coset search starting
at its own level with the vertices before it fixed; these maps generate
the group: the orbit lengths multiply to its order, and its elements are
their compositions, which need no facet check.  It runs at most once per
complex, under one node budget, and everything that needs the group reads
its cached result: ``automorphisms`` and the group order (which raise when
the budget cut the search short or the order passes their cap), the maps
by whose images tightness sweeps and the manifold check skip work, and
the vertex orbits by which the link-stackedness check searches one link
per orbit.  The central-involution search runs the backtracking search
directly, since its pairing condition is not preserved by composition.
"""
from __future__ import annotations

import functools
import math
from itertools import chain, repeat
from operator import xor

from .complexes import SimplicialComplex
from .errors import SearchLimitError

__all__ = ["automorphisms", "automorphism_group_order", "is_automorphism", "find_central_involution"]

_VERTEX_CAP = 32
_SOME_MAPS = 63  # orbit sweeps mark a pass's images under at most this many maps
_SOME_NODES = 20_000  # nodes of the group search: 434 find the order-39 group of the Steiner triple system on 13 points


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


def _vertex_maps(K: SimplicialComplex, order):
    """The backtracking search along ``order``, set up once per complex and
    order: returns ``search(allowed, k=0, nodes)``, which yields every
    automorphism that fixes ``order[:k]`` and maps each later ``order[j]``
    to a w with ``allowed(order[j], w, image)``, ``image`` holding the
    vertices before it.  Images are tried in ascending order, so maps come
    lexicographically by image tuple along ``order``.

    A facet is checked once its last vertex along ``order`` is mapped, so a
    complete map sends the facet set onto itself.  On a complex whose pair
    counts are all equal, such as a 2-neighborly surface, this check is the
    only pruning.  Each search node below level k takes one item of
    ``nodes``; the search stops for good when it runs out, so searches that
    share the iterator share its budget."""
    sig, pairs = _signatures(K), _pair_counts(K)
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

    def search(allowed, k=0, nodes=repeat(True)):
        image = {v: v for v in order[:k]}
        image_bit = {v: bit[v] for v in order[:k]}
        used = set(order[:k])

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
                    if not next(nodes, False):  # the budget is spent: no map is yielded again
                        return
                    used.add(w)
                    yield from extend(k + 1)
                    used.discard(w)
                del image[v]

        return extend(k)

    return search


def _search_order(K: SimplicialComplex) -> list[int]:
    """The vertices of a complex in the order the searches map them, taken
    greedily: the one closing the most facets on those before it, then the
    one sharing facets with the most of them, then the rarest signature.
    Closing facets early prunes early: once two points of a Steiner triple
    system are mapped, so is the third."""
    sig, pairs = _signatures(K), _pair_counts(K)
    sig_count: dict = {}
    for v in K.vertices:
        sig_count[sig[v]] = sig_count.get(sig[v], 0) + 1
    star: dict[int, list[int]] = {v: [] for v in K.vertices}  # per vertex, the indices of its facets
    for i, f in enumerate(K.facets):
        for v in f:
            star[v].append(i)
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


def _generators(K: SimplicialComplex) -> tuple[list[dict[int, int]], int | None]:
    """Automorphisms generating the automorphism group of K, at most one
    per coset of a stabiliser chain (Sims 1970), and the group order, or
    None when the search was cut short.  The only group search: it runs at
    most once per complex, cached in ``K._cache``, and not at all above 32
    vertices, where it finds no maps and no order.

    Along :func:`_search_order` b_1 ... b_n, let G_k fix b_1 ... b_{k-1}.
    One :func:`_vertex_maps` set-up serves every level.  Level by level from
    the deepest up, a search starts at b_k with b_1 ... b_{k-1} fixed and
    looks, for each image x of b_k that the maps found so far (all in G_k)
    do not already reach from b_k, for a map of G_k sending b_k to x; a map
    found joins the generators, and the orbit of b_k under them grows.
    Every other candidate is searched, so the maps found at levels k and
    deeper move b_k as far as G_k does, and by induction generate G_k:
    the group order is the product of the orbit lengths.  All the searches
    together take at most ``_SOME_NODES`` nodes; a search cut short leaves
    fewer generators, true automorphisms all the same, whose compositions
    still map faces, links and spans of K onto isomorphic ones."""
    n = len(K.vertices)
    if "generators" in K._cache or n > _VERTEX_CAP:
        return K._cache.get("generators", ([], None))
    order = _search_order(K)
    search = _vertex_maps(K, order)
    nodes = chain(repeat(True, _SOME_NODES), [False])  # the False is taken only when the budget is spent
    gens: list[dict[int, int]] = []
    size = 1  # the order of the stabiliser G_{k+1}
    for k in reversed(range(n)):
        b = order[k]
        orbit = {b}

        def allowed(v, w, image):
            # b_k to a new image; nothing below a b_k that a map already reaches
            return w not in orbit if v == b else image[b] not in orbit

        for g in search(allowed, k, nodes):
            gens.append(g)
            reached = list(orbit)
            for x in reached:  # close the orbit of b under the generators
                for h in gens:
                    if h[x] not in orbit:
                        orbit.add(h[x])
                        reached.append(h[x])
        size *= len(orbit)
    K._cache["generators"] = (gens, size if next(nodes, None) is not None else None)
    return K._cache["generators"]


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
    breadth-first.  Cached in ``K._cache``."""
    if "some_automorphisms" not in K._cache:
        group = _group(K, _generators(K)[0], _SOME_MAPS + 1)
        K._cache["some_automorphisms"] = [[1 << p for p in g] for g in group[1:]]
    return K._cache["some_automorphisms"]


def _vertex_orbits(K: SimplicialComplex) -> dict[int, tuple[int, dict[int, int]]]:
    """Per vertex w, in vertex order, ``(v, g)``: v is the least vertex of
    the orbit of w under :func:`_generators`, and g an automorphism,
    as a vertex map, with g(v) = w (the identity for v itself).  Each orbit
    is closed breadth-first from its least vertex, composing each map found
    with each generator, so no group is enumerated.  A search cut short, or
    none above 32 vertices, leaves finer orbits, singletons at the least,
    whose maps are still automorphisms.  Cached in ``K._cache``."""
    if "vertex_orbits" not in K._cache:
        gens = _generators(K)[0]
        orbits: dict[int, tuple[int, dict[int, int]]] = {}
        for v in K.vertices:
            if v in orbits:
                continue
            orbits[v] = (v, {u: u for u in K.vertices})
            reached = [v]
            for x in reached:  # grows as it is read: breadth-first
                g = orbits[x][1]
                for h in gens:
                    if h[x] not in orbits:
                        orbits[h[x]] = (v, {u: h[g[u]] for u in K.vertices})
                        reached.append(h[x])
        K._cache["vertex_orbits"] = {w: orbits[w] for w in K.vertices}
    return K._cache["vertex_orbits"]


def _orbit_marks(K: SimplicialComplex):
    """``(passed, mark)`` for a sweep that computes one vertex set per orbit:
    ``mark(positions)`` adds to the set ``passed`` the vertex masks (bit p
    for ``K.vertices[p]``) of the images of those positions under every map
    of :func:`_some_automorphisms`, searched at the first mark.  An
    automorphism keeps a set's size, and sweeps go by size (the manifold
    check by face dimension), so a mark of a new size first clears
    ``passed``: it holds the marks of one size only.  Kept as per-position
    columns of image bits, the maps cost no frame each.  K must have a
    vertex."""
    passed: set[int] = set()
    columns: list[list[int]] = []
    size = 0  # of the sets marked in passed

    def mark(positions) -> None:
        nonlocal size
        if not columns:
            maps = _some_automorphisms(K)
            columns.extend([g[p] for g in maps] for p in range(len(K.vertices)))
        if len(positions) != size:
            passed.clear()
            size = len(positions)
        passed.update(map(sum, zip(*map(columns.__getitem__, positions))))

    return passed, mark


def automorphism_group_order(K: SimplicialComplex, order_cap: int = 10000) -> int:
    """The order of the automorphism group, read off :func:`_generators`
    with no map enumerated.  Limits: at most 32 vertices; SearchLimitError
    when the search needs more than ``_SOME_NODES`` nodes or the order
    exceeds ``order_cap``."""
    n = len(K.vertices)
    if n > _VERTEX_CAP:
        raise SearchLimitError(f"automorphism search supports at most {_VERTEX_CAP} vertices, got {n}")
    order = _generators(K)[1]
    if order is None:
        raise SearchLimitError(f"automorphism search exceeds its budget of {_SOME_NODES} nodes")
    if order > order_cap:
        raise SearchLimitError(f"automorphism group order exceeds cap {order_cap}")
    return order


def automorphisms(K: SimplicialComplex, order_cap: int = 10000) -> list[dict[int, int]]:
    """All vertex automorphisms of the complex, identity included, sorted
    by image tuple: the compositions of the maps of :func:`_generators`.
    Limits: those of :func:`automorphism_group_order`, checked after the
    search and before any map is enumerated."""
    automorphism_group_order(K, order_cap)
    verts = K.vertices
    group = sorted(_group(K, _generators(K)[0]))  # by image tuple
    return [dict(zip(verts, map(verts.__getitem__, g))) for g in group]


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

    inv = next(_vertex_maps(K, verts)(paired), None)
    if inv is None:
        return None
    return {u: inv[u] for v, w in inv.items() if v < w for u in (v, w)}
