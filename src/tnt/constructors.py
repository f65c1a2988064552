"""Generators for the standard complexes and the bundled datasets.

Boundary spheres, cross polytopes, stacked spheres, handle additions and
connected sums, simplicial cell products, cyclic polytope boundaries, and
the cyclic 2-neighborly manifold series.  Dataset files ship with the
package and load through :func:`dataset`.
"""
from __future__ import annotations

import random
from importlib import resources
from itertools import combinations
from typing import Iterable

from . import homology
from .bistellar import BistellarMove, apply_move, stackedness_certificate
from .complexes import SimplicialComplex, Simplex, _ridge_facets, from_text, simplex

__all__ = [
    "boundary_simplex",
    "cross_polytope_boundary",
    "stellar_subdivide",
    "stacked_sphere",
    "handle_addition",
    "connected_sum",
    "simplicial_product",
    "cyclic_polytope_boundary",
    "boundary_complex",
    "kuehnel_series",
    "dataset",
    "dataset_names",
]


def boundary_simplex(d: int) -> SimplicialComplex:
    """Boundary of the d-simplex on labels 1..d+1, a (d-1)-sphere."""
    if d < 1:
        raise ValueError("d must be at least 1")
    verts = range(1, d + 2)
    return SimplicialComplex(combinations(verts, d), _canonical=True)


def cross_polytope_boundary(d: int) -> SimplicialComplex:
    """Boundary of the d-cross-polytope on labels 1..2d.

    Vertices 2i-1 and 2i are the i-th antipodal pair, so the diagonals are
    exactly the missing edges.  f_j = 2^(j+1) C(d, j+1).
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    facets = []
    for picks in range(1 << d):
        facets.append(tuple(2 * i + 1 + ((picks >> i) & 1) for i in range(d)))
    return SimplicialComplex(facets)


def stellar_subdivide(M: SimplicialComplex, facet: Iterable[int], new_label: int) -> SimplicialComplex:
    """Replace a facet by the cone over its boundary from a fresh vertex: the
    index-0 move (facet, (new_label,)).  ValueError on a bad facet or label."""
    f = simplex(facet)
    if f not in M.facets:
        raise ValueError(f"{f} is not a facet")
    if new_label in M.vertices:
        raise ValueError(f"label {new_label} already in use")
    return apply_move(M, BistellarMove(f, (new_label,)))


def stacked_sphere(d: int, n: int, seed: int = 0) -> SimplicialComplex:
    """A stacked d-sphere on n vertices by repeated seeded facet splitting."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if n < d + 2:
        raise ValueError(f"need at least {d + 2} vertices for a {d}-sphere")
    rng = random.Random(seed)
    M = boundary_simplex(d + 1)
    for label in range(d + 3, n + 1):
        f = M.facets[rng.randrange(len(M.facets))]
        M = stellar_subdivide(M, f, label)
    return M


def _pairing_map(facet1: Simplex, facet2: Simplex, pairing) -> dict[int, int]:
    """Normalize a pairing into a map from facet2 labels onto facet1 labels."""
    s1, s2 = set(facet1), set(facet2)
    out: dict[int, int] = {}
    for p in pairing:
        a, b = p
        if a in s1 and b in s2:
            v, w = a, b
        elif a in s2 and b in s1:
            v, w = b, a
        else:
            raise ValueError(f"pair {p} does not join the two facets")
        if w in out or v in out.values():
            raise ValueError(f"pair {p} repeats a vertex")
        out[w] = v
    if len(out) != len(facet1):
        raise ValueError("pairing must match every vertex of the facets")
    return out


def handle_addition(
    M: SimplicialComplex,
    facet1: Iterable[int],
    facet2: Iterable[int],
    pairing,
) -> SimplicialComplex:
    """Identify two disjoint facets along a vertex pairing and remove both.

    Every paired couple must be at graph distance at least 3 in the
    1-skeleton (the offending pair is reported otherwise).  The surviving
    labels are those of the lexicographically smaller facet.
    """
    f1, f2 = simplex(facet1), simplex(facet2)
    if f2 < f1:
        f1, f2 = f2, f1
    if f1 not in M.facets or f2 not in M.facets:
        raise ValueError("both arguments must be facets")
    if set(f1) & set(f2):
        raise ValueError("facets must be disjoint")
    mapping = _pairing_map(f1, f2, pairing)
    stars = M._stars()
    for w, v in sorted(mapping.items()):
        # distance 1: v and w share a facet; 2: some vertex shares one with each
        sv, sw = stars[v], stars[w]
        dd = 1 if sv & sw else 2 if any(s & sv and s & sw for s in stars.values()) else 0
        if dd:
            raise ValueError(f"paired vertices ({v}, {w}) are at graph distance {dd} < 3")
    out = []
    for f in M.facets:
        if f == f1 or f == f2:
            continue
        out.append(tuple(sorted(mapping.get(x, x) for x in f)))
    return SimplicialComplex(out, _canonical=False)


def connected_sum(
    M1: SimplicialComplex,
    M2: SimplicialComplex,
    facet1: Iterable[int] | None = None,
    facet2: Iterable[int] | None = None,
    pairing=None,
) -> SimplicialComplex:
    """Glue two complexes along one facet each, removing both.

    M2 is relabeled automatically when the label sets overlap.  Pairing
    entries are (facet1 vertex, facet2 vertex) in the original labels;
    without one the facet vertices are matched in sorted order.
    """
    if M1.dim != M2.dim:
        raise ValueError(f"dimension mismatch: {M1.dim} vs {M2.dim}")
    f1 = simplex(facet1) if facet1 is not None else M1.facets[0]
    f2 = simplex(facet2) if facet2 is not None else M2.facets[0]
    if f1 not in M1.facets:
        raise ValueError(f"{f1} is not a facet of the first summand")
    if f2 not in M2.facets:
        raise ValueError(f"{f2} is not a facet of the second summand")
    shift = 0
    if set(M1.vertices) & set(M2.vertices):
        shift = max(M1.vertices)
        M2 = SimplicialComplex(
            (tuple(v + shift for v in f) for f in M2.facets), _canonical=True
        )
        f2 = tuple(v + shift for v in f2)
    if pairing is None:
        mapping = dict(zip(f2, f1))
    else:
        mapping = _pairing_map(f1, f2, [(a, b + shift) for a, b in pairing])
    out = [f for f in M1.facets if f != f1]
    for f in M2.facets:
        if f == f2:
            continue
        out.append(tuple(sorted(mapping.get(x, x) for x in f)))
    return SimplicialComplex(out, _canonical=False)


def simplicial_product(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    """Staircase triangulation of the cell-wise product of two pure complexes.

    Vertices are the label pairs in lexicographic order, renamed 1..n1*n2;
    each facet pair (F, G) contributes the C(|F|+|G|-2, |F|-1) monotone
    lattice paths through the grid F x G.
    """
    if not (K1.is_pure and K2.is_pure):
        raise ValueError("both factors must be pure")
    if K1.dim < 0 or K2.dim < 0:
        raise ValueError("factors must be nonempty")
    pairs = [(u, v) for u in K1.vertices for v in K2.vertices]
    pairs.sort()
    vmap = {p: i + 1 for i, p in enumerate(pairs)}
    p, q = K1.dim, K2.dim
    facets = []
    for F in K1.facets:
        for G in K2.facets:
            # a path is determined by which of the p+q steps advance in F
            for fsteps in combinations(range(p + q), p):
                fset = set(fsteps)
                a = b = 0
                cell = [vmap[(F[0], G[0])]]
                for s in range(p + q):
                    if s in fset:
                        a += 1
                    else:
                        b += 1
                    cell.append(vmap[(F[a], G[b])])
                facets.append(tuple(sorted(cell)))
    return SimplicialComplex(facets)


def cyclic_polytope_boundary(d: int, n: int) -> SimplicialComplex:
    """Boundary of the cyclic d-polytope with n vertices via Gale evenness.

    Facets are the d-subsets S of 1..n such that any two elements not in S
    have an even number of elements of S strictly between them.  That count
    is a sum of the counts between consecutive non-elements, so only those
    pairs are checked; between consecutive lo < hi all hi - lo - 1 numbers
    are in S.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if n < d + 1:
        raise ValueError("need at least d+1 vertices")
    verts = list(range(1, n + 1))
    facets = []
    for s in combinations(verts, d):
        comp = [v for v in verts if v not in s]
        if all((hi - lo - 1) % 2 == 0 for lo, hi in zip(comp, comp[1:])):
            facets.append(s)
    return SimplicialComplex(facets, _canonical=True)


def boundary_complex(K: SimplicialComplex) -> SimplicialComplex:
    """Subcomplex of ridges lying in exactly one facet (empty when closed).

    A complex of dimension 0 has the empty face as its only ridge, and a
    complex holds no empty simplex, so its boundary is the empty complex
    however many points it has."""
    if not K.is_pure:
        raise ValueError("boundary extraction requires a pure complex")
    if K.dim < 1:
        return SimplicialComplex(())
    return SimplicialComplex([r for r, fs in _ridge_facets(K).items() if len(fs) == 1])


_kuehnel_cache: dict[int, SimplicialComplex] = {}


def kuehnel_series(d: int) -> SimplicialComplex:
    """The cyclic 2-neighborly d-manifold on 2d+3 vertices.

    Facets are the windows {i, i+1, ..., i+d+1} with the j-th inner element
    removed, taken mod n = 2d+3 for all i and j = 1..d.  The output is
    validated on construction: 2d+3 vertices, 2-neighborly, GF(2) Betti
    (1,1,0,...,0,1,1), and every vertex link certified 1-stacked.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if d in _kuehnel_cache:
        return _kuehnel_cache[d]
    n = 2 * d + 3
    facets = set()
    for i in range(1, n + 1):
        window = [(i - 1 + t) % n + 1 for t in range(d + 2)]
        for j in range(1, d + 1):
            facets.add(tuple(sorted(window[:j] + window[j + 1 :])))
    M = SimplicialComplex(sorted(facets), _canonical=True)
    _validate_kuehnel(M, d, n)
    _kuehnel_cache[d] = M
    return M


def _validate_kuehnel(M: SimplicialComplex, d: int, n: int) -> None:
    if len(M.vertices) != n or M.dim != d:
        raise AssertionError("series construction: wrong vertex count or dimension")
    if not M.is_k_neighborly(2):
        raise AssertionError("series construction: not 2-neighborly")
    betti = homology.betti_numbers(M).betti
    expect = (1, 2, 1) if d == 2 else (1, 1) + (0,) * (d - 3) + (1, 1)
    if betti != expect:
        raise AssertionError(f"series construction: Betti {betti} != {expect}")
    for v in M.vertices:
        if stackedness_certificate(M.link((v,)), 1, budget=20000, seed=0) is None:
            raise AssertionError(f"series construction: link of {v} not certified stacked")


_DATA_FILES = {"m6_16": "M6_16.facets", "walkup_p": "walkup_P.facets"}
_dataset_cache: dict[str, SimplicialComplex] = {}


def dataset_names() -> list[str]:
    return ["M6_16", "walkup_P", "walkup_M3"]


def dataset(name: str) -> SimplicialComplex:
    """Load a bundled dataset: ``M6_16``, ``walkup_P``, or ``walkup_M3``.

    ``walkup_M3`` is derived: boundary of the stacked polytope walkup_P,
    then a handle joining the end facets (1,2,3,4) and (10,11,12,13) with
    pairing i <-> i+9.
    """
    key = name.lower()
    if key in _dataset_cache:
        return _dataset_cache[key]
    if key in _DATA_FILES:
        text = resources.files("tnt").joinpath("data", _DATA_FILES[key]).read_text()
        M = from_text(text)
    elif key == "walkup_m3":
        p = dataset("walkup_P")
        bd = boundary_complex(p)
        M = handle_addition(bd, (1, 2, 3, 4), (10, 11, 12, 13), [(i, i + 9) for i in range(1, 5)])
    else:
        raise KeyError(f"unknown dataset {name!r}; available: {', '.join(dataset_names())}")
    _dataset_cache[key] = M
    return M
