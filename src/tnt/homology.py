"""GF(2) simplicial homology and induced-kernel computations.

Betti numbers come from boundary-matrix ranks: beta_j = f_j - rank d_j -
rank d_{j+1}.  A per-complex :class:`ChainEngine` caches face indices, int
boundary rows and cocycles, so that vertex spans, links and subcomplexes
need no chain complex of their own.  Every rank is taken by the one
elimination loop, :func:`tnt.gf2.echelon`.  A span is one int mask per
dimension of the faces inside it, read from per-engine tables at most 6.4
times the size of the vertex-face masks.  Its ranks are those of the whole
ambient rows the masks pick out (a face of a full subcomplex has its
boundary in it), taken in ascending face order, which fills in less than
descending order on large spans, and cleared top-down: the rows of faces
that are pivot columns one dimension up are left out.  The faces holding a
face s, rows masked to the faces holding s one dimension down, are the
augmented chain complex of lk(s); a mu contribution keeps those holding a
vertex v inside span(lower u {v}).  A span's rows also carry K's cocycles
as their lowest columns: a cycle bounds in K exactly when it pairs to zero
with them, and a cleared row stays dependent, as it heads a boundary,
which does.
"""
from __future__ import annotations

import dataclasses
import functools
from itertools import combinations
from operator import and_
from typing import Sequence

from . import gf2
from .complexes import SimplicialComplex, simplex
from .symmetry import _orbit_marks

__all__ = [
    "HomologyReport",
    "boundary_matrix",
    "betti_numbers",
    "reduced_betti",
    "induced_kernel_dim",
    "relative_mu_contribution",
    "ChainEngine",
]


@dataclasses.dataclass(slots=True)
class HomologyReport:
    """Betti numbers of a complex over GF(2).

    ``betti[j]`` is the rank of H_j.  ``reduced`` is shifted by one:
    ``reduced[k]`` is the rank of reduced H_{k-1}, so ``reduced[0]`` is the
    degree -1 entry (1 for the empty complex, else 0).
    """

    betti: tuple[int, ...]
    reduced: tuple[int, ...]
    field: str = dataclasses.field(default="GF2", compare=False)

    def to_json(self) -> dict:
        return {"betti": list(self.betti), "reduced": list(self.reduced), "field": self.field}


class ChainEngine:
    """Chain-level view of a complex: face indices and int boundary rows.

    ``boundary_rows(j)`` has one int per j-face, bit c set for each
    (j-1)-face c in its boundary; the rows and K's cocycles are cached.  No int
    is built up bit by bit: a row is a sum of distinct powers of two, and
    a vertex-face mask is parsed by ``int`` from one string of digits
    per vertex.  Use :func:`engine` to get the per-complex cached instance.
    """

    def __init__(self, K: SimplicialComplex):
        self.K = K
        d = K.dim
        self.dim = d
        self.faces = [K.faces(j) for j in range(d + 1)]
        self.index = [{f: i for i, f in enumerate(fs)} for fs in self.faces]
        self.f = tuple(len(fs) for fs in self.faces)
        self.brows: list[list[int] | None] = [None] * (d + 1)
        self._vfaces: list[list[int]] | None = None
        self._vpos: dict[int, int] | None = None

    def boundary_rows(self, j: int) -> list[int]:
        """Rows of d_j, one int per j-face over (j-1)-face columns: the sum
        of 1 << c over the indices c of the face's j-vertex subfaces."""
        if j < 1 or j > self.dim:
            return []
        if self.brows[j] is None:
            lower = self.index[j - 1].__getitem__
            self.brows[j] = [sum(map((1).__lshift__, map(lower, combinations(face, j)))) for face in self.faces[j]]
        return self.brows[j]

    def betti(self, pivs: list[dict[int, int]] | None = None) -> tuple[int, ...]:
        """Betti numbers: those of the span of every face; the echelon rows
        of each d_j go into ``pivs[j]`` when given (:meth:`_masked_ranks`)."""
        inside = [(1 << n) - 1 for n in self.f]
        return self.span_betti((inside, self._masked_ranks(inside, 0, pivs)))

    @functools.cached_property
    def cocycle_rows(self) -> list[tuple[int, list[int]]]:
        """Per degree i, beta_i(K) and the rows of d_i (zeros for i = 0)
        shifted up by beta_i, bit k then a face's value under the k-th cocycle
        of an H^i(K) basis: per cycle on the faces heading no echelon row of
        B_i (clearing), its pivot plus the pivots that even out those rows.
        The echelon rows are :meth:`betti`'s own."""
        out, pivs = [], [{} for _ in range(self.dim + 2)]
        for i, b in enumerate(self.betti(pivs)):
            rows = self.boundary_rows(i) or [0] * self.f[i]
            if b:
                ech = pivs[i + 1]
                free = [c for c in range(self.f[i]) if c + 1 not in ech]
                # an echelon basis: its rows' top bits are the cycles' pivots
                cycles = gf2.left_nullspace_of_words([rows[c] for c in free], self.f[i - 1] if i else 0)
                phis = [1 << free[z.bit_length() - 1] for z in cycles]
                for p in sorted(ech):  # the rows below p keep their parity
                    phis = [phi | ((ech[p] & phi).bit_count() & 1) << (p - 1) for phi in phis]
                rows = [(r << b) | c for r, c in zip(rows, gf2.GF2Matrix(b, self.f[i], phis).transpose().words)]
            out.append((b, rows))
        return out

    # -- vertex-span machinery ---------------------------------------------

    def _vertex_faces(self):
        """Per dimension and vertex position, the int of faces holding it,
        parsed from a bytearray of b"0" with b"1" at the faces holding the
        vertex, the last face first (most significant digit)."""
        if self._vfaces is None:
            verts = self.K.vertices
            vfaces = []
            for fs in self.faces:
                digits = {v: bytearray(b"0") * len(fs) for v in verts}
                for p, face in enumerate(reversed(fs)):
                    for v in face:
                        digits[v][p] = 49  # b"1"
                vfaces.append([int(digits[v], 2) for v in verts])
            self._vfaces = vfaces
            self._vpos = {v: i for i, v in enumerate(verts)}
        return self._vfaces, self._vpos

    def word_of(self, w) -> int:
        """Bitmask over vertex positions for a vertex set ``w``."""
        _, vpos = self._vertex_faces()
        m = 0
        for v in w:
            m |= 1 << vpos[v]
        return m

    def span_selection(self, wmask: int, jmax: int | None = None) -> tuple[list[int], list[int], list[int]]:
        """The span of a vertex mask as the :meth:`_paired_ranks` of its
        :meth:`_span_masks` up to ``jmax`` (default dim).  Cut at jmax below
        dim, the rank of d_{jmax+1} is not taken, so only the Betti numbers
        below jmax are exact."""
        return self._paired_ranks(self._span_masks(wmask, self.dim if jmax is None else min(jmax, self.dim)))

    def _paired_ranks(self, inside: list[int]) -> tuple[list[int], list[int], list[int]]:
        """A subcomplex given by the masks ``inside`` of its t-faces, t from
        0, as ``(inside, ranks, image)``: the masks, their
        :meth:`_masked_ranks`, and the ranks of H_t(A) -> H_t(K), 0 at t = 0
        (:meth:`span_kernel_dim`).  Rows are not masked: a face of a
        subcomplex has its boundary in it.
        """
        ranks, image, cleared = [0] * (len(inside) + 1), [0] * len(inside), 0
        paired = self.cocycle_rows
        for t in range(len(inside) - 1, 0, -1):
            b, rows = paired[t]
            piv = self.span_rank(inside[t] & ~cleared, rows)
            cleared, image[t] = piv >> b, (piv & ((1 << b) - 1)).bit_count()
            ranks[t] = cleared.bit_count()
        return inside, ranks, image

    @functools.cached_property
    def _span_tables(self) -> list[tuple[int, int, list[tuple[int, ...]]]]:
        """Per chunk of 5 vertex positions from lo, ``(lo, key, table)``:
        table[m] holds per dimension the faces holding none of the chunk's
        vertices in m, one AND from table[m less its lowest bit]."""
        vfaces, vpos = self._vertex_faces()
        n, full = len(vpos), tuple((1 << k) - 1 for k in self.f)
        tables = []
        for lo in range(0, n or 1, 5):  # one empty chunk when no vertex
            avoid = [tuple(x ^ fs[p] for x, fs in zip(full, vfaces)) for p in range(lo, min(lo + 5, n))]
            table = [full]
            for m in range(1, 1 << len(avoid)):
                table.append(tuple(map(and_, table[m ^ (m & -m)], avoid[(m & -m).bit_length() - 1])))
            tables.append((lo, (1 << len(avoid)) - 1, table))
        return tables

    def _span_masks(self, wmask: int, top: int, holding: Sequence[int] = ()) -> list[int]:
        """Per dimension j from dim ``holding`` (0 when empty) up to ``top``
        at which they exist, the int of the j-faces inside the span of the
        vertex mask that hold the vertices at the positions ``holding``, from
        :attr:`_span_tables`, at most 2**5 / 5 = 6.4 times the memory of the
        vertex-face masks (77 KB on M6_16).  Empty dimensions come last."""
        comp = ~wmask
        (_, key, table), *rest = self._span_tables
        masks = table[comp & key]
        for lo, key, table in rest:
            masks = map(and_, masks, table[comp >> lo & key])
        start = max(len(holding) - 1, 0)
        inside = list(masks)[start : top + 1]
        for p in holding:
            inside = [x & self._vfaces[j][p] for j, x in enumerate(inside, start)]
        return [x for x in inside if x]

    def _masked_ranks(self, inside: list[int], base: int, pivs: list[dict[int, int]] | None = None) -> list[int]:
        """Ranks of the chain complex of the face masks ``inside``, whose
        ``inside[t]`` holds faces of dimension base + t: a vertex span, or
        the faces of one holding a fixed face.  ``ranks[t]`` is the rank of
        the rows of d_{base+t} in ``inside[t]`` masked to ``inside[t-1]``,
        with ``ranks[0]`` = 0 and a 0 appended.  Taken top-down, leaving out
        the rows of the pivot columns of the dimension above (clearing,
        Chen and Kerber 2011): by dd = 0 such a row is a sum of rows below
        it in its echelon row, so no rank changes, and as rows rise it would
        reduce to zero, so the echelon rows, kept in ``pivs[t]`` when given,
        are those of all the rows.
        """
        ranks = [0] * (len(inside) + 1)
        cleared = 0
        for t in range(len(inside) - 1, 0, -1):
            cleared = self.span_rank(inside[t] & ~cleared, self.boundary_rows(base + t), inside[t - 1], pivs and pivs[t])
            ranks[t] = cleared.bit_count()
        return ranks

    def span_rank(self, sel: int, rows: list[int], cols: int | None = None, piv: dict[int, int] | None = None) -> int:
        """Pivot columns, as an int, of the ``rows`` picked by ``sel``, masked
        to ``cols`` (None for a span's rows, which lie in it), taken by rising
        face: any order has these pivots, but falling ones fill in more.  The
        echelon rows go into ``piv`` when given."""
        return gf2.echelon(rows, gf2.bits_of(sel), cols, piv)

    def span_betti(self, span: tuple[list[int], ...]) -> tuple[int, ...]:
        """Betti numbers of a :meth:`span_selection`, or of any face masks
        with their :meth:`_masked_ranks` (empty masks give ())."""
        inside, ranks = span[0], span[1]
        return tuple(x.bit_count() - ranks[j] - ranks[j + 1] for j, x in enumerate(inside))

    def span_kernel_dim(self, span: tuple[list[int], list[int], list[int]], i: int) -> int:
        """dim ker(H_i(span) -> H_i(K)) of a :meth:`span_selection`: b_i of
        the span less the rank of the map.  A cycle bounds in K exactly when
        K's cocycles pair to zero with it, so as the lowest columns of the
        selection's rows (:attr:`cocycle_rows`) they hold the pivots that
        count the rank, and a cleared row, heading a boundary, pairs to zero
        too.  For i = 0 it is the number of components of K the span meets.
        """
        inside, ranks, image = span
        if i < 0 or i >= len(inside):
            return 0
        im = image[i] if i else self.span_rank(inside[0], self.cocycle_rows[0][1]).bit_count()
        return inside[i].bit_count() - ranks[i] - ranks[i + 1] - im


def engine(K: SimplicialComplex) -> ChainEngine:
    """The cached chain engine of a complex."""
    if "chain_engine" not in K._cache:
        K._cache["chain_engine"] = ChainEngine(K)
    return K._cache["chain_engine"]


def _is_homology_manifold(K: SimplicialComplex) -> bool:
    """Is K a closed GF(2)-homology manifold of dimension at least 1?

    K must be pure, and the link of every nonempty face that is not a
    facet must have the GF(2) Betti numbers of a sphere of its dimension:
    two points for the link of a ridge, so K is closed.  The link ranks
    are read from the boundary rows of ``engine(K)``; no link complex is
    built.  An automorphism g of K maps lk(s) onto lk(gs), so one face is
    checked per orbit: ``symmetry._orbit_marks`` marks the images of each
    face that passes under up to 63 maps of the automorphism group, as in
    a tightness sweep, and marked faces are skipped.  Each map is a true
    automorphism, so this holds whether or not they make up the whole
    group; and a failing face ends the check, so only passes need marking.
    Cached in ``K._cache``.
    """
    if "homology_manifold" not in K._cache:
        K._cache["homology_manifold"] = _homology_manifold(K)
    return K._cache["homology_manifold"]


def _homology_manifold(K: SimplicialComplex) -> bool:
    d = K.dim
    if d < 1 or not K.is_pure:
        return False
    eng = engine(K)
    vpos = eng._vertex_faces()[1]
    # The faces of K holding an m-vertex face s form the augmented chain
    # complex of lk(s), shifted by m: star[t] holds the faces of dimension
    # m - 1 + t that contain s (s itself at t = 0, the empty face of the
    # link), and d_j of K restricted to them is the link's boundary.  Links
    # by rising dimension k: when a k-link is reached, the links of its own
    # faces (links of larger faces of K) are homology spheres, so it is a
    # closed homology k-manifold and b_i = b_{k-i} once it is connected.  So
    # it is a sphere (two points when k = 0) exactly when reduced b_i =
    # (i == k) for 0 <= i <= k // 2.
    passed, mark = _orbit_marks(K)  # vertex masks of the images of faces with sphere links
    for k in range(d):
        m = d - k
        top = min(d, m + k // 2 + 1)
        for s in eng.faces[m - 1]:
            ps = [vpos[v] for v in s]
            if sum(1 << p for p in ps) in passed:
                continue
            star = eng._span_masks(-1, top, ps)  # -1: all vertices
            ranks = eng._masked_ranks(star, m - 1)
            if any(star[t].bit_count() - ranks[t] - ranks[t + 1] != (t == k + 1) for t in range(1, k // 2 + 2)):
                return False
            mark(ps)
    return True


def boundary_matrix(K: SimplicialComplex, j: int) -> gf2.GF2Matrix:
    """Matrix of d_j: rows are (j-1)-faces, columns j-faces, lex order both.

    d_0 has no rows.  Raises ValueError for j outside [0, dim].
    """
    if j < 0 or j > K.dim:
        raise ValueError(f"j must be in [0, {K.dim}], got {j}")
    eng = engine(K)
    if j == 0:
        return gf2.GF2Matrix(0, eng.f[0])
    return gf2.GF2Matrix(eng.f[j], eng.f[j - 1], eng.boundary_rows(j)).transpose()


def betti_numbers(K: SimplicialComplex) -> HomologyReport:
    """GF(2) Betti numbers, plain and reduced."""
    if K.dim < 0:
        return HomologyReport((), (1,))
    betti = engine(K).betti()
    reduced = (0, betti[0] - 1) + betti[1:]
    return HomologyReport(betti, reduced)


def reduced_betti(K: SimplicialComplex) -> tuple[int, ...]:
    """Reduced Betti vector, index k holding reduced H_{k-1}."""
    return betti_numbers(K).reduced


def induced_kernel_dim(K: SimplicialComplex, A: SimplicialComplex, i: int) -> int:
    """Dimension of ker(H_i(A) -> H_i(K)) for a subcomplex A of K.

    A's faces up to dimension i + 1, as masks over ``engine(K)``'s face
    indices, go through the same cleared ranks, paired with K's cocycles,
    as a vertex span (:meth:`ChainEngine.span_kernel_dim`).  Raises
    ValueError if A is not a subcomplex of K or i is negative.
    """
    if i < 0:
        raise ValueError("i must be nonnegative")
    for f in A.facets:
        if not K.has_face(f):
            raise ValueError(f"not a subcomplex: {f} is not a face of the ambient complex")
    if i > A.dim:
        return 0
    eng = engine(K)
    inside = [sum(map((1).__lshift__, map(eng.index[j].__getitem__, A.faces(j)))) for j in range(min(i + 1, A.dim) + 1)]
    return eng.span_kernel_dim(eng._paired_ranks(inside), i)


_MU_CACHE_CAP = 4096  # per complex; one 20-ordering mu_vector batch of M6_16 makes about 300


def relative_mu_contribution(K: SimplicialComplex, v: int, lower) -> tuple[int, ...]:
    """Reduced Betti contribution of one vertex against a lower set.

    Returns a tuple c of length dim(K) + 1 where c[k] is the rank of
    reduced H_{k-1} of the span, inside the link of v, of the link
    vertices lying in ``lower``.  An empty span contributes 1 at index 0.
    Labels in ``lower`` outside K are ignored; a v outside K raises
    KeyError (ValueError if v is no positive int).  The faces of K holding
    v inside span(lower u {v}), rows masked to the same set, are the span's
    augmented chain complex shifted by one, read from ``engine(K)`` with
    cleared ranks.  Cached per complex; past ``_MU_CACHE_CAP`` entries the
    oldest goes.
    """
    lower_set = frozenset(lower)
    cache = K._cache.setdefault("mu_contrib", {})
    key = (v, lower_set)
    if key in cache:
        return cache[key]
    eng = engine(K)
    vpos = eng._vertex_faces()[1]
    if v not in vpos:
        raise KeyError(f"{simplex((v,))} is not a face")
    star = eng._span_masks(eng.word_of([v, *(u for u in lower_set if u in vpos)]), K.dim, [vpos[v]])
    out = eng.span_betti((star, eng._masked_ranks(star, 0)))
    result = out + (0,) * (K.dim + 1 - len(out))
    if len(cache) >= _MU_CACHE_CAP:
        del cache[next(iter(cache))]
    cache[key] = result
    return result
