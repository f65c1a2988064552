"""GF(2) simplicial homology and induced-kernel computations.

Betti numbers come from boundary-matrix ranks: beta_j = f_j - rank d_j -
rank d_{j+1}.  A per-complex :class:`ChainEngine` caches face indices,
int boundary rows, and boundary-space bases so that full subcomplexes
(vertex spans) can be processed without rebuilding chain complexes.  A
span is selected once, as one int mask per dimension of the faces lying
inside it; faces keep their positions in the ambient index, so the span's
boundary ranks are ranks of the ambient rows its masks pick out.  Link
homology is read from the same rows: the faces holding a face s, masked
to the faces holding s one dimension down, are the augmented chain
complex of lk(s).
"""
from __future__ import annotations

import dataclasses

from . import gf2
from .complexes import SimplicialComplex, simplex

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
    (j-1)-face c in its boundary; ranks and boundary-space bases are
    cached.  Use :func:`engine` to get the per-complex cached instance.
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
        self._ranks: dict[int, int] = {}
        self._bbasis: dict[int, list[int]] = {}

    def boundary_rows(self, j: int) -> list[int]:
        """Rows of d_j, one int per j-face over (j-1)-face columns."""
        if j < 1 or j > self.dim:
            return []
        if self.brows[j] is None:
            lower = self.index[j - 1]
            self.brows[j] = [
                sum(1 << lower[face[:k] + face[k + 1 :]] for k in range(len(face)))
                for face in self.faces[j]
            ]
        return self.brows[j]

    def rank(self, j: int) -> int:
        """Rank of d_j."""
        if j < 1 or j > self.dim:
            return 0
        if j not in self._ranks:
            self._ranks[j] = gf2.rank_of_words(self.boundary_rows(j), self.f[j - 1])
        return self._ranks[j]

    def boundary_basis(self, i: int) -> list[int]:
        """RREF basis rows of the boundary space B_i over the i-face columns."""
        if i not in self._bbasis:
            if i + 1 > self.dim:
                self._bbasis[i] = []
            else:
                rref, piv = gf2.rref_of_words(self.boundary_rows(i + 1), self.f[i])
                self._bbasis[i] = rref
                self._ranks[i + 1] = len(piv)
        return self._bbasis[i]

    def betti(self) -> tuple[int, ...]:
        d = self.dim
        if d < 0:
            return ()
        return tuple(self.f[j] - self.rank(j) - self.rank(j + 1) for j in range(d + 1))

    # -- vertex-span machinery ---------------------------------------------

    def _vertex_faces(self):
        """Per dimension and vertex position, the int of faces holding it."""
        if self._vfaces is None:
            vpos = {v: i for i, v in enumerate(self.K.vertices)}
            vfaces = []
            for fs in self.faces:
                masks = [0] * len(vpos)
                for i, face in enumerate(fs):
                    for v in face:
                        masks[vpos[v]] |= 1 << i
                vfaces.append(masks)
            self._vfaces = vfaces
            self._vpos = vpos
        return self._vfaces, self._vpos

    def word_of(self, w) -> int:
        """Bitmask over vertex positions for a vertex set ``w``."""
        _, vpos = self._vertex_faces()
        m = 0
        for v in w:
            m |= 1 << vpos[v]
        return m

    def span_selection(self, wmask: int, jmax: int | None = None) -> tuple[list[int], list[int]]:
        """The span of a vertex mask as ``(inside, ranks)``.

        ``inside[j]`` is the int of the j-faces lying inside the mask, for
        each j up to ``jmax`` (default dim) at which the span has faces;
        it is the complement of the faces holding a vertex outside the
        mask, whose bits are listed once.  ``ranks[j]`` is the span rank
        of d_j, with a 0 appended for the dimension above.  Cut at jmax
        below dim, the rank of d_{jmax+1} is not taken, so only the
        Betti numbers below jmax are exact.
        """
        vfaces, vpos = self._vertex_faces()
        comp = gf2.bits_of(~wmask & ((1 << len(vpos)) - 1))
        top = self.dim if jmax is None else min(jmax, self.dim)
        inside = []
        for j, masks in enumerate(vfaces[: top + 1]):
            o = 0
            for p in comp:
                o |= masks[p]
            x = ((1 << self.f[j]) - 1) ^ o
            if not x:
                break
            inside.append(x)
        ranks = [self.span_rank(x, j) for j, x in enumerate(inside)] + [0]
        return inside, ranks

    def span_rank(self, inside_j: int, j: int) -> int:
        """Rank of d_j restricted to the span with j-face mask ``inside_j``.

        Faces of span faces stay in the span, so the selected rows of the
        ambient d_j already have support inside the span's columns and the
        restricted rank equals the rank of the row subset.
        """
        if j < 1 or j > self.dim or not inside_j:
            return 0
        rows = self.boundary_rows(j)
        return gf2.rank_of_words([rows[k] for k in gf2.bits_of(inside_j)], self.f[j - 1])

    def span_betti(self, span: tuple[list[int], list[int]]) -> tuple[int, ...]:
        """Betti numbers of a :meth:`span_selection` (empty span gives ())."""
        inside, ranks = span
        return tuple(x.bit_count() - ranks[j] - ranks[j + 1] for j, x in enumerate(inside))

    def span_kernel_dim(self, span: tuple[list[int], list[int]], i: int) -> int:
        """dim ker(H_i(span) -> H_i(K)) of a :meth:`span_selection`, via the
        masked boundary basis.

        A cycle of the span bounds in K exactly when it lies in B_i(K) with
        support inside the span's i-faces; those form the subspace of the
        boundary space vanishing on the complementary columns.
        """
        inside, ranks = span
        if i < 0 or i >= len(inside):
            return 0
        basis = self.boundary_basis(i)
        if not basis:
            return 0
        out_i = ((1 << self.f[i]) - 1) ^ inside[i]
        z_cap_b = len(basis) - gf2.rank_of_words([b & out_i for b in basis], self.f[i])
        return z_cap_b - ranks[i + 1]


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
    built.  Cached in ``K._cache``.
    """
    if "homology_manifold" not in K._cache:
        K._cache["homology_manifold"] = _homology_manifold(K)
    return K._cache["homology_manifold"]


def _homology_manifold(K: SimplicialComplex) -> bool:
    d = K.dim
    if d < 1 or not K.is_pure:
        return False
    eng = engine(K)
    vfaces, vpos = eng._vertex_faces()
    # The faces of K holding an m-vertex face s form the augmented chain
    # complex of lk(s), shifted by m: star[t] holds the faces of dimension
    # m - 1 + t that contain s (s itself at t = 0, the empty face of the
    # link), and d_j of K restricted to them is the link's boundary.  Links
    # by rising dimension k: when a k-link is reached, the links of its own
    # faces (links of larger faces of K) are homology spheres, so it is a
    # closed homology k-manifold and b_i = b_{k-i} once it is connected.  So
    # it is a sphere (two points when k = 0) exactly when reduced b_i =
    # (i == k) for 0 <= i <= k // 2.
    for k in range(d):
        m = d - k
        top = min(d, m + k // 2 + 1)
        for s in eng.faces[m - 1]:
            star = []
            for masks in vfaces[m - 1 : top + 1]:
                x = -1
                for v in s:
                    x &= masks[vpos[v]]
                star.append(x)
            ranks = [0]
            for t in range(1, len(star)):
                rows, below = eng.boundary_rows(m - 1 + t), star[t - 1]
                sel = [rows[c] & below for c in gf2.bits_of(star[t])]
                ranks.append(gf2.rank_of_words(sel, eng.f[m - 2 + t]))
            ranks.append(0)
            if any(star[t].bit_count() - ranks[t] - ranks[t + 1] != (t == k + 1) for t in range(1, k // 2 + 2)):
                return False
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

    Computed as dim(Z_i(A) cap B_i(K)) - dim B_i(A), with the intersection
    obtained from dim U + dim W - dim(U + W).  Raises ValueError if A is
    not a subcomplex of K or i is negative.
    """
    if i < 0:
        raise ValueError("i must be nonnegative")
    for f in A.facets:
        if not K.has_face(f):
            raise ValueError(f"not a subcomplex: {f} is not a face of the ambient complex")
    if i > A.dim:
        return 0
    eng_k = engine(K)
    eng_a = engine(A)
    fi_k = eng_k.f[i] if i <= K.dim else 0
    # Z_i(A) embedded in the ambient i-chain coordinates
    emb = [eng_k.index[i][f] for f in eng_a.faces[i]]
    if i == 0:
        z_rows = [1 << c for c in emb]
    else:
        ker = gf2.left_nullspace_of_words(eng_a.boundary_rows(i), eng_a.f[i - 1])
        z_rows = [sum(1 << emb[local] for local in gf2.bits_of(z)) for z in ker]
    basis = eng_k.boundary_basis(i)
    z_cap_b = len(z_rows) + len(basis) - gf2.rank_of_words(z_rows + basis, fi_k)
    b_a = eng_a.rank(i + 1)
    return z_cap_b - b_a


_MU_CACHE_CAP = 4096  # per complex; one 20-ordering mu_vector batch of M6_16 makes about 300


def relative_mu_contribution(K: SimplicialComplex, v: int, lower) -> tuple[int, ...]:
    """Reduced Betti contribution of one vertex against a lower set.

    Returns a tuple c of length dim(K) + 1 where c[k] is the rank of
    reduced H_{k-1} of the span, inside the link of v, of the link
    vertices lying in ``lower``.  An empty span contributes 1 at index 0.
    Cached per complex; past ``_MU_CACHE_CAP`` entries the oldest goes.
    """
    vs = simplex((v,))
    lower_set = frozenset(lower)
    cache = K._cache.setdefault("mu_contrib", {})
    key = (v, lower_set)
    if key in cache:
        return cache[key]
    d = K.dim
    link = K.link(vs)
    w = lower_set.intersection(link.vertices)
    out = [0] * (d + 1)
    if not w:
        out[0] = 1
    else:
        eng = engine(link)
        bet = eng.span_betti(eng.span_selection(eng.word_of(w)))
        if bet:
            out[1] = bet[0] - 1
            for j in range(1, len(bet)):
                out[j + 1] = bet[j]
    result = tuple(out)
    if len(cache) >= _MU_CACHE_CAP:
        del cache[next(iter(cache))]
    cache[key] = result
    return result
