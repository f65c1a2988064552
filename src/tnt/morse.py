"""Polyhedral Morse theory over vertex orderings, exact tightness
verification, and membership checks for the stacked-link classes.

An ordering of the vertices stands for a generic linear height function;
the critical-index multiplicities of a vertex are the reduced Betti
numbers (shifted up by one) of the span of its predecessors inside its
link.  Tightness is verified through injectivity of the homology maps
induced by vertex spans, over the admissible subset family of the chosen
ambient polytope.
"""
from __future__ import annotations

import dataclasses
import random
from dataclasses import asdict, dataclass
from itertools import chain, combinations, product
from typing import Iterable, Sequence

from . import bounds as _bounds
from . import gf2, homology, symmetry
from .bistellar import BistellarMove, MoveCertificate, k_stacked_exact, stackedness_certificate
from .complexes import SimplicialComplex

__all__ = [
    "MuVector",
    "AmbientPolytope",
    "TightnessReport",
    "MembershipReport",
    "TightNeighborlyReport",
    "mu_vector",
    "is_polar",
    "lacunary_tight_pattern",
    "tightness_verify",
    "walkup_class_membership",
    "hamiltonian_check",
    "central_symmetry",
    "tight_neighborly_check",
]


@dataclass(slots=True, eq=False)
class MuVector:
    """Critical-point multiplicities of one vertex ordering."""

    mu: tuple[int, ...]
    per_vertex: tuple[tuple[int, tuple[int, ...]], ...] = dataclasses.field(repr=False)

    def __iter__(self):
        return iter(self.mu)

    def __getitem__(self, i):
        return self.mu[i]

    def __len__(self):
        return len(self.mu)

    def __eq__(self, other):
        if isinstance(other, MuVector):
            return self.mu == other.mu
        return self.mu == tuple(other)


def mu_vector(M: SimplicialComplex, ordering: Sequence[int]) -> MuVector:
    """Multiplicity vector of the ordering (position = height rank).

    mu_i = sum over vertices of the rank of reduced H_{i-1} of the span,
    inside the vertex's link, of its predecessors; the empty span of the
    global minimum contributes 1 to mu_0.  Requires a pure complex and a
    bijective ordering.
    """
    if not M.is_pure or M.dim < 0:
        raise ValueError("mu_vector needs a nonempty pure complex")
    order = list(ordering)
    if sorted(order) != list(M.vertices):
        raise ValueError("ordering is not a bijection over the vertex set")
    d = M.dim
    mu = [0] * (d + 1)
    per_vertex = []
    seen: list[int] = []
    for v in order:
        contrib = homology.relative_mu_contribution(M, v, seen)
        per_vertex.append((v, contrib))
        for i, c in enumerate(contrib):
            mu[i] += c
        seen.append(v)
    return MuVector(tuple(mu), tuple(per_vertex))


def is_polar(mu) -> bool:
    """One critical point each at the bottom and the top index."""
    m = tuple(mu)
    return len(m) >= 1 and m[0] == 1 and m[-1] == 1


def lacunary_tight_pattern(mu, d: int | None = None) -> bool:
    """The sufficient tightness pattern: polar, symmetric, and vanishing at
    the even middle indices (both middle entries when d is odd)."""
    m = tuple(mu)
    if d is None:
        d = len(m) - 1
    if len(m) != d + 1 or not is_polar(m):
        return False
    if any(m[i] != m[d - i] for i in range(d + 1)):
        return False
    for i in range(2, d // 2 + 1):
        if i % 2 == 0 and m[i] != 0:
            return False
    if d % 2 == 1 and d >= 3:
        if m[d // 2] != 0 or m[d // 2 + 1] != 0:
            return False
    return True


@dataclass(frozen=True)
class AmbientPolytope:
    """Simplex or cross-polytope vertex geometry for admissible subsets."""

    kind: str
    n: int | None = None
    diagonals: tuple[tuple[int, int], ...] | None = None

    @classmethod
    def simplex(cls, n: int) -> "AmbientPolytope":
        return cls("simplex", n=n)

    @classmethod
    def cross(cls, diagonals: Iterable[Iterable[int]]) -> "AmbientPolytope":
        ds = tuple(tuple(sorted(d)) for d in diagonals)
        return cls("cross", diagonals=tuple(sorted(ds)))

    def validate_for(self, M: SimplicialComplex) -> None:
        verts = M.vertices
        if self.kind == "simplex":
            if self.n != len(verts):
                raise ValueError(f"vertex-count mismatch with ambient: {self.n} != {len(verts)}")
        elif self.kind == "cross":
            if self.diagonals is None:
                raise ValueError("cross ambient needs diagonals")
            flat = [v for d in self.diagonals for v in d]
            if sorted(flat) != list(verts):
                raise ValueError("diagonals must partition the vertex set into disjoint pairs")
            for a, b in self.diagonals:
                if M._mask((a, b)):
                    raise ValueError(f"diagonal ({a}, {b}) is an edge of the complex")
        else:
            raise ValueError(f"unknown ambient kind {self.kind!r}")


def _family_size(M: SimplicialComplex, ambient: AmbientPolytope) -> int:
    """Number of admissible subsets: 2^n, or 2 * 3^m - 2^m for m diagonals."""
    if ambient.kind == "simplex":
        return 2 ** len(M.vertices)
    m = len(ambient.diagonals)
    return 2 * 3**m - 2**m


def _admissible_masks(M: SimplicialComplex, ambient: AmbientPolytope, lo: int = 0, hi: int | None = None) -> Iterable[int]:
    """The admissible subsets with ``lo`` to ``hi`` vertices (hi None: all),
    in (size, lex) order, each as a vertex mask: bit p for ``M.vertices[p]``."""
    n = len(M.vertices)
    hi = n if hi is None else min(hi, n)
    if ambient.kind == "simplex":
        bits = [1 << p for p in range(n)]
        return chain.from_iterable(map(sum, combinations(bits, k)) for k in range(lo, hi + 1))
    # cross polytope: a half-space trace meets every diagonal at most once
    # (it misses the center) or hits every diagonal at least once (contains
    # it); the first kind has at most m vertices, the second at least m, and
    # those with m meet each diagonal exactly once, so lie in both
    bit = {v: 1 << p for p, v in enumerate(M.vertices)}
    ds = [(bit[a], bit[b]) for a, b in ambient.diagonals]
    m = len(ds)
    masks = list(map(sum, product(*((0, a, b) for a, b in ds)))) if lo <= m else []
    if hi > m:
        masks += (w for w in map(sum, product(*((a, b, a | b) for a, b in ds))) if w.bit_count() > m)
    return _size_lex((w for w in masks if lo <= w.bit_count() <= hi), n)


def _size_lex(masks: Iterable[int], n: int) -> list[int]:
    """The distinct vertex masks on n vertices in (size, lex) order: of two
    equal sizes, the set holding the lowest vertex not in both comes first
    in lex order, so the bit-reversed masks fall."""
    rev = {w: int(f"{w:0{n}b}"[::-1], 2) for w in masks}
    return sorted(rev, key=lambda w: (w.bit_count(), -rev[w]))


def _sampled_subsets(M: SimplicialComplex, ambient: AmbientPolytope, sample: int, rng: random.Random) -> list[int]:
    """``min(sample, family size)`` distinct admissible subsets, uniform
    over the family, in (size, lex) order, each as a vertex mask as in
    :func:`_admissible_masks`.

    Subsets are drawn one at a time until enough distinct ones are found,
    so the family is never built: the cost grows with the sample, not with
    the family.
    """
    if sample < 0:
        raise ValueError("sample must be nonnegative")
    n = len(M.vertices)
    size = _family_size(M, ambient)
    if ambient.kind == "simplex":
        def draw() -> int:
            return rng.getrandbits(n)
    else:
        bit = {v: 1 << p for p, v in enumerate(M.vertices)}
        ds = [(bit[a], bit[b]) for a, b in ambient.diagonals]

        def draw() -> int:
            # one of the two families, then a uniform choice on each diagonal:
            # a, b, or neither ("at most once") / both ("at least once")
            while True:
                both = rng.random() < 0.5
                picks = [rng.randrange(3) for _ in ds]
                # subsets meeting each diagonal once lie in both families,
                # so only half of their draws are kept
                if max(picks) < 2 and rng.random() < 0.5:
                    continue
                return sum((a, b, a | b if both else 0)[p] for (a, b), p in zip(ds, picks))
    drawn: set[int] = set()
    while len(drawn) < min(sample, size):
        drawn.add(draw())
    return _size_lex(drawn, n)


@dataclass(slots=True, eq=False)
class TightnessReport:
    """Verdict of the span-injectivity sweep."""

    tight: bool
    witness: tuple[tuple[int, ...], int, int] | None  # (W, i, kernel_dim)
    subsets_checked: int
    exhaustive: bool
    i_max: int
    ambient_kind: str

    def to_json(self) -> dict:
        w = None
        if self.witness is not None:
            w = {"W": list(self.witness[0]), "i": self.witness[1], "kernel_dim": self.witness[2]}
        return {
            "tight": self.tight,
            "witness": w,
            "subsets_checked": self.subsets_checked,
            "exhaustive": self.exhaustive,
            "i_max": self.i_max,
            "ambient": self.ambient_kind,
        }


def tightness_verify(
    M: SimplicialComplex,
    ambient: AmbientPolytope,
    i_max: int | None = None,
    ceiling: int = 20,
    sample: int | None = None,
    seed: int | None = None,
) -> TightnessReport:
    """Check injectivity of H_i(span(W)) -> H_i(M) over admissible W.

    Simplex ambient admits every vertex subset; cross-polytope ambient
    admits the half-space traces: subsets meeting each diagonal at most
    once or each diagonal at least once.  For each W the span must be
    connected (i = 0) and have vanishing induced kernel for 1 <= i <=
    i_max (default dim M).  Returns the first witness in (size, lex)
    order, or an exhaustive Tight verdict.

    Subsets are vertex masks, bit p for ``M.vertices[p]``; only a witness
    is decoded.  An automorphism g of M maps (M, span W) onto (M, span gW),
    so W and gW fail at the same degrees.  An exhaustive run marks the
    images of each passing W of at least 3 vertices under the maps of
    ``symmetry._orbit_marks`` (the automorphism group, at most 63 maps of
    it, none above 32 vertices, fewer if its search budget runs out) and
    skips the marked subsets: each is a true automorphism, so the marks are
    sound whether or not they make up the whole group or preserve the
    ambient's family.  Only passes are marked, as a failing W ends the
    sweep; so the witness and ``subsets_checked`` are the unreduced sweep's.
    The maps are searched once, at the first pass, so a sweep that fails
    at a non-edge searches none; sampled runs search for none.

    Above ``ceiling`` vertices a seeded ``sample`` of at least one
    admissible subset is required and the report is labeled non-exhaustive;
    the ceiling is checked before any subset is built, and so is i_max,
    which must be nonnegative.  Exhaustive runs ignore ``sample``.

    On a closed GF(2)-homology d-manifold, the kernels of W at degree i and
    of its complement at d - 1 - i have equal dimension (Lefschetz duality
    and the exact sequence of the pair; Kuehnel, LNM 1612), and both
    families are closed under complement.  So the first witness in (size,
    lex) order has 2|W| <= n when i_max >= dim, and an exhaustive run then
    sweeps no larger W; below dim it reads each larger W off the span of
    its complement, at degrees d - 1 - i.  The precondition is checked
    when the sweep first reaches the larger subsets; every report is the
    full sweep's.
    """
    if M.connectivity() != 1:
        raise ValueError("tightness check requires a connected complex")
    ambient.validate_for(M)
    d = M.dim
    if i_max is None:
        i_max = d
    if i_max < 0:
        raise ValueError(f"i_max must be nonnegative, got {i_max}")
    n = len(M.vertices)
    exhaustive = n <= ceiling
    if not exhaustive and (sample is None or seed is None or sample < 1):
        raise ValueError(
            f"vertex count {n} above enumeration ceiling {ceiling}; "
            "pass sample= (at least 1) and seed= for a sampled run"
        )
    eng = homology.engine(M)

    def phases():
        """(masks, dual) per run of subsets; dual: read off the complement."""
        if not exhaustive:
            yield _sampled_subsets(M, ambient, sample, random.Random(seed)), False
            return
        yield _admissible_masks(M, ambient, 0, n // 2), False
        manifold = homology._is_homology_manifold(M)  # once the sweep gets here
        if not manifold or i_max < d:
            yield _admissible_masks(M, ambient, n // 2 + 1), manifold

    passed, mark = symmetry._orbit_marks(M)  # vertex masks of the images of passing subsets
    passed.add(0)  # the empty span injects
    full, jcap, checked = (1 << n) - 1, min(i_max + 1, d), 0
    for masks, dual in phases():
        for checked, wmask in enumerate(masks, checked + 1):
            if wmask in passed:
                continue
            span = eng.span_selection(full ^ wmask) if dual else eng.span_selection(wmask, jcap)
            bet = eng.span_betti(span)
            for i in range(i_max + 1):
                j = d - 1 - i if dual else i
                # j = 0: M is connected and the span is not empty
                if j < len(bet) and (kd := bet[0] - 1 if j == 0 else bet[j] and eng.span_kernel_dim(span, j)) > 0:
                    w = tuple(map(M.vertices.__getitem__, gf2.bits_of(wmask)))
                    return TightnessReport(False, (w, i, kd), checked, exhaustive, i_max, ambient.kind)
            # points and pairs cost less than their images, and a sweep that
            # fails at a non-edge then never searches
            if exhaustive and wmask.bit_count() > 2:
                mark(gf2.bits_of(wmask))
    total = _family_size(M, ambient) if exhaustive else checked
    return TightnessReport(True, None, total, exhaustive, i_max, ambient.kind)


@dataclass(slots=True, eq=False)
class MembershipReport:
    """Per-link stackedness summary for the class-membership check."""

    certified: bool
    k: int
    route: str
    per_vertex: dict = dataclasses.field(repr=False)

    def to_json(self) -> dict:
        pv = {}
        for v, item in self.per_vertex.items():
            if isinstance(item, MoveCertificate):
                pv[str(v)] = {"status": "certified", "moves": len(item.moves)}
            else:
                pv[str(v)] = {"status": item}
        return {"certified": self.certified, "k": self.k, "route": self.route, "links": pv}


def _relabelled(cert: MoveCertificate, g: dict[int, int], S: SimplicialComplex) -> MoveCertificate:
    """The certificate ``cert`` of lk(v) carried by an automorphism g of M
    with g(v) = w onto S = lk(w), which g maps lk(v) onto: every move's A
    and B mapped through g.  The end is the boundary simplex on the vertices
    of S that the index-d moves, the vertex removals, leave; every other
    allowed index keeps the vertex set.  Replayed against S."""
    d = S.dim
    moves = [BistellarMove(tuple(map(g.__getitem__, mv.A)), tuple(map(g.__getitem__, mv.B))) for mv in cert.moves]
    removed = {mv.A[0] for mv in moves if mv.index == d}
    left = [v for v in S.vertices if v not in removed]
    end = SimplicialComplex(list(combinations(left, len(left) - 1)), _canonical=True)
    out = MoveCertificate(S.canonical_hash(), moves, end.canonical_hash())
    out.replay(S)
    return out


def walkup_class_membership(
    M: SimplicialComplex,
    k: int,
    budget: int = 100_000,
    seed: int = 0,
    ceiling: int = 10,
) -> MembershipReport:
    """Certify that every vertex link is a k-stacked sphere.

    Links of a d-manifold are (d-1)-spheres, so the move-based certificate
    search applies for k up to ceil((d-1)/2); beyond that each link is
    handed to the exhaustive decider (subject to its vertex ceiling).  The
    result is certified only if every link succeeds; anything less is
    unknown, never a refutation.

    Links are decided once per vertex orbit (:func:`symmetry._vertex_orbits`):
    an automorphism g of M maps lk(v) onto lk(gv).  The least vertex v of
    each orbit is searched with the seed ``seed * 65537 + v``; every other
    vertex w of the orbit gets v's certificate relabelled by a map sending
    v to w, replayed against lk(w), so its move count in ``to_json`` is
    v's, or "unknown" when v's search fails.  The exact route copies v's
    status likewise.  ``per_vertex`` is in vertex order, and the exact
    route stops at its first link that is not "yes".
    """
    d = M.dim
    if d < 1:
        raise ValueError("complex must have dimension at least 1")
    link_dim = d - 1
    bistellar_route = 1 <= k <= (link_dim + 1) // 2
    orbits = symmetry._vertex_orbits(M)
    per_vertex: dict = {}
    if bistellar_route:
        for w in M.vertices:
            v, g = orbits[w]
            if v == w:
                cert = stackedness_certificate(M.link((v,)), k, budget=budget, seed=seed * 65537 + v)
                per_vertex[w] = cert if cert is not None else "unknown"
            else:
                cert = per_vertex[v]
                per_vertex[w] = _relabelled(cert, g, M.link((w,))) if isinstance(cert, MoveCertificate) else cert
        certified = all(isinstance(c, MoveCertificate) for c in per_vertex.values())
        return MembershipReport(certified, k, "bistellar", per_vertex)
    for w in M.vertices:
        v = orbits[w][0]
        per_vertex[w] = k_stacked_exact(M.link((w,)), k, ceiling=ceiling).status if v == w else per_vertex[v]
        if per_vertex[w] != "yes":
            return MembershipReport(False, k, "exact", per_vertex)
    return MembershipReport(True, k, "exact", per_vertex)


def hamiltonian_check(M: SimplicialComplex, k: int, ambient: AmbientPolytope) -> bool:
    """Does M contain the ambient polytope's full k-skeleton?

    Simplex ambient: equivalent to (k+1)-neighborliness.  Cross-polytope
    ambient: every simplex on at most k+1 ambient vertices avoiding all
    diagonals must be a face.
    """
    ambient.validate_for(M)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if ambient.kind == "simplex":
        return M.is_k_neighborly(k + 1)
    diag = {tuple(d) for d in ambient.diagonals}
    cands = chain.from_iterable(combinations(M.vertices, size) for size in range(2, k + 2))
    return all(M._mask(c) or any(p in diag for p in combinations(c, 2)) for c in cands)


def central_symmetry(M: SimplicialComplex) -> dict[int, int] | None:
    """A fixed-point-free involutive automorphism of the face lattice.

    Every orbit pair must be a missing edge (otherwise that edge would be
    a fixed face), which drives the search.  Returns the lexicographically
    least such involution as a vertex map, or None; SearchLimitError above 32 vertices.
    """
    return symmetry.find_central_involution(M)


@dataclass(slots=True, eq=False)
class TightNeighborlyReport:
    """First-Betti-number vertex bound against the actual vertex count."""

    dim: int
    f0: int
    beta1: int
    bound: int
    equality: bool
    two_neighborly: bool
    field: str = dataclasses.field(default="GF2", init=False)
    note: str = ""

    def to_json(self) -> dict:
        return asdict(self)


def tight_neighborly_check(M: SimplicialComplex) -> TightNeighborlyReport:
    """Compare f_0 against the first-Betti-number lower bound.

    beta_1 is computed over GF(2); the bound formula sidesteps
    orientability questions at the cost of possibly overcounting beta_1
    for nonorientable inputs over other fields.  For surfaces the
    Euler-characteristic form of the same bound is used.
    """
    if M.connectivity() != 1:
        raise ValueError("check requires a connected complex")
    d = M.dim
    if d < 2:
        raise ValueError("check requires dimension at least 2")
    betti = homology.betti_numbers(M).betti
    beta1 = betti[1] if len(betti) > 1 else 0
    f0 = len(M.vertices)
    if d >= 3:
        bound = _bounds.tight_neighborly_bound(d, beta1)
    else:
        bound = _bounds.heawood_bound(M.euler_characteristic())
    note = ""
    if beta1 == 0 and f0 == d + 2:
        note = "beta1=0: bound coincides with the boundary-simplex vertex count"
    elif f0 < bound:
        note = "below bound: no manifold with this beta1 admits so few vertices"
    return TightNeighborlyReport(
        d, f0, beta1, bound, f0 == bound, M.is_k_neighborly(2), note
    )
