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
from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence

from . import bounds as _bounds
from . import homology
from .bistellar import MoveCertificate, k_stacked_exact, stackedness_certificate
from .complexes import SimplicialComplex, Simplex
from .symmetry import find_central_involution

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
            edges = M.face_set(1)
            for a, b in self.diagonals:
                if (a, b) in edges:
                    raise ValueError(f"diagonal ({a}, {b}) is an edge of the complex")
        else:
            raise ValueError(f"unknown ambient kind {self.kind!r}")


def _family_size(M: SimplicialComplex, ambient: AmbientPolytope) -> int:
    """Number of admissible subsets: 2^n, or 2 * 3^m - 2^m for m diagonals."""
    if ambient.kind == "simplex":
        return 2 ** len(M.vertices)
    m = len(ambient.diagonals)
    return 2 * 3**m - 2**m


def _admissible_subsets(
    M: SimplicialComplex, ambient: AmbientPolytope, cap: int | None = None
) -> list[tuple[int, ...]]:
    """The admissible subsets with at most ``cap`` vertices (all when None),
    in (size, lex) order."""
    verts = M.vertices
    top = len(verts) if cap is None else cap
    if ambient.kind == "simplex":
        return [w for size in range(top + 1) for w in combinations(verts, size)]
    # cross polytope: a half-space trace meets every diagonal at most once
    # (it misses the center) or hits every diagonal at least once (contains it);
    # one of the second kind with at most m vertices meets each exactly once
    subsets: set[tuple[int, ...]] = set()
    ds = ambient.diagonals
    per_le = [((), (a,), (b,)) for a, b in ds]
    per_ge = [((a,), (b,), (a, b)) for a, b in ds]
    for per in (per_le, per_ge) if top > len(ds) else (per_le,):
        stack: list[tuple[int, tuple[int, ...]]] = [(0, ())]
        while stack:
            i, acc = stack.pop()
            if i == len(per):
                if len(acc) <= top:
                    subsets.add(tuple(sorted(acc)))
                continue
            for choice in per[i]:
                stack.append((i + 1, acc + choice))
    return sorted(subsets, key=lambda w: (len(w), w))


def _upper_half(M: SimplicialComplex, ambient: AmbientPolytope) -> Iterator[tuple[int, ...]]:
    """The admissible subsets with 2|W| > n, in (size, lex) order, unless M
    is a closed GF(2)-homology manifold (then none: see tightness_verify).
    The check runs only when the sweep gets here."""
    if not homology._is_homology_manifold(M):
        n = len(M.vertices)
        yield from (w for w in _admissible_subsets(M, ambient) if 2 * len(w) > n)


def _sampled_subsets(
    M: SimplicialComplex, ambient: AmbientPolytope, sample: int, rng: random.Random
) -> list[tuple[int, ...]]:
    """``min(sample, family size)`` distinct admissible subsets, uniform
    over the family, in (size, lex) order.

    Subsets are drawn one at a time until enough distinct ones are found,
    so the family is never built: the cost grows with the sample, not with
    the family.
    """
    if sample < 0:
        raise ValueError("sample must be nonnegative")
    verts = M.vertices
    ds = ambient.diagonals
    size = _family_size(M, ambient)
    if ambient.kind == "simplex":
        def draw() -> tuple[int, ...]:
            r = rng.getrandbits(len(verts))
            return tuple(v for i, v in enumerate(verts) if r >> i & 1)
    else:
        def draw() -> tuple[int, ...]:
            # one of the two families, then a uniform choice on each diagonal:
            # a, b, or neither ("at most once") / both ("at least once")
            while True:
                both = rng.random() < 0.5
                picks = [rng.randrange(3) for _ in ds]
                # subsets meeting each diagonal once lie in both families,
                # so only half of their draws are kept
                if max(picks) < 2 and rng.random() < 0.5:
                    continue
                w = []
                for (a, b), p in zip(ds, picks):
                    w.extend(((a,), (b,), (a, b) if both else ())[p])
                return tuple(sorted(w))
    drawn: set[tuple[int, ...]] = set()
    while len(drawn) < min(sample, size):
        drawn.add(draw())
    return sorted(drawn, key=lambda w: (len(w), w))


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

    Above ``ceiling`` vertices a seeded ``sample`` of admissible subsets
    is required and the report is labeled non-exhaustive; the ceiling is
    checked before any subset is built, and so is i_max, which must be
    nonnegative.

    On a closed GF(2)-homology d-manifold, W fails at degree i exactly
    when its complement fails at degree d - 1 - i (Lefschetz duality and
    the exact sequence of the pair; Kuehnel, LNM 1612), and both families
    are closed under complement.  So the first witness in (size, lex)
    order has 2|W| <= n: an exhaustive run with i_max >= dim sweeps the
    larger subsets only if M is no such manifold, and its report is the
    full sweep's.
    """
    if M.connectivity() != 1:
        raise ValueError("tightness check requires a connected complex")
    ambient.validate_for(M)
    if i_max is None:
        i_max = M.dim
    if i_max < 0:
        raise ValueError(f"i_max must be nonnegative, got {i_max}")
    n = len(M.vertices)
    exhaustive = n <= ceiling
    if exhaustive and i_max >= M.dim:
        subsets = chain(_admissible_subsets(M, ambient, n // 2), _upper_half(M, ambient))
    elif exhaustive:
        subsets = _admissible_subsets(M, ambient)
    elif sample is None or seed is None:
        raise ValueError(
            f"vertex count {n} above enumeration ceiling {ceiling}; "
            "pass sample= and seed= for a sampled run"
        )
    else:
        subsets = _sampled_subsets(M, ambient, sample, random.Random(seed))
    eng = homology.engine(M)
    jcap = min(i_max + 1, M.dim)
    checked = 0
    for w in subsets:
        checked += 1
        if len(w) == 0:
            continue
        span = eng.span_selection(eng.word_of(w), jcap)
        bet = eng.span_betti(span)
        # i = 0: the span must stay connected
        if bet[0] > 1:
            return TightnessReport(False, (w, 0, bet[0] - 1), checked, exhaustive, i_max, ambient.kind)
        for i in range(1, min(i_max + 1, len(bet))):
            if bet[i] <= 0:
                continue
            kd = eng.span_kernel_dim(span, i)
            if kd > 0:
                return TightnessReport(False, (w, i, kd), checked, exhaustive, i_max, ambient.kind)
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
    unknown, never a refutation.  Per-link seeds derive from (seed, vertex).
    """
    d = M.dim
    if d < 1:
        raise ValueError("complex must have dimension at least 1")
    link_dim = d - 1
    verts = M.vertices
    links = {v: M.link((v,)) for v in verts}
    bistellar_route = 1 <= k <= (link_dim + 1) // 2
    per_vertex: dict = {}
    if bistellar_route:
        for v in verts:
            cert = stackedness_certificate(links[v], k, budget=budget, seed=seed * 65537 + v)
            per_vertex[v] = cert if cert is not None else "unknown"
        certified = all(isinstance(c, MoveCertificate) for c in per_vertex.values())
        return MembershipReport(certified, k, "bistellar", per_vertex)
    for v in verts:
        res = k_stacked_exact(links[v], k, ceiling=ceiling)
        per_vertex[v] = res.status
        if res.status != "yes":
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
    verts = M.vertices
    for size in range(2, k + 2):
        faces = M.face_set(size - 1)
        for cand in combinations(verts, size):
            if any(p in diag for p in combinations(cand, 2)):
                continue
            if cand not in faces:
                return False
    return True


def central_symmetry(M: SimplicialComplex) -> dict[int, int] | None:
    """A fixed-point-free involutive automorphism of the face lattice.

    Every orbit pair must be a missing edge (otherwise that edge would be
    a fixed face), which drives the search.  Returns the lexicographically
    least such involution as a vertex map, or None; SearchLimitError above 32 vertices.
    """
    return find_central_involution(M)


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
