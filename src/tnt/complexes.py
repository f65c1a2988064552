"""Simplicial complexes on positive integer vertex labels.

A simplex is a sorted tuple of distinct positive ints.  A
:class:`SimplicialComplex` stores the inclusion-maximal faces (facets) in
lexicographic order and answers face queries from per-dimension sets built
on demand.  Complexes are immutable; every operation returns a new object.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Simplex",
    "SimplicialComplex",
    "simplex",
    "from_facets",
    "from_text",
    "to_text",
    "from_json",
    "to_json",
    "load_complex",
    "save_complex",
    "PseudomanifoldReport",
]

Simplex = tuple[int, ...]


def simplex(vertices: Iterable[int]) -> Simplex:
    """Normalize an iterable of labels to a canonical simplex tuple.

    Raises ValueError on empty input, repeated labels, or labels that are
    not positive ints.
    """
    s = tuple(sorted(vertices))
    if not s:
        raise ValueError("empty simplex")
    for v in s:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"vertex labels must be positive ints, got {v!r}")
    for a, b in zip(s, s[1:]):
        if a == b:
            raise ValueError(f"repeated label {a} in simplex {s}")
    return s


def _maximalize(simplices: list[Simplex]) -> tuple[Simplex, ...]:
    # Drop duplicates and any simplex inside another, necessarily a larger
    # one: only the kept larger simplices are tested, none for a pure input.
    kept: list[Simplex] = []
    larger: list[frozenset[int]] = []
    for s in sorted(set(simplices), key=len, reverse=True):
        if kept and len(s) < len(kept[-1]):
            larger.extend(map(frozenset, kept[len(larger) :]))
        if not (larger and any(k.issuperset(s) for k in larger)):
            kept.append(s)
    return tuple(sorted(kept))


class SimplicialComplex:
    """An immutable simplicial complex given by its facet list.

    Parameters
    ----------
    facets : iterable of iterables of int
        The generating faces.  Containments are absorbed so that
        ``self.facets`` holds only inclusion-maximal faces, sorted
        lexicographically.  An empty iterable yields the empty complex.
    """

    __slots__ = ("facets", "_cache")

    def __init__(self, facets: Iterable[Iterable[int]] = (), *, _canonical: bool = False):
        if _canonical:
            self.facets: tuple[Simplex, ...] = tuple(facets)
        else:
            self.facets = _maximalize([simplex(f) for f in facets])
        self._cache: dict = {}

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension, -1 for the empty complex."""
        if "dim" not in self._cache:
            self._cache["dim"] = max(map(len, self.facets), default=0) - 1
        return self._cache["dim"]

    @property
    def is_pure(self) -> bool:
        if "is_pure" not in self._cache:
            self._cache["is_pure"] = len(set(map(len, self.facets))) <= 1
        return self._cache["is_pure"]

    @property
    def vertices(self) -> tuple[int, ...]:
        if "vertices" not in self._cache:
            vs: set[int] = set()
            for f in self.facets:
                vs.update(f)
            self._cache["vertices"] = tuple(sorted(vs))
        return self._cache["vertices"]

    def _faces_by_dim(self) -> list[list[Simplex]]:
        # faces[j] = sorted list of j-dimensional faces
        if "faces" not in self._cache:
            d = self.dim
            sets: list[set[Simplex]] = [set() for _ in range(d + 1)]
            for f in self.facets:
                for k in range(1, len(f) + 1):
                    sets[k - 1].update(combinations(f, k))
            self._cache["faces"] = [sorted(s) for s in sets]
            self._cache["face_sets"] = sets
        return self._cache["faces"]

    def faces(self, j: int) -> list[Simplex]:
        """All j-dimensional faces in lexicographic order."""
        if j < 0 or j > self.dim:
            return []
        return self._faces_by_dim()[j]

    def face_set(self, j: int) -> set[Simplex]:
        if j < 0 or j > self.dim:
            return set()
        self._faces_by_dim()
        return self._cache["face_sets"][j]

    def has_face(self, face: Iterable[int]) -> bool:
        s = simplex(face)
        return s in self.face_set(len(s) - 1)

    def __contains__(self, face) -> bool:
        try:
            return self.has_face(face)
        except ValueError:
            return False

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __len__(self) -> int:
        return len(self.facets)

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self.facets)

    def __repr__(self) -> str:
        f = self.f_vector()
        return f"SimplicialComplex(dim={self.dim}, f={f}, facets={len(self.facets)})"

    # -- numerical invariants --------------------------------------------

    def f_vector(self) -> tuple[int, ...]:
        """(f_0, ..., f_d); the empty complex has the empty f-vector."""
        if "f_vector" not in self._cache:
            self._cache["f_vector"] = tuple(len(fs) for fs in self._faces_by_dim())
        return self._cache["f_vector"]

    def euler_characteristic(self) -> int:
        return sum((-1) ** j * fj for j, fj in enumerate(self.f_vector()))

    # -- local structure -------------------------------------------------

    def link(self, face: Iterable[int]) -> "SimplicialComplex":
        """Link of ``face``: facets are F minus ``face`` over containing facets F.

        Raises KeyError if ``face`` is not a face of the complex.
        """
        s = simplex(face)
        if not self.has_face(s):
            raise KeyError(f"{s} is not a face")
        key = ("link", s)
        if key not in self._cache:
            fs = set(s)
            parts = [tuple(v for v in f if v not in fs) for f in self.facets if fs <= set(f)]
            parts = [p for p in parts if p]
            if self.is_pure:
                # distinct parts of one size: nothing to maximalize or check
                self._cache[key] = SimplicialComplex(sorted(parts), _canonical=True)
            else:
                self._cache[key] = SimplicialComplex(parts)
        return self._cache[key]

    def star(self, face: Iterable[int]) -> "SimplicialComplex":
        """Closed star: all facets containing ``face``."""
        s = simplex(face)
        if not self.has_face(s):
            raise KeyError(f"{s} is not a face")
        fs = set(s)
        return SimplicialComplex((f for f in self.facets if fs <= set(f)), _canonical=True)

    def span(self, w: Iterable[int]) -> "SimplicialComplex":
        """Full subcomplex on the vertex set ``w``.

        Facets of the span are the maximal intersections F \\cap W.  Raises
        ValueError if ``w`` contains labels outside the vertex set.
        """
        ws = set(w)
        unknown = ws - set(self.vertices)
        if unknown:
            raise ValueError(f"unknown labels in span set: {sorted(unknown)}")
        parts = []
        for f in self.facets:
            p = tuple(v for v in f if v in ws)
            if p:
                parts.append(p)
        return SimplicialComplex(parts)

    # -- neighborliness and missing faces --------------------------------

    def is_k_neighborly(self, k: int) -> bool:
        """True when every k-subset of the vertex set is a face."""
        n = len(self.vertices)
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
        fv = self.f_vector()
        if k - 1 >= len(fv):
            return False
        from math import comb

        return fv[k - 1] == comb(n, k)

    def missing_faces(self, j: int) -> list[Simplex]:
        """j-simplices that are not faces but whose full boundary is present."""
        if j < 0:
            raise ValueError("j must be nonnegative")
        present, lower = self.face_set(j), self.face_set(j - 1)
        # every vertex is a face, so j = 0 finds none
        cands = combinations(self.vertices, j + 1)
        return [c for c in cands if c not in present and all(s in lower for s in combinations(c, j))]

    # -- global structure -------------------------------------------------

    def connectivity(self) -> int:
        """Number of connected components of the 1-skeleton."""
        return _components(self.vertices, self.facets)

    def pseudomanifold_check(self) -> "PseudomanifoldReport":
        """Check the closed-pseudomanifold conditions.  Requires a pure complex."""
        if not self.facets:
            raise ValueError("empty complex")
        if not self.is_pure:
            raise ValueError("pseudomanifold check requires a pure complex")
        d = self.dim
        ridge_facets: dict[Simplex, list[int]] = {}
        for i, f in enumerate(self.facets):
            for r in combinations(f, d):
                ridge_facets.setdefault(r, []).append(i)
        closed = all(len(v) == 2 for v in ridge_facets.values())
        # facet adjacency via shared ridges
        strongly_connected = _components(range(len(self.facets)), ridge_facets.values()) == 1
        return PseudomanifoldReport(
            dim=d,
            closed=closed,
            facet_graph_connected=strongly_connected,
            skeleton_components=self.connectivity(),
        )

    # -- hashing -----------------------------------------------------------

    def canonical_hash(self) -> str:
        """128-bit blake2b hex digest of the canonical facet listing."""
        if "hash" not in self._cache:
            h = hashlib.blake2b(digest_size=16)
            for f in self.facets:
                h.update(" ".join(map(str, f)).encode())
                h.update(b"\n")
            self._cache["hash"] = h.hexdigest()
        return self._cache["hash"]


def _components(nodes: Iterable, groups: Iterable[Sequence]) -> int:
    """Connected components of ``nodes`` once the members of each group are joined."""
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in groups:
        a = g[0]
        for b in g[1:]:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return len({find(x) for x in parent})


@dataclass(slots=True, eq=False)
class PseudomanifoldReport:
    """Result of :meth:`SimplicialComplex.pseudomanifold_check`."""

    dim: int
    closed: bool
    facet_graph_connected: bool
    skeleton_components: int

    @property
    def is_closed_pseudomanifold(self) -> bool:
        return self.closed and self.facet_graph_connected

    def to_json(self) -> dict:
        return {**asdict(self), "is_closed_pseudomanifold": self.is_closed_pseudomanifold}


# -- construction and serialization ---------------------------------------


def from_facets(raw: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Build a complex from raw facet lists.

    Inner lists must be nonempty and duplicate-free; containments are
    absorbed.  Raises ValueError on empty input or malformed entries.
    """
    raw = list(raw)
    if not raw:
        raise ValueError("from_facets: empty input")
    return SimplicialComplex(raw)


def to_text(K: SimplicialComplex) -> str:
    """Plain-text form: one facet per line, labels space-separated."""
    return "".join(" ".join(map(str, f)) + "\n" for f in K.facets)


def from_text(text: str) -> SimplicialComplex:
    """Parse the plain-text facet format.

    Blank lines and ``#`` comments are ignored.  Malformed lines raise
    ValueError naming the 1-based line number.
    """
    rows: list[list[int]] = []
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            row = [int(tok) for tok in body.split()]
        except ValueError:
            raise ValueError(f"line {ln}: not a list of integers: {body!r}") from None
        try:
            simplex(row)
        except ValueError as e:
            raise ValueError(f"line {ln}: {e}") from None
        rows.append(row)
    if not rows:
        raise ValueError("no facets found in input")
    return from_facets(rows)


def to_json(K: SimplicialComplex) -> str:
    """JSON form with sorted keys; round-trips bit-exactly."""
    obj = {"facets": [list(f) for f in K.facets], "format": "facets-v1"}
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def from_json(text: str) -> SimplicialComplex:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"line {e.lineno}: invalid JSON: {e.msg}") from None
    if not isinstance(obj, dict) or "facets" not in obj:
        raise ValueError("JSON object must have a 'facets' key")
    return from_facets(obj["facets"])


def load_complex(path: str) -> SimplicialComplex:
    """Read a complex from a file; ``.json`` selects JSON, anything else text."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        return from_json(text)
    return from_text(text)


def save_complex(K: SimplicialComplex, path: str) -> None:
    data = to_json(K) if path.endswith(".json") else to_text(K)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(data)
