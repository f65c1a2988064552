"""Simplicial complexes on positive integer vertex labels.

A simplex is a sorted tuple of distinct positive ints.  A :class:`SimplicialComplex`
stores the inclusion-maximal faces (facets) in lexicographic order.  Membership,
links and stars read the facets holding a face as the AND of its vertex-star
bitmasks; the faces of one dimension are a sorted list, built on first use.
Complexes are immutable; every operation returns a new object.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from itertools import chain, combinations, repeat
from math import comb
from operator import itemgetter
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
    not positive ints.  Labels come back as plain ints, so an ``int``
    subclass such as an ``IntEnum`` member prints and hashes as its number.
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
    return tuple(map(int, s))


def _plain_simplices(raw: list) -> list[Simplex] | None:
    """``raw`` as sorted tuples if each entry is a nonempty list or tuple of distinct plain
    ints >= 1, else None; types are read off every label, as a set merges 1, 1.0 and True."""
    if set(map(type, raw)) <= {list, tuple} and set(map(type, chain.from_iterable(raw))) == {int}:
        rows = list(map(tuple, map(sorted, raw)))
        if all(rows) and min(map(itemgetter(0), rows)) > 0 and sum(map(len, rows)) == sum(map(len, map(set, rows))):
            return rows
    return None


def _masked(items: Sequence, mask: int) -> list:
    """The items at the set bits of ``mask``, in order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(items[low.bit_length() - 1])
        mask ^= low
    return out


def _star_and(stars: dict[int, int], s: Iterable[int]) -> int:
    """The AND of the vertex stars of ``s``: the facets holding it, 0 when none."""
    m = -1
    for v in s:
        m &= stars.get(v, 0)
    return m


def _ridge_facets(K: "SimplicialComplex") -> dict[Simplex, list[int]]:
    """Per ridge of the pure complex K, the positions of the facets holding it."""
    table: dict[Simplex, list[int]] = {}
    for i, f in enumerate(K.facets):
        for r in combinations(f, K.dim):
            table.setdefault(r, []).append(i)
    return table


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
            raw = list(facets)
            self.facets = _maximalize(_plain_simplices(raw) or [simplex(f) for f in raw])
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
            self._cache["vertices"] = tuple(sorted(set(chain.from_iterable(self.facets))))
        return self._cache["vertices"]

    def faces(self, j: int) -> list[Simplex]:
        """All j-dimensional faces in lexicographic order, built on first use."""
        if j < 0 or j > self.dim:
            return []
        if ("faces", j) not in self._cache:
            self._cache["faces", j] = sorted(set(chain.from_iterable(map(combinations, self.facets, repeat(j + 1)))))
        return self._cache["faces", j]

    def face_set(self, j: int) -> set[Simplex]:
        """The j-faces as a set, built on first call; :meth:`has_face` needs none."""
        if j < 0 or j > self.dim:
            return set()
        if ("face_set", j) not in self._cache:
            self._cache["face_set", j] = set(self.faces(j))
        return self._cache["face_set", j]

    def has_face(self, face: Iterable[int]) -> bool:
        return self._mask(simplex(face)) != 0

    def __contains__(self, face) -> bool:
        try:
            s = simplex(face)
        except (TypeError, ValueError):  # not iterable, unorderable labels, or not a simplex
            return False
        return self._mask(s) != 0

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
            self._cache["f_vector"] = tuple(len(self.faces(j)) for j in range(self.dim + 1))
        return self._cache["f_vector"]

    def euler_characteristic(self) -> int:
        return sum((-1) ** j * fj for j, fj in enumerate(self.f_vector()))

    # -- local structure -------------------------------------------------

    def _stars(self) -> dict[int, int]:
        """Per vertex, the int with bit j set when ``facets[j]`` holds it (cached)."""
        if "stars" not in self._cache:
            stars: dict[int, int] = {}
            for j, f in enumerate(self.facets):
                bit = 1 << j
                for v in f:
                    stars[v] = stars.get(v, 0) | bit
            self._cache["stars"] = stars
        return self._cache["stars"]

    def _mask(self, s: Iterable[int]) -> int:
        """The facets holding ``s`` as bits of ``facets``: the AND of its vertex stars."""
        return _star_and(self._stars(), s)

    def _holding(self, s: Simplex) -> list[Simplex]:
        """The facets holding ``s``, in order; KeyError when none."""
        m = _star_and(self._stars(), s)
        if not m:
            raise KeyError(f"{s} is not a face")
        return _masked(self.facets, m)

    def link(self, face: Iterable[int]) -> "SimplicialComplex":
        """Link of ``face``: facets are F minus ``face`` over containing facets F.

        Raises KeyError if ``face`` is not a face of the complex.  No face
        lattice is built: the facets F come from :meth:`_holding`.
        """
        s = simplex(face)
        key = ("link", s)
        if key not in self._cache:
            fs = set(s)
            parts = [p for p in (tuple(v for v in f if v not in fs) for f in self._holding(s)) if p]
            # F - s inside G - s puts F inside G, so the parts are maximal
            self._cache[key] = SimplicialComplex(sorted(parts), _canonical=True)
        return self._cache[key]

    def star(self, face: Iterable[int]) -> "SimplicialComplex":
        """Closed star: all facets containing ``face``."""
        return SimplicialComplex(self._holding(simplex(face)), _canonical=True)

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
        return len(self.faces(k - 1)) == comb(n, k)

    def missing_faces(self, j: int) -> list[Simplex]:
        """j-simplices that are not faces but whose full boundary is present."""
        if j < 0:
            raise ValueError("j must be nonnegative")
        mask = self._mask
        # every vertex is a face, so j = 0 finds none
        cands = combinations(self.vertices, j + 1)
        return [c for c in cands if not mask(c) and all(map(mask, combinations(c, j)))]

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
        ridge_facets = _ridge_facets(self)
        closed = all(len(v) == 2 for v in ridge_facets.values())
        # facet adjacency via shared ridges
        strongly_connected = _components(range(len(self.facets)), ridge_facets.values()) == 1
        return PseudomanifoldReport(
            dim=self.dim,
            closed=closed,
            facet_graph_connected=strongly_connected,
            skeleton_components=self.connectivity(),
        )

    # -- hashing -----------------------------------------------------------

    def canonical_hash(self) -> str:
        """128-bit blake2b hex digest of the :func:`to_text` facet listing."""
        if "hash" not in self._cache:
            self._cache["hash"] = hashlib.blake2b(to_text(self).encode(), digest_size=16).hexdigest()
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
    rows: list[Simplex] = []
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            row = [int(tok) for tok in body.split()]
        except ValueError:
            raise ValueError(f"line {ln}: not a list of integers: {body!r}") from None
        try:
            rows.append(simplex(row))
        except ValueError as e:
            raise ValueError(f"line {ln}: {e}") from None
    if not rows:
        raise ValueError("no facets found in input")
    return SimplicialComplex(_maximalize(rows), _canonical=True)


def to_json(K: SimplicialComplex) -> str:
    """JSON form with sorted keys; round-trips bit-exactly."""
    obj = {"facets": [list(f) for f in K.facets], "format": "facets-v1"}
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def from_json(text: str) -> SimplicialComplex:
    """Parse the JSON form; malformed input raises ValueError."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"line {e.lineno}: invalid JSON: {e.msg}") from None
    if not isinstance(obj, dict) or "facets" not in obj:
        raise ValueError("JSON object must have a 'facets' key")
    rows = obj["facets"]
    if not isinstance(rows, list) or not all(isinstance(f, list) for f in rows):
        raise ValueError("'facets' must be a list of lists of vertex labels")
    for v in chain.from_iterable(rows):
        if not isinstance(v, (int, float)):  # numbers meet simplex's check once sorted
            raise ValueError(f"vertex labels must be positive ints, got {v!r}")
    return from_facets(rows)


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
