"""Bistellar moves, move certificates, and stackedness search.

A move is a pair (A, B): A is a face whose link is the boundary of the
simplex B, and B is not a face.  Applying the move replaces star(A) =
A * dB with dA * B.  The index of the move is dim B; the inverse move is
(B, A) with index dim A.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from operator import attrgetter
from typing import Iterable, Sequence

from .complexes import SimplicialComplex, Simplex, simplex
from .errors import InvalidMoveError

__all__ = [
    "BistellarMove",
    "MoveCertificate",
    "AnnealSchedule",
    "ExactStackedness",
    "valid_moves",
    "apply_move",
    "move_fvector_delta",
    "is_boundary_simplex",
    "stackedness_certificate",
    "k_stacked_exact",
    "vertex_reduce",
]


@dataclass(frozen=True)
class BistellarMove:
    """One bistellar flip: remove the star of A, glue in dA * B."""

    A: Simplex
    B: Simplex

    def __post_init__(self):
        object.__setattr__(self, "A", simplex(self.A))
        object.__setattr__(self, "B", simplex(self.B))

    @property
    def index(self) -> int:
        return len(self.B) - 1

    @property
    def dim(self) -> int:
        return len(self.A) + len(self.B) - 2

    def inverse(self) -> "BistellarMove":
        return _move(self.B, self.A)

    def to_json(self) -> dict:
        return {"A": list(self.A), "B": list(self.B)}


def _move(a: Simplex, b: Simplex) -> BistellarMove:
    """The move (a, b) for simplices already in canonical form, unchecked."""
    mv = object.__new__(BistellarMove)
    object.__setattr__(mv, "A", a)
    object.__setattr__(mv, "B", b)
    return mv


def move_fvector_delta(d: int, i: int) -> tuple[int, ...]:
    """Change of the f-vector under an index-i move on a d-complex."""
    if not 0 <= i <= d:
        raise ValueError(f"index must be in [0, {d}], got {i}")
    out = []
    for j in range(d + 1):
        add = comb(d - i + 1, j - i) if 0 <= j - i <= d - i else 0
        rem = comb(i + 1, j - (d - i)) if 0 <= j - (d - i) <= i else 0
        out.append(add - rem)
    return tuple(out)


def _check_move(table: dict[Simplex, frozenset[int]], move: BistellarMove) -> None:
    """Raise InvalidMoveError naming the first clause the move fails; ``table`` maps facets to sets."""
    a, b = move.A, move.B
    sa, sb = set(a), set(b)
    cof = [f for f, fs in table.items() if sa <= fs]
    if not cof:
        raise InvalidMoveError("A not a face", f"A={a}")
    if len(b) == 1 and not any(b[0] in fs for fs in table.values()):
        if a not in table:
            raise InvalidMoveError("link mismatch", f"A={a} is not a facet, cannot subdivide")
        return
    if any(sb <= fs for fs in table.values()):
        raise InvalidMoveError("B already a face", f"B={b}")
    # labels of B outside every cofacet of A are checked against all vertices
    outside = sb.difference(*cof)
    if any(not any(v in fs for fs in table.values()) for v in outside):
        raise InvalidMoveError("label not fresh", f"B={b} mixes new and existing labels")
    link_facets = {tuple(v for v in f if v not in sa) for f in cof}
    db = {b[:k] + b[k + 1 :] for k in range(len(b))}
    if link_facets != db:
        raise InvalidMoveError("link mismatch", f"link({a}) facets != boundary of {b}")


def _swap(table: dict[Simplex, frozenset[int]], move: BistellarMove, check: bool) -> None:
    """Swap the facets U - w, w in B, for U - v, v in A, in the table, checking first with ``check``."""
    if check:
        _check_move(table, move)
    union = sorted(set(move.A).union(move.B))
    for w in move.B:
        table.pop(tuple(x for x in union if x != w), None)
    for v in move.A:
        f = tuple(x for x in union if x != v)
        table[f] = frozenset(f)


def apply_move(M: SimplicialComplex, move: BistellarMove, check: bool = True) -> SimplicialComplex:
    """Apply one bistellar move, returning the new complex.

    With ``check`` (the default) the move is validated first and an
    InvalidMoveError names the failing clause.  ``check=False`` is for
    callers that enumerate moves themselves.  The facets are swapped in a
    table and sorted: a checked move keeps them maximal (every added facet
    contains B, no face; an old facet inside one would be inside a removed
    one).  Only ``check=False`` on a non-pure complex maximalizes again.
    """
    table = {f: frozenset(f) for f in M.facets}
    _swap(table, move, check)
    if check or M.is_pure:
        return SimplicialComplex(sorted(table), _canonical=True)
    return SimplicialComplex(table, _canonical=False)


class _MoveState:
    """The one mutable complex of a move search, updated move by move.

    A move changes only the star of A u B, so applying it swaps d + 2
    facets and touches only their faces, as in the BISTELLAR program of
    Bjoerner and Lutz (Exp. Math. 9, 2000) and simpcomp's SCReduceComplex
    (Effenberger and Spreer).  For each index i the state was built for it
    keeps the faces of size d - i + 1 with their top-dimensional cofacets,
    and the faces among them with exactly i + 1 of those; vertex stars
    cover every facet.  Only valid moves may be applied.  A valid move
    never swallows a lower-dimensional facet: one inside dA * B would
    contain B, which is no face.

    The pool caches, per ready face A, the :meth:`span` B and the move
    (A, B).  They depend only on the cofacets of A, so the entry is dropped
    only where A leaves the ready set.

    A state built for every index 1..d keeps the pool full and the valid
    moves of each index current, as BISTELLAR keeps its move lists: a list
    per index with the position of each A, and the ready faces A wanting
    each B.  B is a face of size 2..d + 1, so it starts or stops being one
    exactly where its cofacet entry is created or deleted, or where it is
    added or removed as a facet; :meth:`_add` and :meth:`_remove` re-mark
    the moves wanting it there and drop those of the faces leaving the
    ready set.  A face entering the ready set is settled once
    :meth:`apply` has swapped all the facets of the move, since its
    cofacets, hence its B, are only final then.  :meth:`draw` samples from
    these lists.  A state built for fewer indices, as the stackedness
    search builds, fills the pool lazily and looks up whether B is a face
    anew on each :meth:`moves` call.

    :meth:`probe` scores a move without applying it.  With U = A u B the
    move removes R = {U - w : w in B} and adds N = {U - v : v in A}.  A
    vertex outside U keeps its cofacets, so its cached B only needs
    looking up in the facet set after the move.  A vertex u in U has
    deg - |B| + |A| - 1 top cofacets afterwards when u is in A, and
    deg - |B| + |A| + 1 when u is in B; only when that is d + 1 are its
    new cofacets (cof - R) u {n in N : u in n} and their B built.
    """

    def __init__(self, M: SimplicialComplex, indices: Iterable[int]):
        self.d = d = M.dim
        self.indices = sorted({i for i in indices if 1 <= i <= d})
        self.facets: set[Simplex] = set(M.facets)
        self.star: dict[int, set[Simplex]] = {}
        self._cof: dict[Simplex, set[Simplex]] = {}
        self._ready: dict[int, set[Simplex]] = {i: set() for i in self.indices}
        self._pool: dict[Simplex, tuple[Simplex | None, BistellarMove | None]] = {}
        # faces by size; moves keep a pure complex pure, so all lie in facets
        self._faces_of: dict[int, set | dict] = {d + 1: self.facets}
        if M.is_pure:
            self._faces_of.update((d - i + 1, self._cof) for i in self.indices)
        # one pass fills the stars and cofacet sets; the ready sets are read
        # off the final counts, so no face enters or leaves them on the way
        sizes = [d - i + 1 for i in self.indices]
        cofs = self._cof
        for f in M.facets:
            for v in f:
                self.star.setdefault(v, set()).add(f)
            if len(f) == d + 1:
                for size in sizes:
                    for a in combinations(f, size):
                        cof = cofs.get(a)
                        if cof is None:
                            cofs[a] = {f}
                        else:
                            cof.add(f)
        for a, cof in cofs.items():
            if len(cof) == d + 2 - len(a):
                self._ready[d + 1 - len(a)].add(a)
        # the valid sets: per index the moves and the position of each A,
        # and per B the ready faces wanting it; None unless every index
        self._valid: dict[int, list[BistellarMove]] | None = None
        self._at: dict[Simplex, int] = {}
        self._want: dict[Simplex, dict[Simplex, None]] | None = None
        self._fresh: list[Simplex] = []
        if self.indices == list(range(1, d + 1)):
            self._valid = {i: [] for i in self.indices}
            self._want = {}
            self._fresh = [a for i in self.indices for a in sorted(self._ready[i])]
            self._settle()

    def _add(self, f: Simplex) -> None:
        self.facets.add(f)
        for v in f:
            self.star.setdefault(v, set()).add(f)
        d = self.d
        if len(f) == d + 1:
            cofs, want, fresh, pool = self._cof, self._want, self._fresh, self._pool
            if want is not None and f in want:
                self._mark(f)
            for i in self.indices:
                ready = self._ready[i]
                for a in combinations(f, d - i + 1):
                    cof = cofs.get(a)
                    if cof is None:
                        cof = cofs[a] = set()
                        if want is not None and a in want:
                            self._mark(a)
                    cof.add(f)
                    n = len(cof)
                    if n == i + 1:
                        ready.add(a)
                        if want is not None:
                            fresh.append(a)
                    elif n == i + 2:
                        ready.discard(a)
                        hit = pool.pop(a, None)
                        if want is not None and hit is not None:
                            self._unwant(a, hit[0])

    def _remove(self, f: Simplex) -> None:
        self.facets.remove(f)
        for v in f:
            st = self.star[v]
            st.remove(f)
            if not st:
                del self.star[v]
        d = self.d
        if len(f) == d + 1:
            cofs, want, fresh, pool = self._cof, self._want, self._fresh, self._pool
            if want is not None and f in want:
                self._mark(f)
            for i in self.indices:
                ready = self._ready[i]
                for a in combinations(f, d - i + 1):
                    cof = cofs[a]
                    cof.remove(f)
                    n = len(cof)
                    if n == i + 1:
                        ready.add(a)
                        if want is not None:
                            fresh.append(a)
                    elif n == i:
                        ready.discard(a)
                        hit = pool.pop(a, None)
                        if want is not None and hit is not None:
                            self._unwant(a, hit[0])
                    if not n:
                        del cofs[a]
                        if want is not None and a in want:
                            self._mark(a)

    def _mark(self, b: Simplex) -> None:
        """Enter or drop the moves wanting ``b`` after it started or
        stopped being a face."""
        if self.has_face(b):
            for a in self._want[b]:
                self._drop(a)
        else:
            pool = self._pool
            for a in self._want[b]:
                self._enter(pool[a][1])

    def _enter(self, mv: BistellarMove) -> None:
        if mv.A not in self._at:
            moves = self._valid[len(mv.B) - 1]
            self._at[mv.A] = len(moves)
            moves.append(mv)

    def _drop(self, a: Simplex) -> None:
        pos = self._at.pop(a, None)
        if pos is not None:
            moves = self._valid[self.d + 1 - len(a)]
            last = moves.pop()
            if pos < len(moves):
                moves[pos] = last
                self._at[last.A] = pos

    def _unwant(self, a: Simplex, b: Simplex | None) -> None:
        """Forget the ready face ``a`` that wanted ``b`` (None: no B)."""
        if b is not None:
            wanting = self._want[b]
            del wanting[a]
            if not wanting:
                del self._want[b]
            self._drop(a)

    def _settle(self) -> None:
        """Pool, want and enter the faces that became ready, once their
        cofacets are final."""
        pool, want = self._pool, self._want
        for a in self._fresh:
            i = self.d + 1 - len(a)
            if a in pool or a not in self._ready[i]:
                continue
            b = self.span(a, self._cof[a], i)
            if b is None:
                pool[a] = (None, None)
                continue
            mv = _move(a, b)
            pool[a] = (b, mv)
            want.setdefault(b, {})[a] = None
            if not self.has_face(b):
                self._enter(mv)
        self._fresh.clear()

    @staticmethod
    def _sides(move: BistellarMove) -> tuple[Simplex, list[Simplex], list[Simplex]]:
        """U = A u B, the facets {U - w : w in B} the move removes and the
        facets {U - v : v in A} it adds."""
        union = tuple(sorted(move.A + move.B))
        opposite = {x: union[:j] + union[j + 1 :] for j, x in enumerate(union)}
        return union, [opposite[w] for w in move.B], [opposite[v] for v in move.A]

    def apply(self, move: BistellarMove) -> None:
        _, removed, added = self._sides(move)
        for f in removed:
            self._remove(f)
        for f in added:
            self._add(f)
        if self._fresh:
            self._settle()

    def probe(self, move: BistellarMove) -> tuple[frozenset[Simplex], int]:
        """The facet set after ``move`` and the number of index-d moves
        there, leaving the state unchanged; the state must be built for
        index d."""
        d = self.d
        union, removed, added = self._sides(move)
        after = frozenset(self.facets.difference(removed).union(added))
        cofs, pool = self._cof, self._pool
        count = 0
        for u in self._ready[d]:
            if u[0] in union:
                continue
            hit = pool.get(u)
            bu = self.span(u, cofs[u], d) if hit is None else hit[0]
            if bu is not None and bu not in after:
                count += 1
        gain = len(added) - len(removed)
        for v in union:
            cof = cofs.get((v,), ())
            if len(cof) + gain + (1 if v in move.B else -1) != d + 1:
                continue
            new = {f for f in cof if f not in removed}
            new.update(f for f in added if v in f)
            bu = self.span((v,), new, d)
            if bu is not None and bu not in after:
                count += 1
        return after, count

    def has_face(self, s: Simplex) -> bool:
        """Whether the sorted tuple ``s`` is a face."""
        faces = self._faces_of.get(len(s))
        if faces is not None:
            return s in faces
        stars = [self.star.get(v) for v in s]
        return all(stars) and bool(set.intersection(*stars))

    @staticmethod
    def span(a: Simplex, cof: set[Simplex], i: int) -> Simplex | None:
        """B for the index-i move removing ``a``, whose top-dimensional
        cofacets are ``cof``, or None.

        When ``a`` has i + 1 of them and they span i + 1 vertices B besides
        ``a``, they are a * F for the i + 1 distinct i-subsets F of B, so the
        link of ``a`` in them is dB; the move applies when B is no face.
        """
        if len(cof) != i + 1:
            return None
        b = tuple(sorted(set().union(*cof).difference(a)))
        return b if len(b) == i + 1 else None

    def moves(self, indices: Iterable[int] | None = None) -> list[BistellarMove]:
        """Applicable moves of the given indices (ascending, among those the
        state was built for; default all) in (index, A, B) order; sorted
        from the valid-move lists where the state keeps them."""
        out = []
        pool = self._pool
        for i in self.indices if indices is None else indices:
            if self._valid is not None:
                out += sorted(self._valid[i], key=attrgetter("A"))
                continue
            for a in sorted(self._ready[i]):
                hit = pool.get(a)
                if hit is None:
                    b = self.span(a, self._cof[a], i)
                    hit = pool[a] = (b, None if b is None else _move(a, b))
                b, mv = hit
                if mv is not None and not self.has_face(b):
                    out.append(mv)
        return out

    def draw(self, rng: random.Random) -> BistellarMove | None:
        """A valid move by the index rule of :func:`vertex_reduce`, or None
        when there is none; the state must be built for every index.

        The index i is the max of two uniform draws from 1..d, conditioned
        on i having a valid move: among those indices, i has weight 2i - 1.
        The move is uniform among the valid moves of index i.
        """
        valid = self._valid
        live = [i for i in self.indices if valid[i]]
        if not live:
            return None
        r = rng.randrange(sum(2 * i - 1 for i in live))
        for i in live:
            r -= 2 * i - 1
            if r < 0:
                break
        moves = valid[i]
        return moves[rng.randrange(len(moves))]

    def is_boundary_simplex(self) -> bool:
        return len(self.star) == self.d + 2 == len(self.facets)

    def complex(self) -> SimplicialComplex:
        return SimplicialComplex(sorted(self.facets), _canonical=True)


def valid_moves(M: SimplicialComplex, index_filter: Iterable[int] | None = None) -> list[BistellarMove]:
    """All applicable moves of index 1..d in canonical (index, A, B) order.

    Only top-dimensional facets count as cofacets of A; B must be no face
    at all.  Index-0 moves need a fresh label and are applied directly
    through :func:`apply_move`; they are not enumerated here.
    """
    return _MoveState(M, range(1, M.dim + 1) if index_filter is None else index_filter).moves()


def is_boundary_simplex(M: SimplicialComplex) -> bool:
    """True for the boundary of a simplex: n = d + 2 vertices, n facets."""
    d = M.dim
    return d >= 0 and len(M.vertices) == d + 2 and len(M.facets) == d + 2


@dataclass(slots=True)
class MoveCertificate:
    """A replayable move sequence between two hashed complexes."""

    start: str
    moves: Sequence[BistellarMove] = field(repr=False)
    end: str

    def __post_init__(self):
        self.moves = tuple(self.moves)

    @property
    def max_index_used(self) -> int | None:
        if not self.moves:
            return None
        return max(m.index for m in self.moves)

    def replay(self, M: SimplicialComplex) -> SimplicialComplex:
        """Apply the moves to M, verifying both endpoint hashes.  Each move is
        checked and swapped as by :func:`apply_move`, on one facet table, and
        one complex is built at the end (M itself when there are no moves)."""
        if M.canonical_hash() != self.start:
            raise ValueError("certificate start hash does not match the complex")
        if self.moves:
            table = {f: frozenset(f) for f in M.facets}
            for mv in self.moves:
                _swap(table, mv, True)
            M = SimplicialComplex(sorted(table), _canonical=True)
        if M.canonical_hash() != self.end:
            raise ValueError("certificate end hash does not match the replayed complex")
        return M

    def to_json(self) -> dict:
        return {"start": self.start, "moves": [m.to_json() for m in self.moves], "end": self.end}

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, obj: dict | str) -> "MoveCertificate":
        if isinstance(obj, str):
            obj = json.loads(obj)
        moves = [BistellarMove(tuple(m["A"]), tuple(m["B"])) for m in obj["moves"]]
        return cls(obj["start"], moves, obj["end"])


def stackedness_certificate(
    S: SimplicialComplex,
    k: int,
    budget: int = 100_000,
    seed: int = 0,
) -> MoveCertificate | None:
    """Search for a move sequence taking S to a boundary simplex using only
    indices d-k+1 .. d (the reverses of 0 .. k-1 moves).

    Returns a replay-verified certificate, or None when the budget runs out.
    None is never a refutation, except with k = 1 on a pure S whose
    vertex and facet counts rule out reaching the simplex boundary by
    index-d moves alone (see :func:`_removals_can_reach_simplex`): then
    None comes back before any search.  The budget counts the moves the
    search takes, and each lookahead probe costs one unit although it
    applies nothing; undoing the moves at a restart costs nothing.  Greedy
    policy: always take an index-d move when one exists (it deletes a
    vertex); otherwise probe the lower allowed indices and pick a move
    maximizing the number of index-d moves available afterwards, breaking
    ties with the seeded generator.
    """
    d = S.dim
    if d < 1:
        raise ValueError("complex must have dimension at least 1")
    if not 1 <= k <= (d + 1) // 2:
        raise ValueError(f"k must be in [1, {(d + 1) // 2}] for dimension {d}, got {k}")
    if k == 1 and S.is_pure and not _removals_can_reach_simplex(S):
        return None
    rng = random.Random(seed)
    lower = range(d - k + 1, d)
    spent = 0

    state = _MoveState(S, range(d - k + 1, d + 1))
    # facet sets decide exactly what their canonical hashes decide
    start = frozenset(state.facets)
    # the moves applied since the last restart, all to unseen states but
    # perhaps the last
    moves: list[BistellarMove] = []
    while spent < budget:
        # a restart undoes the moves instead of rebuilding the state
        while moves:
            state.apply(moves.pop().inverse())
        seen = {start}
        spent_at_restart = spent
        while spent < budget:
            if state.is_boundary_simplex():
                cert = MoveCertificate(S.canonical_hash(), moves, state.complex().canonical_hash())
                cert.replay(S)
                return cert
            tops = state.moves([d])
            if tops:
                picked = rng.choice(tops)
            else:
                cands = state.moves(lower)
                fresh = []
                best_score = -1
                if len(cands) > 16:
                    cands = rng.sample(cands, 16)
                for mv in cands:
                    if spent >= budget:
                        break
                    spent += 1
                    after, score = state.probe(mv)
                    if after in seen:
                        continue
                    if score > best_score:
                        best_score = score
                        fresh = [mv]
                    elif score == best_score:
                        fresh.append(mv)
                if not fresh:
                    break
                picked = rng.choice(fresh)
            state.apply(picked)
            moves.append(picked)
            spent += 1
            key = frozenset(state.facets)
            if key in seen:
                break
            seen.add(key)
        if spent == spent_at_restart:
            # the restart made no applications at all: the position is a
            # deterministic dead end and retrying cannot help
            return None
    return None


def _removals_can_reach_simplex(S: SimplicialComplex) -> bool:
    """Whether index-d moves alone could take the pure d-complex S to the
    boundary of the (d + 1)-simplex, by vertex and facet counts.

    Each such move changes f by :func:`move_fvector_delta` (d, d), whose
    f_0 entry is -1, so it takes m = f_0(S) - d - 2 >= 0 of them, and then
    f(dSimplex) - f(S) = m * delta.  Only the f_d entry of that identity is
    checked besides f_0: the others need the face lattice of S, which costs
    about as much as the search on the stacked spheres that pass.
    """
    d = S.dim
    m = len(S.vertices) - d - 2
    return m >= 0 and d + 2 - len(S.facets) == m * move_fvector_delta(d, d)[d]


@dataclass(slots=True, eq=False)
class ExactStackedness:
    """Outcome of the exhaustive ball search."""

    status: str  # "yes" | "no" | "aborted"
    ball: SimplicialComplex | None = field(default=None, repr=False)


def k_stacked_exact(S: SimplicialComplex, k: int, ceiling: int = 10) -> ExactStackedness:
    """Decide by exhaustive search whether S bounds a ball with no interior
    faces of dimension <= dim(S) - k.

    A returned "yes" ball is verified: its boundary equals S exactly, it is
    a pseudomanifold with boundary, has trivial reduced homology over GF(2),
    and admits a shelling.  "no" means the search space was exhausted.
    "aborted" is returned when f_0 exceeds ``ceiling``.
    """
    d = S.dim
    if d < 1:
        raise ValueError("complex must have dimension at least 1")
    if not 0 <= k <= d:
        raise ValueError(f"k must be in [0, {d}], got {k}")
    verts = S.vertices
    if len(verts) > ceiling:
        return ExactStackedness("aborted")
    cell_size = d + 2
    low_cap = d - k + 1  # max card of faces that must already lie in S
    candidates: list[Simplex] = []
    for c in combinations(verts, cell_size):
        ok = True
        for size in range(2, min(low_cap, cell_size) + 1):
            if not all(sub in S.face_set(size - 1) for sub in combinations(c, size)):
                ok = False
                break
        if ok:
            candidates.append(c)
    if not candidates:
        return ExactStackedness("no")
    sfacets = set(S.facets)
    cell_faces = {c: list(combinations(c, d + 1)) for c in candidates}
    by_face: dict[Simplex, list[Simplex]] = {}
    for c in candidates:
        for f in cell_faces[c]:
            by_face.setdefault(f, []).append(c)

    usage: dict[Simplex, int] = {}
    chosen: list[Simplex] = []
    chosen_set: set[Simplex] = set()

    def can_place(c: Simplex) -> bool:
        for f in cell_faces[c]:
            cap = 1 if f in sfacets else 2
            if usage.get(f, 0) + 1 > cap:
                return False
        return True

    def place(c: Simplex) -> None:
        chosen.append(c)
        chosen_set.add(c)
        for f in cell_faces[c]:
            usage[f] = usage.get(f, 0) + 1

    def unplace(c: Simplex) -> None:
        chosen.pop()
        chosen_set.discard(c)
        for f in cell_faces[c]:
            usage[f] -= 1

    def deficient() -> Simplex | None:
        for f in S.facets:
            if usage.get(f, 0) == 0:
                return f
        for f, cnt in sorted(usage.items()):
            if cnt == 1 and f not in sfacets:
                return f
        return None

    def verify_ball() -> SimplicialComplex | None:
        from . import homology

        # distinct cells of one size: maximal as they stand
        B = SimplicialComplex(sorted(chosen), _canonical=True)
        pm = B.pseudomanifold_check()
        if not pm.facet_graph_connected:
            return None
        if any(homology.reduced_betti(B)):
            return None
        if not _shellable(chosen):
            return None
        return B

    result: list[SimplicialComplex] = []

    def search() -> bool:
        f = deficient()
        if f is None:
            ball = verify_ball()
            if ball is not None:
                result.append(ball)
                return True
            return False
        for c in by_face.get(f, []):
            if c in chosen_set or not can_place(c):
                continue
            place(c)
            if search():
                return True
            unplace(c)
        return False

    if search():
        return ExactStackedness("yes", result[0])
    return ExactStackedness("no")


def _shellable(cells: list[Simplex]) -> bool:
    """Backtracking shelling-order search with dead-state memoization."""
    m = len(cells)
    if m <= 1:
        return True
    sets = [frozenset(c) for c in cells]
    ridge_size = len(cells[0]) - 1
    dead: set[frozenset[int]] = set()

    def attaches_ok(i: int, used: list[int]) -> bool:
        # every intersection with an earlier cell must sit inside an
        # earlier intersection of ridge size
        inters = [sets[i] & sets[j] for j in used]
        ridges = [x for x in inters if len(x) == ridge_size]
        if not ridges:
            return False
        return all(any(x <= r for r in ridges) for x in inters)

    def extend(used: list[int], used_set: frozenset[int]) -> bool:
        if len(used) == m:
            return True
        if used_set in dead:
            return False
        for i in range(m):
            if i in used_set:
                continue
            if attaches_ok(i, used):
                used.append(i)
                if extend(used, used_set | {i}):
                    return True
                used.pop()
        dead.add(used_set)
        return False

    for first in range(m):
        if extend([first], frozenset([first])):
            return True
    return False


@dataclass(frozen=True)
class AnnealSchedule:
    """Cooling plan for :func:`vertex_reduce`.

    ``steps`` is the total number of move attempts across all restarts;
    temperature cools geometrically from ``t_start`` toward ``t_min`` and
    resets to ``t_start`` at each restart from the best state so far.
    ``t_start=None`` scales the start temperature to the largest uphill
    face-count delta of any vertex-preserving move, which grows with the
    dimension.  A ValueError rejects steps or restarts below 0, t_min or
    t_start not above 0, and cooling outside (0, 1].
    """

    steps: int = 20000
    t_start: float | None = None
    t_min: float = 0.05
    cooling: float = 0.999
    restarts: int = 4

    def __post_init__(self):
        # written as "not (x > 0)" so that NaN fails too
        if not self.steps >= 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if not self.restarts >= 0:
            raise ValueError(f"restarts must be >= 0, got {self.restarts}")
        if not self.t_min > 0:
            raise ValueError(f"t_min must be > 0, got {self.t_min}")
        if self.t_start is not None and not self.t_start > 0:
            raise ValueError(f"t_start must be None or > 0, got {self.t_start}")
        if not 0 < self.cooling <= 1:
            raise ValueError(f"cooling must be in (0, 1], got {self.cooling}")


_F0_WEIGHT = 1 << 20


def vertex_reduce(
    M: SimplicialComplex,
    target_f0: int | None = None,
    schedule: AnnealSchedule | None = None,
    seed: int = 0,
    check_homology: bool = False,
) -> tuple[SimplicialComplex, MoveCertificate]:
    """Best-effort vertex-count reduction by simulated annealing over
    bistellar moves.

    Energy is f_0 weighted far above the remaining face counts, so any
    vertex removal is always accepted; it is tracked relative to the input
    from :func:`move_fvector_delta`, and f_0 is the number of vertex stars
    of the move state, so no face lattice is built.  Each step draws a
    move with :meth:`_MoveState.draw` from the valid-move lists that the
    state, built for every index 1..d, keeps current as moves are applied
    and undone: the index is the max of two uniform draws from 1..d,
    conditioned on having a valid move, which biases toward high indices
    (they shrink the complex) and keeps low ones reachable for mixing;
    the move is uniform within its index.  Returns the best complex
    reached and a replay-verified certificate from the input to it.  The
    input itself is returned when no move lowers the energy, in particular
    when no move is ever available.  With ``check_homology`` every
    accepted move is checked to preserve the Betti vector (debugging aid,
    slow).
    """
    import math

    from . import homology

    if schedule is None:
        schedule = AnnealSchedule()
    rng = random.Random(seed)
    d = M.dim
    deltas = [move_fvector_delta(d, i) for i in range(d + 1)]
    energy = [delta[0] * _F0_WEIGHT + sum(delta) for delta in deltas]
    ref_betti = homology.betti_numbers(M).betti if check_homology else None
    t_start = schedule.t_start
    if t_start is None:
        # index-1 moves add the most faces of any vertex-preserving move
        t_start = max(4.0, float(sum(deltas[1]))) if d >= 1 else 4.0

    state = _MoveState(M, range(1, d + 1))
    # energies relative to the input; the best state is the first best_len
    # moves of path
    path: list[BistellarMove] = []
    best_len = 0
    cur_e = best_e = 0
    best_f0 = len(state.star)
    t = t_start
    chunk = max(1, schedule.steps // max(1, schedule.restarts))

    def rewind() -> None:
        while len(path) > best_len:
            state.apply(path.pop().inverse())

    for step in range(schedule.steps):
        if target_f0 is not None and best_f0 <= target_f0:
            break
        if step and step % chunk == 0:
            rewind()
            cur_e = best_e
            t = t_start
        mv = state.draw(rng)
        if mv is None:
            break
        de = energy[mv.index]
        if de <= 0 or rng.random() < math.exp(max(-de / t, -60.0)):
            state.apply(mv)
            cur_e += de
            path.append(mv)
            if check_homology:
                got = homology.betti_numbers(state.complex()).betti
                if got != ref_betti:
                    raise AssertionError(f"move {mv} changed Betti numbers: {ref_betti} -> {got}")
            if cur_e < best_e:
                best_e, best_len, best_f0 = cur_e, len(path), len(state.star)
        t = max(t * schedule.cooling, schedule.t_min)

    rewind()
    best = state.complex() if best_len else M
    cert = MoveCertificate(M.canonical_hash(), path, best.canonical_hash())
    cert.replay(M)
    return best, cert
