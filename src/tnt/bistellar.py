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
from math import comb, exp
from operator import attrgetter
from typing import Iterable, Sequence

from . import homology
from .complexes import SimplicialComplex, Simplex, _masked, _star_and, simplex
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


def apply_move(M: SimplicialComplex, move: BistellarMove, check: bool = True) -> SimplicialComplex:
    """Apply one bistellar move, returning the new complex.

    With ``check`` (the default) the move is validated first and an
    InvalidMoveError names the failing clause.  ``check=False`` is for
    callers that enumerate valid moves themselves.  The facets are swapped
    on a :class:`_MoveState` built for no index and sorted.  A valid move
    keeps them maximal, also on a non-pure complex: every added facet
    contains B, no face, so an old facet g inside one misses some w in B
    and lay inside the removed facet (A u B) - w.
    """
    state = _MoveState(M, ())
    (state.apply_checked if check else state.apply)(move)
    return state.complex()


class _MoveState:
    """The one mutable complex of a move search, updated move by move.

    A move changes only the star of A u B, so applying it swaps d + 2 facets
    and touches only the faces inside U = A u B, as in the BISTELLAR program
    of Bjoerner and Lutz (Exp. Math. 9, 2000) and simpcomp's SCReduceComplex
    (Effenberger and Spreer).  ``facets`` maps each facet to its slot in
    ``_slots`` (free slots hold None and are listed in ``_free``).  A vertex
    star is an int with bit j set when the facet in slot j contains the
    vertex, copied from the complex's cached stars, and ``_low`` masks the
    slots of lower-dimensional facets, so the AND of a face's vertex stars
    holds its facets and, without ``_low``, its top-dimensional cofacets,
    whose number is that mask's bit count and is kept nowhere else.  A face
    of size d - i + 1 that lies in no lower facet and in exactly i + 1 top
    ones is ready for index i: a lower facet G holding A would put G - A in
    lk(A) but not in dB, so no move removes A.
    Only a ready face can make a move, so cofacets are decoded only for
    those: where a face is pooled and in :meth:`probe`.  For each index i
    the state was built for, ``_pool[i]`` maps each ready face A to the
    :meth:`span` B and the move (A, B), which depend only on the cofacets of
    A, or to None until A is pooled.  The build walks the faces with a top
    cofacet up from the vertices and keeps how many it met of each size in
    ``built_counts``, which moves do not update.  Only valid moves may be
    applied (:meth:`apply_checked` checks first).  A move swaps facets of
    one size: a top one swallows no lower facet (inside dA * B it would
    contain B, no face), and a lower one, valid only on a non-pure complex,
    swaps lower ones.  :func:`apply_move` and the certificate replay use a
    state built for no index, which counts nothing.

    :meth:`apply` swaps the facets in the slots and stars, then recounts
    each face of an indexed size inside U once, from the AND of its vertex
    stars: it takes the face out of the pool and puts it back, not pooled
    yet, when it is ready.  A face outside U lies in no swapped facet.  A
    face inside U has at most d + 1 < |U| vertices, so it misses some x in U
    and loses the cofacet U - x (x in B) or gains it (x in A): its pool
    entry goes even when its count comes back unchanged.  That is
    C(d + 2, s) recounts per size s, where stepping the subfaces of every
    swapped facet makes (d + 2) C(d + 1, s) updates.  A state built for fewer
    indices, as the stackedness search and a filtered :func:`valid_moves`
    build, does no more: it fills the pool lazily and looks up whether B is
    a face anew on each :meth:`moves` call.

    A state built for every index 1..d pools every ready face at once and
    keeps the valid moves of each index current, as BISTELLAR keeps its move
    lists: a list per index with the position of each A, and the ready faces
    A wanting each B.  Only a face of U holding A or B can start or stop
    being a face in a move (the move removes the faces holding A that lie in
    no lower facet and adds those holding B): of size 2..d it is a face of U
    that the recount passes, and of size d + 1 a removed or added facet.  So
    the recount also drops the move of each face of U and forgets what it
    wanted; after it the moves wanting a face of U holding A or B are
    entered or dropped as that is a face or not, and the ready faces of U
    are pooled.  :meth:`draw` picks a move by its position in these lists,
    which is a function of the build and of the moves applied since.  The
    build appends the moves in sorted ready order, by index and then A.
    Each :meth:`apply` first drops the moves of the faces of U in (index,
    ``combinations(U)``) order, each by moving the last move of its list
    into its place.  It then takes the wanted faces of U holding A or B in
    that order, then the removed and the added facets, and drops the moves
    wanting each one that is a face and appends those wanting each one that
    is not.  Last it appends the newly valid moves of the faces of U, again
    in (index, ``combinations(U)``) order.

    :meth:`probe` counts the index-d moves after a move without applying
    it.  The move removes R = {U - w : w in B} and adds
    N = {U - v : v in A}.  The B of a vertex has d + 1 labels, so it is a
    face after the move exactly when it is in N, or a facet now and not in
    R.  A vertex outside U keeps its cofacets, so only its cached B needs
    that test.  A vertex u in U keeps its lower facets and has
    deg - |B| + |A| - 1 top cofacets afterwards when u is in A, and
    deg - |B| + |A| + 1 when u is in B; only when it lies in no lower facet
    and that is d + 1 are its new cofacets (cof - R) u {n in N : u in n}
    decoded and their B built.
    """

    def __init__(self, M: SimplicialComplex, indices: Iterable[int]):
        self.d = d = M.dim
        self.indices = sorted({i for i in indices if 1 <= i <= d})
        self._slots: list[Simplex | None] = list(M.facets)
        self.facets: dict[Simplex, int] = {f: j for j, f in enumerate(self._slots)}
        self._free: list[int] = []
        self.star: dict[int, int] = dict(M._stars())
        self._low = sum(1 << j for j, f in enumerate(self._slots) if len(f) <= d)
        # per index, each ready face with its pool entry: None until pooled
        self._pool: dict[int, dict[Simplex, tuple[Simplex | None, BistellarMove | None] | None]] = {}
        # per size walked, the faces with a top cofacet at the build (moves do
        # not update it); walked up from the vertices: a face grows by a larger
        # neighbour w of its last vertex, its top cofacets ANDed with w's
        self.built_counts: dict[int, int] = {}
        if self.indices:
            low = self._low
            tops = {v: m & ~low for v, m in self.star.items()}
            verts = sorted(v for v, m in tops.items() if m)
            up = {v: [w for w in verts[k + 1 :] if tops[v] & tops[w]] for k, v in enumerate(verts)}
            level = {(v,): tops[v] for v in verts}
            for size in range(1, d + 2 - self.indices[0]):
                if size > 1:
                    level = {a + (w,): n for a, m in level.items() for w in up[a[-1]] if (n := m & tops[w])}
                self.built_counts[size] = len(level)
                if (i := d + 1 - size) in self.indices:
                    # only on a non-pure complex can a face lie in a lower facet
                    ready = (a for a, m in level.items() if m.bit_count() == i + 1 and not (low and self._mask(a) & low))
                    self._pool[i] = dict.fromkeys(ready)
        # the valid sets: per index the moves and the position of each A,
        # and per B the ready faces wanting it; None unless every index
        self._valid: dict[int, list[BistellarMove]] | None = None
        self._at: dict[Simplex, int] = {}
        self._want: dict[Simplex, dict[Simplex, None]] | None = None
        if self.indices == list(range(1, d + 1)):
            self._valid = {i: [] for i in self.indices}
            self._want = {}
            self._settle([a for i in self.indices for a in sorted(self._pool[i])])

    def _mark(self, b: Simplex) -> None:
        """Drop the moves wanting ``b`` if it is a face, else enter them."""
        if self.has_face(b):
            for a in self._want[b]:
                self._drop(a)
        else:
            pool = self._pool[len(b) - 1]
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

    def _settle(self, fresh: list[Simplex]) -> None:
        """Pool and want the faces ``fresh`` that became ready, once their
        cofacets are final, and enter their moves whose B is no face."""
        want = self._want
        for a in fresh:
            b, mv = self._pooled(a, self.d + 1 - len(a))
            if mv is not None:
                want.setdefault(b, {})[a] = None
                if not self.has_face(b):
                    self._enter(mv)

    @staticmethod
    def _sides(move: BistellarMove) -> tuple[Simplex, list[Simplex], list[Simplex]]:
        """U = A u B, the facets {U - w : w in B} the move removes and the
        facets {U - v : v in A} it adds."""
        union = tuple(sorted(move.A + move.B))
        opposite = {x: union[:j] + union[j + 1 :] for j, x in enumerate(union)}
        return union, [opposite[w] for w in move.B], [opposite[v] for v in move.A]

    def apply(self, move: BistellarMove) -> None:
        """Apply the valid move ``move``."""
        self._apply(move, *self._sides(move))

    def apply_checked(self, move: BistellarMove) -> None:
        """Apply ``move`` once :meth:`_check` has found it valid."""
        union, removed, added = self._sides(move)
        self._check(move, removed)
        self._apply(move, union, removed, added)

    def _apply(self, move: BistellarMove, union: Simplex, removed: list[Simplex], added: list[Simplex]) -> None:
        lower = len(union) <= self.d + 1  # a lower-dimensional move
        facets, slots, free, star = self.facets, self._slots, self._free, self.star
        if lower:
            self._low ^= sum(1 << facets[f] for f in removed)
        for f in removed:
            j = facets.pop(f)
            slots[j] = None
            free.append(j)
            bit = 1 << j
            for v in f:
                if star[v] == bit:
                    del star[v]
                else:
                    star[v] ^= bit
        for f in added:
            if not free:
                free.append(len(slots))
                slots.append(None)
            j = facets[f] = free.pop()
            slots[j] = f
            bit = 1 << j
            for v in f:
                star[v] = star.get(v, 0) | bit
        if lower:
            self._low |= sum(1 << facets[f] for f in added)
        d, want, low = self.d, self._want, self._low
        # inlined: a call of _star_and per face costs anneal_product 3-5 %
        stars = {v: star.get(v, 0) for v in union}
        fresh: list[Simplex] = []
        wanted: list[Simplex] = []
        for i in self.indices:
            pool = self._pool[i]
            for a in combinations(union, d - i + 1):
                hit = pool.pop(a, None)
                m = -1
                for v in a:
                    m &= stars[v]
                if not m & low and m.bit_count() == i + 1:
                    pool[a] = None
                    fresh.append(a)
                if want is not None:
                    if hit is not None:
                        self._unwant(a, hit[0])
                    if a in want:
                        wanted.append(a)
        if want is not None:
            # only faces holding A or B start or stop being faces
            sides = set(move.A), set(move.B)
            for b in (*wanted, *removed, *added):
                if b in want and any(x.issubset(b) for x in sides):
                    self._mark(b)
            self._settle(fresh)

    def _check(self, move: BistellarMove, removed: list[Simplex]) -> None:
        """Raise InvalidMoveError naming the first clause ``move`` fails.

        Accepted at once when B is no face and the facets holding A (the AND of
        its vertex stars) are the U - w, w in B, so A * dB: a label x in A and B
        would repeat in U - w, w != x, or make B = (x,) a face.  Otherwise the
        clauses run in order and one fails: link(A) = dB would put x in B - w,
        w != x, but in no F - A, so A, B would be disjoint and accepted."""
        a, b = move.A, move.B
        star, facets = self.star, self.facets
        m = self._mask(a)
        if all(f in facets for f in removed) and m == sum(1 << facets[f] for f in removed):
            if not self.has_face(b):
                return
        if not m:
            raise InvalidMoveError("A not a face", f"A={a}")
        if len(b) == 1 and b[0] not in star:  # a facet A would have been accepted
            raise InvalidMoveError("link mismatch", f"A={a} is not a facet, cannot subdivide")
        if self.has_face(b):
            raise InvalidMoveError("B already a face", f"B={b}")
        # labels of B outside every cofacet of A are checked against all vertices
        if any(v not in star for v in set(b).difference(*_masked(self._slots, m))):
            raise InvalidMoveError("label not fresh", f"B={b} mixes new and existing labels")
        raise InvalidMoveError("link mismatch", f"link({a}) facets != boundary of {b}")

    def probe(self, move: BistellarMove) -> int:
        """The number of index-d moves after ``move``, leaving the state
        unchanged; the state must be built for index d."""
        d = self.d
        union, removed, added = self._sides(move)
        spans = []
        for u, hit in self._pool[d].items():
            if u[0] in union:
                continue
            spans.append(self.span(u, self.cofacets(u), d) if hit is None else hit[0])
        gain = len(added) - len(removed)
        star, low = self.star, self._low
        for v in union:
            m = star.get(v, 0)
            if m & low or m.bit_count() + gain + (1 if v in move.B else -1) != d + 1:
                continue
            new = {f for f in self.cofacets((v,)) if f not in removed}
            new.update(f for f in added if v in f)
            spans.append(self.span((v,), new, d))
        facets = self.facets
        return sum(1 for b in spans if b is not None and b not in added and (b not in facets or b in removed))

    def _mask(self, s: Simplex) -> int:
        """The AND of the vertex stars of ``s``: the slots of its facets."""
        return _star_and(self.star, s)

    def has_face(self, s: Simplex) -> bool:
        """Whether the sorted tuple ``s`` is a face."""
        return _star_and(self.star, s) != 0

    def _pooled(self, a: Simplex, i: int) -> tuple[Simplex | None, BistellarMove | None]:
        """Pool the ready face ``a`` of index ``i`` with its :meth:`span` B
        and the move (a, B), or (None, None), and return the entry."""
        b = self.span(a, self.cofacets(a), i)
        hit = self._pool[i][a] = (b, None if b is None else _move(a, b))
        return hit

    def cofacets(self, a: Simplex) -> list[Simplex]:
        """The top-dimensional facets containing the face ``a``."""
        return _masked(self._slots, self._mask(a) & ~self._low)

    @staticmethod
    def span(a: Simplex, cof: Iterable[Simplex], i: int) -> Simplex | None:
        """B for the index-i move removing ``a``, whose i + 1 top cofacets
        are ``cof``, or None.  When they span i + 1 vertices B besides ``a``,
        they are a * F for the i-subsets F of B, so the link of ``a`` in them
        is dB; the move applies when B is no face."""
        b = tuple(sorted(set().union(*cof).difference(a)))
        return b if len(b) == i + 1 else None

    def moves(self, indices: Iterable[int] | None = None) -> list[BistellarMove]:
        """Applicable moves of the given indices (ascending, among those the
        state was built for; default all) in (index, A, B) order; sorted
        from the valid-move lists where the state keeps them."""
        out = []
        for i in self.indices if indices is None else indices:
            if self._valid is not None:
                out += sorted(self._valid[i], key=attrgetter("A"))
                continue
            pool = self._pool[i]
            for a in sorted(pool):
                b, mv = pool[a] or self._pooled(a, i)
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

    A must lie in no lower-dimensional facet and its top-dimensional
    cofacets must be A * dB, so lk(A) = dB in full; B must be no face at
    all.  So :func:`apply_move` accepts every move listed.  Index-0 moves
    need a fresh label and are applied directly through :func:`apply_move`;
    they are not enumerated here.
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
        checked and swapped as by :func:`apply_move`, on one state, and one
        complex is built at the end (M itself when there are no moves)."""
        if M.canonical_hash() != self.start:
            raise ValueError("certificate start hash does not match the complex")
        if self.moves:
            state = _MoveState(M, ())
            for mv in self.moves:
                state.apply_checked(mv)
            M = state.complex()
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

    Returns a replay-verified certificate, or None.  With k >= 2 a None
    means that the budget ran out or that the start has no allowed move,
    and it is never a refutation.  With k = 1 a None that comes back before
    the budget runs out refutes stackedness: vertex removals from a stacked
    sphere reach the simplex boundary in any order (for d >= 2 a removable
    vertex lies in exactly one cell of the stacked ball, a leaf; for d = 1
    a stacked sphere is a cycle), so the search stops at the first position
    without an index-d move.  With k >= 2 a run that reaches a position
    without an allowed move restarts from S.  The budget counts the moves
    the search takes, and each lookahead probe costs one unit although it
    applies nothing; undoing the moves at a restart costs nothing.  A step
    whose probes would leave no unit for its move ends the search.  Reaching the simplex boundary is checked before
    the budget, so S = dSimplex certifies with no moves at budget 0, as
    does a run whose last affordable move reaches it.  Greedy policy:
    always take an index-d move when one exists (it deletes a vertex);
    otherwise probe the lower allowed indices and pick a move maximizing
    the number of index-d moves available afterwards, breaking ties with
    the seeded generator.
    """
    d = S.dim
    if d < 1:
        raise ValueError("complex must have dimension at least 1")
    if not 1 <= k <= (d + 1) // 2:
        raise ValueError(f"k must be in [1, {(d + 1) // 2}] for dimension {d}, got {k}")
    rng = random.Random(seed)
    lower = range(d - k + 1, d)
    spent = 0

    state = _MoveState(S, range(d - k + 1, d + 1))
    # the moves applied since the last restart; every allowed index
    # i >= d - k + 1 >= (d + 1) / 2 changes the facet count by d - 2i < 0,
    # so no run comes back to a complex it has been at
    moves: list[BistellarMove] = []
    while not state.is_boundary_simplex():
        if spent >= budget:
            return None
        tops = state.moves([d])
        if tops:
            picked = rng.choice(tops)
        else:
            cands = state.moves(lower)
            if not cands:
                if k == 1 or not moves:
                    # with k = 1 any removal order ends here, and at the
                    # start a restart would come back here
                    return None
                # a restart undoes the moves instead of rebuilding the state
                while moves:
                    state.apply(moves.pop().inverse())
                continue
            best = []
            best_score = -1
            if len(cands) > 16:
                cands = rng.sample(cands, 16)
            if spent + len(cands) >= budget:  # no unit left for the move
                return None
            for mv in cands:
                spent += 1
                score = state.probe(mv)
                if score > best_score:
                    best_score = score
                    best = [mv]
                elif score == best_score:
                    best.append(mv)
            picked = rng.choice(best)
        state.apply(picked)
        moves.append(picked)
        spent += 1
    cert = MoveCertificate(S.canonical_hash(), moves, state.complex().canonical_hash())
    cert.replay(S)
    return cert


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
    # the subsets of at most d - k + 1 labels of a cell must be faces of S;
    # faces are closed under subsets, so those of the largest size suffice
    low_cap = min(d - k + 1, cell_size)
    candidates = [c for c in combinations(verts, cell_size) if all(map(S._mask, combinations(c, low_cap)))]
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
        return all(usage.get(f, 0) < (1 if f in sfacets else 2) for f in cell_faces[c])

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
        # distinct cells of one size: maximal as they stand
        B = SimplicialComplex(sorted(chosen), _canonical=True)
        ok = B.pseudomanifold_check().facet_graph_connected and not any(homology.reduced_betti(B))
        return B if ok and _shellable(chosen) else None

    def search() -> SimplicialComplex | None:
        f = deficient()
        if f is None:
            return verify_ball()
        for c in by_face.get(f, []):
            if c in chosen_set or not can_place(c):
                continue
            place(c)
            ball = search()
            if ball is not None:
                return ball
            unplace(c)
        return None

    ball = search()
    return ExactStackedness("no" if ball is None else "yes", ball)


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
        return bool(ridges) and all(any(x <= r for r in ridges) for x in inters)

    def extend(used: list[int], used_set: frozenset[int]) -> bool:
        if len(used) == m:
            return True
        if used_set in dead:
            return False
        for i in range(m):
            if i not in used_set and attaches_ok(i, used):
                used.append(i)
                if extend(used, used_set | {i}):
                    return True
                used.pop()
        dead.add(used_set)
        return False

    return any(extend([first], frozenset([first])) for first in range(m))


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
    the move is uniform within its index, by its position in the order
    :class:`_MoveState` documents.  Returns the best complex reached and a
    replay-verified certificate from the input to it.  The input itself is returned when no move lowers the
    energy, in particular when no move is ever available.  On a pure input
    both come back with their f-vectors, from the state's face counts and
    the moves' deltas.
    With ``check_homology`` every accepted move is checked to preserve the
    Betti vector (debugging aid, slow).
    """
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
    # every face of a pure M has a top cofacet, so the build's counts give f(M)
    sizes = state.built_counts if d >= 0 and M.is_pure else None
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
        if de <= 0 or rng.random() < exp(max(-de / t, -60.0)):
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
    if sizes is not None:
        M._cache["f_vector"] = f = (*(sizes[s] for s in range(1, d + 1)), len(M.facets))
        best._cache["f_vector"] = tuple(map(sum, zip(f, *(deltas[mv.index] for mv in path))))
    cert = MoveCertificate(M.canonical_hash(), path, best.canonical_hash())
    cert.replay(M)
    return best, cert
