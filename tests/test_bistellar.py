import json
import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_valid_moves, random_sphere, replay_oracle
from tnt import (
    BistellarMove,
    MoveCertificate,
    SimplicialComplex,
    apply_move,
    betti_numbers,
    boundary_simplex,
    cross_polytope_boundary,
    k_stacked_exact,
    move_fvector_delta,
    stacked_sphere,
    stackedness_certificate,
    stellar_subdivide,
    valid_moves,
    vertex_reduce,
)
from tnt.bistellar import AnnealSchedule, _MoveState, is_boundary_simplex
from tnt.errors import InvalidMoveError


def test_move_normalization_and_attributes():
    m = BistellarMove((3, 1), (2, 5))
    assert m.A == (1, 3) and m.B == (2, 5)
    assert m.index == 1
    assert m.dim == 2
    inv = m.inverse()
    assert inv.A == m.B and inv.B == m.A


def test_move_fvector_delta_matches_direct_application():
    rng = random.Random(21)
    for _ in range(40):
        S = random_sphere(rng, walk=3)
        mvs = valid_moves(S)
        if not mvs:
            continue
        mv = mvs[rng.randrange(len(mvs))]
        before = S.f_vector()
        after = apply_move(S, mv).f_vector()
        delta = move_fvector_delta(S.dim, mv.index)
        assert tuple(b - a for b, a in zip(after, before)) == delta


def test_move_fvector_delta_formula_pins():
    # 2-sphere edge flip: faces exchange but counts are level
    assert move_fvector_delta(2, 1) == (0, 0, 0)
    # vertex split on a 2-sphere (index 0)
    assert move_fvector_delta(2, 0) == (1, 3, 2)
    # vertex removal on a 3-sphere
    assert move_fvector_delta(3, 3) == (-1, -4, -6, -3)
    d, i = 6, 2
    expected = tuple(
        (comb(d - i + 1, j - i) if 0 <= j - i <= d - i else 0)
        - (comb(i + 1, j - (d - i)) if 0 <= j - (d - i) <= i else 0)
        for j in range(d + 1)
    )
    assert move_fvector_delta(d, i) == expected


def test_apply_move_error_clauses():
    B = boundary_simplex(3)
    with pytest.raises(InvalidMoveError) as ei:
        apply_move(B, BistellarMove((9, 10), (1, 2)))
    assert ei.value.clause == "A not a face"
    with pytest.raises(InvalidMoveError) as ei:
        apply_move(B, BistellarMove((1, 2), (3, 4)))
    assert ei.value.clause == "B already a face"
    O = cross_polytope_boundary(3)
    with pytest.raises(InvalidMoveError) as ei:
        apply_move(O, BistellarMove((1,), (3, 4, 5)))
    assert ei.value.clause == "link mismatch"


def test_fresh_vertex_move_and_stellar_subdivision():
    B = boundary_simplex(3)
    N = apply_move(B, BistellarMove(B.facets[0], (5,)))
    assert N.f_vector() == (5, 9, 6)
    assert betti_numbers(N).betti == (1, 0, 1)
    # same effect through the convenience wrapper
    N2 = stellar_subdivide(B, B.facets[0], 5)
    assert N2 == N
    # an existing single label is already a face, caught by that clause
    with pytest.raises(InvalidMoveError) as ei:
        apply_move(B, BistellarMove(B.facets[0], (2,)))
    assert ei.value.clause == "B already a face"
    # mixing a fresh label into a larger B is a labeling error
    with pytest.raises(InvalidMoveError) as ei:
        apply_move(B, BistellarMove((1, 2, 3), (4, 9)))
    assert ei.value.clause == "label not fresh"


def test_valid_moves_octahedron():
    O = cross_polytope_boundary(3)
    mvs = valid_moves(O)
    # every edge flips onto a diagonal: 12 edges, each valid
    assert len(mvs) == 12
    assert all(m.index == 1 for m in mvs)
    assert mvs == sorted(mvs, key=lambda m: (m.index, m.A, m.B))


def test_valid_moves_boundary_simplex_empty():
    # no missing faces at all, so no index >= 1 move applies
    assert valid_moves(boundary_simplex(4)) == []


def test_valid_moves_index_filter():
    O = cross_polytope_boundary(3)
    assert valid_moves(O, index_filter=[2]) == []
    assert len(valid_moves(O, index_filter=[1, 2])) == 12


def _triples(moves):
    return [(m.index, m.A, m.B) for m in moves]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), d=st.sampled_from([2, 3, 4]), stacked=st.booleans())
def test_move_state_walk_matches_dense_oracle(seed, d, stacked):
    rng = random.Random(seed)
    if stacked:
        M = stacked_sphere(d, rng.randint(d + 2, d + 7), seed=seed)
    else:
        M = random_sphere(rng, d=d, walk=6)
    every = range(1, d + 1)
    state = _MoveState(M, every)
    K = M
    for _ in range(10):
        got = state.moves()
        assert _triples(got) == dense_valid_moves(K, every)
        assert got == valid_moves(K)
        sub = sorted(rng.sample(every, rng.randint(1, d)))
        assert _triples(state.moves(sub)) == dense_valid_moves(K, sub)
        if got and rng.random() < 0.8:
            mv = got[rng.randrange(len(got))]
        else:
            # an index-0 move: subdivide a facet with a fresh vertex
            mv = BistellarMove(K.facets[rng.randrange(len(K.facets))], (max(K.vertices) + 1,))
        # a move and its inverse restore the state exactly
        state.apply(mv)
        state.apply(mv.inverse())
        assert state.complex() == K
        state.apply(mv)
        K = apply_move(K, mv)
        assert state.complex() == K
        assert state.is_boundary_simplex() == is_boundary_simplex(K)


def _check_has_face(state, K, rng):
    """state.has_face agrees with K.has_face on faces and on random vertex
    sets of every size 1..d+1."""
    d = K.dim
    verts = sorted(set(K.vertices) | {max(K.vertices) + 1})
    for size in range(1, d + 2):
        tops = [f for f in K.facets if len(f) >= size]
        samples = [tuple(sorted(rng.sample(verts, size))) for _ in range(6)]
        samples += [tuple(sorted(rng.sample(f, size))) for f in rng.sample(tops, min(3, len(tops)))]
        for s in samples:
            assert state.has_face(s) == K.has_face(s), s


def _walk_move(K, rng):
    """A random applicable move from the dense oracle, or an index-0
    subdivision of a random top facet with a fresh vertex."""
    cands = dense_valid_moves(K, range(1, K.dim + 1))
    if cands and rng.random() < 0.8:
        _, a, b = cands[rng.randrange(len(cands))]
        return BistellarMove(a, b)
    tops = [f for f in K.facets if len(f) == K.dim + 1]
    return BistellarMove(tops[rng.randrange(len(tops))], (max(K.vertices) + 1,))


def _check_valid_sets(state, K):
    """In a state built for every index: each index's valid list holds the
    dense oracle's moves, the positions index it, and the pool and the
    faces wanting each B are those of a fresh build."""
    if state._valid is None:
        return
    for i, moves in state._valid.items():
        assert sorted(_triples(moves)) == dense_valid_moves(K, [i]), i
        assert all(state._at[mv.A] == pos for pos, mv in enumerate(moves))
    assert len(state._at) == sum(map(len, state._valid.values()))
    fresh = _MoveState(K, state.indices)
    assert state._pool == fresh._pool
    assert {b: set(a) for b, a in state._want.items()} == {b: set(a) for b, a in fresh._want.items()}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), d=st.sampled_from([2, 3, 4]), all_indices=st.booleans())
def test_move_pool_stays_current_over_move_runs(seed, d, all_indices):
    # the sorted move lists are checked only every 1-4 moves, so stale
    # entries left by a run of moves (move-inverse pairs and subdivisions
    # among them) would show; the valid sets of a state built for every
    # index are checked after each apply; a state built for some indices
    # answers has_face for the other sizes by star intersection
    rng = random.Random(seed)
    K = random_sphere(rng, d=d, walk=4)
    every = list(range(1, d + 1))
    built = every if all_indices else sorted(rng.sample(every, rng.randint(1, d)))
    state = _MoveState(K, built)
    assert (state._valid is not None) == (built == every)
    for _ in range(8):
        assert _triples(state.moves()) == dense_valid_moves(K, built)
        sub = sorted(rng.sample(built, rng.randint(1, len(built))))
        assert _triples(state.moves(sub)) == dense_valid_moves(K, sub)
        _check_has_face(state, K, rng)
        for _ in range(rng.randint(1, 4)):
            mv = _walk_move(K, rng)
            after = apply_move(K, mv)
            state.apply(mv)
            _check_valid_sets(state, after)
            if rng.random() < 0.3:
                state.apply(mv.inverse())
                _check_valid_sets(state, K)
                state.apply(mv)
                _check_valid_sets(state, after)
            K = after
    assert state.complex() == K


def test_draw_follows_the_index_rule():
    # a walked 4-sphere with valid moves of indices 1-3 only: single draws
    # from 9,000 seeds
    K = random_sphere(random.Random(23), d=4, walk=8)
    state = _MoveState(K, range(1, 5))
    sizes = {i: len(m) for i, m in state._valid.items()}
    assert sizes == {1: 6, 2: 4, 3: 3, 4: 0}
    draws = 9000
    counts = Counter(state.draw(random.Random(s)) for s in range(draws))
    assert set(counts) == set(state.moves())
    # the max of two draws from 1..4 is i with chance (2i - 1) / 16; given
    # i <= 3, index 1, 2, 3 comes up 1000, 3000, 5000 times expected, with
    # standard deviations 30, 45 and 47, so 10% is over 3 of them; a
    # uniform draw over all 13 moves would give 4154, 2769 and 2077
    by_index = Counter()
    for mv, c in counts.items():
        by_index[mv.index] += c
    want = {i: draws * (2 * i - 1) / 9 for i in (1, 2, 3)}
    assert all(abs(by_index[i] - want[i]) < 0.1 * want[i] for i in want), by_index
    # uniform within an index: about 167, 750 and 1667 per move, with
    # standard deviations below 13, 27 and 39, so 25% is over 3 of them
    for mv, c in counts.items():
        share = by_index[mv.index] / sizes[mv.index]
        assert abs(c - share) < 0.25 * share, (mv, c, share)
    assert _MoveState(boundary_simplex(4), range(1, 5)).draw(random.Random(0)) is None


def _incremental_state(K, indices):
    """A state emptied facet by facet and refilled with ``_add``, the way
    ``apply`` changes it."""
    state = _MoveState(K, indices)
    for f in K.facets:
        state._remove(f)
    assert not state.facets and not state.star and not state._cof and not any(state._ready.values())
    for f in K.facets:
        state._add(f)
    return state


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), d=st.sampled_from([2, 3, 4]), pure=st.booleans())
def test_bulk_state_build_matches_incremental_build(seed, d, pure):
    rng = random.Random(seed)
    K = random_sphere(rng, d=d, walk=4)
    if not pure:
        # lower facets on old and new labels: cofacets of neither kind
        verts = list(K.vertices)
        new = max(verts) + 1
        extra = [(rng.choice(verts), new), (new, new + 1, new + 2)]
        extra += [tuple(rng.sample(verts, 2)) + (new + 3,) for _ in range(2)]
        K = SimplicialComplex(list(K.facets) + extra)
        assert not K.is_pure
    built = sorted(rng.sample(range(d + 2), rng.randint(1, d + 2)))
    bulk, inc = _MoveState(K, built), _incremental_state(K, built)
    for attr in ("facets", "star", "_cof", "_ready", "_faces_of"):
        assert getattr(bulk, attr) == getattr(inc, attr), attr
    assert _triples(bulk.moves()) == dense_valid_moves(K, built)


def test_valid_moves_non_pure_rule():
    # stacked 2-sphere on 5 vertices: 1 and 5 have link d(2 3 4), and the
    # edges 23, 24, 34 flip onto the missing edge 15
    S = stacked_sphere(2, 5, seed=0)
    assert _triples(valid_moves(S)) == [
        (1, (2, 3), (1, 5)), (1, (2, 4), (1, 5)), (1, (3, 4), (1, 5)),
        (2, (1,), (2, 3, 4)), (2, (5,), (2, 3, 4)),
    ]
    # the lower facet 15 makes B = 15 a face, which kills the flips; as a
    # cofacet of 1 and 5 it is ignored, so both vertex removals remain
    K = SimplicialComplex(list(S.facets) + [(1, 5)])
    assert not K.is_pure
    every = range(1, 3)
    expected = [(2, (1,), (2, 3, 4)), (2, (5,), (2, 3, 4))]
    assert _triples(valid_moves(K)) == dense_valid_moves(K, every) == expected
    state = _MoveState(K, every)
    assert _triples(state.moves()) == expected
    mv = BistellarMove((1,), (2, 3, 4))
    state.apply(mv)
    assert state.complex() == apply_move(K, mv, check=False)
    assert state.complex().facets == ((1, 5), (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5))
    # the lower facet 15 stays while the walk goes on; every check of an
    # edge or vertex goes through the star intersection
    K = state.complex()
    rng = random.Random(25)
    for _ in range(12):
        mv = _walk_move(K, rng)
        state.apply(mv)
        K = apply_move(K, mv, check=False)
        assert state.complex() == K and (1, 5) in K.facets
        assert _triples(state.moves()) == dense_valid_moves(K, every)
        _check_has_face(state, K, rng)


def _snapshot(state):
    return (
        set(state.facets),
        {a: set(c) for a, c in state._cof.items()},
        {i: set(r) for i, r in state._ready.items()},
        dict(state._pool),
    )


def _check_probes(K, built, rng, rounds=3, walk=3):
    """Probe every applicable move of K, walk a few moves, and repeat.

    Each probe must give the facet set of ``apply_move`` and the number of
    index-d moves the dense oracle finds there, on the walked state (its
    pool filled by ``moves``) and on a fresh one (its pool empty), and
    leave both states exactly as they were.
    """
    d = K.dim
    state = _MoveState(K, built)
    probed = 0
    for _ in range(rounds):
        assert state.complex() == K
        cands = [BistellarMove(a, b) for _, a, b in dense_valid_moves(K, built)]
        state.moves()
        for st_ in (state, _MoveState(K, built)):
            before = _snapshot(st_)
            for mv in cands:
                after = apply_move(K, mv, check=False)
                want = (frozenset(after.facets), len(dense_valid_moves(after, [d])))
                assert st_.probe(mv) == want, mv
            assert _snapshot(st_) == before
        probed += len(cands)
        for _ in range(walk):
            pool = state.moves()
            if pool and rng.random() < 0.8:
                mv = pool[rng.randrange(len(pool))]
            else:
                tops = [f for f in K.facets if len(f) == d + 1]
                mv = BistellarMove(tops[rng.randrange(len(tops))], (max(K.vertices) + 1,))
            state.apply(mv)
            K = apply_move(K, mv, check=False)
    return probed


def test_probe_on_m6_16_links_matches_applied_moves():
    from tnt import dataset

    M = dataset("M6_16")
    rng = random.Random(16)
    assert sum(_check_probes(M.link((v,)), range(4, 6), rng, rounds=2) for v in M.vertices) > 0


@pytest.mark.parametrize("d,n", [(2, 8), (3, 9), (4, 9)])
def test_probe_on_stacked_spheres_matches_applied_moves(d, n):
    # k = 1: the state is built for index d alone
    rng = random.Random(d * 100 + n)
    assert _check_probes(stacked_sphere(d, n, seed=n), [d], rng) > 0


@pytest.mark.parametrize("seed", range(6))
def test_probe_on_random_spheres_matches_applied_moves(seed):
    rng = random.Random(seed)
    K = random_sphere(rng, d=2 + seed % 3, walk=6)
    assert _check_probes(K, range(1, K.dim + 1), rng) > 0


@pytest.mark.parametrize("d", [2, 3, 5])
def test_probe_onto_boundary_simplex(d):
    # both vertex removals of a once-subdivided simplex boundary end at a
    # simplex boundary, whose vertices have their opposite facet as B
    K = stacked_sphere(d, d + 3, seed=d)
    state = _MoveState(K, range(d - 1, d + 1))
    tops = state.moves([d])
    assert len(tops) == 2
    for mv in tops:
        after, score = state.probe(mv)
        assert is_boundary_simplex(SimplicialComplex(after)) and score == 0
    assert _check_probes(K, range(d - 1, d + 1), random.Random(d), rounds=1) == len(state.moves())


def test_probe_on_non_pure_complexes():
    # lower facets count as faces for B but never as cofacets
    S = stacked_sphere(2, 5, seed=0)
    assert _check_probes(SimplicialComplex(list(S.facets) + [(1, 5)]), range(1, 3), random.Random(5)) > 0
    T = stacked_sphere(3, 8, seed=2)
    K = SimplicialComplex(list(T.facets) + [(1, 20), (20, 21, 22)])
    assert not K.is_pure
    assert _check_probes(K, range(1, 4), random.Random(8)) > 0


def test_single_stacked_sphere_has_two_vertex_removals():
    # ∂Δ⁴ with one facet subdivided: both the new apex and the antipodal
    # original vertex have simplex-boundary links
    S = stacked_sphere(3, 6, seed=0)
    removals = [m for m in valid_moves(S) if m.index == 3]
    assert len(removals) == 2


def test_round_trip_bit_exact():
    rng = random.Random(22)
    for _ in range(60):
        S = random_sphere(rng, walk=4)
        mvs = valid_moves(S)
        if not mvs:
            continue
        mv = mvs[rng.randrange(len(mvs))]
        N = apply_move(S, mv)
        back = apply_move(N, mv.inverse())
        assert back == S
        assert back.canonical_hash() == S.canonical_hash()


def test_moves_preserve_betti():
    rng = random.Random(23)
    for _ in range(15):
        S = random_sphere(rng, walk=2)
        ref = betti_numbers(S).betti
        mvs = valid_moves(S)
        if not mvs:
            continue
        mv = mvs[rng.randrange(len(mvs))]
        assert betti_numbers(apply_move(S, mv)).betti == ref


def test_certificate_replay_and_tamper_detection():
    S = stacked_sphere(3, 8, seed=1)
    cert = stackedness_certificate(S, 1, budget=10000, seed=0)
    assert cert is not None
    end = cert.replay(S)
    assert is_boundary_simplex(end)
    # serialization round-trip
    again = MoveCertificate.from_json(cert.dumps())
    assert again == cert
    # tampering breaks replay
    bad = MoveCertificate(cert.start, cert.moves[:-1], cert.end)
    with pytest.raises(ValueError):
        bad.replay(S)
    wrong_start = MoveCertificate("0" * 32, cert.moves, cert.end)
    with pytest.raises(ValueError):
        wrong_start.replay(S)


def _facet_tuple(K):
    return tuple(sorted(tuple(sorted(f)) for f in K))


def _bad_move(rng, K, d):
    """A random move, mostly invalid: A usually a face, B on old and new
    labels."""
    verts = sorted(set().union(*K))
    fresh = [max(verts) + 1, max(verts) + 2]
    facet = list(rng.choice(_facet_tuple(K)))
    a = rng.sample(facet if rng.random() < 0.8 else verts + fresh, rng.randint(1, min(len(facet), d)))
    pool = [v for v in verts + fresh if v not in a]
    return BistellarMove(a, rng.sample(pool, min(len(pool), rng.randint(1, d + 2 - len(a)))))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), d=st.sampled_from([2, 3, 4]), kind=st.sampled_from(["walked", "stacked", "mixed"]))
def test_replay_matches_independent_oracle(seed, d, kind):
    rng = random.Random(seed)
    if kind == "stacked":
        M = stacked_sphere(d, rng.randint(d + 2, d + 6), seed=seed)
    else:
        M = random_sphere(rng, d=d, walk=4)
    if kind == "mixed":
        verts = list(M.vertices)
        new = max(verts) + 1
        M = SimplicialComplex(list(M.facets) + [(rng.choice(verts), new), (new, new + 1, new + 2)])
    # a walk of moves the oracle accepts; on the mixed complex the lower
    # facets make some of the dense oracle's moves invalid
    K, moves = set(map(frozenset, M.facets)), []
    for _ in range(rng.randint(1, 8)):
        cur = SimplicialComplex(_facet_tuple(K), _canonical=True)
        for mv in (_walk_move(cur, rng) for _ in range(5)):
            after = replay_oracle(K, [(mv.A, mv.B)])
            if isinstance(after, set):
                K = after
                moves.append(mv)
                break
    end = SimplicialComplex(_facet_tuple(K), _canonical=True)
    assert not any(f < g for f in K for g in K)
    cert = MoveCertificate(M.canonical_hash(), moves, end.canonical_hash())
    assert cert.replay(M).facets == end.facets
    assert MoveCertificate(cert.start, (), cert.start).replay(M) is M
    with pytest.raises(ValueError, match="start hash"):
        MoveCertificate("0" * 32, moves, cert.end).replay(M)
    with pytest.raises(ValueError, match="end hash"):
        MoveCertificate(cert.start, moves, "0" * 32).replay(M)
    # one move swapped: replay fails where the oracle does, on its clause
    p = rng.randrange(len(moves) + 1)
    bad = _bad_move(rng, replay_oracle(M.facets, [(m.A, m.B) for m in moves[:p]]), d)
    tampered = moves[:p] + [bad] + moves[p + 1 :]
    verdict = replay_oracle(M.facets, [(m.A, m.B) for m in tampered])
    if isinstance(verdict, set):
        end = SimplicialComplex(_facet_tuple(verdict), _canonical=True)
        assert MoveCertificate(cert.start, tampered, end.canonical_hash()).replay(M).facets == end.facets
        return
    at, clause = verdict
    for upto in (len(tampered), at + 1):
        with pytest.raises(InvalidMoveError) as ei:
            MoveCertificate(cert.start, tampered[:upto], cert.end).replay(M)
        assert ei.value.clause == clause
    if at:
        with pytest.raises(ValueError, match="end hash"):
            MoveCertificate(cert.start, tampered[:at], "0" * 32).replay(M)


def test_certificate_json_shape():
    S = stacked_sphere(3, 7, seed=2)
    cert = stackedness_certificate(S, 1, budget=10000, seed=0)
    obj = json.loads(cert.dumps())
    assert set(obj) == {"start", "moves", "end"}
    assert all(set(m) == {"A", "B"} for m in obj["moves"])


def test_stackedness_certificate_index_restriction():
    S = stacked_sphere(4, 9, seed=3)
    cert = stackedness_certificate(S, 1, budget=20000, seed=0)
    assert cert is not None
    assert cert.max_index_used == 4  # only reverse 0-moves for k=1
    with pytest.raises(ValueError):
        stackedness_certificate(S, 0)
    with pytest.raises(ValueError):
        stackedness_certificate(S, 3)  # k must stay within (d+1)//2


def test_stackedness_certificate_honest_none():
    # the octahedron admits no index-2 move at all, so k=1 must fail fast
    O = cross_polytope_boundary(3)
    assert stackedness_certificate(O, 1, budget=5000, seed=0) is None


def _removal_identity(S):
    """f(dSimplex^{d+1}) - f(S) = m * move_fvector_delta(d, d) with
    m = f_0(S) - d - 2 >= 0, the f-vectors counted from the complexes."""
    d = S.dim
    f = S.f_vector()
    m = f[0] - d - 2
    top = boundary_simplex(d + 1).f_vector()
    return m >= 0 and all(t - x == m * y for t, x, y in zip(top, f, move_fvector_delta(d, d)))


def _criterion_6_spheres():
    """(seed, sphere) of the stackedness agreement criterion."""
    for s in range(50):
        rng = random.Random(600 + s)
        d = rng.choice([2, 3])
        yield 600 + s, random_sphere(rng, d=d, walk=rng.randrange(4))


def test_k1_certificates_satisfy_the_fvector_identity():
    # the k = 1 searches of the suite: criterion 6, the pinned, CLI,
    # constructor and above stacked spheres, and the vertex links of
    # walkup_M3; every move of a k = 1 certificate has index d
    from tnt import dataset

    cases = list(_criterion_6_spheres())
    cases += [(seed, stacked_sphere(d, n, seed=d * 10 + 1)) for d, n in ((3, 12), (4, 11)) for seed in (0, 1)]
    cases += [(0, stacked_sphere(d, n, seed=s)) for d, n, s in ((3, 8, 1), (3, 7, 2), (4, 9, 3), (5, 9, 1))]
    cases.append((3, stacked_sphere(4, 10, seed=5)))
    W = dataset("walkup_M3")
    cases += [(v, W.link((v,))) for v in W.vertices]
    certified = 0
    for seed, S in cases:
        cert = stackedness_certificate(S, 1, budget=20_000, seed=seed)
        if cert is not None:
            certified += 1
            assert _removal_identity(S), S
            assert len(cert.moves) == len(S.vertices) - S.dim - 2
            assert {mv.index for mv in cert.moves} <= {S.dim}
    assert certified == len(cases) - 16


def test_k1_exit_leaves_out_only_uncertifiable_inputs(monkeypatch):
    from tnt import bistellar

    excluded = [(seed, S) for seed, S in _criterion_6_spheres() if not _removal_identity(S)]
    assert len(excluded) == 15
    # they leave before any move state is built
    real = bistellar._MoveState
    monkeypatch.setattr(bistellar, "_MoveState", None)
    assert all(stackedness_certificate(S, 1, budget=20_000, seed=seed) is None for seed, S in excluded)
    # with the exit off, one input per f-vector still certifies nothing at
    # three times the criterion's budget
    monkeypatch.setattr(bistellar, "_MoveState", real)
    monkeypatch.setattr(bistellar, "_removals_can_reach_simplex", lambda S: True)
    by_f = {S.f_vector(): (seed, S) for seed, S in excluded}
    assert len(by_f) == 6
    for seed, S in by_f.values():
        assert stackedness_certificate(S, 1, budget=60_000, seed=seed) is None


def test_boundary_simplex_certificate_trivial():
    B = boundary_simplex(4)
    cert = stackedness_certificate(B, 1, budget=100, seed=0)
    assert cert is not None and cert.moves == ()


def test_k_stacked_exact_octahedron():
    O = cross_polytope_boundary(3)
    r2 = k_stacked_exact(O, 2)
    assert r2.status == "yes"
    assert r2.ball is not None and len(r2.ball.facets) == 4
    # the ball's boundary is the octahedron itself
    from tnt import boundary_complex
    assert boundary_complex(r2.ball) == O
    r1 = k_stacked_exact(O, 1)
    assert r1.status == "no" and r1.ball is None


def test_k_stacked_exact_stacked_sphere():
    S = stacked_sphere(3, 7, seed=4)
    r = k_stacked_exact(S, 1)
    assert r.status == "yes"
    from tnt import boundary_complex
    assert boundary_complex(r.ball) == S


def test_k_stacked_exact_ceiling():
    S = stacked_sphere(3, 12, seed=5)
    r = k_stacked_exact(S, 1, ceiling=10)
    assert r.status == "aborted"


def test_certificate_and_exact_agree_on_small_spheres():
    rng = random.Random(24)
    checked = 0
    for _ in range(25):
        S = random_sphere(rng, d=2, walk=5)
        if len(S.vertices) > 9:
            continue
        k = 1
        cert = stackedness_certificate(S, k, budget=30000, seed=1)
        exact = k_stacked_exact(S, k)
        if cert is not None:
            assert exact.status == "yes"
        if exact.status == "no":
            assert cert is None
        checked += 1
    assert checked >= 10


def test_vertex_reduce_minimal_input_unchanged():
    B = boundary_simplex(4)
    best, cert = vertex_reduce(B, target_f0=4, seed=0)
    assert best == B
    assert cert.moves == ()
    assert cert.start == cert.end == B.canonical_hash()


def test_vertex_reduce_stacked_sphere():
    S = stacked_sphere(3, 15, seed=6)
    best, cert = vertex_reduce(S, target_f0=5, seed=6)
    assert is_boundary_simplex(best)
    assert cert.replay(S) == best


def test_vertex_reduce_check_homology():
    S = stacked_sphere(4, 10, seed=7)
    best, cert = vertex_reduce(S, target_f0=6, seed=7, check_homology=True)
    assert best.f_vector()[0] == 6
    assert betti_numbers(best).betti == betti_numbers(S).betti


@pytest.mark.parametrize("bad", [
    {"t_start": 0.0, "t_min": 0.0},
    {"cooling": 0.0, "t_min": 0.0},
    {"t_start": -1.0},
    {"t_start": float("nan")},
    {"t_min": 0.0},
    {"t_min": -0.5},
    {"cooling": 0.0},
    {"cooling": 1.5},
    {"steps": -5},
    {"restarts": -1},
])
def test_anneal_schedule_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        AnnealSchedule(**bad)


def test_anneal_schedule_edge_values():
    K = stacked_sphere(2, 6, seed=3)
    # no steps: the input back unchanged; cooling 1 keeps t_start throughout
    best, cert = vertex_reduce(K, schedule=AnnealSchedule(steps=0, restarts=0), seed=1)
    assert best is K and cert.moves == ()
    best, cert = vertex_reduce(K, target_f0=4, schedule=AnnealSchedule(steps=200, t_start=1.0, cooling=1.0), seed=1)
    assert cert.replay(K) == best


def test_vertex_reduce_respects_schedule_budget():
    S = stacked_sphere(3, 12, seed=8)
    sched = AnnealSchedule(steps=5, restarts=1)
    best, cert = vertex_reduce(S, target_f0=5, schedule=sched, seed=8)
    assert len(cert.moves) <= 5
