import json
import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_valid_moves, plain_link, random_sphere, replay_oracle, top_cofacet_scan
from tnt import (
    BistellarMove,
    MoveCertificate,
    SimplicialComplex,
    apply_move,
    betti_numbers,
    boundary_simplex,
    cross_polytope_boundary,
    cyclic_polytope_boundary,
    from_facets,
    k_stacked_exact,
    move_fvector_delta,
    simplicial_product,
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


def test_stackedness_indices_lower_the_facet_count():
    # every index the k-stacked search may use removes more facets than it
    # adds, so no run of the search can come back to a complex
    for d in range(1, 11):
        for k in range(1, (d + 1) // 2 + 1):
            for i in range(d - k + 1, d + 1):
                assert move_fvector_delta(d, i)[d] <= -1, (d, k, i)


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
        after = apply_move(K, mv)
        state.apply(mv)
        _check_state(state, after)
        state.apply(mv.inverse())
        assert state.complex() == K
        _check_state(state, K)
        state.apply(mv)
        K = after
        assert state.complex() == K
        _check_state(state, K)
        assert state.is_boundary_simplex() == is_boundary_simplex(K)


def _slot_facets(state, mask):
    """The facets in the slots whose bits are set in ``mask``."""
    return {state._slots[j] for j in range(mask.bit_length()) if mask >> j & 1}


def _decoded_stars(state):
    return {v: _slot_facets(state, m) for v, m in state.star.items()}


def _check_state(state, K):
    """The slots hold exactly K's facets, each free slot is listed once,
    the stars and the lower-facet mask decode to K's, every face of an
    indexed size has the decoded cofacets of a plain scan over K's top
    facets, the pool of index i holds exactly the faces with i + 1 of them
    that lie in no lower facet of the scan, and every pooled entry has the B
    and the move its scanned cofacets give, so a ready face left out or a B
    left stale by a move shows at once."""
    d = K.dim
    assert set(state.facets) == set(K.facets)
    assert all(state._slots[j] == f for f, j in state.facets.items())
    assert sorted(state._free) == [j for j, f in enumerate(state._slots) if f is None]
    assert _decoded_stars(state) == {v: {f for f in K.facets if v in f} for v in K.vertices}
    assert _slot_facets(state, state._low) == {f for f in K.facets if len(f) <= d}
    scan = top_cofacet_scan(K, [d - i + 1 for i in state.indices])
    for a, cof in scan.items():
        got = state.cofacets(a)
        assert len(got) == len(cof) and set(got) == cof, a
    lows = [set(f) for f in K.facets if len(f) <= d]
    assert {i: set(state._pool[i]) for i in state.indices} == {
        i: {
            a for a, cof in scan.items()
            if len(a) == d - i + 1 and len(cof) == i + 1 and not any(g.issuperset(a) for g in lows)
        }
        for i in state.indices
    }
    for i in state.indices:
        for a, hit in state._pool[i].items():
            if hit is None:
                continue
            b, mv = hit
            span = tuple(sorted(set().union(*scan[a]).difference(a)))
            want = span if len(span) == i + 1 else None
            assert (b, mv) == (want, None if want is None else BistellarMove(a, want)), a


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
@given(seed=st.integers(0, 10**6), d=st.sampled_from([2, 3, 4]), all_indices=st.booleans(), pure=st.booleans())
def test_move_pool_stays_current_over_move_runs(seed, d, all_indices, pure):
    # the sorted move lists are checked only every 1-4 moves, so stale
    # entries left by a run of moves (move-inverse pairs and subdivisions
    # among them) would show; the valid sets of a state built for every
    # index are checked after each apply; a state built for some indices
    # answers has_face for the other sizes by star intersection; lower
    # facets stay through the walk, and apply_move accepts each of its moves
    rng = random.Random(seed)
    K = random_sphere(rng, d=d, walk=4)
    if not pure:
        K = _decorated(K, rng)
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
            _check_state(state, after)
            if rng.random() < 0.3:
                state.apply(mv.inverse())
                _check_valid_sets(state, K)
                _check_state(state, K)
                state.apply(mv)
                _check_valid_sets(state, after)
                _check_state(state, after)
            K = after
    assert state.complex() == K


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_restricted_state_walk_on_5_spheres(seed):
    # the state of a k = 3 search on a 5-sphere, built for indices 3..5:
    # many faces of size 3 inside U = A u B lose as many cofacets in a move
    # as they gain (two vertices of A and one of B under an index-2 move),
    # and the recount must give them back their count and ready membership;
    # moves() pools every ready face before each move, so a pool entry that
    # outlives its cofacets would show
    rng = random.Random(seed)
    K = random_sphere(rng, d=5, walk=4)
    built = range(3, 6)
    state = _MoveState(K, built)
    assert state._valid is None
    for _ in range(8):
        assert _triples(state.moves()) == dense_valid_moves(K, built)
        mv = _walk_move(K, rng)
        after = apply_move(K, mv)
        state.apply(mv)
        _check_state(state, after)
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


def _decorated(K, rng):
    """K with lower facets on old and new labels: cofacets of neither kind."""
    verts = list(K.vertices)
    new = max(verts) + 1
    extra = [(rng.choice(verts), new), (new, new + 1, new + 2)]
    extra += [tuple(rng.sample(verts, 2)) + (new + 3,) for _ in range(2)]
    K = SimplicialComplex(list(K.facets) + extra)
    assert not K.is_pure
    return K


def _walked_back_state(K, rng):
    """A state built for every index on K, walked away from K by a random
    run of applied moves and brought back by their inverses in reverse."""
    state = _MoveState(K, range(1, K.dim + 1))
    walk = []
    for _ in range(rng.randint(1, 6)):
        mv = _walk_move(K, rng)
        state.apply(mv)
        K = apply_move(K, mv)
        walk.append(mv)
    while walk:
        state.apply(walk.pop().inverse())
    return state


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), d=st.sampled_from([2, 3, 4]), pure=st.booleans())
def test_bulk_state_build_matches_incremental_build(seed, d, pure):
    rng = random.Random(seed)
    K = random_sphere(rng, d=d, walk=4)
    if not pure:
        K = _decorated(K, rng)
    built = sorted(rng.sample(range(d + 2), rng.randint(1, d + 2)))
    bulk, full, inc = _MoveState(K, built), _MoveState(K, range(1, d + 1)), _walked_back_state(K, rng)
    # slots are reused in another order, so the masks are compared decoded
    assert set(full.facets) == set(inc.facets)
    assert _decoded_stars(full) == _decoded_stars(inc)
    assert _slot_facets(full, full._low) == _slot_facets(inc, inc._low)
    for attr in ("_pool", "_want"):
        assert getattr(full, attr) == getattr(inc, attr), attr
    assert {i: set(m) for i, m in full._valid.items()} == {i: set(m) for i, m in inc._valid.items()}
    # a build for fewer indices finds the ready faces and counts the faces
    # of its sizes alike
    assert {i: set(bulk._pool[i]) for i in bulk.indices} == {i: set(full._pool[i]) for i in bulk.indices}
    assert bulk.built_counts.items() <= full.built_counts.items()
    _check_state(bulk, K)
    _check_state(inc, K)
    assert _triples(bulk.moves()) == dense_valid_moves(K, built)


@pytest.mark.parametrize("name", ["walked", "non_pure", "stacked_70", "product"])
def test_walked_up_counts_match_a_cofacet_scan(name):
    # the per-size counts walked up from the vertices, for every index set
    # that can be built (a state for no index counts nothing), against a
    # plain scan over the top facets; a build, and moves applied to it,
    # leave the complex's cached star masks as they were
    rng = random.Random(2503)
    K = {
        "walked": lambda: random_sphere(rng, d=4, walk=8),
        "non_pure": lambda: SimplicialComplex(
            list(random_sphere(rng, d=3, walk=4).facets) + [(1, 30), (30, 31, 32), (2, 3, 33), (34,)]
        ),
        "stacked_70": lambda: stacked_sphere(3, 70, seed=7),
        "product": lambda: simplicial_product(boundary_simplex(2), boundary_simplex(3)),
    }[name]()
    d = K.dim
    stars = K._stars()
    before = dict(stars)
    for built in [()] + [[i] for i in range(1, d + 1)] + [range(d - 1, d + 1), range(1, d + 1), range(0, d + 3)]:
        state = _MoveState(K, built)
        sizes = range(1, d + 2 - state.indices[0]) if state.indices else ()
        scan = top_cofacet_scan(K, sizes)
        assert state.built_counts == {s: sum(1 for a, cof in scan.items() if len(a) == s and cof) for s in sizes}, built
        _check_state(state, K)
        for _ in range(3):
            for mv in state.moves()[:1]:
                state.apply(mv)
    assert K._stars() is stars and stars == before


def test_valid_moves_non_pure_rule():
    # stacked 2-sphere on 5 vertices: 1 and 5 have link d(2 3 4), and the
    # edges 23, 24, 34 flip onto the missing edge 15
    S = stacked_sphere(2, 5, seed=0)
    assert _triples(valid_moves(S)) == [
        (1, (2, 3), (1, 5)), (1, (2, 4), (1, 5)), (1, (3, 4), (1, 5)),
        (2, (1,), (2, 3, 4)), (2, (5,), (2, 3, 4)),
    ]
    every = range(1, 3)
    # the lower facet 15 makes B = 15 a face, which kills the flips, and
    # lies in the stars of 1 and 5, whose links are then more than d(2 3 4)
    K = SimplicialComplex(list(S.facets) + [(1, 5)])
    assert not K.is_pure
    assert _triples(valid_moves(K)) == dense_valid_moves(K, every) == []
    with pytest.raises(InvalidMoveError, match="link mismatch"):
        apply_move(K, BistellarMove((1,), (2, 3, 4)))
    # the lower facet 16 pins vertex 1 alone: the flips and the removal of
    # 5 stay, and apply_move accepts every move listed
    K = SimplicialComplex(list(S.facets) + [(1, 6)])
    expected = [(1, (2, 3), (1, 5)), (1, (2, 4), (1, 5)), (1, (3, 4), (1, 5)), (2, (5,), (2, 3, 4))]
    assert _triples(valid_moves(K)) == dense_valid_moves(K, every) == expected
    state = _MoveState(K, every)
    assert _triples(state.moves()) == expected
    mv = BistellarMove((5,), (2, 3, 4))
    state.apply(mv)
    assert state.complex() == apply_move(K, mv)
    assert state.complex().facets == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 6), (2, 3, 4))
    # the lower facet 16 stays while the walk goes on; every check of an
    # edge or vertex goes through the star intersection
    K = state.complex()
    rng = random.Random(25)
    for _ in range(12):
        mv = _walk_move(K, rng)
        state.apply(mv)
        K = apply_move(K, mv)
        assert state.complex() == K and (1, 6) in K.facets
        _check_state(state, K)
        assert _triples(state.moves()) == dense_valid_moves(K, every)
        for _, a, b in dense_valid_moves(K, every):
            apply_move(K, BistellarMove(a, b))
        _check_has_face(state, K, rng)


def _snapshot(state):
    # a probe applies nothing, so even the raw slots and masks must stay
    return (
        dict(state.facets),
        list(state._slots),
        list(state._free),
        dict(state.star),
        state._low,
        {i: dict(p) for i, p in state._pool.items()},
    )


def _check_probes(K, built, rng, rounds=3, walk=3):
    """Probe every applicable move of K and one subdivision, walk a few
    moves, and repeat.

    Each probe must give the number of index-d moves the dense oracle
    finds on the complex ``apply_move`` makes, on the walked state (its
    pool filled by ``moves``) and on a fresh one (its pool empty), and
    leave both states exactly as they were.  The subdivision's inverse
    removes a B that is a facet before the move.
    """
    d = K.dim
    state = _MoveState(K, built)
    probed = 0
    for _ in range(rounds):
        assert state.complex() == K
        cands = [BistellarMove(a, b) for _, a, b in dense_valid_moves(K, built)]
        split = BistellarMove(next(f for f in K.facets if len(f) == d + 1), (max(K.vertices) + 1,))
        state.moves()
        for st_ in (state, _MoveState(K, built)):
            before = _snapshot(st_)
            for mv in cands + [split]:
                after = apply_move(K, mv)
                assert st_.probe(mv) == len(dense_valid_moves(after, [d])), mv
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
            K = apply_move(K, mv)
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
        assert is_boundary_simplex(apply_move(K, mv)) and state.probe(mv) == 0
    assert _check_probes(K, range(d - 1, d + 1), random.Random(d), rounds=1) == len(state.moves())


def test_probe_on_non_pure_complexes():
    # lower facets count as faces for B, never as cofacets, and pin the
    # faces they hold
    S = stacked_sphere(2, 5, seed=0)
    assert _check_probes(SimplicialComplex(list(S.facets) + [(1, 5)]), range(1, 3), random.Random(5)) > 0
    T = stacked_sphere(3, 8, seed=2)
    K = SimplicialComplex(list(T.facets) + [(1, 20), (20, 21, 22)])
    assert not K.is_pure
    assert _check_probes(K, range(1, 4), random.Random(8)) > 0
    # the lower facet 1 20 pins vertex 1, which a flip of an edge at 1
    # leaves with the 3 top cofacets of an index-2 A
    O = SimplicialComplex(list(cross_polytope_boundary(3).facets) + [(1, 20)])
    assert _check_probes(O, range(1, 3), random.Random(3)) > 0


def test_ready_faces_without_a_span():
    # vertex 1 of the triangles 123, 145 and 167 has the 3 cofacets of an
    # index-2 A, but they span 6 vertices, so it is pooled with no B; a
    # stacked 2-sphere beside them gives the walk and the probes moves
    fan = [(1, 2, 3), (1, 4, 5), (1, 6, 7)]
    K = SimplicialComplex(fan + [tuple(v + 7 for v in f) for f in stacked_sphere(2, 6, seed=0).facets])
    every = range(1, 3)
    assert _triples(valid_moves(K)) == dense_valid_moves(K, every)
    assert all(mv.A != (1,) for mv in valid_moves(K))
    lazy = _MoveState(K, [2])
    assert _triples(lazy.moves()) == dense_valid_moves(K, [2])
    for state in (lazy, _MoveState(K, every)):
        assert state._pool[2][(1,)] == (None, None)
    for built in ([2], every):
        assert _check_probes(K, built, random.Random(14)) > 0
    state, rng = _MoveState(K, every), random.Random(13)
    for _ in range(12):
        mv = _walk_move(K, rng)
        state.apply(mv)
        K = apply_move(K, mv)
        _check_valid_sets(state, K)
        assert _triples(state.moves()) == dense_valid_moves(K, every)


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


def _replay_cases():
    """Walked and stacked spheres, and a non-pure complex whose lower facets
    admit moves of their own: the path 12 - 13 - 14 has the index-1 move
    (13,) -> (12, 14), and every lower facet an index-0 subdivision."""
    rng = random.Random(2502)
    cases = [random_sphere(rng, d=d, walk=5) for d in (2, 3, 3, 4)] + [stacked_sphere(3, 9, seed=4)]
    S = stacked_sphere(2, 7, seed=1)
    lower = [(1, 12), (12, 13), (13, 14), (2, 3, 15), (16,)]
    return cases + [SimplicialComplex(list(S.facets) + lower)]


def _any_move(rng, K, last):
    """A move on K of one of six kinds, valid or not: a move of the dense
    oracle, an index-0 subdivision of any facet, the inverse of the last
    accepted move, a face A with the vertices of its link as B, a move with
    A and B sharing a label, and a mostly invalid random move."""
    d, facets = K.dim, list(K.facets)
    fresh = max(K.vertices) + 1
    kind = rng.randrange(6)
    if kind == 0:
        cands = dense_valid_moves(K, range(1, d + 1))
        if cands:
            return "oracle", BistellarMove(*rng.choice(cands)[1:])
    if kind == 2 and last is not None:
        return "inverse", last.inverse()
    if kind == 3:
        f = rng.choice(facets)
        a = tuple(sorted(rng.sample(f, rng.randint(1, len(f)))))
        b = plain_link(K, a).vertices
        return "link", BistellarMove(a, b or (fresh,))
    if kind == 4:
        f = rng.choice(facets)
        a = rng.sample(f, rng.randint(1, len(f)))
        rest = [v for v in list(K.vertices) + [fresh] if v not in a]
        return "overlap", BistellarMove(a, [rng.choice(a)] + rng.sample(rest, rng.randint(0, min(2, len(rest)))))
    if kind == 5:
        return "random", _bad_move(rng, set(map(frozenset, facets)), d)
    return "subdivide", BistellarMove(rng.choice(facets), (fresh,))


def _check_sequence(M, moves):
    """A certificate of ``moves`` replays as the oracle runs them: to the
    same facets, with the lower-facet mask of a state built for no index
    following the lower moves, or to an InvalidMoveError with the oracle's
    clause at the oracle's position (the moves before it replay up to the
    end hash)."""
    verdict = replay_oracle(M.facets, [(m.A, m.B) for m in moves])
    if isinstance(verdict, set):
        end = SimplicialComplex(_facet_tuple(verdict), _canonical=True)
        assert MoveCertificate(M.canonical_hash(), moves, end.canonical_hash()).replay(M).facets == end.facets
        state = _MoveState(M, ())
        for mv in moves:
            state.apply_checked(mv)
        assert _slot_facets(state, state._low) == {f for f in end.facets if len(f) <= M.dim}
        return
    at, clause = verdict
    with pytest.raises(InvalidMoveError) as ei:
        MoveCertificate(M.canonical_hash(), moves[: at + 1], "0" * 32).replay(M)
    assert ei.value.clause == clause
    with pytest.raises(ValueError, match="end hash"):
        MoveCertificate(M.canonical_hash(), moves[:at], "0" * 32).replay(M)


def test_replay_and_apply_move_match_the_oracle_on_every_clause():
    # each move by apply_move and each sequence by a certificate replay,
    # both on a state built for no index, against the oracle over plain
    # sets: the same facets, or the same position and clause
    seen = Counter()
    cases = _replay_cases()
    for case, M in enumerate(cases):
        rng = random.Random(case)
        for _ in range(60):
            K, moves, last = M, [], None
            for _ in range(rng.randint(1, 6)):
                kind, mv = _any_move(rng, K, last)
                moves.append(mv)
                verdict = replay_oracle(K.facets, [(mv.A, mv.B)])
                try:
                    got = set(map(frozenset, apply_move(K, mv).facets))
                except InvalidMoveError as e:
                    got = (0, e.clause)
                assert got == verdict, (K.facets, mv)
                if isinstance(verdict, tuple):
                    seen[verdict[1]] += 1
                    seen["shared label"] += bool(set(mv.A) & set(mv.B))
                    break
                seen[kind, "valid" if len(mv.B) > 1 or mv.B[0] in K.vertices else "index 0"] += 1
                K, last = SimplicialComplex(_facet_tuple(verdict), _canonical=True), mv
            _check_sequence(M, moves)
    for clause in ("A not a face", "B already a face", "label not fresh", "link mismatch"):
        assert seen[clause] >= 5, (clause, seen)
    for kind in ("oracle", "inverse", "link", "subdivide"):
        assert seen[kind, "valid"] + seen[kind, "index 0"] >= 5, (kind, seen)
    # a move whose A and B share a label is never valid
    assert seen["shared label"] >= 5 and not seen["overlap", "valid"] + seen["overlap", "index 0"], seen
    # the lower moves of the non-pure case, each undone, then a top one
    N = cases[-1]
    flip, split = BistellarMove((13,), (12, 14)), BistellarMove((12, 13), (17,))
    assert apply_move(N, flip).facets == tuple(sorted(set(N.facets) - {(12, 13), (13, 14)} | {(12, 14)}))
    lower = [split, split.inverse(), flip, flip.inverse(), BistellarMove(*dense_valid_moves(N, [2])[0][1:])]
    assert isinstance(replay_oracle(N.facets, [(m.A, m.B) for m in lower]), set)
    for upto in range(len(lower) + 1):
        _check_sequence(N, lower[:upto])
    # the facets holding A are every U - w, w in B, and more: a lower facet,
    # or the other cone of a link made of two circles
    mv = BistellarMove((1,), (2, 3, 4))
    cones = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 5, 6), (1, 5, 7), (1, 6, 7)]
    for K in (SimplicialComplex(list(stacked_sphere(2, 5, seed=0).facets) + [(1, 5)]), SimplicialComplex(cones)):
        assert replay_oracle(K.facets, [(mv.A, mv.B)]) == (0, "link mismatch")
        with pytest.raises(InvalidMoveError) as ei:
            apply_move(K, mv)
        assert ei.value.clause == "link mismatch"
        _check_sequence(K, [mv])


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


def test_stackedness_search_probes_at_most_16_moves_a_step(monkeypatch):
    # the cyclic 4-polytope on 20 vertices starts with 20 index-2 moves and
    # no index-3 move, so the first step probes a sample of them
    S = cyclic_polytope_boundary(4, 20)
    start = _MoveState(S, [2, 3])
    assert len(start.moves([2])) == 20 and not start.moves([3])
    probe, apply = _MoveState.probe, _MoveState.apply
    probes = [0]

    def counting_probe(self, mv):
        probes[-1] += 1
        return probe(self, mv)

    def counting_apply(self, mv):
        probes.append(0)
        apply(self, mv)

    monkeypatch.setattr(_MoveState, "probe", counting_probe)
    monkeypatch.setattr(_MoveState, "apply", counting_apply)
    cert = stackedness_certificate(S, 2, budget=10_000, seed=0)
    assert cert is not None and is_boundary_simplex(cert.replay(S))
    assert probes[0] == max(probes) == 16


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
    # the criterion's spheres whose f-vectors rule out reaching dSimplex by
    # removals alone certify nothing, and each search stops at its first
    # position without a removal, after at most f_0 - d - 2 of them
    excluded = [(seed, S) for seed, S in _criterion_6_spheres() if not _removal_identity(S)]
    assert len(excluded) == 15
    applied = []
    apply = _MoveState.apply
    monkeypatch.setattr(_MoveState, "apply", lambda self, mv: applied.append(mv) or apply(self, mv))
    for seed, S in excluded:
        applied.clear()
        assert stackedness_certificate(S, 1, budget=20_000, seed=seed) is None
        assert len(applied) <= len(S.vertices) - S.dim - 2, seed


# a 3-sphere on 9 vertices, walked from a stacked one
RESTART_SPHERE = (
    (1, 2, 5, 8), (1, 2, 5, 9), (1, 2, 6, 8), (1, 2, 6, 9), (1, 4, 5, 7), (1, 4, 5, 8),
    (1, 4, 6, 7), (1, 4, 6, 8), (1, 5, 6, 7), (1, 5, 6, 9), (2, 3, 4, 6), (2, 3, 4, 8),
    (2, 3, 5, 7), (2, 3, 5, 8), (2, 3, 6, 9), (2, 3, 7, 9), (2, 4, 6, 8), (2, 5, 7, 9),
    (3, 4, 5, 7), (3, 4, 5, 8), (3, 4, 6, 9), (3, 4, 7, 9), (4, 6, 7, 9), (5, 6, 7, 9),
)


def test_search_restarts_by_undoing_its_moves(monkeypatch):
    # with k = 2 and seed 0 the first run makes 6 moves to a dead end; the
    # restart undoes them on the same state, in reverse, and the second run
    # certifies.  Both runs' moves and probes spend the budget of 95
    # exactly; the undo spends nothing
    S = SimplicialComplex(RESTART_SPHERE)
    applied = []
    apply = _MoveState.apply
    monkeypatch.setattr(_MoveState, "apply", lambda self, mv: applied.append(mv) or apply(self, mv))
    cert = stackedness_certificate(S, 2, budget=95, seed=0)
    assert cert is not None and is_boundary_simplex(cert.replay(S))
    first = applied[:6]
    assert applied[6:12] == [mv.inverse() for mv in reversed(first)]
    assert applied[12:] == list(cert.moves) and len(cert.moves) == 11
    assert stackedness_certificate(S, 2, budget=94, seed=0) is None


def test_boundary_simplex_certificate_trivial():
    B = boundary_simplex(4)
    cert = stackedness_certificate(B, 1, budget=100, seed=0)
    assert cert is not None and cert.moves == ()


def test_reaching_the_boundary_simplex_needs_no_budget_left():
    # the boundary is checked before the budget: dSimplex certifies at
    # budget 0 for every allowed k, and a k = 1 search on a stacked sphere
    # with m removals to make certifies at budget m, not m + 1
    for d in range(2, 7):
        B = boundary_simplex(d)
        for k in range(1, d // 2 + 1):
            cert = stackedness_certificate(B, k, budget=0, seed=0)
            assert cert is not None and cert.moves == (), (d, k)
    for d, n in ((2, 6), (3, 7), (4, 9)):
        S = stacked_sphere(d, n, seed=1)
        m = n - d - 2
        cert = stackedness_certificate(S, 1, budget=m, seed=0)
        assert cert is not None and len(cert.moves) == m and is_boundary_simplex(cert.replay(S))
        assert stackedness_certificate(S, 1, budget=m - 1, seed=0) is None


def test_search_spends_no_more_than_its_budget(monkeypatch):
    # each probe and each move the search takes costs one unit; undoing
    # moves at a restart is free, and an undo has index d - i < d - k + 1,
    # below every allowed index i.  The 9 walked 4-spheres of the pinned
    # small-budget certificates, k = 2, seed 7, at every budget 1..59
    rng = random.Random(53)
    walked = [random_sphere(rng, d=4, walk=10) for _ in range(9)]
    spent = [0]
    probe, apply = _MoveState.probe, _MoveState.apply

    def counted_probe(self, move):
        spent[0] += 1
        return probe(self, move)

    def counted_apply(self, move):
        spent[0] += move.index >= self.d - 1
        apply(self, move)

    monkeypatch.setattr(_MoveState, "probe", counted_probe)
    monkeypatch.setattr(_MoveState, "apply", counted_apply)
    over = []
    for n, S in enumerate(walked):
        for budget in range(1, 60):
            spent[0] = 0
            cert = stackedness_certificate(S, 2, budget=budget, seed=7)
            if spent[0] > budget:
                over.append((n, budget, spent[0], cert is not None))
    assert not over


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


def test_certificate_and_exact_agree_on_small_spheres(monkeypatch):
    # k = 1: removals from a stacked sphere reach the simplex boundary in
    # any order, so the 25 seeds agree, a search makes one run of removals
    # and never restarts, and with an ample budget it certifies exactly the
    # spheres the exhaustive decider calls stacked; spheres of dimension 1
    # to 4 on at most 10 vertices, stacked ones and ones walked from them
    # by moves of lower index
    applied = []
    apply = _MoveState.apply
    monkeypatch.setattr(_MoveState, "apply", lambda self, mv: applied.append(mv) or apply(self, mv))
    rng = random.Random(24)
    seen = Counter()
    for j in range(48):
        d = 1 + j % 4
        S = stacked_sphere(d, rng.randint(d + 2, min(10, d + 7)), seed=rng.randrange(10**6))
        for _ in range(rng.randrange(8)):
            mvs = [mv for mv in valid_moves(S) if mv.index < d] or valid_moves(S)
            if not mvs:
                break
            S = apply_move(S, rng.choice(mvs))
        outcomes = set()
        for s in range(25):
            applied.clear()
            outcomes.add(stackedness_certificate(S, 1, budget=1000, seed=s) is not None)
            assert len(applied) <= len(S.vertices) - d - 2, S
        assert len(outcomes) == 1, S
        exact = k_stacked_exact(S, 1).status
        assert exact == ("yes" if outcomes == {True} else "no"), S
        seen[d, exact] += 1
    assert all(seen[d, "yes"] and seen[d, "no"] for d in (2, 3, 4)), seen


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


def _face_count_oracle(K):
    fresh = from_facets(K.facets)
    return tuple(len(fresh.face_set(j)) for j in range(fresh.dim + 1))


FVECTOR_INPUTS = {
    "product": lambda: simplicial_product(boundary_simplex(3), boundary_simplex(5)),
    "torus": lambda: simplicial_product(boundary_simplex(2), boundary_simplex(2)),
    "stacked2": lambda: stacked_sphere(2, 9, seed=5),
    "stacked3": lambda: stacked_sphere(3, 12, seed=4),
    "cyclic": lambda: cyclic_polytope_boundary(4, 10),
}


def test_vertex_reduce_fvectors_match_face_counts():
    # the f-vectors vertex_reduce stores on a pure input (from the move
    # state's counts and the moves' deltas) against a fresh face lattice
    moved = set()
    for name, build in FVECTOR_INPUTS.items():
        for seed in (0, 1):
            for steps in (0, 20, 300):
                M = from_facets(build().facets)
                best, cert = vertex_reduce(M, schedule=AnnealSchedule(steps=steps), seed=seed)
                assert M._cache["f_vector"] == _face_count_oracle(M), (name, seed, steps)
                assert best._cache["f_vector"] == _face_count_oracle(best), (name, seed, steps)
                assert best.f_vector() == _face_count_oracle(cert.replay(M))
                moved.add(bool(cert.moves))
    assert moved == {False, True}


def test_vertex_reduce_non_pure_fvector():
    S = stacked_sphere(2, 7, seed=2)
    M = from_facets(list(S.facets) + [(1, 20), (20, 21)])
    best, cert = vertex_reduce(M, schedule=AnnealSchedule(steps=200), seed=3)
    assert cert.moves
    assert "f_vector" not in M._cache and "f_vector" not in best._cache
    assert M.f_vector() == _face_count_oracle(M) == (9, 17, 10)
    assert best.f_vector() == _face_count_oracle(best)


def test_vertex_reduce_rejects_moves_whose_a_lies_in_a_lower_facet():
    # the lower facet 19 puts 9 in lk(1) besides d(2 3 4), so (1, 234) is no
    # valid move: apply_move refuses it, valid_moves leaves it out, and the
    # anneal, which draws only listed moves, keeps 19
    M = from_facets([(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 9), (2, 3, 5), (2, 4, 5), (3, 4, 5)])
    mv = BistellarMove((1,), (2, 3, 4))
    assert mv not in valid_moves(M)
    with pytest.raises(InvalidMoveError, match="link mismatch"):
        apply_move(M, mv)
    assert _triples(valid_moves(M)) == dense_valid_moves(M, range(1, 3))
    for seed in range(30):
        best, cert = vertex_reduce(M, schedule=AnnealSchedule(steps=50), seed=seed)
        assert cert.replay(M) == best
        assert (1, 9) in best.facets
