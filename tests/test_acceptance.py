"""Acceptance gate: ten numbered end-to-end criteria with wall-clock budgets.

Each test prints exactly one [PASS]/[FAIL] line (straight to the terminal,
bypassing capture) and fails if any sub-check or its time budget is missed.
Criteria 8 and 10 additionally print informational notes: the annealing
outcome and the exhaustive-sweep verdict are recorded but are not gates.
"""
import json
import random
import time
from itertools import combinations
from math import comb

from tnt import (
    AmbientPolytope,
    AnnealSchedule,
    apply_move,
    automorphisms,
    betti_numbers,
    binomial_form_check,
    boundary_complex,
    boundary_simplex,
    central_symmetry,
    cross_polytope_boundary,
    cyclic_polytope_boundary,
    dataset,
    dataset_names,
    dehn_sommerville6_residual,
    glbc_bound,
    hamiltonian_check,
    handle_addition,
    is_automorphism,
    is_boundary_simplex,
    k_stacked_exact,
    mu_vector,
    simplicial_product,
    six_manifold_bound,
    stacked_sphere,
    stackedness_certificate,
    tight_neighborly_bound,
    tightness_verify,
    valid_moves,
    vertex_reduce,
    walkup_class_membership,
)
from tnt.complexes import SimplicialComplex
from tnt.homology import engine

from conftest import random_sphere

DIAGONALS = [(2 * i - 1, 2 * i) for i in range(1, 9)]
F16 = (16, 112, 448, 980, 1232, 840, 240)


def _check(fails: list, ok: bool, msg: str) -> None:
    if not ok:
        fails.append(msg)


def _finish(capsys, num: int, desc: str, fails: list, t0: float, budget: float, notes=()) -> None:
    elapsed = time.monotonic() - t0
    if elapsed > budget:
        fails.append(f"budget exceeded: {elapsed:.1f}s > {budget:.0f}s")
    status = "PASS" if not fails else "FAIL"
    with capsys.disabled():
        print(f"\n[{status}] criterion {num}: {desc} ({elapsed:.1f}s, budget {budget:.0f}s)")
        for note in notes:
            print(f"       criterion {num} note: {note}")
    assert not fails, "; ".join(fails)


def test_criterion_01_sixteen_vertex_dataset_suite(capsys):
    t0 = time.monotonic()
    fails: list = []
    M = dataset("M6_16")
    fv = M.f_vector()
    _check(fails, fv == F16, f"f-vector {fv}")
    _check(fails, M.euler_characteristic() == 4, f"chi {M.euler_characteristic()}")
    _check(fails, M.missing_faces(1) == DIAGONALS, "missing edges are not the 8 diagonals")

    invol = central_symmetry(M)
    _check(fails, invol is not None, "no central involution")
    if invol is not None:
        _check(fails, all(invol[v] != v for v in M.vertices), "involution has a fixed point")
        _check(fails, all(invol[invol[v]] == v for v in M.vertices), "not an involution")
        _check(fails, is_automorphism(M, invol), "involution is not an automorphism")
    auts = automorphisms(M)
    _check(fails, len(auts) == 2, f"automorphism group order {len(auts)}")

    _check(fails, fv[2] == comb(16, 3) - 8 * 14 == 448, "diagonal-free triangle count")
    _check(fails, hamiltonian_check(M, 2, AmbientPolytope.cross(DIAGONALS)), "not 2-hamiltonian")

    betti = betti_numbers(M).betti
    _check(fails, betti == (1, 0, 1, 0, 1, 0, 1), f"betti {betti}")
    _check(fails, six_manifold_bound(4, 16, 112) == 448 == fv[2], "triangle bound equality")
    _check(fails, 28 * 4 - 21 * 16 + 6 * 112 == fv[2], "triangle bound closed form")
    _check(fails, dehn_sommerville6_residual(fv, 4) == 0, "face-count relation residual")

    mem = walkup_class_membership(M, 2, budget=100_000, seed=1)
    _check(fails, mem.certified, "some vertex link not certified 2-stacked")
    if mem.certified:
        # link dimension 5: allowed reductions are the reverses of index <= 1 moves
        for v, cert in mem.per_vertex.items():
            _check(
                fails,
                all(mv.index >= 4 for mv in cert.moves),
                f"link of {v} used a move below index 4",
            )
    _finish(capsys, 1, "16-vertex 6-manifold dataset suite", fails, t0, 120)


def test_criterion_02_handle_pipeline(capsys):
    t0 = time.monotonic()
    fails: list = []
    SP = boundary_complex(dataset("walkup_P"))
    _check(fails, SP.f_vector() == (13, 42, 58, 29), f"base sphere f-vector {SP.f_vector()}")
    M3 = handle_addition(SP, (1, 2, 3, 4), (10, 11, 12, 13), [(i, i + 9) for i in (1, 2, 3, 4)])
    _check(fails, M3.f_vector() == (9, 36, 54, 27), f"handle result f-vector {M3.f_vector()}")
    _check(fails, M3 == dataset("walkup_M3"), "handle result differs from the stored dataset")
    _check(fails, M3.is_k_neighborly(2), "not 2-neighborly")
    betti = betti_numbers(M3).betti
    _check(fails, betti == (1, 1, 1, 1), f"betti {betti}")

    rep = tightness_verify(M3, AmbientPolytope.simplex(9))
    _check(fails, rep.exhaustive and rep.subsets_checked == 512, f"checked {rep.subsets_checked}")
    _check(fails, rep.tight, f"witness {rep.witness}")

    rng = random.Random(2)
    verts = list(M3.vertices)
    bad = 0
    for _ in range(1000):
        order = verts[:]
        rng.shuffle(order)
        mu = mu_vector(M3, order).mu
        if mu != (1, 1, 1, 1) or sum((-1) ** i * m for i, m in enumerate(mu)) != 0:
            bad += 1
    _check(fails, bad == 0, f"{bad}/1000 orderings off the perfect vector")
    _finish(capsys, 2, "handle-addition pipeline and exhaustive tightness", fails, t0, 30)


def test_criterion_03_negative_control(capsys):
    t0 = time.monotonic()
    fails: list = []
    C = cyclic_polytope_boundary(4, 6)
    _check(fails, C.is_k_neighborly(2), "not 2-neighborly")
    _check(fails, len(C.missing_faces(2)) > 0, "no missing triangles")
    rep = tightness_verify(C, AmbientPolytope.simplex(6))
    _check(fails, not rep.tight, "unexpectedly tight")
    if rep.witness is not None:
        w, i, kd = rep.witness
        _check(fails, i == 1, f"witness degree {i}")
        _check(fails, kd >= 1, f"witness kernel dimension {kd}")
    else:
        fails.append("no witness returned")
    _finish(capsys, 3, "non-tight neighborly control with witness", fails, t0, 10)


def test_criterion_04_span_vanishing_suite(capsys):
    t0 = time.monotonic()
    fails: list = []
    violations = 0
    spheres = 0
    for s in range(100):
        d = (3, 4, 5)[s % 3]
        rng = random.Random(1000 + s)
        n = rng.randint(d + 2, 12)
        S = stacked_sphere(d, n, seed=1000 + s)
        spheres += 1
        eng = engine(S)
        verts = list(S.vertices)
        for _ in range(50):
            w = tuple(v for v in verts if rng.random() < 0.5)
            if not w:
                continue
            bet = eng.span_betti(eng.span_selection(eng.word_of(w)))
            for j in range(2, d):
                i = d - j
                if i < len(bet) and bet[i] != 0:
                    violations += 1
    _check(fails, spheres == 100, f"{spheres} spheres generated")
    _check(fails, violations == 0, f"{violations} span homology violations")
    _finish(capsys, 4, "span homology vanishing on 100 stacked spheres x 50 subsets", fails, t0, 120)


def test_criterion_05_bistellar_integrity(capsys):
    t0 = time.monotonic()
    fails: list = []

    rng = random.Random(5)
    done = 0
    while done < 500:
        S = random_sphere(rng, d=rng.choice([2, 3]), walk=4)
        mvs = valid_moves(S)
        if not mvs:
            continue
        for _ in range(min(8, len(mvs))):
            mv = mvs[rng.randrange(len(mvs))]
            T = apply_move(S, mv)
            back = apply_move(T, mv.inverse())
            if back != S or back.canonical_hash() != S.canonical_hash():
                fails.append(f"round trip failed for {mv} on f={S.f_vector()}")
            done += 1
            if done >= 500:
                break

    # annealing: every accepted move must preserve the betti vector, checked
    # both online and by stepwise certificate replay
    base = stacked_sphere(3, 12, seed=7)
    b0 = betti_numbers(base).betti
    best, cert = vertex_reduce(
        base, target_f0=5, schedule=AnnealSchedule(steps=3000), seed=7, check_homology=True
    )
    cur = base
    for mv in cert.moves:
        cur = apply_move(cur, mv)
        if betti_numbers(cur).betti != b0:
            fails.append("certificate step changed homology")
            break
    _check(fails, cur == best, "certificate replay does not land on the reported best")

    wins = 0
    for s in range(10):
        S = stacked_sphere(3, 20, seed=s)
        red, _ = vertex_reduce(S, target_f0=5, schedule=AnnealSchedule(steps=10_000), seed=s)
        if is_boundary_simplex(red):
            wins += 1
    _check(fails, wins == 10, f"{wins}/10 reductions reached the boundary simplex")
    _finish(capsys, 5, "move round trips, homology-safe annealing, 10/10 reductions", fails, t0, 60)


def test_criterion_06_stackedness_oracle_agreement(capsys):
    t0 = time.monotonic()
    fails: list = []
    octa = cross_polytope_boundary(3)
    res2 = k_stacked_exact(octa, 2)
    _check(fails, res2.status == "yes", f"octahedron at k=2: {res2.status}")
    if res2.ball is not None:
        _check(fails, len(res2.ball.facets) == 4, f"{len(res2.ball.facets)} facets in the ball")
        _check(fails, boundary_complex(res2.ball) == octa, "ball boundary mismatch")
    else:
        fails.append("no ball returned at k=2")
    res1 = k_stacked_exact(octa, 1)
    _check(fails, res1.status == "no", f"octahedron at k=1: {res1.status}")

    contradictions = 0
    certified = 0
    compared = 0
    for s in range(50):
        rng = random.Random(600 + s)
        d = rng.choice([2, 3])
        S = random_sphere(rng, d=d, walk=rng.randrange(4))
        for k in range(1, (d + 1) // 2 + 1):
            cert = stackedness_certificate(S, k, budget=20_000, seed=600 + s)
            exact = k_stacked_exact(S, k, ceiling=12)
            if exact.status == "aborted":
                continue
            compared += 1
            if cert is not None:
                certified += 1
                if exact.status == "no":
                    contradictions += 1
    _check(fails, contradictions == 0, f"{contradictions} certificate/decider contradictions")
    _check(fails, compared >= 50, f"only {compared} comparable cases")
    _check(fails, certified > 0, "no certificates found at all")
    _finish(capsys, 6, "exact stackedness decider agrees with move certificates", fails, t0, 60)


def test_criterion_07_bounds_table(capsys):
    t0 = time.monotonic()
    fails: list = []
    table = {(3, 1): 9, (4, 3): 15, (13, 2): 35, (5, 5): 21, (10, 8): 44}
    for (d, b1), expect in table.items():
        got = tight_neighborly_bound(d, b1)
        _check(fails, got == expect, f"bound({d},{b1}) = {got}, want {expect}")
    _check(fails, six_manifold_bound(4, 14, None, True) == 364, "two-neighborly bound at 14 vertices")
    _check(fails, glbc_bound(5, 2, 2, (1, 7, 21)) == 35, "lower bound f_2 at (5,2)")
    chk = binomial_form_check(15, 4, 3)
    _check(fails, chk.satisfied and chk.equality, f"lhs {chk.lhs} rhs {chk.rhs}")
    _finish(capsys, 7, "closed-form bounds, exact integer arithmetic", fails, t0, 1)


def test_criterion_08_product_pipeline(capsys):
    t0 = time.monotonic()
    fails: list = []
    P = simplicial_product(boundary_simplex(3), boundary_simplex(5))
    fv = P.f_vector()
    _check(fails, P.dim == 6, f"dim {P.dim}")
    _check(fails, fv[0] == 24, f"f_0 {fv[0]}")
    _check(fails, P.euler_characteristic() == 4, f"chi {P.euler_characteristic()}")
    betti = betti_numbers(P).betti
    _check(fails, betti == (1, 0, 1, 0, 1, 0, 1), f"betti {betti}")

    # best-effort vertex reduction: the outcome is recorded, not gated
    best, cert = vertex_reduce(P, target_f0=16, schedule=AnnealSchedule(steps=2000), seed=8)
    bfv = best.f_vector()
    _check(fails, betti_numbers(best).betti == betti, "reduction changed homology")
    if bfv[0] <= 16 and bfv == F16:
        note = f"reduction reached f = {bfv}, matching the 16-vertex dataset"
    elif bfv[0] <= 16:
        note = f"reduction reached f_0 = {bfv[0]}"
    else:
        note = f"reduction stopped at f_0 = {bfv[0]} after {len(cert.moves)} certified moves (success not required)"
    _finish(capsys, 8, "sphere-product pipeline with best-effort reduction", fails, t0, 300, notes=[note])


def test_criterion_09_morse_master_property(capsys):
    t0 = time.monotonic()
    fails: list = []
    exceptions = 0
    for name in dataset_names():
        M = dataset(name)
        rng = random.Random(9)
        verts = list(M.vertices)
        chi = M.euler_characteristic()
        betti = betti_numbers(M).betti
        pm = M.pseudomanifold_check() if M.is_pure else None
        closed = pm is not None and pm.is_closed_pseudomanifold
        for _ in range(200):
            order = verts[:]
            rng.shuffle(order)
            mu = mu_vector(M, order).mu
            if sum((-1) ** i * m for i, m in enumerate(mu)) != chi:
                exceptions += 1
            if any(m < b for m, b in zip(mu, betti)):
                exceptions += 1
            if closed:
                rev = mu_vector(M, order[::-1]).mu
                if mu != tuple(reversed(rev)):
                    exceptions += 1
    _check(fails, exceptions == 0, f"{exceptions} Morse relation exceptions")
    _finish(capsys, 9, "Morse relations and duality across every dataset", fails, t0, 120)


def test_criterion_10_cross_polytope_sweep(capsys):
    t0 = time.monotonic()
    fails: list = []

    def sweep():
        # fresh complex object each run so no per-instance cache is shared
        M = SimplicialComplex(dataset("M6_16").facets)
        return tightness_verify(M, AmbientPolytope.cross(DIAGONALS))

    first = sweep()
    second = sweep()
    _check(fails, first.exhaustive, "sweep was not exhaustive")
    _check(fails, first.subsets_checked == 12_866, f"checked {first.subsets_checked} subsets")
    one = json.dumps(first.to_json(), sort_keys=True)
    two = json.dumps(second.to_json(), sort_keys=True)
    _check(fails, one == two, "two sweeps produced different reports")
    verdict = "tight" if first.tight else f"not tight, witness {first.witness}"
    _finish(
        capsys,
        10,
        "exhaustive 12,866-subset sweep completes deterministically",
        fails,
        t0,
        600,
        notes=[f"verdict (informational): {verdict}"],
    )
