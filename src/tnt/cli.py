"""Command-line interface: reproducible verification pipelines.

Exit codes: 0 all checks passed, 1 a check failed (report carries the
witness), 2 usage or input parse error, 3 a search budget ran out with an
Unknown result.  Randomized commands require an explicit --seed; reports
embed the tool version and input hashes, and identical inputs plus seeds
produce byte-identical JSON.
"""
from __future__ import annotations

import argparse
import json
import random
import sys

from . import __version__, bounds, homology, morse
from .bistellar import AnnealSchedule, stackedness_certificate, vertex_reduce
from .complexes import SimplicialComplex, load_complex, save_complex, to_text
from .constructors import (
    boundary_simplex,
    cross_polytope_boundary,
    cyclic_polytope_boundary,
    dataset,
    dataset_names,
    kuehnel_series,
    simplicial_product,
    stacked_sphere,
)
from .errors import SearchLimitError
from .morse import AmbientPolytope
from .symmetry import automorphisms

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3


def _load(path: str) -> SimplicialComplex:
    try:
        return load_complex(path)
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    except ValueError as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(args, payload: dict, text_lines: list[str], M: SimplicialComplex | None = None) -> None:
    """Print the report: with --json the payload under a meta header naming
    the tool, the input file and hash (when ``M`` is given) and the seed."""
    if not args.json:
        for line in text_lines:
            print(line)
        return
    head = {"tool": "tnt", "version": __version__}
    if M is not None:
        head["input"] = args.file
        head["input_hash"] = M.canonical_hash()
    seed = getattr(args, "seed", None)  # info and bounds take no --seed
    if seed is not None:
        head["seed"] = seed
    payload["meta"] = head
    print(json.dumps(payload, sort_keys=True, indent=2))


# -- info -------------------------------------------------------------------


def cmd_info(args) -> int:
    M = _load(args.file)
    fv = M.f_vector()
    info: dict = {
        "dim": M.dim,
        "f_vector": list(fv),
        "euler_characteristic": M.euler_characteristic(),
        "vertices": len(M.vertices),
        "facets": len(M.facets),
        "pure": M.is_pure,
        "skeleton_components": M.connectivity(),
    }
    nb = 0
    for k in range(1, min(len(M.vertices), M.dim + 2) + 1):
        if M.is_k_neighborly(k):
            nb = k
        else:
            break
    info["neighborly"] = nb
    info["missing_edges"] = [list(e) for e in M.missing_faces(1)]
    if M.dim >= 2:
        info["missing_triangles"] = len(M.missing_faces(2))
    if M.is_pure and M.facets:
        info["pseudomanifold"] = M.pseudomanifold_check().to_json()
    lines = [
        f"dim {info['dim']}  f = {tuple(fv)}  chi = {info['euler_characteristic']}",
        f"pure: {info['pure']}  components: {info['skeleton_components']}  "
        f"neighborly: {nb}  missing edges: {len(info['missing_edges'])}",
    ]
    if "pseudomanifold" in info:
        pm = info["pseudomanifold"]
        lines.append(
            f"closed pseudomanifold: {pm['is_closed_pseudomanifold']} "
            f"(ridges in 2 facets: {pm['closed']}, facet graph connected: {pm['facet_graph_connected']})"
        )
    _emit(args, info, lines, M)
    return EXIT_PASS


# -- verify suites ------------------------------------------------------------


def _check(checks: list[dict], name: str, ok, detail: str = "") -> None:
    checks.append({"check": name, "ok": bool(ok), "detail": detail})


def _suite_m6_16(M: SimplicialComplex, args) -> tuple[list[dict], bool]:
    checks: list[dict] = []
    unknown = False
    fv = M.f_vector()
    _check(checks, "f_vector", fv == (16, 112, 448, 980, 1232, 840, 240), str(fv))
    _check(checks, "euler_characteristic", M.euler_characteristic() == 4, str(M.euler_characteristic()))
    missing = M.missing_faces(1)
    diagonals = [(2 * i - 1, 2 * i) for i in range(1, 9)]
    _check(checks, "missing_edges_are_diagonals", missing == diagonals, str(missing))
    expect = {u: a + b - u for a, b in diagonals for u in (a, b)}
    try:
        invol = morse.central_symmetry(M)
        _check(checks, "central_involution", invol == expect, str(invol))
    except SearchLimitError as e:
        _check(checks, "central_involution", False, str(e))
    try:
        auts = automorphisms(M)
        _check(checks, "automorphism_group_order", len(auts) == 2, str(len(auts)))
    except SearchLimitError as e:
        _check(checks, "automorphism_group_order", False, str(e))
    ambient = AmbientPolytope.cross(diagonals)
    _check(checks, "two_hamiltonian_in_cross_polytope", morse.hamiltonian_check(M, 2, ambient))
    betti = homology.betti_numbers(M).betti
    _check(checks, "betti_gf2", betti == (1, 0, 1, 0, 1, 0, 1), str(betti))
    b11 = bounds.six_manifold_bound(4, 16, 112)
    _check(checks, "triangle_bound_equality", b11 == 448 == fv[2], f"bound {b11}, f_2 {fv[2]}")
    res = bounds.dehn_sommerville6_residual(fv, 4)
    _check(checks, "dehn_sommerville_residual", res == 0, str(res))
    seed = args.seed if args.seed is not None else 1
    mem = morse.walkup_class_membership(M, 2, budget=args.budget, seed=seed)
    if mem.certified:
        _check(checks, "links_2_stacked", True, "all 16 links certified")
    else:
        unknown = True
        bad = [str(v) for v, item in mem.per_vertex.items() if not hasattr(item, "moves")]
        _check(checks, "links_2_stacked", False, f"unknown for links of: {', '.join(bad)}")
    return checks, unknown


def _suite_walkup_m3(M: SimplicialComplex, args) -> tuple[list[dict], bool]:
    checks: list[dict] = []
    pm = M.pseudomanifold_check() if M.is_pure else None
    _check(checks, "closed_pseudomanifold", pm is not None and pm.closed and pm.is_closed_pseudomanifold)
    ref = dataset("walkup_M3")
    _check(checks, "matches_construction", M == ref, f"f = {M.f_vector()}")
    _check(checks, "two_neighborly", M.is_k_neighborly(2))
    betti = homology.betti_numbers(M).betti
    _check(checks, "betti_gf2", betti == (1, 1, 1, 1), str(betti))
    rep = morse.tightness_verify(M, AmbientPolytope.simplex(len(M.vertices)))
    detail = f"{rep.subsets_checked} subsets"
    if not rep.tight:
        w, i, kd = rep.witness
        detail = f"witness W={list(w)} i={i} kernel_dim={kd}"
    _check(checks, "tightness_exhaustive", rep.tight, detail)
    return checks, False


def _suite_lemma34(M: SimplicialComplex, args) -> tuple[list[dict], bool]:
    checks: list[dict] = []
    if args.seed is None:
        print("error: --seed is required for the lemma34 suite", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    d = M.dim
    cert = stackedness_certificate(M, 1, budget=args.budget, seed=args.seed)
    if cert is None:
        _check(checks, "stacked_certificate", False, "unknown within budget")
        return checks, True
    _check(checks, "stacked_certificate", True, f"{len(cert.moves)} moves")
    rng = random.Random(args.seed)
    verts = M.vertices
    eng = homology.engine(M)
    violations = []
    for _ in range(args.samples):
        w = tuple(v for v in verts if rng.random() < 0.5)
        if not w:
            continue
        bet = eng.span_betti(eng.span_selection(eng.word_of(w)))
        for j in range(2, d):
            i = d - j
            if i < len(bet) and i >= 1 and bet[i] != 0:
                violations.append({"W": list(w), "degree": i, "betti": bet[i]})
    _check(checks, "span_homology_vanishing", not violations, f"{args.samples} samples, {len(violations)} violations")
    return checks, False


_SUITES = {"m6_16": _suite_m6_16, "walkup_m3": _suite_walkup_m3, "lemma34": _suite_lemma34}


def cmd_verify(args) -> int:
    if args.suite not in _SUITES:
        print(f"error: unknown suite {args.suite!r}; available: {', '.join(sorted(_SUITES))}", file=sys.stderr)
        return EXIT_USAGE
    M = _load(args.file)
    checks, unknown = _SUITES[args.suite](M, args)
    ok = all(c["ok"] for c in checks)
    lines = [f"[{'PASS' if c['ok'] else 'FAIL'}] {c['check']}" + (f": {c['detail']}" if c["detail"] else "") for c in checks]
    lines.append(f"suite {args.suite}: {'pass' if ok else 'FAIL'}")
    _emit(args, {"suite": args.suite, "checks": checks, "pass": ok}, lines, M)
    if not ok:
        return EXIT_UNKNOWN if unknown else EXIT_FAIL
    return EXIT_PASS


# -- construct ----------------------------------------------------------------


def cmd_construct(args) -> int:
    kind = args.kind
    try:
        if kind == "boundary-simplex":
            M = boundary_simplex(args.d)
        elif kind == "cross-polytope":
            M = cross_polytope_boundary(args.d)
        elif kind == "cyclic":
            if args.n is None:
                raise ValueError("cyclic needs --n")
            M = cyclic_polytope_boundary(args.d, args.n)
        elif kind == "stacked-sphere":
            if args.n is None:
                raise ValueError("stacked-sphere needs --n")
            if args.seed is None:
                raise ValueError("stacked-sphere needs --seed")
            M = stacked_sphere(args.d, args.n, seed=args.seed)
        elif kind == "kuehnel":
            M = kuehnel_series(args.d)
        elif kind == "dataset":
            if not args.name:
                raise ValueError(f"dataset needs --name (one of {', '.join(dataset_names())})")
            M = dataset(args.name)
        elif kind == "product":
            if not args.factors or len(args.factors) != 2:
                raise ValueError("product needs two --factors files")
            M = simplicial_product(_load(args.factors[0]), _load(args.factors[1]))
        else:
            raise ValueError(f"unknown construction {kind!r}")
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        save_complex(M, args.out)
        print(f"wrote {len(M.facets)} facets to {args.out}")
    else:
        sys.stdout.write(to_text(M))
    return EXIT_PASS


# -- reduce -------------------------------------------------------------------


def cmd_reduce(args) -> int:
    M = _load(args.file)
    if args.seed is None:
        print("error: --seed is required for reduce", file=sys.stderr)
        return EXIT_USAGE
    try:
        schedule = AnnealSchedule(steps=args.steps)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    best, cert = vertex_reduce(M, target_f0=args.target_f0, schedule=schedule, seed=args.seed)
    if args.out:
        save_complex(best, args.out)
    if args.cert:
        with open(args.cert, "w", encoding="utf-8") as fh:
            fh.write(cert.dumps() + "\n")
    reached = args.target_f0 is None or best.f_vector()[0] <= args.target_f0
    payload = {
        "start_f": list(M.f_vector()),
        "best_f": list(best.f_vector()),
        "moves": len(cert.moves),
        "target_f0": args.target_f0,
        "reached": reached,
        "result_hash": best.canonical_hash(),
    }
    lines = [
        f"f0 {M.f_vector()[0]} -> {best.f_vector()[0]} in {len(cert.moves)} moves",
        f"best f = {best.f_vector()}",
    ]
    _emit(args, payload, lines, M)
    return EXIT_PASS if reached else EXIT_UNKNOWN


# -- tight --------------------------------------------------------------------


def _ambient_from_args(M: SimplicialComplex, args) -> AmbientPolytope:
    if args.ambient == "simplex":
        return AmbientPolytope.simplex(len(M.vertices))
    if args.diagonals:
        pairs = []
        for part in args.diagonals.split(";"):
            try:
                a, b = map(int, part.split(","))
            except ValueError:
                raise ValueError(f"--diagonals part {part!r} is not of the form a,b") from None
            pairs.append((a, b))
        return AmbientPolytope.cross(pairs)
    # derive diagonals from the missing edges when they form a perfect matching
    missing = M.missing_faces(1)
    seen: dict[int, int] = {}
    for a, b in missing:
        if a in seen or b in seen:
            raise ValueError("missing edges do not form a perfect matching; pass --diagonals")
        seen[a] = b
        seen[b] = a
    if len(seen) != len(M.vertices):
        raise ValueError("missing edges do not cover every vertex; pass --diagonals")
    return AmbientPolytope.cross(missing)


def cmd_tight(args) -> int:
    M = _load(args.file)
    try:
        ambient = _ambient_from_args(M, args)
        rep = morse.tightness_verify(
            M, ambient, i_max=args.imax, ceiling=args.ceiling, sample=args.samples, seed=args.seed
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if rep.tight:
        scope = "exhaustive" if rep.exhaustive else "sampled"
        lines = [f"tight ({scope}: {rep.subsets_checked} subsets, i_max {rep.i_max})"]
    else:
        w, i, kd = rep.witness
        lines = [f"NOT tight: witness W={list(w)} at i={i}, kernel dim {kd}"]
    _emit(args, rep.to_json(), lines, M)
    return EXIT_PASS if rep.tight else EXIT_FAIL


# -- morse --------------------------------------------------------------------


def cmd_morse(args) -> int:
    M = _load(args.file)
    if args.seed is None:
        print("error: --seed is required for morse", file=sys.stderr)
        return EXIT_USAGE
    rng = random.Random(args.seed)
    chi = M.euler_characteristic()
    betti = homology.betti_numbers(M).betti
    hist: dict[tuple[int, ...], int] = {}
    violations = []
    verts = list(M.vertices)
    for _ in range(args.orderings):
        order = verts[:]
        rng.shuffle(order)
        mu = morse.mu_vector(M, order).mu
        hist[mu] = hist.get(mu, 0) + 1
        alt = sum((-1) ** i * m for i, m in enumerate(mu))
        if alt != chi or any(m < b for m, b in zip(mu, betti)):
            violations.append({"ordering": order, "mu": list(mu)})
    payload = {
        "orderings": args.orderings,
        "histogram": {" ".join(map(str, k)): v for k, v in sorted(hist.items())},
        "betti": list(betti),
        "chi": chi,
        "morse_relation_violations": violations,
    }
    lines = [f"mu histogram over {args.orderings} orderings:"]
    for k, v in sorted(hist.items()):
        lines.append(f"  {k}: {v}")
    lines.append(f"violations: {len(violations)}")
    _emit(args, payload, lines, M)
    return EXIT_PASS if not violations else EXIT_FAIL


# -- stacked ------------------------------------------------------------------


def cmd_stacked(args) -> int:
    M = _load(args.file)
    if args.seed is None:
        print("error: --seed is required for stacked", file=sys.stderr)
        return EXIT_USAGE
    try:
        cert = stackedness_certificate(M, args.k, budget=args.budget, seed=args.seed)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if cert is None:
        payload = {"k": args.k, "status": "unknown", "budget": args.budget}
        _emit(args, payload, [f"unknown: no certificate within {args.budget} move attempts"], M)
        return EXIT_UNKNOWN
    if args.cert:
        with open(args.cert, "w", encoding="utf-8") as fh:
            fh.write(cert.dumps() + "\n")
    payload = {"k": args.k, "status": "certified", "moves": len(cert.moves), "max_index_used": cert.max_index_used}
    _emit(args, payload, [f"certified {args.k}-stacked: {len(cert.moves)} moves"], M)
    return EXIT_PASS


# -- bounds -------------------------------------------------------------------


def cmd_bounds(args) -> int:
    try:
        fv = None
        if args.bound in ("glbc", "ds6"):
            if args.f is None:
                raise ValueError(f"bounds {args.bound} needs --f")
            fv = [int(x) for x in args.f.split(",")]
        rep = None
        if args.bound == "tight-neighborly":
            val = bounds.tight_neighborly_bound(args.dim, args.beta1)
            rep = bounds.BoundsReport("tight_neighborly", {"d": args.dim, "beta1": args.beta1}, val, args.f0)
        elif args.bound == "heawood":
            rep = bounds.BoundsReport("heawood", {"chi": args.chi}, bounds.heawood_bound(args.chi), args.f0)
        elif args.bound == "glbc":
            val = bounds.glbc_bound(args.dim, args.k, args.j, fv)
            rep = bounds.BoundsReport(
                "glbc",
                {"d": args.dim, "k": args.k, "j": args.j, "partial_f": fv},
                val,
                args.actual,
                note="equality iff k-stacked, conditional on the generalized lower bound conjecture",
            )
        elif args.bound == "six":
            val = bounds.six_manifold_bound(args.chi, args.f0, args.f1, args.two_neighborly)
            inputs = {"chi": args.chi, "f0": args.f0, "f1": args.f1, "two_neighborly": args.two_neighborly}
            rep = bounds.BoundsReport("six_manifold", inputs, val, args.actual)
        elif args.bound == "binomial":
            chk = bounds.binomial_form_check(args.f0, args.dim, args.beta1)
            payload = {
                "name": "binomial_form",
                "inputs": {"f0": args.f0, "d": args.dim, "beta1": args.beta1},
                "satisfied": chk.satisfied,
                "equality": chk.equality,
                "lhs": chk.lhs,
                "rhs": chk.rhs,
            }
            line = f"{chk.lhs} >= {chk.rhs}: {chk.satisfied} (equality: {chk.equality})"
        else:  # ds6
            val = bounds.dehn_sommerville6_residual(fv, args.chi)
            payload = {"name": "dehn_sommerville6_residual", "inputs": {"f": fv, "chi": args.chi}, "residual": val}
            line = f"residual: {val}"
    except (ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    if rep is not None:
        payload = rep.to_json()
        line = f"{rep.name}: bound {rep.bound}"
        if rep.actual is not None:
            line += f", actual {rep.actual}, slack {rep.slack}" + (" (equality)" if rep.equality else "")
    _emit(args, payload, [line])
    return EXIT_PASS


# -- parser -------------------------------------------------------------------


def _count(text: str) -> int:
    """An argparse type for counts: a non-negative int."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tnt",
        description="Combinatorial manifold toolkit: homology, bistellar moves, tightness, bounds.",
    )
    p.add_argument("--version", action="version", version=f"tnt {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=False):
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        if seed:
            sp.add_argument("--seed", type=int, default=None, help="seed for randomized search")

    sp = sub.add_parser("info", help="f-vector, Euler characteristic, structural flags")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("verify", help="named verification pipelines")
    sp.add_argument("file")
    sp.add_argument("--suite", required=True, choices=sorted(_SUITES))
    sp.add_argument("--budget", type=_count, default=100_000)
    sp.add_argument("--samples", type=_count, default=50, help="random spans for the lemma34 suite")
    common(sp, seed=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("construct", help="generate a standard complex")
    sp.add_argument("kind", choices=[
        "boundary-simplex", "cross-polytope", "cyclic", "stacked-sphere", "kuehnel", "dataset", "product",
    ])
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--name", default=None, help="dataset name")
    sp.add_argument("--factors", nargs=2, default=None, help="two facet files for product")
    sp.add_argument("-o", "--out", default=None)
    common(sp, seed=True)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("reduce", help="anneal toward fewer vertices")
    sp.add_argument("file")
    sp.add_argument("--target-f0", type=int, default=None, dest="target_f0")
    sp.add_argument("--steps", type=int, default=20000)
    sp.add_argument("-o", "--out", default=None)
    sp.add_argument("--cert", default=None, help="write the move certificate here")
    common(sp, seed=True)
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("tight", help="exact tightness verification")
    sp.add_argument("file")
    sp.add_argument("--ambient", choices=["simplex", "cross"], default="simplex")
    sp.add_argument("--imax", type=int, default=None)
    sp.add_argument("--diagonals", default=None, help='cross diagonals as "a,b;c,d;..."')
    sp.add_argument("--ceiling", type=int, default=20)
    sp.add_argument("--samples", type=_count, default=None, help="sampled subsets when above the ceiling")
    common(sp, seed=True)
    sp.set_defaults(func=cmd_tight)

    sp = sub.add_parser("morse", help="mu-vector statistics over random orderings")
    sp.add_argument("file")
    sp.add_argument("--orderings", type=_count, default=100)
    common(sp, seed=True)
    sp.set_defaults(func=cmd_morse)

    sp = sub.add_parser("stacked", help="stackedness certificate search")
    sp.add_argument("file")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--budget", type=_count, default=100_000)
    sp.add_argument("--cert", default=None, help="write the certificate here")
    common(sp, seed=True)
    sp.set_defaults(func=cmd_stacked)

    sp = sub.add_parser("bounds", help="closed-form f-vector bounds")
    sp.add_argument("bound", choices=["tight-neighborly", "heawood", "glbc", "six", "binomial", "ds6"])
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--beta1", type=int, default=None)
    sp.add_argument("--chi", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--f", default=None, help="comma-separated f-vector entries")
    sp.add_argument("--f0", type=int, default=None)
    sp.add_argument("--f1", type=int, default=None)
    sp.add_argument("--two-neighborly", action="store_true", dest="two_neighborly")
    sp.add_argument("--actual", type=int, default=None, help="attained value for slack reporting")
    common(sp)
    sp.set_defaults(func=cmd_bounds)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
