"""Benchmark of the tnt pipelines: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.

``--trace 0`` times repetitions of the workload for about S seconds and
prints the end-to-end metrics.  Their times are normalised to the host's
speed, sampled by a fixed probe during every timed region (``hostspeed.py``);
raw times go to the run record.  ``--trace 1`` wraps the public functions of
every layer (see ``spans.py``), runs each repetition twice, traced and
untraced, and prints the per-layer metrics in raw seconds: calls, self and
total time per function, derived ratios, and the tracing overhead.  Every
repetition's output is checked outside the timed region.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a longer record with the run context and result
fingerprints goes to ``perfbench/out/``.

Workloads (single process, single thread):

  tight_sweep      tightness_verify over all 8192 subsets of a seeded
                   relabelling of kuehnel_series(5)
  morse_orderings  mu_vector of M6_16 for seeded random orderings
  anneal_product   vertex_reduce of the 24-vertex product of the boundaries
                   of the 3- and 5-simplex, seeded anneal
  verify_m6_16     tnt.cli.main(["verify", M6_16, "--suite", "m6_16", ...])

``--size small`` runs reduced inputs for the self-test (``selftest.py``).
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import hostspeed
from spans import TARGETS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5

# name, unit, better, bound (share of the parent's median it may worsen by).
# call_p95_ms is printed and recorded but not gated: only morse_orderings
# makes enough calls in a run for ten samples to lie beyond it.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("call_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# Which layer metric should move which end-to-end metric, on which workload.
LAYER_EFFECTS = [
    ("gf2.rank_of_words.{calls,self_s,bits}, gf2.rref_of_words.self_s",
     "items_per_s on tight_sweep and morse_orderings; no change on anneal_product"),
    ("homology.ChainEngine.{boundary_rows,span_selection,span_rank,span_kernel_dim}.self_s",
     "items_per_s on tight_sweep"),
    ("homology.betti_numbers.self_s", "wall_s on verify_m6_16"),
    ("homology.relative_mu_contribution.{calls,self_s}, homology.mu_miss_ratio, complexes.link.{calls,self_s,new_ratio}",
     "items_per_s and peak_rss_mb on morse_orderings"),
    ("complexes.{has_face,faces}.{calls,self_s}", "anneal_product mainly; also verify_m6_16"),
    ("bistellar.valid_moves.{calls,self_s,moves_per_call}, bistellar.apply_move.{calls,self_s}, bistellar.accept_ratio",
     "anneal_product and verify_m6_16; no change on tight_sweep"),
    ("complexes.canonical_hash.{calls,self_s}, bistellar.MoveCertificate.replay.self_s, "
     "bistellar.stackedness_certificate.self_s", "wall_s on verify_m6_16"),
    ("symmetry.{automorphisms,find_central_involution}.self_s, cli.main.self_s", "wall_s on verify_m6_16"),
    ("morse.{tightness_verify,mu_vector}.self_s", "loop overhead on tight_sweep and morse_orderings"),
    ("constructors.*.self_s (set-up phase)", "setup_s"),
]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for _, _, name, _ in TARGETS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        out.append((f"{name}.total_s", "s", "lower"))
    out += [
        ("gf2.rank_of_words.bits", "bits", "lower"),
        ("homology.mu_miss_ratio", "ratio", "lower"),
        ("complexes.link.new_ratio", "ratio", "lower"),
        ("bistellar.valid_moves.moves_per_call", "moves", "higher"),
        ("bistellar.accept_ratio", "ratio", "higher"),
        ("bench.rep.self_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


def import_program():
    """Import tnt from this checkout's ``src``; exit 2 when it is not there."""
    if not (SRC / "tnt" / "__init__.py").is_file():
        print(f"error: no tnt sources under {SRC}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import workloads

    if not Path(workloads.tnt.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported tnt from {workloads.tnt.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return workloads


def setup_once(size: str) -> float:
    """Cold set-up in this process, import plus building every input, in
    host-speed-normalised seconds."""
    with hostspeed.sampling() as speed:
        t0 = hostspeed.now()
        workloads = import_program()
        workloads.build_inputs(size, str(OUT / "m6_16.facets"))
        t1 = hostspeed.now()
    return (t1 - t0) * speed.factor


def setup_seconds(size: str) -> list[float]:
    """Cold set-up times, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only", "--size", size],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up child exited {proc.returncode}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


class Measurement:
    """Timed repetitions of one workload and the outcome of their checks."""

    def __init__(self):
        self.rep_s: list[float] = []
        self.call_s: list[float] = []
        self.raw_rep_s: list[float] = []
        self.probe_s: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0

    @property
    def wall_s(self) -> float:
        return statistics.median(self.rep_s) if self.rep_s else 0.0

    def repetition(self, work, k: int, tracer=None, normalise: bool = True) -> None:
        """Run, time and check repetition ``k``.

        A repetition that raises or fails its check counts as failed and
        its time is dropped.  With ``normalise`` its times are normalised to
        the host's speed (``hostspeed.py``); otherwise they are raw.  With
        a tracer, the repetition and its check sit under root spans
        ``bench.rep`` and ``bench.check``.
        """
        span = tracer.span if tracer is not None else (lambda name: nullcontext())
        timing = hostspeed.sampling() if normalise else span("bench.rep")
        self.attempted += 1
        try:
            prepared = work.prepare(k)
            gc.collect()
            with timing as speed:
                t0 = hostspeed.now()
                out = work.run(k, prepared)
                t1 = hostspeed.now()
            with span("bench.check"):
                work.check(k, prepared, out)
        except Exception:
            self.failed += 1
            traceback.print_exc()
        else:
            factor = speed.factor if normalise else 1.0
            self.raw_rep_s.append(t1 - t0)
            self.rep_s.append((t1 - t0) * factor)
            self.call_s.extend(c * factor for c in out.call_s)
            self.items += out.items
            if normalise:
                self.probe_s.extend(speed.samples)


def measure(work, budget_s: float, tracer=None) -> list[Measurement]:
    """Run repetitions for about ``budget_s`` seconds (at least one).

    A repetition starts only when a typical one still fits the budget, so
    the run ends close to it.  With a tracer, each repetition runs twice,
    traced and then untraced, both in raw time, and two measurements are
    returned.
    """
    modes = [tracer, None] if tracer is not None else [None]
    runs = [Measurement() for _ in modes]
    cycles: list[float] = []
    start = perf_counter()
    k = 0
    while not cycles or perf_counter() - start + statistics.median(cycles) <= budget_s:
        c0 = perf_counter()
        for mode, m in zip(modes, runs):
            if mode is not None:
                mode.install()
            try:
                m.repetition(work, k, mode, normalise=tracer is None)
            finally:
                if mode is not None:
                    mode.uninstall()
        cycles.append(perf_counter() - c0)
        k += 1
    return runs


def end_to_end(m: Measurement, setup: list[float]) -> dict[str, float]:
    calls_ms = sorted(x * 1000.0 for x in m.call_s) or [0.0]
    p95 = statistics.quantiles(calls_ms, n=20)[18] if len(calls_ms) > 1 else calls_ms[0]
    timed = sum(m.rep_s)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": m.wall_s,
        "items_per_s": m.items / timed if timed else 0.0,
        "call_p50_ms": statistics.median(calls_ms),
        "call_p95_ms": p95,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw_wall_s": statistics.median(m.raw_rep_s) if m.raw_rep_s else 0.0,
        "probe_p50_ms": statistics.median(m.probe_s) * 1000.0 if m.probe_s else 0.0,
    }


def layer_values(tracer, traced: Measurement, untraced: Measurement) -> dict[str, float]:
    summary = tracer.summary()

    def rec(name: str) -> dict:
        phase = "bench.setup" if name.startswith("constructors.") else "bench.rep"
        return summary.get((phase, name), {"calls": 0, "self_s": 0.0, "total_s": 0.0, "value": 0.0, "parents": {}})

    values: dict[str, float] = {}
    for name, _, _ in per_layer_metrics():
        base, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s", "total_s"):
            values[name] = float(rec(base)[stat])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    contrib = rec("homology.relative_mu_contribution")
    link = rec("complexes.link")
    moves = rec("bistellar.valid_moves")
    anneal = rec("bistellar.vertex_reduce")
    values["gf2.rank_of_words.bits"] = rec("gf2.rank_of_words")["value"]
    values["homology.mu_miss_ratio"] = ratio(
        rec("homology.ChainEngine.span_betti")["parents"].get("homology.relative_mu_contribution", 0),
        contrib["calls"],
    )
    values["complexes.link.new_ratio"] = ratio(
        tracer.count_with_child("bench.rep", "complexes.link", "complexes.SimplicialComplex"), link["calls"]
    )
    values["bistellar.valid_moves.moves_per_call"] = ratio(moves["value"], moves["calls"])
    values["bistellar.accept_ratio"] = ratio(
        rec("bistellar.apply_move")["parents"].get("bistellar.vertex_reduce", 0), anneal["value"]
    )
    values["bench.rep.self_s"] = summary.get(("bench.rep", "bench.rep"), {"self_s": 0.0})["self_s"]
    values["trace.spans"] = float(len(tracer.start))
    values["trace.traced_wall_s"] = traced.wall_s
    values["trace.untraced_wall_s"] = untraced.wall_s
    values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    return values


def run_context(args, work, reps: int, tnt_threads) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    import tnt

    return {
        "workload": args.workload,
        "item_unit": work.item_unit,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "repetitions": reps,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "tnt": tnt.__version__,
        "machine": platform.machine(),
        "TNT_THREADS_removed": tnt_threads,
        "probe_nominal_s": hostspeed.PROBE_NOMINAL_S,
        "probe_period_s": hostspeed.PERIOD_S,
        "layer_effects": [{"layer_metrics": a, "should_move": b} for a, b in LAYER_EFFECTS],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    # The CLI reads its thread count from here; the benchmark is single-threaded.
    tnt_threads = os.environ.pop("TNT_THREADS", None)

    if args.setup_only:
        print(json.dumps({"setup_s": setup_once(args.size)}))
        return 0

    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        setup = []
        with tracer.span("bench.setup"):
            inputs = workloads.build_inputs(args.size, str(OUT / "m6_16.facets"))
        tracer.uninstall()
    else:
        setup = setup_seconds(args.size)
        inputs = workloads.build_inputs(args.size, str(OUT / "m6_16.facets"))

    work = workloads.WORKLOADS[args.workload](inputs, args.seed, args.size)
    runs = measure(work, args.seconds, tracer)

    control_ok = True
    try:
        work.final_check()
    except Exception:
        control_ok = False
        traceback.print_exc()

    attempted = sum(m.attempted for m in runs)
    failed = sum(m.failed for m in runs)
    if tracer is not None:
        values = layer_values(tracer, *runs)
        specs = [(n, u) for n, u, _ in per_layer_metrics()]
        tracer.write(OUT / f"{args.workload}.spans.jsonl.gz")
    else:
        values = end_to_end(runs[0], setup)
        specs = [(n, u) for n, u, _, _ in END_TO_END]

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in specs}
    ungated = {name: v for name, v in values.items() if name not in metrics}
    record = {
        "context": run_context(args, work, attempted, tnt_threads),
        "fingerprint": work.fingerprint(),
        "failed_ratio": failed / attempted,
        "call_samples": sum(len(m.call_s) for m in runs),
        "setup_samples_s": setup,
        "rep_s": [m.rep_s for m in runs],
        "raw_rep_s": [m.raw_rep_s for m in runs],
        "absent_functions": tracer.absent if tracer is not None else [],
        "metrics": metrics,
        "ungated": ungated,
    }
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  repetitions {attempted}  "
          f"item unit: {work.item_unit}  call samples {record['call_samples']}")
    print(f"failed_ratio {record['failed_ratio']:.4g}  fingerprint {record['fingerprint']}")
    if tracer is not None and tracer.absent:
        print("absent functions: " + ", ".join(tracer.absent))
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    for name, value in ungated.items():
        print(f"  {name:48s} {value:14.6g} (not gated)")
    result = {"correct": failed == 0 and control_ok, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
