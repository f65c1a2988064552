"""The benchmark's per-layer trace must still find every function it wraps."""
import importlib.util
from pathlib import Path

from tnt import dataset, save_complex
from tnt.cli import main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_trace_target_resolves():
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_verify_m6_16_calls_the_traced_symmetry_searches(tmp_path, capsys):
    path = tmp_path / "M6_16.facets"
    save_complex(dataset("M6_16"), str(path))
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        with tracer.span("bench.rep"):
            assert main(["verify", str(path), "--suite", "m6_16", "--json"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    summary = tracer.summary()
    for name in ("symmetry.automorphisms", "symmetry.find_central_involution"):
        assert summary.get(("bench.rep", name), {"calls": 0})["calls"] >= 1, name
