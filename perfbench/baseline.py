"""Regenerate a baseline file from the benchmark in one command.

    python3 perfbench/baseline.py --out BENCH_name.json

Runs ``run.py`` for the ``run_seconds`` of ``BENCHMARK.json`` once per
workload, seed and trace setting, each in a fresh process.  The seeds are
fixed: ten, the number of runs a comparison of medians and quartiles needs.
Writes one JSON document: the run context (machine, versions,
layer-to-metric table), and per workload the median and quartiles of every
metric with each run's repetitions, failures and result fingerprint.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SEEDS = list(range(1, 11))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="file to write, e.g. BENCH_baseline.json")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    doc: dict = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        entry: dict = {"why": w["why"], "runs": [], "metrics": {}}
        values: dict[str, list[float]] = {}
        for trace in (0, 1):
            for seed in doc["seeds"]:
                cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                         "--seconds", str(seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
                result = json.loads(proc.stdout.splitlines()[-1])
                record = json.loads((OUT / f"{name}-trace{trace}.json").read_text())
                doc.setdefault("context", record["context"])
                entry["runs"].append({
                    "seed": seed, "trace": trace, "correct": result["correct"],
                    "attempted": result["attempted"], "failed": result["failed"],
                    "fingerprint": record["fingerprint"],
                })
                for metric, m in result["metrics"].items():
                    values.setdefault(metric, []).append(m["value"])
                    entry["metrics"].setdefault(metric, {"unit": m["unit"]})
                print(f"{name} seed {seed} trace {trace}: correct={result['correct']}", file=sys.stderr)
        for metric, vals in values.items():
            q = statistics.quantiles(vals, n=4)
            entry["metrics"][metric].update(median=statistics.median(vals), q1=q[0], q3=q[2], n=len(vals))
        doc["workloads"][name] = entry
    for key in ("workload", "seed", "trace", "repetitions", "item_unit"):
        doc["context"].pop(key, None)
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
