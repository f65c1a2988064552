"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

Runs every workload once with ``--size small``, untraced and traced, each
in its own process, and checks that:

- the last stdout line is the result object, with no failed repetition;
- it names every metric of ``BENCHMARK.json`` (end-to-end untraced,
  per-layer traced) with the unit given there;
- the run record has ``failed_ratio == 0``, and the traced and untraced
  runs of one seed have the same result fingerprint;
- the traced anneal makes no GF(2) calls;
- without the program's sources the benchmark exits non-zero and prints
  no result.

Exits 1 and names every problem when a check fails.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if expected[0] != {n: u for n, u, _, _ in run.END_TO_END}:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if expected[1] != {n: u for n, u, _ in run.per_layer_metrics()}:
        problems.append("BENCHMARK.json per_layer differs from run.per_layer_metrics()")

    for workload in (w["name"] for w in spec["workloads"]):
        fingerprints = set()
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            before = len(problems)
            proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--size", "small")
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metric names or units differ from BENCHMARK.json")
            record = json.loads((run.OUT / f"{workload}-trace{trace}.json").read_text())
            if record["failed_ratio"] != 0:
                problems.append(f"{tag}: failed_ratio {record['failed_ratio']}")
            fingerprints.add(record["fingerprint"])
            if len(fingerprints) > 1:
                problems.append(f"{tag}: fingerprint differs from the untraced run")
            if trace and workload == "anneal_product":
                gf2_calls = sum(v["value"] for k, v in result["metrics"].items()
                                if k.startswith("gf2.") and k.endswith(".calls"))
                if gf2_calls:
                    problems.append(f"{tag}: {gf2_calls:g} GF(2) calls")
            print(f"{'ok' if len(problems) == before else 'FAIL'}  {tag}")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = _run(bare, "--workload", "tight_sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "pass")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
