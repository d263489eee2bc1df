"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at the tiny size, with
the same seed, and checks that

- the last line of each run has exactly the keys correct, attempted,
  failed and metrics, the run is correct, and its metrics are exactly the
  end-to-end (untraced) or per-layer (traced) metrics BENCHMARK.json
  names, each with its unit;
- both runs of a workload produce the same output digest;
- the traced run's self-time shares add up to 1 + trace.overhead_frac;
- in a directory holding only BENCHMARK.json and the benchmark, the runner
  exits non-zero without printing a result.

Exits 0 when every check holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7


def run(root: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace in (0, 1):
            p = run(ROOT, workload, trace)
            lines = p.stdout.strip().splitlines()
            where = f"{workload} trace {trace}"
            if p.returncode != 0 or not lines:
                problems.append(f"{where}: exit {p.returncode}\n{p.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: not correct: {p.stdout[-2000:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected[trace]))}")
            digests[trace] = next((ln.split()[1] for ln in lines if ln.startswith("digest ")), None)
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                total = sum(v for k, v in m.items() if k.startswith("share."))
                # Argument formatting and output capture around the CLI calls
                # are in the op wall but in no span: ~1% of a tiny-size op.
                if abs(total - 1.0 - m["trace.overhead_frac"]) > 0.05:
                    problems.append(f"{where}: shares add to {total:.4f}, 1 + overhead is {1 + m['trace.overhead_frac']:.4f}")
        if len(set(digests.values())) != 1 or None in digests.values():
            problems.append(f"{workload}: digests differ between runs with one seed: {digests}")
        print(f"{workload}: digests {digests}")

    bare = BENCH / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    p = run(bare, "score", 0)
    if p.returncode == 0 or p.stdout.strip():
        problems.append(f"bare directory: exit {p.returncode}, stdout {p.stdout[-500:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
