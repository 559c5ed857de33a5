"""Check that the benchmark's work counters depend on the seed alone.

    python3 perfbench/selfcheck.py [--workload W ...] [--seed N]

For each workload, runs ``run.py --trace 1`` three times: twice with seed N
and once with seed N + 1.  It passes when the two same-seed runs report
identical work counters (calls, characters emitted and scanned, DP cells),
the other seed changes at least one of them, every run is correct, and the
metric names of each run are exactly those listed in ``BENCHMARK.json``.
Exits 0 on success, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def bench_run(workload: str, seed: int, trace: int = 1) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for wl in args.workload:
        runs = [bench_run(wl, args.seed), bench_run(wl, args.seed), bench_run(wl, args.seed + 1)]
        a, b, c = (detail["selftest"]["work_counters"] for detail, _ in runs)
        changed = sorted(k for k in a.keys() | c.keys() if a.get(k) != c.get(k))
        names_ok = all(list(result["metrics"]) == want[1] for _, result in runs)
        _, untraced = bench_run(wl, args.seed, trace=0)
        names_ok = names_ok and list(untraced["metrics"]) == want[0]
        correct = all(result["correct"] for _, result in runs) and untraced["correct"]
        wl_ok = a == b and bool(changed) and names_ok and correct
        ok = ok and wl_ok
        print(f"{wl}: {'ok' if wl_ok else 'FAILED'}  same seed repeats: {a == b}  "
              f"metric names match BENCHMARK.json: {names_ok}  correct: {correct}")
        print(f"  counters changed by seed {args.seed + 1}: {', '.join(changed) or 'none'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
