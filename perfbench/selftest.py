"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--workload castle ...]

For each workload:
1. two traced runs with the same seed give identical per-layer counts
   (counts are the noise-free evidence on a noisy host);
2. a second seed changes the inputs (their digest) and still gives no
   failed operation.
Exits 1 on the first violation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, WORKLOADS

COUNT_UNITS = ("count", "ratio")
TIMING_RATIOS = ("trace.overhead",)


def bench(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, check=True,
    ).stdout.splitlines()
    digest = next(line.split()[-1] for line in out if line.startswith("# inputs sha256"))
    return digest, json.loads(out[-1])


def counts(result):
    return {
        k: m["value"] for k, m in result["metrics"].items()
        if m["unit"] in COUNT_UNITS and k not in TIMING_RATIOS
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    ok = True
    for w in args.workload or WORKLOADS:
        _, a = bench(w, 0, trace=1)
        _, b = bench(w, 0, trace=1)
        same = counts(a) == counts(b)
        print(f"{w}: traced counts repeat: {same} {counts(a)}")
        d0, r0 = bench(w, 0, trace=0)
        d1, r1 = bench(w, 1, trace=0)
        fresh = d0 != d1 and r0["failed"] == r1["failed"] == 0
        print(f"{w}: seed 1 changes inputs ({d0} -> {d1}) with no failures: {fresh}")
        ok = ok and same and fresh and a["failed"] == b["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
