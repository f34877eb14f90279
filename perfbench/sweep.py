#!/usr/bin/env python3
"""Run workloads over several seeds, one fresh process per run, and collect
every run record in one results file.

    python3 perfbench/sweep.py --out .perfbench_out/base.jsonl --seeds 1-10
    python3 perfbench/sweep.py --out t.jsonl --workloads cli --seeds 3,5 --trace 1

Runs are sequential so that no two compete for the cores.  ``--seconds``
defaults to ``run_seconds`` from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--results", str(args.out)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[0][:120]}", flush=True)
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                return proc.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
