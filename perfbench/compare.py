#!/usr/bin/env python3
"""Summarise one results file, or compare two.

    python3 perfbench/compare.py .perfbench_out/base.jsonl
    python3 perfbench/compare.py .perfbench_out/base.jsonl .perfbench_out/new.jsonl

For each workload and end-to-end metric of BENCHMARK.json this prints the
median and quartiles over the untraced runs in each file.  With one file it
gives the spread (quartile distance over median) beside the metric's bound.
With two it adds the ratio new/base and a verdict:

* ``unresolved``: a side's spread exceeds the bound, and the runs overlap;
* ``worse``: the new median is worse than the base by more than the bound;
* ``better``: the new median is better by more than the base's own spread;
* ``same``: neither.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    """Untraced run records grouped by workload."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if not rec["trace"]:
                runs[rec["workload"]].append(rec)
    return runs


def stats(values: list) -> tuple:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def values(recs, metric):
    return [r["metrics"][metric]["value"] for r in recs if metric in r["metrics"]]


def verdict(base, new, bound, lower_is_better):
    bmed, _, _, bspread = stats(base)
    nmed, _, _, nspread = stats(new)
    worse = (nmed - bmed) / bmed if lower_is_better else (bmed - nmed) / bmed
    all_better = (max(new) < min(base)) if lower_is_better else (min(new) > max(base))
    all_worse = (min(new) > max(base)) if lower_is_better else (max(new) < min(base))
    if max(bspread, nspread) > bound and not (all_better or all_worse):
        return "unresolved"
    if worse > bound:
        return "worse"
    if -worse > max(bspread, 0.0) or all_better:
        return "better"
    return "same"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path, nargs="?")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = load(args.base)
    new = load(args.new) if args.new else None
    for wl in [w["name"] for w in bench["workloads"]]:
        if wl not in base or (new is not None and wl not in new):
            print(f"\n{wl}: no untraced runs in {'both files' if new is not None else 'the file'}")
            continue
        for side, recs in (("base", base[wl]), ("new", new[wl] if new else None)):
            if recs is None:
                continue
            fails = statistics.median(r["fail_frac"] for r in recs)
            names = sorted({k for r in recs for k in r["failures"]})
            print(f"\n{wl} [{side}]: {len(recs)} runs, seeds "
                  f"{sorted(r['machine']['seed'] for r in recs)}, median fail_frac {fails:.4f}, "
                  f"correct in {sum(r['correct'] for r in recs)}/{len(recs)}")
            for n in names:
                print(f"    failure: {n}")
        print(f"  {'metric':22} {'base median [q1, q3]':>34} "
              + (f"{'new median [q1, q3]':>34} {'new/base':>9}  verdict" if new else
                 f"{'spread':>8} {'bound':>6}"))
        for m in bench["end_to_end"]:
            b = values(base[wl], m["name"])
            bmed, bq1, bq3, bspread = stats(b)
            row = f"  {m['name']:22} {bmed:14.4f} [{bq1:.4f}, {bq3:.4f}]".ljust(59)
            if new:
                n = values(new[wl], m["name"])
                nmed, nq1, nq3, _ = stats(n)
                row += (f" {nmed:14.4f} [{nq1:.4f}, {nq3:.4f}]".ljust(35)
                        + f" {nmed / bmed:9.4f}  "
                        + verdict(b, n, m["bound"], m["better"] == "lower"))
            else:
                flag = "  over bound" if bspread > m["bound"] else (
                    "  over bound/3" if bspread > m["bound"] / 3 else "")
                row += f" {bspread:8.4f} {m['bound']:6.2f}{flag}"
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
