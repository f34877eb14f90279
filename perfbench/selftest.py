#!/usr/bin/env python3
"""Self-test of the benchmark's own checks; exits non-zero on a problem.

    python3 perfbench/selftest.py

* A planted wrong output (one coefficient off by one) on every backend, in
  the in-process workloads and in a CLI op, must raise ``fail_frac`` and
  clear ``correct``; the untouched ops must pass.
* An op that raises counts as failed without clearing ``correct``.
* The metric names and units the runner emits match BENCHMARK.json.
"""

from __future__ import annotations

import json
import random
import re
import sys
import shutil
from dataclasses import replace

import run

sys.path[:0] = [str(run.SRC), str(run.HERE)]

import cli_workload  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from kronlab.tensor import Tensor  # noqa: E402


def off_by_one(out):
    if isinstance(out, Tensor):
        return Tensor(out.model, (out.coeffs[0] + 1,) + out.coeffs[1:])
    if isinstance(out, tuple) and len(out) == 3:  # (exit code, stdout, stderr): bump a digit
        return (out[0], re.sub(r"\d", lambda m: str((int(m.group()) + 1) % 10), out[1], count=1),
                out[2])
    return [off_by_one(out[0]) if isinstance(out[0], Tensor) else out[0] + 1] + list(out[1:])


def planted(ops):
    return [replace(op, run=lambda op=op: off_by_one(op.run())) for op in ops]


def expect(cond, what, problems):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        problems.append(what)


def main() -> int:
    problems = []
    rng = random.Random("selftest")
    ops = workloads.contract_round(rng) + workloads.structured_round(rng)
    picks = {}
    for op in ops:
        if op.name in ("matvec.fresh", "pure", "embed"):
            picks.setdefault((op.name, op.backend), op)
    chosen = list(picks.values())
    scratch = run.OUT / "selftest"
    try:
        ops = cli_workload.cli_round(rng, scratch, cli_workload.inprocess_invoker())
        chosen += [op for op in ops if op.name in ("counts", "matvec")]

        clean = run.Run()
        for op in chosen:
            clean.execute(op, timed=False)
        expect(clean.wrong == 0 and not clean.failures,
               f"{len(chosen)} untouched ops pass their checks", problems)

        bad = run.Run()
        for op in planted(chosen):
            bad.execute(op, timed=False)
        expect(bad.wrong == len(chosen) and len(bad.failures) == len(chosen),
               f"every one of {len(chosen)} planted wrong outputs is caught "
               f"(fail_frac {len(bad.failures) / bad.attempted:.2f}, correct {bad.wrong == 0})",
               problems)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    def boom():
        raise RuntimeError("planted")
    raised = run.Run()
    raised.execute(replace(chosen[0], run=boom), timed=False)
    expect(raised.wrong == 0 and len(raised.failures) == 1,
           "a raising op is a failure, not a wrong output", problems)

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    fake = run.Run()
    fake.durations = [(0.001 * (i + 1), b) for i in range(30) for b in run.BACKENDS]
    e2e, _ = run.end_to_end(fake, 30, 1.0, 1.0)
    want = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    expect({k: u for k, (_, u) in e2e.items()} == want,
           "end-to-end names and units match BENCHMARK.json", problems)
    run.OUT.mkdir(parents=True, exist_ok=True)
    path = run.OUT / "selftest-spans.tsv"
    spans.Tracer().write(path, "none")
    layer = spans.layer_metrics(path, spans.Tracer().counts,
                                {"trace.overhead_frac": (0.0, "frac"),
                                 "cli.interpreter_s": (0.0, "s"), "cli.import_s": (0.0, "s")})
    path.unlink()
    want = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect({k: u for k, (_, u) in layer.items()} == want,
           "per-layer names and units match BENCHMARK.json", problems)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
