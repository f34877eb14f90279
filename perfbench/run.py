#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload contract --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
One process, one thread, a closed loop with a single caller: each op starts
after the previous one returned.  Inputs come from ``--seed`` one round at
a time; a run always finishes the round it is in, stopping once the timed
ops add up to ``--seconds`` and number at least ``MIN_OPS``.  Every output
is checked outside the timed region, and exact-backend outputs of a fixed
golden round are compared with digests frozen in ``digests.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays round 0
untraced for ``--seconds``, then once with spans recorded, writes the spans
file and prints the per-layer metrics.  The last line of standard output
is one JSON object; the full record is appended to ``--results``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One thread: numpy, the complex64 oracle, must not leave BLAS threads
# spinning on the other core after a check, where they slowed the next
# timed op by up to a quarter.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent
WORKLOADS = ("contract", "eliminate", "structured", "cli")
BACKENDS = ("rational", "gaussian", "complex64")
MIN_OPS = 100
SETUP_REPS = 5
GOLDEN_SEED = 0
PROBE_REPS = 5

# Calibration.  On shared machines, the baseline's among them, the same
# code ran up to twice as slow for stretches of seconds to minutes, in CPU
# time as much as in wall time.  So each timed op is
# bracketed by a fixed stdlib-only kernel, and its time is scaled by
# CAL_REF_S / (kernel time around it): the op's time at the machine's
# uncontended speed.  CAL_REF_S is the kernel's time, uncontended, on the
# 2-core "Intel(R) Xeon(R) Processor" the baseline in README.md was measured on.
# The kernel touches no library code and no Fraction, so neither a change
# to the library nor the traced run's wrappers move it; it tracked the
# exact-backend ops' slowdowns closer than a kernel of plain int arithmetic.
CAL_REF_S = 0.89e-3


class _Q:
    """A minimal Python-level rational, so that the kernel spends its time
    the way exact-backend code does: calls, allocation, gcd."""

    __slots__ = ("n", "d")

    def __init__(self, n, d):
        g = math.gcd(n, d)
        self.n, self.d = n // g, d // g

    def __add__(self, o):
        return _Q(self.n * o.d + o.n * self.d, self.d * o.d)

    def __mul__(self, o):
        return _Q(self.n * o.n, self.d * o.d)


_CAL_QS = [_Q(i % 9 - 4 or 1, i % 7 + 1) for i in range(40)]
_CAL_CX = [complex(i, -i) / 48 for i in range(48)]


def calibration_s() -> float:
    t0 = time.perf_counter()
    for _ in range(24):
        s = _Q(0, 1)
        for a, b in zip(_CAL_QS, reversed(_CAL_QS)):
            s = s + a * b
        [v * 2 for v in range(200)]
        z = 0j
        for a, b in zip(_CAL_CX, _CAL_CX[1:]):
            z = z + a * b
    return time.perf_counter() - t0


# A ``cli`` op is a child process.  Under contention its start-up (exec,
# page faults, reading modules) slowed less than the kernel: its time
# tracked speed ** 0.85 rather than speed, so cli ops are scaled by that power.
CLI_CAL_EXPONENT = 0.85


def scaled(seconds, cal_before, cal_after, exponent=1.0) -> float:
    return seconds * (2 * CAL_REF_S / (cal_before + cal_after)) ** exponent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", type=Path, default=OUT / "results.jsonl",
                   help="JSON-lines file the full run record is appended to")
    return p.parse_args(argv)


class Run:
    """Op outcomes of one run: durations, failures and wrong outputs."""

    def __init__(self, exponent=1.0):
        self.exponent = exponent  # of the calibration factor, see CLI_CAL_EXPONENT
        self.durations = []  # (scaled seconds, backend) of each timed op
        self.raw = []  # the same ops' wall-clock seconds
        self.attempted = 0
        self.failures = []  # (op name, backend, reason)
        self.wrong = 0

    def execute(self, op, timed=True, tracer=None):
        """Run one op, time it between two calibrations, then check its
        output untimed."""
        from common import Broken
        self.attempted += 1
        cal = calibration_s() if timed else 0.0
        collecting = gc.isenabled()
        gc.disable()  # as timeit does; collected between rounds instead
        t0 = time.perf_counter()
        try:
            out, exc = (tracer.run_op(op) if tracer else op.run()), None
        except Exception as e:  # the op raised: a failure, not a wrong output
            out, exc = None, e
        dt = time.perf_counter() - t0
        if collecting:
            gc.enable()
        if timed:
            self.raw.append(dt)
            self.durations.append((scaled(dt, cal, calibration_s(), self.exponent), op.backend))
            if tracer:
                tracer.scale[-1] = self.durations[-1][0] / dt if dt else 1.0
        if exc is not None:
            self.failures.append((op.name, op.backend, f"raised {type(exc).__name__}: {exc}"[:200]))
            return None
        try:
            op.check(out)
        except Broken as exc:
            self.failures.append((op.name, op.backend, str(exc)))
        except Exception as exc:
            self.wrong += 1
            self.failures.append((op.name, op.backend, f"wrong output: {exc}"[:200]))
        return out


def build_round(workload, seed, index, invoke=None):
    """The ops of round ``index``; inputs depend on (workload, seed, index) only."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "cli":
        import cli_workload
        return cli_workload.cli_round(rng, OUT / "files" / f"seed{seed}", invoke)
    import workloads
    return workloads.ROUNDS[workload](rng)


def warmup_ops(workload, ops):
    """Cheap first calls: one subprocess for ``cli``, else the first
    complex64 op of each kind (imports, first-call paths)."""
    if workload == "cli":
        return ops[:1]
    seen, out = set(), []
    for op in ops:
        if op.backend == "complex64" and op.name not in seen:
            seen.add(op.name)
            out.append(op)
    return out


def machine(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
        with open("/proc/meminfo", encoding="utf-8") as fh:
            mem_kb = int(next(ln.split()[1] for ln in fh if ln.startswith("MemTotal")))
    except (OSError, StopIteration, ValueError):
        mem_kb = 0
    commit = None
    if (ROOT / ".git").exists():  # else git would look in the directories above
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
            commit = commit or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "mem_total_mb": round(mem_kb / 1024),
            "python": platform.python_version(), "commit": commit,
            "src_sha256": source_digest(), "seed": seed}


def source_digest():
    """Digest of the library sources, standing in for the commit where the
    checkout is not a git repository."""
    import hashlib
    h = hashlib.sha256()
    for path in sorted((SRC / "kronlab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def golden_check(workload, run, invoke):
    """Replay the exact-backend ops of the golden round once per op kind and
    compare output digests with the ones frozen at the seed commit."""
    from common import digest
    frozen = json.loads((HERE / "digests.json").read_text())[workload]
    mismatches = []
    for key, op in golden_ops(workload, invoke).items():
        out = run.execute(op, timed=False)
        got = None if out is None else digest(op.canon(out))
        if got != frozen.get(key):
            run.wrong += 1
            run.failures.append((op.name, op.backend, f"digest {got} != frozen {frozen.get(key)}"))
            mismatches.append(key)
    return mismatches


def golden_ops(workload, invoke):
    """First op of each (name, backend) kind with a digest, keyed by both."""
    out = {}
    for op in build_round(workload, GOLDEN_SEED, 0, invoke):
        key = f"{op.name}/{op.backend}"
        if op.canon is not None and key not in out:
            out[key] = op
    return out


def percentile_block(durations):
    ms = sorted(d * 1e3 for d, _ in durations)
    p90 = statistics.quantiles(ms, n=10)[8]
    return statistics.median(ms), p90, sum(1 for v in ms if v > p90)


def measure(args, invoke):
    """The untraced run: set-up, timed rounds, golden digests."""
    setup = []
    for _ in range(SETUP_REPS):
        gc.collect()
        cal = calibration_s()
        gc.disable()  # as for the ops
        t0 = time.perf_counter()
        ops = build_round(args.workload, args.seed, 0, invoke)
        scratch = Run()
        for op in warmup_ops(args.workload, ops):
            scratch.execute(op, timed=False)
        dt = time.perf_counter() - t0
        gc.enable()
        setup.append(scaled(dt, cal, calibration_s()))
    run, index = Run(CLI_CAL_EXPONENT if args.workload == "cli" else 1.0), 0
    while sum(run.raw) < args.seconds or len(run.durations) < MIN_OPS:
        if index:
            ops = build_round(args.workload, args.seed, index, invoke)
        gc.collect()
        for op in ops:
            run.execute(op)
        index += 1
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    golden = golden_check(args.workload, run, invoke)
    return run, setup, index, peak_mb, golden


def end_to_end(run, rounds, setup_s, peak_mb):
    """The end-to-end metrics, from calibration-scaled op times.

    Every round runs the same op slots, so the rates use a typical round:
    each slot's median time over the rounds, summed.
    """
    n = len(run.durations) // rounds
    slots = [(statistics.median(run.durations[r * n + i][0] for r in range(rounds)),
              run.durations[i][1]) for i in range(n)]
    p50, p90, beyond = percentile_block(run.durations)
    metrics = {"ops_per_s": (n / sum(d for d, _ in slots), "1/s")}
    for b in BACKENDS:
        ds = [d for d, k in slots if k == b]
        metrics[f"ops_per_s.{b}"] = (len(ds) / sum(ds), "1/s")
    metrics.update({
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    })
    samples = {"ops": len(run.durations), "beyond_p90": beyond,
               "per_backend": {b: sum(1 for _, k in run.durations if k == b) for b in BACKENDS}}
    return metrics, samples


def timed_share(run) -> float:
    """Scaled over unscaled time: 1 on an uncontended reference machine."""
    return sum(d for d, _ in run.durations) / sum(run.raw)


def trace_run(args, invoke_untraced):
    """Round 0 untraced for ``--seconds``, then once traced."""
    import spans
    extra = {}
    if args.workload == "cli":
        import cli_workload
        tracer = spans.Tracer()

        def on_stdout(n):
            if tracer.active:
                tracer.counts["cli.emit.bytes"] += n
        invoke = cli_workload.inprocess_invoker(on_stdout)
        extra.update(interpreter_probes())
    else:
        tracer, invoke = spans.Tracer(), invoke_untraced
    ops = build_round(args.workload, args.seed, 0, invoke)
    run, passes = Run(), []
    while sum(passes) < args.seconds or len(passes) < 2:
        before = len(run.durations)
        for op in ops:
            run.execute(op)
        passes.append(sum(d for d, _ in run.durations[before:]))
    traced = Run()
    tracer.install()
    try:
        for op in ops:
            traced.execute(op, tracer=tracer)
    finally:
        tracer.uninstall()
    traced_s = sum(d for d, _ in traced.durations)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write(path, args.workload)
    extra["trace.overhead_frac"] = (traced_s / statistics.median(passes) - 1, "frac")
    metrics = spans.layer_metrics(path, tracer.counts, extra)
    for k in ("cli.interpreter_s", "cli.import_s"):
        metrics.setdefault(k, (0.0, "s"))
    merged = Run()
    merged.attempted = run.attempted + traced.attempted
    merged.failures = run.failures + traced.failures
    merged.wrong = run.wrong + traced.wrong
    info = {"untraced_pass_s": passes, "traced_pass_s": traced_s, "spans_file": str(path),
            "spans": len(tracer.start), "ops_per_pass": len(ops)}
    return merged, metrics, info


def child_times(code, wall=True) -> list:
    """Calibration-scaled times of ``code`` in PROBE_REPS fresh interpreters
    with the library on the path: each child's wall time (scaled as a
    ``cli`` op is), or with ``wall=False`` the seconds the child prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(PROBE_REPS):
        cal = calibration_s()
        t0 = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                               capture_output=True, text=True)
        dt = time.perf_counter() - t0
        out.append(scaled(dt, cal, calibration_s(), CLI_CAL_EXPONENT) if wall
                   else scaled(float(child.stdout), cal, calibration_s()))
    return out


def import_times() -> list:
    """``import kronlab.cli`` (the whole library) timed inside fresh
    interpreters, so that every import is a first one."""
    return child_times("import time; t0 = time.perf_counter(); import kronlab.cli; "
                       "print(time.perf_counter() - t0)", wall=False)


def interpreter_probes():
    """Median start-up of a bare interpreter, and what importing the CLI adds."""
    bare = statistics.median(child_times("pass"))
    return {"cli.interpreter_s": (bare, "s"),
            "cli.import_s": (statistics.median(child_times("import kronlab.cli")) - bare, "s")}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kronlab" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}; run from the root of a kronlab checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    for _ in range(20):  # warm the kernel itself
        calibration_s()
    import cli_workload  # imports the library, the workloads and the numpy oracle
    invoke = cli_workload.subprocess_invoker(SRC) if args.workload == "cli" else None
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "time": time.strftime("%Y-%m-%dT%H:%M:%S")}
    if args.trace:
        run, metrics, info = trace_run(args, invoke)
        record.update(info)
    else:
        run, setup, rounds, peak_mb, golden = measure(args, invoke)
        import_reps = import_times()
        import_s = statistics.median(import_reps)
        metrics, samples = end_to_end(run, rounds, import_s + statistics.median(setup), peak_mb)
        raw = sum(run.raw)
        record.update({"rounds": rounds, "samples": samples, "import_s": import_s,
                       "import_reps_s": import_reps,
                       "setup_reps_s": setup, "golden_mismatches": golden,
                       "unscaled": {"timed_s": raw, "ops_per_s": len(run.raw) / raw,
                                    "machine_speed": timed_share(run)},
                       "scaled_total_ops_per_s": len(run.durations) / sum(
                           d for d, _ in run.durations)})
    record["machine"] = machine(args.seed)  # after the run: its git child must not count
    failures = {}
    for name, backend, reason in run.failures:
        failures.setdefault(f"{name}/{backend}: {reason}", 0)
        failures[f"{name}/{backend}: {reason}"] += 1
    for line, n in failures.items():
        print(f"failed x{n}: {line}", file=sys.stderr)
    result = {"correct": run.wrong == 0, "attempted": run.attempted,
              "failed": len(run.failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record.update(result)
    record["fail_frac"] = len(run.failures) / run.attempted
    record["failures"] = failures
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
