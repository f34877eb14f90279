"""Tracing from outside the library, for the per-layer metrics.

``Tracer.install`` wraps the public functions of every kronlab module (and
the same function objects wherever another module imported them), a few
class methods, the scalar parse/format hooks of each backend, and the
arithmetic operators of ``Fraction`` and ``GaussianRational``.  Each call
records a span: name, start, end, parent span and op id.  Spans stay in
memory and are written to a file when the traced pass ends; self time per
layer is then derived from that file.  ``uninstall`` restores every
attribute it replaced.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

from kronlab import (cli, combinatorics, direct_sum, index_space, inner_product, jsonio,
                     kronecker, matrices, multilinear, scalars, tensor)

MODULES = (scalars, index_space, multilinear, tensor, kronecker, inner_product,
           direct_sum, combinatorics, matrices, jsonio)
METHODS = [
    (index_space.Shape, ("offset", "indices")),
    (kronecker.KroneckerOperator, ("matvec", "entry", "materialize")),
    (matrices.DenseMatrix, ("matvec", "matmul", "__matmul__")),
    (tensor.LinearMap, ("apply", "compose")),
    (multilinear.MultilinearMap, ("__init__",)),
]
CLI_FUNCTIONS = ("main", "_load_json", "_emit")
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__rpow__")


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _nnz(data) -> int:
    return len(data) - data.count(0)


def _count_matvec(tr, args):
    """Multiplications the factor-at-a-time contraction performs (one per
    nonzero factor entry per untouched index) and the slots it visits."""
    op = args[0]
    ps = [f.nrows for f in op.factors]
    qs = [f.ncols for f in op.factors]
    left = 1
    for i, f in enumerate(op.factors):
        right = 1
        for q in qs[i + 1:]:
            right *= q
        tr.counts["kronecker.matvec.mults"] += left * _nnz(f.data) * right
        tr.counts["kronecker.matvec.slots"] += left * len(f.data) * right
        left *= ps[i]


def _count_kron(tr, args):
    n = 1
    for f in args[0]:
        n *= f.nrows * f.ncols
    tr.counts["kronecker.kron.entries"] += n


def _count_apply(tr, args):
    data = args[0].matrix.data
    tr.counts["tensor.LinearMap.apply.nonzeros"] += _nnz(data)
    tr.counts["tensor.LinearMap.apply.entries"] += len(data)


HOOKS = {
    "kronecker.KroneckerOperator.matvec": _count_matvec,
    "kronecker.kron": _count_kron,
    "tensor.LinearMap.apply": _count_apply,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list = []
        self._name_ids: dict = {}
        self.parent = array("q")
        self.opid = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list = []
        self._patched: list = []
        self.counts = defaultdict(int)
        self.ops: list = []  # (op name, backend) per op id
        self.scale: list = []  # per op id, the calibration factor of its time

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, name_id, fn, hook=None):
        tr = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(tr, args)
            sid = len(tr.start)
            tr.parent.append(tr._stack[-1] if tr._stack else -1)
            tr.opid.append(tr.op)
            tr.name.append(name_id)
            tr.end.append(0)
            tr._stack.append(sid)
            tr.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end[sid] = clock()
                tr._stack.pop()
        wrapper.__wrapped__ = fn
        return wrapper

    def begin_op(self, name: str, backend: str) -> None:
        self.op = len(self.ops)
        self.ops.append((name, backend))
        self.scale.append(1.0)
        self.active = True

    def end_op(self) -> None:
        self.active = False

    def run_op(self, op):
        """Run one op under a root span named after it."""
        self.begin_op(op.name, op.backend)
        try:
            return self._span(self._name_id("op." + op.name), op.run)()
        finally:
            self.end_op()

    def _counter(self, key, fn):
        tr = self

        def wrapper(*args):
            if tr.active:
                tr.counts[key] += 1
            return fn(*args)
        return wrapper

    # -- patching ------------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        if isinstance(owner, scalars.Backend):
            object.__setattr__(owner, attr, new)
        else:
            setattr(owner, attr, new)

    def install(self) -> None:
        replaced = {}  # id(original function) -> wrapper
        for mod in MODULES:
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{_short(mod)}.{attr}"
                    replaced[id(fn)] = self._span(self._name_id(name), fn, HOOKS.get(name))
        for attr in CLI_FUNCTIONS:
            fn = getattr(cli, attr)
            replaced[id(fn)] = self._span(self._name_id(f"cli.{attr.lstrip('_')}"), fn)
        # every kronlab module that holds one of those functions gets the wrapper
        for mod in [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "kronlab"]:
            for attr, val in list(vars(mod).items()):
                if id(val) in replaced and inspect.isfunction(val):
                    self._replace(mod, attr, replaced[id(val)])
        for cls, attrs in METHODS:
            for attr in attrs:
                method = "matmul" if attr == "__matmul__" else attr
                name = f"{_short(sys.modules[cls.__module__])}.{cls.__name__}"
                name += "" if attr == "__init__" else f".{method}"
                self._replace(cls, attr, self._span(self._name_id(name), cls.__dict__[attr],
                                                    HOOKS.get(name)))
        for backend in scalars.BACKENDS.values():
            for attr in ("parse", "format"):
                self._replace(backend, attr,
                              self._span(self._name_id(f"scalars.{attr}"), getattr(backend, attr)))
        for cls, key in ((Fraction, "scalars.fraction_ops"),
                         (scalars.GaussianRational, "scalars.gaussian_ops")):
            for attr in ARITHMETIC:
                if attr in cls.__dict__:
                    self._replace(cls, attr, self._counter(key, cls.__dict__[attr]))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            if isinstance(owner, scalars.Backend):
                object.__setattr__(owner, attr, old)
            else:
                setattr(owner, attr, old)
        self._patched.clear()

    # -- output --------------------------------------------------------------

    def write(self, path, workload: str) -> None:
        """One line per op, ``op id name backend scale``, then one per span,
        ``span id parent op name start_ns end_ns workload``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# perfbench spans workload={workload} spans={len(self.start)}\n")
            for i, ((name, backend), scale) in enumerate(zip(self.ops, self.scale)):
                fh.write(f"op\t{i}\t{name}\t{backend}\t{scale!r}\n")
            names = self.names
            for sid in range(len(self.start)):
                fh.write(f"span\t{sid}\t{self.parent[sid]}\t{self.opid[sid]}\t"
                         f"{names[self.name[sid]]}\t{self.start[sid]}\t{self.end[sid]}\t"
                         f"{workload}\n")


def self_times(path):
    """Read a spans file back; return per span name its call count and
    self time in seconds, the self time per (name, backend), and the op
    table.  Self times are scaled by their op's calibration factor."""
    ops, spans = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            f = line.rstrip("\n").split("\t")
            if f[0] == "op":
                ops[int(f[1])] = (f[2], f[3], float(f[4]))
            elif f[0] == "span":
                spans.append((int(f[2]), int(f[3]), f[4], int(f[6]) - int(f[5])))
    child = [0] * len(spans)
    for parent, _, _, dur in spans:
        if parent >= 0:
            child[parent] += dur
    calls, busy, by_backend = defaultdict(int), defaultdict(float), defaultdict(float)
    for sid, (_, op, name, dur) in enumerate(spans):
        own = (dur - child[sid]) / 1e9 * ops[op][2]
        calls[name] += 1
        busy[name] += own
        by_backend[(name, ops[op][1])] += own
    return calls, busy, by_backend, ops


# per-layer metric -> span names whose self time it sums
JSONIO_DECODE = [f"jsonio.{n}" for n in dir(jsonio) if "decode" in n or "from_json" in n]
JSONIO_ENCODE = [f"jsonio.{n}" for n in dir(jsonio) if "encode" in n or "to_json" in n]
ELIMINATION = [f"matrices.{n}" for n in ("row_dependency", "rank_of", "inverse",
                                         "leading_principal_minors")]
BUSY = {
    "scalars.parse.busy_s": ["scalars.parse"],
    "scalars.format.busy_s": ["scalars.format"],
    "index_space.offset.busy_s": ["index_space.Shape.offset"],
    "multilinear.evaluate.busy_s": ["multilinear.evaluate"],
    "multilinear.evaluate_factored.busy_s": ["multilinear.evaluate_factored"],
    "multilinear.MultilinearMap.busy_s": ["multilinear.MultilinearMap"],
    **{f"tensor.{n}.busy_s": [f"tensor.{n}"] for n in (
        "pure", "verify_tensor_product", "subspace_product", "universal_factor",
        "LinearMap.apply")},
    "kronecker.matvec.busy_s": ["kronecker.KroneckerOperator.matvec"],
    "kronecker.kron.busy_s": ["kronecker.kron"],
    "kronecker.factorized_matrix_product.busy_s": ["kronecker.factorized_matrix_product"],
    **{f"{n}.busy_s": [n] for n in ELIMINATION},
    "matrices.elimination.busy_s": ELIMINATION,
    "matrices.DenseMatrix.matvec.busy_s": ["matrices.DenseMatrix.matvec"],
    "matrices.DenseMatrix.matmul.busy_s": ["matrices.DenseMatrix.matmul"],
    **{f"inner_product.{n}.busy_s": [f"inner_product.{n}"] for n in (
        "product_form", "eval_form", "validate_inner_product", "induced_inner_product")},
    **{f"direct_sum.{n}.busy_s": [f"direct_sum.{n}"] for n in (
        "decompose", "project", "embed", "reassemble")},
    **{f"combinatorics.{n}.busy_s": [f"combinatorics.{n}"] for n in (
        "enumerate_partitions", "covering_edges")},
    "jsonio.decode.busy_s": JSONIO_DECODE,
    "jsonio.encode.busy_s": JSONIO_ENCODE,
    "cli.load.busy_s": ["cli.load_json"],
    "cli.emit.busy_s": ["cli.emit"],
    "cli.main.busy_s": ["cli.main"],
}
CALLS = {
    "index_space.offset.calls": "index_space.Shape.offset",
    "index_space.indices.calls": "index_space.Shape.indices",
    "kronecker.matvec.calls": "kronecker.KroneckerOperator.matvec",
    "jsonio.scalars_decoded": "scalars.parse",
    "jsonio.scalars_encoded": "scalars.format",
}
BACKENDS = ("rational", "gaussian", "complex64")


def layer_metrics(path, counts, extra) -> dict:
    """Every per-layer metric as ``{name: (value, unit)}``; a layer the
    workload never calls reads 0."""
    calls, busy, by_backend, _ = self_times(path)
    out = {}
    for metric, names in BUSY.items():
        out[metric] = (sum(busy[n] for n in names), "s")
    for b in BACKENDS:
        out[f"matrices.elimination.busy_s.{b}"] = (
            sum(by_backend[(n, b)] for n in ELIMINATION), "s")
    for metric, name in CALLS.items():
        out[metric] = (calls[name], "count")
    out["scalars.fraction_ops"] = (counts["scalars.fraction_ops"], "count")
    out["scalars.gaussian_ops"] = (counts["scalars.gaussian_ops"], "count")
    mults, slots = counts["kronecker.matvec.mults"], counts["kronecker.matvec.slots"]
    out["kronecker.matvec.mults"] = (mults, "count")
    out["kronecker.matvec.ns_per_mult"] = (
        out["kronecker.matvec.busy_s"][0] * 1e9 / mults if mults else 0.0, "ns")
    out["kronecker.matvec.zero_skip_frac"] = (1 - mults / slots if slots else 0.0, "frac")
    entries = counts["kronecker.kron.entries"]
    out["kronecker.kron.entries"] = (entries, "count")
    out["kronecker.kron.ns_per_entry"] = (
        out["kronecker.kron.busy_s"][0] * 1e9 / entries if entries else 0.0, "ns")
    total = counts["tensor.LinearMap.apply.entries"]
    out["tensor.LinearMap.apply.nonzero_frac"] = (
        counts["tensor.LinearMap.apply.nonzeros"] / total if total else 0.0, "frac")
    out["cli.emit.bytes"] = (counts["cli.emit.bytes"], "B")
    out.update(extra)
    return out
