"""The ``cli`` workload: one ``python -m kronlab.cli`` process per op, on JSON
files written from the seed.

It is the one workload where interpreter start, import, JSON parse and
encode and the indented output dominate; compute per call stays small.  A
fixed share of each round feeds the CLI malformed files, which must end
with exit code 2 and a single ``error:`` line.  Those inputs are listed in
``ERROR_CASES`` and are not screened: one that escapes as a traceback
counts as a failed op.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from kronlab import cli, combinatorics, direct_sum, inner_product, kronecker, matrices, tensor
from kronlab.index_space import Shape

from common import Broken, Op, close, expect, fmt, scalar, vector
from workloads import _factors, _members, _own_matmul, _partition, _prod, conj

# per backend: dense kron factors, --labels factors, matvec factors,
# verify table shape, factor size n, form shape, --induced shape
CLI = {
    "rational": {"kron": [(4, 4), (3, 3), (2, 2)], "labels": [(3, 2), (2, 3)],
                 "matvec": [(4, 4)] * 4, "verify": (4, 4), "factor": 5,
                 "form": (4, 4), "induced": (16, 16)},
    "gaussian": {"kron": [(3, 3), (2, 2), (2, 2)], "labels": [(2, 2), (2, 3)],
                 "matvec": [(3, 3)] * 4, "verify": (3, 3), "factor": 4,
                 "form": (3, 3), "induced": (8, 8)},
    "complex64": {"kron": [(4, 4), (4, 4), (3, 3)], "labels": [(3, 2), (2, 3)],
                  "matvec": [(4, 4)] * 5, "verify": (6, 6), "factor": 6,
                  "form": (6, 6), "induced": (16, 16)},
}

# (name, command, files): malformed inputs; each round runs all of them
ERROR_CASES = [
    ("error.entries_not_list", ["kron", "{m}"],
     {"m": '{"rows": 1, "cols": 1, "entries": 5}'}),
    ("error.values_not_list", ["verify", "{t}"],
     {"t": '{"shape": [2, 2], "ambientDim": 4, "values": 5}'}),
    ("error.truncated_json", ["matvec", "{m}", "--x", "{x}"],
     {"m": '{"rows": 2,', "x": '["1", "2"]'}),
    ("error.zero_denominator", ["inner", "{a}", "{b}", "--induced"],
     {"a": '{"shape": [2], "coeffs": ["1/0", "1"]}', "b": '{"shape": [2], "coeffs": ["1", "1"]}'}),
    ("error.partition_gap", ["decompose", "--shape", "2", "--parts", "[[[1], [3]]]"], {}),
]


def subprocess_invoker(src: Path):
    """Run the CLI in a fresh interpreter, as a user would."""
    env = {k: v for k, v in os.environ.items() if k != cli.BACKEND_ENV}
    env["PYTHONPATH"] = str(src)

    def invoke(argv):
        p = subprocess.run([sys.executable, "-m", "kronlab.cli", *argv], capture_output=True,
                           text=True, env=env, timeout=120)
        return p.returncode, p.stdout, p.stderr
    return invoke


def inprocess_invoker(on_stdout=None):
    """Call ``cli.main`` in this process with both streams captured."""
    def invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        if on_stdout is not None:
            on_stdout(len(out.getvalue().encode()))
        return code, out.getvalue(), err.getvalue()
    return invoke


def _enc(backend, v):
    if backend == "complex64":
        return [v.real, v.imag]
    return fmt(backend, v)


def _matrix_doc(backend, m):
    return {"rows": m.nrows, "cols": m.ncols,
            "entries": [[_enc(backend, v) for v in m.data[i * m.ncols:(i + 1) * m.ncols]]
                        for i in range(m.nrows)]}


def _dec(backend, v):
    return complex(*v) if backend == "complex64" else v


def _same(backend, got, want, what):
    """Compare decoded CLI scalars with in-process values."""
    if backend == "complex64":
        expect(close([_dec(backend, v) for v in got], want), what)
    else:
        expect(got == [fmt(backend, v) for v in want], what)


def _exit_code(code, err, want):
    if code != want:
        tail = err.strip().splitlines()[-1:] or [""]
        raise Broken(f"exit {code}, want {want}: {tail[0][:160]}")


def _json_op(name, backend, invoke, argv, compare, want_code=0):
    def check(res):
        code, out, err = res
        _exit_code(code, err, want_code)
        compare(json.loads(out))
    canon = None if backend == "complex64" else (lambda res: res[1])
    return Op(name, backend, lambda: invoke(argv), check, canon)


def _check_error(res):
    code, _, err = res
    lines = err.splitlines()
    if code != 2 or len(lines) != 1 or not lines[0].startswith("error:"):
        tail = lines[-1][:160] if lines else ""
        raise Broken(f"exit {code} with {len(lines)} stderr lines: {tail}")


def _parse_labels(text, backend):
    """Cells of a ``kron --labels`` table, row by row."""
    rows = []
    for line in text.splitlines()[1:]:
        body = line.split(None, 1)[1]
        cells = re.findall(r"\[[^\]]*\]", body) if backend == "complex64" else body.split()
        rows.append([json.loads(c) if backend == "complex64" else c for c in cells])
    return rows


def cli_round(rng: random.Random, files: Path, invoke) -> list:
    files.mkdir(parents=True, exist_ok=True)
    counter = itertools.count()

    def write(doc) -> str:
        path = files / f"f{next(counter)}.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    ops = []
    for backend, plan in CLI.items():
        flag = ["--backend", backend]

        fs = _factors(backend, rng, plan["kron"])
        dense = kronecker.kron(fs)

        def cmp_kron(doc, dense=dense, backend=backend):
            expect([doc["rows"], doc["cols"]] == [dense.nrows, dense.ncols], "kron shape")
            _same(backend, [v for row in doc["entries"] for v in row], dense.data, "kron entries")
        ops.append(_json_op("kron", backend, invoke,
                            flag + ["kron"] + [write(_matrix_doc(backend, f)) for f in fs], cmp_kron))

        fs = _factors(backend, rng, plan["labels"])
        dense = kronecker.kron(fs)

        def check_labels(res, dense=dense, backend=backend):
            code, out, err = res
            _exit_code(code, err, 0)
            cells = _parse_labels(out, backend)
            expect(len(cells) == dense.nrows, "labelled table rows")
            _same(backend, [c for row in cells for c in row], dense.data, "labelled entries")
        argv = flag + ["kron", "--labels"] + [write(_matrix_doc(backend, f)) for f in fs]
        ops.append(Op("kron.labels", backend, lambda argv=argv: invoke(argv), check_labels,
                      None if backend == "complex64" else (lambda res: res[1])))

        fs = _factors(backend, rng, plan["matvec"])
        x = vector(backend, rng, _prod(f.ncols for f in fs))
        y = kronecker.KroneckerOperator(fs).matvec(x)
        ops.append(_json_op(
            "matvec", backend, invoke,
            flag + ["matvec"] + [write(_matrix_doc(backend, f)) for f in fs]
            + ["--x", write([_enc(backend, v) for v in x])],
            lambda doc, y=y, backend=backend: _same(backend, doc, y, "matvec entries")))

        shape = Shape(plan["verify"])
        rows = [[scalar(backend, rng) for _ in range(shape.size)] for _ in range(shape.size)]
        verdict = tensor.verify_tensor_product(tensor.NuTable(shape, tuple(map(tuple, rows))))

        def cmp_verdict(doc, v=verdict, backend=backend):
            expect(doc["isTensorProduct"] == v.is_tensor_product, "verdict")
            expect(doc["failedCriterion"] == v.failed_criterion, "failed criterion")
            if v.witness is not None:
                _same(backend, doc["witness"], v.witness, "witness")
        table = {"shape": list(shape.dims), "ambientDim": shape.size,
                 "values": [[_enc(backend, v) for v in r] for r in rows]}
        ops.append(_json_op("verify", backend, invoke, flag + ["verify", write(table)],
                            cmp_verdict, want_code=0 if verdict else 1))

        n = plan["factor"]
        a = matrices.DenseMatrix(n, n, vector(backend, rng, n * n, zero_frac=0.2))
        b = matrices.DenseMatrix(n, n, vector(backend, rng, n * n, zero_frac=0.2))
        want = _own_matmul(a, b)
        ops.append(_json_op(
            "factor", backend, invoke,
            flag + ["factor", write(_matrix_doc(backend, a)), write(_matrix_doc(backend, b))],
            lambda doc, want=want, backend=backend: _same(
                backend, [v for row in doc["entries"] for v in row], want, "factored product")))

        shape = Shape(plan["form"])
        gram = [[scalar(backend, rng) for _ in range(shape.size)] for _ in range(shape.size)]
        s, t = vector(backend, rng, shape.size), vector(backend, rng, shape.size)
        value = inner_product.eval_form(
            inner_product.ConjugateBilinearForm(shape.size, shape.size, tuple(map(tuple, gram))), s, t)
        form = {"leftDim": shape.size, "rightDim": shape.size,
                "gram": [[_enc(backend, v) for v in r] for r in gram]}

        def tensor_file(coeffs, dims):
            return write({"shape": list(dims), "coeffs": [_enc(backend, v) for v in coeffs]})
        ops.append(_json_op(
            "inner.form", backend, invoke,
            flag + ["inner", write(form), tensor_file(s, shape.dims), tensor_file(t, shape.dims)],
            lambda doc, value=value, backend=backend: _same(backend, [doc["value"]], [value],
                                                             "form value")))

        shape = Shape(plan["induced"])
        s, t = vector(backend, rng, shape.size), vector(backend, rng, shape.size)
        value = sum((u * conj(v) for u, v in zip(s, t)), 0)
        ops.append(_json_op(
            "inner.induced", backend, invoke,
            flag + ["inner", tensor_file(s, shape.dims), tensor_file(t, shape.dims), "--induced"],
            lambda doc, value=value, backend=backend: _same(backend, [doc["value"]], [value],
                                                             "induced value")))

    # backend-neutral commands run with the default backend and count as rational
    dims = (4, 6)
    parts = [_partition(rng, n, i) for i, n in enumerate(dims)]
    members = _members(parts)

    def cmp_decompose(doc, members=members):
        expect(doc["totalDim"] == 24, "total dimension")
        expect([blk["members"] for blk in doc["blocks"]] == [[list(g) for g in m] for m in members],
               "block members")
    ops.append(_json_op("decompose", "rational", invoke,
                        ["decompose", "--shape", "4,6", "--parts", json.dumps(parts)], cmp_decompose))

    def check_blocks(res):
        code, out, err = res
        _exit_code(code, err, 0)
        expect(out == direct_sum.support_example().render() + "\n", "block label table")
    ops.append(Op("blocks", "rational", lambda: invoke(["blocks", "--example", "rwsclmslex"]),
                  check_blocks, lambda res: res[1]))

    n = 5
    edges = [[[list(b) for b in x.blocks], [list(b) for b in y.blocks]]
             for x, y in combinatorics.covering_edges(n)]
    ops.append(_json_op("partitions.hasse", "rational", invoke,
                        ["partitions", "--n", str(n), "--hasse"],
                        lambda doc, edges=edges: expect(doc == edges, "covering edges")))

    n, p = 4, 6
    counts = {k: combinatorics.count_functions(k, n, p if k != "PER" else n)
              for k in ("SNC", "WNC", "INJ", "PER")}
    ops.append(_json_op("counts", "rational", invoke, ["counts", "--n", str(n), "--p", str(p)],
                        lambda doc, counts=counts: expect(doc == counts, "function counts")))

    gdims = rng.sample([2, 3, 4], 3)
    enum = [list(g) for g in itertools.product(*(range(1, d + 1) for d in gdims))]
    ops.append(_json_op("gamma.enum", "rational", invoke,
                        ["gamma", "enum"] + [str(d) for d in gdims],
                        lambda doc, enum=enum: expect(doc == enum, "lex enumeration")))

    for name, argv, docs in ERROR_CASES:
        paths = {k: write(v) for k, v in docs.items()}
        argv = [a.format(**paths) for a in argv]
        ops.append(Op(name, "rational", lambda argv=argv: invoke(argv), _check_error))
    return ops

