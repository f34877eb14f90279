"""Command-line front door.

Subcommands cover the whole library: multi-index enumeration, Kronecker
products (dense and lazy), tensor-product verification, the factored
matrix product, inner products, direct-sum decompositions, block-support
tables, set partitions, function-class counts, and the randomized oracle
suites.  JSON in, JSON (or plain text tables) out; output is
byte-deterministic for the exact backends.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import jsonio, oracles
from .combinatorics import (count_functions, covering_edges,
                            enumerate_partitions)
from .direct_sum import block_label_matrix, decompose, support_example
from .index_space import OrderedSetPartition, Shape, render_lex_table
from .inner_product import eval_form, induced_inner_product
from .kronecker import KroneckerOperator, factorized_matrix_product, kron
from .scalars import get_backend
from .tensor import build_model, verify_tensor_product

BACKEND_ENV = "KRONLAB_BACKEND"


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_dims(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"cannot parse dimensions from {text!r}") from None


def _parse_partitions(text: str, shape: Shape) -> list:
    """Per-axis partitions of ``shape`` as JSON: a list of lists of blocks."""
    data = json.loads(text)
    if not isinstance(data, list) or len(data) != shape.arity:
        raise ValueError(f"partitions must be a JSON list with one entry per axis "
                         f"of shape {list(shape.dims)}")
    for axis in data:
        if not (isinstance(axis, list) and all(
                isinstance(b, list) and all(type(x) is int for x in b) for b in axis)):
            raise ValueError(f"an axis partition must be a JSON list of integer "
                             f"blocks, got {json.dumps(axis)}")
    return [OrderedSetPartition(n, axis) for n, axis in zip(shape.dims, data)]


def _cmd_gamma(args, backend) -> int:
    shape = Shape(args.dims)
    if args.action == "enum":
        _emit([list(g) for g in shape.indices()])
    elif args.action == "rank":
        if args.index is None:
            raise ValueError("rank needs --index")
        _emit({"index": list(_parse_dims(args.index)),
               "rank": shape.rank(_parse_dims(args.index))})
    else:  # unrank
        if args.k is None:
            raise ValueError("unrank needs --k")
        _emit({"rank": args.k, "index": list(shape.unrank(args.k))})
    return 0


def _cmd_kron(args, backend) -> int:
    factors = [jsonio.matrix_from_json(backend, _load_json(p)) for p in args.factors]
    op = KroneckerOperator(tuple(factors))
    if args.matvec:
        x = jsonio.decode_vector(backend, _load_json(args.matvec))
        _emit(jsonio.encode_vector(backend, op.matvec(x)))
        return 0
    if args.lazy:
        raise ValueError("--lazy is only useful together with --matvec")
    dense = op.materialize()
    if args.labels:
        rows, cols = op.row_shape, op.col_shape
        print(render_lex_table(rows, cols, lambda mu, kappa: str(jsonio.encode_scalar(
            backend, dense.at(rows.rank(mu), cols.rank(kappa))))))
    else:
        _emit(jsonio.matrix_to_json(backend, dense))
    return 0


def _cmd_matvec(args, backend) -> int:
    factors = [jsonio.matrix_from_json(backend, _load_json(p)) for p in args.factors]
    x = jsonio.decode_vector(backend, _load_json(args.x))
    op = KroneckerOperator(tuple(factors))
    _emit(jsonio.encode_vector(backend, op.matvec(x)))
    return 0


def _cmd_verify(args, backend) -> int:
    nu = jsonio.nutable_from_json(backend, _load_json(args.table))
    verdict = verify_tensor_product(nu)
    _emit(jsonio.verdict_to_json(backend, verdict))
    return 0 if verdict else 1


def _cmd_factor(args, backend) -> int:
    a = jsonio.matrix_from_json(backend, _load_json(args.a))
    b = jsonio.matrix_from_json(backend, _load_json(args.b))
    _emit(jsonio.matrix_to_json(backend, factorized_matrix_product(a, b)))
    return 0


def _cmd_inner(args, backend) -> int:
    t1 = jsonio.tensor_from_json(backend, _load_json(args.a))
    t2 = jsonio.tensor_from_json(backend, _load_json(args.b))
    if args.induced:
        if t1.model.shape != t2.model.shape:
            raise ValueError("tensors have different shapes")
        phi = induced_inner_product(t1.model.shape).form
    elif args.form:
        phi = jsonio.form_from_json(backend, _load_json(args.form))
    else:
        raise ValueError("provide a form file or --induced")
    value = eval_form(phi, t1.coeffs, t2.coeffs)
    _emit({"value": jsonio.encode_scalar(backend, value)})
    return 0


def _cmd_decompose(args, backend) -> int:
    shape = Shape(_parse_dims(args.shape))
    parts = _parse_partitions(args.parts, shape)
    d = decompose(build_model(shape), parts)
    blocks = [{
        "alpha": list(s.alpha),
        "dims": list(s.model.shape.dims),
        "dim": s.dim,
        "members": [list(g) for g in s.members],
    } for s in d.summands]
    _emit({"shape": list(shape.dims), "totalDim": d.model.dim, "blocks": blocks})
    return 0


def _cmd_blocks(args, backend) -> int:
    if args.example:
        if args.example != "rwsclmslex":
            raise ValueError(f"unknown example {args.example!r}")
        lab = support_example()
    else:
        if not (args.row_shape and args.col_shape and args.row_parts and args.col_parts):
            raise ValueError("need --row-shape/--col-shape/--row-parts/--col-parts "
                             "or --example")
        rows, cols = Shape(_parse_dims(args.row_shape)), Shape(_parse_dims(args.col_shape))
        lab = block_label_matrix(rows, cols, _parse_partitions(args.row_parts, rows),
                                 _parse_partitions(args.col_parts, cols))
    print(lab.render())
    return 0


def _cmd_partitions(args, backend) -> int:
    if args.hasse:
        edges = covering_edges(args.n)
        if args.dot:
            lines = ["digraph hasse {"]
            for x, y in edges:
                lines.append(f'  "{y}" -> "{x}";')
            lines.append("}")
            print("\n".join(lines))
        else:
            _emit([[[list(b) for b in x.blocks], [list(b) for b in y.blocks]]
                   for x, y in edges])
        return 0
    parts = enumerate_partitions(args.n, args.k)
    _emit([[list(b) for b in p.blocks] for p in parts])
    return 0


def _cmd_counts(args, backend) -> int:
    out = {
        "SNC": count_functions("SNC", args.n, args.p),
        "WNC": count_functions("WNC", args.n, args.p),
        "INJ": count_functions("INJ", args.n, args.p),
        "PER": count_functions("PER", args.n, args.n),
    }
    _emit(out)
    return 0


def _cmd_oracle(args, backend) -> int:
    names = None if args.all or not args.suite else args.suite
    results = oracles.run_suites(names, seed=args.seed)
    failed = 0
    for name, passed, total in results:
        status = "ok" if passed == total else "FAIL"
        print(f"{name}: {passed}/{total} {status}")
        failed += passed != total
    print(f"suites passed: {len(results) - failed}/{len(results)}")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronlab",
        description="Tensor products, Kronecker operators, and direct sums "
                    "over exact scalar backends.")
    parser.add_argument("--backend", choices=["rational", "gaussian", "complex64"],
                        default=None,
                        help=f"scalar backend (default: ${BACKEND_ENV} or rational)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="enumerate or rank multi-indices")
    p.add_argument("action", choices=["enum", "rank", "unrank"])
    p.add_argument("dims", type=int, nargs="+")
    p.add_argument("--index", help="comma-separated multi-index, e.g. 2,1")
    p.add_argument("--k", type=int, help="1-based lex position")
    p.set_defaults(fn=_cmd_gamma)

    p = sub.add_parser("kron", help="Kronecker product of matrix files")
    p.add_argument("factors", nargs="+", help="JSON matrix files")
    p.add_argument("--lazy", action="store_true",
                   help="do not materialize; use with --matvec")
    p.add_argument("--matvec", help="JSON vector file to apply the operator to")
    p.add_argument("--labels", action="store_true",
                   help="print the dense product with lex row/column labels")
    p.set_defaults(fn=_cmd_kron)

    p = sub.add_parser("matvec", help="apply a lazy Kronecker operator")
    p.add_argument("factors", nargs="+", help="JSON matrix files")
    p.add_argument("--x", required=True, help="JSON vector file")
    p.set_defaults(fn=_cmd_matvec)

    p = sub.add_parser("verify", help="basis criterion for a candidate table")
    p.add_argument("table", help="JSON table of basis-tuple images")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("factor", help="matrix product via universal factorization")
    p.add_argument("a", help="JSON matrix file")
    p.add_argument("b", help="JSON matrix file")
    p.set_defaults(fn=_cmd_factor)

    p = sub.add_parser("inner", help="evaluate a conjugate bilinear form")
    p.add_argument("form", nargs="?", help="JSON Gram-table file")
    p.add_argument("a", help="JSON tensor file")
    p.add_argument("b", help="JSON tensor file")
    p.add_argument("--induced", action="store_true",
                   help="use the orthonormal inner product of the tensors' shape")
    p.set_defaults(fn=_cmd_inner)

    p = sub.add_parser("decompose", help="direct-sum decomposition dimensions")
    p.add_argument("--shape", required=True, help="comma-separated dims")
    p.add_argument("--parts", required=True,
                   help="JSON list of per-axis partitions, e.g. [[[1,3],[2]],[[2,4],[1,3]]]")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("blocks", help="block-support label table")
    p.add_argument("--example", help="named example, e.g. rwsclmslex")
    p.add_argument("--row-shape")
    p.add_argument("--col-shape")
    p.add_argument("--row-parts")
    p.add_argument("--col-parts")
    p.set_defaults(fn=_cmd_blocks)

    p = sub.add_parser("partitions", help="set partitions and their Hasse diagram")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--hasse", action="store_true", help="emit covering edges")
    p.add_argument("--dot", action="store_true", help="DOT digraph text")
    p.set_defaults(fn=_cmd_partitions)

    p = sub.add_parser("counts", help="function-class counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(fn=_cmd_counts)

    p = sub.add_parser("oracle", help="run randomized oracle suites")
    p.add_argument("--all", action="store_true", help="run every suite")
    p.add_argument("--suite", action="append", help="suite name (repeatable)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_oracle)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    name = args.backend or os.environ.get(BACKEND_ENV) or "rational"
    try:
        backend = get_backend(name)
        return args.fn(args, backend)
    except (ValueError, ZeroDivisionError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
