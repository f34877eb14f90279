"""JSON interchange for matrices, tensors, maps, and forms.

Scalars are backend-tagged at the call site and encoded canonically:
rationals as ``"p/q"`` strings, Gaussian rationals as ``"p/q+r/si"``
strings, complex floats as ``[re, im]`` pairs.  Exact-backend encodings are
byte-deterministic, so emitted documents work as goldens.
"""

from __future__ import annotations

import json
from typing import Sequence

from .index_space import Shape
from .inner_product import ConjugateBilinearForm
from .matrices import DenseMatrix
from .multilinear import MultilinearMap
from .scalars import Backend
from .tensor import NuTable, Tensor, TensorModel, Verdict


def encode_scalar(backend: Backend, v):
    return backend.format(v)


def decode_scalar(backend: Backend, obj):
    return backend.parse(obj)


def encode_vector(backend: Backend, vec: Sequence) -> list:
    return [backend.format(v) for v in vec]


def decode_vector(backend: Backend, obj) -> list:
    if not isinstance(obj, list):
        raise ValueError("expected a JSON array of scalars")
    return [backend.parse(v) for v in obj]


def _decode_rows(backend: Backend, obj, key: str) -> list:
    if not isinstance(obj, list):
        raise ValueError(f"'{key}' must be a JSON array of rows")
    return [decode_vector(backend, r) for r in obj]


def _int(obj, key: str) -> int:
    if type(obj) is not int:
        raise ValueError(f"'{key}' must be an integer, got {json.dumps(obj)}")
    return obj


def _shape(obj) -> Shape:
    if not isinstance(obj, list):
        raise ValueError(f"'shape' must be a JSON array of integers, got {json.dumps(obj)}")
    return Shape([_int(d, "shape") for d in obj])


def matrix_to_json(backend: Backend, m: DenseMatrix) -> dict:
    return {
        "rows": m.nrows,
        "cols": m.ncols,
        "entries": [encode_vector(backend, m.row(i)) for i in range(1, m.nrows + 1)],
    }


def matrix_from_json(backend: Backend, d: dict) -> DenseMatrix:
    try:
        nrows, ncols, entries = d["rows"], d["cols"], d["entries"]
    except (KeyError, TypeError):
        raise ValueError("matrix JSON needs 'rows', 'cols' and 'entries'") from None
    nrows, ncols = _int(nrows, "rows"), _int(ncols, "cols")
    rows = _decode_rows(backend, entries, "entries")
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise ValueError(f"entries do not form a {nrows}x{ncols} matrix")
    return DenseMatrix.from_rows(rows)


def tensor_to_json(backend: Backend, t: Tensor) -> dict:
    return {
        "shape": list(t.model.shape.dims),
        "coeffs": encode_vector(backend, t.coeffs),
    }


def tensor_from_json(backend: Backend, d: dict) -> Tensor:
    try:
        dims, coeffs = d["shape"], d["coeffs"]
    except (KeyError, TypeError):
        raise ValueError("tensor JSON needs 'shape' and 'coeffs'") from None
    model = TensorModel(_shape(dims))
    return Tensor(model, tuple(decode_vector(backend, coeffs)))


def map_to_json(backend: Backend, f: MultilinearMap) -> dict:
    return {
        "shape": list(f.shape.dims),
        "targetDim": f.target_dim,
        "values": [encode_vector(backend, v) for v in f.values],
    }


def map_from_json(backend: Backend, d: dict) -> MultilinearMap:
    try:
        dims, target_dim, values = d["shape"], d["targetDim"], d["values"]
    except (KeyError, TypeError):
        raise ValueError("map JSON needs 'shape', 'targetDim' and 'values'") from None
    return MultilinearMap(_shape(dims), _int(target_dim, "targetDim"),
                          tuple(map(tuple, _decode_rows(backend, values, "values"))))


def nutable_to_json(backend: Backend, nu: NuTable) -> dict:
    return {
        "shape": list(nu.shape.dims),
        "ambientDim": nu.ambient_dim,
        "values": [encode_vector(backend, r) for r in nu.rows],
    }


def nutable_from_json(backend: Backend, d: dict) -> NuTable:
    try:
        dims, ambient, values = d["shape"], d["ambientDim"], d["values"]
    except (KeyError, TypeError):
        raise ValueError("table JSON needs 'shape', 'ambientDim' and 'values'") from None
    rows = tuple(map(tuple, _decode_rows(backend, values, "values")))
    nu = NuTable(_shape(dims), rows)
    if nu.ambient_dim != _int(ambient, "ambientDim"):
        raise ValueError(f"stated ambientDim {ambient} does not match "
                         f"rows of length {nu.ambient_dim}")
    return nu


def form_to_json(backend: Backend, phi: ConjugateBilinearForm) -> dict:
    return {
        "leftDim": phi.left_dim,
        "rightDim": phi.right_dim,
        "gram": [encode_vector(backend, r) for r in phi.gram],
    }


def form_from_json(backend: Backend, d: dict) -> ConjugateBilinearForm:
    try:
        left, right, gram = d["leftDim"], d["rightDim"], d["gram"]
    except (KeyError, TypeError):
        raise ValueError("form JSON needs 'leftDim', 'rightDim' and 'gram'") from None
    return ConjugateBilinearForm(_int(left, "leftDim"), _int(right, "rightDim"),
                                 tuple(map(tuple, _decode_rows(backend, gram, "gram"))))


def verdict_to_json(backend: Backend, v: Verdict) -> dict:
    return {
        "isTensorProduct": v.is_tensor_product,
        "failedCriterion": v.failed_criterion,
        "witness": None if v.witness is None else encode_vector(backend, v.witness),
    }
