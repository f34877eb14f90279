import json
import random
from fractions import Fraction

import pytest

from kronlab import jsonio
from kronlab.index_space import Shape
from kronlab.inner_product import ConjugateBilinearForm
from kronlab.matrices import DenseMatrix
from kronlab.multilinear import MultilinearMap
from kronlab.scalars import COMPLEX, GAUSSIAN, RATIONAL
from kronlab.tensor import NuTable, Tensor, TensorModel, Verdict


def rand_matrix(rng, backend, p, q):
    return DenseMatrix.from_rows([[backend.random(rng) for _ in range(q)]
                                  for _ in range(p)])


@pytest.mark.parametrize("backend", [RATIONAL, GAUSSIAN, COMPLEX])
def test_matrix_round_trip(backend):
    rng = random.Random(91)
    m = rand_matrix(rng, backend, 3, 2)
    doc = jsonio.matrix_to_json(backend, m)
    again = jsonio.matrix_from_json(backend, json.loads(json.dumps(doc)))
    assert again == m


@pytest.mark.parametrize("backend", [RATIONAL, GAUSSIAN])
def test_matrix_encoding_is_deterministic(backend):
    rng = random.Random(92)
    m = rand_matrix(rng, backend, 2, 2)
    a = json.dumps(jsonio.matrix_to_json(backend, m))
    b = json.dumps(jsonio.matrix_to_json(backend, m))
    assert a == b


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        jsonio.matrix_from_json(RATIONAL, {"rows": 2, "cols": 2,
                                           "entries": [["1", "2"]]})
    with pytest.raises(ValueError):
        jsonio.matrix_from_json(RATIONAL, {"rows": 1, "entries": [["1"]]})


@pytest.mark.parametrize("key, bad", [("rows", 1.0), ("rows", None), ("rows", "1"),
                                      ("cols", 1.0), ("cols", None), ("cols", True)])
def test_matrix_decode_rejects_non_integer_dimensions(key, bad):
    good = {"rows": 1, "cols": 1, "entries": [["1"]]}
    assert jsonio.matrix_from_json(RATIONAL, good) == DenseMatrix.from_rows([[1]])
    with pytest.raises(ValueError, match=f"'{key}' must be an integer"):
        jsonio.matrix_from_json(RATIONAL, dict(good, **{key: bad}))


@pytest.mark.parametrize("backend", [RATIONAL, GAUSSIAN, COMPLEX])
def test_tensor_round_trip(backend):
    rng = random.Random(93)
    model = TensorModel(Shape((2, 3)))
    t = Tensor(model, tuple(backend.random(rng) for _ in range(6)))
    doc = jsonio.tensor_to_json(backend, t)
    again = jsonio.tensor_from_json(backend, json.loads(json.dumps(doc)))
    assert again.model.shape == t.model.shape
    assert again.coeffs == t.coeffs


def test_map_round_trip():
    rng = random.Random(94)
    shape = Shape((2, 2))
    f = MultilinearMap(shape, 3, tuple(
        tuple(RATIONAL.random(rng) for _ in range(3)) for _ in range(4)))
    doc = jsonio.map_to_json(RATIONAL, f)
    again = jsonio.map_from_json(RATIONAL, json.loads(json.dumps(doc)))
    assert again == f


def test_nutable_round_trip_and_dimension_check():
    nu = NuTable(Shape((2, 2)), [(1, 0, 0, 0), (0, 1, 0, 0),
                                 (0, 0, 1, 0), (0, 0, 0, 1)])
    doc = jsonio.nutable_to_json(RATIONAL, nu)
    assert doc["ambientDim"] == 4
    again = jsonio.nutable_from_json(RATIONAL, doc)
    assert again.rows == tuple(tuple(Fraction(v) for v in r) for r in nu.rows)
    doc["ambientDim"] = 5
    with pytest.raises(ValueError):
        jsonio.nutable_from_json(RATIONAL, doc)


def test_form_round_trip():
    rng = random.Random(95)
    phi = ConjugateBilinearForm(2, 3, tuple(
        tuple(GAUSSIAN.random(rng) for _ in range(3)) for _ in range(2)))
    doc = jsonio.form_to_json(GAUSSIAN, phi)
    again = jsonio.form_from_json(GAUSSIAN, json.loads(json.dumps(doc)))
    assert again == phi


def test_verdict_encoding():
    doc = jsonio.verdict_to_json(RATIONAL, Verdict(True))
    assert doc == {"isTensorProduct": True, "failedCriterion": None, "witness": None}
    doc = jsonio.verdict_to_json(
        RATIONAL, Verdict(False, "independence", (Fraction(-1), Fraction(1))))
    assert doc["witness"] == ["-1", "1"]


def test_vector_decode_rejects_non_arrays():
    with pytest.raises(ValueError):
        jsonio.decode_vector(RATIONAL, {"not": "a list"})


@pytest.mark.parametrize("key, bad", [("shape", 5), ("shape", None), ("shape", [2, None]),
                                      ("shape", [1.5]), ("targetDim", None),
                                      ("targetDim", "1"), ("targetDim", 1.0)])
def test_map_decode_rejects_malformed_shape_and_target_dim(key, bad):
    good = {"shape": [1], "targetDim": 1, "values": [["1"]]}
    assert jsonio.map_from_json(RATIONAL, good).target_dim == 1
    with pytest.raises(ValueError):
        jsonio.map_from_json(RATIONAL, dict(good, **{key: bad}))
