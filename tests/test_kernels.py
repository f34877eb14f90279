"""Properties of the two Kronecker-shaped kernels (lex products and the
leading-axis contraction), exercised through every public caller, on inputs
with many zeros: identity, permutation and all-zero factors, zero prefixes,
zero rows, plain ints mixed in, and exact backends mixed the way they
embed.  The contraction keeps int-only results ints, matches the entry sum
on complex64 and refuses complex64 values meeting exact ones.  Also the
column form of linear maps (factored maps, embeddings, the canonical
isomorphism, composition) and sparse Gram tables, and every randomized
oracle suite."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronlab import oracles
from kronlab.index_space import Shape
from kronlab.inner_product import ConjugateBilinearForm, eval_form, product_form
from kronlab.kronecker import KroneckerOperator, kron
from kronlab.matrices import DenseMatrix
from kronlab.multilinear import MultilinearMap, evaluate, evaluate_factored
from kronlab.scalars import GAUSSIAN, RATIONAL, GaussianRational, conj
from kronlab.tensor import (LinearMap, build_model, canonical_isomorphism, pure,
                            subspace_product, universal_factor)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
# zero is drawn about half the time, so zero prefixes and blocks are common
small = st.sampled_from([Fraction(0)] * 5 + [Fraction(1), Fraction(-1), Fraction(2),
                                             Fraction(1, 2), Fraction(-2, 3)])
SCALARS = {RATIONAL: small,
           GAUSSIAN: st.builds(GaussianRational, small, st.sampled_from([0, 0, 1, Fraction(-1, 2)]))}
backends = st.sampled_from([RATIONAL, GAUSSIAN])


def product(values):
    w = 1
    for v in values:
        w = w * v
    return w


def with_ints(backend):
    """Values of ``backend`` with plain ints mixed in; about half are zero."""
    return st.one_of(SCALARS[backend], st.sampled_from([0, 0, 1, -2]))


@st.composite
def factors(draw):
    """One backend and 1-3 matrices: dense (plain ints mixed in), all zero,
    identity or permutation."""
    backend = draw(backends)
    entry = with_ints(backend)
    out = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["dense", "zero", "identity", "permutation"]))
        if kind in ("dense", "zero"):
            p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            data = [draw(entry) if kind == "dense" else 0 for _ in range(p * q)]
        else:
            p = q = draw(st.integers(1, 3))
            perm = draw(st.permutations(range(p))) if kind == "permutation" else range(p)
            data = [1 if j == perm[i] else 0 for i in range(p) for j in range(p)]
        data[0] = backend.zero + data[0]  # an int-only factor would count as rational
        out.append(DenseMatrix(p, q, data))
    return out


def draw_vectors(draw, entry):
    return [[draw(entry) for _ in range(draw(st.integers(1, 3)))]
            for _ in range(draw(st.integers(1, 3)))]


@st.composite
def vectors(draw):
    """1-3 coordinate vectors of length 1-3 over one backend."""
    return draw_vectors(draw, SCALARS[draw(backends)])


@st.composite
def gram_tables(draw):
    """1-3 Gram tables of 1-3 rows and columns over one backend."""
    entry = SCALARS[draw(backends)]
    sizes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3))
    return [[[draw(entry) for _ in range(q)] for _ in range(p)] for p, q in sizes]


@st.composite
def maps_with_arguments(draw):
    """A multilinear map with 1-3 axes and target dimension 1-3 (plain ints
    mixed in), and its arguments over either exact backend."""
    entry = with_ints(draw(backends))
    xs = draw_vectors(draw, with_ints(draw(backends)))
    shape, t = Shape(tuple(len(x) for x in xs)), draw(st.integers(1, 3))
    return MultilinearMap(shape, t, [[draw(entry) for _ in range(t)] for _ in range(shape.size)]), xs


@PROPERTY
@given(factors())
def test_kron_matches_operator_entries(fs):
    op = KroneckerOperator(tuple(fs))
    dense = kron(fs)
    assert (dense.nrows, dense.ncols) == (op.nrows, op.ncols)
    for mu in op.row_shape.indices():
        for kappa in op.col_shape.indices():
            assert dense.at(op.row_shape.rank(mu), op.col_shape.rank(kappa)) == op.entry(mu, kappa)


@PROPERTY
@given(vectors())
def test_pure_coefficients_are_coordinate_products(xs):
    model = build_model(Shape(tuple(len(x) for x in xs)))
    t = pure(model, xs)
    for g in model.shape.indices():
        assert t.coeff(g) == product(x[i - 1] for x, i in zip(xs, g))


@PROPERTY
@given(gram_tables())
def test_product_form_gram_entries_are_factor_products(grams):
    forms = [ConjugateBilinearForm(len(g), len(g[0]), g) for g in grams]
    left, right = Shape([len(g) for g in grams]), Shape([len(g[0]) for g in grams])
    phi = product_form(forms, left, right)
    for alpha in left.indices():
        for beta in right.indices():
            want = product(g[a - 1][b - 1] for g, a, b in zip(grams, alpha, beta))
            assert phi.at(left.rank(alpha), right.rank(beta)) == want


@PROPERTY
@given(maps_with_arguments())
def test_evaluate_and_factored_match_brute_force_sum(f_xs):
    f, xs = f_xs
    want = [0] * f.target_dim
    for g in f.shape.indices():
        w = product(x[i - 1] for x, i in zip(xs, g))
        want = [s + w * v for s, v in zip(want, f.value_at(g))]
    assert evaluate(f, xs) == evaluate_factored(f, xs) == want


@PROPERTY
@given(factors(), backends, st.data())
def test_matvec_equals_the_dense_matvec(fs, vector_backend, data):
    """The vector's backend is drawn apart from the factors', so rational
    factors meet Gaussian vectors and the other way round."""
    op = KroneckerOperator(tuple(fs))
    x = [data.draw(with_ints(vector_backend)) for _ in range(op.ncols)]
    assert op.matvec(x) == op.materialize().matvec(x)


small_ints = st.sampled_from([0, 0, 0, 1, -1, 2, -3])


@PROPERTY
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3), st.data())
def test_int_inputs_give_int_outputs(sizes, data):
    op = KroneckerOperator(tuple(DenseMatrix(p, q, [data.draw(small_ints) for _ in range(p * q)])
                                 for p, q in sizes))
    x = [data.draw(small_ints) for _ in range(op.ncols)]
    y = op.matvec(x)
    assert all(type(v) is int for v in y) and y == op.materialize().matvec(x)
    f = MultilinearMap(op.col_shape, 2, [[data.draw(small_ints) for _ in range(2)]
                                         for _ in range(op.ncols)])
    xs = [[data.draw(small_ints) for _ in range(n)] for n in op.col_shape.dims]
    z = evaluate_factored(f, xs)
    assert all(type(v) is int for v in z) and z == evaluate(f, xs)


complex_entries = st.one_of(st.just(0j), st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)))


@PROPERTY
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3), st.data())
def test_complex_matvec_is_the_entry_sum(sizes, data):
    fs = [DenseMatrix(p, q, [data.draw(complex_entries) for _ in range(p * q)]) for p, q in sizes]
    op = KroneckerOperator(tuple(fs))
    x = [data.draw(complex_entries) for _ in range(op.ncols)]
    y = op.matvec(x)
    assert len(y) == op.nrows
    for got, mu in zip(y, op.row_shape.indices()):
        terms = [product(f.at(i, j) for f, i, j in zip(fs, mu, kappa)) * v
                 for kappa, v in zip(op.col_shape.indices(), x)]
        assert abs(got - sum(terms)) <= 1e-12 * max(abs(t) for t in terms)


F, G = Fraction, GaussianRational
MIXED = [
    ([[F(1, 2), F(1)], [F(0), F(3)]], [0.5j, 1], ["complex64", "rational"]),
    ([[G(1, 1), 0], [0, G(0, 2)]], [1.5, 2], ["complex64", "gaussian"]),
    ([[1j, 0], [0, 2.0]], [F(1, 3), 1], ["complex64", "rational"]),
    ([[1j, 0], [0, 2.0]], [G(0, 1), 1], ["complex64", "gaussian"]),
]


@pytest.mark.parametrize("rows, x, names", MIXED, ids=["rational-complex", "gaussian-float",
                                                     "complex-rational", "complex-gaussian"])
def test_contraction_refuses_mixed_backends(rows, x, names):
    m = DenseMatrix.from_rows(rows)
    with pytest.raises(ValueError, match=re.escape(str(names))):
        KroneckerOperator((m,)).matvec(x)
    with pytest.raises(ValueError, match=re.escape(str(names))):
        evaluate_factored(MultilinearMap(Shape((2,)), 2, rows), [x])


def test_ints_stay_neutral_in_the_contraction():
    assert KroneckerOperator((DenseMatrix.from_rows([[1j, 0], [0, 2.0]]),)).matvec([1, 2]) == [1j, 4.0]
    assert KroneckerOperator((DenseMatrix.from_rows([[1, 2]]),)).matvec([0.5, 1j]) == [0.5 + 2j]
    gauss = KroneckerOperator((DenseMatrix.from_rows([[F(1, 2), 1]]),)).matvec([G(1, 1), 2])
    assert gauss == [G(F(5, 2), F(1, 2))] and isinstance(gauss[0], GaussianRational)


def column_invariants(h):
    """Rows ascend within the codomain and no stored value is zero."""
    for col in h.columns:
        rows = [i for i, _ in col]
        assert rows == sorted(set(rows)) and all(0 <= i < h.codomain_dim for i in rows)
        assert all(v != 0 for _, v in col)


@PROPERTY
@given(maps_with_arguments(), st.data())
def test_universal_factor_columns_match_the_value_table(f_xs, data):
    f, xs = f_xs
    model = build_model(f.shape)
    h = universal_factor(model, f)
    column_invariants(h)
    m = h.matrix
    assert (m.nrows, m.ncols) == (f.target_dim, model.dim)
    for j, v in enumerate(f.values):
        assert m.col(j + 1) == list(v)
    entry = SCALARS[data.draw(backends)]
    x = [data.draw(entry) for _ in range(model.dim)]
    assert h.apply(x) == m.matvec(x)
    assert h.apply(pure(model, xs).coeffs) == evaluate(f, xs)


@st.composite
def subsets_of_shapes(draw):
    """A shape with 1-3 axes of length 1-4 and a nonempty subset per axis."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    return dims, [draw(st.sets(st.integers(1, n), min_size=1)) for n in dims]


@PROPERTY
@given(subsets_of_shapes(), backends, st.data())
def test_subspace_embedding_is_the_lex_selection_matrix(dims_subsets, backend, data):
    dims, subsets = dims_subsets
    model = build_model(Shape(tuple(dims)))
    sp = subspace_product(model, subsets)
    column_invariants(sp.embedding)
    picks = list(itertools.product(*(sorted(d) for d in subsets)))
    want = [0] * (model.dim * len(picks))
    for j, g in enumerate(picks):
        off = 0
        for v, n in zip(g, dims):
            off = off * n + v - 1
        want[off * len(picks) + j] = 1
    assert sp.embedding.matrix == DenseMatrix(model.dim, len(picks), want)
    x = [data.draw(SCALARS[backend]) for _ in picks]
    assert sp.embedding.apply(x) == sp.embedding.matrix.matvec(x)


@PROPERTY
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), backends, st.data())
def test_canonical_isomorphism_is_the_identity(dims, backend, data):
    shape = Shape(tuple(dims))
    t = canonical_isomorphism(build_model(shape), build_model(shape))
    assert t.matrix == DenseMatrix.identity(shape.size)
    x = [data.draw(SCALARS[backend]) for _ in range(shape.size)]
    assert t.apply(x) == x


def column_map(m):
    """The column form of a dense matrix, built entry by entry."""
    return LinearMap(m.ncols, m.nrows, tuple(
        tuple((i, m.at(i + 1, j + 1)) for i in range(m.nrows) if m.at(i + 1, j + 1) != 0)
        for j in range(m.ncols)))


@PROPERTY
@given(backends, st.data())
def test_compose_agrees_with_matmul(backend, data):
    entry = SCALARS[backend]
    p, q, r = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = DenseMatrix(p, q, [data.draw(entry) for _ in range(p * q)])
    b = DenseMatrix(q, r, [data.draw(entry) for _ in range(q * r)])
    outer, inner = column_map(a), column_map(b)
    assert outer.matrix == a and inner.matrix == b
    c = outer.compose(inner)
    column_invariants(c)
    assert c.matrix == a.matmul(b)
    x = [data.draw(entry) for _ in range(r)]
    assert c.apply(x) == outer.apply(inner.apply(x)) == a.matvec(b.matvec(x))


@PROPERTY
@given(backends, st.data())
def test_eval_form_on_a_sparse_gram_table_is_the_double_sum(backend, data):
    entry = SCALARS[backend]
    p, q = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    gram = [[data.draw(entry) for _ in range(q)] for _ in range(p)]
    a = [data.draw(entry) for _ in range(p)]
    b = [data.draw(entry) for _ in range(q)]
    want = 0
    for i in range(p):
        for j in range(q):
            want = want + a[i] * conj(b[j]) * gram[i][j]
    assert eval_form(ConjugateBilinearForm(p, q, gram), a, b) == want


@pytest.mark.parametrize("seed", [0, 7])
def test_every_oracle_suite_passes(seed):
    results = oracles.run_suites(seed=seed)
    assert len(results) == len(oracles.SUITES) == 18
    for name, passed, total in results:
        assert passed == total, (name, passed, total)
