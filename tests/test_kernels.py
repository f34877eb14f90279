"""Properties of the two Kronecker-shaped kernels (lex products and axis
contraction), exercised through every public caller, on inputs with many
zeros: identity and permutation factors, zero prefixes, zero rows.  Also
the column form of linear maps (factored maps, embeddings, the canonical
isomorphism, composition) and sparse Gram tables, and every randomized
oracle suite."""

import itertools
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


@st.composite
def factors(draw):
    """One backend and 1-3 matrices: dense, identity or permutation."""
    backend = draw(backends)
    entry = SCALARS[backend]
    out = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["dense", "identity", "permutation"]))
        if kind == "dense":
            p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            out.append(DenseMatrix(p, q, [draw(entry) for _ in range(p * q)]))
            continue
        n = draw(st.integers(1, 3))
        perm = draw(st.permutations(range(n))) if kind == "permutation" else range(n)
        out.append(DenseMatrix(n, n, [backend.one if j == perm[i] else backend.zero
                                      for i in range(n) for j in range(n)]))
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
    """A multilinear map with 1-3 axes and target dimension 1-3, and its arguments."""
    entry = SCALARS[draw(backends)]
    xs = draw_vectors(draw, entry)
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
