import itertools
import random
from fractions import Fraction

import pytest

from kronlab.index_space import Shape
from kronlab.matrices import DenseMatrix, inverse
from kronlab.multilinear import MultilinearMap, basis_functional, evaluate
from kronlab.scalars import RATIONAL
from kronlab.tensor import (LinearMap, NuTable, Tensor, build_model,
                            canonical_isomorphism, dual_eval, matrix_of, pure,
                            regroup, subspace_product, universal_factor,
                            verify_tensor_product, zero_tensor)

# images of the four basis pairs under column-times-row multiplication,
# as coordinates in the 2x2 matrix space (row-major)
INTRO_TABLE = NuTable(Shape((2, 2)), [
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
])


def rand_vec(rng, n):
    return [RATIONAL.random(rng) for _ in range(n)]


def rand_map(rng, shape, tdim):
    rows = tuple(tuple(RATIONAL.random(rng) for _ in range(tdim))
                 for _ in range(shape.size))
    return MultilinearMap(shape, tdim, rows)


def det_by_permutation_expansion(rows):
    """Independent determinant: the Leibniz sum over permutations."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i, j in itertools.combinations(range(n), 2):
            if perm[i] > perm[j]:
                sign = -sign
        term = Fraction(sign)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def test_model_dimensions():
    assert build_model(Shape((2, 2))).dim == 4
    assert build_model(Shape((5,))).dim == 5
    assert build_model(Shape((2, 3, 2))).dim == 12


def test_pure_symbolic_golden():
    a, b, c, d = (Fraction(v) for v in (2, -3, 5, 7))
    t = pure(build_model(Shape((2, 2))), [[a, b], [c, d]])
    assert t.coeffs == (a * c, a * d, b * c, b * d)


def test_pure_numeric_golden():
    t = pure(build_model(Shape((2, 2))), [[1, 2], [3, 4]])
    assert t.coeffs == (3, 4, 6, 8)


def test_pure_zero_factor():
    t = pure(build_model(Shape((2, 2))), [[0, 0], [3, 4]])
    assert t.is_zero()


def test_pure_dimension_mismatch():
    with pytest.raises(ValueError):
        pure(build_model(Shape((2, 2))), [[1, 2, 3], [3, 4]])
    with pytest.raises(ValueError):
        pure(build_model(Shape((2, 2))), [[1, 2]])


def test_pure_is_multilinear():
    rng = random.Random(31)
    model = build_model(Shape((2, 3)))
    for slot in (0, 1):
        for _ in range(10):
            xs = [rand_vec(rng, n) for n in model.shape.dims]
            ys = rand_vec(rng, model.shape.dims[slot])
            a, b = RATIONAL.random(rng), RATIONAL.random(rng)
            mixed = list(xs)
            mixed[slot] = [a * u + b * v for u, v in zip(xs[slot], ys)]
            alt = list(xs)
            alt[slot] = ys
            lhs = pure(model, mixed)
            rhs = pure(model, xs).scale(a) + pure(model, alt).scale(b)
            assert lhs.coeffs == rhs.coeffs


def test_basis_tensors_form_the_identity():
    model = build_model(Shape((2, 3)))
    rows = []
    for g in model.shape.indices():
        xs = [[1 if k == g[i] else 0 for k in range(1, n + 1)]
              for i, n in enumerate(model.shape.dims)]
        rows.append(pure(model, xs).coeffs)
    assert DenseMatrix.from_rows(rows) == DenseMatrix.identity(model.dim)


def test_verify_accepts_the_intro_table():
    verdict = verify_tensor_product(INTRO_TABLE)
    assert verdict.is_tensor_product
    assert verdict.failed_criterion is None


def test_verify_rejects_duplicate_rows_with_witness():
    rows = [(1, 0, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    verdict = verify_tensor_product(NuTable(Shape((2, 2)), rows))
    assert not verdict.is_tensor_product
    assert verdict.failed_criterion == "independence"
    w = verdict.witness
    assert w is not None and any(c != 0 for c in w)
    combo = [sum(c * r[j] for c, r in zip(w, rows)) for j in range(4)]
    assert all(v == 0 for v in combo)


def test_verify_rejects_wrong_ambient_dimension():
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    verdict = verify_tensor_product(NuTable(Shape((2, 2)), rows))
    assert not verdict.is_tensor_product
    assert verdict.failed_criterion == "dimension"


def test_verify_random_invertible_tables():
    rng = random.Random(32)
    n = 0
    while n < 10:
        rows = [[RATIONAL.random(rng) for _ in range(4)] for _ in range(4)]
        if det_by_permutation_expansion(rows) == 0:
            continue
        n += 1
        assert verify_tensor_product(NuTable(Shape((2, 2)), rows)).is_tensor_product


def test_verify_stated_dimension_must_match_rows():
    with pytest.raises(ValueError):
        verify_tensor_product(INTRO_TABLE, ambient_dim=5)


def test_universal_factor_of_basis_functional_is_a_coordinate_functional():
    shape = Shape((2, 3))
    model = build_model(shape)
    for alpha in shape.indices():
        h = universal_factor(model, basis_functional(shape, alpha))
        want = [[1 if j == shape.rank(alpha) else 0 for j in range(1, model.dim + 1)]]
        assert h.matrix == DenseMatrix.from_rows(want)


def test_universal_factorization_agreement():
    rng = random.Random(33)
    for dims in [(2, 3), (2, 2, 2)]:
        shape = Shape(dims)
        model = build_model(shape)
        for _ in range(10):
            phi = rand_map(rng, shape, rng.randint(1, 3))
            h = universal_factor(model, phi)
            # agreement on every basis tensor
            for g in shape.indices():
                assert h.apply(model.basis_tensor(g).coeffs) == list(phi.value_at(g))
            for _ in range(5):
                xs = [rand_vec(rng, n) for n in dims]
                assert h.apply(pure(model, xs).coeffs) == evaluate(phi, xs)


def test_universal_factor_uniqueness_on_basis():
    # a linear map is pinned down by its values on the basis tensors: any
    # map agreeing with the factored one there has the identical matrix
    rng = random.Random(34)
    shape = Shape((2, 2))
    model = build_model(shape)
    phi = rand_map(rng, shape, 2)
    h = universal_factor(model, phi)
    images = [h.apply(model.basis_tensor(g).coeffs) for g in shape.indices()]
    rebuilt = matrix_of(images)
    assert rebuilt == h.matrix


def test_universal_factor_shape_mismatch():
    with pytest.raises(ValueError):
        universal_factor(build_model(Shape((2, 2))),
                         basis_functional(Shape((2, 3)), (1, 1)))


def test_canonical_isomorphism_is_the_identity_matrix():
    m1 = build_model(Shape((2, 2)))
    m2 = build_model(Shape((2, 2)))
    t = canonical_isomorphism(m1, m2)
    assert t.matrix == DenseMatrix.identity(4)
    assert canonical_isomorphism(m1, m1).matrix == DenseMatrix.identity(4)


def test_canonical_isomorphism_composes_with_its_inverse():
    m1 = build_model(Shape((2, 3)))
    m2 = build_model(Shape((2, 3)))
    t = canonical_isomorphism(m1, m2)
    back = inverse(t.matrix)
    assert t.matrix.matmul(back) == DenseMatrix.identity(6)


def test_linear_map_columns_are_validated():
    h = LinearMap(2, 3, (((0, 5), (2, -1)), ()))
    assert h.matrix == DenseMatrix.from_rows([[5, 0], [0, 0], [-1, 0]])
    assert h.apply([2, 7]) == [10, 0, -2]
    with pytest.raises(ValueError, match="vector length 1 != 2 columns"):
        h.apply([1])
    for columns in [((),), (((0, 1),), ((3, 1),)), (((1, 1), (0, 1)), ()),
                    (((0, 1), (0, 2)), ()), (((-1, 1),), ())]:
        with pytest.raises(ValueError):
            LinearMap(2, 3, columns)


def test_canonical_isomorphism_shape_mismatch():
    with pytest.raises(ValueError):
        canonical_isomorphism(build_model(Shape((2, 2))), build_model(Shape((4,))))


def test_subspace_product_full_sets_embed_as_identity():
    model = build_model(Shape((2, 3)))
    sp = subspace_product(model, [{1, 2}, {1, 2, 3}])
    assert sp.model.shape == model.shape
    assert sp.embedding.matrix == DenseMatrix.identity(6)


def test_subspace_product_golden():
    model = build_model(Shape((3, 4)))
    sp = subspace_product(model, [{1, 3}, {2, 4}])
    assert sp.model.dim == 4
    # the sub-basis embeds onto the parent basis tensors of the block
    targets = [(1, 2), (1, 4), (3, 2), (3, 4)]
    for j, g in enumerate(targets, start=1):
        col = sp.embedding.matrix.col(j)
        want = [0] * model.dim
        want[model.shape.offset(g)] = 1
        assert col == want


def test_subspace_product_restricts_pure_tensors():
    rng = random.Random(35)
    model = build_model(Shape((3, 4)))
    sp = subspace_product(model, [{1, 3}, {2, 4}])
    for _ in range(10):
        xs_sub = [rand_vec(rng, 2), rand_vec(rng, 2)]
        # extend by zero onto the parent axes
        ext = [[0] * n for n in model.shape.dims]
        for i, sel in enumerate(sp.selected):
            for k, v in zip(sel, xs_sub[i]):
                ext[i][k - 1] = v
        lhs = sp.embedding.apply(pure(sp.model, xs_sub).coeffs)
        rhs = pure(model, ext).coeffs
        assert lhs == list(rhs)


def test_subspace_product_rejects_empty_subset():
    with pytest.raises(ValueError):
        subspace_product(build_model(Shape((2, 2))), [set(), {1}])
    with pytest.raises(ValueError):
        subspace_product(build_model(Shape((2, 2))), [{1, 5}, {1}])


def test_dual_eval_basis_pairing():
    shape = Shape((2, 2))
    model = build_model(shape)
    for gamma in shape.indices():
        for alpha in shape.indices():
            v = dual_eval(model, model.basis_tensor(gamma),
                          basis_functional(shape, alpha))
            assert v == (1 if alpha == gamma else 0)


def test_dual_eval_golden():
    shape = Shape((2, 2))
    model = build_model(shape)
    t = pure(model, [[1, 2], [3, 4]])
    assert dual_eval(model, t, basis_functional(shape, (2, 1))) == 6


def test_dual_eval_agrees_with_evaluation_on_pure_tensors():
    rng = random.Random(36)
    shape = Shape((2, 3))
    model = build_model(shape)
    for _ in range(30):
        phi = rand_map(rng, shape, 1)
        xs = [rand_vec(rng, n) for n in shape.dims]
        assert dual_eval(model, pure(model, xs), phi) == evaluate(phi, xs)[0]


def test_dual_eval_is_bilinear_coefficientwise():
    rng = random.Random(37)
    shape = Shape((2, 2))
    model = build_model(shape)
    phi1, phi2 = rand_map(rng, shape, 1), rand_map(rng, shape, 1)
    t1 = Tensor(model, tuple(rand_vec(rng, model.dim)))
    t2 = Tensor(model, tuple(rand_vec(rng, model.dim)))
    a, b = RATIONAL.random(rng), RATIONAL.random(rng)
    assert dual_eval(model, t1.scale(a) + t2.scale(b), phi1) == \
        a * dual_eval(model, t1, phi1) + b * dual_eval(model, t2, phi1)
    summed = MultilinearMap(shape, 1, tuple((r1[0] + r2[0],) for r1, r2
                                            in zip(phi1.values, phi2.values)))
    assert dual_eval(model, t1, summed) == \
        dual_eval(model, t1, phi1) + dual_eval(model, t1, phi2)


def test_dual_eval_requires_scalar_valued_map():
    rng = random.Random(38)
    shape = Shape((2, 2))
    model = build_model(shape)
    with pytest.raises(ValueError):
        dual_eval(model, zero_tensor(model), rand_map(rng, shape, 2))


def test_regroup_split_golden():
    r = regroup(build_model(Shape((2, 2, 2))), 1)
    assert r.split((2, 1, 2)) == ((2,), (1, 2))
    assert r.join((2,), (1, 2)) == (2, 1, 2)


def test_regroup_is_order_preserving_exhaustively():
    model = build_model(Shape((2, 2, 2)))
    for p in (1, 2):
        r = regroup(model, p)
        for g in model.shape.indices():
            assert r.pair_rank(g) == model.shape.rank(g)


def test_regroup_identifies_pure_tensor_coefficients():
    rng = random.Random(39)
    model = build_model(Shape((2, 3, 2)))
    r = regroup(model, 1)
    right_model = build_model(r.right_shape)
    pair_model = build_model(r.pair_shape)
    for _ in range(10):
        xs = [rand_vec(rng, n) for n in model.shape.dims]
        flat = pure(model, xs).coeffs
        nested = pure(pair_model, [xs[0], pure(right_model, xs[1:]).coeffs])
        assert nested.coeffs == flat


def test_regroup_out_of_range():
    model = build_model(Shape((2, 2)))
    with pytest.raises(ValueError):
        regroup(model, 0)
    with pytest.raises(ValueError):
        regroup(model, 2)


def test_matrix_of_worked_example():
    # images of the two domain basis vectors in a three-dimensional codomain
    m = matrix_of([[2, 3, -1], [1, 5, 1]])
    assert m == DenseMatrix.from_rows([[2, 1], [3, 5], [-1, 1]])


def test_matrix_of_identity():
    m = matrix_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert m == DenseMatrix.identity(3)


def test_matrix_of_composition_is_the_matrix_product():
    rng = random.Random(40)
    for _ in range(10):
        t_img = [[RATIONAL.random(rng) for _ in range(3)] for _ in range(2)]
        s_img = [[RATIONAL.random(rng) for _ in range(2)] for _ in range(3)]
        mt = matrix_of(t_img)   # 3x2
        ms = matrix_of(s_img)   # 2x3
        composed = [ms.matvec(col) for col in t_img]
        assert matrix_of(composed) == ms.matmul(mt)


def test_matrix_of_ragged_images_rejected():
    with pytest.raises(ValueError):
        matrix_of([[1, 2], [1]])


def test_tensor_validation_and_arithmetic():
    model = build_model(Shape((2, 2)))
    with pytest.raises(ValueError):
        Tensor(model, (1, 2, 3))
    t = pure(model, [[1, 2], [3, 4]])
    assert (t - t).is_zero()
    other = build_model(Shape((4,)))
    with pytest.raises(ValueError):
        t + zero_tensor(other)
