import itertools
import random
from fractions import Fraction

import pytest

from kronlab.index_space import Shape
from kronlab.multilinear import (MultilinearMap, basis_functional, component,
                                 evaluate, evaluate_factored, from_values)
from kronlab.oracles import check_product_sum_interchange
from kronlab.scalars import RATIONAL

# value tables of the two 2x3 layout maps: each basis pair goes to one
# standard matrix unit of the 2x3 target, row-major coordinates
LAYOUT_TABLE = {g: tuple(1 if k == i else 0 for k in range(6))
                for i, g in enumerate(Shape((2, 3)).indices())}
# the permuted correspondence ((1,3) and (2,1) swap targets)
PERMUTED_TABLE = dict(LAYOUT_TABLE)
PERMUTED_TABLE[(1, 3)], PERMUTED_TABLE[(2, 1)] = (
    PERMUTED_TABLE[(2, 1)], PERMUTED_TABLE[(1, 3)])


def rand_vec(rng, n):
    return [RATIONAL.random(rng) for _ in range(n)]


def brute_force_evaluate(f, xs):
    out = [Fraction(0)] * f.target_dim
    for g in f.shape.indices():
        w = Fraction(1)
        for i, v in enumerate(g):
            w *= xs[i][v - 1]
        out = [o + w * s for o, s in zip(out, f.value_at(g))]
    return out


def test_from_values_with_mapping():
    f = from_values(Shape((2, 3)), 6, LAYOUT_TABLE)
    assert f.values[0] == (1, 0, 0, 0, 0, 0)
    assert f.value_at((2, 3)) == (0, 0, 0, 0, 0, 1)


def test_from_values_zero_map():
    f = from_values(Shape((2, 2)), 3, {g: (0, 0, 0) for g in Shape((2, 2)).indices()})
    assert all(v == (0, 0, 0) for v in f.values)


def test_from_values_missing_or_extra_index():
    table = dict(LAYOUT_TABLE)
    del table[(1, 2)]
    with pytest.raises(ValueError):
        from_values(Shape((2, 3)), 6, table)
    table = dict(LAYOUT_TABLE)
    table[(9, 9)] = (0,) * 6
    with pytest.raises(ValueError):
        from_values(Shape((2, 3)), 6, table)


def test_value_rows_must_match_target_dim():
    with pytest.raises(ValueError):
        MultilinearMap(Shape((2,)), 2, ((1, 0), (0,)))


def test_evaluate_layout_map_rows():
    # the nice correspondence lays the products out row by row:
    # row i of a 2x3 matrix is c_{1i} * (c_21, c_22, c_23)
    f = from_values(Shape((2, 3)), 6, LAYOUT_TABLE)
    c1 = [Fraction(2), Fraction(-3)]
    c2 = [Fraction(5), Fraction(7), Fraction(-1)]
    got = evaluate(f, [c1, c2])
    want = [c1[0] * c2[0], c1[0] * c2[1], c1[0] * c2[2],
            c1[1] * c2[0], c1[1] * c2[1], c1[1] * c2[2]]
    assert got == want


def test_evaluate_permuted_map_rows():
    # the permuted correspondence scrambles the layout
    f = from_values(Shape((2, 3)), 6, PERMUTED_TABLE)
    c1 = [Fraction(2), Fraction(-3)]
    c2 = [Fraction(5), Fraction(7), Fraction(-1)]
    got = evaluate(f, [c1, c2])
    want = [c1[0] * c2[0], c1[0] * c2[1], c1[1] * c2[0],
            c1[0] * c2[2], c1[1] * c2[1], c1[1] * c2[2]]
    assert got == want


def test_zero_slot_gives_zero_output():
    f = from_values(Shape((2, 3)), 6, LAYOUT_TABLE)
    out = evaluate(f, [[0, 0], [1, 2, 3]])
    assert all(v == 0 for v in out)


def test_evaluate_matches_brute_force_and_factored():
    rng = random.Random(21)
    for dims, tdim in [((2, 3), 2), ((2, 2, 2), 1), ((3, 2), 4)]:
        shape = Shape(dims)
        for _ in range(10):
            rows = tuple(tuple(RATIONAL.random(rng) for _ in range(tdim))
                         for _ in range(shape.size))
            f = MultilinearMap(shape, tdim, rows)
            xs = [rand_vec(rng, n) for n in dims]
            want = brute_force_evaluate(f, xs)
            assert evaluate(f, xs) == want
            assert evaluate_factored(f, xs) == want


def test_evaluate_dimension_mismatch():
    f = from_values(Shape((2, 3)), 6, LAYOUT_TABLE)
    with pytest.raises(ValueError):
        evaluate(f, [[1, 2]])
    with pytest.raises(ValueError):
        evaluate(f, [[1, 2], [1, 2]])


def test_multilinearity_in_every_slot():
    rng = random.Random(22)
    shape = Shape((2, 2, 2))
    rows = tuple(tuple(RATIONAL.random(rng) for _ in range(2))
                 for _ in range(shape.size))
    f = MultilinearMap(shape, 2, rows)
    for slot in range(3):
        for _ in range(5):
            xs = [rand_vec(rng, n) for n in shape.dims]
            ys = rand_vec(rng, shape.dims[slot])
            a, b = RATIONAL.random(rng), RATIONAL.random(rng)
            mixed = list(xs)
            mixed[slot] = [a * u + b * v for u, v in zip(xs[slot], ys)]
            lhs = evaluate(f, mixed)
            with_x = evaluate(f, xs)
            alt = list(xs)
            alt[slot] = ys
            with_y = evaluate(f, alt)
            rhs = [a * u + b * v for u, v in zip(with_x, with_y)]
            assert lhs == rhs


def test_agreement_on_basis_tuples():
    rng = random.Random(23)
    shape = Shape((2, 3))
    rows = tuple(tuple(RATIONAL.random(rng) for _ in range(3))
                 for _ in range(shape.size))
    f = MultilinearMap(shape, 3, rows)
    for g in shape.indices():
        xs = [[1 if k == g[i] else 0 for k in range(1, n + 1)]
              for i, n in enumerate(shape.dims)]
        assert evaluate(f, xs) == list(f.value_at(g))


def test_basis_functional_delta():
    shape = Shape((2, 3))
    phi = basis_functional(shape, (1, 2))
    assert evaluate(phi, [[1, 0], [0, 1, 0]]) == [1]
    assert evaluate(phi, [[0, 1], [0, 1, 0]]) == [0]


def test_basis_functional_is_a_coordinate_product():
    rng = random.Random(24)
    shape = Shape((2, 2, 2))
    for alpha in shape.indices():
        phi = basis_functional(shape, alpha)
        for _ in range(50):
            xs = [rand_vec(rng, n) for n in shape.dims]
            want = Fraction(1)
            for i, v in enumerate(alpha):
                want *= xs[i][v - 1]
            assert evaluate(phi, xs) == [want]


def test_basis_functional_invalid_alpha():
    with pytest.raises(ValueError):
        basis_functional(Shape((2, 3)), (3, 1))


def test_basis_functionals_linearly_independent():
    # a combination vanishing on all basis tuples has zero coefficients
    rng = random.Random(25)
    shape = Shape((2, 2))
    coeffs = {alpha: RATIONAL.random(rng) for alpha in shape.indices()}
    for g in shape.indices():
        xs = [[1 if k == g[i] else 0 for k in range(1, n + 1)]
              for i, n in enumerate(shape.dims)]
        combo = sum(c * evaluate(basis_functional(shape, alpha), xs)[0]
                    for alpha, c in coeffs.items())
        assert combo == coeffs[g]


def test_expand_of_basis_functional_is_a_unit_table():
    shape = Shape((2, 2))
    beta = (2, 1)
    table = basis_functional(shape, beta).values
    for g, row in zip(shape.indices(), table):
        assert row == ((1,) if g == beta else (0,))


def test_expand_of_zero_map_is_zero():
    shape = Shape((2, 2))
    zero = from_values(shape, 2, {g: (0, 0) for g in shape.indices()})
    assert all(row == (0, 0) for row in zero.values)


def test_expansion_reconstructs_the_map():
    rng = random.Random(26)
    shape = Shape((2, 2))
    rows = tuple(tuple(RATIONAL.random(rng) for _ in range(3))
                 for _ in range(shape.size))
    f = MultilinearMap(shape, 3, rows)
    g = from_values(shape, 3, f.values)
    assert g.values == f.values
    for _ in range(10):
        xs = [rand_vec(rng, n) for n in shape.dims]
        assert evaluate(f, xs) == evaluate(g, xs)


def test_component_values():
    f = from_values(Shape((2, 3)), 6, LAYOUT_TABLE)
    c1 = component(f, 1)
    for g in Shape((2, 3)).indices():
        assert c1.value_at(g) == ((1,) if g == (1, 1) else (0,))


def test_components_of_zero_map():
    shape = Shape((2, 2))
    zero = from_values(shape, 3, {g: (0, 0, 0) for g in shape.indices()})
    for j in (1, 2, 3):
        assert all(v == (0,) for v in component(zero, j).values)


def test_components_recombine():
    rng = random.Random(27)
    shape = Shape((2, 3))
    rows = tuple(tuple(RATIONAL.random(rng) for _ in range(3))
                 for _ in range(shape.size))
    f = MultilinearMap(shape, 3, rows)
    comps = [component(f, j) for j in (1, 2, 3)]
    for _ in range(10):
        xs = [rand_vec(rng, n) for n in shape.dims]
        whole = evaluate(f, xs)
        parts = [evaluate(c, xs)[0] for c in comps]
        assert parts == whole


def test_component_out_of_range():
    f = from_values(Shape((2, 3)), 6, LAYOUT_TABLE)
    with pytest.raises(ValueError):
        component(f, 0)
    with pytest.raises(ValueError):
        component(f, 7)


def test_interchange_golden():
    rows = [[1, 2], [3, 4]]
    lhs = (1 + 2) * (3 + 4)
    rhs = sum(a * b for a, b in itertools.product(*rows))
    assert lhs == rhs == 21
    assert check_product_sum_interchange(rows)


def test_interchange_with_zero_row():
    assert check_product_sum_interchange([[0, 0, 0], [1, 2]])


def test_interchange_random_tables():
    rng = random.Random(28)
    for _ in range(200):
        m = rng.randint(1, 4)
        rows = [[RATIONAL.random(rng) for _ in range(rng.randint(1, 4))]
                for _ in range(m)]
        assert check_product_sum_interchange(rows)
