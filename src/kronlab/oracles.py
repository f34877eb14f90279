"""Randomized consistency suites, each pitting an implementation against an
independently coded brute-force route.

Every suite takes a seeded ``random.Random`` and returns ``(passed, total)``
check counts, so the command line can rerun all of them reproducibly.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Dict, Tuple

from . import combinatorics, direct_sum, inner_product, kronecker, multilinear, tensor
from .index_space import OrderedSetPartition, Shape, induced_partition
from .matrices import DenseMatrix, inverse
from .scalars import COMPLEX, GAUSSIAN, RATIONAL, GaussianRational, conj


def _rand_vec(rng, n, backend=RATIONAL):
    return [backend.random(rng) for _ in range(n)]


def _rand_matrix(rng, p, q, backend=RATIONAL):
    return DenseMatrix.from_rows([[backend.random(rng) for _ in range(q)]
                                  for _ in range(p)])


def _rand_map(rng, shape, target_dim, backend=RATIONAL):
    rows = tuple(tuple(backend.random(rng) for _ in range(target_dim))
                 for _ in range(shape.size))
    return multilinear.MultilinearMap(shape, target_dim, rows)


def suite_scalar_conjugation(rng) -> Tuple[int, int]:
    """conj is an involutive field automorphism with a*conj(a) >= 0."""
    passed = total = 0
    for _ in range(100):
        a, b = GAUSSIAN.random(rng), GAUSSIAN.random(rng)
        checks = [
            conj(conj(a)) == a,
            conj(a + b) == conj(a) + conj(b),
            conj(a * b) == conj(a) * conj(b),
            (a * conj(a)).im == 0 and (a * conj(a)).re >= 0,
        ]
        passed += sum(checks)
        total += len(checks)
    return passed, total


def suite_field_axioms(rng) -> Tuple[int, int]:
    """Associativity, commutativity, distributivity on random triples."""
    passed = total = 0
    for backend in (RATIONAL, GAUSSIAN):
        for _ in range(100):
            a, b, c = (backend.random(rng) for _ in range(3))
            checks = [
                (a + b) + c == a + (b + c),
                (a * b) * c == a * (b * c),
                a + b == b + a,
                a * b == b * a,
                a * (b + c) == a * b + a * c,
            ]
            passed += sum(checks)
            total += len(checks)
    return passed, total


def suite_rank_unrank(rng) -> Tuple[int, int]:
    """rank/unrank against explicit lex enumeration."""
    passed = total = 0
    for dims in [(2, 3), (3, 4), (2, 2, 2), (4,), (2, 1, 3, 2)]:
        shape = Shape(dims)
        listing = list(shape.indices())
        for pos, g in enumerate(listing, start=1):
            ok = shape.rank(g) == pos and shape.unrank(pos) == g
            passed += ok
            total += 1
    return passed, total


def suite_multilinear_evaluation(rng) -> Tuple[int, int]:
    """evaluate and the factored evaluator against a direct loop."""
    passed = total = 0
    for dims, tdim in [((2, 3), 2), ((2, 2, 2), 3), ((3, 1, 2), 1)]:
        shape = Shape(dims)
        for _ in range(10):
            f = _rand_map(rng, shape, tdim)
            xs = [_rand_vec(rng, n) for n in dims]
            # independent route: iterate the index space explicitly
            expected = [Fraction(0)] * tdim
            for g in shape.indices():
                w = Fraction(1)
                for i, v in enumerate(g):
                    w *= xs[i][v - 1]
                row = f.value_at(g)
                expected = [e + w * s for e, s in zip(expected, row)]
            got = multilinear.evaluate(f, xs)
            fact = multilinear.evaluate_factored(f, xs)
            passed += (got == expected) + (fact == expected)
            total += 2
    return passed, total


def suite_basis_functionals(rng) -> Tuple[int, int]:
    """Coordinate-product formula for the basis functionals."""
    passed = total = 0
    shape = Shape((2, 2, 2))
    for alpha in shape.indices():
        phi = multilinear.basis_functional(shape, alpha)
        for _ in range(10):
            xs = [_rand_vec(rng, n) for n in shape.dims]
            want = Fraction(1)
            for i, v in enumerate(alpha):
                want *= xs[i][v - 1]
            passed += multilinear.evaluate(phi, xs) == [want]
            total += 1
    return passed, total


def check_product_sum_interchange(rows) -> bool:
    """Verify prod_i (sum_k a_ik) == sum over index tuples of prod_i a_i,g(i).

    Both sides are computed independently.
    """
    rows = [list(r) for r in rows]
    if not rows or any(not r for r in rows):
        raise ValueError("need at least one entry per row")
    return math.prod(sum(r, 0) for r in rows) == sum(
        math.prod(combo) for combo in itertools.product(*rows))


def suite_interchange(rng) -> Tuple[int, int]:
    """Product of row sums equals the sum of index-tuple products."""
    passed = total = 0
    for _ in range(200):
        m = rng.randint(1, 4)
        rows = [[RATIONAL.random(rng) for _ in range(rng.randint(1, 4))]
                for _ in range(m)]
        passed += check_product_sum_interchange(rows)
        total += 1
    return passed, total


def suite_pure_coefficients(rng) -> Tuple[int, int]:
    """Coefficients of homogeneous tensors are coordinate products."""
    passed = total = 0
    for dims in [(2, 2), (2, 3), (2, 2, 2)]:
        model = tensor.build_model(Shape(dims))
        for _ in range(10):
            xs = [_rand_vec(rng, n) for n in dims]
            t = tensor.pure(model, xs)
            ok = True
            for g in model.shape.indices():
                w = Fraction(1)
                for i, v in enumerate(g):
                    w *= xs[i][v - 1]
                ok = ok and t.coeff(g) == w
            passed += ok
            total += 1
    return passed, total


def suite_universal_factorization(rng) -> Tuple[int, int]:
    """The factored linear map reproduces multilinear evaluation."""
    passed = total = 0
    for dims in [(2, 3), (2, 2, 2)]:
        shape = Shape(dims)
        model = tensor.build_model(shape)
        for _ in range(20):
            phi = _rand_map(rng, shape, rng.randint(1, 3))
            h = tensor.universal_factor(model, phi)
            xs = [_rand_vec(rng, n) for n in dims]
            lhs = h.apply(tensor.pure(model, xs).coeffs)
            rhs = multilinear.evaluate(phi, xs)
            passed += lhs == rhs
            total += 1
    return passed, total


def suite_canonical_isomorphism(rng) -> Tuple[int, int]:
    """The basis correspondence inverts exactly."""
    passed = total = 0
    for dims in [(2, 2), (2, 3)]:
        m1 = tensor.build_model(Shape(dims))
        m2 = tensor.build_model(Shape(dims))
        t12 = tensor.canonical_isomorphism(m1, m2)
        ident = DenseMatrix.identity(m1.dim)
        passed += t12.matrix == ident
        passed += inverse(t12.matrix) == ident
        total += 2
    return passed, total


def suite_kron_entries(rng) -> Tuple[int, int]:
    """Lazy entries against the dense product."""
    passed = total = 0
    for _ in range(20):
        m = rng.randint(1, 3)
        factors = [_rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
                   for _ in range(m)]
        op = kronecker.KroneckerOperator(tuple(factors))
        dense = kronecker.kron(factors)
        ok = True
        for mu in op.row_shape.indices():
            for ka in op.col_shape.indices():
                ok = ok and op.entry(mu, ka) == dense.at(op.row_shape.rank(mu),
                                                         op.col_shape.rank(ka))
        passed += ok
        total += 1
    return passed, total


def suite_kron_matvec(rng) -> Tuple[int, int]:
    """Lazy application against dense matrix-vector products."""
    passed = total = 0
    for _ in range(20):
        m = rng.randint(1, 3)
        factors = [_rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
                   for _ in range(m)]
        op = kronecker.KroneckerOperator(tuple(factors))
        dense = op.materialize()
        for _ in range(5):
            x = _rand_vec(rng, op.ncols)
            passed += op.matvec(x) == dense.matvec(x)
            total += 1
    return passed, total


def suite_factorized_product(rng) -> Tuple[int, int]:
    """Universal-factorization matrix product against a triple loop."""
    passed = total = 0
    for _ in range(30):
        p, q, s = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        a = _rand_matrix(rng, p, q)
        b = _rand_matrix(rng, q, s)
        got = kronecker.factorized_matrix_product(a, b)
        want = [[sum((a.at(i, k) * b.at(k, j) for k in range(1, q + 1)), Fraction(0))
                 for j in range(1, s + 1)] for i in range(1, p + 1)]
        passed += got == DenseMatrix.from_rows(want)
        total += 1
    return passed, total


def suite_inner_factorization(rng) -> Tuple[int, int]:
    """Product forms factorize on homogeneous tensors, exactly and in floats."""
    passed = total = 0
    lshape, rshape = Shape((2, 3)), Shape((2, 3))
    for backend in (GAUSSIAN, COMPLEX):
        factors = [inner_product.ConjugateBilinearForm(
            n, n, tuple(tuple(backend.random(rng) for _ in range(n)) for _ in range(n)))
            for n in lshape.dims]
        phi = inner_product.product_form(factors, lshape, rshape)
        lmodel = tensor.build_model(lshape)
        rmodel = tensor.build_model(rshape)
        for _ in range(40):
            xs = [_rand_vec(rng, n, backend) for n in lshape.dims]
            ys = [_rand_vec(rng, n, backend) for n in rshape.dims]
            lhs = inner_product.eval_form(phi, tensor.pure(lmodel, xs).coeffs,
                                          tensor.pure(rmodel, ys).coeffs)
            rhs = 1
            for i, f in enumerate(factors):
                rhs = rhs * inner_product.eval_form(f, xs[i], ys[i])
            if backend.exact:
                passed += lhs == rhs
            else:
                passed += abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
            total += 1
    return passed, total


def suite_inner_positivity(rng) -> Tuple[int, int]:
    """The orthonormal inner product is positive definite."""
    passed = total = 0
    shape = Shape((2, 3))
    ip = inner_product.induced_inner_product(shape)
    model = tensor.build_model(shape)
    for _ in range(50):
        coeffs = [GAUSSIAN.random(rng) for _ in range(model.dim)]
        if all(v == 0 for v in coeffs):
            coeffs[0] = GaussianRational(1)
        v = ip.eval(coeffs, coeffs)
        passed += v.im == 0 and v.re > 0
        total += 1
    zero = [GaussianRational(0)] * model.dim
    passed += ip.eval(zero, zero) == 0
    total += 1
    return passed, total


def suite_direct_sum_reassembly(rng) -> Tuple[int, int]:
    """Projections embed back and sum to the original tensor."""
    passed = total = 0
    model = tensor.build_model(Shape((3, 4)))
    parts = [OrderedSetPartition(3, [[1, 3], [2]]),
             OrderedSetPartition(4, [[2, 4], [1, 3]])]
    d = direct_sum.decompose(model, parts)
    for _ in range(20):
        t = tensor.Tensor(model, tuple(_rand_vec(rng, model.dim)))
        passed += direct_sum.reassemble(d, t).coeffs == t.coeffs
        total += 1
    return passed, total


def suite_block_support(rng) -> Tuple[int, int]:
    """Kronecker support stays inside the labeled block rectangle."""
    passed = total = 0
    lab = direct_sum.support_example()
    for _ in range(10):
        f1 = DenseMatrix.from_rows([[RATIONAL.random(rng)], [0]])
        f2 = _rand_matrix(rng, 2, 2)
        f3 = DenseMatrix.from_rows([[RATIONAL.random(rng), 0]])
        f4 = _rand_matrix(rng, 2, 2)
        dense = kronecker.kron([f1, f2, f3, f4])
        ok = True
        for mu in lab.row_shape.indices():
            for ka in lab.col_shape.indices():
                v = dense.at(lab.row_shape.rank(mu), lab.col_shape.rank(ka))
                if lab.label(mu, ka) != "a" and v != 0:
                    ok = False
        passed += ok
        total += 1
    return passed, total


def suite_combinatorial_counts(rng) -> Tuple[int, int]:
    """Enumeration sizes against the closed-form counts."""
    passed = total = 0
    for n in range(0, 7):
        for p in range(0, 7):
            for cls in ("SNC", "WNC", "INJ"):
                got = len(combinatorics.enumerate_functions(cls, n, p))
                passed += got == combinatorics.count_functions(cls, n, p)
                total += 1
    for n in range(0, 7):
        got = len(combinatorics.enumerate_functions("PER", n, n))
        passed += got == combinatorics.count_functions("PER", n, n)
        total += 1
    for n in range(1, 8):
        parts = combinatorics.enumerate_partitions(n)
        passed += len(parts) == combinatorics.bell(n)
        total += 1
        for k in range(1, n + 1):
            got = sum(1 for q in parts if q.block_count == k)
            passed += got == combinatorics.stirling2(n, k)
            total += 1
    return passed, total


def suite_covering_relation(rng) -> Tuple[int, int]:
    """Covers are strict refinements with nothing strictly between."""
    passed = total = 0
    for n in (2, 3, 4):
        parts = combinatorics.enumerate_partitions(n)
        edges = set()
        for x, y in combinatorics.covering_edges(n):
            edges.add((x, y))
            strict = combinatorics.refines(x, y) and x != y
            between = any(combinatorics.refines(x, z) and combinatorics.refines(z, y)
                          and z not in (x, y) for z in parts)
            passed += strict and not between
            total += 1
        # betweenness route: every strict pair with empty interior is an edge
        for x, y in itertools.permutations(parts, 2):
            if not combinatorics.refines(x, y):
                continue
            between = any(combinatorics.refines(x, z) and combinatorics.refines(z, y)
                          and z not in (x, y) for z in parts)
            passed += ((x, y) in edges) == (not between)
            total += 1
    return passed, total


SUITES: Dict[str, Callable] = {
    "scalar_conjugation": suite_scalar_conjugation,
    "field_axioms": suite_field_axioms,
    "rank_unrank": suite_rank_unrank,
    "multilinear_evaluation": suite_multilinear_evaluation,
    "basis_functionals": suite_basis_functionals,
    "interchange": suite_interchange,
    "pure_coefficients": suite_pure_coefficients,
    "universal_factorization": suite_universal_factorization,
    "canonical_isomorphism": suite_canonical_isomorphism,
    "kron_entries": suite_kron_entries,
    "kron_matvec": suite_kron_matvec,
    "factorized_product": suite_factorized_product,
    "inner_factorization": suite_inner_factorization,
    "inner_positivity": suite_inner_positivity,
    "direct_sum_reassembly": suite_direct_sum_reassembly,
    "block_support": suite_block_support,
    "combinatorial_counts": suite_combinatorial_counts,
    "covering_relation": suite_covering_relation,
}


def run_suites(names=None, seed: int = 0) -> list:
    """Run suites by name (all when omitted); returns (name, passed, total)."""
    if names is None:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown oracle suite {name!r}; choose from {sorted(SUITES)}")
        rng = random.Random(seed)
        passed, total = SUITES[name](rng)
        results.append((name, passed, total))
    return results
