"""The three in-process workloads: ``contract``, ``eliminate``, ``structured``.

Each ``*_round(rng)`` returns one round: a fixed list of ops per backend
whose sizes never change and whose values come from ``rng``.  The closed
loop in ``run.py`` always finishes a round, so every run sees the same mix.
Sizes differ per backend on purpose (gaussian smaller, complex64 larger),
so the per-backend rates compare across commits, not across backends.

Ops look library functions up through their module at call time, so that
the traced run sees the calls once it has wrapped the module attributes.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from kronlab import (direct_sum, index_space, inner_product, kronecker,
                     matrices, multilinear, tensor)

from common import (Op, canon, certified_rank, close, contract_rows, expect,
                    factor_data, freivalds, nonzero, np_kron_matvec, np_matrix, one,
                    outcome, scalar, vector, zero)

MIXED = ((3, 5), (5, 2), (4, 4), (2, 3))


def sq(*dims):
    return tuple((d, d) for d in dims)


def conj(v):
    return v.conjugate()


def lex_offset(g, dims) -> int:
    k = 0
    for v, d in zip(g, dims):
        k = k * d + (v - 1)
    return k


def exact_op(name, backend, run, check):
    """An op whose output also feeds the frozen digest on exact backends."""
    digestible = None if backend == "complex64" else (lambda out: canon(backend, out))
    return Op(name, backend, run, check, digestible)


# -- contract -------------------------------------------------------------------

# per backend: reused operators (each applied to REUSE vectors), fresh
# operators (built inside the op), dense kron factor lists, pure-tensor
# shapes, and multilinear map shapes with their target dimension
CONTRACT = {
    "rational": {
        "reused": [sq(4, 4, 4, 4, 4, 4), MIXED, sq(4, 4, 4, 4)],
        "fresh": [sq(*[2] * 12), sq(8, 8, 8, 8), sq(4, 4, 4, 4, 4), sq(8, 8, 8),
                  sq(*[2] * 8), MIXED],
        "kron": [sq(4, 4, 4), ((2, 3), (3, 2), (4, 4)), sq(8, 8)],
        "pure": [(8, 8, 8), (4, 4, 4, 4, 4)],
        "evaluate": [((4, 4, 4), 4), ((4, 4, 4, 4), 3)],
    },
    "gaussian": {
        "reused": [sq(4, 4, 4, 4), MIXED, sq(2, 2, 2, 2, 2, 2)],
        "fresh": [sq(*[2] * 8), sq(4, 4, 4, 4), sq(4, 4, 4), sq(8, 8), MIXED,
                  sq(3, 3, 3, 3)],
        "kron": [sq(4, 4), ((2, 3), (3, 2), (4, 4)), sq(2, 2, 2, 2)],
        "pure": [(4, 4, 4), (2, 2, 2, 2, 2, 2, 2, 2)],
        "evaluate": [((4, 4, 4), 2), ((3, 3, 3), 3)],
    },
    "complex64": {
        "reused": [sq(4, 4, 4, 4, 4, 4), sq(*[2] * 12), sq(16, 16, 16), MIXED],
        "fresh": [sq(8, 8, 8, 8), sq(4, 4, 4, 4, 4, 4, 4), sq(4, 4, 4, 4, 4, 4),
                  sq(*[2] * 12), sq(16, 16, 16), MIXED, sq(4, 4, 4, 4, 4)],
        "kron": [sq(4, 4, 4, 4), ((2, 3), (3, 2), (4, 4), (3, 3)), sq(16, 16)],
        "pure": [(8, 8, 8, 8), (4, 4, 4, 4, 4, 4)],
        "evaluate": [((4, 4, 4, 4), 4), ((8, 8, 8), 4)],
    },
}
REUSE = 3
FACTOR_KINDS = ("dense", "dense", "identity", "permutation", "diagonal")


def _factors(backend, rng, shape, start=0):
    """Factor kinds cycle through FACTOR_KINDS by position, from ``start``."""
    return tuple(matrices.DenseMatrix(p, q, factor_data(
        backend, rng, p, q, FACTOR_KINDS[(start + i) % len(FACTOR_KINDS)]))
        for i, (p, q) in enumerate(shape))


def _weights(rng, n):
    return [rng.randint(1, 1000) for _ in range(n)]


def _row_times(r, f):
    """``r^T F`` for a factor ``F``, written out here."""
    return [sum((r[i] * f.data[i * f.ncols + j] for i in range(f.nrows)), 0)
            for j in range(f.ncols)]


def _check_matvec(backend, factors, x, rng):
    """Exact backends: ``r . y == (r^T K) x`` for a random pure ``r`` with
    positive integer entries (Freivalds), so any single wrong entry shows;
    plus one ``KroneckerOperator.entry`` against the entry formula."""
    def check(y):
        expect(len(y) == _prod(f.nrows for f in factors), "matvec length")
        if backend == "complex64":
            expect(close(y, np_kron_matvec(factors, x)), "matvec differs from numpy")
            return
        rs = [_weights(rng, f.nrows) for f in factors]
        expect(freivalds(rs, y, [_row_times(r, f) for r, f in zip(rs, factors)], x),
               "matvec fails the random projection check")
        op = kronecker.KroneckerOperator(factors)
        mu = _unrank(rng.randrange(len(y)), [f.nrows for f in factors])
        kappa = _unrank(rng.randrange(len(x)), [f.ncols for f in factors])
        want = 1
        for f, m, k in zip(factors, mu, kappa):
            want = want * f.data[(m - 1) * f.ncols + k - 1]
        expect(op.entry(mu, kappa) == want, "operator entry")
    return check


def _prod(xs):
    out = 1
    for v in xs:
        out *= v
    return out


def _unrank(k, dims):
    out = []
    for d in reversed(dims):
        k, r = divmod(k, d)
        out.append(r + 1)
    return tuple(reversed(out))


def _check_kron(backend, factors, rng):
    def check(m):
        rows = _prod(f.nrows for f in factors)
        cols = _prod(f.ncols for f in factors)
        expect((m.nrows, m.ncols) == (rows, cols), "kron shape")
        if backend == "complex64":
            want = np_matrix(factors[0])
            for f in factors[1:]:
                want = np.kron(want, np_matrix(f))
            expect(close(np.array(m.data).reshape(rows, cols), want), "kron differs from numpy")
            return
        # u^T D v == prod_i u_i^T F_i v_i for random pure u, v (Freivalds)
        us = [_weights(rng, f.nrows) for f in factors]
        vs = [_weights(rng, f.ncols) for f in factors]
        v = [1]
        for vi in vs:
            v = [a * b for a in v for b in vi]
        dv = [sum((a * b for a, b in zip(m.data[i * cols:(i + 1) * cols], v)), 0)
              for i in range(rows)]
        want = 1
        for u, f, vi in zip(us, factors, vs):
            want = want * sum((a * b for a, b in zip(_row_times(u, f), vi)), 0)
        expect(contract_rows(us, dv) == want, "kron fails the random projection check")
    return check


def contract_round(rng: random.Random) -> list:
    ops = []
    for backend, plan in CONTRACT.items():
        for k, shape in enumerate(plan["reused"]):
            factors = _factors(backend, rng, shape, k)
            op = kronecker.KroneckerOperator(factors)
            for _ in range(REUSE):
                x = vector(backend, rng, op.ncols)
                ops.append(exact_op("matvec.reused", backend, lambda op=op, x=x: op.matvec(x),
                                    _check_matvec(backend, factors, x, rng)))
        for k, shape in enumerate(plan["fresh"]):
            factors = _factors(backend, rng, shape, k)
            x = vector(backend, rng, _prod(q for _, q in shape))
            ops.append(exact_op(
                "matvec.fresh", backend,
                lambda f=factors, x=x: kronecker.KroneckerOperator(f).matvec(x),
                _check_matvec(backend, factors, x, rng)))
        for k, shape in enumerate(plan["kron"]):
            factors = _factors(backend, rng, shape, k)
            ops.append(exact_op("kron", backend, lambda f=factors: kronecker.kron(f),
                                _check_kron(backend, factors, rng)))
        for dims in plan["pure"]:
            model = tensor.build_model(index_space.Shape(dims))
            xs = [vector(backend, rng, d, zero_frac=0.2) for d in dims]
            ops.append(exact_op("pure", backend, lambda m=model, xs=xs: tensor.pure(m, xs),
                                _check_pure(backend, xs, rng)))
        for dims, target in plan["evaluate"]:
            shape = index_space.Shape(dims)
            values = [vector(backend, rng, target, zero_frac=0.3) for _ in range(shape.size)]
            f = multilinear.MultilinearMap(shape, target, tuple(map(tuple, values)))
            xs = [vector(backend, rng, d, zero_frac=0.2) for d in dims]
            check = _check_evaluate(backend, values, xs)
            ops.append(exact_op("evaluate", backend,
                                lambda f=f, xs=xs: multilinear.evaluate(f, xs), check))
            ops.append(exact_op("evaluate_factored", backend,
                                lambda f=f, xs=xs: multilinear.evaluate_factored(f, xs), check))
    return ops


def _check_pure(backend, xs, rng):
    def check(t):
        size = _prod(len(x) for x in xs)
        expect(len(t.coeffs) == size, "pure length")
        if backend == "complex64":
            want = np.ones(1, dtype=complex)
            for x in xs:
                want = np.outer(want, np.asarray(x)).reshape(-1)
            expect(close(t.coeffs, want), "pure differs from numpy")
            return
        rs = [_weights(rng, len(x)) for x in xs]
        want = 1
        for r, x in zip(rs, xs):
            want = want * sum((a * b for a, b in zip(r, x)), 0)
        expect(freivalds(rs, list(t.coeffs), [[want]], [1]), "pure fails the random projection check")
    return check


def _check_evaluate(backend, values, xs):
    def check(out):
        target = len(values[0])
        want = [contract_rows(xs, [row[j] for row in values]) for j in range(target)]
        if backend == "complex64":
            expect(close(out, want), "evaluation differs from reference")
        else:
            expect(list(out) == want, "evaluation differs from reference")
    return check


# -- eliminate ------------------------------------------------------------------

# per backend: shapes of verify tables (one independent and one dependent
# table each), rank_of sizes, inverse sizes, inner-product Gram sizes
ELIMINATE = {
    "rational": {"verify": [(4, 6), (6, 6), (4, 8)], "rank": [32, 40],
                 "inverse": [24, 32], "gram": [16, 24]},
    "gaussian": {"verify": [(3, 4), (4, 4)], "rank": [16, 20],
                 "inverse": [12, 16], "gram": [8, 12]},
    "complex64": {"verify": [(8, 8), (6, 12), (10, 10)], "rank": [64, 80],
                  "inverse": [48, 64], "gram": [32, 48]},
}


def _rows(backend, rng, n, m, integer):
    return [[scalar(backend, rng, integer) for _ in range(m)] for _ in range(n)]


def _combine(backend, rng, rows, integer):
    """A row that depends on three others.  On complex64 it is a zero row:
    float elimination leaves a dependent row exactly zero only then."""
    out = [zero(backend)] * len(rows[0])
    if backend == "complex64":
        return out
    picks = rng.sample(range(len(rows)), 3)
    for i in picks:
        c = nonzero(backend, rng, integer)
        out = [a + c * b for a, b in zip(out, rows[i])]
    return out


def _rank_rows(backend, rng, n, r, integer):
    """``n`` rows of rank ``r``: combinations of ``r`` random rows, or on
    complex64 random rows with ``n - r`` zero columns, the only rank
    deficit float elimination sees exactly."""
    if backend == "complex64":
        rows = _rows(backend, rng, n, n, integer)
        for c in rng.sample(range(n), n - r):
            for row in rows:
                row[c] = zero(backend)
        return rows
    rows = _rows(backend, rng, r, n, integer)
    base = list(rows)
    while len(rows) < n:
        rows.insert(rng.randrange(len(rows) + 1), _combine(backend, rng, base, integer))
    return rows


def _check_independent(backend, rows, want_independent):
    def check(verdict):
        expect(verdict.failed_criterion != "dimension", "square table failed on dimension")
        if verdict.is_tensor_product:
            expect(want_independent is not False, "dependent table accepted")
            if backend == "complex64":
                expect(np.linalg.matrix_rank(np.array(rows)) == len(rows), "numpy finds a dependency")
            else:
                expect(certified_rank(rows) == len(rows), "independence not certified mod p")
            return
        expect(want_independent is not True, "independent table rejected")
        w = verdict.witness
        expect(w is not None and any(c != 0 for c in w), "missing witness")
        combo = [sum((c * r[j] for c, r in zip(w, rows)), 0) for j in range(len(rows[0]))]
        if backend == "complex64":
            scale = max(abs(v) for r in rows for v in r) * max(abs(c) for c in w)
            expect(all(abs(v) <= 1e-9 * scale for v in combo), "witness does not vanish")
        else:
            expect(all(v == 0 for v in combo), "witness does not vanish")
    return check


def _check_rank(backend, rows, bound):
    def check(r):
        if backend == "complex64":
            expect(r == np.linalg.matrix_rank(np.array(rows)), "rank differs from numpy")
        else:
            # the rows span at most `bound` dimensions by construction
            expect(r == bound == certified_rank(rows), "rank not certified mod p")
    return check


def _check_inverse(backend, m, rng):
    def check(inv):
        n = m.nrows
        if backend == "complex64":
            expect(close(np_matrix(inv), np.linalg.inv(np_matrix(m))), "inverse differs from numpy")
            return
        # m (inverse v) == v for a random integer vector v (Freivalds)
        v = _weights(rng, n)
        w = [sum((inv.data[i * n + k] * v[k] for k in range(n)), 0) for i in range(n)]
        expect([sum((m.data[i * n + k] * w[k] for k in range(n)), 0) for i in range(n)] == v,
               "m @ inverse(m) @ v != v")
    return check


def _gram(backend, rng, n, negative_at):
    """``B^H D B`` with ``B`` upper triangular (nonzero diagonal) and ``D`` the
    identity, or with one -1 at ``negative_at``: positive definite exactly
    when ``negative_at`` is None, since its k-th leading minor is
    ``|det B_k|^2 det D_k``.

    On complex64 ``B`` is diagonally dominant: a random triangular ``B``
    makes the table numerically singular (condition ~1e17), which no float
    test can tell from an indefinite one."""
    def entry(i, j):
        if j < i:
            return zero(backend)
        if backend != "complex64":
            return nonzero(backend, rng) if i == j else scalar(backend, rng)
        return complex(rng.uniform(1, 2), rng.uniform(-1, 1)) if i == j else scalar(backend, rng) / n
    b = [[entry(i, j) for j in range(n)] for i in range(n)]
    d = [-1 if k == negative_at else 1 for k in range(n)]
    return [[sum((conj(b[k][i]) * d[k] * b[k][j] for k in range(min(i, j) + 1)), zero(backend))
             for j in range(n)] for i in range(n)]


def eliminate_round(rng: random.Random) -> list:
    ops = []
    for backend, plan in ELIMINATE.items():
        for t, dims in enumerate(plan["verify"]):
            shape = index_space.Shape(dims)
            n, integer = shape.size, t % 2 == 0
            rows = _rows(backend, rng, n, n, integer)
            nu = tensor.NuTable(shape, tuple(map(tuple, rows)))
            ops.append(exact_op("verify.independent", backend,
                                lambda nu=nu: tensor.verify_tensor_product(nu),
                                _check_independent(backend, rows, None)))
            dep = _rows(backend, rng, n - 1, n, integer)
            dep.insert(rng.randrange(n), _combine(backend, rng, dep, integer))
            nu = tensor.NuTable(shape, tuple(map(tuple, dep)))
            ops.append(exact_op("verify.dependent", backend,
                                lambda nu=nu: tensor.verify_tensor_product(nu),
                                _check_independent(backend, dep, False)))
        for t, n in enumerate(plan["rank"]):
            integer, r = t % 2 == 0, n - 3
            rows = _rank_rows(backend, rng, n, r, integer)
            ops.append(exact_op("rank_of", backend, lambda rows=rows: matrices.rank_of(rows),
                                _check_rank(backend, rows, r)))
        for t, n in enumerate(plan["inverse"]):
            integer = t % 2 == 0
            while True:
                rows = _rows(backend, rng, n, n, integer)
                if backend == "complex64" or certified_rank(rows) == n:
                    break
            m = matrices.DenseMatrix.from_rows(rows)
            ops.append(exact_op("inverse", backend, lambda m=m: matrices.inverse(m),
                                _check_inverse(backend, m, rng)))
        for n in plan["gram"]:
            for negative_at in (None, rng.randrange(n)):
                g = _gram(backend, rng, n, negative_at)
                want = "ok" if negative_at is None else "rejected"

                def check(out, want=want):
                    expect(out[0] == want, f"inner-product validation gave {out[0]}, want {want}")
                ops.append(exact_op("inner_product_form", backend,
                                    lambda g=g: outcome(inner_product.inner_product_form, g),
                                    check))
    return ops


# -- structured -----------------------------------------------------------------

STRUCTURED = {
    "rational": {"decompose": [(16, 16), (4, 4, 4, 4)], "fmp": [4, 5, 6],
                 "product": [(4, 4, 4), (8, 8)], "induced": [(16, 16), (4, 4, 4)],
                 "iso": [(16, 16), (8, 8, 8)]},
    "gaussian": {"decompose": [(8, 8), (4, 4, 4)], "fmp": [3, 4, 5],
                 "product": [(4, 4), (2, 2, 2, 2, 2)], "induced": [(8, 8), (4, 4, 4)],
                 "iso": [(8, 8), (4, 4, 4)]},
    "complex64": {"decompose": [(16, 16), (8, 8, 8), (4, 4, 4, 4)], "fmp": [6, 7, 8],
                  "product": [(4, 4, 4, 4), (16, 16)], "induced": [(8, 8, 8), (16, 16)],
                  "iso": [(32, 32), (8, 8, 8)]},
}
# shapes whose decompose op (backend-neutral, counted as rational) runs each round
DECOMPOSE_SHAPES = [(16, 16), (8, 8, 8), (4, 4, 4, 4)]


def _partition(rng, n, axis):
    """A random ordered partition of 1..n into 2, 3 or 4 blocks (by axis)."""
    k = min(2 + axis % 3, n)
    elems = list(range(1, n + 1))
    rng.shuffle(elems)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    return [elems[a:b] for a, b in zip([0] + cuts, cuts + [n])]


def _members(blocks_per_axis):
    """Per alpha in lex order, the block members in lex order."""
    out = []
    for alpha in itertools.product(*(range(len(b)) for b in blocks_per_axis)):
        axes = [sorted(blocks_per_axis[i][a]) for i, a in enumerate(alpha)]
        out.append(list(itertools.product(*axes)))
    return out


def _check_decompose(dims, members):
    def check(d):
        expect(len(d.summands) == len(members), "block count")
        for s, want in zip(d.summands, members):
            expect(list(s.members) == want, f"members of block {s.alpha}")
            expect(s.dim == len(want), f"dimension of block {s.alpha}")
    return check


def _check_project(coeffs, dims, members):
    def check(parts):
        for got, mem in zip(parts, members):
            expect(list(got.coeffs) == [coeffs[lex_offset(g, dims)] for g in mem],
                   "projection coefficients")
    return check


def _check_embed(backend, subs, dims, members):
    def check(pieces):
        for piece, sub, mem in zip(pieces, subs, members):
            want = [zero(backend)] * len(piece.coeffs)
            for g, v in zip(mem, sub):
                want[lex_offset(g, dims)] = v
            expect(list(piece.coeffs) == want, "embedded coefficients")
    return check


def _own_matmul(a, b):
    return [sum((a.data[i * a.ncols + k] * b.data[k * b.ncols + j] for k in range(a.ncols)), 0)
            for i in range(a.nrows) for j in range(b.ncols)]


def _form_value(gram, x, y):
    """``sum x_i conj(y_j) g_ij`` for one factor, written out here."""
    return sum((xi * conj(yj) * gram[i][j] for i, xi in enumerate(x)
                for j, yj in enumerate(y)), 0)


def _equal(backend, got, want, what):
    if backend == "complex64":
        expect(close(got, want), what)
    else:
        expect(got == want, what)


def structured_round(rng: random.Random) -> list:
    ops = []
    for dims in DECOMPOSE_SHAPES:
        parts = [_partition(rng, n, i) for i, n in enumerate(dims)]
        model = tensor.build_model(index_space.Shape(dims))
        osp = [index_space.OrderedSetPartition(n, p) for n, p in zip(dims, parts)]
        ops.append(exact_op("decompose", "rational",
                            lambda m=model, p=osp: direct_sum.decompose(m, p),
                            _check_decompose(dims, _members(parts))))
    for backend, plan in STRUCTURED.items():
        for dims in plan["decompose"]:
            parts = [_partition(rng, n, i) for i, n in enumerate(dims)]
            model = tensor.build_model(index_space.Shape(dims))
            d = direct_sum.decompose(model, [index_space.OrderedSetPartition(n, p)
                                             for n, p in zip(dims, parts)])
            members = _members(parts)
            coeffs = vector(backend, rng, model.dim)
            t = tensor.Tensor(model, tuple(coeffs))
            alphas = [s.alpha for s in d.summands]
            subs = [vector(backend, rng, len(m)) for m in members]
            sub_ts = [tensor.Tensor(s.model, tuple(v)) for s, v in zip(d.summands, subs)]
            ops.append(exact_op(
                "project", backend,
                lambda d=d, t=t, alphas=alphas: [direct_sum.project(d, t, a) for a in alphas],
                _check_project(coeffs, dims, members)))
            ops.append(exact_op(
                "embed", backend,
                lambda d=d, ts=sub_ts, alphas=alphas: [direct_sum.embed(d, s, a)
                                                       for s, a in zip(ts, alphas)],
                _check_embed(backend, subs, dims, members)))

            def check_reassemble(out, t=t):
                expect(out == t, "reassemble(t) != t")
            ops.append(exact_op("reassemble", backend,
                                lambda d=d, t=t: direct_sum.reassemble(d, t), check_reassemble))
        for n in plan["fmp"]:
            a = matrices.DenseMatrix(n, n, vector(backend, rng, n * n, zero_frac=0.2))
            b = matrices.DenseMatrix(n, n, vector(backend, rng, n * n, zero_frac=0.2))

            def check_fmp(m, a=a, b=b, backend=backend):
                expect((m.nrows, m.ncols) == (a.nrows, b.ncols), "product shape")
                _equal(backend, list(m.data), _own_matmul(a, b), "factored product != matmul")
            ops.append(exact_op("factorized_matrix_product", backend,
                                lambda a=a, b=b: kronecker.factorized_matrix_product(a, b),
                                check_fmp))
        for dims in plan["product"]:
            shape = index_space.Shape(dims)
            grams = [[[scalar(backend, rng) for _ in range(n)] for _ in range(n)] for n in dims]
            forms = [inner_product.ConjugateBilinearForm(n, n, tuple(map(tuple, g)))
                     for n, g in zip(dims, grams)]
            xs = [vector(backend, rng, n) for n in dims]
            ys = [vector(backend, rng, n) for n in dims]
            model = tensor.build_model(shape)
            a, b = tensor.pure(model, xs).coeffs, tensor.pure(model, ys).coeffs
            want = one(backend)
            for g, x, y in zip(grams, xs, ys):
                want = want * _form_value(g, x, y)

            def check_product(v, want=want, backend=backend):
                _equal(backend, v, want, "product form on pure tensors != product of factor forms")
            ops.append(exact_op(
                "product_form+eval_form", backend,
                lambda f=forms, s=shape, a=a, b=b: inner_product.eval_form(
                    inner_product.product_form(f, s, s), a, b),
                check_product))
        for dims in plan["induced"]:
            shape = index_space.Shape(dims)
            a, b = vector(backend, rng, shape.size), vector(backend, rng, shape.size)
            want = sum((x * conj(y) for x, y in zip(a, b)), zero(backend))

            def check_induced(v, want=want, backend=backend):
                _equal(backend, v, want, "induced inner product != sum a conj(b)")
            ops.append(exact_op(
                "induced_inner_product", backend,
                lambda s=shape, a=a, b=b: inner_product.eval_form(
                    inner_product.induced_inner_product(s).form, a, b),
                check_induced))
        for dims in plan["iso"]:
            m1 = tensor.build_model(index_space.Shape(dims))
            m2 = tensor.build_model(index_space.Shape(dims))
            x = vector(backend, rng, m1.dim)

            def check_iso(y, x=x, backend=backend):
                _equal(backend, list(y), x, "canonical isomorphism moved coefficients")
            ops.append(exact_op(
                "canonical_isomorphism", backend,
                lambda m1=m1, m2=m2, x=x: tensor.canonical_isomorphism(m1, m2).apply(x),
                check_iso))
    return ops


ROUNDS = {"contract": contract_round, "eliminate": eliminate_round,
          "structured": structured_round}
