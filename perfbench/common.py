"""Pieces every workload shares: the op record, seeded input makers, the
canonical encoding behind the frozen digests, and reference routes that do
not go through the library (exact ranks modulo a prime, numpy for floats).

Everything here runs outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import numpy as np

from kronlab.scalars import GaussianRational

# complex64 results must match numpy to this relative tolerance, measured
# against the largest magnitude in the expected result
FLOAT_RTOL = 1e-9

# primes p = 1 (mod 4), so that -1 has a square root and the Gaussian
# integers map homomorphically onto F_p
PRIMES = (2305843009213693973, 2305843009213694009)


class Mismatch(Exception):
    """The op returned, but its output is wrong."""


class Broken(Exception):
    """The op broke its contract without producing an output to check
    (for example a traceback where the CLI promises ``error:``)."""


@dataclass
class Op:
    """One call the closed loop times, and how to judge what it returned."""

    name: str
    backend: str  # backend-neutral ops count under "rational"
    run: Callable[[], Any]
    check: Callable[[Any], None]  # raises Mismatch or Broken
    canon: Optional[Callable[[Any], Any]] = None  # exact ops: digest input


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def outcome(fn, *args):
    """Run ``fn`` and fold an expected ``ValueError`` into the result."""
    try:
        return ("ok", fn(*args))
    except ValueError as exc:
        return ("rejected", str(exc))


# -- seeded inputs ----------------------------------------------------------

_DIGITS = range(-9, 10)
_POOLS = {  # (backend, integer entries only) -> values drawn uniformly
    ("rational", False): [Fraction(a, b) for a in _DIGITS for b in range(1, 10)],
    ("rational", True): [Fraction(a) for a in _DIGITS],
}
_POOLS[("gaussian", True)] = [GaussianRational(a, b) for a in _POOLS[("rational", True)]
                              for b in _POOLS[("rational", True)]]
_POOLS[("gaussian", False)] = [GaussianRational(a, b) for a in _POOLS[("rational", False)]
                               for b in _POOLS[("rational", False)]]
_NONZERO = {k: [v for v in pool if v != 0] for k, pool in _POOLS.items()}


def scalar(backend: str, rng: random.Random, integer: bool = False):
    """A random value, possibly zero; exact ones are ``p/q`` (or ``p/q + r/s i``)
    with ``|p|, q <= 9``, integers only when ``integer``."""
    if backend == "complex64":
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return rng.choice(_POOLS[(backend, integer)])


def nonzero(backend: str, rng: random.Random, integer: bool = False):
    if backend == "complex64":
        return scalar(backend, rng)
    return rng.choice(_NONZERO[(backend, integer)])


def zero(backend: str):
    return {"rational": Fraction(0), "gaussian": GaussianRational(0),
            "complex64": complex(0)}[backend]


def one(backend: str):
    return {"rational": Fraction(1), "gaussian": GaussianRational(1),
            "complex64": complex(1)}[backend]


def vector(backend: str, rng: random.Random, n: int, zero_frac: float = 0.0) -> list:
    """``round(n * zero_frac)`` zeros at random places, nonzero values
    elsewhere: the amount of work an input carries does not depend on the seed."""
    if backend == "complex64":
        r = rng.random
        out = [complex(2 * r() - 1, 2 * r() - 1) for _ in range(n)]
    else:
        out = rng.choices(_NONZERO[(backend, False)], k=n)
    for i in rng.sample(range(n), round(n * zero_frac)):
        out[i] = zero(backend)
    return out


def factor_data(backend: str, rng: random.Random, p: int, q: int, kind: str) -> list:
    """Row-major entries of one Kronecker factor.

    ``dense`` has 30 % zeros; ``identity``, ``permutation`` and
    ``diagonal`` are the structured kinds (square factors only).
    """
    z, o = zero(backend), one(backend)
    if kind == "dense" or p != q:
        return vector(backend, rng, p * q, zero_frac=0.3)
    data = [z] * (p * q)
    perm = list(range(q))
    if kind == "permutation":
        rng.shuffle(perm)
    for i in range(p):
        data[i * q + perm[i]] = nonzero(backend, rng) if kind == "diagonal" else o
    return data


# -- canonical form of exact outputs ------------------------------------------

def fmt(backend: str, v) -> str:
    """The JSON scalar text of an exact value, written independently of the
    library's own formatter so that a change there shows in the digests."""
    if isinstance(v, GaussianRational):
        re, im = v.re, v.im
    else:
        re, im = Fraction(v), Fraction(0)
        if backend == "rational":
            return str(re)
    return f"{re}{'+' if im >= 0 else '-'}{abs(im)}i"


def canon(backend: str, x):
    """A JSON-able form of an exact output, kind by kind."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, (int, Fraction, GaussianRational)):
        return fmt(backend, x)
    if isinstance(x, (list, tuple)):
        return [canon(backend, v) for v in x]
    kind = type(x).__name__
    if kind == "DenseMatrix":
        return [x.nrows, x.ncols, canon(backend, x.data)]
    if kind == "Tensor":
        return [list(x.model.shape.dims), canon(backend, x.coeffs)]
    if kind == "Verdict":
        return [x.is_tensor_product, x.failed_criterion, canon(backend, x.witness)]
    if kind == "InnerProductForm":
        return canon(backend, x.form)
    if kind == "ConjugateBilinearForm":
        return [x.left_dim, x.right_dim, canon(backend, x.gram)]
    if kind == "LinearMap":
        return canon(backend, x.matrix)
    if kind == "Decomposition":
        return [[list(s.alpha), list(s.model.shape.dims), [list(g) for g in s.members]]
                for s in x.summands]
    raise TypeError(f"no canonical form for {kind}")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


# -- exact reference routes ---------------------------------------------------

def _sqrt_minus_one(p: int) -> int:
    for g in range(2, 200):
        s = pow(g, (p - 1) // 4, p)
        if s * s % p == p - 1:
            return s
    raise ArithmeticError(f"no square root of -1 found modulo {p}")


_SQRT = {p: _sqrt_minus_one(p) for p in PRIMES}


def modp(v, p: int) -> int:
    """Image of an exact scalar in F_p (a ring homomorphism on the values
    used here, whose denominators are far smaller than p)."""
    if isinstance(v, GaussianRational):
        return (modp(v.re, p) + _SQRT[p] * modp(v.im, p)) % p
    v = Fraction(v)
    return v.numerator * pow(v.denominator, -1, p) % p


def rank_modp(rows, p: int) -> int:
    """Rank over F_p; never above the rank over the exact field."""
    work = [[modp(v, p) for v in r] for r in rows]
    rank, ncols = 0, len(work[0]) if work else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][c], -1, p)
        prow = [v * inv % p for v in work[rank]]
        for r in range(rank + 1, len(work)):
            f = work[r][c]
            if f:
                work[r] = [(a - f * b) % p for a, b in zip(work[r], prow)]
        rank += 1
    return rank


def certified_rank(rows) -> int:
    """Largest rank modulo any of the primes: a lower bound on the exact
    rank that equals it unless every prime divides a minor."""
    return max(rank_modp(rows, p) for p in PRIMES)


def freivalds(rs, y, images, x) -> bool:
    """``r . y == (r^T K) x`` modulo the first prime, where ``r`` is the
    Kronecker product of the weight rows ``rs`` and ``images`` holds
    ``r_i^T F_i`` per factor.  Any single wrong entry of ``y`` shows."""
    p = PRIMES[0]
    lhs = contract_rows(rs, [modp(v, p) for v in y])
    rhs = contract_rows([[modp(v, p) for v in row] for row in images], [modp(v, p) for v in x])
    return (lhs - rhs) % p == 0


def contract_rows(factor_rows: list, x: list):
    """Dot of ``x`` with the Kronecker product of one row per factor,
    contracting the last axis first (no library code involved)."""
    cur = list(x)
    for row in reversed(factor_rows):
        q = len(row)
        cur = [sum((a * b for a, b in zip(row, cur[j * q:(j + 1) * q])), 0)
               for j in range(len(cur) // q)]
    return cur[0]


# -- float reference routes ---------------------------------------------------

def close(got, want) -> bool:
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    return bool(np.all(np.abs(got - want) <= FLOAT_RTOL * scale))


def np_matrix(m) -> np.ndarray:
    return np.array(m.data, dtype=complex).reshape(m.nrows, m.ncols)


def np_kron_matvec(factors, x) -> np.ndarray:
    """Kronecker matvec in numpy, one axis at a time by ``tensordot``."""
    cur = np.asarray(x, dtype=complex).reshape([f.ncols for f in factors])
    for axis, f in enumerate(factors):
        cur = np.moveaxis(np.tensordot(np_matrix(f), cur, axes=([1], [axis])), 0, axis)
    return cur.reshape(-1)
