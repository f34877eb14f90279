"""Scalar arithmetic backends.

Three interchangeable backends cover every computation in the library:

* ``rational``  -- exact rationals (:class:`fractions.Fraction`),
* ``gaussian``  -- exact complex numbers with rational parts
  (:class:`GaussianRational`),
* ``complex64`` -- double-precision complex floats (builtin :class:`complex`).

The two exact backends satisfy the field axioms bit-exactly, which is what
makes the identity checks elsewhere in the library decidable.  There is no
implicit promotion between backends: mixing, say, a Gaussian rational with a
float complex raises instead of silently losing exactness.  Plain ``int``
values are accepted anywhere as backend-neutral integers.

Kernels that run on integers share one bridge: :func:`common_backend`
decides which backend a computation runs in (the one rule for mixed
inputs), :func:`numerators` turns exact values into int numerators over a
common denominator, and :func:`from_numerators` turns them back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import Any, Callable, Optional, Sequence, Union

Rational = Union[int, Fraction]


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


class GaussianRational:
    """A complex number ``re + im*i`` with exact rational parts.

    Values are immutable; arithmetic with ``int`` and ``Fraction`` operands
    is allowed (the rationals embed exactly), arithmetic with floats or
    ``complex`` is refused.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Rational = 0, im: Rational = 0):
        object.__setattr__(self, "re", _to_fraction(re))
        object.__setattr__(self, "im", _to_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _parts(x):
        if isinstance(x, GaussianRational):
            return x.re, x.im
        if isinstance(x, (int, Fraction)):
            return Fraction(x), Fraction(0)
        return None

    def __add__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return GaussianRational(self.re + p[0], self.im + p[1])

    __radd__ = __add__

    def __sub__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return GaussianRational(self.re - p[0], self.im - p[1])

    def __rsub__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return GaussianRational(p[0] - self.re, p[1] - self.im)

    def __mul__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        c, d = p
        return GaussianRational(self.re * c - self.im * d, self.re * d + self.im * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        c, d = p
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((self.re * c + self.im * d) / n, (self.im * c - self.re * d) / n)

    def __rtruediv__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return GaussianRational(p[0], p[1]) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def squared_modulus(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __eq__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return self.re == p[0] and self.im == p[1]

    def __hash__(self):
        # agrees with hash(Fraction) when the value is real
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def _rand_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _rand_gaussian(rng: random.Random) -> GaussianRational:
    return GaussianRational(_rand_rational(rng), _rand_rational(rng))


def _rand_complex(rng: random.Random) -> complex:
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def _fraction(text: str, scalar: str) -> Fraction:
    """``Fraction(text)``; a failure is bad input and names the whole
    scalar text it came from."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {scalar!r}") from None
    except ValueError:
        raise ValueError(f"invalid scalar {scalar!r}") from None


def _parse_rational(obj) -> Fraction:
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        return _fraction(obj.strip(), obj)
    raise ValueError(f"cannot parse rational scalar from {obj!r}")


def _format_rational(x) -> str:
    return str(_to_fraction(x))


def _parse_gaussian(obj) -> GaussianRational:
    if isinstance(obj, int):
        return GaussianRational(obj)
    if not isinstance(obj, str):
        raise ValueError(f"cannot parse gaussian scalar from {obj!r}")
    s = obj.strip().replace(" ", "")
    if not s.endswith("i"):
        return GaussianRational(_fraction(s, obj))
    body = s[:-1]
    # the imaginary part starts at the last sign that separates two parts: a
    # leading sign, an exponent's sign (after 'e') and the sign of a
    # numerator after '/' never qualify
    split = 0
    for i in range(len(body) - 1, 0, -1):
        if body[i] in "+-" and body[i - 1] not in "+-/eE":
            split = i
            break
    re_part, im_part = body[:split], body[split:]
    if im_part in ("", "+", "-"):  # a bare unit: "i", "-i", "1+i"
        im_part += "1"
    return GaussianRational(_fraction(re_part, obj) if re_part else 0, _fraction(im_part, obj))


def _format_gaussian(x) -> str:
    if isinstance(x, (int, Fraction)):
        x = GaussianRational(x)
    return str(x)


def _parse_complex(obj) -> complex:
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(float(obj[0]), float(obj[1]))
    if isinstance(obj, (int, float)):
        return complex(obj)
    raise ValueError(f"cannot parse complex scalar from {obj!r} (expected [re, im])")


def _format_complex(x) -> list:
    z = complex(x)
    return [z.real, z.imag]


@dataclass(frozen=True)
class Backend:
    """One scalar arithmetic, bundling identities, parsing and generation."""

    name: str
    zero: Any
    one: Any
    exact: bool
    random: Callable[[random.Random], Any] = field(repr=False)
    parse: Callable[[Any], Any] = field(repr=False)
    format: Callable[[Any], Any] = field(repr=False)


RATIONAL = Backend("rational", Fraction(0), Fraction(1), True,
                   _rand_rational, _parse_rational, _format_rational)
GAUSSIAN = Backend("gaussian", GaussianRational(0), GaussianRational(1), True,
                   _rand_gaussian, _parse_gaussian, _format_gaussian)
COMPLEX = Backend("complex64", complex(0), complex(1), False,
                  _rand_complex, _parse_complex, _format_complex)

BACKENDS = {b.name: b for b in (RATIONAL, GAUSSIAN, COMPLEX)}


def get_backend(name: str) -> Backend:
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}; choose from {sorted(BACKENDS)}") from None


def backend_of(x) -> Backend:
    """Classify a scalar value.  Plain ints count as rational."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return RATIONAL
    if isinstance(x, GaussianRational):
        return GAUSSIAN
    if isinstance(x, (float, complex)):
        return COMPLEX
    raise TypeError(f"not a supported scalar: {x!r}")


def common_backend(value_lists: Sequence[Sequence]) -> Optional[Backend]:
    """The backend of the non-int values, or None when every value is an int.

    Rationals embed into the Gaussian backend; complex64 meeting an exact
    value raises, naming both backends.
    """
    found = {}
    for values in value_lists:
        for t in set(map(type, values)):
            if not issubclass(t, int):
                b = backend_of(next(v for v in values if type(v) is t))
                found[b.name] = b
    if COMPLEX.name in found and len(found) > 1:
        raise ValueError(f"mixed scalar backends: {sorted(found)}")
    return found.get(GAUSSIAN.name) or (found.popitem()[1] if found else None)


def numerators(values: Sequence, backend: Backend) -> tuple:
    """Exact values as int numerators over one common denominator.

    Returns ``(parts, den)``: ``parts`` holds the real numerators, then the
    imaginary ones when some imaginary part is nonzero.
    """
    if backend is GAUSSIAN:
        parts = [[v.re if isinstance(v, GaussianRational) else v for v in values],
                 [v.im if isinstance(v, GaussianRational) else 0 for v in values]]
        if not any(parts[1]):
            del parts[1]
    else:
        parts = [values]
    den = lcm(*{v.denominator for part in parts for v in part})
    return [[v.numerator * (den // v.denominator) for v in part] for part in parts], den


def from_numerators(parts: Sequence[Sequence[int]], den: int, backend: Backend) -> list:
    """The values ``parts / den`` in an exact backend; inverse of
    :func:`numerators` (an absent imaginary part is zero)."""
    if backend is RATIONAL:
        return [Fraction(v, den) for v in parts[0]]
    im = parts[1] if len(parts) > 1 else repeat(0)
    return [GaussianRational(Fraction(u, den), Fraction(v, den)) for u, v in zip(parts[0], im)]


def conj(a):
    """Complex conjugate; identity on rationals."""
    return a.conjugate()


def to_rational(x) -> Fraction:
    """Explicit conversion into the rational backend."""
    if isinstance(x, GaussianRational):
        if x.im != 0:
            raise ValueError(f"{x} has a nonzero imaginary part")
        return x.re
    if isinstance(x, (float, complex)):
        raise ValueError("refusing implicit float-to-rational conversion")
    return _to_fraction(x)


def to_gaussian(x) -> GaussianRational:
    """Explicit conversion into the Gaussian-rational backend."""
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(_to_fraction(x))


def to_complex(x) -> complex:
    """Explicit (lossy for exact inputs) conversion into complex floats."""
    if isinstance(x, GaussianRational):
        return complex(float(x.re), float(x.im))
    if isinstance(x, Fraction):
        return complex(float(x))
    return complex(x)
