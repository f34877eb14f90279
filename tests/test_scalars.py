import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronlab.matrices import DenseMatrix, matrix_backend
from kronlab.scalars import (BACKENDS, COMPLEX, GAUSSIAN, RATIONAL,
                             GaussianRational, backend_of, conj, get_backend,
                             to_complex, to_gaussian, to_rational)


def test_rational_sum():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    # rationals embed exactly into the Gaussian backend
    assert GaussianRational(Fraction(1, 2)) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(1, 3) + GaussianRational(Fraction(1, 2), 1) == GaussianRational(Fraction(5, 6), 1)


def test_gaussian_modulus_identity():
    z = GaussianRational(1, 2)
    assert z * conj(z) == GaussianRational(5, 0)
    assert z * conj(z) == 5


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 1) / 0


def test_backend_mismatch_is_an_error():
    with pytest.raises(TypeError):
        GaussianRational(1) * complex(1)
    with pytest.raises(TypeError):
        complex(1) - GaussianRational(1)
    with pytest.raises(ValueError, match="mixed scalar backends"):
        matrix_backend(DenseMatrix.from_rows([[Fraction(1), complex(1)]]))


def test_no_silent_promotion_in_gaussian_arithmetic():
    with pytest.raises(TypeError):
        GaussianRational(1) + complex(1)
    with pytest.raises(TypeError):
        GaussianRational(1) * 0.5


def test_conj_examples():
    assert conj(Fraction(3, 4)) == Fraction(3, 4)
    assert conj(GaussianRational(1, 2)) == GaussianRational(1, -2)
    assert conj(complex(1, 2)) == complex(1, -2)


def test_conj_involution_on_random_values():
    rng = random.Random(11)
    for _ in range(100):
        z = GAUSSIAN.random(rng)
        assert conj(conj(z)) == z


def test_conj_is_a_field_automorphism():
    rng = random.Random(12)
    for _ in range(100):
        a, b = GAUSSIAN.random(rng), GAUSSIAN.random(rng)
        assert conj(a + b) == conj(a) + conj(b)
        assert conj(a * b) == conj(a) * conj(b)
        m = a * conj(a)
        assert m.im == 0 and m.re >= 0


@pytest.mark.parametrize("backend", [RATIONAL, GAUSSIAN])
def test_field_axioms_on_random_triples(backend):
    rng = random.Random(13)
    for _ in range(200):
        a, b, c = (backend.random(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if c != 0:
            assert (a / c) * c == a


def test_gaussian_division_inverts_multiplication():
    rng = random.Random(14)
    for _ in range(100):
        a, b = GAUSSIAN.random(rng), GAUSSIAN.random(rng)
        if b == 0:
            continue
        assert (a * b) / b == a


def test_backend_classification():
    assert backend_of(Fraction(1, 2)) is RATIONAL
    assert backend_of(3) is RATIONAL
    assert backend_of(GaussianRational(0, 1)) is GAUSSIAN
    assert backend_of(1.5) is COMPLEX
    assert backend_of(1 + 1j) is COMPLEX
    with pytest.raises(TypeError):
        backend_of("nope")


def test_explicit_conversions():
    assert to_gaussian(Fraction(1, 2)) == GaussianRational(Fraction(1, 2))
    assert to_rational(GaussianRational(3, 0)) == Fraction(3)
    with pytest.raises(ValueError):
        to_rational(GaussianRational(1, 1))
    with pytest.raises(ValueError):
        to_rational(0.5)
    assert to_complex(GaussianRational(1, 2)) == complex(1, 2)


def test_text_forms_round_trip():
    rng = random.Random(15)
    for _ in range(50):
        q = RATIONAL.random(rng)
        assert RATIONAL.parse(RATIONAL.format(q)) == q
        g = GAUSSIAN.random(rng)
        assert GAUSSIAN.parse(GAUSSIAN.format(g)) == g
        z = COMPLEX.random(rng)
        assert COMPLEX.parse(COMPLEX.format(z)) == z


def test_gaussian_text_forms():
    assert str(GaussianRational(Fraction(1, 2), Fraction(3, 4))) == "1/2+3/4i"
    assert str(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"
    assert GAUSSIAN.parse("1/2-3/4i") == GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert GAUSSIAN.parse("-2+1i") == GaussianRational(-2, 1)
    assert GAUSSIAN.parse("7") == GaussianRational(7)
    assert GAUSSIAN.parse("-5/6i") == GaussianRational(0, Fraction(-5, 6))
    # an exponent's sign never separates the parts; a bare unit is +-1
    assert GAUSSIAN.parse("1e-5i") == GaussianRational(0, Fraction(1, 10**5))
    assert GAUSSIAN.parse("2-1e-5i") == GaussianRational(2, Fraction(-1, 10**5))
    assert GAUSSIAN.parse("1E+2-2E-1i") == GaussianRational(100, Fraction(-1, 5))
    assert GAUSSIAN.parse("i") == GAUSSIAN.parse("+i") == GaussianRational(0, 1)
    assert GAUSSIAN.parse("-i") == GaussianRational(0, -1)
    assert GAUSSIAN.parse("1/2-i") == GaussianRational(Fraction(1, 2), -1)


def test_backend_registry():
    assert set(BACKENDS) == {"rational", "gaussian", "complex64"}
    assert get_backend("rational") is RATIONAL
    with pytest.raises(ValueError):
        get_backend("decimal")


def test_gaussian_is_immutable():
    z = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        z.re = Fraction(5)


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)
fractions = st.fractions(max_denominator=10**6)
VALUES = {RATIONAL: fractions,
          GAUSSIAN: st.builds(GaussianRational, fractions, fractions),
          COMPLEX: st.complex_numbers(allow_nan=False)}


@pytest.mark.parametrize("backend", [RATIONAL, GAUSSIAN, COMPLEX])
@PROPERTY
@given(data=st.data())
def test_parse_inverts_format(backend, data):
    x = data.draw(VALUES[backend])
    assert backend.parse(backend.format(x)) == x


@st.composite
def rational_texts(draw):
    """An unsigned rational literal and its value, computed without parsing:
    an integer, ``p/q``, a decimal or an exponent form."""
    n = draw(st.integers(0, 999))
    kind = draw(st.sampled_from(["int", "frac", "dec", "exp"]))
    if kind == "int":
        return str(n), Fraction(n)
    if kind == "frac":
        q = draw(st.integers(1, 99))
        return f"{n}/{q}", Fraction(n, q)
    if kind == "dec":
        d = draw(st.integers(0, 99))
        return f"{n}.{d:02d}", n + Fraction(d, 100)
    e = draw(st.integers(-6, 6))
    plus = "+" if e >= 0 and draw(st.booleans()) else ""
    return f"{n}{draw(st.sampled_from('eE'))}{plus}{e}", n * Fraction(10) ** e


@st.composite
def gaussian_texts(draw):
    """Text ``re+imi`` or ``re-imi`` with its value: the real part may be
    absent, the imaginary part a bare ``i`` or absent, spaces anywhere
    between the pieces."""
    def space():
        return draw(st.sampled_from(["", " "]))

    re_text, re = draw(rational_texts()) if draw(st.booleans()) else ("", Fraction(0))
    if re_text and draw(st.booleans()):
        re_text, re = "-" + re_text, -re
    kind = draw(st.sampled_from(["number", "unit", "none"]))
    if kind == "none":
        if not re_text:
            re_text, re = draw(rational_texts())
        return space() + re_text + space(), GaussianRational(re)
    im_text, im = draw(rational_texts()) if kind == "number" else ("", Fraction(1))
    sign = draw(st.sampled_from(["+", "-"] if re_text else ["", "+", "-"]))
    if sign == "-":
        im = -im
    text = space() + re_text + space() + sign + space() + im_text + space() + "i" + space()
    return text, GaussianRational(re, im)


@PROPERTY
@given(gaussian_texts())
def test_gaussian_parser_reads_generated_texts(text_value):
    text, value = text_value
    assert GAUSSIAN.parse(text) == value, text


@pytest.mark.parametrize("backend, text, message", [
    (GAUSSIAN, "1+2ji", "invalid scalar '1+2ji'"),
    (GAUSSIAN, "1e+i", "invalid scalar '1e+i'"),
    (GAUSSIAN, "1/0+2i", "zero denominator in scalar '1/0+2i'"),
    (RATIONAL, "1/0", "zero denominator in scalar '1/0'"),
    (RATIONAL, "x", "invalid scalar 'x'"),
])
def test_parse_errors_name_the_whole_scalar(backend, text, message):
    with pytest.raises(ValueError) as exc:
        backend.parse(text)
    assert str(exc.value) == message
