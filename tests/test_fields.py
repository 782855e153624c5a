from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard.fields import Field, PrimeFieldElement, is_prime

Q = Field.rational()
G7 = Field.prime(7)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
gf7 = st.integers(min_value=0, max_value=6).map(lambda r: PrimeFieldElement(7, r))


def test_prime_validation():
    for p in (2, 3, 7, 101, 2**31 - 1):
        assert Field.prime(p).p == p
    with pytest.raises(ValueError):
        Field.prime(6)
    with pytest.raises(ValueError):
        Field.prime(1)
    with pytest.raises(ValueError):
        Field.prime(2**31 + 11)
    assert not is_prime(561)  # Carmichael number, composite


def test_invert_examples():
    assert Q.invert(Fraction(1)) == Fraction(1)
    assert Q.invert(Fraction(3, 4)) == Fraction(4, 3)
    # brute-force oracle over GF(7): the k with 3*k = 1 mod 7
    oracle = next(k for k in range(7) if (3 * k) % 7 == 1)
    assert oracle == 5
    assert G7.invert(PrimeFieldElement(7, 3)) == PrimeFieldElement(7, 5)


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Q.invert(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        G7.invert(G7.zero())


def test_canonicalize_examples():
    assert Q.fraction(2, 4) == Fraction(1, 2)
    assert Q.fraction(-3, -6) == Fraction(1, 2)
    zero = Q.fraction(0, 5)
    assert zero.numerator == 0 and zero.denominator == 1
    with pytest.raises(ZeroDivisionError):
        Q.fraction(1, 0)
    with pytest.raises(ZeroDivisionError):
        G7.fraction(1, 14)  # 14 = 0 in GF(7)
    assert G7.fraction(3, 5) == PrimeFieldElement(7, 2)  # 3 * 5^-1 = 3*3 = 2


@settings(derandomize=True, max_examples=100)
@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool))
def test_canonicalize_idempotent(num, den):
    x = Q.fraction(num, den)
    again = Q.fraction(x.numerator, x.denominator)
    assert again == x
    assert again.denominator > 0


@settings(derandomize=True, max_examples=150)
@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a:
        assert a * Q.invert(a) == Q.one()


@settings(derandomize=True, max_examples=150)
@given(gf7, gf7, gf7)
def test_prime_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert not (a + (-a))
    if a:
        assert a * G7.invert(a) == G7.one()


def test_prime_field_int_coercion():
    x = PrimeFieldElement(7, 3)
    assert x + 5 == PrimeFieldElement(7, 1)
    assert 5 + x == PrimeFieldElement(7, 1)
    assert 1 - x == PrimeFieldElement(7, 5)
    assert x / 3 == G7.one()
    assert 2 / x == PrimeFieldElement(7, 3)  # 2 * 3^-1 = 2*5 = 10 = 3
    assert bool(x) and not bool(G7.zero())


def test_mixing_fields_rejected():
    with pytest.raises(ValueError):
        PrimeFieldElement(7, 1) + PrimeFieldElement(11, 1)
    with pytest.raises(TypeError):
        PrimeFieldElement(7, 1) + Fraction(1, 2)


def test_scalar_json_round_trip():
    x = Fraction(-3, 2)
    assert Q.encode_scalar(x) == "-3/2"
    assert Q.decode_scalar("-3/2") == x
    assert Q.decode_scalar(4) == Fraction(4)
    assert G7.encode_scalar(PrimeFieldElement(7, 5)) == 5
    assert G7.decode_scalar(5) == PrimeFieldElement(7, 5)
    with pytest.raises(ValueError):
        G7.decode_scalar("5/1")


@pytest.mark.parametrize("field, obj", [
    (Q, "1/0"),
    (Q, "-3/0"),
    (Q, True),
    (Q, False),
    (G7, True),
    (G7, False),
    (G7, 7),
    (G7, 8),
    (G7, -1),
])
def test_decode_rejects_non_canonical_scalars(field, obj):
    with pytest.raises(ValueError):
        field.decode_scalar(obj)


def test_decode_accepts_residue_range_arithmetic_still_reduces():
    assert G7.decode_scalar(0) == PrimeFieldElement(7, 0)
    assert G7.decode_scalar(6) == PrimeFieldElement(7, 6)
    assert PrimeFieldElement(7, 8) == PrimeFieldElement(7, 1)
    assert PrimeFieldElement(7, 3) + 5 == PrimeFieldElement(7, 1)


def test_field_json_round_trip():
    for f in (Q, G7):
        assert Field.from_json(f.to_json()) == f
    with pytest.raises(ValueError):
        Field.from_json({"kind": "real"})
