import itertools
import random
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


def _is_prime_by_trial_division(n: int) -> bool:
    """The reference primality test."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def test_miller_rabin_matches_trial_division():
    # 2047, 1373653 and 25326001 are the least strong pseudoprimes to the
    # bases {2}, {2, 3} and {2, 3, 5}: each needs a later witness
    for n in itertools.chain(range(10**5), range(2**31 - 10**4, 2**31), (561, 2047, 1373653, 25326001)):
        assert is_prime(n) == _is_prime_by_trial_division(n), n
    for n in (2047, 1373653, 25326001):
        assert not is_prime(n)


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


@pytest.mark.parametrize("p", [2, 7, 2**31 - 1])
def test_prime_inverse_matches_fermat(p):
    rng = random.Random(p)
    residues = range(1, p) if p < 100 else [1, 2, p - 2, p - 1] + [rng.randrange(1, p) for _ in range(200)]
    for r in residues:
        inv = PrimeFieldElement(p, r).inverse()
        assert inv == PrimeFieldElement(p, pow(r, p - 2, p))
        assert 0 <= inv.r < p and (inv * r).r == 1
    with pytest.raises(ZeroDivisionError):
        PrimeFieldElement(p, 0).inverse()


def test_is_rational_is_computed_once_and_leaves_the_value_alone():
    """is_rational is read once per field and then kept; equality, hash and repr still see kind and p alone,
    and the methods that perfbench/tracing.py wraps by name stay on the class."""
    fresh = [Field.rational(), Field.prime(7), Field.from_json({"kind": "prime", "p": 7})]
    assert [f.is_rational for f in fresh] == [True, False, False]
    assert [vars(f)["is_rational"] for f in fresh] == [True, False, False]  # kept on the instance
    assert fresh[1] == fresh[2] == G7 and hash(fresh[1]) == hash(G7) and fresh[0] == Q and hash(fresh[0]) == hash(Q)
    assert (repr(Q), repr(G7)) == ("Field(kind='rational', p=None)", "Field(kind='prime', p=7)")
    assert Q != G7 and len({Q, G7, *fresh}) == 2
    for name in ("invert", "encode_scalar", "decode_scalar"):
        assert callable(Field.__dict__[name])
