from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilpow import Field, parse_field
from nilpow.errors import CharacteristicTwo, DivisionByZero, ModulusTooLarge, NonPrimeModulus


def test_valid_prime_field():
    f = Field.prime(32003)
    assert f.p == 32003


def test_characteristic_two_rejected():
    with pytest.raises(CharacteristicTwo):
        Field.prime(2)
    with pytest.raises(CharacteristicTwo):
        parse_field("fp:2")


def test_non_prime_rejected():
    with pytest.raises(NonPrimeModulus):
        Field.prime(32001)  # 3 * 10667


def test_modulus_bound():
    assert Field.prime(2**31 - 1).p == 2**31 - 1
    for p in (2**31, 2**61 - 1):  # 2^61 - 1 is prime; its products overflow int64
        with pytest.raises(ModulusTooLarge):
            Field.prime(p)
    with pytest.raises(ModulusTooLarge):
        parse_field("fp:2305843009213693951")


def test_rationals_valid():
    f = Field.rationals()
    assert f.p is None
    assert f.elem(Fraction(1, 2) + Fraction(1, 3)) == Fraction(5, 6)


def test_parse_field():
    assert parse_field("fp:5").p == 5
    assert parse_field("q").p is None
    with pytest.raises(NonPrimeModulus):
        parse_field("float64")


def test_inverse_examples():
    f5 = Field.prime(5)
    assert f5.inv(2) == 3
    f7 = Field.prime(7)
    assert f7.elem(3 * 5) == 1
    with pytest.raises(DivisionByZero):
        f5.inv(0)


@pytest.mark.parametrize("field", [Field.prime(5), Field.prime(32003), Field.rationals()])
def test_half_doubles_to_one(field):
    assert field.elem(field.half + field.half) == field.one


@given(st.integers(), st.integers(), st.integers())
def test_field_axioms_fp(a, b, c):
    f = Field.prime(32003)
    a, b, c = f.elem(a), f.elem(b), f.elem(c)
    assert f.elem(f.elem(a + b) + c) == f.elem(a + f.elem(b + c))
    assert f.elem(a * f.elem(b + c)) == f.elem(f.elem(a * b) + f.elem(a * c))
    if a != 0:
        assert f.elem(a * f.inv(a)) == f.one


@given(st.fractions(), st.fractions(), st.fractions())
def test_field_axioms_q(a, b, c):
    f = Field.rationals()
    assert f.elem(f.elem(a + b) + c) == f.elem(a + f.elem(b + c))
    assert f.elem(a * f.elem(b + c)) == f.elem(f.elem(a * b) + f.elem(a * c))
    if a != 0:
        assert f.elem(a * f.inv(a)) == f.one


def test_coeff_round_trip():
    fp = Field.prime(32003)
    assert fp.parse_coeff(fp.format_coeff(12345)) == 12345
    fq = Field.rationals()
    x = Fraction(-7, 3)
    assert fq.parse_coeff(fq.format_coeff(x)) == x
    assert fq.format_coeff(Fraction(4, 2)) == "2"


@pytest.mark.parametrize("field", [Field.prime(7), Field.rationals()], ids=str)
@pytest.mark.parametrize("value", [2.7, -1.0, 3, True])
def test_coeff_parse_takes_strings_only(field, value):
    # a float would be truncated (F_p) or taken as an exact rational (Q), and
    # an integer or a bool is no text form either
    with pytest.raises(TypeError):
        field.parse_coeff(value)
