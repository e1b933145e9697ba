import random
from fractions import Fraction

import pytest

from nlie.errors import FieldMismatchError, InvalidParameterError, ParseError
from nlie.fields import GF, QQ, Field, PrimeField, RationalField, is_prime
from nlie.linalg import minor_det, rref

from oracles import det_cofactor, rref_fractions


def test_rational_parse_and_format():
    assert QQ.parse("3/2") == Fraction(3, 2)
    assert QQ.parse("-7") == Fraction(-7)
    assert QQ.parse("4/6") == Fraction(2, 3)
    assert QQ.format(Fraction(-3, 4)) == "-3/4"
    assert QQ.format(Fraction(5)) == "5"


@pytest.mark.parametrize("bad", ["", "1/0", "1.5", "a", "--3", "1/-2", "+2"])
def test_rational_parse_rejects(bad):
    with pytest.raises(ParseError):
        QQ.parse(bad)


def test_rational_always_lowest_terms():
    x = QQ.parse("6/4")
    assert (x.numerator, x.denominator) == (3, 2)
    y = QQ.mul(x, QQ.parse("2/3"))
    assert (y.numerator, y.denominator) == (1, 1)


def test_gf_arithmetic():
    f = GF(7)
    assert f.add(5, 4) == 2
    assert f.mul(3, 5) == 1
    assert f.neg(2) == 5
    for a in range(1, 7):
        assert f.mul(a, f.inv(a)) == 1


def test_gf_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)


def test_gf_parse_reduces():
    assert GF(5).parse("-3") == 2
    assert GF(5).parse("12") == 2


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 1 << 16])
def test_gf_rejects_bad_modulus(p):
    with pytest.raises(InvalidParameterError):
        GF(p)


def test_gf_cached_and_comparable():
    assert GF(3) is GF(3)
    assert GF(3) != GF(5)
    assert GF(3) != QQ


def test_validate_enforces_domains():
    assert QQ.validate(2) == Fraction(2)
    assert GF(3).validate(5) == 2
    with pytest.raises(FieldMismatchError):
        GF(3).validate(Fraction(1, 2))
    with pytest.raises(FieldMismatchError):
        QQ.validate(0.5)


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


_ARITHMETIC = ("add", "sub", "mul", "neg", "inv", "from_int", "validate", "parse")


@pytest.mark.parametrize("cls", [RationalField, PrimeField], ids=["Q", "GF"])
def test_each_field_defines_the_interface_and_inherits_the_rest(cls):
    """The interface ``Field`` names: each field defines the scalar operations
    in its own body and takes ``format`` and ``is_zero`` from ``Field``."""
    assert all(name in vars(cls) for name in _ARITHMETIC)
    assert cls.format is Field.format and cls.is_zero is Field.is_zero
    assert not any(name in vars(Field) for name in _ARITHMETIC)


def test_rational_scalars_are_ints_when_integral():
    for x in (QQ.validate(Fraction(4, 2)), QQ.parse("6/3"), QQ.from_int(-7),
              QQ.validate(True), QQ.zero, QQ.one):
        assert type(x) is int
    assert (QQ.parse("6/3"), QQ.from_int(-7), QQ.validate(True)) == (2, -7, 1)
    assert type(QQ.parse("3/2")) is Fraction
    assert type(QQ.validate(Fraction(-3, 2))) is Fraction


def test_rational_inverse_is_exact():
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert QQ.inv(-4) == Fraction(-1, 4)
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    for a, inverse in ((Fraction(1, 3), 3), (Fraction(-1, 5), -5), (1, 1), (-1, -1)):
        assert QQ.inv(a) == inverse and type(QQ.inv(a)) is int
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def _non_unit_matrix(rng, nrows, ncols):
    """Integer entries in +-[2, 9], so every pivot of the first column is non-unit."""
    return [[rng.choice((-1, 1)) * rng.randrange(2, 10) for _ in range(ncols)]
            for _ in range(nrows)]


def _exact(values):
    return all(type(x) in (int, Fraction) for x in values)


@pytest.mark.parametrize("n", [4, 5])
def test_q_elimination_on_integer_matrices_matches_fraction_oracles(n):
    rng = random.Random(n)
    for trial in range(6):
        mat = _non_unit_matrix(rng, n, n + 1)
        if trial == 1:
            mat[-1] = [2 * x for x in mat[0][:-1]] + [mat[-1][-1]]  # rank-deficient minor
        det = minor_det(mat, range(n))
        assert _exact([det]) and det == det_cofactor([r[:n] for r in mat]), (n, mat)
        rows = [list(r) for r in mat]
        pivots = rref(rows, n + 1)
        assert _exact(x for r in rows for x in r)
        assert rows[: len(pivots)] == rref_fractions(mat), (n, mat)
