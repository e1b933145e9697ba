"""Exact scalar fields: arbitrary-precision rationals and prime fields GF(p).

A scalar by itself is a plain Python value -- for the rationals an ``int``
when the value is integral and a ``fractions.Fraction`` otherwise, for GF(p)
an ``int`` in ``[0, p)``.  Its meaning comes from the Field
object it travels with: matrices, subspaces and algebras carry the field tag
and refuse to combine values tagged with different fields.  There is no
implicit coercion between fields anywhere; integers are accepted on ingestion
(``validate`` / ``from_int``) because every field contains an image of Z.

No floating point is used anywhere in the package.  Since ``/`` on two ints
gives a float, the package has no ``/`` operator: ``RationalField.inv`` is
its one exact division.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FieldMismatchError, InvalidParameterError, ParseError

MAX_PRIME = 1 << 16

_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?\Z")
_INT_RE = re.compile(r"-?\d+\Z")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Base of the two exact fields, holding what they share.  Each defines
    ``zero``, ``one``, ``add``, ``sub``, ``mul``, ``neg``, ``inv``, ``from_int``,
    ``parse`` and ``validate`` (a scalar of the field, or FieldMismatchError)."""

    p: int | None = None

    def format(self, x) -> str:
        return str(x)

    def is_zero(self, a) -> bool:
        return a == self.zero


class RationalField(Field):
    """The field Q.  An integral scalar is an ``int`` and any other one a
    ``Fraction`` in lowest terms, so integer data runs on machine ints.

    ``validate``, ``parse``, ``from_int`` and ``inv`` return that form.  Sums
    and products of Fractions may be integral Fractions; they compare, hash
    and format exactly as the equal ints do.
    """

    p = None
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        """The exact inverse: an ``int`` when it is integral, else a Fraction."""
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        num, den = a.numerator, a.denominator
        if num == 1 or num == -1:
            return num * den
        return Fraction(den, num)

    def from_int(self, k):
        return int(k)

    def validate(self, x):
        if isinstance(x, int):
            return int(x)
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        raise FieldMismatchError(f"not a rational scalar: {x!r}")

    def parse(self, text):
        if not isinstance(text, str) or not _RATIONAL_RE.match(text):
            raise ParseError(f"malformed rational scalar: {text!r}")
        if "/" in text:
            num, den = text.split("/")
            if int(den) == 0:
                raise ParseError(f"zero denominator in scalar: {text!r}")
            return self.validate(Fraction(int(num), int(den)))
        return int(text)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    """The field GF(p) for a prime p < 2**16; scalars are ints in [0, p)."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise InvalidParameterError(f"modulus must be prime: {p!r}")
        if p >= MAX_PRIME:
            raise InvalidParameterError(f"modulus too large (p < 2^16 required): {p}")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def from_int(self, k):
        return k % self.p

    def validate(self, x):
        if isinstance(x, int):
            return x % self.p
        raise FieldMismatchError(f"not a GF({self.p}) scalar: {x!r}")

    def parse(self, text):
        if isinstance(text, int):
            return text % self.p
        if not isinstance(text, str) or not _INT_RE.match(text):
            raise ParseError(f"malformed GF({self.p}) scalar: {text!r}")
        return int(text) % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()

_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """Return the (cached) prime field with p elements."""
    fld = _GF_CACHE.get(p)
    if fld is None:
        fld = PrimeField(p)
        _GF_CACHE[p] = fld
    return fld


def same_field(a: Field, b: Field) -> None:
    if a != b:
        raise FieldMismatchError(f"field mismatch: {a!r} vs {b!r}")
