"""Exact ground fields: rationals (arbitrary precision) and GF(p).

A :class:`Field` is a small context object.  Rational elements are plain
:class:`fractions.Fraction` values (already canonical: positive denominator,
reduced).  Prime-field elements are :class:`PrimeFieldElement` wrappers around
a residue in [0, p).  Both kinds support ``+ - * /`` and exact ``==``; there
is no tolerance anywhere in this package.

Never compare an element against the literal ``0``; use its truth value
(``if x:`` / ``if not x:``).  Cross-type equality is deliberately undefined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for p < 2^31."""
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


class PrimeFieldElement:
    """An element of GF(p), stored as the canonical residue in [0, p)."""

    __slots__ = ("p", "r")

    def __init__(self, p: int, r: int):
        self.p = p
        self.r = r % p

    def _res(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise ValueError("elements of different prime fields")
            return other.r
        if isinstance(other, int):
            return other % self.p
        return None

    def __add__(self, other):
        r = self._res(other)
        if r is None:
            return NotImplemented
        return PrimeFieldElement(self.p, self.r + r)

    __radd__ = __add__

    def __sub__(self, other):
        r = self._res(other)
        if r is None:
            return NotImplemented
        return PrimeFieldElement(self.p, self.r - r)

    def __rsub__(self, other):
        r = self._res(other)
        if r is None:
            return NotImplemented
        return PrimeFieldElement(self.p, r - self.r)

    def __mul__(self, other):
        r = self._res(other)
        if r is None:
            return NotImplemented
        return PrimeFieldElement(self.p, self.r * r)

    __rmul__ = __mul__

    def inverse(self) -> "PrimeFieldElement":
        if self.r == 0:
            raise ZeroDivisionError("0 has no inverse in GF(p)")
        return PrimeFieldElement(self.p, pow(self.r, self.p - 2, self.p))

    def __truediv__(self, other):
        r = self._res(other)
        if r is None:
            return NotImplemented
        return self * PrimeFieldElement(self.p, r).inverse()

    def __rtruediv__(self, other):
        r = self._res(other)
        if r is None:
            return NotImplemented
        return PrimeFieldElement(self.p, r) * self.inverse()

    def __neg__(self):
        return PrimeFieldElement(self.p, -self.r)

    def __pow__(self, n: int):
        return PrimeFieldElement(self.p, pow(self.r, n, self.p))

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElement):
            return self.p == other.p and self.r == other.r
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.r))

    def __bool__(self):
        return self.r != 0

    def __repr__(self):
        return f"{self.r}"


@dataclass(frozen=True)
class Field:
    """Ground field specification: the rationals or GF(p) for odd-or-2 prime p."""

    kind: str  # "rational" or "prime"
    p: int | None = None

    def __post_init__(self):
        if self.kind == "rational":
            if self.p is not None:
                raise ValueError("rational field takes no modulus")
        elif self.kind == "prime":
            if not isinstance(self.p, int) or not (2 <= self.p < 2**31):
                raise ValueError("p must be a prime below 2^31")
            if not is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @classmethod
    def rational(cls) -> "Field":
        return cls("rational")

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls("prime", p)

    @property
    def is_rational(self) -> bool:
        return self.kind == "rational"

    def zero(self):
        return Fraction(0) if self.is_rational else PrimeFieldElement(self.p, 0)

    def one(self):
        return Fraction(1) if self.is_rational else PrimeFieldElement(self.p, 1)

    def from_int(self, n: int):
        return Fraction(n) if self.is_rational else PrimeFieldElement(self.p, n)

    def fraction(self, num: int, den: int):
        """Canonical element num/den; raises ZeroDivisionError when den = 0."""
        if self.is_rational:
            return Fraction(num, den)
        d = PrimeFieldElement(self.p, den)
        if not d:
            raise ZeroDivisionError("denominator is 0 in GF(p)")
        return PrimeFieldElement(self.p, num) / d

    def invert(self, x):
        """Multiplicative inverse; raises ZeroDivisionError when x = 0."""
        if self.is_rational:
            return Fraction(1) / x
        return x.inverse()

    def contains(self, x) -> bool:
        if self.is_rational:
            return isinstance(x, Fraction)
        return isinstance(x, PrimeFieldElement) and x.p == self.p

    def elements(self):
        """All field elements in canonical order (prime fields only)."""
        if self.is_rational:
            raise ValueError("the rational field is not enumerable")
        return (PrimeFieldElement(self.p, r) for r in range(self.p))

    # --- JSON encoding: rationals as "num/den" strings, residues as ints ---

    def encode_scalar(self, x):
        if self.is_rational:
            return f"{x.numerator}/{x.denominator}"
        return x.r

    def decode_scalar(self, obj):
        """Decode one JSON scalar.  Booleans, zero denominators and residues
        outside [0, p) raise ValueError."""
        if isinstance(obj, bool):
            raise ValueError(f"cannot decode a scalar from the boolean {obj!r}")
        if self.is_rational:
            if isinstance(obj, str):
                num, _, den = obj.partition("/")
                den = int(den) if den else 1
                if den == 0:
                    raise ValueError(f"zero denominator in rational scalar {obj!r}")
                return Fraction(int(num), den)
            if isinstance(obj, int):
                return Fraction(obj)
            raise ValueError(f"cannot decode rational scalar from {obj!r}")
        if not isinstance(obj, int):
            raise ValueError(f"cannot decode GF({self.p}) scalar from {obj!r}")
        if not 0 <= obj < self.p:
            raise ValueError(f"GF({self.p}) residue {obj} lies outside [0, {self.p})")
        return PrimeFieldElement(self.p, obj)

    def to_json(self) -> dict:
        if self.is_rational:
            return {"kind": "rational"}
        return {"kind": "prime", "p": self.p}

    @classmethod
    def from_json(cls, obj: dict) -> "Field":
        kind = obj.get("kind")
        if kind == "rational":
            return cls.rational()
        if kind == "prime":
            return cls.prime(obj["p"])
        raise ValueError(f"unknown field spec {obj!r}")
