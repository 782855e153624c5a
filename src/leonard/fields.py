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

import re
from dataclasses import dataclass, field
from fractions import Fraction

# the one accepted form of a rational scalar string: ASCII digits, an optional
# leading minus, an optional unsigned denominator; no spaces, "+" or "_"
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
MAX_DIGITS = 4300  # per input integer: CPython's default int/str conversion limit


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin to the bases 2, 3, 5, 7, exact for every
    n < 3,215,031,751 (the least strong pseudoprime to all four: Pomerance,
    Selfridge and Wagstaff, Math. Comp. 35 (1980)), so for every p < 2^31."""
    bases = (2, 3, 5, 7)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s m with m odd
    m = (n - 1) >> s
    return all(pow(a, m, n) == 1 or any(pow(a, m << r, n) == n - 1 for r in range(s)) for a in bases)


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
        return PrimeFieldElement(self.p, pow(self.r, -1, self.p))

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
    is_rational: bool = field(init=False, repr=False, compare=False)  # set once: every linalg kernel reads it

    def __post_init__(self):
        object.__setattr__(self, "is_rational", self.kind == "rational")
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
        if den % self.p == 0:
            raise ZeroDivisionError("denominator is 0 in GF(p)")
        return PrimeFieldElement(self.p, num * pow(den, -1, self.p) if den != 1 else num)

    def invert(self, x):
        """Multiplicative inverse; raises ZeroDivisionError when x = 0."""
        if self.is_rational:
            return Fraction(1) / x
        return x.inverse()

    def contains(self, x) -> bool:
        if self.is_rational:
            return isinstance(x, Fraction)
        return isinstance(x, PrimeFieldElement) and x.p == self.p

    # --- JSON encoding: rationals as "num/den" strings, residues as ints ---

    def encode_scalar(self, x):
        if self.is_rational:
            return f"{x.numerator}/{x.denominator}"
        return x.r

    def decode_scalar(self, obj):
        """Decode one JSON scalar.  Booleans, zero denominators, rational strings outside
        `_RATIONAL`, integers of over MAX_DIGITS digits and residues outside [0, p) raise ValueError."""
        if isinstance(obj, bool):
            raise ValueError(f"cannot decode a scalar from the boolean {obj!r}")
        if self.is_rational:
            if isinstance(obj, int):
                obj = str(obj)  # one grammar and one digit cap for both JSON forms
            if isinstance(obj, str):
                if not (m := _RATIONAL.fullmatch(obj)):
                    raise ValueError(f"rational scalar {obj!r} is not of the form -?[0-9]+(/[0-9]+)?")
                if max(len(m[1].lstrip("-")), len(m[2] or "")) > MAX_DIGITS:
                    raise ValueError(f"rational scalar has an integer of more than {MAX_DIGITS} digits")
                num, den = int(m[1]), int(m[2] or 1)
                if den == 0:
                    raise ValueError(f"zero denominator in rational scalar {obj!r}")
                return Fraction(num, den)
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
        if not isinstance(obj, dict):
            raise ValueError(f"field spec must be an object, not {obj!r}")
        kind = obj.get("kind")
        if kind == "prime" and "p" not in obj:
            raise ValueError("missing key 'p' in the prime field spec")
        if kind in ("rational", "prime"):
            return cls(kind, obj.get("p"))  # a rational spec with a modulus is refused as Field refuses it
        raise ValueError(f"unknown field spec {obj!r}")
