"""Ordinals below w^w in Cantor normal form.

An ordinal is kept as a tuple of (exponent, coefficient) pairs meaning
w^e1*c1 + w^e2*c2 + ... with strictly descending natural exponents and
positive integer coefficients; the empty tuple is 0.  The representation
is canonical, so equality is term-tuple equality and the order is plain
tuple comparison.  Coefficients and exponents are ordinary Python ints,
which already gives arbitrary precision.

Arithmetic follows the classical non-commutative rules: `+` absorbs low
terms of the left operand, `-` is left subtraction (the unique x with
b + x == a), `*` is left-distributive multiplication, and divmod
produces the unique (q, r) with a == b*q + r and r < b.  `*` and divmod
are one-pass closed forms over the term tuples (Manolios and Vroon 2005).

Partial operations raise UndefinedOrdinalOp (or ZeroDivisionError for
division by zero) instead of returning sentinels.  Instances are
immutable and hashable; a natural hashes like its int, since it compares
equal to it.

Most ordinals an evaluation computes are naturals (`()` or a single
`(0, c)` term).  `nat(n)` builds one cheaply, interning those below
`_NAT_CACHE`, and all four operations take a natural-number fast path
when both operands are naturals.  The general code after each fast path
is the spec; the fast paths only skip its steps.
"""

from __future__ import annotations

import re
from typing import Tuple

__all__ = ["Ordinal", "UndefinedOrdinalOp", "nat", "omega_power", "OMEGA", "ZERO"]


class UndefinedOrdinalOp(ArithmeticError):
    """Raised when a partial ordinal operation has no result."""


Terms = Tuple[Tuple[int, int], ...]

_TERM_RE = re.compile(r"^(?:(?P<nat>\d+)|w(?:\^(?P<exp>\d+))?(?:\*(?P<coeff>\d+))?)$")


class Ordinal:
    """An ordinal below w^w in Cantor normal form."""

    __slots__ = ("terms",)

    terms: Terms

    def __init__(self, value: "int | str | Ordinal" = 0):
        if isinstance(value, Ordinal):
            object.__setattr__(self, "terms", value.terms)
        elif isinstance(value, int) and not isinstance(value, bool):
            if value < 0:
                raise ValueError(f"ordinals cannot be negative: {value}")
            object.__setattr__(self, "terms", ((0, value),) if value else ())
        elif isinstance(value, str):
            object.__setattr__(self, "terms", Ordinal.parse(value).terms)
        else:
            raise TypeError(f"cannot build an ordinal from {value!r}")

    @classmethod
    def _make(cls, terms: Terms) -> "Ordinal":
        self = object.__new__(cls)
        object.__setattr__(self, "terms", terms)
        if __debug__:
            assert all(
                isinstance(e, int) and isinstance(c, int) and e >= 0 and c > 0
                for e, c in terms
            ), terms
            assert all(terms[i][0] > terms[i + 1][0] for i in range(len(terms) - 1)), terms
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Ordinal is immutable")

    # -- classification ------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_natural(self) -> bool:
        """True when the ordinal is below w."""
        t = self.terms
        return not t or (len(t) == 1 and t[0][0] == 0)

    @property
    def is_limit(self) -> bool:
        """True for limit ordinals: non-zero and not a successor."""
        return bool(self.terms) and self.terms[-1][0] != 0

    def natural(self) -> int:
        t = self.terms
        if not t:
            return 0
        if len(t) == 1 and t[0][0] == 0:
            return t[0][1]
        raise UndefinedOrdinalOp(f"{self} is not a natural number")

    def limit_part(self) -> "tuple[Ordinal, int]":
        """Split self as l + k with l limit-or-zero and k natural."""
        if self.terms and self.terms[-1][0] == 0:
            return Ordinal._make(self.terms[:-1]), self.terms[-1][1]
        return self, 0

    # -- order ----------------------------------------------------------

    def _cmp_key(self, other) -> "Terms | None":
        """`other`'s terms, or None when it is no ordinal (a negative int is
        none): then it is unequal and unordered, as any unrelated type."""
        if isinstance(other, Ordinal):
            return other.terms
        if isinstance(other, int) and not isinstance(other, bool) and other >= 0:
            return ((0, other),) if other else ()
        return None

    def __eq__(self, other) -> bool:
        key = self._cmp_key(other)
        return NotImplemented if key is None else self.terms == key

    def __lt__(self, other) -> bool:
        key = self._cmp_key(other)
        return NotImplemented if key is None else self.terms < key

    def __le__(self, other) -> bool:
        key = self._cmp_key(other)
        return NotImplemented if key is None else self.terms <= key

    def __gt__(self, other) -> bool:
        key = self._cmp_key(other)
        return NotImplemented if key is None else self.terms > key

    def __ge__(self, other) -> bool:
        key = self._cmp_key(other)
        return NotImplemented if key is None else self.terms >= key

    def __hash__(self) -> int:
        # a natural equals its int, so it must hash like it
        t = self.terms
        if not t:
            return hash(0)
        if len(t) == 1 and t[0][0] == 0:
            return hash(t[0][1])
        return hash(t)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "Ordinal":
        if other.__class__ is Ordinal:
            a, b = self.terms, other.terms
            if len(a) == 1 == len(b) and a[0][0] == 0 == b[0][0]:
                return nat(a[0][1] + b[0][1])
        else:
            other = _as_ordinal(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        e = other.terms[0][0]
        # terms of self below other's leading exponent are absorbed
        i = len(self.terms)
        while i > 0 and self.terms[i - 1][0] < e:
            i -= 1
        if i > 0 and self.terms[i - 1][0] == e:
            merged = ((e, self.terms[i - 1][1] + other.terms[0][1]),) + other.terms[1:]
            return Ordinal._make(self.terms[: i - 1] + merged)
        return Ordinal._make(self.terms[:i] + other.terms)

    def __radd__(self, other) -> "Ordinal":
        # addition is not commutative: delegate with operands in order
        other = _as_ordinal(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__add__(self)

    def __sub__(self, other) -> "Ordinal":
        """Left subtraction: the unique x with other + x == self."""
        if other.__class__ is Ordinal:
            a, b = self.terms, other.terms
            if len(a) == 1 == len(b) and a[0][0] == 0 == b[0][0] and a[0][1] >= b[0][1]:
                return nat(a[0][1] - b[0][1])
        else:
            other = _as_ordinal(other)
            if other is NotImplemented:
                return NotImplemented
        if other.terms == self.terms:
            return ZERO
        if other > self:
            raise UndefinedOrdinalOp(f"({self}) - ({other}) is undefined: subtrahend is larger")
        i = 0
        while i < len(other.terms) and other.terms[i] == self.terms[i]:
            i += 1
        if i == len(other.terms):
            return Ordinal._make(self.terms[i:])
        ea, ca = self.terms[i]
        eb, cb = other.terms[i]
        if ea == eb:
            return Ordinal._make(((ea, ca - cb),) + self.terms[i + 1 :])
        return Ordinal._make(self.terms[i:])

    def __mul__(self, other) -> "Ordinal":
        """Left-distributive product.  With w^e1*c1 leading self, a term w^e*c
        (e > 0) of other gives w^(e1+e)*c and a final natural term c gives
        w^e1*(c1*c) + self's tail; the exponents descend, so they concatenate."""
        if other.__class__ is not Ordinal:
            other = _as_ordinal(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return ZERO
        e1, c1 = a[0]
        if e1 == 0 == b[0][0]:
            return nat(c1 * b[0][1])
        tail = () if b[-1][0] else ((e1, c1 * b[-1][1]),) + a[1:]
        return Ordinal._make(tuple([(e1 + e, c) for e, c in b if e]) + tail)

    def __rmul__(self, other) -> "Ordinal":
        other = _as_ordinal(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__mul__(self)

    def __divmod__(self, other) -> "tuple[Ordinal, Ordinal]":
        """The unique (q, r) with self == other*q + r and r < other.  With
        w^f*d leading other, each term w^e*c (e > f) of self is other*w^(e-f)*c
        and gives q that term; the rest holds other k times, k = (its w^f
        coefficient) // d or one less; k ends q, and r = rest - other*k."""
        if other.__class__ is not Ordinal:
            other = _as_ordinal(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.terms, other.terms
        if not b:
            raise ZeroDivisionError("ordinal division by zero")
        f, d = b[0]
        if a and a[0][0] == 0 == f:
            q, r = map(nat, divmod(a[0][1], d))
        else:
            terms = [(e - f, c) for e, c in a if e > f]
            rest = a[len(terms):]
            k = rest[0][1] // d if rest and rest[0][0] == f else 0
            if k and ((f, d * k),) + b[1:] > rest:  # other*k > rest, on terms
                k -= 1
            r = Ordinal._make(rest)
            if k:
                r = r - other * nat(k)
            q = Ordinal._make(tuple(terms + [(0, k)] if k else terms))
        if __debug__:
            assert other * q + r == self and r < other, (self, other, q, r)
        return q, r

    def __rsub__(self, other) -> "Ordinal":
        other = _as_ordinal(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __rdivmod__(self, other):
        other = _as_ordinal(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__divmod__(self)

    def __floordiv__(self, other) -> "Ordinal":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Ordinal":
        return divmod(self, other)[1]

    def __rfloordiv__(self, other) -> "Ordinal":
        other = _as_ordinal(other)
        if other is NotImplemented:
            return NotImplemented
        return divmod(other, self)[0]

    def __rmod__(self, other) -> "Ordinal":
        other = _as_ordinal(other)
        if other is NotImplemented:
            return NotImplemented
        return divmod(other, self)[1]

    # -- text -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
                continue
            text = "w" if e == 1 else f"w^{e}"
            if c != 1:
                text += f"*{c}"
            parts.append(text)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Ordinal({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "Ordinal":
        """Parse the rendering produced by str(), `w^2*3 + w*2 + 5`, so
        parse(str(a)) == a."""
        if text.strip() == "0":
            return ZERO
        terms = []
        for chunk in text.split("+"):
            m = _TERM_RE.match(chunk.strip())
            if m is None:
                raise ValueError(f"not an ordinal literal: {text!r}")
            if m.group("nat") is not None:
                exp, coeff = 0, int(m.group("nat"))
            else:
                exp = int(m.group("exp")) if m.group("exp") else 1
                coeff = int(m.group("coeff")) if m.group("coeff") else 1
            if terms and exp >= terms[-1][0]:
                raise ValueError(f"ordinal terms out of order: {text!r}")
            if coeff == 0:
                raise ValueError(f"zero coefficient in ordinal literal: {text!r}")
            terms.append((exp, coeff))
        return Ordinal._make(tuple(terms))


def _as_ordinal(x) -> "Ordinal":
    if isinstance(x, Ordinal):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        if x < 0:
            raise ValueError(f"ordinals cannot be negative: {x}")
        return nat(x)
    return NotImplemented


# Sized from the perfbench workloads: every natural that ackermann and
# repl_mix build is below 1,024, and so are 85% of those nats builds (77%
# are 0 or 1).  A table of 4,096 bought no time and cost 0.6 MB of peak
# RSS on nats; tables of 16 or 256 lost about 5% of op_p50_ref there.
_NAT_CACHE = 1024


def _make_nat(n: int) -> Ordinal:
    self = object.__new__(Ordinal)
    object.__setattr__(self, "terms", ((0, n),) if n else ())
    return self


_NATS = tuple(_make_nat(n) for n in range(_NAT_CACHE))


def nat(n: int) -> Ordinal:
    """The natural n as an Ordinal; naturals below _NAT_CACHE are interned.
    Anything but an int >= 0 goes to the constructor, which rejects it."""
    if n.__class__ is int and n >= 0:
        return _NATS[n] if n < _NAT_CACHE else _make_nat(n)
    return Ordinal(n)


def omega_power(exponent: int, coefficient: int = 1) -> Ordinal:
    """Build w^exponent * coefficient."""
    if exponent < 0 or coefficient < 0:
        raise ValueError("exponent and coefficient must be naturals")
    if coefficient == 0:
        return ZERO
    return Ordinal._make(((exponent, coefficient),))


ZERO = _NATS[0]
OMEGA = Ordinal._make(((1, 1),))
