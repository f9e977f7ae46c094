"""Ordinals below w^w in Cantor normal form.

Every ordinal has one canonical representation.  A natural (an ordinal
below w) is a plain Python `int`, never a `bool`.  Any other ordinal is an
`Ordinal`: a tuple of (exponent, coefficient) pairs meaning
w^e1*c1 + w^e2*c2 + ... with strictly descending natural exponents,
positive integer coefficients and a leading exponent >= 1.  Equality is
int or term-tuple equality, and the order is plain int or tuple comparison
(an int compares as its terms, `()` for 0 and `((0, n),)` for n).
Coefficients and exponents are ordinary Python ints, which already gives
arbitrary precision.  `terms(x)`, `limit_part(x)` and `is_limit(x)` take
either form; `limit_part` and `is_limit` are module functions only.

Arithmetic follows the classical non-commutative rules: `+` absorbs low
terms of the left operand, `-` is left subtraction (the unique x with
b + x == a), `*` is left-distributive multiplication, and divmod
produces the unique (q, r) with a == b*q + r and r < b.  `*` and divmod
are one-pass closed forms over the term tuples (Manolios and Vroon 2005).

Two ints never reach `Ordinal`'s methods: `+`, `*`, `//`, `%` and the
order are Python's own on them, and `sub(a, b)` is the ordinal `-`, which
is Python's `-` on two ints wherever it is defined.  `_operand` is the one
rule that reads an operand, and every operator is built on it by one of
two templates: the five comparisons by `_comparison`, and the forward and
reflected `+`, `-`, `*`, `//`, `%` and divmod by `_arithmetic`, which
computes on term tuples and makes the result canonical with `_canonical`
(the int of a natural; `Ordinal._make` to other modules).  No operator
method is written by hand.

Partial operations raise UndefinedOrdinalOp (or ZeroDivisionError for
division by zero) instead of returning sentinels.  Instances are
immutable and hashable.  `Ordinal(n)` still builds a boxed natural, for
embedders: it equals and hashes like n, and arithmetic on it returns ints.
"""

from __future__ import annotations

import operator
import re
from typing import Tuple

__all__ = ["Ordinal", "UndefinedOrdinalOp", "is_limit", "limit_part", "omega_power",
           "sub", "terms", "OMEGA", "ZERO"]


class UndefinedOrdinalOp(ArithmeticError):
    """Raised when a partial ordinal operation has no result."""


Terms = Tuple[Tuple[int, int], ...]

_TERM_RE = re.compile(r"^(?:(?P<nat>\d+)|w(?:\^(?P<exp>\d+))?(?:\*(?P<coeff>\d+))?)$")


def _operand(x) -> "Terms | None":
    """The terms of an arithmetic operand, or None when it is no ordinal (a
    bool is none); a negative int raises."""
    if isinstance(x, Ordinal):
        return x.terms
    if isinstance(x, int) and not isinstance(x, bool):
        if x < 0:
            raise ValueError(f"ordinals cannot be negative: {x}")
        return ((0, x),) if x else ()
    return None


def _add(a: Terms, b: Terms) -> Terms:
    """a + b: the terms of a below b's leading exponent are absorbed."""
    if not b:
        return a
    e = b[0][0]
    i = len(a)
    while i > 0 and a[i - 1][0] < e:
        i -= 1
    if i > 0 and a[i - 1][0] == e:
        return a[: i - 1] + ((e, a[i - 1][1] + b[0][1]),) + b[1:]
    return a[:i] + b


def _sub(a: Terms, b: Terms) -> Terms:
    """Left subtraction: the unique x with b + x == a."""
    if b > a:
        raise UndefinedOrdinalOp(f"({_canonical(a)}) - ({_canonical(b)}) "
                                 "is undefined: subtrahend is larger")
    i = 0
    while i < len(b) and b[i] == a[i]:
        i += 1
    if i < len(b) and a[i][0] == b[i][0]:
        return ((a[i][0], a[i][1] - b[i][1]),) + a[i + 1 :]
    return a[i:]


def _mul(a: Terms, b: Terms) -> Terms:
    """Left-distributive product.  With w^e1*c1 leading a, a term w^e*c
    (e > 0) of b gives w^(e1+e)*c and a final natural term c gives
    w^e1*(c1*c) + a's tail; the exponents descend, so they concatenate."""
    if not a or not b:
        return ()
    e1, c1 = a[0]
    tail = () if b[-1][0] else ((e1, c1 * b[-1][1]),) + a[1:]
    return tuple([(e1 + e, c) for e, c in b if e]) + tail


def _divmod(a: Terms, b: Terms) -> "tuple[Terms, Terms]":
    """The unique (q, r) with a == b*q + r and r < b.  With w^f*d leading b,
    each term w^e*c (e > f) of a is b*w^(e-f)*c and gives q that term; the
    rest holds b k times, k = (its w^f coefficient) // d or one less; k ends
    q, and r = rest - b*k."""
    if not b:
        raise ZeroDivisionError("ordinal division by zero")
    f, d = b[0]
    q = [(e - f, c) for e, c in a if e > f]
    r = a[len(q):]
    k = r[0][1] // d if r and r[0][0] == f else 0
    if k and ((f, d * k),) + b[1:] > r:  # b*k > r, on terms
        k -= 1
    if k:
        q.append((0, k))
        r = _sub(r, _mul(b, ((0, k),)))
    return tuple(q), r


def _comparison(test):
    """An order method: `test` on the terms of both operands.  What
    `_operand` rejects, a negative int included, is unequal and unordered,
    as any unrelated type is."""
    def method(self, other):
        try:
            b = _operand(other)
        except ValueError:
            return NotImplemented
        return NotImplemented if b is None else test(self.terms, b)
    return method


def _canonical(terms: Terms) -> "int | Ordinal":
    """The canonical ordinal with these terms: an int below w.  The terms
    must descend with positive coefficients; the hot path does not check
    that, the tests do on what arithmetic and evaluation return."""
    if not terms:
        return 0
    if len(terms) == 1 and terms[0][0] == 0:
        return terms[0][1]
    self = object.__new__(Ordinal)
    object.__setattr__(self, "terms", terms)
    return self


def _arithmetic(fn, canonical=_canonical):
    """The forward and reflected methods of the operator `fn` computes on
    terms; `canonical` makes its result canonical."""
    def forward(self, other):
        b = _operand(other)
        return NotImplemented if b is None else canonical(fn(self.terms, b))

    def reflected(self, other):
        a = _operand(other)
        return NotImplemented if a is None else canonical(fn(a, self.terms))
    return forward, reflected


class Ordinal:
    """An ordinal below w^w in Cantor normal form; canonical at or above w."""

    __slots__ = ("terms",)

    terms: Terms

    def __init__(self, value: "int | str | Ordinal" = 0):
        terms = _operand(Ordinal.parse(value) if isinstance(value, str) else value)
        if terms is None:
            raise TypeError(f"cannot build an ordinal from {value!r}")
        object.__setattr__(self, "terms", terms)

    _make = staticmethod(_canonical)  # for other modules

    def __setattr__(self, name, value):
        raise AttributeError("Ordinal is immutable")

    # -- classification ------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- order ----------------------------------------------------------

    __eq__ = _comparison(operator.eq)
    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)

    def __hash__(self) -> int:
        # a boxed natural equals its int, so it must hash like it
        t = self.terms
        if not t:
            return hash(0)
        if len(t) == 1 and t[0][0] == 0:
            return hash(t[0][1])
        return hash(t)

    # -- arithmetic -----------------------------------------------------

    __add__, __radd__ = _arithmetic(_add)
    __sub__, __rsub__ = _arithmetic(_sub)
    __mul__, __rmul__ = _arithmetic(_mul)
    __floordiv__, __rfloordiv__ = _arithmetic(_divmod, lambda qr: _canonical(qr[0]))
    __mod__, __rmod__ = _arithmetic(_divmod, lambda qr: _canonical(qr[1]))
    __divmod__, __rdivmod__ = _arithmetic(_divmod, lambda qr: (_canonical(qr[0]),
                                                               _canonical(qr[1])))

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
    def parse(cls, text: str) -> "int | Ordinal":
        """Parse the rendering produced by str(), `w^2*3 + w*2 + 5`, so
        parse(str(a)) == a.  A natural term may be 0 only as the only term."""
        chunks = text.split("+")
        terms = []
        for chunk in chunks:
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
            if coeff == 0 and (m.group("nat") is None or len(chunks) > 1):
                raise ValueError(f"zero coefficient in ordinal literal: {text!r}")
            terms.append((exp, coeff))
        return _canonical(tuple(terms))


def sub(a, b):
    """Ordinal `-`, the left subtraction a - b: Python's `-` on two ints where
    it is defined, else `_sub` on their terms, which raises where it is not."""
    if a.__class__ is int and b.__class__ is int and a >= b >= 0:
        return a - b
    return _canonical(_sub(_operand(a), _operand(b)))


def terms(x) -> Terms:
    """The Cantor normal form terms of an int or an Ordinal."""
    return x.terms if x.__class__ is Ordinal else ((0, x),) if x else ()


def limit_part(x) -> "tuple[int | Ordinal, int]":
    """Split an int or an Ordinal as l + k with l limit-or-zero and k natural."""
    if x.__class__ is not Ordinal:
        return 0, x
    t = x.terms
    if t and t[-1][0] == 0:
        return _canonical(t[:-1]), t[-1][1]
    return _canonical(t), 0


def is_limit(x) -> bool:
    """True for a limit ordinal: non-zero and not a successor."""
    return x.__class__ is Ordinal and bool(x.terms) and x.terms[-1][0] != 0


def omega_power(exponent: int, coefficient: int = 1) -> "int | Ordinal":
    """Build w^exponent * coefficient."""
    if exponent < 0 or coefficient < 0:
        raise ValueError("exponent and coefficient must be naturals")
    if coefficient == 0:
        return ZERO
    return _canonical(((exponent, coefficient),))


ZERO = 0
OMEGA = _canonical(((1, 1),))
