"""The canonical form of an ordinal, the one predicate the tests use for it.

`heh.ordinal` promises one representation per ordinal but does not check
it on the values it builds; the tests check it on the ordinals that
arithmetic and evaluation compute.
"""

from heh.ordinal import Ordinal


def is_canonical(x) -> bool:
    """x is an ordinal in canonical form: an int below w (never a bool), or
    an Ordinal of (exponent, coefficient) int pairs with strictly descending
    exponents, positive coefficients and a leading exponent of at least 1."""
    if x.__class__ is int:
        return x >= 0
    if x.__class__ is not Ordinal or not x.terms or x.terms[0][0] < 1:
        return False
    above = None  # the exponent of the term before
    for e, c in x.terms:
        if e.__class__ is not int or c.__class__ is not int or c <= 0:
            return False
        if e < 0 or above is not None and e >= above:
            return False
        above = e
    return True
