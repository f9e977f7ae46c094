"""The canonical forms of an ordinal and of a strict array, the one
predicate the tests use for each.

`heh.ordinal` promises one representation per ordinal, and
`heh.runtime.StrictArray` one shape/data layout, but neither checks it on
the values it builds; the tests check it on the ordinals and arrays that
arithmetic and evaluation compute.
"""

import math

from heh.ordinal import Ordinal
from heh.runtime import StrictArray


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


def is_canonical_array(x) -> bool:
    """x is a StrictArray as the evaluator must build one: of rank >= 1 (a
    scalar is a bare value), every extent an int (a strict array is
    finite), as many data as the product of the extents, and not a vector
    of ordinals (that is a tuple)."""
    if x.__class__ is not StrictArray or x.shape.__class__ is not tuple or not x.shape:
        return False
    if not all(s.__class__ is int and s >= 0 for s in x.shape):
        return False
    if len(x.data) != math.prod(x.shape):
        return False
    return len(x.shape) > 1 or not all(
        d.__class__ is int or d.__class__ is Ordinal for d in x.data)
