"""Ordinal arithmetic tests.

The oracles here are deliberately independent of the implementation:
comparison is re-derived from padded coefficient vectors, subtraction
results from bounded search over candidate ordinals, addition below
w^2 from a hand-derived closed form, and multiplication from left
distribution over repeated addition.  Expected values frozen in the
tests were computed with these oracles.

A natural is an int, so terms are read through `terms(x)` and ordinal `-`
on two naturals is `sub`; `Ordinal(n)` is a boxed natural.
"""

import operator
import random

import pytest
from canonical import is_canonical
from hypothesis import given, settings, strategies as st

from heh.ordinal import (
    OMEGA, ZERO, Ordinal, UndefinedOrdinalOp, is_limit, limit_part, omega_power, sub, terms,
)


# --- oracles ---------------------------------------------------------------


def ord_of(*terms):
    """Build an ordinal from (exp, coeff) pairs via public arithmetic."""
    result = ZERO
    for e, c in terms:
        result = result + omega_power(e, c)
    return result


def compare_by_coefficient_vectors(a, b):
    """Order oracle: compare [c_E, ..., c_1, c_0] lexicographically."""
    exps = [e for e, _ in terms(a)] + [e for e, _ in terms(b)]
    top = max(exps, default=0)
    ca, cb = dict(terms(a)), dict(terms(b))
    va = [ca.get(e, 0) for e in range(top, -1, -1)]
    vb = [cb.get(e, 0) for e in range(top, -1, -1)]
    return (va > vb) - (va < vb)


def small_ordinals(max_exp=2, max_coeff=4):
    """Every ordinal whose coefficients for w^0..w^max_exp are <= max_coeff."""
    # built in descending-exponent order so addition never absorbs
    result = []
    for coeffs in _coeff_tuples(max_exp, max_coeff):
        o = ZERO
        for e in range(max_exp, -1, -1):
            if coeffs[e]:
                o = o + omega_power(e, coeffs[e])
        result.append(o)
    return result


def _coeff_tuples(max_exp, max_coeff):
    if max_exp < 0:
        yield ()
        return
    for rest in _coeff_tuples(max_exp - 1, max_coeff):
        for c in range(max_coeff + 1):
            yield rest + (c,)


def natural_value(x):
    """x, checked to be a natural in canonical form: an int."""
    assert type(x) is int, x
    return x


def search_left_difference(a, b, candidates):
    """All x among candidates with b + x == a (should be exactly one when b <= a)."""
    return [x for x in candidates if b + x == a]


def add_below_w2_oracle(p, q, r, s):
    """(w*p + q) + (w*r + s) as (p', q'), derived by hand from absorption."""
    if r == 0:
        return (p, q + s)
    return (p + r, s)


def mul_by_distribution(a, b):
    """a*b as the left-distributive sum of a times each term of b: a*n is an
    n-fold repeated `+` (n <= 6), and a*w^e*c with e > 0 is w^(e1+e)*c, e1
    being a's leading exponent (the powers of w absorb a's lower terms)."""
    if not a:
        return ZERO
    result = ZERO
    for e, c in terms(b):
        if e:
            result = result + omega_power(terms(a)[0][0] + e, c)
        else:
            assert c <= 6, "keep the repeated sum short"
            for _ in range(c):
                result = result + a
    return result


def mixed_ordinal(rng, big=True, max_natural=None):
    """0-4 terms below w^6 whose coefficients mix 1-3 with (when `big`) ones up
    to 10**6; the natural term's coefficient is at most `max_natural`."""
    terms = []
    for e in sorted(rng.sample(range(6), rng.randrange(5)), reverse=True):
        c = rng.randint(1, 10**6) if big and rng.random() < 0.5 else rng.randint(1, 3)
        terms.append((e, min(c, max_natural) if e == 0 and max_natural else c))
    return ord_of(*terms)


# --- hypothesis strategy ----------------------------------------------------


@st.composite
def ordinals(draw, max_terms=4, max_exp=5, max_coeff=10**6):
    n = draw(st.integers(0, max_terms))
    exps = sorted(draw(st.sets(st.integers(0, max_exp), min_size=n, max_size=n)), reverse=True)
    return ord_of(*((e, draw(st.integers(1, max_coeff))) for e in exps))


# --- construction and canonical form ----------------------------------------


def test_construction():
    assert ZERO == 0 and type(ZERO) is int
    assert Ordinal(0).terms == ()
    assert Ordinal(7).terms == ((0, 7),)
    assert OMEGA.terms == ((1, 1),)
    assert omega_power(3, 2).terms == ((3, 2),)
    assert omega_power(2, 0) == ZERO
    for exponent, coefficient in ((-1, 1), (1, -1)):
        with pytest.raises(ValueError, match="^exponent and coefficient must be naturals$"):
            omega_power(exponent, coefficient)
    with pytest.raises(ValueError):
        Ordinal(-1)
    with pytest.raises(TypeError):
        Ordinal(1.5)


@given(ordinals())
def test_canonical_terms(a):
    # below w an int, from w on an Ordinal led by w^e with e >= 1
    assert is_canonical(a)
    assert type(a) is (int if not terms(a) or terms(a)[0][0] == 0 else Ordinal)


def test_immutability_and_hash():
    a = ord_of((1, 2), (0, 5))
    with pytest.raises(AttributeError):
        a.terms = ()
    assert hash(a) == hash(ord_of((1, 2), (0, 5)))
    assert len({a, ord_of((1, 2), (0, 5)), OMEGA}) == 2


def test_naturals_are_ints():
    # every operation on a boxed natural, the parser and omega_power give an int
    for n in (0, 1, 7, 1023, 1024, 5000, 10**30):
        boxed = Ordinal(n)
        assert boxed.terms == (((0, n),) if n else ()) and boxed == n
        for x in (boxed + 0, 0 + boxed, boxed * 1, boxed - 0, boxed // 1,
                  boxed % (n + 1), (OMEGA + n) - OMEGA, Ordinal.parse(str(n)),
                  omega_power(0, n), limit_part(OMEGA + n)[1], limit_part(boxed)[1]):
            assert natural_value(x) == n
        assert natural_value(limit_part(boxed)[0]) == 0
    for bad, error in ((-1, ValueError), (True, TypeError), (1.5, TypeError)):
        with pytest.raises(error):
            Ordinal(bad)


@given(st.integers(0, 3000))
def test_boxed_naturals_are_immutable(n):
    a = Ordinal(n)
    with pytest.raises(AttributeError):
        a.terms = ()
    with pytest.raises(AttributeError):
        setattr(a, "terms", ((1, 1),))
    assert Ordinal(n).terms == (((0, n),) if n else ())


def test_natural_hashes_like_its_int():
    assert hash(Ordinal(3)) == hash(3) and hash(ZERO) == hash(0)
    assert 3 in {Ordinal(3)} and Ordinal(3) in {3}
    assert {Ordinal(2): "x"}[2] == "x"


naturals = st.one_of(st.integers(0, 2000), st.integers(0, 10**20))


@given(st.one_of(ordinals(), naturals, naturals.map(Ordinal)),
       st.one_of(naturals, st.integers(-5, -1)))
def test_equal_ordinal_and_int_hash_alike(a, b):
    if a == b:
        assert hash(a) == hash(b)
    else:
        assert a != b
    lead, n = limit_part(a)
    if lead == 0:  # a natural, boxed or not
        assert hash(a) == hash(n)


def test_negative_int_is_unequal_and_unordered():
    # a negative int is no ordinal: it compares as any unrelated type would
    assert Ordinal(3) != -1 and not Ordinal(3) == -1 and Ordinal(0) != -1
    mixed = [Ordinal(3), -1, 3, -3]
    assert mixed.count(-1) == 1 and mixed.index(Ordinal(3)) == 0
    assert {Ordinal(2): "x", -2: "y"} == {2: "x", -2: "y"}
    assert -2 not in {Ordinal(2), OMEGA}
    for compare in (lambda: Ordinal(0) < -1, lambda: Ordinal(3) >= -1,
                    lambda: -1 <= OMEGA):
        with pytest.raises(TypeError):
            compare()
    for arithmetic in (lambda: Ordinal(3) + -1, lambda: -1 + Ordinal(3)):
        with pytest.raises(ValueError):
            arithmetic()


# --- operator protocol ---------------------------------------------------------


ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "//": operator.floordiv, "%": operator.mod, "divmod": divmod}
ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@pytest.mark.parametrize("other", [True, -1, 1.5, "w", None], ids=repr)
@pytest.mark.parametrize("x", [OMEGA, Ordinal(3), Ordinal(0), omega_power(2, 3) + 4], ids=str)
def test_operator_protocol_table(x, other):
    # all 12 operators, the non-ordinal on either side: arithmetic with a
    # negative int raises ValueError, any other arithmetic or order TypeError
    for a, b in ((x, other), (other, x)):
        for name, op in {**ARITHMETIC, **ORDER}.items():
            expected = ValueError if type(other) is int and name in ARITHMETIC else TypeError
            with pytest.raises(expected):
                op(a, b)
        assert (a == b) is False and (a != b) is True
    if other != "w":  # ordinal `-` as the evaluator calls it
        with pytest.raises(ValueError if type(other) is int else TypeError):
            sub(other, x)
        with pytest.raises(ValueError if type(other) is int else TypeError):
            sub(x, other)


def test_arithmetic_results_are_canonical():
    rng = random.Random(5)
    operands = [0, 1, 7, 10**20, Ordinal(0), Ordinal(1), Ordinal(7), Ordinal(10**20),
                OMEGA, OMEGA + 3, omega_power(2, 3), omega_power(2) + OMEGA * 2 + 1]
    operands += [mixed_ordinal(rng) for _ in range(24)]
    for a in operands:
        for b in operands:
            if type(a) is int and type(b) is int:
                continue  # Python's own arithmetic
            for name, op in {**ARITHMETIC, "sub": sub}.items():
                try:
                    result = op(a, b)
                except (UndefinedOrdinalOp, ZeroDivisionError):
                    continue
                for value in result if name == "divmod" else (result,):
                    assert is_canonical(value), (a, name, b, value)


# --- order -------------------------------------------------------------------


def test_order_witnesses():
    # non-commutativity of addition is visible through the order
    assert Ordinal(2) + OMEGA == OMEGA
    assert OMEGA < OMEGA + 2
    assert Ordinal(2) + OMEGA < OMEGA + 2
    # frozen from compare_by_coefficient_vectors: w^2 > w*3
    assert compare_by_coefficient_vectors(omega_power(2), omega_power(1, 3)) == 1
    assert omega_power(2) > omega_power(1, 3)
    assert Ordinal(41) < Ordinal(42) < OMEGA


@given(ordinals(max_coeff=9), ordinals(max_coeff=9))
def test_order_matches_oracle(a, b):
    expected = compare_by_coefficient_vectors(a, b)
    got = (a > b) - (a < b)
    assert got == expected
    assert (a == b) == (expected == 0)


@given(ordinals(), ordinals(), ordinals())
def test_order_is_total_and_transitive(a, b, c):
    assert (a < b) + (a == b) + (a > b) == 1
    if a <= b <= c:
        assert a <= c


# --- addition ----------------------------------------------------------------


def test_add_witnesses():
    assert OMEGA + 0 == OMEGA
    assert 0 + OMEGA == OMEGA
    assert Ordinal(2) + OMEGA == OMEGA
    assert (OMEGA + 2).terms == ((1, 1), (0, 2))
    assert (OMEGA + OMEGA) == omega_power(1, 2)
    assert omega_power(2) + OMEGA + 3 == ord_of((2, 1), (1, 1), (0, 3))
    # int on the left must not be treated commutatively
    assert 5 + OMEGA == OMEGA
    assert (OMEGA + 5) != 5 + OMEGA


@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
def test_add_matches_closed_form_below_w2(p, q, r, s):
    a = omega_power(1, p) + q if p else Ordinal(q)
    b = omega_power(1, r) + s if r else Ordinal(s)
    ep, eq = add_below_w2_oracle(p, q, r, s)
    expected = omega_power(1, ep) + eq if ep else Ordinal(eq)
    assert a + b == expected


@given(ordinals(), ordinals(), ordinals())
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(ordinals(), ordinals())
def test_add_monotone(a, b):
    if a < b:
        c = omega_power(2, 3) + 1
        assert c + a < c + b      # strictly monotone on the right
        assert a + c <= b + c     # weakly monotone on the left


# --- subtraction -------------------------------------------------------------


def test_left_sub_witnesses():
    assert OMEGA - 1 == OMEGA                     # 1 + w == w
    assert (OMEGA + 42) - (OMEGA + 2) == Ordinal(40)  # frozen from bounded search
    assert OMEGA - OMEGA == ZERO
    assert (omega_power(2) + 5) - omega_power(2) == Ordinal(5)
    with pytest.raises(UndefinedOrdinalOp):
        Ordinal(1) - 2
    with pytest.raises(UndefinedOrdinalOp):
        sub(1, 2)
    with pytest.raises(UndefinedOrdinalOp):
        OMEGA - (OMEGA + 1)


def test_left_sub_unique_against_search():
    candidates = small_ordinals(max_exp=1, max_coeff=3)
    for a in candidates:
        for b in candidates:
            hits = search_left_difference(a, b, candidates)
            if b <= a:
                assert len(hits) == 1
                assert sub(a, b) == hits[0]
            else:
                with pytest.raises(UndefinedOrdinalOp):
                    sub(a, b)


@given(ordinals(), ordinals())
def test_left_sub_roundtrip(a, b):
    assert sub(b + a, b) == a
    lo, hi = (a, b) if a <= b else (b, a)
    assert lo + sub(hi, lo) == hi


# --- multiplication ----------------------------------------------------------


def test_mul_witnesses():
    assert Ordinal(2) * OMEGA == OMEGA
    assert OMEGA < OMEGA * 2
    assert (OMEGA + 1) * OMEGA == omega_power(2)
    assert omega_power(2) < omega_power(2) + OMEGA  # right distribution would differ
    assert (OMEGA + 1) * 2 == ord_of((1, 2), (0, 1))
    assert OMEGA * 0 == ZERO == Ordinal(0) * OMEGA
    assert (OMEGA + 3) * 1 == OMEGA + 3
    assert 2 * OMEGA == OMEGA  # reflected form keeps operand order


@given(ordinals(max_coeff=999), ordinals(max_coeff=999), ordinals(max_coeff=999))
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(ordinals(max_coeff=999), ordinals(max_coeff=999), ordinals(max_coeff=999))
def test_mul_left_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


def test_mul_matches_distributive_oracle():
    rng = random.Random(5)
    for _ in range(4000):
        a, b = mixed_ordinal(rng), mixed_ordinal(rng, max_natural=rng.randint(1, 6))
        assert terms(a * b) == terms(mul_by_distribution(a, b)), (a, b)


def test_mul_not_right_distributive():
    # (w+1)*w == w^2 but w*w + 1*w == w^2 + w
    assert (OMEGA + 1) * OMEGA == omega_power(2)
    assert OMEGA * OMEGA + 1 * OMEGA == omega_power(2) + OMEGA
    assert (OMEGA + 1) * OMEGA != OMEGA * OMEGA + 1 * OMEGA


# --- division ----------------------------------------------------------------


def test_divmod_witnesses():
    assert divmod(OMEGA + 5, OMEGA) == (Ordinal(1), Ordinal(5))
    # frozen via multiply-back: w*2 + 7 == w*2 + 7, remainder 7 < w
    assert divmod(omega_power(1, 2) + 7, OMEGA) == (Ordinal(2), Ordinal(7))
    assert divmod(Ordinal(17), Ordinal(5)) == (Ordinal(3), Ordinal(2))
    assert (OMEGA + 5) // OMEGA == Ordinal(1)
    assert (OMEGA + 5) % OMEGA == Ordinal(5)
    assert divmod(omega_power(2), omega_power(1, 2)) == (OMEGA, ZERO)
    with pytest.raises(ZeroDivisionError):
        divmod(OMEGA, 0)


@given(ordinals(max_coeff=9999), ordinals(max_coeff=9999))
def test_division_theorem(a, b):
    if not b:
        return
    q, r = divmod(a, b)
    assert b * q + r == a
    assert r < b


def test_divmod_against_distributive_oracle():
    """Small coefficients keep the quotient's natural term at most 3; half the
    divisors copy a's leading terms, one coefficient maybe raised by 1, so a
    first guess at that term often overshoots by one."""
    rng = random.Random(6)
    for _ in range(4000):
        a, b = mixed_ordinal(rng, big=False), mixed_ordinal(rng, big=False)
        if a and rng.random() < 0.5:
            head = list(terms(a)[:rng.randint(1, len(terms(a)))])
            e, c = head[-1]
            head[-1] = (e, c + rng.randint(0, 1))
            b = ord_of(*head)
        if not b:
            continue
        q, r = divmod(a, b)
        assert mul_by_distribution(b, q) + r == a and r < b, (a, b, q, r)


@settings(max_examples=50)
@given(ordinals(max_exp=3, max_coeff=5), ordinals(max_exp=3, max_coeff=5))
def test_division_unique(a, b):
    if not b:
        return
    q, r = divmod(a, b)
    for dq in (ZERO, Ordinal(1), OMEGA):
        alt_q = q + dq
        if dq and b * alt_q <= a:
            # any larger quotient forces the remainder negative
            assert b * alt_q + sub(a, b * alt_q) == a
            assert not sub(a, b * alt_q) < b or alt_q == q


# --- classification ----------------------------------------------------------


def test_limits_and_naturals():
    for x in (OMEGA, omega_power(1, 2), omega_power(2)):
        assert is_limit(x)
    assert not is_limit(OMEGA + 21)
    assert not is_limit(ZERO) and not is_limit(Ordinal(0))
    assert not is_limit(3) and not is_limit(Ordinal(3))
    # a natural is an int, and a boxed one equals it; w is neither
    assert type(ZERO) is type(Ordinal(9) + 0) is int and Ordinal(9) == 9
    assert type(OMEGA) is Ordinal and limit_part(OMEGA) == (OMEGA, 0)


def test_limit_part():
    assert limit_part(omega_power(1, 2) + 7) == (omega_power(1, 2), 7)
    assert limit_part(OMEGA) == (OMEGA, 0)
    assert limit_part(Ordinal(7)) == (ZERO, 7)
    assert limit_part(Ordinal(0)) == (ZERO, 0)
    assert limit_part(OMEGA + 7) == (OMEGA, 7)
    assert limit_part(7) == (ZERO, 7) and limit_part(ZERO) == (ZERO, 0)


# --- naturals agreement -------------------------------------------------------


def test_naturals_behave_like_ints():
    rng = random.Random(7)
    pairs = [(rng.randrange(10**4), rng.randrange(10**4)) for _ in range(500)]
    pairs += [(i, j) for i in range(8) for j in range(8)]
    for x, y in pairs:
        a, b = Ordinal(x), Ordinal(y)
        assert natural_value(a + b) == x + y
        assert natural_value(a * b) == x * y
        assert (a < b) == (x < y) and (a == b) == (x == y)
        if y <= x:
            assert natural_value(a - b) == x - y
        if y:
            q, r = divmod(a, b)
            assert (natural_value(q), natural_value(r)) == divmod(x, y)


@given(naturals, naturals, st.sampled_from([int, Ordinal]))
def test_natural_fast_paths_match_ints(x, y, make):
    # the fast path for two naturals is Python's own int arithmetic; a boxed
    # natural takes Ordinal's general path and must agree with it
    a, b = make(x), make(y)
    assert natural_value(a + b) == x + y and terms(a + b) == terms(Ordinal(x + y))
    assert (a < b) == (x < y) and (a <= b) == (x <= y)
    assert (a > b) == (x > y) and (a >= b) == (x >= y)
    assert (a == b) == (x == y) and (a != b) == (x != y)
    assert limit_part(a) == (0, x) and not is_limit(a)
    if y <= x:
        assert natural_value(sub(a, b)) == x - y and terms(sub(a, b)) == terms(Ordinal(x - y))
    else:
        with pytest.raises(UndefinedOrdinalOp) as error:
            sub(a, b)
        assert str(error.value) == f"({x}) - ({y}) is undefined: subtrahend is larger"


@given(naturals, ordinals(max_coeff=50).filter(lambda o: type(o) is Ordinal))
def test_mixed_natural_and_transfinite_operands(n, x):
    a = n
    assert a + x == x        # n is absorbed below x's leading term
    assert x - a == x        # so x is also the left difference
    assert (x + a) - x == a
    coeffs = dict(x.terms)
    coeffs[0] = coeffs.get(0, 0) + n
    assert (x + a).terms == tuple((e, c) for e, c in sorted(coeffs.items(), reverse=True) if c)
    assert a < x and a <= x and x > a and x >= a and a != x
    for left_sub in (lambda: a - x, lambda: sub(a, x)):
        with pytest.raises(UndefinedOrdinalOp) as error:
            left_sub()
        assert str(error.value) == f"({n}) - ({x}) is undefined: subtrahend is larger"
    assert is_limit(limit_part(x)[0])  # x is no natural


def test_reflected_operators_take_an_int_on_the_left():
    """`int op Ordinal` runs the reflected methods: on naturals they agree
    with int arithmetic, and past w they keep the operands in order."""
    rng = random.Random(11)
    pairs = [(rng.randrange(10**4), rng.randrange(1, 10**4)) for _ in range(300)]
    pairs += [(i, j) for i in range(6) for j in range(1, 6)]
    for x, y in pairs:
        b = Ordinal(y)
        if y <= x:
            assert natural_value(x - b) == x - y
        else:
            with pytest.raises(UndefinedOrdinalOp):
                x - b
        q, r = divmod(x, b)
        assert (natural_value(q), natural_value(r)) == divmod(x, y)
        assert natural_value(x // b) == x // y
        assert natural_value(x % b) == x % y
    with pytest.raises(UndefinedOrdinalOp) as error:
        3 - OMEGA
    assert str(error.value) == "(3) - (w) is undefined: subtrahend is larger"
    assert 3 - Ordinal(3) == ZERO
    assert divmod(3, OMEGA) == (ZERO, Ordinal(3))
    assert (3 // OMEGA, 3 % OMEGA) == (ZERO, Ordinal(3))
    for reflected in (lambda: divmod(3, ZERO), lambda: 3 // ZERO, lambda: 3 % ZERO):
        with pytest.raises(ZeroDivisionError):
            reflected()
    # a bool is not an ordinal, and a negative int is none either
    for reflected in (lambda: True - OMEGA, lambda: divmod(True, OMEGA),
                      lambda: True // OMEGA, lambda: True % OMEGA):
        with pytest.raises(TypeError):
            reflected()
    with pytest.raises(ValueError):
        -1 - OMEGA


@pytest.mark.parametrize("a, b", [(4, -1), (0, -1), (-1, 4)], ids=str)
def test_sub_rejects_a_negative_int_on_either_side(a, b):
    # two ints take Python's `-`, but only when both are ordinals
    with pytest.raises(ValueError) as error:
        sub(a, b)
    assert str(error.value) == "ordinals cannot be negative: -1"


# --- text form -----------------------------------------------------------------


def test_render():
    assert str(ZERO) == "0"
    assert str(Ordinal(5)) == "5"
    assert str(OMEGA) == "w"
    assert str(omega_power(1, 2)) == "w*2"
    assert str(omega_power(2)) == "w^2"
    assert str(ord_of((2, 3), (1, 2), (0, 5))) == "w^2*3 + w*2 + 5"


def test_parse():
    assert Ordinal.parse("0") == ZERO
    assert Ordinal.parse("w^2*3 + w*2 + 5") == ord_of((2, 3), (1, 2), (0, 5))
    assert Ordinal.parse("w^2*3+4") == ord_of((2, 3), (0, 4))
    assert Ordinal("w + 42") == OMEGA + 42
    # a natural term may be 0 only as the only term; leading zeros are read
    # as the lexer reads them
    for text, value in [("00", 0), (" 0 ", 0), ("007", 7), ("w + 05", OMEGA + 5)]:
        parsed = Ordinal.parse(text)
        assert parsed == value and parsed.__class__ is value.__class__, text
    for bad in ["", "w^", "x", "5 + w", "w*0", "w^2 + w^2", "w + 0", "w + 00",
                "0 + 0", "0 + w", "w^0*0"]:
        with pytest.raises(ValueError):
            Ordinal.parse(bad)


@given(ordinals())
def test_render_parse_roundtrip(a):
    assert Ordinal.parse(str(a)) == a
