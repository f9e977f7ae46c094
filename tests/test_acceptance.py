"""Acceptance suite: one check per shipped guarantee, each printing a
`C<n> <label>: PASS/FAIL` line (run with `pytest -s` to see them inline).

Expected values come from in-file oracles (direct simulators, textbook
recursion, Python's own filtering) or hand-verified goldens.
"""

import functools
import random
import time
from itertools import product

import pytest
from astgen import gen_expr

from heh.eval import EvalConfig, EvalError, Session, evaluate, probe
from heh.ordinal import OMEGA, ZERO, Ordinal, omega_power
from heh.prelude import load_prelude, program_source
from heh.syntax import parse_expr, render


def criterion(number, label, budget=None):
    """Wrap a test so it reports one summary line and honors a time budget."""
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"\nC{number} {label}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            if budget is not None and elapsed >= budget:
                print(f"\nC{number} {label}: FAIL ({elapsed:.1f}s, budget {budget}s)")
                raise AssertionError(f"exceeded the {budget}s budget: {elapsed:.1f}s")
            print(f"\nC{number} {label}: PASS ({elapsed:.1f}s)")
        return run
    return wrap


def fresh_session(config=None, prelude=True):
    session = Session(config)
    if prelude:
        session.fuel = None
        load_prelude(session)
        session.fuel = session.config.fuel
    return session


def forced(session, source):
    """Shape tuple and payload list of a finite-valued expression."""
    return session._force_strict(session.eval_source(source), "ShapeMismatch",
                                 "expected finite")


### ---- C1: ordinal arithmetic laws ---------------------------------------------------


def random_ordinal(rng):
    n_terms = rng.randrange(0, 5)
    value = ZERO
    for exponent in sorted(rng.sample(range(6), k=n_terms), reverse=True):
        value = value + omega_power(exponent, rng.randint(1, 10**6))
    return value


@criterion(1, "ordinal arithmetic laws", budget=30)
def test_c1_ordinal_laws():
    rng = random.Random(101)
    for _ in range(100_000):
        a, b, c = (random_ordinal(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) - a == b
        assert (a + b == a + c) == (b == c)
        if b != ZERO:
            q, r = divmod(a, b)
            assert a == b * q + r and r < b

    two = Ordinal(2)
    assert two + OMEGA == OMEGA and OMEGA + two != OMEGA
    assert two * OMEGA == OMEGA and OMEGA * two != OMEGA
    assert (OMEGA + Ordinal(1)) * OMEGA == omega_power(2)


### ---- C2: worked-example goldens ----------------------------------------------------


@criterion(2, "worked-example goldens", budget=10)
def test_c2_worked_examples():
    session = fresh_session()

    assert probe(evaluate(r"reduce (\x.\y.x+y) 0 [[1,2],[3,4]]"), []) == 10

    for source, shape in [("|[]|", [0]), ("|[[]]|", [1, 0]),
                          ("|42|", []), ("|true|", [])]:
        got_shape, data = forced(session, source)
        assert got_shape == (len(shape),) and data == shape, source

    grid_shape, grid = forced(
        session, "imap [3,3] { [0,0] <= iv < [3,3]: iv.[0]*3 + iv.[1] }")
    assert grid_shape == (3, 3) and grid == [0, 1, 2, 3, 4, 5, 6, 7, 8]

    nats = evaluate(program_source("nats.heh"))
    assert nats.shape == (OMEGA,)
    for k in (0, 1, 2, 17, 40):
        assert probe(nats, [k]) == k

    countdown = evaluate(program_source("countdown.heh"))
    assert [probe(countdown, [i]) for i in range(10)] == list(range(10))

    session.run_program("let a2 = imap [w+42] {_(iv): iv.[0] * 2}")
    array, tail = session.eval_source("a2"), session.eval_source("tail a2")
    assert session.select_at(tail, [OMEGA]) == session.select_at(array, [OMEGA])
    assert session.select_at(tail, [3]) == session.select_at(array, [4])


### ---- C3: reshape/concat/filter equations and applicative laws -----------------------


def nested_literal(shape, flat):
    if not shape:
        return str(flat[0])
    chunk = len(flat) // shape[0] if shape[0] else 0
    inner = [nested_literal(shape[1:], flat[i * chunk:(i + 1) * chunk])
             for i in range(shape[0])]
    return "[" + ", ".join(inner) + "]"


def random_finite_array(rng):
    rank = rng.randint(1, 3)
    if rank == 1:
        shape = [rng.randint(0, 5)]
    else:
        shape = [rng.randint(1, 5) for _ in range(rank)]
    count = 1
    for s in shape:
        count *= s
    flat = [rng.randint(0, 99) for _ in range(count)]
    return shape, flat


def random_predicate(rng):
    if rng.random() < 0.5:
        m = rng.randint(2, 5)
        r = rng.randrange(m)
        return f"(\\x. x % {m} = {r})", lambda x, m=m, r=r: x % m == r
    t = rng.randint(0, 15)
    return f"(\\x. x > {t})", lambda x, t=t: x > t


@criterion(3, "reshape/concat/filter equations and applicative laws", budget=60)
def test_c3_equality_properties():
    session = fresh_session()
    rng = random.Random(303)

    # reshape |a| (flatten a) == a, 1000 finite instances
    for _ in range(1000):
        shape, flat = random_finite_array(rng)
        lit = nested_literal(shape, flat)
        got_shape, data = forced(session, f"reshape |{lit}| (flatten {lit})")
        assert got_shape == tuple(shape) and data == flat

    # ... and probed on shape [2, w]
    session.run_program("let A3 = imap [2, w] {_(iv): iv.[0] * 7 + iv.[1]}")
    session.run_program("let R3 = reshape |A3| (flatten A3)")
    a3, r3 = session.eval_source("A3"), session.eval_source("R3")
    for d, n in product((0, 1), range(50)):
        assert session.select_at(r3, [d, n]) == session.select_at(a3, [d, n])

    # drop |a| (a ++ b) == b, 1000 finite instances
    for _ in range(1000):
        a = [rng.randint(0, 99) for _ in range(rng.randint(0, 6))]
        b = [rng.randint(0, 99) for _ in range(rng.randint(0, 6))]
        lit_a, lit_b = nested_literal([len(a)], a), nested_literal([len(b)], b)
        got_shape, data = forced(session, f"drop |{lit_a}| ({lit_a} ++ {lit_b})")
        assert got_shape == (len(b),) and data == b

    # ... and probed with |a| = [w]
    session.run_program("let A4 = imap [w] {_(iv): iv.[0] * 2}")
    session.run_program("let B4 = imap [w] {_(iv): iv.[0] * 3 + 1}")
    dropped = session.eval_source("drop |A4| (A4 ++ B4)")
    b4 = session.eval_source("B4")
    for n in range(50):
        assert session.select_at(dropped, [n]) == session.select_at(b4, [n])

    # filter p (a ++ b) == (filter p a) ++ (filter p b), 1000 finite instances
    for _ in range(1000):
        src_p, oracle = random_predicate(rng)
        a = [rng.randint(0, 20) for _ in range(rng.randint(0, 6))]
        b = [rng.randint(0, 20) for _ in range(rng.randint(0, 6))]
        lit_a, lit_b = nested_literal([len(a)], a), nested_literal([len(b)], b)
        _, lhs = forced(session, f"filter {src_p} ({lit_a} ++ {lit_b})")
        _, rhs = forced(
            session, f"(filter {src_p} {lit_a}) ++ (filter {src_p} {lit_b})")
        expected = [x for x in a + b if oracle(x)]
        assert lhs == expected and rhs == expected

    # ... and probed below w and at w + n with a dense predicate
    session.run_program("let FL = filter (\\x. x % 2 = 0) (A4 ++ B4)")
    session.run_program(
        "let FR = (filter (\\x. x % 2 = 0) A4) ++ (filter (\\x. x % 2 = 0) B4)")
    fl, fr = session.eval_source("FL"), session.eval_source("FR")
    for n in range(50):
        assert session.select_at(fl, [n]) == session.select_at(fr, [n])
    for n in range(20):
        index = [OMEGA + Ordinal(n)]
        assert session.select_at(fl, index) == session.select_at(fr, index)

    # applicative laws over pure/ap, 250 finite instances each
    session.run_program("let pure = \\shp.\\x. imap shp {_(iv): x}")
    session.run_program("let ap = \\shp.\\a.\\b. imap shp {_(iv): (a.iv) (b.iv)}")
    session.run_program("let comp = \\f.\\g.\\x. f (g x)")

    def fun_array(s, k):
        return f"(imap {s} {{_(iv): \\x. x * {k} + (i2o iv {s})}})"

    def val_array(s, j, c):
        return f"(imap {s} {{_(iv): (i2o iv {s}) * {j} + {c}}})"

    def agree(lhs, rhs):
        assert forced(session, lhs) == forced(session, rhs), (lhs, rhs)

    for _ in range(250):
        shp = [rng.randint(1, 4) for _ in range(rng.randint(1, 2))]
        s = "[" + ", ".join(map(str, shp)) + "]"
        k1, k2, j, c, y = (rng.randint(0, 9) for _ in range(5))
        u, v = fun_array(s, k1), fun_array(s, k2)
        w = val_array(s, j, c)
        agree(f"ap {s} (pure {s} (\\x.x)) {w}", w)
        agree(f"ap {s} (ap {s} (ap {s} (pure {s} comp) {u}) {v}) {w}",
              f"ap {s} {u} (ap {s} {v} {w})")
        agree(f"ap {s} (pure {s} (\\x. x * {k1} + {c})) (pure {s} {y})",
              f"pure {s} ((\\x. x * {k1} + {c}) {y})")
        agree(f"ap {s} {u} (pure {s} {y})",
              f"ap {s} (pure {s} (\\f. f {y})) {u}")

    # ... and probed on shape [w]
    s = "[w]"
    u, v, w = fun_array(s, 3), fun_array(s, 5), val_array(s, 2, 7)
    pairs = [
        (f"ap {s} (pure {s} (\\x.x)) {w}", w),
        (f"ap {s} (ap {s} (ap {s} (pure {s} comp) {u}) {v}) {w}",
         f"ap {s} {u} (ap {s} {v} {w})"),
        (f"ap {s} (pure {s} (\\x. x + 4)) (pure {s} 9)",
         f"pure {s} ((\\x. x + 4) 9)"),
        (f"ap {s} {u} (pure {s} 6)", f"ap {s} (pure {s} (\\f. f 6)) {u}"),
    ]
    for lhs, rhs in pairs:
        left, right = session.eval_source(lhs), session.eval_source(rhs)
        for n in range(50):
            assert session.select_at(left, [n]) == session.select_at(right, [n])


### ---- C4: Ackermann table and the memoization effect ---------------------------------


def ackermann_oracle(m, n):
    if m == 0:
        return n + 1
    if n == 0:
        return ackermann_oracle(m - 1, 1)
    return ackermann_oracle(m - 1, ackermann_oracle(m, n - 1))


@criterion(4, "Ackermann table and memoization effect", budget=20)
def test_c4_ackermann():
    source = program_source("ackermann.heh")

    table = evaluate(source, EvalConfig(fuel=10**6))
    for m, n in product(range(4), repeat=2):
        assert probe(table, [m, n]) == ackermann_oracle(m, n)

    fresh = evaluate(source, EvalConfig(fuel=10**6))
    assert probe(fresh, [3, 3]) == 61  # memoized: completes within the budget

    unmemoized = evaluate(source, EvalConfig(memoize=False, fuel=10**6))
    try:
        value = probe(unmemoized, [3, 3])
    except EvalError as error:
        assert error.kind == "FuelExhausted"
    else:
        raise AssertionError(
            "expected the unmemoized [3,3] probe to exhaust fuel 10^6, but it "
            f"evaluated to {value}; the naive recursion tree for [3,3] takes "
            "only ~83,000 rule applications, so this budget cannot separate "
            "the two modes at [3,3] (probe [3,6] instead to see the effect: "
            "memoized ~47,000 rules, unmemoized exhausts 10^6)")


def test_c4_memoization_effect_at_3_6():
    # the separation the fuel budget can demonstrate: one column further out
    source = program_source("ackermann.heh")
    memo = evaluate(source, EvalConfig(fuel=10**6))
    assert probe(memo, [3, 6]) == ackermann_oracle(3, 6) == 509

    unmemoized = evaluate(source, EvalConfig(memoize=False, fuel=10**6))
    with pytest.raises(EvalError) as err:
        probe(unmemoized, [3, 6])
    assert err.value.kind == "FuelExhausted"


### ---- C5: Game of Life, finite and on the infinite plane ------------------------------


def life_oracle(board, steps):
    n, m = len(board), len(board[0])
    for _ in range(steps):
        nxt = [[0] * m for _ in range(n)]
        for i in range(n):
            for j in range(m):
                c = sum(board[i + di][j + dj]
                        for di in (-1, 0, 1) for dj in (-1, 0, 1)
                        if (di or dj) and 0 <= i + di < n and 0 <= j + dj < m)
                nxt[i][j] = 1 if (c == 3 or (c == 2 and board[i][j] == 1)) else 0
        board = nxt
    return board


BLINKER = [[0, 0, 0, 0, 0],
           [0, 0, 1, 0, 0],
           [0, 0, 1, 0, 0],
           [0, 0, 1, 0, 0],
           [0, 0, 0, 0, 0]]

GLIDER = [[0, 1, 0, 0, 0, 0],
          [0, 0, 1, 0, 0, 0],
          [1, 1, 1, 0, 0, 0],
          [0, 0, 0, 0, 0, 0],
          [0, 0, 0, 0, 0, 0],
          [0, 0, 0, 0, 0, 0]]


def board_literal(board):
    return "[" + ", ".join(
        "[" + ", ".join(str(c) for c in row) + "]" for row in board) + "]"


@criterion(5, "Game of Life (finite oracle and infinite plane)", budget=30)
def test_c5_game_of_life():
    session = fresh_session()
    for board in (BLINKER, GLIDER):
        expr = board_literal(board)
        for step in range(1, 5):
            expr = f"gol_step ({expr})"
            value = session.eval_source(expr)
            rows, cols = len(board), len(board[0])
            got = [[session.select_at(value, [i, j]) for j in range(cols)]
                   for i in range(rows)]
            assert got == life_oracle(board, step), f"step {step}"

    session.run_program("let seed = " + board_literal(GLIDER))
    session.run_program(
        "let plane = imap [w, w] "
        "{ _(iv): if and (iv.[0] < 6) (iv.[1] < 6) then seed.iv else 0 }")
    stepped = session.eval_source("gol_step (gol_step plane)")
    # a window away from the board edge matches a wide finite simulation
    wide = [row[:] + [0] * 9 for row in GLIDER] + [[0] * 15 for _ in range(9)]
    expected = life_oracle(wide, 2)
    for i, j in product(range(10), repeat=2):
        assert session.select_at(stepped, [i, j]) == expected[i][j]


### ---- C6: filtering against a sequential oracle ----------------------------------------


@criterion(6, "filter semantics (oracle, probes, shape postulates, divergence)")
def test_c6_filter():
    session = fresh_session()
    rng = random.Random(606)

    for _ in range(1000):
        src_p, oracle = random_predicate(rng)
        values = [rng.randint(0, 20) for _ in range(rng.randint(0, 8))]
        lit = nested_literal([len(values)], values)
        got_shape, data = forced(session, f"filter {src_p} {lit}")
        expected = [x for x in values if oracle(x)]
        assert got_shape == (len(expected),) and data == expected

    session.run_program("let nats6 = imap [w] {_(iv): iv.[0]}")
    evens = session.eval_source("filter (\\x. x % 2 = 0) nats6")
    for n in range(30):
        assert session.select_at(evens, [n]) == 2 * n

    # shape postulates never run the predicate
    for src, expected_shape in [
            ("filter (\\x. x > 0) (imap [w] {_(iv): iv.[0]})", (OMEGA,)),
            ("filter (\\x. x > 0) (imap [w*2] {_(iv): 1})", (OMEGA * 2,)),
    ]:
        fresh = fresh_session()
        calls_before = fresh.stats["predicate_calls"]
        assert fresh.shape_at(fresh.eval_source(src)) == expected_shape
        assert fresh.stats["predicate_calls"] == calls_before

    # a trailing finite segment shortens by its rejected elements
    trailing = fresh_session()
    shape = trailing.shape_at(trailing.eval_source(
        "filter (\\x. x = 1) (imap [w+3] { [0] <= iv < [w]: 1, "
        "[w] <= iv < [w+3]: iv.[0] - w })"))
    assert shape == (OMEGA + Ordinal(1),)

    # a filter that never finds an element burns its budget and stops
    divergent = fresh_session(EvalConfig(fuel=200_000))
    with pytest.raises(EvalError) as err:
        divergent.select_at(
            divergent.eval_source("filter (\\x. x > 0) (imap [w] {_(iv): 0})"),
            [0])
    assert err.value.kind == "FuelExhausted"


### ---- C7: configuration coherence --------------------------------------------------------


GOLDENS = [
    (r"reduce (\x.\y.x+y) 0 [[1,2],[3,4]]", [[]]),
    ("imap [3,3] { [0,0] <= iv < [3,3]: iv.[0]*3 + iv.[1] }",
     [[i, j] for i in range(3) for j in range(3)]),
    ("[1,2] ++ [3,4,5]", [[i] for i in range(5)]),
    ("reverse [4,5,6]", [[i] for i in range(3)]),
    ("take [2] (drop [1] [7,8,9,10])", [[i] for i in range(2)]),
    ("sum [1,2,3,4]", [[]]),
    ("o2i (i2o [1,2] [3,4]) [3,4]", [[0], [1]]),
    (r"filter (\x. x % 2 = 0) [3,4,7,8,10,13]", [[i] for i in range(3)]),
    ("fzip [1,2,3] [4,5,6]", [[i, j] for i in range(3) for j in range(2)]),
    ("|[[]]|", [[0], [1]]),
    ("(imap [w] {_(iv): iv.[0] * 2}).[21]", [[]]),
    ("gol_step (" + board_literal(BLINKER) + ")",
     [[i, j] for i in range(5) for j in range(5)]),
]

RECURSIVE_GOLDENS = [
    (program_source("nats.heh"), [[0], [5], [17]]),
    (program_source("countdown.heh"), [[i] for i in range(10)]),
    (r"letrec f = \n. if n = 0 then 1 else n * (f (n - 1)) in f 5", [[]]),
]


@criterion(7, "strictness/memoization configuration coherence")
def test_c7_config_coherence():
    def observe(source, probes, config):
        result = evaluate(source, config)
        return tuple(str(probe(result, index)) for index in probes)

    combos = [EvalConfig(strict_finite_imaps=strict, memoize=memo)
              for strict in (False, True) for memo in (True, False)]
    for source, probes in GOLDENS:
        seen = {observe(source, probes, config) for config in combos}
        assert len(seen) == 1, f"configs disagree on {source!r}: {seen}"

    lazy_combos = [c for c in combos if not c.strict_finite_imaps]
    for source, probes in RECURSIVE_GOLDENS:
        seen = {observe(source, probes, config) for config in lazy_combos}
        assert len(seen) == 1, f"configs disagree on {source!r}: {seen}"

    # sanity pins so agreement cannot mean "all equally wrong"
    assert observe(GOLDENS[0][0], [[]], combos[0]) == ("10",)
    assert observe(GOLDENS[10][0], [[]], combos[3]) == ("42",)


### ---- C8: parser round trip ----------------------------------------------------------------


@criterion(8, "parser print/parse round trip")
def test_c8_parser_round_trip():
    rng = random.Random(808)
    for _ in range(1000):
        tree = gen_expr(rng)
        printed = render(tree)
        reprinted = render(parse_expr(printed))
        assert reprinted == printed
