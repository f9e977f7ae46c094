"""Standard-library tests, including the shipped example programs.

Game-of-Life expectations come from `life_oracle` below (a direct finite
simulator); Ackermann expectations from the textbook recursive definition.
"""

import inspect
import json
import os
import subprocess
import sys

import pytest

import heh

from heh.eval import EvalConfig, EvalError, Session, evaluate, probe
from heh.ordinal import OMEGA, Ordinal
from heh.prelude import (examples_suite, load_prelude, prelude_source,
                         program_names, program_source)
from heh.runtime import FunClosure
from heh.syntax import parse_program


def run(src, config=None):
    return evaluate(src, config=config)


def vec(r):
    n = int(str(r.shape[0]))
    return [probe(r, [i]) for i in range(n)]


def grid(r, rows, cols=None):
    cols = rows if cols is None else cols
    return [[probe(r, [i, j]) for j in range(cols)] for i in range(rows)]


### ---- list primitives ------------------------------------------------------------


def test_head_tail_cons():
    assert probe(run("head [7,8,9]"), []) == 7
    assert vec(run("tail [5,6,7]")) == [6, 7]
    assert vec(run("cons 4 [5,6]")) == [4, 5, 6]
    assert vec(run("cons (head [1,2]) (tail [1,2])")) == [1, 2]


def test_concat():
    assert vec(run("[1,2] ++ [3,4,5]")) == [1, 2, 3, 4, 5]
    assert vec(run("[] ++ [1]")) == [1]
    assert vec(run("[1] ++ []")) == [1]
    assert list(run("[1,2] ++ [3]").shape) == [3]


def test_concat_infinite_left():
    # infinite ++ finite: the right part lives beyond w
    r = run("(imap [w] {_(iv): 0}) ++ [7, 8]")
    assert list(r.shape) == [OMEGA + 2]
    assert probe(r, [5]) == 0
    assert probe(r, [OMEGA]) == 7
    assert probe(r, [OMEGA + 1]) == 8


def test_take_drop():
    assert vec(run("take [2] [5,6,7]")) == [5, 6]
    assert vec(run("drop [1] [5,6,7]")) == [6, 7]
    assert vec(run("drop [0] [5,6,7]")) == [5, 6, 7]
    assert list(run("drop [3] [5,6,7]").shape) == [0]


def test_drop_after_concat_recovers_right_operand():
    # drop |a| (a ++ b) == b, including beyond a limit
    r = run("drop [w] ((imap [w] {_(iv): 0}) ++ [7, 8])")
    assert list(r.shape) == [2]
    assert vec(r) == [7, 8]


def test_reverse_sum_increment():
    assert vec(run("reverse [1,2,3]")) == [3, 2, 1]
    assert vec(run("reverse []")) == []
    assert probe(run("sum [[1,2],[3,4]]"), []) == 10
    assert probe(run("sum 5"), []) == 5
    assert probe(run("sum []"), []) == 0
    assert grid(run("increment [[1,2],[3,4]]"), 2) == [[2, 3], [4, 5]]
    assert probe(run("increment 5"), []) == 6
    assert list(run("increment []").shape) == [0]


def test_tail_beyond_limit():
    src = "letrec a = imap [w+42] { _(iv): iv.[0] } in tail a"
    r = run(src)
    assert list(r.shape) == [OMEGA + 42]
    assert probe(r, [3]) == 4          # below w: shifted left
    assert probe(r, [OMEGA]) == OMEGA  # beyond w: unmodified


### ---- shape arithmetic -----------------------------------------------------------


def test_count_orders_transfinite_products():
    assert probe(run("count [[1,2,3],[4,5,6]]"), []) == 6
    assert probe(run("count (imap [2, w] {_(iv): 0})"), []) == OMEGA * 2
    assert probe(run("count (imap [w, 3] {_(iv): 0})"), []) == OMEGA
    assert probe(run("count 5"), []) == 1


def test_o2i_i2o_finite():
    shape = [2, 3, 4]
    for offset in range(24):
        r = run(f"o2i {offset} [2,3,4]")
        idx = vec(r)
        expected = [offset // 12 % 2, offset // 4 % 3, offset % 4]
        assert idx == expected, offset
        back = probe(run(f"i2o [{idx[0]},{idx[1]},{idx[2]}] [2,3,4]"), [])
        assert back == offset


def test_o2i_i2o_transfinite():
    assert probe(run("i2o [1, 5] [2, w]"), []) == OMEGA + 5
    r = run("o2i (w + 5) [2, w]")
    assert vec(r) == [1, 5]


def test_flatten_reshape_roundtrip():
    r = run("reshape |[[9,8],[7,6]]| (flatten [[9,8],[7,6]])")
    assert grid(r, 2) == [[9, 8], [7, 6]]
    r = run("flatten [[1,2,3],[4,5,6]]")
    assert vec(r) == [1, 2, 3, 4, 5, 6]
    r = run("reshape [3,2] [[1,2,3],[4,5,6]]")
    assert grid(r, 3, 2) == [[1, 2], [3, 4], [5, 6]]


def test_flatten_transfinite():
    r = run("flatten (imap [2, w] {_(iv): iv.[0]})")
    assert list(r.shape) == [OMEGA * 2]
    assert probe(r, [5]) == 0
    assert probe(r, [OMEGA + 5]) == 1


### ---- zips -----------------------------------------------------------------------


def test_zip():
    r = run("zip [1,2,3] [10,20]")
    assert list(r.shape) == [2, 2]
    assert grid(r, 2) == [[1, 10], [2, 20]]


def test_zip_of_infinite():
    src = program_source("nats.heh") + "zip nats nats"
    r = run(src)
    assert list(r.shape) == [OMEGA, 2]
    assert probe(r, [4, 0]) == 4
    assert probe(r, [4, 1]) == 4


def test_fzip_matches_zip():
    r = run("fzip [1,2,3] [10,20]")
    assert list(r.shape) == [2, 2]
    assert grid(r, 2) == [[1, 10], [2, 20]]
    src = program_source("nats.heh") + "fzip nats (increment nats)"
    r = run(src)
    assert probe(r, [4, 0]) == 4
    assert probe(r, [4, 1]) == 5


### ---- logic helpers ---------------------------------------------------------------


def test_or_and_any_gen():
    assert probe(run("or true false"), []) is True
    assert probe(run("or false false"), []) is False
    assert probe(run("and true false"), []) is False
    assert probe(run("and true true"), []) is True
    assert probe(run("any [false, true, false]"), []) is True
    assert probe(run("any [false, false]"), []) is False
    assert probe(run("any []"), []) is False
    r = run("gen [2,2] 7")
    assert grid(r, 2) == [[7, 7], [7, 7]]
    assert list(run("gen [w] 0").shape) == [OMEGA]


def test_shifts():
    r = run("nw [0,1] [[1,2],[3,4]]")
    assert grid(r, 2) == [[2, 0], [4, 0]]
    r = run("se [1,0] [[1,2],[3,4]]")
    assert grid(r, 2) == [[0, 0], [1, 2]]
    r = run("se [1,1] [[1,2],[3,4]]")
    assert grid(r, 2) == [[0, 0], [0, 1]]


### ---- Game of Life -----------------------------------------------------------------


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

GLIDER = [[0, 0, 0, 0, 0, 0],
          [0, 0, 1, 0, 0, 0],
          [0, 0, 0, 1, 0, 0],
          [0, 1, 1, 1, 0, 0],
          [0, 0, 0, 0, 0, 0],
          [0, 0, 0, 0, 0, 0]]


def literal(board):
    return "[" + ",".join("[" + ",".join(str(x) for x in row) + "]"
                          for row in board) + "]"


def test_gol_step_matches_oracle():
    for board, steps in [(BLINKER, 1), (BLINKER, 2), (GLIDER, 1), (GLIDER, 4)]:
        expr = "board"
        for _ in range(steps):
            expr = f"gol_step ({expr})"
        src = "let board = " + literal(board) + "\nlet out = " + expr
        r = run(src)
        got = grid(r, len(board), len(board[0]))
        expected = life_oracle(board, steps)
        assert [[int(str(x)) for x in row] for row in got] == expected, (steps,)


def test_gol_file_blinker_period_two():
    r = run(program_source("game_of_life.heh"))
    assert [[int(str(x)) for x in row] for row in grid(r, 5)] == BLINKER


def test_gol_infinite_plane_window():
    src = ("let seed = " + literal(GLIDER) + "\n"
           "let plane = imap [w, w] { _(iv): "
           "if and (iv.[0] < 6) (iv.[1] < 6) then seed.iv else 0 }\n"
           "let stepped = gol_step (gol_step plane)")
    r = run(src)
    assert list(r.shape) == [OMEGA, OMEGA]
    window = [[int(str(probe(r, [i, j]))) for j in range(10)] for i in range(10)]
    seed15 = [[0] * 15 for _ in range(15)]
    for i in range(6):
        for j in range(6):
            seed15[i][j] = GLIDER[i][j]
    oracle = life_oracle(seed15, 2)
    assert window == [row[:10] for row in oracle[:10]]


### ---- shipped programs ---------------------------------------------------------------


def ackermann_oracle(m, n):
    """The textbook recurrence, with the pending outer calls' first
    arguments on an explicit stack instead of Python frames."""
    stack = [m]
    while stack:
        m = stack.pop()
        if m == 0:
            n += 1
        elif n == 0:
            stack.append(m - 1)
            n = 1
        else:
            stack.append(m - 1)  # A(m - 1, A(m, n - 1))
            stack.append(m)
            n -= 1
    return n


def test_programs_ship():
    assert program_names() == ["ackermann.heh", "countdown.heh",
                               "game_of_life.heh", "nats.heh"]


def test_nats_program():
    r = run(program_source("nats.heh"))
    assert list(r.shape) == [OMEGA]
    assert [probe(r, [n]) for n in (0, 1, 7, 30)] == [0, 1, 7, 30]


def test_countdown_program():
    r = run(program_source("countdown.heh"))
    assert [probe(r, [n]) for n in range(10)] == list(range(10))
    # the "backwards" recursion makes index 9 a single body evaluation
    r = run(program_source("countdown.heh"))
    evals = r.session.stats["body_evals"]
    assert probe(r, [9]) == 9
    assert r.session.stats["body_evals"] == evals + 1


def test_ackermann_program():
    r = run(program_source("ackermann.heh"))
    for m in range(4):
        for n in range(4):
            assert probe(r, [m, n]) == ackermann_oracle(m, n), (m, n)
    assert probe(r, [3, 3]) == 61


def test_ackermann_memoization_effect():
    r = run(program_source("ackermann.heh"), EvalConfig(fuel=1_000_000))
    assert probe(r, [3, 6]) == 509
    r = run(program_source("ackermann.heh"),
            EvalConfig(fuel=1_000_000, memoize=False))
    with pytest.raises(EvalError) as e:
        probe(r, [3, 6])
    assert e.value.kind == "FuelExhausted"


### ---- prelude hygiene -------------------------------------------------------------


def test_prelude_loads_into_plain_session():
    session = Session()
    load_prelude(session)
    assert session.eval_source("sum [1,2,3]") == 6


def test_no_prelude_means_no_bindings():
    with pytest.raises(EvalError) as e:
        evaluate("head [1]", prelude=False)
    assert e.value.kind == "UnboundVariable"


def test_examples_suite_covers_and_matches_every_program():
    suite = examples_suite()
    assert [name for name, _ in suite] == sorted(program_names())
    for name, probes in suite:
        result = run(program_source(name))
        for index, expected in probes:
            assert probe(result, list(index)) == expected, (name, index)


def examples_outcomes():
    """[program, probed values as text, (rules, body_evals, predicate_calls)]
    for every program of `examples_suite()`, plus whether asserts are on."""
    from heh import evaluate, examples_suite, probe, program_source
    outcomes = []
    for name, probes in examples_suite():
        result = evaluate(program_source(name))
        values = [str(probe(result, list(index))) for index, _ in probes]
        stats = result.session.stats
        counts = [stats["rules"], stats["body_evals"], stats["predicate_calls"]]
        outcomes.append([name, values, counts])
    return {"debug": __debug__, "outcomes": outcomes}


def test_optimized_mode_matches_debug_mode():
    # a second process, under `python -O`, gives every shipped program the
    # same values and counters; `-O` changes nothing, as no module of heh
    # checks under __debug__ (test_differential.test_no_module_checks_under_debug)
    src = os.path.dirname(os.path.dirname(os.path.abspath(heh.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (inspect.getsource(examples_outcomes) +
              "\nimport json\nprint(json.dumps(examples_outcomes()))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    optimized = json.loads(proc.stdout)
    here = examples_outcomes()
    assert here["debug"] and not optimized["debug"]
    assert optimized["outcomes"] == here["outcomes"]


### ---- the prelude built once per process -------------------------------------------


def prelude_names():
    return [form.name for form in parse_program(prelude_source())]


def test_loading_never_half_loads():
    # loading copies values, so no fuel budget can stop it part way
    session = Session(EvalConfig(fuel=5))
    load_prelude(session)
    assert len(prelude_names()) == 29
    assert sorted(session.env) == sorted(prelude_names())
    assert session.fuel == 5
    assert set(session.stats.values()) == {0}


def test_the_prelude_values_are_stateless():
    # what makes sharing them safe: a function that captures no environment
    session = Session()
    load_prelude(session)
    for name, value in session.env.items():
        assert isinstance(value, FunClosure) and value.env is None, name


def test_redefining_a_prelude_name_stays_in_its_session():
    first, second = Session(), Session()
    load_prelude(first)
    load_prelude(second)
    first.run_program("let head = \\a. 99")
    assert first.run_program("head [1, 2]") == 99
    assert second.run_program("head [1, 2]") == 1
    assert Session().run_program("1") == 1 and evaluate("head [7, 8]").value == 7


def loaded_prelude():
    session = Session()
    load_prelude(session)
    return {name: (value, value.code, value.env) for name, value in session.env.items()}


def test_running_programs_leaves_the_cached_prelude_as_parsed():
    before = loaded_prelude()
    assert len(before) == 29
    for name, probes in examples_suite():
        result = evaluate(program_source(name))
        for index, expected in probes:
            assert probe(result, list(index)) == expected, (name, index)
    after = loaded_prelude()
    assert after.keys() == before.keys()
    for name, (value, code, env) in after.items():
        assert all(a is b for a, b in zip((value, code, env), before[name])), name


def back_to_back_sessions():
    """For two sessions built one after the other: the counters after
    binding the prelude, then a value and the counters of a program."""
    from heh import Session, load_prelude
    outcomes = []
    for _ in range(2):
        session = Session()
        load_prelude(session)
        loaded = dict(session.stats)
        value = session.run_program(
            "let v = filter (\\x. x % 3 = 0) (imap [w] {_(iv): iv.[0]})\n"
            "let s = sum (take [6] v)\n"
            "reduce (\\a.\\b. a * 2 + b) s (reverse [1, 2, 3])")
        outcomes.append([loaded, str(value), dict(session.stats)])
    return outcomes


def test_the_first_session_of_a_process_matches_later_ones():
    # the subprocess builds the prelude's values for its first session; here
    # they are long built
    src = os.path.dirname(os.path.dirname(os.path.abspath(heh.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (inspect.getsource(back_to_back_sessions) +
              "\nimport json\nprint(json.dumps(back_to_back_sessions()))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    fresh = json.loads(proc.stdout)
    here = back_to_back_sessions()
    assert fresh[0] == fresh[1] == here[0] == here[1]
    acc = sum(3 * i for i in range(6))
    for b in (3, 2, 1):
        acc = acc * 2 + b
    assert fresh[0][1] == str(acc)
    assert set(fresh[0][0].values()) == {0}  # loading runs no rule
