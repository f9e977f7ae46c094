"""Evaluator tests: core rules, imap laziness, memoization, letrec, config.

Expected values for the arithmetic-free fixtures are computed by hand or
by small Python oracles inline; element probes compare against directly
computed index arithmetic.
"""

import ast
import gc
import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import types
import weakref
from pathlib import Path

import pytest
from corpora import (CONFIGS, FAULTS, INDEX_CELL_FAULTS, RANK_0_CELL_SCAN, STRICT_FAULTS, corpus,
                     list_corpus)
from outcome_digest import FUEL_PROGRAMS, rule_total

import heh.eval
import heh.syntax
from heh.cli import format_value
from heh.eval import EvalConfig, EvalError, Session, evaluate, new_session, probe
from heh.ordinal import OMEGA, Ordinal, omega_power
from heh.prelude import prelude_source, program_names, program_source
from heh.runtime import (
    FilterClosure, FunClosure, ImapClosure, Rec, StrictArray, linearize, render_shape,
)


def run(src, config=None):
    return evaluate(src, config=config, prelude=False)


def val(src, config=None):
    return probe(run(src, config), [])


def data(result):
    return result.session.strict_at(result.value)[1]


def shape(result):
    return tuple(s for s in result.shape)


### ---- scalar rules -------------------------------------------------------------


def test_identity_application():
    assert val("(\\x.x) 42") == 42


def test_constants_and_conditionals():
    assert val("if true then 1 else 2") == 1
    assert val("if 1 < 2 then 10 else 20") == 10
    assert val("islim w") is True
    assert val("islim (w + 21)") is False
    assert val("islim 0") is False
    assert val("islim (w * 2)") is True


def test_arithmetic():
    assert val("2 + 3 * 4") == 14
    assert val("7 / 2") == 3
    assert val("7 % 2") == 1
    assert val("(w + 42) - (w + 2)") == 40
    assert val("2 + w") == OMEGA
    assert val("(w + 1) * w") == omega_power(2)
    assert val("w = w") is True
    assert val("true = false") is False
    assert val("(w + 5) / w") == 1
    assert val("(w + 5) % w") == 5
    assert val("10 - 3 - 2") == 5
    assert val("20 / 3 % 4") == 2
    # naturals against Python's int order
    for a, b in itertools.product(range(4), repeat=2):
        for op, holds in (("<", a < b), ("<=", a <= b), (">", a > b), (">=", a >= b)):
            assert val(f"{a} {op} {b}") is holds, (a, op, b)
    # transfinite pairs: 1 + w = w < w + 1, and w*2 > w + 5
    assert val("w <= w") is True
    assert val("w < w") is False
    assert val("w >= w") is True
    assert val("w + 1 <= w") is False
    assert val("w <= w + 1") is True
    assert val("3 >= w") is False
    assert val("3 < w") is True
    assert val("w > 3") is True
    assert val("1 + w < w + 1") is True
    assert val("1 + w >= w") is True
    assert val("w * 2 > w + 5") is True
    assert val("w^2 <= w * 7") is False


def test_lexical_scope_and_shadowing():
    assert val("(\\x. (\\x. x) 2) 1") == 2
    assert val("letrec x = 5 in letrec x = 9 in x") == 9
    # the bound name shadows the outer scope inside its own definition
    with pytest.raises(EvalError) as e:
        run("letrec x = 5 in letrec x = x + 1 in x")
    assert e.value.kind == "UnboundVariable"


def test_curried_application():
    assert val("(\\x.\\y. x * 10 + y) 3 4") == 34


### ---- arrays, shapes, selection --------------------------------------------------


def test_shape_examples():
    assert data(run("|[]|")) == [0]
    assert data(run("|[[]]|")) == [1, 0]
    assert data(run("|42|")) == []
    assert data(run("|true|")) == []
    assert data(run("|(\\x.x)|")) == []
    assert data(run("|[[1,2],[3,4]]|")) == [2, 2]
    assert data(run("|imap [w] {_(iv): 0}|")) == [OMEGA]
    assert data(run("|imap [2]|[3] {_(iv): [0,1,2]}|")) == [2, 3]


def test_array_literal_strictness():
    r = run("[1, 2, 3]")
    assert isinstance(r.value, tuple)  # a vector of ordinals
    assert data(r) == [1, 2, 3]
    r = run("[[1,2],[3,4]]")
    assert isinstance(r.value, StrictArray)
    assert data(r) == [1, 2, 3, 4]
    assert shape(run("[[1,2],[3,4]]")) == (2, 2)


def test_strict_at_returns_a_fresh_list():
    # the caller may change the data without changing the value
    for src in ("filter (\\x. x > 1) [1,2,3]", "filter (\\x. x) [true, false, true]"):
        r = run(src)
        shape, data = r.session.strict_at(r.value)
        expected = list(data)
        data.clear()
        assert r.session.strict_at(r.value) == (shape, expected)
    r = run("[[1,2],[3,4]]")
    r.session.strict_at(r.value)[1][0] = Ordinal(99)
    assert probe(r, [0, 0]) == 1


def test_array_literal_forces_finite_closures():
    assert data(run("[imap [2] {_(iv): iv.[0]}, [5, 6]]")) == [0, 1, 5, 6]


def test_heterogeneous_nesting():
    with pytest.raises(EvalError) as e:
        run("[[1,2],[3]]")
    assert e.value.kind == "HeterogeneousNesting"
    with pytest.raises(EvalError):
        run("[1, [2]]")
    with pytest.raises(EvalError) as e:
        run("[imap [w] {_(iv): 0}, imap [w] {_(iv): 1}]")
    assert e.value.kind == "ShapeMismatch"  # infinite elements cannot be assembled


def test_selection():
    assert val("[[1,2],[3,4]].[1,1]") == 4
    assert val("[[1,2],[3,4]].[1,0]") == 3
    assert val("5.[]") == 5
    with pytest.raises(EvalError) as e:
        run("[[1,2],[3,4]].[1]")
    assert e.value.kind == "RankMismatch"
    with pytest.raises(EvalError) as e:
        run("[1,2,3].[w]")
    assert e.value.kind == "IndexOutOfBounds"


def test_selection_index_can_be_lazy():
    # index vectors built by imap are forced before use
    assert val("[1,2,3].(imap [1] {_(iv): 1})") == 2


def test_full_index_required_on_imap():
    with pytest.raises(EvalError) as e:
        run("(imap [2]|[3] {_(iv): [0,1,2]}).[1]")
    assert e.value.kind == "RankMismatch"


### ---- reduce ---------------------------------------------------------------------


def test_reduce():
    assert val("reduce (\\x.\\y.x+y) 0 [[1,2],[3,4]]") == 10
    assert val("reduce (\\x.\\y.x+y) 0 []") == 0
    assert val("reduce (\\x.\\y.x+y) 7 5") == 12          # scalars fold once
    assert val("reduce (\\x.\\y.x+y) 0 (imap [3] {_(iv): iv.[0]})") == 3
    assert val("reduce (\\x.\\y. y * x) 1 [2, w]") == OMEGA * 2  # fold order


def test_reduce_left_fold_order():
    # ((0 - 0) ... ) would underflow if the fold were right-assoc on [5,1]
    assert val("reduce (\\x.\\y.x-y) 9 [5, 1]") == 3


def test_reduce_on_infinite():
    with pytest.raises(EvalError) as e:
        run("reduce (\\x.\\y.x) 0 (imap [w] {_(iv): 0})")
    assert e.value.kind == "ReduceOnInfinite"


### ---- imap -----------------------------------------------------------------------


def test_imap_3x3():
    r = run("imap [3,3] { _(iv): iv.[0]*3 + iv.[1] }")
    assert [probe(r, [i, j]) for i in range(3) for j in range(3)] == list(range(9))
    assert shape(r) == (3, 3)


def test_imap_lazy_by_default_strict_on_flag():
    r = run("imap [3] {_(iv): iv.[0]}")
    assert isinstance(r.value, ImapClosure)
    r = run("imap [3] {_(iv): iv.[0]}", EvalConfig(strict_finite_imaps=True))
    assert isinstance(r.value, tuple) and data(r) == [0, 1, 2]
    r = run("imap [3]|[1] {_(iv): iv}", EvalConfig(strict_finite_imaps=True))
    assert isinstance(r.value, StrictArray) and data(r) == [0, 1, 2]
    # infinite frames stay lazy under the flag
    r = run("imap [w] {_(iv): 0}", EvalConfig(strict_finite_imaps=True))
    assert isinstance(r.value, ImapClosure)


def test_imap_partitioned_generators():
    src = "imap [w] {[0] <= iv < [3]: 9, [3] <= iv < [w]: iv.[0]}"
    r = run(src)
    assert [probe(r, [n]) for n in range(6)] == [9, 9, 9, 3, 4, 5]
    assert probe(r, [1000]) == 1000
    # a `_(x)` generator next to another one, whose box is empty
    r = run("imap [3] { _(iv): 1, [2] <= iv < [2]: 0 }")
    assert [probe(r, [n]) for n in range(3)] == [1, 1, 1]


def test_imap_cell_shapes():
    r = run("imap [2]|[3] {_(iv): [iv.[0], iv.[0]+1, 7]}")
    assert shape(r) == (2, 3)
    assert probe(r, [1, 1]) == 2
    assert probe(r, [0, 2]) == 7


def test_imap_infinite_cell():
    r = run("imap [2]|[w] {_(iv): imap [w] {_(jv): iv.[0] + jv.[0]}}")
    assert shape(r) == (2, OMEGA)
    assert probe(r, [1, 5]) == 6


def test_imap_scalar_frame():
    assert val("imap [] {_(iv): 7}") == 7


def test_imap_generator_env_capture():
    assert probe(run("(\\n. imap [n] {[0] <= iv < [n]: iv.[0] * 2}) 4"), [3]) == 6


def test_imap_errors():
    with pytest.raises(EvalError) as e:
        run("imap [3] {[0]<=i<[2]: 0, [1]<=i<[3]: 1}")
    assert e.value.kind == "NotAPartition"
    with pytest.raises(EvalError) as e:
        run("imap [3] {[0]<=i<[2]: 0}")
    assert e.value.kind == "NotAPartition"
    with pytest.raises(EvalError) as e:
        run("imap [3] {[0,0]<=i<[3,1]: 0}")
    assert e.value.kind == "RankMismatch"
    with pytest.raises(EvalError) as e:
        run("imap [3] {[2]<=i<[1]: 0, [0]<=i<[3]: 1}")
    assert e.value.kind == "NotAPartition"
    with pytest.raises(EvalError) as e:
        run("(imap [2] {_(iv): [1,2]}) + 1")
    assert e.value.kind == "ShapeMismatch"


def test_imap_cell_shape_checked_on_selection():
    with pytest.raises(EvalError) as e:
        run("(imap [2]|[2] {_(iv): [1,2,3]}).[0,0]")
    assert e.value.kind == "ShapeMismatch"


def test_imap_out_of_bounds():
    with pytest.raises(EvalError) as e:
        run("(imap [w] {_(iv): 0}).[w]")
    assert e.value.kind == "IndexOutOfBounds"


def test_selection_edges_around_w():
    # natural and transfinite indices against extents on either side of w,
    # and cells checked as they are selected or forced into an index
    cases = [
        ("(imap [w, 3] {_(iv): 0}).[5, 3]", "IndexOutOfBounds",
         "index [5, 3] outside shape [w, 3]"),
        ("(imap [w+3] {_(iv): 0}).[w+3]", "IndexOutOfBounds",
         "index [w + 3] outside shape [w + 3]"),
        ("(imap [w, 3] {_(iv): 0}).[1, w]", "IndexOutOfBounds",
         "index [1, w] outside shape [w, 3]"),
        ("(imap [w*2] {_(iv): 0}).[w^2]", "IndexOutOfBounds",
         "index [w^2] outside shape [w*2]"),
        ("(imap [2]|[2] {_(iv): 7}).[0, 0]", "ShapeMismatch",
         "imap element at [0] has shape [], cell shape is [2]"),
        ("[0, 1].(imap []|[2] {_(iv): 1})", "ShapeMismatch",
         "imap element at [] has shape [], cell shape is [2]"),
        ("[0, 1].(imap [2]|[2] {_(iv): [0, 1]})", "RankMismatch",
         "selection index must be a vector, got shape [2, 2]"),
        ("[5, 6].(imap [1] {_(iv): imap [] {_(jv): true}})", "ShapeMismatch",
         "selection index components must be ordinals"),
        # a vector of ordinals is a tuple, indexed directly only when in range
        ("[1, 2].[2]", "IndexOutOfBounds", "index [2] outside shape [2]"),
        ("[1, 2].[w]", "IndexOutOfBounds", "index [w] outside shape [2]"),
        ("[1, 2].[0, 0]", "RankMismatch", "index of length 2 into rank-1 array"),
        # one imap read twice: the first read finds it open or not, and the second, with no
        # memo hit, is still tested against its frame
        ("letrec r = imap [w, w] {_(iv): 0} in r.[1, 1] + r.[w, 0]", "IndexOutOfBounds",
         "index [w, 0] outside shape [w, w]"),
        ("letrec r = imap [w, 3] {_(iv): 0} in r.[1, 1] + r.[1, 5]", "IndexOutOfBounds",
         "index [1, 5] outside shape [w, 3]"),
    ]
    for config in (EvalConfig(), EvalConfig(memoize=False, strict_finite_imaps=True)):
        for src, kind, message in cases:
            with pytest.raises(EvalError) as e:
                run(src, config)
            assert (e.value.kind, e.value.message) == (kind, message), src
        assert val("(imap [w+3] {_(iv): iv.[0]}).[w+2]", config) == OMEGA + 2
        assert val("(imap [w*2, 3] {_(iv): iv.[1]}).[w+7, 2]", config) == 2
        # a rank-0 imap cell is forced to its scalar
        assert val("[5, 6].(imap [1] {_(iv): imap [] {_(jv): 1}})", config) == 6
        # a rank-0 frame is never open: its one index `[]` has no greatest component
        assert val("letrec r = imap [] {_(iv): 7} in r.[] + r.[]", config) == 14


### ---- memoization ------------------------------------------------------------------


def test_memoization_skips_reevaluation():
    r = run("imap [w] {_(iv): iv.[0] * 2}")
    s = r.session
    assert probe(r, [7]) == 14
    before = s.stats
    assert list(before) == ["rules", "body_evals", "predicate_calls"]
    assert probe(r, [7]) == 14
    assert s.stats["body_evals"] == before["body_evals"]  # second selection is free
    assert probe(r, [9]) == 18
    # `stats` is a new dict of the counters on each read: one read before keeps
    # its numbers, and writing to one changes no counter
    after = s.stats
    assert after is not s.stats and after["body_evals"] == before["body_evals"] + 1
    after["body_evals"] = after["rules"] = 0
    assert s.stats == {"rules": s.rules, "body_evals": before["body_evals"] + 1,
                       "predicate_calls": 0} and s.rules > before["rules"]


# (binding, entry): each entry runs the body of `a` at a cell whose value fails
# its shape check, through the compiled `select` step, `Session.select` (a cell
# shape), a filter's scan and strict forcing (an imap of one partition)
UNCHECKED_CELLS = [
    ("let a = imap [w] {_(iv): [1, 2]}", "a.[0]"),
    ("let a = imap [w]|[2] {_(iv): [1, 2, 3]}", "a.[0, 0]"),
    ("let a = imap [w] {_(iv): [1, 2]}", "(filter (\\x. true) a).[0]"),
    ("let a = imap [3] {_(iv): [1, 2]}", "reduce (\\x. \\y. x) 0 a"),
]


@pytest.mark.parametrize("binding, entry", UNCHECKED_CELLS)
def test_a_cell_that_fails_its_shape_check_is_not_memoized(binding, entry):
    # a memo written before the check would serve the bad cell the second time
    session = new_session()
    session.run_program(binding)
    errors = []
    for _ in range(2):
        with pytest.raises(EvalError) as e:
            session.run_program(entry)
        errors.append((e.value.kind, e.value.message, e.value.rule, tuple(e.value.span)))
    assert errors[0][0] == "ShapeMismatch" and errors[1] == errors[0]
    assert session.env["a"].memo == {}


def memoized_ackermann(m, n):
    """Every entry the textbook memoized recursion computes for A(m, n),
    mapped to its value.  An explicit stack stands in for the call stack."""
    table = {}
    stack = [(m, n)]
    while stack:
        i, j = stack[-1]
        if i == 0:
            table[i, j] = j + 1
        else:
            inner = (i - 1, 1) if j == 0 else (i, j - 1)
            if inner not in table:
                stack.append(inner)
                continue
            outer = inner if j == 0 else (i - 1, table[inner])
            if outer not in table:
                stack.append(outer)
                continue
            table[i, j] = table[outer]
        stack.pop()
    return table


def test_memoization_evaluates_each_ackermann_entry_once():
    for (m, n), entries in [((3, 5), 636), ((3, 6), 1277)]:
        table = memoized_ackermann(m, n)
        assert len(table) == entries
        r = evaluate(program_source("ackermann.heh"))
        s = r.session
        assert probe(r, [m, n]) == table[m, n]
        assert s.stats["body_evals"] == len(table)
        for index, value in table.items():
            assert probe(r, list(index)) == value, index
        assert s.stats["body_evals"] == len(table)  # every entry was memoized


def rule_counts(name, probes):
    """Probed values and (rules, body_evals, predicate_calls) after running a
    shipped program with the prelude and probing it in order."""
    r = evaluate(program_source(name))
    values = [probe(r, list(index)) for index in probes]
    s = r.session.stats
    return values, (s["rules"], s["body_evals"], s["predicate_calls"])


def test_rule_counts_are_pinned():
    # Rule counts are deterministic, so a change meant only to speed up
    # evaluation must leave them as they are.  The rule totals are the
    # interpreter's own, recorded when this test was written; the body
    # evaluations are derived.  nats.[2000] evaluates nats entries 0..2000
    # and, for each entry after the first, the one cell of `subv iv [1]`.
    assert rule_counts("nats.heh", [(2000,)]) == ([2000], (54_014, 2_001 + 2_000, 0))
    table = memoized_ackermann(3, 6)
    assert rule_counts("ackermann.heh", [(3, 6)]) == ([509], (47_315, len(table), 0))
    assert len(table) == 1_277
    assert rule_counts("game_of_life.heh", [(2, 2), (1, 2)]) == ([1, 1], (15_394, 941, 0))


def test_pinned_probes_build_no_strict_array(monkeypatch):
    # index vectors, shapes and ordinal literals are tuples; when they were
    # StrictArrays these two probes built 8,006 and 5,367 of them
    built = []
    init = StrictArray.__init__

    def counting_init(self, shape, data):
        built.append(shape)
        init(self, shape, data)

    monkeypatch.setattr(StrictArray, "__init__", counting_init)
    assert rule_counts("nats.heh", [(2000,)])[0] == [2000]
    assert rule_counts("ackermann.heh", [(3, 6)])[0] == [509]
    assert built == []
    run("[true]")  # the counter sees a StrictArray that is built
    assert len(built) == 1


def test_pinned_probes_make_no_ordinal_comparison(monkeypatch):
    # a natural is below every Ordinal, so selection and partition lookup
    # compare a natural index with a w bound without calling Ordinal; these
    # two probes made 4,000 and 3,072 such comparisons before.  Nor does a
    # natural index into a vector of ordinals go through `linearize`: they
    # made 4,000 and 2,554 such calls before
    compared, linearized = [], []
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        def counting(self, other, method=getattr(Ordinal, name), name=name):
            compared.append(name)
            return method(self, other)
        monkeypatch.setattr(Ordinal, name, counting)

    def counting_linearize(shape, index, linearize=heh.eval.linearize):
        linearized.append(index)
        return linearize(shape, index)

    monkeypatch.setattr(heh.eval, "linearize", counting_linearize)
    for name, index, expected in (("nats.heh", [2000], 2000), ("ackermann.heh", [3, 6], 509)):
        r = evaluate(program_source(name))
        compared.clear()  # defining nats checks its partition against w
        linearized.clear()
        assert probe(r, index) == expected
        assert compared == [], name
        assert linearized == [], name
    assert 1 < OMEGA and compared == ["__gt__"]  # the counter sees a comparison
    assert run("[[1, 2]].[0, 1]").value == 2 and linearized == [(0, 1)]  # and a call


def test_no_memo_reevaluates():
    r = run("imap [w] {_(iv): 0}", EvalConfig(memoize=False))
    s = r.session
    probe(r, [3])
    probe(r, [3])
    assert s.stats["body_evals"] == 2
    assert r.value.memo == {}


def _guillotine(rng, box, count):
    """`box` cut into `count` pieces by repeated axis-parallel cuts.  Bounds
    are ints, with math.inf standing for w."""
    boxes = [box]
    while len(boxes) < count:
        splittable = [(k, a) for k, (lo, up) in enumerate(boxes)
                      for a in range(len(lo)) if up[a] - lo[a] >= 2]
        k, axis = rng.choice(splittable)
        lo, up = boxes.pop(k)
        cut = lo[axis] + rng.randint(1, min(up[axis] - lo[axis] - 1, 6))
        boxes.append((lo, up[:axis] + (cut,) + up[axis + 1:]))
        boxes.append((lo[:axis] + (cut,) + lo[axis + 1:], up))
    rng.shuffle(boxes)
    return boxes


def _bound(vector):
    return "[" + ", ".join("w" if x == math.inf else str(x) for x in vector) + "]"


@pytest.mark.parametrize("seed", range(12))
def test_multi_generator_memo_matches_oracle(seed):
    rng = random.Random(seed)
    n, m = rng.randint(4, 7), rng.randint(2, 5)
    for frame in [(n,), (n, m), (math.inf,)]:
        boxes = _guillotine(rng, ((0,) * len(frame), frame), rng.randint(2, 4))
        coeffs = [[rng.randint(0, 5) for _ in frame] + [rng.randint(0, 20)]
                  for _ in boxes]
        gens = ", ".join(
            f"{_bound(lo)} <= iv < {_bound(up)}: "
            + " + ".join(f"iv.[{a}] * {c}" for a, c in enumerate(cs[:-1]))
            + f" + {cs[-1]}"
            for (lo, up), cs in zip(boxes, coeffs))
        src = f"imap {_bound(frame)} {{{gens}}}"

        def oracle(index):
            [cs] = [cs for (lo, up), cs in zip(boxes, coeffs)
                    if all(l <= i < u for l, i, u in zip(lo, index, up))]
            return sum(i * c for i, c in zip(index, cs)) + cs[-1]

        space = list(itertools.product(*(range(min(s, 30)) for s in frame)))
        distinct = rng.sample(space, rng.randint(1, min(len(space), 12)))
        probes = [index for index in distinct for _ in range(rng.randint(1, 3))]
        rng.shuffle(probes)
        expected = [oracle(index) for index in probes]

        seen = []
        for memoize in (True, False):
            r = run(src, EvalConfig(memoize=memoize))
            seen.append([probe(r, list(index)) for index in probes])
            assert seen[-1] == expected, src
            evals = len(distinct) if memoize else len(probes)
            assert r.session.stats["body_evals"] == evals, src
        assert seen[0] == seen[1]


def test_memoization_transparency():
    src = "letrec nats = imap [w] {[0]<=iv<[1]: 0, [1]<=iv<[w]: nats.([iv.[0] - 1]) + 1} in nats"
    for config in [EvalConfig(), EvalConfig(memoize=False)]:
        r = run(src, config)
        assert [probe(r, [n]) for n in range(8)] == list(range(8))


### ---- letrec -------------------------------------------------------------------------


def test_letrec_nonrecursive():
    assert val("letrec x = 5 in x + 1") == 6


def test_letrec_recursive_nats():
    src = "letrec nats = imap [w] {[0]<=iv<[1]: 0, [1]<=iv<[w]: nats.([iv.[0] - 1]) + 1} in nats"
    r = run(src)
    assert [probe(r, [n]) for n in (0, 1, 5, 20)] == [0, 1, 5, 20]


def test_letrec_countdown_reverse_recursion():
    src = "letrec a = imap [10] { [9] <= iv < [10]: 9, [0] <= iv < [9]: a.([iv.[0] + 1]) - 1 } in a"
    r = run(src)
    assert [probe(r, [n]) for n in range(10)] == list(range(10))


def test_letrec_function():
    assert val("letrec fac = \\n. if n = 0 then 1 else n * fac (n - 1) in fac 5") == 120


def test_letrec_premature_reference():
    for src in ["letrec x = x in x", "letrec x = x + 1 in x"]:
        with pytest.raises(EvalError) as e:
            run(src)
        assert e.value.kind == "UnboundVariable"
        assert "premature" in e.value.message


def test_letrec_placeholder_is_passed_unforced():
    """A name under definition may be passed around and captured; only
    forcing it before its definition is complete is an error."""
    assert val("letrec x = (\\y. 5) x in x") == 5
    assert val("letrec f = (\\g. \\n. g) f in 1") == 1
    # x is filled through the cell of the inner y
    assert isinstance(val("letrec x = (letrec y = \\n. x in y) in (x 0) 0"), FunClosure)
    for src, rule in [("letrec x = letrec y = x in y in 1", "letrec"),
                      ("letrec x = [x] in 1", "array"),
                      ("letrec x = (\\y. y) x in 3", "letrec")]:
        with pytest.raises(EvalError) as e:
            run(src)
        assert (e.value.kind, e.value.rule) == ("UnboundVariable", rule), src
        assert "premature recursive reference to 'x'" in e.value.message, src


def test_no_caller_receives_a_cell():
    """A name read while its own definition runs is its empty cell, which
    may be passed on and so outlive the definition, filled.  A program's
    value, a return of `run_program` and of `eval_source`, and a top-level
    binding follow such a cell: each is the function it holds, not a `Rec`."""
    src = "letrec f = (\\g.\\y. g) f"
    values = [evaluate(src + " in f 0", prelude=False).value]
    session = Session()
    session.run_program(src)
    values += [session.run_program("f 0"), session.eval_source("f 0")]
    session.run_program("let h = f 0")
    values.append(session.env["h"])
    assert [value.__class__ for value in values] == [FunClosure] * 4


def test_letrec_under_strict_config_stays_lazy():
    src = "letrec nats = imap [5] {[0]<=iv<[1]: 0, [1]<=iv<[5]: nats.([iv.[0] - 1]) + 1} in nats"
    r = run(src, EvalConfig(strict_finite_imaps=True))
    assert [probe(r, [n]) for n in range(5)] == list(range(5))


### ---- errors and fuel -------------------------------------------------------------


def test_error_kinds_and_spans():
    # (source, kind, rule, line, col): the rule and position are those of the
    # node whose own step failed, a parenthesized node starting at its "("
    cases = [
        ("nope", "UnboundVariable", "var", 1, 1),
        ("1 +\n  nope", "UnboundVariable", "var", 2, 3),
        ("5 3", "NotAFunction", "apply", 1, 1),
        ("(\\f. f 1) 2", "NotAFunction", "apply", 1, 6),
        ("if 1 then 2 else 3", "ShapeMismatch", "cond", 1, 1),
        ("(\\x. if x then 1 else 2) 3", "ShapeMismatch", "cond", 1, 6),
        ("letrec x = x in 0", "UnboundVariable", "letrec", 1, 1),
        ("1 - 2", "UndefinedOrdinalOp", "binop", 1, 1),
        ("1 + (2 - 3)", "UndefinedOrdinalOp", "binop", 1, 5),
        ("1 / 0", "DivisionByZero", "binop", 1, 1),
        ("1 % 0", "DivisionByZero", "binop", 1, 1),
        ("5 = true", "ShapeMismatch", "binop", 1, 1),
        ("w < true", "ShapeMismatch", "binop", 1, 1),
        ("if true then [1, [2]] else 0", "HeterogeneousNesting", "array", 1, 14),
        ("(\\x.x).[0]", "IrreducibleTerm", "select", 1, 1),
        ("1 + [1, 2].[9]", "IndexOutOfBounds", "select", 1, 5),
        ("|filter (\\x. 1) (imap [w+1] {_(iv): 0})|", "ShapeMismatch",
         "shape", 1, 1),
        ("islim true", "ShapeMismatch", "islim", 1, 1),
        ("filter (\\x.true) 5", "FilterRankError", "filter", 1, 1),
        ("filter 5 [1]", "NotAFunction", "filter", 1, 1),
        ("reduce 5 0 [1]", "NotAFunction", "reduce", 1, 1),
        ("imap [true] {_(iv): 0}", "ShapeMismatch", "imap", 1, 1),
    ]
    for src, kind, rule, line, col in cases:
        with pytest.raises(EvalError) as e:
            run(src)
        assert (e.value.kind, e.value.rule, e.value.span.line,
                e.value.span.col) == (kind, rule, line, col), src


def test_fuel_runs_out_at_the_same_rule():
    # (\x. x + 1) 2 takes seven rules: the application, its function and
    # argument, the beta step, then the sum, x and 1 in the body
    src = "(\\x. x + 1) 2"
    expected = [("apply", 1), ("lambda", 1), ("const", 13), ("apply", 1),
                ("binop", 6), ("var", 6), ("const", 10)]
    for fuel, (rule, col) in enumerate(expected):
        with pytest.raises(EvalError) as e:
            run(src, EvalConfig(fuel=fuel))
        assert (e.value.kind, e.value.rule, e.value.span.col) == \
            ("FuelExhausted", rule, col), fuel
    assert run(src, EvalConfig(fuel=len(expected))).value == 3
    with pytest.raises(EvalError) as e:
        run("if true then 1 else 2", EvalConfig(fuel=1))
    assert (e.value.rule, e.value.span.col) == ("const", 4)
    # every other rule kind, counted from the rules: a rule counted inside
    # `select` or `_apply` runs out at the node that called it, and a
    # parenthesized expression starts at its parenthesis
    src = ("letrec a = imap [2] {_(iv): iv.[0]} in reduce (\\x.\\y. if islim y "
           "then x else x + y) 0 (filter (\\x. true) [a.[1], |a|.[0]])")
    # a step of the reduction: the function applied to the accumulator
    # gives \y, which applied to the element runs the body
    step = [("reduce", 40), ("lambda", 51),
            ("reduce", 40), ("cond", 55), ("islim", 58), ("var", 64),
            ("binop", 78), ("var", 78), ("var", 82)]
    expected = [
        ("letrec", 1), ("imap", 12), ("array", 17), ("const", 18),
        ("reduce", 40), ("lambda", 47), ("const", 85),
        ("filter", 87), ("lambda", 95), ("array", 106),
        ("select", 107), ("var", 107), ("array", 109), ("const", 110),
        ("select", 107),  # the selection step, which evaluates the cell a.[1]:
        ("select", 29), ("var", 29), ("array", 32), ("const", 33), ("select", 29),
        ("select", 107),  # the step into the scalar cell
        ("select", 114), ("shape", 114), ("var", 115), ("array", 118),
        ("const", 119), ("select", 114),
        ("filter", 87), ("const", 100),  # the predicate on 1
        ("filter", 87), ("const", 100),  # and on 2
    ] + step + step  # the reduction over [1, 2]
    for fuel, (rule, col) in enumerate(expected):
        with pytest.raises(EvalError) as e:
            run(src, EvalConfig(fuel=fuel))
        assert (e.value.kind, e.value.rule, e.value.span.col) == \
            ("FuelExhausted", rule, col), fuel
    assert run(src, EvalConfig(fuel=len(expected))).value == 3


@pytest.mark.parametrize("interrupted", [False, True])
def test_fuel_pays_for_as_many_rules_as_it_holds(monkeypatch, interrupted):
    # k units of fuel pay for k rules, so the next rule counts itself, finds
    # none left and stops evaluation, with the fuel spent to 0, whichever
    # rule it is and however rules are grouped when they are counted
    if interrupted:
        monkeypatch.setattr(Session, "_out_of_fuel", interrupt)
    for source, prelude in FUEL_PROGRAMS:
        for fuel in range(rule_total(source, prelude)):
            session = new_session(EvalConfig(fuel=fuel), prelude)
            with pytest.raises(KeyboardInterrupt if interrupted else EvalError) as e:
                session.run_program(source)
            assert interrupted or e.value.kind == "FuelExhausted"
            assert (session.stats["rules"], session.fuel) == (fuel + 1, 0), (source, fuel)
    # fuel set on a session that has counted rules pays for as many more
    source, prelude = FUEL_PROGRAMS[0]
    total = rule_total(source, prelude)
    session = new_session(EvalConfig(), prelude)
    session.run_program("1 + 2")
    before = session.stats["rules"]
    assert before == 3
    for fuel in (0, total - 1):
        session.fuel = fuel
        with pytest.raises(KeyboardInterrupt if interrupted else EvalError):
            session.run_program(source)
        assert (session.stats["rules"], session.fuel) == (before + fuel + 1, 0), fuel
        before = session.stats["rules"]
    session.fuel = total
    session.run_program(source)
    assert (session.stats["rules"], session.fuel) == (before + total, 0)
    # fuel that is not a count of rules is refused before anything runs
    with pytest.raises(ValueError, match="-5"):
        EvalConfig(fuel=-5)


@pytest.mark.parametrize("fuel", [-5, 2.5, 3.0, "3", True])
def test_fuel_is_none_or_a_count(fuel):
    # refused with a ValueError that names it, by the config, by a session
    # made from a config it was set in later, and by the setter of a
    # session, which keeps the fuel it had
    with pytest.raises(ValueError) as e:
        EvalConfig(fuel=fuel)
    assert str(e.value) == f"fuel must be None or an int >= 0, not {fuel!r}"
    config = EvalConfig()
    config.fuel = fuel
    with pytest.raises(ValueError):
        Session(config)
    session = Session(EvalConfig(fuel=7))
    with pytest.raises(ValueError) as e:
        session.fuel = fuel
    assert repr(fuel) in str(e.value)
    assert session.fuel == 7 and session.run_program("1 + 1") == 2
    for count in (None, 0, 3):
        assert Session(EvalConfig(fuel=count)).fuel == count


def test_every_counted_rule_is_in_the_rule_inventory():
    # docs/semantics.md says which step counts as one rule: a table row for
    # each rule name compiled code reports, the count of a run that finds
    # too little fuel (`_short`), and the counts the compiled `apply` and
    # `select` steps, `_apply`, `select`, a filter's `_scan`, `_force_scalar`
    # and `select_each` add; the program above is its worked example
    doc = (Path(__file__).parent.parent / "docs" / "semantics.md").read_text()
    names = {rule for rule, _ in heh.eval._STEPS.values() if rule is not None}
    assert len(names) == 14
    for name in sorted(names):
        assert f"\n| `{name}` |" in doc, name
    for counted in ("Session._short", "compiled `apply` step", "compiled `select` step",
                    "Session._apply", "Session.select", "Session._scan", "trailing `()`", "body_evals",
                    "Session._force_scalar", "Session.select_each",
                    "predicate_calls", "The total is 49"):
        assert counted in doc, counted


def test_ordinal_vector_errors():
    # strict vectors and lazy ones are checked alike
    cases = [
        ("[1, 2].[true]", "ShapeMismatch",
         "selection index components must be ordinals"),
        ("[1, 2].(imap [1] {_(iv): true})", "ShapeMismatch",
         "selection index components must be ordinals"),
        ("[1, 2].[[0]]", "RankMismatch",
         "selection index must be a vector, got shape [1, 1]"),
        ("[1, 2].(5)", "RankMismatch",
         "selection index must be a vector, got shape []"),
        ("imap (imap [w] {_(iv): 0}) {_(iv): 0}", "ShapeMismatch",
         "frame shape must be a finite vector (shape [w])"),
        ("imap [2] {[0] <= iv < [true]: 0}", "ShapeMismatch",
         "generator bound components must be ordinals"),
    ]
    for src, kind, message in cases:
        with pytest.raises(EvalError) as e:
            run(src)
        assert (e.value.kind, e.value.message) == (kind, message), src


def test_booleans_are_not_ordinals():
    # a bool is an int to Python but never an ordinal to heh: each case fails
    # with the kind, message, rule and column it had when every ordinal was
    # an Ordinal instance
    plus = "'+' needs ordinal scalar operands"
    equal = "'=' compares two ordinals or two booleans"
    index = "selection index components must be ordinals"
    predicate = "the filter predicate must return a boolean"
    cases = [
        ("true = 1", equal, "binop", 1),
        ("1 = true", equal, "binop", 1),
        ("[true, 1].[0] = 1", equal, "binop", 1),
        ("true + 1", plus, "binop", 1),
        ("1 + true", plus, "binop", 1),
        ("[true, 1].[0] + 1", plus, "binop", 1),
        ("1 - true", "'-' needs ordinal scalar operands", "binop", 1),
        ("[true, 1].[0] * 2", "'*' needs ordinal scalar operands", "binop", 1),
        ("reduce (\\a.\\b. a + b) 0 [true, 1]", plus, "binop", 16),
        ("islim true", "islim needs an ordinal scalar", "islim", 1),
        ("islim ([true, 1].[0])", "islim needs an ordinal scalar", "islim", 1),
        ("(imap [w] {_(iv): 1}).[1 = 1]", index, "select", 1),
        ("(imap [2] {_(iv): 7}).[[true].[0]]", index, "select", 1),
        ("[0, 1].[true]", index, "select", 1),
        ("imap [true] {_(iv): 0}", "frame shape components must be ordinals", "imap", 1),
        ("filter (\\x. 1) [1, 2]", predicate, "filter", 1),
        ("filter (\\x. 1) (imap [w] {_(iv): 0}).[0]", predicate, "select", 1),
    ]
    for src, message, rule, col in cases:
        with pytest.raises(EvalError) as e:
            run(src)
        assert (e.value.kind, e.value.message, e.value.rule, e.value.span.col) == \
            ("ShapeMismatch", message, rule, col), src
    # a vector holding a bool is no vector of ordinals, nor is a bool an index
    assert isinstance(run("[1, true]").value, StrictArray)
    assert data(run("[1, true]")) == [1, True]
    with pytest.raises(TypeError):
        probe(run("[1, 2]"), [True])


def test_fuel_exhaustion():
    with pytest.raises(EvalError) as e:
        run("letrec f = \\x. f x in f 1", EvalConfig(fuel=1000))
    assert e.value.kind == "FuelExhausted"
    # plenty of fuel: terminates and decrements
    r = run("2 + 2", EvalConfig(fuel=100))
    assert r.session.fuel < 100
    assert r.session.stats["rules"] > 0


def test_lexical_addresses_find_the_innermost_binding():
    # a name resolves to the nearest lambda, letrec or imap generator around
    # it, however many binders lie between
    assert val("(\\x. \\y. \\x. x) 1 2 3") == 3
    assert val("(\\a. \\b. \\c. \\d. a * 1000 + b * 100 + c * 10 + d) 1 2 3 4") == 1234
    assert val("(\\x. letrec x = 5 in x) 1") == 5
    assert val("letrec x = 4 in (\\y. x + y) 1") == 5
    assert val("(\\iv. (imap [3] {_(iv): iv.[0] * 10}).[2]) 7") == 20
    assert val("(\\k. (imap [3] {_(iv): k + iv.[0]}).[2]) 7") == 9
    assert val("letrec mk = \\n. \\m. n in (mk 3) 4") == 3
    # any other name is looked up at the top level when it is evaluated
    session = Session()
    session.run_program("let f = \\x. g x")
    session.run_program("let g = \\x. x + 1")
    assert session.run_program("f 1") == 2
    session.run_program("let g = \\x. x * 10")
    assert session.run_program("f 2") == 20
    session.run_program("let x = 100")
    assert session.run_program("(\\x. x) 1") == 1
    assert session.run_program("(\\y. x) 1") == 100


def test_binding_failure_restores_environment():
    session = Session()
    session.run_program("let x = 1")
    with pytest.raises(EvalError):
        session.run_program("letrec x = x in 0")
    assert session.env["x"] == 1
    # a failing top-level letrec binding puts the previous value back ...
    with pytest.raises(EvalError) as e:
        session.run_program("letrec x = [x]")
    assert (e.value.kind, e.value.rule) == ("UnboundVariable", "array")
    assert session.env["x"] == 1
    # ... and on a fresh name leaves it unbound
    with pytest.raises(EvalError) as e:
        session.run_program("letrec y = [y]")
    assert (e.value.kind, e.value.rule) == ("UnboundVariable", "array")
    assert "y" not in session.env


### ---- the evaluation boundary -------------------------------------------------------


def test_entries_leave_the_recursion_limit_as_found():
    before = sys.getrecursionlimit()
    session = Session()
    assert sys.getrecursionlimit() == before
    r = evaluate(program_source("nats.heh"))
    assert sys.getrecursionlimit() == before
    assert probe(r, [400]) == 400
    assert sys.getrecursionlimit() == before
    assert list(r.shape) == [OMEGA]
    assert sys.getrecursionlimit() == before
    assert format_value(r.session, r.value, 3).startswith("<imap shape=[w]> [0, 1, 2,")
    assert sys.getrecursionlimit() == before
    with pytest.raises(EvalError):
        session.run_program("[1].[2]")
    assert sys.getrecursionlimit() == before


@pytest.fixture
def shallow_limit(monkeypatch):
    """A recursion limit of 3,000 frames for heh entries, so that running out
    of frames is quick to reach; the process limit is held below it."""
    monkeypatch.setattr(heh.eval, "RECURSION_LIMIT", 3000)
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(previous)


def keeps_no_frame_of_the_failure(error: Exception, context=None) -> bool:
    """Whether `error` holds no frame of the evaluation that failed: it has no
    cause, its context is `context`, the exception the caller was handling,
    no frame on its traceback is compiled code or keeps a traceback in a
    local, and its traceback ends in `Session._entry`, which raised it."""
    tb, frame = error.__traceback__, None
    while tb is not None:
        frame = tb.tb_frame
        if "where" in frame.f_code.co_freevars or any(
                value.__class__ is types.TracebackType for value in frame.f_locals.values()):
            return False
        tb = tb.tb_next
    return (error.__context__ is context and error.__cause__ is None
            and frame.f_code is Session._entry.__code__)


def test_depth_overflow_is_depth_exceeded_and_the_session_recovers(shallow_limit):
    r = evaluate(program_source("nats.heh"))
    with pytest.raises(EvalError) as e:
        probe(r, [4000])
    assert (e.value.kind, e.value.rule) == ("DepthExceeded", "select")
    assert e.value.message == ("evaluation nested deeper than the interpreter's "
                               "recursion limit (3000 frames)")
    assert keeps_no_frame_of_the_failure(e.value)
    assert sys.getrecursionlimit() == 1000
    assert probe(r, [300]) == 300


def test_a_nats_level_takes_one_frame(shallow_limit):
    # the `select` step runs the body of `nats` itself, so each level is one
    # frame, the code of that body, as a recursive application is: 2,900
    # levels fit under 3,000 frames (at two frames a level, under 1,500
    # would), 3,100 do not
    r = evaluate(program_source("nats.heh"))
    assert probe(r, [2900]) == 2900
    r = evaluate(program_source("nats.heh"))
    with pytest.raises(EvalError) as e:
        probe(r, [3100])
    assert e.value.kind == "DepthExceeded"


def test_a_recursive_application_takes_one_frame(shallow_limit):
    # the compiled `apply` step calls the function's body itself, so each
    # level of `go` is one frame, the code of its body: 2,900 levels fit
    # under 3,000 frames, 3,100 do not
    src = "letrec go = \\k. if k = 0 then 0 else go (k - 1) in go "
    assert evaluate(src + "2900").value == 0
    with pytest.raises(EvalError) as e:
        evaluate(src + "3100")
    assert e.value.kind == "DepthExceeded"


def test_deepest_benchmark_probe_fits_under_the_real_limit():
    r = evaluate(program_source("nats.heh"))
    assert probe(r, [40000]) == 40000
    # a fresh probe fits up to 199,991 levels, at one frame a level; at two
    # only 99,994 would, and this one is 50% past that
    r = evaluate(program_source("nats.heh"))
    assert probe(r, [150000]) == 150000


def test_depth_overflow_while_evaluating_a_program(shallow_limit):
    session = new_session()
    with pytest.raises(EvalError) as e:
        session.run_program(program_source("nats.heh") + "\nnats.[4000]")
    assert (e.value.kind, e.value.rule) == ("DepthExceeded", "eval")
    assert session.run_program("nats.[300]") == 300


PINNED_SOURCE = """\
def make(where, a0, a1):
    def code(s, env):
        s.rules += 2
        if s.rules > s.limit: s._short(2)
        t0 = env[0]
        if t0.__class__ is not bool: t0 = s._force_scalar(t0)
        if t0 is True:
            s.rules += 1
            if s.rules > s.limit: s._short(1)
            t0 = s.env.get(a0)
            if t0 is None: raise Fault('UnboundVariable', f"unbound variable '{a0}'")
        elif t0 is False:
            s.rules += 1
            if s.rules > s.limit: s._short(1)
            t0 = a1
        else: raise Fault("ShapeMismatch", "the condition must be a boolean scalar")
        return t0
        where
    return code
"""


def test_a_literal_of_constants_is_built_from_one_tuple():
    """An array literal of ordinal constants compiles to the `vector` step,
    whose one argument is the tuple of their values; a literal with any
    other element compiles to the `array` step, an argument an element."""
    def arguments(source):
        code = heh.eval.compile_expr(heh.syntax.parse_expr(source))
        return [cell.cell_contents for cell in code.__closure__]
    assert (1, OMEGA, 2) in arguments("[1, w, 2]") and () in arguments("[]")
    assert (1, True) not in arguments("[1, true]") and True in arguments("[1, true]")


def test_scalar_subtrees_compile_to_one_function(monkeypatch):
    """Every expression class compiles.  The prologue that counts a rule is
    written once; the compiled `apply` and `select` steps count with it too,
    through their lines `$prologue`: an application, and a selection, once
    before it reads, and the step into an imap's cell once that is read.
    Besides it only `_apply`, `select`, `_scan`, `_force_scalar` and
    `select_each` count, with the same two lines (`select` and `_scan` the
    step into a cell, as `_PICK` does; `_scan`, `_force_scalar` and
    `select_each` the selection they make, which `select` does not count),
    and, each only where fuel is left for all it counts, the `apply1` step,
    the `lambda` rule of a body that is only a lambda, and `_eval_reduce`,
    that rule and the two applications around it.  An imap body's first
    line counts its evaluation in `body_evals`, and only `_scan` and
    `_eval_filter` count predicate calls.  A maximal subtree of
    names, constants, operators, selections, applications and
    conditionals is one generated function, whose source
    holds none of the program's names and numbers; a program of the same
    shape with other names and constants reuses it without compiling
    again."""
    exprs = {cls for cls in vars(heh.syntax).values()
             if isinstance(cls, type) and issubclass(cls, heh.syntax.Expr)
             and cls is not heh.syntax.Expr}
    assert len(exprs) == 15 and heh.eval._EXPRESSIONS == exprs
    samples = ["1", "true", "x", "\\x. x", "f 1", "if true then 1 else 2",
               "letrec x = 1 in x", "1 + 2", "[1]", "[1].[0]", "|[1]|",
               "reduce f 0 [1]", "imap [1] {_(iv): 0}", "filter f [1]", "islim w"]
    nodes = [heh.syntax.parse_expr(src) for src in samples]
    assert {node.__class__ for node in nodes} == exprs
    for node in nodes:
        assert heh.eval.compile_expr(node).__code__.co_filename.startswith("<heh "), node
    text = Path(heh.eval.__file__).read_text()
    assert text.count("s.rules += $k\nif s.rules > s.limit: s._short($k)") == 1  # `_PROLOGUE`
    assert text.count("s.rules += ") == 2
    assert text.count('"if $t.inner is not None and s.rules < s.limit:\\n    s.rules += 1\\n"') == 1
    assert text.count('_PROLOGUE.replace("$k", "1")') == 1  # a step's line `$prologue`
    assert {kind: step.count("$prologue") for kind, (_, step) in heh.eval._STEPS.items()
            if "$prologue" in step} == {"apply": 1, "apply1": 1, "apply2": 1, "select": 2,
                                                    "select1": 2}
    counting = sorted(function.name for function in ast.walk(ast.parse(text))
                      if isinstance(function, ast.FunctionDef) for node in ast.walk(function)
                      if isinstance(node, ast.AugAssign)
                      and getattr(node.target, "attr", "") == "rules")
    assert counting == ["_apply", "_eval_reduce", "_force_scalar", "_scan", "_scan", "_scan",
                        "_short", "run", "select", "select_each"]  # `run`, in `select_each`
    assert text.count("self.rules += 1") == 7
    assert text.count(" and self.rules < self.limit - 2:\n                self.rules += 3\n") == 1
    assert text.count("if self.rules > self.limit: self._short(1)\n") == 7
    # an imap body counts its own evaluation; only a filter's helpers count predicate calls
    assert text.count("body_evals += ") == 1
    # and checks and memoizes its own cell: `_PICK`, `select`, `_scan` and strict forcing only
    # read the memo and run the body (the check's two lines are one, with and with no test
    # of a scalar, which a scalar body's fact settles)
    count = heh.eval._STEPS["count"][1]
    assert text.count("._check_cell(") == count.count("._check_cell(") == 2
    assert text.count(".memo[") == count.count(".memo[") == 1
    assert text.count(".memo.get(") == 2 and text.count("memo.get(") == 4
    assert sorted((function.name, node.target.attr) for function in ast.walk(ast.parse(text))
                  if isinstance(function, ast.FunctionDef) for node in ast.walk(function)
                  if isinstance(node, ast.AugAssign) and getattr(node.target, "attr", "") in (
                      "body_evals", "predicate_calls")) == [("_eval_filter", "predicate_calls"),
                                                            ("_scan", "predicate_calls")]

    def key_of(src):
        node = heh.syntax.parse_expr(src)
        key, spans, args = [], [], []
        heh.eval._flatten(node.body, (node.param, None), key, spans, args)
        return tuple(key), [src[span.begin:span.end] for span in spans], args

    key, spans, args = key_of("\\depth. if depth then ceiling else 7919")
    assert spans == ["if depth then ceiling else 7919", "depth", "ceiling", "7919"]
    assert args == ["ceiling", 7919]
    source, nodes, rules = heh.eval._source(key)
    assert source == PINNED_SOURCE  # the line table and rules are not in it
    assert nodes == (0, 0, 1, 0, 0, 2, 2, 2, 2, 0, 3, 3, 3, 0)
    assert rules == ("cond", "var", "var", "const")
    # the same subtree as an imap body: its first line counts it, its last two check and
    # memoize its cell, in the env `(index, closure.env, closure)`; these lines have no node
    body = heh.eval._source(("count",) + key)
    assert body[0] == PINNED_SOURCE.replace("env):\n", "env):\n        s.body_evals += 1\n").replace(
        "        return t0\n", "        if t0.__class__ not in _SCALARS or env[2].cell: "
        "s._check_cell(env[2], env[0], t0)\n"
        "        if s.config.memoize: env[2].memo[env[0]] = t0\n        return t0\n")
    assert body[1:] == ((None,) + nodes + (None, None), rules)
    assert "depth" not in source and "ceiling" not in source and "7919" not in source
    assert key_of("\\level. if level then limit else 12")[0] == key == ("cond", 0, "var", "const")

    compiled = []
    monkeypatch.setattr(heh.eval, "compile",
                        lambda *args: compiled.append(args) or compile(*args), raising=False)
    heh.eval._factory.cache_clear()
    session = Session()
    session.run_program("let ceiling = 3")
    assert session.run_program("(\\depth. if depth then ceiling else 7919) false") == 7919
    assert compiled
    compiled.clear()
    session.run_program("let limit = 8")
    assert session.run_program("(\\level. if level then limit else 12) true") == 8
    assert compiled == []


# the line after each count of a step's own, with every temp named `t` and every
# argument `a`: the rule of the `apply`, `apply1` and `apply2` steps is "apply", and of
# the `select` and `select1` steps "select"
OWN_COUNTS = {"apply": {"if t.__class__ is not FunClosure: t = s._function(t)",
                        "if t.__class__ is list: t, t = t[0](s, (t, t[1])), None"},
              "select": {"if t.__class__ is tuple and len(t) == 1 and t[0].__class__ is int "
                         "and t[0] < len(t): t, t = t[t[0]], None",
                         "if t.__class__ is tuple and a < len(t): t, t = t[a], None",
                         # of a known vector, with no class test
                         "if len(t) == 1 and t[0].__class__ is int and t[0] < len(t): "
                         "t, t = t[t[0]], None",
                         "if a < len(t): t, t = t[a], None",
                         "if t.__class__ not in _SCALARS: t = s.select(t, ())"}}


def test_each_line_of_a_compiled_body_has_its_node(monkeypatch):
    """The line table of every function compiled for the prelude, the
    shipped programs and the corpora gives one node for each line of the
    body, but for an imap body's own three lines, its count and its cell's
    check and memo write, which have None (`Session._entry` reports a fault
    there at the reader's node).  The merged prologues count each node
    once, in order: each counts its first node and the nodes after it.
    The `apply` step counts one more rule, of a node counted before, and
    so does the `select` step, before its tuple test, and once more for the
    step into an imap's cell, once read.
    No body loops: a name is read from its frame with no `Rec` cell to follow."""
    keys = []
    source_of = heh.eval._source
    monkeypatch.setattr(heh.eval, "_source", lambda key: keys.append(key) or source_of(key))
    heh.eval._factory.cache_clear()
    for src in ([prelude_source()] + [program_source(name) for name in program_names()]
                + [src for src, _ in corpus() + list_corpus() + FAULTS + FUEL_PROGRAMS]):
        heh.eval.compile_program(src)
    assert len(keys) > 200
    for key in keys:
        source, nodes, rules = source_of(key)
        lines = source.split("\n")
        end = lines.index("        return t0")
        body = lines[2:end]  # the line `tb_lineno - 3` indexes from
        assert not re.search(r"\btry:|\bexcept\b|EvalError", source), key
        assert len(nodes) == len(body), key
        own = [0, len(body) - 2, len(body) - 1] if key[0] in ("count", ("count", 1)) else []
        assert [i for i, node in enumerate(nodes) if node is None] == own, key
        counted = []
        for i, (line, node) in enumerate(zip(body, nodes)):
            if "s._short(" in line:
                k = int(line.split("s._short(")[1][:-1])
                assert line.strip() == f"if s.rules > s.limit: s._short({k})", key
                assert body[i - 1].strip() == f"s.rules += {k}" and nodes[i - 1] == node, key
                if node < len(counted):  # an `apply` or `select` step's own count
                    following = re.sub(r"\b([ta])\d+", r"\1", body[i + 1].strip())
                    assert k == 1 and following in OWN_COUNTS[rules[node]], key
                else:
                    counted += range(node, node + k)
        assert counted == list(range(len(rules))), key
        assert not any(line.lstrip().startswith("while ") for line in body), key
    text = Path(heh.eval.__file__).read_text()
    assert text.count("where[0][line - 3]") == 1 and "_PARTIAL" not in text
    # only `Session._entry` catches a fault
    catching = [function.name for function in ast.walk(ast.parse(text))
                if isinstance(function, ast.FunctionDef) for node in ast.walk(function)
                if isinstance(node, ast.ExceptHandler) and "Fault" in ast.unparse(node.type)]
    assert catching == ["_entry"]


# the sha256 of `generated_source` at this tree; a change that moves it changed the
# source the compiler writes, its line tables or its rules
SOURCE_PIN = "8d4ec7ee5cecf5afa841d39edf67a4cdd458b679c735ef7825b852711aa7ece8"


def generated_source(monkeypatch) -> str:
    """The sha256 over `repr(_source(key))` for each key that compiling the prelude,
    the shipped programs and both corpora makes, in the order each is first made."""
    keys = []
    source_of = heh.eval._source
    monkeypatch.setattr(heh.eval, "_source", lambda key: keys.append(key) or source_of(key))
    heh.eval._factory.cache_clear()
    for src in ([prelude_source()] + [program_source(name) for name in program_names()]
                + [src for src, _ in corpus() + list_corpus()]):
        heh.eval.compile_program(src)
    hashed = hashlib.sha256()
    for key in dict.fromkeys(keys):
        hashed.update(repr(source_of(key)).encode() + b"\n")
    return hashed.hexdigest()


def test_the_generated_source_is_pinned(monkeypatch):
    assert generated_source(monkeypatch) == SOURCE_PIN


def test_the_compiler_leaves_out_the_class_tests_it_settles(monkeypatch):
    """A class test on a value whose class the compiler knows (its fact, see
    `heh.eval._flatten`) is not in the generated source.  In the imap body, the
    generator's name is a vector, so `iv.[0]` reads it with no tuple test and gives an
    ordinal; `m` names that ordinal, so `m + 1` has no guard or check, and gives an
    ordinal, so the cell check has no scalar test; and the `let` bound, a read of a
    vector, runs no code, so it needs no `_letrec_depth` lines.  The frame `[w, w]` is a
    vector, which the `imap_full` step does not test; the outer `let`'s bound builds an
    imap, so it keeps its depth lines.  A lambda parameter's class is unknown, so the
    body of `\\x. x + 1` keeps the guard of `x`, and only that, and `\\x. islim x` calls
    `_force_scalar` only behind the same guard, as every step does."""
    sources = []
    source_of = heh.eval._source
    monkeypatch.setattr(heh.eval, "_source",
                        lambda key: sources.append(source_of(key)[0]) or source_of(key))
    heh.eval._factory.cache_clear()
    src = "letrec a = imap [w, w] {_(iv): letrec m = iv.[0] in m + 1} in a"
    heh.eval.compile_expr(heh.syntax.parse_expr(src))
    body, outer = sources  # the body is compiled as the outer code is flattened
    for test in ("_force_scalar", "__class__ is tuple", "__class__ is not tuple", "_SCALARS",
                 "Ordinal", "_letrec_depth"):
        assert test not in body, test
    assert "_force_scalar" not in outer and "tuple" not in outer
    assert outer.count("s._letrec_depth") == 2
    result = evaluate(src, prelude=False)
    assert probe(result, [2, 5]) == 3
    sources.clear()
    heh.eval.compile_expr(heh.syntax.parse_expr("\\x. x + 1"))
    body = sources[0]
    assert body.count("t0 = s._force_scalar(t0)") == 1 and "t1.__class__" not in body
    sources.clear()
    heh.eval.compile_expr(heh.syntax.parse_expr("\\x. islim x"))
    assert sources[0].count("_force_scalar") == 1
    assert ("if t0.__class__ is not int and t0.__class__ is not Ordinal: "
            "t0 = s._force_scalar(t0)") in sources[0]
    for kind, (_, step) in heh.eval._STEPS.items():
        for line in step.split("\n"):
            if "_force_scalar(" in line:
                assert re.match(r"\s*(\?\d+ )?if \$[tu]\.__class__ is not ", line), (kind, line)


def test_a_long_literal_is_a_node_of_its_parent(monkeypatch):
    """An array literal of more than `_ELEMENTS` elements compiles to the `array` step in
    the function of the node around it, with its elements' codes as its argument: a body
    that holds one is one function with no hole.  Only each element is a function of its
    own, compiled before the body."""
    keys = []
    source_of = heh.eval._source
    monkeypatch.setattr(heh.eval, "_source", lambda key: keys.append(key) or source_of(key))
    elements = ", ".join(map(str, range(1, heh.eval._ELEMENTS + 1)))
    for src in (f"\\x. [x, {elements}]",
                f"\\x. 1 + |[x, {elements}]|.[0] + [x, {elements}].[{elements[-2:]}]"):
        keys.clear()
        heh.eval._factory.cache_clear()
        heh.eval.compile_expr(heh.syntax.parse_expr(src))
        *_, body, function = keys
        assert function == ("lambda",) and "array" in body and None not in body, body
    assert body.count("array") == 2 and keys[:2] == [(0,), ("const",)]
    assert val(f"({src}) 1") == 34


def test_compiled_code_adds_no_slot_to_its_frame(monkeypatch):
    """Every function compiled for the prelude and the shipped programs reads
    its line table, rules and spans through the one tuple `where`: its free
    variables are `where` and the arguments its body reads, and it binds none
    of the three as a local, as each variable adds a slot to every frame of a
    deep recursion.  It has no failure handler: no exception table, and no
    local but its arguments, its temps and its environments."""
    codes, factory = [], heh.eval._factory
    monkeypatch.setattr(heh.eval, "_factory", lambda key: codes.extend(
        c for c in factory(key)[0].__code__.co_consts if c.__class__ is types.CodeType)
        or factory(key))
    factory.cache_clear()
    Session().run_program(prelude_source())
    for name in program_names():
        evaluate(program_source(name))
    assert len(codes) > 50
    for code in codes:
        assert code.co_name == "code" and "where" in code.co_freevars, code.co_filename
        assert all(re.fullmatch(r"a\d+", name) for name in code.co_freevars
                   if name != "where"), code.co_freevars
        assert not {"nodes", "rules", "spans"} & set(code.co_varnames), code.co_varnames
        assert code.co_exceptiontable == b"", code.co_filename
        assert all(re.fullmatch(r"s|env|t\d+|env\d+", name) for name in code.co_varnames
                   + code.co_cellvars), code.co_varnames


def test_deep_and_arithmetic_faults_are_reported_at_their_node():
    """A fault raised tens of thousands of frames down, and the failure of an
    ordinal `-` or `/`, which is no `Fault`, each take the span and rule of
    the node that raised it, and the error keeps no frame it passed through;
    nor does a premature reference at a top-level binding, which
    `Session._run_binding` reports itself, or a parse or lex error, from
    either entry that parses."""
    cases = [("letrec go = \\k. if k = 0 then 1 / 0 else go (k - 1) in go 50000", None,
              ("DivisionByZero", "division by zero", "binop", (30, 35, 1, 31))),
             (program_source("nats.heh") + "\nnats.[150000]", EvalConfig(fuel=500_000),
              ("FuelExhausted", "evaluation fuel exhausted", "array", (241, 244, 4, 57))),
             ("1 - w", None, ("UndefinedOrdinalOp", "(1) - (w) is undefined: subtrahend is "
                              "larger", "binop", (0, 5, 1, 1))),
             ("letrec x = x", None, ("UnboundVariable", "premature recursive reference to 'x'",
                                     "letrec", (0, 12, 1, 1)))]
    for src, config, expected in cases:
        with pytest.raises(EvalError) as e:
            evaluate(src, config)
        error = e.value
        assert (error.kind, error.message, error.rule, tuple(error.span)) == expected, src
        assert keeps_no_frame_of_the_failure(error), src
    syntax_errors = [("let x = (1 +", heh.syntax.ParseError, "expected an expression, found 'eof'",
                      (12, 12, 1, 13)),
                     ("(((1 +", heh.syntax.ParseError, "expected an expression, found 'eof'",
                      (6, 6, 1, 7)),
                     ("1 # 2", heh.syntax.LexError, "unrecognized character '#'", (2, 3, 1, 3))]
    for src, *expected in syntax_errors:  # `eval_source` takes no top-level `let`
        for entry in [Session.run_program] + [Session.eval_source] * (src[:3] != "let"):
            with pytest.raises(heh.syntax.ParseError) as e:
                entry(Session(), src)
            error = e.value
            assert [error.__class__, error.message, tuple(error.span)] == expected, src
            assert keeps_no_frame_of_the_failure(error), (entry, src)
    # raised while the caller handles an exception, the error's context is that one
    try:
        raise ValueError("the caller's")
    except ValueError as outer:
        with pytest.raises(EvalError) as e:
            evaluate(cases[0][0])
        error = e.value
        assert keeps_no_frame_of_the_failure(error, outer)
    # the error, once dropped, frees the frames it passed through with no collection:
    # a traceback kept in `Session._entry` held all 50,000 in a cycle through its frame,
    # and `Session._short`'s frame, on the fault's traceback, holds the fault in a cycle
    # that `_entry` must break (over 80,000 objects for the nats failure)
    del e, error
    for src, config, _ in cases[:2]:
        gc.collect()
        gc.disable()
        try:
            try:
                evaluate(src, config)
            except EvalError:
                pass
            assert gc.collect() < 1000, src
        finally:
            gc.enable()
    # a kept error holds its session until it is dropped, and no longer: no frame on its
    # traceback holds the error itself, a cycle only a collection would free
    for src in ["1 / 0", "letrec x = x", "let x = (1 +"]:
        session = Session()
        alive = weakref.ref(session)
        gc.collect()
        gc.disable()
        try:
            try:
                session.run_program(src)
            except (EvalError, heh.syntax.ParseError) as caught:
                kept = caught
            del session
            assert alive() is not None, src
            del kept
            assert alive() is None, src
        finally:
            gc.enable()


@pytest.mark.parametrize("config", [EvalConfig(),
                                    EvalConfig(memoize=False, strict_finite_imaps=True)])
def test_a_fault_in_a_fused_body_is_reported_at_its_node(config):
    for src, expected in FAULTS:
        if config.strict_finite_imaps: expected = STRICT_FAULTS.get(src, expected)
        with pytest.raises(EvalError) as e:
            evaluate(src, config)
        error = e.value
        assert (error.kind, error.message, error.rule, tuple(error.span)) == expected, src
    # a scan whose cells are not scalars selects in each, and gives a value
    r = evaluate(RANK_0_CELL_SCAN, config)
    assert r.value == 2
    assert (r.session.stats["body_evals"], r.session.stats["predicate_calls"]) == (8, 4)


def test_a_run_counts_no_node_past_a_name_that_can_fault():
    """`_PROLOGUE` counts a run of nodes at once only across steps that
    cannot fault (`_QUIET`), and a top-level name may be unbound: the node
    after it is counted only once it is found.  So `[nope, 1]` faults having
    counted two rules, the literal's and the name's, and with fuel for just
    those two it reports the unbound name, not a lack of fuel."""
    for fuel in (None, 2):
        session = Session(EvalConfig(fuel=fuel))
        with pytest.raises(EvalError) as e:
            session.run_program("[nope, 1]")
        assert (e.value.kind, e.value.rule, session.stats["rules"]) == ("UnboundVariable",
                                                                         "var", 2), fuel


def called_codes(thunk) -> list:
    """The code of every Python function `thunk` calls."""
    codes = []

    def record(frame, event, arg):
        if event == "call":
            codes.append(frame.f_code)

    sys.setprofile(record)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return codes


def heh_calls(codes) -> dict:
    """How often `codes` holds compiled code, by the rule its file is named after."""
    files = [code.co_filename for code in codes]
    return {f[5:-1]: files.count(f) for f in set(files) if f.startswith("<heh ")}


def test_which_compiled_code_a_probe_calls():
    """Probing calls the code of lambda and imap bodies, each named after its
    root's rule, and of subtrees past a function's budget of nodes, never
    the code of an array literal, a constant, a `letrec` or a shape of its
    own.  ackermann.[3,6] evaluates its body, a `letrec`, once per table
    entry; at each entry with m > 0 it applies `and` to both its arguments
    in one step, which runs the body of its inner lambda, a conditional, and
    not its outer body, a lambda; and it runs the two subtrees past the
    budget: the test `n = 0` and one branch, a selection.  nats.[2000]
    evaluates the body of its first generator, a constant, once and that of
    its second, a sum, 2,000 times; each of those applies `subv` to both its
    arguments in one step, which runs its inner body, an imap, and forces
    the imap's one element, a difference.  A transfinite filter scan reads
    each imap cell and calls the predicate's code itself, with no `select`
    per element."""
    table = memoized_ackermann(3, 6)
    m_positive = sum(m > 0 for m, _ in table)
    for name, index, calls in (
            ("ackermann.heh", [3, 6], {"letrec": len(table), "cond": m_positive,
                                       "binop": m_positive, "select": m_positive}),
            ("nats.heh", [2000], {"const": 1, "binop": 2 * 2000, "imap": 2000})):
        r = evaluate(program_source(name))
        assert heh_calls(called_codes(lambda: probe(r, index))) == calls
    r = evaluate("filter (\\x. x < 5) (imap [w] {_(iv): 4})")
    codes = called_codes(lambda: probe(r, [19]))  # scans 20 elements
    assert heh_calls(codes) == {"const": 20, "binop": 20}
    assert codes.count(Session.select.__code__) == 1  # the probe's own


# the `Session` methods a compiled step or strict forcing would call if it
# did not handle the common case itself, and `_miss`, which the `select` step,
# `select` and strict forcing call for the body of a memo miss they run themselves
# (but the step, for an index of ints into an open imap, see `ImapClosure.open`)
HELPERS = ("_apply", "_function", "_eval_imap", "_shape_of", "select", "_miss")


def helper_calls(thunk) -> dict:
    """How often `thunk` calls each of `HELPERS`."""
    codes = called_codes(thunk)
    return {name: codes.count(getattr(Session, name).__code__) for name in HELPERS}


@pytest.mark.parametrize("config", [EvalConfig(), EvalConfig(fuel=10**6)])
def test_which_helpers_a_probe_calls(config):
    """With fuel set or not, a compiled step applies a function, selects
    from a tuple by one natural in range, takes the shape of a tuple and
    builds an imap of one `_(x)` generator without a call, and forcing a
    finite imap runs its body in `_force_ordinal_vector`'s loop.

    nats.[2000] calls `select` once, for the probe, and the `select` step
    of each of the 2,000 levels selects in `nats`, an imap with no cell
    shape, itself: each is a memo miss, so 2,000 `_miss` calls, and one
    more for the probe's own miss, which `select` finds through `_miss`
    as the step does.  Each level applies
    `subv` twice, takes `|iv|`, builds and forces the one-element imap of
    `subv iv [1]` and selects `a.iv` and `b.iv` in two tuples in its body,
    all without a call.
    ackermann.[3,6] calls `select` only for the probe; its step reads a
    memo hit of a selection `a.[...]` in the table itself.  `_miss` is
    called once, for the probe's own miss, through `select`: it finds the
    table open, one partition over `[w, w]`, so the step runs the body of
    each other entry on its one miss without a call, as every index of ints
    lies in that frame; `iv.[0]` and `iv.[1]` select in a tuple.  `select`
    leaves every miss to `_miss`, so two probes of an open imap at cells of
    ints call it twice, and it gives the body with no box search.  Forcing `v` strictly, once
    for each element of `[v, v]`, calls no helper: the first runs its body
    for each cell, and the second reads memo hits.  Strict forcing of a
    rank-2 imap of one partition runs its body for each cell with no call,
    and of an imap of two partitions calls `_miss` once a cell.
    An imap of one `_(x)` generator is built in its step whatever its frame
    and cell shape: over the lazy frame `addv [1] [2]`, and in the prelude's
    `zip`, whose frame `minv |a| |b|` is lazy too and whose cell shape is
    [2].  Only with `strict_finite_imaps` does each of the two imaps of
    either go through `_eval_imap`, whose strict forcing checks each of
    `zip`'s two cells with `_shape_of`."""
    none = dict.fromkeys(HELPERS, 0)
    r = evaluate(program_source("nats.heh"), config)
    assert helper_calls(lambda: probe(r, [2000])) == {**none, "select": 1, "_miss": 2001}
    r = evaluate(program_source("ackermann.heh"), config)
    assert helper_calls(lambda: probe(r, [3, 6])) == {**none, "select": 1, "_miss": 1}
    r = evaluate("imap [w, w] {_(iv): iv.[0] * 10 + iv.[1]}", config, prelude=False)
    assert helper_calls(lambda: [probe(r, [1, 2]), probe(r, [3, 4])]) == {
        **none, "select": 2, "_miss": 2}
    assert heh.eval.box_contains.__code__ not in called_codes(lambda: probe(r, [5, 6]))
    src = "letrec v = imap [3] {_(iv): iv.[0] + 1} in [v, v]"
    assert helper_calls(lambda: evaluate(src, config, prelude=False)) == none
    for src, misses, data in [
            ("imap [3, 3] {_(iv): iv.[0] * iv.[1]}", 0, [0, 0, 0, 0, 1, 2, 0, 2, 4]),
            ("imap [5] {[0] <= iv < [2]: iv.[0], [2] <= iv < [5]: 7}", 5, [0, 1, 7, 7, 7])]:
        session, values = Session(EvalConfig(strict_finite_imaps=True, fuel=config.fuel)), []
        assert helper_calls(lambda: values.append(session.eval_source(src))) == {
            **none, "_eval_imap": 1, "_miss": misses}, src
        assert session.strict_at(values[0])[1] == data and session.stats["body_evals"] == len(data)
    for src, cells, value in [("imap (addv [1] [2]) {_(iv): iv.[0]}", 0, ((3,), [0, 1, 2])),
                              ("zip [1, 2, 3] [4, 5]", 2, ((2, 2), [1, 4, 2, 5]))]:
        for strict in (False, True):
            session, values = new_session(EvalConfig(strict, fuel=config.fuel)), []
            assert helper_calls(lambda: values.append(session.eval_source(src))) == {
                **none, "_eval_imap": 2 * strict, "_shape_of": cells * strict}, (src, strict)
            assert session.strict_at(values[0]) == value, (src, strict)


def test_what_an_ackermann_entry_no_longer_calls():
    """A `letrec` whose bound does not name its variable binds the bound's
    value with no `Rec` cell, and `_miss` tests an index of ints in a frame
    of `Ordinal`s without `_check_bounds`, for the probe's own selection
    too, as `select` leaves an index with no cell part to `_miss` (and a
    memo hit needs no test, as only a body run in range writes a key).  So
    a fresh ackermann.[3,6] probe builds no cell for `m` or `n` (two a table
    entry before), and calls no `_check_bounds` (once a table entry before,
    then once for the probe).  A `letrec` whose bound names its variable,
    here a recursive function, still builds its one cell."""
    r = evaluate(program_source("ackermann.heh"))
    codes = called_codes(lambda: probe(r, [3, 6]))
    assert codes.count(Rec.__init__.__code__) == 0
    assert codes.count(heh.eval._check_bounds.__code__) == 0
    src = "letrec go = \\k. if k = 0 then 0 else go (k - 1) in go 3"
    values = []
    codes = called_codes(lambda: values.append(evaluate(src, prelude=False).value))
    assert values == [0] and codes.count(Rec.__init__.__code__) == 1


def test_strict_forcing_tests_no_index_inside_the_frame():
    """Strict forcing generates only indexes inside the frame, so `_miss`
    finds each one's box, and calls `_check_bounds` only for an index in
    none, to raise: forcing a rank-2 imap of two partitions calls it for
    none of its 3,600 cells, and a selection outside such a frame faults."""
    src = "imap [60, 60] {[0, 0] <= iv < [30, 60]: iv.[0], [30, 0] <= iv < [60, 60]: 0}"
    session, values = Session(EvalConfig(strict_finite_imaps=True)), []
    codes = called_codes(lambda: values.append(session.eval_source(src)))
    assert codes.count(heh.eval._check_bounds.__code__) == 0
    assert values[0].data == [i if i < 30 else 0 for i in range(60) for _ in range(60)]
    with pytest.raises(EvalError) as e:
        Session().run_program(f"({src}).[59, 60]")
    assert (e.value.kind, e.value.rule) == ("IndexOutOfBounds", "select")


# (an imap of two partitions, a Python oracle of its element at a full index,
# and the indices read: each of its frame cells at most once, in the order a
# filter scan reaches them where one can read it): rank 1 split at a natural
# and at w, rank 2 split on its second axis as `fzip` builds, and a cell shape;
# then of one partition, an infinite imap and the prelude's `zip`, a cell shape
SPLIT_IMAPS = [
    ("imap [w] {[0] <= iv < [3]: iv.[0] * 10, [3] <= iv < [w]: iv.[0] + 100}",
     lambda i: i * 10 if i < 3 else i + 100, [(i,) for i in range(7)]),
    ("imap [w*2] {[0] <= iv < [w]: iv.[0] * 2, [w] <= iv < [w*2]: iv.[0] + 3}",
     lambda i: i * 2 if i.__class__ is int else i + 3,
     [(i,) for i in range(4)] + [(OMEGA + i,) for i in range(4)]),
    ("imap [3, 2] {[0, 0] <= iv < [3, 1]: iv.[0] * 10, [0, 1] <= iv < [3, 2]: iv.[0] + 100}",
     lambda i, j: i * 10 if j == 0 else i + 100, [(i, j) for i in range(3) for j in range(2)]),
    ("imap [4]|[2] {[0] <= iv < [1]: [5, 6], [1] <= iv < [4]: [iv.[0], 7]}",
     lambda i, j: [[5, 6], [i, 7]][i > 0][j], [(i, i % 2) for i in range(4)]),
]
ONE_PARTITION_IMAPS = [
    ("imap [w] {_(iv): iv.[0] * 3}", lambda i: i * 3, [(i,) for i in range(5)]),
    ("zip [10, 20, 30] [4, 5, 6]", lambda i, j: [[10, 4], [20, 5], [30, 6]][i][j],
     [(i, i % 2) for i in range(3)]),
]


def read_split_imap(config, src, indices, reader):
    """The values a fresh session with the prelude reads at `indices` of the
    imap `src`, built in a `letrec` bound so that it stays lazy, in two
    passes, and its body evaluations.  A pass is a probe of each index, one
    compiled selection of each, strict forcing, or a new filter's scan."""
    session, values = new_session(config), []
    a = session.env["a"] = session.run_program(f"letrec a = {src} in a")
    evals = session.stats["body_evals"]
    for _ in range(2):
        if reader == "probe":
            values += [session.select_at(a, index) for index in indices]
        elif reader == "compiled":
            values += session.run_program(
                "[" + ", ".join(f"a.{render_shape(index)}" for index in indices) + "]")
        elif reader == "strict":
            shape, data = session.strict_at(a)
            values += [data[linearize(shape, index)] for index in indices]
        else:  # a filter scan that keeps every element
            kept = session.run_program("filter (\\x. true) a")
            values += [session.select_at(kept, index) for index in indices]
    return values, session.stats["body_evals"] - evals


@pytest.mark.parametrize("config", CONFIGS)
def test_every_reader_of_a_split_imap_agrees(config, monkeypatch):
    """A probe (`select`), a compiled selection (the `select` step,
    or `select` for a cell shape), strict forcing of a finite imap and a
    filter scan past w over a rank-1 infinite one read the same values of an
    imap of several partitions, or of one.  Each body counts itself, so
    every reader makes one body evaluation for each cell it reads with memo
    on, and one for each read with memo off.  `_miss` is the one partition
    search, so every `box_contains` call comes from it."""
    callers, contains = [], heh.eval.box_contains

    def box_contains(box, index):
        callers.append(sys._getframe(1).f_code)
        return contains(box, index)
    monkeypatch.setattr(heh.eval, "box_contains", box_contains)
    for src, oracle, indices in SPLIT_IMAPS + ONE_PARTITION_IMAPS:
        a = evaluate(src, EvalConfig()).value
        readers = ["probe", "compiled"]
        if all(s.__class__ is int for s in a.shape):
            readers.append("strict")
        elif len(a.shape) == 1:
            readers.append("filter")
        expected = [oracle(*index) for index in indices] * 2
        evals = len(indices) * (1 if config.memoize else 2)
        for reader in readers:
            assert read_split_imap(config, src, indices, reader) == (expected, evals), \
                (src, reader)
    assert callers and set(callers) == {Session._miss.__code__}


# (a recursive imap of two partitions, and a probe whose cell lies in the
# second and reads cells of both)
SPLIT_PROBES = [
    ("letrec a = imap [w] {[0] <= iv < [2]: iv.[0] + 1, "
     "[2] <= iv < [w]: a.[iv.[0] - 1] + a.[iv.[0] - 2]} in a", [9]),
    ("letrec a = imap [w]|[2] {[0] <= iv < [1]: [1, 2], "
     "[1] <= iv < [w]: [a.[iv.[0] - 1, 1], iv.[0]]} in a", [5, 0]),
]


@pytest.mark.parametrize("interrupted", [False, True])
def test_a_stopped_probe_of_a_split_imap_keeps_a_true_memo(monkeypatch, interrupted):
    """A fresh probe of an imap of two partitions, through `select` and
    `_miss`, stopped at each of its rules by fuel or by an interrupt,
    leaves every memo entry equal to the uninterrupted run's, and probing
    again gives the same value and fills the same memo."""
    if interrupted:  # a run with no fuel set never calls it
        monkeypatch.setattr(Session, "_out_of_fuel", interrupt)
    for src, index in SPLIT_PROBES:
        session = Session()
        a = session.run_program(src)
        before = session.stats["rules"]
        expected = session.select_at(a, index)
        rules, memo = session.stats["rules"] - before, dict(a.memo)
        for k in range(rules):
            session = Session()
            a = session.run_program(src)
            session.fuel = k
            with pytest.raises(KeyboardInterrupt if interrupted else EvalError):
                session.select_at(a, index)
            assert a.memo.items() <= memo.items(), (src, k)
            session.fuel = None
            assert (session.select_at(a, index), a.memo) == (expected, memo), (src, k)


@pytest.mark.parametrize("config", CONFIGS)
def test_an_index_vector_forces_each_cell_once(config):
    """An index vector whose cells are not all naturals (`INDEX_CELL_FAULTS`)
    has each of its cells forced once, memo on or off, before any is
    checked: the body evaluations are those of its cells (a rank-0 imap
    cell's own body too), and, when finite imaps are strict, those of the
    imap it indexes, forced when it is built."""
    for (src, expected), cells, indexed in zip(INDEX_CELL_FAULTS, (1, 2, 2), (3, 2, 9)):
        session = Session(config)
        with pytest.raises(EvalError) as e:
            session.run_program(src)
        error = e.value
        assert (error.kind, error.message, error.rule, tuple(error.span)) == expected, src
        evals = cells + indexed * config.strict_finite_imaps
        assert session.stats["body_evals"] == evals, (src, config)


@pytest.mark.parametrize("interrupted", [False, True])
def test_a_stopped_letrec_bound_leaves_no_depth(monkeypatch, interrupted):
    # fuel runs out, or Ctrl-C comes, at each rule in turn, inside and
    # outside the bound of a `letrec` in a lambda body and in an imap body
    src = ("(\\y. letrec x = (letrec z = [y, |[y]|.[0]] in z.[1] + y) in "
           "(imap [2] {_(iv): letrec v = iv.[0] + x in v}).[1]) 2")
    assert val(src) == 4
    if interrupted:
        monkeypatch.setattr(Session, "_out_of_fuel", interrupt)
    for strict, fuel in itertools.product((False, True), range(30)):
        session = Session(EvalConfig(strict_finite_imaps=strict, fuel=fuel))
        with pytest.raises(KeyboardInterrupt if interrupted else EvalError):
            session.run_program(src)
        assert session._letrec_depth == 0, fuel
        if strict:  # so a finite imap of the next entry runs its body at once
            session.fuel = None
            evals = session.stats["body_evals"]
            assert session.run_program("imap [3] {_(iv): iv.[0] + 1}") == (1, 2, 3)
            assert session.stats["body_evals"] == evals + 3, fuel


def test_deep_nesting_compiles():
    # a branch is an indented block, of which Python allows 100 nested
    n = 120
    src = ("".join(f"letrec a{k} = " for k in range(n)) + "1"
           + "".join(f" in a{k} + 1" for k in reversed(range(n))))
    assert val(src) == n + 1
    src = ("(\\y. " + "".join(f"if y then letrec a{k} = " for k in range(n)) + "y"
           + "".join(f" in a{k} else 0" for k in reversed(range(n))) + ") true")
    assert val(src) is True


# Each shape runs deep, to a value or `DepthExceeded`, on a thread with a
# 1 MiB stack.  Python-to-Python calls use no C stack, so a path that
# re-enters the interpreter from C once per level (a generator driven by
# `zip(*...)`, `tuple(...)` or `join`) crashes the process long before it
# reaches the 50,000 frames allowed here.
SMALL_STACK_SCRIPT = """
import json, threading
import heh.eval
from heh.cli import format_value
from heh.eval import EvalError, new_session
from heh.prelude import prelude_source, program_names, program_source

heh.eval.RECURSION_LIMIT = 50_000
NATS = program_source("nats.heh") + "\\n"
NESTED = ("letrec a = imap [w]|[1, 1] {[0] <= iv < [1]: [[0]], [1] <= iv < [w]: "
          "[imap [1] {_(jv): a.[iv.[0] - 1, 0, 0] + 1}]} in a")
BACKWARDS = ("letrec r = imap [N] {[0] <= iv < [N - 1]: r.(addv iv [1]) + 1, "
             "[N - 1] <= iv < [N]: 0} in ")
SHAPES = [("[" * 1500 + "1" + "]" * 1500, None), ("[" * 12000 + "1" + "]" * 12000, None),
          (NESTED, [3000, 0, 0]), (NESTED, [10000, 0, 0]),
          (NATS + "nats", [10000]), (NATS + "nats", [40000]), (NATS + "nats", [60000]),
          (NATS + "filter (\\\\x. true) (imap [w] {_(iv): nats.[iv.[0] + 5000]})", [0]),
          (NATS + "filter (\\\\x. true) (imap [w] {_(iv): nats.[iv.[0] + 40000]})", [0]),
          (NATS + "filter (\\\\x. true) (imap [w] {_(iv): nats.[iv.[0] + 60000]})", [0]),
          (BACKWARDS.replace("N", "5000") + "reduce (\\\\x.\\\\y. x + y) 0 r", []),
          (BACKWARDS.replace("N", "40000") + "reduce (\\\\x.\\\\y. x + y) 0 r", []),
          (BACKWARDS.replace("N", "60000") + "reduce (\\\\x.\\\\y. x + y) 0 r", []),
          (BACKWARDS.replace("N", "40000") + "r", None),
          (BACKWARDS.replace("N", "60000") + "r", None)]


def run_all(outcomes):
    for source, index in SHAPES:
        session = new_session()
        try:
            value = session.run_program(source)
            outcomes.append(format_value(session, value, 3) if index is None
                            else session.select_at(value, index))
        except EvalError as error:
            outcomes.append(error.kind)


outcomes = []
threading.stack_size(1 << 20)
thread = threading.Thread(target=run_all, args=(outcomes,))
thread.start()
thread.join()
print(json.dumps(outcomes))
"""


def run_script(script: str) -> str:
    """The output of `script`, run by a fresh interpreter that imports this
    heh, once it has exited with status 0."""
    src = Path(heh.eval.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_deep_shapes_run_on_a_small_stack():
    # a level of `nats` or of `r` takes one frame, so 40,000 levels fit under
    # 50,000 frames (at two frames a level, 25,000 would not) and 60,000 do not
    assert json.loads(run_script(SMALL_STACK_SCRIPT)) == [
        "[" * 1500 + "1" + "]" * 1500, "DepthExceeded", 3000, "DepthExceeded",
        10000, 40000, "DepthExceeded", 5000, 40000, "DepthExceeded",
        5000 * 4999 // 2, 40000 * 39999 // 2, "DepthExceeded",
        "[" + ", ".join(map(str, reversed(range(40000)))) + "]", "DepthExceeded"]


# error branches and rank-0 coercions that no other in-process test takes
RARE_FAULTS = [
    ("letrec a = a.[0] in a",
     ("UnboundVariable", "premature recursive reference to 'a'", "select", (11, 16, 1, 12))),
    ("5.[0]", ("RankMismatch", "index of length 1 into rank-0 array", "select", (0, 5, 1, 1))),
    ("filter (\\x. true) (\\y. y)",
     ("FilterRankError", "filter needs a 1-dimensional array", "filter", (0, 25, 1, 1))),
    ("reduce (\\a. \\b. a + b) 0 (filter (\\x. x < 3) (imap [w] {_(iv): iv.[0]}))",
     ("ReduceOnInfinite", "reduce needs a finite array (shape [w])", "reduce", (0, 72, 1, 1))),
]
RANK_0_SCALARS = [("(imap [] {_(iv): 5}) + 1", 6),
                  ("if imap [] {_(iv): true} then 1 else 0", 1),
                  ("islim (imap [] {_(iv): w})", True)]


@pytest.mark.parametrize("config", [EvalConfig(),
                                    EvalConfig(memoize=False, strict_finite_imaps=True)])
def test_rarely_taken_branches(config):
    for src, expected in RARE_FAULTS:
        with pytest.raises(EvalError) as e:
            evaluate(src, config)
        error = e.value
        assert (error.kind, error.message, error.rule, tuple(error.span)) == expected, src
    for src, expected in RANK_0_SCALARS:
        value = probe(evaluate(src, config), [])
        assert (value, value.__class__) == (expected, expected.__class__), src
    with pytest.raises(heh.syntax.ParseError) as e:
        evaluate("imap reduce f 0 |a| {_(iv): 0}", config)
    assert e.value.__class__ is heh.syntax.ParseError
    assert (e.value.message, tuple(e.value.span)) == (
        "'|' cannot start a shape here; parenthesize the |...| expression", (16, 17, 1, 17))
    with pytest.raises(ValueError, match="^the program produced no value$"):
        probe(evaluate("", config), [])


def test_a_nats_level_keeps_no_lazy_index_alive(monkeypatch):
    """The lazy imap that `subv iv [1]` builds at each level is dropped once
    it has been forced into the index tuple, so the live imaps at the base
    case of a deep probe do not grow with its depth."""
    counts = {}
    miss = Session._miss

    def counting(session, closure, index):
        if index == (0,) and closure.shape == (OMEGA,):  # the base case
            gc.collect()
            counts[depth] = sum(1 for o in gc.get_objects() if o.__class__ is ImapClosure)
        return miss(session, closure, index)

    monkeypatch.setattr(Session, "_miss", counting)
    for depth in (200, 2000):
        r = evaluate(program_source("nats.heh"))
        assert probe(r, [depth]) == depth
    assert counts[2000] == counts[200] < 10, counts


def test_one_module_decides_about_the_recursion_limit():
    """Raising the recursion limit and catching its overflow happen in the
    evaluator's one entry boundary, and nowhere else in the package."""
    sources = {path.name: path.read_text()
               for path in Path(heh.eval.__file__).parent.glob("*.py")}
    assert "eval.py" in sources and "cli.py" in sources
    for name, text in sources.items():
        if name != "eval.py":
            assert "RecursionError" not in text, name
            assert "setrecursionlimit" not in text, name
    assert sources["eval.py"].count("except RecursionError") == 1
    assert sources["eval.py"].count("sys.setrecursionlimit(") == 2  # raise, restore


# Thread A probes a fresh `nats.[60000]` twice while thread B probes a fresh
# `nats.[3000]` until A is done, and at least 50 times.  An entry that restored
# the limit it found while the other thread was deep would leave that thread
# past the limit: a false `DepthExceeded`, or an abort ("Cannot recover from
# stack overflow") when the handler nests deeper still.
RACE_SCRIPT = """
import json, sys, threading
from heh.eval import EvalError, evaluate, probe
from heh.prelude import program_source

def run(depth, rounds, outcomes, done=None):
    while len(outcomes) < rounds or done is not None and not done.is_set():
        try:
            outcomes.append(probe(evaluate(program_source("nats.heh")), [depth]))
        except EvalError as error:
            outcomes.append(error.kind)

def deep_then_done():
    try:
        run(60000, 2, deep)
    finally:
        done.set()

before = sys.getrecursionlimit()
sys.setswitchinterval(1e-4)  # switch threads often, to interleave entries
threading.stack_size(256 << 20)
done, deep, shallow = threading.Event(), [], []
a = threading.Thread(target=deep_then_done)
b = threading.Thread(target=run, args=(3000, 50, shallow, done))
a.start(), b.start(), a.join(), b.join()
print(json.dumps([deep, shallow, before, sys.getrecursionlimit()]))
"""


def test_entries_in_two_threads_share_the_recursion_limit():
    deep, shallow, before, after = json.loads(run_script(RACE_SCRIPT))
    assert deep == [60000, 60000] and len(shallow) >= 50
    assert set(shallow) == {3000}, [x for x in shallow if x != 3000][:5]
    assert after == before


EVENS_OF = "filter (\\x. x % 2 = 0) "
# (program defining v, probe of v, its value from a Python oracle); a filter's
# argument holds j at the j-th source of each segment
REPROBE_CASES = {
    "filter over [w]": (
        EVENS_OF + "(imap [w] {_(iv): iv.[0]})",
        lambda s, v: [s.select_at(v, [i]) for i in range(13)],
        [x for x in range(25) if x % 2 == 0]),
    "filter over [w+3]": (
        EVENS_OF + "(imap [w+3] {[0]<=iv<[w]: iv.[0], [w]<=iv<[w+3]: iv.[0] - w})",
        lambda s, v: (s.shape_at(v), s.select_at(v, [OMEGA + 1]), s.select_at(v, [3])),
        # the tail segment holds 0, 1, 2, of which 0 and 2 survive
        ((OMEGA + 2,), 2, 6)),
    "memoized nats": (
        program_source("nats.heh"),
        lambda s, v: s.select_at(v, [10]),
        10),
}


@pytest.fixture(scope="module")
def prelude_session():
    return new_session()


def interrupt(session):
    """An `_out_of_fuel` that raises KeyboardInterrupt, as Ctrl-C in the
    middle of forcing would.  Every rule that finds no fuel left calls it,
    so with fuel k - 1 the k-th rule is interrupted."""
    raise KeyboardInterrupt


@pytest.mark.parametrize("case", sorted(REPROBE_CASES))
def test_failed_probe_leaves_the_session_able_to_reprobe(case, prelude_session,
                                                         monkeypatch):
    """Whichever rule a probe runs out of fuel at or is interrupted at, each
    filter segment holds just the evens among the sources it has scanned,
    and probing again without a limit gives the oracle's value."""
    source, probe_of, expected = REPROBE_CASES[case]
    session = prelude_session
    session.fuel = None
    value = session.run_program(source)
    before = session.stats["rules"]
    probe_of(session, value)
    rules = session.stats["rules"] - before  # the probe's rules, all of them
    for k in range(1, 301):
        for interrupted in (False, True):
            session.fuel = None
            value = session.run_program(source)
            stopped = False
            if interrupted:
                session.fuel = k - 1
                with monkeypatch.context() as patch:
                    patch.setattr(Session, "_out_of_fuel", interrupt)
                    try:
                        probe_of(session, value)
                    except KeyboardInterrupt:
                        stopped = True
                # rule k is interrupted whenever the probe has a k-th rule
                assert stopped == (k <= rules), (k, rules)
            else:
                session.fuel = k
                try:
                    probe_of(session, value)
                except EvalError as error:
                    assert error.kind == "FuelExhausted"
                    stopped = True
                assert stopped == (k < rules), (k, rules)
            if value.__class__ is FilterClosure:  # an element counts once answered
                for segment in value.partitions.values():
                    assert segment.prefix == [j for j in range(segment.scan) if j % 2 == 0], \
                        (k, interrupted)
            session.fuel = None
            assert probe_of(session, value) == expected, (k, interrupted)


### ---- programs and embedding --------------------------------------------------------


def test_program_bindings_persist():
    session = Session()
    session.run_program("let x = 5")
    session.run_program("letrec double = \\n. if n = 0 then 0 else 2 + double (n - 1)")
    assert session.run_program("double x") == 10


def test_program_final_value_is_last_form():
    r = run("let x = 5\nlet y = x + 1")
    assert probe(r, []) == 6


def test_top_level_recursive_binding():
    session = Session()
    nats = session.run_program(
        "letrec nats = imap [w] {[0]<=iv<[1]: 0, [1]<=iv<[w]: nats.([iv.[0] - 1]) + 1}")
    assert session.select_at(nats, [9]) == 9


def live_imaps():
    return sum(isinstance(o, ImapClosure) for o in gc.get_objects())


def test_session_values_are_reclaimable():
    """A session keeps no value it does not bind: once a program's value is
    dropped, its imap and memoized elements can be collected."""
    session = new_session()
    gc.collect()
    before = live_imaps()
    for n in range(200):
        value = session.eval_source(f"imap [w] {{_(iv): iv.[0] + {n}}}")
        assert session.select_at(value, [5]) == 5 + n
    del value
    gc.collect()
    assert live_imaps() == before


def test_strictness_coherence_on_finite_programs():
    programs = [
        "reduce (\\x.\\y.x+y) 0 (imap [4,4] {_(iv): iv.[0] * iv.[1]})",
        "(imap [2,2] {[0,0]<=iv<[1,2]: 1, [1,0]<=iv<[2,2]: 2}).[1,1]",
        "[imap [2] {_(iv): iv.[0]}, [7, 8]].[0,1]",
    ]
    for src in programs:
        results = {str(val(src, EvalConfig(strict_finite_imaps=flag)))
                   for flag in (False, True)}
        assert len(results) == 1, src


def test_selection_totality_on_strict_arrays():
    r = run("imap [3,4] {_(iv): iv.[0]*4 + iv.[1]}")
    for i in range(3):
        for j in range(4):
            assert probe(r, [i, j]) == i * 4 + j
    for bad in ([3, 0], [0, 4], [2, 5]):
        with pytest.raises(EvalError) as e:
            probe(r, bad)
        assert e.value.kind == "IndexOutOfBounds"
