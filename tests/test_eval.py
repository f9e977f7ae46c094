"""Evaluator tests: core rules, imap laziness, memoization, letrec, config.

Expected values for the arithmetic-free fixtures are computed by hand or
by small Python oracles inline; element probes compare against directly
computed index arithmetic.
"""

import gc
import itertools
import math
import random
import sys
from pathlib import Path

import pytest

import heh.eval
import heh.syntax
from heh.cli import format_value
from heh.eval import EvalConfig, EvalError, Session, evaluate, new_session, probe
from heh.ordinal import OMEGA, Ordinal, omega_power
from heh.prelude import program_source
from heh.runtime import FunClosure, ImapClosure, StrictArray


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


### ---- memoization ------------------------------------------------------------------


def test_memoization_skips_reevaluation():
    r = run("imap [w] {_(iv): iv.[0] * 2}")
    s = r.session
    assert probe(r, [7]) == 14
    evals = s.stats["body_evals"]
    assert probe(r, [7]) == 14
    assert s.stats["body_evals"] == evals  # second selection is free
    assert probe(r, [9]) == 18
    assert s.stats["body_evals"] == evals + 1


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
        ("select", 107),  # `select` itself, which evaluates the cell a.[1]:
        ("select", 29), ("var", 29), ("array", 32), ("const", 33), ("select", 29),
        ("select", 107),  # the trailing () selection of the scalar cell
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


def test_every_counted_rule_is_in_the_rule_inventory():
    # docs/semantics.md says which step counts as one rule: a table row for
    # each rule name compiled code reports, and the counts `_apply` and
    # `select` add; the program above is its worked example
    doc = (Path(__file__).parent.parent / "docs" / "semantics.md").read_text()
    names = {rule for rule, _ in heh.eval._STEPS.values() if rule is not None}
    assert len(names) == 14
    for name in sorted(names):
        assert f"\n| `{name}` |" in doc, name
    for counted in ("Session._apply", "Session.select", "trailing `()`", "body_evals",
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


def test_depth_overflow_is_depth_exceeded_and_the_session_recovers(shallow_limit):
    r = evaluate(program_source("nats.heh"))
    with pytest.raises(EvalError) as e:
        probe(r, [2000])
    assert (e.value.kind, e.value.rule) == ("DepthExceeded", "select")
    assert e.value.message == ("evaluation nested deeper than the interpreter's "
                               "recursion limit (3000 frames)")
    assert sys.getrecursionlimit() == 1000
    assert probe(r, [300]) == 300


def test_a_nats_level_takes_three_frames(shallow_limit):
    # each level is the code of the body, `select` and `_cell_value`: 900
    # levels fit under 3,000 frames, 1,100 do not
    r = evaluate(program_source("nats.heh"))
    assert probe(r, [900]) == 900
    r = evaluate(program_source("nats.heh"))
    with pytest.raises(EvalError) as e:
        probe(r, [1100])
    assert e.value.kind == "DepthExceeded"


def test_deepest_benchmark_probe_fits_under_the_real_limit():
    r = evaluate(program_source("nats.heh"))
    assert probe(r, [40000]) == 40000


def test_depth_overflow_while_evaluating_a_program(shallow_limit):
    session = new_session()
    with pytest.raises(EvalError) as e:
        session.run_program(program_source("nats.heh") + "\nnats.[2000]")
    assert (e.value.kind, e.value.rule) == ("DepthExceeded", "eval")
    assert session.run_program("nats.[300]") == 300


PINNED_SOURCE = """\
def make(a0, a1, a2, a3, a4, a5):
    def code(s, env):
        try:
            s.stats["rules"] += 1
            if s.fuel is not None: s.fuel = s.fuel - 1 if s.fuel > 0 else s._out_of_fuel()
            s.stats["rules"] += 1
            if s.fuel is not None: s.fuel = s.fuel - 1 if s.fuel > 0 else s._out_of_fuel()
            t0 = env[0]
            while t0.__class__ is Rec and t0.value is not None: t0 = t0.value
            if t0.__class__ is not bool: t0 = s._force_scalar(t0)
            if t0 is True:
                s.stats["rules"] += 1
                if s.fuel is not None: s.fuel = s.fuel - 1 if s.fuel > 0 else s._out_of_fuel()
                t0 = s.env.get(a3)
                if t0 is None: raise Fault('UnboundVariable', f"unbound variable '{a3}'")
                while t0.__class__ is Rec and t0.value is not None: t0 = t0.value
            elif t0 is False:
                s.stats["rules"] += 1
                if s.fuel is not None: s.fuel = s.fuel - 1 if s.fuel > 0 else s._out_of_fuel()
                t0 = a5
            else: raise Fault("ShapeMismatch", "the condition must be a boolean scalar")
            return t0
        except Fault as fault:  # at the node of the line that raised it
            i = (0, 0, 1, 1, 1, 1, 0, 0, 2, 2, 2, 2, 2, 0, 3, 3, 3, 0)[fault.__traceback__.tb_lineno - 4]
            raise EvalError(fault.kind, fault.message, (a0, a1, a2, a4,)[i], ('cond', 'var', 'var', 'const')[i]) from None
    return code
"""


def test_scalar_subtrees_compile_to_one_function(monkeypatch):
    """Every expression class compiles.  The prologue that counts a rule is
    written once, besides `_apply` and `select`.  A maximal subtree of
    names, constants, operators, selections, applications and conditionals
    is one generated function, whose source holds none of the program's
    names and numbers; a program of the same shape with other names and
    constants reuses it without compiling again."""
    exprs = {cls for cls in vars(heh.syntax).values()
             if isinstance(cls, type) and issubclass(cls, heh.syntax.Expr)
             and cls is not heh.syntax.Expr}
    assert len(exprs) == 15 and set(heh.eval._KINDS) | heh.eval._FUSED == exprs
    samples = ["1", "true", "x", "\\x. x", "f 1", "if true then 1 else 2",
               "letrec x = 1 in x", "1 + 2", "[1]", "[1].[0]", "|[1]|",
               "reduce f 0 [1]", "imap [1] {_(iv): 0}", "filter f [1]", "islim w"]
    nodes = [heh.syntax.parse_expr(src) for src in samples]
    assert {node.__class__ for node in nodes} == exprs
    for node in nodes:
        assert heh.eval.compile_expr(node).__code__.co_filename.startswith("<heh "), node
    text = Path(heh.eval.__file__).read_text()
    assert text.count('s.stats["rules"] += 1') == 1  # in `_PROLOGUE`
    assert text.count('self.stats["rules"] += 1') == 3  # `_apply`, `select` twice

    def key_of(src):
        node = heh.syntax.parse_expr(src)
        key, args = [], []
        heh.eval._flatten(node.body, (node.param,), key, args)
        return tuple(key)

    source, rule = heh.eval._source(key_of("\\depth. if depth then ceiling else 7919"))
    assert (source, rule) == (PINNED_SOURCE, "cond")
    assert "depth" not in source and "ceiling" not in source and "7919" not in source
    assert key_of("\\level. if level then limit else 12") == ("cond", 0, "var", "const")

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


# Faults inside a lambda or imap body at each fused kind: the error's kind,
# message, rule and span (begin, end, line, col) are those of the node whose
# step raised it
FUSED_FAULTS = [
    ("(\\x. x + nope) 1",
     ("UnboundVariable", "unbound variable 'nope'", "var", (9, 13, 1, 10))),
    ("(imap [2] {_(iv): iv.[0] + nope}).[1]",
     ("UnboundVariable", "unbound variable 'nope'", "var", (27, 31, 1, 28))),
    ("(\\x. x + true) 1",
     ("ShapeMismatch", "'+' needs ordinal scalar operands", "binop", (5, 13, 1, 6))),
    ("(imap [2] {_(iv): (iv.[0] = 1) + 1}).[1]",
     ("ShapeMismatch", "'+' needs ordinal scalar operands", "binop", (18, 34, 1, 19))),
    ("(\\x. 1 / x) 0",
     ("DivisionByZero", "division by zero", "binop", (5, 10, 1, 6))),
    ("(imap [2] {_(iv): 5 / (iv.[0] * 0)}).[1]",
     ("DivisionByZero", "division by zero", "binop", (18, 34, 1, 19))),
    ("(\\x. 3 - x) w",
     ("UndefinedOrdinalOp", "(3) - (w) is undefined: subtrahend is larger", "binop",
      (5, 10, 1, 6))),
    ("(imap [2] {_(iv): (iv.[0] * 0 + 3) - w}).[1]",
     ("UndefinedOrdinalOp", "(3) - (w) is undefined: subtrahend is larger", "binop",
      (18, 38, 1, 19))),
    ("(\\x. if x then 1 else 2) 3",
     ("ShapeMismatch", "the condition must be a boolean scalar", "cond", (5, 23, 1, 6))),
    ("(imap [2] {_(iv): if iv.[0] then 1 else 2}).[1]",
     ("ShapeMismatch", "the condition must be a boolean scalar", "cond", (18, 41, 1, 19))),
    ("(\\x. x 1) 3",
     ("NotAFunction", "only functions can be applied", "apply", (5, 8, 1, 6))),
    ("(imap [2] {_(iv): (iv.[0]) 1}).[1]",
     ("NotAFunction", "only functions can be applied", "apply", (18, 28, 1, 19))),
    ("(\\x. x.[5]) [1, 2]",
     ("IndexOutOfBounds", "index [5] outside shape [2]", "select", (5, 10, 1, 6))),
    ("(imap [2] {_(iv): iv.[3]}).[1]",
     ("IndexOutOfBounds", "index [3] outside shape [1]", "select", (18, 24, 1, 19))),
    ("(\\x. if x.[0] = 1 then x.[9] + 1 else 0) [1]",
     ("IndexOutOfBounds", "index [9] outside shape [1]", "select", (23, 28, 1, 24))),
    ("(imap [2] {_(iv): if iv.[0] < 5 then 1 + (iv.[0] * 0 - 7) else 0}).[1]",
     ("UndefinedOrdinalOp", "(0) - (7) is undefined: subtrahend is larger", "binop",
      (41, 57, 1, 42))),
]


@pytest.mark.parametrize("config", [EvalConfig(),
                                    EvalConfig(memoize=False, strict_finite_imaps=True)])
def test_a_fault_in_a_fused_body_is_reported_at_its_node(config):
    for src, expected in FUSED_FAULTS:
        with pytest.raises(EvalError) as e:
            evaluate(src, config)
        error = e.value
        assert (error.kind, error.message, error.rule, tuple(error.span)) == expected, src


def test_a_nats_level_keeps_no_lazy_index_alive(monkeypatch):
    """The lazy imap that `subv iv [1]` builds at each level is dropped once
    it has been forced into the index tuple, so the live imaps at the base
    case of a deep probe do not grow with its depth."""
    counts = {}
    cell_value = Session._cell_value

    def counting(session, closure, index):
        if index == (0,) and closure.shape == (OMEGA,):  # the base case
            gc.collect()
            counts[depth] = sum(1 for o in gc.get_objects() if o.__class__ is ImapClosure)
        return cell_value(session, closure, index)

    monkeypatch.setattr(Session, "_cell_value", counting)
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


EVENS_OF = "filter (\\x. x % 2 = 0) "
# (program defining v, probe of v, its value from a Python oracle)
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
    """Whichever rule a probe runs out of fuel at or is interrupted at, probing
    again without a limit gives the oracle's value."""
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
