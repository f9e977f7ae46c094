"""Differential tests on generated, evaluable programs.

The programs and the outcome a Python model gives for each probe come from
`corpora.py`.  Every program is run under the five configurations of
`corpora.CONFIGS`, memo on/off x strict/lazy finite imaps under a fuel
budget and the default with none, which must all give the model's
outcomes, and under `python -O`, which must give the same outcomes and
counters.
"""

import ast
import json
import os
import subprocess
import sys

import pytest
from canonical import is_canonical, is_canonical_array
from corpora import CONFIGS, FAULTS, corpus, list_corpus, run_case

import heh
from heh.ordinal import OMEGA, Ordinal
from heh.runtime import FilterClosure, FunClosure, ImapClosure, Rec, StrictArray


@pytest.mark.parametrize("chunk", range(4))
def test_generated_programs_match_the_model_in_every_configuration(chunk):
    cases = corpus()[chunk::4]
    for source, probes in cases:
        expected = [value for _, value in probes]
        for config in CONFIGS:
            got, _, _ = run_case(source, probes, config)
            assert got == expected, (source, config)


def test_prelude_list_operations_match_the_model_in_every_configuration():
    for source, probes in list_corpus():
        expected = [value for _, value in probes]
        for config in CONFIGS:
            got, _, _ = run_case(source, probes, config, prelude=True)
            assert got == expected, (source, config)


def counted_outcomes():
    """For every program of both corpora under the first configuration: its
    probes' outcomes as text, its counters and the fuel left."""
    rows = []
    for prelude, cases in ((False, corpus()), (True, list_corpus())):
        for source, probes in cases:
            got, session, _ = run_case(source, probes, CONFIGS[0], prelude)
            rows.append([list(map(str, got)), session.stats, session.fuel])
    return rows


def test_no_module_checks_under_debug():
    # the invariants are checked by the tests (see canonical.py), never by an
    # assert or a `__debug__` block, so `python` and `python -O` run the same
    # interpreter
    package = os.path.dirname(os.path.abspath(heh.__file__))
    modules = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert {"eval.py", "ordinal.py", "runtime.py"} <= set(modules)
    for name in modules:
        with open(os.path.join(package, name)) as f:
            tree = ast.parse(f.read(), name)
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)
                 or isinstance(node, ast.Name) and node.id == "__debug__"]
        assert found == [], name


def test_optimized_mode_gives_the_same_outcomes_and_counters():
    # a second process, under `python -O`, gives the same outcomes, counters
    # and fuel left: it shares no compiled code or cache with this one, and
    # `-O` changes nothing, as no module checks under __debug__ (see above)
    src = os.path.dirname(os.path.dirname(os.path.abspath(heh.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.path.dirname(__file__), os.environ.get("PYTHONPATH")])))
    script = "import json, test_differential as t; print(json.dumps(t.counted_outcomes()))"
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == json.loads(json.dumps(counted_outcomes()))


def env_values(env):
    while env is not None:
        yield env[0]
        env = env[1]


def misrepresented_values(roots):
    """The values reachable from `roots` that break the canonical
    representation: each ordinal is a canonical one, a finite vector of
    ordinals is a tuple and a tuple is a vector of canonical ordinals, a
    shape, frame index or box corner is such a tuple, whose finite extents
    are ints, and each strict array is canonical (`is_canonical_array`).
    The walk follows array elements and shapes, imap frames, generator
    boxes, memoized indices and cells, filter segments, recursion cells and
    the environments of closures."""
    bad, seen, todo = [], set(), list(roots)
    while todo:
        value = todo.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        cls = value.__class__
        if cls is Ordinal:
            if not is_canonical(value):
                bad.append(value)
        elif cls is tuple:
            if not all(map(is_canonical, value)):
                bad.append(value)
        elif cls is StrictArray:
            if not is_canonical_array(value):
                bad.append(value)
            todo.extend(value.data)
        elif cls is ImapClosure:
            todo += [value.frame, value.cell, value.shape]
            todo.extend(corner for box, _ in value.partitions for corner in box)
            todo.extend(value.memo)
            todo.extend(value.memo.values())
            todo.extend(env_values(value.env))
        elif cls is FilterClosure:
            todo += [value.predicate, value.argument, value.arg_shape]
            bad.extend(key for key in value.partitions if not is_canonical(key))
            todo.extend(x for segment in value.partitions.values() for x in segment.prefix)
        elif cls is FunClosure:
            todo.extend(env_values(value.env))
        elif cls is Rec and value.value is not None:
            todo.append(value.value)
    return bad


# imaps of rank 0, whose value is a bare scalar when strict; neither corpus
# makes one
SCALAR_IMAPS = [("imap [] {_(iv): 7}", [([], 7)]),
                ("imap [] {_(iv): true}", [([], True)]),
                ("(\\n. imap [] {_(iv): w + n}) 3", [([], OMEGA + 3)])]


def test_every_vector_of_ordinals_is_a_tuple():
    # and every ordinal and strict array reachable from a program's value, its
    # session or its probes' outcomes is canonical: see misrepresented_values
    runs = [(False, source, probes) for source, probes in corpus() + SCALAR_IMAPS]
    runs += [(True, source, probes) for source, probes in list_corpus()]
    runs += [(True, heh.program_source(name), probes)
             for name, probes in heh.examples_suite()]
    for prelude, source, probes in runs:
        for config in CONFIGS[:2]:  # memo on: every forced cell stays reachable
            outcomes, session, value = run_case(source, probes, config, prelude)
            roots = [value, *session.env.values(), *outcomes]
            assert misrepresented_values(roots) == [], (source, config)


def test_the_corpus_covers_each_construct():
    sources = [source for source, _ in corpus()]
    for construct in ("imap [w+", "imap [w, ", "letrec s", "[w] <= iv < [w + 1]",
                       "filter", "reduce", "] <= iv < [w]"):
        assert sum(construct in s for s in sources) >= 15, construct
    outcomes = [value for _, probes in corpus() for _, value in probes]
    for kind in ("!IndexOutOfBounds", "!DivisionByZero", "!UndefinedOrdinalOp"):
        assert kind in outcomes, kind
    assert sum(isinstance(v, int) for v in outcomes) > 500
    lists = [source for source, _ in list_corpus()]
    for op in ("(take ", "(drop ", " ++ ", "(reverse ", "(zip "):
        assert sum(op in s and "imap [w + " in s for s in lists) >= 5, op
        assert sum(op in s and "imap [w + " not in s for s in lists) >= 3, op


def test_the_outcome_digest_still_takes_its_rows():
    """`outcome_digest.py` hashes what a change meant to keep every outcome
    must keep; its first row, a fault's row and a fuel program's row still
    come out, in the form it hashes."""
    import outcome_digest
    source, (kind, message, rule, span) = FAULTS[0]
    fault = outcome_digest.run(source, None, CONFIGS[0], False)
    fuel = outcome_digest.run(outcome_digest.FUEL_PROGRAMS[0][0], None,
                              heh.EvalConfig(fuel=3), False)
    for row in next(outcome_digest.rows()), fault, fuel:
        json.dumps(row)
    assert fault[0] == [[kind, message, rule, list(span)]]
    assert fuel[0][0][0] == "FuelExhausted" and fuel[2] == 0


# the digest of every outcome, counter and fuel read `outcome_digest.rows()`
# takes; a change that moves it changed what a user can observe
OUTCOME_DIGEST = "f10cc9b1557e6360aea3cbf5d7876dd8cb6a4f83289706f13523eb97e916536d"


def test_the_outcome_digest_is_pinned():
    import outcome_digest
    assert outcome_digest.digest() == OUTCOME_DIGEST


# fusion budgets under which compiled code is split differently: every node
# a function of its own (but an array literal's constant elements), no node
# budget, and no array literal fused with its elements
FUSION_CONFIGS = [{"_NODES": 1}, {"_NODES": 10**9}, {"_ELEMENTS": 0}]


def test_outcomes_do_not_depend_on_how_code_is_fused():
    """How nodes are fused into functions decides only how fast code runs:
    a sample of the digest's rows, with every fault, pinned probe and fuel
    sweep, is the same under each of `FUSION_CONFIGS` as under the default
    budgets.  The pinned digest was read off the fused compiler, so this
    also catches a fusion fault older than the pin."""
    import outcome_digest
    sample = 40  # programs of each corpus
    expected = list(outcome_digest.rows(sample))
    for settings in FUSION_CONFIGS:
        with outcome_digest.fusion(settings):
            got = list(outcome_digest.rows(sample))
        assert len(got) == len(expected), settings
        for row, want in zip(got, expected):
            assert row == want, settings
