"""One sha256 over everything a user of the evaluator can observe.

    PYTHONPATH=src python tests/outcome_digest.py [--rows] [--fusion NAME=N ...]

prints the digest (`--rows` prints the rows it is taken over instead, one
JSON list a line, to find where two versions differ).  Each `--fusion`,
such as `--fusion _NODES=1`, sets one of the compiler's fusion budgets in
`heh.eval` (see `FUSION`), and all code is compiled afresh under them, so
the digest of any fusion configuration takes one command.  A row holds each
probe's outcome (its value, or its error's kind, message, rule and span),
the session's counters, the fuel left and the `letrec` depth left over:

- every program of both corpora in `corpora.py` and of `corpora.FAULTS`,
  under the five configurations of `corpora.CONFIGS`;
- each program of `REREAD` probed twice in one session at a cell that
  fails its shape check, under the same five configurations;
- each program of `OPEN_READS`, `FORCED` and `ISLIM`, under the same five
  configurations;
- each program of `SETTLED`, probed where it gives a probe, and of
  `MISS_PROBES`, under the same five configurations;
- every shipped program at the indices of `examples_suite()`, under the
  same five configurations;
- the pinned probes `nats.[2000]`, `ackermann.[3,6]` and Game of Life at
  [2, 2] and [1, 2];
- the programs of `FUEL_PROGRAMS` at each fuel from 0 to the rules the
  program takes, once as they are and once with running out of fuel
  raising `KeyboardInterrupt`.

A change that is meant to be pure speed must leave the digest as it was,
under `python` and under `python -O`; Tier-1 pins it (see
`test_differential.py`).  Only the standard library and heh are needed.
"""

import argparse
import functools
import hashlib
import json
import random
import sys
from contextlib import contextmanager
from pathlib import Path

sys.path[:0] = [str(Path(__file__).parent), str(Path(__file__).parent.parent / "src")]

from corpora import CONFIGS, FAULTS, RANK_0_CELL_SCAN, corpus, list_corpus  # noqa: E402

import heh.eval  # noqa: E402
from heh.eval import EvalConfig, EvalError, Session, new_session  # noqa: E402
from heh.ordinal import OMEGA  # noqa: E402
from heh.prelude import _prelude_values, examples_suite, program_source  # noqa: E402
from heh.runtime import render_scalar  # noqa: E402

# (source, prelude): between them they run every rule kind, with `letrec`s
# inside bodies and bounds; the fourth faults inside a `letrec` bound; the
# sixth and seventh scan a transfinite filter, for a selection and for its
# shape, and over cells that are rank-0 imaps; the eighth applies a function
# held in a `letrec` cell recursively, and `reduce`s with it.  Each of the
# rest reads a name while its definition runs, passes its cell on, and uses
# it once filled: by application, by selection and `|...|` in an imap, in an
# array literal and by `reduce`, as a filter's predicate, and in a binop and
# a `cond` that fail.  The last eight apply functions to two arguments (the
# `apply1` and `apply2` steps of `heh.eval`, and `reduce`): applied to three,
# with a function and with a number as the result; as the head, a `letrec`
# cell, filled and while its definition runs; one whose body is not only a
# lambda; a partial application kept and applied twice; a head that is no
# function; and `reduce` with a curried function and with one that returns a
# function from a conditional.  The last holds literals of more than
# `heh.eval._ELEMENTS` elements, each an `array` node in the run of its parent
LONG = ", ".join(map(str, range(1, 17)))  # with an element before it, a literal of 17
FUEL_PROGRAMS = [
    ("letrec a = imap [2] {_(iv): iv.[0]} in reduce (\\x.\\y. if islim y then x else x + y) "
     "0 (filter (\\x. true) [a.[1], |a|.[0]])", False),
    (program_source("nats.heh") + "\nnats.[3]", True),
    ("letrec a = imap [3, 8] {_(iv): letrec m = iv.[0] in letrec n = iv.[1] in "
     "if m = 0 then n + 1 else if n = 0 then a.[m - 1, 1] else a.[m - 1, a.[m, n - 1]]} "
     "in a.[2, 1]", False),
    ("(\\y. letrec x = (letrec z = [y, y + 1] in z.[1]) in "
     "letrec v = [x, |[[x], [y]]|.[1], x / (y - 2)] in v.[0] + v.[1]) 2", False),
    ("letrec s = imap [w]|[2] {[0] <= iv < [1]: [1, 2], [1] <= iv < [w]: "
     "[s.((subv iv [1]) ++ [1]), s.((subv iv [1]) ++ [0]) + 1]} in s.[3, 0] + |s|.[1]", True),
    ("letrec f = filter (\\x. x % 2 = 0) (imap [w+3] {_(iv): iv.[0]}) in f.[w] + |f|.[0]", False),
    (RANK_0_CELL_SCAN, False),
    ("letrec go = \\k. if k = 0 then 0 else go (k - 1) in reduce (\\x.\\y. x + go y) 0 [2, 1]",
     False),
    ("letrec f = (\\g.\\k. if k = 0 then 7 else g (k - 1)) f in f 3", False),
    ("letrec a = (\\g. imap [4] {_(iv): if iv.[0] = 0 then |g|.[0] else g.[iv.[0] - 1] + 1}) a "
     "in a.[3]", False),
    ("letrec f = (\\g.\\x.\\y. if y = 0 then x else if y = 1 then reduce g (x + 1) [0] "
     "else ([g].[0]) (x + 2) (y - 1)) f in f 0 3", False),
    ("letrec p = (\\g.\\x. if x = 0 then true else |filter g [x - 1]|.[0] = 1) p in p 1", False),
    ("letrec f = (\\g.\\k. g + 1) f in f 0", False),
    ("letrec b = (\\g.\\k. if g then 1 else 2) b in b 0", False),
    ("(\\a.\\b.\\c. a + b + c) 1 2 3", False),
    ("(\\a.\\b. a) 1 2 3", False),
    ("letrec f = (\\g.\\a.\\b. if b = 0 then a else g (a + 1) (b - 1)) f in f 0 2", False),
    ("letrec f = f 1 2 in f", False),
    ("(\\a. if a then (\\b. b) else (\\b. 0)) true 5", False),
    ("letrec k = and true in if k false then 1 else k true", True),
    ("1 2 3", False),
    ("reduce (\\x.\\y. x + y) 0 [1, 2, 3] + "
     "reduce (\\x. if x = 0 then (\\y. y) else (\\y. x + y)) 0 [1, 2]", False),
    (f"(\\x. 1 + |[x, {LONG}]|.[0] + [x - 1, {LONG}].[16]) 1", False),
]


# (imap, index): a cell with a cell shape, and one with none, whose body gives a value
# of another shape; a cell that fails its check is not memoized, so a second probe
# fails as the first did
REREAD = [("imap [2] | [1] {_(iv): iv.[0]}", (0, 0)), ("imap [w] {_(iv): [iv.[0]]}", (1,))]
# each reads one imap twice, the second time at a miss the first decided how to read (see
# `ImapClosure.open`): an open frame past its extent, a frame that is not open, as it has an
# int extent, past that extent, and a rank-0 frame, never open, twice (a miss with no memo)
OPEN_READS = ["letrec r = imap [w, w] {_(iv): 0} in r.[1, 1] + r.[w, 0]",
              "letrec r = imap [w, 3] {_(iv): 0} in r.[1, 1] + r.[1, 5]",
              "letrec r = imap [] {_(iv): 7} in r.[] + r.[]"]
# each forces a rank-0 imap to a scalar, selecting `[]` in it (see `Session._force_scalar`)
FORCED = ["(imap [] {_(iv): 7}) + 1", "if imap [] {_(iv): true} then 1 else 2"]
# (program, probes or None) on the paths where the compiler settles a class test (see
# `heh.eval._flatten`): a fault in a `let` bound with no `_letrec_depth` lines and at a `-`
# of two known ordinals, operands of mixed or wrong facts, where nothing is settled, and
# bounds that build an imap, and that apply a function that does, which keep their depth
# lines (so a strict configuration leaves the imap lazy)
SETTLED = [("imap [w] {_(iv): letrec m = iv.[1] in m}", [(0,)]),
           ("imap [w] {_(iv): iv.[0] - 1}", [(0,)]),
           ("1 = true", None), ("true + 1", None), ("if 1 then 2 else 3", None),
           ("letrec b = imap [3] {_(jv): jv.[0]} in b.[1]", None),
           ("letrec b = (\\k. imap [3] {_(jv): jv.[0] + k}) 1 in b.[1]", None)]
# (imap, probes), each probe a memo miss that `select` leaves to `Session._miss`: in an open
# frame, indexes of naturals and one past each extent; in a rank-1 frame with no int extent, an
# index past w, a natural and the extent; in a frame of two partitions with an int extent, a cell
# of each partition and one past each extent; in a finite frame, a cell and one past its extent
MISS_PROBES = [
    ("imap [w, w] {_(iv): iv.[0] * 10 + iv.[1]}", [(1, 2), (3, 4), (OMEGA, 0), (0, OMEGA + 1)]),
    ("imap [w * 2] {_(iv): iv.[0]}", [(OMEGA + 1,), (5,), (OMEGA * 2,)]),
    ("imap [w * 2, 2] {[0, 0] <= iv < [w * 2, 1]: 0, [0, 1] <= iv < [w * 2, 2]: iv.[0]}",
     [(3, 1), (OMEGA + 3, 1), (OMEGA * 2, 1), (3, 2)]),
    ("imap [3, 4] {_(iv): iv.[0] + iv.[1]}", [(2, 3), (3, 0)])]
# `islim` of two ordinals, then of values its class test passes to `_force_scalar`: a
# boolean, a rank-0 imap forced to its scalar, a function, a name whose definition runs
ISLIM = ["islim 5", "islim w", "islim true", "islim (imap [] {_(iv): w})", "islim (\\x. x)",
         "letrec x = islim x in x"]


def attempt(thunk):
    """The value `thunk()` gives, shown with its class, or what a user sees
    of its failure."""
    try:
        value = thunk()
        return f"{value.__class__.__name__} {render_scalar(value)}"
    except EvalError as error:
        return [error.kind, error.message, error.rule, list(error.span)]
    except KeyboardInterrupt:
        return "interrupted"


def run(source, probes, config, prelude=True):
    """The row of `source` run in a fresh session and probed at each of
    `probes`, or, for None, of its value."""
    session = new_session(config, prelude)
    if probes is None:
        outcomes = [attempt(lambda: session.run_program(source))]
    else:
        try:
            value = session.run_program(source)
            outcomes = [attempt(lambda: session.select_at(value, index)) for index in probes]
        except EvalError as error:
            outcomes = [[error.kind, error.message, error.rule, list(error.span)]]
    return [outcomes, session.stats, session.fuel, session._letrec_depth]


def rule_total(source, prelude):
    """The rules `source` takes in a fresh session with no fuel limit."""
    return run(source, None, EvalConfig(), prelude)[1]["rules"]


# the budgets of `heh.eval` that decide only how code is fused into
# functions, with the least value of each: `_NODES` nodes a function (its
# root at least), `_ELEMENTS` elements of an array literal fused with it
FUSION = {"_NODES": 1, "_ELEMENTS": 0}


@contextmanager
def fusion(settings):
    """The block run with `heh.eval`'s fusion budgets set as `settings`
    (name -> int), and the code of the prelude and of every program
    compiled afresh under them; after it, the budgets as they were, and
    the code compiled afresh again."""
    saved = {name: getattr(heh.eval, name) for name in settings}

    def rebuild(values):
        for name, value in values.items():
            setattr(heh.eval, name, value)
        heh.eval._factory.cache_clear()
        _prelude_values.cache_clear()
    rebuild(settings)
    try:
        yield
    finally:
        rebuild(saved)


def rows(sample=None):
    """The rows, in a fixed order.  With `sample`, each corpus gives only
    that many programs, picked with a fixed seed, and the shipped programs
    at `examples_suite()`'s indices are left out; `FAULTS`, `REREAD`, `OPEN_READS`,
    `FORCED`, `ISLIM`, `SETTLED`, `MISS_PROBES`, the pinned probes and the
    `FUEL_PROGRAMS` sweeps are all kept."""
    corpora = [(False, corpus()), (True, list_corpus())]
    if sample is not None:
        corpora = [(prelude, random.Random(7).sample(cases, sample)) for prelude, cases in corpora]
    for prelude, cases in corpora:
        for source, probes in cases:
            for config in CONFIGS:
                yield run(source, [index for index, _ in probes], config, prelude)
    for source, _ in FAULTS:
        for config in CONFIGS:
            yield run(source, None, config, False)
    for source, index in REREAD:
        for config in CONFIGS:
            yield run(source, [index, index], config, False)
    for source in OPEN_READS + FORCED + ISLIM:
        for config in CONFIGS:
            yield run(source, None, config, False)
    for source, probes in SETTLED + MISS_PROBES:
        for config in CONFIGS:
            yield run(source, probes, config, False)
    for name, probes in examples_suite() if sample is None else ():
        for config in CONFIGS:
            yield run(program_source(name), [index for index, _ in probes], config)
    for name, probes in (("nats.heh", [(2000,)]), ("ackermann.heh", [(3, 6)]),
                         ("game_of_life.heh", [(2, 2), (1, 2)])):
        yield run(program_source(name), probes, EvalConfig())
    totals = [rule_total(source, prelude) for source, prelude in FUEL_PROGRAMS]
    out_of_fuel, compile_program = Session._out_of_fuel, heh.eval.compile_program
    # a swept program is compiled once for all its runs (compiled code holds
    # no session state): parsing it again at each fuel took most of the time
    heh.eval.compile_program = functools.lru_cache(maxsize=None)(compile_program)
    try:
        for interrupting in (False, True):
            if interrupting:
                def interrupt(session):
                    raise KeyboardInterrupt
                Session._out_of_fuel = interrupt
            for (source, prelude), total in zip(FUEL_PROGRAMS, totals):
                for fuel in range(total + 1):
                    yield run(source, None, EvalConfig(fuel=fuel), prelude)
    finally:
        Session._out_of_fuel, heh.eval.compile_program = out_of_fuel, compile_program


def digest() -> str:
    """The sha256 of the rows, one JSON list a line."""
    hashed = hashlib.sha256()
    for row in rows():
        hashed.update(json.dumps(row).encode() + b"\n")
    return hashed.hexdigest()


def fusion_setting(text):
    """`NAME=N` as (NAME, N), for a budget of `FUSION` and N at least its least value."""
    name, _, value = text.partition("=")
    if name not in FUSION or not value.isdigit() or int(value) < FUSION[name]:
        raise argparse.ArgumentTypeError(
            "expected NAME=N, with " + " or ".join(f"{k}=N, N >= {v}" for k, v in FUSION.items()))
    return name, int(value)


def main(argv):
    parser = argparse.ArgumentParser(description="The digest of every observable outcome.")
    parser.add_argument("--rows", action="store_true", help="print the rows, not their digest")
    parser.add_argument("--fusion", type=fusion_setting, action="append", default=[],
                        metavar="NAME=N", help="set a fusion budget of heh.eval (repeatable)")
    args = parser.parse_args(argv)
    with fusion(dict(args.fusion)):
        if args.rows:
            for row in rows():
                print(json.dumps(row))
        else:
            print(digest())


if __name__ == "__main__":
    main(sys.argv[1:])
