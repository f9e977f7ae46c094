"""One sha256 over everything a user of the evaluator can observe.

    PYTHONPATH=src python tests/outcome_digest.py [--rows]

prints the digest (`--rows` prints the rows it is taken over instead, one
JSON list a line, to find where two versions differ).  A row holds each
probe's outcome (its value, or its error's kind, message, rule and span),
the session's counters, the fuel left and the `letrec` depth left over:

- every program of both corpora in `corpora.py` and of `corpora.FAULTS`,
  under the five configurations of `corpora.CONFIGS`;
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

import hashlib
import json
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).parent), str(Path(__file__).parent.parent / "src")]

from corpora import CONFIGS, FAULTS, RANK_0_CELL_SCAN, corpus, list_corpus  # noqa: E402

from heh.eval import EvalConfig, EvalError, Session, new_session  # noqa: E402
from heh.prelude import examples_suite, program_source  # noqa: E402
from heh.runtime import render_scalar  # noqa: E402

# (source, prelude): between them they run every rule kind, with `letrec`s
# inside bodies and bounds; the fourth faults inside a `letrec` bound; the
# sixth and seventh scan a transfinite filter, for a selection and for its
# shape, and over cells that are rank-0 imaps; the last applies a function
# held in a `letrec` cell recursively, and `reduce`s with it
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
]


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


def rows():
    for prelude, cases in ((False, corpus()), (True, list_corpus())):
        for source, probes in cases:
            for config in CONFIGS:
                yield run(source, [index for index, _ in probes], config, prelude)
    for source, _ in FAULTS:
        for config in CONFIGS:
            yield run(source, None, config, False)
    for name, probes in examples_suite():
        for config in CONFIGS:
            yield run(program_source(name), [index for index, _ in probes], config)
    for name, probes in (("nats.heh", [(2000,)]), ("ackermann.heh", [(3, 6)]),
                         ("game_of_life.heh", [(2, 2), (1, 2)])):
        yield run(program_source(name), probes, EvalConfig())
    totals = [rule_total(source, prelude) for source, prelude in FUEL_PROGRAMS]
    out_of_fuel = Session._out_of_fuel
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
        Session._out_of_fuel = out_of_fuel


def digest() -> str:
    """The sha256 of the rows, one JSON list a line."""
    hashed = hashlib.sha256()
    for row in rows():
        hashed.update(json.dumps(row).encode() + b"\n")
    return hashed.hexdigest()


def main(argv):
    if argv == ["--rows"]:
        for row in rows():
            print(json.dumps(row))
        return
    print(digest())


if __name__ == "__main__":
    main(sys.argv[1:])
