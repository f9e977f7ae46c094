"""The benchmark's workloads: seeded operations and their expected results.

A workload yields rounds.  A round is a fixed, seeded composition of
operations.  A run measures a fixed number of whole rounds, chosen from
`--seconds` and the round's nominal duration, so every run of one seed
sends heh the same operations, however fast the host is that minute, and
its medians and tail percentile do not depend on where a clock stopped.  An operation is either a
program run in a fresh session (`Program`) or one REPL entry in the round's
long-lived session (`Entry`).  Every expected value comes from `oracles`,
never from heh.

heh is driven only through its public surface: `evaluate`, `probe`,
`Session`, `EvalConfig`, `load_prelude`, `program_source`, `prelude_source`
and `heh.cli.format_value`.
"""

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import heh
import heh.cli

from oracles import (ackermann_table, life_steps, lazy_text, mixed_radix_digits,
                     mixed_radix_offset, nested_list_text, ordinal_text)

COUNT_KEYS = ("rules", "body_evals", "predicate_calls")

# A REPL entry gets this much fuel, as `repl_loop` gives each entry a fresh
# budget.  It is about 1.5 times the costliest entry that must succeed (the
# two Game-of-Life steps on the w x w plane), so a divergent entry fails
# after a bounded, seed-independent amount of work.
ENTRY_FUEL = 50_000
FORCE_PRINT = 10     # the REPL's default --force-print


@dataclass
class Outcome:
    """`status` is "ok", "wrong" (a value differs from its oracle) or "error"
    (an unexpected error kind, or none where one was due)."""
    status: str
    detail: str = ""
    counts: tuple = (None, None, None)


def session_counts(session) -> tuple:
    stats = getattr(session, "stats", None) or {}
    return tuple(stats.get(key) for key in COUNT_KEYS)


def _count_delta(after, before) -> tuple:
    return tuple(None if a is None or b is None else a - b
                 for a, b in zip(after, before))


def _describe(error: BaseException) -> str:
    kind = getattr(error, "kind", None) or type(error).__name__
    return f"{kind}: {str(error)[:160]}"


@dataclass
class Program:
    """Run `source` in a fresh session (prelude loaded), then probe it."""
    label: str
    source: str
    probes: list                      # [(index tuple, expected natural)]

    def run(self, _session=None):
        """(Outcome, the Result to keep alive while memory is measured)."""
        try:
            result = heh.evaluate(self.source)
        except Exception as error:    # an op boundary: record and go on
            return Outcome("error", f"{self.label}: {_describe(error)}"), None
        outcome = Outcome("ok")
        for index, expected in self.probes:
            try:
                got = heh.probe(result, index)
            except Exception as error:
                outcome = Outcome("error", f"{self.label} probe {list(index)}: "
                                           f"{_describe(error)}")
                break
            if str(got) != str(expected):
                outcome = Outcome("wrong", f"{self.label} probe {list(index)}: "
                                           f"got {got}, expected {expected}")
                break
        outcome.counts = session_counts(result.session)
        return outcome, result


@dataclass
class Entry:
    """One REPL entry, handled as `heh.cli.repl_loop` handles it: fresh fuel,
    `run_program`, then `format_value`.  Exactly one of `expected` (the
    printed text) and `error` (the error kind it must raise) is set."""
    source: str
    expected: Optional[str] = None
    error: Optional[str] = None

    def run(self, session):
        session.fuel = ENTRY_FUEL
        before = session_counts(session)
        outcome = Outcome("ok")
        try:
            handle = session.run_program(self.source)
            text = (None if handle is None
                    else heh.cli.format_value(session, handle, FORCE_PRINT))
        except Exception as error:    # an op boundary: record and go on
            kind = getattr(error, "kind", None) or type(error).__name__
            if kind != self.error:
                outcome = Outcome("error", f"{self.source!r}: {_describe(error)}")
        else:
            if self.error is not None:
                outcome = Outcome("error", f"{self.source!r}: printed {text!r}, "
                                           f"expected error {self.error}")
            elif text != self.expected:
                outcome = Outcome("wrong", f"{self.source!r}: printed {text!r}, "
                                           f"expected {self.expected!r}")
        outcome.counts = _count_delta(session_counts(session), before)
        return outcome, None


def new_repl_session():
    session = heh.Session(heh.EvalConfig())
    heh.load_prelude(session)
    return session


@dataclass
class Round:
    ops: list
    # builds the long-lived session the ops share; None: each op starts its own
    setup: Optional[Callable] = None

    def start(self):
        return self.setup() if self.setup is not None else None


@dataclass
class Workload:
    name: str
    make_round: Callable               # (random.Random) -> Round
    round_seconds: float               # a round's duration on a 2-core VM
    # the part of a round the traced run replays
    window: Callable = field(default=lambda rnd: rnd)

    def round_count(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_seconds))

    def rounds(self, seed: int):
        rng = random.Random(seed)
        while True:
            yield self.make_round(rng)


def corrupt(rnd: Round) -> Round:
    """A copy of `rnd` whose first expected value is wrong, so that a correct
    heh fails that operation: the self-check of the oracle comparison."""
    first = rnd.ops[0]
    if isinstance(first, Program):
        (index, expected), *rest = first.probes
        bad = Program(first.label, first.source, [(index, expected + 1)] + rest)
    else:
        bad = Entry(first.source, expected=f"{first.expected} (corrupted)")
    return Round([bad] + rnd.ops[1:], rnd.setup)


### ackermann: fill the memo table, then read it

ACKERMANN_FILL = (3, 6)
ACKERMANN_READS = 64
_ACK_TABLE = ackermann_table(*ACKERMANN_FILL)
_ACK_ENTRIES = sorted(_ACK_TABLE)


def ackermann_round(rng: random.Random) -> Round:
    reads = rng.sample(_ACK_ENTRIES, ACKERMANN_READS)
    probes = [(ACKERMANN_FILL, _ACK_TABLE[ACKERMANN_FILL])]
    probes += [(mn, _ACK_TABLE[mn]) for mn in reads]
    return Round([Program("ackermann.[3,6]", heh.program_source("ackermann.heh"),
                          probes)])


### nats: deep linear letrec recursion

# A round probes one depth from [1600 + 50k, 1610 + 50k) for k = 0..15, and
# one from NATS_DEEP, past where probing fails today.  A probe's time grows
# linearly with its depth; close, narrow strata keep the seed and the host's
# noise from moving the median and the tail much.
NATS_STRATA = 16
NATS_BASE, NATS_STEP, NATS_JITTER = 1600, 50, 10
NATS_DEEP = (36_000, 40_000)
NATS_READS = 32


def nats_program(depth: int, rng: random.Random) -> Program:
    reads = rng.sample(range(depth), NATS_READS)
    return Program(f"nats.[{depth}]", heh.program_source("nats.heh"),
                   [((depth,), depth)] + [((i,), i) for i in reads])


def nats_round(rng: random.Random) -> Round:
    depths = [NATS_BASE + k * NATS_STEP + rng.randrange(NATS_JITTER)
              for k in range(NATS_STRATA)]
    depths.append(rng.randrange(*NATS_DEEP))
    return Round([nats_program(d, rng) for d in depths])


def nats_window(rnd: Round) -> Round:
    # the median-depth probe: the op that op_p50_s reflects
    return Round([rnd.ops[NATS_STRATA // 2]])


### repl_mix: one REPL session per round

REPL_PASSES = 3
PATTERN_ROWS, PATTERN_COLS = 4, 12


def _lead(k: int) -> str:
    return "w" if k == 1 else f"w*{k}"


def _numbers(rng):
    return [rng.randrange(100) for _ in range(rng.randrange(3, 12))]


def repl_round(rng: random.Random) -> Round:
    base = rng.choice((2, 3))
    modulus = rng.randrange(2, 6)
    residue = rng.randrange(modulus)
    pattern = [[rng.randrange(2) for _ in range(PATTERN_COLS)]
               for _ in range(PATTERN_ROWS)]
    live = {(r, c) for r in range(PATTERN_ROWS) for c in range(PATTERN_COLS)
            if pattern[r][c]}
    # the plane's edge at index 0 is a dead border; two steps reach at most
    # two cells past the pattern, well inside this board
    stepped = life_steps(live, 2, PATTERN_ROWS + 8, PATTERN_COLS + 8)
    gol_row = [str(int((0, c) in stepped)) for c in range(FORCE_PRINT)]

    entries = [
        Entry("letrec pw = imap [w] { [0] <= iv < [1]: 1, "
              f"[1] <= iv < [w]: pw.(subv iv [1]) * {base} }}",
              lazy_text("w", [([str(base ** j) for j in range(FORCE_PRINT)], True)])),
        Entry(f"let ev = filter (\\x. x % {modulus} = {residue}) "
              "(imap [w^2] {_(iv): iv.[0]})", "<filter shape=[w^2]>"),
        Entry(f"let pat = {nested_list_text(pattern)}", nested_list_text(pattern)),
        Entry("let plane = imap [w, w] {_(iv): if and (iv.[0] < "
              f"{PATTERN_ROWS}) (iv.[1] < {PATTERN_COLS}) then pat.iv else 0}}",
              lazy_text("w, w", [([str(x) for x in pattern[0][:FORCE_PRINT]], True)])),
    ]
    for _ in range(REPL_PASSES):
        entries += _repl_pass(rng, base, modulus, residue, gol_row)
    return Round(entries, new_repl_session)


def _repl_pass(rng, base, modulus, residue, gol_row) -> List[Entry]:
    entries = []
    add = entries.append

    # stream operations across w
    k = rng.randrange(2, 60)
    m = rng.randrange(k)
    add(Entry(f"(tail (imap [w+{k}] {{_(iv): iv.[0]}})).[w + {m}]",
              ordinal_text("w", m)))
    j, k, c = rng.randrange(1, 50), rng.randrange(2, 60), rng.randrange(1, 9)
    i = rng.randrange(40)
    add(Entry(f"(drop [{j}] (imap [w+{k}] {{_(iv): iv.[0] * {c}}})).[{i}]",
              str((j + i) * c)))
    m = rng.randrange(k)
    add(Entry(f"(drop [{j}] (imap [w+{k}] {{_(iv): iv.[0]}})).[w + {m}]",
              ordinal_text("w", m)))
    k, tail_len = rng.randrange(1, 20), rng.randrange(1, 30)
    concat = (f"((imap [{k}] {{_(iv): iv.[0] * 3}}) ++ "
              f"(imap [w+{tail_len}] {{_(iv): iv.[0]}}))")
    if rng.randrange(2):
        i = rng.randrange(k)
        add(Entry(f"{concat}.[{i}]", str(3 * i)))
    else:
        m = rng.randrange(tail_len)
        add(Entry(f"{concat}.[w + {m}]", ordinal_text("w", m)))

    # filter past w: fresh on [w*2], and the session's memoized one on [w^2]
    p, i = rng.randrange(2, 6), rng.randrange(12)
    r = rng.randrange(p)
    add(Entry(f"(filter (\\x. x % {p} = {r}) (imap [w*2] {{_(iv): iv.[0]}})).[w + {i}]",
              ordinal_text("w", r + p * i)))
    k, i = rng.randrange(1, 6), rng.randrange(12)
    add(Entry(f"ev.[{_lead(k)} + {i}]", ordinal_text(_lead(k), residue + modulus * i)))

    # finite filter, reduce, and the o2i/i2o-heavy reshape and flatten
    xs, p = _numbers(rng), rng.randrange(2, 6)
    r = rng.randrange(p)
    add(Entry(f"filter (\\x. x % {p} = {r}) {nested_list_text(xs)}",
              nested_list_text([x for x in xs if x % p == r])))
    xs = _numbers(rng)
    add(Entry(f"reduce (\\x.\\y. x + y) 0 {nested_list_text(xs)}", str(sum(xs))))
    rows, cols, scale = rng.randrange(2, 4), rng.randrange(2, 5), rng.randrange(1, 9)
    n = rows * cols + rng.randrange(4)
    add(Entry(f"reshape [{rows}, {cols}] (imap [{n}] {{_(iv): iv.[0] * {scale}}})",
              nested_list_text([[(r * cols + c) * scale for c in range(cols)]
                                for r in range(rows)])))
    dims = [rng.randrange(2, 14) for _ in range(3)]
    offset = rng.randrange(dims[0] * dims[1] * dims[2])
    add(Entry(f"o2i {offset} {nested_list_text(dims)}",
              nested_list_text(mixed_radix_digits(offset, dims))))
    index = [rng.randrange(d) for d in dims]
    add(Entry(f"i2o {nested_list_text(index)} {nested_list_text(dims)}",
              str(mixed_radix_offset(index, dims))))
    rows, cols = rng.randrange(2, 4), rng.randrange(2, 5)
    matrix = [[rng.randrange(100) for _ in range(cols)] for _ in range(rows)]
    add(Entry(f"flatten {nested_list_text(matrix)}",
              nested_list_text([x for row in matrix for x in row])))

    # printing transfinite values
    c = rng.randrange(1, 20)
    add(Entry(f"imap [w^2*3+5] {{_(iv): iv.[0] + {c}}}",
              lazy_text("w^2*3 + 5", [([ordinal_text(lead, j + c)
                                        for j in range(FORCE_PRINT)], True)
                                      for lead in ("", "w^2", "w^2*2")])))
    k = rng.randrange(1, 12)
    add(Entry(f"imap [w, w] {{_(iv): iv.[1] * {k} + iv.[0]}}",
              lazy_text("w, w", [([str(j * k) for j in range(FORCE_PRINT)], True)])))
    add(Entry("gol_step (gol_step plane)", lazy_text("w, w", [(gol_row, True)])))

    # bindings that persist across entries
    k, c = rng.randrange(1, 12), rng.randrange(20)
    add(Entry(f"let v = imap [w] {{_(iv): iv.[0] * {k} + {c}}}",
              lazy_text("w", [([str(j * k + c) for j in range(FORCE_PRINT)], True)])))
    i = rng.randrange(FORCE_PRINT)
    add(Entry(f"v.[{i}]", str(i * k + c)))
    i = rng.randrange(41)
    add(Entry(f"pw.[{i}]", str(base ** i)))

    # entries that must fail, with the kind they must fail with
    c = rng.randrange(5)
    add(Entry(f"(filter (\\x. x > {c + rng.randrange(5)}) (imap [w] {{_(iv): {c}}})).[0]",
              error="FuelExhausted"))
    k = rng.randrange(1, 30)
    add(rng.choice((
        Entry(f"(imap [w+{k}] {{_(iv): iv.[0]}}).[w + {k + rng.randrange(5)}]",
              error="IndexOutOfBounds"),
        Entry(f"{k} - w", error="UndefinedOrdinalOp"),
        Entry(f"{k} / 0", error="DivisionByZero"),
    )))
    return entries


WORKLOADS = {w.name: w for w in (
    Workload("ackermann", ackermann_round, 1.25),
    Workload("nats", nats_round, 12.5, nats_window),
    Workload("repl_mix", repl_round, 2.5),
)}
