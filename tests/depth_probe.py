"""Depth and memory of deep recursion in heh, each probe in a fresh process.

    python tests/depth_probe.py [--depths N ...] [--no-ceiling]
    python tests/depth_probe.py --calls
    python tests/depth_probe.py --opcodes
    python tests/depth_probe.py --compile
    python tests/depth_probe.py --errors
    python tests/depth_probe.py --rss [N]
    python tests/depth_probe.py --traffic [SEED]
    python tests/depth_probe.py --front [SEED]
    python tests/depth_probe.py --startup [N]

For each of two shapes of recursion, `nats.[N]` on the shipped nats.heh
(through an imap) and `go N` with `letrec go = \\k. if k = 0 then 0 else
go (k - 1)` (through application), it prints:

- the peak RSS (`ru_maxrss`) of the session before the probe, and its growth
  over it in MiB and in bytes per level, at each of `--depths`;
- the fresh ceiling: the deepest N that a fresh session evaluates under
  `heh.eval.RECURSION_LIMIT`, found by bisection, with the process's peak
  RSS there.

`--calls` prints instead, from `sys.setprofile` in this process, the Python
calls (and calls of builtins) that one `nats` level makes, the difference
between fresh probes `nats.[2000]` and `nats.[1000]` over 1,000; those
that one entry of the table behind `ackermann.[3,6]` makes, a fresh probe's
calls over its body evaluations, with its `Rec` constructions, its
`_check_bounds` calls and its `_miss` calls; those of the Game-of-Life probes of
`examples_suite()`, all made in one fresh session, in total and over their
body evaluations; those that `REDUCE` makes an element of a vector of
`REDUCED` ints, the difference from the empty vector over `REDUCED`;
those that strict forcing makes for one cell of each imap of `STRICT`, the
difference between the imap and one of half its cells, each built in a
fresh session with `strict_finite_imaps`, over the difference in cells,
with the `_check_bounds` calls of the imap; those that a filter that
accepts nothing makes an element it scans past w (`SCAN`, through `_scan`,
which runs the body itself), the difference between two fuels over the
elements scanned between them; those of a fresh probe of an imap of two
partitions (`SPLIT`, through `select` and `_miss`), over `SPLIT_PROBES`
probes of distinct cells; and those that one level of a recursive imap
with a cell shape makes (`CELLS`, each level a `select` of the level below,
through `_check_bounds` and `_miss`), the difference between fresh probes
at [2000, 0] and [1000, 0] over 1,000.

`--opcodes` prints instead, from a `sys.settrace` opcode trace in this
process, the bytecodes that one entry of the table behind a fresh
`ackermann.[3,6]` runs (over its body evaluations), one `nats` level (the
difference between fresh probes `nats.[2000]` and `nats.[1000]` over
1,000) and one element of `SCAN` scanned past w (the difference between
fuels 40,000 and 20,000 over the elements scanned between them), in every
Python frame.  Each figure comes with the share of it spent in prologue
lines of generated code, which count rules, and in its class-test lines,
which read a `__class__` or `_SCALARS` (a line that does both is a
prologue line; none does).

`--compile` prints instead what building the prelude and evaluating the
shipped programs compiles: the functions, characters and lines of generated
source, and how many of those lines are prologues that count rules; the
tracemalloc peak, and the memory still traced once the programs' values are
dropped; the compiled bodies then alive, with the sums of their
`co_nlocals`, free variables and `co_stacksize` (the slots of their frames);
and the seconds spent in `compile`, untraced, over `COMPILE_RUNS` processes.

`--errors` prints instead the memory that caught errors keep, from the RSS
of `/proc/self/statm` after `gc.collect()`: its growth over a fresh session
once the session has raised and kept each error of `KEPT`, a deep fault and
a recursion past `RECURSION_LIMIT`; and the wall time of one deep fault, the
median over `FAULT_RUNS` processes that each raise it once and keep nothing.

`--rss` prints instead the size of `eval.py` in bytes, and the peak RSS
(`ru_maxrss`) of N fresh processes (5 by default) at five points: once
Python has started, once heh is imported, once the prelude is built, once
a fresh session has evaluated ackermann.heh (compiled, no body run), and
once it has probed `ackermann.[3,6]`, with the median and range of each.
So a move in the benchmark's `peak_rss_mb` can be traced to importing and
compiling, or to evaluation.

`--traffic` prints instead, from a `sys.settrace` limited to `src/heh` in this
process, the calls of each function of `src/heh` in one round of each workload
of `perfbench/workloads.py` at SEED (3000 by default), and, per module, the
statement lines of its functions that no workload ran.  It first clears the
prelude's cache and the compiler's, so that building the prelude and
compiling are counted.  It then prints the nodes of each kind of step
(`heh.eval._STEPS`) at each mask that each round compiles, the prelude's
included: the markers of every distinct key the round passes to the
compiler, cache hits too, with the prelude's keys.  Last it names the kinds,
and the tagged variants of a step (the masks that keep the same lines, named
by the least), that no workload compiles.  So a fast path that no workload
takes shows.

`--front` prints instead, in this process, the microseconds that each layer
takes of a REPL entry: tokenizing, parsing the tokens, compiling the forms,
and running them and printing the value as the REPL does.  Each figure is
the fastest of `FRONT_ROUNDS` runs, made with the cyclic collector off, as
a collection falls at the same point in each run; the entries are those of
one repl_mix round at SEED (3000 by default), each run a fresh session, and
the figure printed is the median over the entries.  It prints the same for
`ackermann.heh`, run in a fresh session with the prelude (its value, the
table, printed), and for the prelude, run in a bare session.  So the front
end's share of an entry shows, layer by layer.

`--startup` prints instead the milliseconds, median and range over N
rounds (5 by default), of each part of starting heh afresh: a Python
interpreter's start, the wall time of `python -c pass`; in a process of its
own, `import heh` and the first build of the prelude, and within that build
the time spent parsing, in `_source` and in `compile`; and the wall time of
`python -m heh.cli -e "1 + 1"`.  Each row has two columns.  In the first,
each process imports heh from a copy of `src` with no bytecode cache, as
the other probes do, so importing includes compiling heh's own modules.  In
the second, the copy's bytecode is compiled (`compileall`) before the
process starts, as an installed heh has it, at every optimization level,
so the child finds it whether `PYTHONOPTIMIZE` is set or not.  Each round
runs both, and the one that runs first alternates from round to round.

Peak RSS is a high-water mark of the whole process, so each probe runs in a
process of its own.  Linux keeps `ru_maxrss` across `exec`, so each such
process is started by a bare interpreter, smaller than any of them.  Only
the standard library and heh are needed; it is not part of Tier-1.
"""

import argparse
import compileall
import dis
import gc
import inspect
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import heh.eval  # noqa: E402
from heh.eval import (  # noqa: E402
    RECURSION_LIMIT, EvalConfig, EvalError, Session, _check_bounds, compile_expr, evaluate,
    new_session, probe,
)
from heh.cli import format_value  # noqa: E402
from heh.syntax import Binding, _Parser, tokenize  # noqa: E402
from heh.runtime import Rec  # noqa: E402
from heh.prelude import examples_suite, prelude_source, program_source  # noqa: E402

# the definitions a probe loads, the entry that recurses N levels deep, and
# the value it prints
SHAPES = {
    "nats": ('program_source("nats.heh")', "nats.[{n}]", "{n}"),
    "apply": ('"letrec go = \\\\k. if k = 0 then 0 else go (k - 1)"', "go {n}", "0"),
}
CHILD = """
import json, resource, sys
from heh.eval import EvalError, new_session
from heh.prelude import program_source

session = new_session()
session.run_program({definitions})
entry = {entry!r}.format(n=sys.argv[1])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    outcome = str(session.run_program(entry))
except EvalError as error:
    outcome = error.kind
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps([outcome, before, after]))  # ru_maxrss is in KiB on Linux
"""


# a process that starts one command and waits: `python -S` peaks below any probe's
# start, and Linux keeps `ru_maxrss` across `exec`, so a child reads its own peak
LAUNCHER = (sys.executable, "-S", "-c",
            "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))")


def child(script: str, arg: str, compiled: bool = False):
    """What `script`, run with `arg` by a fresh process that imports this
    checkout's heh, started by `LAUNCHER`, prints as JSON.  The child imports
    a copy of `src` with no bytecode cache, in a new temporary directory, and
    writes none: it compiles heh afresh, the standard library from its cache,
    so every tree is read in the same state, whatever caches it has.  (A new
    `PYTHONPYCACHEPREFIX` would compile the standard library afresh too.)
    With `compiled`, the copy's bytecode is compiled first, and the child
    reads it, as an installed heh's is."""
    with tempfile.TemporaryDirectory() as copy:
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"),
                        dirs_exist_ok=True)
        if compiled:
            compileall.compile_dir(copy, quiet=1, optimize=[0, 1, 2])
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
            filter(None, [copy, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([*LAUNCHER, sys.executable, "-c", script, arg], env=env,
                              capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def run(shape: str, n: int):
    """(whether `n` levels of `shape` gave their value, the peak RSS in KiB
    before the probe, and after it), from a fresh process."""
    definitions, entry, value = SHAPES[shape]
    outcome, before, after = child(CHILD.format(definitions=definitions, entry=entry), str(n))
    return outcome == value.format(n=n), before, after


def ceiling(shape: str) -> int:
    """The deepest probe of `shape` a fresh session evaluates: a level takes
    at least one frame, so none reaches `RECURSION_LIMIT`."""
    fits, misses = 0, RECURSION_LIMIT
    while misses - fits > 1:
        mid = (fits + misses) // 2
        if run(shape, mid)[0]:
            fits = mid
        else:
            misses = mid
    return fits


# (imap, the imap of half its cells) forced strictly: one partition of rank 2,
# and two partitions of rank 1 and of rank 2
STRICT = [("imap [60, 60] {_(iv): iv.[0] + iv.[1]}", "imap [30, 60] {_(iv): iv.[0] + iv.[1]}"),
          ("imap [3600] {[0] <= iv < [1800]: iv.[0], [1800] <= iv < [3600]: 0}",
           "imap [1800] {[0] <= iv < [900]: iv.[0], [900] <= iv < [1800]: 0}"),
          ("imap [60, 60] {[0, 0] <= iv < [30, 60]: iv.[0], [30, 0] <= iv < [60, 60]: 0}",
           "imap [30, 60] {[0, 0] <= iv < [15, 60]: iv.[0], [15, 0] <= iv < [30, 60]: 0}")]


# the Python functions whose calls `profiled` also counts one by one
WATCHED = (Rec.__init__.__code__, _check_bounds.__code__, Session._miss.__code__)


def profiled(session: Session, thunk) -> tuple:
    """(Python calls, builtin calls, body evaluations, and the calls of each
    function of `WATCHED`) of `thunk()` in `session`."""
    counts = {"call": 0, "c_call": 0, **dict.fromkeys(WATCHED, 0)}

    def count(frame, event, arg):
        if event in counts:
            counts[event] += 1
            if event == "call" and frame.f_code in counts:
                counts[frame.f_code] += 1
    evals = session.stats["body_evals"]
    sys.setprofile(count)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return (counts["call"], counts["c_call"], session.stats["body_evals"] - evals,
            [counts[code] for code in WATCHED])


def calls(program: str, index) -> tuple:
    """`profiled` probing a fresh session of the shipped `program` at `index`."""
    result = evaluate(program_source(program))
    return profiled(result.session, lambda: probe(result, index))


def strict_calls(src: str) -> tuple:
    """`profiled` evaluating `src` in a fresh session with strict finite imaps."""
    session = Session(EvalConfig(strict_finite_imaps=True))
    return profiled(session, lambda: session.eval_source(src))


REDUCE, REDUCED = "reduce (\\x.\\y. x + y) 0 v", 1000  # a curried function over `v`


def reduce_calls(n: int) -> tuple:
    """`profiled` evaluating `REDUCE` in a fresh session with `v` the ints below `n`."""
    session = Session()
    session.env["v"] = tuple(range(n))
    return profiled(session, lambda: session.eval_source(REDUCE))


SCAN = "(filter (\\x. x > 7) (imap [w] {_(iv): 3})).[0]"  # runs until its fuel runs out


def scan_calls(fuel: int) -> tuple:
    """`profiled` evaluating `SCAN` in a fresh session with `fuel`."""
    session = Session(EvalConfig(fuel=fuel))

    def scan():
        try:
            session.eval_source(SCAN)
        except EvalError:
            pass
    return profiled(session, scan)


SPLIT, SPLIT_PROBES = "imap [w] {[0] <= iv < [3]: iv.[0], [3] <= iv < [w]: 0}", 1000


def split_calls() -> tuple:
    """`profiled` probing `SPLIT` at `SPLIT_PROBES` distinct cells in a fresh session."""
    result = evaluate(SPLIT, prelude=False)
    indices = [[i] for i in range(SPLIT_PROBES)]
    return profiled(result.session, lambda: [probe(result, index) for index in indices])


# each cell reads the cell below it through `select`, as its cell shape is [2]
CELLS = ("letrec a = imap [w]|[2] {[0] <= iv < [1]: [1, 2], "
         "[1] <= iv < [w]: [a.[iv.[0] - 1, 1], iv.[0]]} in a")


def cell_calls(n: int) -> tuple:
    """`profiled` probing `CELLS` at [n, 0] in a fresh session."""
    session = Session()
    a = session.run_program(CELLS)
    return profiled(session, lambda: session.select_at(a, [n, 0]))


def print_calls() -> None:
    (short, c_short, *_), (long, c_long, *_) = calls("nats.heh", [1000]), calls("nats.heh", [2000])
    print(f"nats: {(long - short) / 1000:.1f} Python calls and {(c_long - c_short) / 1000:.1f} "
          f"builtin calls a level (nats.[2000]: {long:,} and {c_long:,})")
    python, builtin, entries, (cells, bounds, misses) = calls("ackermann.heh", [3, 6])
    print(f"ackermann.[3,6]: {python / entries:.1f} Python calls and {builtin / entries:.1f} "
          f"builtin calls a table entry ({python:,} and {builtin:,} over {entries:,} entries), "
          f"of which {cells / entries:.2f} Rec constructions, {bounds / entries:.2f} "
          f"_check_bounds calls and {misses / entries:.2f} _miss calls ({cells:,}, {bounds:,} "
          f"and {misses:,})")
    indices = [index for index, _ in dict(examples_suite())["game_of_life.heh"]]
    result = evaluate(program_source("game_of_life.heh"))
    python, builtin, evals, _ = profiled(result.session, lambda: [
        probe(result, index) for index in indices])
    print(f"game_of_life.heh, {len(indices)} probes: {python:,} Python calls and {builtin:,} "
          f"builtin calls, {python / evals:.2f} and {builtin / evals:.2f} a body evaluation "
          f"({evals:,})")
    reduce_calls(0)  # compiles the code both share
    (python, builtin, *_), (p_empty, b_empty, *_) = reduce_calls(REDUCED), reduce_calls(0)
    print(f"{REDUCE}: {(python - p_empty) / REDUCED:.1f} Python calls and "
          f"{(builtin - b_empty) / REDUCED:.1f} builtin calls an element of {REDUCED:,}")
    for full, half in STRICT:
        strict_calls(half)  # compiles the code both share
        (python, builtin, cells, (_, bounds, _)), (p_half, b_half, c_half, _) = map(
            strict_calls, (full, half))
        print(f"strict {full}: {(python - p_half) / (cells - c_half):.1f} Python calls and "
              f"{(builtin - b_half) / (cells - c_half):.1f} builtin calls a cell "
              f"({python:,} and {builtin:,} over {cells:,} cells, {bounds:,} _check_bounds calls)")
    scan_calls(100)  # compiles the code both share
    (python, builtin, scanned, _), (p_short, b_short, s_short, _) = map(scan_calls,
                                                                         (40_000, 20_000))
    print(f"{SCAN}: {(python - p_short) / (scanned - s_short):.1f} Python calls and "
          f"{(builtin - b_short) / (scanned - s_short):.1f} builtin calls an element scanned "
          f"past w ({scanned - s_short:,} elements between fuel 20,000 and 40,000)")
    python, builtin, evals, _ = split_calls()
    print(f"{SPLIT}: {python / SPLIT_PROBES:.1f} Python calls and {builtin / SPLIT_PROBES:.1f} "
          f"builtin calls a fresh probe ({python:,} and {builtin:,} over {evals:,} probes)")
    (short, c_short, *_), (long, c_long, *_) = cell_calls(1000), cell_calls(2000)
    print(f"{CELLS}: {(long - short) / 1000:.1f} Python calls and {(c_long - c_short) / 1000:.1f} "
          f"builtin calls a level (a.[2000, 0]: {long:,} and {c_long:,})")


def line_kinds(source: str) -> list:
    """For each line of generated `source`, from its first at index 1: 1 for a prologue
    line, which counts rules, 2 for a class-test line, which reads a `__class__` or
    `_SCALARS`, else 0."""
    return [0] + [1 if "s.rules += " in line or "s._short(" in line
                  else 2 if ".__class__" in line or "_SCALARS" in line else 0
                  for line in source.split("\n")]


def opcode_counter():
    """(`count`, kinds): `count(thunk)` runs `thunk` and gives the bytecodes it ran in
    every Python frame, and how many of them ran in prologue lines and in class-test
    lines of generated code (see `line_kinds`), from a `sys.settrace` opcode trace.
    From here on, each function compiled by `heh.eval` is known by its code object, so
    the caches of compiled code and of the prelude are cleared first."""
    import heh.prelude
    kinds = {}

    def recorded(source, *args):
        module = compile(source, *args)
        todo, lines = [module], line_kinds(source)
        while todo:  # `make`, and the `code` it returns
            code = todo.pop()
            kinds[code] = lines
            todo += [c for c in code.co_consts if c.__class__ is module.__class__]
        return module

    heh.eval.compile = recorded
    heh.eval._factory.cache_clear()
    heh.prelude._prelude_values.cache_clear()

    def count(thunk) -> list:
        counts = [0, 0, 0]

        def trace(frame, event, arg):  # a new frame
            frame.f_trace_opcodes, lines = True, kinds.get(frame.f_code)

            def local(frame, event, arg):
                if event == "opcode":
                    counts[0] += 1
                    if lines is not None and lines[frame.f_lineno]:
                        counts[lines[frame.f_lineno]] += 1
                return local
            frame.f_trace_lines = False
            return local
        sys.settrace(trace)
        try:
            thunk()
        finally:
            sys.settrace(None)
        return counts
    return count


def print_opcodes() -> None:
    count = opcode_counter()

    def shares(total, prologue, tests, n):
        return (f"{total / n:.1f} bytecodes {{}} ({total:,} over {n:,}), {prologue / total:.1%} "
                f"in prologue lines and {tests / total:.1%} in class-test lines")

    def fresh(program, index):
        result = evaluate(program_source(program))
        evals = result.session.stats["body_evals"]
        counts = count(lambda: probe(result, index))
        return counts, result.session.stats["body_evals"] - evals
    counts, entries = fresh("ackermann.heh", [3, 6])
    print("ackermann.[3,6]: " + shares(*counts, entries).format("a table entry"))
    fresh("nats.heh", [10])  # builds the prelude
    (short, _), (long, _) = fresh("nats.heh", [1000]), fresh("nats.heh", [2000])
    print("nats: " + shares(*(b - a for a, b in zip(short, long)), 1000).format(
        "a level, nats.[2000] less nats.[1000]"))

    def scan(fuel):
        session = Session(EvalConfig(fuel=fuel))

        def run():
            try:
                session.eval_source(SCAN)
            except EvalError:
                pass
        return count(run), session.stats["body_evals"]
    scan(100)  # compiles the code both share
    (short, s_short), (long, s_long) = scan(20_000), scan(40_000)
    print(f"{SCAN}: " + shares(*(b - a for a, b in zip(short, long)), s_long - s_short).format(
        "an element scanned past w, fuel 40,000 less 20,000"))


COMPILE_CHILD = """
import gc, json, sys, time, tracemalloc
from types import FunctionType
import heh.eval
from heh.eval import evaluate
from heh.prelude import _prelude_values, program_names, program_source

sizes, seconds, source_of = [], [0.0], heh.eval._source

def source(key):
    made = source_of(key)  # a prologue is two lines, the second calls `_short`
    sizes.append((len(made[0]), made[0].count("\\n"), 2 * made[0].count("s._short(")))
    return made

def timed_compile(*args):
    start = time.perf_counter()
    try:
        return compile(*args)
    finally:
        seconds[0] += time.perf_counter() - start

heh.eval._source, heh.eval.compile = source, timed_compile
if sys.argv[1] == "traced":
    tracemalloc.start()
_prelude_values()
for name in program_names():
    evaluate(program_source(name))
gc.collect()
kept, peak = tracemalloc.get_traced_memory()
codes = {f.__code__ for f in gc.get_objects() if f.__class__ is FunctionType
         and f.__code__.co_filename.startswith("<heh ") and f.__code__.co_name == "code"}
print(json.dumps([len(sizes), sum(n for n, _, _ in sizes), sum(k for _, k, _ in sizes),
                  sum(p for _, _, p in sizes), peak, kept,
                  len(codes), sum(c.co_nlocals for c in codes),
                  sum(len(c.co_freevars) for c in codes), sum(c.co_stacksize for c in codes),
                  seconds[0]]))
"""
COMPILE_RUNS = 5  # untraced processes that time `compile`


def print_compile() -> None:
    traced = child(COMPILE_CHILD, "traced")
    functions, chars, lines, prologue, peak, kept, codes, nlocals, free, stack, _ = traced
    times = sorted(child(COMPILE_CHILD, "untraced")[-1] for _ in range(COMPILE_RUNS))
    print(f"prelude and shipped programs: {functions} functions, {chars:,} characters and "
          f"{lines:,} lines of generated source, {prologue:,} of them prologue lines "
          f"({prologue / lines:.1%})")
    print(f"tracemalloc: peak {peak / 1024:,.0f} KB, kept {kept / 1024:,.0f} KB")
    print(f"{codes} compiled bodies alive: co_nlocals {nlocals}, free variables {free}, "
          f"co_stacksize {stack}")
    print(f"compile: {times[len(times) // 2] * 1000:.1f} ms, median of {COMPILE_RUNS} "
          f"processes ({times[0] * 1000:.1f}-{times[-1] * 1000:.1f} ms)")


# for `--startup`: a process that imports heh and builds the prelude, timing the import, the
# build, and within the build the parse, `_source` and `compile` (none calls another)
BUILD_CHILD = """
import json, time
start = time.perf_counter()
import heh
imported, seconds = time.perf_counter(), [0.0, 0.0, 0.0]

def timed(i, f):
    def run(*args):
        begin = time.perf_counter()
        try:
            return f(*args)
        finally:
            seconds[i] += time.perf_counter() - begin
    return run

heh.eval.parse_program, heh.eval._source, heh.eval.compile = (
    timed(0, heh.eval.parse_program), timed(1, heh.eval._source), timed(2, compile))
begin = time.perf_counter()
heh.prelude._prelude_values()
print(json.dumps([imported - start, time.perf_counter() - begin, *seconds]))
"""
# and one that times two commands of this interpreter, each to its end
COMMAND_CHILD = """
import json, subprocess, sys, time

def wall(*args):
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], check=True, capture_output=True)
    return time.perf_counter() - start

print(json.dumps([wall("-c", "pass"), wall("-m", "heh.cli", "-e", "1 + 1")]))
"""
STARTUP_ROWS = ("interpreter start (python -c pass)", "import heh", "first prelude build",
                "  parse", "  _source", "  compile", "python -m heh.cli -e \"1 + 1\"")


def print_startup(runs: int) -> None:
    columns = {compiled: [[] for _ in STARTUP_ROWS] for compiled in (False, True)}
    for k in range(runs):
        for compiled in ((False, True), (True, False))[k % 2]:
            rows = columns[compiled]
            start, command = child(COMMAND_CHILD, "", compiled)
            for row, seconds in zip(rows, [start, *child(BUILD_CHILD, "", compiled), command]):
                row.append(seconds * 1000)
    print(f"{'ms, median of ' + str(runs) + ' processes (range)':<36}"
          f"{'no bytecode':>24}{'bytecode compiled':>24}")
    for name, *column in zip(STARTUP_ROWS, *([sorted(ms) for ms in rows]
                                             for rows in columns.values())):
        print(f"{name:<36}" + "".join(f"{statistics.median(ms):.1f} ({ms[0]:.1f}-{ms[-1]:.1f})"
                                      .rjust(24) for ms in column))


# (entry, the errors of it a process keeps), for `--errors`: a fault 50,000
# levels down, and a recursion that runs out of frames
KEPT = [("letrec go = \\k. if k = 0 then 1 / 0 else go (k - 1) in go 50000", 5),
        ("letrec go = \\k. if k = 0 then 0 else go (k - 1) in go 300000", 3)]
ERRORS_CHILD = """
import gc, json, os, sys, time
from heh.eval import EvalError, new_session

def rss():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

session, kept, seconds = new_session(), [], []
gc.collect()
before = rss()
for _ in range(int(sys.argv[1])):
    start = time.perf_counter()
    try:
        session.run_program({entry!r})
    except EvalError as error:
        seconds.append(time.perf_counter() - start)
        kept.append(error)
gc.collect()
print(json.dumps([[error.kind for error in kept], before, rss(), seconds]))
"""
FAULT_RUNS = 5  # processes that time the deep fault


def print_errors() -> None:
    print(f"python {sys.version.split()[0]}, RECURSION_LIMIT {RECURSION_LIMIT:,}")
    for entry, count in KEPT:
        kinds, before, after, _ = child(ERRORS_CHILD.format(entry=entry), str(count))
        print(f"{len(kinds)} kept {' '.join(sorted(set(kinds)))} errors of `{entry}`: RSS "
              f"{before / 2**20:.1f} -> {after / 2**20:.1f} MiB, "
              f"+{(after - before) / 2**20:.1f} MiB")
    times = sorted(child(ERRORS_CHILD.format(entry=KEPT[0][0]), "1")[-1][0]
                   for _ in range(FAULT_RUNS))
    print(f"one such fault: {times[len(times) // 2] * 1000:.1f} ms, median of {FAULT_RUNS} "
          f"processes ({times[0] * 1000:.1f}-{times[-1] * 1000:.1f} ms)")


RSS_CHILD = """
import json, resource

def peak():  # KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

started = peak()
from heh.eval import evaluate, probe
imported = peak()
from heh.prelude import _prelude_values, program_source
_prelude_values()
prelude = peak()
result = evaluate(program_source("ackermann.heh"))
compiled = peak()
probe(result, [3, 6])
print(json.dumps([started, imported, prelude, compiled, peak()]))
"""
RSS_POINTS = ("Python started", "import heh", "the prelude built",
              "ackermann.heh evaluated", "a fresh ackermann.[3,6] probe")


def print_rss(runs: int) -> None:
    print(f"eval.py: {(SRC / 'heh' / 'eval.py').stat().st_size:,} bytes")
    peaks = zip(*(child(RSS_CHILD, "") for _ in range(runs)))
    for point, kib in zip(RSS_POINTS, peaks):
        mib = sorted(k / 1024 for k in kib)
        print(f"peak RSS after {point}: {mib[len(mib) // 2]:.2f} MiB, median of {runs} "
              f"processes ({mib[0]:.2f}-{mib[-1]:.2f} MiB)")


def statement_lines(code, lines: dict) -> dict:
    """`lines` with each line of the functions in `code` that a trace reports
    when it runs, mapped to its function's code: each function's instructions
    after its `RESUME`, whose line is its `def`.  A module or class body, which
    runs at import, adds none."""
    resumed = False
    for instruction in dis.get_instructions(code) if code.co_flags & inspect.CO_OPTIMIZED else ():
        if resumed and instruction.positions.lineno is not None:
            lines[instruction.positions.lineno] = code
        resumed = resumed or instruction.opname == "RESUME"
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            statement_lines(const, lines)
    return lines


def variants() -> dict:
    """Each kind of step of `heh.eval._LINES` -> {mask: the least mask that keeps the same
    lines}, over the masks up to the highest its tags name (1, or 3 for a tag of 2 or 3)."""
    table = {}
    for kind, (*_, lines) in heh.eval._LINES.items():
        kept = [bits for _, bits, _ in lines]
        masks = range(2 if all(bits in (15, 1, 2, 3) for bits in kept) else 4)
        lines_at = {mask: tuple(bits >> mask & 1 for bits in kept) for mask in masks}
        table[kind] = {mask: min(m for m in masks if lines_at[m] == lines_at[mask])
                       for mask in masks}
    return table


def step_name(kind, mask: int = 0) -> str:
    return ("hole" if kind is None else kind) + (f"?{mask}" if mask else "")


def print_nodes(names, keys: list) -> None:
    """The nodes of each kind at each mask in each set of `keys`, and the kinds and
    variants (see `variants`) none of them compiles."""
    counts = {}  # (kind, mask) -> nodes in each set
    for column, compiled in enumerate(keys):
        for key in compiled:
            for marker in key:
                kind, mask = marker if marker.__class__ is tuple else (marker, 0)
                kind = "hops" if kind.__class__ is int else kind
                counts.setdefault((kind, int(mask)), [0] * len(keys))[column] += 1
    table = variants()
    order = list(table)
    print(f"\n{'nodes compiled':<16}" + "".join(f"{name:>10}" for name in names))
    for kind, mask in sorted(counts, key=lambda km: (order.index(km[0]), km[1])):
        print(f"{step_name(kind, mask):<16}" + "".join(f"{n:>10,}" for n in counts[kind, mask]))
    reached = {(kind, table[kind][mask]) for kind, mask in counts}
    kinds = {kind for kind, _ in counts}
    tagged = [step_name(kind, mask) for kind, masks in table.items() if kind in kinds
              for mask in sorted(set(masks.values())) if (kind, mask) not in reached]
    print("\nkinds no workload compiles: "
          + ", ".join(step_name(kind) for kind in table if kind not in kinds))
    print(f"tagged variants no workload compiles: {', '.join(tagged) or 'none'}")


def print_traffic(seed: int) -> None:
    import heh.prelude
    sys.path.insert(0, str(SRC.parent / "perfbench"))
    from workloads import WORKLOADS
    package = Path(heh.eval.__file__).parent
    heh.prelude._prelude_values.cache_clear()
    factory = heh.eval._factory
    factory.cache_clear()
    calls, ran = {}, set()  # code -> its calls in each workload; each (file, line) run
    keys = []  # the keys each round, then the prelude, compiles
    heh.eval._factory = lambda key: keys[-1].add(key) or factory(key)

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(column: int):
        def trace(frame, event, arg):  # called for each new frame
            if not frame.f_code.co_filename.startswith(str(package)):
                return None
            calls.setdefault(frame.f_code, [0] * len(WORKLOADS))[column] += 1
            return local
        return trace
    print(f"one round of each workload at seed {seed}:")
    try:
        for column, (name, workload) in enumerate(WORKLOADS.items()):
            rnd = next(workload.rounds(seed))
            keys.append(set())
            sys.settrace(tracer(column))
            try:
                session = rnd.start()
                outcomes = [op.run(session)[0].status for op in rnd.ops]
            finally:
                sys.settrace(None)
            print(f"  {name}: {len(outcomes)} operations, {outcomes.count('ok')} ok")
        keys.append(set())
        heh.eval.compile_program(prelude_source())
    finally:
        heh.eval._factory = factory
    prelude = keys.pop()
    codes = sorted(calls, key=lambda c: (c.co_filename, c.co_firstlineno))
    wheres = [f"{Path(c.co_filename).name}:{c.co_firstlineno} {c.co_qualname}" for c in codes]
    width = max(map(len, wheres)) + 2
    print(f"\n{'calls':<{width}}" + "".join(f"{name:>10}" for name in WORKLOADS))
    for code, where in zip(codes, wheres):
        print(f"{where:<{width}}" + "".join(f"{n:>10,}" for n in calls[code]))
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        function = statement_lines(compile(source, str(path), "exec"), {})
        lines, text = sorted(function), source.split("\n")
        unrun = [line for line in lines if (str(path), line) not in ran]
        print(f"\n{path.name}: {len(unrun)} of {len(lines)} statement lines run by no workload")
        # each run of unrun lines of one function, with the text of its first
        for (run, code), group in itertools.groupby(
                lines, lambda line: ((str(path), line) in ran, function[line])):
            if not run:
                group = list(group)
                span = f"{group[0]}-{group[-1]}" if len(group) > 1 else str(group[0])
                print(f"  {span:>9}  {code.co_qualname}: {text[group[0] - 1].strip()[:60]}")
    print_nodes(WORKLOADS, [compiled | prelude for compiled in keys])


FRONT_ROUNDS = 5  # the runs each figure of `--front` is the fastest of


def front_times(session: Session, source: str, force_print: int) -> list:
    """Seconds to tokenize `source`, to parse its tokens, to compile its forms,
    and to run them in `session` and print the value as the REPL does with
    `force_print`; a run that raises an `EvalError` ends there."""
    start = time.perf_counter()
    tokens = tokenize(source)
    lexed = time.perf_counter()
    forms = _Parser(tokens).program()
    parsed = time.perf_counter()
    program = [(form, compile_expr(form.expr if isinstance(form, Binding) else form))
               for form in forms]
    compiled = time.perf_counter()
    try:  # `Session.run_program` less `compile_program`
        value = session._entry("eval", lambda: session._run(program))
        if value is not None:
            format_value(session, value, force_print)
    except EvalError:
        pass
    return [lexed - start, parsed - lexed, compiled - parsed, time.perf_counter() - compiled]


def print_front(seed: int) -> None:
    sys.path.insert(0, str(SRC.parent / "perfbench"))
    from workloads import ENTRY_FUEL, FORCE_PRINT, WORKLOADS
    fastest: dict = {}  # (row, entry) -> the fastest seconds of each layer
    gc.collect()
    gc.disable()  # a collection falls at the same point in each run: no layer is charged it
    try:
        for _ in range(FRONT_ROUNDS):
            rnd = next(WORKLOADS["repl_mix"].rounds(seed))
            session = rnd.start()
            runs = []
            for k, entry in enumerate(rnd.ops):
                session.fuel = ENTRY_FUEL
                runs.append((("repl_mix", k), front_times(session, entry.source, FORCE_PRINT)))
            runs.append((("ackermann.heh", 0), front_times(
                new_session(), program_source("ackermann.heh"), FORCE_PRINT)))
            runs.append((("prelude", 0), front_times(Session(), prelude_source(), FORCE_PRINT)))
            for at, seconds in runs:
                fastest[at] = list(map(min, fastest.get(at, seconds), seconds))
    finally:
        gc.enable()
    print(f"us an entry, the fastest of {FRONT_ROUNDS} runs (repl_mix at seed {seed}: the "
          f"median over its entries)")
    print(f"{'':<20}{'tokenize':>10}{'parse':>10}{'compile':>10}{'run+print':>11}")
    for row in ("repl_mix", "ackermann.heh", "prelude"):
        entries = [seconds for (name, _), seconds in fastest.items() if name == row]
        medians = [statistics.median(layer) * 1e6 for layer in zip(*entries)]
        label = f"{row} ({len(entries)})" if len(entries) > 1 else row
        print(f"{label:<20}" + "".join(f"{us:>10.1f}" for us in medians[:3])
              + f"{medians[3]:>11.1f}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--depths", type=int, nargs="+", default=[20_000, 40_000, 60_000])
    parser.add_argument("--no-ceiling", action="store_true",
                        help="skip the bisection for the fresh ceiling")
    parser.add_argument("--calls", action="store_true",
                        help="print the calls a nats level, an ackermann entry, the Game-of-"
                        "Life probes, a reduce element, a strictly forced imap cell, an element "
                        "a filter scans past w, a fresh probe of a split imap and a level of a "
                        "recursive imap with a cell shape make, only")
    parser.add_argument("--opcodes", action="store_true",
                        help="print the bytecodes an ackermann entry, a nats level and an "
                        "element a filter scans past w run, with their shares in prologue and "
                        "class-test lines, only")
    parser.add_argument("--compile", action="store_true",
                        help="print the source, memory and time that compiling the prelude "
                        "and the shipped programs takes, only")
    parser.add_argument("--errors", action="store_true",
                        help="print the memory that caught deep errors keep, and the time "
                        "of a deep fault, only")
    parser.add_argument("--rss", type=int, nargs="?", const=5, metavar="N",
                        help="print the size of eval.py and the peak RSS of N fresh processes "
                        "(default 5) after start, import, the prelude, compiling ackermann.heh "
                        "and a probe of it, only")
    parser.add_argument("--traffic", type=int, nargs="?", const=3000, metavar="SEED",
                        help="print the calls of each function of src/heh in one round of "
                        "each workload at SEED (default 3000), the lines no workload ran, and the "
                        "nodes of each step kind and mask each round compiles, only")
    parser.add_argument("--front", type=int, nargs="?", const=3000, metavar="SEED",
                        help="print the microseconds a REPL entry of one repl_mix round at "
                        "SEED (default 3000), ackermann.heh and the prelude take to tokenize, "
                        "parse, compile, and run and print, only")
    parser.add_argument("--startup", type=int, nargs="?", const=5, metavar="N",
                        help="print the time of an interpreter's start, of importing heh, of "
                        "the first prelude build and its parts, and of heh -e over N fresh "
                        "processes (default 5), without and with heh's bytecode compiled, only")
    args = parser.parse_args(argv)
    if args.startup is not None:
        return print_startup(args.startup)
    if args.front is not None:
        return print_front(args.front)
    if args.traffic is not None:
        return print_traffic(args.traffic)
    if args.rss is not None:
        return print_rss(args.rss)
    if args.errors:
        return print_errors()
    if args.calls:
        return print_calls()
    if args.opcodes:
        return print_opcodes()
    if args.compile:
        return print_compile()
    print(f"python {sys.version.split()[0]}, RECURSION_LIMIT {RECURSION_LIMIT:,}")
    for shape in SHAPES:
        print(f"{shape}:")
        for n in args.depths:
            ok, before, after = run(shape, n)
            growth = (after - before) * 1024
            print(f"  depth {n:,}: {'value' if ok else 'failed'}, peak RSS {before / 1024:.2f} "
                  f"MiB before, +{growth / 2**20:.1f} MiB over the session, "
                  f"{growth / n:.0f} B a level")
        if not args.no_ceiling:
            n = ceiling(shape)
            peak = run(shape, n)[2] * 1024
            print(f"  fresh ceiling: {n:,} levels, {n + 1:,} fail; "
                  f"peak RSS there {peak / 2**20:.1f} MiB")


if __name__ == "__main__":
    main()
