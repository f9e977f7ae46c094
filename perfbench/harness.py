"""Measurement: the closed timing loop, the host reference loop, tracing by
wrapping public heh names, and the statistics the benchmark reports.

One caller, one thread: each operation starts only after the previous one
has finished.  End-to-end numbers come from an untraced run; the traced run
replays a fixed window of operations with and without tracing, which gives
the per-layer numbers, the tracing overhead and the determinism check.
"""

import gc
import importlib
import itertools
import random
import resource
import statistics
import time
from contextlib import contextmanager

import heh
import heh.syntax

from workloads import new_repl_session

clock = time.perf_counter

INITIAL_SETUPS = 5     # set-up samples taken before the first round
REF_EVERY = 16         # REPL entries between two samples of the reference loop
MICRO_REPEATS = 15     # samples of each directly timed layer operation
ORDINAL_BATCH = 256    # operand pairs per ordinal timing sample


class NondeterminismError(RuntimeError):
    """Two executions of one operation counted different work."""


### host drift

REF_ITERATIONS = 100_000
REFERENCE_LOOP_S = 0.012   # the loop's median time on the VM the bounds were set on


def reference_loop() -> int:
    """Fixed pure-Python work that does not touch heh; its time tracks how
    fast this host runs Python right now (about 12 ms on a 2-core VM)."""
    acc, seen = 0, {}
    for i in range(REF_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFF
        seen[acc & 255] = i
    return acc


def timed(fn, *args):
    start = clock()
    value = fn(*args)
    return clock() - start, value


def time_setup() -> float:
    """What every `heh file` run pays first: a Session plus the prelude."""
    return timed(new_repl_session)[0]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def tail(samples):
    """(value, percentile, n) for the highest percentile with at least ten
    samples above it; with ten samples or fewer, the maximum."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


### tracing

ORDINAL_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__divmod__", "__rdivmod__", "__floordiv__", "__rfloordiv__",
               "__mod__", "__rmod__", "__lt__", "__le__", "__gt__", "__ge__",
               "__eq__", "sub_right", "limit_part", "natural")

# (metric key, module, name) -- each name is wrapped in the module whose code
# looks it up, e.g. the evaluator's own imported `box_contains`
TARGETS = (
    ("syntax.parse", "heh.eval", "parse_program"),
    ("syntax.parse", "heh.eval", "parse_expr"),
    ("syntax.tokenize", "heh.syntax", "tokenize"),
    ("runtime.box_contains", "heh.eval", "box_contains"),
    ("runtime.box_subtract", "heh.eval", "box_subtract"),
    ("runtime.box_subtract", "heh.runtime", "box_subtract"),
    ("runtime.forms_partition", "heh.eval", "forms_partition"),
    ("eval.select", "heh.eval", "Session.select"),
    ("cli.format", "heh.cli", "format_value"),
) + tuple(("ordinal", "heh.ordinal", f"Ordinal.{op}") for op in ORDINAL_OPS)

SYNTAX_TARGETS = tuple(t for t in TARGETS if t[0].startswith("syntax."))


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted name, or None when it does not exist.
    Only attributes a class defines itself are wrapped, so that restoring
    them cannot shadow an inherited one."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        return (owner, attr) if attr in vars(owner) else None
    return (owner, attr) if callable(getattr(owner, attr, None)) else None


class Tracer:
    """Calls and self time per metric key, aggregated rather than kept as one
    span per call: the ordinal operators alone run millions of times per op.
    Self time is a call's duration minus that of the wrapped calls inside it.
    A key none of whose names exist any more is listed in `absent`."""

    def __init__(self, targets):
        self.keys = sorted({key for key, _, _ in targets})
        self.calls = dict.fromkeys(self.keys, 0)
        self.self_s = dict.fromkeys(self.keys, 0.0)
        self._stack = []
        self._sites = []
        for key, module_name, path in targets:
            site = _resolve(module_name, path)
            if site is not None:
                self._sites.append((key, *site))
        present = {key for key, _, _ in self._sites}
        self.absent = [key for key in self.keys if key not in present]

    def reset(self) -> None:
        self.calls = dict.fromkeys(self.keys, 0)
        self.self_s = dict.fromkeys(self.keys, 0.0)

    def _wrap(self, key, fn):
        stack, tracer = self._stack, self

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                tracer.calls[key] += 1
                tracer.self_s[key] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
        return traced

    @contextmanager
    def active(self):
        originals = []
        try:
            for key, owner, attr in self._sites:
                original = getattr(owner, attr)
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(key, original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)


### the untraced run: end-to-end metrics

class Tally:
    def __init__(self):
        self.latencies, self.setups, self.refs = [], [], []
        # per latency and per set-up: index of the last reference sample before it
        self.latency_ref, self.setup_ref = [], []
        self.attempted = self.failed = self.wrong = 0
        self.failures = []

    def record(self, seconds, outcome) -> None:
        self.latencies.append(seconds)
        self.latency_ref.append(len(self.refs) - 1)
        self.attempted += 1
        if outcome.status != "ok":
            self.failed += 1
            self.wrong += outcome.status == "wrong"
            self.failures.append(outcome.detail)

    def record_setup(self, seconds) -> None:
        self.setups.append(seconds)
        self.setup_ref.append(len(self.refs) - 1)

    def sample_reference(self) -> None:
        self.refs.append(timed(reference_loop)[0])

    def relative(self, samples, ref_indices) -> list:
        """Each sample over the mean of the reference samples taken just
        before and just after it, which cancels drift of the host's speed."""
        refs = self.refs
        return [t / ((refs[k] + refs[min(k + 1, len(refs) - 1)]) / 2)
                for t, k in zip(samples, ref_indices)]


def _run_round(rnd, tally: Tally) -> None:
    if rnd.setup is None:
        for op in rnd.ops:
            # every op, set-up sample and reference sample starts from the
            # same heap: the last op's session is freed first
            gc.collect()
            tally.sample_reference()
            tally.record_setup(time_setup())
            gc.collect()
            seconds, (outcome, kept) = timed(op.run, None)
            del kept
            tally.record(seconds, outcome)
        return
    gc.collect()
    tally.sample_reference()
    seconds, session = timed(rnd.start)
    tally.record_setup(seconds)
    for i, op in enumerate(rnd.ops):
        if i and i % REF_EVERY == 0:
            tally.sample_reference()
        seconds, (outcome, _) = timed(op.run, session)
        tally.record(seconds, outcome)


def run_end_to_end(rounds, count: int) -> Tally:
    """The first `count` rounds, each measured whole."""
    tally = Tally()
    tally.sample_reference()
    for _ in range(INITIAL_SETUPS):
        tally.record_setup(time_setup())
    for rnd in itertools.islice(rounds, count):
        _run_round(rnd, tally)
    tally.sample_reference()
    return tally


def end_to_end_metrics(tally: Tally) -> dict:
    """The bounded metrics.  Times are given relative to the reference loop:
    on a shared 2-core VM the host's speed moved by half or more between runs
    a few minutes apart (nats op_p50_s from 0.24 to 0.41 s over ten runs),
    more than any regression bound, while heh's time relative to the loop
    moved by less than 10%.  Set-up time is that ratio in seconds at the
    reference speed, REFERENCE_LOOP_S per loop."""
    relative = tally.relative(tally.latencies, tally.latency_ref)
    setups = tally.relative(tally.setups, tally.setup_ref)
    return {
        "setup_s": statistics.median(setups) * REFERENCE_LOOP_S,
        "op_p50_ref": statistics.median(relative),
        "op_tail_ref": tail(relative)[0],
        "ops_per_ref": len(relative) / sum(relative),
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }


def wall_clock_metrics(tally: Tally) -> dict:
    """The same times as measured, printed beside the bounded metrics."""
    return {
        "setup_wall_s": statistics.median(tally.setups),
        "op_p50_s": statistics.median(tally.latencies),
        "op_tail_s": tail(tally.latencies)[0],
        "ops_per_s": len(tally.latencies) / sum(tally.latencies),
        "host.ref_loop_s": statistics.median(tally.refs),
        "fail_ratio": tally.failed / tally.attempted,
    }


### the traced run: per-layer metrics

def _syntax_and_prelude():
    """Lexing and parsing of the prelude, and the prelude load split into its
    syntax part and the rest."""
    source = heh.prelude_source()
    tokens = len(heh.syntax.tokenize(source))
    tracer = Tracer(SYNTAX_TARGETS)
    tokenize, parse, load, load_syntax = [], [], [], []
    with tracer.active():
        for _ in range(MICRO_REPEATS):
            gc.collect()
            tracer.reset()
            seconds, _ = timed(heh.syntax.parse_program, source)
            tokenize.append(tracer.self_s["syntax.tokenize"])
            parse.append(seconds - tracer.self_s["syntax.tokenize"])
            tracer.reset()
            load.append(time_setup())
            load_syntax.append(sum(tracer.self_s.values()))
    lex_parse = statistics.median(t + p for t, p in zip(tokenize, parse))
    return {
        "syntax.tokenize_s": statistics.median(tokenize),
        "syntax.parse_s": statistics.median(parse),
        "syntax.tokens_per_s": tokens / lex_parse,
        "prelude.load_s": statistics.median(load),
        "prelude.syntax_s": statistics.median(load_syntax),
        "prelude.eval_s": statistics.median(l - s for l, s in zip(load, load_syntax)),
    }


def _ordinal_timings(rng: random.Random):
    """ns per operation of the natural and the general (>= w) paths."""
    O, w = heh.Ordinal, heh.OMEGA
    naturals = [(O(rng.randrange(1, 10**6)), O(rng.randrange(1, 10**6)))
                for _ in range(ORDINAL_BATCH)]
    divisions = [(O(rng.randrange(10**6)), O(rng.randrange(2, 1000)))
                 for _ in range(ORDINAL_BATCH)]
    limits = [(w * O(rng.randrange(1, 9)) + O(rng.randrange(100)),
               w * w * O(rng.randrange(1, 9)) + w + O(rng.randrange(100)))
              for _ in range(ORDINAL_BATCH)]

    def per_op(op, pairs):
        samples = []
        for _ in range(MICRO_REPEATS):
            start = clock()
            for a, b in pairs:
                op(a, b)
            samples.append((clock() - start) / len(pairs) * 1e9)
        return statistics.median(samples)

    return {
        "ordinal.add_nat_ns": per_op(lambda a, b: a + b, naturals),
        "ordinal.add_lim_ns": per_op(lambda a, b: a + b, limits),
        "ordinal.lt_nat_ns": per_op(lambda a, b: a < b, naturals),
        "ordinal.divmod_ns": per_op(divmod, divisions),
    }


def resident_kb() -> float:
    """Current resident set size of this process (Linux)."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * resource.getpagesize() / 1024


def _live_kb(window) -> float:
    """Resident memory the window's operations add while their sessions are
    alive.  Measured first in a fresh process, so that little freed memory
    is waiting to be reused.  tracemalloc would be exact, but it slows these
    operations fifty-fold and more."""
    gc.collect()
    before = resident_kb()
    session = window.start()
    kept = [op.run(session)[1] for op in window.ops]
    gc.collect()
    live = resident_kb() - before
    del kept, session
    return live


class LayerRun:
    """Per-repetition totals of the traced window."""

    def __init__(self):
        self.untraced, self.traced = [], []        # per-op seconds
        self.window_untraced, self.window_traced = [], []
        self.calls, self.self_s = [], []           # per repetition
        self.refs = []
        self.outcomes = Tally()


def _replay(window, tracer: Tracer, run: LayerRun, reference) -> list:
    """Run the window untraced and traced, op by op; returns per-op counts
    and raises NondeterminismError if the two executions counted differently
    or differ from `reference` (the first repetition's counts)."""
    gc.collect()
    run.refs.append(timed(reference_loop)[0])
    fresh = window.setup is None
    plain = None if fresh else window.start()
    traced_session = None
    if not fresh:
        with tracer.active():
            traced_session = window.start()
    tracer.reset()
    counts, total_u, total_t = [], 0.0, 0.0
    for i, op in enumerate(window.ops):
        if fresh:
            gc.collect()
        seconds_u, (outcome_u, kept) = timed(op.run, plain)
        del kept
        if fresh:
            gc.collect()
        with tracer.active():
            seconds_t, (outcome_t, kept) = timed(op.run, traced_session)
        del kept
        if outcome_u.counts != outcome_t.counts or outcome_u.status != outcome_t.status:
            raise NondeterminismError(
                f"op {i} counted {outcome_u.counts} ({outcome_u.status}) untraced "
                f"but {outcome_t.counts} ({outcome_t.status}) traced")
        if reference is not None and outcome_u.counts != reference[i]:
            raise NondeterminismError(
                f"op {i} counted {outcome_u.counts}, but {reference[i]} on the "
                "first repetition")
        counts.append(outcome_u.counts)
        run.outcomes.record(seconds_u, outcome_u)
        run.outcomes.record(seconds_t, outcome_t)
        run.untraced.append(seconds_u)
        run.traced.append(seconds_t)
        total_u += seconds_u
        total_t += seconds_t
    run.window_untraced.append(total_u)
    run.window_traced.append(total_t)
    run.calls.append(dict(tracer.calls))
    run.self_s.append(dict(tracer.self_s))
    return counts


def run_layers(window, seed: int, seconds: float):
    """(metrics, absent keys, Tally of every execution) of the traced run,
    which repeats the window while the next repetition still fits into
    `seconds`."""
    start = clock()
    metrics = {"eval.live_kb": _live_kb(window)}
    metrics.update(_syntax_and_prelude())
    metrics.update(_ordinal_timings(random.Random(seed)))
    tracer = Tracer(TARGETS)
    run = LayerRun()
    reference = None
    while True:
        rep_start = clock()
        counts = _replay(window, tracer, run, reference)
        if reference is None:
            reference = counts
        if clock() - start + (clock() - rep_start) > seconds:
            break

    def total(i):
        values = [c[i] for c in reference]
        return 0 if None in values else sum(values)

    rules = total(0)
    med = statistics.median
    first_calls = run.calls[0]
    non_eval = [k for k in tracer.keys if not k.startswith("eval.")]
    metrics.update({
        "host.ref_loop_s": med(run.refs),
        "ordinal.calls": first_calls["ordinal"],
        "ordinal.self_s": med(s["ordinal"] for s in run.self_s),
        "runtime.box_contains.calls": first_calls["runtime.box_contains"],
        "runtime.box_contains.self_s": med(s["runtime.box_contains"] for s in run.self_s),
        "runtime.box_subtract.calls": first_calls["runtime.box_subtract"],
        "runtime.forms_partition.calls": first_calls["runtime.forms_partition"],
        "runtime.forms_partition.self_s": med(s["runtime.forms_partition"]
                                              for s in run.self_s),
        "eval.rules": rules,
        "eval.body_evals": total(1),
        "eval.predicate_calls": total(2),
        "eval.select.calls": first_calls["eval.select"],
        "eval.self_s": med(t - sum(s[k] for k in non_eval)
                           for t, s in zip(run.window_traced, run.self_s)),
        "eval.us_per_rule": (med(run.window_untraced) / rules * 1e6) if rules else 0,
        "cli.format_s": med(s["cli.format"] for s in run.self_s),
        "cli.format_calls": first_calls["cli.format"],
        "trace.overhead": med(run.traced) / med(run.untraced),
    })
    return metrics, tracer.absent, run.outcomes
