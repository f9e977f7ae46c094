"""Differential tests on generated, evaluable programs.

A seeded generator writes small closed programs that terminate: imaps with
one to three generator boxes over finite, `[w]`, `[w+k]` and `[w, n]`
frames, `letrec` streams defined by recurrences on earlier elements,
filters over finite and transfinite vectors, and reductions.  A second
corpus applies the prelude's list operations `take`, `drop`, `++`,
`reverse` and `zip` to finite and `[w+k]` vectors.  Each program comes with
the probes to make and, for each probe, the value or error kind a Python
model of the program gives.  The model is written here with Python
integers and lists; it never runs heh.  Every program is run under the four
configurations memo on/off x strict/lazy finite imaps, which must all give
the model's outcomes, and under `python -O`, which must give the same
outcomes and counters.
"""

import ast
import json
import os
import random
import subprocess
import sys

import pytest
from canonical import is_canonical, is_canonical_array

import heh
from heh.eval import EvalConfig, EvalError, new_session
from heh.ordinal import OMEGA, Ordinal
from heh.runtime import FilterClosure, FunClosure, ImapClosure, Rec, StrictArray

CONFIGS = [EvalConfig(memoize=memo, strict_finite_imaps=strict, fuel=3_000_000)
           for memo in (True, False) for strict in (False, True)]
CASES = 320
FILTER_SCAN = 150  # the model looks this far for accepted elements


class ModelFault(Exception):
    """The error kind heh must report where the model faults."""

    def __init__(self, kind):
        super().__init__(kind)
        self.kind = kind


### ---- scalar expressions over natural variables -------------------------------------


def scalar(rng, names, depth=2, faulting=False):
    """(heh text, model) of a natural-valued expression over `names`, where
    the model maps a dict of variable values to an int or raises
    ModelFault.  Operands are evaluated left to right, as heh does."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            name = rng.choice(sorted(names))
            return names[name], lambda v: v[name]
        c = rng.randrange(10)
        return str(c), lambda v: c
    kind = rng.randrange(7 if faulting else 5)
    a_text, a = scalar(rng, names, depth - 1, faulting)
    if kind == 0:
        b_text, b = scalar(rng, names, depth - 1, faulting)
        return f"({a_text} + {b_text})", lambda v: a(v) + b(v)
    if kind == 1:
        c = rng.randrange(1, 5)
        return f"({a_text} * {c})", lambda v: a(v) * c
    if kind == 2:
        c = rng.randrange(1, 8)
        return f"({a_text} % {c})", lambda v: a(v) % c
    if kind == 3:
        c = rng.randrange(1, 4)
        return f"({a_text} / {c})", lambda v: a(v) // c
    if kind == 4:
        b_text, b = scalar(rng, names, depth - 1, faulting)
        t_text, t = scalar(rng, names, depth - 1, faulting)
        e_text, e = scalar(rng, names, depth - 1, faulting)
        return (f"(if {a_text} < {b_text} then {t_text} else {e_text})",
                lambda v: t(v) if a(v) < b(v) else e(v))
    b_text, b = scalar(rng, names, depth - 1, faulting)
    if kind == 5:
        def divide(v):
            x, y = a(v), b(v)
            if y == 0:
                raise ModelFault("DivisionByZero")
            return x // y
        return f"({a_text} / {b_text})", divide

    def subtract(v):
        x, y = a(v), b(v)
        if y > x:
            raise ModelFault("UndefinedOrdinalOp")
        return x - y
    return f"({a_text} - {b_text})", subtract


def outcome(thunk):
    try:
        return thunk()
    except ModelFault as fault:
        return "!" + fault.kind


### ---- index vectors -------------------------------------------------------------------


def ordinal(lead, n):
    """The ordinal w*lead + n."""
    return OMEGA * Ordinal(lead) + Ordinal(n)


### ---- imap over 1-3 boxes -----------------------------------------------------------


def imap_case(rng):
    """An imap over a finite, [w], [w+k] or [w, n] frame, cut along its
    first axis into 1-3 boxes, each with its own body."""
    frame_kind = rng.choice(("finite", "w", "w+k", "w,n"))
    k = rng.randrange(1, 5)
    n = rng.randrange(1, 4)
    if frame_kind == "finite":
        extent = rng.randrange(2, 12)
        # (lower text, upper text, first natural, end natural or None, tail?)
        cuts = sorted(rng.sample(range(1, extent), min(rng.randrange(3), extent - 1)))
        points = [0] + cuts + [extent]
        boxes = [(str(lo), str(hi), lo, hi, False) for lo, hi in zip(points, points[1:])]
        frame, faulting = f"[{extent}]", False
    else:
        cuts = sorted(rng.sample(range(1, 8), rng.randrange(2)))
        points = [0] + cuts
        boxes = [(str(lo), str(hi), lo, hi, False) for lo, hi in zip(points, points[1:])]
        boxes.append((str(points[-1]), "w", points[-1], None, False))
        if frame_kind == "w+k":
            boxes.append(("w", f"w+{k}", 0, k, True))
        frame = {"w": "[w]", "w+k": f"[w+{k}]", "w,n": f"[w, {n}]"}[frame_kind]
        faulting = True  # never forced whole, in any configuration
    rank2 = frame_kind == "w,n"
    parts, models = [], []
    for lo, hi, _, _, tail in boxes:
        names = {"x": "(iv.[0] - w)" if tail else "iv.[0]"}
        if rank2:
            names["y"] = "iv.[1]"
        text, model = scalar(rng, names, faulting=faulting)
        if rank2:
            parts.append(f"[{lo}, 0] <= iv < [{hi}, {n}]: {text}")
        elif len(boxes) == 1:
            parts.append(f"_(iv): {text}")
        else:
            parts.append(f"[{lo}] <= iv < [{hi}]: {text}")
        models.append(model)
    source = f"imap {frame} {{{', '.join(parts)}}}"

    def expected(box, x, y=0):
        return outcome(lambda: models[box]({"x": x, "y": y}))

    probes = []
    for box, (_, _, first, end, tail) in enumerate(boxes):
        last = end if end is not None else first + 20
        for x in sorted(rng.sample(range(first, last), min(3, last - first))):
            index = [ordinal(1, x) if tail else Ordinal(x)]
            y = rng.randrange(n) if rank2 else 0
            if rank2:
                index.append(Ordinal(y))
            probes.append((index, expected(box, x, y)))
    if frame_kind == "finite":
        probes.append(([Ordinal(boxes[-1][3])], "!IndexOutOfBounds"))
    if frame_kind == "w+k":
        probes.append(([ordinal(1, k)], "!IndexOutOfBounds"))
    return source, probes


### ---- letrec streams ------------------------------------------------------------------


def stream_case(rng):
    """A stream whose elements past the first `order` are a recurrence on
    the two before them; with a tail past w whose elements depend on the
    previous tail element and on the stream's natural part."""
    order = rng.choice((1, 2))
    modulus = rng.randrange(5, 50)
    a, b = rng.randrange(1, 4), rng.randrange(4)
    init_text, init = scalar(rng, {"x": "iv.[0]"}, depth=1)
    step_text, step = scalar(rng, {"x": "iv.[0]"}, depth=1)
    back = " + ".join([f"s.[iv.[0] - 1] * {a}"] + ([f"s.[iv.[0] - 2] * {b}"] if order == 2 else []))
    parts = [f"[0] <= iv < [{order}]: {init_text} % {modulus}",
             f"[{order}] <= iv < [w]: ({back} + {step_text}) % {modulus}"]
    k = rng.randrange(0, 4)
    c = rng.randrange(10)
    if k:
        parts.append(f"[w] <= iv < [w + 1]: s.[{c}] + 1")
    if k > 1:
        parts.append(f"[w + 1] <= iv < [w + {k}]: "
                     f"(s.[w + (iv.[0] - w - 1)] + s.[iv.[0] - w]) % {modulus}")
    frame = f"[w + {k}]" if k else "[w]"
    body = f"imap {frame} {{{', '.join(parts)}}}"
    if rng.random() < 0.5:
        source = f"letrec s = {body} in s"
    else:
        source = f"letrec s = {body}\ns"

    top = 30 if order == 1 else 12  # unmemoized, order 2 costs fib(n) bodies
    values = []
    for x in range(max(top, 10) + 1):
        if x < order:
            values.append(init({"x": x}) % modulus)
        else:
            prior = values[x - 1] * a + (values[x - 2] * b if order == 2 else 0)
            values.append((prior + step({"x": x})) % modulus)
    probes = [([Ordinal(x)], values[x])
              for x in sorted(rng.sample(range(top + 1), 4))]
    if k:
        tail = [values[c] + 1]
        for j in range(1, k):
            tail.append((tail[j - 1] + values[j]) % modulus)
        probes += [([ordinal(1, j)], tail[j]) for j in range(k)]
        probes.append(([ordinal(1, k)], "!IndexOutOfBounds"))
    return source, probes


### ---- filter ------------------------------------------------------------------------------


def filter_case(rng):
    """A filter over a finite vector or over one of shape [w], [w*2] or
    [w+k]; the predicate is a scalar test on the element."""
    arg_kind = rng.choice(("literal", "finite", "w", "w*2", "w+k"))
    m = rng.randrange(2, 6)
    r = rng.randrange(m)
    c = rng.randrange(1, 30)
    predicate_text, predicate = rng.choice((
        (f"v % {m} = {r}", lambda v: v % m == r),
        (f"v < {c}", lambda v: v < c),
        (f"(v * 3 + {r}) % {m} < {max(1, r)}", lambda v: (v * 3 + r) % m < max(1, r)),
    ))
    elements_text, elements = scalar(rng, {"x": "iv.[0]"})
    tail_text, tail_elements = scalar(rng, {"x": "(iv.[0] - w)"})
    k = rng.randrange(1, 8)
    if arg_kind == "literal":
        values = [rng.randrange(40) for _ in range(rng.randrange(8))]
        arg = "[" + ", ".join(map(str, values)) + "]"
        segments = [values]
    elif arg_kind == "finite":
        n = rng.randrange(1, 12)
        arg = f"imap [{n}] {{_(iv): {elements_text}}}"
        segments = [[elements({"x": x}) for x in range(n)]]
    else:
        head = [elements({"x": x}) for x in range(FILTER_SCAN)]
        second = [tail_elements({"x": x}) for x in range(FILTER_SCAN)]
        if arg_kind == "w":
            arg = f"imap [w] {{_(iv): {elements_text}}}"
            segments = [head]
        else:
            frame = "w*2" if arg_kind == "w*2" else f"w+{k}"
            arg = (f"imap [{frame}] {{[0] <= iv < [w]: {elements_text}, "
                   f"[w] <= iv < [{frame}]: {tail_text}}}")
            segments = [head, second if arg_kind == "w*2" else second[:k]]
    source = f"filter (\\v. {predicate_text}) ({arg})"

    probes = []
    finite = arg_kind in ("literal", "finite")
    for lead, segment in enumerate(segments):
        kept = [v for v in segment if predicate(v)]
        last_segment = finite or (arg_kind == "w+k" and lead == 1)
        for i in range(min(len(kept), 3)):
            probes.append(([ordinal(lead, i)], kept[i]))
        if last_segment:
            # the scan passes the end of the argument
            probes.append(([ordinal(lead, len(kept))], "!IndexOutOfBounds"))
    return source, probes


### ---- reduce ----------------------------------------------------------------------------


def reduce_case(rng):
    """A fold over a finite vector, a finite filter or a finite rank-2 imap."""
    modulus = rng.randrange(7, 100)
    fold_text, fold = rng.choice((
        ("acc + v", lambda acc, v: acc + v),
        (f"(acc * 3 + v) % {modulus}", lambda acc, v: (acc * 3 + v) % modulus),
        ("if v < acc then v else acc", lambda acc, v: v if v < acc else acc),
        ("acc + v * v", lambda acc, v: acc + v * v),
    ))
    start = rng.randrange(50)
    element_text, element = scalar(rng, {"x": "iv.[0]", "y": "iv.[1]"})
    n, m = rng.randrange(1, 5), rng.randrange(1, 5)
    arg_kind = rng.randrange(3)
    if arg_kind == 0:
        values = [rng.randrange(40) for _ in range(rng.randrange(6))]
        arg = "[" + ", ".join(map(str, values)) + "]"
    elif arg_kind == 1:
        values = [element({"x": x, "y": y}) for x in range(n) for y in range(m)]
        arg = f"(imap [{n}, {m}] {{_(iv): {element_text}}})"
    else:
        d = rng.randrange(2, 4)
        element_text, element = scalar(rng, {"x": "iv.[0]"})
        values = [v for v in (element({"x": x}) for x in range(n * 3)) if v % d == 0]
        arg = f"(filter (\\u. u % {d} = 0) (imap [{n * 3}] {{_(iv): {element_text}}}))"
    acc = start
    for v in values:
        acc = fold(acc, v)
    return f"reduce (\\acc. \\v. {fold_text}) {start} {arg}", [([], acc)]


GENERATORS = (imap_case, stream_case, filter_case, reduce_case)


def corpus(seed=2024, size=CASES):
    rng = random.Random(seed)
    return [GENERATORS[i % len(GENERATORS)](rng) for i in range(size)]


### ---- prelude list operations -----------------------------------------------------
#
# A vector of shape w*c + n is modelled by that shape, kept as the pair
# (c, n), and a function from such pairs to its elements.  Pairs compare as
# the ordinals do; `pair_add` and `pair_sub` are ordinal + and left - below
# w^2, which the prelude's index arithmetic uses.


def pair_add(a, b):
    return (a[0] + b[0], b[1]) if b[0] else (a[0], a[1] + b[1])


def pair_sub(a, b):
    """The x with b + x == a, for b <= a."""
    return (0, a[1] - b[1]) if a[0] == b[0] else (a[0] - b[0], a[1])


def pair_text(pair):
    c, n = pair
    lead = [] if c == 0 else ["w" if c == 1 else f"w * {c}"]
    return " + ".join(lead + ([str(n)] if n or not c else []))


class Vector:
    def __init__(self, shape, element):
        self.shape, self.element = shape, element

    def at(self, i):
        if not i < self.shape:
            raise ModelFault("IndexOutOfBounds")
        return self.element(i)


def vector_leaf(rng):
    """A finite or [w+k] imap, its elements scalar expressions of the index."""
    text, head = scalar(rng, {"x": "iv.[0]"})
    if rng.random() < 0.5:
        n = rng.randrange(6)
        return (f"(imap [{n}] {{_(iv): {text}}})",
                Vector((0, n), lambda i: head({"x": i[1]})))
    k = rng.randrange(4)
    tail_text, tail = scalar(rng, {"x": "(iv.[0] - w)"})
    return (f"(imap [w + {k}] {{[0] <= iv < [w]: {text}, "
            f"[w] <= iv < [w + {k}]: {tail_text}}})",
            Vector((1, k), lambda i: (tail if i[0] else head)({"x": i[1]})))


def prefix_length(rng, shape):
    c, n = shape
    lead = rng.randrange(c + 1)
    return (lead, rng.randrange((n if lead == c else 6) + 1))


def vector_expr(rng, depth, top=False):
    """(heh text, model) of a list operation on vectors.  `zip` is rank 2,
    and the reverse of an infinite vector faults on its natural indices, so
    both only appear at the top, where no strict finite imap forces them."""
    if depth == 0 or (not top and rng.random() < 0.5):
        return vector_leaf(rng)
    a_text, a = vector_expr(rng, depth - 1)
    ops = ["take", "drop", "++"] + (["reverse"] if top or not a.shape[0] else [])
    op = rng.choice(ops + (["zip"] if top else []))
    if op in ("++", "zip"):
        b_text, b = vector_expr(rng, depth - 1)
    if op == "take":
        s = prefix_length(rng, a.shape)
        return f"(take [{pair_text(s)}] {a_text})", Vector(s, a.at)
    if op == "drop":
        s = prefix_length(rng, a.shape)
        return (f"(drop [{pair_text(s)}] {a_text})",
                Vector(pair_sub(a.shape, s), lambda i: a.at(pair_add(s, i))))
    if op == "++":
        return (f"({a_text} ++ {b_text})",
                Vector(pair_add(a.shape, b.shape), lambda i: a.at(i) if i < a.shape
                       else b.at(pair_sub(i, a.shape))))
    if op == "reverse":
        return (f"(reverse {a_text})", Vector(a.shape, lambda i: a.at(
            pair_sub(pair_sub(a.shape, i), (0, 1)))))
    return (f"(zip {a_text} {b_text})",
            Vector(min(a.shape, b.shape), lambda i: (a.at(i), b.at(i))))


def list_case(rng):
    """A list operation on list operations or vectors, probed at naturals,
    in each block past w, in the finite tail and one past the end."""
    source, model = vector_expr(rng, 2, top=True)
    c, n = model.shape
    naturals = range(n if c == 0 else 12)
    indices = [(0, x) for x in sorted(rng.sample(naturals, min(4, len(naturals))))]
    indices += [(b, x) for b in range(1, c) for x in rng.sample(range(12), 2)]
    if c:
        indices += [(c, x) for x in range(min(n, 2))]
    indices.append(model.shape)  # one past the end
    pair = source.startswith("(zip")
    probes = []
    for i in indices:
        index = [ordinal(*i)]
        if pair:
            j = rng.randrange(2)
            probes.append((index + [Ordinal(j)],
                           outcome(lambda: model.at(i)[j])))
        else:
            probes.append((index, outcome(lambda: model.at(i))))
    return source, probes


def list_corpus(seed=2025, size=96):
    rng = random.Random(seed)
    return [list_case(rng) for _ in range(size)]


def run_case(source, probes, config, prelude=False):
    """The outcome of each probe under `config`, its value or "!kind"; the
    session, whose counters and fuel the probes have left; and the program's
    value, None if it failed."""
    session = new_session(config, prelude)
    try:
        value = session.run_program(source)
    except EvalError as error:
        return ["!" + error.kind] * len(probes), session, None
    outcomes = []
    for index, _ in probes:
        try:
            outcomes.append(session.select_at(value, index))
        except EvalError as error:
            outcomes.append("!" + error.kind)
    return outcomes, session, value


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
