"""Seeded generators of small closed heh programs, with a Python model of each.

Each program comes with the probes to make and, for each probe, the value
or error kind the model gives.  The model is written with Python integers
and lists; it never runs heh.  `corpus()` writes imaps with one to three
generator boxes over finite, `[w]`, `[w+k]` and `[w, n]` frames, `letrec`
streams defined by recurrences on earlier elements, filters over finite
and transfinite vectors, and reductions; `list_corpus()` applies the
prelude's list operations `take`, `drop`, `++`, `reverse` and `zip` to
finite and `[w+k]` vectors.  `run_case` runs one program under one
configuration.  `FAULTS` lists programs that fault at a node of each kind,
with the error each must report.  Only the standard library and heh are
needed.
"""

import random

from heh.eval import EvalConfig, EvalError, new_session
from heh.ordinal import OMEGA, Ordinal

# memo on/off x strict/lazy finite imaps, under a fuel budget; then the
# default, with no fuel set, under which the compiled `apply` and `select`
# steps and `reduce` count applications and selections themselves
CONFIGS = [EvalConfig(memoize=memo, strict_finite_imaps=strict, fuel=3_000_000)
           for memo in (True, False) for strict in (False, True)] + [EvalConfig()]
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


### ---- faults at each node kind ---------------------------------------------------


# index vectors whose cells are not all naturals, which the `select` step has
# `Session._force_ordinal_vector` force in the one loop that forces every
# finite imap strictly: `true`, a rank-0 imap (forced to its one element),
# and `true` before a fault.  Every cell is forced, each body once, before
# any is checked.
INDEX_CELL_FAULTS = [
    ("(imap [3] {_(iv): iv.[0]}).(imap [1] {_(iv): true})",
     ("ShapeMismatch", "selection index components must be ordinals", "select", (0, 51, 1, 1))),
    ("(imap [2] {_(iv): iv.[0]}).(imap [1] {_(iv): imap [] {_(jv): 2}})",
     ("IndexOutOfBounds", "index [2] outside shape [2]", "select", (0, 65, 1, 1))),
    ("(imap [3, 3] {_(iv): iv.[0]}).(imap [2] {_(iv): if iv.[0] = 0 then true else 1 / 0})",
     ("DivisionByZero", "division by zero", "binop", (77, 82, 1, 78))),
]

# Programs that fault inside a lambda or imap body at each node kind, or at a
# top-level binding: the error's kind, message, rule and span (begin, end,
# line, col) are those of the node whose step raised it
FAULTS = [
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
    # inside `letrec`, array, shape, islim, imap, reduce and filter nodes
    ("(\\y. letrec x = y / 0 in x) 1",
     ("DivisionByZero", "division by zero", "binop", (16, 21, 1, 17))),
    ("(\\y. letrec x = x in x) 1",
     ("UnboundVariable", "premature recursive reference to 'x'", "letrec", (5, 22, 1, 6))),
    ("(\\y. letrec x = [y, x.[0]] in x) 1",
     ("UnboundVariable", "premature recursive reference to 'x'", "select", (20, 25, 1, 21))),
    ("(\\y. letrec x = [y, x] in x) 1",
     ("UnboundVariable", "premature recursive reference to 'x'", "array", (16, 22, 1, 17))),
    ("(\\y. [[1], [1, 2]]) 0",
     ("HeterogeneousNesting", "array elements have different shapes: [1] vs [2]", "array",
      (5, 18, 1, 6))),
    ("(imap [2] {_(iv): letrec x = [iv.[0], iv] in x}).[1]",
     ("HeterogeneousNesting", "array elements have different shapes: [] vs [1]", "array",
      (29, 41, 1, 30))),
    ("(\\y. [y, imap [w] {_(iv): 0}]) 1",
     ("ShapeMismatch", "array elements must have finite shape (shape [w])", "array",
      (5, 29, 1, 6))),
    ("(\\y. [y, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, [y]]) 1",
     ("HeterogeneousNesting", "array elements have different shapes: [] vs [1]", "array",
      (5, 68, 1, 6))),
    ("(\\y. |y.[3]|) [1]",
     ("IndexOutOfBounds", "index [3] outside shape [1]", "select", (6, 11, 1, 7))),
    ("(\\y. islim [y]) 1",
     ("ShapeMismatch", "expected a scalar, got shape [1]", "islim", (5, 14, 1, 6))),
    ("(imap [2] {_(iv): islim (iv.[0] = 1)}).[1]",
     ("ShapeMismatch", "islim needs an ordinal scalar", "islim", (18, 36, 1, 19))),
    ("(\\y. imap [y, true] {_(iv): 0}) 1",
     ("ShapeMismatch", "frame shape components must be ordinals", "imap", (5, 30, 1, 6))),
    ("(\\y. reduce y 0 [1]) 1",
     ("NotAFunction", "reduce needs a function as first argument", "reduce", (5, 19, 1, 6))),
    ("(\\y. filter y [1]) 1",
     ("NotAFunction", "filter needs a predicate function", "filter", (5, 17, 1, 6))),
    ("(\\y. imap [2] {[0] <= iv < [1]: 0}) 1",
     ("NotAPartition", "the frame is not fully covered (e.g. indices from [1] up to [2])",
      "imap", (5, 34, 1, 6))),
    ("letrec a = a.[0] in a",
     ("UnboundVariable", "premature recursive reference to 'a'", "select", (11, 16, 1, 12))),
    ("letrec x = x",
     ("UnboundVariable", "premature recursive reference to 'x'", "letrec", (0, 12, 1, 1))),
    ("letrec x = [x]",
     ("UnboundVariable", "premature recursive reference to 'x'", "array", (11, 14, 1, 12))),
    # what the `apply` and `select` steps and `reduce`'s loop leave to
    # `Session._callee` and `Session.select`: an index that is no natural in
    # range, an empty cell applied, and a step of `reduce` that is no function
    ("(\\x. x.[w]) [1, 2]",
     ("IndexOutOfBounds", "index [w] outside shape [2]", "select", (5, 10, 1, 6))),
    ("(\\x. x.[0, 0]) [1, 2]",
     ("RankMismatch", "index of length 2 into rank-1 array", "select", (5, 13, 1, 6))),
    ("letrec f = f 1 in f",
     ("UnboundVariable", "premature recursive reference to 'f'", "apply", (11, 14, 1, 12))),
    ("(\\y. reduce (\\x. x) 0 [1]) 1",
     ("NotAFunction", "only functions can be applied", "reduce", (5, 25, 1, 6))),
    ("letrec g = \\x. x in reduce g 0 [1]",
     ("NotAFunction", "only functions can be applied", "reduce", (20, 34, 1, 21))),
    # what the `select` step does with an imap: with no cell shape and an index
    # of its rank, it tests a miss itself (a natural against an int or an
    # `Ordinal` extent, any other index through `_check_bounds`) and reads the
    # cell, a scalar, a function or the one cell of a rank-0 imap; with a cell
    # shape or another rank, it calls `Session.select`
    ("(\\y. (imap [2] {_(iv): iv.[0]}).[y]) 5",
     ("IndexOutOfBounds", "index [5] outside shape [2]", "select", (5, 35, 1, 6))),
    ("(\\y. (imap [w+3] {_(iv): iv.[0] / y}).[w + 1]) 0",
     ("DivisionByZero", "division by zero", "binop", (25, 35, 1, 26))),
    ("(\\y. (imap [w+3] {_(iv): y}).[w + y]) 5",
     ("IndexOutOfBounds", "index [w + 5] outside shape [w + 3]", "select", (5, 36, 1, 6))),
    ("(\\y. (imap [w] {_(iv): y}).[y, y]) 1",
     ("RankMismatch", "index of length 2 into rank-1 imap", "select", (5, 33, 1, 6))),
    ("(\\y. (imap [w]|[3] {_(iv): [y, y, y]}).[1]) 0",
     ("RankMismatch", "index of length 1 into rank-2 imap", "select", (5, 42, 1, 6))),
    ("(\\y. (imap [w]|[3] {_(iv): [y, y, y]}).[1, 5]) 0",
     ("IndexOutOfBounds", "index [1, 5] outside shape [w, 3]", "select", (5, 45, 1, 6))),
    ("(\\y. (imap [w] {_(iv): \\x. x + y}).[3] + 1) 2",
     ("ShapeMismatch", "'+' needs ordinal scalar operands", "binop", (5, 42, 1, 6))),
    ("(imap [] {_(iv): 1}).[] + true",
     ("ShapeMismatch", "'+' needs ordinal scalar operands", "binop", (0, 30, 1, 1))),
    # inside a transfinite filter scan, reported at the selection that scans
    ("(filter (\\x. true) (imap [w] {_(iv): [1]})).[0]",
     ("ShapeMismatch", "imap element at [0] has shape [1], cell shape is []", "select",
      (0, 47, 1, 1))),
    ("(filter (\\x. x) (imap [w] {_(iv): 1})).[0]",
     ("ShapeMismatch", "the filter predicate must return a boolean", "select", (0, 42, 1, 1))),
    ("(filter (\\x. x > 0) (imap [w+3] {_(iv): 0})).[w]",
     ("IndexOutOfBounds", "filter scan passed the end of the argument (shape [w + 3]) "
      "looking for element [w]", "select", (0, 48, 1, 1))),
    # strict forcing of an imap with a cell shape, whose cell is a scalar: in
    # one partition, whose body the loop runs, and in the second of two, whose
    # body `_miss` finds; reported at the `reduce` that forces it
    ("(\\y. letrec a = imap [2] | [3] {_(iv): y} in reduce (\\x.\\z. x + z) 0 a) 5",
     ("ShapeMismatch", "imap element at [0] has shape [], cell shape is [3]", "reduce",
      (45, 70, 1, 46))),
    ("(\\y. letrec a = imap [2] | [3] {[0] <= iv < [1]: [y, y, y], [1] <= iv < [2]: y} in "
     "reduce (\\x.\\z. x + z) 0 a) 5",
     ("ShapeMismatch", "imap element at [1] has shape [], cell shape is [3]", "reduce",
      (83, 108, 1, 84))),
    # a cell of the wrong shape, which the body's own code checks: reported at the
    # node of the reader that ran the body, here the compiled `select` step, the
    # `Session.select` it calls for an imap with a cell shape, and a `select` step
    # in another imap's body (`STRICT_FAULTS` has what strict forcing reports)
    ("(\\y. (imap [w] {_(iv): [y]}).[1]) 0",
     ("ShapeMismatch", "imap element at [1] has shape [1], cell shape is []", "select",
      (5, 32, 1, 6))),
    ("(\\y. (imap [2] | [3] {_(iv): y}).[0, 0]) 1",
     ("ShapeMismatch", "imap element at [0] has shape [], cell shape is [3]", "select",
      (5, 39, 1, 6))),
    ("(\\y. (imap [2] {_(iv): (imap [w] {_(jv): [y]}).[iv.[0]] + 1}).[1]) 0",
     ("ShapeMismatch", "imap element at [1] has shape [1], cell shape is []", "select",
      (23, 55, 1, 24))),
    # a `letrec` whose bound does not name its variable binds the bound's value
    # with no cell: here an outer `letrec`'s empty cell, which that one finds
    # as its own value, and a difference of variables at two depths outside it
    ("letrec a = (letrec b = a in b) in a",
     ("UnboundVariable", "premature recursive reference to 'a'", "letrec", (0, 35, 1, 1))),
    ("(\\y.\\z. letrec x = z - y in x - z) 1 5",
     ("UndefinedOrdinalOp", "(4) - (5) is undefined: subtrahend is larger", "binop",
      (28, 33, 1, 29))),
    *INDEX_CELL_FAULTS,
]

# The outcomes of `FAULTS` rows that differ with `strict_finite_imaps`, which
# forces a finite imap built outside a `letrec` definition, each cell in turn,
# at its `imap` node
STRICT_FAULTS = {
    "(\\y. (imap [2] | [3] {_(iv): y}).[0, 0]) 1":
        ("ShapeMismatch", "imap element at [0] has shape [], cell shape is [3]", "imap",
         (5, 32, 1, 6)),
    "(\\y. (imap [2] {_(iv): (imap [w] {_(jv): [y]}).[iv.[0]] + 1}).[1]) 0":
        ("ShapeMismatch", "imap element at [0] has shape [1], cell shape is []", "select",
         (23, 55, 1, 24)),
}

# A filter scan whose imap cells are rank-0 imaps selects each with `[]`;
# it gives 2, with body_evals 8 and predicate_calls 4 in every configuration
RANK_0_CELL_SCAN = "(filter (\\x. x > 1) (imap [w] {_(iv): imap [] {_(jv): 2}})).[3]"
