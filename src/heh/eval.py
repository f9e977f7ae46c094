"""Big-step evaluator: sessions, configuration, and all evaluation rules.

A program is compiled before it runs: `compile_expr` turns the AST into
Python functions `code(session, env)` (closure generation, after Feeley and
Lapalme, "Using closures for code generation", 1987).  A body is one
function, whose statements are each node's prologue and step in evaluation
order (a superoperator, after Proebsting, "Optimizing an ANSI C interpreter
with superoperators", POPL 1995).  A new function starts only at a lambda or
imap body, an imap's bounds and cell shape, an element of a long array
literal (the literal is a node of its parent), and past a budget of nodes.
All come from one template and the steps in `_STEPS`, and are cached by the
shape of the subtree.  A name bound by a lambda, a `letrec` or an imap
generator is resolved at compile time to its depth in `env`, a chain of
`(value, parent)` pairs (a recursive `letrec`'s is a list, set to its value
once its bound returns); any other name is looked up in the top-level frame,
the dict `Session.env`, when it is evaluated.  Compiled code holds no session
state, so the prelude's functions serve every session.

Values are plain Python objects (see `runtime`); an ordinal below w is an
`int`, so index arithmetic on naturals is Python's own.  Evaluation is strict
except for imap over infinite (or, by default, any) frames and filter over
infinite vectors, which build closures whose elements are computed and
memoized on selection.
"""

import functools
import itertools
import operator
import sys
import textwrap
import threading
from dataclasses import dataclass
from string import Template
from typing import Callable, Iterable, List, NoReturn, Optional, Sequence, Tuple

from .ordinal import Ordinal, UndefinedOrdinalOp, is_limit, limit_part, sub
from .runtime import (
    Box, Fault, FilterClosure, FunClosure, ImapClosure, Rec,
    ShapeVec, StrictArray, box_contains, forms_partition, linearize,
    render_shape, strict_value,
)
from .syntax import (
    PREFIX_FORMS, Apply, ArrayLiteral, BinOp, Binding, BoolConst, Cond, Expr, Full,
    Imap, Lambda, Letrec, OrdinalConst, ParseError, Select, Shape, Span, TopForm, Var,
    names, parse_expr, parse_program,
)

# Python frames allowed while a public entry runs; a level of recursion through
# an imap (a nats level) or through application takes one, the code of its body
RECURSION_LIMIT = 200_000
# the entries open in any thread and the limit the first found: the limit is the
# interpreter's, so the first entry raises it and the last one restores it
_ENTRIES, _open = threading.Lock(), [0, 0]
_SCALARS = {int, Ordinal, bool}  # the classes of a scalar that is no function
_NO_LIMIT = sys.maxsize  # `Session.limit` with no fuel set: above any count reached


def check_fuel(fuel) -> None:
    """Raise ValueError, naming `fuel`, unless it is None or an int >= 0."""
    if fuel is not None and (fuel.__class__ is not int or fuel < 0):  # a bool is no count
        raise ValueError(f"fuel must be None or an int >= 0, not {fuel!r}")


@dataclass
class EvalConfig:
    strict_finite_imaps: bool = False
    memoize: bool = True
    fuel: Optional[int] = None  # max rule applications; None = unlimited

    def __post_init__(self):
        if self.fuel is not None: check_fuel(self.fuel)  # no call for the default


class EvalError(Exception):
    """Evaluation failure; carries the error kind, source span, and rule."""

    def __init__(self, kind: str, message: str, span: Optional[Span], rule: str):
        self.kind = kind
        self.message = message
        self.span = span if span is not None else Span(0, 0, 0, 0)
        self.rule = rule
        where = f" at {span}" if span is not None and span.line else ""
        super().__init__(f"{kind}{where} (in {rule}): {message}")


def _check_bounds(closure: ImapClosure, index: ShapeVec) -> None:
    """Fault unless `index`, of the rank of `closure`'s shape, lies in it."""
    extents = iter(closure.shape)  # `next` costs less than `zip` over so short a tuple
    for i in index:  # an int is below every Ordinal (see runtime)
        if ((s := next(extents)).__class__ is not Ordinal or i.__class__ is not int) and not i < s:
            raise Fault("IndexOutOfBounds", f"index {render_shape(index)} outside shape "
                        f"{render_shape(closure.shape)}")


def _equal(lhs, rhs) -> bool:
    if (lhs.__class__ in _SCALARS and rhs.__class__ in _SCALARS
            and (lhs.__class__ is bool) is (rhs.__class__ is bool)):
        return lhs == rhs
    raise Fault("ShapeMismatch", "'=' compares two ordinals or two booleans")


### ---- compilation ----------------------------------------------------------------

# The code of a node: `code(s, env)` applies the node's rule in `env`, a chain
# of `(value, parent)` pairs (None when empty).  `_factory` makes it for a
# subtree of nodes (see `_flatten`).  Each node starts with a prologue that
# counts its rule inline, as a call per rule would cost more than most rules;
# fuel is a limit on that count (see `Session.fuel`).  `_PROLOGUE` counts a
# run of `$k` nodes at once: their prologues at one indent, with only
# `_QUIET` steps, which cannot call out or fault, between them.  When the
# count passes the limit, `Session._short` runs out at the node of the run
# that one prologue per node would.  A step's line `$prologue` is `_PROLOGUE` at `$k = 1`:
# an application's, as `_apply` counts, and a selection's and its step into a cell; only these,
# the helpers of `_out_of_fuel` and, where fuel is left, `apply1` and `_eval_reduce` count.
Code = Callable

_PROLOGUE = """\
s.rules += $k
if s.rules > s.limit: s._short($k)"""
_ELEMENTS = 16  # the longest array literal whose elements each get a temp
_QUIET = {"const", "hops", "lambda", *(f"vector{n}" for n in range(_ELEMENTS + 1))}
_T, _U = (f"{x}.__class__ is not int and {x}.__class__ is not Ordinal" for x in ("$t", "$u"))
_BINOP = f"""\
@t
?02 if {_T}: $t = s._force_scalar($t)
@u
?01 if {_U}: $u = s._force_scalar($u)
$check
$apply"""  # of two ordinals, only `sub`, `//` and `%` fail: `Session._entry` reports it
# the selection step, counted first: a tuple read by one natural in range (`$fit`, `$t[$i]`; a
# vector's ints are naturals), an imap with no cell shape by an index of its rank as `select`
# reads it, with no frame between levels, then the step into its cell counted; a miss runs the
# body `_miss` gives, or, with no call, the one it would give an index of ints (whose `max` is an
# int) in an open frame (`ImapClosure.open`; an int is below every Ordinal, see runtime)
_PICK = """\
$prologue
?02 if $t.__class__ is tuple and $fit: $t, $u = $t[$i], None
?13 if $fit: $t, $u = $t[$i], None
?02 elif $t.__class__ is ImapClosure and not $t.cell and len($u) == len($t.frame):
    ?02 $v = $t.memo.get($u)
    ?02 if $v is None: $v = ($t.open if $t.open and max($u).__class__ is int
                         ?02 else s._miss($t, $u))(s, ($u, $t.env, $t))
    ?02 $prologue
    ?02 if $v.__class__ not in _SCALARS: $v = s.select($v, ())
    ?02 $t, $u, $v = $v, None, None
else: $t, $u = s.select($t, $u), None"""
_CHECK = "\n".join(f"?{mask} if {test}: raise Fault(\"ShapeMismatch\", \"'$op' needs ordinal "
                   "scalar operands\")" for mask, test in ((0, f"{_T} or {_U}"), (2, _T), (1, _U)))
# an application of `$t` to `$u`: a cell followed and the function checked, then its body
_IS_FUNCTION, _CALL = ("if $t.__class__ is not FunClosure: $t = s._function($t)\n",
                       "$t, $u = $t.code(s, ($u, $t.env)), None")
_INTS = "$t.__class__ is int and $u.__class__ is int"  # Python's `-` where defined, and `=`
_OPS = {"<": "$t < $u", "<=": "$t <= $u", ">": "$t > $u", ">=": "$t >= $u", "+": "$t + $u",
        "-": f"$t - $u if {_INTS} and $t >= $u >= 0 else sub($t, $u)", "*": "$t * $u",
        "/": "$t // $u", "%": "$t % $u"}


def _array(n: int) -> str:
    """The step of an `n`-element array literal: each element in a temp of
    its own, a vector of ordinals built inline, and the temps cleared."""
    temps = [f"$t{k}" for k in range(n)]
    ordinals = " and ".join(f"({t}.__class__ is int or {t}.__class__ is Ordinal)" for t in temps)
    vector = f"$t = ({''.join(t + ', ' for t in temps)})"
    return "\n".join([f"@t{k}" for k in range(n)]
                     + [f"?0 if {ordinals}: {vector}",
                        f"?0 else: $t = s._nested_array([{', '.join(temps)}])", f"?1 {vector}"]
                     + [" = ".join(temps[1:] + ["None"])] * (n > 1))


# marker (see `_flatten`) -> (rule, step).  A step leaves its value in the
# temp `$t`.  "@t" stands for the lines of the next child, which leave its
# value in `$t`; "@u" for those of a second operand, in `$u`, which the step
# clears once used, so a temp holds no value its rule has done with (in a
# deep recursion, such a value stays alive on every level); "@v" for those of
# a third, in `$v`; "@tK" for those of an array literal's K-th element, in
# `$tK`.  `$a`...`$c` are arguments (a leaf's constant or top-level name, a
# hole's code, another node's fields) and `$env` the variable that holds its
# environment (a node's span is in `where`, see `_FUNCTION`).  A step reads this
# module's globals, so a name only a step uses, such as `is_limit`, is imported.
# A line tagged `?` and digits is kept only at the masks it lists (see `_flatten`): bit 1 is set
# where the first operand has the fact its step asks for, 2 the second; none dropped could fail.
_STEPS = {
    "const": ("const", "$t = $a"),
    # a name holds its value, or its empty `Rec` cell while its recursive definition runs
    "hops": ("var", "$t = $env$hops[0]"),
    "var": ("var", "$t = s.env.get($a)\nif $t is None: raise Fault("
                   "'UnboundVariable', f\"unbound variable '{$a}'\")"),
    "select": ("select", "@t\n@u\n?01 if $u.__class__ is not tuple: $u = s._force_ordinal_vector("
               "$u, \"selection index\")\n" + _PICK.replace("$fit", "len($u) == 1 and "
               "$u[0].__class__ is int and $u[0] < len($t)").replace("$i", "$u[0]")),
    # `x.[k]` for a natural `k`, an argument: a tuple read with no test of the index
    "select1": ("select", "@t\n@u\n" + _PICK.replace("$fit", "$a < len($t)").replace("$i", "$a")),
    # `Session._apply` done here: count, follow a cell, check, call
    "apply": ("apply", "@t\n@u\n$prologue\n" + _IS_FUNCTION + _CALL),
    # `f a b`, after "Making a fast curry" (ICFP 2004): `f`'s inner body, if fuel is left for its
    # `lambda` rule, goes to "apply2" in a list with its environment (no value is a list)
    "apply1": ("apply", "@t\n@u\n$prologue\n" + _IS_FUNCTION
               + "if $t.inner is not None and s.rules < s.limit:\n    s.rules += 1\n"
               + "    $t = [$t.inner, ($u, $t.env)]\nelse: " + _CALL),
    "apply2": ("apply", "@t\n@u\n$prologue\nif $t.__class__ is list: $t, $u = $t[0](s, ($u, "
               "$t[1])), None\nelse:\n" + textwrap.indent(_IS_FUNCTION + _CALL, "    ")),
    "cond": ("cond", """
        @t
        ?0 if $t.__class__ is not bool: $t = s._force_scalar($t)
        if $t is True:
            @t
        elif $t is False:
            @t
        else: raise Fault("ShapeMismatch", "the condition must be a boolean scalar")
        """),
    **{op: ("binop", _BINOP.replace("$apply", "$t, $u = $x, None").replace("$x", x)
            .replace("$check", _CHECK.replace("$op", op))) for op, x in _OPS.items()},
    # `=` also compares booleans, and two known ordinals with no test of their classes
    "=": ("binop", _BINOP.replace("$check", f"?012 $t, $u = $t == $u if {_INTS} else _equal($t, "
                                  "$u), None").replace("$apply", "?3 $t, $u = $t == $u, None")),
    None: (None, "$t = $a(s, $env)"),  # a hole: the code of another node
    # an imap body, run by each reader of a cell in the env `(index, closure.env, closure)`,
    # counted, then its cell checked and memoized: a step with no rule or node that is no hole
    "count": (None, "s.body_evals += 1\n@t\n?0 if $t.__class__ not in _SCALARS or $env[2].cell: "
                    "s._check_cell($env[2], $env[0], $t)\n"
                    "?1 if $env[2].cell: s._check_cell($env[2], $env[0], $t)\n"
                    "if s.config.memoize: $env[2].memo[$env[0]] = $t"),
    # a literal of more than `_ELEMENTS` elements, from their codes (a comprehension is a frame)
    "array": ("array", "$t = []\nfor $u in $a: $t.append($u(s, $env))\n"
                       "$t, $u = s._nested_array($t), None"),
    **{f"array{n}": ("array", _array(n)) for n in range(1, _ELEMENTS + 1)},
    # a literal of ordinal constants: its vector, an argument, after its elements'
    # rules; "elem" is such an element, which has a rule and no step
    **{f"vector{n}": ("array", "@t\n" * n + "$t = $a") for n in range(_ELEMENTS + 1)},
    "elem": ("const", ""),
    "lambda": ("lambda", "$t = FunClosure($a, $env, $b)"),
    # `$inner` extends `$env` for the body and a letrec's bound; later siblings do not see it
    "letrec": ("letrec", """
        $t = Rec($a)
        $inner = [$t, $env]
        s._letrec_depth += 1
        @u
        s._letrec_depth -= 1
        if $u is $t: $t.get()
        $t.value, $inner[0], $u = $u, $u, None
        @t
        """),
    "let": ("letrec", "?0 s._letrec_depth += 1\n@u\n?0 s._letrec_depth -= 1\n"  # no cell
                      "$inner, $u = ($u, $env), None\n@t"),
    "shape": ("shape", "@t\n$t = (len($t),) if $t.__class__ is tuple else s._shape_of($t)"),
    "islim": ("islim", f"@t\nif {_T}: $t = s._force_scalar($t)\nif {_T}: raise Fault("
                       "\"ShapeMismatch\", \"islim needs an ordinal scalar\")\n$t = is_limit($t)"),
    # the rarer rules end in a Session method, given the compiled bodies
    "imap": ("imap", "@t\n$t = s._eval_imap($env, $t, $a, $b, $c)"),
    # a lone `_(x)` generator, whose one box is the frame: no bounds, no partition check
    "imap_full": ("imap", """
        @t
        ?0 if $t.__class__ is not tuple: $t = s._force_ordinal_vector($t, "frame shape")
        if s.config.strict_finite_imaps: $t = s._eval_imap($env, $t, $a, $b, $c)
        else: $t = ImapClosure($t, () if $a is None else s._force_ordinal_vector($a(s, $env),
              "cell shape"), $env, ((((0,) * len($t), $t), $c[0]),))
        """),
    "reduce": ("reduce", """
        @t
        if not isinstance($t := s._value($t), FunClosure):  # a cell followed
            raise Fault("NotAFunction", "reduce needs a function as first argument")
        @u
        @v
        $t, $u, $v = s._eval_reduce($t, $u, $v), None, None
        """),
    "filter": ("filter", """
        @t
        $t = s._value($t)
        if not isinstance($t, FunClosure):
            raise Fault("NotAFunction", "filter needs a predicate function")
        @u
        $t, $u = s._eval_filter($t, $u), None
        """),
}
# class -> (marker, the fields of its children); a `BinOp`'s marker is its op,
# a prefix form's its keyword, an array literal's "array" and its length
_KINDS = {Select: ("select", "array", "index"), Apply: ("apply", "fun", "arg"),
          Cond: ("cond", "test", "then", "orelse"), BinOp: (None, "lhs", "rhs"),
          Shape: ("shape", "arg"), Letrec: ("letrec", "bound", "body"), Lambda: ("lambda",),
          ArrayLiteral: ("array",), Imap: ("imap", "frame"),
          **{cls: (keyword, *fields) for keyword, (cls, fields) in PREFIX_FORMS.items()}}
_EXPRESSIONS = {Var, OrdinalConst, BoolConst, *_KINDS}  # every expression class
# the markers of steps that run no compiled code and build no imap, settled as their
# masks say: a `let` whose bound has only these needs no `_letrec_depth` (see `_eval_imap`)
_NO_CODE = {*_QUIET, "var", "elem", ("select1", 1), ("cond", 1), ("let", 1),
            *((op, 3) for op in (*_OPS, "=")), *((f"array{n}", 1) for n in range(1, _ELEMENTS + 1))}
# a node opens at most one indented block, of which Python allows 100 nested;
# compiling a function peaks at about 35 KB a node, which can set peak memory
_NODES = 24

# `where` (each line's node, each node's rule and span) is data, not source: the one variable
# of `code` past its arguments (each is a frame slot), kept by a dead line for `Session._entry`
_FUNCTION = Template("""\
def make(where, $args):
    def code(s, env):
$body
        return t0
        where
    return code
""")


def _split(kind, rule: Optional[str], step: str) -> tuple:
    """The step of `kind` as `_source` reads it, made once: its rule, the fields and temps it
    names, whether it is `_QUIET`, and each line as (indent, a bit for each mask it is kept
    at, item): for a child's lines (temp offset, whether they see a letrec's `$inner`), else a
    Template."""
    lines = []
    for line in filter(None, textwrap.dedent(step).strip().split("\n")):
        text, masks, indent = line.lstrip(), 15, len(line) - len(line.lstrip())
        if text[:1] == "?":  # the masks it is kept at
            tag, _, text = text.partition(" ")
            masks = sum(1 << int(mask) for mask in tag[1:])
        if text[:1] == "@":  # a letrec's children see its `$inner`, a let's body only
            lines.append((indent, masks, (int(text[2:]) if text[2:] else "tuv".index(text[1]),
                                          rule == "letrec" and (kind == "letrec" or text == "@t"))))
        else:  # `$prologue` is `_PROLOGUE` at `$k = 1`: a rule of the step's own
            lines += ((indent, masks, Template(x)) for x in (
                _PROLOGUE.replace("$k", "1") if text == "$prologue" else text).split("\n"))
    return (rule, [field for field in "abc" if "$" + field in step], kind in _QUIET,
            _ELEMENTS * ("$t0" in step), tuple(lines))


_LINES = {kind: _split(kind, rule, step) for kind, (rule, step) in _STEPS.items()}


def _source(key: tuple) -> Tuple[str, tuple, tuple]:
    """The source of the `make(where, *args)` of the code `key` describes (see
    `_flatten`), its line table (the node of each line, whose span and rule a fault
    raised there takes; a run's prologue has its first node's, an imap body's own lines
    None) and each node's rule.  A node's lines are its step, after its run's `_PROLOGUE`."""
    body, nodes, rules, args, runs = [], [], [], [], []
    run = None  # the open run: [its indent, its first line, its nodes]
    markers = iter(key)

    def emit(h, pad, node, level):
        nonlocal run
        marker, mask = m if (m := next(markers)).__class__ is tuple else (m, 0)
        hops = marker.__class__ is int
        rule, fields, quiet, temps, lines = _LINES["hops" if hops else marker]
        names = {"t": f"t{h}", "u": f"t{h + 1}", "v": f"t{h + 2}", "env": f"env{level or ''}",
                 "inner": f"env{level + 1}", "hops": "[1]" * (hops and marker),
                 **{f"t{k}": f"t{h + k}" for k in range(temps)}}
        if rule is not None:  # a node, not a hole or the count
            node = len(rules)
            rules.append(rule)
            if run is not None and run[0] == pad:
                run[2] += 1
            else:
                run = [pad, len(body), 1]
                runs.append(run)
                body.extend(("", ""))
                nodes.extend((node, node))
        for field in fields:
            names[field] = f"a{len(args)}"
            args.append(names[field])
        for indent, masks, item in lines:
            if not masks >> mask & 1: continue  # a line its facts settle
            if item.__class__ is tuple:
                emit(h + item[0], pad + indent, node, level + item[1])
            else:
                body.append(" " * (pad + indent) + item.substitute(names))
                nodes.append(node)
                if not quiet:
                    run = None

    emit(0, 8, None, 0)  # an imap body's own lines, the count's, have no node
    for pad, first, k in runs:
        body[first:first + 2] = [" " * pad + line
                                 for line in _PROLOGUE.replace("$k", str(k)).split("\n")]
    return (_FUNCTION.substitute(args=", ".join(args), body="\n".join(body)),
            tuple(nodes), tuple(rules))


@functools.lru_cache(maxsize=256)
def _factory(key: tuple):
    """`make` of `_source(key)`, compiled with this module's globals as the file
    `<heh RULE>` of its root's rule, with the line table and rules of `where`.  Codes
    of one shape share a key; the cache is bounded, as each REPL entry is compiled anew."""
    source, nodes, rules = _source(key)
    namespace: dict = {}
    exec(compile(source, f"<heh {rules[0]}>", "exec"), globals(), namespace)
    return namespace["make"], nodes, rules


_VALUE, _SPAN = operator.attrgetter("value"), operator.attrgetter("span")


def _flatten(node: Expr, scope: tuple, key: list, spans: list, args: list):
    """Append to `key` a marker for each node of the fused subtree at `node`, in evaluation
    order, to `spans` its span, and to `args` a leaf's constant or top-level name and the codes
    of lambda and imap bodies; return its fact, the class its value is known to have: `Ordinal`
    (an int or an Ordinal), `bool`, `tuple` (a vector of ordinals) or None.  `scope` holds the
    names bound around it, innermost first, each followed by its fact; a name's marker is its
    depth in `env`.  Where facts settle lines of its step (see `_STEPS`), a marker is `(marker,
    mask)`: bit 1 for its first operand's, 2 its second's (a `let`'s 1: its bound runs
    `_NO_CODE`).  A literal of more than `_ELEMENTS` elements is an `array` node, the codes of
    its elements an argument; a node past `_NODES` nodes is a hole: marker None, its code an
    argument."""
    cls = node.__class__
    if cls is Var and node.name in scope:
        key.append((depth := scope.index(node.name)) >> 1)
        spans.append(node.span)
        return scope[depth + 1]
    if cls is Var or cls is OrdinalConst or cls is BoolConst:
        key.append("var" if cls is Var else "const")
        spans.append(node.span)
        args.append(node.name if cls is Var else node.value)
        return None if cls is Var else Ordinal if cls is OrdinalConst else bool
    if len(key) >= _NODES:
        key.append(None)
        args.append(compile_expr(node, scope))
        return None
    at, (marker, *fields), mask, fact = len(key), _KINDS[cls], 0, None
    key.append(marker or node.op)
    spans.append(node.span)
    if cls is BinOp:
        mask = ((_flatten(node.lhs, scope, key, spans, args) is Ordinal)
                | (_flatten(node.rhs, scope, key, spans, args) is Ordinal) << 1)
        fact = bool if node.op in ("<", "<=", ">", ">=", "=") else Ordinal
    elif cls is Select:
        k = node.index.elements if node.index.__class__ is ArrayLiteral else ()
        if len(k) == 1 and k[0].__class__ is OrdinalConst and k[0].value.__class__ is int:
            key[at] = "select1"  # `x.[k]` for a natural `k`, an argument of its step
            args.append(k[0].value)
        mask = _flatten(node.array, scope, key, spans, args) is tuple
        if _flatten(node.index, scope, key, spans, args) is tuple and key[at] == "select": mask |= 2
        fact = Ordinal if mask & 1 else None  # a vector's element
    elif cls is Cond:
        mask = _flatten(node.test, scope, key, spans, args) is bool
        fact = _flatten(node.then, scope, key, spans, args)
        if _flatten(node.orelse, scope, key, spans, args) is not fact: fact = None
    elif cls is ArrayLiteral and len(node.elements) > _ELEMENTS:
        args.append([compile_expr(e, scope) for e in node.elements])
    elif cls is ArrayLiteral and {*map(type, node.elements)} <= {OrdinalConst}:
        key[at], fact = f"vector{len(node.elements)}", tuple  # then an "elem" for each element
        args.append(tuple(map(_VALUE, node.elements)))
        key += ["elem"] * len(node.elements)
        spans += map(_SPAN, node.elements)
    elif cls is ArrayLiteral:
        key[at], mask = key[at] + str(len(node.elements)), 1
        for element in node.elements:
            mask &= _flatten(element, scope, key, spans, args) is Ordinal
        fact = tuple if mask else None
    elif cls is Letrec:  # a "let" if its bound does not name it: no cell, and only its
        if names(node.bound, node.name):  # body in the name's scope; else a `Rec` cell's
            args.append(node.name)
            scope = (node.name, None) + scope
        else: key[at] = "let"
        start, bound = len(key), _flatten(node.bound, scope, key, spans, args)
        if key[at] == "let":
            mask = all(marker.__class__ is int or marker in _NO_CODE for marker in key[start:])
            scope = (node.name, bound) + scope
        fact = _flatten(node.body, scope, key, spans, args)
    elif cls is Lambda:
        args += _lambda_codes(node, scope)
    elif cls is Imap:  # a lone `_(x)` generator's imap is built in the step
        gens = [(None, None) if isinstance(gen, Full) else
                (compile_expr(gen.lower, scope), compile_expr(gen.upper, scope))
                for gen, _ in node.partitions]
        args += (None if node.cell is None else compile_expr(node.cell, scope), gens,
                 [compile_expr(e, (gen.var, tuple) + scope, True) for gen, e in node.partitions])
        if gens == [(None, None)]: key[at] = "imap_full"
        mask = _flatten(node.frame, scope, key, spans, args) is tuple and key[at] == "imap_full"
    else:
        if cls is Apply and node.fun.__class__ is Apply and len(key) < _NODES:
            key[at:], fields = ["apply2", "apply1"], [node.fun.fun, node.fun.arg, node.arg]
            spans.append(node.fun.span)  # of `f a`, after that of `f a b`
        else: fields = map(node.__getattribute__, fields)  # no comprehension: no frame
        for child in fields:
            _flatten(child, scope, key, spans, args)
        fact = bool if marker == "islim" else tuple if marker == "shape" else None
    if mask: key[at] = (key[at], mask)
    return fact


def _lambda_codes(node: Lambda, scope: tuple) -> Tuple[Code, Optional[Code]]:
    """The code of `node`'s body, and of its body's body if that is a lambda, else None."""
    body, scope = node.body, (node.param, None) + scope
    if body.__class__ is not Lambda: return compile_expr(body, scope), None
    codes, (make, nodes, rules) = _lambda_codes(body, scope), _factory(("lambda",))
    return make((nodes, rules, (body.span,)), *codes), codes[0]


def compile_expr(node: Expr, scope: tuple = (), body: bool = False) -> Code:
    """The code of `node`; `scope` holds the names bound around it by lambdas,
    `letrec`s and imap generators, innermost first, each followed by its fact
    (see `_flatten`).  The code of an imap `body` first adds one to `body_evals`,
    and last checks and memoizes its cell, a test a scalar's fact settles.
    Source text reaches the code only as an argument, never as Python source."""
    if node.__class__ not in _EXPRESSIONS:
        raise TypeError(f"not an expression: {node!r}")
    key, spans, args = [], [], []
    fact = _flatten(node, scope, key, spans, args)
    if body: key.insert(0, ("count", 1) if fact is Ordinal or fact is bool else "count")
    make, nodes, rules = _factory(tuple(key))
    return make((nodes, rules, tuple(spans)), *args)


def compile_program(source: str) -> List[Tuple[TopForm, Code]]:
    """Each top-level form of `source` paired with its code; a binding's
    code is that of its bound expression."""
    return [(form, compile_expr(form.expr if isinstance(form, Binding) else form))
            for form in parse_program(source)]


class Session:
    """One evaluation session: top-level frame, fuel, stats."""

    def __init__(self, config: Optional[EvalConfig] = None):
        self.config = config or EvalConfig()
        self.env: dict = {}  # the top-level frame: name -> value
        self.rules = 0  # the rules applied; fuel is a limit on this count
        self.limit = _NO_LIMIT  # fuel is checked again: a config can change once made
        if self.config.fuel is not None: self.fuel = self.config.fuel
        self.body_evals = self.predicate_calls = 0  # imap bodies run, filter predicates applied
        self._letrec_depth = 0  # the `letrec` bounds being evaluated; `_entry` zeroes it

    @property
    def fuel(self) -> Optional[int]:
        """The rules left before evaluation runs out, or None for no limit;
        setting it allows that many more rules."""
        return None if self.limit == _NO_LIMIT else max(self.limit - self.rules, 0)

    @fuel.setter
    def fuel(self, fuel: Optional[int]) -> None:
        check_fuel(fuel)
        self.limit = _NO_LIMIT if fuel is None else self.rules + fuel

    @property
    def stats(self) -> dict:
        """A new dict of the three counters, read from their attributes."""
        return {"rules": self.rules, "body_evals": self.body_evals,
                "predicate_calls": self.predicate_calls}

    ### plumbing

    def _entry(self, rule: str, thunk):
        """`thunk()` run as a public entry, the one place where an internal failure becomes
        an error: a `Fault`, or a binop's failed `sub`, `//` or `%`, an `EvalError` at the
        innermost line with a node of a compiled `code` it passed through (of `rule` with no
        span if none), running out of Python frames `DepthExceeded`, and an `EvalError` of
        `_run_binding` or a `ParseError` as it is.  An imap body's own lines have no node, so a
        fault raised there, in the cell check, takes the node of the reader that ran the body.
        Each handler builds the error, raised after it with no traceback of the failure, so no
        frame of the failure outlives it.  The recursion limit is raised while an entry is open
        (see `_open`), and `_letrec_depth`, which a failure leaves raised, is zeroed after."""
        with _ENTRIES:
            if not _open[0]:
                _open[1] = sys.getrecursionlimit()
                sys.setrecursionlimit(max(_open[1], RECURSION_LIMIT))
            _open[0] += 1
        try:
            return thunk()
        except (Fault, UndefinedOrdinalOp, ZeroDivisionError) as e:
            kind, message = ((e.kind, e.message) if isinstance(e, Fault) else
                             ("UndefinedOrdinalOp", str(e)) if isinstance(e, UndefinedOrdinalOp)
                             else ("DivisionByZero", "division by zero"))
            span, codes, tb, e.__traceback__ = None, [], e.__traceback__, None
            while tb is not None:  # the frames of compiled `code`s it passed through
                if "where" in tb.tb_frame.f_code.co_freevars: codes.append(tb)
                tb = tb.tb_next
            while codes:  # to the innermost at a line with a node (see `_FUNCTION`); `codes`
                where, line = codes[-1].tb_frame.f_locals["where"], codes.pop().tb_lineno
                if (i := where[0][line - 3]) is not None:  # is cleared, as the error's
                    i, codes = i + getattr(e, "skip", 0), None  # traceback keeps this frame
                    span, rule = where[2][i], where[1][i]
            error = EvalError(kind, message, span, rule)
        except (EvalError, ParseError) as e:  # of `_run_binding` or the parser: no compiled code
            error = e.with_traceback(None)
        except RecursionError:
            error = EvalError("DepthExceeded", "evaluation nested deeper than the interpreter's "
                              f"recursion limit ({sys.getrecursionlimit()} frames)", None, rule)
        finally:
            with _ENTRIES:
                _open[0] -= 1
                if not _open[0]: sys.setrecursionlimit(_open[1])
            self._letrec_depth = 0
        try: raise error
        finally: del error  # its traceback keeps this frame, which must not keep it

    def _out_of_fuel(self) -> Fault:
        """The fault of a rule that found no fuel left, which `_short` raises.
        Each rule counts itself inline, with `_PROLOGUE` or the same two lines
        in `_apply`, `select`, `_scan`, `_force_scalar` or `select_each`: `rules
        += k` for `k` rules, then `_short(k)` if that passes `limit`."""
        return Fault("FuelExhausted", "evaluation fuel exhausted")

    def _short(self, k: int) -> NoReturn:
        """The end of `k` rules, counted at once, that passed the limit with `f < k` rules left
        before them: the first `f` stay counted, and the next counts and runs out, raising
        `_out_of_fuel()` at its node (its frame holds the fault, a cycle `_entry` breaks)."""
        f = max(self.limit - self.rules + k, 0)
        self.rules += f + 1 - k
        fault = self._out_of_fuel()
        fault.skip = f
        raise fault

    @staticmethod
    def _value(value):
        """`value` with recursion cells followed; an empty cell faults."""
        while value.__class__ is Rec:
            value = value.get()
        return value

    ### rules with a Session method

    def _apply(self, fun, arg):
        self.rules += 1
        if self.rules > self.limit: self._short(1)
        if fun.__class__ is not FunClosure: fun = self._function(fun)
        return fun.code(self, (arg, fun.env))

    def _function(self, fun) -> FunClosure:
        """`fun`, a cell followed, as the function an application calls."""
        fun = self._value(fun)
        if fun.__class__ is not FunClosure:
            raise Fault("NotAFunction", "only functions can be applied")
        return fun

    def _nested_array(self, values: list):
        """The array literal of `values`, never empty (`[]` is a `vector0`).
        A list, not a generator run from C, so nesting costs no C stack."""
        forced = [self._force_strict(v, "ShapeMismatch", "array elements must have finite shape")
                  for v in values]
        first = forced[0][0]
        for other, _ in forced[1:]:
            if other != first:
                raise Fault("HeterogeneousNesting",
                            "array elements have different shapes: "
                            f"{render_shape(first)} vs {render_shape(other)}")
        return strict_value((len(values),) + first, [x for _, d in forced for x in d])

    def _shape_of(self, value) -> ShapeVec:
        value = self._value(value)
        cls = value.__class__
        if cls is tuple:
            return (len(value),)
        if cls is StrictArray or cls is ImapClosure:
            return value.shape
        if cls is FilterClosure:
            lam, k = limit_part(value.arg_shape[0])
            return (lam,) if k == 0 else (lam + len(self._scan(value, lam, None)),)
        return ()

    def _eval_reduce(self, fun, acc, array):  # `fun acc x` for each `x`, as `apply2` makes it
        _, data = self._force_strict(array, "ReduceOnInfinite", "reduce needs a finite array")
        for x in data:
            if fun.inner is not None and self.rules < self.limit - 2:
                self.rules += 3
                acc = fun.inner(self, (x, (acc, fun.env)))
            else: acc = self._apply(self._apply(fun, acc), x)
        return acc

    ### imap

    def _eval_imap(self, env, frame, cell: Optional[Code], gens, bodies):
        """The imap of any generators but a lone `_(x)`, which the `imap_full` step builds
        unless `strict_finite_imaps` is set: `frame` is the frame's value, `bodies` the code of
        each body, `gens` each generator's (lower, upper) bound codes, (None, None) for `_(x)`."""
        frame = self._force_ordinal_vector(frame, "frame shape")
        cell = () if cell is None else self._force_ordinal_vector(cell(self, env), "cell shape")
        frame_box: Box = ((0,) * len(frame), frame)
        parts = []
        for (lower, upper), body in zip(gens, bodies):
            if lower is None:
                box = frame_box
            else:
                lower = self._force_ordinal_vector(lower(self, env), "generator bound")
                upper = self._force_ordinal_vector(upper(self, env), "generator bound")
                if len(lower) != len(frame) or len(upper) != len(frame):
                    raise Fault("RankMismatch", "generator bounds must match the frame "
                                f"rank ({len(frame)})")
                if any(l > u for l, u in zip(lower, upper)):
                    raise Fault("NotAPartition", "generator bounds are inverted")
                box = (lower, upper)
            parts.append((box, body))
        problem = forms_partition(frame_box, [box for box, _ in parts])
        if problem is not None:
            raise Fault("NotAPartition", problem)
        closure = ImapClosure(frame, cell, env, tuple(parts))
        if (self.config.strict_finite_imaps and self._letrec_depth == 0
                and all(s.__class__ is int for s in closure.shape)):
            return strict_value(closure.shape, self._force_ordinal_vector(closure, None))
        return closure

    def _miss(self, closure: ImapClosure, index: ShapeVec) -> Code:
        """The body's code for `index`, a memo miss of the compiled `select`
        step or of `select`, or of `_scan` or strict forcing among several
        partitions: heh's one partition search, and the test of the index
        (`select` first tests one with a cell part against the shape).  It
        counts nothing, and runs nothing: the body counts its own run, and
        checks and memoizes its cell.  The search is the test: the boxes tile
        the frame, so an index in none is outside it.  A rank-1 natural's box
        is found inline, and an open frame holds every index of naturals."""
        if closure.open is None:  # one partition, over a frame of rank >= 1 and no int extent
            closure.open = (closure.frame != () and int not in map(type, closure.frame)
                            and len(closure.partitions) == 1 and closure.partitions[0][1])
        if len(index) == 1 and index[0].__class__ is int:  # a natural, below every Ordinal:
            i = index[0]  # its box's lower bound is an int at most `i`, its upper an
            for ((l,), (u,)), code in closure.partitions:  # Ordinal or an int above `i`
                if l.__class__ is int and l <= i and (u.__class__ is not int or i < u): return code
        elif closure.open and max(index).__class__ is int:  # each below its Ordinal extent
            return closure.open
        for box, code in closure.partitions:
            if box_contains(box, index): return code
        _check_bounds(closure, index)  # in no box, so outside the frame: it raises

    def _check_cell(self, closure: ImapClosure, index: ShapeVec, result) -> None:
        """Fault unless the cell value `result` at `index` has the cell shape."""
        shape = self._shape_of(result)
        if shape != closure.cell:
            raise Fault("ShapeMismatch", f"imap element at {render_shape(index)} has shape "
                        f"{render_shape(shape)}, cell shape is {render_shape(closure.cell)}")

    ### selection

    def select(self, value, index: ShapeVec):
        """`value` at `index`, a selection its caller counted: only the step into an imap's
        cell counts, once read, then a scalar cell is returned, or the rest selects in it."""
        if value.__class__ is Rec: value = self._value(value)  # a cell passed on
        cls = value.__class__
        if cls is tuple:  # the compiled `select` step reads one in range itself
            return value[linearize((len(value),), index)]
        if cls is StrictArray:
            return value.data[linearize(value.shape, index)]
        if cls is ImapClosure:  # read as the compiled `select` step reads one with no cell shape
            if len(index) != len(value.shape):
                raise Fault("RankMismatch",
                            f"index of length {len(index)} into rank-{len(value.shape)} imap")
            if value.cell: _check_bounds(value, index)  # `_miss` tests only the frame part
            at = index[:len(value.frame)]
            cell = value.memo.get(at)  # a key is in range: only a body, run in range, writes one
            if cell is None: cell = self._miss(value, at)(self, (at, value.env, value))
            self.rules += 1
            if self.rules > self.limit: self._short(1)
            return cell if cell.__class__ in _SCALARS else self.select(cell, index[len(at):])
        if cls is FilterClosure:
            if len(index) != 1:
                raise Fault("RankMismatch", "filter results are 1-dimensional")
            xi, n = limit_part(index[0])
            return self._scan(value, xi, n)[n]
        # a scalar
        if index == ():
            return value
        if isinstance(value, FunClosure):
            raise Fault("IrreducibleTerm", "cannot select into a function")
        raise Fault("RankMismatch", f"index of length {len(index)} into rank-0 array")

    ### filter

    def _eval_filter(self, predicate: FunClosure, array):
        array = self._value(array)
        if isinstance(array, FunClosure):
            raise Fault("FilterRankError", "filter needs a 1-dimensional array")
        shape = self._shape_of(array)
        if len(shape) != 1:
            raise Fault("FilterRankError",
                        f"filter needs a 1-dimensional array, got shape "
                        f"{render_shape(shape)}")
        if shape[0].__class__ is int:
            _, data = self._force_strict(array, "FilterRankError",
                                         "filter argument is not strict")
            kept = []
            for x in data:
                self.predicate_calls += 1
                accepted = self._force_scalar(self._apply(predicate, x))
                if not isinstance(accepted, bool):
                    raise Fault("ShapeMismatch", "the filter predicate must return a boolean")
                if accepted: kept.append(x)
            return strict_value((len(kept),), kept)
        return FilterClosure(predicate, array, shape)

    def _scan(self, fc: FilterClosure, xi, n) -> list:
        """The prefix of the segment of `fc` from `xi`, scanned until it holds
        element `n` or, for None, to the end of the argument.  Each element
        is selected as `select` would, then given to the predicate as
        `_eval_filter` gives a finite array's, with the same rules in the same
        order.  An element counts as scanned only once the predicate has
        answered, so a fault or interrupt leaves it to be inspected again."""
        segment = fc.partitions[xi]
        prefix, alpha, argument = segment.prefix, fc.arg_shape[0], fc.argument
        pcode, penv = fc.predicate.code, fc.predicate.env
        if cells := argument.__class__ is ImapClosure and argument.cell == ():
            memo, env, parts = argument.memo, argument.env, argument.partitions
            code = parts[0][1] if len(parts) == 1 else None
        while n is None or len(prefix) <= n:
            source = xi + segment.scan
            if source.__class__ is not int and not source < alpha:  # alpha > every int
                if n is None:
                    break
                raise Fault("IndexOutOfBounds", f"filter scan passed the end of the argument "
                            f"(shape {render_shape(fc.arg_shape)}) looking for element "
                            f"[{xi + n}]")
            self.rules += 1  # the selection
            if self.rules > self.limit: self._short(1)
            if cells:  # `select`, the bounds just tested, reading the cell as strict forcing does
                element = memo.get(index := (source,))
                if element is None:
                    element = (code or self._miss(argument, index))(self, (index, env, argument))
                self.rules += 1  # the step into the cell
                if self.rules > self.limit: self._short(1)
                if element.__class__ not in _SCALARS: element = self.select(element, ())
            else:
                element = self.select(argument, (source,))
            self.predicate_calls += 1
            self.rules += 1  # applying the predicate
            if self.rules > self.limit: self._short(1)
            accepted = pcode(self, (element, penv))
            if accepted.__class__ is not bool:
                accepted = self._force_scalar(accepted)
                if accepted.__class__ is not bool:
                    raise Fault("ShapeMismatch", "the filter predicate must return a boolean")
            if accepted:
                prefix.append(element)
            segment.scan += 1
        return prefix

    ### forcing helpers

    def _force_scalar(self, value):
        """A scalar value: an ordinal, a bool, or a FunClosure."""
        value = self._value(value)
        cls = value.__class__
        if cls in _SCALARS or cls is FunClosure:
            return value
        shape = self._shape_of(value)
        if shape == ():
            self.rules += 1  # the selection
            if self.rules > self.limit: self._short(1)
            return self._force_scalar(self.select(value, ()))
        raise Fault("ShapeMismatch",
                    f"expected a scalar, got shape {render_shape(shape)}")

    def _force_ordinal_vector(self, value, what: Optional[str]):
        """A rank-1 value forced to a tuple of ordinals, each forced before
        any is checked; a tuple is returned as it is.  A finite imap is
        forced in one loop, which reads each cell with no selection rule:
        a memo hit as it is, and for a miss the body (which counts itself
        and checks and memoizes its cell) of its one partition, or of
        several the one `_miss` finds.  With `what` None, `value` is any
        finite imap, and the result is its row-major data: strict forcing."""
        if value.__class__ is tuple:
            return value
        if value.__class__ is ImapClosure and (what is None or len(value.shape) == 1
                                               and value.shape[0].__class__ is int):
            memo, parts, env, frame, data = value.memo, value.partitions, value.env, value.frame, []
            code = parts[0][1] if len(parts) == 1 else None
            rank1 = len(frame) == 1
            for index in range(frame[0]) if rank1 else itertools.product(*map(range, frame)):
                if rank1: index = (index,)
                cell = memo.get(index)
                if cell is None:
                    cell = (code or self._miss(value, index))(self, (index, env, value))
                if cell.__class__ in _SCALARS:
                    data.append(cell)
                else:  # of the cell shape, by the check: a finite array, or a function
                    data.extend(self._force_strict(cell, "ShapeMismatch",
                                                   "imap cell is not finite")[1])
            if what is None:
                return data
        else:
            shape = self._shape_of(value)
            if len(shape) != 1:
                raise Fault("RankMismatch",
                            f"{what} must be a vector, got shape {render_shape(shape)}")
            _, data = self._force_strict(value, "ShapeMismatch",
                                         f"{what} must be a finite vector")
        for x in data:
            if x.__class__ is not int and x.__class__ is not Ordinal:
                raise Fault("ShapeMismatch", f"{what} components must be ordinals")
        return tuple(data)

    def _force_strict(self, value, kind: str, message: str) -> Tuple[ShapeVec, list]:
        """(shape, row-major data) of a fully evaluated finite value, with
        ((), [x]) for a scalar x; `kind` is the error for infinite shapes.
        A strict array's data are its own list, not a copy."""
        value = self._value(value)
        if value.__class__ is tuple:
            return (len(value),), list(value)
        if isinstance(value, StrictArray):
            return value.shape, value.data
        if isinstance(value, ImapClosure) and all(s.__class__ is int for s in value.shape):
            return value.shape, self._force_ordinal_vector(value, None)
        if isinstance(value, (ImapClosure, FilterClosure)):
            raise Fault(kind, message + f" (shape {render_shape(self._shape_of(value))})")
        return (), [value]

    ### program and embedding interface

    def run_program(self, source: str):
        """Evaluate top-level forms; bindings persist.  Returns the last
        form's value (a binding's value for trailing bindings)."""
        return self._entry("eval", lambda: self._run(compile_program(source)))

    def _run(self, program):
        last = None
        for form, code in program:
            last = self._run_binding(form, code) if isinstance(form, Binding) else code(self, None)
        return self._value(last)  # a cell passed on while its definition ran is followed

    def _run_binding(self, form: Binding, code: Code):
        if not form.recursive:
            value = self.env[form.name] = self._value(code(self, None))
            return value
        # evaluated as a `letrec` bound is, with its name bound to an empty cell
        previous = self.env.get(form.name)
        cell = self.env[form.name] = Rec(form.name)
        self._letrec_depth += 1
        try:
            value = code(self, None)
            if value is cell:
                raise EvalError("UnboundVariable", f"premature recursive reference to "
                                f"'{form.name}'", form.span, "letrec")
            value = self._value(value)
        except BaseException:
            if previous is None:
                del self.env[form.name]
            else:
                self.env[form.name] = previous
            raise
        self._letrec_depth -= 1
        cell.value = self.env[form.name] = value
        return value

    def eval_source(self, source: str):
        return self._entry("eval", lambda: self._value(
            compile_expr(parse_expr(source))(self, None)))

    def select_at(self, value, index: Sequence):
        """Scalar at `index` (a sequence of ints/Ordinals) within `value`; a
        boxed natural `Ordinal(n)` in it is unboxed to n."""
        scalars: list = []
        self.select_each(value, (index,), scalars.append)
        return scalars[0]

    def select_each(self, value, indices: Iterable[Sequence], out: Callable) -> None:
        """`out(self.select_at(value, index))` for each of `indices` in turn, in one entry."""
        def run():
            for index in indices:
                index = tuple(x if x.__class__ is int and x >= 0 else Ordinal._make(
                    Ordinal(x).terms) for x in index)
                self.rules += 1
                if self.rules > self.limit: self._short(1)
                out(self._force_scalar(self.select(value, index)))
        self._entry("select", run)

    def strict_at(self, value) -> Tuple[ShapeVec, list]:
        """(shape, row-major data) of a finite `value`, forcing every element;
        the data are a fresh list, which the caller may change."""
        shape, data = self._entry("select", lambda: self._force_strict(
            value, "ShapeMismatch", "expected a finite shape"))
        return shape, list(data)

    def shape_at(self, value) -> ShapeVec:
        return self._entry("shape", lambda: self._shape_of(value))


### ---- embedding interface -------------------------------------------------------


class Result:
    """A program's final value together with the session that owns it."""

    def __init__(self, session: Session, value):
        self.session = session
        self.value = value  # None when the program has no forms

    @property
    def shape(self) -> Optional[ShapeVec]:
        return None if self.value is None else self.session.shape_at(self.value)


def new_session(config: Optional[EvalConfig] = None, prelude: bool = True) -> Session:
    """A session ready for a user program, with the prelude bound if asked."""
    session = Session(config)
    if prelude:
        from .prelude import load_prelude
        load_prelude(session)
    return session


def evaluate(source: str, config: Optional[EvalConfig] = None,
             prelude: bool = True) -> Result:
    """Run a program (bindings plus optional trailing expression)."""
    session = new_session(config, prelude)
    return Result(session, session.run_program(source))


def probe(result: Result, index: Sequence):
    """Scalar at `index` within a Result's value."""
    if result.value is None:
        raise ValueError("the program produced no value")
    return result.session.select_at(result.value, index)
