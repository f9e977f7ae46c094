"""Big-step evaluator: sessions, configuration, and all evaluation rules.

A program is compiled before it runs: `compile_expr` translates each AST
node once into a closure `code(session, env)` that applies that node's rule
(closure generation, after Feeley and Lapalme, "Using closures for code
generation", 1987).  Every node's code comes from one template, `_RULE`,
which counts the rule, spends a unit of fuel and wraps a fault at the node
around the rule's own step from `_STEPS`.  A name bound by a lambda, a
`letrec` or an imap generator is resolved at compile time to its depth in
`env`, a chain of `(value, parent)` tuples; any other name is looked up by
name in the session's top-level frame, the dict `Session.env`, when it is
evaluated.  Compiled code holds no session state, so one compilation of the
prelude serves every session.

Values are plain Python objects (see `runtime`); an ordinal below w is an
`int`, so index arithmetic on naturals is Python's own.  Evaluation is strict
except for imap over infinite (or, by default, any) frames and filter over
infinite vectors, which build closures whose elements are computed and
memoized on selection.
"""

import itertools
import operator
import sys
import textwrap
from dataclasses import dataclass
from typing import Callable, List, NoReturn, Optional, Sequence, Tuple

from .ordinal import Ordinal, UndefinedOrdinalOp, is_limit, limit_part, sub
from .runtime import (
    Box, Fault, FilterClosure, FilterSegment, FunClosure, ImapClosure, Rec,
    ShapeVec, StrictArray, box_contains, forms_partition, linearize,
    render_shape, strict_value,
)
from .syntax import (
    Apply, ArrayLiteral, BinOp, Binding, BoolConst, Cond, Expr, Filter, Full,
    Imap, IsLim, Lambda, Letrec, OrdinalConst, Reduce, Select, Shape, Span,
    TopForm, Var, parse_expr, parse_program,
)

# Python frames allowed while a public entry runs; a nats level takes four
# (the code of its sum and of its selection, `select`, `_cell_value`)
RECURSION_LIMIT = 200_000


@dataclass
class EvalConfig:
    strict_finite_imaps: bool = False
    memoize: bool = True
    fuel: Optional[int] = None  # max rule applications; None = unlimited


class EvalError(Exception):
    """Evaluation failure; carries the error kind, source span, and rule."""

    def __init__(self, kind: str, message: str, span: Optional[Span], rule: str):
        self.kind = kind
        self.message = message
        self.span = span if span is not None else Span(0, 0, 0, 0)
        self.rule = rule
        where = f" at {span}" if span is not None and span.line else ""
        super().__init__(f"{kind}{where} (in {rule}): {message}")


_RULE_NAMES = {
    OrdinalConst: "const", BoolConst: "const", Var: "var", Lambda: "lambda",
    Apply: "apply", Cond: "cond", Letrec: "letrec", BinOp: "binop",
    ArrayLiteral: "array", Select: "select", Shape: "shape", Reduce: "reduce",
    Imap: "imap", Filter: "filter", IsLim: "islim",
}


# `=` is not here: it also compares booleans, so its code is `_equal`
_ORDINAL_OPS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": sub, "*": operator.mul,
    "/": operator.floordiv, "%": operator.mod,
}


def _equal(lhs, rhs) -> bool:
    if isinstance(lhs, bool) and isinstance(rhs, bool):
        return lhs == rhs
    if ((lhs.__class__ is int or lhs.__class__ is Ordinal)
            and (rhs.__class__ is int or rhs.__class__ is Ordinal)):
        return lhs == rhs
    raise Fault("ShapeMismatch", "'=' compares two ordinals or two booleans")


### ---- compilation ----------------------------------------------------------------

# The code of a node: `code(s, env)` applies the node's rule in `env`, a chain
# of `(value, parent)` tuples (None when empty).  Every code is made from
# `_RULE`, the one place where a node counts its rule, spends one unit of
# fuel (inline, as a call per rule would cost more than most rules) and
# turns a `Fault` raised by its step into an `EvalError` at its node;
# `Session._apply` and `Session.select` are the only other places that count.
Code = Callable

_RULE = """\
def make(span, rule, {fields}):
    def code(s, env):
        try:
            s.stats["rules"] += 1
            if s.fuel is not None:
                s.fuel = s.fuel - 1 if s.fuel > 0 else s._out_of_fuel()
{step}
        except Fault as fault:
            raise EvalError(fault.kind, fault.message, span, rule) from None
    return code
"""

# rule name -> (the fields `compile_expr` passes to its `make`, its step).  A
# step reads this module's globals, so a name that only a step uses, such as
# `is_limit`, is imported all the same.
_STEPS = {
    "const": ("value", "return value"),
    "var": ("name, hops", """
        if hops is None:  # not bound lexically: a top-level name
            value = s.env.get(name)
            if value is None:
                raise Fault("UnboundVariable", f"unbound variable '{name}'")
        else:
            for _ in hops:
                env = env[1]
            value = env[0]
        # an empty cell is passed on unforced; only forcing it is an error
        while value.__class__ is Rec and value.value is not None:
            value = value.value
        return value
        """),
    "select": ("array, index", """
        value, vec = array(s, env), index(s, env)
        if vec.__class__ is not tuple:  # hold the tuple, not a lazy index, below
            vec = s._force_ordinal_vector(vec, "selection index")
        return s.select(value, vec)
        """),
    "binop": ("lhs, rhs, op, fn", """
        a = lhs(s, env)
        if a.__class__ is not int and a.__class__ is not Ordinal:
            a = s._force_scalar(a)
        b = rhs(s, env)
        if b.__class__ is not int and b.__class__ is not Ordinal:
            b = s._force_scalar(b)
        if fn is not _equal and (
                a.__class__ is not int and a.__class__ is not Ordinal
                or b.__class__ is not int and b.__class__ is not Ordinal):
            raise Fault("ShapeMismatch", f"'{op}' needs ordinal scalar operands")
        try:
            return fn(a, b)
        except UndefinedOrdinalOp as exc:
            raise Fault("UndefinedOrdinalOp", str(exc)) from None
        except ZeroDivisionError:
            raise Fault("DivisionByZero", "division by zero") from None
        """),
    "apply": ("fun, arg", "return s._apply(fun(s, env), arg(s, env))"),
    "cond": ("test, then, orelse", """
        value = s._force_scalar(test(s, env))
        if value is True:
            return then(s, env)
        if value is False:
            return orelse(s, env)
        raise Fault("ShapeMismatch", "the condition must be a boolean scalar")
        """),
    "array": ("elements", """
        values = [element(s, env) for element in elements]
        for v in values:
            if v.__class__ is not int and v.__class__ is not Ordinal:
                return s._nested_array(values)
        return tuple(values)  # a vector of ordinals, or []
        """),
    "lambda": ("body", "return FunClosure(body, env)"),
    "letrec": ("name, bound, body", """
        cell = Rec(name)
        env = (cell, env)
        s._define_recursive(cell, bound, env, span)
        return body(s, env)
        """),
    "shape": ("arg", "return s._shape_of(arg(s, env))"),
    "islim": ("arg", """
        x = s._force_scalar(arg(s, env))
        if x.__class__ is not int and x.__class__ is not Ordinal:
            raise Fault("ShapeMismatch", "islim needs an ordinal scalar")
        return is_limit(x)
        """),
    # the rarer rules run a Session method on their compiled children
    "imap": ("frame, cell, gens, bodies",
             "return s._eval_imap(env, frame, cell, gens, bodies)"),
    "reduce": ("fun, neutral, array", "return s._eval_reduce(env, fun, neutral, array)"),
    "filter": ("predicate, array", "return s._eval_filter(env, predicate, array)"),
}


def _compile_rule(rule: str, fields: str, step: str):
    """The `make(span, rule, *fields)` of `rule`: `_RULE` around its step,
    compiled with this module's globals under the file name `<heh rule
    NAME>`, so that profiles and tracebacks tell the rules apart."""
    step = textwrap.indent(textwrap.dedent(step).strip(), " " * 12)
    namespace: dict = {}
    exec(compile(_RULE.format(fields=fields, step=step), f"<heh rule {rule}>", "exec"),
         globals(), namespace)
    return namespace["make"]


_MAKE = {rule: _compile_rule(rule, *spec) for rule, spec in _STEPS.items()}


def compile_expr(node: Expr, scope: Tuple[str, ...] = ()) -> Code:
    """The code of `node`; `scope` lists the names bound around it by
    lambdas, `letrec`s and imap generators, innermost first.  Source text
    reaches the code only as a field, never as Python source."""
    cls = node.__class__
    if cls is OrdinalConst or cls is BoolConst:
        fields = (node.value,)
    elif cls is Var:
        name = node.name
        fields = name, range(scope.index(name)) if name in scope else None
    elif cls is Select:
        fields = compile_expr(node.array, scope), compile_expr(node.index, scope)
    elif cls is BinOp:
        fields = (compile_expr(node.lhs, scope), compile_expr(node.rhs, scope),
                  node.op, _ORDINAL_OPS.get(node.op, _equal))
    elif cls is Apply:
        fields = compile_expr(node.fun, scope), compile_expr(node.arg, scope)
    elif cls is Cond:
        fields = tuple(compile_expr(e, scope) for e in (node.test, node.then, node.orelse))
    elif cls is ArrayLiteral:
        fields = (tuple(compile_expr(e, scope) for e in node.elements),)
    elif cls is Lambda:
        fields = (compile_expr(node.body, (node.param,) + scope),)
    elif cls is Letrec:
        inner = (node.name,) + scope
        fields = node.name, compile_expr(node.bound, inner), compile_expr(node.body, inner)
    elif cls is Shape or cls is IsLim:
        fields = (compile_expr(node.arg, scope),)
    elif cls is Imap:
        gens = tuple((None, None) if isinstance(gen, Full)
                     else (compile_expr(gen.lower, scope), compile_expr(gen.upper, scope))
                     for gen, _ in node.partitions)
        bodies = tuple(compile_expr(body, (gen.var,) + scope)
                       for gen, body in node.partitions)
        cell = None if node.cell is None else compile_expr(node.cell, scope)
        fields = compile_expr(node.frame, scope), cell, gens, bodies
    elif cls is Reduce:
        fields = tuple(compile_expr(e, scope) for e in (node.fun, node.neutral, node.array))
    elif cls is Filter:
        fields = compile_expr(node.predicate, scope), compile_expr(node.array, scope)
    else:
        raise TypeError(f"not an expression: {node!r}")
    rule = _RULE_NAMES[cls]
    return _MAKE[rule](node.span, rule, *fields)


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
        self.fuel = self.config.fuel
        self.stats = {"rules": 0, "body_evals": 0, "predicate_calls": 0}
        self._letrec_depth = 0

    ### plumbing

    def _entry(self, rule: str, span: Optional[Span], thunk):
        """`thunk()` run as a public entry: the one place that decides how an
        internal failure reaches the caller.  The recursion limit is raised
        for the call only; a `Fault` becomes an `EvalError` of `rule` at
        `span`, and running out of Python frames becomes `DepthExceeded`."""
        previous = sys.getrecursionlimit()
        limit = max(previous, RECURSION_LIMIT)
        sys.setrecursionlimit(limit)
        try:
            return thunk()
        except Fault as fault:
            raise EvalError(fault.kind, fault.message, span, rule) from None
        except RecursionError:
            raise EvalError("DepthExceeded",
                            "evaluation nested deeper than the interpreter's "
                            f"recursion limit ({limit} frames)", span, rule) from None
        finally:
            sys.setrecursionlimit(previous)

    def _out_of_fuel(self) -> NoReturn:
        """The end of a rule that found no fuel left.  Each rule counts
        itself and spends its unit of fuel inline: a node's code in the
        prologue of `_RULE`, the others in `_apply` or `select`.  Every rule
        that finds none left ends here."""
        raise Fault("FuelExhausted", "evaluation fuel exhausted")

    @staticmethod
    def _value(value):
        """`value` with recursion cells followed; an empty cell faults."""
        while value.__class__ is Rec:
            value = value.get()
        return value

    ### rules with a Session method

    def _apply(self, fun, arg):
        self.stats["rules"] += 1
        if self.fuel is not None:
            self.fuel = self.fuel - 1 if self.fuel > 0 else self._out_of_fuel()
        fun = self._value(fun)
        if not isinstance(fun, FunClosure):
            raise Fault("NotAFunction", "only functions can be applied")
        return fun.code(self, (arg, fun.env))

    def _define_recursive(self, cell: Rec, code: Code, env, span: Span):
        """Evaluate a `letrec` definition in `env`, where its name is bound to
        the empty `cell`, then fill the cell with the value and return it."""
        self._letrec_depth += 1
        try:
            value = code(self, env)
        finally:
            self._letrec_depth -= 1
        if value is cell:
            raise EvalError("UnboundVariable",
                            f"premature recursive reference to '{cell.name}'",
                            span, "letrec")
        cell.value = value
        return value

    def _nested_array(self, values: list):
        """The array literal of `values`, which are not all ordinals."""
        shapes, datas = zip(*(self._force_strict(v, "ShapeMismatch",
                                                 "array elements must have finite shape")
                              for v in values))
        for other in shapes[1:]:
            if other != shapes[0]:
                raise Fault("HeterogeneousNesting",
                            "array elements have different shapes: "
                            f"{render_shape(shapes[0])} vs {render_shape(other)}")
        shape = (len(values),) + shapes[0]
        return strict_value(shape, [x for d in datas for x in d])

    def _shape_of(self, value) -> ShapeVec:
        value = self._value(value)
        cls = value.__class__
        if cls is tuple:
            return (len(value),)
        if cls is StrictArray or cls is ImapClosure:
            return value.shape
        if cls is FilterClosure:
            return self._filter_shape(value)
        return ()

    def _eval_reduce(self, env, fun: Code, neutral: Code, array: Code):
        fun = fun(self, env)
        if not isinstance(self._value(fun), FunClosure):
            raise Fault("NotAFunction", "reduce needs a function as first argument")
        acc = neutral(self, env)
        _, data = self._force_strict(array(self, env), "ReduceOnInfinite",
                                     "reduce needs a finite array")
        for x in data:
            acc = self._apply(self._apply(fun, acc), x)
        return acc

    ### imap

    def _eval_imap(self, env, frame: Code, cell: Optional[Code], gens, bodies):
        """`gens` holds the (lower, upper) bound codes of each generator,
        (None, None) for a `_(x)` one; `bodies` the code of each body."""
        frame = frame(self, env)
        if frame.__class__ is not tuple:
            frame = self._force_ordinal_vector(frame, "frame shape")
        cell = () if cell is None else self._force_ordinal_vector(cell(self, env),
                                                                   "cell shape")
        frame_box: Box = ((0,) * len(frame), frame)
        parts = []
        for (lower, upper), body in zip(gens, bodies):
            if lower is None:
                box = frame_box
            else:
                lower = self._force_ordinal_vector(lower(self, env), "generator bound")
                upper = self._force_ordinal_vector(upper(self, env), "generator bound")
                if len(lower) != len(frame) or len(upper) != len(frame):
                    raise Fault("RankMismatch",
                                "generator bounds must match the frame rank "
                                f"({len(frame)})")
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
            return strict_value(closure.shape, self._force_closure_strict(closure))
        return closure

    def _cell_value(self, closure: ImapClosure, index: ShapeVec):
        """The cell value at a frame index.

        The spec is the paper's update rule: forcing an element cuts its
        generator box into guillotine pieces around the index and adds a
        one-point partition holding the value, so a later selection finds
        it without evaluating the body again.  The closure's memo dict is an
        equivalent way to realise that rule: a hit is a one-point partition,
        and a miss lies in exactly one of the generator boxes as written.
        Without memoization nothing is recorded and every access evaluates.
        """
        hit = closure.memo.get(index)
        if hit is not None:
            return hit
        parts = closure.partitions
        if len(parts) == 1:
            code = parts[0][1]  # a lone box tiles the frame, so it holds the index
        else:
            for box, code in parts:
                if box_contains(box, index):
                    break
            else:
                raise Fault("NotAPartition",
                            f"no partition covers index {render_shape(index)}")
        self.stats["body_evals"] += 1
        result = code(self, (index, closure.env))
        shape = (() if result.__class__ is int or result.__class__ is Ordinal
                 or result.__class__ is bool  # a scalar
                 else self._shape_of(result))
        if shape != closure.cell:
            raise Fault("ShapeMismatch",
                        f"imap element at {render_shape(index)} has shape "
                        f"{render_shape(shape)}, cell shape is "
                        f"{render_shape(closure.cell)}")
        if self.config.memoize:
            closure.memo[index] = result
        return result

    def _force_closure_strict(self, closure: ImapClosure) -> list:
        """Row-major data of a finite imap, forcing every element."""
        data: list = []
        for index in itertools.product(*map(range, closure.frame)):
            cell = self._cell_value(closure, index)
            if cell.__class__ is int or cell.__class__ is Ordinal or cell.__class__ is bool:
                data.append(cell)  # a scalar's data are [cell]
            else:
                data.extend(self._force_strict(cell, "ShapeMismatch",
                                               "imap cell is not finite")[1])
        return data

    ### selection

    def select(self, value, index: ShapeVec):
        self.stats["rules"] += 1
        if self.fuel is not None:
            self.fuel = self.fuel - 1 if self.fuel > 0 else self._out_of_fuel()
        while value.__class__ is Rec:
            value = value.get()
        cls = value.__class__
        if cls is tuple:
            if len(index) == 1 and index[0].__class__ is int and 0 <= index[0] < len(value):
                return value[index[0]]
            return value[linearize((len(value),), index)]  # faults, saying how
        if cls is StrictArray:
            return value.data[linearize(value.shape, index)]
        if cls is ImapClosure:
            shape = value.shape
            if len(index) != len(shape):
                raise Fault("RankMismatch",
                            f"index of length {len(index)} into rank-{len(shape)} imap")
            for i, s in zip(index, shape):
                if i.__class__ is int and s.__class__ is Ordinal and i >= 0:
                    continue  # an int is below every Ordinal (see runtime)
                if not 0 <= i < s:
                    raise Fault("IndexOutOfBounds",
                                f"index {render_shape(index)} outside shape "
                                f"{render_shape(shape)}")
            m = len(value.frame)
            cell = self._cell_value(value, index[:m])
            cls = cell.__class__
            if len(index) == m and (cls is int or cls is Ordinal or cls is bool):
                # the rule of the trailing `()` selection, as the call would count it
                self.stats["rules"] += 1
                if self.fuel is not None:
                    self.fuel = self.fuel - 1 if self.fuel > 0 else self._out_of_fuel()
                return cell
            return self.select(cell, index[m:])
        if cls is FilterClosure:
            if len(index) != 1:
                raise Fault("RankMismatch", "filter results are 1-dimensional")
            return self._filter_select(value, index[0])
        # a scalar
        if index == ():
            return value
        if isinstance(value, FunClosure):
            raise Fault("IrreducibleTerm", "cannot select into a function")
        raise Fault("RankMismatch", f"index of length {len(index)} into rank-0 array")

    ### filter

    def _eval_filter(self, env, predicate: Code, array: Code):
        predicate = self._value(predicate(self, env))
        if not isinstance(predicate, FunClosure):
            raise Fault("NotAFunction", "filter needs a predicate function")
        array = self._value(array(self, env))
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
            kept = [x for x in data if self._predicate_accepts(predicate, x)]
            return strict_value((len(kept),), kept)
        return FilterClosure(predicate, array, shape)

    def _predicate_accepts(self, predicate: FunClosure, element) -> bool:
        self.stats["predicate_calls"] += 1
        result = self._force_scalar(self._apply(predicate, element))
        if not isinstance(result, bool):
            raise Fault("ShapeMismatch", "the filter predicate must return a boolean")
        return result

    def _filter_select(self, fc: FilterClosure, target):
        xi, n = limit_part(target)
        segment = fc.partitions[xi]
        alpha = fc.arg_shape[0]
        while len(segment.prefix) <= n:
            source = xi + segment.scan
            if not source < alpha:
                raise Fault("IndexOutOfBounds",
                            f"filter scan passed the end of the argument "
                            f"(shape {render_shape(fc.arg_shape)}) looking for "
                            f"element [{target}]")
            self._scan_step(fc, segment, source)
        return segment.prefix[n]

    def _filter_shape(self, fc: FilterClosure) -> ShapeVec:
        lam, k = limit_part(fc.arg_shape[0])
        if k == 0:
            return (lam,)
        segment = fc.partitions[lam]
        while segment.scan < k:
            self._scan_step(fc, segment, lam + segment.scan)
        return (lam + len(segment.prefix),)

    def _scan_step(self, fc: FilterClosure, segment: FilterSegment, source):
        """Inspect the argument element at `source`, the next one `segment`
        has not scanned.  It counts as scanned only once the predicate has
        answered, so a fault or interrupt leaves it to be inspected again."""
        element = self.select(fc.argument, (source,))
        if self._predicate_accepts(fc.predicate, element):
            segment.prefix.append(element)
        segment.scan += 1

    ### forcing helpers

    def _force_scalar(self, value):
        """A scalar value: an ordinal, a bool, or a FunClosure."""
        value = self._value(value)
        cls = value.__class__
        if cls is int or cls is Ordinal or cls is bool or cls is FunClosure:
            return value
        shape = self._shape_of(value)
        if shape == ():
            return self._force_scalar(self.select(value, ()))
        raise Fault("ShapeMismatch",
                    f"expected a scalar, got shape {render_shape(shape)}")

    def _force_ordinal_vector(self, value, what: str) -> ShapeVec:
        """A rank-1 value forced to a tuple of ordinals; a tuple is returned as it is."""
        if value.__class__ is tuple:
            return value
        if (value.__class__ is ImapClosure and len(value.shape) == 1
                and value.shape[0].__class__ is int):
            data = self._force_closure_strict(value)  # what `_force_strict` returns
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
        if isinstance(value, ImapClosure):
            if all(s.__class__ is int for s in value.shape):
                return value.shape, self._force_closure_strict(value)
            raise Fault(kind, message + f" (shape {render_shape(value.shape)})")
        if isinstance(value, FilterClosure):
            raise Fault(kind, message +
                        f" (shape {render_shape(self._filter_shape(value))})")
        return (), [value]

    ### program and embedding interface

    def run_program(self, source: str):
        """Evaluate top-level forms; bindings persist.  Returns the last
        form's value (a binding's value for trailing bindings)."""
        return self._entry("eval", None, lambda: self._run(compile_program(source)))

    def run_compiled(self, program: List[Tuple[TopForm, Code]]):
        """`run_program` for forms `compile_program` has already compiled."""
        return self._entry("eval", None, lambda: self._run(program))

    def _run(self, program):
        last = None
        for form, code in program:
            if isinstance(form, Binding):
                last = self._run_binding(form, code)
            else:
                last = code(self, None)
        return last

    def _run_binding(self, form: Binding, code: Code):
        if not form.recursive:
            value = self.env[form.name] = code(self, None)
            return value
        previous = self.env.get(form.name)
        cell = self.env[form.name] = Rec(form.name)
        try:
            value = self._define_recursive(cell, code, None, form.span)
        except BaseException:
            if previous is None:
                del self.env[form.name]
            else:
                self.env[form.name] = previous
            raise
        self.env[form.name] = value
        return value

    def eval_source(self, source: str):
        return self._entry("eval", None,
                           lambda: compile_expr(parse_expr(source))(self, None))

    def select_at(self, value, index: Sequence, span: Optional[Span] = None):
        """Scalar at `index` (a sequence of ints/Ordinals) within `value`; a
        boxed natural `Ordinal(n)` in it is unboxed to n."""
        vec = tuple(x if x.__class__ is int and x >= 0 else Ordinal._make(Ordinal(x).terms)
                    for x in index)
        return self._entry("select", span,
                           lambda: self._force_scalar(self.select(value, vec)))

    def strict_at(self, value, span: Optional[Span] = None) -> Tuple[ShapeVec, list]:
        """(shape, row-major data) of a finite `value`, forcing every element;
        the data are a fresh list, which the caller may change."""
        shape, data = self._entry("select", span, lambda: self._force_strict(
            value, "ShapeMismatch", "expected a finite shape"))
        return shape, list(data)

    def shape_at(self, value, span: Optional[Span] = None) -> ShapeVec:
        return self._entry("shape", span, lambda: self._shape_of(value))


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
        # fuel and counters describe the user program, not library setup
        session.fuel = None
        load_prelude(session)
        session.fuel = session.config.fuel
        session.stats = dict.fromkeys(session.stats, 0)
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
