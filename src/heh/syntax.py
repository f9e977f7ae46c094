"""Lexer, parser, AST, and pretty-printer for the array language.

Surface syntax in brief::

    \\x. e                      functions (also accepts a literal lambda)
    f x y                       application, left-associative
    a.[i, j]  a.iv  a.(e)       selection (index is a literal, name, or parens)
    |e|                         shape of e
    imap s {lb <= x < ub: e, _(y): e}        index-map constructor
    imap s | c {...}            with explicit cell shape
    letrec x = e in e           recursive binding
    if c then a else b          conditional
    reduce f n a, filter p a, islim o        prefix forms
    w  w^2  42  true  false     constants; `;` starts a line comment

Operator precedence, loosest to tightest: comparisons (`= < <= > >=`),
`++` (right-associative sugar for the prelude concatenation function),
`+ -`, `* / %`, selection, application.  Inside `|...|` and in the shape
position of `imap`, a `|` never starts a nested shape atom in argument
position; parenthesize (`imap (f |a|) {...}`).
"""

import re
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple, Union

from .ordinal import Ordinal, omega_power, terms


### ---- source spans ----------------------------------------------------------


class Span(NamedTuple):
    """A source range; immutable, so compiled code shared between sessions
    can hand it to each session's errors."""
    begin: int
    end: int
    line: int
    col: int

    def __str__(self) -> str:
        return f"line {self.line}, col {self.col}"


class ParseError(Exception):
    def __init__(self, message: str, span: Span):
        super().__init__(f"{message} at {span}")
        self.message = message
        self.span = span


class LexError(ParseError):
    """A character that begins no token."""


### ---- tokens ----------------------------------------------------------------


KEYWORDS = {
    "if", "then", "else", "let", "letrec", "in",
    "imap", "reduce", "filter", "islim", "true", "false", "w",
}

_SYMBOLS = [
    "++", "<=", ">=",
    "\\", "λ", ".", ",", ":", "(", ")", "[", "]", "{", "}",
    "|", "=", "<", ">", "+", "-", "*", "/", "%", "^", "_",
]

# every character starts a match, so a scan is one pass of `finditer`; an
# unrecognized character is a `bad` match of its own
_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r\n]+|;[^\n]*)"
    r"|(?P<number>[0-9]+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<symbol>" + "|".join(re.escape(s) for s in _SYMBOLS) + r")"
    r"|(?P<bad>.)", re.DOTALL)


@dataclass(slots=True, unsafe_hash=True)  # built per token: no frozen-init cost
class Token:
    kind: str          # "number", "ident", "eof", a keyword, or the symbol text
    value: object      # int for numbers, name for idents, else None
    span: Span


def tokenize(source: str) -> List[Token]:
    """The tokens of `source`, then "eof".  Whitespace and comments get no
    token and no span; the line count advances over their newlines."""
    tokens: List[Token] = []
    line, line_start = 1, 0  # the current line and the offset it starts at
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        begin, end = m.span()
        if kind == "ws":
            newlines = source.count("\n", begin, end)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", begin, end) + 1
            continue
        text = m.group()
        span = Span(begin, end, line, begin - line_start + 1)
        if kind == "ident":
            if text in KEYWORDS or text == "_":
                tokens.append(Token(text, None, span))
            else:
                tokens.append(Token("ident", text, span))
        elif kind == "symbol":
            tokens.append(Token("\\" if text == "λ" else text, None, span))
        elif kind == "number":
            tokens.append(Token("number", int(text), span))
        else:
            raise LexError(f"unrecognized character {text!r}", span)
    end = len(source)
    tokens.append(Token("eof", None, Span(end, end, line, end - line_start + 1)))
    return tokens


### ---- AST --------------------------------------------------------------------


class Expr:
    pass


@dataclass
class OrdinalConst(Expr):
    value: "int | Ordinal"
    span: Span = None


@dataclass
class BoolConst(Expr):
    value: bool
    span: Span = None


@dataclass
class Var(Expr):
    name: str
    span: Span = None


@dataclass
class Lambda(Expr):
    param: str
    body: Expr
    span: Span = None


@dataclass
class Apply(Expr):
    fun: Expr
    arg: Expr
    span: Span = None


@dataclass
class Cond(Expr):
    test: Expr
    then: Expr
    orelse: Expr
    span: Span = None


@dataclass
class Letrec(Expr):
    name: str
    bound: Expr
    body: Expr
    span: Span = None


@dataclass
class BinOp(Expr):
    op: str            # one of + - * / % < <= = > >=
    lhs: Expr
    rhs: Expr
    span: Span = None


@dataclass
class ArrayLiteral(Expr):
    elements: List[Expr]
    span: Span = None


@dataclass
class Select(Expr):
    array: Expr
    index: Expr
    span: Span = None


@dataclass
class Shape(Expr):
    arg: Expr
    span: Span = None


@dataclass
class Reduce(Expr):
    fun: Expr
    neutral: Expr
    array: Expr
    span: Span = None


@dataclass
class Full:
    var: str
    span: Span = None


@dataclass
class Bounds:
    lower: Expr
    var: str
    upper: Expr
    span: Span = None


Generator = Union[Full, Bounds]
Partition = Tuple[Generator, Expr]


@dataclass
class Imap(Expr):
    frame: Expr
    cell: Optional[Expr]
    partitions: List[Partition]
    span: Span = None


@dataclass
class Filter(Expr):
    predicate: Expr
    array: Expr
    span: Span = None


@dataclass
class IsLim(Expr):
    arg: Expr
    span: Span = None


@dataclass
class Binding:
    """Top-level `let x = e` / `letrec x = e` form (REPL and program files)."""
    name: str
    expr: Expr
    recursive: bool
    span: Span = None


TopForm = Union[Binding, Expr]


### ---- parser -----------------------------------------------------------------

# binary operators by precedence level, loosest first; `++` is right-
# associative sugar for the prelude function, the rest are left-associative
# BinOps
_LEVELS = (("=", "<", "<=", ">", ">="), ("++",), ("+", "-"), ("*", "/", "%"))
_LEVEL_OF = {op: level for level, ops in enumerate(_LEVELS) for op in ops}
_TIGHTEST = len(_LEVELS) - 1

# tokens that may start an atom (plus "|", which depends on context)
_ATOM_STARTERS = ("number", "ident", "w", "true", "false", "(", "[")


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    ### token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.kind!r}", tok.span)
        return self.next()

    def _span(self, start: int) -> Span:
        first = self.tokens[start].span
        last = self.tokens[self.pos - 1].span
        return Span(first.begin, max(first.begin, last.end), first.line, first.col)

    ### expression grammar, loosest level first

    def expr(self, bars: bool) -> Expr:
        tok = self.peek()
        if tok.kind == "\\":
            return self.lambda_(bars)
        if tok.kind == "letrec":
            return self.letrec(bars)
        if tok.kind == "if":
            return self.cond(bars)
        if tok.kind == "imap":
            return self.imap()
        if tok.kind == "let":
            raise ParseError("'let' is only a top-level binding; use 'letrec ... in' "
                             "for expressions", tok.span)
        return self.binary(bars)

    def lambda_(self, bars: bool) -> Expr:
        start = self.pos
        self.next()
        param = self.expect("ident").value
        self.expect(".")
        body = self.expr(bars)
        return Lambda(param, body, self._span(start))

    def letrec(self, bars: bool) -> Expr:
        start = self.pos
        self.next()
        name = self.binder_name()
        self.expect("=")
        bound = self.expr(bars)
        self.expect("in")
        body = self.expr(bars)
        return Letrec(name, bound, body, self._span(start))

    def binder_name(self) -> str:
        # a plain name, or (++) to (re)bind the concatenation operator
        if self.at("(") and self.tokens[self.pos + 1].kind == "++":
            self.next()
            self.next()
            self.expect(")")
            return "++"
        return self.expect("ident").value

    def cond(self, bars: bool) -> Expr:
        start = self.pos
        self.next()
        test = self.expr(bars)
        self.expect("then")
        then = self.expr(bars)
        self.expect("else")
        orelse = self.expr(bars)
        return Cond(test, then, orelse, self._span(start))

    def imap(self) -> Expr:
        start = self.pos
        self.next()
        frame = self.expr(bars=True)
        cell = None
        if self.at("|"):
            self.next()
            cell = self.expr(bars=True)
        self.expect("{")
        partitions = [self.partition()]
        while self.at(","):
            self.next()
            partitions.append(self.partition())
        self.expect("}")
        return Imap(frame, cell, partitions, self._span(start))

    def partition(self) -> Partition:
        start = self.pos
        if self.at("_"):
            self.next()
            self.expect("(")
            var = self.expect("ident").value
            self.expect(")")
            gen: Generator = Full(var, self._span(start))
        else:
            # bounds sit at ++ level so the generator's < and <= stay unambiguous
            lower = self.binary(False, _LEVEL_OF["++"])
            self.expect("<=")
            var = self.expect("ident").value
            self.expect("<")
            upper = self.binary(False, _LEVEL_OF["++"])
            gen = Bounds(lower, var, upper, self._span(start))
        self.expect(":")
        body = self.expr(bars=False)
        return (gen, body)

    def binary(self, bars: bool, level: int = 0) -> Expr:
        """Operators of `level` and tighter, by precedence climbing: the
        right operand of a level-k operator takes only tighter operators
        (the same level too for the right-associative `++`)."""
        start = self.pos
        node = self.selection(bars)
        while True:
            optok = self.peek()
            op_level = _LEVEL_OF.get(optok.kind)
            if op_level is None or op_level < level:
                return node
            self.next()
            if optok.kind == "++":
                rhs = self.binary(bars, op_level)
                fn = Apply(Var("++", optok.span), node, self._span(start))
                node = Apply(fn, rhs, self._span(start))
            else:
                rhs = (self.selection(bars) if op_level == _TIGHTEST
                       else self.binary(bars, op_level + 1))
                node = BinOp(optok.kind, node, rhs, self._span(start))

    def selection(self, bars: bool) -> Expr:
        start = self.pos
        node = self.application(bars)
        while self.at("."):
            self.next()
            index = self.selection_index()
            node = Select(node, index, self._span(start))
        return node

    def selection_index(self) -> Expr:
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            return Var(tok.value, tok.span)
        if tok.kind == "[":
            return self.array_literal()
        if tok.kind == "(":
            return self.parens()
        raise ParseError("selection index must be a bracketed literal, a "
                         "parenthesized expression, or a name", tok.span)

    def application(self, bars: bool) -> Expr:
        start = self.pos
        tok = self.peek()
        if tok.kind == "reduce":
            self.next()
            fun = self.atom(bars, head=False)
            neutral = self.atom(bars, head=False)
            array = self.atom(bars, head=False)
            node: Expr = Reduce(fun, neutral, array, self._span(start))
        elif tok.kind == "filter":
            self.next()
            predicate = self.atom(bars, head=False)
            array = self.atom(bars, head=False)
            node = Filter(predicate, array, self._span(start))
        elif tok.kind == "islim":
            self.next()
            node = IsLim(self.atom(bars, head=False), self._span(start))
        else:
            node = self.atom(bars, head=True)
        while self.starts_atom(bars, head=False):
            arg = self.atom(bars, head=False)
            node = Apply(node, arg, self._span(start))
        return node

    def starts_atom(self, bars: bool, head: bool) -> bool:
        kind = self.peek().kind
        if kind in _ATOM_STARTERS:
            return True
        return kind == "|" and (not bars or head)

    def atom(self, bars: bool, head: bool) -> Expr:
        tok = self.peek()
        if not self.starts_atom(bars, head):
            if tok.kind == "|" and bars:
                raise ParseError("'|' cannot start a shape here; parenthesize the "
                                 "|...| expression", tok.span)
            raise ParseError(f"expected an expression, found {tok.kind!r}", tok.span)
        if tok.kind == "number":
            self.next()
            return OrdinalConst(tok.value, tok.span)
        if tok.kind == "w":
            start = self.pos
            self.next()
            if self.at("^"):
                self.next()
                exp = self.expect("number")
                return OrdinalConst(omega_power(exp.value), self._span(start))
            return OrdinalConst(omega_power(1), tok.span)
        if tok.kind in ("true", "false"):
            self.next()
            return BoolConst(tok.kind == "true", tok.span)
        if tok.kind == "ident":
            self.next()
            return Var(tok.value, tok.span)
        if tok.kind == "(":
            return self.parens()
        if tok.kind == "[":
            return self.array_literal()
        # "|": shape atom; nested bars are blocked in argument position
        start = self.pos
        self.next()
        inner = self.expr(bars=True)
        self.expect("|")
        return Shape(inner, self._span(start))

    def parens(self) -> Expr:
        start = self.pos
        self.expect("(")
        if self.at("++") and self.tokens[self.pos + 1].kind == ")":
            optok = self.next()
            self.next()
            return Var("++", optok.span)
        inner = self.expr(bars=False)
        self.expect(")")
        inner.span = self._span(start)
        return inner

    def array_literal(self) -> Expr:
        start = self.pos
        self.expect("[")
        elements = []
        if not self.at("]"):
            elements.append(self.expr(bars=False))
            while self.at(","):
                self.next()
                elements.append(self.expr(bars=False))
        self.expect("]")
        return ArrayLiteral(elements, self._span(start))

    ### top-level forms

    def program(self) -> List[TopForm]:
        forms: List[TopForm] = []
        while not self.at("eof"):
            form = self.top_form()
            forms.append(form)
            if not isinstance(form, Binding) and not self.at("eof"):
                raise ParseError("only the final form may be a bare expression",
                                 self.peek().span)
        return forms

    def top_form(self) -> TopForm:
        start = self.pos
        kind = self.peek().kind
        if kind in ("let", "letrec"):
            self.next()
            name = self.binder_name()
            self.expect("=")
            bound = self.expr(bars=False)
            if self.at("in"):
                if kind == "let":
                    raise ParseError("'let' is only a top-level binding; use "
                                     "'letrec ... in' for expressions", self.peek().span)
                self.next()
                body = self.expr(bars=False)
                return Letrec(name, bound, body, self._span(start))
            return Binding(name, bound, kind == "letrec", self._span(start))
        return self.expr(bars=False)


def parse_expr(source: str) -> Expr:
    """Parse a single expression; all tokens must be consumed."""
    p = _Parser(tokenize(source))
    node = p.expr(bars=False)
    p.expect("eof")
    return node


def parse_program(source: str) -> List[TopForm]:
    """Parse a program: top-level bindings plus at most one trailing expression."""
    p = _Parser(tokenize(source))
    return p.program()


### ---- pretty-printer ----------------------------------------------------------

# precedence tiers; a node is parenthesized when its tier is below the
# minimum its position requires.  `_LEVELS` are the tiers from `_CMP` on.
_LOOSE, _CMP, _CONCAT, _ADD, _MUL, _SELECT, _APP, _ATOM = range(8)


def _concat_parts(node: Expr):
    """Match the `l ++ r` sugar: Apply(Apply(Var("++"), l), r)."""
    if (isinstance(node, Apply) and isinstance(node.fun, Apply)
            and isinstance(node.fun.fun, Var) and node.fun.fun.name == "++"):
        return (node.fun.arg, node.arg)
    return None


def _ordinal_literal(value) -> str:
    # the parser only builds naturals and w^k; anything else is not a literal
    t = terms(value)
    if len(t) > 1 or t and t[0][0] and t[0][1] != 1:
        raise ValueError(f"{value} is not expressible as a single literal")
    return str(value)


def render(node: Expr, min_tier: int = _LOOSE, bars: bool = False,
           arg_pos: bool = False) -> str:
    """Render an AST back to source; parse(render(e)) reproduces e."""
    text, tier = _render(node, bars)
    if tier < min_tier or (arg_pos and bars and isinstance(node, Shape)):
        return f"({text})"
    return text


def _render(node: Expr, bars: bool) -> Tuple[str, int]:
    parts = _concat_parts(node)
    if parts is not None:
        l, r = parts
        return f"{render(l, _ADD, bars)} ++ {render(r, _CONCAT, bars)}", _CONCAT
    if isinstance(node, OrdinalConst):
        return _ordinal_literal(node.value), _ATOM
    if isinstance(node, BoolConst):
        return ("true" if node.value else "false"), _ATOM
    if isinstance(node, Var):
        return ("(++)" if node.name == "++" else node.name), _ATOM
    if isinstance(node, Lambda):
        return f"\\{node.param}. {render(node.body, _LOOSE, bars)}", _LOOSE
    if isinstance(node, Letrec):
        name = "(++)" if node.name == "++" else node.name
        return (f"letrec {name} = {render(node.bound, _LOOSE, bars)} "
                f"in {render(node.body, _LOOSE, bars)}"), _LOOSE
    if isinstance(node, Cond):
        return (f"if {render(node.test, _LOOSE, bars)} "
                f"then {render(node.then, _LOOSE, bars)} "
                f"else {render(node.orelse, _LOOSE, bars)}"), _LOOSE
    if isinstance(node, BinOp):
        tier = _CMP + _LEVEL_OF[node.op]
        lhs = render(node.lhs, tier, bars)
        rhs = render(node.rhs, tier + 1, bars)
        return f"{lhs} {node.op} {rhs}", tier
    if isinstance(node, ArrayLiteral):
        inner = ", ".join(render(e) for e in node.elements)
        return f"[{inner}]", _ATOM
    if isinstance(node, Select):
        target = render(node.array, _SELECT, bars)
        return f"{target}.{_render_index(node.index)}", _SELECT
    if isinstance(node, Shape):
        return f"|{render(node.arg, _LOOSE, bars=True)}|", _ATOM
    if isinstance(node, Apply):
        fun = render(node.fun, _APP, bars)
        arg = render(node.arg, _ATOM, bars, arg_pos=True)
        return f"{fun} {arg}", _APP
    if isinstance(node, Reduce):
        return (f"reduce {render(node.fun, _ATOM, bars, arg_pos=True)} "
                f"{render(node.neutral, _ATOM, bars, arg_pos=True)} "
                f"{render(node.array, _ATOM, bars, arg_pos=True)}"), _APP
    if isinstance(node, Filter):
        return (f"filter {render(node.predicate, _ATOM, bars, arg_pos=True)} "
                f"{render(node.array, _ATOM, bars, arg_pos=True)}"), _APP
    if isinstance(node, IsLim):
        return f"islim {render(node.arg, _ATOM, bars, arg_pos=True)}", _APP
    if isinstance(node, Imap):
        frame = render(node.frame, _LOOSE, bars=True)
        head = f"imap {frame}"
        if node.cell is not None:
            head += f" | {render(node.cell, _LOOSE, bars=True)}"
        parts = ", ".join(_render_partition(g, b) for g, b in node.partitions)
        return f"{head} {{{parts}}}", _LOOSE
    raise TypeError(f"not an expression node: {node!r}")


def _render_index(index: Expr) -> str:
    if isinstance(index, Var) and index.name != "++":
        return index.name
    if isinstance(index, ArrayLiteral):
        return render(index)
    return f"({render(index)})"


def _render_partition(gen: Generator, body: Expr) -> str:
    body_text = render(body, _LOOSE)
    if isinstance(gen, Full):
        return f"_({gen.var}): {body_text}"
    lower = render(gen.lower, _CONCAT)
    upper = render(gen.upper, _CONCAT)
    return f"{lower} <= {gen.var} < {upper}: {body_text}"
