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
    reduce f n a, filter p a, islim o        prefix forms: one atom per child
    w  w^2  42  true  false     constants; `;` starts a line comment

Operator precedence, loosest to tightest: comparisons (`= < <= > >=`),
`++` (right-associative sugar for the prelude concatenation function),
`+ -`, `* / %`, selection, application.  Inside `|...|` and in the shape
position of `imap`, a `|` never starts a nested shape atom in argument
position; parenthesize (`imap (f |a|) {...}`).

`tokenize` makes each token the plain tuple `(kind, value, begin, end, line,
col)`, and the parser reads their kinds from a list; a `Span` is made only
for a node of the tree or for an error, never for a token.
"""

import re
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple, Union

from .ordinal import OMEGA, Ordinal, omega_power, terms


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


# reserved words; the keywords of `PREFIX_FORMS` below join them
KEYWORDS = {"if", "then", "else", "let", "letrec", "in", "imap", "true", "false", "w"}

_SYMBOLS = [
    "++", "<=", ">=",
    "\\", "λ", ".", ",", ":", "(", ")", "[", "]", "{", "}",
    "|", "=", "<", ">", "+", "-", "*", "/", "%", "^", "_",
]

# every character starts a match, so the matches of a line are contiguous; an
# unrecognized character is a match of its own
_TOKEN_RE = re.compile(r"[ \t\r]+|;.*|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|"
                       + "|".join(re.escape(s) for s in _SYMBOLS) + "|.")
_DIGITS, _LETTERS = "0123456789", "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"


def tokenize(source: str) -> List[tuple]:
    """The tokens of `source`, then "eof", each the tuple `(kind, value, begin,
    end, line, col)`: kind is "number", "ident", "eof", a keyword or the symbol
    text; value an int for a number, the name for an ident, else None.
    Whitespace and comments make no token; no token has a `Span`."""
    tokens: list = []
    begin, start = 0, -1  # a match's offset, and that of the newline before its line
    for line, text in enumerate(source.split("\n"), 1):
        for word in _TOKEN_RE.findall(text):
            end = begin + len(word)
            kind = _FIXED.get(word)
            if kind is not None:
                tokens.append((kind, None, begin, end, line, begin - start))
            elif word[0] in _LETTERS:
                tokens.append(("ident", word, begin, end, line, begin - start))
            elif word[0] in _DIGITS:
                tokens.append(("number", int(word), begin, end, line, begin - start))
            elif word[0] not in " \t\r;":
                raise LexError(f"unrecognized character {word!r}",
                               Span(begin, end, line, begin - start))
            begin = end
        start = begin  # the newline that ends the line
        begin += 1
    tokens.append(("eof", None, start, start, line, len(text) + 1))
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

# keyword -> (node class, child fields): the parser reads one atom per child,
# the printer writes them back, and the evaluator runs the rule of the keyword
PREFIX_FORMS = {"reduce": (Reduce, ("fun", "neutral", "array")),
                "filter": (Filter, ("predicate", "array")),
                "islim": (IsLim, ("arg",))}
KEYWORDS.update(PREFIX_FORMS)
# the kind of each word that is a keyword or a symbol, as `tokenize` reads it
_FIXED = {**{s: s for s in _SYMBOLS}, "λ": "\\", **{k: k for k in KEYWORDS}}
_PREFIX_OF = {cls: (keyword, fields) for keyword, (cls, fields) in PREFIX_FORMS.items()}


def names(node: Expr, name: str) -> bool:
    """Whether the variable `name` occurs in the tree `node`, shadowed or not."""
    todo = [node]
    for x in todo:  # a loop that `todo` grows under, not recursion: a tree may be deep
        if x.__class__ is list or x.__class__ is tuple: todo += x  # partitions too
        elif isinstance(x, (Expr, Bounds)): todo += vars(x).values()
    return any(x.__class__ is Var and x.name == name for x in todo)


### ---- parser -----------------------------------------------------------------

# binary operators by precedence level, loosest first; `++` is right-
# associative sugar for the prelude function, the rest are left-associative
# BinOps
_LEVELS = (("=", "<", "<=", ">", ">="), ("++",), ("+", "-"), ("*", "/", "%"))
_LEVEL_OF = {op: level for level, ops in enumerate(_LEVELS) for op in ops}
_TIGHTEST = len(_LEVELS) - 1

# tokens that may start an atom (plus "|", which depends on context)
_ATOM_STARTERS = ("number", "ident", "w", "true", "false", "(", "[")


_new = tuple.__new__  # builds a Span without the Python frame of its `__new__`


class _Parser:
    """A recursive descent over the tokens of `tokenize`; `kinds` holds each
    token's kind, `pos` the index of the next token."""

    def __init__(self, tokens: List[tuple]):
        self.tokens = tokens
        self.kinds = [token[0] for token in tokens]
        self.pos = 0

    ### token plumbing

    def span_at(self, pos: int) -> Span:
        """The span of the token at `pos`."""
        return _new(Span, self.tokens[pos][2:])

    def expect(self, kind: str):
        """Step past the next token, which must be of `kind`; its value."""
        pos = self.pos
        if self.kinds[pos] != kind:
            raise ParseError(f"expected {kind!r}, found {self.kinds[pos]!r}", self.span_at(pos))
        self.pos = pos + 1
        return self.tokens[pos][1]

    def _span(self, start: int) -> Span:
        """The span from the token at `start` to the last one read, at least
        the token at `start`."""
        first, last = self.tokens[start], self.tokens[self.pos - 1]
        return _new(Span, (first[2], last[3], first[4], first[5]))

    ### expression grammar, loosest level first

    def expr(self, bars: bool, top: bool = False) -> TopForm:
        """An expression; at the top level (`top`) also a `Binding`."""
        kind = self.kinds[self.pos]
        if kind == "\\":
            return self.lambda_(bars)
        if kind == "let" or kind == "letrec":
            return self.letrec(bars, top)
        if kind == "if":
            return self.cond(bars)
        if kind == "imap":
            return self.imap()
        return self.binary(bars)

    def lambda_(self, bars: bool) -> Expr:
        start = self.pos
        self.pos += 1
        param = self.expect("ident")
        self.expect(".")
        body = self.expr(bars)
        return Lambda(param, body, self._span(start))

    def letrec(self, bars: bool, top: bool) -> TopForm:
        """`letrec x = e in e`.  At the top level (`top`), `let x = e` and
        `letrec x = e` with no `in` are a `Binding`.  `let` takes no `in`:
        the top level refuses it at the `in`, anywhere else at the keyword."""
        start = self.pos
        kind = self.kinds[start]
        if top or kind == "letrec":
            self.pos += 1
            name = self.binder_name()
            self.expect("=")
            bound = self.expr(bars)
            if top and self.kinds[self.pos] != "in":
                return Binding(name, bound, kind == "letrec", self._span(start))
        if kind == "let":
            raise ParseError("'let' is only a top-level binding; use 'letrec ... in' "
                             "for expressions", self.span_at(self.pos))
        self.expect("in")
        body = self.expr(bars)
        return Letrec(name, bound, body, self._span(start))

    def binder_name(self) -> str:
        # a plain name, or (++) to (re)bind the concatenation operator
        if self.kinds[self.pos] == "(" and self.kinds[self.pos + 1] == "++":
            self.pos += 2
            self.expect(")")
            return "++"
        return self.expect("ident")

    def cond(self, bars: bool) -> Expr:
        start = self.pos
        self.pos += 1
        test = self.expr(bars)
        self.expect("then")
        then = self.expr(bars)
        self.expect("else")
        orelse = self.expr(bars)
        return Cond(test, then, orelse, self._span(start))

    def imap(self) -> Expr:
        start = self.pos
        self.pos += 1
        frame = self.expr(bars=True)
        cell = None
        if self.kinds[self.pos] == "|":
            self.pos += 1
            cell = self.expr(bars=True)
        self.expect("{")
        partitions = self.comma_list(self.partition)
        self.expect("}")
        return Imap(frame, cell, partitions, self._span(start))

    def partition(self) -> Partition:
        start = self.pos
        if self.kinds[start] == "_":
            self.pos += 1
            self.expect("(")
            var = self.expect("ident")
            self.expect(")")
            gen: Generator = Full(var, self._span(start))
        else:
            # bounds sit at ++ level so the generator's < and <= stay unambiguous
            lower = self.binary(False, _LEVEL_OF["++"])
            self.expect("<=")
            var = self.expect("ident")
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
            op = self.kinds[self.pos]
            op_level = _LEVEL_OF.get(op)
            if op_level is None or op_level < level:
                return node
            self.pos += 1
            if op == "++":
                fn = Var("++", self.span_at(self.pos - 1))
                rhs = self.binary(bars, op_level)
                span = self._span(start)
                node = Apply(Apply(fn, node, span), rhs, span)
            else:
                rhs = (self.selection(bars) if op_level == _TIGHTEST
                       else self.binary(bars, op_level + 1))
                node = BinOp(op, node, rhs, self._span(start))

    def selection(self, bars: bool) -> Expr:
        """An application, then any selections from it: `f a.[0]` is `(f a).[0]`."""
        start = self.pos
        kinds = self.kinds
        form = PREFIX_FORMS.get(kinds[start])
        if form is not None:
            self.pos += 1
            cls, fields = form
            node = cls(*[self.atom(bars, False) for _ in fields], self._span(start))
        else:
            node = self.atom(bars, True)
        # an atom starts here; a `|` only where it cannot close an enclosing shape
        while kinds[self.pos] in _ATOM_STARTERS or kinds[self.pos] == "|" and not bars:
            node = Apply(node, self.atom(bars, False), self._span(start))
        while kinds[self.pos] == ".":
            self.pos += 1
            if kinds[self.pos] not in ("ident", "[", "("):
                raise ParseError("selection index must be a bracketed literal, a "
                                 "parenthesized expression, or a name", self.span_at(self.pos))
            node = Select(node, self.atom(False, False), self._span(start))
        return node

    def atom(self, bars: bool, head: bool) -> Expr:
        pos = self.pos
        token = self.tokens[pos]
        kind = token[0]
        if kind == "(":
            return self.parens()
        if kind == "[":
            return self.array_literal()
        span = _new(Span, token[2:])
        if kind == "ident":
            self.pos = pos + 1
            return Var(token[1], span)
        if kind == "number":
            self.pos = pos + 1
            return OrdinalConst(token[1], span)
        if kind == "w":
            self.pos = pos + 1
            if self.kinds[pos + 1] != "^":
                return OrdinalConst(OMEGA, span)
            self.pos += 1
            return OrdinalConst(omega_power(self.expect("number")), self._span(pos))
        if kind == "true" or kind == "false":
            self.pos = pos + 1
            return BoolConst(kind == "true", span)
        if kind != "|":
            raise ParseError(f"expected an expression, found {kind!r}", span)
        if bars and not head:  # nested bars are blocked in argument position
            raise ParseError("'|' cannot start a shape here; parenthesize the "
                             "|...| expression", span)
        self.pos = pos + 1
        inner = self.expr(bars=True)
        self.expect("|")
        return Shape(inner, self._span(pos))

    def parens(self) -> Expr:
        start = self.pos
        self.pos += 1
        if self.kinds[self.pos] == "++" and self.kinds[self.pos + 1] == ")":
            self.pos += 2
            return Var("++", self.span_at(start + 1))
        inner = self.expr(bars=False)
        self.expect(")")
        inner.span = self._span(start)
        return inner

    def array_literal(self) -> Expr:
        start = self.pos
        self.pos += 1
        elements = ([] if self.kinds[self.pos] == "]"
                    else self.comma_list(lambda: self.expr(bars=False)))
        self.expect("]")
        return ArrayLiteral(elements, self._span(start))

    def comma_list(self, item) -> list:
        """One or more `item()`s, separated by commas."""
        items = [item()]
        while self.kinds[self.pos] == ",":
            self.pos += 1
            items.append(item())
        return items

    ### top-level forms

    def program(self) -> List[TopForm]:
        forms: List[TopForm] = []
        while self.kinds[self.pos] != "eof":
            form = self.expr(bars=False, top=True)
            forms.append(form)
            if not isinstance(form, Binding) and self.kinds[self.pos] != "eof":
                raise ParseError("only the final form may be a bare expression",
                                 self.span_at(self.pos))
        return forms


def parse_expr(source: str) -> Expr:
    """Parse a single expression; all tokens must be consumed."""
    p = _Parser(tokenize(source))
    node = p.expr(bars=False)
    p.expect("eof")
    return node


def parse_program(source: str) -> List[TopForm]:
    """Parse a program: top-level bindings plus at most one trailing expression."""
    return _Parser(tokenize(source)).program()


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
    if node.__class__ in _PREFIX_OF:
        keyword, fields = _PREFIX_OF[node.__class__]
        children = (render(getattr(node, f), _ATOM, bars, arg_pos=True) for f in fields)
        return " ".join((keyword, *children)), _APP
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
