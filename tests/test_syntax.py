"""Lexer, parser, and pretty-printer tests."""

import hashlib
import random
import string

import pytest

import corpora
import heh.eval
from heh.ordinal import OMEGA, Ordinal, omega_power
from heh.syntax import (
    KEYWORDS, PREFIX_FORMS, Apply, ArrayLiteral, BinOp, Binding, BoolConst, Bounds, Cond,
    Filter, Full, Imap, IsLim, Lambda, LexError, Letrec, OrdinalConst, ParseError, Reduce,
    Select, Shape, Span, Var, names, parse_expr, parse_program, render, tokenize,
)

from astgen import gen_expr
from heh.prelude import prelude_source, program_names, program_source


### ---- lexer ------------------------------------------------------------------


def test_tokenize_kinds():
    kinds = [t[0] for t in tokenize("imap [w] { _(iv): iv.[0]")]
    assert kinds == ["imap", "[", "w", "]", "{", "_", "(", "ident", ")", ":",
                     "ident", ".", "[", "number", "]", "eof"]


def test_tokenize_drops_comments():
    kinds = [t[0] for t in tokenize("a.iv + 1 ; comment")]
    assert kinds == ["ident", ".", "ident", "+", "number", "eof"]
    assert [t[0] for t in tokenize("; just a comment\n2")] == ["number", "eof"]


def test_tokenize_ordinal_literal_pieces():
    kinds = [t[0] for t in tokenize("w^2*3+4")]
    assert kinds == ["w", "^", "number", "*", "number", "+", "number", "eof"]


def test_tokenize_spans():
    # (kind, value, begin, end, line, col)
    assert tokenize("ab +\n  cd")[2] == ("ident", "cd", 7, 9, 2, 3)


def test_tokenize_symbols_and_lambda_alias():
    assert [t[0] for t in tokenize("<= >= ++ λ \\")][:-1] == ["<=", ">=", "++", "\\", "\\"]
    with pytest.raises(LexError):
        tokenize("a # b")


### ---- basic expressions ------------------------------------------------------


# the tokens a hand-written scan must find, longest first
_NAIVE_SYMBOLS = sorted(["++", "<=", ">=", "\\", "λ", ".", ",", ":", "(", ")", "[",
                         "]", "{", "}", "|", "=", "<", ">", "+", "-", "*", "/", "%",
                         "^"], key=len, reverse=True)
_NAIVE_KEYWORDS = {"if", "then", "else", "let", "letrec", "in", "imap", "reduce",
                   "filter", "islim", "true", "false", "w", "_"}


def naive_tokens(source):
    """(kind, value, begin, end, line, col) of every token, found by walking
    the text one character at a time and counting lines and columns as it
    goes; an unrecognized character raises ("lex", begin, line, col)."""
    found, i, line, col = [], 0, 1, 1

    def step(n):
        nonlocal i, line, col
        for ch in source[i:i + n]:
            line, col = (line + 1, 1) if ch == "\n" else (line, col + 1)
        i += n

    while i < len(source):
        ch, begin, at = source[i], i, (line, col)
        if ch in " \t\r\n":
            step(1)
            continue
        if ch == ";":
            end = source.find("\n", i)
            step((len(source) if end < 0 else end) - i)
            continue
        if ch in string.digits:
            n = 1
            while i + n < len(source) and source[i + n] in string.digits:
                n += 1
            token = ("number", int(source[i:i + n]))
        elif ch in string.ascii_letters + "_":
            n = 1
            while i + n < len(source) and source[i + n] in string.ascii_letters + string.digits + "_":
                n += 1
            word = source[i:i + n]
            token = (word, None) if word in _NAIVE_KEYWORDS else ("ident", word)
        else:
            symbol = next((s for s in _NAIVE_SYMBOLS if source.startswith(s, i)), None)
            if symbol is None:
                raise ValueError(("lex", begin, *at))
            n = len(symbol)
            token = ("\\" if symbol == "λ" else symbol, None)
        step(n)
        found.append((*token, begin, i, *at))
    found.append(("eof", None, i, i, line, col))
    return found


def test_tokenize_matches_a_naive_scan():
    """Kinds, values and spans of every token, and the span of every
    LexError, equal those a character-by-character scan finds."""
    rng = random.Random(12)
    texts = [prelude_source()] + [program_source(name) for name in program_names()]
    for _ in range(300):
        text = render(gen_expr(rng))
        # spread it over lines, with comments, tabs and CR LF endings
        words = text.split(" ")
        for _ in range(rng.randrange(4)):
            k = rng.randrange(len(words))
            words[k] += rng.choice(("\n", " ; note\n\t", "\r\n  ", "\t"))
        texts.append(" ".join(words))
    texts += ["", "\n\n", "; only a comment", "x ; trailing", "λx. x", "a\n  #",
              "ab +\n  cd $"]
    for text in list(texts[:200]):
        k = rng.randrange(len(text) + 1)
        texts.append(text[:k] + rng.choice("#$@?!~`\"'") + text[k:])
    lex_errors = 0
    for text in texts:
        try:
            expected = naive_tokens(text)
        except ValueError as error:
            with pytest.raises(LexError) as e:
                tokenize(text)
            span = e.value.span
            assert ("lex", span.begin, span.line, span.col) == error.args[0], text
            lex_errors += 1
        else:
            assert tokenize(text) == expected, text
    assert lex_errors > 150


# the sha256 of `front_end_row` over `front_end_texts()`, taken from the
# earlier lexer, which made an object and a Span a token (each read here as
# the tuple `(kind, value, *span)`), and its parser
FRONT_END_PIN = "98d5e0ea74d0d08119793665c93954e184587ebcbc15a94893d6d0e4ae0361df"


def front_end_texts() -> list:
    """The prelude, the shipped programs, every source of `corpora` and 300
    seeded renders of `gen_expr`; then of each, its prefixes cut every 7th
    character and one copy with a character inserted that begins no token."""
    rng = random.Random(45)
    texts = [prelude_source()] + [program_source(name) for name in program_names()]
    texts += [source for source, _ in corpora.corpus() + corpora.list_corpus() + corpora.FAULTS]
    texts += [*corpora.STRICT_FAULTS, corpora.RANK_0_CELL_SCAN]
    texts += [render(gen_expr(rng)) for _ in range(300)]
    cuts = [text[:k] for text in texts for k in range(0, len(text), 7)]
    bad = []
    for text in texts:
        k = rng.randrange(len(text) + 1)
        bad.append(text[:k] + rng.choice("#$@?!~`\"'") + text[k:])
    return texts + cuts + bad


def front_end_row(text: str) -> tuple:
    """The tokens of `text`, then its parse: each the value, or the raised
    error's (class, message, span)."""
    def outcome(thunk):
        try:
            return thunk()
        except ParseError as error:
            return (error.__class__.__name__, error.message, tuple(error.span))
    return outcome(lambda: tokenize(text)), outcome(lambda: repr(parse_program(text)))


def test_the_front_end_is_pinned():
    """Every token, node and span, and every lexing and parsing error, of
    `front_end_texts()` hash to one pin: a rewrite of the lexer or the parser
    must read every text as before."""
    digest = hashlib.sha256()
    for text in front_end_texts():
        digest.update(repr(front_end_row(text)).encode())
    assert digest.hexdigest() == FRONT_END_PIN


def test_constants():
    assert parse_expr("42").value == Ordinal(42)
    assert parse_expr("w").value == OMEGA
    assert parse_expr("w^3").value == omega_power(3)
    assert parse_expr("true").value is True
    assert parse_expr("false").value is False


def test_increment_listing():
    e = parse_expr("\\a.imap |a| { _(iv): a.iv + 1 }")
    assert isinstance(e, Lambda) and e.param == "a"
    assert isinstance(e.body, Imap)
    assert isinstance(e.body.frame, Shape)
    assert e.body.cell is None
    gen, body = e.body.partitions[0]
    assert isinstance(gen, Full) and gen.var == "iv"
    assert isinstance(body, BinOp) and body.op == "+"
    assert isinstance(body.lhs, Select)


def test_nested_literal_parses():
    # ragged nesting is an evaluation-time error, not a parse error
    e = parse_expr("[[1,2],[3]]")
    assert isinstance(e, ArrayLiteral) and len(e.elements) == 2
    assert len(e.elements[0].elements) == 2 and len(e.elements[1].elements) == 1
    assert parse_expr("[]").elements == []


def test_selection_left_associative():
    e = parse_expr("a . b . c")
    assert isinstance(e, Select) and isinstance(e.array, Select)
    assert e.index.name == "c" and e.array.index.name == "b"
    e = parse_expr("a.[0]")
    assert isinstance(e.index, ArrayLiteral)


def test_selection_index_forms():
    assert isinstance(parse_expr("a.(f x)").index, Apply)
    assert isinstance(parse_expr("a.iv").index, Var)
    with pytest.raises(ParseError):
        parse_expr("a.0")


def test_precedence():
    e = parse_expr("1 + 2 * 3")
    assert e.op == "+" and e.rhs.op == "*"
    e = parse_expr("a < b + 1")
    assert e.op == "<" and e.rhs.op == "+"
    e = parse_expr("a.iv + 1")
    assert e.op == "+" and isinstance(e.lhs, Select)
    # selection binds looser than application: the chain is selected into
    e = parse_expr("f a.[0]")
    assert isinstance(e, Select) and isinstance(e.array, Apply)
    # ... and it applies to prefix forms too
    e = parse_expr("filter (\\x.x>0) (imap [w] {_(iv): 0}).[0]")
    assert isinstance(e, Select) and isinstance(e.array, Filter)

    # every level but `++` groups left; `++` groups right
    assert _op_tree(parse_expr("a - b - c")) == ("-", ("-", "a", "b"), "c")
    assert _op_tree(parse_expr("a / b % c")) == ("%", ("/", "a", "b"), "c")
    assert _op_tree(parse_expr("a < b < c")) == ("<", ("<", "a", "b"), "c")
    assert _op_tree(parse_expr("a ++ b ++ c")) == ("++", "a", ("++", "b", "c"))
    assert _op_tree(parse_expr("a ++ b + c")) == ("++", "a", ("+", "b", "c"))
    assert _op_tree(parse_expr("a + b ++ c * d")) == (
        "++", ("+", "a", "b"), ("*", "c", "d"))
    assert _op_tree(parse_expr("a = b ++ c - d >= e")) == (
        ">=", ("=", "a", ("++", "b", ("-", "c", "d"))), "e")
    # spans of one mixed chain, offsets counted by hand
    e = parse_expr("a + b * c - d < e ++ f")
    assert e.op == "<" and e.span == Span(0, 22, 1, 1)
    sub = e.lhs
    assert sub.op == "-" and sub.span == Span(0, 13, 1, 1)
    assert sub.rhs.span == Span(12, 13, 1, 13)
    add = sub.lhs
    assert add.op == "+" and add.span == Span(0, 9, 1, 1)
    assert add.lhs.span == Span(0, 1, 1, 1)
    mul = add.rhs
    assert mul.op == "*" and mul.span == Span(4, 9, 1, 5)
    assert (mul.lhs.span, mul.rhs.span) == (Span(4, 5, 1, 5), Span(8, 9, 1, 9))
    cat = e.rhs  # Apply(Apply(Var("++"), e), f); both applications span "e ++ f"
    assert cat.span == cat.fun.span == Span(16, 22, 1, 17)
    assert cat.fun.fun.name == "++" and cat.fun.fun.span == Span(18, 20, 1, 19)
    assert (cat.fun.arg.span, cat.arg.span) == (Span(16, 17, 1, 17), Span(21, 22, 1, 22))


def _op_tree(e):
    """The operator tree of `e`, names at the leaves, `++` sugar as ("++", l, r)."""
    if isinstance(e, BinOp):
        return (e.op, _op_tree(e.lhs), _op_tree(e.rhs))
    if isinstance(e, Apply) and isinstance(e.fun, Apply) and e.fun.fun.name == "++":
        return ("++", _op_tree(e.fun.arg), _op_tree(e.arg))
    return e.name


def test_application_left_associative():
    e = parse_expr("f x y")
    assert isinstance(e, Apply) and isinstance(e.fun, Apply)
    assert e.fun.fun.name == "f" and e.arg.name == "y"


def test_concat_sugar():
    e = parse_expr("a ++ b ++ c")
    # right-associative: a ++ (b ++ c)
    assert isinstance(e, Apply) and e.fun.fun.name == "++"
    assert e.fun.arg.name == "a"
    rhs = e.arg
    assert rhs.fun.fun.name == "++" and rhs.fun.arg.name == "b"
    assert parse_expr("(++)").name == "++"
    e = parse_expr("a ++ b + c")
    assert e.fun.fun.name == "++" and e.arg.op == "+"


def test_prefix_forms():
    e = parse_expr("reduce (\\x.\\y.x+y) 0 [[1,2],[3,4]]")
    assert isinstance(e, Reduce) and isinstance(e.fun, Lambda)
    assert isinstance(e.neutral, OrdinalConst) and isinstance(e.array, ArrayLiteral)
    e = parse_expr("islim w")
    assert isinstance(e, IsLim)
    e = parse_expr("reduce f 0 a b")  # result of reduce applied to b
    assert isinstance(e, Apply) and isinstance(e.fun, Reduce)
    with pytest.raises(ParseError):
        parse_expr("reduce f 0")
    with pytest.raises(ParseError):
        parse_expr("f reduce g 0 a")


def test_prefix_forms_come_from_one_table():
    # the parser, the printer and the evaluator's rule table all read it
    for keyword, (cls, fields) in PREFIX_FORMS.items():
        names = ["a", "b", "c"][:len(fields)]
        source = " ".join([keyword, *names])
        node = parse_expr(source)
        assert node.__class__ is cls and [getattr(node, f).name for f in fields] == names
        assert render(node) == source
        assert heh.eval._KINDS[cls] == (keyword, *fields)
    assert {"reduce", "filter", "islim"} == set(PREFIX_FORMS) <= KEYWORDS


def test_conditional_and_letrec():
    e = parse_expr("if a < b then a else b")
    assert isinstance(e, Cond) and e.test.op == "<"
    e = parse_expr("letrec f = \\n. f n in f 1")
    assert isinstance(e, Letrec) and isinstance(e.bound, Lambda)
    assert isinstance(e.body, Apply)
    e = parse_expr("letrec (++) = \\a.\\b. a in 1")
    assert e.name == "++"


# the fields that hold a node's subexpressions, for `children`
CHILDREN = {Lambda: "body", Apply: "fun arg", Cond: "test then orelse", Letrec: "bound body",
            BinOp: "lhs rhs", Select: "array index", Shape: "arg", Reduce: "fun neutral array",
            Filter: "predicate array", IsLim: "arg"}


def children(node) -> list:
    """The subexpressions of `node`, written out class by class."""
    if isinstance(node, ArrayLiteral):
        return node.elements
    if isinstance(node, Imap):
        return [node.frame, *[node.cell] * (node.cell is not None),
                *(part for gen, body in node.partitions for part in (
                    (gen.lower, gen.upper, body) if isinstance(gen, Bounds) else (body,)))]
    return [getattr(node, field) for field in CHILDREN.get(node.__class__, "").split()]


def mentions(node, name: str) -> bool:
    """`names` as a recursion over `children`, the oracle it is checked against."""
    if isinstance(node, Var):
        return node.name == name
    return any(mentions(kid, name) for kid in children(node))


def letrecs(node) -> list:
    """Every `Letrec` node in `node`, outermost first."""
    return [node] * isinstance(node, Letrec) + [x for kid in children(node) for x in letrecs(kid)]


def test_names_finds_a_variable_anywhere_in_an_expression():
    """`names(e, x)`, which decides whether a `letrec` binds its name to a
    cell, holds when `x` occurs as a variable in `e`, shadowed or not, and
    not for a binder alone.  Of the shipped `letrec ... in`s, only `i2o`'s
    `go` names itself in its bound; ackermann's `m` and `n`, `fzip`'s `s`
    and `gol_step`'s `F` and `c` do not."""
    for source, name, expected in [
            ("x", "x", True), ("y", "x", False), ("\\x. 1", "x", False),
            ("\\x. x", "x", True), ("letrec x = 1 in x", "x", True),
            ("imap [2] {_(x): 1}", "x", False), ("imap [2] | [x] {_(iv): 1}", "x", True),
            ("imap [w] {[0] <= iv < [x]: 1, [x] <= iv < [w]: 2}", "x", True),
            ("imap [1] {_(iv): [1, [x]].[1]}", "x", True), ("reduce f 0 (filter g x)", "x", True),
            ("islim (|x|.[0])", "x", True), ("if a then b else x", "x", True)]:
        assert names(parse_expr(source), name) is expected, source
    found = {}
    for form in parse_program(prelude_source()) + [
            form for name in program_names() for form in parse_program(program_source(name))]:
        for node in letrecs(form.expr if isinstance(form, Binding) else form):
            found[node.name] = names(node.bound, node.name)
    assert found == {"go": True, "s": False, "F": False, "c": False, "m": False, "n": False}
    rng = random.Random(31)
    for _ in range(500):
        node = gen_expr(rng)
        for name in ("x", "iv", "acc", "++"):
            assert names(node, name) is mentions(node, name), render(node)


def test_imap_forms():
    e = parse_expr("imap [2, 3] {_(iv): 0}")
    assert e.cell is None and len(e.partitions) == 1
    e = parse_expr("imap [2] | [3] {_(iv): [1,2,3]}")
    assert isinstance(e.cell, ArrayLiteral)
    e = parse_expr("imap [w] {[0] <= iv < [1]: 0, [1] <= iv < [w]: 1}")
    g0, g1 = e.partitions[0][0], e.partitions[1][0]
    assert isinstance(g0, Bounds) and g0.var == "iv"
    assert isinstance(g1.upper, ArrayLiteral)
    with pytest.raises(ParseError):
        parse_expr("imap [w] {_(iv): 0")  # closing brace is required


def test_imap_shape_position_bars():
    e = parse_expr("imap |a| {_(iv): 0}")
    assert isinstance(e.frame, Shape)
    e = parse_expr("imap |a| | |b| {_(iv): 0}")
    assert isinstance(e.frame, Shape) and isinstance(e.cell, Shape)
    e = parse_expr("imap (f |a|) {_(iv): 0}")
    assert isinstance(e.frame, Apply)
    # a bare |...| cannot be an application argument in shape position
    with pytest.raises(ParseError):
        parse_expr("imap f |a| {_(iv): 0}")


def test_keywords_reserved():
    for bad in ["\\if. x", "letrec w = 5 in w", "\\filter. 1", "let in = 2"]:
        with pytest.raises(ParseError):
            parse_program(bad)


def test_parse_error_spans():
    with pytest.raises(ParseError) as exc:
        parse_expr("1 +\n  then")
    assert exc.value.span.line == 2 and exc.value.span.col == 3


### ---- top-level forms --------------------------------------------------------


def test_program_forms():
    forms = parse_program("let x = 5\nlet y = 6\nif y < x then x else y")
    assert isinstance(forms[0], Binding) and not forms[0].recursive
    assert isinstance(forms[1], Binding) and not forms[1].recursive
    assert isinstance(forms[2], Cond)
    forms = parse_program("letrec f = \\n. f n")
    assert len(forms) == 1 and forms[0].recursive


def test_program_application_is_greedy():
    # layout does not end a form: the trailing `f x` is swallowed by the
    # lambda body, so compute-and-return programs should use `letrec ... in`
    forms = parse_program("letrec f = \\n. f n\nf x")
    assert len(forms) == 1 and isinstance(forms[0], Binding)


def test_program_letrec_in_is_expression():
    forms = parse_program("letrec x = 5 in x")
    assert len(forms) == 1 and isinstance(forms[0], Letrec)


def test_plain_let_has_no_in():
    # refused at the `in` at the top level, and at the keyword anywhere else
    for parse, source, span in [(parse_program, "let x = 5 in x", (10, 12, 1, 11)),
                                (parse_program, "let x = 1\nlet x = 2 in x", (20, 22, 2, 11)),
                                (parse_program, "letrec y = (let x = 5) in y", (12, 15, 1, 13)),
                                (parse_expr, "let x = 5", (0, 3, 1, 1))]:
        with pytest.raises(ParseError) as e:
            parse(source)
        assert e.value.message == ("'let' is only a top-level binding; use "
                                   "'letrec ... in' for expressions"), source
        assert tuple(e.value.span) == span, source


def test_bare_expression_must_be_last():
    with pytest.raises(ParseError):
        parse_program("f x\nlet y = 2")


### ---- pretty-printer round-trip ----------------------------------------------


def test_render_examples():
    cases = [
        "\\a. imap |a| {_(iv): a.iv + 1}",
        "imap [2] | [3] {[0] <= iv < [2]: 0, _(j): 1}",
        "letrec nats = imap [w] {_(iv): iv.[0]} in nats.[5]",
        "reduce (\\x. \\y. x + y) 0 [[1, 2], [3, 4]]",
        "filter (\\x. x > 0) (imap [w] {_(iv): 0}).[0]",
        "a ++ (b ++ c) ++ d",
        "(++) a",
        "if islim w then 1 else 2",
        "f |a|",
        "1 - (2 - 3) - 4",
        "w^2 * 3 + 4",
    ]
    for text in cases:
        assert render(parse_expr(text)) == text


def test_render_adds_needed_parens():
    assert render(parse_expr("(1 + 2) * 3")) == "(1 + 2) * 3"
    assert render(parse_expr("f (g x)")) == "f (g x)"
    assert render(parse_expr("(imap [w] {_(iv): 0}).[0]")) == "(imap [w] {_(iv): 0}).[0]"
    assert render(parse_expr("f (a.[0])")) == "f (a.[0])"


def test_render_ordinal_literals():
    # a constant renders only as one literal: a natural or w^k
    for value, text in ((0, "0"), (7, "7"), (Ordinal(7), "7"), (Ordinal(0), "0"),
                        (OMEGA, "w"), (omega_power(3), "w^3")):
        assert render(OrdinalConst(value)) == text
    for value in (OMEGA + 1, OMEGA * 2, omega_power(2, 3)):
        with pytest.raises(ValueError):
            render(OrdinalConst(value))


def test_render_parse_render_roundtrip():
    rng = random.Random(20260814)
    for _ in range(300):
        text = render(gen_expr(rng))
        assert render(parse_expr(text)) == text
