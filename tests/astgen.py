"""Random AST generator for parser round-trip tests."""

import random

from heh.ordinal import omega_power
from heh.syntax import (
    Apply, ArrayLiteral, BinOp, BoolConst, Bounds, Cond, Filter, Full, Imap,
    IsLim, Lambda, Letrec, OrdinalConst, Reduce, Select, Shape, Var,
)

_NAMES = ["a", "b", "c", "f", "g", "x", "y", "iv", "s", "acc"]
_ORDINALS = [0, 1, 2, 5, 42, omega_power(1), omega_power(2), omega_power(3)]
_OPS = ["+", "-", "*", "/", "%", "<", "<=", "=", ">", ">="]


def gen_expr(rng: random.Random, depth: int = 4):
    if depth <= 0 or rng.random() < 0.2:
        kind = rng.randrange(4)
        if kind == 0:
            return OrdinalConst(rng.choice(_ORDINALS))
        if kind == 1:
            return BoolConst(rng.random() < 0.5)
        if kind == 2:
            return Var("++") if rng.random() < 0.05 else Var(rng.choice(_NAMES))
        return ArrayLiteral([gen_expr(rng, 0) for _ in range(rng.randrange(3))])

    sub = lambda: gen_expr(rng, depth - 1)
    kind = rng.randrange(12)
    if kind == 0:
        return Lambda(rng.choice(_NAMES), sub())
    if kind == 1:
        return Apply(sub(), sub())
    if kind == 2:
        return Cond(sub(), sub(), sub())
    if kind == 3:
        return Letrec(rng.choice(_NAMES), sub(), sub())
    if kind == 4:
        return BinOp(rng.choice(_OPS), sub(), sub())
    if kind == 5:
        return ArrayLiteral([sub() for _ in range(rng.randrange(4))])
    if kind == 6:
        index = rng.choice([
            Var(rng.choice(_NAMES)),
            ArrayLiteral([gen_expr(rng, 1) for _ in range(rng.randrange(1, 3))]),
            sub(),
        ])
        return Select(sub(), index)
    if kind == 7:
        return Shape(sub())
    if kind == 8:
        return Reduce(sub(), sub(), sub())
    if kind == 9:
        return Filter(sub(), sub()) if rng.random() < 0.5 else IsLim(sub())
    if kind == 10:
        # the ++ sugar: Apply(Apply(Var("++"), l), r)
        return Apply(Apply(Var("++"), sub()), sub())
    partitions = []
    for _ in range(rng.randrange(1, 3)):
        if rng.random() < 0.5:
            gen = Full(rng.choice(_NAMES))
        else:
            gen = Bounds(gen_expr(rng, 1), rng.choice(_NAMES), gen_expr(rng, 1))
        partitions.append((gen, gen_expr(rng, depth - 1)))
    cell = sub() if rng.random() < 0.4 else None
    return Imap(sub(), cell, partitions)
