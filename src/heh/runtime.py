"""Value universe, recursion cells, linearization, and box algebra.

A value is a plain Python object: a scalar (an ordinal, a `bool` or a
`FunClosure`), a `tuple` for a vector of ordinals (an index, a shape, a
literal such as `[1, 2]`), a `StrictArray` for any other finite array of
rank >= 1 (shape tuple + flat data of scalars in row-major order), a lazy
`ImapClosure`, or a lazy `FilterClosure`.  An ordinal is in the canonical
form of `heh.ordinal`: an `int` below w, an `Ordinal` at or above it.  So a
value is an ordinal exactly when its class is `int` or `Ordinal` (a `bool`
is an int to `isinstance`, never to this test), and a finite extent is an
`int`.  Hence the invariant the evaluator's fast paths rely on: an `int`
is below every `Ordinal`, so comparing the two needs no call into
`Ordinal`.  The one store-like cell is `Rec`, the name a `letrec` is
defining: it is empty while the definition is evaluated and filled after.
"""

from collections import defaultdict
from typing import Dict, List, Optional, Tuple, Union

from .ordinal import Ordinal

ShapeVec = Tuple[Union[int, Ordinal], ...]


class Fault(Exception):
    """Internal error carrier; the evaluator wraps these with span and rule."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind
        self.message = message


### ---- values -----------------------------------------------------------------


class StrictArray:
    """Shape/data pair of rank >= 1, never a vector of ordinals; the data are
    scalars, as many as the product of the shape's int extents.  The
    constructor does not check that; the tests do (`tests/canonical.py`)."""

    __slots__ = ("shape", "data")

    def __init__(self, shape: ShapeVec, data: list):
        self.shape = shape
        self.data = data

    def __repr__(self) -> str:
        return f"StrictArray({self.shape!r}, {self.data!r})"


def strict_value(shape: ShapeVec, data: list):
    """The value with a finite shape and row-major data: a bare scalar for
    the empty shape, a tuple for a vector of ordinals (the empty vector
    included), else a strict array."""
    if not shape:
        return data[0]
    if len(shape) == 1 and all(x.__class__ is int or x.__class__ is Ordinal for x in data):
        return tuple(data)
    return StrictArray(shape, data)


class FunClosure:
    """A function value: the code of its body and the environment it was
    built in, which its argument extends."""

    __slots__ = ("code", "env")

    def __init__(self, code, env):
        self.code = code
        self.env = env


class ImapClosure:
    """A lazy index map: one `(box, code)` pair per generator, whose bodies
    all extend the one `env` with the index.  The paper memoizes a forced
    element by cutting its generator box into guillotine pieces around the
    index, leaving a one-point partition that holds the value.  `memo`
    realises that rule equivalently: its keys are exactly those one-point
    partitions, and every other index still lies in the generator box it
    was written in, so the partitions are never cut."""

    __slots__ = ("frame", "cell", "shape", "env", "partitions", "memo")

    def __init__(self, frame: ShapeVec, cell: ShapeVec, env, partitions: tuple):
        self.frame = frame
        self.cell = cell
        self.shape = frame + cell
        self.env = env
        self.partitions = partitions
        self.memo: Dict[ShapeVec, object] = {}  # frame index -> cell value


class FilterSegment:
    __slots__ = ("prefix", "scan")

    def __init__(self):
        self.prefix: list = []  # accepted elements, in order
        self.scan = 0           # source elements inspected in this segment


class FilterClosure:
    """A lazy filter of a vector of infinite shape: `partitions` maps the
    limit part of an index to the segment scanned from it, made on first use."""

    __slots__ = ("predicate", "argument", "arg_shape", "partitions")

    def __init__(self, predicate: FunClosure, argument, arg_shape: ShapeVec):
        self.predicate = predicate
        self.argument = argument
        self.arg_shape = arg_shape
        self.partitions: Dict[Union[int, Ordinal], FilterSegment] = defaultdict(FilterSegment)


### ---- recursion cells ----------------------------------------------------------


class Rec:
    """The cell a `letrec` name is bound to.  It is empty while the definition
    is evaluated and holds the defined value afterwards; it may be passed
    around while empty, but forcing it then is a premature reference."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = None

    def get(self):
        if self.value is None:
            raise Fault("UnboundVariable",
                        f"premature recursive reference to '{self.name}'")
        return self.value


### ---- row-major linearization ---------------------------------------------------


def linearize(shape: ShapeVec, index: ShapeVec) -> int:
    """Row-major offset of `index` within `shape` (0-based, finite)."""
    if len(shape) != len(index):
        raise Fault("RankMismatch",
                    f"index of length {len(index)} into rank-{len(shape)} array")
    offset = 0
    for s, i in zip(shape, index):
        if not 0 <= i < s:
            raise Fault("IndexOutOfBounds",
                        f"index {render_shape(index)} outside shape "
                        f"{render_shape(shape)}")
        offset = offset * s + i
    return offset


### ---- box algebra over ordinal index spaces --------------------------------------

Box = Tuple[ShapeVec, ShapeVec]  # (inclusive lower corner, exclusive upper corner)


def box_is_empty(box: Box) -> bool:
    lower, upper = box
    return any(l >= u for l, u in zip(lower, upper))


def box_contains(box: Box, index: ShapeVec) -> bool:
    lower, upper = box
    for l, i, u in zip(lower, index, upper):
        if i.__class__ is int:  # an int is below every Ordinal (module docstring)
            if l.__class__ is not int or l > i or u.__class__ is int and i >= u:
                return False
        elif not l <= i < u:
            return False
    return True


def box_inside(inner: Box, outer: Box) -> bool:
    if box_is_empty(inner):
        return True
    return all(ol <= il and iu <= ou
               for ol, il, iu, ou in zip(outer[0], inner[0], inner[1], outer[1]))


def box_intersect(a: Box, b: Box) -> Box:
    lower = tuple(max(x, y) for x, y in zip(a[0], b[0]))
    upper = tuple(min(x, y) for x, y in zip(a[1], b[1]))
    return (lower, upper)


def box_subtract(outer: Box, inner: Box) -> List[Box]:
    """Disjoint boxes covering outer minus inner, guillotine order:
    axis-0 low side, axis-0 high side, axis-1 low side, ..."""
    inner = box_intersect(inner, outer)
    if box_is_empty(inner):
        return [] if box_is_empty(outer) else [outer]
    pieces = []
    lower, upper = list(outer[0]), list(outer[1])
    for axis in range(len(lower)):
        if lower[axis] < inner[0][axis]:
            piece = (tuple(lower), tuple(upper[:axis] + [inner[0][axis]] + upper[axis + 1:]))
            if not box_is_empty(piece):
                pieces.append(piece)
        if inner[1][axis] < upper[axis]:
            piece = (tuple(lower[:axis] + [inner[1][axis]] + lower[axis + 1:]), tuple(upper))
            if not box_is_empty(piece):
                pieces.append(piece)
        lower[axis], upper[axis] = inner[0][axis], inner[1][axis]
    return pieces


def forms_partition(frame: Box, gens: List[Box]) -> Optional[str]:
    """None when the boxes tile the frame exactly, else a description."""
    if len(gens) == 1 and gens[0] == frame:
        return None  # a lone box that is the frame tiles it
    for i, g in enumerate(gens):
        if not box_inside(g, frame):
            return f"generator {i} reaches outside the frame"
        for j in range(i):
            if not box_is_empty(box_intersect(g, gens[j])):
                return f"generators {j} and {i} overlap"
    remainder = [] if box_is_empty(frame) else [frame]
    for g in gens:
        remainder = [piece for r in remainder for piece in box_subtract(r, g)]
    if remainder:
        lo, up = remainder[0]
        return ("the frame is not fully covered (e.g. indices from "
                f"{render_shape(lo)} up to {render_shape(up)})")
    return None


### ---- plain value rendering ------------------------------------------------------


def render_scalar(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x.__class__ is int or x.__class__ is Ordinal:
        return str(x)
    if isinstance(x, FunClosure):
        return "<fun>"
    raise TypeError(f"not a scalar payload: {x!r}")


def render_strict(shape: ShapeVec, data: list) -> str:
    """Nested-bracket form of a finite array from its shape and row-major
    data; a scalar x has shape () and data [x]."""
    if not shape:
        return render_scalar(data[0])
    n = shape[0]
    chunk = len(data) // n if n else 0
    return "[" + ", ".join(render_strict(shape[1:], data[i * chunk:(i + 1) * chunk])
                           for i in range(n)) + "]"


def render_shape(shape: ShapeVec) -> str:
    return "[" + ", ".join(str(s) for s in shape) + "]"
