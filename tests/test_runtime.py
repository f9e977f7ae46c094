"""Recursion cell, environment, linearization, and box-algebra tests.

Box results are checked against a point-enumeration oracle: a candidate
decomposition is correct iff every point of the outer box lands in
exactly one piece when outside the inner box and in none otherwise.
"""

import itertools
import math
import random

import pytest
from canonical import is_canonical_array
from hypothesis import given, strategies as st

from heh.eval import Session, _check_bounds, evaluate
from heh.ordinal import OMEGA, ZERO, omega_power
from heh.runtime import (
    Fault, ImapClosure, Rec, StrictArray, box_contains, box_intersect, box_is_empty, box_subtract,
    forms_partition, linearize, render_strict, strict_value,
)


def vec(*xs):
    """A shape or index vector as the evaluator holds it: a natural is an int."""
    return tuple(xs)


### ---- linearization ------------------------------------------------------------


def test_linearize_witnesses():
    assert linearize(vec(2, 2), vec(1, 0)) == 2
    assert linearize(vec(), vec()) == 0
    assert linearize(vec(5), vec(3)) == 3
    assert linearize(vec(2, 3, 4), vec(1, 2, 3)) == 23


def test_linearize_errors():
    with pytest.raises(Fault) as f:
        linearize(vec(2, 2), vec(1))
    assert f.value.kind == "RankMismatch"
    with pytest.raises(Fault) as f:
        linearize(vec(2, 2), vec(1, 2))
    assert f.value.kind == "IndexOutOfBounds"


def test_linearize_bijective_3_4_5():
    shape = vec(3, 4, 5)
    offsets = [linearize(shape, vec(i, j, k))
               for i in range(3) for j in range(4) for k in range(5)]
    assert sorted(offsets) == list(range(60))
    assert offsets == list(range(60))  # row-major: last axis fastest


def forced_indices(sizes):
    """Index vectors of a finite imap, in the order the evaluator forces them."""
    shape = ", ".join(map(str, sizes))
    result = evaluate(f"[imap [{shape}]|[{len(sizes)}] {{_(iv): iv}}]", prelude=False)
    data, rank = result.session.strict_at(result.value)[1], len(sizes)
    return [tuple(data[j:j + rank]) for j in range(0, len(data), rank)]


def test_delinearize_witnesses():
    # offset k of the evaluator's walk over a finite imap is the index that
    # linearize numbers k
    for sizes, offset, index in (([2, 2], 2, vec(1, 0)), ([7], 4, vec(4)),
                                 ([3, 2000], 5999, vec(2, 1999))):
        got = forced_indices(sizes)[offset]
        assert got == index and all(type(i) is int for i in got)
        assert linearize(vec(*sizes), got) == offset
    # rank 0: one element, at the empty index
    assert evaluate("[imap [] {_(iv): 9}]", prelude=False).value == (9,)
    assert len(forced_indices([2, 2])) == 4   # offset 4 lies outside [2, 2]


def test_linearize_roundtrip():
    # itertools.product enumerates an index space in row-major order, which
    # linearize must number 0, 1, ..., n - 1
    for sizes in ([], [7], [2, 2], [3, 4, 5], [3, 2000], [2, 0, 3]):
        indices = itertools.product(*map(range, sizes))
        offsets = [linearize(vec(*sizes), index) for index in indices]
        assert offsets == list(range(math.prod(sizes))), sizes


def row_major_offset(sizes, index):
    """Pure-int oracle: the row-major offset of `index` in `sizes`."""
    offset = 0
    for axis, i in enumerate(index):
        stride = 1
        for s in sizes[axis + 1:]:
            stride *= s
        offset += i * stride
    return offset


@st.composite
def shapes_and_indices(draw):
    sizes = draw(st.lists(st.one_of(st.integers(1, 6), st.integers(1, 3000)),
                          max_size=4))
    return sizes, [draw(st.integers(0, s - 1)) for s in sizes]


@given(shapes_and_indices())
def test_linearize_matches_int_oracle(case):
    sizes, index = case
    offset = row_major_offset(sizes, index)
    assert linearize(vec(*sizes), vec(*index)) == offset


@given(st.lists(st.integers(0, 5), min_size=1, max_size=3), st.data())
def test_linearize_bounds_errors(sizes, data):
    shape = vec(*sizes)
    axis = data.draw(st.integers(0, len(sizes) - 1))
    bad = data.draw(st.one_of(st.integers(sizes[axis], sizes[axis] + 10),
                              st.sampled_from([OMEGA, OMEGA + 3])))
    index = tuple(bad if k == axis else ZERO for k in range(len(sizes)))
    with pytest.raises(Fault) as f:
        linearize(shape, index)
    assert f.value.kind == "IndexOutOfBounds"
    shown = ", ".join(str(i) for i in index)
    assert f.value.message == (f"index [{shown}] outside shape "
                               f"[{', '.join(map(str, sizes))}]")
    with pytest.raises(Fault) as f:
        linearize(shape, index + (ZERO,))
    assert (f.value.kind, f.value.message) == (
        "RankMismatch", f"index of length {len(sizes) + 1} into rank-{len(sizes)} array")


### ---- box algebra ---------------------------------------------------------------


def box(lower, upper):
    return (vec(*lower), vec(*upper))


def points(b):
    lo, up = b
    return itertools.product(*[range(l, u) for l, u in zip(lo, up)])


def test_box_subtract_whole():
    assert box_subtract(box([0, 0], [2, 2]), box([0, 0], [2, 2])) == []


def test_box_subtract_1d_ordinal():
    result = box_subtract((vec(0), vec(OMEGA)), box([3], [4]))
    assert result == [(vec(0), vec(3)), (vec(4), (OMEGA,))]


def test_box_subtract_canonical_order():
    result = box_subtract(box([0, 0], [4, 5]), box([1, 2], [3, 4]))
    assert result == [
        box([0, 0], [1, 5]),   # axis 0, low side
        box([3, 0], [4, 5]),   # axis 0, high side
        box([1, 0], [3, 2]),   # axis 1, low side
        box([1, 4], [3, 5]),   # axis 1, high side
    ]


def test_box_subtract_rank0():
    assert box_subtract(((), ()), ((), ())) == []


def test_box_subtract_clips_inner():
    assert box_subtract(box([0], [4]), box([2], [9])) == [box([0], [2])]
    assert box_subtract(box([0], [4]), box([7], [9])) == [box([0], [4])]


def test_box_subtract_point_oracle():
    rng = random.Random(11)
    for _ in range(300):
        rank = rng.randrange(4)
        lo, hi, ilo, ihi = [], [], [], []
        for _ in range(rank):
            a, b = sorted(rng.sample(range(7), 2))
            c = rng.randint(a, b)
            d = rng.randint(c, b)
            lo.append(a), hi.append(b), ilo.append(c), ihi.append(d)
        outer, inner = box(lo, hi), box(ilo, ihi)
        pieces = box_subtract(outer, inner)
        assert len(pieces) <= 2 * rank
        inner_pts = set(points(inner))
        for pt in points(outer):
            hits = sum(pt in set(points(p)) for p in pieces)
            assert hits == (0 if pt in inner_pts else 1)


def test_box_contains_matches_naive_comparison():
    # bounds and indices mix ints with canonical Ordinals on every side, so
    # `box_contains` compares an int with an Ordinal either way round
    pool = [0, 1, 2, 3, 5, OMEGA, OMEGA + 3, OMEGA * 2, omega_power(2)]
    assert all(p.__class__ is int or p.terms[0][0] >= 1 for p in pool)
    rng = random.Random(15)
    outcomes = set()
    for _ in range(3000):
        rank = rng.randint(1, 3)
        axes = [[rng.choice(pool) for _ in range(3)] for _ in range(rank)]
        if rng.random() < 0.5:
            axes = [sorted(axis) for axis in axes]  # l <= i <= u on each axis
        lower, index, upper = (tuple(axis[k] for axis in axes) for k in range(3))
        expected = all(l <= i < u for l, i, u in zip(lower, index, upper))
        assert box_contains((lower, upper), index) is expected, (lower, index, upper)
        outcomes.add((expected, any(i.__class__ is int for i in index)))
    assert len(outcomes) == 4  # inside and outside, with and without an int index


def test_a_miss_finds_the_box_box_contains_finds():
    # `Session._miss` finds the generator box of a rank-1 natural index with
    # an inline `l <= i < u` test, gives an open frame's one body for any
    # other index of naturals, and finds the box of the rest with
    # `box_contains`; an index in no box is outside the frame, and
    # `_check_bounds` refuses it.  `Session.select` of an imap with no cell
    # shape leaves every miss to `_miss`: a probe gets the same box, and is
    # refused with the same message.
    # Over random tilings of a rank-1 or rank-2 frame, in any order, by boxes
    # with int and Ordinal bounds (such as [w] <= iv < [w*2], and int uppers
    # below the index), each index in the frame gets from both the box
    # `box_contains` picks, whose body returns the box's number; an index at
    # or past an extent, a natural or not, is refused as `_check_bounds` does
    pool = [1, 2, 3, 5, 8, OMEGA, OMEGA + 1, OMEGA + 3, OMEGA * 2, omega_power(2)]
    rng = random.Random(29)

    def cuts(end):  # 0, cut points below `end`, and `end`; or with no `end`, 0 and points
        inner = [x for x in pool if end is None or x < end]
        points = sorted(rng.sample(inner, min(len(inner), rng.randint(0 if end else 1, 5))))
        return [0] + points + ([end] if end else [])

    session = Session()
    seen, refused = set(), set()
    for _ in range(4000):
        rows = cuts(None)
        frame, boxes = (rows[-1],), [((lo,), (hi,)) for lo, hi in zip(rows, rows[1:])]
        if rng.random() < 0.5:  # each row cut again along a second axis, or all rows alike
            frame += (rng.choice(pool),)
            grid = cuts(frame[1]) if rng.random() < 0.5 else None
            boxes = [((lo, l), (hi, u)) for (lo,), (hi,) in boxes
                     for columns in [grid or cuts(frame[1])] for l, u in zip(columns, columns[1:])]
        rng.shuffle(boxes)
        closure = ImapClosure(frame, (), None, tuple((box, lambda s, env, k=k: k)
                                                     for k, box in enumerate(boxes)))
        index = tuple(rng.choice([i for i in pool[:5] + [0, 4, 9, OMEGA + 2] if i < extent])
                      for extent in frame)
        picked = [k for k, box in enumerate(boxes) if box_contains(box, index)]
        assert len(picked) == 1, (boxes, index)
        assert session._miss(closure, index)(session, None) == picked[0], (boxes, index)
        assert session.select(closure, index) == picked[0], (boxes, index)
        seen.add((len(frame), index[-1].__class__ is int,
                  any(hi[-1].__class__ is int and hi[-1] <= index[-1] for _, hi in boxes),
                  any(lo[-1].__class__ is not int for lo, _ in boxes)))
        axis = rng.randrange(len(frame))  # past one extent, in the frame on the other
        past = rng.choice([i for i in pool if i >= frame[axis]])
        outside = index[:axis] + (past,) + index[axis + 1:]
        with pytest.raises(Fault) as expected:
            _check_bounds(closure, outside)
        for reader in (session._miss, session.select):
            with pytest.raises(Fault) as e:
                reader(closure, outside)
            assert (e.value.kind, e.value.message) == ("IndexOutOfBounds", expected.value.message)
        refused.add((len(frame), axis, past.__class__ is int))
    # of rank 1 and 2, a natural or not, an int upper below it or not, an
    # Ordinal lower or not, on the last axis; and refused past either axis
    assert len(seen) == 16 and len(refused) == 6


def test_forms_partition():
    frame = (vec(0), vec(OMEGA))
    ok = [box([0], [1]), (vec(1), vec(OMEGA))]
    assert forms_partition(frame, ok) is None
    gap = [box([0], [1]), (vec(2), vec(OMEGA))]
    assert "not fully covered" in forms_partition(frame, gap)
    overlap = [box([0], [2]), (vec(1), vec(OMEGA))]
    assert "overlap" in forms_partition(frame, overlap)
    outside = [box([0], [5]), (vec(1), vec(OMEGA))]
    assert forms_partition((vec(0), vec(3)), [box([0], [5])]) is not None


def test_forms_partition_2d():
    frame = box([0, 0], [2, 3])
    quarters = [box([0, 0], [1, 3]), box([1, 0], [2, 1]), box([1, 1], [2, 3])]
    assert forms_partition(frame, quarters) is None
    assert forms_partition(frame, quarters[:2]) is not None


def test_forms_partition_scalar_frame():
    assert forms_partition(((), ()), [((), ())]) is None
    assert "not fully covered" in forms_partition(((), ()), [])


def test_forms_partition_matches_its_cells():
    # over small integer frames of rank 1 and 2 and boxes that may be empty
    # (inverted ones included), reach outside, overlap or leave gaps, the
    # cells of the boxes decide: the first of them outside the frame or
    # overlapping an earlier one is reported, in box order, then a frame cell
    # no box covers, and None exactly when the boxes tile the frame
    def cells(lower, upper):
        return set(itertools.product(*(range(l, u) for l, u in zip(lower, upper))))

    def expected(frame, gens):
        inside, covered = cells(*frame), set()
        for i, g in enumerate(gens):
            if cells(*g) - inside:
                return f"generator {i} reaches outside the frame"
            for j in range(i):
                if cells(*g) & cells(*gens[j]):
                    return f"generators {j} and {i} overlap"
            covered |= cells(*g)
        return None if covered == inside else "the frame is not fully covered"

    rng = random.Random(39)
    seen = set()
    for _ in range(3000):
        rank = rng.randint(1, 2)
        upper = tuple(rng.randint(0, 4) for _ in range(rank))
        frame = ((0,) * rank, upper)
        if rng.random() < 0.3:  # the frame cut in two along one axis, which tiles it
            axis = rng.randrange(rank)
            cut = (rng.randint(0, upper[axis]),)
            gens = [((0,) * rank, upper[:axis] + cut + upper[axis + 1:]),
                    ((0,) * axis + cut + (0,) * (rank - axis - 1), upper)]
            rng.shuffle(gens)
        else:
            gens = [(tuple(rng.randint(0, 5) for _ in range(rank)),
                     tuple(rng.randint(0, 5) for _ in range(rank)))
                    for _ in range(rng.randint(0, 4))]
        problem, want = forms_partition(frame, gens), expected(frame, gens)
        if want is None or want.startswith("generator"):
            assert problem == want, (frame, gens)
        else:  # its example is a box of frame cells that no box covers
            prefix = want + " (e.g. indices from "
            assert problem.startswith(prefix), (frame, gens)
            lower, upper = (tuple(int(x) for x in side.strip("[]").split(", ") if x)
                            for side in problem[len(prefix):-1].split(" up to "))
            missed = cells(*frame).difference(*(cells(*g) for g in gens))
            assert cells(lower, upper) and cells(lower, upper) <= missed, (frame, gens)
        inside = cells(*frame)
        seen.add((want and want.split()[-1], any(box_is_empty(g) for g in gens),
                  any(cells(*g) - inside and cells(*g) & inside for g in gens)))
    # each outcome, with and without an empty box, and a box partly outside
    assert {(outcome, empty) for outcome, empty, _ in seen} == {
        (outcome, empty) for outcome in (None, "frame", "overlap", "covered")
        for empty in (False, True)}
    assert ("frame", False, True) in seen


extents = st.one_of(st.integers(0, 4),
                    st.sampled_from([OMEGA, OMEGA + 2, OMEGA * 2]))


@given(st.lists(extents, max_size=3))
def test_forms_partition_lone_full_box(upper):
    frame = ((ZERO,) * len(upper), tuple(upper))
    # equal to the frame, whether or not it is the same object
    assert forms_partition(frame, [frame]) is None
    assert forms_partition(frame, [(vec(*[0] * len(upper)), tuple(upper))]) is None


@given(st.lists(extents, min_size=1, max_size=3), st.data())
def test_forms_partition_rejects_other_boxes(upper, data):
    upper = tuple(upper)
    lower = (ZERO,) * len(upper)
    frame = (lower, upper)
    nonempty = all(u != ZERO for u in upper)
    axis = data.draw(st.integers(0, len(upper) - 1))
    def with_extent(extent):
        return (lower, upper[:axis] + (extent,) + upper[axis + 1:])
    smaller = [c for c in vec(0, 1, 3) + (OMEGA, OMEGA + 1) if c < upper[axis]]
    if nonempty:
        assert "outside the frame" in forms_partition(frame, [with_extent(upper[axis] + 1)])
        assert "overlap" in forms_partition(frame, [frame, frame])
        if smaller:
            short = with_extent(data.draw(st.sampled_from(smaller)))
            assert "not fully covered" in forms_partition(frame, [short])
    else:
        # every box in an empty frame is empty, so these all tile it
        assert forms_partition(frame, [frame, frame]) is None


### ---- recursion cells and environment -------------------------------------------


def test_rec_cell():
    cell = Rec("nats")
    with pytest.raises(Fault) as f:
        cell.get()
    assert f.value.kind == "UnboundVariable"
    assert f.value.message == "premature recursive reference to 'nats'"
    cell.value = 7
    assert cell.get() == 7


### ---- strict arrays ----------------------------------------------------------------


def test_strict_array_shapes():
    # a vector of ordinals, the empty one included, is a tuple
    v = strict_value(vec(2), [0, OMEGA])
    assert v.__class__ is tuple and v == (0, OMEGA)
    assert strict_value(vec(0), []) == ()
    assert strict_value((), [OMEGA]) is OMEGA
    # any other finite array of rank >= 1 is a StrictArray
    flags = strict_value(vec(2), [True, False])
    assert flags.__class__ is StrictArray and flags.shape == vec(2)
    assert strict_value(vec(1, 2), [0, OMEGA]).shape == vec(1, 2)
    empty = StrictArray(vec(1, 0), [])
    assert math.prod(empty.shape) == 0
    # what the evaluator builds is canonical; the constructor does not check,
    # the one predicate for it does
    for good in [flags, strict_value(vec(1, 2), [0, OMEGA]), empty]:
        assert is_canonical_array(good), good
    for bad in [StrictArray(vec(2), [1]),
                StrictArray((OMEGA,), []),          # a finite extent is an int
                StrictArray(vec(2), [True]),        # as many data as the extents give
                StrictArray((), [True]),            # a scalar is a bare value
                StrictArray((True,), [True]),       # an extent is an int, not a bool
                StrictArray(vec(2), [0, OMEGA])]:   # a vector of ordinals is a tuple
        assert not is_canonical_array(bad), bad


def test_render_strict():
    m = [1, 2, 3, 4]
    assert render_strict(vec(2, 2), m) == "[[1, 2], [3, 4]]"
    assert render_strict(vec(1), [OMEGA]) == "[w]"
    assert render_strict(vec(1, 0), []) == "[[]]"
    assert render_strict(vec(0), []) == "[]"
    assert render_strict(vec(2), [True, False]) == "[true, false]"
    assert render_strict((), [OMEGA]) == "w"
