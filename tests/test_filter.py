"""Filter tests: finite strict filtering and segment-based transfinite filtering.

Transfinite expected values come from a direct counting argument: filtering
the identity array over [w*2] with an evens predicate keeps 2n at position n
and w+2n at position w+n, since each limit segment is filtered independently
and below-w survivors stay below w.
"""

import pytest

from heh.eval import EvalConfig, EvalError, evaluate, probe
from heh.ordinal import OMEGA, Ordinal
from heh.runtime import FilterClosure, StrictArray


def run(src, config=None):
    return evaluate(src, config=config, prelude=False)


EVENS = "(\\x. x % 2 = 0)"


### ---- finite ---------------------------------------------------------------------


def python_filter(predicate, values):
    return [v for v in values if predicate(v)]


def test_finite_filter_matches_sequential_oracle():
    values = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
    src = "filter (\\x. x % 2 = 0) " + str(values)
    r = run(src)
    expected = python_filter(lambda v: v % 2 == 0, values)
    assert isinstance(r.value, tuple)  # a vector of ordinals
    assert r.value == tuple(expected)
    assert list(r.shape) == [len(expected)]


def test_finite_filter_all_and_none():
    assert run("filter (\\x. true) [1,2,3]").value == (1, 2, 3)
    r = run("filter (\\x. false) [1,2,3]")
    assert r.value == ()
    assert list(r.shape) == [0]
    # a vector of booleans stays a StrictArray
    r = run("filter (\\x. x) [true, false, true]")
    assert isinstance(r.value, StrictArray) and r.value.data == [True, True]


def test_finite_filter_forces_lazy_argument():
    r = run("filter " + EVENS + " (imap [6] {_(iv): iv.[0]})")
    assert r.value == (0, 2, 4)


def test_filter_predicate_must_return_boolean():
    with pytest.raises(EvalError) as e:
        run("filter (\\x. x) [1,2,3]")
    assert e.value.kind == "ShapeMismatch"


def test_filter_rank_errors():
    for src in ["filter (\\x.true) 5", "filter (\\x.true) [[1,2],[3,4]]"]:
        with pytest.raises(EvalError) as e:
            run(src)
        assert e.value.kind == "FilterRankError"


### ---- transfinite selection --------------------------------------------------------


def test_evens_of_nats():
    r = run("filter " + EVENS + " (imap [w] {_(iv): iv.[0]})")
    assert isinstance(r.value, FilterClosure)
    assert probe(r, [3]) == 6
    for n in (0, 1, 10, 25):
        assert probe(r, [n]) == 2 * n


def test_transfinite_segments_filter_independently():
    # identity over [w*2]: position w+n holds w+2n after filtering
    src = "filter " + EVENS + " (imap [w*2] {_(iv): iv.[0]})"
    r = run(src)
    assert probe(r, [OMEGA + 3]) == OMEGA + 6
    for n in (0, 1, 5):
        assert probe(r, [OMEGA + n]) == OMEGA + 2 * n
    # the below-w segment still behaves like evens-of-nats
    assert probe(r, [4]) == 8


def test_segment_scan_state_grows_monotonically():
    r = run("filter " + EVENS + " (imap [w] {_(iv): iv.[0]})")
    s = r.session
    assert probe(r, [3]) == 6
    calls = s.stats["predicate_calls"]
    assert probe(r, [1]) == 2  # already scanned past, served from the prefix
    assert s.stats["predicate_calls"] == calls
    assert probe(r, [5]) == 10  # extends the scan
    assert s.stats["predicate_calls"] > calls


def test_filter_state_persists_without_memoization():
    r = run("filter " + EVENS + " (imap [w] {_(iv): iv.[0]})",
            EvalConfig(memoize=False))
    s = r.session
    probe(r, [3])
    calls = s.stats["predicate_calls"]
    probe(r, [1])
    assert s.stats["predicate_calls"] == calls


def test_scan_past_end_of_segment():
    # only 3 positive elements exist below w; looking for a 4th never ends
    src = "filter (\\x. x > 0) (imap [w] {[0]<=iv<[3]: 1, [3]<=iv<[w]: 0})"
    r = run(src, EvalConfig(fuel=50_000))
    assert probe(r, [2]) == 1
    with pytest.raises(EvalError) as e:
        probe(r, [3])
    assert e.value.kind == "FuelExhausted"


### ---- shape postulates ---------------------------------------------------------------


def test_filter_shape_limit_frames_are_postulated():
    for frame, expected in [("[w]", [OMEGA]), ("[w*2]", [OMEGA * 2]),
                            ("[w^2]", [omega2()])]:
        r = run("filter " + EVENS + " (imap " + frame + " {_(iv): iv.[0]})")
        s = r.session
        assert list(r.shape) == expected
        assert s.stats["predicate_calls"] == 0  # no forcing for limit frames


def omega2():
    from heh.ordinal import omega_power
    return omega_power(2)


def test_filter_shape_trailing_naturals_are_forced():
    # [w+3] argument whose last three elements are 0,1,2: exactly one survives
    src = ("filter (\\x. x = 1) "
           "(imap [w+3] {[0]<=iv<[w]: 0, [w]<=iv<[w+3]: iv.[0] - w})")
    r = run(src)
    assert list(r.shape) == [OMEGA + 1]
    assert r.session.stats["predicate_calls"] >= 3
    assert probe(r, [OMEGA]) == 1


def test_filter_shape_trailing_none_survive():
    src = "filter (\\x. x = 9) (imap [w+2] {[0]<=iv<[w]: 0, [w]<=iv<[w+2]: 5})"
    r = run(src)
    assert list(r.shape) == [OMEGA]


def test_divergent_filter_shape_then_fuel_exhaustion():
    # no element passes, yet the shape postulate still reports [w];
    # selecting any index scans forever and runs out of fuel
    src = "filter (\\x. x > 0) (imap [w+2] {_(iv): 0})"
    r = run(src, EvalConfig(fuel=100_000))
    assert list(r.shape) == [OMEGA]
    with pytest.raises(EvalError) as e:
        probe(r, [0])
    assert e.value.kind == "FuelExhausted"


### ---- composition ----------------------------------------------------------------------


def test_filter_of_filter():
    src = ("filter (\\x. x % 3 = 0) "
           "(filter " + EVENS + " (imap [w] {_(iv): iv.[0]}))")
    r = run(src)
    # evens that are also multiples of 3: multiples of 6
    for n in range(5):
        assert probe(r, [n]) == 6 * n
    assert list(r.shape) == [OMEGA]


def test_filter_out_of_bounds_index():
    r = run("filter " + EVENS + " (imap [w] {_(iv): iv.[0]})")
    with pytest.raises(EvalError) as e:
        probe(r, [OMEGA])
    assert e.value.kind == "IndexOutOfBounds"
    with pytest.raises(EvalError) as e:
        probe(r, [0, 0])
    assert e.value.kind == "RankMismatch"
