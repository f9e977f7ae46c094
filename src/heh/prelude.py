"""Loading of the standard library and access to the shipped example programs."""

from functools import cache
from importlib import resources

from .eval import Session

__all__ = ["load_prelude", "prelude_source", "program_source", "program_names",
           "examples_suite"]


def _programs():
    return resources.files("heh").joinpath("programs")


def prelude_source() -> str:
    return _programs().joinpath("prelude.heh").read_text()


def program_source(name: str) -> str:
    """Source text of a shipped example program, e.g. 'ackermann.heh'."""
    return _programs().joinpath(name).read_text()


def program_names() -> list:
    return sorted(p.name for p in _programs().iterdir()
                  if p.name.endswith(".heh") and p.name != "prelude.heh")


@cache
def _prelude_values() -> dict:
    """The prelude's top-level frame, evaluated once per process.  Every
    value is a function that captures no environment and looks its free
    names up in the frame of the session that calls it, so sessions can
    share them."""
    session = Session()
    session.run_program(prelude_source())
    return session.env


def load_prelude(session: Session) -> None:
    """Bind the standard library into the session's top-level frame.  It
    runs no rule, so it spends no fuel and counts nothing."""
    session.env.update(_prelude_values())


_BLINKER = [[0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0]]


def examples_suite() -> list:
    """(program file, [(index, expected scalar)]) for every shipped program.

    Each program's final value, probed at the given indices under the default
    configuration, must yield the paired scalars.  Expected values: nats and
    countdown are index arithmetic, Ackermann comes from the textbook
    recursion, and a blinker has period two.
    """
    return [
        ("ackermann.heh", [((0, 0), 1), ((1, 1), 3), ((2, 2), 7),
                           ((2, 3), 9), ((3, 3), 61)]),
        ("countdown.heh", [((i,), i) for i in range(10)]),
        ("game_of_life.heh", [((i, j), _BLINKER[i][j])
                              for i in range(5) for j in range(5)]),
        ("nats.heh", [((0,), 0), ((1,), 1), ((17,), 17), ((40,), 40)]),
    ]
