"""Command-line front end: run a file, evaluate one expression, or start a REPL."""

import argparse
import itertools
import sys
from typing import List, Optional

from .eval import EvalConfig, EvalError, Session, check_fuel, new_session
from .ordinal import Ordinal, omega_power
from .runtime import FilterClosure, render_scalar, render_shape, render_strict
from .syntax import ParseError

REPL_FUEL = 10_000_000
SEGMENT_CAP = 3  # lazy printing shows at most this many index segments


### ---- value printing ---------------------------------------------------------


def format_value(session: Session, value, force_elements: int) -> str:
    """Printable form of a value.  Lazy arrays with infinite shape render as a
    tag plus a bounded prefix, so printing always terminates."""
    shape = session.shape_at(value)
    if isinstance(value, FilterClosure):
        # forcing even one filtered element may diverge, so show the shape only
        return f"<filter shape={render_shape(shape)}>"
    if all(s.__class__ is int for s in shape):
        return render_strict(*session.strict_at(value))
    prefix = _lazy_prefix(session, value, shape, force_elements)
    return f"<imap shape={render_shape(shape)}> {prefix}"


def _lazy_prefix(session: Session, value, shape, k: int) -> str:
    parts: List[str] = []
    if len(shape) == 1:
        # past the cap the shown blocks are all infinite, so each ends in "..."
        for start, length in itertools.islice(_segments(shape[0]), SEGMENT_CAP):
            shown = length if length is not None and length <= k else k
            failed = _force_run(session, value, parts,
                                ((start + j,) for j in range(shown)))
            if failed is not None:
                if failed[0] + 1 < shape[0]:  # elements remain past it
                    parts.append("...")
                break
            if length is None or length > shown:
                parts.append("...")
    elif 0 not in shape:
        # row-major order; none of the first k indices reaches k on any axis
        axes = (range(min(k, s) if s.__class__ is int else k) for s in shape)
        _force_run(session, value, parts, itertools.islice(itertools.product(*axes), k))
        parts.append("...")
    body = ", ".join(parts)
    return "[" + body + (" ]" if body.endswith("...") else "]")


def _force_run(session: Session, value, parts: List[str], indices):
    """Append rendered elements, all in one entry; on failure record the error
    kind and stop.  Returns the index that failed, the first not appended, or None."""
    indices, first = list(indices), len(parts)
    try:
        session.select_each(value, indices, lambda scalar: parts.append(render_scalar(scalar)))
    except EvalError as error:
        parts.append(f"!{error.kind}")
        return indices[len(parts) - 1 - first]
    return None


def _segments(alpha: Ordinal):
    """The index blocks of a rank-1 shape as (start, finite length or None),
    treating each w^e summand as a single block; only the last can be finite."""
    acc = 0
    for exponent, coeff in alpha.terms:
        if exponent == 0:
            yield acc, coeff
        else:
            unit = omega_power(exponent)
            for _ in range(coeff):
                yield acc, None
                acc = acc + unit


### ---- one-shot modes -----------------------------------------------------------


def parse_index_literal(text: str):
    """An index vector such as "[3, 3]", "[]" or "[w, 2]"."""
    stripped = text.strip()
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise ValueError(f"expected an index literal like [1, 2], got {text!r}")
    inner = stripped[1:-1].strip()
    if not inner:
        return ()
    return tuple(Ordinal.parse(part) for part in inner.split(","))


def run_text(session: Session, source: str, force_print: Optional[int],
             probe: Optional[tuple] = None) -> int:
    """Run a program text in `session` with a fresh fuel budget and print its
    value (the scalar at index `probe` if given) unless `force_print`
    is None.  A failure or an interrupt is reported on stderr; returns the
    exit status."""
    session.fuel = session.config.fuel
    try:
        value = session.run_program(source)
        if value is None or force_print is None:
            return 0
        if probe is not None:
            print(render_scalar(session.select_at(value, probe)))
        else:
            print(format_value(session, value, force_print))
        return 0
    except (ParseError, EvalError) as error:
        print(error, file=sys.stderr)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
    return 1


### ---- interactive loop ----------------------------------------------------------


def repl_loop(args, config: EvalConfig) -> int:
    session = new_session(config, prelude=not args.no_prelude)
    interactive = sys.stdin.isatty()
    prompt = "> " if interactive else ""
    if interactive:
        print("heh repl; :quit exits, :config shows options, :load FILE runs a file")
    while True:
        try:
            line = input(prompt)
        except EOFError:
            if interactive:
                print()
            return 0
        except KeyboardInterrupt:
            print()
            continue
        line = line.strip()
        if not line or line.startswith(";"):
            continue
        if line.startswith(":"):
            if _meta_command(session, args, config, line):
                return 0
            continue
        run_text(session, line, args.force_print)


def _meta_command(session: Session, args, config: EvalConfig, line: str) -> bool:
    """Handle a `:command`; True means quit."""
    command, _, rest = line.partition(" ")
    if command == ":quit":
        return True
    if command == ":config":
        print(f"strict-arrays={'on' if config.strict_finite_imaps else 'off'} "
              f"memo={'on' if config.memoize else 'off'} "
              f"fuel={config.fuel} "
              f"force-print={args.force_print} "
              f"prelude={'off' if args.no_prelude else 'on'}")
        return False
    if command == ":load":
        path = rest.strip()
        if not path:
            print(":load needs a file path", file=sys.stderr)
            return False
        try:
            with open(path) as stream:
                source = stream.read()
        except OSError as error:
            print(error, file=sys.stderr)
            return False
        run_text(session, source, force_print=None)
        return False
    print(f"unknown command {command!r}; available: :quit :config :load",
          file=sys.stderr)
    return False


### ---- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heh",
        description="Interpreter for a lambda calculus with finite and "
                    "transfinite arrays.  With no file and no -e, starts a REPL.")
    parser.add_argument("file", nargs="?", help="program file to run")
    parser.add_argument("-e", "--eval", dest="expr", metavar="EXPR",
                        help="evaluate EXPR and print its value")
    parser.add_argument("--strict-arrays", action="store_true",
                        help="evaluate finite imap elements eagerly")
    parser.add_argument("--no-memo", action="store_true",
                        help="re-evaluate imap elements on every access")
    parser.add_argument("--fuel", type=int, metavar="N",
                        help="abort after N rule applications "
                             f"(default: unlimited; REPL default: {REPL_FUEL})")
    parser.add_argument("--force-print", type=int, default=10, metavar="K",
                        help="elements forced per infinite segment when "
                             "printing lazy arrays (default: 10)")
    parser.add_argument("--no-prelude", action="store_true",
                        help="do not load the standard prelude")
    parser.add_argument("--probe", metavar="IDX",
                        help='print the scalar at index IDX (e.g. "[3, 3]") '
                             "of the final value")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    probe = None
    try:
        args = parser.parse_args(argv)
        if args.file is not None and args.expr is not None:
            parser.error("a program file and -e are mutually exclusive")
        for flag, number in (("--fuel", args.fuel), ("--force-print", args.force_print)):
            try:
                check_fuel(number)  # a count of rules or of elements
            except ValueError:
                parser.error(f"{flag} must be >= 0")
        if args.probe is not None:
            try:
                probe = parse_index_literal(args.probe)
            except ValueError as error:
                parser.error(str(error))
    except SystemExit as exit_:   # argparse has printed the usage and the message
        return exit_.code or 0

    repl_mode = args.file is None and args.expr is None
    fuel = args.fuel if args.fuel is not None else (REPL_FUEL if repl_mode else None)
    config = EvalConfig(strict_finite_imaps=args.strict_arrays,
                        memoize=not args.no_memo, fuel=fuel)

    if repl_mode:
        return repl_loop(args, config)
    if args.expr is not None:
        source = args.expr
    else:
        try:
            with open(args.file) as stream:
                source = stream.read()
        except OSError as error:
            print(f"heh: error: {error}", file=sys.stderr)
            return 2
    session = new_session(config, prelude=not args.no_prelude)
    return run_text(session, source, args.force_print, probe)


if __name__ == "__main__":
    sys.exit(main())
