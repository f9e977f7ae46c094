"""Command-line interface tests: modes, exit codes, printing, and the REPL."""

import io
import subprocess
import sys
from importlib.resources import files

import pytest

import heh.eval
from heh import cli
from heh.eval import Session
from test_eval import interrupt, shallow_limit  # noqa: F401 (a fixture)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_repl(monkeypatch, capsys, text, *argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    return run_cli(capsys, *argv)


def program_path(name):
    return str(files("heh").joinpath("programs").joinpath(name))


### ---- one-shot evaluation ----------------------------------------------------------


def test_eval_expression_prints_scalar(capsys):
    code, out, err = run_cli(capsys, "-e", r"reduce (\x.\y.x+y) 0 [[1,2],[3,4]]")
    assert (code, out, err) == (0, "10\n", "")


def test_eval_prints_ordinals_and_booleans(capsys):
    assert run_cli(capsys, "-e", "w * 2 + 1")[:2] == (0, "w*2 + 1\n")
    assert run_cli(capsys, "-e", "1 < 2")[:2] == (0, "true\n")
    assert run_cli(capsys, "-e", r"\x.x")[:2] == (0, "<fun>\n")


def test_eval_prints_finite_arrays_fully(capsys):
    code, out, _ = run_cli(capsys, "-e", "[[1,2],[3,4]]")
    assert (code, out) == (0, "[[1, 2], [3, 4]]\n")
    code, out, _ = run_cli(capsys, "-e", "imap [2,3] {_(iv): iv.[0] * 3 + iv.[1]}")
    assert (code, out) == (0, "[[0, 1, 2], [3, 4, 5]]\n")


def test_file_mode_runs_program(tmp_path, capsys):
    # bindings whose right-hand side ends an imap terminate cleanly, so a
    # trailing expression form is possible
    program = tmp_path / "p.heh"
    program.write_text("let a = imap [3] {_(iv): iv.[0] + 1}\nsum a\n")
    code, out, err = run_cli(capsys, str(program))
    assert (code, out, err) == (0, "6\n", "")


def test_file_mode_prints_final_binding(capsys):
    code, out, _ = run_cli(capsys, program_path("countdown.heh"))
    assert code == 0
    assert out == "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]\n"


def test_empty_program_prints_nothing(capsys):
    code, out, err = run_cli(capsys, "-e", "; just a comment")
    assert (code, out, err) == (0, "", "")


### ---- probing ----------------------------------------------------------------------


def test_probe_into_file_result(capsys):
    code, out, err = run_cli(capsys, program_path("ackermann.heh"),
                             "--probe", "[3,3]")
    assert (code, out, err) == (0, "61\n", "")


def test_probe_scalar_and_ordinal_components(capsys):
    assert run_cli(capsys, "-e", "41 + 1", "--probe", "[]")[:2] == (0, "42\n")
    code, out, _ = run_cli(capsys, "-e", "tail (imap [w+42] {_(iv): iv.[0]})",
                           "--probe", "[w]")
    assert (code, out) == (0, "w\n")
    # a component is read as the lexer reads a number, leading zeros and all
    assert run_cli(capsys, "-e", "[7, 8]", "--probe", "[00]")[:2] == (0, "7\n")
    assert run_cli(capsys, "-e", "[7, 8]", "--probe", "[01]")[:2] == (0, "8\n")


def test_probe_out_of_bounds_is_an_error(capsys):
    code, _, err = run_cli(capsys, "-e", "[1, 2]", "--probe", "[5]")
    assert code == 1
    assert "IndexOutOfBounds" in err


### ---- errors and exit codes ----------------------------------------------------------


def test_fuel_exhaustion_exits_one(capsys):
    code, out, err = run_cli(
        capsys, "-e", r"filter (\x.x>0) (imap [w] {_(iv): 0}).[0]",
        "--fuel", "1000")
    assert code == 1
    assert out == ""
    assert "FuelExhausted" in err


def test_parse_error_exits_one_with_span(capsys):
    code, _, err = run_cli(capsys, "-e", "1 +")
    assert code == 1
    assert "line 1" in err


def test_eval_error_exits_one_with_span(capsys):
    code, _, err = run_cli(capsys, "-e", "[1,2].[9]")
    assert code == 1
    assert "IndexOutOfBounds" in err and "line 1" in err


def test_error_while_printing_finite_imap_exits_one(capsys):
    # the element's fault surfaces only when printing forces the imap
    code, out, err = run_cli(capsys, "-e", "imap [2] {_(iv): [1]}")
    assert (code, out) == (1, "")
    assert err.startswith("ShapeMismatch")
    assert "imap element at [0] has shape [1], cell shape is []" in err


# printing forces element 0, which recurses through the other 3,999, a frame
# each: deeper than the 3,000 frames of the `shallow_limit` fixture allow
DEEP_FINITE = ("letrec a = imap [4000] {[0] <= iv < [3999]: a.(addv iv [1]) + 1, "
               "[3999] <= iv < [4000]: 0} in a")


def test_depth_overflow_while_printing_exits_one(capsys, shallow_limit):
    code, out, err = run_cli(capsys, "-e", DEEP_FINITE)
    assert (code, out) == (1, "")
    assert err.startswith("DepthExceeded (in select): evaluation nested deeper "
                          "than the interpreter's recursion limit")
    assert "Traceback" not in err and "does not terminate" not in err


def test_interrupted_run_exits_one(monkeypatch, capsys):
    # with no fuel, the first rule is interrupted
    monkeypatch.setattr(Session, "_out_of_fuel", interrupt)
    code, out, err = run_cli(capsys, "--no-prelude", "--fuel", "0", "-e", "1 + 1")
    assert (code, out, err) == (1, "", "interrupted\n")


def test_usage_errors_exit_two(tmp_path, capsys):
    program = tmp_path / "p.heh"
    program.write_text("1")
    assert run_cli(capsys, str(program), "-e", "1")[0] == 2      # both modes
    assert run_cli(capsys, "nonexistent.heh")[0] == 2            # missing file
    assert run_cli(capsys, "-e", "1", "--probe", "3,3")[0] == 2  # bad literal
    assert run_cli(capsys, "-e", "1", "--force-print", "-1")[0] == 2
    code, _, err = run_cli(capsys, "-e", "1 + 1", "--fuel", "-5")
    assert code == 2 and "heh: error: --fuel must be >= 0" in err
    assert cli.main(["--fuel", "abc"]) == 2


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "imap" not in capsys.readouterr().err


def test_small_fuel_still_loads_prelude(capsys):
    # the budget applies to the user program; library loading is exempt
    code, out, _ = run_cli(capsys, "-e", "sum [1, 2, 3]", "--fuel", "50")
    assert (code, out) == (0, "6\n")


def test_no_prelude_flag(capsys):
    code, _, err = run_cli(capsys, "-e", "sum [1, 2]", "--no-prelude")
    assert code == 1
    assert "UnboundVariable" in err


### ---- lazy printing -------------------------------------------------------------------


def test_infinite_vector_prints_bounded_prefix(capsys):
    code, out, _ = run_cli(capsys, "-e", "imap [w] {_(iv): iv.[0]}")
    assert code == 0
    assert out == "<imap shape=[w]> [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ... ]\n"


def test_force_print_controls_prefix_length(capsys):
    code, out, _ = run_cli(capsys, "-e", "imap [w] {_(iv): iv.[0]}",
                           "--force-print", "3")
    assert (code, out) == (0, "<imap shape=[w]> [0, 1, 2, ... ]\n")


def test_each_infinite_segment_gets_a_prefix(capsys):
    _, out, _ = run_cli(
        capsys, "-e",
        "imap [w*2] {[0] <= iv < [w]: 0, [w] <= iv < [w*2]: 1}",
        "--force-print", "2")
    assert out == "<imap shape=[w*2]> [0, 0, ..., 1, 1, ... ]\n"
    # w*7 and w*3+2 have more than SEGMENT_CAP (3) blocks; only the first get one
    blocks = "[0, 1, 2, ..., w, w + 1, w + 2, ..., w*2, w*2 + 1, w*2 + 2, ... ]"
    for shape, shown in (("w*7", "w*7"), ("w*3+2", "w*3 + 2")):
        _, out, _ = run_cli(capsys, "-e", f"imap [{shape}] {{_(iv): iv.[0]}}",
                            "--force-print", "3")
        assert out == f"<imap shape=[{shown}]> {blocks}\n"


def test_finite_tail_segment_prints_completely(capsys):
    _, out, _ = run_cli(
        capsys, "-e",
        "imap [w+2] {[0] <= iv < [w]: 0, [w] <= iv < [w+2]: 7}",
        "--force-print", "3")
    assert out == "<imap shape=[w + 2]> [0, 0, 0, ..., 7, 7]\n"


def test_rank_two_infinite_prints_row_major_prefix(capsys):
    _, out, _ = run_cli(capsys, "-e", "imap [w,w] {_(iv): iv.[1]}",
                        "--force-print", "4")
    assert out == "<imap shape=[w, w]> [0, 1, 2, 3, ... ]\n"
    # the last axis carries into the one before it
    _, out, _ = run_cli(capsys, "-e", "imap [w, 2] {_(iv): iv.[1]}",
                        "--force-print", "3")
    assert out == "<imap shape=[w, 2]> [0, 1, 0, ... ]\n"
    # ... and through a finite middle axis
    _, out, _ = run_cli(capsys, "-e", "imap [w, 3, 2] {_(iv): iv.[1] * 2 + iv.[2]}",
                        "--force-print", "7")
    assert out == "<imap shape=[w, 3, 2]> [0, 1, 2, 3, 4, 5, 0, ... ]\n"


def test_infinite_shape_with_no_elements_prints_empty(capsys):
    for shape in ("w, 0", "0, w"):
        code, out, _ = run_cli(capsys, "-e", f"imap [{shape}] {{_(iv): 1}}")
        assert (code, out) == (0, f"<imap shape=[{shape}]> []\n")


def test_printing_never_forces_filter_elements(capsys):
    # element 0 of this filter takes an unbounded scan; printing must not try
    code, out, _ = run_cli(capsys, "-e", r"filter (\x.x>0) (imap [w] {_(iv): 0})",
                           "--fuel", "1000")
    assert (code, out) == (0, "<filter shape=[w]>\n")


def test_faulting_element_is_reported_inline(capsys):
    code, out, _ = run_cli(
        capsys, "-e", "imap [w] {[0] <= iv < [2]: 1, [2] <= iv < [w]: 1 / 0}")
    assert code == 0
    assert out == "<imap shape=[w]> [1, 1, !DivisionByZero, ... ]\n"
    # rank 2 closes the same way
    code, out, _ = run_cli(capsys, "-e", "imap [w, 2] {_(iv): 1 / iv.[1]}")
    assert (code, out) == (0, "<imap shape=[w, 2]> [!DivisionByZero, ... ]\n")
    # no "..." when the element that failed is the last one
    code, out, _ = run_cli(capsys, "--force-print", "2", "-e",
                           "imap [w+1] {[0] <= iv < [w]: 1, [w] <= iv < [w+1]: 1 / 0}")
    assert (code, out) == (0, "<imap shape=[w + 1]> [1, 1, ..., !DivisionByZero]\n")


def test_a_lazy_prefix_is_forced_in_one_entry(monkeypatch, capsys):
    """The elements of a lazy prefix are forced in one public entry, which
    leaves no entry open and the caller's recursion limit when one fails."""
    entries, entry = [], Session._entry
    monkeypatch.setattr(Session, "_entry",
                        lambda self, rule, thunk: entries.append(rule) or entry(self, rule, thunk))
    caller = sys.getrecursionlimit()
    sys.setrecursionlimit(caller + 7)
    try:
        code, out, _ = run_cli(capsys, "-e", "imap [w] {_(iv): 6 / (3 - iv.[0])}")
        assert (code, out) == (0, "<imap shape=[w]> [2, 3, 6, !DivisionByZero, ... ]\n")
        assert entries == ["eval", "shape", "select"]
        assert heh.eval._open[0] == 0 and sys.getrecursionlimit() == caller + 7
    finally:
        sys.setrecursionlimit(caller)


### ---- REPL ------------------------------------------------------------------------------


def test_repl_bindings_persist(monkeypatch, capsys):
    code, out, err = run_repl(monkeypatch, capsys,
                              "let v = [5, 6, 7]\nv.[1]\nsum v\n")
    assert code == 0
    assert out == "[5, 6, 7]\n6\n18\n"
    assert err == ""


def test_repl_survives_errors(monkeypatch, capsys):
    code, out, err = run_repl(monkeypatch, capsys,
                              "let v = [1, 2]\nv.[9]\n1 +\nv.[0]\n")
    assert code == 0
    assert out == "[1, 2]\n1\n"
    assert "IndexOutOfBounds" in err and "expected an expression" in err


def test_repl_survives_error_while_printing(monkeypatch, capsys):
    code, out, err = run_repl(monkeypatch, capsys,
                              "imap [2] {_(iv): [1]}\nimap [2] {_(iv): iv.[0]}\n")
    assert (code, out) == (0, "[0, 1]\n")
    assert err.startswith("ShapeMismatch")


def test_repl_replenishes_fuel_per_entry(monkeypatch, capsys):
    text = "letrec f = \\x. f x in f 0\n1 + 1\n"
    code, out, err = run_repl(monkeypatch, capsys, text, "--fuel", "2000")
    assert code == 0
    assert out == "2\n"
    assert "FuelExhausted" in err


def test_repl_quit_and_eof(monkeypatch, capsys):
    assert run_repl(monkeypatch, capsys, ":quit\nnever run\n")[0] == 0
    assert run_repl(monkeypatch, capsys, "")[0] == 0


def test_repl_config_reflects_flags(monkeypatch, capsys):
    _, out, _ = run_repl(monkeypatch, capsys, ":config\n",
                         "--strict-arrays", "--fuel", "99", "--no-prelude")
    assert out == "strict-arrays=on memo=on fuel=99 force-print=10 prelude=off\n"


def test_repl_load_defines_names(monkeypatch, capsys):
    path = program_path("countdown.heh")
    code, out, err = run_repl(monkeypatch, capsys,
                              f":load {path}\na.[0]\n")
    assert (code, out, err) == (0, "0\n", "")


def test_repl_survives_depth_overflow_in_load(tmp_path, monkeypatch, capsys,
                                              shallow_limit):
    program = tmp_path / "deep.heh"
    program.write_text(DEEP_FINITE + ".[0]\n")
    code, out, err = run_repl(monkeypatch, capsys, f":load {program}\n1 + 1\n")
    assert (code, out) == (0, "2\n")
    assert err.startswith("DepthExceeded (in eval): ")


def test_repl_survives_interrupted_load(tmp_path, monkeypatch, capsys):
    program = tmp_path / "p.heh"
    program.write_text("let a = [1, 2]\nlet b = a.[1] + 1\n")
    # each entry gets fuel 4: the load is interrupted at its fifth rule, the
    # selection in `b`, and `1 + 1` needs only three
    monkeypatch.setattr(Session, "_out_of_fuel", interrupt)
    code, out, err = run_repl(monkeypatch, capsys, f":load {program}\n1 + 1\n",
                              "--no-prelude", "--fuel", "4")
    assert (code, out, err) == (0, "2\n", "interrupted\n")


def test_repl_load_missing_file(monkeypatch, capsys):
    code, _, err = run_repl(monkeypatch, capsys, ":load nope.heh\n1\n")
    assert code == 0
    assert "nope.heh" in err


def test_repl_unknown_command(monkeypatch, capsys):
    code, _, err = run_repl(monkeypatch, capsys, ":bogus\n")
    assert code == 0
    assert "unknown command" in err


BANNER = "heh repl; :quit exits, :config shows options, :load FILE runs a file\n"


def run_tty_repl(monkeypatch, capsys, text):
    """`run_repl` with stdin a terminal: a banner, a prompt per entry, and a
    newline when input ends."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    monkeypatch.setattr(sys.stdin, "isatty", lambda: True)
    return run_cli(capsys)


def test_tty_repl_prompts_and_ends_with_a_newline(monkeypatch, capsys):
    code, out, err = run_tty_repl(monkeypatch, capsys, "1 + 1\n\n; note\n:load\n")
    assert (code, err) == (0, ":load needs a file path\n")
    assert out == BANNER + "> 2\n> > > > \n"


def test_tty_repl_continues_after_ctrl_c(monkeypatch, capsys):
    real_input = input

    def interrupted(prompt):  # Ctrl-C at the first prompt, then real input
        monkeypatch.setattr("builtins.input", real_input)
        raise KeyboardInterrupt
    monkeypatch.setattr("builtins.input", interrupted)
    code, out, err = run_tty_repl(monkeypatch, capsys, "2 * 3\n")
    assert (code, out, err) == (0, BANNER + "\n> 6\n> \n", "")


def test_repl_letrec_binding(monkeypatch, capsys):
    text = ("letrec nats = imap [w] { [0] <= iv < [1]: 0, "
            "[1] <= iv < [w]: nats.(subv iv [1]) + 1 }\nnats.[40]\n")
    code, out, _ = run_repl(monkeypatch, capsys, text)
    assert code == 0
    assert out.endswith("40\n")


### ---- installed entry point ---------------------------------------------------------------


def test_console_script_is_installed():
    proc = subprocess.run(["heh", "-e", "1 + 1"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "2\n"
