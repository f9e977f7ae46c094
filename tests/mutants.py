"""Mutants of heh that Tier-1 must kill, and the script that runs them.

    python tests/mutants.py [NAME ...]

Each entry of `MUTANTS` is one small fault: a file of the tree, an old text
that occurs in it exactly once, the new text that replaces it, and what is
expected to kill it: tests as pytest names them, or `DIGEST`, the outcome
digest that `test_differential.py` pins.  For each mutant (every one, or
those NAMEd) the script copies the tree, less `.git` and caches, to a
temporary directory and applies the mutant there.  It then runs, each in a
fresh process and stopping at the first that fails, the named tests, the
outcome digest, and Tier-1, whose failures count only where the unmutated
tree passes (that tree's Tier-1 is run once, when a mutant first gets that
far).  Tier-1 runs without `test_mutants.py`, which fails in every mutated
tree, as the mutant's old text is gone from it.  It prints a line a mutant,
with its seconds: `killed` and by what, `survived`, or `stale` if the old
text does not occur exactly once or a named test does not exist.  A mutant
still running after `LIMIT` seconds is stopped and counts as killed: Tier-1
stops a test that loops, at its own limit (see `conftest.py`).  The exit
status is 0 only if every mutant was killed.

This is mutation testing, after DeMillo, Lipton and Sayward, "Hints on Test
Data Selection" (IEEE Computer, 1978).  Tier-1 checks only that the catalogue
applies (`test_mutants.py`); it runs no mutant.  Only the standard library
and pytest are needed.
"""

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
DIGEST = "digest"
LIMIT = 300  # seconds a mutant may run
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
         "-rfE", "--ignore=tests/test_mutants.py"]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the root of the tree
    old: str
    new: str
    killers: Tuple[str, ...]  # tests, `file::name`, or `DIGEST`


EVAL, RUNTIME, ORDINAL = "src/heh/eval.py", "src/heh/runtime.py", "src/heh/ordinal.py"
# the `=` step's two last lines: with a test of its operands' classes, and with none
EQUAL_TAGS = ('"?012 $t, $u = $t == $u if {_INTS} else _equal($t, "\n' + " " * 34
              + '"$u), None").replace("$apply", "?3 ')
SYNTAX, SYNTAX_TEST = "src/heh/syntax.py", "tests/test_syntax.py::test_"
FRONT_END_PIN = SYNTAX_TEST + "the_front_end_is_pinned"
MISS_TEST = "tests/test_runtime.py::test_a_miss_finds_the_box_box_contains_finds"
FILTER_TEST, EVAL_TEST = "tests/test_filter.py::test_", "tests/test_eval.py::test_"
READERS_TEST = EVAL_TEST + "every_reader_of_a_split_imap_agrees"
NATURAL_BOX = "if l.__class__ is int and l <= i and (u.__class__ is not int or i < u): return code"
SELECT_MISS = "cell = self._miss(value, at)(self, (at, value.env, value))"
EDGES_TEST = EVAL_TEST + "selection_edges_around_w"
OPEN_MISS = ("        elif closure.open and max(index).__class__ is int:  # each below its Ordinal "
             "extent\n            return closure.open\n")  # `_miss`'s return of an open frame's body
LONG_TEST = EVAL_TEST + "a_long_literal_is_a_node_of_its_parent"
SELECT_DOC = "or the rest selects in it.\"\"\"\n"  # the end of `select`'s docstring
SHORT = "            if self.rules > self.limit: self._short(1)\n            "  # after a count
# `_scan`'s predicate call, and the count of the element as scanned once it answered
SCAN_STEP = """            self.predicate_calls += 1
            self.rules += 1  # applying the predicate
            if self.rules > self.limit: self._short(1)
            accepted = pcode(self, (element, penv))
            if accepted.__class__ is not bool:
                accepted = self._force_scalar(accepted)
                if accepted.__class__ is not bool:
                    raise Fault("ShapeMismatch", "the filter predicate must return a boolean")
            if accepted:
                prefix.append(element)
            segment.scan += 1
"""

MUTANTS = [
    Mutant("natural-upper-inclusive", EVAL, NATURAL_BOX, NATURAL_BOX.replace("i < u", "i <= u"),
           (MISS_TEST,)),
    Mutant("natural-miss-takes-last-body", EVAL, NATURAL_BOX + "\n",
           NATURAL_BOX + "\n            return closure.partitions[-1][1]\n", (MISS_TEST, DIGEST)),
    Mutant("miss-raises-nothing", EVAL, "_check_bounds(closure, index)", "pass",
           (MISS_TEST, DIGEST)),
    Mutant("box-search-skips-last-box", EVAL, "for box, code in closure.partitions:",
           "for box, code in closure.partitions[:-1]:", (MISS_TEST, DIGEST)),
    Mutant("scan-index-off-by-one", EVAL, "return self._scan(value, xi, n)[n]",
           "return self._scan(value, xi, n)[n - 1]", (FILTER_TEST + "evens_of_nats",)),
    Mutant("filter-shape-k-le-1", EVAL, "(lam,) if k == 0 else", "(lam,) if k <= 1 else",
           (FILTER_TEST + "filter_shape_trailing_naturals_are_forced",)),
    Mutant("parse-error-clause-dropped", EVAL, "except (EvalError, ParseError) as e:",
           "except EvalError as e:",
           (EVAL_TEST + "deep_and_arithmetic_faults_are_reported_at_their_node",)),
    Mutant("entry-frame-keeps-its-error", EVAL, "finally: del error", "finally: pass",
           (EVAL_TEST + "deep_and_arithmetic_faults_are_reported_at_their_node",)),
    Mutant("count-line-removed", EVAL, '"count": (None, "s.body_evals += 1\\n@t\\n',
           '"count": (None, "@t\\n', (DIGEST,)),
    Mutant("count-after-body", EVAL, '"count": (None, "s.body_evals += 1\\n@t\\n',
           '"count": (None, "@t\\ns.body_evals += 1\\n', (DIGEST,)),
    Mutant("memo-before-check", EVAL, '@t\\n?0 if $t.__class__ not in _SCALARS or',
           '@t\\nif s.config.memoize: $env[2].memo[$env[0]] = $t\\n?0 if $t.__class__ not in '
           '_SCALARS or', (EVAL_TEST + "a_cell_that_fails_its_shape_check_is_not_memoized",
                           DIGEST)),
    Mutant("memo-write-dropped", EVAL, "if s.config.memoize: $env[2].memo[$env[0]] = $t",
           "if s.config.memoize: pass", (READERS_TEST, DIGEST)),
    Mutant("cell-shape-check-needs-a-non-scalar", EVAL,
           "if $t.__class__ not in _SCALARS or $env[2].cell:",
           "if $t.__class__ not in _SCALARS:", (DIGEST,)),
    Mutant("entry-no-caller-fallback", EVAL, "            while codes:  # to the innermost",
           "            if codes:  # to the innermost",
           (EVAL_TEST + "a_fault_in_a_fused_body_is_reported_at_its_node",)),
    Mutant("box-contains-upper-inclusive", RUNTIME, "if not l <= i < u:", "if not l <= i <= u:",
           (MISS_TEST,)),
    Mutant("strict-loop-skips-memo", EVAL, "cell = memo.get(index)", "cell = None",
           (READERS_TEST,)),
    Mutant("select-skips-cell-bounds", EVAL, "if value.cell: _check_bounds(value, index)",
           "if False: _check_bounds(value, index)", (DIGEST,)),
    Mutant("select-miss-takes-first-body", EVAL, SELECT_MISS,
           SELECT_MISS.replace("self._miss(value, at)", "value.partitions[0][1]"),
           (MISS_TEST, DIGEST)),
    Mutant("scan-uncounted-trailing-select", EVAL,
           "\n                self.rules += 1  # the step into the cell",
           "\n                self.rules += 0  # the step into the cell", (DIGEST,)),
    Mutant("scan-uncounted-selection", EVAL, "self.rules += 1  # the selection\n" + SHORT
           + "if cells:", "self.rules += 0  # the selection\n" + SHORT + "if cells:", (DIGEST,)),
    Mutant("pick-uncounted-selection", EVAL, '_PICK = """\\\n$prologue\n', '_PICK = """\\\n',
           (DIGEST,)),
    Mutant("pick-uncounted-step-into-cell", EVAL, "    ?02 $prologue\n    ?02 if $v.__class__ not in",
           "    ?02 if $v.__class__ not in", (DIGEST,)),
    Mutant("select-uncounted-step-into-cell", EVAL, "self.rules += 1\n" + SHORT + "return cell if",
           "self.rules += 0\n" + SHORT + "return cell if", (DIGEST,)),
    Mutant("select-counts-its-selection-again", EVAL, SELECT_DOC,
           SELECT_DOC + "        self.rules += 1\n        if self.rules > self.limit: "
           "self._short(1)\n", (DIGEST,)),
    Mutant("select-each-uncounted", EVAL, "self.rules += 1\n    " + SHORT + "    out(",
           "self.rules += 0\n    " + SHORT + "    out(", (DIGEST,)),
    Mutant("force-scalar-uncounted", EVAL, "self.rules += 1  # the selection\n" + SHORT
           + "return self._force_scalar(", "self.rules += 0  # the selection\n" + SHORT
           + "return self._force_scalar(", (DIGEST,)),
    Mutant("scan-counts-before-the-predicate", EVAL, SCAN_STEP, SCAN_STEP[-30:]
           + SCAN_STEP[:-30], (EVAL_TEST + "failed_probe_leaves_the_session_able_to_reprobe",)),
    Mutant("run-prologue-counts-one-more", EVAL, '_PROLOGUE.replace("$k", str(k))',
           '_PROLOGUE.replace("$k", str(k + 1))', (DIGEST,)),
    Mutant("var-step-is-quiet", EVAL, '_QUIET = {"const", "hops", "lambda",',
           '_QUIET = {"const", "hops", "var", "lambda",',
           (EVAL_TEST + "a_run_counts_no_node_past_a_name_that_can_fault",)),
    Mutant("equal-mixes-bool-and-int", EVAL,
           "and (lhs.__class__ is bool) is (rhs.__class__ is bool)):", "):",
           (EVAL_TEST + "booleans_are_not_ordinals",)),
    Mutant("sub-keeps-a-zero-coefficient", ORDINAL, "while i < len(b) and b[i] == a[i]:",
           "while i < len(b) - 1 and b[i] == a[i]:",
           ("tests/test_ordinal.py::test_left_sub_witnesses",)),
    Mutant("divmod-quotient-one-short", ORDINAL, "if k and ((f, d * k),) + b[1:] > r:",
           "if k and ((f, d * k),) + b[1:] >= r:",
           ("tests/test_ordinal.py::test_division_theorem",)),
    Mutant("short-counts-one-rule-less", EVAL, "self.rules += f + 1 - k", "self.rules += f - k",
           (DIGEST,)),
    Mutant("apply1-fuel-guard-dropped", EVAL, "if $t.inner is not None and s.rules < s.limit:",
           "if $t.inner is not None:", (DIGEST,)),
    Mutant("binding-restore-dropped", EVAL, "                del self.env[form.name]",
           "                pass", (EVAL_TEST + "binding_failure_restores_environment",)),
    Mutant("column-off-by-one-after-a-newline", SYNTAX, "start = begin  # the newline",
           "start = begin + 1  # the newline", (SYNTAX_TEST + "tokenize_spans", FRONT_END_PIN)),
    Mutant("span-ends-at-the-last-token-begin", SYNTAX, "(first[2], last[3], first[4], first[5])",
           "(first[2], last[2], first[4], first[5])", (SYNTAX_TEST + "precedence",
                                                        FRONT_END_PIN)),
    Mutant("expect-reports-the-token-before", SYNTAX,
           'found {self.kinds[pos]!r}", self.span_at(pos))',
           'found {self.kinds[pos]!r}", self.span_at(pos - 1))', (FRONT_END_PIN,)),
    Mutant("lambda-alias-lexed-as-itself", SYNTAX, '"λ": "\\\\", ', "",
           (SYNTAX_TEST + "tokenize_symbols_and_lambda_alias", FRONT_END_PIN)),
    Mutant("open-with-an-int-extent", EVAL, " and int not in map(type, closure.frame)", "",
           (EDGES_TEST, DIGEST)),
    Mutant("open-at-rank-0", EVAL, "closure.frame != () and ", "", (EDGES_TEST, DIGEST)),
    Mutant("step-reads-open-frame-past-its-extent", EVAL,
           "$t.open if $t.open and max($u).__class__ is int", "$t.open if $t.open",
           (EDGES_TEST, DIGEST)),
    Mutant("miss-searches-an-open-frame", EVAL, OPEN_MISS, "",
           (EVAL_TEST + "which_helpers_a_probe_calls",
            EVAL_TEST + "pinned_probes_make_no_ordinal_comparison")),
    Mutant("miss-reads-open-frame-past-its-extent", EVAL,
           "elif closure.open and max(index).__class__ is int:", "elif closure.open:",
           (MISS_TEST, DIGEST)),
    Mutant("open-over-several-partitions", EVAL, " and len(closure.partitions) == 1", "",
           (READERS_TEST, DIGEST)),
    Mutant("select1-reads-past-the-end", EVAL, "$a < len($t)", "$a <= len($t)", (EDGES_TEST,)),
    # each grants a fact (see `heh.eval._flatten`) where it does not hold
    Mutant("unknown-array-gives-an-ordinal", EVAL, "fact = Ordinal if mask & 1 else None",
           "fact = Ordinal", (DIGEST,)),
    Mutant("unknown-test-taken-for-a-bool", EVAL,
           "mask = _flatten(node.test, scope, key, spans, args) is bool",
           "mask = _flatten(node.test, scope, key, spans, args) is bool or 1", (DIGEST,)),
    Mutant("lambda-parameter-taken-for-a-vector", EVAL, "(node.param, None) + scope",
           "(node.param, tuple) + scope", (DIGEST,)),
    Mutant("application-runs-no-code", EVAL, '_NO_CODE = {*_QUIET,',
           '_NO_CODE = {*_QUIET, "apply", "apply1", "apply2",', (READERS_TEST, DIGEST)),
    Mutant("equal-settled-with-one-known-operand", EVAL, EQUAL_TAGS,
           EQUAL_TAGS.replace("?012", "?02").replace("?3", "?13"), (DIGEST,)),
    Mutant("no-literal-is-a-vector", EVAL, "{*map(type, node.elements)} <= {OrdinalConst}",
           "{*map(type, node.elements)} < {OrdinalConst}",
           (EVAL_TEST + "a_literal_of_constants_is_built_from_one_tuple",)),
    Mutant("long-literal-drops-its-last-element", EVAL, "for $u in $a:", "for $u in $a[:-1]:",
           (LONG_TEST, DIGEST)),
    Mutant("long-literal-elements-lose-their-scope", EVAL,
           "args.append([compile_expr(e, scope) for e in node.elements])",
           "args.append([compile_expr(e) for e in node.elements])", (LONG_TEST, DIGEST)),
    Mutant("islim-leaves-a-rank-0-imap-unforced", EVAL, '"islim": ("islim", f"@t\\nif {_T}:',
           '"islim": ("islim", f"@t\\nif {_T} and $t.__class__ is not ImapClosure:',
           (EVAL_TEST + "rarely_taken_branches", DIGEST)),
]


def applied(mutant: Mutant, root: Path) -> bool:
    """Apply `mutant` to the tree at `root`; False, changing nothing, if it is stale."""
    path = root / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def named_tests_exist(mutant: Mutant, root: Path) -> bool:
    """Whether each test `mutant` names is a file of the tree, or a function in one."""
    for killer in mutant.killers:
        if killer == DIGEST:
            continue
        file, _, name = killer.partition("::")
        path = root / file
        if not path.is_file() or name and f"\ndef {name}(" not in path.read_text():
            return False
    return True


def pinned_digest(root: Path) -> str:
    return re.search(r'OUTCOME_DIGEST = "([0-9a-f]{64})"',
                     (root / "tests" / "test_differential.py").read_text())[1]


def run(args, cwd: Path, deadline: Optional[float] = None):
    """(exit status, stdout) of `python ARGS` in `cwd` with `cwd/src` on the path, or None
    once `deadline` passes, with its process group stopped."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=None if deadline is None else max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return proc.returncode, out


def failures(out: str) -> set:
    """The tests that pytest's `-q` summary lists as failed or errors."""
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", out, re.M))


def copy_tree(destination: Path) -> Path:
    shutil.copytree(ROOT, destination, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
    return destination


def verdict(mutant: Mutant, scratch: Path, baseline: dict) -> str:
    """`killed (by ...)`, `survived` or `stale` for `mutant`, run in a copy under `scratch`."""
    root = copy_tree(scratch / mutant.name)
    try:
        if not named_tests_exist(mutant, root) or not applied(mutant, root):
            return "stale"
        deadline = time.monotonic() + LIMIT
        tests = [killer for killer in mutant.killers if killer != DIGEST]
        steps = ([("named tests", TIER1 + ["-x", *tests])] * bool(tests)
                 + [(DIGEST, ["tests/outcome_digest.py"]), ("Tier-1", TIER1)])
        for step, args in steps:
            result = run(args, root, deadline)
            if result is None:
                return f"killed (the limit of {LIMIT} s, in the {step})"
            status, out = result
            if step == DIGEST:
                if status != 0:
                    return "killed (the digest script failed)"
                if out.strip() != pinned_digest(root):
                    return f"killed (digest {out.strip()[:8]}…)"
            elif step == "Tier-1":
                if "failures" not in baseline:
                    baseline["failures"] = failures(run(TIER1, copy_tree(scratch / "unmutated"))[1])
                new = failures(out) - baseline["failures"]
                if new:
                    return f"killed (Tier-1: {len(new)} tests, first {sorted(new)[0]})"
            elif status in (4, 5):  # a usage error, or no test collected
                return "stale"
            elif status != 0:
                return f"killed (named tests: {', '.join(sorted(failures(out))) or 'an error'})"
        return "survived"
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="Run the mutant catalogue against Tier-1.")
    parser.add_argument("names", nargs="*", metavar="NAME", help="mutants to run (default all)")
    args = parser.parse_args(argv)
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"no mutant named {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or MUTANTS
    start, baseline, counts = time.monotonic(), {}, Counter()
    with tempfile.TemporaryDirectory() as scratch:
        for mutant in chosen:
            began = time.monotonic()
            result = verdict(mutant, Path(scratch), baseline)
            counts[result.split()[0]] += 1
            print(f"{mutant.name}: {result}, {time.monotonic() - began:.1f} s", flush=True)
    print(", ".join(f"{n} {kind}" for kind, n in sorted(counts.items()))
          + f", of {len(chosen)} mutants in {time.monotonic() - start:.0f} s")
    return 0 if counts["killed"] == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
