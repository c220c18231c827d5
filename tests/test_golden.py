"""Golden CLI corpus: every case of ``tests/data/golden/cases.json`` reruns
in process and must reproduce its stored exit code, stderr and CSV.

A case is a command, its extra arguments and an INI config; its
expected output is the exit code, the stderr text and, on exit 0, the CSV
``<name>.csv`` beside ``cases.json``.  On the numpy version and the
OpenBLAS kernel recorded in the corpus every file must match byte for
byte.  OpenBLAS picks its kernel from the CPU at run time, and another
kernel rounds differently, so on any other pair (or a kernel that cannot
be read) each file must match with its numbers compared to a tolerance:
every number, in ``#`` lines too, within ``RTOL`` relative plus the
absolute floor of its kind (``FLOORS``), and all text exactly.  A change
whose output moves on purpose rewrites the corpus with ``regen.py``,
which prints the largest move of each file.
"""

import ctypes
import glob
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from test_cli import run_in_process

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")
RTOL = 1e-12
# the absolute floor of each kind of number, by the name of its column or
# ``#`` line: populations are O(1) and read 0 to within roundoff (a 5e-34
# that another kernel writes as 0); levels are in GHz, and the move of
# ``[precision]``'s grid verification is itself a difference of levels.
# Any other number (an input, a time, a fitted value, a PSD) has floor 0.
FLOORS = (
    (re.compile(r"P_\w+|p1|p_excited|# fidelity|# visibility"), 1e-13),
    (re.compile(r"E\d+|# grid verification: .*"), 1e-10),
)
# a number standing alone: not part of a word such as flux3 or a version such as 0.1.0
NUMBER = re.compile(r"(?<![\w.+-])[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")


def blas_core() -> str:
    """The kernel numpy's bundled OpenBLAS runs ("SkylakeX", "Haswell", ...), or "unknown".

    Read through ctypes from ``scipy_openblas_get_corename64_``; a numpy
    without that library or symbol gives "unknown".
    """
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def load_corpus():
    with open(os.path.join(GOLDEN, "cases.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_case(case):
    """(exit code, stderr, CSV text or None) of one case, run in process."""
    return run_in_process(case["command"], case["config"], *case["args"])


def floor_of(name: str) -> float:
    return next((floor for pattern, floor in FLOORS if pattern.fullmatch(name)), 0.0)


def paired_numbers(old: str, new: str):
    """(x, y, floor) for each number of CSV ``old`` and its counterpart in ``new``.

    None when the files differ in anything but their numbers: a line, a
    column header, a field or any text.  A ``#`` line is named by its text
    before `` = ``, a data value by its column.
    """
    a, b = old.splitlines(), new.splitlines()
    if len(a) != len(b):
        return None
    pairs, header = [], None
    for line_a, line_b in zip(a, b):
        if line_a.startswith("#"):
            pieces = [(line_a.partition(" = ")[0], line_a, line_b)]
        elif header is None:
            if line_a != line_b:
                return None
            header = line_a.split(",")
            continue
        else:
            fields_a, fields_b = line_a.split(","), line_b.split(",")
            if not len(fields_a) == len(fields_b) == len(header):
                return None
            pieces = zip(header, fields_a, fields_b)
        for name, text_a, text_b in pieces:
            if NUMBER.sub("#", text_a) != NUMBER.sub("#", text_b):
                return None
            floor = floor_of(name)
            pairs += [(float(x), float(y), floor) for x, y in zip(NUMBER.findall(text_a), NUMBER.findall(text_b))]
    return pairs


def largest_move(old: str, new: str) -> float:
    """The largest relative change of a number from CSV ``old`` to ``new``.

    0.0 when the files are equal; inf when they differ in anything but
    their numbers, or a number changes that is not finite.
    """
    pairs = paired_numbers(old, new)
    if pairs is None:
        return math.inf
    move = 0.0
    for x, y, _ in pairs:
        if x != y:
            if not math.isfinite(x - y):
                return math.inf
            move = max(move, abs(x - y) / max(abs(x), abs(y)))
    return move


def within_tolerance(old: str, new: str) -> bool:
    """Every number of ``new`` within RTOL max(|x|, |y|) plus its floor of ``old``, and the rest equal."""
    pairs = paired_numbers(old, new)
    return pairs is not None and all(
        x == y or abs(x - y) <= RTOL * max(abs(x), abs(y)) + floor for x, y, floor in pairs
    )


CORPUS = load_corpus()


def case_failure(case, exact: bool):
    """Why one case does not reproduce its stored output, or None if it does."""
    code, stderr, csv = run_case(case)
    if (code, stderr) != (case["exit"], case["stderr"]):
        return f"exit {code}, stderr {stderr!r}"
    path = os.path.join(GOLDEN, f"{case['name']}.csv")
    if code != 0:
        return None if csv is None and not os.path.exists(path) else "a CSV beside a failure"
    with open(path, encoding="utf-8", newline="") as fh:
        expected = fh.read()
    if csv == expected or not exact and within_tolerance(expected, csv):
        return None
    return f"CSV moved by {largest_move(expected, csv):.3g} relative"


def exact_build() -> bool:
    """Whether this numpy and OpenBLAS kernel are the corpus's own."""
    core = blas_core()
    return core != "unknown" and (np.__version__, core) == (CORPUS["numpy"], CORPUS["blas_core"])


@pytest.mark.parametrize("case", CORPUS["cases"], ids=[case["name"] for case in CORPUS["cases"]])
def test_case_reproduces_its_stored_output(case):
    assert case_failure(case, exact_build()) is None


def test_corpus_holds_on_another_blas_kernel():
    # OPENBLAS_CORETYPE acts on the child it is set in only
    probe = (
        f"import sys; sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})\n"
        "from test_golden import CORPUS, blas_core, case_failure, exact_build\n"
        "print(blas_core())\n"
        "for case in CORPUS['cases']:\n"
        "    failure = case_failure(case, exact_build())\n"
        "    if failure:\n"
        "        print(case['name'], failure)\n"
    )
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["Haswell"]


class TestLargestMove:
    """The number-by-number comparison of the other-build path, on hand-made files."""

    OLD = "# scqsim 0.1.0\n# seed = 1\nx,y\n0.5,1.00000000000000\n1,0\n"
    FIT = "# fitted_t2_us = 0.999999999999868\nt_ns,p1\n0,1\n1,0\n"

    def test_equal_files_do_not_move(self):
        assert largest_move(self.OLD, self.OLD) == 0.0
        assert within_tolerance(self.OLD, self.OLD)

    def test_a_data_value_moves_by_its_relative_change(self):
        new = self.OLD.replace("1.00000000000000", "1.00000000000001")
        assert largest_move(self.OLD, new) == pytest.approx(1e-14, rel=1e-3)
        assert within_tolerance(self.OLD, new)

    def test_a_number_in_a_comment_line_is_compared_as_a_number(self):
        new = self.FIT.replace("0.999999999999868", "0.999999999999981")
        assert largest_move(self.FIT, new) == pytest.approx(1.13e-13, rel=1e-2)
        assert within_tolerance(self.FIT, new)
        assert not within_tolerance(self.FIT, self.FIT.replace("0.999999999999868", "0.99999999999"))

    def test_a_population_near_zero_moves_within_its_floor(self):
        # relative move 1, absolute 5e-34: roundoff of an exact 0
        new = self.FIT.replace("1,0\n", "1,5.00468046766525e-34\n")
        assert largest_move(self.FIT, new) == 1.0
        assert within_tolerance(self.FIT, new)
        assert not within_tolerance(self.FIT, self.FIT.replace("1,0\n", "1,1e-12\n"))

    def test_floors_by_kind(self):
        assert floor_of("p_excited") == floor_of("P_pm") == floor_of("# fidelity") == 1e-13
        assert floor_of("E3") == floor_of("# grid verification: levels moved 1.599e-13 GHz") == 1e-10
        assert floor_of("t_ns") == floor_of("# fitted_t2_us") == floor_of("psd") == 0.0

    @pytest.mark.parametrize(
        "old, new",
        [
            ("# seed = 1", "# sed = 1"),  # text in a comment line
            ("x,y", "x,z"),  # the column header
            ("1,0\n", ""),  # a row
            ("1,0\n", "1,0,0\n"),  # a field
            ("1,0\n", "1,nan\n"),
            ("0.1.0", "0.1.1"),  # a version is text
        ],
    )
    def test_structural_changes_move_infinitely(self, old, new):
        assert largest_move(self.OLD, self.OLD.replace(old, new)) == math.inf
        assert not within_tolerance(self.OLD, self.OLD.replace(old, new))
