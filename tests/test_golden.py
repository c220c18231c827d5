"""Golden CLI corpus: every case of ``tests/data/golden/cases.json`` reruns
in process and must reproduce its stored exit code, stderr and CSV.

A case is a command, its extra arguments and an INI config; its
expected output is the exit code, the stderr text and, on exit 0, the CSV
``<name>.csv`` beside ``cases.json``.  On the numpy version recorded in
the corpus every file must match byte for byte.  On any other numpy build
the ``#`` lines and the column header must still match exactly, and each
data value within 1e-12 relative (``largest_move``).  A change whose
output moves on purpose rewrites the corpus with ``regen.py``, which
prints the largest move of each file.
"""

import json
import math
import os

import numpy as np
import pytest
from test_cli import run_in_process

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")
DATA_RTOL = 1e-12


def load_corpus():
    with open(os.path.join(GOLDEN, "cases.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_case(case):
    """(exit code, stderr, CSV text or None) of one case, run in process."""
    return run_in_process(case["command"], case["config"], *case["args"])


def largest_move(old: str, new: str) -> float:
    """The largest relative change of a data value from CSV ``old`` to ``new``.

    0.0 when the files are equal; inf when a ``#`` line or the column
    header differs, the row or field counts differ, or a value changes
    that is not a finite number.
    """
    if old == new:
        return 0.0
    a, b = old.splitlines(), new.splitlines()
    head_a = [line for line in a if line.startswith("#")]
    head_b = [line for line in b if line.startswith("#")]
    a, b = a[len(head_a):], b[len(head_b):]
    if head_a != head_b or len(a) != len(b) or a[:1] != b[:1]:
        return math.inf
    move = 0.0
    for row_a, row_b in zip(a[1:], b[1:]):
        fields_a, fields_b = row_a.split(","), row_b.split(",")
        if len(fields_a) != len(fields_b):
            return math.inf
        for x, y in zip(fields_a, fields_b):
            if x == y:
                continue
            try:
                x, y = float(x), float(y)
            except ValueError:
                return math.inf
            if not math.isfinite(x - y):
                return math.inf
            if x != y:
                move = max(move, abs(x - y) / max(abs(x), abs(y)))
    return move


CORPUS = load_corpus()


@pytest.mark.parametrize("case", CORPUS["cases"], ids=[case["name"] for case in CORPUS["cases"]])
def test_case_reproduces_its_stored_output(case):
    code, stderr, csv = run_case(case)
    assert (code, stderr) == (case["exit"], case["stderr"])
    path = os.path.join(GOLDEN, f"{case['name']}.csv")
    if code != 0:
        assert csv is None and not os.path.exists(path)
        return
    with open(path, encoding="utf-8", newline="") as fh:
        expected = fh.read()
    if np.__version__ == CORPUS["numpy"]:
        assert csv == expected
    else:  # another numpy build: exact headers, data within DATA_RTOL
        assert largest_move(expected, csv) <= DATA_RTOL


class TestLargestMove:
    """The comparison of the other-build path, on hand-made files."""

    OLD = "# scqsim 0.1.0\n# seed = 1\nx,y\n0.5,1.00000000000000\n1,0\n"

    def test_equal_files_do_not_move(self):
        assert largest_move(self.OLD, self.OLD) == 0.0

    def test_a_data_value_moves_by_its_relative_change(self):
        new = self.OLD.replace("1.00000000000000", "1.00000000000001")
        assert largest_move(self.OLD, new) == pytest.approx(1e-14, rel=1e-3)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("# seed = 1", "# seed = 2"),  # a comment line
            ("x,y", "x,z"),  # the column header
            ("1,0\n", ""),  # a row
            ("1,0\n", "1,0,0\n"),  # a field
            ("1,0\n", "1,nan\n"),
        ],
    )
    def test_structural_changes_move_infinitely(self, old, new):
        assert largest_move(self.OLD, self.OLD.replace(old, new)) == math.inf
