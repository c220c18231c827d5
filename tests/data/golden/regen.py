"""Rewrite the golden CLI corpus from the scqsim of this checkout and print
how far each file moved.

    python tests/data/golden/regen.py

Every case of ``cases.json`` (its name, command, arguments and config are the
inputs and are kept) is run in process by ``tests/test_golden.py``'s ``run_case``.
Its exit code and stderr are stored in ``cases.json`` with the numpy
version that made them, and the CSV of an exit-0 case in ``<name>.csv``.
One line per case reports its largest move from the stored corpus: the
largest relative change of a CSV data value (``inf`` for a changed ``#``
line, header or row count) and a changed exit code or stderr in full, or
``unchanged``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TESTS = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(os.path.dirname(TESTS), "src"), TESTS]

import numpy as np  # noqa: E402

from test_golden import largest_move, load_corpus, run_case  # noqa: E402


def main():
    corpus = load_corpus()
    for case in corpus["cases"]:
        code, stderr, csv = run_case(case)
        path = os.path.join(HERE, f"{case['name']}.csv")
        old = None
        if os.path.exists(path):
            with open(path, encoding="utf-8", newline="") as fh:
                old = fh.read()
            os.remove(path)
        if csv is not None:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(csv)
        moves = []
        if (code, stderr) != (case.get("exit"), case.get("stderr")):
            moves.append(f"exit {case.get('exit')} -> {code}, stderr {case.get('stderr')!r} -> {stderr!r}")
        if old is not None and csv is not None:
            if old != csv:
                moves.append(f"CSV largest relative move {largest_move(old, csv):.3g}")
        elif old is not None or csv is not None:
            moves.append("CSV removed" if csv is None else "CSV added")
        print(f"{case['name']}: {'; '.join(moves) or 'unchanged'}")
        case["exit"], case["stderr"] = code, stderr
    corpus["numpy"] = np.__version__
    with open(os.path.join(HERE, "cases.json"), "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
