"""Regenerate data/phase_counts.json, the refined phase-qubit bound counts.

    python3 perfbench/make_reference.py

The spectra workload draws its bias points from this lattice, at the
criterion-4 regime Ej = 10 GHz, Ec = 1e-3 GHz (Ej/Ec = 1e4).  Counts come
from references.washboard_bound_count on a 65536-point grid, four to
sixteen times finer than the grid scqsim picks for these biases.  Each
entry is [certain, possible]: levels whose in-well probability clears
0.99 + BAND, and those that clear 0.99 - BAND.  Levels inside the band sit
on the 99 % threshold, where scqsim's own grid decides the count (see
README.md, "bound_state_count is not converged at the 99 % threshold").
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from references import DATA_DIR, washboard_bound_count  # noqa: E402

EJ, EC, GRID, BAND = 10.0, 1e-3, 1 << 16, 5e-4
STRATA = ((0.400, 50), (0.600, 50), (0.800, 50))  # (first bias, points at step 0.001)


def main():
    counts = {}
    for start, points in STRATA:
        for i in range(points):
            s = round(start + 0.001 * i, 3)
            counts[f"{s:.3f}"] = washboard_bound_count(EJ, EC, s, GRID, BAND)
    record = {"ej": EJ, "ec": EC, "grid": GRID, "band": BAND, "counts": counts}
    os.makedirs(DATA_DIR, exist_ok=True)
    with open(os.path.join(DATA_DIR, "phase_counts.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
