"""Spans and counters recorded around calls into scqsim, from outside it.

``install`` replaces module attributes that scqsim looks up at call time
(``flux.solve_three_junction``, ``phase.sla``, ``noise.welch`` ...) with
wrappers that record a span: name, start, end and the enclosing span.
Every scqsim module that holds the same function object gets the
wrapper, so ``from .x import f`` re-exports are covered too.  A target
that no longer exists is listed in ``Tracer.absent`` with its reason
and the run goes on.

Spans stay in memory and are written once, by ``Tracer.dump``.  Counts
marked *computed* come from the wrapped call's arguments (for example
RK4 steps from the time grid and step density), not from the library.
"""

from __future__ import annotations

import functools
import importlib.util
import inspect
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

LAYERS = (
    "bench", "core", "integrate", "charge", "flux", "phase",
    "coupled", "experiments", "cavity", "noise", "cli",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self.absent = {}
        self._open = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._open.pop()
        return span[2] - span[1]

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def graft(self, spans, parent: int) -> None:
        """Append spans recorded in another process under ``parent``."""
        base = len(self.spans)
        for name, start, end, up in spans:
            self.spans.append([name, start, end, parent if up < 0 else base + up])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "absent": self.absent}, fh)

    # --- summaries -------------------------------------------------------

    def inclusive(self, name: str) -> float:
        """Wall time inside spans called ``name`` (nested repeats counted once)."""
        total = 0.0
        for i, (n, start, end, parent) in enumerate(self.spans):
            if n == name and end is not None and not self._inside(parent, name):
                total += end - start
        return total

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def self_times(self) -> dict:
        """Per layer: span time minus the time of its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _), inner in zip(self.spans, child):
            if end is not None:
                layer = name.split(".", 1)[0]
                out[layer if layer in out else "bench"] += (end - start) - inner
        return out

    def _inside(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


# --- computed counters: (tracer, bound arguments, result, seconds) -> None ------


def _td_steps(key):
    def count(tr, a, result, seconds):
        t, steps = 0.0, 0
        for tk in np.asarray(a["t_grid"], dtype=float):
            span = float(tk) - t
            if span > 0:
                steps += max(1, math.ceil(span * a["steps_per_ns"]))
                t = float(tk)
        tr.add(key, steps)

    return count


def _rk4_steps(tr, a, result, seconds):
    tr.add("core.rk4.steps", a["n_steps"])


def _verify_time(tr, a, result, seconds):
    if a["verify"]:
        tr.add("core.evolve_lindblad.verify_s", seconds)


def _ng_points(tr, a, result, seconds):
    tr.add("charge.points", np.size(a["ng_grid"]))


def _sector_dim(tr, a, result, seconds):
    g = a["p"].grid_points  # exchange-symmetric sector of the g x g grid
    tr.peak("flux.sector_dim.max", (g * g + g) // 2)


def _tridiag_size(tr, a, result, seconds):
    rows = np.size(a["d"])
    tr.add("phase.tridiag.rows", rows)
    if a.get("eigvals_only") is False:  # eigh_tridiagonal asked for eigenvectors
        select = a["select"]
        if select == "a":
            vectors = rows
        elif select == "i":
            vectors = a["select_range"][1] - a["select_range"][0] + 1
        else:
            vectors = np.size(result[0])
        tr.add("phase.tridiag.vectors", vectors)


def _rtn_samples(tr, a, result, seconds):
    tr.add("noise.samples", np.size(a["t_grid"]) * a["ens"].count)


def _welch_segments(tr, a, result, seconds):
    x = np.asarray(a["x"])
    n = x.shape[-1]
    nperseg = a["nperseg"] or 256
    noverlap = a["noverlap"] if a["noverlap"] is not None else nperseg // 2
    rows = x.size // n if n else 0
    tr.add("noise.welch.segments", rows * (1 + (n - nperseg) // (nperseg - noverlap)))


def _csv_bytes(tr, a, result, seconds):
    tr.add("cli.csv.bytes", os.path.getsize(a["path"]))


@dataclass(frozen=True)
class Target:
    span: str
    owner: str  # module the function is taken from
    attr: str
    scope: tuple | None = None  # scqsim modules to patch; None = all of them
    count: Callable | None = None


TARGETS = (
    Target("core.evolve_lindblad", "scqsim.core", "evolve_lindblad", count=_verify_time),
    Target("core.rk4", "scqsim.core", "_rk4_segment", count=_rk4_steps),
    Target("core.hermitian_eigen", "scqsim.core", "hermitian_eigen"),
    Target("core.evolve_unitary", "scqsim.core", "evolve_unitary"),
    Target("integrate.schrodinger_td", "scqsim._integrate", "schrodinger_td",
           count=_td_steps("integrate.schrodinger_td.steps")),
    Target("integrate.lindblad_td", "scqsim._integrate", "lindblad_td",
           count=_td_steps("integrate.lindblad_td.steps")),
    Target("charge.spectrum_vs_ng", "scqsim.charge", "spectrum_vs_ng", count=_ng_points),
    Target("flux.flux_spectrum_vs_f", "scqsim.flux", "flux_spectrum_vs_f"),
    Target("flux.solve_three_junction", "scqsim.flux", "solve_three_junction", count=_sector_dim),
    Target("flux.symmetry_blocks", "scqsim.flux", "_symmetry_blocks"),
    Target("flux.persistent_current", "scqsim.flux", "persistent_current"),
    Target("flux.fit_two_level_gap", "scqsim.flux", "fit_two_level_gap"),
    Target("flux.rf_squid_minima", "scqsim.flux", "rf_squid_minima"),
    Target("flux.classify_fluxoid", "scqsim.flux", "classify_fluxoid"),
    Target("phase.bound_state_count", "scqsim.phase", "bound_state_count"),
    Target("phase.well_levels", "scqsim.phase", "well_levels"),
    Target("phase.tridiag", "scipy.linalg", "eigh_tridiagonal", ("scqsim.phase",), _tridiag_size),
    Target("phase.tridiag", "scipy.linalg", "eigvalsh_tridiagonal", ("scqsim.phase",), _tridiag_size),
    Target("phase.sturm", "scqsim.phase", "sturm_count_below"),
    Target("coupled.simulate_cnot", "scqsim.coupled", "simulate_cnot"),
    Target("experiments.rabi", "scqsim.experiments", "rabi"),
    Target("experiments.ramsey", "scqsim.experiments", "ramsey"),
    Target("experiments.t1_decay", "scqsim.experiments", "t1_decay"),
    Target("experiments.fit", "scipy.optimize", "curve_fit", ("scqsim.experiments",)),
    Target("cavity.vacuum_rabi", "scqsim.cavity", "vacuum_rabi"),
    Target("noise.psd_welch", "scqsim.noise", "psd_welch"),
    Target("noise.dephasing_under_rtn", "scqsim.noise", "dephasing_under_rtn"),
    Target("noise.rtn", "scqsim.noise", "rtn_trajectory", count=_rtn_samples),
    Target("noise.fluctuator_states", "scqsim.noise", "fluctuator_states"),
    Target("noise.welch", "scipy.signal", "welch", ("scqsim.noise",), _welch_segments),
    Target("cli.main", "scqsim.cli", "main"),
    Target("cli.parse", "scqsim.cli", "parse_config"),
    Target("cli.run", "scqsim.cli", "run"),
    Target("cli.pool", "scqsim.cli", "_parallel_map"),
    Target("cli.csv", "scqsim.cli", "_write_csv", count=_csv_bytes),
)


class _ModuleProxy:
    """Stands in for a module attribute such as ``phase.sla``; forwards misses."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def _wrap(tracer: Tracer, fn, target: Target):
    sig = None
    if target.count is not None:
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError) as exc:
            tracer.absent[f"{target.span} count"] = f"no signature: {exc}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(target.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = tracer.end(idx)
        if sig is not None:
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                target.count(tracer, bound.arguments, result, seconds)
            except Exception as exc:  # a renamed argument must not stop the run
                tracer.absent.setdefault(f"{target.span} count", f"{type(exc).__name__}: {exc}")
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every target in the loaded scqsim modules; record absent ones."""
    for target in TARGETS:
        key = f"{target.owner}.{target.attr}"
        owner = sys.modules.get(target.owner)
        if owner is None:  # not imported by this process: nothing looks it up
            if importlib.util.find_spec(target.owner) is None:
                tracer.absent[key] = f"no module {target.owner}"
            continue
        fn = getattr(owner, target.attr, None)
        if not callable(fn):
            tracer.absent[key] = f"{target.owner} has no callable {target.attr!r}"
            continue
        wrapper = _wrap(tracer, fn, target)
        patched = 0
        for name in list(sys.modules):
            module = sys.modules[name]
            if module is None or not (name == "scqsim" or name.startswith("scqsim.")):
                continue
            if target.scope is not None and name not in target.scope:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    patched += 1
                elif value is owner and owner.__name__.split(".")[0] != "scqsim":
                    proxy = _ModuleProxy(owner)
                    setattr(module, attr, proxy)
                    value = proxy
                if isinstance(value, _ModuleProxy) and value._module is owner:
                    setattr(value, target.attr, wrapper)
                    patched += 1
        if not patched:
            tracer.absent[key] = "no scqsim module looks it up"
