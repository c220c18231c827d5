"""Command-line front end: config parsing, dispatch, CSV emission.

Config files are flat INI text (``key = value`` under one level of
``[section]`` blocks).  Exactly one circuit block is allowed per config.
Every CSV starts with ``#`` comment lines recording the tool version, the
fully resolved configuration, and the seed; data rows carry 15
significant digits.  Identical config + seed produce byte-identical
output at any thread count (sweep points are computed independently).

Exit codes: 0 success, 1 config error, 2 numerical non-convergence or a
failed fit.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .cavity import JaynesCummingsParams, strong_coupling_check, vacuum_rabi
from .charge import CpbParams, cpb_hamiltonian, reduced_two_level, spectrum_vs_ng
from .core import ConvergenceError, ValidationError, basis_state, evolve_unitary
from .coupled import CoupledParams, DrivePulse, pi_pulse_duration, simulate_cnot
from .experiments import DecoherenceParams, FitError, quality_factor, rabi, ramsey, t1_decay
from .flux import (
    RfSquidParams,
    ThreeJunctionParams,
    classify_fluxoid,
    flux_spectrum_vs_f,
    rf_squid_minima,
    solve_three_junction,
)
from .noise import FluctuatorEnsemble, fit_loglog_slope, psd_welch


class ConfigError(Exception):
    """Invalid configuration; carries the full list of problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# section -> key -> (converter, required)
_CIRCUIT_SCHEMAS = {
    "cpb": {
        "ec": (float, True),
        "ej": (float, False),
        "ej0": (float, False),
        "flux_ratio": (float, False),
        "ng": (float, False),
        "cutoff": (int, False),
    },
    "flux3": {
        "ej": (float, True),
        "ec": (float, True),
        "alpha": (float, False),
        "f": (float, False),
        "cutoff": (int, False),
    },
    "rf-squid": {
        "ej": (float, True),
        "ec": (float, True),
        "inductive_scale": (float, True),
        "phi_ext": (float, False),
    },
    "coupled": {
        "ej1": (float, True),
        "ej2": (float, True),
        "chi": (float, False),
    },
    "jc": {
        "nu01": (float, True),
        "nu_c": (float, True),
        "g": (float, True),
        "n_ph": (int, False),
        "kappa_per_us": (float, False),
        "margin": (float, False),
    },
    "noise": {
        "count": (int, True),
        "gamma_min": (float, True),
        "gamma_max": (float, True),
        "coupling": (float, True),
        "dt": (float, True),
        "samples": (int, True),
        "trajectories": (int, True),
        "nperseg": (int, False),
    },
    "qubit": {"nu01": (float, True), "detuning": (float, False)},
}

_OTHER_SCHEMAS = {
    "run": {
        "command": (str, False),
        "out": (str, False),
        "seed": (int, False),
        "threads": (int, False),
    },
    "sweep": {
        "parameter": (str, True),
        "start": (float, True),
        "stop": (float, True),
        "points": (int, True),
        "levels": (int, False),
    },
    "pulse": {
        "amplitude": (float, True),
        "frequency": (float, True),
        "duration": (float, False),
        "phase": (float, False),
    },
    "decoherence": {"t1_us": (float, True), "t2_us": (float, True)},
    "time": {"start": (float, False), "stop": (float, True), "points": (int, True)},
    "precision": {"verify_grid_tol": (float, False)},
}

_COMMANDS = {
    "spectrum": {"circuits": ("cpb", "flux3"), "needs": ("sweep",), "optional": ("precision",)},
    "evolve": {"circuits": ("cpb",), "needs": ("time",), "optional": ()},
    "rabi": {"circuits": ("qubit",), "needs": ("pulse", "time"), "optional": ("decoherence",)},
    "ramsey": {"circuits": ("qubit",), "needs": ("decoherence", "time"), "optional": ()},
    "t1": {"circuits": (), "needs": ("decoherence", "time"), "optional": ()},
    "cnot": {"circuits": ("coupled",), "needs": ("pulse",), "optional": ()},
    "noise-psd": {"circuits": ("noise",), "needs": (), "optional": ()},
    "jc": {"circuits": ("jc",), "needs": ("time",), "optional": ("decoherence",)},
    "fluxoid": {"circuits": ("rf-squid",), "needs": (), "optional": ()},
}


@dataclass
class RunConfig:
    command: str
    circuit_kind: str | None
    sections: dict  # section name -> {key: parsed value}
    out: str
    seed: int
    threads: int


def _parse_sections(text: str, errors: list[str]) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        errors.append(f"malformed config: {exc}")
        return {}
    known = {**_CIRCUIT_SCHEMAS, **_OTHER_SCHEMAS}
    sections: dict = {}
    for name in parser.sections():
        if name not in known:
            errors.append(f"unknown section [{name}]")
            continue
        schema = known[name]
        values = {}
        for key, raw in parser.items(name):
            if key not in schema:
                errors.append(f"unknown key '{key}' in [{name}]")
                continue
            conv = schema[key][0]
            try:
                values[key] = conv(raw)
            except ValueError:
                errors.append(f"key '{key}' in [{name}]: cannot parse {raw!r} as {conv.__name__}")
                continue
            if conv is float and not math.isfinite(values[key]):
                errors.append(f"key '{key}' in [{name}]: {raw!r} is not a finite number")
        for key, (_, required) in schema.items():
            if required and key not in values:
                errors.append(f"missing required key '{key}' in [{name}]")
        sections[name] = values
    return sections


def parse_config(text: str, command: str | None = None) -> RunConfig:
    """Validate a config document; raises ConfigError listing every problem."""
    errors: list[str] = []
    sections = _parse_sections(text, errors)

    run = sections.get("run", {})
    cfg_command = run.get("command")
    if command and cfg_command and command != cfg_command:
        errors.append(
            f"subcommand '{command}' conflicts with [run] command = '{cfg_command}'"
        )
    command = command or cfg_command
    if not command:
        errors.append("no subcommand given (command line or [run] command)")
    elif command not in _COMMANDS:
        errors.append(f"unknown subcommand '{command}'")

    circuit_kind = None
    present_circuits = [name for name in _CIRCUIT_SCHEMAS if name in sections]
    if len(present_circuits) > 1:
        errors.append(
            "exactly one circuit block is allowed, found: "
            + ", ".join(f"[{n}]" for n in present_circuits)
        )
    elif present_circuits:
        circuit_kind = present_circuits[0]

    if command in _COMMANDS:
        rules = _COMMANDS[command]
        if rules["circuits"]:
            if circuit_kind is None:
                errors.append(
                    f"'{command}' needs a circuit block: one of "
                    + ", ".join(f"[{n}]" for n in rules["circuits"])
                )
            elif circuit_kind not in rules["circuits"]:
                errors.append(
                    f"'{command}' does not accept circuit block [{circuit_kind}]"
                )
        for needed in rules["needs"]:
            if needed not in sections:
                errors.append(f"'{command}' needs a [{needed}] section")
        allowed = set(rules["circuits"]) | set(rules["needs"]) | set(rules["optional"]) | {"run"}
        for name in sections:
            if name not in allowed:
                errors.append(f"section [{name}] is not used by '{command}'")

    if "sweep" in sections and circuit_kind is not None and "parameter" in sections["sweep"]:
        sweep = sections["sweep"]
        param = sweep["parameter"]
        schema = _CIRCUIT_SCHEMAS[circuit_kind]
        numeric = {k for k, (conv, _) in schema.items() if conv in (float, int)}
        if param not in numeric:
            errors.append(
                f"sweep parameter '{param}' does not exist on [{circuit_kind}] "
                f"(choose from {sorted(numeric)})"
            )
        if sweep.get("points", 1) < 1:
            errors.append("sweep points must be >= 1")
        elif param in numeric and schema[param][0] is int and {"start", "stop"} <= sweep.keys():
            grid = np.linspace(sweep["start"], sweep["stop"], sweep.get("points", 1))
            if np.any(grid != np.round(grid)):
                errors.append(
                    f"sweep parameter '{param}' is an integer, but start, stop and "
                    f"points give non-integral values"
                )

    if "time" in sections and sections["time"].get("points", 1) < 1:
        errors.append("time points must be >= 1")

    if errors:
        raise ConfigError(errors)

    return RunConfig(
        command=command,
        circuit_kind=circuit_kind,
        sections=sections,
        out=run.get("out", "out.csv"),
        seed=run.get("seed", 0),
        threads=run.get("threads", 1),
    )


def _build_circuit(cfg: RunConfig):
    values = dict(cfg.sections[cfg.circuit_kind])
    values.pop("margin", None)  # jc: consumed by the report, not the params
    if cfg.circuit_kind == "jc":
        dec = None
        if "decoherence" in cfg.sections:
            dec = DecoherenceParams(**cfg.sections["decoherence"])
        return JaynesCummingsParams(dec=dec, **values)
    builders = {"cpb": CpbParams, "rf-squid": RfSquidParams, "coupled": CoupledParams}
    return builders[cfg.circuit_kind](**values)


def _time_grid(cfg: RunConfig) -> np.ndarray:
    t = cfg.sections["time"]
    return np.linspace(t.get("start", 0.0), t["stop"], t["points"])


def _format(x) -> str:
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def _write_csv(path: str, cfg: RunConfig, columns, rows, extra_comments=()):
    buf = io.StringIO()
    # the worker count is deliberately not recorded: output bytes must be
    # identical at any thread count for the same config + seed
    buf.write(f"# scqsim {__version__}\n")
    buf.write(f"# command = {cfg.command}\n")
    buf.write(f"# seed = {cfg.seed}\n")
    for name in sorted(cfg.sections):
        buf.write(f"# [{name}]\n")
        for key in sorted(cfg.sections[name]):
            buf.write(f"# {key} = {_format(cfg.sections[name][key])}\n")
    for line in extra_comments:
        buf.write(f"# {line}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_format(x) for x in row) + "\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(buf.getvalue())


def _sweep_values(cfg: RunConfig) -> list:
    """Sweep points, converted by the swept key's schema type."""
    s = cfg.sections["sweep"]
    conv = _CIRCUIT_SCHEMAS[cfg.circuit_kind][s["parameter"]][0]
    # integral grids are exact in linspace; parse_config rejects the others
    return [conv(x) for x in np.linspace(s["start"], s["stop"], s["points"])]


def _cpb_point(args):
    params_kw, ng, k = args
    p = CpbParams(**{**params_kw, "ng": ng})
    return spectrum_vs_ng(p, [ng], k=k).levels[0]


def _flux_point(args):
    params_kw, param, x, k = args
    p = ThreeJunctionParams(**{**params_kw, param: x})
    return solve_three_junction(p, k=k).energies


def _parallel_map(func, items, threads: int):
    if threads == 0:
        threads = os.cpu_count() or 1
    if threads == 1 or len(items) < 2:
        return [func(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(func, items, chunksize=max(1, len(items) // (4 * threads))))


def _cmd_spectrum(cfg: RunConfig) -> tuple[list, list, list]:
    sweep = cfg.sections["sweep"]
    k = sweep.get("levels", 5)
    values = _sweep_values(cfg)
    params_kw = dict(cfg.sections[cfg.circuit_kind])
    param = sweep["parameter"]
    comments = []

    if cfg.circuit_kind == "cpb":
        if param == "ng":
            rows = _parallel_map(_cpb_point, [(params_kw, x, k) for x in values], cfg.threads)
        else:
            rows = []
            for x in values:
                p = CpbParams(**{**params_kw, param: x})
                rows.append(np.linalg.eigvalsh(cpb_hamiltonian(p).entries)[:k])
        control_name = param
    else:  # flux3
        tol = cfg.sections.get("precision", {}).get("verify_grid_tol")
        if tol is not None:
            p_mid = ThreeJunctionParams(**{**params_kw, param: values[len(values) // 2]})
            # built before any solve, so a cutoff + 4 above the dense cap fails at once
            p_fine = dataclasses.replace(p_mid, cutoff=p_mid.cutoff + 4)
            coarse = solve_three_junction(p_mid, k=k).energies
            fine = solve_three_junction(p_fine, k=k).energies
            moved = float(np.abs(coarse - fine).max())
            change = f"from cutoff {p_mid.cutoff} to {p_fine.cutoff}"
            if moved > tol:
                raise ConvergenceError(
                    f"flux levels moved {moved:.3e} GHz {change} "
                    f"(tolerance {tol:.3e}); raise cutoff"
                )
            comments.append(f"grid verification: levels moved {moved:.3e} GHz {change}")
        rows = _parallel_map(_flux_point, [(params_kw, param, x, k) for x in values], cfg.threads)
        control_name = param

    columns = [control_name] + [f"E{i}" for i in range(k)]
    data = [[v, *row] for v, row in zip(values, rows)]
    return columns, data, comments


def _cmd_evolve(cfg: RunConfig):
    p = _build_circuit(cfg)
    h = reduced_two_level(p)
    grid = _time_grid(cfg)
    psi0 = basis_state(2, 0)
    rows = []
    for t in grid:
        psi = evolve_unitary(h, psi0, float(t))
        rows.append([t, psi.population(1)])
    return ["t_ns", "p1"], rows, []


def _cmd_rabi(cfg: RunConfig):
    q = cfg.sections["qubit"]
    pulse_kw = cfg.sections["pulse"]
    pulse = DrivePulse(
        amplitude=pulse_kw["amplitude"],
        frequency=pulse_kw["frequency"],
        duration=pulse_kw.get("duration", 0.0),
        phase=pulse_kw.get("phase", 0.0),
        target="sigma_x",
    )
    dec = None
    if "decoherence" in cfg.sections:
        dec = DecoherenceParams(**cfg.sections["decoherence"])
    nu01 = q["nu01"]
    h = reduced_two_level(CpbParams(ec=1.0, ej=nu01, ng=0.5))
    grid = _time_grid(cfg)
    result = rabi(h, pulse, dec, grid)
    comments = [f"visibility = {_format(result.fitted.visibility)}"]
    rows = [[t, p] for t, p in zip(result.time_grid, result.population)]
    return ["t_ns", "p_excited"], rows, comments


def _cmd_ramsey(cfg: RunConfig):
    q = cfg.sections["qubit"]
    dec = DecoherenceParams(**cfg.sections["decoherence"])
    result = ramsey(q["nu01"], q.get("detuning", 0.0), dec, _time_grid(cfg))
    comments = [
        f"fitted_t2_us = {_format(result.fitted.t2_us)}",
        f"fitted_detuning_ghz = {_format(result.fitted.detuning)}",
        f"quality_factor = {_format(result.fitted.quality)}",
    ]
    rows = [[t, p] for t, p in zip(result.time_grid, result.population)]
    return ["delay_ns", "p_excited"], rows, comments


def _cmd_t1(cfg: RunConfig):
    dec = DecoherenceParams(**cfg.sections["decoherence"])
    result = t1_decay(dec, _time_grid(cfg))
    comments = [f"fitted_t1_us = {_format(result.fitted.t1_us)}"]
    rows = [[t, p] for t, p in zip(result.time_grid, result.population)]
    return ["t_ns", "p_excited"], rows, comments


def _cmd_cnot(cfg: RunConfig):
    p = _build_circuit(cfg)
    pk = cfg.sections["pulse"]
    duration = pk.get("duration")
    if duration is None:
        duration = pi_pulse_duration(pk["amplitude"])
    pulse = DrivePulse(
        amplitude=pk["amplitude"],
        frequency=pk["frequency"],
        duration=duration,
        phase=pk.get("phase", 0.0),
    )
    table = simulate_cnot(p, pulse)
    labels = ["++", "+-", "-+", "--"]
    comments = [f"fidelity = {_format(table.fidelity)}"]
    if table.off_resonant:
        comments.append("warning: pulse is off-resonant from both transitions")
    rows = [
        [labels[i], *table.populations[i]] for i in range(4)
    ]
    return ["initial", "P_pp", "P_pm", "P_mp", "P_mm"], rows, comments


def _cmd_noise_psd(cfg: RunConfig):
    n = cfg.sections["noise"]
    ens = FluctuatorEnsemble(
        count=n["count"],
        gamma_min=n["gamma_min"],
        gamma_max=n["gamma_max"],
        coupling=n["coupling"],
        seed=cfg.seed,
    )
    freq, psd = psd_welch(
        ens,
        dt=n["dt"],
        n_samples=n["samples"],
        n_trajectories=n["trajectories"],
        nperseg=n.get("nperseg"),
    )
    centre = math.sqrt((ens.gamma_min / math.pi) * (ens.gamma_max / math.pi))
    band = (max(centre / 10.0, freq[1]), centre * 10.0)
    slope = fit_loglog_slope(freq, psd, band)
    comments = [
        f"fit_band_ghz = {_format(band[0])} .. {_format(band[1])}",
        f"loglog_slope = {_format(slope)}",
    ]
    rows = [[f, p] for f, p in zip(freq[1:], psd[1:])]  # drop the DC bin
    return ["frequency_ghz", "psd"], rows, comments


def _cmd_jc(cfg: RunConfig):
    p = _build_circuit(cfg)
    result = vacuum_rabi(p, _time_grid(cfg))
    margin = cfg.sections["jc"].get("margin", 10.0)
    comments = []
    if p.g > 0:
        report = strong_coupling_check(p, margin=margin)
        comments = [
            f"strong_coupling = {report.satisfied}",
            f"marginal = {report.marginal}",
            f"rabi_period_ns = {_format(report.rabi_period_ns)}",
        ]
    rows = [[t, pop] for t, pop in zip(result.time_grid, result.population)]
    return ["t_ns", "p_excited"], rows, comments


def _cmd_fluxoid(cfg: RunConfig):
    p = _build_circuit(cfg)
    minima = rf_squid_minima(p)
    rows = []
    for phi_star in minima:
        rec = classify_fluxoid(p, phi_star)
        rows.append([rec.phi_star, rec.m, rec.residual])
    return ["phi_star", "m", "residual"], rows, []


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "evolve": _cmd_evolve,
    "rabi": _cmd_rabi,
    "ramsey": _cmd_ramsey,
    "t1": _cmd_t1,
    "cnot": _cmd_cnot,
    "noise-psd": _cmd_noise_psd,
    "jc": _cmd_jc,
    "fluxoid": _cmd_fluxoid,
}


def run(cfg: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    try:
        columns, rows, comments = _DISPATCH[cfg.command](cfg)
        _write_csv(cfg.out, cfg, columns, rows, comments)
    except (ValidationError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, FitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scqsim",
        description="Superconducting qubit circuit simulations (CSV output).",
    )
    parser.add_argument("command", choices=sorted(_DISPATCH), help="experiment to run")
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--out", default=None, help="output CSV path (overrides [run] out)")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (overrides [run] seed)")
    parser.add_argument(
        "--threads", type=int, default=None, help="sweep workers; 0 = auto (overrides [run])"
    )
    parser.add_argument(
        "--circuit", default=None, help="assert which circuit block the config must carry"
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        cfg = parse_config(text, command=args.command)
        if args.circuit and cfg.circuit_kind != args.circuit:
            raise ConfigError(
                [f"--circuit {args.circuit} does not match config block [{cfg.circuit_kind}]"]
            )
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 1

    if args.out is not None:
        cfg.out = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.threads is not None:
        cfg.threads = args.threads
    try:
        return run(cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
