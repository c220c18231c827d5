"""Command-line front end: config parsing, dispatch, CSV emission.

Config files are flat INI text (``key = value`` under one level of
``[section]`` blocks), each section's keys declared once: a parameter
block's by its dataclass (``_PARAM_BLOCKS``), the others in ``_SECTIONS``.
The subcommand comes from the command line only and reads the sections
``_COMMANDS`` lists for it, no others.  A usage error (an unknown flag, a
missing ``--config``) prints one ``config error:`` line, as a config error
does.  Every CSV starts with ``#`` comment lines recording the tool
version, the configuration with every parameter-block default filled in
(``[cpb] cutoff = 10`` or ``[pulse] phase = 0`` when the file gives none;
a swept key is left to ``[sweep]``; a ``[run]`` key the file sets records
its flag's value when ``--out`` or ``--seed`` overrides it), and the seed;
data rows carry 15 significant digits.  Identical config + seed produce
byte-identical output.  Sweeps run in one process: ``--threads`` is
validated and otherwise ignored.  A spectrum builds, and so checks, the
parameters of every sweep point (with ``[precision]``, also its mid-point
at ``cutoff + 4``) before its first solve; it then solves the sweep, then
the refined mid-point, whose levels ``[precision]`` compares with the
sweep's mid row, for either circuit.

A command imports the modules it runs; ``core`` always.  A parameter
block's module loads when a config has the block, and each handler imports
its solvers, so ``--help`` loads no solver module.

Exit codes: 0 success, 1 config error (or a run out of memory), 2
numerical non-convergence, a failed fit or a numpy overflow, invalid
result or division by zero in the run.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import importlib
import io
import itertools
import math
import sys
from dataclasses import MISSING, dataclass

import numpy as np

from . import __version__
from .core import (
    ConvergenceError,
    FitError,
    HermitianOperator,
    ValidationError,
    _checked_time_grid,
    _unitary_trace,
    basis_state,
)


class ConfigError(Exception):
    """Invalid configuration; carries the full list of problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _fields_schema(cls, omit=(), **extra) -> dict:
    """``{key: (converter, default)}`` for the fields of a parameter dataclass.

    ``int`` fields parse as int, ``float`` ones (also ``float | None``) as
    float; the default is the field's, ``MISSING`` when it has none.  Any
    other annotation raises, so a new non-numeric field cannot silently
    parse as a float.
    """
    schema = {}
    for f in dataclasses.fields(cls):
        if f.name in omit:
            continue
        head = getattr(f.type, "__name__", str(f.type)).split("|")[0].strip()
        if head not in ("int", "float"):
            raise TypeError(f"{cls.__name__}.{f.name}: no config converter for {f.type!r}")
        schema[f.name] = (int if head == "int" else float, f.default)
    return {**schema, **extra}


# block -> (its parameter dataclass, by its scqsim export name; fields the
# config does not set; extra keys the command reads); the block's other keys
# are the dataclass fields
_PARAM_BLOCKS = {
    "cpb": ("CpbParams", (), {}),
    "flux3": ("ThreeJunctionParams", (), {}),
    "rf-squid": ("RfSquidParams", (), {}),
    "coupled": ("CoupledParams", (), {}),
    "jc": ("JaynesCummingsParams", ("dec",), {"margin": (float, None)}),
    "noise": (
        "FluctuatorEnsemble",
        ("seed",),  # from [run] seed
        {"dt": (float, MISSING), "samples": (int, MISSING), "trajectories": (int, MISSING),
         "nperseg": (int, None)},
    ),
    "decoherence": ("DecoherenceParams", (), {}),
    # the command sets target; duration's default depends on it (0 for rabi,
    # the pi pulse for cnot)
    "pulse": ("DrivePulse", ("target",), {"duration": (float, None)}),
}
# the other sections' {key: (converter, default)}, the form _schema gives
# every section: MISSING marks a required key; any other default but None is
# filled in, so the CSV header records it (a None default is an unset
# option, such as the SQUID fields of [cpb])
_SECTIONS = {
    "qubit": {"nu01": (float, MISSING), "detuning": (float, None)},
    "run": {"out": (str, None), "seed": (int, None)},
    "sweep": {
        "parameter": (str, MISSING),
        "start": (float, MISSING),
        "stop": (float, MISSING),
        "points": (int, MISSING),
        "levels": (int, None),
    },
    "time": {"start": (float, None), "stop": (float, MISSING), "points": (int, MISSING)},
    "precision": {"verify_grid_tol": (float, None)},
}


def _param_class(block: str) -> type:
    """A block's parameter dataclass; the package's lazy export imports its module."""
    return getattr(importlib.import_module(__package__), _PARAM_BLOCKS[block][0])


def _schema(section: str) -> dict | None:
    """``{key: (converter, default)}`` of a config section, None for an unknown one."""
    if section in _PARAM_BLOCKS:
        _, omit, extra = _PARAM_BLOCKS[section]
        return _fields_schema(_param_class(section), omit, **extra)
    return _SECTIONS.get(section)


@dataclass
class RunConfig:
    command: str
    circuit_kind: str | None
    sections: dict  # section name -> {key: parsed value}
    out: str
    seed: int


def _parse_sections(text: str, errors: list[str]) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:  # no section can be checked: one line, at once
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError([f"malformed config: {message}"]) from None
    sections: dict = {}
    for name in parser.sections():
        schema = _schema(name)
        if schema is None:
            errors.append(f"unknown section [{name}]")
            continue
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
        for key, (_, default) in schema.items():
            if default is MISSING and not parser.has_option(name, key):
                errors.append(f"missing required key '{key}' in [{name}]")
        defaults = {k: d for k, (_, d) in schema.items() if d is not MISSING and d is not None}
        sections[name] = {**defaults, **values}
    return sections


def parse_config(text: str, command: str) -> RunConfig:
    """Validate a config for the command-line ``command``; one ConfigError lists every problem."""
    errors: list[str] = []
    sections = _parse_sections(text, errors)

    circuit_kind = None
    if command not in _COMMANDS:
        errors.append(f"unknown subcommand '{command}'")
    else:
        _, needs, optional = _COMMANDS[command]
        for choices in needs:
            present = [name for name in choices if name in sections]
            if len(choices) == 1 and not present:
                errors.append(f"'{command}' needs a [{choices[0]}] section")
            elif len(present) != 1:
                errors.append(
                    f"'{command}' needs exactly one of " + ", ".join(f"[{n}]" for n in choices)
                )
            elif len(choices) > 1:
                circuit_kind = present[0]  # the circuit a spectrum sweeps
        allowed = {"run", *optional, *(name for choices in needs for name in choices)}
        for name in sections:
            if name not in allowed:
                errors.append(f"section [{name}] is not used by '{command}'")
        for name, key in _UNREAD_KEYS.get(command, ()):
            if key in sections.get(name, {}):
                errors.append(f"key '{key}' in [{name}] is not used by '{command}'")

    if "sweep" in sections and circuit_kind is not None and "parameter" in sections["sweep"]:
        sweep = sections["sweep"]
        param = sweep["parameter"]
        schema = _schema(circuit_kind)  # every circuit key is numeric
        if param not in schema:
            errors.append(
                f"sweep parameter '{param}' does not exist on [{circuit_kind}] "
                f"(choose from {sorted(schema)})"
            )
        if sweep.get("points", 1) < 1:
            errors.append("sweep points must be >= 1")
        elif param in schema and schema[param][0] is int and {"start", "stop"} <= sweep.keys():
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

    run = sections.get("run", {})
    return RunConfig(
        command=command,
        circuit_kind=circuit_kind,
        sections=sections,
        out=run.get("out", "out.csv"),
        seed=run.get("seed", 0),
    )


def _params(cfg: RunConfig, block: str, **overrides):
    """The parameter object of a block; its extra keys stay with the command."""
    cls = _param_class(block)
    names = {f.name for f in dataclasses.fields(cls)}
    values = {k: v for k, v in cfg.sections[block].items() if k in names}
    return cls(**{**values, **overrides})


def _decoherence(cfg: RunConfig):
    return _params(cfg, "decoherence") if "decoherence" in cfg.sections else None


def _time_grid(cfg: RunConfig) -> np.ndarray:
    t = cfg.sections["time"]
    return np.linspace(t.get("start", 0.0), t["stop"], t["points"])


def _format(x) -> str:
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def _columns(*arrays) -> list:
    """Rows of the given equal-length arrays side by side, as Python numbers."""
    return np.column_stack(arrays).tolist()


def _write_csv(path: str, cfg: RunConfig, columns, rows, extra_comments=()):
    buf = io.StringIO()
    buf.write(f"# scqsim {__version__}\n")
    buf.write(f"# command = {cfg.command}\n")
    buf.write(f"# seed = {cfg.seed}\n")
    # a swept key's block value is used by no row; [sweep] records the sweep
    swept = (cfg.circuit_kind, cfg.sections.get("sweep", {}).get("parameter"))
    for name in sorted(cfg.sections):
        buf.write(f"# [{name}]\n")
        for key in sorted(cfg.sections[name]):
            if (name, key) != swept:
                buf.write(f"# {key} = {_format(cfg.sections[name][key])}\n")
    for line in extra_comments:
        buf.write(f"# {line}\n")
    buf.write(",".join(columns) + "\n")
    if rows:  # each column holds one type, so the first row's types format every row
        fmt = ",".join("{:.15g}" if isinstance(x, float) else "{}" for x in rows[0]) + "\n"
        buf.writelines(itertools.starmap(fmt.format, rows))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(buf.getvalue())


def _cmd_spectrum(cfg: RunConfig) -> tuple[list, list, list]:
    sweep = cfg.sections["sweep"]
    k = sweep.get("levels", 5)
    param = sweep["parameter"]
    kind = cfg.circuit_kind
    conv = _schema(kind)[param][0]
    # integral grids are exact in linspace; parse_config rejects the others
    values = [conv(x) for x in np.linspace(sweep["start"], sweep["stop"], sweep["points"])]
    # every point, and [precision]'s mid-point at cutoff + 4, is built (so
    # checked) before the first solve; the refined point is solved last
    points = [_params(cfg, kind, **{param: x}) for x in values]
    mid = len(points) // 2
    tol = cfg.sections.get("precision", {}).get("verify_grid_tol")
    fine = [] if tol is None else [dataclasses.replace(points[mid], cutoff=points[mid].cutoff + 4)]
    if kind == "flux3":
        from .flux import solve_three_junction

        table = [solve_three_junction(p, k=k).energies for p in points + fine]
    elif param == "ng":  # one stacked solve, row for row the per-point levels
        from .charge import cpb_levels, spectrum_vs_ng

        table = [*spectrum_vs_ng(points[0], values, k=k).levels, *(cpb_levels(p, k) for p in fine)]
    else:
        from .charge import cpb_levels

        table = [cpb_levels(p, k) for p in points + fine]

    comments = []
    if fine:  # the refined point against the sweep's own mid row
        refined = table.pop()
        moved = float(np.abs(table[mid] - refined).max())
        change = f"from cutoff {points[mid].cutoff} to {fine[0].cutoff}"
        if moved > tol:
            raise ConvergenceError(
                f"levels moved {moved:.3e} GHz {change} "
                f"(tolerance {tol:.3e}); raise cutoff"
            )
        comments.append(f"grid verification: levels moved {moved:.3e} GHz {change}")

    columns = [param] + [f"E{i}" for i in range(k)]
    data = [[x, *row] for x, row in zip(values, np.asarray(table).tolist())]
    return columns, data, comments


def _cmd_evolve(cfg: RunConfig):
    from .charge import reduced_two_level

    p = _params(cfg, "cpb")
    h = reduced_two_level(p)
    grid = _checked_time_grid(_time_grid(cfg))
    p1 = np.abs(_unitary_trace(h, basis_state(2, 0), grid)[:, 1]) ** 2
    return ["t_ns", "p1"], _columns(grid, p1), []


def _cmd_rabi(cfg: RunConfig):
    from .experiments import _SZ, rabi

    pulse = _params(cfg, "pulse", duration=0.0, target="sigma_x")
    nu01 = cfg.sections["qubit"]["nu01"]
    if nu01 <= 0:  # ramsey's rule; the H below would split by |nu01|
        raise ValidationError("nu01 must be > 0")
    h = HermitianOperator(0.5 * nu01 * _SZ)
    grid = _time_grid(cfg)
    result = rabi(h, pulse, _decoherence(cfg), grid)
    comments = [f"visibility = {_format(result.fitted.visibility)}"]
    return ["t_ns", "p_excited"], _columns(result.time_grid, result.population), comments


def _cmd_ramsey(cfg: RunConfig):
    from .experiments import ramsey

    q = cfg.sections["qubit"]
    dec = _params(cfg, "decoherence")
    result = ramsey(q["nu01"], q.get("detuning", 0.0), dec, _time_grid(cfg))
    comments = [
        f"fitted_t2_us = {_format(result.fitted.t2_us)}",
        f"fitted_detuning_ghz = {_format(result.fitted.detuning)}",
        f"quality_factor = {_format(result.fitted.quality)}",
    ]
    return ["delay_ns", "p_excited"], _columns(result.time_grid, result.population), comments


def _cmd_t1(cfg: RunConfig):
    from .experiments import t1_decay

    result = t1_decay(_params(cfg, "decoherence"), _time_grid(cfg))
    comments = [f"fitted_t1_us = {_format(result.fitted.t1_us)}"]
    return ["t_ns", "p_excited"], _columns(result.time_grid, result.population), comments


def _cmd_cnot(cfg: RunConfig):
    from .coupled import _EIGENBASIS_LABELS, pi_pulse_duration, simulate_cnot

    p = _params(cfg, "coupled")
    pk = cfg.sections["pulse"]
    duration = pk.get("duration")
    if duration is None:
        duration = pi_pulse_duration(pk["amplitude"])
    table = simulate_cnot(p, _params(cfg, "pulse", duration=duration))
    comments = [f"fidelity = {_format(table.fidelity)}"]
    if table.off_resonant:
        comments.append("warning: pulse is off-resonant from both transitions")
    rows = [[label, *pops] for label, pops in zip(_EIGENBASIS_LABELS, table.populations.tolist())]
    return ["initial", "P_pp", "P_pm", "P_mp", "P_mm"], rows, comments


def _cmd_noise_psd(cfg: RunConfig):
    from .noise import fit_loglog_slope, psd_welch

    n = cfg.sections["noise"]
    ens = _params(cfg, "noise", seed=cfg.seed)
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
    return ["frequency_ghz", "psd"], _columns(freq[1:], psd[1:]), comments  # drop the DC bin


def _cmd_jc(cfg: RunConfig):
    from .cavity import strong_coupling_check, vacuum_rabi

    p = _params(cfg, "jc", dec=_decoherence(cfg))
    comments = []
    if p.g > 0 or "margin" in cfg.sections["jc"]:  # before the trace; a set margin needs g > 0
        report = strong_coupling_check(p, margin=cfg.sections["jc"].get("margin", 10.0))
        comments = [
            f"strong_coupling = {report.satisfied}",
            f"marginal = {report.marginal}",
            f"rabi_period_ns = {_format(report.rabi_period_ns)}",
        ]
    result = vacuum_rabi(p, _time_grid(cfg))
    return ["t_ns", "p_excited"], _columns(result.time_grid, result.population), comments


def _cmd_fluxoid(cfg: RunConfig):
    from .flux import classify_fluxoid, rf_squid_minima

    p = _params(cfg, "rf-squid")
    minima = rf_squid_minima(p)
    rows = []
    for phi_star in minima:
        rec = classify_fluxoid(p, phi_star)
        rows.append([rec.phi_star, rec.m, rec.residual])
    return ["phi_star", "m", "residual"], rows, []


# command -> handler, the sections it needs (each a tuple of alternatives, of
# which the config gives exactly one) and those it may also read; every
# command may read [run]
_COMMANDS = {
    "spectrum": (_cmd_spectrum, (("cpb", "flux3"), ("sweep",)), ("precision",)),
    "evolve": (_cmd_evolve, (("cpb",), ("time",)), ()),
    "rabi": (_cmd_rabi, (("qubit",), ("pulse",), ("time",)), ("decoherence",)),
    "ramsey": (_cmd_ramsey, (("qubit",), ("decoherence",), ("time",)), ()),
    "t1": (_cmd_t1, (("decoherence",), ("time",)), ()),
    "cnot": (_cmd_cnot, (("coupled",), ("pulse",)), ()),
    "noise-psd": (_cmd_noise_psd, (("noise",),), ()),
    "jc": (_cmd_jc, (("jc",), ("time",)), ("decoherence",)),
    "fluxoid": (_cmd_fluxoid, (("rf-squid",),), ()),
}
# (section, key) pairs a command does not read, so a config may not set them:
# rabi's drive stays on over the whole time grid, and its detuning is the
# pulse frequency's offset from nu01
_UNREAD_KEYS = {"rabi": (("qubit", "detuning"), ("pulse", "duration"))}


def run(cfg: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    try:
        # numpy raises where it would warn, so a failing run writes its one line only
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            columns, rows, comments = _COMMANDS[cfg.command][0](cfg)
        _write_csv(cfg.out, cfg, columns, rows, comments)
    except (ValidationError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, FitError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # a usage error: one config-error line, exit 1
        self.exit(1, f"config error: {message}\n")


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="scqsim",
        description="Superconducting qubit circuit simulations (CSV output).",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS), help="experiment to run")
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--out", default=None, help="output CSV path (overrides [run] out)")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (overrides [run] seed)")
    parser.add_argument(
        "--threads", type=int, default=None, help="accepted and ignored: sweeps run in one process"
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (1)
        return exc.code

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        cfg = parse_config(text, command=args.command)
        if args.threads is not None and args.threads < 0:
            raise ConfigError([f"threads must be >= 0, got {args.threads}"])
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 1

    if args.out is not None:
        cfg.out = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    # the header's [run] block records what the run used: a flag wins
    run_block = cfg.sections.get("run", {})
    for key, flag in (("out", args.out), ("seed", args.seed)):
        if flag is not None and key in run_block:
            run_block[key] = flag
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
