"""CLI tests: config validation, dispatch, CSV format, determinism."""

import contextlib
import dataclasses
import io
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from scqsim.charge import CpbParams, cpb_hamiltonian
from scqsim import cavity, charge, cli, core, flux
from scqsim.cli import ConfigError, parse_config
from scqsim.flux import ThreeJunctionParams, solve_three_junction

CPB_SPECTRUM = """
[run]
seed = 42

[cpb]
ec = 5.0
ej = 1.0
cutoff = 10

[sweep]
parameter = ng
start = 0.0
stop = 1.0
points = 11
levels = 5
"""


# the README-style configs of the three commands that run evolve_lindblad
LINDBLAD_CONFIGS = {
    "ramsey": "[qubit]\nnu01 = 10.0\ndetuning = 0.002\n"
    "[decoherence]\nt1_us = 10.0\nt2_us = 1.0\n[time]\nstop = 2500.0\npoints = 101\n",
    "t1": "[decoherence]\nt1_us = 2.0\nt2_us = 2.0\n[time]\nstop = 6000.0\npoints = 61\n",
    "jc": "[jc]\nnu01 = 10.0\nnu_c = 10.0\ng = 0.1\nn_ph = 4\nkappa_per_us = 10.0\n"
    "[decoherence]\nt1_us = 5.0\nt2_us = 0.5\n[time]\nstop = 3.0\npoints = 31\n",
}


# seconds one CLI run may take before it fails its test: the slowest takes
# under 1 s, so a run still going after this has an unbounded plan
RUN_TIMEOUT = 120


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "scqsim", *args], capture_output=True, text=True, timeout=RUN_TIMEOUT
    )


def read_csv(path):
    comments, header, rows = [], None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header, rows


class TestParseConfig:
    def test_minimal_valid(self):
        cfg = parse_config(CPB_SPECTRUM, command="spectrum")
        assert cfg.circuit_kind == "cpb"
        assert cfg.seed == 42
        assert cfg.sections["sweep"]["points"] == 11

    def test_two_circuit_blocks_rejected(self):
        text = CPB_SPECTRUM + "\n[flux3]\nej = 40\nec = 1\n"
        with pytest.raises(ConfigError, match=r"'spectrum' needs exactly one of \[cpb\], \[flux3\]"):
            parse_config(text, command="spectrum")

    def test_missing_sweep_key_listed(self):
        text = CPB_SPECTRUM.replace("parameter = ng\n", "")
        with pytest.raises(ConfigError, match="missing required key 'parameter'"):
            parse_config(text, command="spectrum")

    def test_unknown_key_rejected(self):
        text = CPB_SPECTRUM.replace("ec = 5.0", "ec = 5.0\necc = 2.0")
        with pytest.raises(ConfigError, match="unknown key 'ecc'"):
            parse_config(text, command="spectrum")

    def test_sweep_parameter_must_exist(self):
        text = CPB_SPECTRUM.replace("parameter = ng", "parameter = alpha")
        with pytest.raises(ConfigError, match="sweep parameter 'alpha' does not exist"):
            parse_config(text, command="spectrum")

    def test_all_errors_collected(self):
        text = CPB_SPECTRUM.replace("parameter = ng", "parameter = alpha").replace(
            "ec = 5.0", "bogus = 1.0"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(text, command="spectrum")
        assert len(err.value.errors) >= 3  # unknown key, missing ec, bad sweep key

    def test_unknown_subcommand_rejected(self):
        # main's argparse refuses it first; parse_config names it as well
        with pytest.raises(ConfigError, match="unknown subcommand 'sweep'"):
            parse_config(CPB_SPECTRUM, command="sweep")

    def test_command_key_rejected(self):
        # the subcommand comes from the command line only
        text = CPB_SPECTRUM.replace("[run]", "[run]\ncommand = cnot")
        with pytest.raises(ConfigError, match=r"unknown key 'command' in \[run\]"):
            parse_config(text, command="spectrum")

    def test_unused_section_rejected(self):
        text = CPB_SPECTRUM + "\n[pulse]\namplitude = 1\nfrequency = 2\n"
        with pytest.raises(ConfigError, match="not used by 'spectrum'"):
            parse_config(text, command="spectrum")


# a valid body for every config section
SECTION_TEXT = {
    "cpb": "ec = 5.0\nej = 1.0\n",
    "flux3": "ej = 40.0\nec = 1.0\n",
    "rf-squid": "ej = 5.0\nec = 0.15\ninductive_scale = 0.5\n",
    "coupled": "ej1 = 10.0\nej2 = 7.0\n",
    "jc": "nu01 = 5.0\nnu_c = 5.0\ng = 0.1\n",
    "noise": "count = 4\ngamma_min = 1e-2\ngamma_max = 1.0\ndt = 0.05\nsamples = 1000\ntrajectories = 2\n",
    "decoherence": "t1_us = 10.0\nt2_us = 1.0\n",
    "pulse": "amplitude = 0.2\nfrequency = 10.0\n",
    "qubit": "nu01 = 10.0\n",
    "run": "seed = 1\n",
    "sweep": "parameter = ng\nstart = 0.0\nstop = 1.0\npoints = 3\n",
    "time": "stop = 1.0\npoints = 3\n",
    "precision": "verify_grid_tol = 1e-3\n",
}


def config_of(sections):
    return "".join(f"[{name}]\n{SECTION_TEXT[name]}" for name in sections)


class TestCommandTable:
    """Each command reads the sections ``_COMMANDS`` lists for it, and no others."""

    @staticmethod
    def failure(tmp_path, capsys, command, sections):
        cfg = tmp_path / "in.ini"
        cfg.write_text(config_of(sections))
        out = tmp_path / "o.csv"
        code = cli.main([command, "--config", str(cfg), "--out", str(out)])
        assert not out.exists()
        return code, capsys.readouterr().err.splitlines()

    def test_every_section_has_a_valid_body(self):
        assert not cli._PARAM_BLOCKS.keys() & cli._SECTIONS.keys()
        assert SECTION_TEXT.keys() == cli._PARAM_BLOCKS.keys() | cli._SECTIONS.keys()

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_needed_sections_and_no_others(self, tmp_path, capsys, command):
        _, needs, optional = cli._COMMANDS[command]
        needed = [choices[0] for choices in needs]
        parse_config(config_of(["run", *needed, *optional]), command)
        for choices, name in zip(needs, needed):
            if len(choices) == 1:
                message = f"config error: '{command}' needs a [{name}] section"
            else:
                message = "config error: 'spectrum' needs exactly one of [cpb], [flux3]"
            rest = [n for n in needed if n != name]
            assert self.failure(tmp_path, capsys, command, rest) == (1, [message])
        read = {"run", *optional, *(name for choices in needs for name in choices)}
        for name in sorted((cli._PARAM_BLOCKS.keys() | cli._SECTIONS.keys()) - read):
            message = f"config error: section [{name}] is not used by '{command}'"
            assert self.failure(tmp_path, capsys, command, [*needed, name]) == (1, [message])


# the hand-written key tables the derived schemas replaced, kept as an oracle
HAND_WRITTEN_SCHEMAS = {
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
    "decoherence": {"t1_us": (float, True), "t2_us": (float, True)},
    "pulse": {
        "amplitude": (float, True),
        "frequency": (float, True),
        "duration": (float, False),
        "phase": (float, False),
    },
}


class TestDerivedSchemas:
    @pytest.mark.parametrize("block", sorted(HAND_WRITTEN_SCHEMAS))
    def test_matches_hand_written_table_in_order(self, block):
        expected = dict(HAND_WRITTEN_SCHEMAS[block])
        if block == "noise":
            expected["coupling"] = (float, False)  # now the dataclass default, 1e-3
        derived = [
            (key, (conv, default is dataclasses.MISSING)) for key, (conv, default) in cli._schema(block).items()
        ]
        assert derived == list(expected.items())

    def test_unmappable_annotation_raises(self):
        @dataclasses.dataclass
        class Labelled:
            x: float
            label: str = "a"

        assert cli._fields_schema(Labelled, omit=("label",)) == {"x": (float, dataclasses.MISSING)}
        with pytest.raises(TypeError, match="Labelled.label"):
            cli._fields_schema(Labelled)

    def test_noise_coupling_defaults_to_1e_3(self, tmp_path):
        # the header records the resolved value, so the files are identical
        block = (
            "[noise]\ncount = 4\ngamma_min = 1e-2\ngamma_max = 1.0\n{}"
            "dt = 0.05\nsamples = 2048\ntrajectories = 2\nnperseg = 512\n"
        )
        files = []
        for name, coupling in (("default", ""), ("explicit", "coupling = 1e-3\n")):
            cfg = tmp_path / f"{name}.ini"
            cfg.write_text(block.format(coupling))
            out = tmp_path / f"{name}.csv"
            proc = run_cli("noise-psd", "--config", str(cfg), "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            files.append(out.read_bytes())
        rows = [line for line in files[0].splitlines() if not line.startswith(b"#")]
        assert len(rows) > 2 and files[0] == files[1]
        assert b"# [noise]\n# count = 4\n# coupling = 0.001\n" in files[0]

    def test_cpb_header_records_cutoff_and_ng(self, tmp_path):
        cfg = tmp_path / "cpb.ini"
        cfg.write_text(CPB_SPECTRUM.replace("cutoff = 10\n", ""))
        out = tmp_path / "cpb.csv"
        assert run_cli("spectrum", "--config", str(cfg), "--out", str(out)).returncode == 0
        comments, _, _ = read_csv(out)
        block = comments[comments.index("# [cpb]") + 1 : comments.index("# [run]")]
        assert block == ["# cutoff = 10", "# ec = 5", "# ej = 1"]

    @staticmethod
    def circuit_block(tmp_path, text, circuit):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(text)
        out = tmp_path / "sweep.csv"
        assert cli.main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        comments, _, _ = read_csv(out)
        block = comments[comments.index(f"# [{circuit}]") + 1 :]
        return block[: next(i for i, line in enumerate(block) if line.startswith("# ["))]

    def test_swept_key_left_out_of_its_block(self, tmp_path):
        # the [sweep] block records the f values; the block's f = 0.5 is used by no row
        text = (
            "[flux3]\nej = 40.0\nec = 1.0\nf = 0.5\ncutoff = 3\n"
            "[sweep]\nparameter = f\nstart = 0.49\nstop = 0.51\npoints = 2\nlevels = 2\n"
        )
        block = self.circuit_block(tmp_path, text, "flux3")
        assert block == ["# alpha = 0.8", "# cutoff = 3", "# ec = 1", "# ej = 40"]

    def test_unswept_keys_stay_in_their_block(self, tmp_path):
        text = CPB_SPECTRUM.replace("parameter = ng", "parameter = ej").replace(
            "stop = 1.0", "stop = 2.0"
        )
        block = self.circuit_block(tmp_path, text, "cpb")
        assert block == ["# cutoff = 10", "# ec = 5", "# ng = 0"]


class TestCliRuns:
    def test_spectrum_matches_oracle(self, tmp_path):
        cfg = tmp_path / "cpb.ini"
        cfg.write_text(CPB_SPECTRUM)
        out = tmp_path / "cpb.csv"
        proc = run_cli("spectrum", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        comments, header, rows = read_csv(out)
        assert header == ["ng", "E0", "E1", "E2", "E3", "E4"]
        assert any("scqsim" in c for c in comments)
        assert any("seed = 42" in c for c in comments)
        assert len(rows) == 11
        # golden regression against the independent tridiagonal oracle
        n = np.arange(-10, 11)
        for row in rows:
            ng = float(row[0])
            levels = np.array([float(x) for x in row[1:]])
            oracle = eigh_tridiagonal(
                5.0 * (n - ng) ** 2,
                np.full(20, -0.5),
                eigvals_only=True,
                select="i",
                select_range=(0, 4),
            )
            np.testing.assert_allclose(levels, oracle, atol=1e-9)

    def test_every_level_of_the_box_on_ng_and_ej_sweeps(self, tmp_path):
        # levels = 2N + 1 at cutoff 2: an ng sweep and an ej sweep through
        # the same box (ng = 0.3, ej = 1) give the same five levels
        box = "[cpb]\nec = 5.0\nej = 1.0\nng = 0.3\ncutoff = 2\n"
        rows = {}
        for param, value in (("ng", 0.3), ("ej", 1.0)):
            cfg = tmp_path / f"{param}.ini"
            cfg.write_text(
                box + f"[sweep]\nparameter = {param}\nstart = {value}\nstop = {value}\n"
                "points = 1\nlevels = 5\n"
            )
            out = tmp_path / f"{param}.csv"
            proc = run_cli("spectrum", "--config", str(cfg), "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            rows[param] = read_csv(out)[2][0][1:]
        assert len(rows["ng"]) == 5 and rows["ng"] == rows["ej"]

    def test_fifteen_significant_digits(self, tmp_path):
        cfg = tmp_path / "cpb.ini"
        cfg.write_text(CPB_SPECTRUM)
        out = tmp_path / "cpb.csv"
        assert run_cli("spectrum", "--config", str(cfg), "--out", str(out)).returncode == 0
        _, _, rows = read_csv(out)
        cell = rows[1][1]  # a generic eigenvalue
        mantissa = cell.replace("-", "").replace(".", "").lstrip("0")
        assert len(mantissa) >= 14

    def test_byte_identical_reruns_and_threads(self, tmp_path):
        cfg = tmp_path / "cpb.ini"
        cfg.write_text(CPB_SPECTRUM)
        outs = []
        for name, threads in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
            out = tmp_path / name
            proc = run_cli(
                "spectrum", "--config", str(cfg), "--out", str(out), "--threads", threads
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] == outs[2]  # thread count must not leak into the bytes

    def test_flags_win_in_the_run_block(self, tmp_path):
        cfg = tmp_path / "cpb.ini"
        cfg.write_text(CPB_SPECTRUM.replace("seed = 42", "seed = 42\nout = a.csv"))
        out = tmp_path / "b.csv"
        proc = run_cli("spectrum", "--config", str(cfg), "--out", str(out), "--seed", "7")
        assert proc.returncode == 0, proc.stderr
        comments, _, _ = read_csv(out)
        assert comments[2] == "# seed = 7"
        # the keys the config sets, at the values the run used; threads stays out
        block = comments[comments.index("# [run]") + 1 : comments.index("# [sweep]")]
        assert block == [f"# out = {out}", "# seed = 7"]

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(CPB_SPECTRUM.replace("parameter = ng", "parameter = zz"))
        proc = run_cli("spectrum", "--config", str(cfg), "--out", str(tmp_path / "o.csv"))
        assert proc.returncode == 1
        assert "zz" in proc.stderr

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "flux.ini"
        cfg.write_text(
            """
[flux3]
ej = 40.0
ec = 1.0
alpha = 0.8
cutoff = 8

[sweep]
parameter = f
start = 0.49
stop = 0.51
points = 3
levels = 2

[precision]
verify_grid_tol = 1e-14
"""
        )
        proc = run_cli("spectrum", "--config", str(cfg), "--out", str(tmp_path / "o.csv"))
        assert proc.returncode == 2
        assert "from cutoff 8 to 12" in proc.stderr

    def test_cnot_csv(self, tmp_path):
        cfg = tmp_path / "cnot.ini"
        cfg.write_text(
            """
[coupled]
ej1 = 10.0
ej2 = 7.0
chi = 1.0

[pulse]
amplitude = 0.2
frequency = 12.0
"""
        )
        out = tmp_path / "cnot.csv"
        proc = run_cli("cnot", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        comments, header, rows = read_csv(out)
        fid_line = next(c for c in comments if "fidelity" in c)
        assert float(fid_line.split("=")[1]) >= 0.99
        assert header[0] == "initial"
        assert [r[0] for r in rows] == ["++", "+-", "-+", "--"]

    def test_t1_run(self, tmp_path):
        cfg = tmp_path / "t1.ini"
        cfg.write_text(
            """
[decoherence]
t1_us = 1.0
t2_us = 1.0

[time]
stop = 1000.0
points = 21
"""
        )
        out = tmp_path / "t1.csv"
        assert run_cli("t1", "--config", str(cfg), "--out", str(out)).returncode == 0
        _, header, rows = read_csv(out)
        assert header == ["t_ns", "p_excited"]
        assert float(rows[-1][1]) == pytest.approx(np.exp(-1.0), abs=1e-4)

    def test_fluxoid_run(self, tmp_path):
        cfg = tmp_path / "fx.ini"
        cfg.write_text(
            """
[rf-squid]
ej = 5.0
ec = 0.15
inductive_scale = 0.5
phi_ext = 3.141592653589793
"""
        )
        out = tmp_path / "fx.csv"
        assert run_cli("fluxoid", "--config", str(cfg), "--out", str(out)).returncode == 0
        _, header, rows = read_csv(out)
        assert header == ["phi_star", "m", "residual"]
        assert sorted(int(r[1]) for r in rows) == [0, 1]

    def test_fluxoid_lists_minima_beyond_three_pi(self, tmp_path):
        # Ej/(2 inductive_scale) = 15: minima lie up to 11.7 rad from phi_ext
        cfg = tmp_path / "fx.ini"
        cfg.write_text("[rf-squid]\nej = 30\nec = 0.1\ninductive_scale = 1\nphi_ext = 0.3\n")
        out = tmp_path / "fx.csv"
        assert run_cli("fluxoid", "--config", str(cfg), "--out", str(out)).returncode == 0
        _, _, rows = read_csv(out)
        assert [int(r[1]) for r in rows] == [-2, -1, 0, 1, 2]

    def test_fluxoid_lists_a_shallow_minimum_near_its_critical_flux(self, tmp_path):
        # Ej = 10, inductive_scale = 2: the m = 1 minimum vanishes at
        # x_c = 2 pi - theta - 2.5 sin(theta), cos(theta) = -0.4; 1e-5 above x_c
        # it is still there, a shallow metastable well at phi = 4.30383
        theta = np.arccos(-0.4)
        x_c = 2.0 * np.pi - theta - 2.5 * np.sin(theta)
        cfg = tmp_path / "fx.ini"
        cfg.write_text(f"[rf-squid]\nej = 10\nec = 0.1\ninductive_scale = 2\nphi_ext = {float(x_c) + 1e-5!r}\n")
        out = tmp_path / "fx.csv"
        assert run_cli("fluxoid", "--config", str(cfg), "--out", str(out)).returncode == 0
        _, _, rows = read_csv(out)
        assert [int(r[1]) for r in rows] == [0, 1]
        assert float(rows[1][0]) == pytest.approx(4.30383, abs=1e-5)

    def test_jc_run(self, tmp_path):
        cfg = tmp_path / "jc.ini"
        cfg.write_text(
            """
[jc]
nu01 = 10.0
nu_c = 10.0
g = 0.1
n_ph = 4

[time]
stop = 10.0
points = 21
"""
        )
        out = tmp_path / "jc.csv"
        assert run_cli("jc", "--config", str(cfg), "--out", str(out)).returncode == 0
        comments, _, rows = read_csv(out)
        assert any("strong_coupling = True" in c for c in comments)
        assert float(rows[5][1]) == pytest.approx(0.0, abs=1e-6)  # node at 2.5 ns
        assert float(rows[10][1]) == pytest.approx(1.0, abs=1e-6)  # revival at 5 ns

    def test_jc_at_g_0_without_margin_skips_the_check(self, tmp_path):
        # no coupling and no margin: nothing to check, and |e0> stays put
        cfg = tmp_path / "jc.ini"
        cfg.write_text("[jc]\nnu01 = 10.0\nnu_c = 10.0\ng = 0.0\nn_ph = 4\n[time]\nstop = 3.0\npoints = 31\n")
        out = tmp_path / "jc.csv"
        assert run_cli("jc", "--config", str(cfg), "--out", str(out)).returncode == 0
        comments, _, rows = read_csv(out)
        assert not any("strong_coupling" in c for c in comments)
        assert [float(r[1]) for r in rows] == pytest.approx([1.0] * 31, abs=1e-12)

    def test_evolve_run(self, tmp_path):
        cfg = tmp_path / "ev.ini"
        cfg.write_text(
            """
[cpb]
ec = 1.0
ej = 1.0
ng = 0.5

[time]
stop = 0.5
points = 11
"""
        )
        out = tmp_path / "ev.csv"
        assert run_cli("evolve", "--config", str(cfg), "--out", str(out)).returncode == 0
        _, header, rows = read_csv(out)
        assert header == ["t_ns", "p1"]
        # reduced CPB at the degeneracy point: P1(t) = sin^2(pi Ej t)
        assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-10)

    def test_missing_config_file(self, tmp_path):
        proc = run_cli("spectrum", "--config", str(tmp_path / "nope.ini"))
        assert proc.returncode == 1

    def test_help_exits_0(self):
        proc = run_cli("--help")
        assert proc.returncode == 0 and proc.stdout.startswith("usage: scqsim")
        assert "--circuit" not in proc.stdout

    @pytest.mark.parametrize("command", sorted(LINDBLAD_CONFIGS))
    def test_lindblad_commands_take_one_exponential_per_spacing(self, command, tmp_path, monkeypatch):
        # one step exponential per distinct spacing of the linspace grid
        # (ramsey 2, t1 2, jc 7), not one per grid time (101, 61 and 31)
        taken = []
        expm = core._expm
        monkeypatch.setattr(core, "_expm", lambda a, extra=0: taken.append(extra) or expm(a, extra))
        cfg = tmp_path / f"{command}.ini"
        cfg.write_text(LINDBLAD_CONFIGS[command])
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
        span = parse_config(LINDBLAD_CONFIGS[command], command=command).sections["time"]
        grid = np.linspace(0.0, span["stop"], span["points"])
        assert taken == [0] * np.unique(np.diff(grid, prepend=0.0)).size
        assert 2 <= len(taken) <= 7


def assert_one_line_failure(proc, code, prefix):
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), proc.stderr
    assert "Traceback" not in proc.stderr


class TestFailurePaths:
    def test_degenerate_ramsey_fit_exits_2(self, tmp_path):
        cfg = tmp_path / "ramsey.ini"
        cfg.write_text(
            "[qubit]\nnu01 = 10.0\n[decoherence]\nt1_us = 10.0\nt2_us = 1.0\n"
            "[time]\nstop = 0\npoints = 5\n"
        )
        proc = run_cli("ramsey", "--config", str(cfg), "--out", str(tmp_path / "o.csv"))
        assert_one_line_failure(proc, 2, "numerical failure: degenerate Ramsey trace")

    def test_unfittable_t1_trace_exits_2(self, tmp_path):
        # five samples at t = 0 cannot fix T1: the fit's normal matrix is singular
        cfg = tmp_path / "t1.ini"
        cfg.write_text("[decoherence]\nt1_us = 10.0\nt2_us = 1.0\n[time]\nstop = 0\npoints = 5\n")
        out = tmp_path / "o.csv"
        proc = run_cli("t1", "--config", str(cfg), "--out", str(out))
        assert_one_line_failure(proc, 2, "numerical failure: T1 decay fit failed: singular")
        assert not out.exists()

    def test_ramsey_past_nyquist_exits_1(self, tmp_path):
        # 0.19 GHz on the 25 ns grid aliases to 0.01 GHz: the samples cannot
        # tell the two apart, so the detuning is refused, not fitted
        cfg = tmp_path / "ramsey.ini"
        cfg.write_text(LINDBLAD_CONFIGS["ramsey"].replace("detuning = 0.002", "detuning = 0.19"))
        out = tmp_path / "o.csv"
        proc = run_cli("ramsey", "--config", str(cfg), "--out", str(out))
        assert_one_line_failure(
            proc, 1, "error: detuning 0.19 GHz is at or past the Nyquist limit 1/(2 h) = 0.02 GHz"
        )
        assert not out.exists()

    def test_t1_without_resolved_decay_exits_2(self, tmp_path):
        # at T1 = 1e300 us every population is exactly 1: a zero slope, named
        # as such rather than an infinite T1 or an overflow
        cfg = tmp_path / "t1.ini"
        cfg.write_text(LINDBLAD_CONFIGS["t1"].replace("t1_us = 2.0\nt2_us = 2.0", "t1_us = 1e300\nt2_us = 1e300"))
        out = tmp_path / "o.csv"
        proc = run_cli("t1", "--config", str(cfg), "--out", str(out))
        assert_one_line_failure(proc, 2, "numerical failure: T1 decay fit failed: no resolved decay")
        assert not out.exists()

    def test_integer_sweep(self, tmp_path):
        cfg = tmp_path / "cut.ini"
        cfg.write_text(
            "[cpb]\nec = 5.0\nej = 1.0\n"
            "[sweep]\nparameter = cutoff\nstart = 2\nstop = 6\npoints = 5\nlevels = 3\n"
        )
        out = tmp_path / "cut.csv"
        proc = run_cli("spectrum", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        _, header, rows = read_csv(out)
        assert header == ["cutoff", "E0", "E1", "E2"]
        assert [r[0] for r in rows] == ["2", "3", "4", "5", "6"]
        for row in rows:
            h = cpb_hamiltonian(CpbParams(ec=5.0, ej=1.0, cutoff=int(row[0])))
            np.testing.assert_allclose(
                [float(x) for x in row[1:]], np.linalg.eigvalsh(h.entries)[:3], atol=1e-12
            )

    def test_non_integral_integer_sweep_rejected(self, tmp_path):
        cfg = tmp_path / "cut.ini"
        cfg.write_text(
            "[cpb]\nec = 5.0\nej = 1.0\n"
            "[sweep]\nparameter = cutoff\nstart = 4\nstop = 9\npoints = 3\n"
        )
        proc = run_cli("spectrum", "--config", str(cfg), "--out", str(tmp_path / "o.csv"))
        assert_one_line_failure(proc, 1, "config error: sweep parameter 'cutoff' is an integer")

    def test_flux_sweep_sets_the_swept_parameter(self, tmp_path):
        cfg = tmp_path / "flux.ini"
        cfg.write_text(
            "[flux3]\nej = 40.0\nec = 1.0\nf = 0.5\ncutoff = 8\n"
            "[sweep]\nparameter = alpha\nstart = 0.7\nstop = 0.8\npoints = 2\nlevels = 2\n"
        )
        out = tmp_path / "flux.csv"
        proc = run_cli("spectrum", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        _, _, rows = read_csv(out)
        for row in rows:
            p = ThreeJunctionParams(ej=40.0, ec=1.0, alpha=float(row[0]), f=0.5, cutoff=8)
            np.testing.assert_allclose(
                [float(x) for x in row[1:]], solve_three_junction(p, k=2).energies, atol=1e-12
            )

    def test_flux_cutoff_above_dense_cap_exits_1(self, tmp_path):
        cfg = tmp_path / "flux.ini"
        cfg.write_text(
            "[flux3]\nej = 40.0\nec = 1.0\ncutoff = 32\n"
            "[sweep]\nparameter = f\nstart = 0.49\nstop = 0.51\npoints = 2\nlevels = 2\n"
        )
        out = tmp_path / "o.csv"
        proc = run_cli("spectrum", "--config", str(cfg), "--out", str(out))
        assert_one_line_failure(proc, 1, "error: charge cutoff 32 gives 4225 states")
        assert not out.exists()

    def test_precision_cutoff_above_dense_cap_exits_1(self, tmp_path):
        # cutoff 28 (3249 states) fits the cap; its check at cutoff 32 does not
        cfg = tmp_path / "flux.ini"
        cfg.write_text(
            "[flux3]\nej = 40.0\nec = 1.0\ncutoff = 28\n"
            "[sweep]\nparameter = f\nstart = 0.49\nstop = 0.51\npoints = 2\nlevels = 2\n"
            "[precision]\nverify_grid_tol = 1e-3\n"
        )
        out = tmp_path / "o.csv"
        proc = run_cli("spectrum", "--config", str(cfg), "--out", str(out))
        assert_one_line_failure(proc, 1, "error: charge cutoff 32 gives 4225 states")
        assert not out.exists()

    def test_unconverged_cpb_precision_exits_2(self, tmp_path):
        cfg = tmp_path / "cpb.ini"
        cfg.write_text(
            CPB_SPECTRUM.replace("cutoff = 10", "cutoff = 2")
            + "[precision]\nverify_grid_tol = 1e-12\n"
        )
        out = tmp_path / "o.csv"
        proc = run_cli("spectrum", "--config", str(cfg), "--out", str(out))
        assert_one_line_failure(proc, 2, "numerical failure: levels moved")
        assert "from cutoff 2 to 6" in proc.stderr
        assert not out.exists()

    def test_cpb_precision_is_recorded(self, tmp_path):
        outs = {}
        for name, extra in (("plain", ""), ("checked", "[precision]\nverify_grid_tol = 1e-9\n")):
            cfg = tmp_path / f"{name}.ini"
            cfg.write_text(CPB_SPECTRUM + extra)
            outs[name] = tmp_path / f"{name}.csv"
            proc = run_cli("spectrum", "--config", str(cfg), "--out", str(outs[name]))
            assert proc.returncode == 0, proc.stderr
        comments, _, rows = read_csv(outs["checked"])
        check = [c for c in comments if c.startswith("# grid verification: levels moved")]
        assert len(check) == 1 and check[0].endswith("GHz from cutoff 10 to 14")
        assert rows == read_csv(outs["plain"])[2]

    def test_cpb_ng_sweep_outside_the_unit_interval_exits_1(self, tmp_path):
        # the stacked ng solve refuses the grid before any level is solved,
        # the refined mid-point ng = 1.4 included
        cfg = tmp_path / "cpb.ini"
        cfg.write_text(
            CPB_SPECTRUM.replace("start = 0.0", "start = 1.2").replace("stop = 1.0", "stop = 1.6")
            + "[precision]\nverify_grid_tol = 1e-3\n"
        )
        out = tmp_path / "o.csv"
        proc = run_cli("spectrum", "--config", str(cfg), "--out", str(out))
        assert_one_line_failure(proc, 1, "error: ng grid must lie within [0, 1]")
        assert not out.exists()

    @pytest.mark.parametrize(
        "module, solver, text, cutoff",
        [
            (
                flux,
                "solve_three_junction",
                "[flux3]\nej = 40.0\nec = 1.0\ncutoff = 6\n"
                "[sweep]\nparameter = f\nstart = 0.49\nstop = 0.51\npoints = 3\nlevels = 2\n",
                6,
            ),
            (
                charge,
                "_stacked_levels",
                "[cpb]\nec = 5.0\nej = 1.0\nng = 0.3\n"
                "[sweep]\nparameter = ej\nstart = 0.5\nstop = 2.0\npoints = 7\nlevels = 4\n",
                10,
            ),
        ],
        ids=["flux3-f", "cpb-ej"],
    )
    def test_precision_solves_the_sweep_and_one_refined_point(
        self, tmp_path, monkeypatch, module, solver, text, cutoff
    ):
        # n points, then the mid-point again at cutoff + 4: n + 1 solves
        solve, cutoffs = getattr(module, solver), []

        def counted(p, *args, **kwargs):
            cutoffs.append(p.cutoff)
            return solve(p, *args, **kwargs)

        monkeypatch.setattr(module, solver, counted)
        cfg = tmp_path / "in.ini"
        cfg.write_text(text + "[precision]\nverify_grid_tol = 1e-3\n")
        out = tmp_path / "o.csv"
        assert cli.main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        assert cutoffs == [cutoff] * len(read_csv(out)[2]) + [cutoff + 4]

    def test_jc_margin_is_checked_before_the_trace(self, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("vacuum_rabi ran before the margin was checked")

        monkeypatch.setattr(cavity, "vacuum_rabi", unreachable)
        cfg = tmp_path / "jc.ini"
        cfg.write_text(
            "[jc]\nnu01 = 10.0\nnu_c = 10.0\ng = 0.1\nn_ph = 4\nmargin = 0.5\n"
            "[time]\nstop = 3.0\npoints = 31\n"
        )
        out = tmp_path / "o.csv"
        assert cli.main(["jc", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: margin must be >= 1"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, line", [("qubit", "detuning = 0.7"), ("pulse", "duration = 1.0")]
    )
    def test_rabi_rejects_keys_it_does_not_read(self, tmp_path, section, line):
        cfg = tmp_path / "rabi.ini"
        cfg.write_text(
            "[qubit]\nnu01 = 10.0\n[pulse]\namplitude = 0.2\nfrequency = 10.0\n"
            "[time]\nstop = 1.0\npoints = 3\n".replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        )
        out = tmp_path / "o.csv"
        proc = run_cli("rabi", "--config", str(cfg), "--out", str(out))
        key = line.split()[0]
        assert_one_line_failure(
            proc, 1, f"config error: key '{key}' in [{section}] is not used by 'rabi'"
        )
        assert not out.exists()

    def test_phase_block_is_unknown(self, tmp_path):
        cfg = tmp_path / "phase.ini"
        cfg.write_text(
            "[phase]\nej = 10.0\nec = 0.001\n"
            "[decoherence]\nt1_us = 1.0\nt2_us = 1.0\n[time]\nstop = 10.0\npoints = 3\n"
        )
        proc = run_cli("t1", "--config", str(cfg), "--out", str(tmp_path / "o.csv"))
        assert_one_line_failure(proc, 1, "config error: unknown section [phase]")

    def test_negative_start_time_exits_1(self, tmp_path):
        cfg = tmp_path / "rabi.ini"
        cfg.write_text(
            "[qubit]\nnu01 = 10.0\n[pulse]\namplitude = 0.2\nfrequency = 10.0\n"
            "[time]\nstart = -1\nstop = 1.0\npoints = 3\n"
        )
        out = tmp_path / "o.csv"
        proc = run_cli("rabi", "--config", str(cfg), "--out", str(out))
        assert_one_line_failure(proc, 1, "error: time grid must be ascending and non-negative")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text",
        [
            ("spectrum", CPB_SPECTRUM.replace("ec = 5.0", "ec = nan")),
            (
                "rabi",
                "[qubit]\nnu01 = inf\n[pulse]\namplitude = 0.2\nfrequency = 10.0\n"
                "[time]\nstop = 1.0\npoints = 3\n",
            ),
            ("jc", "[jc]\nnu01 = inf\nnu_c = 10.0\ng = 0.1\n[time]\nstop = 1.0\npoints = 3\n"),
            ("spectrum", CPB_SPECTRUM.replace("start = 0.0", "start = nan")),
            ("spectrum", CPB_SPECTRUM.replace("stop = 1.0", "stop = -inf")),
        ],
        ids=["cpb-ec-nan", "qubit-nu01-inf", "jc-nu01-inf", "ng-start-nan", "ng-stop-inf"],
    )
    def test_non_finite_values_exit_1(self, tmp_path, command, text):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        proc = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o.csv"))
        assert_one_line_failure(proc, 1, "config error:")
        assert "not a finite number" in proc.stderr

    @pytest.mark.parametrize("nperseg", [-4, 1])
    def test_short_welch_segment_exits_1(self, tmp_path, nperseg):
        cfg = tmp_path / "psd.ini"
        cfg.write_text(
            "[noise]\ncount = 4\ngamma_min = 1e-2\ngamma_max = 1.0\ncoupling = 1e-3\n"
            f"dt = 0.05\nsamples = 1000\ntrajectories = 2\nnperseg = {nperseg}\n"
        )
        out = tmp_path / "o.csv"
        proc = run_cli("noise-psd", "--config", str(cfg), "--out", str(out))
        assert_one_line_failure(proc, 1, "error: nperseg must be >= 2")
        assert not out.exists()

    def test_overflowing_noise_grid_exits_1(self, tmp_path):
        # samples * dt overflows to inf: the grid is rejected, not sampled
        cfg = tmp_path / "psd.ini"
        cfg.write_text(
            "[noise]\ncount = 4\ngamma_min = 1e-2\ngamma_max = 1.0\ncoupling = 1e-3\n"
            "dt = 1e308\nsamples = 1000\ntrajectories = 2\n"
        )
        out = tmp_path / "o.csv"
        proc = run_cli("noise-psd", "--config", str(cfg), "--out", str(out))
        assert_one_line_failure(proc, 1, "error: time grid has non-finite times")
        assert not out.exists()

    @pytest.mark.parametrize(
        "dt, samples, message",
        [
            ("-0.01", 1000, "error: dt must be > 0, got -0.01"),
            ("0", 1000, "error: dt must be > 0, got 0.0"),
            ("0.05", 1, "error: n_samples must be >= 2, got 1"),
        ],
    )
    def test_bad_noise_step_or_sample_count_exits_1(self, tmp_path, dt, samples, message):
        # psd_welch names the input, not the grid it would build from it
        cfg = tmp_path / "psd.ini"
        cfg.write_text(
            "[noise]\ncount = 4\ngamma_min = 1e-2\ngamma_max = 1.0\ncoupling = 1e-3\n"
            f"dt = {dt}\nsamples = {samples}\ntrajectories = 2\n"
        )
        out = tmp_path / "o.csv"
        proc = run_cli("noise-psd", "--config", str(cfg), "--out", str(out))
        assert_one_line_failure(proc, 1, message)
        assert not out.exists()

    def test_subnormal_t1_exits_1(self, tmp_path):
        # 1/T1 overflows to inf: the parameters name T1, no trace is run
        cfg = tmp_path / "t1.ini"
        cfg.write_text("[decoherence]\nt1_us = 5e-324\nt2_us = 5e-324\n[time]\nstop = 10.0\npoints = 3\n")
        out = tmp_path / "o.csv"
        proc = run_cli("t1", "--config", str(cfg), "--out", str(out))
        assert_one_line_failure(proc, 1, "error: t1_us = 5e-324 gives a non-finite rate 1/t1_us")
        assert not out.exists()

    def test_negative_noise_seed_exits_1(self, tmp_path):
        cfg = tmp_path / "psd.ini"
        cfg.write_text(
            "[run]\nseed = -1\n[noise]\ncount = 4\ngamma_min = 1e-2\ngamma_max = 1.0\ncoupling = 1e-3\n"
            "dt = 0.05\nsamples = 1000\ntrajectories = 2\n"
        )
        proc = run_cli("noise-psd", "--config", str(cfg), "--out", str(tmp_path / "o.csv"))
        assert_one_line_failure(proc, 1, "error: seed must be >= 0")


    @pytest.mark.parametrize(
        "command, text, extra, message",
        [
            (
                "spectrum",
                CPB_SPECTRUM.replace("cutoff = 10", "cutoff = 1000000"),
                (),
                "error: charge cutoff 1000000 gives 2000001 states, above the dense-storage cap 4096",
            ),
            (
                "jc",
                "[jc]\nnu01 = 5.0\nnu_c = 5.0\ng = 0.1\nn_ph = 1000000\n[time]\nstop = 1.0\npoints = 3\n",
                (),
                "error: photon cutoff 1000000 gives 2000002 states, above the dense-storage cap 4096",
            ),
            (
                "evolve",
                "[cpb]\nec = 5.0\nej = 1.0\nng = 0.5\n[time]\nstart = 5.0\nstop = 0.0\npoints = 11\n",
                (),
                "error: time grid must be ascending and non-negative",
            ),
            (
                "spectrum",
                CPB_SPECTRUM.replace("seed = 42", "seed = 42\ncommand = spectrum"),
                (),
                "config error: unknown key 'command' in [run]",
            ),
            (
                "spectrum",
                CPB_SPECTRUM,
                ("--circuit", "cpb"),
                "config error: unrecognized arguments: --circuit cpb",
            ),
            ("spectrum", CPB_SPECTRUM, ("--bogus", "1"), "config error: unrecognized arguments: --bogus 1"),
            *(
                (
                    "rabi",
                    f"[qubit]\nnu01 = {nu01}\n[pulse]\namplitude = 0.2\nfrequency = 10.0\n"
                    "[time]\nstop = 1.0\npoints = 3\n",
                    (),
                    "error: nu01 must be > 0",
                )
                for nu01 in ("-1", "0")
            ),
            *(
                (
                    "fluxoid",
                    f"[rf-squid]\nej = 10.0\nec = 0.1\ninductive_scale = 2.0\nphi_ext = {phi_ext}\n",
                    (),
                    f"error: phi_ext = {phi_ext} is too large",
                )
                for phi_ext in ("1e+12", "1e+17")
            ),
            # every sweep point is built and checked before any solve, so a
            # bad point wins over a [precision] check that would fail
            (
                "spectrum",
                CPB_SPECTRUM.replace("cutoff = 10", "cutoff = 2")
                .replace("start = 0.0", "start = 1.2")
                .replace("stop = 1.0", "stop = 1.6")
                + "[precision]\nverify_grid_tol = 1e-12\n",
                (),
                "error: ng grid must lie within [0, 1]",
            ),
            (
                "spectrum",
                "[flux3]\nej = 40.0\nec = 1.0\nf = 0.5\ncutoff = 4\n"
                "[sweep]\nparameter = alpha\nstart = 0.6\nstop = 1.2\npoints = 3\nlevels = 2\n"
                "[precision]\nverify_grid_tol = 1e-12\n",
                (),
                "error: alpha must lie in (0.5, 1) for a double-well regime",
            ),
            (
                "jc",
                "[jc]\nnu01 = 10.0\nnu_c = 10.0\ng = 0.1\nn_ph = 4\nmargin = 0.5\n"
                "[time]\nstop = 3.0\npoints = 31\n",
                (),
                "error: margin must be >= 1",
            ),
            # a margin that is set is read, so at g = 0 it is refused, not ignored
            (
                "jc",
                "[jc]\nnu01 = 10.0\nnu_c = 10.0\ng = 0.0\nn_ph = 4\nmargin = 10.0\n"
                "[time]\nstop = 3.0\npoints = 31\n",
                (),
                "error: strong-coupling check needs g > 0",
            ),
            (
                "noise-psd",
                "[noise]\ncount = 4\ngamma_min = 1e-2\ngamma_max = 1.0\ncoupling = 1e-3\n"
                "dt = 5e-324\nsamples = 1000\ntrajectories = 2\n",
                (),
                "error: dt = 5e-324 gives a non-finite sampling rate 1/dt",
            ),
            # an INI that cannot be read is one line, with none of the
            # section checks it would otherwise fail
            ("spectrum", "ec = 5.0\n" + CPB_SPECTRUM, (), "config error: malformed config: File contains no section headers."),
            (
                "spectrum",
                CPB_SPECTRUM.replace("ec = 5.0", "ec = abc"),
                (),
                "config error: key 'ec' in [cpb]: cannot parse 'abc' as float",
            ),
            ("spectrum", CPB_SPECTRUM.replace("points = 11", "points = 0"), (), "config error: sweep points must be >= 1"),
            (
                "evolve",
                "[cpb]\nec = 5.0\nej = 1.0\nng = 0.5\n[time]\nstop = 5.0\npoints = 0\n",
                (),
                "config error: time points must be >= 1",
            ),
            ("spectrum", CPB_SPECTRUM.replace("ej = 1.0", "ej0 = -1.0\nflux_ratio = 0.5"), (), "error: Ej0 must be >= 0"),
            ("spectrum", CPB_SPECTRUM.replace("ej = 1.0", "ej = -1.0"), (), "error: Ej must be >= 0"),
            (
                "jc",
                "[jc]\nnu01 = 10.0\nnu_c = 10.0\ng = 0.1\nkappa_per_us = -1.0\n[time]\nstop = 3.0\npoints = 31\n",
                (),
                "error: kappa must be >= 0",
            ),
            (
                "cnot",
                "[coupled]\nej1 = 10.0\nej2 = 7.0\nchi = 1.0\n"
                "[pulse]\namplitude = 0.2\nfrequency = 12.0\nduration = -1.0\n",
                (),
                "error: duration must be >= 0",
            ),
            (
                "noise-psd",
                "[noise]\ncount = 4\ngamma_min = 0.0\ngamma_max = 1.0\ncoupling = 1e-3\n"
                "dt = 0.05\nsamples = 1000\ntrajectories = 2\n",
                (),
                "error: switching rates must be > 0",
            ),
            # each trace plan is refused above its cap before any step
            (
                "t1",
                "[decoherence]\nt1_us = 2.0\nt2_us = 2.0\n[time]\nstop = 1e300\npoints = 61\n",
                (),
                "error: Lindblad trace to t = 1e+300 ns needs 984 squarings, above the cap of 26",
            ),
            (  # at zero detuning: any other is past the Nyquist limit of 1e298 ns delays
                "ramsey",
                LINDBLAD_CONFIGS["ramsey"].replace("stop = 2500.0", "stop = 1e300").replace("detuning = 0.002\n", ""),
                (),
                "error: Lindblad trace to t = 1e+300 ns needs 983 squarings, above the cap of 26",
            ),
            (
                "jc",
                LINDBLAD_CONFIGS["jc"].replace("g = 0.1", "g = 1e100"),
                (),
                "error: Lindblad trace to t = 3 ns needs 336 squarings, above the cap of 26",
            ),
            (
                "rabi",
                "[qubit]\nnu01 = 10.0\n[pulse]\namplitude = 0.2\nfrequency = 1e300\n"
                "[time]\nstop = 1.0\npoints = 3\n",
                (),
                "error: drive trace to t = 1 ns needs 1e+300 drive periods, above the cap of 4.61169e+18",
            ),
            (
                "rabi",
                "[qubit]\nnu01 = 10.0\n[pulse]\namplitude = 0.2\nfrequency = 10.0\n"
                "[time]\nstop = 1e300\npoints = 3\n",
                (),
                "error: drive trace to t = 1e+300 ns needs 1e+301 drive periods, above the cap of 4.61169e+18",
            ),
            (
                "cnot",
                "[coupled]\nej1 = 10.0\nej2 = 7.0\nchi = 1.0\n"
                "[pulse]\namplitude = 0.2\nfrequency = 12.0\nduration = 1e300\n",
                (),
                "error: drive trace to t = 1e+300 ns needs 1.2e+301 drive periods, above the cap of 4.61169e+18",
            ),
            (
                "cnot",
                "[coupled]\nej1 = 1e100\nej2 = 7.0\nchi = 1.0\n[pulse]\namplitude = 0.2\nfrequency = 12.0\n",
                (),
                "error: drive trace to t = 2.5 ns needs 2.083e+101 RK4 steps per drive period, "
                "above the cap of 100000",
            ),
            # the Hermiticity tolerance stays finite, so the plan names the input
            (
                "cnot",
                "[coupled]\nej1 = 1e300\nej2 = 7.0\nchi = 1.0\n[pulse]\namplitude = 0.2\nfrequency = 12.0\n",
                (),
                "error: drive trace to t = 2.5 ns needs 2.083e+301 RK4 steps per drive period, "
                "above the cap of 100000",
            ),
            (
                "jc",
                LINDBLAD_CONFIGS["jc"].replace("g = 0.1", "g = 1e300"),
                (),
                "error: Lindblad trace to t = 3 ns needs 1000 squarings, above the cap of 26",
            ),
            # the RK4 step density follows the channels' decay as well
            *(
                (
                    "rabi",
                    "[qubit]\nnu01 = 10.0\n[pulse]\namplitude = 0.2\nfrequency = 10.0\n"
                    f"[decoherence]\nt1_us = 1.0\nt2_us = {t2}\n[time]\nstop = 1.0\npoints = 5\n",
                    (),
                    f"error: drive trace to t = 1 ns needs {steps} RK4 steps per drive period, "
                    "above the cap of 100000",
                )
                for t2, steps in (("1e-8", "1.989e+05"), ("1e-300", "1.989e+297"))
            ),
        ],
        ids=[
            "cpb-cutoff", "jc-n-ph", "evolve-descending", "run-command", "circuit-flag", "unknown-flag",
            "rabi-nu01-negative", "rabi-nu01-zero", "fluxoid-phi-ext-1e12", "fluxoid-phi-ext-1e17",
            "cpb-ng-sweep-outside-unit-interval-unconverged", "flux3-alpha-sweep-unconverged",
            "jc-margin-below-1", "jc-margin-at-g-0", "noise-psd-dt-subnormal",
            "malformed-ini", "unparsable-float", "sweep-points-0", "time-points-0", "cpb-ej0-negative",
            "cpb-ej-negative", "jc-kappa-negative", "cnot-duration-negative", "noise-gamma-min-0",
            "t1-stop-1e300", "ramsey-stop-1e300", "jc-g-1e100", "rabi-frequency-1e300",
            "rabi-stop-1e300", "cnot-duration-1e300", "cnot-ej1-1e100", "cnot-ej1-1e300",
            "jc-g-1e300", "rabi-t2-1e-8", "rabi-t2-1e-300",
        ],
    )
    def test_refused_inputs_exit_1(self, tmp_path, command, text, extra, message):
        # each input has one source and one check: one line, no CSV
        cfg = tmp_path / "in.ini"
        cfg.write_text(text)
        out = tmp_path / "o.csv"
        proc = run_cli(command, "--config", str(cfg), "--out", str(out), *extra)
        assert_one_line_failure(proc, 1, message)
        assert not out.exists()

    def test_fast_dephasing_rabi_runs(self, tmp_path):
        # the dephasing channel's rate, 5e3 per ns, sets 2e5 RK4 steps per
        # ns: inside RK4's stability region, where the drive's 2550 are not
        cfg = tmp_path / "in.ini"
        cfg.write_text(
            "[qubit]\nnu01 = 10.0\n[pulse]\namplitude = 0.2\nfrequency = 10.0\n"
            "[decoherence]\nt1_us = 1.0\nt2_us = 1e-7\n[time]\nstop = 1.0\npoints = 5\n"
        )
        out = tmp_path / "o.csv"
        proc = run_cli("rabi", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        pop = np.array([float(row[1]) for row in read_csv(out)[2]])
        assert pop.size == 5 and pop[0] == 0.0 and 0.0 < pop[1:].min() and pop.max() < 1e-3

    def test_overflow_in_the_run_exits_2(self, tmp_path, monkeypatch):
        # numpy's overflow raises in the run: one line, no warning ahead of it
        def overflowing(cfg):
            return np.float64(1e300) ** 2

        monkeypatch.setitem(cli._COMMANDS, "t1", (overflowing, *cli._COMMANDS["t1"][1:]))
        code, stderr, csv = run_in_process("t1", LINDBLAD_CONFIGS["t1"])
        assert code == 2 and csv is None
        assert re.fullmatch(r"numerical failure: overflow encountered in \w+ power\n", stderr), stderr

    @pytest.mark.parametrize(
        "command, text",
        [
            ("jc", "[jc]\nnu01 = 10.0\nnu_c = 10.0\ng = 1e300\nn_ph = 4\n[time]\nstop = 3.0\npoints = 31\n"),
            ("jc", "[jc]\nnu01 = 10.0\nnu_c = 10.0\ng = 1e100\nn_ph = 4\n[time]\nstop = 3.0\npoints = 31\n"),
            ("evolve", "[cpb]\nec = 5.0\nej = 1.0\nng = 0.5\n[time]\nstop = 1e12\npoints = 3\n"),
        ],
        ids=["jc-g-1e300", "jc-g-1e100", "evolve-stop-1e12"],
    )
    def test_unresolved_phase_exits_2(self, tmp_path, command, text):
        # a closed trace whose phase 2 pi |E| t passes 2**33 rad is rounded
        # past 1e-6 rad: refused in one line, where it once wrote noise
        cfg = tmp_path / "in.ini"
        cfg.write_text(text)
        out = tmp_path / "o.csv"
        proc = run_cli(command, "--config", str(cfg), "--out", str(out))
        assert_one_line_failure(proc, 2, "numerical failure: phase 2 pi |E| t = ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text, allocator",
        [
            (
                "noise-psd",
                "[noise]\ncount = 4\ngamma_min = 1e-2\ngamma_max = 1.0\ncoupling = 1e-3\n"
                "dt = 0.05\nsamples = 1000000000000\ntrajectories = 2\n",
                "arange",
            ),
            (
                "evolve",
                "[cpb]\nec = 5.0\nej = 1.0\nng = 0.5\n[time]\nstop = 5.0\npoints = 100000000000\n",
                "linspace",
            ),
        ],
        ids=["noise-samples", "evolve-points"],
    )
    def test_out_of_memory_exits_1(self, tmp_path, monkeypatch, capsys, command, text, allocator):
        # whether a real huge allocation fails depends on the host's overcommit
        # policy, so a request above 1e9 elements fails here as numpy's would
        real = getattr(np, allocator)

        def allocate(*args, **kwargs):
            if any(isinstance(a, int) and a > 10**9 for a in args):
                raise MemoryError("Unable to allocate 7.28 TiB for an array")
            return real(*args, **kwargs)

        monkeypatch.setattr(np, allocator, allocate)
        cfg = tmp_path / "in.ini"
        cfg.write_text(text)
        out = tmp_path / "o.csv"
        code = cli.main([command, "--config", str(cfg), "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert lines == ["error: Unable to allocate 7.28 TiB for an array"]
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_threads_exits_1(self, tmp_path, where):
        # the flag is accepted and ignored; [run] has no threads key
        cfg = tmp_path / "cpb.ini"
        extra = ()
        if where == "flag":
            cfg.write_text(CPB_SPECTRUM)
            extra = ("--threads", "-1")
            message = "config error: threads must be >= 0, got -1"
        else:
            cfg.write_text(CPB_SPECTRUM.replace("seed = 42", "seed = 42\nthreads = -1"))
            message = "config error: unknown key 'threads' in [run]"
        out = tmp_path / "o.csv"
        proc = run_cli("spectrum", "--config", str(cfg), "--out", str(out), *extra)
        assert_one_line_failure(proc, 1, message)
        assert not out.exists()

    @pytest.mark.parametrize("levels", [-1, 0])
    def test_non_positive_levels_exit_1(self, tmp_path, levels):
        cfg = tmp_path / "cpb.ini"
        cfg.write_text(CPB_SPECTRUM.replace("levels = 5", f"levels = {levels}"))
        out = tmp_path / "o.csv"
        proc = run_cli("spectrum", "--config", str(cfg), "--out", str(out))
        # the solvers' one level-count rule, before any solve
        assert_one_line_failure(proc, 1, f"error: need at least one level, got k = {levels}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "[cpb]\nec = 5.0\nej = 1.0\ncutoff = 2\n"
                "[sweep]\nparameter = ej\nstart = 1.0\nstop = 2.0\npoints = 3\nlevels = 9\n",
                "error: cutoff 2 gives 5 levels, fewer than the 9 requested",
            ),
            (
                "[flux3]\nej = 40.0\nec = 1.0\ncutoff = 2\n"
                "[sweep]\nparameter = f\nstart = 0.49\nstop = 0.51\npoints = 3\nlevels = 30\n",
                "error: cutoff 2 gives 25 levels, fewer than the 30 requested",
            ),
            (
                "[flux3]\nej = 40.0\nec = 1.0\ncutoff = 2\n"
                "[sweep]\nparameter = f\nstart = 0.49\nstop = 0.51\npoints = 3\nlevels = 30\n"
                "[precision]\nverify_grid_tol = 1e-3\n",
                "error: cutoff 2 gives 25 levels, fewer than the 30 requested",
            ),
            (
                "[cpb]\nec = 5.0\nej = 1.0\ncutoff = 2\n"
                "[sweep]\nparameter = ng\nstart = 0.0\nstop = 1.0\npoints = 3\nlevels = 9\n",
                "error: cutoff 2 gives 5 levels, fewer than the 9 requested",
            ),
        ],
        ids=["cpb-ej", "flux3", "flux3-precision", "cpb-ng"],
    )
    def test_more_levels_than_the_cutoff_gives_exit_1(self, tmp_path, text, message):
        cfg = tmp_path / "short.ini"
        cfg.write_text(text)
        out = tmp_path / "o.csv"
        proc = run_cli("spectrum", "--config", str(cfg), "--out", str(out))
        assert_one_line_failure(proc, 1, message)
        assert not out.exists()


class TestColdStart:
    def test_import_loads_no_scipy_and_no_process_pool(self):
        # scipy and the process pool load where they are called, so a
        # command that needs neither starts on numpy alone
        probe = (
            "import sys, scqsim, scqsim.cli\n"
            "print(' '.join(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')"
            " or m == 'concurrent.futures.process')))"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    @staticmethod
    def loaded_after(call):
        # the exit code and the scqsim modules loaded, printed on the last line
        probe = (
            "import sys\n"
            "from scqsim.cli import main\n"
            f"code = {call}\n"
            "print(code, *sorted(m for m in sys.modules if m.startswith('scqsim.')))"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, *modules = proc.stdout.splitlines()[-1].split()
        return code, modules

    def test_import_scqsim_loads_no_submodule(self):
        probe = "import sys, scqsim\nprint(*sorted(m for m in sys.modules if m.startswith('scqsim')))"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["scqsim"]

    def test_help_loads_only_cli_and_core(self):
        assert self.loaded_after("main(['--help'])") == ("0", ["scqsim.cli", "scqsim.core"])

    @pytest.mark.parametrize(
        "command, text, modules",
        [
            ("spectrum", CPB_SPECTRUM, ["charge"]),
            ("evolve", config_of(["cpb", "time"]), ["charge"]),
            (
                "spectrum",
                "[flux3]\nej = 40.0\nec = 1.0\ncutoff = 3\n"
                "[sweep]\nparameter = f\nstart = 0.49\nstop = 0.51\npoints = 2\nlevels = 2\n",
                ["charge", "flux"],
            ),
            ("fluxoid", config_of(["rf-squid"]), ["charge", "flux"]),
            ("cnot", config_of(["coupled", "pulse"]), ["coupled"]),
            ("ramsey", LINDBLAD_CONFIGS["ramsey"], ["coupled", "experiments"]),
            ("t1", LINDBLAD_CONFIGS["t1"], ["coupled", "experiments"]),
            ("rabi", config_of(["qubit", "pulse", "time"]), ["coupled", "experiments"]),
            ("jc", LINDBLAD_CONFIGS["jc"], ["cavity", "coupled", "experiments"]),
            ("noise-psd", config_of(["noise"]), ["noise"]),
        ],
        ids=["spectrum-cpb", "evolve", "spectrum-flux3", "fluxoid", "cnot", "ramsey", "t1", "rabi",
             "jc", "noise-psd"],
    )
    def test_command_loads_the_modules_it_runs(self, tmp_path, command, text, modules):
        # a command imports the modules it runs; core always
        cfg = tmp_path / "in.ini"
        cfg.write_text(text)
        call = f"main([{command!r}, '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o.csv')!r}])"
        expected = sorted(["scqsim.cli", "scqsim.core", *(f"scqsim.{m}" for m in modules)])
        assert self.loaded_after(call) == ("0", expected)

    def test_noise_psd_loads_no_numpy_ma(self, tmp_path):
        # the couplings are grouped by Python's sort, not np.unique, which
        # imports numpy.ma (about 9 ms of a cold start)
        cfg = tmp_path / "in.ini"
        cfg.write_text(config_of(["noise"]))
        call = f"main(['noise-psd', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o.csv')!r}])"
        probe = f"import sys\nfrom scqsim.cli import main\ncode = {call}\nprint(code, 'numpy.ma' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].split() == ["0", "False"]

    def test_fits_and_minima_load_no_scipy_optimize(self, tmp_path):
        # the Ramsey and T1 fits, the fluxoid minima and the two-level gap
        # fit run on numpy's least squares, so scipy.optimize never loads
        configs = {
            "ramsey": "[qubit]\nnu01 = 10.0\ndetuning = 0.002\n"
            "[decoherence]\nt1_us = 10.0\nt2_us = 1.0\n[time]\nstop = 2500.0\npoints = 101\n",
            "t1": "[decoherence]\nt1_us = 2.0\nt2_us = 2.0\n[time]\nstop = 6000.0\npoints = 61\n",
            "fluxoid": "[rf-squid]\nej = 5.0\nec = 0.15\ninductive_scale = 0.5\n"
            "phi_ext = 3.14159\n",
        }
        calls = []
        for command, text in configs.items():
            cfg = tmp_path / f"{command}.ini"
            cfg.write_text(text)
            out = tmp_path / f"{command}.csv"
            calls.append(f"main([{command!r}, '--config', {str(cfg)!r}, '--out', {str(out)!r}])")
        probe = (
            "import sys\n"
            "from scqsim.cli import main\n"
            "from scqsim.flux import fit_two_level_gap\n"
            f"codes = [{', '.join(calls)}]\n"
            "fit_two_level_gap([0.49, 0.5, 0.51], [0.51, 0.1, 0.51])\n"
            "print(*codes, any(m.split('.')[:2] == ['scipy', 'optimize'] for m in sys.modules))"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0", "0", "False"]

    def test_lindblad_commands_load_no_scipy(self, tmp_path):
        # ramsey, t1 and open jc evolve through evolve_lindblad's Taylor
        # run, which needs no scipy.linalg.expm
        calls = []
        for command, text in LINDBLAD_CONFIGS.items():
            cfg = tmp_path / f"{command}.ini"
            cfg.write_text(text)
            out = tmp_path / f"{command}.csv"
            calls.append(f"main([{command!r}, '--config', {str(cfg)!r}, '--out', {str(out)!r}])")
        probe = (
            "import sys\n"
            "from scqsim.cli import main\n"
            f"codes = [{', '.join(calls)}]\n"
            "print(*codes, *sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0", "0"]

    def test_flux3_solves_load_no_scipy_linalg(self, tmp_path):
        # the three-junction path runs on numpy alone, in the CLI too
        cfg = tmp_path / "flux.ini"
        cfg.write_text(
            "[flux3]\nej = 40.0\nec = 1.0\ncutoff = 6\n"
            "[sweep]\nparameter = f\nstart = 0.49\nstop = 0.51\npoints = 3\nlevels = 2\n"
            "[precision]\nverify_grid_tol = 1e-3\n"
        )
        probe = (
            "import sys\n"
            "from scqsim.cli import main\n"
            "from scqsim.flux import ThreeJunctionParams, persistent_current, solve_three_junction\n"
            "p = ThreeJunctionParams(ej=40.0, ec=1.0, f=0.52, cutoff=6)\n"
            "persistent_current(solve_three_junction(p, k=2, want_states=True).states[:, 0], p)\n"
            f"code = main(['spectrum', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o.csv')!r},"
            " '--threads', '2'])\n"
            "print(code, 'scipy.linalg' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]

    def test_1d_solvers_load_no_scipy(self):
        # the phase-qubit well and the rf-SQUID levels share a numpy sine DVR
        probe = (
            "import sys, scqsim\n"
            "from scqsim.flux import RfSquidParams, rf_squid_potential, solve_levels_1d\n"
            "from scqsim.phase import PhaseQubitParams, bound_state_count, well_levels\n"
            "p = PhaseQubitParams(ej=10.0, ec=1e-3, s=0.8)\n"
            "well_levels(p, k=3)\n"
            "bound_state_count(p)\n"
            "q = RfSquidParams(ej=2.0, ec=0.4, inductive_scale=0.35, phi_ext=3.14159)\n"
            "solve_levels_1d(lambda x: rf_squid_potential(x, q), q.ec, -3.0, 9.0, k=2)\n"
            "print(' '.join(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    def test_sweeps_start_no_process_pool(self, tmp_path):
        # sweep points run in one process at any --threads value
        configs = {
            "cpb": CPB_SPECTRUM,
            "flux3": "[flux3]\nej = 40.0\nec = 1.0\ncutoff = 4\n"
            "[sweep]\nparameter = f\nstart = 0.49\nstop = 0.51\npoints = 3\nlevels = 2\n",
        }
        calls = []
        for name, text in configs.items():
            cfg = tmp_path / f"{name}.ini"
            cfg.write_text(text)
            out = tmp_path / f"{name}.csv"
            calls.append(
                f"main(['spectrum', '--config', {str(cfg)!r}, '--out', {str(out)!r}, '--threads', '2'])"
            )
        probe = (
            "import sys\n"
            "from scqsim.cli import main\n"
            f"codes = [{', '.join(calls)}]\n"
            "print(*codes, *sorted(m for m in sys.modules"
            " if m in ('concurrent.futures.process', 'multiprocessing')))"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]


# the values a fuzzed key takes, as INI text
FUZZ_VALUES = ("0", "-1", "0.5", "5e-324", "1e300", "2047", "65536")
# keys that only size the work a run asks for draw 2 and 16 in place of 2047
# and 65536, so that one run stays under about 2 s: a cutoff-2047 box (10 s)
# or 65536 noise trajectories (14 s) is requested work, not a fault
WORK_KEYS = {"points", "samples", "trajectories", "count", "cutoff", "levels"}
WORK_VALUES = ("0", "-1", "0.5", "5e-324", "1e300", "2", "16")


def fuzz_case(command, sections, changes=()):
    """(command, config text): the ``SECTION_TEXT`` bodies of ``sections``
    with each ``(section, key), value`` of ``changes`` set.  A ramsey case
    starts from 5 delays, so that a draw that leaves ``[time] points``
    alone passes the fit's 4-delay rule and reaches the trace and the fit."""
    bodies = {name: dict(line.split(" = ") for line in SECTION_TEXT[name].splitlines()) for name in sections}
    if command == "ramsey":
        bodies["time"]["points"] = "5"
    for (name, key), value in dict(changes).items():
        bodies[name][key] = value
    text = "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items())
        for name, body in bodies.items()
    )
    return command, text


@st.composite
def fuzzed_configs(draw):
    """A command, the sections it needs (one of each choice) and some it may
    read, and one or two keys of those sections set to a fuzz value."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    _, needs, optional = cli._COMMANDS[command]
    sections = [draw(st.sampled_from(choices)) for choices in needs]
    sections += [name for name in ("run", *optional) if draw(st.booleans())]
    keys = [(name, key) for name in sections for key in cli._schema(name)]
    changes = {}
    for name, key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2, unique=True)):
        pool = FUZZ_VALUES
        if key in WORK_KEYS:
            pool = WORK_VALUES
        changes[name, key] = draw(st.sampled_from(pool))
    return fuzz_case(command, sections, changes)


def run_in_process(command, text, *args):
    """(exit code, stderr, CSV text or None) of ``cli.main`` on one config and
    extra arguments; a numpy warning counts as the stderr lines the
    interpreter would print for it."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg, out = os.path.join(d, "in.ini"), os.path.join(d, "o.csv")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", cfg, "--out", out, *args])
        csv = None
        if os.path.exists(out):
            with open(out, encoding="utf-8", newline="") as fh:
                csv = fh.read()
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    return code, err.getvalue() + shown, csv


class TestConfigFuzz:
    """Every config exits 0, 1 or 2 with no traceback; a failure writes no CSV,
    and a numerical failure writes one line."""

    RABI = ["qubit", "pulse", "time"]
    OPEN_RABI = [*RABI, "decoherence"]
    RAMSEY = ["qubit", "decoherence", "time"]

    @settings(max_examples=300, deadline=None)
    @given(case=fuzzed_configs())
    # the configs that once crashed, hung or printed more than one line
    @example(case=fuzz_case("rabi", RABI, {("pulse", "frequency"): "1e300"}))
    @example(case=fuzz_case("rabi", RABI, {("time", "stop"): "1e300"}))
    @example(case=fuzz_case("rabi", RABI, {("time", "stop"): "1e18"}))
    @example(case=fuzz_case("cnot", ["coupled", "pulse"], {("pulse", "duration"): "1e300"}))
    @example(case=fuzz_case("ramsey", RAMSEY, {("time", "stop"): "1e300"}))
    @example(case=fuzz_case("t1", ["decoherence", "time"], {("time", "stop"): "1e300"}))
    @example(case=fuzz_case("jc", ["jc", "time"], {("jc", "g"): "1e300"}))
    @example(case=fuzz_case("jc", ["jc", "time", "decoherence"], {("jc", "g"): "1e300"}))
    @example(case=fuzz_case("jc", ["jc", "time"], {("jc", "g"): "1e100"}))
    @example(case=fuzz_case("noise-psd", ["noise"], {("noise", "dt"): "5e-324"}))
    @example(case=fuzz_case("t1", ["decoherence", "time"], {("decoherence", "t1_us"): "1e300"}))
    @example(
        case=fuzz_case(
            "t1", ["decoherence", "time"], {("decoherence", "t1_us"): "1e300", ("decoherence", "t2_us"): "1e300"}
        )
    )
    @example(case=fuzz_case("rabi", OPEN_RABI, {("decoherence", "t2_us"): "1e-300"}))
    @example(case=fuzz_case("cnot", ["coupled", "pulse"], {("coupled", "ej1"): "1e300"}))
    @example(case=fuzz_case("cnot", ["coupled", "pulse"], {("coupled", "ej1"): "1e100"}))
    # at 5 delays over 1 ns: no damped oscillation left to fit, one line at exit 2
    @example(case=fuzz_case("ramsey", RAMSEY, {("decoherence", "t2_us"): "1e-9"}))
    @example(case=fuzz_case("ramsey", RAMSEY))  # the default ramsey case fits and exits 0
    @example(case=fuzz_case("jc", ["jc", "time"], {("jc", "nu_c"): "65536", ("jc", "nu01"): "5"}))
    @example(
        case=fuzz_case(
            "jc",
            ["jc", "time", "decoherence"],
            {("jc", "nu_c"): "65536", ("jc", "nu01"): "5", ("time", "stop"): "3.0"},
        )
    )
    @example(case=fuzz_case("jc", ["jc", "time"], {("jc", "n_ph"): "2047"}))
    # Lindblad plans that once took 26-81 s each
    @example(case=fuzz_case("jc", ["jc", "time", "decoherence"], {("jc", "g"): "65536"}))
    @example(case=fuzz_case("jc", ["jc", "time", "decoherence"], {("jc", "nu01"): "65536"}))
    @example(case=fuzz_case("jc", ["jc", "time", "decoherence"], {("jc", "nu_c"): "65536"}))
    @example(case=fuzz_case("ramsey", RAMSEY, {("qubit", "detuning"): "65536"}))
    @example(case=fuzz_case("jc", ["jc", "time"], {("jc", "g"): "0", ("jc", "margin"): "10"}))
    # the RK4 steps follow the channels: 1e-7 runs, 1e-8 meets the work cap
    @example(case=fuzz_case("rabi", OPEN_RABI, {("decoherence", "t1_us"): "1", ("decoherence", "t2_us"): "1e-7"}))
    @example(case=fuzz_case("rabi", OPEN_RABI, {("decoherence", "t1_us"): "1", ("decoherence", "t2_us"): "1e-8"}))
    def test_exit_contract(self, case):
        code, stderr, csv = run_in_process(*case)
        assert code in (0, 1, 2), stderr
        assert "Traceback" not in stderr
        assert (csv is not None) == (code == 0), stderr
        if code == 2:
            assert len(stderr.splitlines()) == 1, stderr

    @pytest.mark.parametrize(
        "sections, key",
        [
            (["jc", "time", "decoherence"], ("jc", "g")),
            (["jc", "time", "decoherence"], ("jc", "nu01")),
            (["jc", "time", "decoherence"], ("jc", "nu_c")),
            (RAMSEY, ("qubit", "detuning")),
        ],
    )
    def test_fast_lindblad_rates_run_at_once(self, sections, key):
        # a rate of 65536 GHz over 1 ns costs a few squarings more, not
        # minutes.  Ramsey's detuning of 65536 GHz lies far past the Nyquist
        # limit of its 0.25 ns delays and is refused before any trace
        # (test_core's test_fast_ramsey_hamiltonian_runs_at_once evolves it)
        command = "ramsey" if key[0] == "qubit" else "jc"
        start = time.perf_counter()
        code, stderr, csv = run_in_process(*fuzz_case(command, sections, {key: "65536"}))
        assert time.perf_counter() - start < 1.0
        if command == "ramsey":
            assert code == 1 and csv is None, stderr
            assert re.fullmatch(r"error: detuning 65536 GHz is at or past the Nyquist limit .*\n", stderr)
        else:
            assert code == 0 and csv is not None, stderr
