"""CLI tests: config validation, dispatch, CSV format, determinism."""

import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from scqsim.charge import CpbParams, cpb_hamiltonian
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


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "scqsim", *args], capture_output=True, text=True
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
        with pytest.raises(ConfigError, match="exactly one circuit block"):
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

    def test_command_mismatch(self):
        text = CPB_SPECTRUM.replace("[run]", "[run]\ncommand = cnot")
        with pytest.raises(ConfigError, match="conflicts"):
            parse_config(text, command="spectrum")

    def test_unused_section_rejected(self):
        text = CPB_SPECTRUM + "\n[pulse]\namplitude = 1\nfrequency = 2\n"
        with pytest.raises(ConfigError, match="not used by 'spectrum'"):
            parse_config(text, command="spectrum")


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

    def test_circuit_flag_consistency(self, tmp_path):
        cfg = tmp_path / "cpb.ini"
        cfg.write_text(CPB_SPECTRUM)
        ok = run_cli("spectrum", "--config", str(cfg), "--circuit", "cpb", "--out", str(tmp_path / "x.csv"))
        assert ok.returncode == 0
        bad = run_cli("spectrum", "--config", str(cfg), "--circuit", "flux3", "--out", str(tmp_path / "y.csv"))
        assert bad.returncode == 1

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
grid_points = 32

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
        assert "grid doubling" in proc.stderr

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
            "[flux3]\nej = 40.0\nec = 1.0\nf = 0.5\ngrid_points = 32\n"
            "[sweep]\nparameter = alpha\nstart = 0.7\nstop = 0.8\npoints = 2\nlevels = 2\n"
        )
        out = tmp_path / "flux.csv"
        proc = run_cli("spectrum", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        _, _, rows = read_csv(out)
        for row in rows:
            p = ThreeJunctionParams(ej=40.0, ec=1.0, alpha=float(row[0]), f=0.5, grid_points=32)
            np.testing.assert_allclose(
                [float(x) for x in row[1:]], solve_three_junction(p, k=2).energies, atol=1e-12
            )

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
        ],
        ids=["cpb-ec-nan", "qubit-nu01-inf", "jc-nu01-inf"],
    )
    def test_non_finite_values_exit_1(self, tmp_path, command, text):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        proc = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o.csv"))
        assert_one_line_failure(proc, 1, "config error:")
        assert "not a finite number" in proc.stderr
