"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Each test pins the tolerance stated in the criterion and the
stated runtime budget (wall-clock, measured on the criterion body).
"""

import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from scqsim.charge import CpbParams, cpb_hamiltonian, spectrum_vs_ng, tunable_ej
from scqsim.core import (
    SIGMA_Z,
    DensityMatrix,
    HermitianOperator,
    basis_state,
    evolve_lindblad,
    evolve_unitary,
)
from scqsim.cavity import JaynesCummingsParams, strong_coupling_check, vacuum_rabi
from scqsim.coupled import (
    CoupledParams,
    DrivePulse,
    coupled_energies,
    coupled_eigenstates,
    coupled_hamiltonian,
    pi_pulse_duration,
    simulate_cnot,
)
from scqsim.experiments import DecoherenceParams, quality_factor, rabi, ramsey, t1_decay
from scqsim.flux import (
    ThreeJunctionParams,
    fit_two_level_gap,
    flux_spectrum_vs_f,
    persistent_current,
    solve_three_junction,
)
from scqsim.noise import (
    FluctuatorEnsemble,
    fit_loglog_slope,
    fluctuator_states,
    psd_welch,
    rtn_trajectory,
)
from scqsim.phase import PhaseQubitParams, bound_state_count, plasma_spacing, well_levels


class Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"ACCEPTANCE {self.label}: PASS ({self.elapsed:.1f}s / budget {self.seconds}s)")
            assert self.elapsed < self.seconds, (
                f"{self.label} exceeded its runtime budget: {self.elapsed:.1f}s"
            )
        else:
            print(f"ACCEPTANCE {self.label}: FAIL ({self.elapsed:.1f}s)")
        return False


def test_criterion_1_charge_spectrum_structure():
    with Budget("1 (charge-qubit spectrum structure)", 5.0):
        # gap at the degeneracy point equals Ej within 2%
        charge = CpbParams(ec=5.0, ej=1.0, ng=0.5, cutoff=10)
        w = np.linalg.eigvalsh(cpb_hamiltonian(charge).entries)
        gap = w[1] - w[0]
        assert abs(gap - 1.0) / 1.0 <= 0.02

        # 1-periodic in ng and symmetric about ng = 0.5, to 1e-9
        for ng in (0.13, 0.31, 0.42):
            a = np.linalg.eigvalsh(cpb_hamiltonian(replace(charge, ng=ng)).entries)[:5]
            b = np.linalg.eigvalsh(cpb_hamiltonian(replace(charge, ng=ng + 1.0)).entries)[:5]
            c = np.linalg.eigvalsh(cpb_hamiltonian(replace(charge, ng=1.0 - ng)).entries)[:5]
            assert np.abs(a - b).max() <= 1e-9
            assert np.abs(a - c).max() <= 1e-9

        # separation ratio (E2-E1)/(E1-E0) at ng = 0.5
        def ratio(ec, ej):
            row = spectrum_vs_ng(CpbParams(ec=ec, ej=ej, cutoff=20), [0.5], k=3).levels[0]
            return (row[2] - row[1]) / (row[1] - row[0])

        r5, r1 = ratio(5.0, 1.0), ratio(1.0, 1.0)
        assert r5 > 5.0
        assert r1 < r5


def test_criterion_2_tunable_coupling_endpoints():
    with Budget("2 (tunable Josephson coupling endpoints)", 5.0):
        ej0 = 7.0
        eps = 8.0 * np.finfo(float).eps * ej0
        assert tunable_ej(ej0, 0.0) == 2.0 * ej0
        assert abs(tunable_ej(ej0, 0.5)) <= eps
        assert abs(tunable_ej(ej0, 1.0 / 3.0) - ej0) <= eps


def test_criterion_3_flux_spectrum_structure():
    with Budget("3 (flux-qubit spectrum structure)", 120.0):
        p = ThreeJunctionParams(ej=40.0, ec=1.0, alpha=0.8, cutoff=10)
        f_grid = np.linspace(0.45, 0.55, 201)
        table = flux_spectrum_vs_f(p, f_grid, k=6)

        # symmetric about f = 0.5 to 1e-8
        assert np.abs(table.levels - table.levels[::-1]).max() <= 1e-8

        # minimum two-level gap located at f = 0.5 on the 201-point grid
        gaps = table.gap()
        assert f_grid[int(np.argmin(gaps))] == pytest.approx(0.5, abs=1e-12)

        # ground-state persistent current crosses zero at f = 0.5
        currents = {}
        for f in (0.48, 0.5, 0.52):
            pf = replace(p, f=f)
            sol = solve_three_junction(pf, k=1, want_states=True)
            currents[f] = persistent_current(sol.states[:, 0], pf)
        assert abs(currents[0.5]) <= 1e-8
        assert currents[0.48] * currents[0.52] < 0.0

        # two-level fit over f in [0.49, 0.51] with <= 2% residual
        window = (f_grid >= 0.49 - 1e-12) & (f_grid <= 0.51 + 1e-12)
        delta, slope, resid = fit_two_level_gap(f_grid[window], gaps[window])
        assert resid <= 0.02
        assert delta > 0.0


def test_criterion_4_phase_qubit():
    with Budget("4 (phase qubit washboard)", 30.0):
        ej, ec = 10.0, 1e-3  # documented counting regime Ej/Ec = 1e4

        counts = [
            bound_state_count(PhaseQubitParams(ej=ej, ec=ec, s=float(s)))
            for s in np.arange(0.0, 0.91, 0.1)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

        for s in (0.0, 0.2, 0.4, 0.6, 0.8):
            pq = PhaseQubitParams(ej=ej, ec=ec, s=s)
            wl = well_levels(pq, k=5)
            assert not wl.truncated  # >= 5 bound states in this range
            gap01 = wl.energies[1] - wl.energies[0]
            assert abs(gap01 - plasma_spacing(pq)) / plasma_spacing(pq) <= 0.03
            gap12 = wl.energies[2] - wl.energies[1]
            assert gap12 < gap01  # nu12 < nu01 readout ordering


def test_criterion_5_cnot():
    with Budget("5 (coupled-pair CNOT)", 60.0):
        p = CoupledParams(ej1=10.0, ej2=7.0, chi=1.0)
        np.testing.assert_allclose(
            coupled_energies(p), [18.0, 2.0, -4.0, -16.0], atol=1e-12
        )
        states = coupled_eigenstates()
        h2 = coupled_hamiltonian(replace(p, chi=2.0)).entries
        e2 = coupled_energies(replace(p, chi=2.0))
        for k in range(4):
            assert np.linalg.norm(h2 @ states[:, k] - e2[k] * states[:, k]) <= 1e-10

        pulse = DrivePulse(amplitude=0.2, frequency=12.0, duration=pi_pulse_duration(0.2))
        table = simulate_cnot(p, pulse)
        assert table.fidelity >= 0.99

        degenerate = simulate_cnot(
            CoupledParams(ej1=10.0, ej2=7.0, chi=0.0),
            DrivePulse(amplitude=0.2, frequency=14.0, duration=pi_pulse_duration(0.2)),
        )
        assert degenerate.fidelity <= 0.8


def test_criterion_6_open_system_oracles():
    with Budget("6 (open-system oracles)", 60.0):
        lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        t1 = 700.0
        rhos = evolve_lindblad(
            HermitianOperator(np.zeros((2, 2))),
            [(lower, 1.0 / t1)],
            DensityMatrix(np.diag([0.0, 1.0])),
            [300.0, 900.0, 1500.0],
        )
        for t, rho in zip((300.0, 900.0, 1500.0), rhos):
            assert rho.population(1) == pytest.approx(math.exp(-t / t1), rel=1e-6)

        t_phi = 400.0
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        rhos = evolve_lindblad(
            HermitianOperator(np.zeros((2, 2))),
            [(SIGMA_Z, 1.0 / (2.0 * t_phi))],
            DensityMatrix(np.outer(plus, plus)),
            [200.0, 800.0],
        )
        for t, rho in zip((200.0, 800.0), rhos):
            assert abs(rho.entries[0, 1]) == pytest.approx(
                0.5 * math.exp(-t / t_phi), rel=1e-6
            )

        h = HermitianOperator(np.array([[0.0, -2.5], [-2.5, 0.0]]))
        psi0 = basis_state(2, 0)
        rhos = evolve_lindblad(h, [], psi0.density_matrix(), [1.7, 4.1])
        for t, rho in zip((1.7, 4.1), rhos):
            psi = evolve_unitary(h, psi0, t)
            np.testing.assert_allclose(
                rho.entries, np.outer(psi.amplitudes, psi.amplitudes.conj()), atol=1e-8
            )

        fit_t1 = t1_decay(
            DecoherenceParams(t1_us=2.0, t2_us=2.0), np.linspace(0.0, 6000.0, 61)
        ).fitted.t1_us
        assert fit_t1 == pytest.approx(2.0, rel=0.05)
        fit = ramsey(
            10.0, 0.01, DecoherenceParams(t1_us=10.0, t2_us=1.0), np.linspace(0.0, 2500.0, 401)
        ).fitted
        assert fit.t2_us == pytest.approx(1.0, rel=0.05)


def test_criterion_7_coherence_metrics():
    with Budget("7 (coherence metrics)", 60.0):
        assert quality_factor(1.0, 20.0) == math.pi * 1.0 * 1000.0 * 20.0
        assert quality_factor(1.0, 20.0) == pytest.approx(6.28e4, rel=1e-3)
        assert quality_factor(10.0, 10.0) == pytest.approx(3.14e5, rel=1e-3)

        from scqsim.charge import reduced_two_level

        qubit = reduced_two_level(CpbParams(ec=1.0, ej=10.0, ng=0.5))
        drive = DrivePulse(amplitude=0.1, frequency=10.0, duration=0.0, target="sigma_x")
        grid = np.linspace(0.0, 12.0, 97)
        res = rabi(qubit, drive, None, grid)
        assert res.fitted.visibility == pytest.approx(1.0, abs=5e-3)


def test_criterion_8_one_over_f_noise():
    with Budget("8 (1/f noise)", 120.0):
        ens = FluctuatorEnsemble(
            count=20, gamma_min=1e-3, gamma_max=10.0, coupling=1e-3, seed=2026
        )
        freq, psd = psd_welch(ens, dt=0.01, n_samples=65536, n_trajectories=1024, nperseg=32768)
        centre = math.sqrt((ens.gamma_min / math.pi) * (ens.gamma_max / math.pi))
        band = (max(centre / 10.0, freq[1]), centre * 10.0)
        slope = fit_loglog_slope(freq, psd, band)
        assert slope == pytest.approx(-1.0, abs=0.15)

        # deterministic: re-drawing a trajectory reproduces it bit for bit
        grid = np.arange(0.0, 50.0, 0.01)
        assert np.array_equal(
            rtn_trajectory(ens, grid, trajectory=17), rtn_trajectory(ens, grid, trajectory=17)
        )

        # single-fluctuator autocorrelation against exp(-2 gamma tau)
        gamma = 0.2
        single = FluctuatorEnsemble.single(gamma, 1.0, seed=7)
        tgrid = np.arange(0.0, 2.01, 0.05)
        m = 10000
        paths = np.stack([fluctuator_states(single, tgrid, trajectory=i)[0] for i in range(m)])
        for lag in (5, 15, 30):
            est = float(np.mean(paths[:, 0] * paths[:, lag]))
            exact = math.exp(-2.0 * gamma * tgrid[lag])
            sigma = math.sqrt((1.0 - exact**2) / m)
            assert abs(est - exact) <= 3.0 * sigma


def test_criterion_9_cavity_qed():
    with Budget("9 (cavity QED)", 60.0):
        p = JaynesCummingsParams(nu01=10.0, nu_c=10.0, g=0.1, n_ph=4)
        grid = np.linspace(0.0, 12.0, 121)
        res = vacuum_rabi(p, grid)
        expected = np.cos(2.0 * math.pi * p.g * grid) ** 2
        assert np.abs(res.population - expected).max() <= 1e-6

        strong = JaynesCummingsParams(
            nu01=10.0, nu_c=10.0, g=0.1, n_ph=4,
            kappa_per_us=10.0, dec=DecoherenceParams(t1_us=5.0, t2_us=0.5),
        )
        assert strong_coupling_check(strong, margin=10.0).satisfied
        weak = replace(strong, g=1e-4)
        assert not strong_coupling_check(weak, margin=10.0).satisfied


CONFIG = """
[run]
seed = 1234

[cpb]
ec = 5.0
ej = 1.0
cutoff = 10

[sweep]
parameter = ng
start = 0.0
stop = 1.0
points = 21
levels = 4
"""


def test_criterion_10_reproducibility(tmp_path):
    with Budget("10 (byte-identical CSV)", 60.0):
        cfg = tmp_path / "repro.ini"
        cfg.write_text(CONFIG)
        blobs = []
        for name, threads in (("r1.csv", "1"), ("r2.csv", "1"), ("r4.csv", "2")):
            out = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable, "-m", "scqsim", "spectrum",
                    "--config", str(cfg), "--out", str(out), "--threads", threads,
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0] == blobs[2]
