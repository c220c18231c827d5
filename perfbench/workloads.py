"""Seeded task lists of the three library workloads: spectra, drive, decoherence.

``LIBRARY[name]`` is (warm, build): ``warm()`` fills lazy caches during
set-up; ``build(seed)`` draws every parameter from ``seed``, computes the
references before any timing starts and returns (task name, callable)
pairs.  A callable calls the public scqsim API, then checks the answer
against an independent reference and raises ``CheckFailed`` when it is
outside tolerance.  Parameters come from narrow ranges inside each
routine's documented regime, chosen so that the cost of a pass barely
depends on the draw (see README.md for the ranges and why).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

import references as ref
from scqsim import cavity, charge, core, coupled, experiments, flux, noise, phase


class CheckFailed(Exception):
    """A result lies outside its reference tolerance."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_close(label: str, got, want, atol: float = 0.0, rtol: float = 0.0) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    check(got.shape == want.shape, f"{label}: shape {got.shape} != {want.shape}")
    excess = np.abs(got - want) - (atol + rtol * np.abs(want))
    if np.any(excess > 0) or not np.all(np.isfinite(got)):
        i = int(np.nanargmax(np.where(np.isfinite(excess), excess, np.inf)))
        raise CheckFailed(
            f"{label}: got {got.flat[i]!r}, reference {want.flat[i]!r} "
            f"(atol {atol:g}, rtol {rtol:g})"
        )


# --- spectra: static eigenproblems ------------------------------------------------

FLUX_CURRENT_F = (0.48, 0.5, 0.52)
PHASE_EJ, PHASE_EC = 10.0, 1e-3  # criterion-4 regime, Ej/Ec = 1e4


def warm_spectra() -> None:
    """Fill the lazy grid-48 symmetry-block cache every flux call uses."""
    flux.solve_three_junction(flux.ThreeJunctionParams(ej=40.0, ec=1.0), k=1)


def spectra(seed: int):
    rng = np.random.default_rng([seed, 1])
    p = flux.ThreeJunctionParams(ej=rng.uniform(36.0, 44.0), ec=1.0, alpha=rng.uniform(0.75, 0.85))
    d1, d2 = rng.uniform(0.002, 0.005), rng.uniform(0.006, 0.010)
    f_grid = 0.5 + np.array([-d2, -d1, 0.0, d1, d2])
    flux_ref = np.array([ref.three_junction_levels(p.ej, p.ec, p.alpha, f) for f in f_grid])
    current_ref = [ref.three_junction_current(p.ej, p.ec, p.alpha, f) for f in FLUX_CURRENT_F]

    stored = ref.stored_phase_counts()
    biases = [round(lo + 0.001 * int(rng.integers(50)), 3) for lo in (0.4, 0.6, 0.8)]
    count_ref = [stored[f"{s:.3f}"] for s in biases]  # [certain, possible] per bias
    s_levels = rng.uniform(0.2, 0.3)
    pq = phase.PhaseQubitParams(ej=PHASE_EJ, ec=PHASE_EC, s=s_levels)
    pt_levels = ref.washboard_levels_pt(PHASE_EJ, PHASE_EC, s_levels, 5)

    cpb = charge.CpbParams(ec=rng.uniform(4.8, 5.2), ej=rng.uniform(0.8, 1.0))
    ng = np.linspace(0.0, 1.0, 101)
    cpb_ref = np.array([ref.cpb_levels(cpb.ec, cpb.ej, x, 20, 5) for x in ng])

    def flux_sweep():
        table = flux.flux_spectrum_vs_f(p, f_grid, k=ref.FLUX_LEVELS)
        check_close("flux levels vs charge basis", table.levels, flux_ref, atol=2e-4)
        check_close("flux f <-> 1-f symmetry", table.levels, table.levels[::-1], atol=1e-8)
        gaps = table.gap()
        check(int(np.argmin(gaps)) == 2, f"gap minimum not at f = 0.5: {gaps}")
        delta, _, resid = flux.fit_two_level_gap(f_grid, gaps)
        check(resid <= 0.02, f"two-level fit residual {resid:.3g} > 2%")
        check_close("fitted splitting", delta, flux_ref[2, 1] - flux_ref[2, 0], rtol=0.02)

    def flux_currents():
        got = []
        for f in FLUX_CURRENT_F:
            pf = replace(p, f=f)
            sol = flux.solve_three_junction(pf, k=1, want_states=True)
            got.append(flux.persistent_current(sol.states[:, 0], pf))
        check_close("persistent current vs charge basis", got, current_ref, atol=1e-5)
        check(abs(got[1]) <= 1e-8, f"current at f = 0.5 is {got[1]:.3g}, not 0")
        check(got[0] * got[2] < 0, "current does not change sign across f = 0.5")

    def phase_counts():
        got = [phase.bound_state_count(phase.PhaseQubitParams(PHASE_EJ, PHASE_EC, s)) for s in biases]
        check(all(lo <= n <= hi for n, (lo, hi) in zip(got, count_ref)),
              f"bound counts {got} at s = {biases}, refined [certain, possible] {count_ref}")

    def phase_levels():
        wl = phase.well_levels(pq, k=5)
        check(not wl.truncated, "fewer than 5 bound levels")
        spacing = phase.plasma_spacing(pq)
        check_close("well transitions vs perturbation theory",
                    np.diff(wl.energies), np.diff(pt_levels), atol=3e-4 * spacing)

    def charge_spectra():
        for cutoff in (10, 20):
            table = charge.spectrum_vs_ng(replace(cpb, cutoff=cutoff), ng, k=5)
            check_close(f"cpb levels at cutoff {cutoff}", table.levels, cpb_ref, atol=1e-9)
        check_close("cpb gap at ng = 1/2 vs Ej", table.gap()[50], cpb.ej, rtol=0.02)

    return [
        ("flux_sweep", flux_sweep),
        ("flux_currents", flux_currents),
        ("phase_counts", phase_counts),
        ("phase_levels", phase_levels),
        ("charge_spectra", charge_spectra),
    ]


# --- drive: time-dependent RK4 propagation ----------------------------------------


def drive(seed: int):
    rng = np.random.default_rng([seed, 2])
    e1, e2, chi = rng.uniform(9.8, 10.2), rng.uniform(6.8, 7.2), rng.uniform(0.9, 1.1)
    # A = ||H0|| / 90 keeps the RK4 step count of a pi pulse fixed (~11.4k steps)
    amp = (e1 + e2 + chi) / 90.0
    duration = coupled.pi_pulse_duration(amp)
    scan = [0.0, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.03, 0.06))]

    nu01 = rng.uniform(9.5, 10.5)
    rabi_amp = rng.uniform(0.18, 0.22)
    qubit = charge.reduced_two_level(charge.CpbParams(ec=1.0, ej=nu01, ng=0.5))
    pulse = coupled.DrivePulse(rabi_amp, nu01, 0.0, target="sigma_x")
    closed_grid = np.linspace(0.0, 30.0 / nu01, 31)  # 12k RK4 steps at 400 steps/ns/GHz
    open_grid = np.linspace(0.0, 10.0 / nu01, 11)
    t1_us = rng.uniform(0.04, 0.06)
    open_ref = ref.open_rabi_rwa(rabi_amp, t1_us, t1_us, open_grid)

    def cnot_scan():
        for dnu in scan:
            nu = 2.0 * (e2 - chi) + dnu
            table = coupled.simulate_cnot(
                coupled.CoupledParams(e1, e2, chi), coupled.DrivePulse(amp, nu, duration)
            )
            want = ref.cnot_fidelity_rwa(e2, chi, amp, nu, duration)
            check_close(f"CNOT fidelity at detuning {dnu:+.3f}", table.fidelity, want, atol=5e-3)
            if dnu == 0.0:
                check(table.fidelity >= 0.99, f"resonant CNOT fidelity {table.fidelity:.4f} < 0.99")

    def cnot_degenerate():
        nu = 2.0 * e2
        table = coupled.simulate_cnot(
            coupled.CoupledParams(e1, e2, 0.0), coupled.DrivePulse(amp, nu, duration)
        )
        want = ref.cnot_fidelity_rwa(e2, 0.0, amp, nu, duration)
        check_close("chi = 0 CNOT fidelity", table.fidelity, want, atol=5e-3)
        check(table.fidelity <= 0.8, f"chi = 0 fidelity {table.fidelity:.4f} > 0.8")

    def rabi_closed():
        res = experiments.rabi(qubit, pulse, None, closed_grid)
        want = np.sin(math.pi * rabi_amp * closed_grid) ** 2
        check_close("closed Rabi vs sin^2(pi A t)", res.population, want, atol=1e-3)

    def rabi_open():
        dec = experiments.DecoherenceParams(t1_us=t1_us, t2_us=t1_us)
        res = experiments.rabi(qubit, pulse, dec, open_grid)
        check_close("open Rabi vs rotating-frame Lindblad", res.population, open_ref, atol=1e-3)

    return [
        ("cnot_scan", cnot_scan),
        ("cnot_degenerate", cnot_degenerate),
        ("rabi_closed", rabi_closed),
        ("rabi_open", rabi_open),
    ]


# --- decoherence: Lindblad with constant generators, and 1/f noise ----------------

NOISE_ENSEMBLE = dict(count=20, gamma_min=1e-3, gamma_max=10.0, coupling=1e-3)  # criterion 8
PSD_TRAJECTORIES = 24
RTN_TRAJECTORIES = 100
AUTOCORR_PATHS = 4000


def _rx90_excited() -> np.ndarray:
    """RX90^dag |e><e| RX90: the Ramsey readout in the Heisenberg picture."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    rx = (np.eye(2) - 1j * sx) / math.sqrt(2.0)
    return rx.conj().T @ np.diag([0.0, 1.0]) @ rx


def decoherence(seed: int):
    rng = np.random.default_rng([seed, 3])
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    zero = core.HermitianOperator(np.zeros((2, 2)))
    t1_ns, tphi_ns = rng.uniform(600.0, 800.0), rng.uniform(350.0, 450.0)
    hop = rng.uniform(2.3, 2.7)

    t1_us = rng.uniform(1.8, 2.2)
    t1_grid = np.linspace(0.0, 3000.0 * t1_us, 61)
    t2_us = rng.uniform(0.9, 1.1)
    ramsey_grid = np.linspace(0.0, 2500.0, 101)
    ramsey_dec = experiments.DecoherenceParams(t1_us=10.0, t2_us=t2_us)
    psi = (np.eye(2) - 1j * np.array([[0, 1], [1, 0]])) @ np.array([1.0, 0.0]) / math.sqrt(2.0)
    ramsey_ref = ref.lindblad_expm(
        -0.5 * 0.002 * np.diag([1.0, -1.0]), ref.decoherence_channels(10.0, t2_us),
        np.outer(psi, psi.conj()), ramsey_grid, _rx90_excited(),
    )

    g = rng.uniform(0.09, 0.11)
    jc_grid = np.linspace(0.0, 0.3 / g, 31)  # fixed g * T keeps the RK4 step count fixed
    jc_params = [
        cavity.JaynesCummingsParams(
            nu01=10.0, nu_c=10.0, g=g, n_ph=n, kappa_per_us=rng.uniform(8.0, 12.0),
            dec=experiments.DecoherenceParams(t1_us=5.0, t2_us=0.5),
        )
        for n in (4, 10)
    ]
    jc_ref = [ref.jc_open_population(p.g, p.n_ph, p.kappa_per_us, 5.0, 0.5, jc_grid) for p in jc_params]

    psd_ens = noise.FluctuatorEnsemble(seed=int(rng.integers(1 << 31)), **NOISE_ENSEMBLE)
    rtn_ens = noise.FluctuatorEnsemble(
        count=4, gamma_min=0.05, gamma_max=2.0, coupling=0.02, seed=int(rng.integers(1 << 31))
    )
    rtn_grid = np.arange(2000) * 0.01
    rtn_ref = ref.rtn_coherence(rtn_ens.rates, rtn_ens.couplings, rtn_grid)
    single = noise.FluctuatorEnsemble.single(
        rng.uniform(0.15, 0.25), 1.0, seed=int(rng.integers(1 << 31))
    )
    lag_grid = np.arange(0.0, 2.01, 0.05)

    def lindblad_oracles():  # criterion 6, with step-halving verification on
        times = [300.0, 900.0, 1500.0]
        rhos = core.evolve_lindblad(zero, [(lower, 1.0 / t1_ns)], core.DensityMatrix(np.diag([0.0, 1.0])), times)
        check_close("T1 decay", [r.population(1) for r in rhos], np.exp(-np.array(times) / t1_ns), rtol=1e-6)
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        times = [200.0, 800.0]
        rhos = core.evolve_lindblad(
            zero, [(core.SIGMA_Z, 0.5 / tphi_ns)], core.DensityMatrix(np.outer(plus, plus)), times
        )
        check_close("pure dephasing", [abs(r.entries[0, 1]) for r in rhos],
                    0.5 * np.exp(-np.array(times) / tphi_ns), rtol=1e-6)
        h = core.HermitianOperator(np.array([[0.0, -hop], [-hop, 0.0]]))
        times = np.array([0.85, 2.05]) / hop  # fixed hop * t fixes the RK4 step count
        rhos = core.evolve_lindblad(h, [], core.basis_state(2, 0).density_matrix(), times)
        amps = np.stack([np.cos(2 * math.pi * hop * times), 1j * np.sin(2 * math.pi * hop * times)], axis=1)
        for rho, a in zip(rhos, amps):
            check_close("closed Lindblad vs exact unitary", rho.entries.view(float),
                        np.outer(a, a.conj()).view(float), atol=1e-8)

    def t1_fit():
        res = experiments.t1_decay(experiments.DecoherenceParams(t1_us, t1_us), t1_grid)
        check_close("T1 trace", res.population, np.exp(-t1_grid / (1e3 * t1_us)), rtol=1e-6)
        check_close("fitted T1", res.fitted.t1_us, t1_us, rtol=0.05)

    def ramsey_fit():
        res = experiments.ramsey(10.0, 0.002, ramsey_dec, ramsey_grid)
        check_close("Ramsey trace vs exact Lindblad", res.population, ramsey_ref, atol=1e-6)
        check_close("fitted T2", res.fitted.t2_us, t2_us, rtol=0.05)
        check_close("fitted detuning", res.fitted.detuning, 0.002, rtol=0.01)

    def vacuum_rabi():
        for p, want in zip(jc_params, jc_ref):
            res = cavity.vacuum_rabi(p, jc_grid)
            check_close(f"open vacuum Rabi at n_ph = {p.n_ph}", res.population, want, atol=1e-6)

    def noise_psd():  # criterion 8's slope test; 0.15 is > 5 sigma at 24 trajectories
        freq, psd = noise.psd_welch(psd_ens, 0.01, 65536, PSD_TRAJECTORIES, nperseg=32768)
        centre = math.sqrt((psd_ens.gamma_min / math.pi) * (psd_ens.gamma_max / math.pi))
        slope = noise.fit_loglog_slope(freq, psd, (max(centre / 10.0, freq[1]), centre * 10.0))
        check(abs(slope + 1.0) <= 0.15, f"1/f slope {slope:.3f} outside -1 +- 0.15")
        grid = np.arange(0.0, 50.0, 0.01)
        check(np.array_equal(noise.rtn_trajectory(psd_ens, grid, 17), noise.rtn_trajectory(psd_ens, grid, 17)),
              "trajectory 17 is not reproducible")

    def rtn_dephasing():  # 5 sigma of the trajectory mean, plus 1e-3 for the trapezoid rule
        coh = noise.dephasing_under_rtn(10.0, rtn_ens, RTN_TRAJECTORIES, rtn_grid)
        sigma = np.sqrt((1.0 - rtn_ref**2) / RTN_TRAJECTORIES)
        excess = np.abs(coh - rtn_ref) - (5.0 * sigma + 1e-3)
        check(np.all(excess <= 0), f"RTN coherence off the exact average by {np.max(excess):.3g} over 5 sigma")

    def autocorrelation():  # criterion 8 at 5 sigma instead of 3
        paths = np.stack([noise.fluctuator_states(single, lag_grid, trajectory=i)[0] for i in range(AUTOCORR_PATHS)])
        gamma = single.gamma_min
        for lag in (5, 15, 30):
            est = float(np.mean(paths[:, 0] * paths[:, lag]))
            exact = math.exp(-2.0 * gamma * lag_grid[lag])
            sigma = math.sqrt((1.0 - exact**2) / AUTOCORR_PATHS)
            check(abs(est - exact) <= 5.0 * sigma, f"autocorrelation at lag {lag}: {est:.4f} vs {exact:.4f}")

    return [
        ("lindblad_oracles", lindblad_oracles),
        ("t1_fit", t1_fit),
        ("ramsey_fit", ramsey_fit),
        ("vacuum_rabi", vacuum_rabi),
        ("noise_psd", noise_psd),
        ("rtn_dephasing", rtn_dephasing),
        ("autocorrelation", autocorrelation),
    ]


LIBRARY = {
    "spectra": (warm_spectra, spectra),
    "drive": (lambda: None, drive),
    "decoherence": (lambda: None, decoherence),
}
