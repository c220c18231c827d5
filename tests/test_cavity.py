"""Qubit-resonator model tests: spectra, vacuum Rabi, strong coupling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import curve_fit

from scqsim import cavity
from scqsim.cavity import (
    JaynesCummingsParams,
    excitation_operator,
    jc_hamiltonian,
    strong_coupling_check,
    vacuum_rabi,
)
from scqsim import core
from scqsim.core import ConvergenceError, ValidationError
from scqsim.experiments import US_TO_NS, DecoherenceParams


def params(**kw):
    base = dict(nu01=10.0, nu_c=10.0, g=0.1, n_ph=4)
    base.update(kw)
    return JaynesCummingsParams(**base)


def full_space_population(p, dt, points):
    """P_e at t = 0, dt, ... from the whole 2 (n_ph + 1)-state space, one exact
    exponential a step.

    H is the lab-frame JC Hamiltonian minus nu_c times the excitation number
    (the frame at nu_c).  A closed run steps the state vector; an open one
    steps the row-major vec(rho) through the Lindblad map, with a, s- and sz
    lifted to the product space.
    """
    h = jc_hamiltonian(p).entries - p.nu_c * excitation_operator(p).entries
    dim, dim_c = p.dimension, p.n_ph + 1
    psi = np.zeros(dim, dtype=complex)
    psi[dim_c] = 1.0  # |e> (x) |0>
    if p.kappa_per_us == 0 and p.dec is None:
        step, vec = expm(-2j * math.pi * h * dt), psi
    else:
        ident = np.eye(dim)
        gen = -2j * math.pi * (np.kron(h, ident) - np.kron(ident, h.T))
        chans = [(np.kron(np.eye(2), np.diag(np.sqrt(np.arange(1, dim_c)), k=1)), p.kappa_per_us / US_TO_NS)]
        chans += [(np.kron(L, np.eye(dim_c)), rate) for L, rate in p.dec.channels()]
        for L, rate in chans:
            decay = L.conj().T @ L
            gen += rate * (np.kron(L, L.conj()) - 0.5 * np.kron(decay, ident) - 0.5 * np.kron(ident, decay.T))
        step, vec = expm(gen * dt), np.outer(psi, psi).ravel()
    pops = []
    for _ in range(points):
        rho = np.outer(vec, vec.conj()) if vec.size == dim else vec.reshape(dim, dim)
        pops.append(np.trace(rho[dim_c:, dim_c:]).real)
        vec = step @ vec
    return np.array(pops)


class TestHamiltonian:
    def test_uncoupled_spectrum_is_bare_sums(self):
        p = params(g=0.0, nu_c=9.0)
        w = np.sort(np.linalg.eigvalsh(jc_hamiltonian(p).entries))
        bare = sorted(
            q * p.nu01 / 2.0 - (1 - q) * p.nu01 / 2.0 + n * p.nu_c
            for q in (0, 1)
            for n in range(p.n_ph + 1)
        )
        np.testing.assert_allclose(w, bare, atol=1e-12)

    def test_one_excitation_splitting(self):
        p = params()
        w = np.linalg.eigvalsh(jc_hamiltonian(p).entries)
        # resonant one-excitation doublet sits at nu01/2 -+ g
        lo = p.nu01 / 2.0 - p.g
        hi = p.nu01 / 2.0 + p.g
        assert np.abs(w - lo).min() < 1e-10
        assert np.abs(w - hi).min() < 1e-10

    def test_excitation_number_conserved(self):
        p = params(nu_c=9.3, g=0.25)
        h = jc_hamiltonian(p).entries
        n_op = excitation_operator(p).entries
        comm = h @ n_op - n_op @ h
        assert np.abs(comm).max() <= 1e-12

    def test_validation(self):
        with pytest.raises(ValidationError):
            params(n_ph=1)
        with pytest.raises(ValidationError):
            params(g=-0.1)
        with pytest.raises(ValidationError):
            params(nu01=0.0)

    @pytest.mark.parametrize("field", ["nu01", "nu_c", "g", "kappa_per_us"])
    def test_non_finite_rejected(self, field):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            params(**{field: math.inf})

    def test_non_integral_photon_cutoff_rejected(self):
        with pytest.raises(ValidationError, match="n_ph must be an integer"):
            params(n_ph=4.5)


class TestVacuumRabi:
    def test_closed_resonant_cosine(self):
        p = params()
        grid = np.linspace(0.0, 12.0, 121)
        res = vacuum_rabi(p, grid)
        expected = np.cos(2.0 * math.pi * p.g * grid) ** 2
        assert np.abs(res.population - expected).max() <= 1e-6

    @pytest.mark.parametrize("g", [1e300, 1e100])
    def test_closed_trace_with_unresolved_phase_refused(self, g):
        # 2 pi g t near 1e300 rad carries no phase: once a CSV of noise, exit 0
        with pytest.raises(ConvergenceError, match="not resolved in double precision"):
            vacuum_rabi(params(g=g), np.linspace(0.0, 3.0, 31))

    def test_closed_trace_takes_one_eigendecomposition(self, monkeypatch):
        calls = []
        eigen = core.hermitian_eigen
        monkeypatch.setattr(core, "hermitian_eigen", lambda op: calls.append(op) or eigen(op))
        vacuum_rabi(params(), np.linspace(0.0, 12.0, 31))
        assert len(calls) == 1

    @settings(max_examples=25, deadline=None)
    @given(
        n_ph=st.sampled_from([2, 4, 10]),
        detuning=st.floats(-0.1, 0.1),
        g=st.floats(0.005, 0.05),
        kappa=st.floats(0.0, 5.0),
        t1=st.floats(0.2, 2.0),
        t2_share=st.floats(0.05, 1.0),
        open_system=st.booleans(),
    )
    def test_sector_trace_matches_the_full_space(self, n_ph, detuning, g, kappa, t1, t2_share, open_system):
        if open_system:
            p = params(nu01=5.0 + detuning, nu_c=5.0, g=g, n_ph=n_ph, kappa_per_us=kappa,
                       dec=DecoherenceParams(t1_us=t1, t2_us=2.0 * t1 * t2_share))
        else:
            p = params(nu01=5.0 + detuning, nu_c=5.0, g=g, n_ph=n_ph)
        got = vacuum_rabi(p, 5.0 * np.arange(9)).population
        assert np.abs(got - full_space_population(p, 5.0, 9)).max() <= 1e-12

    def test_detuned_closed_form(self):
        p = params(nu01=5.0, nu_c=5.05, g=0.02)
        grid = np.linspace(0.0, 200.0, 401)
        delta = p.nu01 - p.nu_c
        omega = math.sqrt(delta**2 + 4.0 * p.g**2)
        expected = 1.0 - (4.0 * p.g**2 / omega**2) * np.sin(math.pi * omega * grid) ** 2
        assert np.abs(vacuum_rabi(p, grid).population - expected).max() <= 1e-12

    @pytest.mark.parametrize("kappa", [0.0, 2.0], ids=["closed", "open"])
    def test_photon_cutoff_does_not_change_the_trace(self, kappa):
        dec = DecoherenceParams(t1_us=0.5, t2_us=0.6) if kappa else None
        grid = np.linspace(0.0, 200.0, 401)
        traces = [
            vacuum_rabi(params(nu01=5.0, nu_c=5.05, g=0.02, n_ph=n, kappa_per_us=kappa, dec=dec), grid)
            for n in (2, 4, 40)
        ]
        assert all(np.array_equal(t.population, traces[0].population) for t in traces[1:])

    @pytest.mark.parametrize("kappa", [0.0, 2.0], ids=["closed", "open"])
    def test_solver_gets_three_states_at_the_largest_cutoff(self, kappa, monkeypatch):
        dims = []
        for name in ("_unitary_trace", "_lindblad_trace"):
            solve = getattr(cavity, name)
            monkeypatch.setattr(
                cavity, name, lambda op, *args, solve=solve, **kw: dims.append(op.dimension) or solve(op, *args, **kw)
            )
        vacuum_rabi(params(n_ph=2047, kappa_per_us=kappa), np.linspace(0.0, 12.0, 31))
        assert dims == [3]

    def test_qubit_channels_come_from_the_decoherence_params(self, monkeypatch):
        # with DecoherenceParams.channels() empty, dec adds nothing to the cavity decay
        grid = np.linspace(0.0, 12.0, 31)
        cavity_only = vacuum_rabi(params(kappa_per_us=2.0), grid).population
        monkeypatch.setattr(DecoherenceParams, "channels", lambda self: [])
        dec = DecoherenceParams(t1_us=0.5, t2_us=0.6)
        assert np.array_equal(vacuum_rabi(params(kappa_per_us=2.0, dec=dec), grid).population, cavity_only)

    def test_full_revival_at_half_period(self):
        p = params(g=0.1)
        res = vacuum_rabi(p, np.array([5.0]))  # period 1/(2g) = 5 ns
        assert res.population[0] == pytest.approx(1.0, abs=1e-9)

    def test_cavity_decay_damps_the_exchange(self):
        p = params(kappa_per_us=2e4)  # photon lifetime 0.05 us = 50 ns
        grid = np.array([5.0, 10.0, 15.0])  # successive revivals
        res = vacuum_rabi(p, grid)
        assert res.population[0] > res.population[1] > res.population[2]
        assert res.population.max() <= 1.0 + 1e-9

    def test_open_reduces_to_closed_at_zero_rates(self):
        p = params()
        grid = np.linspace(0.0, 10.0, 21)
        closed = vacuum_rabi(p, grid)
        nearly_closed = vacuum_rabi(
            params(kappa_per_us=1e-9, dec=DecoherenceParams(t1_us=1e9, t2_us=1e9)), grid
        )
        assert np.abs(closed.population - nearly_closed.population).max() <= 1e-6

    def test_detuned_transfer_bound(self):
        p = params(nu_c=9.0)  # delta = 1 GHz >> g
        grid = np.linspace(0.0, 40.0, 801)
        res = vacuum_rabi(p, grid)
        delta = p.nu01 - p.nu_c
        bound = p.g**2 / (p.g**2 + (delta / 2.0) ** 2)
        transfer = 1.0 - res.population.min()
        assert transfer <= bound + 2e-3

    def test_rabi_frequency_linear_in_g(self):
        def fitted_rate(g):
            p = params(g=g)
            grid = np.linspace(0.0, 1.2 / (2.0 * g), 161)
            res = vacuum_rabi(p, grid)

            def model(t, nu):
                return np.cos(2.0 * math.pi * 0.5 * nu * t) ** 2

            popt, _ = curve_fit(model, grid, res.population, p0=(2.0 * g,))
            return abs(float(popt[0]))

        gs = np.array([0.02, 0.05, 0.1, 0.2])
        rates = np.array([fitted_rate(g) for g in gs])
        slope = np.polyfit(gs, rates, 1)[0]
        assert slope == pytest.approx(2.0, rel=5e-3)

    @pytest.mark.parametrize("kappa", [0.0, 0.01], ids=["closed", "open"])
    def test_empty_time_grid_rejected(self, kappa):
        with pytest.raises(ValidationError, match="at least one time"):
            vacuum_rabi(params(kappa_per_us=kappa), [])

    def test_non_finite_time_rejected(self):
        with pytest.raises(ValidationError, match="time grid"):
            vacuum_rabi(params(), [0.0, math.nan, 1.0])


class TestStrongCoupling:
    def test_documented_true_case(self):
        p = params(
            g=0.1, kappa_per_us=10.0, dec=DecoherenceParams(t1_us=5.0, t2_us=0.5)
        )  # Rabi period 5 ns << min(0.5 us, 0.1 us)/10
        report = strong_coupling_check(p, margin=10.0)
        assert report.satisfied and not report.marginal
        assert report.rabi_period_ns == pytest.approx(5.0)
        assert report.photon_lifetime_ns == pytest.approx(100.0)  # 1/kappa = 0.1 us

    def test_documented_false_case(self):
        p = params(
            g=1e-4, kappa_per_us=10.0, dec=DecoherenceParams(t1_us=5.0, t2_us=0.5)
        )
        assert not strong_coupling_check(p, margin=10.0).satisfied

    def test_marginal_equality(self):
        # margin 1: period 5 ns equals min(T2, 1/kappa) = 5 ns exactly
        p = params(g=0.1, dec=DecoherenceParams(t1_us=0.005, t2_us=0.005))
        report = strong_coupling_check(p, margin=1.0)
        assert report.satisfied and report.marginal

    def test_no_decoherence_is_always_strong(self):
        report = strong_coupling_check(params(g=0.01), margin=10.0)
        assert report.satisfied and not report.marginal
        assert math.isinf(report.qubit_t2_ns)

    def test_margin_validation(self):
        with pytest.raises(ValidationError):
            strong_coupling_check(params(), margin=0.5)
        with pytest.raises(ValidationError):
            strong_coupling_check(params(g=0.0))

    @pytest.mark.parametrize("margin", [math.nan, math.inf])
    def test_non_finite_margin_rejected(self, margin):
        with pytest.raises(ValidationError, match="margin must be finite"):
            strong_coupling_check(params(), margin=margin)
