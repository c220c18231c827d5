"""Qubit-resonator model tests: spectra, vacuum Rabi, strong coupling."""

import math

import numpy as np
import pytest
from scipy.optimize import curve_fit

from scqsim.cavity import (
    JaynesCummingsParams,
    excitation_operator,
    jc_hamiltonian,
    strong_coupling_check,
    vacuum_rabi,
)
from scqsim.core import ValidationError
from scqsim.experiments import DecoherenceParams


def params(**kw):
    base = dict(nu01=10.0, nu_c=10.0, g=0.1, n_ph=4)
    base.update(kw)
    return JaynesCummingsParams(**base)


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


class TestVacuumRabi:
    def test_closed_resonant_cosine(self):
        p = params()
        grid = np.linspace(0.0, 12.0, 121)
        res = vacuum_rabi(p, grid)
        expected = np.cos(2.0 * math.pi * p.g * grid) ** 2
        assert np.abs(res.population - expected).max() <= 1e-6

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
