"""Protocol tests: Rabi, Ramsey, T1 decay, quality factor."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from scqsim.charge import CpbParams, reduced_two_level
from scqsim.core import ValidationError
from scqsim.coupled import DrivePulse
from scqsim.experiments import (
    DecoherenceParams,
    ExperimentResult,
    FitError,
    FittedMetrics,
    quality_factor,
    rabi,
    ramsey,
    t1_decay,
)

NU01 = 10.0


def qubit_h(nu01=NU01):
    return reduced_two_level(CpbParams(ec=1.0, ej=nu01, ng=0.5))


def drive(amplitude, frequency=NU01):
    return DrivePulse(amplitude=amplitude, frequency=frequency, duration=0.0, target="sigma_x")


class TestDecoherenceParams:
    def test_rates(self):
        dec = DecoherenceParams(t1_us=1.0, t2_us=1.0)
        assert dec.relaxation_rate == pytest.approx(1e-3, abs=0.0)
        # 1/Tphi = 1/T2 - 1/(2 T1) = 0.5e-3 -> channel rate 0.25e-3
        assert dec.dephasing_channel_rate == pytest.approx(0.25e-3, abs=1e-12)

    def test_t2_cap(self):
        DecoherenceParams(t1_us=1.0, t2_us=2.0)  # boundary allowed
        with pytest.raises(ValidationError):
            DecoherenceParams(t1_us=1.0, t2_us=2.1)
        with pytest.raises(ValidationError):
            DecoherenceParams(t1_us=-1.0, t2_us=0.5)

    @pytest.mark.parametrize("kw", [dict(t1_us=math.inf, t2_us=1.0), dict(t1_us=1.0, t2_us=math.nan)])
    def test_non_finite_times_rejected(self, kw):
        with pytest.raises(ValidationError, match="must be finite"):
            DecoherenceParams(**kw)


class TestRabi:
    def test_resonant_matches_rotating_frame_formula(self):
        # weak drive (A = nu01/200, inside the A <= nu01/50 regime): the
        # trace follows sin^2(pi A t) to 2e-3.  At the A = nu01/50
        # endpoint the drive micromotion alone reaches ~5e-3, so the
        # bound is checked where it actually holds.
        amp = NU01 / 200.0
        grid = np.linspace(0.0, 1.5 / amp, 259)
        res = rabi(qubit_h(), drive(amp), None, grid)
        expected = np.sin(np.pi * amp * grid) ** 2
        assert np.abs(res.population - expected).max() <= 2e-3

    def test_full_visibility_without_decoherence(self):
        amp = 0.1
        grid = np.linspace(0.0, 1.2 / amp, 97)
        res = rabi(qubit_h(), drive(amp), None, grid)
        assert res.fitted.visibility == pytest.approx(1.0, abs=5e-3)

    def test_decoherence_reduces_visibility(self):
        dec = DecoherenceParams(t1_us=1.0, t2_us=1.0)
        amp = 0.05
        grid = np.linspace(0.0, 12.0, 41)
        res = rabi(qubit_h(), drive(amp), dec, grid)
        assert res.fitted.visibility < 1.0

        # independent fine-tolerance oracle (adaptive DOP853 on the GKLS form)
        sz = np.diag([1.0, -1.0]).astype(complex)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        low = np.array([[0, 1], [0, 0]], dtype=complex)
        h0 = 0.5 * NU01 * (-sz)
        g1, gphi = dec.relaxation_rate, dec.dephasing_channel_rate

        def rhs(t, y):
            rho = y.reshape(2, 2)
            ht = h0 + amp * np.cos(2 * np.pi * NU01 * t) * sx
            out = -1j * 2 * np.pi * (ht @ rho - rho @ ht)
            out += g1 * (low @ rho @ low.conj().T - 0.5 * (low.conj().T @ low @ rho + rho @ low.conj().T @ low))
            out += gphi * (sz @ rho @ sz - rho)
            return out.ravel()

        sol = solve_ivp(
            rhs,
            (0.0, grid[-1]),
            np.diag([1.0, 0.0]).astype(complex).ravel(),
            t_eval=grid,
            rtol=1e-10,
            atol=1e-12,
            method="DOP853",
        )
        oracle = sol.y.reshape(2, 2, -1)[1, 1].real
        v_oracle = oracle.max() - oracle.min()
        assert res.fitted.visibility == pytest.approx(v_oracle, abs=1e-2)
        assert np.abs(res.population - oracle).max() <= 1e-2

    def test_envelope_decays(self):
        dec = DecoherenceParams(t1_us=0.2, t2_us=0.2)
        amp = 0.05
        # compare successive Rabi maxima at t ~ 10 and ~ 30 ns
        grid = np.array([10.0, 30.0])
        res = rabi(qubit_h(), drive(amp), dec, grid)
        assert res.population[0] > res.population[1]

    @pytest.mark.parametrize(
        "grid", [[-1.0, 0.0, 1.0], [0.0, math.nan, 1.0], [0.0, math.inf], [1.0, 0.5]]
    )
    def test_bad_time_grid_rejected(self, grid):
        with pytest.raises(ValidationError, match="time grid"):
            rabi(qubit_h(), drive(0.1), None, grid)

    def test_unknown_target_rejected(self):
        bad = DrivePulse(amplitude=0.1, frequency=NU01, duration=0.0, target="sigma_q")
        with pytest.raises(ValidationError):
            rabi(qubit_h(), bad, None, [0.0, 1.0])


class TestRamsey:
    def test_fit_recovers_t2_and_detuning(self):
        dec = DecoherenceParams(t1_us=10.0, t2_us=1.0)
        delta = 0.01
        grid = np.linspace(0.0, 2500.0, 401)
        res = ramsey(NU01, delta, dec, grid)
        assert res.fitted.t2_us == pytest.approx(1.0, rel=0.05)
        assert res.fitted.detuning == pytest.approx(delta, rel=0.01)

    def test_fringe_formula(self):
        dec = DecoherenceParams(t1_us=10.0, t2_us=1.0)
        delta = 0.01
        grid = np.linspace(0.0, 1200.0, 121)
        res = ramsey(NU01, delta, dec, grid)
        expected = 0.5 * (1.0 + np.exp(-grid / 1000.0) * np.cos(2 * np.pi * delta * grid))
        assert np.abs(res.population - expected).max() <= 1e-3

    def test_zero_delay_composes_to_pi(self):
        dec = DecoherenceParams(t1_us=1.0, t2_us=1.0)
        res = ramsey(NU01, 0.02, dec, np.linspace(0.0, 500.0, 51))
        assert res.population[0] == pytest.approx(1.0, abs=1e-9)

    def test_long_t2_gives_undamped_fringes(self):
        dec = DecoherenceParams(t1_us=5e4, t2_us=1e5)
        grid = np.linspace(0.0, 400.0, 81)
        res = ramsey(NU01, 0.01, dec, grid)
        assert res.population.max() > 0.999
        assert res.population.min() < 0.001

    def test_degenerate_trace_reported(self):
        dec = DecoherenceParams(t1_us=5e4, t2_us=1e5)
        with pytest.raises(FitError):
            ramsey(NU01, 0.0, dec, np.linspace(0.0, 10.0, 11))


class TestT1Decay:
    def test_analytic_point(self):
        dec = DecoherenceParams(t1_us=1.0, t2_us=1.0)
        res = t1_decay(dec, np.array([0.0, 1000.0]))
        assert res.population[0] == pytest.approx(1.0, abs=1e-12)
        assert res.population[1] == pytest.approx(math.exp(-1.0), abs=1e-4)

    def test_flux_qubit_row(self):
        dec = DecoherenceParams(t1_us=10.0, t2_us=10.0)
        res = t1_decay(dec, np.array([1000.0]))
        assert res.population[0] == pytest.approx(0.9048, abs=1e-4)

    def test_fit_recovers_t1(self):
        dec = DecoherenceParams(t1_us=2.0, t2_us=2.0)
        res = t1_decay(dec, np.linspace(0.0, 6000.0, 61))
        assert res.fitted.t1_us == pytest.approx(2.0, rel=0.01)


class TestExperimentResult:
    def test_accepts_a_valid_trace(self):
        r = ExperimentResult(time_grid=[0.0, 1.0], population=[0.0, 1.0], fitted=FittedMetrics())
        assert r.population.dtype == float

    @pytest.mark.parametrize(
        "t, pop",
        [
            ([0.0, 1.0], [math.nan, 0.5]),
            ([0.0, 1.0], [0.5, math.nan]),
            ([0.0, math.nan], [0.5, 0.5]),
            ([0.0, math.inf], [0.5, 0.5]),
        ],
    )
    def test_non_finite_rejected(self, t, pop):
        with pytest.raises(ValidationError, match="must be finite"):
            ExperimentResult(time_grid=t, population=pop, fitted=FittedMetrics())


class TestQualityFactor:
    def test_reference_values(self):
        assert quality_factor(1.0, 20.0) == pytest.approx(6.28e4, rel=1e-3)
        assert quality_factor(10.0, 10.0) == pytest.approx(3.14e5, rel=1e-3)
        assert quality_factor(0.1, 10.0) == pytest.approx(3.14e3, rel=1e-3)

    def test_exact_arithmetic(self):
        assert quality_factor(1.0, 20.0) == math.pi * 1.0 * 1000.0 * 20.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            quality_factor(0.0, 1.0)
