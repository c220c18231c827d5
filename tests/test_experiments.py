"""Protocol tests: Rabi, Ramsey, T1 decay, quality factor."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from scqsim.charge import CpbParams, reduced_two_level
from scqsim import core
from scqsim.core import (
    ConvergenceError,
    DensityMatrix,
    HermitianOperator,
    ValidationError,
    evolve_lindblad,
)
from scqsim.coupled import DrivePulse
from scqsim import experiments
from scqsim.experiments import (
    DecoherenceParams,
    ExperimentResult,
    FitError,
    FittedMetrics,
    _fit_ramsey,
    _fit_t1,
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

    @pytest.mark.parametrize(
        "kw, name",
        [
            (dict(t1_us=5e-324, t2_us=5e-324), "t1_us"),
            (dict(t1_us=1.0, t2_us=5e-324), "t2_us"),
            (dict(t1_us=1e-300, t2_us=1e-320), "t2_us"),
        ],
    )
    def test_overflowing_rates_rejected(self, kw, name):
        # 1/T overflows to inf, and 1/T2 - 1/(2 T1) could become inf - inf = NaN
        with pytest.raises(ValidationError, match=f"^{name} = .* gives a non-finite rate 1/{name}$"):
            DecoherenceParams(**kw)

    def test_shortest_finite_rates_accepted(self):
        dec = DecoherenceParams(t1_us=1e-305, t2_us=1e-305)
        assert math.isfinite(dec.relaxation_rate) and math.isfinite(dec.dephasing_channel_rate)


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

    def test_overflowing_decay_rate_rejected(self):
        # a subnormal T1's rate 1/T1 overflows to inf; the parameters name
        # T1 before any trace is integrated
        with pytest.raises(ValidationError, match="t1_us = 5e-324 gives a non-finite rate"):
            rabi(qubit_h(), drive(0.05), DecoherenceParams(t1_us=5e-324, t2_us=5e-324), [0.0, 1.0])

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

    @pytest.mark.parametrize("time_us", [5e-7, 2e-7, 1e-7])
    def test_fast_channels_match_the_constant_generator(self, time_us):
        # at nu = 0 the drive is constant, so evolve_lindblad is the oracle;
        # a step density blind to the channels leaves RK4's stability region
        # (relaxation at 1e4 per ns needs about 4e5 steps per ns)
        dec = DecoherenceParams(t1_us=time_us, t2_us=time_us)
        grid = np.linspace(0.0, 1.0, 5)
        got = rabi(qubit_h(), drive(0.2, frequency=0.0), dec, grid).population
        h = HermitianOperator(0.5 * NU01 * experiments._SZ + 0.2 * core.SIGMA_X)
        rho0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        want = [r.population(1) for r in evolve_lindblad(h, dec.channels(), rho0, grid)]
        assert 0.0 < max(want) < 1e-6
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("dim", [1, 3])
    def test_qubit_of_other_dimension_rejected(self, dim):
        with pytest.raises(ValidationError, match="expects a two-level Hamiltonian"):
            rabi(HermitianOperator(np.eye(dim)), drive(0.1), None, [0.0, 1.0])

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

    def test_empty_time_grid_rejected(self):
        with pytest.raises(ValidationError, match="at least one time"):
            rabi(qubit_h(), drive(0.1), DecoherenceParams(t1_us=1.0, t2_us=1.0), [])

    def test_unknown_target_rejected(self):
        with pytest.raises(ValidationError):
            bad = DrivePulse(amplitude=0.1, frequency=NU01, duration=0.0, target="sigma_q")
            rabi(qubit_h(), bad, None, [0.0, 1.0])

    def test_closed_norm_drift_raises(self, monkeypatch):
        # each RK4 step gains 1e-5 of norm: a convergence failure, not a
        # population outside [0, 1]
        step_matrix = core._rk4_step_matrix
        monkeypatch.setattr(
            core, "_rk4_step_matrix", lambda *args: step_matrix(*args) * (1.0 + 1e-5)
        )
        with pytest.raises(ConvergenceError, match="lost .* of norm"):
            rabi(qubit_h(), drive(0.1), None, np.linspace(0.0, 3.0, 31))

    def test_duration_is_not_read(self):
        grid = np.linspace(0.0, 3.0, 31)
        short = DrivePulse(amplitude=0.1, frequency=NU01, duration=1.0, target="sigma_x")
        assert np.array_equal(
            rabi(qubit_h(), short, None, grid).population,
            rabi(qubit_h(), drive(0.1), None, grid).population,
        )


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

    def test_empty_delay_grid_rejected(self):
        dec = DecoherenceParams(t1_us=10.0, t2_us=1.0)
        with pytest.raises(ValidationError, match="at least one time"):
            ramsey(5.0, 0.002, dec, [])

    @pytest.mark.parametrize("nu01", [math.nan, math.inf])
    def test_non_finite_nu01_rejected_before_the_trace(self, nu01, monkeypatch):
        def no_trace(*args, **kwargs):
            raise AssertionError("evolved before checking nu01")

        monkeypatch.setattr(experiments, "_lindblad_trace", no_trace)
        with pytest.raises(ValidationError, match="nu01 must be finite"):
            ramsey(nu01, 0.002, DecoherenceParams(t1_us=10.0, t2_us=1.0), [0.0, 10.0])

    @pytest.mark.parametrize("nu01", [0.0, -5.0])
    def test_non_positive_nu01_rejected(self, nu01):
        with pytest.raises(ValidationError, match="nu01 must be > 0"):
            ramsey(nu01, 0.002, DecoherenceParams(t1_us=10.0, t2_us=1.0), [0.0, 10.0])

    def test_degenerate_trace_reported(self):
        dec = DecoherenceParams(t1_us=5e4, t2_us=1e5)
        with pytest.raises(FitError):
            ramsey(NU01, 0.0, dec, np.linspace(0.0, 10.0, 11))

    def test_zero_detuning_fits_exactly_zero(self):
        # the fringe-free trace makes Prony's system rank 1: no roundoff detuning
        res = ramsey(NU01, 0.0, DecoherenceParams(t1_us=10.0, t2_us=1.0), np.linspace(0.0, 2500.0, 101))
        assert res.fitted.detuning == 0.0
        assert res.fitted.t2_us == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("detuning", [0.02, -0.02, 0.19])
    def test_detuning_past_nyquist_rejected(self, detuning, monkeypatch):
        # on 25 ns delays 0.19 GHz aliases to 0.01 GHz; 0.02 GHz is the limit itself
        monkeypatch.setattr(experiments, "_lindblad_trace", None)
        with pytest.raises(ValidationError, match=r"^detuning \S+ GHz is at or past the Nyquist limit 1/\(2 h\) = 0.02 GHz of the 25 ns delay spacing$"):
            ramsey(NU01, detuning, DecoherenceParams(t1_us=10.0, t2_us=1.0), np.linspace(0.0, 2500.0, 101))

    def test_non_uniform_delays_rejected(self, monkeypatch):
        monkeypatch.setattr(experiments, "_lindblad_trace", None)
        grid = np.linspace(0.0, 2500.0, 101)
        grid[50] += 1e-3
        with pytest.raises(ValidationError, match=r"^Ramsey delays must be uniformly spaced \(within 1e-06 relative\)$"):
            ramsey(NU01, 0.002, DecoherenceParams(t1_us=10.0, t2_us=1.0), grid)

    def test_uniform_delays_within_rounding_accepted(self):
        # a linspace far from t = 0 has spacings that differ in their last bits
        grid = np.linspace(1e4 / 3.0, 1e4 / 3.0 + 2500.0, 101)
        assert np.ptp(np.diff(grid)) > 0
        res = ramsey(NU01, 0.002, DecoherenceParams(t1_us=10.0, t2_us=1.0), grid)
        assert res.fitted.detuning == pytest.approx(0.002, rel=1e-9)

    @pytest.mark.parametrize("points", [1, 2, 3])
    def test_fewer_than_four_delays_rejected(self, points, monkeypatch):
        monkeypatch.setattr(experiments, "_lindblad_trace", None)
        with pytest.raises(ValidationError, match=f"^a Ramsey fit needs at least 4 delays, got {points}$"):
            ramsey(NU01, 0.002, DecoherenceParams(t1_us=10.0, t2_us=1.0), np.linspace(0.0, 100.0, points))

    def test_zero_spacing_grid_reaches_the_contrast_check(self):
        # five delays at 0: uniform, h = 0 resolves any detuning, and the flat
        # trace is a FitError
        with pytest.raises(FitError, match="^degenerate Ramsey trace"):
            ramsey(NU01, 0.002, DecoherenceParams(t1_us=10.0, t2_us=1.0), [0.0] * 5)


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

    def test_empty_time_grid_rejected(self):
        dec = DecoherenceParams(t1_us=2.0, t2_us=2.0)
        with pytest.raises(ValidationError, match="at least one time"):
            t1_decay(dec, [])
        # the propagator shares the one time-grid check: an empty grid is refused
        h0 = HermitianOperator(np.zeros((2, 2)))
        rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(ValidationError, match="at least one time"):
            evolve_lindblad(h0, dec.channels(), rho0, [])

    def test_zero_span_trace_cannot_be_fitted(self):
        # three samples at t = 0 carry no information about T1
        with pytest.raises(FitError, match="T1 decay fit failed: singular"):
            t1_decay(DecoherenceParams(t1_us=2.0, t2_us=2.0), [0.0, 0.0, 0.0])


def ramsey_fringe(tau, t2_ns, delta):
    return 0.5 * (1.0 + np.exp(-tau / t2_ns) * np.cos(2.0 * math.pi * delta * tau))


def t1_curve(t, t1_ns):
    return np.exp(-t / t1_ns)


class TestFitOracles:
    """The linear fits against exact model data."""

    TAU = np.linspace(0.0, 2500.0, 101)
    T = np.linspace(0.0, 6000.0, 61)

    @pytest.mark.parametrize("t2_ns, delta", [(1000.0, 0.002), (600.0, 0.0035), (2800.0, 0.0012)])
    def test_ramsey_recovers_exact_parameters(self, t2_ns, delta):
        p = _fit_ramsey(self.TAU, ramsey_fringe(self.TAU, t2_ns, delta))
        np.testing.assert_allclose(p, [t2_ns, delta], rtol=1e-10)

    @pytest.mark.parametrize("t1_ns", [500.0, 2000.0, 4800.0])
    def test_t1_recovers_exact_parameter(self, t1_ns):
        pop = t1_curve(self.T, t1_ns)
        fit = _fit_t1(self.T, pop, pop)
        assert fit == pytest.approx(t1_ns, rel=1e-10)

    @pytest.mark.parametrize("t2_ns", [300.0, 1000.0, 5000.0])
    @pytest.mark.parametrize("delta", [0.0, 1e-9, 1e-7, 1e-5, 1e-3, 2e-3, 3.5e-3, 0.0199])
    def test_ramsey_exact_recovery_across_detunings(self, delta, t2_ns):
        # from no fringe to just inside the Nyquist limit 0.02 GHz of the
        # 25 ns grid; below 1e-5 GHz the fringe's curvature is lost to
        # rounding, so only T2 is held there
        t2, fit_delta = _fit_ramsey(self.TAU, ramsey_fringe(self.TAU, t2_ns, delta))
        assert t2 == pytest.approx(t2_ns, rel=1e-11 if delta >= 1e-5 else 1e-9)
        if delta == 0.0:
            assert fit_delta == 0.0
        elif delta >= 1e-5:
            assert fit_delta == pytest.approx(delta, rel=1e-10)

    def test_t1_without_resolved_decay_is_refused(self):
        # ln P_e is 0 everywhere: a zero slope, not an infinite T1
        with pytest.raises(FitError, match="^T1 decay fit failed: no resolved decay"):
            _fit_t1(self.T, np.ones(self.T.size), np.ones(self.T.size))

    def test_non_positive_samples_are_dropped(self):
        pop = t1_curve(self.T, 2000.0)
        pop[[5, 17]] = [0.0, -1e-12]
        assert _fit_t1(self.T, pop, pop) == pytest.approx(2000.0, rel=1e-12)


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

    @pytest.mark.parametrize(
        "t, pop, message",
        [
            ([0.0, 1.0], [0.5], "sizes differ"),
            ([0.0, 1.0], [0.5, 1.0 + 1e-8], r"within \[0, 1\]"),
            ([0.0, 1.0], [-1e-8, 0.5], r"within \[0, 1\]"),
        ],
        ids=["sizes", "above-1", "below-0"],
    )
    def test_inconsistent_trace_rejected(self, t, pop, message):
        with pytest.raises(ValidationError, match=message):
            ExperimentResult(time_grid=t, population=pop, fitted=FittedMetrics())

    def test_empty_trace_rejected(self):
        with pytest.raises(ValidationError, match="at least one time point"):
            ExperimentResult(time_grid=[], population=[], fitted=FittedMetrics())


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

    @pytest.mark.parametrize("t2, nu", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)])
    def test_non_finite_rejected(self, t2, nu):
        with pytest.raises(ValidationError, match="must be finite"):
            quality_factor(t2, nu)
