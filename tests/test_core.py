"""Core linear algebra and propagation tests."""

import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import gammaln

from scqsim.cavity import JaynesCummingsParams
from scqsim import core
from scqsim.charge import CpbParams
from scqsim.coupled import DrivePulse
from scqsim.core import (
    SIGMA_X,
    SIGMA_Z,
    DIMENSION_CAP,
    ConvergenceError,
    DensityMatrix,
    FitError,
    HermitianOperator,
    QuantumState,
    ValidationError,
    _CHUNK_STEPS,
    _checked_states,
    _hermitian,
    _linear_fit,
    _liouvillian,
    _rk4_driven,
    _unitary_trace,
    basis_state,
    evolve_lindblad,
    evolve_unitary,
    hermitian_eigen,
)
from scqsim.flux import ThreeJunctionParams


def herm(m):
    return HermitianOperator(np.asarray(m, dtype=complex))


class TestTypes:
    def test_state_norm_enforced(self):
        with pytest.raises(ValidationError):
            QuantumState(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("amps", [[np.nan, np.nan], [np.nan, 0.0], [np.inf, 0.0]])
    def test_non_finite_state_rejected(self, amps):
        with pytest.raises(ValidationError, match="non-finite amplitudes"):
            QuantumState(amps)

    def test_state_is_immutable(self):
        psi = basis_state(3, 0)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.5

    def test_operator_must_be_hermitian(self):
        with pytest.raises(ValidationError):
            herm([[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: herm(np.zeros((0, 0))), "dimension must be >= 1"),
            (lambda: QuantumState([]), "state needs at least one amplitude"),
            (lambda: herm([[1e200, 1e200], [0.0, 1e200]]), "not Hermitian"),
        ],
        ids=["empty-matrix", "no-amplitudes", "non-hermitian-1e200"],
    )
    def test_refused_with_its_message(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    @pytest.mark.parametrize("size", [1.0, 1e150, 1e200, 1e300])
    def test_hermiticity_tolerance_scales_with_the_largest_entry(self, size):
        # 1e-12 d max|m_ij|: never below 1e-12 max(||m||_F, 1), and finite
        # where the Frobenius norm overflows (entries above about 1e154)
        herm([[size, size], [size * (1.0 + 1.9e-12), size]])
        with pytest.raises(ValidationError, match="not Hermitian"):
            herm([[size, size], [size * (1.0 + 2.1e-12), size]])

    def test_operator_must_be_square(self):
        with pytest.raises(ValidationError):
            herm(np.zeros((2, 3)))

    def test_dimension_cap(self):
        with pytest.raises(ValidationError):
            herm(np.zeros((DIMENSION_CAP + 1, DIMENSION_CAP + 1)))

    def test_density_matrix_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([0.7, 0.7]))

    def test_density_matrix_positivity(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.diag([1.5, -0.5]))


class TestEigen:
    def test_sigma_z(self):
        dec = hermitian_eigen(herm(SIGMA_Z))
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_sigma_x(self):
        dec = hermitian_eigen(herm(SIGMA_X))
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)
        # eigenvectors (|0> -+ |1>)/sqrt2 up to phase, ascending eigenvalue
        targets = {0: np.array([1.0, -1.0]) / np.sqrt(2.0), 1: np.array([1.0, 1.0]) / np.sqrt(2.0)}
        for k, target in targets.items():
            overlap = abs(np.vdot(target, dec.eigenvectors[:, k]))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_two_level_at_degeneracy(self):
        # eps sz - (Ej/2) sx with eps = 0, Ej = 10 GHz
        h = herm(-5.0 * SIGMA_X)
        dec = hermitian_eigen(h)
        np.testing.assert_allclose(dec.eigenvalues, [-5.0, 5.0], atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 17, 64, 256, 512])
    def test_random_hermitian_residual(self, dim):
        rng = np.random.default_rng(dim)
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = herm((raw + raw.conj().T) / 2)
        dec = hermitian_eigen(h)
        hnorm = np.linalg.norm(h.entries, 2)
        residual = np.linalg.norm(h.entries @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues, 2)
        assert residual <= 1e-10 * hnorm
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        np.testing.assert_allclose(gram, np.eye(dim), atol=1e-10)
        assert np.all(np.diff(dec.eigenvalues) >= -1e-14)

    @pytest.mark.parametrize("angle, raises", [(0.5e-8, False), (2e-8, True)])
    def test_perturbed_eigenvector_raises(self, monkeypatch, angle, raises):
        # spectrum -100, 1, 2: ||H||_2 = 100 is the largest |w|, so the residual
        # bound is 1e-8.  Turning the w = 1 vector by `angle` towards the w = 2
        # one leaves a residual of sin(angle) * (2 - 1).
        eigh = np.linalg.eigh

        def turned(a):
            w, v = eigh(a)
            v = v.copy()
            v[:, 1] = np.cos(angle) * v[:, 1] + np.sin(angle) * v[:, 2]
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", turned)
        h = herm(np.diag([-100.0, 1.0, 2.0]))
        if raises:
            with pytest.raises(ConvergenceError, match="residual 2.000e-08 exceeds"):
                hermitian_eigen(h)
        else:
            assert hermitian_eigen(h).eigenvectors[1, 1] == pytest.approx(1.0)


class TestUnitaryEvolution:
    def test_zero_hamiltonian(self):
        psi = QuantumState(np.array([0.6, 0.8j]))
        out = evolve_unitary(herm(np.zeros((2, 2))), psi, 7.3)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-14)

    def test_precession_period(self):
        # H = (nu01/2) sz, nu01 = 10 GHz: period 1/nu01 = 0.1 ns
        h = herm(5.0 * SIGMA_Z)
        psi0 = QuantumState(np.array([1.0, 1.0]) / np.sqrt(2.0))
        out = evolve_unitary(h, psi0, 0.1)
        assert abs(psi0.overlap(out)) == pytest.approx(1.0, abs=1e-12)

    def test_two_level_rabi_formula(self):
        # H = -(Ej/2) sx from |0>: P1(t) = sin^2(pi Ej t); exact propagator
        ej = 1.0
        h = herm(-(ej / 2.0) * SIGMA_X)
        psi0 = basis_state(2, 0)
        for t in (0.1, 0.25, 0.5, 0.8):
            out = evolve_unitary(h, psi0, t)
            assert out.population(1) == pytest.approx(np.sin(np.pi * ej * t) ** 2, abs=1e-12)
        assert evolve_unitary(h, psi0, 0.5).population(1) == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = herm((raw + raw.conj().T) / 2)
        amps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        psi = QuantumState(amps / np.linalg.norm(amps))
        out = evolve_unitary(h, psi, 3.7)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-10)

    def test_composition(self):
        h = herm(np.array([[1.0, 0.3], [0.3, -0.4]]))
        psi = basis_state(2, 0)
        one_shot = evolve_unitary(h, psi, 2.9)
        stepped = evolve_unitary(h, evolve_unitary(h, psi, 1.2), 1.7)
        np.testing.assert_allclose(one_shot.amplitudes, stepped.amplitudes, atol=1e-9)

    def test_inner_product_preserved(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = herm((raw + raw.conj().T) / 2)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        sa = QuantumState(a / np.linalg.norm(a))
        sb = QuantumState(b / np.linalg.norm(b))
        before = abs(sa.overlap(sb))
        after = abs(evolve_unitary(h, sa, 4.2).overlap(evolve_unitary(h, sb, 4.2)))
        assert after == pytest.approx(before, abs=1e-9)

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            evolve_unitary(herm(SIGMA_Z), basis_state(2, 0), -1.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValidationError, match="t must be finite"):
            evolve_unitary(herm(SIGMA_Z), basis_state(2, 0), t)

    @pytest.mark.parametrize("scale", [1e300, 1e100, 1e12])
    def test_unresolved_phase_refused(self, scale):
        # 2 pi |E| t past 2**33 rad is rounded past 1e-6 rad: at 1e12 GHz and
        # 3 ns the resonant P1 once read 0.999997381185526 where it is 1
        h, psi0 = herm(scale * SIGMA_X), basis_state(2, 0)
        with pytest.raises(ConvergenceError, match="not resolved in double precision"):
            evolve_unitary(h, psi0, 3.0)
        with pytest.raises(ConvergenceError, match="not resolved in double precision"):
            _unitary_trace(h, psi0, np.array([0.0, 3.0]))

    def test_phase_cap_is_2_to_the_33_rad(self):
        # |E| = 1/(2 pi) GHz: the phase equals t, so the cap falls at t = 2**33 ns
        # (to the rounding of 2 pi and of the eigenvalues)
        h, psi0 = herm(np.diag([-1.0, 1.0]) / (2.0 * math.pi)), basis_state(2, 0)
        assert evolve_unitary(h, psi0, 2.0**33 * (1.0 - 2.0**-50)).population(0) == pytest.approx(1.0, abs=1e-6)
        with pytest.raises(ConvergenceError, match="cap 2\\*\\*33 rad"):
            evolve_unitary(h, psi0, 2.0**33 * (1.0 + 2.0**-50))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            evolve_unitary(herm(SIGMA_Z), basis_state(3, 0), 1.0)
        with pytest.raises(ValidationError):
            _unitary_trace(herm(SIGMA_Z), basis_state(3, 0), np.array([1.0]))

    def test_trace_applies_the_propagator_from_one_eigendecomposition(self, monkeypatch):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = herm((raw + raw.conj().T) / 2)
        psi0 = basis_state(5, 2)
        grid = np.linspace(0.0, 3.0, 7)
        calls = []
        eigen = core.hermitian_eigen
        monkeypatch.setattr(core, "hermitian_eigen", lambda op: calls.append(op) or eigen(op))
        trace = _unitary_trace(h, psi0, grid)
        assert len(calls) == 1 and trace.shape == (7, 5)
        for t, amps in zip(grid, trace):
            exact = expm(-2j * np.pi * t * h.entries) @ psi0.amplitudes
            assert np.abs(amps - exact).max() <= 1e-12

    def test_two_hundred_levels_over_two_hundred_times_at_once(self):
        # one eigendecomposition and one (points, d) x (d, d) product: a d x d
        # propagator per time took 0.15 s warm and 1.1 s cold on 2 CPUs, this 0.01 s
        rng = np.random.default_rng(200)
        raw = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
        h = herm((raw + raw.conj().T) / 2)
        amps = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        psi0 = QuantumState(amps / np.linalg.norm(amps))
        grid = np.linspace(0.0, 2.0, 200)
        start = time.perf_counter()
        trace = _unitary_trace(h, psi0, grid)
        assert time.perf_counter() - start < 0.25
        for k in (1, 117, 199):
            exact = expm(-2j * np.pi * grid[k] * h.entries) @ psi0.amplitudes
            assert np.abs(trace[k] - exact).max() <= 1e-10

    def test_norm_drift_is_a_convergence_error_at_its_first_time(self, monkeypatch):
        # eigenvectors 1e-9 too long still pass the residual check, but every
        # state comes out 2e-9 too long, past the 1e-12 norm bound
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0], eigh(a)[1] * (1.0 + 1e-9)))
        h, psi0 = herm(np.array([[1.0, 0.3], [0.3, -0.4]])), basis_state(2, 0)
        message = r"^state norm 1\.00000000[12]\d* deviates from 1 beyond 1e-12 at t = 0.5 ns$"
        with pytest.raises(ConvergenceError, match=message):
            _unitary_trace(h, psi0, np.array([0.5, 1.0, 2.0]))
        with pytest.raises(ConvergenceError, match="at t = 2.5 ns"):
            evolve_unitary(h, psi0, 2.5)


SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|


def traced_peak(call):
    """(call(), the peak bytes traced by tracemalloc while it ran)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLindblad:
    def test_amplitude_damping(self):
        t1 = 800.0  # ns
        rho0 = DensityMatrix(np.diag([0.0, 1.0]))
        grid = np.linspace(0.0, 2000.0, 9)[1:]
        rhos = evolve_lindblad(herm(np.zeros((2, 2))), [(SIGMA_MINUS, 1.0 / t1)], rho0, grid)
        for t, rho in zip(grid, rhos):
            exact = np.exp(-t / t1)
            assert rho.population(1) == pytest.approx(exact, rel=1e-6)

    def test_pure_dephasing(self):
        t_phi = 500.0  # ns; sz channel at rate 1/(2 Tphi)
        plus_x = np.array([1.0, 1.0]) / np.sqrt(2.0)
        rho0 = DensityMatrix(np.outer(plus_x, plus_x))
        grid = np.linspace(0.0, 1200.0, 7)[1:]
        rhos = evolve_lindblad(
            herm(np.zeros((2, 2))), [(SIGMA_Z, 1.0 / (2.0 * t_phi))], rho0, grid
        )
        for t, rho in zip(grid, rhos):
            assert abs(rho.entries[0, 1]) == pytest.approx(0.5 * np.exp(-t / t_phi), rel=1e-6)

    def test_zero_rates_match_unitary(self):
        h = herm(np.array([[0.0, -2.5], [-2.5, 0.0]]))
        psi0 = basis_state(2, 0)
        rho0 = psi0.density_matrix()
        grid = np.linspace(0.0, 5.0, 6)[1:]
        rhos = evolve_lindblad(h, [], rho0, grid)
        for t, rho in zip(grid, rhos):
            psi = evolve_unitary(h, psi0, t)
            exact = np.outer(psi.amplitudes, psi.amplitudes.conj())
            np.testing.assert_allclose(rho.entries, exact, atol=1e-8)

    def test_trajectory_invariants(self):
        h = herm(np.array([[1.0, 0.2 - 0.1j], [0.2 + 0.1j, -1.0]]))
        rho0 = DensityMatrix(np.diag([0.3, 0.7]))
        grid = np.linspace(0.0, 15.0, 6)
        rhos = evolve_lindblad(
            h, [(SIGMA_MINUS, 1e-2), (SIGMA_Z, 5e-3)], rho0, grid
        )
        for rho in rhos:
            m = rho.entries
            assert abs(np.trace(m) - 1.0) < 1e-8
            assert np.abs(m - m.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(m).min() > -1e-7

    def test_verify_agrees_with_unverified(self):
        # the extra-squaring check does not change the returned states
        h = herm(np.array([[0.5, 0.1], [0.1, -0.5]]))
        rho0 = DensityMatrix(np.diag([0.0, 1.0]))
        grid = [10.0, 20.0]
        a = evolve_lindblad(h, [(SIGMA_MINUS, 1e-3)], rho0, grid, verify=True)
        b = evolve_lindblad(h, [(SIGMA_MINUS, 1e-3)], rho0, grid, verify=False)
        for x, y in zip(a, b):
            assert np.array_equal(x.entries, y.entries)

    def test_negative_rate_rejected(self):
        rho0 = DensityMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(ValidationError):
            evolve_lindblad(herm(np.zeros((2, 2))), [(SIGMA_MINUS, -0.1)], rho0, [1.0])

    def test_dimension_mismatch(self):
        rho0 = DensityMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(ValidationError):
            evolve_lindblad(herm(np.zeros((3, 3))), [], rho0, [1.0])

    def test_propagator_is_unitary(self):
        # the closed trace of each basis state, side by side, is exp(-2 pi i H t)
        h = herm(np.array([[2.0, 1.0], [1.0, -2.0]]))
        u = np.column_stack([_unitary_trace(h, basis_state(2, k), np.array([1.3]))[0] for k in (0, 1)])
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(u, expm(-2j * np.pi * 1.3 * h.entries), atol=1e-12)

    @pytest.mark.parametrize(
        "channel, message",
        [
            ((SIGMA_MINUS, np.nan), "channel 1 rate must be finite, got nan"),
            ((SIGMA_MINUS, np.inf), "channel 1 rate must be finite, got inf"),
            (([[0.0, np.nan], [0.0, 0.0]], 0.1), "channel 1 jump operator has non-finite entries"),
            ((np.eye(3), 0.1), r"jump operator shape \(3, 3\) != H shape \(2, 2\)"),
        ],
    )
    def test_non_finite_channel_rejected(self, channel, message):
        # a NaN rate used to be dropped silently, giving the closed-system answer
        rho0 = DensityMatrix(np.diag([0.0, 1.0]))
        with pytest.raises(ValidationError, match=message):
            evolve_lindblad(herm(np.zeros((2, 2))), [(SIGMA_Z, 0.1), channel], rho0, [1.0])

    def test_all_zero_grid_returns_rho0(self):
        h = herm(np.array([[1.0, 0.2 - 0.1j], [0.2 + 0.1j, -1.0]]))
        rho0 = DensityMatrix(np.array([[0.3, 0.1j], [-0.1j, 0.7]]))
        rhos = evolve_lindblad(h, [(SIGMA_MINUS, 0.3)], rho0, [0.0, 0.0, 0.0])
        assert len(rhos) == 3
        for rho in rhos:
            assert np.array_equal(rho.entries, rho0.entries)

    def test_memory_grows_with_the_returned_states_only(self):
        # 4000 grid times at d = 8: the chain holds its output, the step
        # exponentials of the grid's distinct spacings and the Liouvillian,
        # and the returned states are views of the output
        rng = np.random.default_rng(1)
        d = 8
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = 0.018 * (a + a.conj().T)
        channels = [(np.diag(np.sqrt(np.arange(1.0, d)), 1), 0.05)]
        rho0 = DensityMatrix(np.diag(np.eye(d)[-1]))
        grid = np.linspace(0.0, 1.0, 4000)
        spans = np.unique(np.diff(grid, prepend=0.0)).size
        step_bytes = (spans + 4) * d**4 * 16
        rhos, peak = traced_peak(lambda: evolve_lindblad(HermitianOperator(h), channels, rho0, grid, verify=False))
        states = sum(rho.entries.nbytes for rho in rhos)
        assert spans > 1 and step_bytes < 0.5 * states
        assert peak <= 1.05 * states + step_bytes

    def test_verify_failure_names_the_first_bad_time(self, monkeypatch):
        # degree 5 and no squaring for ||tau L|| ~ 30, far too few; one more
        # squaring gives another answer.  The zero span at t = 0 is the
        # identity both ways, so the first bad time is 1 ns
        monkeypatch.setattr(core, "_TAYLOR_THETA", {5: 1e3})
        rho0 = DensityMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(ConvergenceError, match=r"disagreement \S+ > 1e-7 at t = 1.0 ns"):
            evolve_lindblad(herm(2.5 * SIGMA_X), [], rho0, [0.0, 1.0, 2.0])

    def test_one_step_exponential_per_distinct_spacing(self, monkeypatch):
        # leading zeros and a repeated spacing: spans 0, 0.25 and 0.5, the
        # last two used twice each, plus a second set at one more squaring
        calls = []
        expm_ = core._expm
        monkeypatch.setattr(core, "_expm", lambda a, extra=0: calls.append(extra) or expm_(a, extra))
        rho0 = DensityMatrix(np.diag([0.0, 1.0]))
        grid = [0.0, 0.0, 0.25, 0.5, 1.0, 1.5]
        evolve_lindblad(herm(0.3 * SIGMA_X), [(SIGMA_MINUS, 0.2)], rho0, grid, verify=False)
        assert calls == [0, 0, 0]
        calls.clear()
        evolve_lindblad(herm(0.3 * SIGMA_X), [(SIGMA_MINUS, 0.2)], rho0, grid)
        assert sorted(calls) == [0, 0, 0, 1, 1, 1]

    def test_fast_ramsey_hamiltonian_runs_at_once(self):
        # Ramsey's drive-frame H = (delta/2) sz at delta = 65536 GHz over 1 ns:
        # a few squarings more, not minutes.  Closed form: the populations
        # relax at 1/T1, the coherence turns at 2 pi delta and decays at 1/T2
        from scqsim.experiments import _RX90, _SZ, DecoherenceParams

        delta, dec = 65536.0, DecoherenceParams(t1_us=10.0, t2_us=1.0)
        psi = _RX90 @ np.array([1.0, 0.0], dtype=complex)
        rho0 = np.outer(psi, psi.conj())
        grid = np.linspace(0.0, 1.0, 7)
        start = time.perf_counter()
        rhos = evolve_lindblad(herm(0.5 * delta * _SZ), dec.channels(), DensityMatrix(rho0), grid)
        assert time.perf_counter() - start < 1.0
        for t, rho in zip(grid, rhos):
            excited = rho0[1, 1].real * np.exp(-t * dec.relaxation_rate)
            coherence = rho0[0, 1] * np.exp(2j * np.pi * delta * t - t / (1000.0 * dec.t2_us))
            exact = np.array([[1.0 - excited, coherence], [coherence.conjugate(), excited]])
            np.testing.assert_allclose(rho.entries, exact, atol=1e-9)


def random_system(seed, dim, n_channels):
    """Random Hermitian H, channels with rates in [0, 0.5] and a density matrix."""
    rng = np.random.default_rng(seed)

    def cmat():
        return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))

    m = cmat()
    h = 0.5 * (m + m.conj().T)
    channels = [(cmat(), float(rng.uniform(0.0, 0.5))) for _ in range(n_channels)]
    a = cmat()
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return h, channels, 0.5 * (rho + rho.conj().T)


def lindblad_superoperator(h, channels):
    """Row-major vec(rho) generator, using vec(A X B) = (A (x) B^T) vec(X)."""
    eye = np.eye(h.shape[0])
    s = -2j * np.pi * (np.kron(h, eye) - np.kron(eye, h.T))
    for L, rate in channels:
        ldl = L.conj().T @ L
        s += rate * (np.kron(L, L.conj()) - 0.5 * np.kron(ldl, eye) - 0.5 * np.kron(eye, ldl.T))
    return s


SYSTEMS = dict(
    seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), n_channels=st.integers(0, 3)
)


def superoperator_exponential(h, channels, rho, t):
    """scipy's Pade exp(t S) applied to vec(rho): the reference for evolve_lindblad."""
    dim = h.shape[0]
    return (expm(lindblad_superoperator(h, channels) * t) @ rho.ravel()).reshape(dim, dim)


def backward_error_theta(m, terms=600, u=2.0**-53):
    """theta_m of Al-Mohy & Higham (2011): the largest theta with h(theta)/theta <= u.

    h(x) = sum_{k>m} |c_k| x^k, where log(e^-x T_m(x)) = sum_k c_k x^k and
    T_m is the degree-m Taylor polynomial of e^x.  The series f = e^-x T_m
    has f_0 = 1, f_k = 0 for 1 <= k <= m and f_k = (-1)^(k-m) C(k-1, m)/k!
    beyond; c = log f follows from k c_k = k f_k - sum_i i c_i f_(k-i).
    """
    k = np.arange(terms)
    f = np.zeros(terms)
    f[0] = 1.0
    high = k[m + 1:]
    f[m + 1:] = (-1.0) ** (high - m) * np.exp(
        gammaln(high) - gammaln(m + 1) - gammaln(high - m) - gammaln(high + 1)
    )
    c = np.zeros(terms)
    for n in range(m + 1, terms):
        i = np.arange(m + 1, max(m + 1, n - m))
        c[n] = f[n] - np.dot(i * c[i], f[n - i]) / n
    size = np.abs(c[m + 1:])
    keep = size > 0
    log_size, power = np.log(size[keep]), (k[m + 1:] - 1)[keep]
    lo, hi = 0.0, 12.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.exp(log_size + power * np.log(mid)).sum() <= u:
            lo = mid
        else:
            hi = mid
    return lo


class TestTaylorAction:
    """The step exponential: Taylor polynomials of degree m, scaled by 2^-k and squared k times."""

    def test_theta_table_matches_the_backward_error_series(self):
        # the table keeps three digits of each theta_m
        for m, theta in core._TAYLOR_THETA.items():
            assert theta == pytest.approx(backward_error_theta(m), rel=2e-3)

    @pytest.mark.parametrize(
        "norm, plan",
        [
            (0.0, (5, 0)),
            (2e-3, (5, 0)),
            (0.5, (10, 2)),
            (9.0, (10, 6)),
            (30.0, (10, 8)),
            (0.144, (10, 0)),  # theta_10 itself needs no squaring
            (1e6, (10, 23)),
            (math.inf, (50, math.inf)),
            (math.nan, (50, math.inf)),
            (1e307, (50, math.inf)),  # norm / theta_5 overflows
        ],
    )
    def test_plan_takes_the_fewest_products(self, norm, plan):
        assert core._expm_plan(norm) == plan

    def test_every_degree_bounds_its_rounding(self):
        # a Taylor polynomial's terms peak near e^theta / sqrt(2 pi theta)
        # before they cancel
        for theta in core._TAYLOR_THETA.values():
            assert 2.0**-53 * math.exp(theta) / math.sqrt(2.0 * math.pi * theta) <= 1e-13

    @settings(max_examples=30, deadline=None)
    @given(**SYSTEMS, scale=st.sampled_from([1e-3, 1.0, 30.0, 1e3]))
    def test_matches_scipy_expm(self, seed, dim, n_channels, scale):
        # both are backward stable, so they differ by a few u ||a||_1
        h, channels, _ = random_system(seed, dim, n_channels)
        a = scale * _liouvillian(h, channels)
        assert np.abs(core._expm(a) - expm(a)).max() <= 1e-14 * max(1.0, np.linalg.norm(a, 1))

    def test_a_step_exponential_takes_m_plus_k_products(self):
        # ||a||_1 = nu = 171 plans degree 10 and 11 squarings
        nu = 20 * core._TAYLOR_THETA[50]
        assert core._expm_plan(nu) == (10, 11)
        products = []

        class Counted(np.ndarray):
            def __matmul__(self, other):
                products.append(1)
                return super().__matmul__(other)

        grid = np.array([0.0, 0.3, 1.0])
        got = [core._expm(np.array([[1j * nu * t]]).view(Counted))[0, 0] for t in grid]
        np.testing.assert_allclose(got, np.exp(1j * nu * grid), atol=1e-12)
        assert len(products) == sum(m + k for m, k in map(core._expm_plan, nu * grid)) == 5 + 19 + 21


class FirstProduct(Exception):
    """Raised by ``first_product``, an ``_expm``, at its first call: its plan was admitted."""


def first_product(a, extra=0):
    raise FirstProduct


class TestWorkCap:
    """Each trace plan is checked against its cap before any step."""

    @pytest.mark.parametrize(
        "count, refused",
        [(0.0, False), (core.WORK_CAP, False), (core.WORK_CAP + 1, True), (math.inf, True), (math.nan, True)],
    )
    def test_counts_above_the_cap_or_not_finite_are_refused(self, count, refused):
        if refused:
            with pytest.raises(ValidationError, match=r"^a trace to t = 2 ns needs \S+ steps, above the cap of 100000$"):
                core._check_work("a", 2.0, count, "steps")
        else:
            core._check_work("a", 2.0, count, "steps")

    ROTATION = 2.5 * SIGMA_Z  # ||L||_1 = 4 pi 2.5

    def rotation_trace(self, stop, verify):
        rho0 = DensityMatrix(np.diag([0.5, 0.5]))
        return evolve_lindblad(herm(self.ROTATION), [], rho0, [0.0, stop], verify=verify)

    @pytest.mark.parametrize("stop", [1e300, 1e308])
    def test_taylor_plan_refused_before_any_term(self, stop, monkeypatch):
        # 1e308 ||L|| overflows to inf in the plan, which is refused all the same
        monkeypatch.setattr(core, "_expm", first_product)
        with pytest.raises(ValidationError, match=r"Lindblad trace to t = \S+ ns needs \S+ squarings, above the cap of 26$"):
            self.rotation_trace(stop, False)

    def test_the_largest_plan_allowed_is_the_squaring_cap(self, monkeypatch):
        # a norm of theta_10 2^26 plans (10, 26); an ulp more needs 27 squarings
        monkeypatch.setattr(core, "_expm", first_product)
        norm = np.linalg.norm(_liouvillian(self.ROTATION, []), 1)
        stop = core._TAYLOR_THETA[10] * 2.0**core._SQUARING_CAP / norm
        assert core._expm_plan(stop * (1 - 1e-9) * norm) == (10, 26)
        with pytest.raises(FirstProduct):
            self.rotation_trace(stop * (1 - 1e-9), False)
        with pytest.raises(ValidationError, match=r"needs 27 squarings, above the cap of 26$"):
            self.rotation_trace(stop * (1 + 1e-9), False)

    def test_the_check_counts_the_refined_plan(self, monkeypatch):
        # verify's chain takes one squaring more
        monkeypatch.setattr(core, "_expm", first_product)
        norm = np.linalg.norm(_liouvillian(self.ROTATION, []), 1)
        stop = core._TAYLOR_THETA[10] * 2.0**core._SQUARING_CAP / norm * (1 - 1e-9)
        with pytest.raises(FirstProduct):
            self.rotation_trace(stop, False)
        with pytest.raises(ValidationError, match=r"needs 27 squarings, above the cap of 26$"):
            self.rotation_trace(stop, True)

    def test_liouville_bound_refused_before_any_product(self, monkeypatch):
        # d = 25 (625) is refused before the Liouvillian is built; d = 24
        # (576) gets as far as building it
        monkeypatch.setattr(core, "_liouvillian", first_product)
        message = r"^Liouville space of 25 levels gives 625 states, above the dense-storage cap 576$"
        with pytest.raises(ValidationError, match=message):
            evolve_lindblad(herm(np.zeros((25, 25))), [], DensityMatrix(np.eye(25) / 25), [1.0])
        with pytest.raises(FirstProduct):
            evolve_lindblad(herm(np.zeros((24, 24))), [], DensityMatrix(np.eye(24) / 24), [1.0])

    @pytest.mark.parametrize(
        "period, steps_per_ns, stop, message",
        [
            (1e-300, 2.5e302, 1.0, "needs 1e+300 drive periods, above the cap of 4.61169e+18"),
            (0.1, 2500.0, 1e300, "needs 1e+301 drive periods"),
            (math.inf, 2500.0, 1e300, "needs 2.5e+303 drive periods"),  # a constant drive
            (1.0, 1e6, 2.0, "needs 1e+06 RK4 steps per drive period, above the cap of 100000"),
            # one step over the cap reads above it
            (1.0, 100001.0, 2.0, "needs 100001 RK4 steps per drive period, above the cap of 100000"),
            (0.1, math.inf, 1.0, "needs inf drive periods"),
        ],
    )
    def test_rk4_plan_refused_before_any_step(self, period, steps_per_ns, stop, message):
        def unreachable(times):
            raise AssertionError("an RK4 step was built")

        a0 = -2j * np.pi * np.diag([-5.0, 5.0])
        with pytest.raises(ValidationError, match=re.escape(message)):
            _rk4_driven(a0, a0, unreachable, period, np.eye(2), [0.0, stop], steps_per_ns)

    def test_a_long_period_counts_the_steps_the_grid_reaches(self):
        # 1e6 steps a period, but the grid ends after 1000 of them
        a0 = -2j * np.pi * np.diag([-0.5, 0.5])
        psi = _rk4_driven(a0, 0 * a0, np.cos, 1.0, np.eye(2), [0.0, 1e-3], 1e6)[-1]
        exact = np.diag(np.exp(-2j * np.pi * np.array([-0.5, 0.5]) * 1e-3))  # the phases of diagonal H
        np.testing.assert_allclose(psi, exact, atol=1e-12)


class TestPropagatorProperties:
    @settings(max_examples=60, deadline=None)
    @given(**SYSTEMS)
    def test_generator_is_trace_free(self, seed, dim, n_channels):
        h, channels, rho = random_system(seed, dim, n_channels)
        drho = (_liouvillian(h, channels) @ rho.ravel()).reshape(dim, dim)
        assert abs(np.trace(drho)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(**SYSTEMS)
    def test_norm_bound_covers_the_superoperator(self, seed, dim, n_channels):
        # the plan reads ||t L||_1 of the Liouvillian itself: the Kronecker
        # form, with K shifted by tr H/d, which cancels in K x + x K+
        h, channels, _ = random_system(seed, dim, n_channels)
        want = lindblad_superoperator(h - np.trace(h).real / dim * np.eye(dim), channels)
        assert np.abs(_liouvillian(h, channels) - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([1, 2, 3, 4, 13, 22]),
        n_channels=st.integers(0, 2),
    )
    def test_evolve_lindblad_matches_superoperator_exponential(self, seed, dim, n_channels):
        h, channels, rho = random_system(seed, dim, n_channels)
        grid = [0.4, 1.3]
        rhos = evolve_lindblad(
            HermitianOperator(h), channels, DensityMatrix(rho), grid, verify=False
        )
        for t, state in zip(grid, rhos):
            m = state.entries
            assert np.array_equal(m, m.conj().T)
            assert np.abs(m - superoperator_exponential(h, channels, rho, t)).max() <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(**SYSTEMS)
    def test_rk4_matches_superoperator_exponential(self, seed, dim, n_channels):
        # the driven Lindblad path of rabi with its drive off: RK4 step matrices
        # on vec(rho), symmetrized once per state
        h, channels, rho = random_system(seed, dim, n_channels)
        grid = [0.4, 1.3]
        a0 = _liouvillian(h, channels)
        # h ||A||_1 = 1/200: the global error is below about 1e-9 for these norms
        steps_per_ns = 200.0 * max(np.linalg.norm(a0, 1), 1.0)
        vecs = _rk4_driven(
            a0, np.zeros_like(a0), np.zeros_like, math.inf, rho.ravel(), grid, steps_per_ns
        )
        for t, v in zip(grid, vecs):
            state = _hermitian(v.reshape(dim, dim))
            assert np.abs(state - superoperator_exponential(h, channels, rho, t)).max() <= 1e-8
            assert np.array_equal(state, state.conj().T)

    @settings(max_examples=40, deadline=None)
    @given(
        **SYSTEMS,
        stop=st.floats(0.05, 3.0),
        zeros=st.integers(1, 3),
        inside=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=2, max_size=5),
    )
    @example(seed=15633, dim=2, n_channels=0, stop=2.5692777425732483, zeros=1, inside=[0.5, 0.5])
    def test_grid_times_inside_one_substep(self, seed, dim, n_channels, stop, zeros, inside):
        # a non-uniform grid: leading zeros, then several times strictly
        # inside the first of the last step's 2^k scaled substeps, each at
        # its own spacing with its own plan, then the last time
        h, channels, rho = random_system(seed, dim, n_channels)
        norm = np.linalg.norm(stop * _liouvillian(h, channels), 1)
        first = stop / 2.0 ** core._expm_plan(norm)[1]
        grid = [0.0] * zeros + sorted(first * u for u in inside) + [stop]
        rhos = evolve_lindblad(HermitianOperator(h), channels, DensityMatrix(rho), grid)
        for t, state in zip(grid, rhos):
            m = state.entries
            assert np.array_equal(m, m.conj().T)
            assert np.abs(m - superoperator_exponential(h, channels, rho, t)).max() <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(**SYSTEMS, t1=st.floats(0.0, 1.0), dt=st.floats(0.0, 1.0))
    def test_semigroup(self, seed, dim, n_channels, t1, dt):
        # one call to t2 equals a call to t1 chained with a call for t2 - t1
        h, channels, rho = random_system(seed, dim, n_channels)
        op = HermitianOperator(h)
        t2 = t1 + dt
        whole = evolve_lindblad(op, channels, DensityMatrix(rho), [t2], verify=False)[0]
        half = evolve_lindblad(op, channels, DensityMatrix(rho), [t1], verify=False)[0]
        chained = evolve_lindblad(op, channels, half, [t2 - t1], verify=False)[0]
        assert np.abs(whole.entries - chained.entries).max() <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(**SYSTEMS)
    def test_evolve_lindblad_states_are_physical(self, seed, dim, n_channels):
        # the public path with its extra-squaring check on
        h, channels, rho = random_system(seed, dim, n_channels)
        grid = [0.4, 1.3]
        rhos = evolve_lindblad(
            HermitianOperator(h), channels, DensityMatrix(rho), grid, verify=True
        )
        for t, state in zip(grid, rhos):
            m = state.entries
            assert np.array_equal(m, m.conj().T)
            assert np.linalg.eigvalsh(m).min() >= -1e-8
            assert np.abs(m - superoperator_exponential(h, channels, rho, t)).max() <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(**SYSTEMS)
    def test_generator_blind_to_the_sign_of_a_jump_operator(self, seed, dim, n_channels):
        # -L gives the same L rho L+ and L+L to the last bit
        h, channels, _ = random_system(seed, dim, n_channels)
        flipped = [(-L, rate) for L, rate in channels]
        assert np.array_equal(_liouvillian(h, channels), _liouvillian(h, flipped))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4))
    def test_closed_evolution_keeps_norm(self, seed, dim):
        h0, _, _ = random_system(seed, dim, 0)
        v, _, _ = random_system(seed + 1, dim, 0)
        rng = np.random.default_rng(seed)
        amp, freq = rng.uniform(0.0, 1.0), rng.uniform(0.0, 5.0)
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi0 /= np.linalg.norm(psi0)

        def coeff(t):
            return amp * np.cos(2.0 * np.pi * freq * t)

        # 400 steps per ns per GHz of ||H0|| + A, 1.6x the density of
        # _driven_trace; RK4 shrinks the norm by up to ~2e-13 per step here,
        # so 1 ns stays well inside 1e-9 even for the largest ||H||
        steps_per_ns = 400.0 * max(np.linalg.norm(h0, 2) + amp, freq, 1.0)
        a0, a1 = -2j * np.pi * h0, -2j * np.pi * v
        period = 1.0 / freq if freq else math.inf
        states = _rk4_driven(a0, a1, coeff, period, psi0, np.linspace(0.0, 1.0, 5), steps_per_ns)
        for psi in states:
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-9


# drive frequencies (GHz) of random_drive: at the fastest, one period of
# DRIVEN_DENSITY steps still crosses a chunk boundary, and DRIVEN_GRID spans
# three periods of the slowest
DRIVEN_FREQUENCIES = (1.0, 1.9)
DRIVEN_GRID = [0.0, 0.2, 0.2, 0.55, 1.7, 3.0]  # t = 0 and a repeated time
DRIVEN_DENSITY = 500.0  # steps per ns: 264 to 500 steps per period


def random_drive(seed):
    """(coefficient, period): amp cos(2 pi nu t + phi), amp in [0, 1), nu in DRIVEN_FREQUENCIES."""
    amp, u, phase = np.random.default_rng(seed).uniform(0.0, 1.0, 3) * [1.0, 1.0, 2.0 * np.pi]
    lo, hi = DRIVEN_FREQUENCIES
    freq = lo + (hi - lo) * u
    return (lambda t: amp * np.cos(2.0 * np.pi * freq * t + phase)), 1.0 / freq


def rk4_stage_loop(rhs, y0, t_grid, period, steps_per_ns):
    """Classical RK4 stage loop for y' = rhs(t, y) from t = 0, on the drive's step grid.

    A period T holds m = ceil(T steps_per_ns) steps of h = T/m; without a
    period (T = inf), h = 1/steps_per_ns.  The loop steps from 0 through
    every period in turn, with no powers; step j of each period starts at
    phase j h of rhs.  Each grid time t then takes one partial step from the
    start of the step holding t.
    """
    if math.isfinite(period):
        m = math.ceil(period * steps_per_ns)
        h = period / m
    else:
        m, h = math.inf, 1.0 / steps_per_ns

    def step(y, t, size):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * size, y + 0.5 * size * k1)
        k3 = rhs(t + 0.5 * size, y + 0.5 * size * k2)
        k4 = rhs(t + size, y + size * k3)
        return y + (size / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    y, p, j, out = y0, 0, 0, []  # y at step j of period p, which starts at p T + j h
    for tk in t_grid:
        while (p * period if p else 0.0) + (j + 1) * h <= tk:
            y, j = step(y, j * h, h), j + 1
            if j == m:
                p, j = p + 1, 0
        out.append(step(y, j * h, tk - (p * period if p else 0.0) - j * h))
    return out


def lindblad_rhs(h_of_t, channels):
    """(t, rho) -> K(t) rho + rho K(t)+ + sum_k g_k L rho L+ in matrix form."""
    decay = sum((0.5 * rate * (L.conj().T @ L) for L, rate in channels), 0.0)

    def rhs(t, rho):
        k = -2j * np.pi * h_of_t(t) - decay
        jumps = sum(rate * (L @ rho @ L.conj().T) for L, rate in channels)
        return k @ rho + rho @ k.conj().T + jumps

    return rhs


def closed_rhs(h0, v, coeff):
    def rhs(t, y):
        return -2j * np.pi * (h0 + coeff(t) * v) @ y

    return rhs


class TestStepMatrixPropagator:
    """The driven step-matrix propagator against the RK4 stage loop it replaces."""

    def test_grid_covers_a_chunk_boundary(self):
        lo, hi = DRIVEN_FREQUENCIES
        assert math.ceil(DRIVEN_DENSITY / hi) > _CHUNK_STEPS
        assert DRIVEN_GRID[-1] * lo >= 3.0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), columns=st.integers(1, 4))
    def test_driven_schrodinger_matches_stage_loop(self, seed, dim, columns):
        h0, _, _ = random_system(seed, dim, 0)
        v, _, _ = random_system(seed + 1, dim, 0)
        coeff, period = random_drive(seed)
        rng = np.random.default_rng(seed)
        y0 = rng.normal(size=(dim, columns)) + 1j * rng.normal(size=(dim, columns))
        a0, a1 = -2j * np.pi * h0, -2j * np.pi * v
        ref = rk4_stage_loop(closed_rhs(h0, v, coeff), y0, DRIVEN_GRID, period, DRIVEN_DENSITY)
        got = _rk4_driven(a0, a1, coeff, period, y0, DRIVEN_GRID, DRIVEN_DENSITY)
        for a, b in zip(got, ref):
            assert np.abs(a - b).max() <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), n_channels=st.integers(0, 3))
    def test_driven_lindblad_matches_stage_loop(self, seed, dim, n_channels):
        h0, channels, rho = random_system(seed, dim, n_channels)
        v, _, _ = random_system(seed + 1, dim, 0)
        coeff, period = random_drive(seed)
        rhs = lindblad_rhs(lambda t: h0 + coeff(t) * v, channels)
        ref = rk4_stage_loop(rhs, rho, DRIVEN_GRID, period, DRIVEN_DENSITY)
        a0, a1 = _liouvillian(h0, channels), _liouvillian(v, [])
        got = _rk4_driven(a0, a1, coeff, period, rho.ravel(), DRIVEN_GRID, DRIVEN_DENSITY)
        for a, b in zip(got, ref):
            assert np.abs(a.reshape(dim, dim) - b).max() <= 1e-12

    @pytest.mark.parametrize(
        "amplitude, frequency, grid",
        [
            (0.4, 0.0, [0.3, 1.1, 2.5]),  # no period
            (0.4, -1.3, [0.3, 1.1, 2.5]),  # the period of |nu|
            (0.0, 1.3, [0.3, 1.1, 2.5]),  # no drive
            (0.4, 0.3, [0.3, 1.1, 2.5]),  # the grid ends inside the first period
            (0.4, 1.3, [0.0, 0.0, 1.1, 1.1, 1.1, 2.5]),  # t = 0 and repeated times
        ],
    )
    def test_driven_trace_edge_cases_match_stage_loop(self, amplitude, frequency, grid):
        # through _driven_trace, which takes the period and step density from the pulse
        h0, _, _ = random_system(7, 3, 0)
        v, _, _ = random_system(8, 3, 0)
        pulse = DrivePulse(amplitude=amplitude, frequency=frequency, duration=0.0, phase=0.7)
        psi0 = np.eye(3, dtype=complex)
        steps_per_ns = 250.0 * max(
            np.linalg.norm(h0, 2) + amplitude * np.linalg.norm(v, 2), abs(frequency), 1.0
        )
        period = 1.0 / abs(frequency) if frequency else math.inf
        ref = rk4_stage_loop(closed_rhs(h0, v, pulse.coefficient), psi0, grid, period, steps_per_ns)
        got = core._driven_trace(h0, v, pulse, psi0, grid)
        assert len(got) == len(grid)
        for a, b in zip(got, ref):
            assert np.abs(a - b).max() <= 1e-12
        if grid[0] == 0.0:
            assert np.array_equal(got[0], psi0)

    def test_whole_periods_match_stage_loop(self):
        # t = k/nu for k up to 1e4: in floating point t/T lands on either side
        # of k, so t falls just below q = k whole periods or just past it, and
        # the whole periods (t - r)/T below r = t mod T may fall short of an integer
        freq = 0.7
        period = 1.0 / freq
        ks = [1, 2, 3, 6, 7, 12, 27, 99, 100, 1000, 8186, 9996, 9998, 9999, 10000]
        grid = [k / freq for k in ks]
        r = np.fmod(grid, period)
        assert (r > 0.5 * period).any() and (r < 0.5 * period).any()
        whole = (grid - r) / period
        assert (whole < np.rint(whole)).any()
        h0, _, _ = random_system(3, 2, 0)
        v, _, _ = random_system(4, 2, 0)
        h0, v = 0.02 * h0, 0.02 * v

        def coeff(t):
            return 0.5 * np.cos(2.0 * np.pi * freq * t + 0.3)

        steps_per_ns = 2.0  # three steps per period keep the stage loop short
        psi0 = np.array([1.0, 0.0], complex)
        ref = rk4_stage_loop(closed_rhs(h0, v, coeff), psi0, grid, period, steps_per_ns)
        a0, a1 = -2j * np.pi * h0, -2j * np.pi * v
        got = _rk4_driven(a0, a1, coeff, period, psi0, grid, steps_per_ns)
        for k, a, b in zip(ks, got, ref):
            # U_T^k repeats the rounding of one period k times, where the stage
            # loop rounds afresh: allow 2^-50 more per step taken
            assert np.abs(a - b).max() <= 1e-12 + 3 * k * 2.0**-50

    def test_builds_one_period_of_steps(self, monkeypatch):
        # a trace over 30 periods builds the m steps of one period and one
        # partial step per grid time
        rows = []
        step_matrix = core._rk4_step_matrix

        def counted(a_start, *rest):
            rows.append(a_start.shape[0])
            return step_matrix(a_start, *rest)

        monkeypatch.setattr(core, "_rk4_step_matrix", counted)
        pulse = DrivePulse(amplitude=0.2, frequency=10.0, duration=0.0, target="sigma_x")
        h0, grid = np.diag([-5.0, 5.0]), np.linspace(0.0, 3.0, 31)
        core._driven_trace(h0, SIGMA_X, pulse, np.array([1.0, 0.0], complex), grid)
        m = math.ceil(0.1 * 250.0 * 10.0)  # T = 1/nu; |nu| is the fastest rate
        assert 0 < sum(rows) <= m + grid.size


    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([12, 13]),
        n_channels=st.integers(0, 2),
    )
    def test_evolve_lindblad_at_the_liouville_cap(self, seed, dim, n_channels):
        # d = 12 and 13, where the d^2 x d^2 step exponentials grow large
        # (the Liouville bound admits d = 24): they agree there too
        h, channels, rho = random_system(seed, dim, n_channels)
        grid = [0.4, 1.3]
        rhos = evolve_lindblad(HermitianOperator(h), channels, DensityMatrix(rho), grid)
        for t, state in zip(grid, rhos):
            m = state.entries
            assert np.abs(m - superoperator_exponential(h, channels, rho, t)).max() <= 1e-12
            assert np.array_equal(m, m.conj().T)


class TestDrivenTrace:
    PULSE = DrivePulse(amplitude=0.3, frequency=3.0, duration=1.0, target="sigma_x")

    def test_step_density_follows_the_drive(self, monkeypatch):
        # 250 max(||H0||_2 + A ||V||_2, |nu|, 1) steps per ns
        # and the period 1/|nu|, none at nu = 0
        seen = []
        rk4 = core._rk4_driven
        monkeypatch.setattr(
            core, "_rk4_driven", lambda *args: seen.append((args[3], args[-1])) or rk4(*args)
        )
        h0, v = np.diag([-4.0, 4.0]), 2.0 * SIGMA_X
        core._driven_trace(h0, v, self.PULSE, np.array([1.0, 0.0], complex), [0.1])
        core._driven_trace(h0, v, self.PULSE, np.diag([1.0, 0.0]).astype(complex), [0.1], [])
        slow = DrivePulse(amplitude=0.0, frequency=-9.0, duration=1.0)
        core._driven_trace(0.0 * h0, v, slow, np.array([1.0, 0.0], complex), [0.1])
        still = DrivePulse(amplitude=0.0, frequency=0.0, duration=1.0)
        core._driven_trace(0.0 * h0, v, still, np.array([1.0, 0.0], complex), [0.1])
        assert seen == [(1.0 / 3.0, 250.0 * (4.0 + 0.3 * 2.0))] * 2 + [
            (1.0 / 9.0, 250.0 * 9.0),
            (math.inf, 250.0),
        ]

    def test_step_density_bounds_the_channels(self, monkeypatch):
        # 250 sum_k g_k ||L_k||_2^2 / 2 pi steps per ns once that is the largest
        # rate; a zero rate adds nothing, and slow channels leave the drive's
        seen = []
        rk4 = core._rk4_driven
        monkeypatch.setattr(core, "_rk4_driven", lambda *args: seen.append(args[-1]) or rk4(*args))
        h0, v, rho0 = np.diag([-4.0, 4.0]), 2.0 * SIGMA_X, np.diag([1.0, 0.0]).astype(complex)
        low = np.array([[0.0, 3.0], [0.0, 0.0]])
        fast = [(low, 500.0), (SIGMA_X, 0.0), (SIGMA_X, 70.0)]
        core._driven_trace(h0, v, self.PULSE, rho0, [1e-3], fast)
        core._driven_trace(h0, v, self.PULSE, rho0, [0.1], [(low, 1.0), (SIGMA_X, 2.0)])
        decay = (500.0 * 9.0 + 70.0) / (2.0 * math.pi)
        assert seen == [pytest.approx(250.0 * decay, rel=1e-15), 250.0 * (4.0 + 0.3 * 2.0)]

    def test_constant_drive_builds_one_step(self, monkeypatch):
        # at nu = 0 one step of 1/steps_per_ns is the period: a 30 ns trace
        # builds it and one partial step per grid time, not 39 000 steps
        rows = []
        step_matrix = core._rk4_step_matrix

        def counted(a_start, *rest):
            rows.append(a_start.shape[0])
            return step_matrix(a_start, *rest)

        monkeypatch.setattr(core, "_rk4_step_matrix", counted)
        pulse = DrivePulse(amplitude=0.2, frequency=0.0, duration=0.0, target="sigma_x")
        grid = np.linspace(0.0, 30.0, 31)
        core._driven_trace(np.diag([-5.0, 5.0]), SIGMA_X, pulse, np.array([1.0, 0.0], complex), grid)
        assert 0 < sum(rows) <= 1 + grid.size

    def test_constant_drive_matches_the_exact_propagator(self):
        # H = H0 + A cos(phase) V is constant; RK4 at h = 1/steps_per_ns has
        # a local error of about (2 pi ||H|| h)^5 / 120 per step, and the
        # amplitudes stay within that times the steps taken
        h0, v = np.diag([-5.0, 5.0]), SIGMA_X
        pulse = DrivePulse(amplitude=0.2, frequency=0.0, duration=0.0, phase=0.4, target="sigma_x")
        grid = np.linspace(0.0, 30.0, 31)
        psi0 = basis_state(2, 0)
        got = core._driven_trace(h0, v, pulse, psi0.amplitudes, grid)
        h = h0 + 0.2 * math.cos(0.4) * v
        exact = _unitary_trace(herm(h), psi0, grid)
        steps_per_ns = 250.0 * (5.0 + 0.2)
        local = (2.0 * math.pi * np.linalg.norm(h, 2) / steps_per_ns) ** 5 / 120.0
        assert got.shape == exact.shape == (31, 2)
        for t, a, b in zip(grid, got, exact):
            assert np.abs(a - b).max() <= 2.0 * local * (t * steps_per_ns + 1.0)

    def test_closed_drift_is_checked_in_every_column(self, monkeypatch):
        # only |1> gains norm: the first column stays at 1, the second drifts
        step_matrix = core._rk4_step_matrix
        monkeypatch.setattr(
            core, "_rk4_step_matrix", lambda *args: step_matrix(*args) @ np.diag([1.0, 1.0 + 1e-5])
        )
        zero, slow = np.zeros((2, 2)), DrivePulse(amplitude=0.3, frequency=0.5, duration=1.0)
        with pytest.raises(ConvergenceError, match="lost .* of norm at 250 RK4 steps per ns"):
            core._driven_trace(zero, zero, slow, np.eye(2, dtype=complex), [0.5, 1.0])


class TestTimeGrid:
    @pytest.mark.parametrize(
        "grid", [[-1.0, 0.0], [0.0, np.nan, 1.0], [0.0, np.inf], [1.0, 0.5], [[0.0, 1.0]]]
    )
    def test_bad_grids_rejected(self, grid):
        rho0 = DensityMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(ValidationError, match="time grid"):
            evolve_lindblad(herm(SIGMA_Z), [], rho0, grid)


class TestStateChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            herm([[1.0, 0.0], [0.0, bad]])

    @pytest.mark.parametrize(
        "rho",
        [
            np.diag([0.6, 0.5]),  # trace drift
            np.diag([1.0 + 1e-6, -1e-6]),  # negative eigenvalue below -1e-7
            np.diag([np.nan, 0.0]),
        ],
    )
    def test_propagation_drift_is_a_convergence_error(self, rho):
        with pytest.raises(ConvergenceError):
            _checked_states([1.0], [rho.astype(complex)])

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({150: np.diag([0.6, 0.5]), 130: np.diag([1.0 + 1e-6, -1e-6])},
             r"^propagated state at t = 130.0 ns: negative eigenvalue -1e-06 below floor -1e-07$"),
            ({70: np.array([[0.5, 0.1], [0.2, 0.5]]), 10: np.diag([np.inf, 0.0])},
             r"^trace drift inf > 1e-8 at t = 10.0 ns$"),
            ({199: np.array([[0.5, np.nan], [0.0, 0.5]])},
             r"^propagated state at t = 199.0 ns: matrix has non-finite entries$"),
            ({64: np.array([[0.5, 0.1], [0.2, 0.5]])},
             r"^propagated state at t = 64.0 ns: density matrix is not Hermitian$"),
        ],
        ids=["eigenvalue-before-drift", "drift-before-hermiticity", "last", "block-start"],
    )
    def test_first_failing_state_is_named(self, bad, message):
        # the stacked checks run in blocks; the earliest failing grid time
        # raises, with the message of its first failing check
        rhos = np.tile(np.diag([0.5, 0.5]).astype(complex), (200, 1, 1))
        for k, rho in bad.items():
            rhos[k] = rho
        with pytest.raises(ConvergenceError, match=message):
            _checked_states(np.arange(200.0), rhos)

    @staticmethod
    def one_at_a_time(t_grid, rhos):
        """Reference for ``_checked_states``: each state alone, in numpy, in check order."""
        for tk, m in zip(t_grid, rhos):
            drift = abs(np.trace(m) - 1.0)
            if not drift <= 1e-8:
                raise ConvergenceError(f"trace drift {drift:.2e} > 1e-8 at t = {tk} ns")
            where = f"propagated state at t = {tk} ns"
            if not np.isfinite(m).all():
                raise ConvergenceError(f"{where}: matrix has non-finite entries")
            if not np.abs(m - m.conj().T).max() <= 1e-10 * max(np.linalg.norm(m), 1.0):
                raise ConvergenceError(f"{where}: density matrix is not Hermitian")
            lowest = np.linalg.eigvalsh(m).min()
            if not lowest >= -1e-7:
                raise ConvergenceError(f"{where}: negative eigenvalue {lowest} below floor -1e-07")

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 4),
        points=st.integers(1, 200),
        edge=st.sampled_from([0, 64, 128, 192]),
        faults=st.lists(
            st.tuples(
                st.integers(-2, 2),
                st.sampled_from(["nan", "drift", "asymmetry", "eigenvalue"]),
                st.floats(-2.0, 2.0),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    # a non-Hermitian state before a negative eigenvalue in one block
    @example(seed=0, dim=2, points=70, edge=64, faults=[(1, "eigenvalue", 1.0), (0, "asymmetry", 1.0)])
    def test_corrupted_stacks_fail_as_the_reference_does(self, seed, dim, points, edge, faults):
        # random states, up to three corrupted within two places of an edge of
        # the check blocks, each by up to two decades either side of its
        # bound: the stacked checks raise if and only if the reference does,
        # with its message
        rng = np.random.default_rng(seed)
        bounds = {"nan": 1.0, "drift": 1e-8, "asymmetry": 1e-10, "eigenvalue": 1e-7}

        def cmats(*lead):
            return rng.normal(size=(*lead, dim, dim)) + 1j * rng.normal(size=(*lead, dim, dim))

        a = cmats(points)
        rhos = a @ a.conj().swapaxes(1, 2)
        rhos = 0.5 * (rhos + rhos.conj().swapaxes(1, 2))
        rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
        for offset, kind, decades in faults:
            k, size = (edge + offset) % points, bounds[kind] * 10.0**decades
            if kind == "nan":
                rhos[k][tuple(rng.integers(dim, size=2))] = np.nan
            elif kind == "drift":
                rhos[k, 0, 0] += size
            elif kind == "asymmetry":
                rhos[k, 0, -1] += 1j * size
            else:
                # eigenvalues -size and (1 + size)/(d - 1), in a random basis
                u = np.linalg.qr(cmats())[0]
                p = np.full(dim, (1.0 + size) / (dim - 1))
                p[0] = -size
                rhos[k] = _hermitian((u * p) @ u.conj().T)
        grid = np.arange(points) * 0.5
        try:
            self.one_at_a_time(grid, rhos)
        except ConvergenceError as alone:
            with pytest.raises(ConvergenceError, match=f"^{re.escape(str(alone))}$"):
                _checked_states(grid, rhos)
        else:
            _checked_states(grid, rhos)

    @pytest.mark.parametrize(
        "state, inside, past",
        [
            # trace 1 + e: sums of multiples of 2^-52 are exact, so drift = e
            (lambda e: np.diag([0.5 + e, 0.5]), math.floor(1e-8 * 2.0**52) * 2.0**-52,
             (math.floor(1e-8 * 2.0**52) + 1) * 2.0**-52),
            # |rho - rho+| = e at a norm below 1, against 1e-10 * 1
            (lambda e: np.array([[0.5, e], [0.0, 0.5]]), 1e-10, np.nextafter(1e-10, 1.0)),
            (lambda e: np.diag([1.0 - e, e]), -1e-7, np.nextafter(-1e-7, -1.0)),
        ],
        ids=["trace", "hermiticity", "eigenvalue"],
    )
    @pytest.mark.parametrize("at", [0, 63, 64, 69])
    def test_bounds_match_the_checks_one_at_a_time(self, state, inside, past, at):
        # a state one float inside a bound passes and one past it raises, in
        # the stacked checks as in the checks of each state alone
        grid = np.arange(70.0)
        for e, fails in ((inside, False), (past, True)):
            rhos = np.tile(np.diag([0.5, 0.5]).astype(complex), (70, 1, 1))
            rhos[at] = state(e)
            if not fails:
                self.one_at_a_time(grid, rhos)
                assert np.array_equal(_checked_states(grid, rhos), rhos)
                continue
            with pytest.raises(ConvergenceError) as alone:
                self.one_at_a_time(grid, rhos)
            assert f"t = {float(at)} ns" in str(alone.value)
            with pytest.raises(ConvergenceError, match=f"^{re.escape(str(alone.value))}$"):
                _checked_states(grid, rhos)

    def test_states_are_read_only_rows(self):
        # the judged stack comes back read-only, and evolve_lindblad's states
        # are views of its rows
        rhos = np.tile(np.diag([0.25, 0.75]).astype(complex), (3, 1, 1))
        stack = _checked_states([0.0, 1.0, 2.0], rhos)
        assert np.array_equal(stack, rhos) and not stack.flags.writeable
        states = evolve_lindblad(herm(np.zeros((2, 2))), [], DensityMatrix(rhos[0]), [0.0, 1.0, 2.0])
        assert all(np.array_equal(s.entries, r) and not s.entries.flags.writeable for s, r in zip(states, rhos))
        assert states[2].population(1) == 0.75 and states[2].dimension == 2


class TestLinearFit:
    X = np.linspace(0.0, 1.0, 7)

    def test_matches_lstsq(self):
        rng = np.random.default_rng(5)
        a = np.column_stack([np.ones_like(self.X), self.X, self.X**2])
        y = a @ [1.0, -2.0, 0.5] + rng.normal(0.0, 0.1, self.X.size)
        assert np.array_equal(_linear_fit(a, y, "fit"), np.linalg.lstsq(a, y, rcond=None)[0])

    @pytest.mark.parametrize("second", [np.zeros(7), 2.0 * X], ids=["zero", "dependent"])
    def test_singular_normal_matrix(self, second):
        # a column that is zero or a multiple of another leaves its coefficient free
        a = np.column_stack([self.X, second])
        with pytest.raises(FitError, match="^line fit failed: singular normal matrix$"):
            _linear_fit(a, 2.0 * self.X, "line fit")


class TestDenseSizeRule:
    """Each truncated basis refuses more than DIMENSION_CAP states when its parameters are built."""

    @pytest.mark.parametrize(
        "build, largest, states",
        [
            (lambda n: CpbParams(ec=1.0, ej=1.0, cutoff=n), 2047, lambda n: 2 * n + 1),
            (lambda n: ThreeJunctionParams(ej=40.0, ec=1.0, cutoff=n), 31, lambda n: (2 * n + 1) ** 2),
            (
                lambda n: JaynesCummingsParams(nu01=5.0, nu_c=5.0, g=0.1, n_ph=n),
                2047,
                lambda n: 2 * (n + 1),
            ),
        ],
        ids=["cpb", "flux3", "jc"],
    )
    def test_largest_basis_builds_and_one_more_is_refused(self, monkeypatch, build, largest, states):
        def no_allocation(*args, **kwargs):
            raise AssertionError("a matrix was allocated before the size check")

        monkeypatch.setattr(np, "zeros", no_allocation)
        monkeypatch.setattr(np, "diag", no_allocation)
        assert states(largest) <= DIMENSION_CAP < states(largest + 1)
        build(largest)
        message = f"cutoff {largest + 1} gives {states(largest + 1)} states, above the dense-storage cap"
        with pytest.raises(ValidationError, match=message):
            build(largest + 1)
