"""Core linear algebra and propagation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    _least_squares,
    _lindblad_generator,
    _liouvillian,
    _rk4_driven,
    _unitary_trace,
    basis_state,
    evolve_lindblad,
    evolve_unitary,
    hermitian_eigen,
    propagator,
    tensor_product,
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


class TestTensor:
    def test_sigma_x_times_identity(self):
        out = tensor_product(herm(SIGMA_X), herm(np.eye(2)))
        expected = np.kron(SIGMA_X, np.eye(2))
        np.testing.assert_allclose(out.entries, expected, atol=1e-15)

    def test_identity_squared(self):
        out = tensor_product(herm(np.eye(2)), herm(np.eye(2)))
        np.testing.assert_allclose(out.entries, np.eye(4), atol=1e-15)

    def test_xx_is_involution(self):
        xx = tensor_product(herm(SIGMA_X), herm(SIGMA_X)).entries
        np.testing.assert_allclose(xx @ xx, np.eye(4), atol=1e-14)

    def test_mixed_product_rule(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a, b = herm((a + a.conj().T) / 2), herm((b + b.conj().T) / 2)
        left = tensor_product(a, herm(np.eye(4))).entries @ tensor_product(herm(np.eye(3)), b).entries
        np.testing.assert_allclose(left, tensor_product(a, b).entries, atol=1e-12)


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
        with pytest.raises(ValidationError, match="t must be finite"):
            propagator(herm(SIGMA_Z), t)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            evolve_unitary(herm(SIGMA_Z), basis_state(3, 0), 1.0)
        with pytest.raises(ValidationError):
            _unitary_trace(herm(SIGMA_Z), basis_state(3, 0), [1.0])

    def test_trace_applies_the_propagator_from_one_eigendecomposition(self, monkeypatch):
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = herm((raw + raw.conj().T) / 2)
        psi0 = basis_state(5, 2)
        grid = np.linspace(0.0, 3.0, 7)
        expected = [propagator(h, float(t)) @ psi0.amplitudes for t in grid]
        calls = []
        eigen = core.hermitian_eigen
        monkeypatch.setattr(core, "hermitian_eigen", lambda op: calls.append(op) or eigen(op))
        trace = _unitary_trace(h, psi0, grid)
        assert len(calls) == 1
        for psi, amps in zip(trace, expected):
            assert np.array_equal(psi.amplitudes, amps)


SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|


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
        # the substep-doubling check does not change the returned states
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
        h = herm(np.array([[2.0, 1.0], [1.0, -2.0]]))
        u = propagator(h, 1.3)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize(
        "channel, message",
        [
            ((SIGMA_MINUS, np.nan), "channel 1 rate must be finite, got nan"),
            ((SIGMA_MINUS, np.inf), "channel 1 rate must be finite, got inf"),
            (([[0.0, np.nan], [0.0, 0.0]], 0.1), "channel 1 jump operator has non-finite entries"),
        ],
    )
    def test_non_finite_channel_rejected(self, channel, message):
        # a NaN rate used to be dropped silently, giving the closed-system answer
        rho0 = DensityMatrix(np.diag([0.0, 1.0]))
        with pytest.raises(ValidationError, match=message):
            evolve_lindblad(herm(np.zeros((2, 2))), [(SIGMA_Z, 0.1), channel], rho0, [1.0])

    def test_verify_failure_names_the_first_bad_time(self, monkeypatch):
        # one degree-5 substep per span, far too few for tau ||G|| ~ 30; the
        # zero span at t = 0 agrees, so the first bad time is 1 ns
        monkeypatch.setattr(core, "_TAYLOR_THETA", {5: 1e3})
        rho0 = DensityMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(ConvergenceError, match=r"disagreement \S+ > 1e-7 at t = 1.0 ns"):
            evolve_lindblad(herm(2.5 * SIGMA_X), [], rho0, [0.0, 1.0, 2.0])


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
    def test_theta_table_matches_the_backward_error_series(self):
        # the table keeps three digits of each theta_m
        for m, theta in core._TAYLOR_THETA.items():
            assert theta == pytest.approx(backward_error_theta(m), rel=2e-3)

    @pytest.mark.parametrize(
        "norm, plan",
        [(0.0, (5, 1)), (2e-3, (5, 1)), (0.5, (15, 1)), (9.0, (55, 1)), (30.0, (50, 4))],
    )
    def test_plan_takes_the_fewest_products(self, norm, plan):
        assert core._taylor_plan(norm) == plan


class TestPropagatorProperties:
    @settings(max_examples=60, deadline=None)
    @given(**SYSTEMS)
    def test_generator_is_trace_free(self, seed, dim, n_channels):
        h, channels, rho = random_system(seed, dim, n_channels)
        gen, _ = _lindblad_generator(h, channels)
        assert abs(np.trace(gen(rho))) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(**SYSTEMS)
    def test_norm_bound_covers_the_superoperator(self, seed, dim, n_channels):
        # nu bounds the 1-norm of G on vec(x), which sets the Taylor steps
        h, channels, _ = random_system(seed, dim, n_channels)
        _, nu = _lindblad_generator(h, channels)
        trace_shift = np.trace(h).real / dim * np.eye(dim)
        norm = np.linalg.norm(lindblad_superoperator(h - trace_shift, channels), 1)
        assert norm <= nu * (1 + 1e-12)

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
        # the public path with its substep-doubling check on
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
        # d = 12 and 13, where the d^2 x d^2 Liouville-space generator grows
        # large: evolve_lindblad acts on d x d matrices and agrees there too
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


class TestLeastSquares:
    X = np.linspace(0.0, 1.0, 7)

    def test_linear_model_matches_lstsq(self):
        rng = np.random.default_rng(5)
        a = np.column_stack([np.ones_like(self.X), self.X, self.X**2])
        y = a @ [1.0, -2.0, 0.5] + rng.normal(0.0, 0.1, self.X.size)
        p = _least_squares(lambda q: (a @ q, a), y, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(p, np.linalg.lstsq(a, y, rcond=None)[0], rtol=1e-12, atol=1e-12)

    def test_iteration_cap(self):
        # exp(-q) fitted to zeros: the minimum lies at q = inf, and each step
        # adds about 1 to q without ever becoming small relative to q
        def decay(q):
            e = np.full(self.X.size, np.exp(-q[0]))
            return e, -e[:, None]

        with pytest.raises(FitError, match="did not converge in 200 iterations"):
            _least_squares(decay, np.zeros(self.X.size), [0.0])

    def test_non_finite_parameter(self):
        # a slope of 1e-160 needs a parameter beyond the float range to reach y
        x = 1e-160 * self.X
        with pytest.raises(FitError, match="non-finite"):
            _least_squares(lambda q: (q[0] * x, x[:, None]), 1e150 * self.X, [1.0])

    def test_non_finite_model_value(self):
        def root(q):
            with np.errstate(invalid="ignore", divide="ignore"):
                v = np.sqrt(q[0])
                return np.full(self.X.size, v), np.full((self.X.size, 1), 0.5 / v)

        # the first step lands at a negative q, where the model is nan
        with pytest.raises(FitError, match="non-finite"):
            _least_squares(root, np.full(self.X.size, -1.0), [1.0])

    def test_singular_normal_matrix(self):
        # the second parameter does not enter the model: a zero Jacobian column
        def model(q):
            return q[0] * self.X, np.column_stack([self.X, np.zeros_like(self.X)])

        with pytest.raises(FitError, match="singular"):
            _least_squares(model, 2.0 * self.X, [1.0, 1.0])


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
