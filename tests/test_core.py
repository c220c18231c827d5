"""Core linear algebra and propagation tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from scqsim.core import (
    SIGMA_X,
    SIGMA_Z,
    DIMENSION_CAP,
    ConvergenceError,
    DensityMatrix,
    HermitianOperator,
    QuantumState,
    ValidationError,
    _CHUNK_STEPS,
    _LIOUVILLE_DIMENSION_CAP,
    _checked_states,
    _liouvillian,
    _lindblad_rhs,
    _lindblad_step,
    _rk4,
    _rk4_driven,
    basis_state,
    evolve_lindblad,
    evolve_unitary,
    hermitian_eigen,
    propagator,
    tensor_product,
)


def herm(m):
    return HermitianOperator(np.asarray(m, dtype=complex))


class TestTypes:
    def test_state_norm_enforced(self):
        with pytest.raises(ValidationError):
            QuantumState(np.array([1.0, 1.0]))

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

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            evolve_unitary(herm(SIGMA_Z), basis_state(3, 0), 1.0)


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
        h = herm(np.array([[0.5, 0.1], [0.1, -0.5]]))
        rho0 = DensityMatrix(np.diag([0.0, 1.0]))
        grid = [10.0, 20.0]
        a = evolve_lindblad(h, [(SIGMA_MINUS, 1e-3)], rho0, grid, verify=True)
        b = evolve_lindblad(h, [(SIGMA_MINUS, 1e-3)], rho0, grid, verify=False)
        np.testing.assert_allclose(a[-1].entries, b[-1].entries, atol=1e-7)

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


class TestPropagatorProperties:
    @settings(max_examples=60, deadline=None)
    @given(**SYSTEMS)
    def test_generator_exactly_hermitian_and_trace_free(self, seed, dim, n_channels):
        h, channels, rho = random_system(seed, dim, n_channels)
        d = _lindblad_rhs(lambda t: h, channels)(0.0, rho)
        assert np.array_equal(d, d.conj().T)
        assert abs(np.trace(d)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(**SYSTEMS)
    def test_rk4_matches_superoperator_exponential(self, seed, dim, n_channels):
        h, channels, rho = random_system(seed, dim, n_channels)
        grid = [0.4, 1.3]
        step = _lindblad_step(float(np.linalg.norm(h, 2)), channels, grid[-1])
        states = _rk4(_lindblad_rhs(lambda t: h, channels), rho, grid, 1.0 / step)
        gen = lindblad_superoperator(h, channels)
        for t, state in zip(grid, states):
            exact = (expm(gen * t) @ rho.ravel()).reshape(dim, dim)
            # the step targets a 1e-9 run error; 10x covers the model's fitted constant
            assert np.abs(state - exact).max() <= 1e-8
            assert np.array_equal(state, state.conj().T)

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

        # rabi's step density; RK4 shrinks the norm by up to ~2e-13 per step
        # here, so 1 ns stays well inside 1e-9 even for the largest ||H||
        steps_per_ns = 400.0 * max(np.linalg.norm(h0, 2) + amp, freq, 1.0)
        a0, a1 = -2j * np.pi * h0, -2j * np.pi * v
        states = _rk4_driven(a0, a1, coeff, psi0, np.linspace(0.0, 1.0, 5), steps_per_ns)
        for psi in states:
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-9


def random_drive(seed):
    """Drive coefficient amp cos(2 pi nu t + phi) with amp, nu in [0, 1) and phi in [0, 2 pi)."""
    amp, freq, phase = np.random.default_rng(seed).uniform(0.0, 1.0, 3) * [1.0, 1.0, 2.0 * np.pi]
    return lambda t: amp * np.cos(2.0 * np.pi * freq * t + phase)


# the last span takes more than _CHUNK_STEPS steps; the repeated time is a zero span
DRIVEN_GRID = [0.2, 0.2, 0.55, 3.0]
DRIVEN_DENSITY = 500.0  # steps per ns: 1225 steps in the last span, in several chunks


class TestStepMatrixPropagator:
    """The step-matrix propagators against the RK4 stage loop they replace."""

    def test_grid_covers_a_chunk_boundary(self):
        assert (DRIVEN_GRID[-1] - DRIVEN_GRID[-2]) * DRIVEN_DENSITY > _CHUNK_STEPS

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), columns=st.integers(1, 4))
    def test_driven_schrodinger_matches_stage_loop(self, seed, dim, columns):
        h0, _, _ = random_system(seed, dim, 0)
        v, _, _ = random_system(seed + 1, dim, 0)
        coeff = random_drive(seed)
        rng = np.random.default_rng(seed)
        y0 = rng.normal(size=(dim, columns)) + 1j * rng.normal(size=(dim, columns))
        a0, a1 = -2j * np.pi * h0, -2j * np.pi * v

        def rhs(t, y):
            return (a0 + coeff(t) * a1) @ y

        ref = _rk4(rhs, y0, DRIVEN_GRID, DRIVEN_DENSITY)
        got = _rk4_driven(a0, a1, coeff, y0, DRIVEN_GRID, DRIVEN_DENSITY)
        for a, b in zip(got, ref):
            assert np.abs(a - b).max() <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), n_channels=st.integers(0, 3))
    def test_driven_lindblad_matches_stage_loop(self, seed, dim, n_channels):
        h0, channels, rho = random_system(seed, dim, n_channels)
        v, _, _ = random_system(seed + 1, dim, 0)
        coeff = random_drive(seed)
        ref = _rk4(
            _lindblad_rhs(lambda t: h0 + coeff(t) * v, channels), rho, DRIVEN_GRID, DRIVEN_DENSITY
        )
        a0, a1 = _liouvillian(h0, channels), _liouvillian(v, [])
        got = _rk4_driven(a0, a1, coeff, rho.ravel(), DRIVEN_GRID, DRIVEN_DENSITY)
        for a, b in zip(got, ref):
            assert np.abs(a.reshape(dim, dim) - b).max() <= 1e-12

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.sampled_from([_LIOUVILLE_DIMENSION_CAP, _LIOUVILLE_DIMENSION_CAP + 1]),
        n_channels=st.integers(0, 2),
    )
    def test_evolve_lindblad_at_the_liouville_cap(self, seed, dim, n_channels):
        h, channels, rho = random_system(seed, dim, n_channels)
        grid = [0.4, 1.3]
        rhos = evolve_lindblad(HermitianOperator(h), channels, DensityMatrix(rho), grid)
        gen = lindblad_superoperator(h, channels)
        for t, state in zip(grid, rhos):
            exact = (expm(gen * t) @ rho.ravel()).reshape(dim, dim)
            assert np.abs(state.entries - exact).max() <= 1e-8
            assert np.array_equal(state.entries, state.entries.conj().T)


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
