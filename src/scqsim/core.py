"""Linear-algebra and dynamics substrate for the circuit models.

Unit conventions used throughout the package (h = 1):

* energies and frequencies in GHz,
* time in ns  (GHz * ns = 1),
* decay rates in 1/ns.

With these units the propagator carries an explicit 2*pi:
``U(t) = exp(-i * 2*pi * H * t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, InitVar

import numpy as np

DIMENSION_CAP = 4096
_HERM_TOL = 1e-12
_TWO_PI = 2.0 * np.pi


class ValidationError(ValueError):
    """Input violates a documented precondition or invariant."""


class ConvergenceError(RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


def _complex_matrix(entries) -> np.ndarray:
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValidationError("dimension must be >= 1")
    if m.shape[0] > DIMENSION_CAP:
        raise ValidationError(
            f"dimension {m.shape[0]} exceeds the dense-storage cap {DIMENSION_CAP}"
        )
    if not np.isfinite(m).all():
        raise ValidationError("matrix has non-finite entries")
    return m


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class QuantumState:
    """Pure state: normalized complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).ravel()
        if amps.size < 1:
            raise ValidationError("state needs at least one amplitude")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-12:
            raise ValidationError(f"state norm {norm!r} deviates from 1 beyond 1e-12")
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def dimension(self) -> int:
        return self.amplitudes.size

    def population(self, k: int) -> float:
        """Probability of basis state ``k``."""
        return float(abs(self.amplitudes[k]) ** 2)

    def overlap(self, other: "QuantumState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix in GHz (energy with h = 1)."""

    entries: np.ndarray

    def __post_init__(self):
        m = _complex_matrix(self.entries)
        scale = max(np.linalg.norm(m), 1.0)
        if np.abs(m - m.conj().T).max() > _HERM_TOL * scale:
            raise ValidationError("matrix is not Hermitian within 1e-12 of its norm")
        object.__setattr__(self, "entries", _freeze(m))

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, (approximately) positive state matrix.

    ``trace_tol`` / ``eig_floor`` exist because propagated states carry
    integrator error; user-constructed states keep the strict defaults.
    """

    entries: np.ndarray
    trace_tol: InitVar[float] = 1e-12
    eig_floor: InitVar[float] = -1e-10

    def __post_init__(self, trace_tol, eig_floor):
        m = _complex_matrix(self.entries)
        scale = max(np.linalg.norm(m), 1.0)
        if np.abs(m - m.conj().T).max() > 1e-10 * scale:
            raise ValidationError("density matrix is not Hermitian")
        tr = np.trace(m)
        if abs(tr - 1.0) > trace_tol:
            raise ValidationError(f"trace {tr!r} deviates from 1 beyond {trace_tol}")
        lo = np.linalg.eigvalsh(m).min()
        if lo < eig_floor:
            raise ValidationError(f"negative eigenvalue {lo} below floor {eig_floor}")
        object.__setattr__(self, "entries", _freeze(m))

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def population(self, k: int) -> float:
        return float(self.entries[k, k].real)

    def expectation(self, op: np.ndarray) -> float:
        return float(np.trace(op @ self.entries).real)


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues (GHz) and column-orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _freeze(np.asarray(self.eigenvalues, float)))
        object.__setattr__(self, "eigenvectors", _freeze(np.asarray(self.eigenvectors, complex)))

    def state(self, k: int) -> QuantumState:
        return QuantumState(self.eigenvectors[:, k])


# Pauli matrices in a two-level basis (|0>, |1>); charge-basis convention
# sigma_z = |0><0| - |1><1|, sigma_x = |0><1| + |1><0|.
SIGMA_X = _freeze(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _freeze(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _freeze(np.array([[1, 0], [0, -1]], dtype=complex))
IDENTITY_2 = _freeze(np.eye(2, dtype=complex))


def basis_state(dimension: int, k: int) -> QuantumState:
    amps = np.zeros(dimension, dtype=complex)
    amps[k] = 1.0
    return QuantumState(amps)


def hermitian_eigen(op: HermitianOperator) -> EigenDecomposition:
    """Dense eigendecomposition of a Hermitian operator.

    Raises ConvergenceError if LAPACK fails, and checks the residual
    ``||H v - w v|| <= 1e-10 ||H||`` before returning.
    """
    try:
        w, v = np.linalg.eigh(op.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    hnorm = np.linalg.norm(op.entries, 2)
    residual = np.linalg.norm(op.entries @ v - v * w, 2)
    if residual > 1e-10 * max(hnorm, 1.0):
        raise ConvergenceError(
            f"eigendecomposition residual {residual:.3e} exceeds 1e-10 * ||H||"
        )
    return EigenDecomposition(w, v)


def tensor_product(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product A (x) B; dimension dim(A)*dim(B)."""
    return HermitianOperator(np.kron(a.entries, b.entries))


def propagator(op: HermitianOperator, t: float) -> np.ndarray:
    """Unitary exp(-i*2*pi*H*t) for time-independent H, via eigendecomposition."""
    if t < 0:
        raise ValidationError("evolution time must be >= 0")
    dec = hermitian_eigen(op)
    phases = np.exp(-1j * 2.0 * np.pi * dec.eigenvalues * t)
    return (dec.eigenvectors * phases) @ dec.eigenvectors.conj().T


def evolve_unitary(op: HermitianOperator, psi0: QuantumState, t: float) -> QuantumState:
    """Evolve a pure state under a time-independent Hamiltonian for t ns."""
    if op.dimension != psi0.dimension:
        raise ValidationError(
            f"dimension mismatch: H is {op.dimension}, state is {psi0.dimension}"
        )
    return QuantumState(propagator(op, t) @ psi0.amplitudes)


def _schrodinger_rhs(h_of_t):
    """Return (t, psi) -> d(psi)/dt = -i*2*pi*H(t) psi; psi may hold column states."""
    return lambda t, psi: -1j * _TWO_PI * (h_of_t(t) @ psi)


def _lindblad_rhs(h_of_t, channels):
    """Return (t, rho) -> d(rho)/dt for the GKLS generator with Hamiltonian H(t).

    d(rho)/dt = -i*2*pi*[H, rho] + sum_k g_k (L rho L+ - {L+L, rho}/2);
    the 2*pi belongs to the Hamiltonian term only (H in GHz, rates in 1/ns).
    It is evaluated as X + X+ with X = -i*2*pi*H rho + sum_k g_k (L rho L+ -
    L+L rho)/2, so for Hermitian rho the result is Hermitian to the last bit.
    """
    shape = np.shape(h_of_t(0.0))
    jumps = []
    decay = np.zeros(shape, dtype=complex)  # sum_k g_k L+L / 2
    for op, rate in channels:
        L = np.asarray(op, dtype=complex)
        if L.shape != shape:
            raise ValidationError(f"jump operator shape {L.shape} != H shape {shape}")
        if rate < 0:
            raise ValidationError("channel rates must be >= 0")
        if rate > 0:
            jumps.append((0.5 * rate, L, L.conj().T))
            decay += 0.5 * rate * (L.conj().T @ L)

    def rhs(t, rho):
        x = (-1j * _TWO_PI * h_of_t(t) - decay) @ rho
        for half_rate, L, Ld in jumps:
            x += half_rate * (L @ rho @ Ld)
        return x + x.conj().T

    return rhs


def _rk4(rhs, y0, t_grid, steps_per_ns):
    """Classical RK4 for y' = rhs(t, y) from t = 0; returns y at each grid time.

    Each span between grid times takes ceil(span * steps_per_ns) equal steps.
    When rhs maps Hermitian matrices to exactly Hermitian matrices (as
    ``_lindblad_rhs`` does), every stage is a real-weighted sum of Hermitian
    matrices, so the states stay exactly Hermitian without symmetrization.
    """
    y = y0
    t = 0.0
    out = []
    for tk in t_grid:
        span = float(tk) - t
        if span > 0:
            n = max(1, math.ceil(span * steps_per_ns))
            h = span / n
            for _ in range(n):
                k1 = rhs(t, y)
                k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
                k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
                k4 = rhs(t + h, y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t += h
            t = float(tk)
        out.append(y.copy())
    return out


def _checked_states(t_grid, rhos) -> list[DensityMatrix]:
    """Propagated matrices as DensityMatrix; drift raises ConvergenceError.

    Each state must keep its trace within 1e-8 and its eigenvalues above
    -1e-7 (the integrator-error allowance of DensityMatrix).
    """
    out = []
    for tk, rho in zip(t_grid, rhos):
        drift = abs(np.trace(rho) - 1.0)
        if not drift <= 1e-8:
            raise ConvergenceError(f"trace drift {drift:.2e} > 1e-8 at t = {tk} ns")
        try:
            out.append(DensityMatrix(rho, trace_tol=1e-8, eig_floor=-1e-7))
        except ValidationError as exc:
            raise ConvergenceError(f"propagated state at t = {tk} ns: {exc}") from exc
    return out


def _lindblad_step(h_norm: float, channels, t_total: float) -> float:
    """Fixed RK4 step: accuracy-driven, capped at the 1/(50*||H||) bound.

    Empirical RK4 error model (measured on two-level oracles):
    err ~ 0.13 * (w*h)^4 * (w*T) with w = 2*pi*||H||; the step meets a
    per-run error of 1e-9.
    """
    caps = []
    if h_norm > 0:
        caps.append(1.0 / (50.0 * h_norm))
        w = _TWO_PI * h_norm
        wt = max(w * t_total, 1e-30)
        caps.append((1e-9 / (0.13 * wt)) ** 0.25 / w)
    gmax = max((r for _, r in channels), default=0.0)
    if gmax > 0:
        caps.append(0.02 / gmax)
    if not caps:
        caps.append(max(t_total, 1.0))
    return min(caps)


def evolve_lindblad(
    op: HermitianOperator,
    channels,
    rho0: DensityMatrix,
    t_grid,
    *,
    verify: bool = True,
) -> list[DensityMatrix]:
    """Propagate a density matrix through the Lindblad master equation.

    Parameters
    ----------
    op : HermitianOperator
        Time-independent Hamiltonian (GHz).
    channels : sequence of (jump operator, rate 1/ns)
        Jump operators are plain square arrays; rates must be >= 0.
    rho0 : DensityMatrix
        Initial state.
    t_grid : sequence of float
        Ascending output times (ns), starting at >= 0.
    verify : bool
        Re-integrate with the step halved and require agreement within
        1e-7 (raises ConvergenceError naming the first bad grid time).

    Fixed-step 4th-order Runge-Kutta with the step chosen for a per-run
    error of 1e-9; trace / Hermiticity / positivity are checked at every
    grid point (positivity floor -1e-7).
    """
    t_grid = np.asarray(list(t_grid), dtype=float)
    if t_grid.size == 0:
        return []
    if np.any(np.diff(t_grid) < 0) or t_grid[0] < 0:
        raise ValidationError("t_grid must be ascending and non-negative")
    if op.dimension != rho0.dimension:
        raise ValidationError("Hamiltonian and state dimensions differ")

    h = op.entries
    rhs = _lindblad_rhs(lambda t: h, channels)
    h_norm = float(np.linalg.norm(h, 2))
    t_total = max(float(t_grid[-1]), 1e-12)
    step = _lindblad_step(h_norm, channels, t_total)
    rho = 0.5 * (rho0.entries + rho0.entries.conj().T)

    states = _rk4(rhs, rho, t_grid, 1.0 / step)
    if verify:
        fine = _rk4(rhs, rho, t_grid, 2.0 / step)
        for tk, a, b in zip(t_grid, states, fine):
            if np.abs(a - b).max() > 1e-7:
                raise ConvergenceError(
                    f"step-halving disagreement {np.abs(a - b).max():.2e} > 1e-7 "
                    f"at t = {tk} ns with RK4 step {step:.3g} ns"
                )
        states = fine
    return _checked_states(t_grid, states)
