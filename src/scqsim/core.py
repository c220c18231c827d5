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
# largest d whose d^2 x d^2 Lindblad superoperator evolve_lindblad builds
# (144^2 complex, 0.33 MB per matrix); larger systems keep the stage loop
_LIOUVILLE_DIMENSION_CAP = 12
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


def _check_finite(obj, *names: str) -> None:
    """Raise ValidationError naming the first of obj's fields that is not finite."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")


def _checked_time_grid(t_grid) -> np.ndarray:
    """Output times (ns) as a 1-D float array: finite, >= 0 and ascending."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1:
        raise ValidationError(f"time grid must be one-dimensional, got shape {t.shape}")
    if not np.isfinite(t).all():
        raise ValidationError("time grid has non-finite times")
    if t.size and (t[0] < 0 or np.any(np.diff(t) < 0)):
        raise ValidationError("time grid must be ascending and non-negative")
    return t


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


def _jump_terms(shape, channels):
    """Validated channels: the (rate, L) pairs with rate > 0, and sum_k g_k L+L / 2."""
    jumps = []
    decay = np.zeros(shape, dtype=complex)
    for op, rate in channels:
        L = np.asarray(op, dtype=complex)
        if L.shape != shape:
            raise ValidationError(f"jump operator shape {L.shape} != H shape {shape}")
        if rate < 0:
            raise ValidationError("channel rates must be >= 0")
        if rate > 0:
            jumps.append((rate, L))
            decay += 0.5 * rate * (L.conj().T @ L)
    return jumps, decay


def _lindblad_rhs(h_of_t, channels):
    """Return (t, rho) -> d(rho)/dt for the GKLS generator with Hamiltonian H(t).

    d(rho)/dt = -i*2*pi*[H, rho] + sum_k g_k (L rho L+ - {L+L, rho}/2);
    the 2*pi belongs to the Hamiltonian term only (H in GHz, rates in 1/ns).
    It is evaluated as X + X+ with X = -i*2*pi*H rho + sum_k g_k (L rho L+ -
    L+L rho)/2, so for Hermitian rho the result is Hermitian to the last bit.
    """
    jumps, decay = _jump_terms(np.shape(h_of_t(0.0)), channels)
    jumps = [(0.5 * rate, L, L.conj().T) for rate, L in jumps]

    def rhs(t, rho):
        x = (-1j * _TWO_PI * h_of_t(t) - decay) @ rho
        for half_rate, L, Ld in jumps:
            x += half_rate * (L @ rho @ Ld)
        return x + x.conj().T

    return rhs


def _liouvillian(h, channels):
    """The GKLS generator of ``_lindblad_rhs`` acting on the row-major vec(rho).

    With K = -i*2*pi*H - sum_k g_k L+L/2 the generator is K rho + rho K+ +
    sum_k g_k L rho L+, and vec(A X B) = (A (x) B^T) vec(X).  Without
    channels it is the commutator part alone, which is how a drive term
    H = c(t) V enters as its own generator.
    """
    jumps, decay = _jump_terms(h.shape, channels)
    k = -1j * _TWO_PI * h - decay
    eye = np.eye(h.shape[0])
    gen = np.kron(k, eye) + np.kron(eye, k.conj())
    for rate, L in jumps:
        gen += rate * np.kron(L, L.conj())
    return gen


def _hermitian_matrices(vecs, d):
    """Row-major vec(rho) back to d x d matrices, each symmetrized once as (X + X+)/2."""
    return [0.5 * (x + x.conj().T) for x in (v.reshape(d, d) for v in vecs)]


def _grid_spans(t_grid, steps_per_ns):
    """(start time, step count n, step h) for each grid time, integrating from t = 0.

    Each span takes n = ceil(span * steps_per_ns) equal steps; a zero span
    (a grid time equal to the previous one) takes none.
    """
    t = 0.0
    for tk in t_grid:
        span = float(tk) - t
        if span > 0:
            n = max(1, math.ceil(span * steps_per_ns))
            yield t, n, span / n
            t = float(tk)
        else:
            yield t, 0, 0.0


def _rk4(rhs, y0, t_grid, steps_per_ns):
    """Classical RK4 stage loop for y' = rhs(t, y) from t = 0; y at each grid time.

    Steps are those of ``_grid_spans``.  When rhs maps Hermitian matrices to
    exactly Hermitian matrices (as ``_lindblad_rhs`` does), every stage is a
    real-weighted sum of Hermitian matrices, so the states stay exactly
    Hermitian without symmetrization.  ``evolve_lindblad`` uses it where the
    superoperator would be too large for the step-matrix propagators.
    """
    y = y0
    out = []
    for t0, n, h in _grid_spans(t_grid, steps_per_ns):
        for j in range(n):
            t = t0 + j * h
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y.copy())
    return out


def _rk4_step_matrix(a_start, a_mid, a_end, h):
    """The RK4 step y -> M y for y' = A(t) y, given A at t, t + h/2 and t + h.

    M = I + h/6 (P1 + 2 P2 + 2 P3 + P4) with P1 = A(t), P2 = A(t+h/2)(I +
    h/2 P1), P3 = A(t+h/2)(I + h/2 P2) and P4 = A(t+h)(I + h P3): the four
    stages of ``_rk4`` as matrices.  Leading axes are batch axes.
    """
    eye = np.eye(a_start.shape[-1])
    p2 = a_mid @ (eye + 0.5 * h * a_start)
    p3 = a_mid @ (eye + 0.5 * h * p2)
    p4 = a_end @ (eye + h * p3)
    return eye + (h / 6.0) * (a_start + 2.0 * p2 + 2.0 * p3 + p4)


def _ordered_product(m):
    """m[-1] @ ... @ m[1] @ m[0] by pairwise reduction (a product tree)."""
    while len(m) > 1:
        pairs = m[1::2] @ m[:-1:2]
        m = np.concatenate([pairs, m[-1:]]) if len(m) % 2 else pairs
    return m[0]


# step matrices built at once; a chunk's temporaries are about a dozen
# stacks of that many dim x dim matrices.  On the drive benchmark (4 x 4
# CNOT pulses) chunks of 1024 raised the peak RSS by 3.5 MB over the stage
# loop, chunks of 256 by 0.9 MB at 4 % more time.
_CHUNK_STEPS = 256


def _rk4_driven(a0, a1, coeff, y0, t_grid, steps_per_ns):
    """RK4 for y' = (A0 + coeff(t) A1) y from t = 0; y at each grid time.

    Takes the steps of ``_grid_spans`` (step j of a span starts at t0 + j*h)
    as exact step matrices, built up to ``_CHUNK_STEPS`` at a time and
    multiplied in order; ``coeff`` maps an array of times to an array.
    """

    def gen(t):
        return a0 + coeff(t)[:, None, None] * a1

    y = y0
    out = []
    for t0, n, h in _grid_spans(t_grid, steps_per_ns):
        for first in range(0, n, _CHUNK_STEPS):
            t = t0 + np.arange(first, min(n, first + _CHUNK_STEPS)) * h
            m = _rk4_step_matrix(gen(t), gen(t + 0.5 * h), gen(t + h), h)
            y = _ordered_product(m) @ y
        out.append(y)
    return out


def _rk4_constant(a, y0, t_grid, steps_per_ns):
    """RK4 for y' = A y from t = 0 as powers of one step matrix; y at each grid time.

    The spans of a uniform grid differ by the rounding of the grid times, so
    a span reuses the last step matrix M when n steps of its step length
    stay within 4 ulp of the span's end time (the stage loop's t += h drifts
    further).  Each step count n of a matrix is raised once, M^n.
    """
    y = y0
    out = []
    shared_h, powers = None, {}
    for t0, n, h in _grid_spans(t_grid, steps_per_ns):
        if n:
            if shared_h is None or n * abs(h - shared_h) > 4.0 * np.spacing(t0 + n * h):
                shared_h, powers = h, {1: _rk4_step_matrix(a, a, a, h)}
            if n not in powers:
                powers[n] = np.linalg.matrix_power(powers[1], n)
            y = powers[n] @ y
        out.append(y)
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
    grid point (positivity floor -1e-7).  Up to dimension
    ``_LIOUVILLE_DIMENSION_CAP`` the steps run as powers of the step matrix
    of the d^2 x d^2 superoperator; above it, as the matrix-form stage loop.
    """
    t_grid = _checked_time_grid(list(t_grid))
    if t_grid.size == 0:
        return []
    if op.dimension != rho0.dimension:
        raise ValidationError("Hamiltonian and state dimensions differ")

    h = op.entries
    d = op.dimension
    rho = 0.5 * (rho0.entries + rho0.entries.conj().T)
    if d <= _LIOUVILLE_DIMENSION_CAP:
        gen = _liouvillian(h, channels)

        def run(steps_per_ns):
            return _hermitian_matrices(_rk4_constant(gen, rho.ravel(), t_grid, steps_per_ns), d)

    else:
        rhs = _lindblad_rhs(lambda t: h, channels)

        def run(steps_per_ns):
            return _rk4(rhs, rho, t_grid, steps_per_ns)

    h_norm = float(np.linalg.norm(h, 2))
    t_total = max(float(t_grid[-1]), 1e-12)
    step = _lindblad_step(h_norm, channels, t_total)
    states = run(1.0 / step)
    if verify:
        fine = run(2.0 / step)
        for tk, a, b in zip(t_grid, states, fine):
            if np.abs(a - b).max() > 1e-7:
                raise ConvergenceError(
                    f"step-halving disagreement {np.abs(a - b).max():.2e} > 1e-7 "
                    f"at t = {tk} ns with RK4 step {step:.3g} ns"
                )
        states = fine
    return _checked_states(t_grid, states)
