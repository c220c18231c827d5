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
import numbers
from dataclasses import dataclass

import numpy as np

DIMENSION_CAP = 4096
# the most RK4 steps per drive period one trace may plan
WORK_CAP = 100_000
# the most drive periods one trace may span: int64 period indices, with room to round
_PERIOD_CAP = 2**62
_HERM_TOL = 1e-12
# the largest phase 2 pi |E| t a closed trace may evaluate (about 1.4e9 periods)
_PHASE_CAP = 2.0**33
_TWO_PI = 2.0 * np.pi


class ValidationError(ValueError):
    """Input violates a documented precondition or invariant."""


class ConvergenceError(RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


class FitError(RuntimeError):
    """A linear fit is undetermined or the trace carries no fit (no contrast, no decay)."""


def _complex_matrix(entries) -> np.ndarray:
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValidationError("dimension must be >= 1")
    _check_dense(m.shape[0], "matrix")
    if not np.isfinite(m).all():
        raise ValidationError("matrix has non-finite entries")
    return m


def _check_dense(states: int, what: str, cap: int = DIMENSION_CAP) -> None:
    """The one dense-size rule: a basis of more than ``cap`` (DIMENSION_CAP) states is refused."""
    if states > cap:
        raise ValidationError(f"{what} gives {states} states, above the dense-storage cap {cap}")


def _check_work(kind: str, stop: float, count: float, unit: str, cap: float = WORK_CAP) -> None:
    """The one work rule: a trace plan above its cap, or not finite, is refused before any step.

    ``count`` is the plan's own count in ``unit``: a Lindblad trace's
    squarings per step exponential, a driven run's RK4 steps per period,
    or its periods.  The message gives the count to the fewest digits (at
    least 4) that read above the cap.
    """
    if not count <= cap:
        text = next((t for p in range(4, 18) if float(t := f"{count:.{p}g}") > cap), f"{count}")
        raise ValidationError(
            f"{kind} trace to t = {stop:g} ns needs {text} {unit}, above the cap of {cap:g}"
        )


def _check_finite_values(**values) -> None:
    """Raise ValidationError naming the first of the given numbers that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")


def _check_finite(obj, *names: str) -> None:
    """Raise ValidationError naming the first of obj's fields that is not finite."""
    _check_finite_values(**{name: getattr(obj, name) for name in names})


def _check_integral(**values) -> None:
    """Raise ValidationError naming the first of the given counts that is not an integer."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")


def _check_level_count(k, cutoff: int, available: int) -> None:
    """The one level-count rule of a truncated basis: 1 <= k <= its states."""
    _check_integral(k=k)
    if k < 1:
        raise ValidationError(f"need at least one level, got k = {k}")
    if k > available:
        raise ValidationError(
            f"cutoff {cutoff} gives {available} levels, fewer than the {k} requested"
        )


def _checked_time_grid(t_grid) -> np.ndarray:
    """Output times (ns) as a 1-D float array: at least one time, finite, >= 0 and ascending."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1:
        raise ValidationError(f"time grid must be one-dimensional, got shape {t.shape}")
    if t.size == 0:
        raise ValidationError("time grid must hold at least one time")
    if not np.isfinite(t).all():
        raise ValidationError("time grid has non-finite times")
    if t[0] < 0 or np.any(np.diff(t) < 0):
        raise ValidationError("time grid must be ascending and non-negative")
    return t


def _checked_sweep_grid(grid, name: str) -> np.ndarray:
    """A sweep's control values as a 1-D float array of at least one value, all finite."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValidationError(
            f"{name} grid must be one-dimensional with at least one control value, "
            f"got shape {g.shape}"
        )
    if not np.isfinite(g).all():
        raise ValidationError(f"{name} grid has non-finite values")
    return g


def _linear_fit(a: np.ndarray, y: np.ndarray, what: str) -> np.ndarray:
    """Least-squares x of a x = y; FitError naming ``what`` if a's columns are linearly dependent."""
    x, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
    if rank < a.shape[1]:
        raise FitError(f"{what} failed: singular normal matrix")
    return x


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
        if not np.isfinite(amps).all():
            raise ValidationError("state has non-finite amplitudes")
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
    """Hermitian matrix in GHz (energy with h = 1): m - m+ within 1e-12 d max(max|m_ij|, 1)
    entrywise, a scale above 1e-12 ||m||_F that, unlike it, cannot overflow."""

    entries: np.ndarray

    def __post_init__(self):
        m = _complex_matrix(self.entries)
        scale = _HERM_TOL * m.shape[0] * max(np.abs(m).max(), 1.0)
        if np.abs(m - m.conj().T).max() > scale:
            raise ValidationError("matrix is not Hermitian within 1e-12 of its norm")
        object.__setattr__(self, "entries", _freeze(m))

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]


def _density_fault(rhos: np.ndarray, trace_tol: float, eig_floor: float):
    """(k, check, message) of the first state of a (n, d, d) stack that is no density matrix, or None.

    The checks, in order: "trace", |tr rho - 1| <= trace_tol; "finite";
    "hermitian", |rho - rho+| <= 1e-10 max(||rho||_F, 1) entrywise;
    "eigenvalue", the lowest eigenvalue >= eig_floor.  Each check sees only
    the states before the first failure so far (a NaN never reaches
    ``eigvalsh``), so the last failure found is the first failing state.
    No temporary holds more than the stack's real parts.
    """
    fault = None  # each loop below runs at most once, on its first failing state
    tr = np.trace(rhos, axis1=1, axis2=2)
    for k in np.flatnonzero(~(np.abs(tr - 1.0) <= trace_tol))[:1]:
        rhos, fault = rhos[:k], (k, "trace", f"trace {tr[k]!r} deviates from 1 beyond {trace_tol}")
    for k in np.flatnonzero(~np.isfinite(rhos).all(axis=(1, 2)))[:1]:
        rhos, fault = rhos[:k], (k, "finite", "matrix has non-finite entries")
    re, im = rhos.real, rhos.imag
    scale = np.maximum(np.sqrt(np.sum(re * re, axis=(1, 2)) + np.sum(im * im, axis=(1, 2))), 1.0)
    asym = re - re.swapaxes(1, 2)
    np.hypot(asym, im + im.swapaxes(1, 2), out=asym)
    for k in np.flatnonzero(~(asym.max(axis=(1, 2)) <= 1e-10 * scale))[:1]:
        rhos, fault = rhos[:k], (k, "hermitian", "density matrix is not Hermitian")
    lowest = np.linalg.eigvalsh(rhos).min(axis=1)
    for k in np.flatnonzero(~(lowest >= eig_floor))[:1]:
        fault = (k, "eigenvalue", f"negative eigenvalue {lowest[k]} below floor {eig_floor}")
    return fault


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive state matrix: ``_density_fault`` with trace within
    1e-12 and no eigenvalue below -1e-10, else ValidationError naming the failed check.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = _complex_matrix(self.entries)
        fault = _density_fault(m[None], 1e-12, -1e-10)
        if fault is not None:
            raise ValidationError(fault[2])
        object.__setattr__(self, "entries", _freeze(m))

    @classmethod
    def _checked(cls, entries: np.ndarray) -> "DensityMatrix":
        """A state of read-only entries that have passed these checks already."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "entries", entries)
        return rho

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def population(self, k: int) -> float:
        return float(self.entries[k, k].real)


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues (GHz) and column-orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _freeze(np.asarray(self.eigenvalues, float)))
        object.__setattr__(self, "eigenvectors", _freeze(np.asarray(self.eigenvectors, complex)))


# Pauli matrices in a two-level basis (|0>, |1>); charge-basis convention
# sigma_z = |0><0| - |1><1|, sigma_x = |0><1| + |1><0|.
SIGMA_X = _freeze(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Z = _freeze(np.array([[1, 0], [0, -1]], dtype=complex))


def basis_state(dimension: int, k: int) -> QuantumState:
    amps = np.zeros(dimension, dtype=complex)
    amps[k] = 1.0
    return QuantumState(amps)


def hermitian_eigen(op: HermitianOperator) -> EigenDecomposition:
    """Dense eigendecomposition of a Hermitian operator.

    Raises ConvergenceError if LAPACK fails, and checks the residual
    ``||H V - V diag(w)||_F <= 1e-10 max(||H||_2, 1)`` before returning.
    The Frobenius norm bounds the spectral one from above, and for Hermitian
    H, ``||H||_2 = max(|w_0|, |w_-1|)`` comes with the eigenvalues.
    """
    try:
        w, v = np.linalg.eigh(op.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    hnorm = max(abs(w[0]), abs(w[-1]))
    residual = np.linalg.norm(op.entries @ v - v * w)
    if residual > 1e-10 * max(hnorm, 1.0):
        raise ConvergenceError(
            f"eigendecomposition residual {residual:.3e} exceeds 1e-10 * ||H||"
        )
    return EigenDecomposition(w, v)


def evolve_unitary(op: HermitianOperator, psi0: QuantumState, t: float) -> QuantumState:
    """Evolve a pure state under a time-independent Hamiltonian for t ns."""
    _check_finite_values(t=t)
    if t < 0:
        raise ValidationError("evolution time must be >= 0")
    return QuantumState(_unitary_trace(op, psi0, np.array([t], dtype=float))[0])


def _unitary_trace(op: HermitianOperator, psi0: QuantumState, t_grid: np.ndarray) -> np.ndarray:
    """States exp(-i 2 pi H t) psi0 at the times of a checked grid, as a (points, d) array.

    One eigendecomposition H = V diag(w) V+ and one product, (exp(-2 pi i
    w t) * (V+ psi0)) V^T, a row per time.  Each rounding of a phase 2 pi
    |w| t below _PHASE_CAP = 2**33 rad, in w and in the product, is at
    most 2**-20 rad (the phase's ulp at the cap), so the phase is resolved
    to about 1e-6 rad; past the cap the trace carries no reliable
    populations.  That, or a state whose norm drifts from 1 beyond 1e-12,
    is a ConvergenceError naming its first time.
    """
    if op.dimension != psi0.dimension:
        raise ValidationError(
            f"dimension mismatch: H is {op.dimension}, state is {psi0.dimension}"
        )
    dec = hermitian_eigen(op)
    w, v = dec.eigenvalues, dec.eigenvectors
    phase = _TWO_PI * max(abs(float(w[0])), abs(float(w[-1]))) * t_grid
    for k in np.flatnonzero(phase > _PHASE_CAP)[:1]:  # the first time past the cap
        raise ConvergenceError(
            f"phase 2 pi |E| t = {phase[k]:.3g} rad at t = {t_grid[k]:.6g} ns is not resolved in "
            f"double precision (cap 2**33 rad)"
        )
    phases = np.exp(-1j * 2.0 * np.pi * w * t_grid[:, None])
    states = (phases * (v.conj().T @ psi0.amplitudes)) @ v.T
    norm = np.linalg.norm(states, axis=1)
    for k in np.flatnonzero(~(np.abs(norm - 1.0) <= 1e-12))[:1]:  # the first drifted state
        raise ConvergenceError(
            f"state norm {float(norm[k])!r} deviates from 1 beyond 1e-12 at t = {t_grid[k]:.6g} ns"
        )
    return states


def _jump_terms(shape, channels):
    """Validated channels: the (rate, L) pairs with rate > 0, and sum_k g_k L+L / 2.

    A negative rate, or a rate or operator entry that is not finite, is a
    ValidationError naming the channel by its position.
    """
    jumps = []
    decay = np.zeros(shape, dtype=complex)
    for i, (op, rate) in enumerate(channels):
        L = np.asarray(op, dtype=complex)
        if L.shape != shape:
            raise ValidationError(f"jump operator shape {L.shape} != H shape {shape}")
        if not math.isfinite(rate):
            raise ValidationError(f"channel {i} rate must be finite, got {rate!r}")
        if not np.isfinite(L).all():
            raise ValidationError(f"channel {i} jump operator has non-finite entries")
        if rate < 0:
            raise ValidationError(f"channel {i} rate must be >= 0, got {rate!r}")
        if rate > 0:
            jumps.append((rate, L))
            decay += 0.5 * rate * (L.conj().T @ L)
    return jumps, decay


def _liouvillian(h, channels):
    """The GKLS generator G as a matrix on the row-major vec(rho), from vec(A x B) = (A (x) B^T) vec(x).

    G(x) = K x + x K+ + sum_k g_k L x L+ with K = -i*2*pi*(H - tr H/d) -
    sum_k g_k L+L/2; the 2*pi belongs to the Hamiltonian term only (H in
    GHz, rates in 1/ns), and the shift by tr H/d cancels in K x + x K+ but
    lowers the norm.  Without channels it is the commutator part alone,
    how a drive term H = c(t) V enters ``_driven_trace``.
    """
    jumps, decay = _jump_terms(h.shape, channels)
    d = h.shape[0]
    eye = np.eye(d)
    k = -1j * _TWO_PI * (h - (np.trace(h).real / d) * eye) - decay
    lv = np.kron(k, eye) + np.kron(eye, k.conj())
    for rate, L in jumps:
        lv += rate * np.kron(L, L.conj())
    return lv


def _hermitian(x):
    """x symmetrized once, (x + x+)/2: exactly Hermitian."""
    return 0.5 * (x + x.conj().T)


def _rk4_step_matrix(a_start, a_mid, a_end, h):
    """The RK4 step y -> M y for y' = A(t) y, given A at t, t + h/2 and t + h.

    M = I + h/6 (P1 + 2 P2 + 2 P3 + P4) with P1 = A(t), P2 = A(t+h/2)(I +
    h/2 P1), P3 = A(t+h/2)(I + h/2 P2) and P4 = A(t+h)(I + h P3): the four
    stages of the classical RK4 step as matrices.  Leading axes are batch
    axes, of h too.
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
# stacks of that many dim x dim matrices.  A drive period holds 250-400
# steps, so a trace builds one or two chunks.  On one drive benchmark pass
# (4 x 4 CNOT, closed and open Rabi) numpy's traced peak was 0.60 MB with
# chunks of 256, 0.89 MB with 1024 and 0.16 MB with 64, in the same time.
_CHUNK_STEPS = 256


def _rk4_driven(a0, a1, coeff, period, y0, t_grid, steps_per_ns):
    """RK4 for y' = (A0 + coeff(t) A1) y from t = 0; y at each grid time, stacked on a leading axis.

    ``coeff`` maps an array of times to an array and repeats with
    ``period`` T.  ``math.inf`` means a constant coefficient: any interval
    is then a period, and T is one step of 1/steps_per_ns (so is a T
    whose step count overflows).  Step j starts at j h, with h = T/m and
    m = ceil(T steps_per_ns); each is an exact RK4 step matrix.  Only the
    steps of one period are built (fewer if the grid ends first), up to ``_CHUNK_STEPS``
    at a time, and their product is kept at the phases the grid needs.  A
    grid time t = q T + r is then one partial step from j h to r, j =
    floor(r/h), times the product of steps 0 .. j-1, times U_T^q: U_T is
    the product of one period's m steps (Floquet), and its powers come from
    repeated squaring.  Before any step, ``_check_work`` refuses a plan of
    more than WORK_CAP steps per period (counted to the last grid time if
    that comes first) or of more than ``_PERIOD_CAP`` periods.
    """
    per_period = period * steps_per_ns
    if not math.isfinite(per_period):
        period, per_period = 1.0 / steps_per_ns, 1.0
    t = np.asarray(t_grid, dtype=float)
    span = float(t[-1]) * steps_per_ns
    _check_work("drive", t[-1], min(per_period, span), "RK4 steps per drive period")
    _check_work("drive", t[-1], span / per_period, "drive periods", _PERIOD_CAP)
    r = np.fmod(t, period)  # exact, in [0, T): no rounding puts it below 0 or at T
    q = np.rint((t - r) / period).astype(int)
    m = math.ceil(per_period)
    h = period / m
    j = (r // h).astype(int)

    def gen(times):
        return a0 + coeff(times)[:, None, None] * a1

    # prefix[k] = step k-1 @ ... @ step 0, at each k the grid needs
    prefix, u, done = {}, np.eye(a0.shape[0]), 0
    for stop in sorted(set(j.tolist()) | ({m} if q.max() > 0 else set())):
        for first in range(done, stop, _CHUNK_STEPS):
            ts = np.arange(first, min(stop, first + _CHUNK_STEPS)) * h
            u = _ordered_product(_rk4_step_matrix(gen(ts), gen(ts + 0.5 * h), gen(ts + h), h)) @ u
        prefix[stop], done = u, stop

    # U_T^q y0 for each q in turn, U_T to the gap from the previous q by
    # repeated squaring
    periods, y, done = {0: y0}, y0, 0
    for qk in sorted(set(q.tolist()) - {0}):
        y = np.linalg.matrix_power(prefix[m], qk - done) @ y
        periods[qk], done = y, qk

    lead = j * h
    size = r - lead
    partial = _rk4_step_matrix(gen(lead), gen(lead + 0.5 * size), gen(r), size[:, None, None])
    return np.array([p @ (prefix[a] @ periods[b]) for p, a, b in zip(partial, j.tolist(), q.tolist())])


# stacked states per call of ``_density_fault`` in ``_checked_states``, and
# per step of ``_symmetrize``: no temporary holds more than one block
_STATE_BLOCK = 64


def _symmetrize(rhos: np.ndarray) -> np.ndarray:
    """A (points, d, d) stack made Hermitian in place, (X + X+)/2, ``_STATE_BLOCK`` states a step."""
    for a in range(0, len(rhos), _STATE_BLOCK):
        block = rhos[a : a + _STATE_BLOCK]
        block[...] = 0.5 * (block + block.conj().swapaxes(1, 2))
    return rhos


def _checked_states(t_grid, rhos) -> np.ndarray:
    """Propagated (points, d, d) matrices, judged and returned as one read-only stack.

    ``_density_fault`` judges ``_STATE_BLOCK`` states at a time, trace within
    1e-8 and no eigenvalue below -1e-7 (integrator error); the first failing
    grid time raises a ConvergenceError.
    """
    rhos = _freeze(np.asarray(rhos, dtype=complex))
    for a in range(0, len(rhos), _STATE_BLOCK):
        fault = _density_fault(rhos[a : a + _STATE_BLOCK], 1e-8, -1e-7)
        if fault is not None:
            k, check, message = fault
            tk = t_grid[a + k]
            if check == "trace":
                drift = abs(np.trace(rhos[a + k]) - 1.0)
                raise ConvergenceError(f"trace drift {drift:.2e} > 1e-8 at t = {tk} ns")
            raise ConvergenceError(f"propagated state at t = {tk} ns: {message}")
    return rhos


def _driven_trace(h0, v, pulse, y0, t_grid, channels=None):
    """RK4 trace under H(t) = H0 + c(t) V from t = 0, c = ``pulse.coefficient``, as one stack.

    Closed (no channels): y0 holds state columns, and each grid time and
    column must keep its squared norm within 1e-6 of 1.  Open: y0 is a
    density matrix evolved by ``_liouvillian``, the stack ``_symmetrize``d
    and checked as in ``evolve_lindblad``.  Steps per ns: 250 max(||H0||_2
    + A ||V||_2, |nu|, sum_k g_k ||L_k||_2^2 / 2 pi, 1), A and nu the pulse
    amplitude and frequency, g_k and L_k the channels' rates and operators:
    the fastest rate in H(t) gets at least 250 steps per cycle, and the
    dissipator's decay at most 2 pi / 250 per step, inside RK4's stability
    region.  c repeats every 1/|nu| ns (and is constant at nu = 0, passed
    as period ``math.inf``), so ``_rk4_driven`` integrates one period and
    raises it to powers.  Drift is a ConvergenceError.
    """
    rate = np.linalg.norm(h0, 2) + pulse.amplitude * np.linalg.norm(v, 2)
    jumps, _ = _jump_terms(h0.shape, channels or ())
    decay = sum(g * np.linalg.norm(L, 2) ** 2 for g, L in jumps) / _TWO_PI
    steps_per_ns = 250.0 * max(rate, abs(pulse.frequency), decay, 1.0)
    period = 1.0 / abs(pulse.frequency) if pulse.frequency else math.inf
    if channels is None:
        a0, a1 = -1j * _TWO_PI * h0, -1j * _TWO_PI * v
        states = _rk4_driven(a0, a1, pulse.coefficient, period, y0, t_grid, steps_per_ns)
        drift = float(np.abs((np.abs(states) ** 2).sum(axis=1) - 1.0).max())
        if not drift <= 1e-6:
            raise ConvergenceError(
                f"pulse integration lost {drift:.2e} of norm at {steps_per_ns:.4g} RK4 steps per ns"
            )
        return states
    a0, a1 = _liouvillian(h0, channels), _liouvillian(v, [])
    vecs = _rk4_driven(a0, a1, pulse.coefficient, period, y0.ravel(), t_grid, steps_per_ns)
    return _checked_states(t_grid, _symmetrize(vecs.reshape((len(vecs),) + y0.shape)))


# Al-Mohy & Higham, "Computing the action of the matrix exponential", SIAM
# J. Sci. Comput. 33, 488 (2011), Table 3.1 for u = 2^-53: the degree-m Taylor
# polynomial of a with ||a||_1 <= theta_m is exp(a + e) with ||e||_1 <= u ||a||_1.
_TAYLOR_THETA = {
    5: 2.4e-3, 10: 0.144, 15: 0.641, 20: 1.44, 25: 2.43, 30: 3.54,
    35: 4.73, 40: 5.97, 45: 7.25, 50: 8.55,
}
# the most squarings of one step exponential: each may double the rounding
# error, and 2^26 u = 7.5e-9 stays below the 1e-8 trace tolerance
_SQUARING_CAP = 26
# the largest Liouville dimension d^2 of a constant-generator trace, d = 24: a
# step exponential of 23 products takes 0.25 s there on 2 CPUs (0.4 s at the
# squaring cap), and 1.4 s at d = 32
_LIOUVILLE_CAP = 576


def _expm_plan(norm: float) -> tuple[int, int | float]:
    """(m, k): Taylor degree and squarings with norm/2^k <= theta_m and the fewest products m + k.

    Ties go to fewer squarings.  A norm that is not finite, or so large
    that norm/theta_5 overflows, plans k = inf.
    """
    if not norm / min(_TAYLOR_THETA.values()) < math.inf:
        return max(_TAYLOR_THETA), math.inf

    def squarings(theta):
        mantissa, exponent = math.frexp(norm / theta)  # norm/theta = mantissa 2^exponent
        return max(0, exponent - (mantissa == 0.5))

    plans = [(m, squarings(theta)) for m, theta in _TAYLOR_THETA.items()]
    return min(plans, key=lambda plan: (plan[0] + plan[1], plan[1]))


def _expm(a: np.ndarray, extra: int = 0) -> np.ndarray:
    """exp(a) by scaling and squaring: T_m(a/2^k) squared k times, T_m by Horner's rule.

    (m, k) = ``_expm_plan(||a||_1)``, with ``extra`` more squarings.  The
    plan's backward error is at most u ||a||_1 (Moler & Van Loan, SIAM Rev.
    45, 3 (2003); Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970
    (2009)); it takes m + k + extra products.
    """
    m, k = _expm_plan(float(np.linalg.norm(a, 1)))
    k += extra
    a = a * 2.0**-k
    e = eye = np.eye(a.shape[0])
    for j in range(m, 0, -1):
        e = (a @ e) / j
        e += eye
    for _ in range(k):
        e = e @ e
    return e


def _step_chain(lv, spans, step, rho, extra: int) -> np.ndarray:
    """States exp(t_i L) rho of a grid as a (points, d, d) stack, each symmetrized once.

    ``spans`` holds the grid's distinct spacings (the first from t = 0) and
    ``step`` each point's index into it.  A spacing's ``_expm(span L,
    extra)`` is taken at its first point and dropped after its last, and
    each point is one product with it.  After the chain, ``_symmetrize``
    makes the stack Hermitian.
    """
    last = dict(zip(step.tolist(), range(len(step))))  # the last point of each spacing
    steps, vec = {}, rho.ravel()
    out = np.empty((len(step), rho.size), dtype=complex)
    for i, j in enumerate(step.tolist()):
        if j not in steps:
            steps[j] = _expm(spans[j] * lv, extra)
        vec = out[i] = (steps.pop(j) if last[j] == i else steps[j]) @ vec
    return _symmetrize(out.reshape((len(step),) + rho.shape))


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
        Jump operators are plain square arrays; rates must be >= 0, and a
        rate or operator entry that is not finite is a ValidationError.
    rho0 : DensityMatrix
        Initial state.
    t_grid : sequence of float
        At least one ascending output time (ns), from >= 0 (an empty grid is a ValidationError).
    verify : bool
        Run the chain again with every step exponential at one more
        squaring and require agreement within 1e-7 (raises
        ConvergenceError naming the first bad grid time).  The check does
        not change the returned states.

    The states are exp(t L) rho0 with L the d^2 x d^2 GKLS generator of
    ``_liouvillian``, built once.  Each distinct grid spacing s takes one
    step exponential exp(s L) (``_expm``), and each grid time is the step
    of its spacing applied to the state before it, so a ``linspace`` grid
    costs a few exponentials and one matrix-vector product per point.
    Before any product, ``_check_dense`` refuses a Liouville dimension d^2
    above ``_LIOUVILLE_CAP`` and ``_check_work`` a plan of more than
    ``_SQUARING_CAP`` squarings (counting the check's extra one).  Each
    state is symmetrized once, (X + X+)/2, and judged by
    ``_checked_states``: trace within 1e-8, no eigenvalue below -1e-7,
    else ConvergenceError naming the first failing grid time.  The states
    are DensityMatrix views of the rows of that one read-only stack: a
    caller that keeps one state keeps the whole trace.
    """
    t_grid = _checked_time_grid(list(t_grid))
    return [DensityMatrix._checked(rho) for rho in _lindblad_trace(op, channels, rho0, t_grid, verify)]


def _lindblad_trace(op, channels, rho0, t_grid: np.ndarray, verify: bool = False) -> np.ndarray:
    """``evolve_lindblad`` on a checked grid, as the read-only (points, d, d) stack it judged."""
    if op.dimension != rho0.dimension:
        raise ValidationError("Hamiltonian and state dimensions differ")
    d = op.dimension
    _check_dense(d * d, f"Liouville space of {d} levels", _LIOUVILLE_CAP)
    lv = _liouvillian(op.entries, channels)
    spans, step = np.unique(np.diff(t_grid, prepend=0.0), return_inverse=True)
    with np.errstate(over="ignore"):  # an infinite norm plans inf squarings, refused below
        squarings = _expm_plan(float(np.linalg.norm(spans[-1] * lv, 1)))[1] + verify
    _check_work("Lindblad", t_grid[-1], squarings, "squarings", _SQUARING_CAP)
    rho = _hermitian(rho0.entries)
    states = _step_chain(lv, spans, step, rho, 0)
    if verify:
        for tk, state, again in zip(t_grid, states, _step_chain(lv, spans, step, rho, 1)):
            delta = np.abs(state - again).max()
            if not delta <= 1e-7:
                raise ConvergenceError(
                    f"step exponentials at one more squaring: disagreement {delta:.2e} > 1e-7 "
                    f"at t = {tk} ns"
                )
    return _checked_states(t_grid, states)
