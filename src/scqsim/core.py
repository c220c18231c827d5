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
# the most Taylor substeps, or RK4 steps per drive period, one trace may plan
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
    """Least-squares extraction failed or the trace is degenerate."""


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


def _check_dense(states: int, what: str) -> None:
    """The one dense-size rule: a basis of more than DIMENSION_CAP states is refused."""
    if states > DIMENSION_CAP:
        raise ValidationError(
            f"{what} gives {states} states, above the dense-storage cap {DIMENSION_CAP}"
        )


def _check_work(kind: str, stop: float, count: float, unit: str, cap: float = WORK_CAP) -> None:
    """The one work rule: a trace plan above its cap, or not finite, is refused before any step."""
    if not count <= cap:
        raise ValidationError(
            f"{kind} trace to t = {stop:g} ns needs {count:.4g} {unit}, above the cap of {cap:g}"
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


_FIT_MAX_ITER = 200
_FIT_XTOL = 1e-12
_FIT_GTOL = 1e-6


def _least_squares(model, y, p0, what: str = "least-squares fit") -> np.ndarray:
    """Levenberg-Marquardt parameters p minimizing ||model(p) - y||^2.

    ``model(p)`` returns ``(values, jacobian)``.  Each iteration solves
    ``(A + lam diag(A)) s = -J^T r`` with ``A = J^T J``; a step that does
    not raise the squared residual is taken and lam shrinks tenfold, else
    lam grows tenfold.  Stops once ``||D s|| <= 1e-12 ||D p||`` with
    ``D = sqrt(diag(A))`` (MINPACK's scaled step test), provided the
    gradient ``J^T r`` vanishes there too: its Gauss-Newton step
    ``A^-1 J^T r`` must satisfy ``||D s_gn|| <= 1e-6 ||D p||``.  A wrong
    Jacobian stalls the damped step anywhere, so without this test it
    would return its start value as the fit.  FitError, naming ``what``:
    no stop in 200 iterations, a stop away from a minimum, a non-finite
    parameter or model value, or a singular normal matrix.
    """
    p = np.array(p0, dtype=float)
    values, jac = model(p)
    r = values - y
    cost, lam = r @ r, 1e-3
    for _ in range(_FIT_MAX_ITER):
        a = jac.T @ jac
        scale = np.sqrt(np.diag(a))
        try:
            step = np.linalg.solve(a + lam * np.diag(np.diag(a)), -(jac.T @ r))
        except np.linalg.LinAlgError:
            raise FitError(f"{what} failed: singular normal matrix") from None
        trial = p + step
        if not np.isfinite(trial).all():
            raise FitError(f"{what} failed: non-finite parameters {trial}")
        values, trial_jac = model(trial)
        trial_r = values - y
        if not (np.isfinite(trial_r).all() and np.isfinite(trial_jac).all()):
            raise FitError(f"{what} failed: non-finite model at parameters {trial}")
        trial_cost = trial_r @ trial_r
        if trial_cost <= cost:
            p, r, jac, cost, lam = trial, trial_r, trial_jac, trial_cost, 0.1 * lam
        else:
            lam *= 10.0
        if np.linalg.norm(scale * step) <= _FIT_XTOL * np.linalg.norm(scale * p):
            scale = np.linalg.norm(jac, axis=0)
            newton = np.linalg.lstsq(jac, -r, rcond=None)[0]
            if np.linalg.norm(scale * newton) > _FIT_GTOL * np.linalg.norm(scale * p):
                raise FitError(
                    f"{what} failed: stalled at {p}, where the gradient does not vanish"
                )
            return p
    raise FitError(f"{what} did not converge in {_FIT_MAX_ITER} iterations")


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


def tensor_product(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product A (x) B; dimension dim(A)*dim(B)."""
    return HermitianOperator(np.kron(a.entries, b.entries))


def propagator(op: HermitianOperator, t: float) -> np.ndarray:
    """Unitary exp(-i*2*pi*H*t) for time-independent H, via eigendecomposition."""
    return _eigen_propagator(hermitian_eigen(op), t)


def _eigen_propagator(dec: EigenDecomposition, t: float) -> np.ndarray:
    """exp(-i 2 pi H t) from H's eigendecomposition (ascending eigenvalues).

    Each rounding of a phase 2 pi |w| t below _PHASE_CAP = 2**33 rad, in w
    and in the product, is at most 2**-20 rad (the phase's ulp at the cap),
    so the phase is resolved to about 1e-6 rad; past the cap the trace
    carries no reliable populations and is a ConvergenceError.
    """
    _check_finite_values(t=t)
    if t < 0:
        raise ValidationError("evolution time must be >= 0")
    w = dec.eigenvalues
    phase = _TWO_PI * max(abs(float(w[0])), abs(float(w[-1]))) * t
    if phase > _PHASE_CAP:
        raise ConvergenceError(
            f"phase 2 pi |E| t = {phase:.3g} rad at t = {t:.6g} ns is not resolved in double "
            f"precision (cap 2**33 rad)"
        )
    phases = np.exp(-1j * 2.0 * np.pi * dec.eigenvalues * t)
    return (dec.eigenvectors * phases) @ dec.eigenvectors.conj().T


def evolve_unitary(op: HermitianOperator, psi0: QuantumState, t: float) -> QuantumState:
    """Evolve a pure state under a time-independent Hamiltonian for t ns."""
    return _unitary_trace(op, psi0, [t])[0]


def _unitary_trace(op: HermitianOperator, psi0: QuantumState, t_grid) -> list[QuantumState]:
    """``evolve_unitary`` at each time of ``t_grid``, from one eigendecomposition."""
    if op.dimension != psi0.dimension:
        raise ValidationError(
            f"dimension mismatch: H is {op.dimension}, state is {psi0.dimension}"
        )
    dec = hermitian_eigen(op)
    return [QuantumState(_eigen_propagator(dec, float(t)) @ psi0.amplitudes) for t in t_grid]


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
    """The matrix of ``_lindblad_generator``'s map on the row-major vec(rho).

    Column i d + j is G(|i><j|) flattened.  Without channels it is the
    commutator part alone, how a drive term H = c(t) V enters ``_driven_trace``.
    """
    gen, _ = _lindblad_generator(h, channels)
    d = h.shape[0]
    return np.stack([gen(e.reshape(d, d)).ravel() for e in np.eye(d * d, dtype=complex)], axis=1)


def _lindblad_generator(h, channels):
    """(G, nu): the GKLS generator on d x d matrices and a bound nu >= ||G||_1.

    G(x) = K x + x K+ + sum_k g_k L x L+ with K = -i*2*pi*(H - tr H/d) -
    sum_k g_k L+L/2; the 2*pi belongs to the Hamiltonian term only (H in
    GHz, rates in 1/ns), and the shift by tr H/d cancels in K x + x K+ but
    lowers nu = 2 ||K||_1 + sum_k g_k ||L||_1^2, which bounds the 1-norm of
    G acting on vec(x).  G is written literally, since the Taylor terms it
    is applied to are not Hermitian.  With R_k = sqrt(g_k) L_k it runs as
    two stacked products, [K x, R_1 x, ...] @ [I; R_1+; ...], plus x K+.
    """
    jumps, decay = _jump_terms(h.shape, channels)
    d = h.shape[0]
    k = -1j * _TWO_PI * (h - (np.trace(h).real / d) * np.eye(d)) - decay
    k_h = k.conj().T
    roots = [math.sqrt(rate) * L for rate, L in jumps]
    blocks = len(roots) + 1
    left = np.concatenate([k, *roots])
    right = np.concatenate([np.eye(d), *(r.conj().T for r in roots)])
    nu = 2.0 * np.linalg.norm(k, 1) + sum(rate * np.linalg.norm(L, 1) ** 2 for rate, L in jumps)

    def gen(x):
        y = (left @ x).reshape(blocks, d, d).transpose(1, 0, 2).reshape(d, blocks * d) @ right
        y += x @ k_h
        return y

    return gen, float(nu)


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
    """RK4 for y' = (A0 + coeff(t) A1) y from t = 0; y at each grid time.

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
    return [p @ (prefix[jk] @ periods[qk]) for p, jk, qk in zip(partial, j.tolist(), q.tolist())]


# stacked states per call of ``_density_fault`` in ``_checked_states``
_STATE_BLOCK = 64


def _checked_states(t_grid, rhos) -> list[DensityMatrix]:
    """Propagated (points, d, d) matrices as DensityMatrix; drift raises ConvergenceError.

    ``_density_fault`` judges ``_STATE_BLOCK`` states at a time, trace within
    1e-8 and no eigenvalue below -1e-7 (integrator error); the first failing
    grid time raises.  The stack is made read-only and the states are views
    of its rows: a caller that keeps one state keeps the whole trace.
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
    return [DensityMatrix._checked(rho) for rho in rhos]


def _driven_trace(h0, v, pulse, y0, t_grid, channels=None):
    """RK4 trace under H(t) = H0 + c(t) V from t = 0, c = ``pulse.coefficient``.

    Closed (no channels): y0 holds state columns, and each grid time and
    column must keep its squared norm within 1e-6 of 1.  Open: y0 is a
    density matrix evolved by ``_liouvillian`` and checked as in
    ``evolve_lindblad``.  Steps per ns: 250 max(||H0||_2 + A ||V||_2, |nu|,
    sum_k g_k ||L_k||_2^2 / 2 pi, 1), A and nu the pulse amplitude and
    frequency, g_k and L_k the channels' rates and operators: the fastest
    rate in H(t) gets at least 250 steps per cycle, and the dissipator's
    decay at most 2 pi / 250 per step, inside RK4's stability region.  c
    repeats every 1/|nu| ns (and is constant at nu = 0, passed as period
    ``math.inf``), so ``_rk4_driven`` integrates one period and raises it
    to powers.  Drift is a ConvergenceError.
    """
    rate = np.linalg.norm(h0, 2) + pulse.amplitude * np.linalg.norm(v, 2)
    jumps, _ = _jump_terms(h0.shape, channels or ())
    decay = sum(g * np.linalg.norm(L, 2) ** 2 for g, L in jumps) / _TWO_PI
    steps_per_ns = 250.0 * max(rate, abs(pulse.frequency), decay, 1.0)
    period = 1.0 / abs(pulse.frequency) if pulse.frequency else math.inf
    if channels is None:
        a0, a1 = -1j * _TWO_PI * h0, -1j * _TWO_PI * v
        states = _rk4_driven(a0, a1, pulse.coefficient, period, y0, t_grid, steps_per_ns)
        drift = max(float(np.abs((np.abs(y) ** 2).sum(axis=0) - 1.0).max()) for y in states)
        if not drift <= 1e-6:
            raise ConvergenceError(
                f"pulse integration lost {drift:.2e} of norm at {steps_per_ns:.4g} RK4 steps per ns"
            )
        return states
    a0, a1 = _liouvillian(h0, channels), _liouvillian(v, [])
    vecs = _rk4_driven(a0, a1, pulse.coefficient, period, y0.ravel(), t_grid, steps_per_ns)
    return _checked_states(t_grid, [_hermitian(y.reshape(y0.shape)) for y in vecs])


# Al-Mohy & Higham, "Computing the action of the matrix exponential", SIAM
# J. Sci. Comput. 33, 488 (2011), Table 3.1 for u = 2^-53: a degree-m Taylor
# step of tau G with tau ||G||_1 <= theta_m has backward error at most u.
_TAYLOR_THETA = {
    5: 2.4e-3, 10: 0.144, 15: 0.641, 20: 1.44, 25: 2.43, 30: 3.54,
    35: 4.73, 40: 5.97, 45: 7.25, 50: 8.55,
}
_UNIT_ROUNDOFF = 2.0**-53
# grid times per weighted sum of a Taylor term in ``_taylor_trace``
_DENSE_BLOCK = 64


def _taylor_plan(norm: float) -> tuple[int, int]:
    """(m, s): degree and substep count with norm/s <= theta_m and the fewest products m s.

    theta_m bounds truncation, not rounding: a substep's terms peak near e^theta /
    sqrt(2 pi theta) before they cancel, so a degree is in ``_TAYLOR_THETA`` only if
    2^-53 e^theta_m / sqrt(2 pi theta_m) <= 1e-13 (m = 50: 7.8e-14; m = 55: 2.7e-13).
    """
    cost, m = min((m * max(1, math.ceil(norm / theta)), m) for m, theta in _TAYLOR_THETA.items())
    return m, cost // m


def _taylor_trace(gen, x, t_grid, nu: float, refine: int = 1) -> np.ndarray:
    """exp(t G) x at each time t of an ascending grid from t = 0, as one Taylor run.

    (m, s) = ``_taylor_plan(T nu)`` for the last grid time T, and the run
    takes ``refine s`` equal substeps of h.  A substep forms the terms
    (hG)^j y / j! of its start state y once, j <= m, and stops once two
    successive terms together fall below the unit roundoff times the
    partial sum (max-abs norms).  Each grid time ``start + delta`` before
    T inside it sums the same terms weighted by (delta/h)^j: the Taylor
    polynomial of exp(delta G) y, whose theta_m bound holds for every
    delta <= h.  T itself is the end of the last substep.  Returns a
    (len(t_grid), d, d) array; the weighted terms are added
    ``_DENSE_BLOCK`` grid times at a time, so no other temporary grows
    with the grid.  A plan of more than WORK_CAP substeps is refused
    before any term; every plan that large takes the top degree.
    """
    t = np.asarray(t_grid, dtype=float)
    norm = float(t[-1]) * nu
    _check_work("Lindblad", t[-1], norm / max(_TAYLOR_THETA.values()), "Taylor substeps")
    out = np.empty(t.shape + x.shape, dtype=complex)
    m, s = _taylor_plan(norm)
    s *= refine
    h = t[-1] / s
    if h == 0:  # every grid time is 0
        out[:] = x
        return out
    ratio = t / h
    # the substep of each grid time before T; T ends substep s - 1
    sub = np.where(t < t[-1], np.minimum(np.floor(ratio), s - 1), s)
    ratio -= sub
    weight = np.ones_like(t)  # (delta/h)^j of each grid time
    bounds = np.searchsorted(sub, np.arange(s + 1)).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        out[lo:hi] = x
        term, last = x, np.abs(x).max()
        for j in range(1, m + 1):
            term = gen(term) * (h / j)
            x = x + term
            weight[lo:hi] *= ratio[lo:hi]
            for a in range(lo, hi, _DENSE_BLOCK):
                b = min(a + _DENSE_BLOCK, hi)
                out[a:b] += weight[a:b, None, None] * term
            size = np.abs(term).max()
            if last + size <= _UNIT_ROUNDOFF * np.abs(x).max():
                break
            last = size
    out[bounds[-1]:] = x
    return out


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
        Reach every grid time again as the end of its own substeps, span by
        span at twice the substeps, and require agreement within 1e-7
        (raises ConvergenceError naming the first bad grid time).  The
        check does not change the returned states.

    The states are exp(t G) rho0 with G the GKLS generator of
    ``_lindblad_generator``, in matrix form: one truncated-Taylor run over
    the whole grid (``_taylor_trace``), its degree m and substeps s chosen
    from the bound nu >= ||G||_1, the last grid time and the theta_m of
    Al-Mohy & Higham (2011).  Each grid time is read off the terms of the
    substep it falls in (dense output), so the cost is set by the span of
    the grid, not by its number of points.  No d^2 x d^2 matrix is built
    at any dimension.  Each state is symmetrized once, (X + X+)/2, and
    judged by ``_checked_states``: trace within 1e-8, no eigenvalue below
    -1e-7, else ConvergenceError naming the first failing grid time.
    """
    t_grid = _checked_time_grid(list(t_grid))
    if op.dimension != rho0.dimension:
        raise ValidationError("Hamiltonian and state dimensions differ")
    gen, nu = _lindblad_generator(op.entries, channels)
    rho = _hermitian(rho0.entries)
    states = _taylor_trace(gen, rho, t_grid, nu)
    for k, state in enumerate(states):
        states[k] = _hermitian(state)
    if verify:
        for tk, tau, state in zip(t_grid, np.diff(t_grid, prepend=0.0), states):
            rho = _hermitian(_taylor_trace(gen, rho, [tau], nu, refine=2)[0])
            delta = np.abs(state - rho).max()
            if not delta <= 1e-7:
                raise ConvergenceError(
                    f"substep-doubling disagreement {delta:.2e} > 1e-7 at t = {tk} ns"
                )
    return _checked_states(t_grid, states)
