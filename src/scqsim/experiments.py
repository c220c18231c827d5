"""Atomic-physics-style protocols on simulated qubits.

All protocols work in the qubit energy eigenbasis with index 0 = ground,
index 1 = excited: ``H0 = (nu01/2) _SZ`` with ``_SZ = |e><e| - |g><g|``,
and ``_LOWER = |g><e|``, the one copy of these that ``cavity`` and the
CLI use too.  Decoherence enters through the standard pair of Lindblad
channels: relaxation (``_LOWER``) at rate 1/T1 and pure dephasing
(``_SZ``) at rate 1/(2 Tphi) with 1/Tphi = 1/T2 - 1/(2 T1).  T1 and T2
are quoted in microseconds at the API surface (1 us = 1000 ns).  A drive
is a ``coupled.DrivePulse``, which brings its own waveform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    SIGMA_X,
    DensityMatrix,
    FitError,
    HermitianOperator,
    ValidationError,
    _check_finite,
    _check_finite_values,
    _checked_time_grid,
    _driven_trace,
    _linear_fit,
    _TWO_PI,
    _freeze,
    _lindblad_trace,
)
from .coupled import _DRIVE_TARGETS, DrivePulse

US_TO_NS = 1000.0

_SZ = _freeze(np.diag([-1.0, 1.0]).astype(complex))
_LOWER = _freeze(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@dataclass(frozen=True)
class DecoherenceParams:
    """Phenomenological relaxation/dephasing times in microseconds."""

    t1_us: float
    t2_us: float

    def __post_init__(self):
        _check_finite(self, "t1_us", "t2_us")
        if self.t1_us <= 0:
            raise ValidationError("T1 must be > 0")
        if not 0.0 < self.t2_us <= 2.0 * self.t1_us:
            raise ValidationError("T2 must satisfy 0 < T2 <= 2 T1")
        for name, value in (("t1_us", self.t1_us), ("t2_us", self.t2_us)):
            if not math.isfinite(1.0 / (value * US_TO_NS)):  # a subnormal time
                raise ValidationError(f"{name} = {value!r} gives a non-finite rate 1/{name}")

    @property
    def relaxation_rate(self) -> float:
        """1/T1 in 1/ns."""
        return 1.0 / (self.t1_us * US_TO_NS)

    @property
    def dephasing_channel_rate(self) -> float:
        """sz channel rate 1/(2 Tphi) in 1/ns (zero at the T2 = 2 T1 limit)."""
        inv_tphi = 1.0 / (self.t2_us * US_TO_NS) - 0.5 / (self.t1_us * US_TO_NS)
        return 0.5 * max(inv_tphi, 0.0)

    def channels(self):
        return [(_LOWER, self.relaxation_rate), (_SZ, self.dephasing_channel_rate)]


@dataclass(frozen=True)
class FittedMetrics:
    t1_us: float | None = None
    t2_us: float | None = None
    visibility: float | None = None
    quality: float | None = None
    detuning: float | None = None


@dataclass(frozen=True)
class ExperimentResult:
    """Excited-state population trace plus fitted summary metrics."""

    time_grid: np.ndarray
    population: np.ndarray
    fitted: FittedMetrics

    def __post_init__(self):
        t = np.asarray(self.time_grid, dtype=float)
        pop = np.asarray(self.population, dtype=float)
        if pop.shape != t.shape:
            raise ValidationError("population and time grid sizes differ")
        if pop.size == 0:
            raise ValidationError("an experiment trace needs at least one time point")
        if not (np.isfinite(t).all() and np.isfinite(pop).all()):
            raise ValidationError("time grid and populations must be finite")
        if pop.min() < -1e-9 or pop.max() > 1.0 + 1e-9:
            raise ValidationError("populations must lie within [0, 1] (1e-9 slack)")
        object.__setattr__(self, "time_grid", t)
        object.__setattr__(self, "population", pop)


def _result(t_grid, pop: np.ndarray, **fitted) -> ExperimentResult:
    """The trace with its fitted metrics: visibility ptp(pop), and ``fitted`` by name."""
    return ExperimentResult(t_grid, pop, FittedMetrics(visibility=float(np.ptp(pop)), **fitted))


def quality_factor(t2_us: float, nu01_ghz: float) -> float:
    """Coherence quality factor Q = pi T2 nu01 (us * GHz = 1e3)."""
    _check_finite_values(t2_us=t2_us, nu01_ghz=nu01_ghz)
    if t2_us <= 0 or nu01_ghz <= 0:
        raise ValidationError("T2 and nu01 must be > 0")
    return math.pi * t2_us * US_TO_NS * nu01_ghz


def rabi(
    qubit: HermitianOperator,
    drive: DrivePulse,
    dec: DecoherenceParams | None,
    t_grid,
) -> ExperimentResult:
    """Driven excited-state population, starting from the ground state.

    Of ``qubit`` only its eigenvalue gap nu01 = hypot(h00 - h11, 2 |h01|)
    is read, and H0 = (nu01/2) ``_SZ``.  The drive couples through its
    target Pauli operator of ``core`` in the energy eigenbasis (sigma_x:
    unit matrix element) and stays on over the whole time grid:
    ``drive.duration`` is not read.  On resonance and without decoherence
    a sigma_x trace follows sin^2(pi A t) up to counter-rotating
    corrections.  ``core._driven_trace`` integrates it over one drive
    period and raises that to powers for the later grid times, chooses the
    steps and checks the drift: a closed trace keeps each squared norm
    within 1e-6 of 1, and with decoherence every state is checked as in
    ``evolve_lindblad`` (trace 1e-8, positivity -1e-7).  The population is
    one slice of the returned stack of states.
    """
    t_grid = _checked_time_grid(t_grid)
    if qubit.dimension != 2:
        raise ValidationError("Rabi protocol expects a two-level Hamiltonian")
    h = qubit.entries
    nu01 = math.hypot((h[0, 0] - h[1, 1]).real, 2.0 * abs(h[0, 1]))
    h0 = 0.5 * nu01 * _SZ
    drive_op = _DRIVE_TARGETS[drive.target]
    if dec is None:
        psi0 = np.array([1.0, 0.0], dtype=complex)
        pop = np.abs(_driven_trace(h0, drive_op, drive, psi0, t_grid)[:, 1]) ** 2
    else:
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        pop = _driven_trace(h0, drive_op, drive, rho0, t_grid, dec.channels())[:, 1, 1].real.copy()
    return _result(t_grid, pop)


_RX90 = (np.eye(2, dtype=complex) - 1j * SIGMA_X) / math.sqrt(2.0)


def _fit_t1(t: np.ndarray, y: np.ndarray, w: np.ndarray, what: str = "T1 decay fit") -> float:
    """T in ns of y = exp(-t/T): ln y = -t/T fitted with rows weighted by w, points y <= 0 dropped.

    Weights w = y make it least squares in y to first order.  FitError
    naming ``what`` if the times do not spread (singular) or no decay is
    resolved (no positive, finite T).
    """
    keep = y > 0
    w = w[keep]
    slope = float(_linear_fit((w * t[keep])[:, None], w * np.log(y[keep]), what)[0])
    if not (slope < 0 and math.isfinite(-1.0 / slope)):
        raise FitError(f"{what} failed: no resolved decay over the trace")
    return -1.0 / slope


def _fit_ramsey(tau: np.ndarray, pop: np.ndarray) -> tuple[float, float]:
    """(T2 in ns, delta) fitted to P_e = (1 + exp(-tau/T2) cos(2 pi delta tau)) / 2.

    On the uniform grid of spacing h, x = 2 P_e - 1 obeys Prony's linear
    prediction x_(k+1) = p x_k - q x_(k-1), s = sqrt(q) = exp(-h/T2), p = 2 s
    cos(2 pi delta h).  It is fitted in difference form, x_(k+1) - 2 x_k +
    x_(k-1) = a x_k + b (x_k - x_(k-1)) with a = p - q - 1 and b = q - 1,
    and sin^2(pi delta h) = -(a + (1 - s)^2) / 4s keeps the small a and b's
    digits.  Rank 1 means delta = 0; q <= 0 is a FitError.  T2 is
    ``_fit_t1`` of x / cos(2 pi delta tau), rows weighted by |x|.
    """
    what = "Ramsey fringe fit"
    x = 2.0 * pop - 1.0
    dx = np.diff(x)
    try:
        a, b = _linear_fit(np.column_stack([x[1:-1], dx[:-1]]), np.diff(dx), what)
    except FitError:  # rank 1: a pure decay
        delta = 0.0
    else:
        if not b > -1.0:
            raise FitError(f"{what} failed: no damped oscillation (q = {1.0 + b:.3g} <= 0)")
        s = math.sqrt(1.0 + b)
        half = -(a + (b / (1.0 + s)) ** 2) / (4.0 * s)  # 1 - s = -b / (1 + s)
        h = float(tau[-1] - tau[0]) / (tau.size - 1)
        delta = 2.0 * math.asin(math.sqrt(min(max(half, 0.0), 1.0))) / (_TWO_PI * h)
    c = np.cos(_TWO_PI * delta * tau)
    ratio = np.divide(x, c, out=np.zeros_like(x), where=c != 0)
    return _fit_t1(tau, ratio, np.abs(x), what), delta


def ramsey(
    nu01: float,
    detuning: float,
    dec: DecoherenceParams,
    delay_grid,
) -> ExperimentResult:
    """Two ideal pi/2 pulses separated by free evolution in the drive frame.

    The fringe is P_e(tau) = (1 + exp(-tau/T2) cos(2 pi delta tau)) / 2;
    ``_fit_ramsey`` returns T2 and the detuning, exact on this noiseless
    trace.  Before any trace, ValidationError unless the delays are
    uniform (spacings within 1e-6 relative of h), resolve the detuning
    (Nyquist: |detuning| h < 1/2) and number at least 4.  A trace without
    contrast or a failing fit is a FitError.
    """
    _check_finite_values(nu01=nu01, detuning=detuning)
    if nu01 <= 0:
        raise ValidationError("nu01 must be > 0")
    delay_grid = _checked_time_grid(delay_grid)
    n = delay_grid.size
    h = (delay_grid[-1] - delay_grid[0]) / max(n - 1, 1)
    if np.abs(np.diff(delay_grid) - h).max(initial=0.0) > 1e-6 * h:
        raise ValidationError("Ramsey delays must be uniformly spaced (within 1e-06 relative)")
    if not abs(detuning) * h < 0.5:
        raise ValidationError(
            f"detuning {detuning:g} GHz is at or past the Nyquist limit 1/(2 h) = "
            f"{0.5 / h:g} GHz of the {h:g} ns delay spacing"
        )
    if n < 4:
        raise ValidationError(f"a Ramsey fit needs at least 4 delays, got {n}")
    h_rot = HermitianOperator(0.5 * detuning * _SZ)
    psi = _RX90 @ np.array([1.0, 0.0], dtype=complex)
    rho0 = DensityMatrix(np.outer(psi, psi.conj()))
    rhos = _lindblad_trace(h_rot, dec.channels(), rho0, delay_grid)
    pop = (_RX90 @ rhos @ _RX90.conj().T)[:, 1, 1].real.copy()

    if np.ptp(pop) < 1e-6:
        raise FitError("degenerate Ramsey trace (no fringe contrast); cannot fit")
    t2_ns, delta_fit = _fit_ramsey(delay_grid, pop)
    t2_fit = t2_ns / US_TO_NS
    return _result(
        delay_grid, pop, t2_us=t2_fit, quality=quality_factor(t2_fit, nu01), detuning=delta_fit
    )


def t1_decay(dec: DecoherenceParams, t_grid) -> ExperimentResult:
    """Free decay of the excited state; T1 by ``_fit_t1`` (FitError if it fails) on 3 or more points."""
    t_grid = _checked_time_grid(t_grid)
    h0 = HermitianOperator(np.zeros((2, 2)))
    rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    pop = _lindblad_trace(h0, dec.channels(), rho0, t_grid)[:, 1, 1].real.copy()

    t1_fit = None
    if t_grid.size >= 3:  # a 1-2 point trace cannot support a fit
        t1_fit = _fit_t1(t_grid, pop, pop) / US_TO_NS
    return _result(t_grid, pop, t1_us=t1_fit)
