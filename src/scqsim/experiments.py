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
    _least_squares,
    _TWO_PI,
    _freeze,
    evolve_lindblad,
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
    ``evolve_lindblad`` (trace 1e-8, positivity -1e-7).
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
        states = _driven_trace(h0, drive_op, drive, psi0, t_grid)
        pop = np.array([abs(s[1]) ** 2 for s in states])
    else:
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        rhos = _driven_trace(h0, drive_op, drive, rho0, t_grid, dec.channels())
        pop = np.array([r.population(1) for r in rhos])
    visibility = float(pop.max() - pop.min())
    return ExperimentResult(
        time_grid=t_grid,
        population=pop,
        fitted=FittedMetrics(visibility=visibility),
    )


_RX90 = (np.eye(2, dtype=complex) - 1j * SIGMA_X) / math.sqrt(2.0)


def _fit_ramsey(tau: np.ndarray, pop: np.ndarray, t2_ns: float, delta: float) -> np.ndarray:
    """(T2 in ns, delta) fitted to P_e = (1 + exp(-tau/T2) cos(2 pi delta tau)) / 2."""

    def model(q):
        decay, phase = np.exp(-tau / q[0]), _TWO_PI * q[1] * tau
        d_t2 = 0.5 * decay * np.cos(phase) * tau / q[0] ** 2
        d_delta = -math.pi * decay * np.sin(phase) * tau
        return 0.5 * (1.0 + decay * np.cos(phase)), np.column_stack([d_t2, d_delta])

    return _least_squares(model, pop, (t2_ns, delta), "Ramsey fringe fit")


def _fit_t1(t: np.ndarray, pop: np.ndarray, t1_ns: float) -> float:
    """T1 in ns fitted to P_e = exp(-t/T1)."""

    def model(q):
        decay = np.exp(-t / q[0])
        return decay, (decay * t / q[0] ** 2)[:, None]

    return float(_least_squares(model, pop, (t1_ns,), "T1 decay fit")[0])


def ramsey(
    nu01: float,
    detuning: float,
    dec: DecoherenceParams,
    delay_grid,
) -> ExperimentResult:
    """Two ideal pi/2 pulses separated by free evolution in the drive frame.

    The fringe is P_e(tau) = (1 + exp(-tau/T2) cos(2 pi delta tau)) / 2;
    a least-squares fit returns the extracted T2 and detuning (FitError
    if the trace has no contrast or the fit fails).
    """
    _check_finite_values(nu01=nu01)
    if nu01 <= 0:
        raise ValidationError("nu01 must be > 0")
    delay_grid = _checked_time_grid(delay_grid)
    h_rot = HermitianOperator(0.5 * detuning * _SZ)
    psi = _RX90 @ np.array([1.0, 0.0], dtype=complex)
    rho0 = DensityMatrix(np.outer(psi, psi.conj()))
    rhos = evolve_lindblad(h_rot, dec.channels(), rho0, delay_grid, verify=False)
    pop = np.empty(delay_grid.size)
    for i, rho in enumerate(rhos):
        final = _RX90 @ rho.entries @ _RX90.conj().T
        pop[i] = float(final[1, 1].real)

    if np.ptp(pop) < 1e-6:
        raise FitError("degenerate Ramsey trace (no fringe contrast); cannot fit")
    t2_ns, delta = _fit_ramsey(delay_grid, pop, dec.t2_us * US_TO_NS, max(abs(detuning), 1e-6))
    t2_fit = abs(float(t2_ns)) / US_TO_NS
    delta_fit = abs(float(delta))
    visibility = float(pop.max() - pop.min())
    return ExperimentResult(
        time_grid=delay_grid,
        population=pop,
        fitted=FittedMetrics(
            t2_us=t2_fit,
            visibility=visibility,
            quality=quality_factor(t2_fit, nu01),
            detuning=delta_fit,
        ),
    )


def t1_decay(dec: DecoherenceParams, t_grid) -> ExperimentResult:
    """Free decay of the excited state; fits T1 from the trace (FitError if the fit fails)."""
    t_grid = _checked_time_grid(t_grid)
    h0 = HermitianOperator(np.zeros((2, 2)))
    rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    rhos = evolve_lindblad(h0, dec.channels(), rho0, t_grid, verify=False)
    pop = np.array([r.entries[1, 1].real for r in rhos])

    t1_fit = None
    if t_grid.size >= 3:  # a 1-2 point trace cannot support a fit
        t1_fit = abs(_fit_t1(t_grid, pop, dec.t1_us * US_TO_NS)) / US_TO_NS
    return ExperimentResult(
        time_grid=t_grid,
        population=pop,
        fitted=FittedMetrics(t1_us=t1_fit, visibility=float(pop.max() - pop.min())),
    )
