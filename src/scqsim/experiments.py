"""Atomic-physics-style protocols on simulated qubits.

All protocols work in the qubit energy eigenbasis with index 0 = ground,
index 1 = excited, so ``H0 = (nu01/2) diag(-1, +1)`` and the lowering
operator is ``|g><e|``.  Decoherence enters through the standard pair of
Lindblad channels: relaxation at rate 1/T1 and pure dephasing (sz) at
rate 1/(2 Tphi) with 1/Tphi = 1/T2 - 1/(2 T1).  T1 and T2 are quoted in
microseconds at the API surface (1 us = 1000 ns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from .core import (
    DensityMatrix,
    HermitianOperator,
    ValidationError,
    _check_finite,
    _checked_states,
    _checked_time_grid,
    _hermitian_matrices,
    _liouvillian,
    _rk4_driven,
    _TWO_PI,
    evolve_lindblad,
    hermitian_eigen,
)
from .coupled import DrivePulse

US_TO_NS = 1000.0

# energy-eigenbasis operators, ordering (|g>, |e>)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|


class FitError(RuntimeError):
    """Least-squares extraction failed or the trace is degenerate."""


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
    nu01: float | None = None
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
        if not (np.isfinite(t).all() and np.isfinite(pop).all()):
            raise ValidationError("time grid and populations must be finite")
        if pop.min() < -1e-9 or pop.max() > 1.0 + 1e-9:
            raise ValidationError("populations must lie within [0, 1] (1e-9 slack)")
        object.__setattr__(self, "time_grid", t)
        object.__setattr__(self, "population", pop)


def quality_factor(t2_us: float, nu01_ghz: float) -> float:
    """Coherence quality factor Q = pi T2 nu01 (us * GHz = 1e3)."""
    if t2_us <= 0 or nu01_ghz <= 0:
        raise ValidationError("T2 and nu01 must be > 0")
    return math.pi * t2_us * US_TO_NS * nu01_ghz


def _energy_basis(qubit: HermitianOperator):
    if qubit.dimension != 2:
        raise ValidationError("Rabi protocol expects a two-level Hamiltonian")
    dec = hermitian_eigen(qubit)
    nu01 = float(dec.eigenvalues[1] - dec.eigenvalues[0])
    return nu01


def rabi(
    qubit: HermitianOperator,
    drive: DrivePulse,
    dec: DecoherenceParams | None,
    t_grid,
) -> ExperimentResult:
    """Driven excited-state population, starting from the ground state.

    The drive couples through sigma_x in the energy eigenbasis (unit
    matrix element); on resonance and without decoherence the trace
    follows sin^2(pi A t) up to counter-rotating corrections.  With
    decoherence every state is checked as in ``evolve_lindblad`` (trace
    1e-8, positivity -1e-7); drift raises ConvergenceError.
    """
    t_grid = _checked_time_grid(t_grid)
    nu01 = _energy_basis(qubit)
    h0 = 0.5 * nu01 * (-_SZ)  # diag(-nu01/2, +nu01/2)
    if drive.target == "sigma_x":
        drive_op = _SX
    elif drive.target == "sigma_z":
        drive_op = _SZ
    else:
        raise ValidationError(f"unknown drive target {drive.target!r}")

    steps_per_ns = 400.0 * max(nu01, drive.frequency, drive.amplitude, 1.0)

    def coeff(t):
        return drive.amplitude * np.cos(2.0 * math.pi * drive.frequency * t + drive.phase)

    if dec is None:
        psi0 = np.array([1.0, 0.0], dtype=complex)
        a0, a1 = -1j * _TWO_PI * h0, -1j * _TWO_PI * drive_op
        states = _rk4_driven(a0, a1, coeff, psi0, t_grid, steps_per_ns)
        pop = np.array([abs(s[1]) ** 2 for s in states])
    else:
        rho0 = np.diag([1.0, 0.0]).astype(complex).ravel()
        a0, a1 = _liouvillian(h0, dec.channels()), _liouvillian(drive_op, [])
        rhos = _hermitian_matrices(_rk4_driven(a0, a1, coeff, rho0, t_grid, steps_per_ns), 2)
        pop = np.array([r.population(1) for r in _checked_states(t_grid, rhos)])
    visibility = float(pop.max() - pop.min())
    return ExperimentResult(
        time_grid=t_grid,
        population=pop,
        fitted=FittedMetrics(nu01=nu01, visibility=visibility),
    )


_RX90 = (np.eye(2, dtype=complex) - 1j * _SX) / math.sqrt(2.0)


def ramsey(
    nu01: float,
    detuning: float,
    dec: DecoherenceParams,
    delay_grid,
) -> ExperimentResult:
    """Two ideal pi/2 pulses separated by free evolution in the drive frame.

    The fringe is P_e(tau) = (1 + exp(-tau/T2) cos(2 pi delta tau)) / 2;
    a least-squares fit returns the extracted T2 and detuning.
    """
    if nu01 <= 0:
        raise ValidationError("nu01 must be > 0")
    delay_grid = np.asarray(delay_grid, dtype=float)
    h_rot = HermitianOperator(-0.5 * detuning * _SZ)
    psi = _RX90 @ np.array([1.0, 0.0], dtype=complex)
    rho0 = DensityMatrix(np.outer(psi, psi.conj()))
    rhos = evolve_lindblad(h_rot, dec.channels(), rho0, delay_grid, verify=False)
    pop = np.empty(delay_grid.size)
    for i, rho in enumerate(rhos):
        final = _RX90 @ rho.entries @ _RX90.conj().T
        pop[i] = float(final[1, 1].real)

    if np.ptp(pop) < 1e-6:
        raise FitError("degenerate Ramsey trace (no fringe contrast); cannot fit")

    def model(tau, t2_ns, delta):
        return 0.5 * (1.0 + np.exp(-tau / t2_ns) * np.cos(2.0 * math.pi * delta * tau))

    try:
        popt, _ = curve_fit(
            model,
            delay_grid,
            pop,
            p0=(dec.t2_us * US_TO_NS, max(abs(detuning), 1e-6)),
            maxfev=10000,
        )
    except RuntimeError as exc:
        raise FitError(f"Ramsey fringe fit failed: {exc}") from exc
    t2_fit = abs(float(popt[0])) / US_TO_NS
    delta_fit = abs(float(popt[1]))
    visibility = float(pop.max() - pop.min())
    return ExperimentResult(
        time_grid=delay_grid,
        population=pop,
        fitted=FittedMetrics(
            nu01=nu01,
            t2_us=t2_fit,
            visibility=visibility,
            quality=quality_factor(t2_fit, nu01),
            detuning=delta_fit,
        ),
    )


def t1_decay(dec: DecoherenceParams, t_grid) -> ExperimentResult:
    """Free decay of the excited state; fits T1 from the trace."""
    t_grid = np.asarray(t_grid, dtype=float)
    h0 = HermitianOperator(np.zeros((2, 2)))
    rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    rhos = evolve_lindblad(h0, dec.channels(), rho0, t_grid, verify=False)
    pop = np.array([r.entries[1, 1].real for r in rhos])

    def model(t, t1_ns):
        return np.exp(-t / t1_ns)

    t1_fit = None
    if t_grid.size >= 3:  # a 1-2 point trace cannot support a fit
        popt, _ = curve_fit(model, t_grid, pop, p0=(dec.t1_us * US_TO_NS,), maxfev=10000)
        t1_fit = abs(float(popt[0])) / US_TO_NS
    return ExperimentResult(
        time_grid=t_grid,
        population=pop,
        fitted=FittedMetrics(t1_us=t1_fit, visibility=float(pop.max() - pop.min())),
    )
