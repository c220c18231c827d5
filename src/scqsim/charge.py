"""Cooper-pair box: charge-basis Hamiltonian, two-level reduction, spectra.

The CPB Hamiltonian is ``H = Ec (n - ng)^2 - Ej cos(phi)`` in the number
basis ``n = -N..N``: diagonal charging parabola, ``-Ej/2`` on the first
sub/super-diagonals (``cos phi`` shifts n by one Cooper pair).

Near ``ng = 1/2`` the two lowest charge states give the reduced qubit
``H = eps(ng) sz - (Ej/2) sx`` with ``eps = Ec (ng - 1/2)``; at the
degeneracy point the eigenstates are ``|-+> = (|0> -+ |1>)/sqrt(2)`` --
that sign convention is used package-wide.

One builder, ``_cpb_matrices``, lays out the Hamiltonian for any number
of ng values, and one routine, ``_stacked_levels``, solves it: real
symmetric stacks of at most ``_STACK_ENTRIES`` floats (DIMENSION_CAP^2, the
size of one matrix at the dense cap), one ``eigvalsh`` call each.
``cpb_levels`` is its one-point case and ``spectrum_vs_ng`` its whole grid,
so every row equals the ``cpb_levels`` of its ng bit for bit; it is also
the complex solve of ``cpb_hamiltonian`` bit for bit (H is real and
already tridiagonal, so LAPACK's reduction is the identity either way).
The level count is bounded by the 2N + 1 charge states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DIMENSION_CAP,
    HermitianOperator,
    QuantumState,
    ValidationError,
    _check_dense,
    _check_finite,
    _check_finite_values,
    _check_integral,
    _check_level_count,
    _checked_sweep_grid,
)


def tunable_ej(ej0: float, flux_ratio: float) -> float:
    """Flux-tuned Josephson energy of a two-junction SQUID (signed).

    Returns ``2 * Ej0 * cos(pi * flux_ratio)`` where flux_ratio is
    Phi_ext / Phi_0.  Circuit builders take the magnitude; a sign flip
    amounts to a basis redefinition and does not change spectra.
    """
    _check_finite_values(ej0=ej0, flux_ratio=flux_ratio)
    if ej0 < 0:
        raise ValidationError("Ej0 must be >= 0")
    return 2.0 * ej0 * math.cos(math.pi * flux_ratio)


@dataclass(frozen=True)
class CpbParams:
    """Cooper-pair box parameters (energies in GHz; ng in units of 2e).

    Pass either ``ej`` directly, or ``ej0`` with ``flux_ratio`` for the
    SQUID variant (effective Ej = |2 Ej0 cos(pi flux_ratio)|).  ``cutoff`` N
    gives 2N + 1 charge states, which must fit the dense cap: N <= 2047.
    """

    ec: float
    ej: float | None = None
    ej0: float | None = None
    flux_ratio: float | None = None
    ng: float = 0.0
    cutoff: int = 10

    def __post_init__(self):
        optional = ("ej", "ej0", "flux_ratio")
        _check_finite(self, "ec", "ng", *(n for n in optional if getattr(self, n) is not None))
        _check_integral(cutoff=self.cutoff)
        if self.ec <= 0:
            raise ValidationError("Ec must be > 0")
        if self.cutoff < 2:
            raise ValidationError("charge cutoff N must be >= 2")
        _check_dense(2 * self.cutoff + 1, f"charge cutoff {self.cutoff}")
        squid = self.ej0 is not None or self.flux_ratio is not None
        if squid:
            if self.ej is not None:
                raise ValidationError("give either ej or (ej0, flux_ratio), not both")
            if self.ej0 is None or self.flux_ratio is None:
                raise ValidationError("SQUID variant needs both ej0 and flux_ratio")
            if self.ej0 < 0:
                raise ValidationError("Ej0 must be >= 0")
        else:
            if self.ej is None:
                raise ValidationError("ej is required (or use the SQUID fields)")
            if self.ej < 0:
                raise ValidationError("Ej must be >= 0")

    @property
    def effective_ej(self) -> float:
        if self.ej is not None:
            return self.ej
        return abs(tunable_ej(self.ej0, self.flux_ratio))


@dataclass(frozen=True)
class SpectrumTable:
    """Sweep result: control values and the k lowest level energies per row."""

    control: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        control = np.asarray(self.control, dtype=float)
        if control.size == 0:
            raise ValidationError("a spectrum needs at least one control value")
        levels = np.atleast_2d(np.asarray(self.levels, dtype=float))
        if levels.shape[0] != control.size:
            raise ValidationError("one level row per control value required")
        if np.any(np.diff(levels, axis=1) < -1e-12):
            raise ValidationError("level rows must be ascending")
        object.__setattr__(self, "control", control)
        object.__setattr__(self, "levels", levels)

    def gap(self) -> np.ndarray:
        return self.levels[:, 1] - self.levels[:, 0]


def charge_operator(cutoff: int) -> np.ndarray:
    """Number operator diag(-N..N) in the truncated charge basis."""
    return np.diag(np.arange(-cutoff, cutoff + 1, dtype=float))


def _cpb_matrices(p: CpbParams, ng: np.ndarray) -> np.ndarray:
    """The real CPB Hamiltonian at each offset charge in ``ng``: a (len(ng), 2N+1, 2N+1) stack."""
    n = np.arange(-p.cutoff, p.cutoff + 1, dtype=float)
    i = np.arange(n.size)
    h = np.zeros((ng.size, n.size, n.size))
    h[:, i, i] = p.ec * (n - ng[:, None]) ** 2
    h[:, i[:-1], i[1:]] = h[:, i[1:], i[:-1]] = -p.effective_ej / 2.0
    return h


# entries of one stacked solve: as many as one matrix at the dense cap
_STACK_ENTRIES = DIMENSION_CAP**2


def _stacked_levels(p: CpbParams, ng: np.ndarray, k: int) -> np.ndarray:
    """Lowest k CPB levels at each offset charge in ``ng``, one row per value.

    The stack is solved in blocks of at most ``_STACK_ENTRIES`` floats, so a
    sweep's memory does not grow with its number of points.
    """
    _check_level_count(k, p.cutoff, 2 * p.cutoff + 1)
    per = max(1, _STACK_ENTRIES // (2 * p.cutoff + 1) ** 2)
    blocks = (_cpb_matrices(p, ng[i : i + per]) for i in range(0, ng.size, per))
    return np.concatenate([np.linalg.eigvalsh(h)[:, :k] for h in blocks])


def cpb_hamiltonian(p: CpbParams) -> HermitianOperator:
    """Full CPB Hamiltonian in the truncated charge basis, (2N+1)-dim."""
    return HermitianOperator(_cpb_matrices(p, np.array([p.ng]))[0])


def reduced_two_level(p: CpbParams) -> HermitianOperator:
    """Two-level CPB near ng = 1/2 in the charge basis {|0>, |1>}.

    ``H = eps sz - (Ej/2) sx`` with eps = Ec (ng - 1/2); eigenvalues
    are +-sqrt(eps^2 + Ej^2/4).
    """
    eps = p.ec * (p.ng - 0.5)
    ej = p.effective_ej
    return HermitianOperator(np.array([[eps, -ej / 2.0], [-ej / 2.0, -eps]], dtype=complex))


def plus_state() -> QuantumState:
    """|+> = (|0> - |1>)/sqrt(2), the excited eigenstate at ng = 1/2."""
    return QuantumState(np.array([1.0, -1.0]) / math.sqrt(2.0))


def minus_state() -> QuantumState:
    """|-> = (|0> + |1>)/sqrt(2), the ground eigenstate at ng = 1/2."""
    return QuantumState(np.array([1.0, 1.0]) / math.sqrt(2.0))


def cpb_levels(p: CpbParams, k: int = 5) -> np.ndarray:
    """Lowest k CPB levels; the 2N + 1 charge states bound k."""
    return _stacked_levels(p, np.array([p.ng]), k)[0]


def spectrum_vs_ng(p: CpbParams, ng_grid, k: int = 5) -> SpectrumTable:
    """Lowest k CPB levels over an offset-charge grid in [0, 1], solved as stacks."""
    ng_grid = _checked_sweep_grid(ng_grid, "ng")
    if np.any((ng_grid < 0.0) | (ng_grid > 1.0)):
        raise ValidationError("ng grid must lie within [0, 1]")
    return SpectrumTable(ng_grid, _stacked_levels(p, ng_grid, k))


def ground_charge_expectation(p: CpbParams) -> float:
    """<n> of the CPB ground state (0.5 at the degeneracy point)."""
    w, v = np.linalg.eigh(cpb_hamiltonian(p).entries)
    ground = v[:, 0]
    n = np.arange(-p.cutoff, p.cutoff + 1, dtype=float)
    return float(np.real(np.sum(n * np.abs(ground) ** 2)))
