"""Cooper-pair box: charge-basis Hamiltonian, two-level reduction, spectra.

The CPB Hamiltonian is ``H = Ec (n - ng)^2 - Ej cos(phi)`` in the number
basis ``n = -N..N``: diagonal charging parabola, ``-Ej/2`` on the first
sub/super-diagonals (``cos phi`` shifts n by one Cooper pair).

Near ``ng = 1/2`` the two lowest charge states give the reduced qubit
``H = eps(ng) sz - (Ej/2) sx`` with ``eps = Ec (ng - 1/2)``; at the
degeneracy point the eigenstates are ``|-+> = (|0> -+ |1>)/sqrt(2)`` --
that sign convention is used package-wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HermitianOperator, QuantumState, ValidationError, _check_finite


def tunable_ej(ej0: float, flux_ratio: float) -> float:
    """Flux-tuned Josephson energy of a two-junction SQUID (signed).

    Returns ``2 * Ej0 * cos(pi * flux_ratio)`` where flux_ratio is
    Phi_ext / Phi_0.  Circuit builders take the magnitude; a sign flip
    amounts to a basis redefinition and does not change spectra.
    """
    if ej0 < 0:
        raise ValidationError("Ej0 must be >= 0")
    return 2.0 * ej0 * math.cos(math.pi * flux_ratio)


@dataclass(frozen=True)
class CpbParams:
    """Cooper-pair box parameters (energies in GHz; ng in units of 2e).

    Pass either ``ej`` directly, or ``ej0`` with ``flux_ratio`` for the
    SQUID variant (effective Ej = |2 Ej0 cos(pi flux_ratio)|).
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
        if self.ec <= 0:
            raise ValidationError("Ec must be > 0")
        if self.cutoff < 2:
            raise ValidationError("charge cutoff N must be >= 2")
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
        levels = np.atleast_2d(np.asarray(self.levels, dtype=float))
        if levels.shape[0] != control.size:
            raise ValidationError("one level row per control value required")
        if np.any(np.diff(levels, axis=1) < -1e-12):
            raise ValidationError("level rows must be ascending")
        object.__setattr__(self, "control", control)
        object.__setattr__(self, "levels", levels)

    @property
    def k(self) -> int:
        return self.levels.shape[1]

    def gap(self, upper: int = 1, lower: int = 0) -> np.ndarray:
        return self.levels[:, upper] - self.levels[:, lower]


def charge_operator(cutoff: int) -> np.ndarray:
    """Number operator diag(-N..N) in the truncated charge basis."""
    return np.diag(np.arange(-cutoff, cutoff + 1, dtype=float))


def cpb_hamiltonian(p: CpbParams) -> HermitianOperator:
    """Full CPB Hamiltonian in the truncated charge basis, (2N+1)-dim."""
    n = np.arange(-p.cutoff, p.cutoff + 1, dtype=float)
    h = np.diag(p.ec * (n - p.ng) ** 2).astype(complex)
    off = -p.effective_ej / 2.0
    idx = np.arange(2 * p.cutoff)
    h[idx, idx + 1] = off
    h[idx + 1, idx] = off
    return HermitianOperator(h)


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


def _levels(p: CpbParams, k: int) -> np.ndarray:
    return np.linalg.eigvalsh(cpb_hamiltonian(p).entries)[:k].real


def spectrum_vs_ng(p: CpbParams, ng_grid, k: int = 5) -> SpectrumTable:
    """Lowest k CPB levels over an offset-charge grid in [0, 1]."""
    ng_grid = np.asarray(ng_grid, dtype=float)
    if ng_grid.min() < 0.0 or ng_grid.max() > 1.0:
        raise ValidationError("ng grid must lie within [0, 1]")
    if k > 2 * p.cutoff:
        raise ValidationError(f"k = {k} exceeds 2N = {2 * p.cutoff} available levels")
    rows = np.empty((ng_grid.size, k))
    for i, ng in enumerate(ng_grid):
        rows[i] = _levels(CpbParams(ec=p.ec, ej=p.effective_ej, ng=float(ng), cutoff=p.cutoff), k)
    return SpectrumTable(ng_grid, rows)


def ground_charge_expectation(p: CpbParams) -> float:
    """<n> of the CPB ground state (0.5 at the degeneracy point)."""
    w, v = np.linalg.eigh(cpb_hamiltonian(p).entries)
    ground = v[:, 0]
    n = np.arange(-p.cutoff, p.cutoff + 1, dtype=float)
    return float(np.real(np.sum(n * np.abs(ground) ** 2)))
