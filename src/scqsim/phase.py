"""Current-biased phase qubit: tilted washboard and metastable-well levels.

``U(phi) = -Ej (cos phi + s phi)`` with bias ratio ``s = I/Ic``.  Levels
are solved on the single well containing ``phi = arcsin(s)``, hard-clipped
at the two adjacent barrier maxima.  A level counts as bound when it lies
below the (lower, right-hand) barrier top and at least 99% of its
probability sits in the classically allowed well region at that energy.
Tunneling escape is out of scope; readout is represented by the
|1> -> |2> transition frequency.

Levels use the 2nd-order tridiagonal stencil.  The lowest few come from
grids g, 2g and 4g: the stencil's error is a series in h^2, so each
adjacent pair is Richardson-extrapolated, and the two extrapolants must
agree within 5e-6 plasma spacings.  Bound counts come from Sturm counts
on a grid verified by one doubling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ConvergenceError, ValidationError, _check_finite
from .flux import _tridiagonal_hamiltonian, sturm_count_below


@dataclass(frozen=True)
class PhaseQubitParams:
    """Current-biased junction parameters; Ej/Ec is typically huge."""

    ej: float
    ec: float
    s: float = 0.0

    def __post_init__(self):
        _check_finite(self, "ej", "ec", "s")
        if self.ej <= 0 or self.ec <= 0:
            raise ValidationError("Ej and Ec must be > 0")
        if not 0.0 <= self.s < 1.0:
            raise ValidationError("bias ratio s must lie in [0, 1)")
        if self.ej / self.ec < 1e3:
            warnings.warn(
                f"Ej/Ec = {self.ej / self.ec:.3g} is below 1e3; the phase regime "
                "assumes Ej >> Ec",
                stacklevel=2,
            )


@dataclass(frozen=True)
class WellLevels:
    """Bound levels of the metastable well, lowest first.

    ``truncated`` is set when fewer bound states exist than were
    requested; ``bound_count`` is then the exact total, otherwise it
    equals the number returned.
    """

    energies: np.ndarray
    bound_count: int
    truncated: bool
    barrier_top: float
    well_minimum: float


def washboard_potential(phi, p: PhaseQubitParams):
    """U(phi) = -Ej (cos phi + s phi)."""
    phi = np.asarray(phi, dtype=float)
    return -p.ej * (np.cos(phi) + p.s * phi)


def well_domain(p: PhaseQubitParams) -> tuple[float, float]:
    """Barrier maxima flanking the well at phi = arcsin(s)."""
    a = math.asin(p.s)
    return (-math.pi - a, math.pi - a)


def plasma_spacing(p: PhaseQubitParams) -> float:
    """Harmonic level spacing (1 - s^2)^(1/4) sqrt(2 Ec Ej) at the well bottom."""
    return (1.0 - p.s**2) ** 0.25 * math.sqrt(2.0 * p.ec * p.ej)


def _auto_grid(span: float, e_top: float, u_min: float, ec: float, err: float) -> int:
    # 2nd-order FD eigenvalue error ~ Ec k^4 h^2 / 12 at momentum k
    k4 = (max(e_top - u_min, 1e-12) / ec) ** 2
    h = math.sqrt(12.0 * err / (ec * k4))
    g = 1 << max(int(math.ceil(math.log2(max(span / h, 2.0)))), 10)
    return min(g, 1 << 19)


def _tridiag(p: PhaseQubitParams, grid: int):
    lo, hi = well_domain(p)
    phi = np.linspace(lo, hi, grid + 2)[1:-1]
    h = phi[1] - phi[0]
    diag, off = _tridiagonal_hamiltonian(
        np.asarray(washboard_potential(phi, p)), p.ec, h
    )
    return phi, diag, off


def _richardson(coarse, fine, g: int):
    """Eigenvalues on g and 2g interior points, extrapolated to h -> 0.

    The stencil's error is a series in h^2 with h = span / (grid + 1), so
    the step ratio of the two grids is (2g + 1) / (g + 1), close to 2.
    """
    q = ((2 * g + 1) / (g + 1)) ** 2
    return fine + (fine - coarse) / (q - 1.0)


def _well_filter(phi, states, p: PhaseQubitParams, barrier: float) -> np.ndarray:
    """Fraction of probability in the region where U(phi) <= barrier."""
    inside = np.asarray(washboard_potential(phi, p)) <= barrier
    return np.sum(np.abs(states[inside, :]) ** 2, axis=0)


def well_levels(p: PhaseQubitParams, k: int = 3, grid: int | None = None) -> WellLevels:
    """Lowest k bound levels of the washboard well.

    Requesting more states than are bound is not an error: the result then
    carries the exact total with ``truncated`` set.  The grid defaults to
    an error-model estimate; ``grid`` overrides it for both the levels
    (extrapolated from grid, 2 grid and 4 grid) and the count.
    """
    import scipy.linalg as sla

    if k < 1:
        raise ValidationError("k must be >= 1")
    a = math.asin(p.s)
    lo, hi = well_domain(p)
    span = hi - lo
    u_min = float(washboard_potential(a, p))
    barrier = float(washboard_potential(hi, p))
    spacing = plasma_spacing(p)
    depth_estimate = int(1.3 * (barrier - u_min) / max(spacing, 1e-12)) + 4
    tol = max(0.5e-5 * spacing, 1e-10)

    if k + 2 < depth_estimate:
        # cheap path: k + 2 candidates from the bottom of the well, taken on
        # grids g, 2g and 4g; the two extrapolants verify each other
        e_top = min(u_min + (k + 4) * spacing, barrier)
        g = grid or _auto_grid(span, e_top, u_min, p.ec, 1e-3 * spacing)
        need = min(k + 2, g - 2)
        phi, diag, off = _tridiag(p, g)
        w, v = sla.eigh_tridiagonal(diag, off, select="i", select_range=(0, need - 1))
        w2, w4 = (
            sla.eigvalsh_tridiagonal(*_tridiag(p, m * g)[1:], select="i", select_range=(0, need - 1))
            for m in (2, 4)
        )
        r1 = _richardson(w, w2, g)
        r2 = _richardson(w2, w4, 2 * g)
        if np.abs(r1 - r2).max() > tol:
            raise ConvergenceError(
                f"well levels moved {np.abs(r1 - r2).max():.2e} GHz under grid "
                f"doubling at grid {g} (tolerance {tol:.2e})"
            )
        probs = _well_filter(phi, v, p, barrier)
        mask = (r2 < barrier) & (probs >= 0.99)
        bound = r2[mask]
        if bound.size >= k:
            return WellLevels(
                energies=bound[:k],
                bound_count=k,
                truncated=False,
                barrier_top=barrier,
                well_minimum=u_min,
            )

    # exhaustive path: classify everything below the barrier.  Counting
    # accuracy only requires level positions well within one spacing.
    g = grid or _auto_grid(span, barrier, u_min, p.ec, 0.05 * spacing)
    phi, diag, off = _tridiag(p, g)
    n_below = sturm_count_below(diag, off, barrier)
    _, diag2, off2 = _tridiag(p, 2 * g)
    n_check = sturm_count_below(diag2, off2, barrier)
    if n_below != n_check:
        g *= 2
        phi, diag, off = _tridiag(p, g)
        n_below = n_check
        _, diag2, off2 = _tridiag(p, 2 * g)
        n_check = sturm_count_below(diag2, off2, barrier)
        if n_below != n_check:
            raise ConvergenceError(
                f"below-barrier level count did not stabilize at grid {g}"
            )
    if n_below == 0:
        return WellLevels(
            energies=np.empty(0),
            bound_count=0,
            truncated=True,
            barrier_top=barrier,
            well_minimum=u_min,
        )
    w, v = sla.eigh_tridiagonal(diag, off, select="i", select_range=(0, n_below - 1))
    probs = _well_filter(phi, v, p, barrier)
    mask = (w < barrier) & (probs >= 0.99)
    bound = w[mask]
    count = int(bound.size)
    return WellLevels(
        energies=bound[: min(k, count)],
        bound_count=count,
        truncated=count < k,
        barrier_top=barrier,
        well_minimum=u_min,
    )


def bound_state_count(p: PhaseQubitParams, grid: int | None = None) -> int:
    """Total number of bound states in the well."""
    return well_levels(p, k=1 << 20, grid=grid).bound_count


def readout_transitions(p: PhaseQubitParams, grid: int | None = None) -> tuple[float, float]:
    """(nu01, nu12) of the well; needs at least three bound states."""
    wl = well_levels(p, k=3, grid=grid)
    if wl.energies.size < 3:
        raise ValidationError(
            f"only {wl.bound_count} bound state(s); readout needs |0>, |1>, |2>"
        )
    e = wl.energies
    return float(e[1] - e[0]), float(e[2] - e[1])
