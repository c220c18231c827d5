"""Current-biased phase qubit: tilted washboard and metastable-well levels.

``U(phi) = -Ej (cos phi + s phi)`` with bias ratio ``s = I/Ic``.  Levels
are solved on the single well containing ``phi = arcsin(s)``, hard-clipped
at the two adjacent barrier maxima.  A level counts as bound when it lies
below the (lower, right-hand) barrier top and at least 99% of its
probability sits in the well region, where U lies below that barrier top.
Tunneling escape is out of scope; readout is represented by the
|1> -> |2> transition frequency.

Levels come from the sine DVR shared with the rf-SQUID
(``flux._sine_dvr``).  To resolve the levels below an energy E_top it takes
``n = ceil(1.4 L k_max / pi) + 32`` points on the well's width L, where
``k_max = sqrt((E_top - U_min)/Ec)`` is the largest classical momentum:
1.4 box modes per momentum quantum, plus 32 for the momentum tails of
shallow wells, whose few levels are far from the semiclassical limit.  One
refinement to about 1.5 n must reproduce the returned energies within
5e-6 plasma spacings and the bound/unbound verdict of every level.  The
in-well probability is exact in the basis: ``c^T S_well c``, with c the
box-mode coefficients and ``S_well`` the closed-form overlap of the box
modes over the well region.  ``S_well`` is a Toeplitz-minus-Hankel matrix
like the DVR's kinetic matrix and is built by the same helper
(``flux._toeplitz_minus_hankel``) from a 2n + 1 entry table; the turning
point that bounds the well region is bisected once per ``well_levels`` call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ConvergenceError, ValidationError, _check_dense, _check_finite, _check_integral
from .flux import _sine_dvr, _toeplitz_minus_hankel

_POINT_FACTOR = 1.4  # box modes per classical momentum quantum pi/L at E_top
_POINT_MARGIN = 32  # extra modes for the momentum tails of shallow wells


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


def _turning_angle(p: PhaseQubitParams) -> float:
    """``pi (x - lo)/L`` of the left turning point x at the barrier-top energy."""
    lo, hi = well_domain(p)
    barrier = float(washboard_potential(hi, p))
    left, right = lo, math.asin(p.s)  # U falls from the left wall to the minimum
    for _ in range(60):
        mid = 0.5 * (left + right)
        left, right = (mid, right) if washboard_potential(mid, p) > barrier else (left, mid)
    return math.pi * (left - lo) / (hi - lo)


def _well_overlap(theta: float, n: int) -> np.ndarray:
    """``S_mn = integral of phi_m phi_n`` over the well region, n box modes.

    The region runs from the left turning point at the barrier-top energy,
    ``theta = pi x / L`` from the left wall (``_turning_angle``), to the
    right wall.  There ``phi_m phi_n = (cos((m - n) theta) - cos((m + n)
    theta)) / L``, so ``S_mn = (F(|m - n|) - F(m + n)) / pi`` with ``F(j)``
    the integral of ``cos(j theta)`` from theta to pi: the
    Toeplitz-minus-Hankel form of the DVR kinetic matrix.
    """
    j = np.arange(1, 2 * n + 1)
    f = np.concatenate(([math.pi - theta], -np.sin(j * theta) / j))
    return _toeplitz_minus_hankel(f, n) / math.pi


def well_levels(p: PhaseQubitParams, k: int = 3) -> WellLevels:
    """Lowest k bound levels of the washboard well.

    Requesting more states than are bound is not an error: the result then
    carries the exact total with ``truncated`` set.  The levels below
    ``U_min + (k + 4)`` plasma spacings are classified first; only if fewer
    than k of them are bound is everything below the barrier top solved.
    ConvergenceError if the refinement to 1.5 n points moves a returned
    level by more than 5e-6 plasma spacings or changes any level's
    bound/unbound verdict.  ``_check_dense`` refuses a refinement of more
    than DIMENSION_CAP points (exhaustive counts above Ej/Ec of about 4e5
    at s = 0).
    """
    _check_integral(k=k)
    if k < 1:
        raise ValidationError("k must be >= 1")
    lo, hi = well_domain(p)
    u_min = float(washboard_potential(math.asin(p.s), p))
    barrier = float(washboard_potential(hi, p))
    spacing = plasma_spacing(p)
    tol = max(0.5e-5 * spacing, 1e-10)
    theta = _turning_angle(p)

    for e_top in (min(u_min + (k + 4) * spacing, barrier), barrier):
        modes = (hi - lo) * math.sqrt((e_top - u_min) / p.ec) / math.pi
        n = math.ceil(_POINT_FACTOR * modes) + _POINT_MARGIN
        sizes = (n, n + n // 2)
        _check_dense(
            sizes[1],
            f"the well's DVR refinement to {e_top - u_min:.4g} GHz above its minimum "
            f"(Ej/Ec = {p.ej / p.ec:.3g})",
        )
        solved = [
            _sine_dvr(lambda x: washboard_potential(x, p), p.ec, lo, hi, size)[1:]
            for size in sizes
        ]
        m = max(int(np.count_nonzero(w < e_top)) for _, w, _ in solved)
        levels, verdicts = [], []
        for size, (s, w, v) in zip(sizes, solved):
            c = s @ v[:, :m]
            in_well = np.einsum("ij,ij->j", c, _well_overlap(theta, size) @ c)
            levels.append(w[:m])
            verdicts.append((w[:m] < barrier) & (in_well >= 0.99))
        if not np.array_equal(*verdicts):
            raise ConvergenceError(
                f"bound levels of the well differ between {n} and {sizes[1]} DVR points "
                f"({int(verdicts[0].sum())} against {int(verdicts[1].sum())})"
            )
        bound = verdicts[1]
        moved = np.abs(levels[1] - levels[0])[bound][:k].max(initial=0.0)
        if moved > tol:
            raise ConvergenceError(
                f"well levels moved {moved:.2e} GHz between {n} and {sizes[1]} DVR points "
                f"(tolerance {tol:.2e})"
            )
        energies = levels[1][bound]
        if energies.size >= k or e_top == barrier:
            break
    count = energies.size if e_top == barrier else k
    return WellLevels(
        energies=energies[:k],
        bound_count=count,
        truncated=count < k,
        barrier_top=barrier,
        well_minimum=u_min,
    )


def bound_state_count(p: PhaseQubitParams) -> int:
    """Total number of bound states in the well."""
    return well_levels(p, k=1 << 20).bound_count


def readout_transitions(p: PhaseQubitParams) -> tuple[float, float]:
    """(nu01, nu12) of the well; needs at least three bound states."""
    wl = well_levels(p, k=3)
    if wl.energies.size < 3:
        raise ValidationError(
            f"only {wl.bound_count} bound state(s); readout needs |0>, |1>, |2>"
        )
    e = wl.energies
    return float(e[1] - e[0]), float(e[2] - e[1])
