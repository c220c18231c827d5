"""Flux qubits: rf-SQUID and three-junction models in the phase basis.

The 1D/2D Schrodinger problems ``H = Ec n^2 + U(phi)`` (``n = -i d/dphi``)
are discretized with central finite differences: the 2nd-order tridiagonal
stencil with hard walls on clipped intervals (tridiagonal LAPACK solvers
stay fast at very large grids), and an 8th-order circulant stencil on
periodic domains where dense solvers are used anyway.  The three-junction
potential is

    U(p1, p2) = Ej [2 + a - cos p1 - cos p2 - a cos(2 pi f + p1 - p2)]

with both kinetic axes scaled by the same effective Ec.  The potential is
invariant under (p1, p2) -> (-p2, -p1); the 2D stencil is block-diagonalized
in the even/odd sectors of that exchange, which quarters diagonalization
cost without any approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
from scipy.optimize import minimize_scalar

from .core import ConvergenceError, ValidationError, _check_finite

# 8th-order central second-derivative weights (center, then offsets 1..4)
_FD8 = np.array([-205.0 / 72.0, 8.0 / 5.0, -1.0 / 5.0, 8.0 / 315.0, -1.0 / 560.0])


@dataclass(frozen=True)
class RfSquidParams:
    """One-junction (rf-SQUID) flux qubit; all energy scales in GHz.

    ``inductive_scale`` is the coefficient of (phi - phi_ext)^2, i.e.
    (Phi0 / 2 pi)^2 / 2L expressed in GHz; ``phi_ext`` = 2 pi Phi_ext/Phi0.
    """

    ej: float
    ec: float
    inductive_scale: float
    phi_ext: float = 0.0

    def __post_init__(self):
        _check_finite(self, "ej", "ec", "inductive_scale", "phi_ext")
        if self.ej <= 0 or self.ec <= 0 or self.inductive_scale <= 0:
            raise ValidationError("all rf-SQUID energy scales must be > 0")


@dataclass(frozen=True)
class ThreeJunctionParams:
    """Three-junction flux qubit; ``alpha`` is the third-junction ratio."""

    ej: float
    ec: float
    alpha: float = 0.8
    f: float = 0.5
    grid_points: int = 48

    def __post_init__(self):
        _check_finite(self, "ej", "ec", "alpha", "f")
        if self.ej <= 0 or self.ec <= 0:
            raise ValidationError("Ej and Ec must be > 0")
        if not 0.5 < self.alpha < 1.0:
            raise ValidationError("alpha must lie in (0.5, 1) for a double-well regime")
        if self.grid_points < 32:
            raise ValidationError("grid_points must be >= 32")


@dataclass(frozen=True)
class FluxoidRecord:
    """Fluxoid classification of an rf-SQUID potential minimum."""

    phi_star: float
    m: int
    residual: float


@dataclass(frozen=True)
class Levels1D:
    phi: np.ndarray
    energies: np.ndarray
    states: np.ndarray  # columns, l2-normalized over grid points
    grid_points: int


@dataclass(frozen=True)
class Levels2D:
    phi: np.ndarray  # 1D axis, shared by both directions
    energies: np.ndarray
    states: np.ndarray | None  # columns of length grid^2 (row-major p1, p2)
    grid_points: int


def rf_squid_potential(phi, p: RfSquidParams):
    """U(phi) = -Ej cos(phi) + inductive_scale * (phi - phi_ext)^2."""
    phi = np.asarray(phi, dtype=float)
    return -p.ej * np.cos(phi) + p.inductive_scale * (phi - p.phi_ext) ** 2


def _rf_squid_slope(phi, p: RfSquidParams):
    return p.ej * np.sin(phi) + 2.0 * p.inductive_scale * (phi - p.phi_ext)


def rf_squid_minima(p: RfSquidParams, span: float = 3.0 * math.pi, samples: int = 2001):
    """Local minima of the rf-SQUID potential around phi_ext (ascending)."""
    phi = np.linspace(p.phi_ext - span, p.phi_ext + span, samples)
    u = rf_squid_potential(phi, p)
    mins = []
    for i in range(1, samples - 1):
        if u[i] < u[i - 1] and u[i] < u[i + 1]:
            res = minimize_scalar(
                lambda x: float(rf_squid_potential(x, p)),
                bounds=(phi[i - 1], phi[i + 1]),
                method="bounded",
                options={"xatol": 1e-10},
            )
            x = float(res.x)
            # Newton-polish on U' so stationarity holds to roundoff
            for _ in range(30):
                slope = float(_rf_squid_slope(x, p))
                curv = p.ej * math.cos(x) + 2.0 * p.inductive_scale
                if abs(slope) < 1e-13 * p.ej or curv <= 0:
                    break
                x -= slope / curv
            mins.append(x)
    return mins


def classify_fluxoid(p: RfSquidParams, phi_star: float) -> FluxoidRecord:
    """Assign the fluxoid integer m to a stationary point of the potential.

    The induced flux comes from the inductive branch at phi_star,
    Phi_ind/Phi0 = (phi_star - phi_ext)/2pi, so the total enclosed flux is
    (Phi_ext + Phi_ind)/Phi0 = phi_star/2pi and m is its nearest integer
    (the Josephson phase representative is then 2 pi m - phi_star).  The
    residual is the loop current-conservation mismatch between the
    junction and the inductor, in units of Phi0; it vanishes at true
    stationary points.
    """
    slope = float(_rf_squid_slope(phi_star, p))
    if abs(slope) > 1e-8 * p.ej:
        raise ValidationError(
            f"phi_star = {phi_star} is not stationary: |U'| = {abs(slope):.3e} "
            f"> 1e-8 * Ej"
        )
    f_ind = (phi_star - p.phi_ext) / (2.0 * math.pi)
    f_total = p.phi_ext / (2.0 * math.pi) + f_ind
    m = int(round(f_total))
    residual = abs(slope) / (4.0 * math.pi * p.inductive_scale)
    return FluxoidRecord(phi_star=float(phi_star), m=m, residual=residual)


def _tridiagonal_hamiltonian(potential_values: np.ndarray, ec: float, h: float):
    """(diagonal, off-diagonal) of the 2nd-order FD Hamiltonian."""
    n = potential_values.size
    diag = 2.0 * ec / h**2 + potential_values
    off = np.full(n - 1, -ec / h**2)
    return diag, off


def sturm_count_below(diag: np.ndarray, off: np.ndarray, x: float) -> int:
    """Number of eigenvalues of the tridiagonal matrix strictly below x.

    LDL^T Sturm-sequence count; O(n), no factorization stored.
    """
    count = 0
    d = diag[0] - x
    if d < 0:
        count += 1
    tiny = 1e-300
    for i in range(1, diag.size):
        if d == 0.0:
            d = tiny
        d = (diag[i] - x) - off[i - 1] ** 2 / d
        if d < 0:
            count += 1
    return count


def _circulant_d2(g: int) -> np.ndarray:
    h = 2.0 * math.pi / g
    d = np.zeros((g, g))
    idx = np.arange(g)
    d[idx, idx] = _FD8[0] / h**2
    for k in range(1, 5):
        d[idx, (idx + k) % g] = _FD8[k] / h**2
        d[idx, (idx - k) % g] = _FD8[k] / h**2
    return d


def _solve_1d_once(potential, ec, phi_lo, phi_hi, grid, k, boundary):
    if boundary == "box":
        # interior points; the truncated stencil imposes psi = 0 at the walls
        phi = np.linspace(phi_lo, phi_hi, grid + 2)[1:-1]
        h = phi[1] - phi[0]
        diag, off = _tridiagonal_hamiltonian(np.asarray(potential(phi), dtype=float), ec, h)
        w, v = sla.eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1))
    elif boundary == "ring":
        phi = phi_lo + (phi_hi - phi_lo) * np.arange(grid) / grid
        if abs((phi_hi - phi_lo) - 2.0 * math.pi) > 1e-12:
            raise ValidationError("ring boundary requires a 2*pi domain")
        mat = -ec * _circulant_d2(grid) + np.diag(np.asarray(potential(phi), dtype=float))
        w, v = np.linalg.eigh(mat)
        w, v = w[:k], v[:, :k]
    else:
        raise ValidationError(f"unknown boundary {boundary!r}")
    return Levels1D(phi=phi, energies=np.asarray(w, float), states=v, grid_points=grid)


def solve_levels_1d(
    potential,
    ec: float,
    phi_lo: float,
    phi_hi: float,
    grid: int = 1024,
    k: int = 4,
    boundary: str = "box",
    tol: float = 1e-6,
    max_grid: int = 1 << 19,
) -> Levels1D:
    """Lowest k levels of ``H = Ec n^2 + U(phi)`` on [phi_lo, phi_hi].

    The grid is doubled until the k lowest eigenvalues move by less than
    ``tol`` GHz; non-convergence at ``max_grid`` raises ConvergenceError.
    ``boundary="box"`` clips with hard walls, ``boundary="ring"`` requires
    a 2*pi domain and treats phi_hi as identified with phi_lo.
    """
    if grid < 128:
        raise ValidationError("grid must be >= 128")
    if phi_hi <= phi_lo:
        raise ValidationError("empty phase interval")
    if ec <= 0:
        raise ValidationError("Ec must be > 0")
    prev = _solve_1d_once(potential, ec, phi_lo, phi_hi, grid, k, boundary)
    g = grid
    while 2 * g <= max_grid:
        cur = _solve_1d_once(potential, ec, phi_lo, phi_hi, 2 * g, k, boundary)
        if np.abs(cur.energies - prev.energies).max() <= tol:
            return cur
        prev, g = cur, 2 * g
    raise ConvergenceError(
        f"1D eigenvalues not converged to {tol} GHz at max grid {max_grid}"
    )


def three_junction_potential(phi1, phi2, p: ThreeJunctionParams):
    """Three-junction potential, 2*pi-periodic in each phase."""
    phi1 = np.asarray(phi1, dtype=float)
    phi2 = np.asarray(phi2, dtype=float)
    return p.ej * (
        2.0
        + p.alpha
        - np.cos(phi1)
        - np.cos(phi2)
        - p.alpha * np.cos(2.0 * math.pi * p.f + phi1 - phi2)
    )


@lru_cache(maxsize=4)
def _symmetry_blocks(g: int):
    """Exchange-negation symmetry data for the g x g periodic grid.

    Permutation (i, j) -> ((g - j) % g, (g - i) % g); returns orbit
    representatives, partners, and the unit-Ec kinetic blocks in the
    even/odd sectors.
    """
    n = g * g
    i, j = np.divmod(np.arange(n), g)
    perm = ((g - j) % g) * g + ((g - i) % g)

    reps, partners = [], []
    seen = np.zeros(n, dtype=bool)
    for x in range(n):
        if seen[x]:
            continue
        px = int(perm[x])
        seen[x] = seen[px] = True
        reps.append(x)
        partners.append(px)
    reps = np.array(reps)
    partners = np.array(partners)
    paired = reps != partners

    d2 = _circulant_d2(g)
    kin = -(np.kron(d2, np.eye(g)) + np.kron(np.eye(g), d2))

    m_e = reps.size
    m_o = int(paired.sum())
    s = 1.0 / math.sqrt(2.0)
    be = np.zeros((n, m_e))
    bo = np.zeros((n, m_o))
    be[reps[~paired], np.nonzero(~paired)[0]] = 1.0
    be[reps[paired], np.nonzero(paired)[0]] = s
    be[partners[paired], np.nonzero(paired)[0]] = s
    bo[reps[paired], np.arange(m_o)] = s
    bo[partners[paired], np.arange(m_o)] = -s

    ke = be.T @ kin @ be
    ko = bo.T @ kin @ bo
    return perm, reps, partners, paired, ke, ko


def _potential_grid(p: ThreeJunctionParams) -> np.ndarray:
    g = p.grid_points
    phi = -math.pi + 2.0 * math.pi * np.arange(g) / g
    p1, p2 = np.meshgrid(phi, phi, indexing="ij")
    return three_junction_potential(p1, p2, p).ravel()


def solve_three_junction(
    p: ThreeJunctionParams, k: int = 6, want_states: bool = False
) -> Levels2D:
    """Lowest k levels of the periodic 2D three-junction Hamiltonian."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    g = p.grid_points
    perm, reps, partners, paired, ke, ko = _symmetry_blocks(g)
    u = _potential_grid(p)
    u = 0.5 * (u + u[perm])  # enforce the exact exchange symmetry at roundoff

    he = p.ec * ke + np.diag(u[reps])
    ho = p.ec * ko + np.diag(u[reps[paired]])

    phi = -math.pi + 2.0 * math.pi * np.arange(g) / g
    if not want_states:
        we = sla.eigh(he, eigvals_only=True, subset_by_index=(0, min(k, he.shape[0]) - 1))
        wo = sla.eigh(ho, eigvals_only=True, subset_by_index=(0, min(k, ho.shape[0]) - 1))
        w = np.sort(np.concatenate([we, wo]))[:k]
        return Levels2D(phi=phi, energies=w, states=None, grid_points=g)

    we, ve = sla.eigh(he, subset_by_index=(0, min(k, he.shape[0]) - 1))
    wo, vo = sla.eigh(ho, subset_by_index=(0, min(k, ho.shape[0]) - 1))
    s = 1.0 / math.sqrt(2.0)
    n = g * g
    cols = []
    for idx in range(we.size):
        full = np.zeros(n)
        full[reps[~paired]] = ve[~paired, idx]
        full[reps[paired]] = s * ve[paired, idx]
        full[partners[paired]] += s * ve[paired, idx]
        cols.append((we[idx], full))
    for idx in range(wo.size):
        full = np.zeros(n)
        full[reps[paired]] = s * vo[:, idx]
        full[partners[paired]] -= s * vo[:, idx]
        cols.append((wo[idx], full))
    cols.sort(key=lambda t: t[0])
    cols = cols[:k]
    w = np.array([c[0] for c in cols])
    v = np.stack([c[1] for c in cols], axis=1)
    return Levels2D(phi=phi, energies=w, states=v, grid_points=g)


def flux_spectrum_vs_f(p: ThreeJunctionParams, f_grid, k: int = 6):
    """Lowest k levels versus reduced flux f (the level-diagram sweep)."""
    from .charge import SpectrumTable

    if k > 6:
        raise ValidationError("k must be <= 6 for the flux sweep")
    f_grid = np.asarray(f_grid, dtype=float)
    rows = np.empty((f_grid.size, k))
    for i, f in enumerate(f_grid):
        rows[i] = solve_three_junction(replace(p, f=float(f)), k=k).energies
    return SpectrumTable(f_grid, rows)


def persistent_current(state: np.ndarray, p: ThreeJunctionParams) -> float:
    """Circulating-current expectation of a 2D eigenstate, in units of Ej.

    Implemented as -<dH/d(2 pi f)>/Ej = -alpha <sin(2 pi f + p1 - p2)>;
    the sign makes the counterclockwise state |up> (the ground state for
    f > 1/2) positive.
    """
    g = p.grid_points
    psi = np.asarray(state, dtype=complex).ravel()
    if psi.size != g * g:
        raise ValidationError("state length does not match the parameter grid")
    phi = -math.pi + 2.0 * math.pi * np.arange(g) / g
    p1, p2 = np.meshgrid(phi, phi, indexing="ij")
    op = np.sin(2.0 * math.pi * p.f + p1 - p2).ravel()
    weight = np.abs(psi) ** 2
    weight = weight / weight.sum()
    return float(-p.alpha * np.sum(op * weight))


def ground_state_current_vs_f(p: ThreeJunctionParams, f_grid) -> np.ndarray:
    """Ground-state persistent current across a reduced-flux grid."""
    out = np.empty(len(f_grid))
    for i, f in enumerate(np.asarray(f_grid, dtype=float)):
        sol = solve_three_junction(replace(p, f=float(f)), k=1, want_states=True)
        out[i] = persistent_current(sol.states[:, 0], p=replace(p, f=float(f)))
    return out


def fit_two_level_gap(f_grid, gaps):
    """Fit E1 - E0 to sqrt(Delta^2 + (c (f - 1/2))^2) near f = 1/2.

    Returns (delta, slope c, max relative residual).  Delta realizes the
    tunneling splitting between the circulating-current states.
    """
    from scipy.optimize import curve_fit

    f_grid = np.asarray(f_grid, dtype=float)
    gaps = np.asarray(gaps, dtype=float)

    def model(f, delta, c):
        return np.sqrt(delta**2 + (c * (f - 0.5)) ** 2)

    p0 = (float(gaps.min()), max((gaps.max() - gaps.min()) / max(abs(f_grid - 0.5).max(), 1e-9), 1.0))
    popt, _ = curve_fit(model, f_grid, gaps, p0=p0)
    delta, c = float(abs(popt[0])), float(abs(popt[1]))
    rel = np.abs(model(f_grid, delta, c) - gaps) / gaps
    return delta, c, float(rel.max())
