"""Flux qubits: the rf-SQUID in the phase basis, the three-junction loop
in the charge basis.

The rf-SQUID problem ``H = Ec n^2 + U(phi)`` (``n = -i d/dphi``) is
solved on a clipped interval with hard walls by the sine DVR
(``_sine_dvr``, Colbert & Miller 1992), the one solver of the hard-walled
1D problems: the phase qubit's washboard well uses it too.  Its kinetic
matrix on n points is built from its closed form, ``G(|i - j|) - G(i + j)``
with ``G(k) = (-1)^k (Ec pi^2/2L^2) / sin^2(pi k/2(n + 1))``: a
Toeplitz-minus-Hankel matrix of strided views over one table
(``_toeplitz_minus_hankel``), with no n^3 product.  The
three-junction loop has the potential

    U(p1, p2) = Ej [2 + a - cos p1 - cos p2 - a cos(2 pi f + p1 - p2)]

with both kinetic axes scaled by the same effective Ec.  It is periodic,
so it is solved in the charge basis ``|n1, n2>``, ``n = -N..N``
(Orlando et al., PRB 60, 15398 (1999)), like the Cooper-pair box:
``H = Ec (n1^2 + n2^2) + U`` where each cosine shifts the charges by one,
``e^{i p1}|n1, n2> = |n1 + 1, n2>``.  H commutes with the exchange
S: (n1, n2) -> (-n2, -n1) and with P.K, charge inversion n -> -n followed
by complex conjugation, so it is solved as two real symmetric blocks, the
S-even and S-odd sectors of (m^2 + m)/2 and (m^2 - m)/2 states
(m = 2N + 1), assembled straight from H's nonzero terms.

Each search owns its limits: ``solve_three_junction`` bounds the level
count by the (2N + 1)^2 charge states, ``solve_levels_1d`` chooses its
own DVR points, and ``rf_squid_minima`` bisects the wells of the
potential; callers pass only the physics and k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .charge import SpectrumTable
from .core import (
    DIMENSION_CAP,
    ConvergenceError,
    ValidationError,
    _check_dense,
    _check_finite,
    _check_finite_values,
    _check_integral,
    _check_level_count,
    _checked_sweep_grid,
    _least_squares,
)

# solve_levels_1d: DVR points to start from and level tolerance (GHz)
_START_POINTS = 64
_LEVEL_TOL = 1e-6
# rf_squid_minima: the most wells of U it searches
_MAX_WELLS = 2**13


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
    """Three-junction flux qubit; ``alpha`` is the third-junction ratio.

    ``cutoff`` N truncates each island charge to -N..N, a dense matrix of
    (2N + 1)^2 states.
    """

    ej: float
    ec: float
    alpha: float = 0.8
    f: float = 0.5
    cutoff: int = 10

    def __post_init__(self):
        _check_finite(self, "ej", "ec", "alpha", "f")
        _check_integral(cutoff=self.cutoff)
        if self.ej <= 0 or self.ec <= 0:
            raise ValidationError("Ej and Ec must be > 0")
        if not 0.5 < self.alpha < 1.0:
            raise ValidationError("alpha must lie in (0.5, 1) for a double-well regime")
        if self.cutoff < 2:
            raise ValidationError("charge cutoff N must be >= 2")
        _check_dense((2 * self.cutoff + 1) ** 2, f"charge cutoff {self.cutoff}")


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
    states: np.ndarray  # columns, l2-normalized over the DVR points phi
    grid_points: int


@dataclass(frozen=True)
class Levels2D:
    energies: np.ndarray
    states: np.ndarray | None  # columns of length (2N + 1)^2 (row-major n1, n2)


def rf_squid_potential(phi, p: RfSquidParams):
    """U(phi) = -Ej cos(phi) + inductive_scale * (phi - phi_ext)^2."""
    phi = np.asarray(phi, dtype=float)
    return -p.ej * np.cos(phi) + p.inductive_scale * (phi - p.phi_ext) ** 2


def _rf_squid_slope(phi: float, p: RfSquidParams) -> float:
    """U'(phi) = Ej sin(phi) + 2 inductive_scale (phi - phi_ext), in plain floats."""
    return p.ej * math.sin(phi) + 2.0 * p.inductive_scale * (phi - p.phi_ext)


def rf_squid_minima(p: RfSquidParams):
    """Every local minimum of the rf-SQUID potential (ascending).

    U'' = Ej cos(phi) + 2 inductive_scale is >= 0 everywhere if r =
    Ej/(2 inductive_scale) <= 1, else > 0 exactly on the wells 2 pi k +-
    theta, cos(theta) = -1/r.  U' increases strictly on each well (on
    phi_ext +- (r + 1) if r <= 1), so a well holds one minimum if U' goes
    from < 0 to > 0 across it, else none.  Only wells within r of phi_ext
    are searched: every stationary point has |phi - phi_ext| = r |sin phi|.
    Each sign change is bisected until no float lies between its ends, then
    steps to a neighbouring float while that has a smaller |U'| (rounding
    leaves U' non-monotone over a few floats).  ValidationError, before any
    search: more than _MAX_WELLS wells (an infinite r included), or a
    phi_ext so large that its float spacing, times the curvature bound
    Ej + 2 inductive_scale, exceeds the 1e-8 Ej of U' that
    ``classify_fluxoid`` allows.
    """
    reach = p.ej / (2.0 * p.inductive_scale)
    theta = math.acos(-1.0 / reach) if reach > 1.0 else math.pi
    if not (reach + theta) / math.pi + 3.0 <= _MAX_WELLS:
        raise ValidationError(
            f"rf-SQUID minima lie up to Ej/(2 inductive_scale) = {reach:.4g} rad from "
            f"phi_ext, across more than {_MAX_WELLS} wells of U"
        )
    floor = (p.ej + 2.0 * p.inductive_scale) * math.ulp(abs(p.phi_ext) + reach)
    if floor > 1e-8 * p.ej:
        raise ValidationError(
            f"phi_ext = {p.phi_ext:g} is too large: U' cannot be resolved below "
            f"(Ej + 2 inductive_scale) ulp(phi) = {floor:.3e} > 1e-8 * Ej there"
        )
    if reach <= 1.0:
        wells = [(p.phi_ext - reach - 1.0, p.phi_ext + reach + 1.0)]
    else:
        first = math.floor((p.phi_ext - reach - theta) / (2.0 * math.pi))
        last = math.ceil((p.phi_ext + reach + theta) / (2.0 * math.pi))
        centres = (2.0 * math.pi * np.arange(first, last + 1)).tolist()
        wells = [(c - theta, c + theta) for c in centres]

    def size(x):
        return abs(_rf_squid_slope(x, p))

    mins = []
    for lo, hi in wells:
        if not _rf_squid_slope(lo, p) < 0.0 < _rf_squid_slope(hi, p):
            continue
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (lo, mid) if _rf_squid_slope(mid, p) > 0.0 else (mid, hi)
        x = lo
        while size(y := min(np.nextafter(x, [-np.inf, np.inf]).tolist(), key=size)) < size(x):
            x = y
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
    stationary points.  A non-finite phi_star raises ValidationError.
    """
    _check_finite_values(phi_star=phi_star)
    slope = _rf_squid_slope(phi_star, p)
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


def _toeplitz_minus_hankel(g: np.ndarray, n: int) -> np.ndarray:
    """The n x n matrix ``g[|i - j|] - g[i + j]``, i, j = 1..n, from ``g[0..2n]``.

    Both terms are strided views of one 3n-entry table, so the result is the
    only n^2 array built.
    """
    table = np.concatenate([g[n - 1 : 0 : -1], g[: 2 * n + 1]])  # g[|x - n + 1|]
    return sliding_window_view(table[: 2 * n - 1], n)[::-1] - sliding_window_view(table[n + 1 :], n)


def _dvr_kinetic(ec: float, length: float, n: int) -> np.ndarray:
    """The kinetic matrix of ``_sine_dvr`` on n points, from its closed form."""
    scale = ec * math.pi**2 / (2.0 * length**2)
    period = 2 * n + 2
    k = np.arange(1, 2 * n + 1)
    # sin^2 is even about k = n + 1; folding k there keeps its argument below pi/2
    g = np.where(k % 2, -scale, scale) / np.sin(math.pi / period * np.minimum(k, period - k)) ** 2
    return _toeplitz_minus_hankel(np.concatenate(([scale * (2 * (n + 1) ** 2 + 1) / 3.0], g)), n)


def _sine_dvr(potential, ec: float, lo: float, hi: float, n: int):
    """Sine DVR of ``H = Ec n^2 + U(phi)`` with hard walls at lo and hi.

    The finite-interval DVR of Colbert & Miller, J. Chem. Phys. 96, 1982
    (1992), appendix A: on the n interior points ``x_i = lo + i L/(n + 1)``
    the box modes ``sqrt(2/L) sin(pi m (x - lo)/L)``, m = 1..n, are mapped
    by the orthogonal, symmetric ``S_mi = sqrt(2/(n + 1)) sin(pi m i/(n + 1))``,
    so the kinetic matrix is ``S diag(Ec (pi m/L)^2) S`` and U(x_i) sits on
    the diagonal.  The kinetic matrix is built from the closed form of that
    sum (``_dvr_kinetic``), ``T_ij = G(|i - j|) - G(i + j)`` with
    ``G(k) = (-1)^k A / sin^2(pi k/2(n + 1))``, ``A = Ec pi^2/2L^2`` and
    ``G(0) = A (2 (n + 1)^2 + 1)/3``: a Toeplitz-minus-Hankel matrix that
    agrees with the product to rounding, with no n^3 work.  S is gathered
    from a 2(n + 1)-entry sine table.  Returns ``(x, S, energies, states)``:
    the state columns are l2-normalized over the points, and ``S @ states``
    holds their box-mode coefficients.
    """
    m = np.arange(1, n + 1)
    length = hi - lo
    x = lo + m * length / (n + 1)
    u = np.asarray(potential(x), dtype=float)
    if not np.isfinite(u).all():
        raise ValidationError("the potential is not finite on the DVR points")
    h = _dvr_kinetic(ec, length, n)
    h[m - 1, m - 1] += u
    w, v = np.linalg.eigh(h)
    # built after the solve, so S is not held through eigh's workspace;
    # m i is reduced mod 2(n + 1) exactly, so S stays orthogonal to rounding
    period = 2 * n + 2
    sines = math.sqrt(2.0 / (n + 1)) * np.sin(math.pi / (n + 1) * np.arange(period))
    return x, sines[np.outer(m, m) % period], w, v


def solve_levels_1d(potential, ec: float, phi_lo: float, phi_hi: float, k: int = 4) -> Levels1D:
    """Lowest k levels of ``H = Ec n^2 + U(phi)`` on [phi_lo, phi_hi].

    The interval is clipped with hard walls and solved by the sine DVR on
    ``max(_START_POINTS, k)`` points, grown about 1.5x until the k lowest
    eigenvalues move by less than ``_LEVEL_TOL`` GHz; the finer solution
    is returned.  Non-convergence at ``DIMENSION_CAP`` points raises
    ConvergenceError; a non-finite ec or interval end, or a potential that
    is not finite on the DVR points, raises ValidationError before any solve.
    """
    _check_finite_values(ec=ec, phi_lo=phi_lo, phi_hi=phi_hi)
    if phi_hi <= phi_lo:
        raise ValidationError("empty phase interval")
    if ec <= 0:
        raise ValidationError("Ec must be > 0")
    _check_integral(k=k)
    if not 1 <= k <= DIMENSION_CAP:
        raise ValidationError(f"need 1 <= k <= {DIMENSION_CAP} levels, got k = {k}")
    n = max(_START_POINTS, k)
    _, _, w, _ = _sine_dvr(potential, ec, phi_lo, phi_hi, n)
    while (3 * n + 1) // 2 <= DIMENSION_CAP:
        n, prev = (3 * n + 1) // 2, w[:k]
        x, _, w, v = _sine_dvr(potential, ec, phi_lo, phi_hi, n)
        if np.abs(w[:k] - prev).max() <= _LEVEL_TOL:
            return Levels1D(phi=x, energies=w[:k], states=v[:, :k], grid_points=n)
    raise ConvergenceError(
        f"1D eigenvalues not converged to {_LEVEL_TOL} GHz at {DIMENSION_CAP} points"
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


def _three_junction_terms(p: ThreeJunctionParams):
    """H's nonzero terms as ``(rows, columns, values)`` on the row-major |n1, n2> index.

    ``Ec (n1^2 + n2^2) + Ej (2 + a)`` on the diagonal, ``-Ej/2`` on the hops of
    ``cos p1`` and ``cos p2``, and ``-a Ej/2 e^{+-2 pi i f}`` on the
    ``(n1 +- 1, n2 -+ 1)`` hops of ``cos(2 pi f + p1 - p2)``; no position repeats.
    """
    m = 2 * p.cutoff + 1
    n = np.arange(-p.cutoff, p.cutoff + 1)
    idx = np.arange(m * m).reshape(m, m)
    hop = -0.5 * p.alpha * p.ej * np.exp(2j * math.pi * p.f)
    terms = [(idx, idx, p.ec * (n[:, None] ** 2 + n[None, :] ** 2) + p.ej * (2.0 + p.alpha))]
    # cos p1, cos p2, and e^{i(p1 - p2)}, which takes |n1, n2> to |n1 + 1, n2 - 1>
    for up, down, v in (
        (idx[1:, :], idx[:-1, :], -0.5 * p.ej),
        (idx[:, 1:], idx[:, :-1], -0.5 * p.ej),
        (idx[1:, :-1], idx[:-1, 1:], hop),
    ):
        terms += [(up, down, v), (down, up, np.conj(v))]
    rows = np.concatenate([r.ravel() for r, _, _ in terms])
    cols = np.concatenate([c.ravel() for _, c, _ in terms])
    vals = np.concatenate([np.broadcast_to(v, r.shape).ravel() for r, _, v in terms])
    return rows, cols, vals


def _three_junction_hamiltonian(p: ThreeJunctionParams) -> np.ndarray:
    """Dense view of ``_three_junction_terms``: the (2N + 1)^2 square complex matrix."""
    rows, cols, vals = _three_junction_terms(p)
    d = (2 * p.cutoff + 1) ** 2
    h = np.zeros((d, d), dtype=complex)
    h[rows, cols] = vals
    return h


# The four charge maps that commute with H: 1, S: (n1, n2) -> (-n2, -n1),
# P: n -> -n and SP: (n1, n2) -> (n2, n1).  Each row is the character of one
# type of sector basis vector on them: rows 0-1 are S-even, rows 2-3 S-odd,
# and the type odd under P carries the phase i, so that P.K leaves it invariant.
_SECTOR_CHARACTERS = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])
_SECTOR_PHASES = np.array([1.0, 1j, 1.0, 1j])


def _symmetry_sectors(cutoff: int):
    """The S-even and S-odd sectors of the charge basis, each in a P.K-real basis.

    Each orbit {n, Sn, -n, SPn} of the charge states and each character chi
    give at most one basis vector: ``sum_g chi(g) |g n>``, normalized and
    times the phase of its type.  It is S-even or S-odd as chi(S) = +-1 and
    invariant under P.K (n -> -n, then complex conjugation), so H is real
    symmetric on each sector.  A character that is not 1 on the orbit's
    stabilizer gives the zero vector, which leaves (m^2 + m)/2 and
    (m^2 - m)/2 vectors, m = 2N + 1.  Returns one ``(column, coefficient)``
    pair of (m^2, 2) arrays per sector: charge state i enters sector vector
    ``column[i, t]`` with ``coefficient[i, t]``, which is 0 where that vector
    is absent.
    """
    m = 2 * cutoff + 1
    d = m * m
    i = np.arange(d)
    n1, n2 = np.divmod(i, m)
    s = (m - 1 - n2) * m + (m - 1 - n1)
    images = np.stack([i, s, d - 1 - i, d - 1 - s], axis=1)  # n -> -n reverses the index
    rep = images.min(axis=1)
    hits = images[rep] == i[:, None]  # the g that take the orbit's representative to i
    # sum of chi over hits: chi(g) |stabilizer| or 0; the vector's norm is 2 sqrt(|stabilizer|)
    raw = hits.astype(int) @ _SECTOR_CHARACTERS.T
    coef = _SECTOR_PHASES * raw / (2.0 * np.sqrt(hits.sum(axis=1, keepdims=True)))
    present = (rep == i)[:, None] & (raw != 0)
    sectors = []
    for types in (slice(0, 2), slice(2, 4)):
        column = np.maximum(np.cumsum(present[:, types]).reshape(d, 2) - 1, 0)
        sectors.append((column[rep], coef[:, types]))
    return sectors


def _sector_blocks(p: ThreeJunctionParams, sectors):
    """The real symmetric block of H on each sector, scattered from H's terms."""
    rows, cols, vals = _three_junction_terms(p)
    blocks = []
    for column, coef in sectors:
        dim = int(column.max()) + 1
        terms = coef[rows].conj()[:, :, None] * vals[:, None, None] * coef[cols][:, None, :]
        flat = column[rows][:, :, None] * dim + column[cols][:, None, :]
        block = np.bincount(flat.ravel(), terms.real.ravel(), minlength=dim * dim)
        blocks.append(block.reshape(dim, dim))
    return blocks


def solve_three_junction(
    p: ThreeJunctionParams, k: int = 6, want_states: bool = False
) -> Levels2D:
    """Lowest k levels of the three-junction Hamiltonian in the charge basis.

    H is solved as two real symmetric blocks, its S-even and S-odd sectors
    (``_symmetry_sectors``), whose spectra merge by a stable sort.  Each
    state lies in one sector, so ``S c = +-c``, and it satisfies
    ``c(-n) = conj(c(n))``: its phase-space wavefunction
    ``sum_n c(n) e^{i n.phi}`` is real, and the sum and difference of the
    two lowest levels are the localized circulating-current states.
    """
    _check_level_count(k, p.cutoff, (2 * p.cutoff + 1) ** 2)
    sectors = _symmetry_sectors(p.cutoff)
    blocks = _sector_blocks(p, sectors)
    if not want_states:
        w = np.concatenate([np.linalg.eigvalsh(b) for b in blocks])
        return Levels2D(energies=np.sort(w)[:k], states=None)
    solved = [np.linalg.eigh(b) for b in blocks]
    w = np.concatenate([e for e, _ in solved])
    order = np.argsort(w, kind="stable")[:k]
    states = np.empty(((2 * p.cutoff + 1) ** 2, k), dtype=complex)
    start = 0
    for (column, coef), (e, v) in zip(sectors, solved):
        mine = (order >= start) & (order < start + e.size)
        states[:, mine] = np.einsum("it,itj->ij", coef, v[:, order[mine] - start][column])
        start += e.size
    return Levels2D(energies=w[order], states=states)


def flux_spectrum_vs_f(p: ThreeJunctionParams, f_grid, k: int = 6) -> SpectrumTable:
    """Lowest k levels versus reduced flux f (the level-diagram sweep)."""
    f_grid = _checked_sweep_grid(f_grid, "f")
    rows = [solve_three_junction(replace(p, f=float(f)), k=k).energies for f in f_grid]
    return SpectrumTable(f_grid, rows)


def persistent_current(state: np.ndarray, p: ThreeJunctionParams) -> float:
    """Circulating-current expectation of a charge-basis state, in units of Ej.

    Implemented as -<dH/d(2 pi f)>/Ej = -alpha Im(e^{2 pi i f} <e^{i(p1 - p2)}>);
    the sign makes the counterclockwise state |up> (the ground state for
    f > 1/2) positive.
    """
    m = 2 * p.cutoff + 1
    c = np.asarray(state, dtype=complex).ravel()
    if c.size != m * m:
        raise ValidationError("state length does not match the charge cutoff")
    c = c.reshape(m, m)
    norm = np.vdot(c, c).real
    if not norm > 0:
        raise ValidationError("state has no nonzero amplitude")
    shift = np.vdot(c[1:, :-1], c[:-1, 1:])  # <e^{i(p1 - p2)}>, unnormalized
    return float(-p.alpha * np.imag(np.exp(2j * math.pi * p.f) * shift) / norm)


def ground_state_current_vs_f(p: ThreeJunctionParams, f_grid) -> np.ndarray:
    """Ground-state persistent current across a reduced-flux grid."""
    f_grid = _checked_sweep_grid(f_grid, "f")
    out = np.empty(f_grid.size)
    for i, f in enumerate(f_grid):
        q = replace(p, f=float(f))
        sol = solve_three_junction(q, k=1, want_states=True)
        out[i] = persistent_current(sol.states[:, 0], q)
    return out


def fit_two_level_gap(f_grid, gaps):
    """Fit E1 - E0 to sqrt(Delta^2 + (c (f - 1/2))^2) near f = 1/2.

    Returns (delta, slope c, max relative residual).  Delta realizes the
    tunneling splitting between the circulating-current states.  The
    squared gap is linear in (Delta^2, c^2); that linear fit starts a
    least-squares polish of the gap itself (FitError if it fails).
    """
    f_grid = np.asarray(f_grid, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    if f_grid.ndim != 1 or f_grid.shape != gaps.shape or f_grid.size < 2:
        raise ValidationError(
            f"need equal one-dimensional flux and gap arrays of at least 2 points, "
            f"got shapes {f_grid.shape} and {gaps.shape}"
        )
    x = (f_grid - 0.5) ** 2
    start = np.linalg.lstsq(np.column_stack([np.ones_like(x), x]), gaps**2, rcond=None)[0]

    def model(q):
        g = np.sqrt(q[0] ** 2 + q[1] ** 2 * x)
        return g, np.column_stack([q[0] / g, q[1] * x / g])

    q = _least_squares(model, gaps, np.sqrt(np.abs(start)), "two-level gap fit")
    delta, c = float(abs(q[0])), float(abs(q[1]))
    rel = np.abs(model((delta, c))[0] - gaps) / gaps
    return delta, c, float(rel.max())
