"""Spin-fluctuator noise: random-telegraph ensembles and 1/f dephasing.

Each fluctuator is a symmetric two-state Markov process s(t) in {-1, +1}
flipping at rate gamma (autocorrelation exp(-2 gamma |tau|)); an ensemble
with rates spread log-uniformly over several decades sums to a 1/f power
spectrum between the corner frequencies.  Trajectories are sampled
exactly on the grid via the parity of the flip count in each step, and
every (seed, trajectory, fluctuator) triple owns an independent RNG
stream, so results do not depend on evaluation order.

By default the noise couples along sz (pure dephasing); the trajectory
generator returns the bare frequency-shift trace xi(t) in GHz, which a
caller may also apply along any other axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import welch

from .core import ValidationError, _check_finite


@dataclass(frozen=True)
class FluctuatorEnsemble:
    """Telegraph-fluctuator bath with log-uniform switching rates.

    ``coupling`` is either a single strength in GHz applied to every
    fluctuator or a per-fluctuator sequence.  ``rates`` realizes the
    log-uniform law deterministically (geometric spacing over
    [gamma_min, gamma_max]).
    """

    count: int
    gamma_min: float
    gamma_max: float
    coupling: float | tuple = 1e-3
    seed: int = 0

    def __post_init__(self):
        _check_finite(self, "gamma_min", "gamma_max")
        if self.count < 1:
            raise ValidationError("count must be >= 1")
        if self.gamma_min <= 0 or self.gamma_max <= 0:
            raise ValidationError("switching rates must be > 0")
        if self.gamma_min > self.gamma_max:
            raise ValidationError("gamma_min must not exceed gamma_max")
        if self.count > 1 and self.gamma_min == self.gamma_max:
            raise ValidationError("an ensemble needs gamma_min < gamma_max")
        if np.ndim(self.coupling) > 0:
            object.__setattr__(self, "coupling", tuple(float(v) for v in self.coupling))
            if len(self.coupling) != self.count:
                raise ValidationError("need one coupling per fluctuator")
        if not np.isfinite(self.coupling).all():
            raise ValidationError("couplings must be finite")

    @classmethod
    def single(cls, gamma: float, coupling: float, seed: int = 0) -> "FluctuatorEnsemble":
        return cls(count=1, gamma_min=gamma, gamma_max=gamma, coupling=coupling, seed=seed)

    @property
    def rates(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.gamma_min])
        return np.geomspace(self.gamma_min, self.gamma_max, self.count)

    @property
    def couplings(self) -> np.ndarray:
        if np.ndim(self.coupling) == 0:
            return np.full(self.count, float(self.coupling))
        return np.asarray(self.coupling, dtype=float)


def _check_grid(ens: FluctuatorEnsemble, t_grid: np.ndarray) -> np.ndarray:
    dt = np.diff(t_grid)
    if t_grid.size < 2 or np.any(dt <= 0):
        raise ValidationError("t_grid must be ascending with at least two points")
    if dt.max() > (0.1 / ens.gamma_max) * (1.0 + 1e-9):
        raise ValidationError(
            f"grid step {dt.max():.3g} ns under-resolves the fastest fluctuator; "
            f"need <= {0.1 / ens.gamma_max:.3g} ns"
        )
    return dt


def _telegraph(rng: np.random.Generator, gamma: float, dt: np.ndarray) -> np.ndarray:
    """One exact telegraph sample path on the grid (values at all points).

    The flip probability per step is P(odd flips) = (1 - exp(-2 g dt))/2,
    so grid samples follow the exact process statistics.
    """
    s0 = -1.0 if rng.random() < 0.5 else 1.0
    flips = rng.random(dt.size) < 0.5 * (1.0 - np.exp(-2.0 * gamma * dt))
    signs = np.empty(dt.size + 1)
    signs[0] = s0
    signs[1:] = s0 * np.where(np.cumsum(flips) % 2 == 1, -1.0, 1.0)
    return signs


def _stream(ens: FluctuatorEnsemble, trajectory: int, fluctuator: int) -> np.random.Generator:
    return np.random.default_rng([ens.seed, trajectory, fluctuator])


def rtn_trajectory(ens: FluctuatorEnsemble, t_grid, trajectory: int = 0) -> np.ndarray:
    """Frequency-shift trace xi(t) = sum_i v_i s_i(t) in GHz.

    Reproducible: the same (seed, trajectory) always yields bit-identical
    output regardless of how many other trajectories were drawn.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    dt = _check_grid(ens, t_grid)
    xi = np.zeros(t_grid.size)
    for i, (gamma, v) in enumerate(zip(ens.rates, ens.couplings)):
        if v == 0.0:
            continue
        xi += v * _telegraph(_stream(ens, trajectory, i), gamma, dt)
    return xi


def fluctuator_states(ens: FluctuatorEnsemble, t_grid, trajectory: int = 0) -> np.ndarray:
    """Raw fluctuator sample paths, one row per fluctuator (for statistics)."""
    t_grid = np.asarray(t_grid, dtype=float)
    dt = _check_grid(ens, t_grid)
    out = np.empty((ens.count, t_grid.size))
    for i, gamma in enumerate(ens.rates):
        out[i] = _telegraph(_stream(ens, trajectory, i), gamma, dt)
    return out


def psd_theory(ens: FluctuatorEnsemble, freq) -> np.ndarray:
    """One-sided PSD: sum of Lorentzians 8 g v^2 / (4 g^2 + (2 pi f)^2)."""
    freq = np.asarray(freq, dtype=float)
    out = np.zeros_like(freq)
    for gamma, v in zip(ens.rates, ens.couplings):
        out += 8.0 * gamma * v**2 / (4.0 * gamma**2 + (2.0 * math.pi * freq) ** 2)
    return out


def psd_welch(
    ens: FluctuatorEnsemble,
    dt: float,
    n_samples: int,
    n_trajectories: int,
    nperseg: int | None = None,
):
    """Hann-windowed Welch PSD averaged over independent trajectories."""
    if n_trajectories < 1:
        raise ValidationError("need at least one trajectory")
    t_grid = np.arange(n_samples) * dt
    nperseg = nperseg or n_samples
    acc = None
    for m in range(n_trajectories):
        xi = rtn_trajectory(ens, t_grid, trajectory=m)
        f, p = welch(xi, fs=1.0 / dt, window="hann", nperseg=nperseg)
        acc = p if acc is None else acc + p
    return f, acc / n_trajectories


def fit_loglog_slope(freq, psd, band: tuple[float, float]) -> float:
    """Least-squares slope of log10(psd) vs log10(f) inside the band."""
    freq = np.asarray(freq, dtype=float)
    psd = np.asarray(psd, dtype=float)
    mask = (freq >= band[0]) & (freq <= band[1]) & (freq > 0) & (psd > 0)
    if mask.sum() < 4:
        raise ValidationError("fit band holds fewer than 4 spectral points")
    a = np.vstack([np.log10(freq[mask]), np.ones(int(mask.sum()))]).T
    slope, _ = np.linalg.lstsq(a, np.log10(psd[mask]), rcond=None)[0]
    return float(slope)


def dephasing_under_rtn(
    nu01: float, ens: FluctuatorEnsemble, n_trajectories: int, t_grid
) -> np.ndarray:
    """Coherence magnitude |<sigma_+>|(t) under sz-coupled telegraph noise.

    Averages exp(-i 2 pi Integral xi dt) over trajectories; the magnitude
    is independent of the carrier nu01 (it would only rotate the phase).
    """
    if n_trajectories < 100:
        raise ValidationError("need at least 100 trajectories for the average")
    if nu01 < 0:
        raise ValidationError("nu01 must be >= 0")
    t_grid = np.asarray(t_grid, dtype=float)
    dt = _check_grid(ens, t_grid)
    acc = np.zeros(t_grid.size, dtype=complex)
    for m in range(n_trajectories):
        xi = rtn_trajectory(ens, t_grid, trajectory=m)
        phase = np.empty(t_grid.size)
        phase[0] = 0.0
        np.cumsum(0.5 * (xi[1:] + xi[:-1]) * dt, out=phase[1:])
        acc += np.exp(-1j * 2.0 * math.pi * phase)
    return np.abs(acc / n_trajectories)
