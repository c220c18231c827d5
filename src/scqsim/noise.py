"""Spin-fluctuator noise: random-telegraph ensembles and 1/f dephasing.

Each fluctuator is a symmetric two-state Markov process s(t) in {-1, +1}
flipping at rate gamma (autocorrelation exp(-2 gamma |tau|)); an ensemble
with rates spread log-uniformly over several decades sums to a 1/f power
spectrum between the corner frequencies.  Trajectories are sampled
exactly and event by event: each fluctuator draws its initial sign, a
Poisson flip count over the grid span and uniform flip times, and a flip
changes every grid sample after it.  Every (seed, trajectory, fluctuator)
triple owns an independent RNG stream, so results do not depend on
evaluation order.

By default the noise couples along sz (pure dephasing); the trajectory
generator returns the bare frequency-shift trace xi(t) in GHz, which a
caller may also apply along any other axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ValidationError, _check_finite, _check_integral


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
        _check_integral(count=self.count, seed=self.seed)
        if self.count < 1:
            raise ValidationError("count must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
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
        return np.geomspace(self.gamma_min, self.gamma_max, self.count)

    @property
    def couplings(self) -> np.ndarray:
        if np.ndim(self.coupling) == 0:
            return np.full(self.count, float(self.coupling))
        return np.asarray(self.coupling, dtype=float)


def _check_grid(ens: FluctuatorEnsemble, t_grid: np.ndarray) -> np.ndarray:
    if t_grid.ndim != 1:
        raise ValidationError(f"time grid must be one-dimensional, got shape {t_grid.shape}")
    if not np.isfinite(t_grid).all():
        raise ValidationError("time grid has non-finite times")
    dt = t_grid[1:] - t_grid[:-1]
    if t_grid.size < 2 or (dt <= 0).any():
        raise ValidationError("t_grid must be ascending with at least two points")
    step = dt.max()
    if step > (0.1 / ens.gamma_max) * (1.0 + 1e-9):
        raise ValidationError(
            f"grid step {step:.3g} ns under-resolves the fastest fluctuator; "
            f"need <= {0.1 / ens.gamma_max:.3g} ns"
        )
    return dt


def _check_trajectory(trajectory) -> None:
    if not isinstance(trajectory, int):
        _check_integral(trajectory=trajectory)
    if trajectory < 0:
        raise ValidationError(f"trajectory must be >= 0, got {trajectory}")


def _stream(ens: FluctuatorEnsemble, trajectory: int, fluctuator: int) -> np.random.Generator:
    """The generator of ``default_rng([seed, trajectory, fluctuator])``.

    Keys below 2**32 go in as one uint32 array, which is the same seed
    entropy as the list at two thirds of the cost; a larger key spans
    several words, so it keeps the list form.  The words are made plain
    ints first, so a numpy-integer key takes the same path as an int.
    """
    key = (int(ens.seed), int(trajectory), int(fluctuator))
    if max(key) < 2**32:
        key = np.array(key, dtype=np.uint32)
    return np.random.Generator(np.random.PCG64(key))


def _flips(rng: np.random.Generator, gamma: float, t_grid: np.ndarray) -> tuple[float, np.ndarray]:
    """Initial sign and sorted grid indices of one telegraph path's flips.

    The flips form a Poisson process of rate gamma: Poisson(gamma T) of them
    at uniform times over the grid span T.  A flip changes the samples from
    the first grid point after it on, so its index lies in 1..n (n: past the
    last sample).  Sorting the times before the search puts the indices in
    flip order; ordered queries also keep the search cache-friendly (on a
    65 536-point grid 2.7x faster than sorting the indices after it).
    """
    s0 = -1.0 if rng.random() < 0.5 else 1.0
    span = t_grid[-1] - t_grid[0]
    times = t_grid[0] + span * rng.random(rng.poisson(gamma * span))
    times.sort()
    return s0, t_grid.searchsorted(times, side="right")


def _rates(ens: FluctuatorEnsemble):
    """``ens.rates`` (geomspace over one point is its start, to the bit); a
    single fluctuator's paths are drawn thousands of times, so it skips the
    array and its numpy scalar."""
    return (ens.gamma_min,) if ens.count == 1 else ens.rates


def rtn_trajectory(ens: FluctuatorEnsemble, t_grid, trajectory: int = 0) -> np.ndarray:
    """Frequency-shift trace xi(t) = sum_i v_i s_i(t) in GHz.

    Fluctuators with equal couplings share one difference array of their
    initial signs and +-2 jumps; its cumulative sum is an exact integer,
    scaled by the coupling once.  Reproducible: the same (seed, trajectory)
    always yields bit-identical output regardless of how many other
    trajectories were drawn.
    """
    _check_trajectory(trajectory)
    t_grid = np.asarray(t_grid, dtype=float)
    _check_grid(ens, t_grid)
    n = t_grid.size
    rates, couplings = _rates(ens), ens.couplings
    xi = np.zeros(n)
    for v in np.unique(couplings[couplings != 0.0]):
        at, steps = [], []
        for i in np.flatnonzero(couplings == v).tolist():
            s0, flips = _flips(_stream(ens, trajectory, i), rates[i], t_grid)
            w = np.empty(flips.size + 1)
            w[0] = s0  # the initial value, at index 0
            w[1::2] = -2.0 * s0  # the m-th flip jumps by -2 s0 (-1)^m
            w[2::2] = 2.0 * s0
            at += [[0], flips]
            steps.append(w)
        diff = np.bincount(np.concatenate(at), weights=np.concatenate(steps), minlength=n + 1)
        xi += v * np.cumsum(diff[:n])
    return xi


def fluctuator_states(ens: FluctuatorEnsemble, t_grid, trajectory: int = 0) -> np.ndarray:
    """Raw fluctuator sample paths, one row per fluctuator (for statistics).

    Each row is s0 (-1)^k with k the number of flips up to that sample; it
    draws the same numbers as ``rtn_trajectory``.
    """
    _check_trajectory(trajectory)
    t_grid = np.asarray(t_grid, dtype=float)
    _check_grid(ens, t_grid)
    n = t_grid.size
    out = np.empty((ens.count, n))
    for i, gamma in enumerate(_rates(ens)):
        s0, flips = _flips(_stream(ens, trajectory, i), gamma, t_grid)
        if flips.size:
            odd = np.cumsum(np.bincount(flips, minlength=n + 1)[:n]) & 1
            out[i] = np.where(odd, -s0, s0)
        else:
            out[i] = s0
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
    """Hann-windowed Welch PSD averaged over independent trajectories.

    ``nperseg`` (segment length, >= 2) defaults to and is clamped to
    ``n_samples``.
    """
    _check_integral(n_samples=n_samples, n_trajectories=n_trajectories)
    if n_samples < 2:
        raise ValidationError(f"n_samples must be >= 2, got {n_samples}")
    if n_trajectories < 1:
        raise ValidationError("need at least one trajectory")
    if nperseg is not None:
        _check_integral(nperseg=nperseg)
        if nperseg < 2:
            raise ValidationError("nperseg must be >= 2")
    if not math.isfinite(n_samples * dt):  # before numpy overflows building the grid
        raise ValidationError("time grid has non-finite times")
    if dt <= 0:
        raise ValidationError(f"dt must be > 0, got {dt!r}")
    t_grid = np.arange(n_samples) * dt
    nperseg = n_samples if nperseg is None else min(nperseg, n_samples)
    fs = 1.0 / dt
    win = _welch_window(nperseg, fs)
    acc = None
    for m in range(n_trajectories):
        p = _welch_density(rtn_trajectory(ens, t_grid, trajectory=m), win)
        acc = p if acc is None else acc + p
    return np.fft.rfftfreq(nperseg, 1 / fs), acc / n_trajectories


def _welch(x: np.ndarray, fs: float, nperseg: int):
    """(frequencies, PSD) of one trajectory, the pair ``scipy.signal.welch`` returns."""
    return np.fft.rfftfreq(nperseg, 1 / fs), _welch_density(x, _welch_window(nperseg, fs))


def _welch_window(nperseg: int, fs: float) -> np.ndarray:
    """Periodic Hann window of nperseg points, scaled for a density at sampling rate fs."""
    fac = np.linspace(-math.pi, math.pi, nperseg + 1)
    win = (0.5 + 0.5 * np.cos(fac))[:-1]
    # density scaling; the squares are summed in order, not pairwise
    return win * (1 / np.sqrt(np.cumsum(win * win)[-1] / (1 / fs)))


def _welch_density(x: np.ndarray, win: np.ndarray) -> np.ndarray:
    """One-sided Welch PSD of x: segments of len(win) points, half-overlapping.

    Each segment loses its mean before windowing by ``win`` (from
    ``_welch_window``).  The operations and their order follow
    ``scipy.signal.welch`` (scipy 1.17, Hann window, density scaling), so
    the two agree to rounding without importing scipy.
    """
    nperseg = win.size
    hop = nperseg - nperseg // 2
    count = (x.size - nperseg // 2) // hop
    seg = np.lib.stride_tricks.sliding_window_view(x, nperseg)[: count * hop : hop]
    spec = np.fft.rfft((seg - seg.mean(axis=-1, keepdims=True)) * win)
    p = spec.real**2 + spec.imag**2
    p[:, 1 : None if nperseg % 2 else -1] *= 2
    return np.ascontiguousarray(p.T).mean(axis=-1)


def fit_loglog_slope(freq, psd, band: tuple[float, float]) -> float:
    """Least-squares slope of log10(psd) vs log10(f) on the band's bins with f, psd > 0."""
    freq, psd = np.asarray(freq, dtype=float), np.asarray(psd, dtype=float)
    for name, values in (("freq", freq), ("psd", psd)):
        if not np.isfinite(values).all():
            raise ValidationError(f"{name} has non-finite values")
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
    _check_integral(n_trajectories=n_trajectories)
    if n_trajectories < 100:
        raise ValidationError("need at least 100 trajectories for the average")
    if not math.isfinite(nu01) or nu01 < 0:
        raise ValidationError("nu01 must be finite and >= 0")
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
