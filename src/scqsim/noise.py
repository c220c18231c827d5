"""Spin-fluctuator noise: random-telegraph ensembles and 1/f dephasing.

Each fluctuator is a symmetric two-state Markov process s(t) in {-1, +1}
flipping at rate gamma (autocorrelation exp(-2 gamma |tau|)); an ensemble
with rates spread log-uniformly over several decades sums to a 1/f power
spectrum between the corner frequencies.  Trajectories are sampled
exactly and event by event: each fluctuator draws its initial sign, a
Poisson flip count over the grid span and uniform flip times, and a flip
changes every grid sample after it.  Every (seed, trajectory, fluctuator)
triple owns an independent RNG stream, ``default_rng`` of that list to
the bit, so results do not depend on evaluation order; the seed words
are hashed for a block of consecutive keys at once (``_stream``), not
by one ``SeedSequence`` per path.  On a path with many flips, a flip's
grid index is read off a uniform model of the grid and verified against
the two grid points around it; only a flip that fails goes to a binary
search.  The ensemble calls check their grid once and draw every
trajectory from it; the last small grid that passed is kept by its
bytes, so many per-trajectory calls on one grid check it once.

The Welch PSD takes its segments in bounded chunks and adds their powers
in order, so it agrees with ``scipy.signal.welch`` bit for bit up to 7
segments and to rounding beyond.

By default the noise couples along sz (pure dephasing); the trajectory
generator returns the bare frequency-shift trace xi(t) in GHz, which a
caller may also apply along any other axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import ValidationError, _check_finite, _check_integral, _linear_fit


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


# grids of at most this many points are remembered by ``_check_grid``: on a
# 2-vCPU VM, up to 4096 points a byte comparison cost 0.2-1.6 us against
# 5-7.5 us for the check, while at 16384 it cost 9 us of 13 (and a miss
# pays it on top)
_MEMO_POINTS = 4096
# (bytes, read-only steps, largest step) of the last grid that passed:
# read and replaced as one tuple, like ``_block``
_grid = (None, None, None)


def _check_grid(ens: FluctuatorEnsemble, t_grid: np.ndarray) -> np.ndarray:
    """The grid steps (read-only); a grid that is not 1-D, finite, ascending
    with two or more points and fine enough for the fastest rate is a
    ValidationError.

    Strictly ascending times between finite end points are all finite, so
    a valid grid costs one comparison, one subtraction and two reductions;
    the finiteness of every time is read only to name a failure.  The last
    grid that passed, if it has at most ``_MEMO_POINTS`` points, is kept by
    its bytes: a grid of the same bytes, such as the one grid of many
    per-trajectory calls, skips that work, and its largest step is still
    compared with this ensemble's fastest rate.
    """
    global _grid
    if t_grid.ndim != 1:
        raise ValidationError(f"time grid must be one-dimensional, got shape {t_grid.shape}")
    key = t_grid.tobytes() if t_grid.size <= _MEMO_POINTS else None
    memo, dt, step = _grid
    if key is None or key != memo:
        lo, hi = t_grid[:-1], t_grid[1:]
        if not (t_grid.size > 1 and math.isfinite(t_grid[0]) and math.isfinite(t_grid[-1])
                and (hi > lo).all()):
            if not np.isfinite(t_grid).all():
                raise ValidationError("time grid has non-finite times")
            raise ValidationError("t_grid must be ascending with at least two points")
        dt = hi - lo
        dt.setflags(write=False)
        step = dt.max()
    if step > (0.1 / ens.gamma_max) * (1.0 + 1e-9):
        raise ValidationError(
            f"grid step {step:.3g} ns under-resolves the fastest fluctuator; "
            f"need <= {0.1 / ens.gamma_max:.3g} ns"
        )
    if key is not None:
        _grid = (key, dt, step)
    return dt


def _check_trajectory(trajectory) -> None:
    if not isinstance(trajectory, int):
        _check_integral(trajectory=trajectory)
    if trajectory < 0:
        raise ValidationError(f"trajectory must be >= 0, got {trajectory}")


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) columns of ``calls`` successive hash calls."""
    c = [init]
    for _ in range(calls):
        c.append(c[-1] * mult & 0xFFFFFFFF)
    return np.array(c[:-1], np.uint32)[:, None], np.array(c[1:], np.uint32)[:, None]


# O'Neill's seed_seq hash as numpy's SeedSequence runs it on a pool of 4
# uint32 words: hash call k xors in c_k and multiplies by c_{k+1} = c_k *
# mult mod 2**32, so every call's constants are known ahead
_XOR_A, _MUL_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # 4 to fill the pool, 12 to mix it
_XOR_B, _MUL_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)  # 8 uint32 output words
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_OTHERS = [[d for d in range(4) if d != s] for s in range(4)]


def _seed_words(keys) -> np.ndarray:
    """``SeedSequence(key).generate_state(4, np.uint64)`` for each 3-word uint32 key.

    ``keys`` is (n, 3); the result is (n, 4), one C-contiguous row per key.
    The pool starts as the hashed key words and a hashed 0; each word then
    mixes its hash into the three others, and the 8 output words hash the
    pool twice round, paired little end first into uint64.  Every step is
    one uint32 operation over all keys.
    """
    pool = np.zeros((4, len(keys)), np.uint32)
    pool[:3] = np.asarray(keys, dtype=np.uint32).T
    pool ^= _XOR_A[:4]
    pool *= _MUL_A[:4]
    pool ^= pool >> 16
    for src, dst in enumerate(_OTHERS):
        k = 4 + 3 * src
        h = pool[src] ^ _XOR_A[k : k + 3]
        h *= _MUL_A[k : k + 3]
        h ^= h >> 16
        m = pool[dst] * _MIX_L
        m -= h * _MIX_R
        m ^= m >> 16
        pool[dst] = m
    out = np.tile(pool, (2, 1))
    out ^= _XOR_B
    out *= _MUL_B
    out ^= out >> 16
    words = out[1::2].astype(np.uint64) << np.uint64(32)
    words |= out[0::2]
    return words.T.copy()


class _SeedWords(ISeedSequence):
    """Seed words hashed ahead, handed to ``PCG64`` as its seed sequence's state."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
            raise ValueError(f"hold {len(self.words)} {self.words.dtype} words")
        return self.words


# a block is whole trajectories, max(1, 64 // count) of them, so random
# access costs one hash of at most max(count, 64) keys per miss
_BLOCK_KEYS = 64
# ((seed, count, first trajectory), its seed words): read and replaced as
# one tuple, so a caller always indexes the words of the tag it compared
_block = (None, None)


def _stream(ens: FluctuatorEnsemble, trajectory: int, fluctuator: int) -> np.random.Generator:
    """The generator of ``default_rng([seed, trajectory, fluctuator])``, to the bit.

    A key of three uint32 words is hashed by ``_seed_words`` with the other
    keys of its block, consecutive trajectories of every fluctuator, and
    the one block last hashed is kept, so a run of trajectories pays about
    1 us of hash per path instead of 8 us of ``SeedSequence``.  A key of
    2**32 or more spans several words and a fluctuator index past
    ``ens.count`` lies in no block, so both keep the list form.  The words
    are made plain ints first, so a numpy-integer key takes the same path
    as an int.
    """
    global _block
    seed, trajectory, fluctuator = int(ens.seed), int(trajectory), int(fluctuator)
    count = ens.count
    if fluctuator >= count or max(seed, trajectory) >= 2**32:
        return np.random.Generator(np.random.PCG64((seed, trajectory, fluctuator)))
    per = max(1, _BLOCK_KEYS // count)
    first = trajectory - trajectory % per
    tag, block = _block
    if tag != (seed, count, first):
        keys = np.empty((min(per, 2**32 - first), count, 3), dtype=np.uint32)
        keys[..., 0] = seed
        keys[..., 1] = np.arange(first, first + len(keys))[:, None]
        keys[..., 2] = np.arange(count)
        block = _seed_words(keys.reshape(-1, 3))
        _block = ((seed, count, first), block)
    words = block[(trajectory - first) * count + fluctuator]
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


# below this many flips a binary search beats the gathers of ``_grid_index``
# (measured on a 65 536-point grid; on 2000 points the break-even is higher)
_SEARCH_FLIPS = 256
_NO_FLIPS = np.empty(0, dtype=np.intp)
_NO_FLIPS.setflags(write=False)


def _span(t_grid: np.ndarray) -> tuple[float, float]:
    """First time and span t_last - t_0 of a checked grid, as Python floats."""
    t0 = float(t_grid[0])
    return t0, float(t_grid[-1]) - t0


def _grid_index(t_grid: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``t_grid.searchsorted(times, side="right")`` for times in [t_0, t_0 + span].

    Each index is read off a uniform model of the grid, 1 + floor((tau -
    t_0)(n - 1)/span), clipped to 1..n-1 and moved at most one place by the
    two grid points around it.  The index i is then checked, t[i-1] <= tau
    and (i = n or tau < t[i]), and only the times that fail go to the
    binary search, so the index is exact on any ascending grid.  On a
    uniform grid no time fails; every temporary has one entry per time.
    """
    n = t_grid.size
    t0, span = _span(t_grid)
    i = ((times - t0) * ((n - 1) / span)).astype(np.intp)
    np.minimum(i, n - 2, out=i)
    below = t_grid[i] > times  # the left neighbour lies past tau: one place down
    i += 1
    above = t_grid[i] <= times  # the right one does not: one place up
    moved = np.flatnonzero(below | above)
    if moved.size:
        j, tau = i[moved] + above[moved] - below[moved], times[moved]
        miss = ~((t_grid[j - 1] <= tau) & ((j == n) | (tau < t_grid[np.minimum(j, n - 1)])))
        j[miss] = t_grid.searchsorted(tau[miss], side="right")
        i[moved] = j
    return i


def _flips(rng: np.random.Generator, gamma: float, t_grid: np.ndarray,
           t0: float, span: float) -> tuple[float, np.ndarray]:
    """Initial sign and sorted grid indices of one telegraph path's flips.

    The flips form a Poisson process of rate gamma: Poisson(gamma T) of them
    at uniform times over the grid span T (t0 and span from ``_span``).  A
    flip changes the samples from the first grid point after it on, so its
    index lies in 1..n (n: past the last sample).  The times are sorted, so
    the indices come in flip order; a few are found by binary search, many
    by ``_grid_index``.
    """
    s0 = -1.0 if rng.random() < 0.5 else 1.0
    count = rng.poisson(gamma * span)
    if not count:  # the common case for slow fluctuators
        return s0, _NO_FLIPS
    times = t0 + span * rng.random(count)
    times.sort()
    if count < _SEARCH_FLIPS:
        return s0, t_grid.searchsorted(times, side="right")
    return s0, _grid_index(t_grid, times)


def _rates(ens: FluctuatorEnsemble):
    """``ens.rates`` (geomspace over one point is its start, to the bit); a
    single fluctuator's paths are drawn thousands of times, so it skips the
    array and its numpy scalar."""
    return (ens.gamma_min,) if ens.count == 1 else ens.rates


def _groups(ens: FluctuatorEnsemble) -> list:
    """(coupling, [(fluctuator, rate), ...]) per distinct non-zero coupling, ascending.

    The couplings are sorted as Python floats: ``np.unique`` would give the
    same values but load ``numpy.ma`` on a cold start.
    """
    rates, couplings = _rates(ens), ens.couplings
    return [
        (v, [(i, rates[i]) for i in np.flatnonzero(couplings == v).tolist()])
        for v in sorted(set(couplings[couplings != 0.0].tolist()))
    ]


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
    return _rtn_trace(ens, t_grid, trajectory, _groups(ens))


def _rtn_trace(ens: FluctuatorEnsemble, t_grid: np.ndarray, trajectory: int, groups: list) -> np.ndarray:
    """``rtn_trajectory`` on a checked float grid and trajectory, given ``_groups(ens)``.

    Every entry of a difference array is an exact integer, so the initial
    signs go in as one sum and the order of the additions cannot matter.
    """
    n = t_grid.size
    t0, span = _span(t_grid)
    xi = np.zeros(n)
    for v, members in groups:
        at, steps, start = [], [], 0.0
        for i, gamma in members:
            s0, flips = _flips(_stream(ens, trajectory, i), gamma, t_grid, t0, span)
            start += s0
            if flips.size:
                w = np.empty(flips.size)
                w[0::2] = -2.0 * s0  # the flips jump by -2 s0, +2 s0, -2 s0, ...
                w[1::2] = 2.0 * s0
                at.append(flips)
                steps.append(w)
        at.append([0])  # the sum of the initial signs, at index 0
        steps.append([start])
        diff = np.bincount(np.concatenate(at), weights=np.concatenate(steps), minlength=n + 1)[:n]
        np.cumsum(diff, out=diff)  # in place: no third full-size array beside xi and diff
        diff *= v
        xi += diff
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
    t0, span = _span(t_grid)
    out = np.empty((ens.count, n))
    for i, gamma in enumerate(_rates(ens)):
        s0, flips = _flips(_stream(ens, trajectory, i), gamma, t_grid, t0, span)
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
    if not math.isfinite(1.0 / dt):  # a subnormal dt
        raise ValidationError(f"dt = {dt!r} gives a non-finite sampling rate 1/dt")
    t_grid = np.arange(n_samples, dtype=float) * dt
    _check_grid(ens, t_grid)
    nperseg = n_samples if nperseg is None else min(nperseg, n_samples)
    fs = 1.0 / dt
    win = _welch_window(nperseg, fs)
    acc, groups = None, _groups(ens)
    for m in range(n_trajectories):
        p = _welch_density(_rtn_trace(ens, t_grid, m, groups), win)
        acc = p if acc is None else acc + p
    return np.fft.rfftfreq(nperseg, 1 / fs), acc / n_trajectories


def _welch_window(nperseg: int, fs: float) -> np.ndarray:
    """Periodic Hann window of nperseg points, scaled for a density at sampling rate fs."""
    fac = np.linspace(-math.pi, math.pi, nperseg + 1)
    win = (0.5 + 0.5 * np.cos(fac))[:-1]
    # density scaling; the squares are summed in order, not pairwise
    return win * (1 / np.sqrt(np.cumsum(win * win)[-1] / (1 / fs)))


# segments per chunk of ``_welch_density``: as many as fit in this many
# samples, one when a segment is longer.  Of 4096, 8192, 16384 and 32768,
# 16384 was fastest or within noise of it on every tested segment length
# (65536 samples at nperseg 16, 1024 and 32768; 40000 at 512).  From
# nperseg 8193 on every chunk is one segment, whatever this value
_WELCH_CHUNK = 16384


def _welch_density(x: np.ndarray, win: np.ndarray) -> np.ndarray:
    """One-sided Welch PSD of x: segments of len(win) points, half-overlapping.

    Each segment loses its mean before windowing by ``win`` (from
    ``_welch_window``).  The per-segment operations and their order follow
    ``scipy.signal.welch`` (scipy 1.17, Hann window, density scaling).
    The segments go through in chunks of at most ``_WELCH_CHUNK`` samples,
    and their powers are added one segment after another into one
    spectrum, so no temporary holds the whole trace.  scipy's mean over
    segments is the same sequential sum up to 7 segments (numpy sums
    pairwise from 8 terms on), so the two agree bit for bit there and to
    rounding beyond.
    """
    nperseg = win.size
    hop = nperseg - nperseg // 2
    count = (x.size - nperseg // 2) // hop
    segs = np.lib.stride_tricks.sliding_window_view(x, nperseg)[: count * hop : hop]
    per = max(1, _WELCH_CHUNK // nperseg)
    spectrum = np.zeros(nperseg // 2 + 1)
    rows = np.empty((min(per, count) + 1, spectrum.size))  # row 0 carries the running sum
    for a in range(0, count, per):
        seg = segs[a : a + per]
        d = seg - seg.mean(axis=-1, keepdims=True)
        d *= win
        spec = np.fft.rfft(d)
        p = rows[: len(seg) + 1]
        p[0] = spectrum
        np.square(spec.real, out=p[1:])
        p[1:] += np.square(spec.imag, out=spec.imag)
        p.sum(axis=0, out=spectrum)  # axis 0 adds the rows in order
    spectrum[1 : None if nperseg % 2 else -1] *= 2  # exact: the same as doubling every term
    spectrum /= count
    return spectrum


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
    slope, _ = _linear_fit(a, np.log10(psd[mask]), "log-log slope fit")
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
    acc, groups = np.zeros(t_grid.size, dtype=complex), _groups(ens)
    for m in range(n_trajectories):
        xi = _rtn_trace(ens, t_grid, m, groups)
        phase = np.empty(t_grid.size)
        phase[0] = 0.0
        np.cumsum(0.5 * (xi[1:] + xi[:-1]) * dt, out=phase[1:])
        acc += np.exp(-1j * 2.0 * math.pi * phase)
    return np.abs(acc / n_trajectories)
