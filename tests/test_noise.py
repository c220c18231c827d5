"""Telegraph-noise generator and 1/f dephasing tests."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from scqsim import noise
from scqsim.core import ValidationError
from scqsim.noise import (
    FluctuatorEnsemble,
    _seed_words,
    _stream,
    _welch_density,
    _welch_window,
    dephasing_under_rtn,
    fit_loglog_slope,
    fluctuator_states,
    psd_theory,
    psd_welch,
    rtn_trajectory,
)


class TestEnsemble:
    def test_rates_are_log_spaced(self):
        ens = FluctuatorEnsemble(count=5, gamma_min=1e-3, gamma_max=10.0, coupling=1.0)
        ratios = ens.rates[1:] / ens.rates[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
        assert ens.rates[0] == pytest.approx(1e-3)
        assert ens.rates[-1] == pytest.approx(10.0)

    @pytest.mark.parametrize("gamma", [1e-3, 0.1, 1.0 / 3.0, math.pi, 7.3e4])
    def test_single_rate_is_the_geomspace_value_to_the_bit(self, gamma):
        # the samplers' one-fluctuator shortcut returns what geomspace over one point does
        ens = FluctuatorEnsemble.single(gamma, 1.0)
        rates = noise._rates(ens)
        assert np.array_equal(rates, ens.rates) and np.array_equal(rates, np.geomspace(gamma, gamma, 1))
        assert type(rates[0]) is float and rates[0] == gamma

    def test_validation(self):
        with pytest.raises(ValidationError):
            FluctuatorEnsemble(count=0, gamma_min=0.1, gamma_max=1.0)
        with pytest.raises(ValidationError):
            FluctuatorEnsemble(count=3, gamma_min=1.0, gamma_max=0.1)
        with pytest.raises(ValidationError):
            FluctuatorEnsemble(count=3, gamma_min=1.0, gamma_max=1.0)
        with pytest.raises(ValidationError):
            FluctuatorEnsemble(count=3, gamma_min=0.1, gamma_max=1.0, coupling=(1.0, 2.0))

    @pytest.mark.parametrize(
        "kw",
        [
            dict(gamma_min=math.nan),
            dict(gamma_max=math.inf),
            dict(coupling=math.nan),
            dict(coupling=(1.0, math.inf, 1.0)),
        ],
    )
    def test_non_finite_rejected(self, kw):
        fields = {"count": 3, "gamma_min": 0.1, "gamma_max": 1.0, **kw}
        with pytest.raises(ValidationError, match="must be finite"):
            FluctuatorEnsemble(**fields)

    @pytest.mark.parametrize("kw", [dict(count=2.5), dict(seed=1.5)])
    def test_non_integral_count_rejected(self, kw):
        fields = {"count": 3, "gamma_min": 0.1, "gamma_max": 1.0, **kw}
        with pytest.raises(ValidationError, match="must be an integer"):
            FluctuatorEnsemble(**fields)

    def test_negative_seed_rejected(self):
        # numpy's seed sequence would raise a bare ValueError at the first draw
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            FluctuatorEnsemble(count=3, gamma_min=0.1, gamma_max=1.0, seed=-1)

    def test_under_resolved_grid_rejected(self):
        ens = FluctuatorEnsemble.single(10.0, 1.0)
        with pytest.raises(ValidationError):
            rtn_trajectory(ens, np.arange(0.0, 5.0, 0.5))

    @pytest.mark.parametrize("sampler", [rtn_trajectory, fluctuator_states])
    def test_two_dimensional_grid_rejected(self, sampler):
        ens = FluctuatorEnsemble.single(0.1, 0.5)
        with pytest.raises(ValidationError, match="one-dimensional"):
            sampler(ens, [[0.0, 0.5], [1.0, 1.5]])

    def test_two_dimensional_grid_is_a_cli_config_error(self, tmp_path, monkeypatch, capsys):
        # the CLI builds 1-D grids itself, so a grid error reaches it only
        # from a library call; it must leave as exit 1 with one line
        from scqsim import cli

        def psd_on_2d_grid(ens, **_):
            rtn_trajectory(ens, [[0.0, 0.5], [1.0, 1.5]])

        monkeypatch.setattr(noise, "psd_welch", psd_on_2d_grid)  # the command imports it at call time
        cfg = tmp_path / "noise.ini"
        cfg.write_text(
            "[noise]\ncount = 1\ngamma_min = 0.1\ngamma_max = 0.1\ncoupling = 0.5\n"
            "dt = 0.5\nsamples = 4\ntrajectories = 1\n"
        )
        code = cli.main(["noise-psd", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: time grid must be one-dimensional")

    @pytest.mark.parametrize("sampler", [rtn_trajectory, fluctuator_states])
    @pytest.mark.parametrize("grid", [[0.0, math.nan, 1.0], [0.0, 0.5, math.inf]])
    def test_non_finite_grid_rejected(self, sampler, grid):
        ens = FluctuatorEnsemble.single(0.1, 0.5)
        with pytest.raises(ValidationError, match="non-finite"):
            sampler(ens, grid)

    @pytest.mark.parametrize(
        "grid", [[0.0, math.inf, math.inf, 1.0], [-math.inf, -math.inf], [math.nan, 0.0, 1.0]]
    )
    def test_non_finite_grid_rejected_without_a_warning(self, grid):
        # the grid is read for order before any step is taken, so no inf - inf
        ens = FluctuatorEnsemble.single(0.1, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^time grid has non-finite times$"):
                rtn_trajectory(ens, grid)

    @pytest.mark.parametrize("sampler", [rtn_trajectory, fluctuator_states])
    @pytest.mark.parametrize(
        "grid", [[0.0, 1.0, 0.5], [0.0, 0.5, 0.5, 1.0], [0.5], []],
        ids=["descending", "repeated", "single", "empty"],
    )
    def test_unordered_or_short_grid_rejected(self, sampler, grid):
        ens = FluctuatorEnsemble.single(0.1, 0.5)
        with pytest.raises(ValidationError, match="^t_grid must be ascending with at least two points$"):
            sampler(ens, grid)

    @pytest.mark.parametrize("sampler", [rtn_trajectory, fluctuator_states])
    def test_under_resolved_step_named(self, sampler):
        # the widest step counts, here the last one: 0.1 / gamma_max = 0.01 ns
        ens = FluctuatorEnsemble(count=3, gamma_min=0.1, gamma_max=10.0, coupling=0.5)
        with pytest.raises(ValidationError, match="^grid step 0.011 ns under-resolves .* need <= 0.01 ns$"):
            sampler(ens, [0.0, 0.005, 0.01, 0.021])
        assert sampler(ens, [0.0, 0.005, 0.01, 0.02]).shape[-1] == 4

    @pytest.mark.parametrize("sampler", [rtn_trajectory, fluctuator_states])
    @pytest.mark.parametrize(
        "trajectory, message", [(-1, "must be >= 0"), (2.5, "must be an integer")]
    )
    def test_bad_trajectory_rejected(self, sampler, trajectory, message):
        ens = FluctuatorEnsemble.single(0.1, 0.5)
        with pytest.raises(ValidationError, match=f"trajectory {message}"):
            sampler(ens, [0.0, 0.5, 1.0], trajectory=trajectory)

    def test_grid_checked_once_per_call(self, monkeypatch):
        # the trajectories of one call share its grid, so they share its check
        sizes = []
        check = noise._check_grid
        monkeypatch.setattr(noise, "_check_grid", lambda ens, t_grid: sizes.append(t_grid.size) or check(ens, t_grid))
        ens = FluctuatorEnsemble(count=4, gamma_min=0.05, gamma_max=2.0, coupling=0.02, seed=3)
        psd_welch(ens, 0.01, 4096, 24, nperseg=1024)
        assert sizes == [4096]
        sizes.clear()
        dephasing_under_rtn(10.0, ens, 100, np.arange(2000) * 0.01)
        assert sizes == [2000]


class TestGridMemo:
    """The last grid that passed is kept by its bytes; nothing else changes what passes."""

    def test_grid_mutated_after_a_pass_is_checked_again(self):
        ens = FluctuatorEnsemble.single(0.2, 1.0)
        grid = np.arange(0.0, 2.01, 0.05)
        fluctuator_states(ens, grid, 0)
        grid[20] = grid[19]  # no longer ascending
        with pytest.raises(ValidationError, match="^t_grid must be ascending with at least two points$"):
            fluctuator_states(ens, grid, 0)
        grid[20] = 1.0
        fluctuator_states(ens, grid, 0)
        grid[-1] = 2.55  # the last step widened to 0.6 ns, past 0.1 / gamma = 0.5 ns
        with pytest.raises(ValidationError, match="^grid step 0.6 ns under-resolves"):
            fluctuator_states(ens, grid, 0)

    def test_same_grid_under_a_faster_rate_is_refused(self):
        grid = np.arange(0.0, 2.01, 0.05)
        fluctuator_states(FluctuatorEnsemble.single(0.2, 1.0), grid, 0)
        assert noise._grid[0] == grid.tobytes()
        with pytest.raises(ValidationError, match="^grid step 0.05 ns under-resolves .* need <= 0.01 ns$"):
            fluctuator_states(FluctuatorEnsemble.single(10.0, 1.0), grid, 0)

    @pytest.mark.parametrize(
        "grid, gamma", [([0.0, 1.0, 0.5], 0.1), ([0.0, math.nan, 1.0], 0.1), ([0.0, 0.5, 1.0], 10.0)],
        ids=["descending", "non-finite", "under-resolved"],
    )
    def test_failing_grid_never_enters_the_memo(self, grid, gamma):
        ens = FluctuatorEnsemble.single(gamma, 1.0)
        kept = np.arange(0.0, 2.01, 0.05)
        fluctuator_states(FluctuatorEnsemble.single(0.2, 1.0), kept, 0)
        with pytest.raises(ValidationError):
            fluctuator_states(ens, grid, 0)
        assert noise._grid[0] == kept.tobytes()

    def test_grid_above_the_bound_is_not_kept(self):
        ens = FluctuatorEnsemble.single(0.2, 1.0)
        at_bound = np.arange(noise._MEMO_POINTS) * 0.05
        fluctuator_states(ens, at_bound, 0)
        assert noise._grid[0] == at_bound.tobytes()
        fluctuator_states(ens, np.arange(noise._MEMO_POINTS + 1) * 0.05, 0)
        assert noise._grid[0] == at_bound.tobytes()

    def test_kept_steps_are_read_only(self):
        grid = np.arange(0.0, 2.01, 0.05)
        ens = FluctuatorEnsemble.single(0.2, 1.0)
        dt = noise._check_grid(ens, grid)
        assert not dt.flags.writeable
        assert np.array_equal(noise._check_grid(ens, grid.copy()), np.diff(grid))


class TestGridIndex:
    """The verified grid index of a flip equals the binary search on any ascending grid."""

    @staticmethod
    def _grid(kind, n, start, rng):
        if kind == "uniform":
            return start + np.arange(n) * 0.01
        if kind == "jittered":
            return start + (np.arange(n) + rng.uniform(-0.45, 0.45, n)) * 0.01
        if kind == "geometric":
            return start + np.geomspace(1.0, 1e3, n)
        if kind == "ties":  # repeated times, as the index rule allows
            return start + np.round(np.sort(rng.uniform(0.0, n * 0.003, n)), 2)
        # all but the last point crowd the first thousandth of the span, so the
        # uniform model is more than one place off for every time between them
        return start + np.concatenate([np.linspace(0.0, 1e-3, n - 1), [1.0]])

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["uniform", "jittered", "geometric", "ties", "all-miss"]),
        n=st.integers(6, 3000),
        start=st.floats(-100.0, 100.0),
        seed=st.integers(0, 2**32 - 1),
        on_grid=st.integers(0, 50),
        draws=st.integers(0, 500),
    )
    def test_index_is_the_binary_search(self, kind, n, start, seed, on_grid, draws):
        rng = np.random.default_rng(seed)
        grid = self._grid(kind, n, start, rng)
        t0, span = noise._span(grid)
        if span <= 0.0:
            return
        if kind == "all-miss":
            times = t0 + span * rng.uniform(0.002, (n - 3) / (n - 1), draws)
            guess = 1 + np.floor((times - t0) * ((n - 1) / span))
            assert np.all(np.abs(guess - grid.searchsorted(times, side="right")) > 1)
        else:
            # draws as the sampler makes them, grid points, both ends and the
            # largest draw t_0 + span (1 - 2^-53), which may round past t_last
            times = np.concatenate([
                t0 + span * rng.random(draws), grid[rng.integers(0, n, on_grid)],
                [t0, grid[-1], t0 + span * np.nextafter(1.0, 0.0)],
            ])
        times.sort()
        got = noise._grid_index(grid, times)
        assert got.dtype == np.intp
        assert np.array_equal(got, grid.searchsorted(times, side="right"))


class TestTrajectories:
    def test_deterministic_per_seed(self):
        ens = FluctuatorEnsemble(count=4, gamma_min=0.01, gamma_max=1.0, coupling=0.5, seed=9)
        grid = np.arange(0.0, 50.0, 0.05)
        a = rtn_trajectory(ens, grid, trajectory=3)
        b = rtn_trajectory(ens, grid, trajectory=3)
        assert np.array_equal(a, b)  # bit-identical
        c = rtn_trajectory(ens, grid, trajectory=4)
        assert not np.array_equal(a, c)

    def test_values_are_sums_of_couplings(self):
        ens = FluctuatorEnsemble(count=3, gamma_min=0.01, gamma_max=0.1, coupling=0.5, seed=1)
        xi = rtn_trajectory(ens, np.arange(0.0, 10.0, 0.5))
        allowed = {-1.5, -0.5, 0.5, 1.5}
        assert set(np.round(xi, 12)).issubset(allowed)

    def test_zero_coupling_silences(self):
        ens = FluctuatorEnsemble(count=3, gamma_min=0.01, gamma_max=0.1, coupling=0.0, seed=1)
        xi = rtn_trajectory(ens, np.arange(0.0, 10.0, 0.5))
        assert np.all(xi == 0.0)

    def test_autocorrelation_matches_exponential(self):
        # ensemble average over 1e4 trajectories vs exp(-2 gamma tau), 3 sigma
        gamma = 0.2
        ens = FluctuatorEnsemble.single(gamma, 1.0, seed=7)
        grid = np.arange(0.0, 2.01, 0.05)
        m = 10000
        paths = np.stack([fluctuator_states(ens, grid, trajectory=i)[0] for i in range(m)])
        for lag in range(0, 40, 5):
            est = float(np.mean(paths[:, 0] * paths[:, lag]))
            exact = math.exp(-2.0 * gamma * grid[lag])
            sigma = math.sqrt((1.0 - exact**2) / m) + 1e-12
            assert abs(est - exact) <= 3.0 * sigma

    def test_switch_counts_are_poisson(self):
        # chi-square at the 1% level against Poisson(gamma T)
        gamma, dt, horizon = 0.05, 0.01, 200.0
        grid = np.arange(0.0, horizon + dt / 2, dt)
        ens = FluctuatorEnsemble.single(gamma, 1.0, seed=202)
        counts = []
        for m in range(2000):
            s = fluctuator_states(ens, grid, trajectory=m)[0]
            counts.append(int(np.sum(s[1:] != s[:-1])))
        counts = np.asarray(counts)
        mean = gamma * horizon
        kmax = int(counts.max())
        observed = np.bincount(counts, minlength=kmax + 1).astype(float)
        expected = stats.poisson.pmf(np.arange(kmax + 1), mean) * counts.size
        lo = expected >= 5.0
        obs = np.append(observed[lo], observed[~lo].sum())
        exp = np.append(expected[lo], expected[~lo].sum())
        exp *= obs.sum() / exp.sum()
        _, p = stats.chisquare(obs, exp)
        assert p > 0.01


class TestPsd:
    def test_one_over_f_slope(self):
        ens = FluctuatorEnsemble(count=20, gamma_min=1e-3, gamma_max=10.0, coupling=1e-3, seed=11)
        freq, psd = psd_welch(ens, dt=0.01, n_samples=32768, n_trajectories=64)
        centre = math.sqrt((ens.gamma_min / math.pi) * (ens.gamma_max / math.pi))
        slope = fit_loglog_slope(freq, psd, (max(centre / 10.0, freq[1]), centre * 10.0))
        assert slope == pytest.approx(-1.0, abs=0.15)

    def test_matches_lorentzian_sum(self):
        ens = FluctuatorEnsemble(count=20, gamma_min=1e-3, gamma_max=10.0, coupling=1e-3, seed=11)
        freq, psd = psd_welch(ens, dt=0.01, n_samples=32768, n_trajectories=64)
        band = (freq > 3e-3) & (freq < 3e-1)
        ratio = psd[band] / psd_theory(ens, freq[band])
        assert abs(float(np.mean(ratio)) - 1.0) <= 0.05
        # octave-binned means absorb single-bin estimator scatter (~1/sqrt(64))
        edges = np.geomspace(3e-3, 3e-1, 8)
        f_band = freq[band]
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (f_band >= lo) & (f_band < hi)
            if sel.sum() >= 2:
                assert abs(float(np.mean(ratio[sel])) - 1.0) <= 0.12

    def test_slope_fit_needs_points(self):
        with pytest.raises(ValidationError):
            fit_loglog_slope(np.array([1.0, 2.0]), np.array([1.0, 0.5]), (1.0, 2.0))

    @pytest.mark.parametrize("name", ["freq", "psd"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_slope_fit_refuses_non_finite_input(self, name, bad):
        # a bin the psd > 0 mask would drop silently is refused by name
        arrays = {"freq": [1.0, 2.0, 3.0, 4.0, 5.0], "psd": [1.0, 2.0, 3.0, 4.0, 5.0]}
        arrays[name][2] = bad
        with pytest.raises(ValidationError, match=f"{name} has non-finite values"):
            fit_loglog_slope(arrays["freq"], arrays["psd"], (0.5, 10.0))

    def test_slope_fit_still_drops_empty_bins(self):
        # bins with a PSD of 0 or below stay out of the fit
        freq = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert fit_loglog_slope(freq, [1.0, 2.0, 0.0, 4.0, -1.0, 6.0], (0.5, 10.0)) == pytest.approx(1.0)

    def test_long_segment_clamped_to_the_trace(self):
        ens = FluctuatorEnsemble(count=4, gamma_min=1e-2, gamma_max=1.0, coupling=1e-3, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f_long, p_long = psd_welch(ens, dt=0.05, n_samples=1000, n_trajectories=2, nperseg=5000)
        f, p = psd_welch(ens, dt=0.05, n_samples=1000, n_trajectories=2, nperseg=1000)
        assert np.array_equal(f_long, f) and np.array_equal(p_long, p)

    @pytest.mark.parametrize("nperseg", [-4, 0, 1])
    def test_segment_shorter_than_two_rejected(self, nperseg):
        ens = FluctuatorEnsemble(count=4, gamma_min=1e-2, gamma_max=1.0, coupling=1e-3, seed=2)
        with pytest.raises(ValidationError, match="nperseg must be >= 2"):
            psd_welch(ens, dt=0.05, n_samples=1000, n_trajectories=2, nperseg=nperseg)

    @pytest.mark.parametrize("kw", [dict(n_trajectories=2.5), dict(n_samples=1000.5), dict(nperseg=100.5)])
    def test_non_integral_counts_rejected(self, kw):
        ens = FluctuatorEnsemble(count=4, gamma_min=1e-2, gamma_max=1.0, coupling=1e-3, seed=2)
        args = {"dt": 0.05, "n_samples": 1000, "n_trajectories": 2, **kw}
        with pytest.raises(ValidationError, match="must be an integer"):
            psd_welch(ens, **args)

    @pytest.mark.parametrize("n_trajectories", [0, -1])
    def test_no_trajectory_rejected(self, n_trajectories):
        ens = FluctuatorEnsemble(count=4, gamma_min=1e-2, gamma_max=1.0, coupling=1e-3, seed=2)
        with pytest.raises(ValidationError, match="need at least one trajectory"):
            psd_welch(ens, 0.05, 1000, n_trajectories)

    def test_non_finite_step_rejected(self):
        ens = FluctuatorEnsemble(count=4, gamma_min=1e-2, gamma_max=1.0, coupling=1e-3, seed=2)
        with pytest.raises(ValidationError, match="non-finite"):
            psd_welch(ens, math.nan, 1000, 2)

    def test_subnormal_step_rejected(self):
        # 1/dt overflows to inf, which numpy's frequency grid would divide by
        ens = FluctuatorEnsemble(count=4, gamma_min=1e-2, gamma_max=1.0, coupling=1e-3, seed=2)
        with pytest.raises(ValidationError, match=r"^dt = 5e-324 gives a non-finite sampling rate 1/dt$"):
            psd_welch(ens, 5e-324, 1000, 2)

    @pytest.mark.parametrize(
        "dt, n_samples, message",
        [(-0.05, 1000, "dt must be > 0, got -0.05"), (0.0, 1000, "dt must be > 0, got 0.0"),
         (0.05, 1, "n_samples must be >= 2, got 1"), (0.05, 0, "n_samples must be >= 2, got 0")],
    )
    def test_bad_step_or_sample_count_named(self, dt, n_samples, message):
        ens = FluctuatorEnsemble(count=4, gamma_min=1e-2, gamma_max=1.0, coupling=1e-3, seed=2)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            psd_welch(ens, dt, n_samples, 2)


# (samples, nperseg): whole trace, half-overlapping pairs, a remainder that
# fits no segment, odd lengths, and many short segments
WELCH_CASES = [(65536, 32768), (65536, 65536), (4096, 1024), (5000, 1000), (3001, 777), (40000, 512)]


class TestWelch:
    """The numpy Welch estimate against scipy.signal.welch (Hann, density)."""

    @pytest.mark.parametrize("n, nperseg", WELCH_CASES)
    def test_matches_scipy(self, n, nperseg):
        from scipy.signal import welch

        rng = np.random.default_rng(n + nperseg)
        fs = 1.0 / 0.01
        for offset in (-0.3, 0.0, 0.3, 1.0):  # the segment means must not leak
            x = offset + 1e-3 * rng.standard_normal(n)
            f_ref, p_ref = welch(x, fs=fs, window="hann", nperseg=nperseg)
            # psd_welch's frequencies and one trajectory's density
            f = np.fft.rfftfreq(nperseg, 1 / fs)
            p = _welch_density(x, _welch_window(nperseg, fs))
            np.testing.assert_allclose(f, f_ref, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(p, p_ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n, nperseg", WELCH_CASES)
    def test_psd_welch_matches_scipy_average(self, n, nperseg):
        from scipy.signal import welch

        ens = FluctuatorEnsemble(count=5, gamma_min=1e-3, gamma_max=1.0, coupling=1e-3, seed=n)
        t_grid = np.arange(n) * 0.01
        refs = [
            welch(rtn_trajectory(ens, t_grid, trajectory=m), fs=1.0 / 0.01, window="hann",
                  nperseg=nperseg)
            for m in range(4)
        ]
        f, p = psd_welch(ens, dt=0.01, n_samples=n, n_trajectories=4, nperseg=nperseg)
        np.testing.assert_allclose(f, refs[0][0], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(p, sum(r[1] for r in refs) / 4, rtol=1e-13, atol=0.0)


def _whole_trace_welch(x, win):
    """The Welch density over all segments at once, their mean over the
    transposed powers: the form ``_welch_density`` had before it took the
    segments in chunks."""
    nperseg = win.size
    hop = nperseg - nperseg // 2
    count = (x.size - nperseg // 2) // hop
    seg = np.lib.stride_tricks.sliding_window_view(x, nperseg)[: count * hop : hop]
    spec = np.fft.rfft((seg - seg.mean(axis=-1, keepdims=True)) * win)
    p = spec.real**2 + spec.imag**2
    p[:, 1 : None if nperseg % 2 else -1] *= 2
    return np.ascontiguousarray(p.T).mean(axis=-1), count


class TestWelchChunks:
    """Chunked segments against the whole-trace form, in memory and in time."""

    @pytest.mark.parametrize("n, nperseg", WELCH_CASES + [(65536, 16), (101, 3)])
    def test_matches_the_whole_trace_form(self, n, nperseg):
        # numpy's mean sums in order below 8 terms and pairwise from 8 on, and
        # the chunks add in order: equal bits up to 7 segments, and beyond
        # within the (count - 1) u bound of either order on positive terms
        rng = np.random.default_rng(n + nperseg)
        win = _welch_window(nperseg, 100.0)
        for offset in (-0.3, 0.0, 0.3, 1.0):
            x = offset + 1e-3 * rng.standard_normal(n)
            want, count = _whole_trace_welch(x, win)
            got = _welch_density(x, win)
            if count <= 7:
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=(count - 1) * np.finfo(float).eps, atol=0.0)

    @pytest.mark.parametrize("n, nperseg", [(65536, 32768), (65536, 65536), (4096, 1024), (3001, 777)])
    def test_equals_scipy_up_to_seven_segments(self, n, nperseg):
        from scipy.signal import welch

        x = 0.3 + 1e-3 * np.random.default_rng(n - nperseg).standard_normal(n)
        assert np.array_equal(_welch_density(x, _welch_window(nperseg, 100.0)),
                              welch(x, fs=100.0, window="hann", nperseg=nperseg)[1])

    @pytest.mark.parametrize("n, nperseg", [(65536, 32768), (65536, 1024)])
    def test_memory_is_bounded_by_one_chunk(self, n, nperseg):
        # a chunk's centred segments, its complex spectrum, the row buffer
        # and the FFT's working copy are 8 bytes a chunk sample each, and the
        # running spectrum half that: 4.5 x 8 bytes a chunk sample measured.
        # The whole-trace form held every segment at once: 6.5 x at nperseg
        # 32768 (three segments), 262 x at 1024
        x = np.random.default_rng(n + nperseg).standard_normal(n)
        win = _welch_window(nperseg, 100.0)
        chunk = max(1, noise._WELCH_CHUNK // nperseg) * nperseg
        _welch_density(x, win)  # numpy's FFT keeps its plan for this length
        tracemalloc.start()
        try:
            _welch_density(x, win)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * chunk

    def test_short_segments_go_in_chunks(self, monkeypatch):
        # 8191 segments of 16 points take one FFT call per chunk of 1024
        # segments, not one per segment
        calls = []
        rfft = np.fft.rfft

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counted)
        _welch_density(np.random.default_rng(4).standard_normal(65536), _welch_window(16, 100.0))
        per = noise._WELCH_CHUNK // 16
        assert len(calls) == math.ceil(8191 / per)
        assert calls[0] == (per, 16) and calls[-1] == (8191 - (len(calls) - 1) * per, 16)


class TestDephasing:
    def test_silent_bath_keeps_coherence(self):
        ens = FluctuatorEnsemble(count=5, gamma_min=0.01, gamma_max=1.0, coupling=0.0, seed=3)
        coh = dephasing_under_rtn(10.0, ens, 200, np.arange(0.0, 10.1, 0.1))
        np.testing.assert_allclose(coh, 1.0, atol=1e-12)

    def test_starts_at_unity_and_shrinks(self):
        ens = FluctuatorEnsemble(count=10, gamma_min=0.01, gamma_max=0.5, coupling=0.01, seed=5)
        coh = dephasing_under_rtn(10.0, ens, 400, np.arange(0.0, 30.2, 0.2))
        assert coh[0] == pytest.approx(1.0, abs=1e-12)
        assert coh[-1] < coh[0]
        # monotone envelope within Monte Carlo error
        mc_sigma = 1.0 / math.sqrt(2.0 * 400)
        assert np.all(np.diff(coh) <= 3.0 * mc_sigma)

    def test_motional_narrowing_rate(self):
        # weak fast fluctuator: Gamma = (2 pi v)^2 / (2 gamma) within 10%
        v, gamma = 0.02, 2.0
        ens = FluctuatorEnsemble.single(gamma, v, seed=13)
        grid = np.arange(0.0, 400.0, 0.04)
        coh = dephasing_under_rtn(10.0, ens, 3000, grid)
        predicted = (2.0 * math.pi * v) ** 2 / (2.0 * gamma)
        mask = (coh > 0.3) & (coh < 0.9) & (grid > 1.0)
        slope = np.polyfit(grid[mask], np.log(coh[mask]), 1)[0]
        assert -slope == pytest.approx(predicted, rel=0.10)

    def test_doubling_couplings_quadruples_decay(self):
        # Gaussian regime: -ln C scales with v^2 (15% tolerance)
        out = {}
        for v in (0.002, 0.004):
            ens = FluctuatorEnsemble(count=20, gamma_min=1e-3, gamma_max=1e-2, coupling=v, seed=101)
            coh = dephasing_under_rtn(10.0, ens, 6000, np.arange(0.0, 10.5, 0.5))
            out[v] = -math.log(coh[-1])
        assert out[0.004] / out[0.002] == pytest.approx(4.0, rel=0.15)

    def test_needs_enough_trajectories(self):
        ens = FluctuatorEnsemble.single(0.1, 0.01)
        with pytest.raises(ValidationError):
            dephasing_under_rtn(10.0, ens, 50, np.arange(0.0, 1.1, 0.1))

    def test_non_integral_trajectory_count_rejected(self):
        ens = FluctuatorEnsemble.single(0.1, 0.01)
        with pytest.raises(ValidationError, match="n_trajectories must be an integer"):
            dephasing_under_rtn(10.0, ens, 150.5, np.arange(0.0, 1.1, 0.1))

    @pytest.mark.parametrize(
        "nu01, grid", [(math.nan, [0.0, 0.5, 1.0]), (10.0, [0.0, math.nan, 1.0])], ids=["nu01", "grid"]
    )
    def test_non_finite_input_rejected(self, nu01, grid):
        ens = FluctuatorEnsemble.single(0.1, 0.01)
        with pytest.raises(ValidationError, match="finite"):
            dephasing_under_rtn(nu01, ens, 100, grid)


def _uneven_grid(short, long, pairs):
    """Grid whose steps alternate between ``short`` and ``long`` ns."""
    return np.concatenate([[0.0], np.cumsum(np.tile([short, long], pairs))])


class TestEventSampler:
    """Statistics of the event-driven sampler on non-uniform grids."""

    @settings(max_examples=40, deadline=None)
    @given(
        start=st.floats(0.0, 100.0),
        n_steps=st.integers(20, 400),
        couplings=st.lists(
            st.one_of(st.sampled_from([0.0, 0.1, -0.3]), st.floats(-2.0, 2.0)), min_size=1, max_size=6
        ),
        seed=st.integers(0, 2**32 - 1),
        trajectory=st.integers(0, 1000),
    )
    def test_trace_is_coupling_weighted_sum_of_states(self, start, n_steps, couplings, seed, trajectory):
        steps = np.random.default_rng(seed).uniform(1e-3, 0.1, n_steps)
        grid = start + np.concatenate([[0.0], np.cumsum(steps)])
        gamma_max = 0.1 / steps.max()  # the fastest rate the grid resolves: many flips
        n = len(couplings)
        ens = FluctuatorEnsemble(count=n, gamma_min=gamma_max / (20.0 if n > 1 else 1.0),
                                 gamma_max=gamma_max, coupling=tuple(couplings), seed=seed)
        states = fluctuator_states(ens, grid, trajectory)
        assert np.all(np.abs(states) == 1.0)
        v = ens.couplings
        xi = rtn_trajectory(ens, grid, trajectory)
        assert np.all(np.abs(xi - v @ states) <= 4.0 * np.spacing(np.abs(v).sum()))
        # one coupling for all: v times an exact integer sum of the states
        scalar = replace(ens, coupling=couplings[0])
        assert np.array_equal(rtn_trajectory(scalar, grid, trajectory), couplings[0] * states.sum(axis=0))

    def test_stationary_variance(self):
        # mean(xi^2) over trajectories at fixed times equals sum v^2, 5 sigma
        v = np.array([0.3, -0.2, 0.5, 0.1, 0.0, 0.25])
        ens = FluctuatorEnsemble(count=6, gamma_min=0.02, gamma_max=2.0, coupling=tuple(v), seed=31)
        grid = _uneven_grid(0.01, 0.05, 100)
        m = 2000
        xi = np.stack([rtn_trajectory(ens, grid, trajectory=i) for i in range(m)])
        exact = float(np.sum(v**2))
        sigma = math.sqrt(2.0 * (exact**2 - float(np.sum(v**4))) / m)
        for j in (0, grid.size // 2, grid.size - 1):
            assert abs(float(np.mean(xi[:, j] ** 2)) - exact) <= 5.0 * sigma

    def test_autocorrelation_on_uneven_grid(self):
        # exp(-2 gamma tau) from the first sample, 3 sigma; a flip landing one
        # grid point early or late would show at the short lags
        gamma = 0.2
        ens = FluctuatorEnsemble.single(gamma, 1.0, seed=17)
        grid = _uneven_grid(0.02, 0.3, 8)
        m = 10000
        paths = np.stack([rtn_trajectory(ens, grid, trajectory=i) for i in range(m)])
        for lag in (1, 2, 5, 11, 16):
            est = float(np.mean(paths[:, 0] * paths[:, lag]))
            exact = math.exp(-2.0 * gamma * (grid[lag] - grid[0]))
            sigma = math.sqrt((1.0 - exact**2) / m)
            assert abs(est - exact) <= 3.0 * sigma


# The plain sampler, kept as the bit-identity oracle: a list-keyed default_rng
# per path, np.diff grid checks and s0 (1 - 2 parity) rows.  It is compared
# with the module in the same run, never with stored hashes, since numpy may
# change its poisson stream between versions.


def _oracle_grid(ens, t_grid):
    dt = np.diff(t_grid)
    if t_grid.size < 2 or np.any(dt <= 0) or dt.max() > (0.1 / ens.gamma_max) * (1.0 + 1e-9):
        raise AssertionError("the oracle takes valid grids only")
    return dt


def _oracle_flips(ens, trajectory, i, gamma, t_grid):
    rng = np.random.default_rng([ens.seed, trajectory, i])
    s0 = -1.0 if rng.random() < 0.5 else 1.0
    span = t_grid[-1] - t_grid[0]
    times = t_grid[0] + span * rng.random(rng.poisson(gamma * span))
    return s0, np.searchsorted(t_grid, np.sort(times), side="right")


def _oracle_states(ens, t_grid, trajectory=0):
    t_grid = np.asarray(t_grid, dtype=float)
    _oracle_grid(ens, t_grid)
    n = t_grid.size
    out = np.empty((ens.count, n))
    for i, gamma in enumerate(ens.rates):
        s0, flips = _oracle_flips(ens, trajectory, i, gamma, t_grid)
        odd = np.cumsum(np.bincount(flips, minlength=n + 1)[:n]) & 1
        out[i] = s0 * (1 - 2 * odd)
    return out


def _oracle_rtn(ens, t_grid, trajectory=0):
    t_grid = np.asarray(t_grid, dtype=float)
    _oracle_grid(ens, t_grid)
    n = t_grid.size
    rates, couplings = ens.rates, ens.couplings
    xi = np.zeros(n)
    for v in np.unique(couplings[couplings != 0.0]):
        at, steps = [], []
        for i in np.flatnonzero(couplings == v):
            s0, flips = _oracle_flips(ens, trajectory, i, rates[i], t_grid)
            w = np.empty(flips.size + 1)
            w[0] = s0
            w[1::2] = -2.0 * s0
            w[2::2] = 2.0 * s0
            at += [[0], flips]
            steps.append(w)
        diff = np.bincount(np.concatenate(at), weights=np.concatenate(steps), minlength=n + 1)
        xi += v * np.cumsum(diff[:n])
    return xi


def _oracle_trace(ens, t_grid, trajectory, groups):
    """``_oracle_rtn`` with the signature of ``noise._rtn_trace``, which the loops call."""
    return _oracle_rtn(ens, t_grid, trajectory)


# seeds and trajectories on both sides of 2**32, where a key word splits in two
KEYS = [0, 2**32 - 1, 2**32, 2**40 + 3]
ENSEMBLES = [
    FluctuatorEnsemble.single(0.2, 1.0, seed=77),
    FluctuatorEnsemble(count=20, gamma_min=1e-3, gamma_max=10.0, coupling=1e-3, seed=2**32),
    FluctuatorEnsemble(count=6, gamma_min=0.02, gamma_max=2.0, coupling=(0.3, -0.2, 0.5, 0.3, 0.0, 0.25),
                       seed=2**32 - 1),
]


class TestBitIdentity:
    """Every draw equals the oracle's to the bit, whatever the key size."""

    @pytest.mark.parametrize("position", ["seed", "trajectory", "fluctuator"])
    @pytest.mark.parametrize("key", KEYS)
    def test_stream_is_the_list_keyed_generator(self, key, position):
        words = {"seed": 5, "trajectory": 9, "fluctuator": 2, position: key}
        ens = FluctuatorEnsemble.single(0.1, 1.0, seed=words["seed"])
        got = _stream(ens, words["trajectory"], words["fluctuator"])
        want = np.random.default_rng([words["seed"], words["trajectory"], words["fluctuator"]])
        assert got.bit_generator.state == want.bit_generator.state
        assert np.array_equal(got.random(8), want.random(8))
        assert np.array_equal(got.poisson(3.0, 8), want.poisson(3.0, 8))

    @pytest.mark.parametrize("ens", ENSEMBLES, ids=["single", "scalar-20", "per-fluctuator"])
    @pytest.mark.parametrize("trajectory", [0, 3, 2**32 - 1, 2**32, 2**40 + 3])
    def test_paths_match_the_oracle(self, ens, trajectory):
        grid = np.concatenate([[0.0], np.cumsum(np.tile([0.002, 0.009], 400))])
        assert np.array_equal(fluctuator_states(ens, grid, trajectory), _oracle_states(ens, grid, trajectory))
        assert np.array_equal(rtn_trajectory(ens, grid, trajectory), _oracle_rtn(ens, grid, trajectory))

    @pytest.mark.parametrize("ens", ENSEMBLES, ids=["single", "scalar-20", "per-fluctuator"])
    @pytest.mark.parametrize(
        "grid", [_uneven_grid(0.002, 0.009, 10000), 0.5 + np.arange(20000) * 0.01], ids=["uneven", "uniform"]
    )
    def test_long_paths_match_the_oracle(self, ens, grid):
        # on 20 000 points the fast fluctuators flip more often than a binary search is used for
        for trajectory in (0, 3, 2**40 + 3):
            assert np.array_equal(fluctuator_states(ens, grid, trajectory), _oracle_states(ens, grid, trajectory))
            assert np.array_equal(rtn_trajectory(ens, grid, trajectory), _oracle_rtn(ens, grid, trajectory))

    @pytest.mark.parametrize("key", KEYS)
    def test_numpy_integer_keys_draw_as_plain_ints(self, key):
        grid = np.arange(0.0, 2.01, 0.05)
        for word in (np.int64, np.uint64):
            plain = FluctuatorEnsemble(count=3, gamma_min=0.1, gamma_max=1.0, seed=key)
            typed = FluctuatorEnsemble(count=3, gamma_min=0.1, gamma_max=1.0, seed=word(key))
            for trajectory in (key, word(key)):
                assert np.array_equal(fluctuator_states(typed, grid, trajectory), fluctuator_states(plain, grid, key))
                assert np.array_equal(rtn_trajectory(typed, grid, trajectory), rtn_trajectory(plain, grid, key))

    def test_single_paths_match_the_oracle(self):
        # the decoherence benchmark's case: many short single-fluctuator paths
        ens = FluctuatorEnsemble.single(0.2, 1.0, seed=2024)
        grid = np.arange(0.0, 2.01, 0.05)
        for m in range(500):
            assert np.array_equal(fluctuator_states(ens, grid, m), _oracle_states(ens, grid, m))

    def test_psd_welch_matches_the_oracle(self, monkeypatch):
        ens = ENSEMBLES[1]
        f, p = psd_welch(ens, 0.01, 4096, 3, nperseg=1024)
        monkeypatch.setattr(noise, "_rtn_trace", _oracle_trace)
        f_ref, p_ref = psd_welch(ens, 0.01, 4096, 3, nperseg=1024)
        assert np.array_equal(f, f_ref) and np.array_equal(p, p_ref)

    @pytest.mark.parametrize("ens", ENSEMBLES[1:], ids=["scalar-20", "per-fluctuator"])
    def test_dephasing_matches_the_oracle(self, ens, monkeypatch):
        grid = np.arange(0.0, 5.0, 0.01)
        coh = dephasing_under_rtn(10.0, ens, 100, grid)
        monkeypatch.setattr(noise, "_rtn_trace", _oracle_trace)
        assert np.array_equal(coh, dephasing_under_rtn(10.0, ens, 100, grid))


U32 = 2**32 - 1
EDGE_KEYS = [(a, b, c) for a in (0, U32) for b in (0, U32) for c in (0, U32)]


class TestSeedWords:
    """The block hash is numpy's SeedSequence on the 3-word key, word for word."""

    @settings(max_examples=300, deadline=None)
    @given(key=st.tuples(*[st.integers(0, U32)] * 3))
    @example(key=(0, 0, 0))
    @example(key=(U32, U32, U32))
    def test_words_are_the_seed_sequence_state(self, key):
        want = np.random.SeedSequence(np.array(key, np.uint32)).generate_state(4, np.uint64)
        got = _seed_words([key])
        assert got.dtype == np.uint64 and got.shape == (1, 4)
        assert np.array_equal(got[0], want)

    def test_many_keys_at_once(self):
        # 0 and 2**32 - 1 in every position, hashed together with random keys
        rng = np.random.default_rng(3)
        keys = EDGE_KEYS + [tuple(k) for k in rng.integers(0, 2**32, size=(56, 3)).tolist()]
        got = _seed_words(keys)
        for key, row in zip(keys, got):
            assert np.array_equal(row, np.random.SeedSequence(np.array(key, np.uint32)).generate_state(4, np.uint64))


def assert_list_keyed(ens, trajectory, fluctuator):
    got = _stream(ens, trajectory, fluctuator)
    want = np.random.default_rng([ens.seed, trajectory, fluctuator])
    assert got.bit_generator.state == want.bit_generator.state, (ens.seed, trajectory, fluctuator)


class TestStreamBlocks:
    """Streams read from the one cached block equal the list-keyed generator
    on either side of every block edge, in any order of access."""

    @pytest.mark.parametrize("count", [1, 3, 20, 64, 65, 200])
    def test_block_edges(self, count):
        ens = FluctuatorEnsemble(count=count, gamma_min=0.1, gamma_max=1.0, seed=11) if count > 1 \
            else FluctuatorEnsemble.single(0.1, 1.0, seed=11)
        for trajectory in (63, 64, 65, 0, 64, 63, 2 * 64 + 1, 65):
            for fluctuator in sorted({0, count // 2, count - 1}):
                assert_list_keyed(ens, trajectory, fluctuator)

    @pytest.mark.parametrize("count", [1, 3, 20, 65])
    @pytest.mark.parametrize("seed", [0, U32])
    def test_block_ending_at_the_last_uint32_trajectory(self, count, seed):
        # the last block is cut at 2**32 - 1; 2**32 itself takes the list form
        ens = FluctuatorEnsemble(count=count, gamma_min=0.1, gamma_max=1.0, seed=seed) if count > 1 \
            else FluctuatorEnsemble.single(0.1, 1.0, seed=seed)
        for trajectory in (U32, U32 - 1, 2**32, U32 - 64, U32):
            assert_list_keyed(ens, trajectory, count - 1)
            assert_list_keyed(ens, trajectory, 0)

    @pytest.mark.parametrize("fluctuator", [1, 2, 64, U32, 2**32])
    def test_fluctuator_past_the_count(self, fluctuator):
        ens = FluctuatorEnsemble(count=1, gamma_min=0.1, gamma_max=0.1, seed=5)
        for trajectory in (9, 0, 9, 64):
            assert_list_keyed(ens, trajectory, 0)
            assert_list_keyed(ens, trajectory, fluctuator)

    def test_uint32_keys_build_no_seed_sequence(self, monkeypatch):
        # the decoherence benchmark's 4 000 autocorrelation paths hash their
        # keys by blocks: no SeedSequence is built, by noise or inside PCG64
        built, seeded_by = [], set()
        real_seed_sequence, real_stream = np.random.SeedSequence, noise._stream

        def counted_seed_sequence(*args, **kwargs):
            built.append(args)
            return real_seed_sequence(*args, **kwargs)

        def checked_stream(*args):
            rng = real_stream(*args)
            seeded_by.add(type(rng.bit_generator.seed_seq))
            return rng

        monkeypatch.setattr(np.random, "SeedSequence", counted_seed_sequence)
        monkeypatch.setattr(noise, "_stream", checked_stream)
        ens = FluctuatorEnsemble.single(0.2, 1.0, seed=2024)
        grid = np.arange(0.0, 2.01, 0.05)
        for m in range(4000):
            fluctuator_states(ens, grid, m)
        assert built == []
        assert real_seed_sequence not in seeded_by and len(seeded_by) == 1
        # the cache holds one block: at most 64 keys of 4 words here
        assert noise._block[1].shape == (64, 4)


class TestStateRows:
    @pytest.mark.parametrize("flips", [[], [3], [3, 3], [0, 5, 9], [2, 4, 4, 7], [1, 10], [10]])
    def test_rows_follow_the_parity_rule(self, flips, monkeypatch):
        # n = 10 samples; a flip at index 10 lies past the last one
        flips = np.array(flips, dtype=np.intp)
        monkeypatch.setattr(noise, "_flips", lambda *args: (-1.0, flips))
        got = fluctuator_states(FluctuatorEnsemble.single(0.2, 1.0), np.arange(10) * 0.05)[0]
        odd = np.cumsum(np.bincount(flips, minlength=11)[:10]) & 1
        assert np.array_equal(got, -1.0 * (1 - 2 * odd))
