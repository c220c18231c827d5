"""Telegraph-noise generator and 1/f dephasing tests."""

import math

import numpy as np
import pytest
from scipy import stats

from scqsim.core import ValidationError
from scqsim.noise import (
    FluctuatorEnsemble,
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

    def test_under_resolved_grid_rejected(self):
        ens = FluctuatorEnsemble.single(10.0, 1.0)
        with pytest.raises(ValidationError):
            rtn_trajectory(ens, np.arange(0.0, 5.0, 0.5))


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
