"""Flux-qubit tests: potentials, 1D/2D solvers, currents, fluxoid."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from scqsim import flux
from scqsim.core import DIMENSION_CAP, ConvergenceError, FitError, ValidationError
from scqsim.flux import (
    FluxoidRecord,
    RfSquidParams,
    ThreeJunctionParams,
    classify_fluxoid,
    fit_two_level_gap,
    flux_spectrum_vs_f,
    ground_state_current_vs_f,
    persistent_current,
    rf_squid_minima,
    rf_squid_potential,
    solve_levels_1d,
    solve_three_junction,
    three_junction_potential,
    _sine_dvr,
    _three_junction_hamiltonian,
)


class TestRfSquidPotential:
    def test_at_origin(self):
        p = RfSquidParams(ej=4.0, ec=1.0, inductive_scale=0.5, phi_ext=0.0)
        assert rf_squid_potential(0.0, p) == pytest.approx(-4.0, abs=0.0)

    def test_double_well_at_pi(self):
        # Ej/(2 * inductive) > 1: two minima symmetric about phi = pi
        p = RfSquidParams(ej=2.0, ec=0.4, inductive_scale=0.35, phi_ext=np.pi)
        minima = rf_squid_minima(p)
        assert len(minima) == 2
        assert minima[0] + minima[1] == pytest.approx(2 * np.pi, abs=1e-8)

    def test_strong_inductance_single_minimum(self):
        p = RfSquidParams(ej=1.0, ec=0.4, inductive_scale=50.0, phi_ext=1.3)
        minima = rf_squid_minima(p)
        assert len(minima) == 1
        assert minima[0] == pytest.approx(1.3, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValidationError):
            RfSquidParams(ej=0.0, ec=1.0, inductive_scale=1.0)

    @pytest.mark.parametrize("phi_ext", [1e12, 1e17])
    def test_phi_ext_past_the_float_resolution_refused(self, phi_ext):
        # U' rounds in steps above the 1e-8 Ej a minimum must meet: refused by
        # name, where the search found no minimum or a non-stationary one
        p = RfSquidParams(ej=10.0, ec=0.1, inductive_scale=2.0, phi_ext=phi_ext)
        with pytest.raises(ValidationError, match=re.escape(f"phi_ext = {phi_ext:g} is too large")):
            rf_squid_minima(p)

    def test_large_phi_ext_still_classifies(self):
        p = RfSquidParams(ej=10.0, ec=0.1, inductive_scale=2.0, phi_ext=1e4 + 0.3)
        minima = rf_squid_minima(p)
        assert minima
        for phi_star in minima:
            rec = classify_fluxoid(p, phi_star)
            assert rec.m == round(phi_star / (2 * np.pi))
            assert abs(phi_star - p.phi_ext) <= p.ej / (2 * p.inductive_scale)
            assert TestFluxoid.nearest_float(p, phi_star)

    @pytest.mark.parametrize("field", ["ej", "ec", "inductive_scale", "phi_ext"])
    def test_non_finite_rejected(self, field):
        fields = {"ej": 4.0, "ec": 1.0, "inductive_scale": 0.5, field: math.nan}
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            RfSquidParams(**fields)


# (potential, Ec, phi_lo, phi_hi) of the oracle cases below
HARMONIC = (lambda x: 0.5 * 3.0 * x**2, 2.0, -12.0, 12.0)
_RF = RfSquidParams(ej=2.0, ec=0.4, inductive_scale=0.35, phi_ext=np.pi)
RF_DOUBLE_WELL = (lambda x: rf_squid_potential(x, _RF), _RF.ec, np.pi - 6.0, np.pi + 6.0)


class TestSolve1D:
    def test_harmonic_oracle(self):
        # H = Ec n^2 + (k/2) phi^2: spacing 2 sqrt(Ec k / 2)
        ec, spring = 2.0, 3.0
        lv = solve_levels_1d(lambda x: 0.5 * spring * x**2, ec, -12.0, 12.0, k=6)
        spacing = np.diff(lv.energies)
        expected = 2.0 * math.sqrt(ec * spring / 2.0)
        assert np.abs(spacing / expected - 1.0).max() < 1e-3

    def test_double_well_parity_and_splitting(self):
        p = RfSquidParams(ej=2.0, ec=0.4, inductive_scale=0.35, phi_ext=np.pi)
        lv = solve_levels_1d(
            lambda x: rf_squid_potential(x, p), p.ec, np.pi - 6.0, np.pi + 6.0, k=2
        )
        delta = lv.energies[1] - lv.energies[0]
        assert delta > 1e-3  # tunneling splitting is strictly positive
        even, odd = lv.states[:, 0], lv.states[:, 1]
        assert np.abs(even - even[::-1]).max() < 1e-6 * np.abs(even).max() * 1e3
        assert np.abs(odd + odd[::-1]).max() < 1e-6 * np.abs(odd).max() * 1e3

    @pytest.mark.parametrize(
        "case, k", [(HARMONIC, 6), (RF_DOUBLE_WELL, 3)], ids=["harmonic", "rf-squid"]
    )
    def test_matches_a_fine_fixed_grid(self, case, k):
        # the self-chosen grid stays small and agrees with 512 fixed points
        lv = solve_levels_1d(*case, k=k)
        assert lv.grid_points <= 150
        fine = _sine_dvr(*case, 512)[2][:k]
        assert np.abs(lv.energies - fine).max() <= 1e-6

    @pytest.mark.parametrize("n", [2, 3, 64, 65, 500])
    @settings(max_examples=5, deadline=None)
    @given(lo=st.floats(-50.0, 50.0), width=st.floats(0.01, 100.0), ec=st.floats(1e-3, 10.0))
    def test_kinetic_closed_form_is_the_mode_sum(self, n, lo, width, ec):
        hi = lo + width
        s = _sine_dvr(lambda x: 0.0 * x, ec, lo, hi, n)[1]
        m = np.arange(1, n + 1)
        modes = (s * (ec * (np.pi * m / (hi - lo)) ** 2)) @ s
        got = flux._dvr_kinetic(ec, hi - lo, n)
        assert np.abs(got - modes).max() <= 1e-13 * np.abs(modes).max()

    def test_starts_at_k_points_above_the_default(self):
        # a flat box is exact at any point count, so the first growth converges
        flat = lambda x: x * 0.0  # noqa: E731
        assert solve_levels_1d(flat, 1.0, 0.0, 1.0, k=70).grid_points == 105
        assert solve_levels_1d(flat, 1.0, 0.0, 1.0, k=3).grid_points == 96

    def test_states_live_on_the_dvr_points(self):
        lv = solve_levels_1d(lambda x: 0.5 * x**2, 1.0, -10.0, 10.0, k=3)
        n = lv.grid_points
        assert lv.phi.size == lv.states.shape[0] == n
        np.testing.assert_allclose(lv.phi, -10.0 + 20.0 * np.arange(1, n + 1) / (n + 1), atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(lv.states, axis=0), 1.0, atol=1e-12)

    def test_point_counts_outside_the_cap_rejected(self):
        flat = lambda x: x * 0.0  # noqa: E731
        for k in (0, -1, DIMENSION_CAP + 1):
            with pytest.raises(ValidationError, match="need 1 <= k"):
                solve_levels_1d(flat, 1.0, -1.0, 1.0, k=k)
        with pytest.raises(ValidationError, match="k must be an integer"):
            solve_levels_1d(flat, 1.0, -1.0, 1.0, k=2.5)

    @pytest.mark.parametrize(
        "ec, lo, hi", [(math.nan, 0.0, 1.0), (1.0, math.nan, 1.0), (1.0, 0.0, math.inf)]
    )
    def test_non_finite_interval_rejected_at_once(self, ec, lo, hi):
        # without the check, dense eigh ran on NaN matrices up to the point cap
        with pytest.raises(ValidationError, match="must be finite"):
            solve_levels_1d(lambda x: 0 * x, ec, lo, hi, k=2)

    @pytest.mark.parametrize(
        "ec, lo, hi, message",
        [
            (1.0, 1.0, 1.0, "empty phase interval"),
            (1.0, 1.0, -1.0, "empty phase interval"),
            (0.0, 0.0, 1.0, "Ec must be > 0"),
            (-1.0, 0.0, 1.0, "Ec must be > 0"),
        ],
    )
    def test_empty_interval_or_non_positive_ec_rejected(self, ec, lo, hi, message):
        with pytest.raises(ValidationError, match=message):
            solve_levels_1d(lambda x: 0 * x, ec, lo, hi, k=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_potential_rejected(self, bad):
        with pytest.raises(ValidationError, match="potential is not finite"):
            solve_levels_1d(lambda x: np.where(x > 0.5, bad, 0.0), 1.0, 0.0, 1.0, k=2)

    def test_nonconvergence_reported(self, monkeypatch):
        monkeypatch.setattr(flux, "_LEVEL_TOL", 1e-16)
        monkeypatch.setattr(flux, "DIMENSION_CAP", 256)
        with pytest.raises(ConvergenceError, match="at 256 points"):
            solve_levels_1d(lambda x: 0.5 * x**2, 1.0, -10.0, 10.0, k=2)


class TestThreeJunctionPotential:
    @pytest.mark.parametrize("field", ["ej", "ec", "alpha", "f"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        fields = {"ej": 3.0, "ec": 1.0, "alpha": 0.8, "f": 0.5, field: value}
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            ThreeJunctionParams(**fields)

    def test_non_integral_cutoff_rejected(self):
        with pytest.raises(ValidationError, match="cutoff must be an integer"):
            ThreeJunctionParams(ej=40.0, ec=1.0, cutoff=4.5)

    @pytest.mark.parametrize("field", ["ej", "ec"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_energy_rejected(self, field, value):
        fields = {"ej": 3.0, "ec": 1.0, field: value}
        with pytest.raises(ValidationError, match="Ej and Ec must be > 0"):
            ThreeJunctionParams(**fields)

    def test_point_value(self):
        p = ThreeJunctionParams(ej=3.0, ec=1.0, alpha=0.8, f=0.5)
        assert three_junction_potential(0.0, 0.0, p) == pytest.approx(1.6 * 3.0, abs=1e-12)

    def test_flux_reflection_identity(self):
        rng = np.random.default_rng(0)
        p1, p2 = rng.uniform(-np.pi, np.pi, (2, 50))
        for f in (0.43, 0.5, 0.61):
            a = three_junction_potential(p1, p2, ThreeJunctionParams(ej=2.0, ec=1.0, f=f))
            b = three_junction_potential(-p1, -p2, ThreeJunctionParams(ej=2.0, ec=1.0, f=1.0 - f))
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_periodicity(self):
        p = ThreeJunctionParams(ej=2.0, ec=1.0, f=0.47)
        assert three_junction_potential(0.3, -1.1, p) == pytest.approx(
            float(three_junction_potential(0.3 + 2 * np.pi, -1.1 - 2 * np.pi, p)), abs=1e-10
        )

    def test_degenerate_minima_at_half_flux(self):
        p = ThreeJunctionParams(ej=40.0, ec=1.0, alpha=0.8, f=0.5)
        u = lambda x: float(three_junction_potential(x[0], x[1], p))
        right = minimize(u, [1.0, -1.0], method="Nelder-Mead", options={"xatol": 1e-12, "fatol": 1e-13})
        left = minimize(u, [-1.0, 1.0], method="Nelder-Mead", options={"xatol": 1e-12, "fatol": 1e-13})
        assert abs(right.fun - left.fun) <= 1e-9
        assert np.linalg.norm(np.asarray(right.x) + np.asarray(left.x)) < 1e-4

    def test_alpha_range_enforced(self):
        with pytest.raises(ValidationError):
            ThreeJunctionParams(ej=1.0, ec=1.0, alpha=0.4)
        with pytest.raises(ValidationError):
            ThreeJunctionParams(ej=1.0, ec=1.0, cutoff=1)

    def test_dense_cap_enforced(self):
        largest = (math.isqrt(DIMENSION_CAP) - 1) // 2  # (2N + 1)^2 <= cap
        assert ThreeJunctionParams(ej=1.0, ec=1.0, cutoff=largest).cutoff == largest
        with pytest.raises(ValidationError, match="dense-storage cap"):
            ThreeJunctionParams(ej=1.0, ec=1.0, cutoff=largest + 1)


# Lowest six levels at Ej = 40, Ec = 1, alpha = 0.8 from the phase-grid
# solver this charge-basis solver replaced: 8th-order circulant finite
# differences on a 96 x 96 grid (commit 8dab80c, grid_points = 96), whose
# own error is about 3e-8 GHz.
FD96_LEVELS = {
    0.47: [57.42590678107332, 64.41934259297068, 65.73205115731294,
           67.88591201345504, 70.97751825681077, 72.06355509444317],
    0.5: [62.5547257856003, 62.73070854298541, 68.67485484179613,
          69.45483135299037, 69.53359378894652, 70.95427120798647],
}


class TestSolve2D:
    @pytest.mark.parametrize("f", sorted(FD96_LEVELS))
    def test_matches_phase_grid_reference(self, f):
        p = ThreeJunctionParams(ej=40.0, ec=1.0, alpha=0.8, f=f)
        w = solve_three_junction(p, k=6).energies
        np.testing.assert_allclose(w, FD96_LEVELS[f], rtol=0, atol=1e-6)

    def test_states_are_eigenvectors(self):
        p = ThreeJunctionParams(ej=40.0, ec=1.0, alpha=0.8, f=0.47)
        sol = solve_three_junction(p, k=4, want_states=True)
        h = _three_junction_hamiltonian(p)
        assert h.shape == ((2 * p.cutoff + 1) ** 2,) * 2
        for idx in range(4):
            v = sol.states[:, idx]
            residual = np.linalg.norm(h @ v - sol.energies[idx] * v)
            assert residual < 1e-12 * np.linalg.norm(h, 2)
        np.testing.assert_allclose(sol.energies, solve_three_junction(p, k=4).energies, atol=1e-10)

    @pytest.mark.parametrize("f", [0.47, 0.5, 0.52])
    def test_states_real_in_phase_space(self, f):
        # c(-n) = conj(c(n)); n -> -n reverses the row-major (n1, n2) index
        p = ThreeJunctionParams(ej=40.0, ec=1.0, alpha=0.8, f=f)
        states = solve_three_junction(p, k=4, want_states=True).states
        assert np.abs(states[::-1] - states.conj()).max() <= 1e-12

    def test_cutoff_convergence(self):
        # the default cutoff is 10; four more charges move levels < 1e-6 GHz
        for f in (0.47, 0.5):
            p10 = ThreeJunctionParams(ej=40.0, ec=1.0, alpha=0.8, f=f, cutoff=10)
            w10 = solve_three_junction(p10, k=6).energies
            w14 = solve_three_junction(replace(p10, cutoff=14), k=6).energies
            assert np.abs(w10 - w14).max() <= 1e-6


CHARGE_BASIS = dict(
    ej=st.floats(0.5, 60.0),
    ec=st.floats(0.1, 5.0),
    alpha=st.floats(0.51, 0.99),
    f=st.floats(-1.0, 2.0),
    cutoff=st.integers(2, 4),
)


class TestChargeBasisProperties:
    @settings(max_examples=40, deadline=None)
    @given(**CHARGE_BASIS)
    def test_hamiltonian_exactly_hermitian(self, ej, ec, alpha, f, cutoff):
        h = _three_junction_hamiltonian(ThreeJunctionParams(ej, ec, alpha, f, cutoff))
        assert np.array_equal(h, h.conj().T)

    @settings(max_examples=40, deadline=None)
    @given(**CHARGE_BASIS)
    def test_spectrum_symmetric_and_periodic_in_f(self, ej, ec, alpha, f, cutoff):
        p = ThreeJunctionParams(ej, ec, alpha, f, cutoff)
        w = solve_three_junction(p, k=6).energies
        for other in (1.0 - f, f + 1.0):
            np.testing.assert_allclose(
                solve_three_junction(replace(p, f=other), k=6).energies, w, rtol=0, atol=1e-9
            )

    @settings(max_examples=40, deadline=None)
    @given(**CHARGE_BASIS)
    def test_exchange_commutes(self, ej, ec, alpha, f, cutoff):
        # (n1, n2) -> (-n2, -n1) maps array indices (a, b) -> (m-1-b, m-1-a)
        h = _three_junction_hamiltonian(ThreeJunctionParams(ej, ec, alpha, f, cutoff))
        m = 2 * cutoff + 1
        a, b = np.divmod(np.arange(m * m), m)
        perm = (m - 1 - b) * m + (m - 1 - a)
        assert np.array_equal(h[np.ix_(perm, perm)], h)


class TestSymmetrySectors:
    SECTOR_BASIS = dict(CHARGE_BASIS, cutoff=st.integers(2, 6))

    @settings(max_examples=30, deadline=None)
    @given(**SECTOR_BASIS)
    def test_merged_spectrum_is_the_dense_spectrum(self, ej, ec, alpha, f, cutoff):
        p = ThreeJunctionParams(ej, ec, alpha, f, cutoff)
        m = 2 * cutoff + 1
        even, odd = flux._sector_blocks(p)
        assert even.shape == ((m * m + m) // 2,) * 2 and odd.shape == ((m * m - m) // 2,) * 2
        h = _three_junction_hamiltonian(p)
        w = solve_three_junction(p, k=m * m).energies
        tol = 1e-10 * max(np.linalg.norm(h, 2), 1.0)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(h), rtol=0, atol=tol)

    @settings(max_examples=30, deadline=None)
    @given(**SECTOR_BASIS)
    def test_cached_blocks_equal_the_direct_formula(self, ej, ec, alpha, f, cutoff):
        # the per-cutoff gathers keep the product order (conj(A) vals) B, so
        # every block is bit-identical to the one scattered without them
        p = ThreeJunctionParams(ej, ec, alpha, f, cutoff)
        rows, cols = flux._term_positions(cutoff)
        vals = flux._term_values(p)
        for (column, coef), block in zip(flux._symmetry_sectors(cutoff), flux._sector_blocks(p)):
            dim = int(column.max()) + 1
            terms = coef[rows].conj()[:, :, None] * vals[:, None, None] * coef[cols][:, None, :]
            flat = column[rows][:, :, None] * dim + column[cols][:, None, :]
            want = np.bincount(flat.ravel(), terms.real.ravel(), minlength=dim * dim)
            assert np.array_equal(block, want.reshape(dim, dim))
        assert not any(a.flags.writeable for g in flux._sector_gathers(cutoff) for a in g)

    @settings(max_examples=20, deadline=None)
    @given(**dict(CHARGE_BASIS, cutoff=st.just(2)))
    def test_full_spectrum_ascends(self, ej, ec, alpha, f, cutoff):
        p = ThreeJunctionParams(ej, ec, alpha, f, cutoff)
        for want_states in (False, True):
            w = solve_three_junction(p, k=25, want_states=want_states).energies
            assert w.size == 25 and np.all(np.diff(w) >= 0)

    @settings(max_examples=30, deadline=None)
    @given(**SECTOR_BASIS)
    def test_states_are_exchange_eigenstates_and_real_in_phase_space(
        self, ej, ec, alpha, f, cutoff
    ):
        # S: (n1, n2) -> (-n2, -n1); n -> -n reverses the row-major index
        m = 2 * cutoff + 1
        a, b = np.divmod(np.arange(m * m), m)
        perm = (m - 1 - b) * m + (m - 1 - a)
        states = solve_three_junction(
            ThreeJunctionParams(ej, ec, alpha, f, cutoff), k=12, want_states=True
        ).states
        for c in states.T:
            assert np.array_equal(c[perm], c) or np.array_equal(c[perm], -c)
        assert np.array_equal(states[::-1], states.conj())

    def test_dense_matrix_is_never_built(self, monkeypatch):
        def no_dense(p):
            raise AssertionError("built the dense Hamiltonian")

        monkeypatch.setattr(flux, "_three_junction_hamiltonian", no_dense)
        p = ThreeJunctionParams(40.0, 1.0, 0.8, 0.49, cutoff=4)
        assert solve_three_junction(p, k=3).energies.size == 3
        assert solve_three_junction(p, k=3, want_states=True).states.shape == (81, 3)


class TestFluxSweep:
    CUTOFF = 8  # coarse for unit tests; the acceptance suite runs the default 10

    def params(self, **kw):
        return ThreeJunctionParams(ej=40.0, ec=1.0, alpha=0.8, cutoff=self.CUTOFF, **kw)

    def test_symmetry_and_min_gap(self):
        fg = np.linspace(0.45, 0.55, 11)
        table = flux_spectrum_vs_f(self.params(), fg, k=4)
        assert np.abs(table.levels - table.levels[::-1]).max() <= 1e-8
        gaps = table.gap()
        assert fg[int(np.argmin(gaps))] == pytest.approx(0.5, abs=1e-12)

    def test_more_than_six_levels(self):
        fg = [0.48, 0.5]
        table = flux_spectrum_vs_f(self.params(), fg, k=7)
        for f, row in zip(fg, table.levels):
            assert np.array_equal(row, solve_three_junction(self.params(f=f), k=7).energies)

    @pytest.mark.parametrize("k", [-2, 0])
    def test_fewer_than_one_level_rejected(self, k):
        with pytest.raises(ValidationError, match="need at least one level"):
            flux_spectrum_vs_f(self.params(), [0.5], k=k)

    def test_more_levels_than_charge_states_rejected(self):
        p = ThreeJunctionParams(40.0, 1.0, cutoff=2)
        with pytest.raises(ValidationError, match="cutoff 2 gives 25 levels, fewer than the 30 "):
            solve_three_junction(p, k=30)
        assert solve_three_junction(p, k=25).energies.size == 25

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError, match="at least one control value"):
            flux_spectrum_vs_f(self.params(), [], k=2)

    @pytest.mark.parametrize("grid", [0.5, [[0.5]], []], ids=["scalar", "2d", "empty"])
    @pytest.mark.parametrize("sweep", [flux_spectrum_vs_f, ground_state_current_vs_f])
    def test_bad_grid_rejected_before_any_solve(self, sweep, grid, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking the grid")

        monkeypatch.setattr(flux, "solve_three_junction", no_solve)
        with pytest.raises(ValidationError, match="f grid must be one-dimensional"):
            sweep(self.params(), grid)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("sweep", [flux_spectrum_vs_f, ground_state_current_vs_f])
    def test_non_finite_grid_rejected_before_any_solve(self, sweep, bad, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking the grid")

        monkeypatch.setattr(flux, "solve_three_junction", no_solve)
        with pytest.raises(ValidationError, match="^f grid has non-finite values$"):
            sweep(self.params(), [0.5, bad])

    def test_persistent_current_signs(self):
        for f, sign in ((0.48, -1.0), (0.52, +1.0)):
            pf = self.params(f=f)
            sol = solve_three_junction(pf, k=1, want_states=True)
            current = persistent_current(sol.states[:, 0], pf)
            assert np.sign(current) == sign
            assert abs(current) > 0.3

    def test_persistent_current_zero_at_half(self):
        pf = self.params(f=0.5)
        sol = solve_three_junction(pf, k=2, want_states=True)
        for idx in (0, 1):
            assert abs(persistent_current(sol.states[:, idx], pf)) <= 1e-8

    def test_hellmann_feynman_cross_check(self):
        # <dH/d(2 pi f)> should equal the finite-difference slope of E0
        pf = self.params(f=0.52)
        sol = solve_three_junction(pf, k=1, want_states=True)
        current = persistent_current(sol.states[:, 0], pf)
        df = 1e-5
        e_plus = solve_three_junction(self.params(f=0.52 + df), k=1).energies[0]
        e_minus = solve_three_junction(self.params(f=0.52 - df), k=1).energies[0]
        slope = (e_plus - e_minus) / (2.0 * df * 2.0 * np.pi)  # dE/d(2 pi f)
        assert current == pytest.approx(-slope / pf.ej, rel=1e-4)

    def test_superposition_current_bounded(self):
        pf = self.params(f=0.5)
        sol = solve_three_junction(pf, k=2, want_states=True)
        a = (sol.states[:, 0] + sol.states[:, 1]) / np.sqrt(2.0)
        b = (sol.states[:, 0] - sol.states[:, 1]) / np.sqrt(2.0)
        i_a, i_b = persistent_current(a, pf), persistent_current(b, pf)
        assert abs(i_a) > 0.3 and abs(i_b) > 0.3  # localized circulating states
        i_super = persistent_current(sol.states[:, 0], pf)
        assert abs(i_super) <= min(abs(i_a), abs(i_b))

    def test_ground_current_monotone_through_zero(self):
        # fine grid across the avoided crossing, where the two-level
        # picture holds and the current sweeps smoothly through zero
        fg = np.linspace(0.496, 0.504, 17)
        currents = ground_state_current_vs_f(self.params(), fg)
        assert np.all(np.diff(currents) > 0)
        assert currents[0] < 0 < currents[-1]
        assert abs(currents[8]) <= 1e-8  # f = 0.5 exactly

    def test_two_level_fit(self):
        fg = np.linspace(0.49, 0.51, 9)
        table = flux_spectrum_vs_f(self.params(), fg, k=2)
        delta, slope, resid = fit_two_level_gap(fg, table.gap())
        assert resid <= 0.02
        assert delta > 0 and slope > 0

    def test_two_level_fit_matches_a_least_squares_fit_of_the_gap(self):
        # the weighted linear fit of gap^2 against scipy's converged least
        # squares of the gap itself, on the spectrum of test_two_level_fit
        from scipy.optimize import curve_fit

        fg = np.linspace(0.49, 0.51, 9)
        gaps = flux_spectrum_vs_f(self.params(), fg, k=2).gap()

        def hyperbola(f, delta, c):
            return np.sqrt(delta**2 + (c * (f - 0.5)) ** 2)

        ref = curve_fit(hyperbola, fg, gaps, p0=(gaps.min(), 30.0), ftol=1e-15, xtol=1e-15, gtol=1e-15)[0]
        ref_resid = (np.abs(hyperbola(fg, *ref) - gaps) / gaps).max()
        delta, _, resid = fit_two_level_gap(fg, gaps)
        assert delta == pytest.approx(abs(ref[0]), rel=1e-4)
        assert resid <= ref_resid + 1e-4

    @pytest.mark.parametrize("gap", [0.0, -0.1, math.nan, math.inf])
    def test_two_level_fit_needs_finite_positive_gaps(self, gap):
        with pytest.raises(ValidationError, match="gaps finite and > 0"):
            fit_two_level_gap([0.49, 0.5, 0.51], [0.51, gap, 0.51])

    @pytest.mark.parametrize("delta, c", [(0.01, 50.0), (0.2, 300.0), (0.5, 10.0)])
    def test_two_level_fit_recovers_exact_hyperbola(self, delta, c):
        fg = np.linspace(0.49, 0.51, 9)
        fit_delta, fit_c, resid = fit_two_level_gap(fg, np.sqrt(delta**2 + (c * (fg - 0.5)) ** 2))
        assert fit_delta == pytest.approx(delta, rel=1e-12)
        assert fit_c == pytest.approx(c, rel=1e-12)
        assert resid <= 1e-12

    def test_two_level_fit_needs_points_off_half(self):
        # at f = 1/2 alone the slope does not enter the model
        with pytest.raises(FitError, match="singular"):
            fit_two_level_gap([0.5, 0.5, 0.5], [0.1, 0.1, 0.1])

    def test_state_grid_mismatch(self):
        pf = self.params(f=0.5)
        with pytest.raises(ValidationError):
            persistent_current(np.zeros(10), pf)

    def test_zero_state_rejected(self):
        m = 2 * self.CUTOFF + 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="no nonzero amplitude"):
                persistent_current(np.zeros(m * m), self.params(f=0.5))

    @pytest.mark.parametrize(
        "f_grid, gaps",
        [([0.49, 0.5, 0.51], [0.1, 0.2]), ([0.5], [0.1]), ([[0.49, 0.51]], [[0.1, 0.1]])],
        ids=["lengths", "one-point", "2d"],
    )
    def test_two_level_fit_input_shapes_rejected(self, f_grid, gaps):
        with pytest.raises(ValidationError, match="equal one-dimensional"):
            fit_two_level_gap(f_grid, gaps)


class TestFluxoid:
    @staticmethod
    def slope(p, x):  # U'(x), written out independently of scqsim.flux
        return p.ej * np.sin(x) + 2.0 * p.inductive_scale * (x - p.phi_ext)

    @staticmethod
    def curvature(p, x):
        return p.ej * np.cos(x) + 2.0 * p.inductive_scale

    @classmethod
    def nearest_float(cls, p, x):
        # no float next to x has a smaller |U'|
        neighbours = np.nextafter(x, [-np.inf, np.inf])
        return np.all(abs(cls.slope(p, x)) <= np.abs(cls.slope(p, neighbours)))

    @settings(max_examples=60, deadline=None)
    @given(
        ej=st.floats(0.5, 20.0),
        ratio=st.floats(0.02, 5.0),  # inductive_scale / Ej: Ej/(2 inductive_scale) up to 25
        phi_ext=st.floats(-2.0 * math.pi, 2.0 * math.pi),
    )
    def test_minima_are_bracketed_stationary_and_counted(self, ej, ratio, phi_ext):
        p = RfSquidParams(ej=ej, ec=1.0, inductive_scale=ratio * ej, phi_ext=phi_ext)
        # every stationary point lies within Ej/(2 inductive_scale) of phi_ext
        step = 3.0 * math.pi / 4000
        half = step * math.ceil((1.0 / (2.0 * ratio) + math.pi) / step)
        fine = np.linspace(phi_ext - half, phi_ext + half, 2 * round(half / step) + 1)
        sign_changes = np.diff(np.sign(self.slope(p, fine)))
        # every stationary point well inside the window and apart from the next
        # one, so the fine grid resolves each of them
        turns = np.concatenate([[fine[0]], fine[np.flatnonzero(sign_changes)], [fine[-1]]])
        assume(np.all(np.diff(turns) > 16 * step))
        minima = rf_squid_minima(p)
        # one minimum per - to + sign change of U' on the fine grid, inside it
        rising = np.flatnonzero(sign_changes > 0)
        assert len(minima) == rising.size
        for i, x in zip(rising, minima):
            assert fine[i] <= x <= fine[i + 1]
            assert self.curvature(p, x) > 0
            assert self.nearest_float(p, x)

    def test_far_minima_are_found(self):
        # Ej/(2 inductive_scale) = 15 > 3 pi: two minima lie outside phi_ext +- 3 pi
        p = RfSquidParams(ej=30.0, ec=0.1, inductive_scale=1.0, phi_ext=0.3)
        minima = rf_squid_minima(p)
        assert [classify_fluxoid(p, x).m for x in minima] == [-2, -1, 0, 1, 2]
        expected = [-11.65, -5.86, 0.02, 5.90, 11.70]
        np.testing.assert_allclose(minima, expected, atol=0.01)

    def test_shallow_minimum_near_its_critical_flux_is_found(self):
        # at Ej = 10, inductive_scale = 2 the m = 1 minimum vanishes at the flux
        # x_c = 2 pi - theta - 2.5 sin(theta), cos(theta) = -0.4; just above x_c it
        # is a shallow metastable well, U'' = 0.027, that a phase grid misses
        theta = math.acos(-0.4)
        x_c = 2.0 * math.pi - theta - 2.5 * math.sin(theta)
        p = RfSquidParams(ej=10.0, ec=0.1, inductive_scale=2.0, phi_ext=x_c + 1e-5)
        minima = rf_squid_minima(p)
        assert [classify_fluxoid(p, x).m for x in minima] == [0, 1]
        assert minima[1] == pytest.approx(4.30383, abs=1e-5)
        assert 0.0 < self.curvature(p, minima[1]) < 0.03
        assert all(self.nearest_float(p, x) for x in minima)

    @pytest.mark.parametrize("ej, inductive_scale", [(1e6, 1e-3), (1e308, 1e-10)])
    def test_window_above_the_point_cap_rejected(self, monkeypatch, ej, inductive_scale):
        # refused by name before any search, an infinite Ej/(2 inductive_scale) included
        def no_search(*args, **kwargs):
            raise AssertionError("the wells were searched")

        monkeypatch.setattr(flux, "_rf_squid_slope", no_search)
        p = RfSquidParams(ej=ej, ec=1.0, inductive_scale=inductive_scale)
        with pytest.raises(ValidationError, match="more than 8192 wells"):
            rf_squid_minima(p)

    def test_aligned_zero(self):
        p = RfSquidParams(ej=5.0, ec=0.15, inductive_scale=0.5, phi_ext=0.0)
        rec = classify_fluxoid(p, 0.0)
        assert rec == FluxoidRecord(phi_star=0.0, m=0, residual=0.0)

    def test_half_quantum_double_well(self):
        p = RfSquidParams(ej=5.0, ec=0.15, inductive_scale=0.5, phi_ext=np.pi)
        minima = rf_squid_minima(p)
        ms = sorted(classify_fluxoid(p, m).m for m in minima)
        assert ms == [0, 1]
        for m in minima:
            assert classify_fluxoid(p, m).residual <= 1e-6

    def test_full_quantum_dominant_minimum(self):
        p = RfSquidParams(ej=5.0, ec=0.15, inductive_scale=0.5, phi_ext=2 * np.pi)
        minima = rf_squid_minima(p)
        energies = [float(rf_squid_potential(m, p)) for m in minima]
        dominant = minima[int(np.argmin(energies))]
        assert classify_fluxoid(p, dominant).m == 1

    def test_non_stationary_rejected(self):
        p = RfSquidParams(ej=5.0, ec=0.15, inductive_scale=0.5, phi_ext=0.0)
        with pytest.raises(ValidationError):
            classify_fluxoid(p, 0.5)

    @pytest.mark.parametrize("phi_star", [math.nan, math.inf, -math.inf])
    def test_non_finite_phi_star_rejected(self, phi_star):
        p = RfSquidParams(ej=5.0, ec=0.15, inductive_scale=0.5, phi_ext=0.0)
        with pytest.raises(ValidationError, match="phi_star must be finite"):
            classify_fluxoid(p, phi_star)
