"""Flux-qubit tests: potentials, 1D/2D solvers, currents, fluxoid."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from scqsim.core import ConvergenceError, ValidationError
from scqsim.flux import (
    FluxoidRecord,
    Levels2D,
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
)


class TestRfSquidPotential:
    def test_at_origin(self):
        p = RfSquidParams(ej=4.0, ec=1.0, inductive_scale=0.5, phi_ext=0.0)
        assert rf_squid_potential(0.0, p) == pytest.approx(-4.0, abs=0.0)

    def test_double_well_at_pi(self):
        # Ej/(2 * inductive) > 1: two minima symmetric about phi = pi
        p = RfSquidParams(ej=2.0, ec=0.4, inductive_scale=0.35, phi_ext=np.pi)
        minima = rf_squid_minima(p, span=2 * np.pi)
        assert len(minima) == 2
        assert minima[0] + minima[1] == pytest.approx(2 * np.pi, abs=1e-8)

    def test_strong_inductance_single_minimum(self):
        p = RfSquidParams(ej=1.0, ec=0.4, inductive_scale=50.0, phi_ext=1.3)
        minima = rf_squid_minima(p, span=2 * np.pi)
        assert len(minima) == 1
        assert minima[0] == pytest.approx(1.3, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValidationError):
            RfSquidParams(ej=0.0, ec=1.0, inductive_scale=1.0)

    @pytest.mark.parametrize("field", ["ej", "ec", "inductive_scale", "phi_ext"])
    def test_non_finite_rejected(self, field):
        fields = {"ej": 4.0, "ec": 1.0, "inductive_scale": 0.5, field: math.nan}
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            RfSquidParams(**fields)


class TestSolve1D:
    def test_harmonic_oracle(self):
        # H = Ec n^2 + (k/2) phi^2: spacing 2 sqrt(Ec k / 2)
        ec, spring = 2.0, 3.0
        lv = solve_levels_1d(lambda x: 0.5 * spring * x**2, ec, -12.0, 12.0, grid=1024, k=6)
        spacing = np.diff(lv.energies)
        expected = 2.0 * math.sqrt(ec * spring / 2.0)
        assert np.abs(spacing / expected - 1.0).max() < 1e-3

    def test_free_particle_on_ring(self):
        ec = 0.7
        lv = solve_levels_1d(
            lambda x: np.zeros_like(x), ec, -np.pi, np.pi, grid=256, k=5, boundary="ring"
        )
        np.testing.assert_allclose(lv.energies, ec * np.array([0, 1, 1, 4, 4]), atol=1e-6)

    def test_double_well_parity_and_splitting(self):
        p = RfSquidParams(ej=2.0, ec=0.4, inductive_scale=0.35, phi_ext=np.pi)
        lv = solve_levels_1d(
            lambda x: rf_squid_potential(x, p), p.ec, np.pi - 6.0, np.pi + 6.0, grid=1024, k=2
        )
        delta = lv.energies[1] - lv.energies[0]
        assert delta > 1e-3  # tunneling splitting is strictly positive
        even, odd = lv.states[:, 0], lv.states[:, 1]
        assert np.abs(even - even[::-1]).max() < 1e-6 * np.abs(even).max() * 1e3
        assert np.abs(odd + odd[::-1]).max() < 1e-6 * np.abs(odd).max() * 1e3

    def test_grid_doubling_converged(self):
        p = RfSquidParams(ej=2.0, ec=0.4, inductive_scale=0.35, phi_ext=np.pi)
        a = solve_levels_1d(lambda x: rf_squid_potential(x, p), p.ec, np.pi - 6, np.pi + 6, 1024, k=3)
        b = solve_levels_1d(lambda x: rf_squid_potential(x, p), p.ec, np.pi - 6, np.pi + 6, 2048, k=3)
        assert np.abs(a.energies - b.energies).max() <= 1e-6

    def test_small_grid_rejected(self):
        with pytest.raises(ValidationError):
            solve_levels_1d(lambda x: x * 0.0, 1.0, -1.0, 1.0, grid=64, k=2)

    def test_nonconvergence_reported(self):
        with pytest.raises(ConvergenceError):
            solve_levels_1d(
                lambda x: 0.5 * x**2, 1.0, -10.0, 10.0, grid=128, k=2, tol=1e-16, max_grid=256
            )

    def test_ring_needs_full_period(self):
        with pytest.raises(ValidationError):
            solve_levels_1d(lambda x: x * 0.0, 1.0, -1.0, 1.0, grid=128, k=2, boundary="ring")


class TestThreeJunctionPotential:
    @pytest.mark.parametrize("field", ["ej", "ec", "alpha", "f"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        fields = {"ej": 3.0, "ec": 1.0, "alpha": 0.8, "f": 0.5, field: value}
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
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
            ThreeJunctionParams(ej=1.0, ec=1.0, grid_points=16)


class TestSolve2D:
    def test_blocked_matches_direct_dense(self):
        # independent assembly: explicit kron of the same stencil
        from scqsim.flux import _circulant_d2

        p = ThreeJunctionParams(ej=40.0, ec=1.0, alpha=0.8, f=0.47, grid_points=32)
        g = p.grid_points
        d2 = _circulant_d2(g)
        kin = -p.ec * (np.kron(d2, np.eye(g)) + np.kron(np.eye(g), d2))
        phi = -np.pi + 2 * np.pi * np.arange(g) / g
        pp1, pp2 = np.meshgrid(phi, phi, indexing="ij")
        dense = kin + np.diag(three_junction_potential(pp1, pp2, p).ravel())
        w_direct = np.linalg.eigvalsh(dense)[:6]
        w_blocked = solve_three_junction(p, k=6).energies
        np.testing.assert_allclose(w_blocked, w_direct, atol=1e-9)

    def test_states_are_eigenvectors(self):
        from scqsim.flux import _circulant_d2

        p = ThreeJunctionParams(ej=40.0, ec=1.0, alpha=0.8, f=0.5, grid_points=32)
        sol = solve_three_junction(p, k=2, want_states=True)
        g = p.grid_points
        d2 = _circulant_d2(g)
        kin = -p.ec * (np.kron(d2, np.eye(g)) + np.kron(np.eye(g), d2))
        phi = -np.pi + 2 * np.pi * np.arange(g) / g
        pp1, pp2 = np.meshgrid(phi, phi, indexing="ij")
        dense = kin + np.diag(three_junction_potential(pp1, pp2, p).ravel())
        for idx in range(2):
            v = sol.states[:, idx]
            residual = np.linalg.norm(dense @ v - sol.energies[idx] * v)
            assert residual < 1e-8 * np.linalg.norm(dense, 2)

    def test_grid_doubling_2d(self):
        # documented default grid is 48; doubling moves levels < 1e-4 GHz
        p48 = ThreeJunctionParams(ej=40.0, ec=1.0, alpha=0.8, f=0.5, grid_points=48)
        p96 = replace(p48, grid_points=96)
        w48 = solve_three_junction(p48, k=6).energies
        w96 = solve_three_junction(p96, k=6).energies
        assert np.abs(w48 - w96).max() <= 1e-4


class TestFluxSweep:
    GRID = 32  # coarse for unit tests; the acceptance suite runs the default 48

    def params(self, **kw):
        return ThreeJunctionParams(ej=40.0, ec=1.0, alpha=0.8, grid_points=self.GRID, **kw)

    def test_symmetry_and_min_gap(self):
        fg = np.linspace(0.45, 0.55, 11)
        table = flux_spectrum_vs_f(self.params(), fg, k=4)
        assert np.abs(table.levels - table.levels[::-1]).max() <= 1e-8
        gaps = table.gap()
        assert fg[int(np.argmin(gaps))] == pytest.approx(0.5, abs=1e-12)

    def test_k_capped(self):
        with pytest.raises(ValidationError):
            flux_spectrum_vs_f(self.params(), [0.5], k=7)

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

    def test_state_grid_mismatch(self):
        pf = self.params(f=0.5)
        with pytest.raises(ValidationError):
            persistent_current(np.zeros(10), pf)


class TestFluxoid:
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
