"""Phase-qubit tests: washboard potential, bound levels, readout ordering."""

import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from scqsim import phase
from scqsim.core import ConvergenceError, ValidationError
from scqsim.flux import _sine_dvr
from scqsim.phase import (
    PhaseQubitParams,
    bound_state_count,
    plasma_spacing,
    readout_transitions,
    washboard_potential,
    well_domain,
    well_levels,
)

EJ = 10.0


def params(s=0.0, ratio=1e4):
    return PhaseQubitParams(ej=EJ, ec=EJ / ratio, s=s)


class TestPotential:
    def test_untilted_origin(self):
        assert washboard_potential(0.0, params()) == pytest.approx(-EJ, abs=0.0)

    def test_minimum_at_arcsin(self):
        p = params(s=0.6)
        phi0 = math.asin(0.6)
        # U'(phi0) = Ej (sin phi0 - s) = 0
        eps = 1e-6
        left = washboard_potential(phi0 - eps, p)
        right = washboard_potential(phi0 + eps, p)
        assert washboard_potential(phi0, p) < min(left, right)

    def test_bias_cap(self):
        with pytest.raises(ValidationError):
            PhaseQubitParams(ej=EJ, ec=1e-3, s=1.0)
        with pytest.raises(ValidationError):
            PhaseQubitParams(ej=EJ, ec=1e-3, s=-0.1)

    def test_regime_warning(self):
        with pytest.warns(UserWarning):
            PhaseQubitParams(ej=1.0, ec=0.5, s=0.0)

    @pytest.mark.parametrize("field", ["ej", "ec", "s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        fields = {"ej": EJ, "ec": EJ / 1e4, "s": 0.2, field: value}
        with pytest.raises(ValidationError, match=field):
            PhaseQubitParams(**fields)

    @pytest.mark.parametrize("ej, ec", [(0.0, 1e-3), (-EJ, 1e-3), (EJ, 0.0), (EJ, -1e-3)])
    def test_non_positive_energies_rejected(self, ej, ec):
        with pytest.raises(ValidationError, match="Ej and Ec must be > 0"):
            PhaseQubitParams(ej=ej, ec=ec)

    def test_domain_brackets_minimum(self):
        p = params(s=0.4)
        lo, hi = well_domain(p)
        assert lo < math.asin(0.4) < hi


class TestWellLevels:
    def test_harmonic_limit(self):
        # s = 0, Ej/Ec = 1e6: spacing sqrt(2 Ec Ej) within 2%
        p = params(s=0.0, ratio=1e6)
        wl = well_levels(p, k=2)
        spacing = wl.energies[1] - wl.energies[0]
        assert spacing == pytest.approx(math.sqrt(2.0 * p.ec * p.ej), rel=0.02)

    @pytest.mark.parametrize("s", np.linspace(0.0, 0.95, 8))
    def test_anharmonicity(self, s):
        wl = well_levels(params(s=float(s)), k=3)
        if wl.energies.size >= 3:
            e = wl.energies
            assert (e[2] - e[1]) < (e[1] - e[0])

    def test_cubic_correction_formula(self):
        # E1 - E0 within 3% of (1 - s^2)^(1/4) sqrt(2 Ec Ej) while >= 5 bound
        for s in (0.0, 0.2, 0.4, 0.6, 0.8):
            p = params(s=s)
            wl = well_levels(p, k=5)
            assert not wl.truncated  # >= 5 bound states here
            gap = wl.energies[1] - wl.energies[0]
            assert gap == pytest.approx(plasma_spacing(p), rel=0.03)

    def test_count_non_increasing(self):
        counts = [bound_state_count(params(s=float(s))) for s in np.arange(0.0, 0.91, 0.1)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] > counts[-1] > 0
        # pinned: the Sturm-count path does not use the level extrapolation
        assert counts == [180, 144, 119, 97, 77, 60, 44, 29, 17, 6]

    def test_truncated_flag_and_exact_count(self):
        p = params(s=0.9)
        exact = bound_state_count(p)
        wl = well_levels(p, k=exact + 10)
        assert wl.truncated
        assert wl.bound_count == exact
        assert wl.energies.size == exact
        ok = well_levels(p, k=2)
        assert not ok.truncated and ok.energies.size == 2

    def test_levels_below_barrier(self):
        p = params(s=0.5)
        wl = well_levels(p, k=6)
        assert np.all(wl.energies < wl.barrier_top)
        assert np.all(np.diff(wl.energies) > 0)
        assert wl.well_minimum < wl.energies[0]

    @pytest.mark.parametrize("s", [0.2, 0.8])
    def test_levels_match_fine_plain_stencil(self, s):
        # an independent discretization: the plain 2nd-order stencil on 2^19
        # interior points is within ~3e-8 spacings of the continuum limit
        # at Ej/Ec = 1e4 (truncation and rounding alike)
        p = params(s=s)
        lo, hi = well_domain(p)
        phi, h = np.linspace(lo, hi, (1 << 19) + 2, retstep=True)
        diag = 2.0 * p.ec / h**2 + washboard_potential(phi[1:-1], p)
        off = np.full(diag.size - 1, -p.ec / h**2)
        fine = sla.eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 4))
        wl = well_levels(p, k=5)
        assert np.abs(wl.energies - fine).max() <= 1e-7 * plasma_spacing(p)

    def test_more_points_change_nothing(self, monkeypatch):
        p = params(s=0.3)
        a = well_levels(p, k=2)
        count = bound_state_count(p)
        monkeypatch.setattr(phase, "_POINT_FACTOR", 2.0)
        b = well_levels(p, k=2)
        assert np.abs(a.energies - b.energies).max() <= 1e-8 * plasma_spacing(p)
        assert bound_state_count(p) == count

    def test_unsettled_refinement_raises(self, monkeypatch):
        # too few points per momentum quantum: the 1.5x refinement moves the
        # levels and changes the count, and neither is passed off as a result
        monkeypatch.setattr(phase, "_POINT_FACTOR", 0.5)
        monkeypatch.setattr(phase, "_POINT_MARGIN", 0)
        with pytest.raises(ConvergenceError, match="bound levels of the well differ"):
            bound_state_count(params(s=0.2))
        with pytest.raises(ConvergenceError, match="well levels moved"):
            well_levels(params(s=0.2), k=5)

    def test_non_integral_k_rejected(self):
        with pytest.raises(ValidationError, match="k must be an integer"):
            well_levels(params(), k=2.5)

    @pytest.mark.parametrize("k", [0, -1])
    def test_fewer_than_one_level_rejected(self, k):
        with pytest.raises(ValidationError, match="k must be >= 1"):
            well_levels(params(), k=k)

    def test_exhaustive_count_above_the_cap_rejected(self):
        # counting every level of an Ej/Ec = 1e6 well needs ~6000 points
        p = params(s=0.0, ratio=1e6)
        with pytest.raises(ValidationError, match="states, above the dense-storage cap 4096"):
            bound_state_count(p)
        assert not well_levels(p, k=3).truncated  # the lowest levels stay cheap

    @pytest.mark.parametrize("s", [0.0, 0.5, 0.9])
    def test_well_overlap_matches_quadrature(self, s):
        from scipy.integrate import simpson
        from scipy.optimize import brentq

        p = params(s=s)
        lo, hi = well_domain(p)
        barrier = washboard_potential(hi, p)
        left = lo
        if s > 0.0:  # the left turning point at the barrier-top energy
            left = brentq(lambda x: washboard_potential(x, p) - barrier, lo, math.asin(s))
        wall, turn = phase._left_wall(p, barrier)
        assert turn == pytest.approx(left, abs=1e-12)
        width = hi - wall
        x = np.linspace(left, hi, 40001)
        m = np.arange(1, 13)
        modes = math.sqrt(2.0 / width) * np.sin(np.pi * np.outer(m, x - wall) / width)
        quad = simpson(modes[:, None, :] * modes[None, :, :], x=x)
        overlap = phase._well_overlap(math.pi * (turn - wall) / width, 12)
        np.testing.assert_allclose(overlap, quad, atol=1e-12)


def _solves(p):
    """The k = 3 and k = 5 levels and the exhaustive count's levels of the well."""
    return [well_levels(p, k) for k in (3, 5, 1 << 20)]


def _assert_same_solves(got, want, p):
    for a, b in zip(got, want):
        assert a.bound_count == b.bound_count
        assert a.energies.shape == b.energies.shape
        assert np.abs(a.energies - b.energies).max(initial=0.0) <= 1e-8 * plasma_spacing(p)


class TestLeftWall:
    """The left DVR wall sits where the barrier-top WKB decay reaches double rounding."""

    @pytest.mark.parametrize("s", [0.0, 0.1, 0.3, 0.5, 0.7, 0.85, 0.9])
    def test_matches_the_full_domain(self, s, monkeypatch):
        p = params(s=s)
        got = _solves(p)
        # an exponent that is never reached keeps the wall at the left barrier maximum
        monkeypatch.setattr(phase, "_WALL_DECAY", math.inf)
        lo, hi = well_domain(p)
        assert phase._left_wall(p, float(washboard_potential(hi, p)))[0] == lo
        _assert_same_solves(got, _solves(p), p)

    @pytest.mark.parametrize("s", [0.3, 0.6])
    def test_wider_wall_changes_nothing(self, s, monkeypatch):
        p = params(s=s)
        got = _solves(p)
        monkeypatch.setattr(phase, "_WALL_DECAY", 2.0 * phase._WALL_DECAY)
        _assert_same_solves(got, _solves(p), p)

    @settings(max_examples=60, deadline=None)
    @given(s=st.floats(0.0, 0.99), ratio=st.floats(1e3, 1e6))
    def test_never_closer_than_the_decay_rule(self, s, ratio):
        # the exponent at the wall, by adaptive quadrature, reaches ln(2^53)/2,
        # also for s > 0.915, where the integrand is not concave
        from scipy.integrate import quad

        p = params(s=s, ratio=ratio)
        lo, hi = well_domain(p)
        barrier = float(washboard_potential(hi, p))
        wall, turn = phase._left_wall(p, barrier)
        assert lo <= wall <= turn < math.asin(s)

        def kappa(x):
            return math.sqrt(max(float(washboard_potential(x, p)) - barrier, 0.0) / p.ec)

        decay = quad(kappa, wall, turn, epsabs=1e-10, epsrel=1e-12, limit=200)[0]
        rule = 0.5 * math.log(2.0**53)
        # at the maximum, the lower sum missed the rule and trails the exponent by under 1 %
        assert decay >= rule if wall > lo else decay < 1.01 * rule

    @pytest.mark.parametrize("s, most", [(0.6, (140, 210)), (0.0, (428, 642))])
    def test_exhaustive_count_points(self, s, most, monkeypatch):
        # a structural guard on the solved sizes, not a timing
        sizes = []

        def recording(potential, ec, lo, hi, n):
            sizes.append(n)
            return _sine_dvr(potential, ec, lo, hi, n)

        monkeypatch.setattr(phase, "_sine_dvr", recording)
        bound_state_count(params(s=s))
        assert len(sizes) == 2 and all(n <= m for n, m in zip(sizes, most))
        if s == 0.0:
            assert tuple(sizes) == most


class TestReadout:
    def test_ordering_everywhere(self):
        for s in (0.0, 0.3, 0.6, 0.9):
            nu01, nu12 = readout_transitions(params(s=s))
            assert nu12 < nu01

    def test_huge_ratio(self):
        nu01, nu12 = readout_transitions(params(s=0.9, ratio=1e6))
        assert nu12 / nu01 < 1.0

    def test_tilt_softens_and_empties_the_well(self):
        freqs = [readout_transitions(params(s=s))[0] for s in (0.0, 0.3, 0.6, 0.9)]
        assert all(a > b for a, b in zip(freqs, freqs[1:]))
        counts = [bound_state_count(params(s=s)) for s in (0.0, 0.5, 0.9)]
        assert counts[0] > counts[1] > counts[2]

    def test_too_few_bound_states(self):
        # a nearly washed-out well holds fewer than three levels
        shallow = PhaseQubitParams(ej=10.0, ec=10.0 / 1e3, s=0.98)
        assert bound_state_count(shallow) < 3
        with pytest.raises(ValidationError):
            readout_transitions(shallow)
