"""Cooper-pair box tests.

Frozen reference numbers were computed with an independent oracle
(scipy.linalg.eigh_tridiagonal on the explicit charging/tunneling bands);
the same oracle runs live here for the sweep cross-checks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from scqsim import charge
from scqsim.charge import (
    CpbParams,
    SpectrumTable,
    charge_operator,
    cpb_hamiltonian,
    cpb_levels,
    ground_charge_expectation,
    minus_state,
    plus_state,
    reduced_two_level,
    spectrum_vs_ng,
    tunable_ej,
)
from scqsim.core import DIMENSION_CAP, ValidationError, hermitian_eigen

# oracle values at ng = 0.5, frozen from eigh_tridiagonal
GAP_EC5_EJ1_N10 = 0.997507662237  # E1 - E0 for Ec=5, Ej=1, N=10
RATIO_EC5_EJ1 = 9.5613705504  # (E2-E1)/(E1-E0) for Ec/Ej = 5, N=20
RATIO_EC1_EJ1 = 1.7935410005  # same for Ec/Ej = 1, N=20


def oracle_levels(ec, ej, ng, cutoff, k=6):
    n = np.arange(-cutoff, cutoff + 1)
    return eigh_tridiagonal(
        ec * (n - ng) ** 2,
        np.full(2 * cutoff, -ej / 2.0),
        eigvals_only=True,
        select="i",
        select_range=(0, k - 1),
    )


class TestHamiltonian:
    def test_diagonal_limit(self):
        # Ej = 0, ng = 0: eigenvalues {0, Ec, Ec, 4Ec, 4Ec, ...}
        p = CpbParams(ec=3.0, ej=0.0, ng=0.0, cutoff=5)
        w = np.sort(np.linalg.eigvalsh(cpb_hamiltonian(p).entries))
        np.testing.assert_allclose(w[:5], [0.0, 3.0, 3.0, 12.0, 12.0], atol=1e-12)

    def test_matrix_structure(self):
        p = CpbParams(ec=2.0, ej=1.5, ng=0.3, cutoff=2)
        h = cpb_hamiltonian(p).entries
        n = np.arange(-2, 3)
        np.testing.assert_allclose(np.diag(h).real, 2.0 * (n - 0.3) ** 2, atol=1e-14)
        np.testing.assert_allclose(np.diag(h, 1).real, -0.75, atol=1e-14)
        assert np.abs(np.diag(h, 2)).max() == 0.0

    def test_gap_at_degeneracy(self):
        w = oracle_levels(5.0, 1.0, 0.5, 10, k=2)
        assert w[1] - w[0] == pytest.approx(GAP_EC5_EJ1_N10, abs=1e-9)
        p = CpbParams(ec=5.0, ej=1.0, ng=0.5, cutoff=10)
        dec = hermitian_eigen(cpb_hamiltonian(p))
        gap = dec.eigenvalues[1] - dec.eigenvalues[0]
        assert gap == pytest.approx(GAP_EC5_EJ1_N10, abs=1e-9)
        assert abs(gap - 1.0) / 1.0 < 0.01  # within 1% of the two-level value Ej

    def test_cutoff_convergence(self):
        for ec, ej, ng, n in [(5.0, 1.0, 0.5, 10), (1.0, 1.0, 0.3, 20), (5.0, 1.0, 0.25, 10)]:
            w1 = np.linalg.eigvalsh(cpb_hamiltonian(CpbParams(ec=ec, ej=ej, ng=ng, cutoff=n)).entries)[:5]
            w2 = np.linalg.eigvalsh(cpb_hamiltonian(CpbParams(ec=ec, ej=ej, ng=ng, cutoff=2 * n)).entries)[:5]
            assert np.abs(w1 - w2).max() <= 1e-10

    def test_integer_shift_periodicity(self):
        p0 = CpbParams(ec=5.0, ej=1.0, ng=0.13, cutoff=10)
        p1 = CpbParams(ec=5.0, ej=1.0, ng=1.13, cutoff=10)
        w0 = np.linalg.eigvalsh(cpb_hamiltonian(p0).entries)[:5]
        w1 = np.linalg.eigvalsh(cpb_hamiltonian(p1).entries)[:5]
        assert np.abs(w0 - w1).max() <= 1e-10

    def test_ground_charge_expectation(self):
        p = CpbParams(ec=5.0, ej=1.0, ng=0.5, cutoff=10)
        assert ground_charge_expectation(p) == pytest.approx(0.5, abs=1e-9)

    def test_charge_operator(self):
        op = charge_operator(3)
        np.testing.assert_allclose(np.diag(op), np.arange(-3, 4), atol=0)


class TestReducedTwoLevel:
    def test_degeneracy_point(self):
        p = CpbParams(ec=5.0, ej=2.0, ng=0.5, cutoff=10)
        dec = hermitian_eigen(reduced_two_level(p))
        np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)
        # ground state is |-> = (|0> + |1>)/sqrt2
        ground = dec.eigenvectors[:, 0]
        assert abs(np.vdot(minus_state().amplitudes, ground)) == pytest.approx(1.0, abs=1e-12)
        excited = dec.eigenvectors[:, 1]
        assert abs(np.vdot(plus_state().amplitudes, excited)) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_away_from_degeneracy(self):
        p = CpbParams(ec=5.0, ej=1.0, ng=0.0, cutoff=10)
        dec = hermitian_eigen(reduced_two_level(p))
        expected = np.sqrt(6.25 + 0.25)
        np.testing.assert_allclose(dec.eigenvalues, [-expected, expected], atol=1e-12)
        assert expected == pytest.approx(2.5495, abs=1e-4)

    def test_pure_charge_limit(self):
        p = CpbParams(ec=2.0, ej=0.0, ng=0.4, cutoff=10)
        dec = hermitian_eigen(reduced_two_level(p))
        np.testing.assert_allclose(dec.eigenvalues, [-0.2, 0.2], atol=1e-12)
        for k in (0, 1):
            amps = np.abs(dec.eigenvectors[:, k])
            assert amps.max() == pytest.approx(1.0, abs=1e-12)  # pure charge states

    @pytest.mark.parametrize("ng", np.linspace(0.45, 0.55, 11))
    def test_two_level_matches_full_gap(self, ng):
        p = CpbParams(ec=5.0, ej=1.0, ng=float(ng), cutoff=10)
        full = np.linalg.eigvalsh(cpb_hamiltonian(p).entries)
        gap_full = full[1] - full[0]
        red = np.linalg.eigvalsh(reduced_two_level(p).entries)
        gap_red = red[1] - red[0]
        assert abs(gap_full - gap_red) / gap_full <= 0.02


class TestTunableEj:
    def test_endpoints(self):
        assert tunable_ej(7.0, 0.0) == pytest.approx(14.0, abs=0.0)
        assert abs(tunable_ej(7.0, 0.5)) < 1e-14
        assert tunable_ej(7.0, 1.0 / 3.0) == pytest.approx(7.0, abs=1e-13)

    def test_signed_value(self):
        assert tunable_ej(1.0, 0.75) < 0.0

    def test_squid_params_use_magnitude(self):
        p = CpbParams(ec=5.0, ej0=1.0, flux_ratio=0.75, ng=0.5, cutoff=10)
        assert p.effective_ej == pytest.approx(np.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("ej0, ratio", [(1.0, math.nan), (math.inf, 0.0)])
    def test_non_finite_input_rejected(self, ej0, ratio):
        with pytest.raises(ValidationError, match="must be finite"):
            tunable_ej(ej0, ratio)

    def test_validation(self):
        with pytest.raises(ValidationError):
            tunable_ej(-1.0, 0.0)
        with pytest.raises(ValidationError):
            CpbParams(ec=1.0, ej=1.0, ej0=1.0, flux_ratio=0.5)
        with pytest.raises(ValidationError):
            CpbParams(ec=1.0)
        with pytest.raises(ValidationError):
            CpbParams(ec=1.0, ej0=1.0)
        with pytest.raises(ValidationError):
            CpbParams(ec=-1.0, ej=1.0)
        with pytest.raises(ValidationError):
            CpbParams(ec=1.0, ej=1.0, cutoff=1)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(ec=math.nan, ej=1.0),
            dict(ec=math.inf, ej=1.0),
            dict(ec=1.0, ej=math.nan),
            dict(ec=1.0, ej=1.0, ng=math.inf),
            dict(ec=1.0, ej0=math.inf, flux_ratio=0.5),
            dict(ec=1.0, ej0=1.0, flux_ratio=math.nan),
        ],
    )
    def test_non_finite_rejected(self, kw):
        with pytest.raises(ValidationError, match="must be finite"):
            CpbParams(**kw)

    def test_non_integral_cutoff_rejected(self):
        with pytest.raises(ValidationError, match="cutoff must be an integer"):
            CpbParams(ec=1.0, ej=1.0, cutoff=4.5)


# random boxes whose three lowest levels stay far from the charge cutoff
BOXES = dict(
    ec=st.floats(0.2, 10.0),
    ratio=st.floats(0.0, 4.0),  # Ej/Ec
    cutoff=st.integers(10, 25),
    ng=st.floats(0.0, 1.0),
)


def lowest_levels(ec, ej, ng, cutoff, k=3):
    p = CpbParams(ec=ec, ej=ej, ng=ng, cutoff=cutoff)
    return np.linalg.eigvalsh(cpb_hamiltonian(p).entries)[:k]


class TestOffsetChargeSymmetries:
    """E(ng) = E(ng + 1) = E(-ng): one Cooper pair shifts n, and n -> -n reflects."""

    @settings(max_examples=60, deadline=None)
    @given(**BOXES)
    def test_period_one(self, ec, ratio, cutoff, ng):
        here = lowest_levels(ec, ratio * ec, ng, cutoff)
        there = lowest_levels(ec, ratio * ec, ng + 1.0, cutoff)
        assert np.abs(here - there).max() <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(**BOXES)
    def test_reflection(self, ec, ratio, cutoff, ng):
        here = lowest_levels(ec, ratio * ec, ng, cutoff)
        mirrored = lowest_levels(ec, ratio * ec, -ng, cutoff)
        assert np.abs(here - mirrored).max() <= 1e-9

class TestSpectrum:
    def test_separation_ratios(self):
        charge = spectrum_vs_ng(CpbParams(ec=5.0, ej=1.0, cutoff=20), [0.5], k=3).levels[0]
        r_charge = (charge[2] - charge[1]) / (charge[1] - charge[0])
        assert r_charge == pytest.approx(RATIO_EC5_EJ1, abs=1e-6)
        assert r_charge > 5.0

        mixed = spectrum_vs_ng(CpbParams(ec=1.0, ej=1.0, cutoff=20), [0.5], k=3).levels[0]
        r_mixed = (mixed[2] - mixed[1]) / (mixed[1] - mixed[0])
        assert r_mixed == pytest.approx(RATIO_EC1_EJ1, abs=1e-6)
        assert r_mixed < r_charge

    def test_against_oracle_on_grid(self):
        p = CpbParams(ec=5.0, ej=1.0, cutoff=10)
        grid = np.linspace(0.0, 1.0, 11)
        table = spectrum_vs_ng(p, grid, k=4)
        for ng, row in zip(grid, table.levels):
            np.testing.assert_allclose(row, oracle_levels(5.0, 1.0, ng, 10, k=4), atol=1e-9)

    def test_symmetry_about_half(self):
        p = CpbParams(ec=5.0, ej=1.0, cutoff=10)
        for delta in (0.05, 0.17, 0.31):
            lo = spectrum_vs_ng(p, [0.5 - delta], k=5).levels[0]
            hi = spectrum_vs_ng(p, [0.5 + delta], k=5).levels[0]
            assert np.abs(lo - hi).max() <= 1e-9

    def test_rows_ascending_and_shape(self):
        table = spectrum_vs_ng(CpbParams(ec=5.0, ej=1.0, cutoff=10), np.linspace(0, 1, 7), k=5)
        assert table.levels.shape == (7, 5)
        assert np.all(np.diff(table.levels, axis=1) >= 0)

    def test_k_too_large(self):
        with pytest.raises(ValidationError, match="cutoff 2 gives 5 levels, fewer than the 6 "):
            spectrum_vs_ng(CpbParams(ec=5.0, ej=1.0, cutoff=2), [0.5], k=6)

    @pytest.mark.parametrize("k", [-1, 0])
    def test_fewer_than_one_level_rejected(self, k):
        with pytest.raises(ValidationError, match="need at least one level"):
            spectrum_vs_ng(CpbParams(ec=5.0, ej=1.0, cutoff=2), [0.1], k=k)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError, match="at least one control value"):
            spectrum_vs_ng(CpbParams(ec=5.0, ej=1.0, cutoff=2), [], k=2)

    @pytest.mark.parametrize("grid", [0.5, [[0.5]]], ids=["scalar", "2d"])
    def test_grid_of_other_shape_rejected(self, grid):
        with pytest.raises(ValidationError, match="ng grid must be one-dimensional"):
            spectrum_vs_ng(CpbParams(ec=5.0, ej=1.0, cutoff=2), grid, k=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_rejected(self, bad):
        # NaN passes the [0, 1] range test; the grid check itself refuses it
        with pytest.raises(ValidationError, match="^ng grid has non-finite values$"):
            spectrum_vs_ng(CpbParams(ec=5.0, ej=1.0, cutoff=2), [0.5, bad], k=2)

    @settings(max_examples=60, deadline=None)
    @given(
        ec=st.floats(0.01, 50.0),
        ej=st.floats(0.0, 200.0),
        cutoff=st.integers(2, 40),
        grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30),
    )
    def test_stacked_sweep_is_the_level_routine_bit_for_bit(self, ec, ej, cutoff, grid):
        # one stacked real solve gives each point's own solve and the complex
        # solve of its Hamiltonian, every level
        k = 2 * cutoff + 1
        rows = spectrum_vs_ng(CpbParams(ec=ec, ej=ej, cutoff=cutoff), grid, k=k).levels
        for ng, row in zip(grid, rows):
            p = CpbParams(ec=ec, ej=ej, ng=ng, cutoff=cutoff)
            assert np.array_equal(row, cpb_levels(p, k))
            assert np.array_equal(row, np.linalg.eigvalsh(cpb_hamiltonian(p).entries)[:k])

    def test_stack_is_solved_in_blocks_within_the_budget(self, monkeypatch):
        # a small budget splits the sweep; the rows are those of one stack
        p = CpbParams(ec=5.0, ej=1.0, cutoff=10)
        grid = np.linspace(0.0, 1.0, 8)
        whole = spectrum_vs_ng(p, grid, k=5).levels
        shapes = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or solve(a))
        monkeypatch.setattr(charge, "_STACK_ENTRIES", 3 * 21**2 + 20)
        assert np.array_equal(spectrum_vs_ng(p, grid, k=5).levels, whole)
        assert shapes == [(3, 21, 21), (3, 21, 21), (2, 21, 21)]

    def test_sweep_at_the_dense_cap_solves_one_matrix_at_a_time(self, monkeypatch):
        # 2N + 1 = 4095 states: each call holds one matrix, not the whole sweep
        shapes = []
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or np.zeros(a.shape[:2])
        )
        table = spectrum_vs_ng(CpbParams(ec=5.0, ej=1.0, cutoff=2047), [0.0, 0.5, 1.0], k=2)
        assert table.levels.shape == (3, 2)
        assert shapes == [(1, 4095, 4095)] * 3
        assert charge._STACK_ENTRIES == DIMENSION_CAP**2

    def test_sweep_rows_are_the_level_routine(self):
        # the SQUID form sweeps through the same routine as its ej form
        p = CpbParams(ec=5.0, ej0=1.0, flux_ratio=0.2, cutoff=4)
        grid = [0.0, 0.3, 1.0]
        rows = spectrum_vs_ng(p, grid, k=9).levels
        for ng, row in zip(grid, rows):
            flat = CpbParams(ec=5.0, ej=p.effective_ej, ng=ng, cutoff=4)
            assert np.array_equal(row, cpb_levels(flat, 9))

    def test_every_level_of_the_box(self):
        # k = 2N + 1 returns the whole spectrum of the 2N + 1 charge states
        p = CpbParams(ec=5.0, ej=1.0, cutoff=2)
        for ng in (0.0, 0.3, 0.5):
            row = spectrum_vs_ng(p, [ng], k=5).levels[0]
            np.testing.assert_allclose(row, oracle_levels(5.0, 1.0, ng, 2, k=5), atol=1e-12)

    def test_grid_bounds(self):
        with pytest.raises(ValidationError):
            spectrum_vs_ng(CpbParams(ec=5.0, ej=1.0, cutoff=5), [-0.1, 0.5], k=2)

    @pytest.mark.parametrize(
        "control, levels, message",
        [
            ([], np.zeros((0, 2)), "at least one control value"),
            ([0.0, 0.5], [[1.0, 2.0]], "one level row per control value"),
        ],
        ids=["empty-control", "row-count"],
    )
    def test_table_shape_refused(self, control, levels, message):
        with pytest.raises(ValidationError, match=message):
            SpectrumTable(np.array(control), np.array(levels))

    def test_table_validation(self):
        with pytest.raises(ValidationError):
            SpectrumTable(np.array([0.0]), np.array([[2.0, 1.0]]))
