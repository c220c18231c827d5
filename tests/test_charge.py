"""Cooper-pair box tests.

Frozen reference numbers were computed with an independent oracle
(scipy.linalg.eigh_tridiagonal on the explicit charging/tunneling bands);
the same oracle runs live here for the sweep cross-checks.
"""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from scqsim.charge import (
    CpbParams,
    SpectrumTable,
    charge_operator,
    cpb_hamiltonian,
    ground_charge_expectation,
    minus_state,
    plus_state,
    reduced_two_level,
    spectrum_vs_ng,
    tunable_ej,
)
from scqsim.core import ValidationError, hermitian_eigen

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
        with pytest.raises(ValidationError):
            spectrum_vs_ng(CpbParams(ec=5.0, ej=1.0, cutoff=2), [0.5], k=5)

    def test_grid_bounds(self):
        with pytest.raises(ValidationError):
            spectrum_vs_ng(CpbParams(ec=5.0, ej=1.0, cutoff=5), [-0.1, 0.5], k=2)

    def test_table_validation(self):
        with pytest.raises(ValidationError):
            SpectrumTable(np.array([0.0]), np.array([[2.0, 1.0]]))
