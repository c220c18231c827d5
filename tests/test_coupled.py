"""Coupled charge-qubit pair and CNOT pulse tests."""

import math

import numpy as np
import pytest

from scqsim.core import SIGMA_X, SIGMA_Z, HermitianOperator, ValidationError
from scqsim.coupled import (
    CoupledParams,
    DrivePulse,
    TruthTable,
    capacitive_hamiltonian,
    coupled_eigenstates,
    coupled_energies,
    coupled_hamiltonian,
    pi_pulse_duration,
    simulate_cnot,
    transition_table,
)

P_REF = CoupledParams(ej1=10.0, ej2=7.0, chi=1.0)


class TestHamiltonian:
    def test_analytic_eigenvalues(self):
        np.testing.assert_allclose(coupled_energies(P_REF), [18.0, 2.0, -4.0, -16.0], atol=1e-12)

    def test_eigenpairs_hold_for_any_chi(self):
        states = coupled_eigenstates()
        for chi in (0.0, 0.35, 2.0, -1.4):
            p = CoupledParams(ej1=10.0, ej2=7.0, chi=chi)
            h = coupled_hamiltonian(p).entries
            e = coupled_energies(p)
            for k in range(4):
                np.testing.assert_allclose(h @ states[:, k], e[k] * states[:, k], atol=1e-12)

    def test_eigenvectors_invariant_under_chi(self):
        # overlap matrix between the chi = 0 and chi = 2 eigenbases is the identity
        def basis(chi):
            p = CoupledParams(ej1=10.0, ej2=7.0, chi=chi)
            w, v = np.linalg.eigh(coupled_hamiltonian(p).entries)
            return w, v

        states = coupled_eigenstates()
        for chi in (0.0, 2.0):
            _, v = basis(chi)
            overlaps = np.abs(states.conj().T @ v)
            # each numerical eigenvector matches one analytic column exactly
            assert np.allclose(np.sort(overlaps.max(axis=0)), 1.0, atol=1e-10)

    def test_chi_zero_is_product_spectrum(self):
        p = CoupledParams(ej1=10.0, ej2=7.0, chi=0.0)
        w = np.sort(coupled_energies(p))
        singles = sorted(s1 + s2 for s1 in (-10.0, 10.0) for s2 in (-7.0, 7.0))
        np.testing.assert_allclose(w, singles, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            CoupledParams(ej1=0.0, ej2=1.0)


class TestTransitions:
    def test_frequencies_and_elements(self):
        records = {rec.pair: rec for rec in transition_table(P_REF)}
        lower = records[("-+", "--")]
        upper = records[("++", "+-")]
        assert lower.frequency == pytest.approx(12.0, abs=1e-12)
        assert upper.frequency == pytest.approx(16.0, abs=1e-12)
        assert lower.matrix_element == pytest.approx(1.0, abs=1e-12)
        assert upper.matrix_element == pytest.approx(1.0, abs=1e-12)

    def test_cross_branch_elements_vanish(self):
        records = {rec.pair: rec for rec in transition_table(P_REF)}
        for pair in (("++", "-+"), ("++", "--"), ("+-", "-+"), ("+-", "--")):
            assert records[pair].matrix_element == pytest.approx(0.0, abs=1e-12)

    def test_chi_zero_degenerate_frequencies(self):
        records = {rec.pair: rec for rec in transition_table(CoupledParams(ej1=10.0, ej2=7.0))}
        assert records[("-+", "--")].frequency == records[("++", "+-")].frequency == 14.0


class TestCnot:
    def pulse(self, amplitude=0.2, frequency=12.0, duration=None):
        return DrivePulse(
            amplitude=amplitude,
            frequency=frequency,
            duration=pi_pulse_duration(amplitude) if duration is None else duration,
        )

    def test_pi_pulse_duration(self):
        assert pi_pulse_duration(0.2) == pytest.approx(2.5, abs=0.0)

    def test_cnot_truth_table(self):
        table = simulate_cnot(P_REF, self.pulse())
        assert table.fidelity >= 0.99
        assert not table.off_resonant
        pops = table.populations
        for i, j in ((0, 0), (1, 1), (2, 3), (3, 2)):
            assert pops[i, j] >= 0.99
        np.testing.assert_allclose(pops.sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(pops.sum(axis=0), 1.0, atol=1e-6)  # doubly stochastic

    def test_chi_zero_cannot_flip_conditionally(self):
        p0 = CoupledParams(ej1=10.0, ej2=7.0, chi=0.0)
        table = simulate_cnot(p0, self.pulse(frequency=14.0))
        assert table.fidelity <= 0.8

    def test_zero_amplitude_is_identity(self):
        table = simulate_cnot(P_REF, DrivePulse(amplitude=0.0, frequency=12.0, duration=2.5))
        np.testing.assert_allclose(np.diag(table.populations), 1.0, atol=1e-6)

    def test_selectivity_improves_at_weaker_drive(self):
        fids = []
        for amp in (1.0, 0.5, 0.2):
            table = simulate_cnot(P_REF, self.pulse(amplitude=amp))
            fids.append(table.fidelity)
        assert fids[0] < fids[1] < fids[2]

    def test_mirrored_drive_flips_plus_branch(self):
        table = simulate_cnot(P_REF, self.pulse(frequency=16.0))
        pops = table.populations
        for i, j in ((0, 1), (1, 0), (2, 2), (3, 3)):
            assert pops[i, j] >= 0.99

    def test_off_resonant_warning(self):
        table = simulate_cnot(P_REF, self.pulse(frequency=30.0))
        assert table.off_resonant
        np.testing.assert_allclose(np.diag(table.populations), 1.0, atol=5e-3)

    def test_truth_table_validation(self):
        with pytest.raises(ValidationError):
            TruthTable(populations=np.full((4, 4), 0.5), fidelity=0.5)

    @pytest.mark.parametrize("shape", [(3, 3), (4,), (4, 2)])
    def test_truth_table_shape_refused(self, shape):
        with pytest.raises(ValidationError, match="truth table must be 4x4"):
            TruthTable(populations=np.full(shape, 0.25), fidelity=0.5)

    def test_pulse_validation(self):
        with pytest.raises(ValidationError):
            DrivePulse(amplitude=-0.1, frequency=1.0, duration=1.0)
        with pytest.raises(ValidationError):
            pi_pulse_duration(0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_pi_pulse_of_non_finite_amplitude_rejected(self, bad):
        with pytest.raises(ValidationError, match="amplitude must be finite"):
            pi_pulse_duration(bad)

    def test_unknown_target_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="unknown drive target 'sigma_q'"):
            DrivePulse(amplitude=0.1, frequency=1.0, duration=1.0, target="sigma_q")

    def test_sigma_x_pulse_rejected(self):
        pulse = DrivePulse(amplitude=0.2, frequency=12.0, duration=2.5, target="sigma_x")
        with pytest.raises(ValidationError, match="couples through sigma_z"):
            simulate_cnot(P_REF, pulse)

    def test_coefficient_is_the_waveform(self):
        pulse = DrivePulse(amplitude=0.2, frequency=12.0, duration=2.5, phase=0.3)
        t = np.linspace(0.0, 2.5, 7)
        expected = 0.2 * np.cos(2.0 * math.pi * 12.0 * t + 0.3)
        assert np.array_equal(pulse.coefficient(t), expected)

    @pytest.mark.parametrize("field", ["amplitude", "frequency", "duration", "phase"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_pulse_non_finite_rejected(self, field, bad):
        kw = dict(amplitude=0.1, frequency=1.0, duration=1.0, phase=0.0)
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            DrivePulse(**{**kw, field: bad})

    @pytest.mark.parametrize("field", ["ej1", "ej2", "chi"])
    def test_params_non_finite_rejected(self, field):
        kw = dict(ej1=5.0, ej2=4.0, chi=0.2)
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            CoupledParams(**{**kw, field: math.nan})


class TestCapacitive:
    def test_zero_coupling_product_spectrum(self):
        h1 = HermitianOperator(3.0 * SIGMA_Z)
        h2 = HermitianOperator(-2.0 * SIGMA_X)
        h = capacitive_hamiltonian(h1, h2, 0.0)
        w = np.sort(np.linalg.eigvalsh(h.entries))
        expected = np.sort([a + b for a in (-3.0, 3.0) for b in (-2.0, 2.0)])
        np.testing.assert_allclose(w, expected, atol=1e-12)

    def test_degeneracy_point_against_dense_oracle(self):
        # both qubits at the degeneracy point: Hi = -(Ei/2) sx
        e1, e2, chi_c = 4.0, 3.0, 0.8
        h = capacitive_hamiltonian(
            HermitianOperator(-(e1 / 2.0) * SIGMA_X),
            HermitianOperator(-(e2 / 2.0) * SIGMA_X),
            chi_c,
        )
        oracle = (
            np.kron(-(e1 / 2.0) * SIGMA_X, np.eye(2))
            + np.kron(np.eye(2), -(e2 / 2.0) * SIGMA_X)
            + chi_c * np.kron(SIGMA_Z, SIGMA_Z)
        )
        np.testing.assert_allclose(
            np.linalg.eigvalsh(h.entries), np.linalg.eigvalsh(oracle), atol=1e-12
        )

    def test_strong_coupling_pins_charge_sectors(self):
        # chi_c -> infinity: each eigenvector sits in one sz(1) sz(2)
        # eigensector (the product states within a sector stay degenerate
        # and mix freely, so the sector projection is the sharp statement)
        e1, e2 = 4.0, 3.0
        chi_c = 100.0 * max(e1, e2)
        h = capacitive_hamiltonian(
            HermitianOperator(-(e1 / 2.0) * SIGMA_X),
            HermitianOperator(-(e2 / 2.0) * SIGMA_X),
            chi_c,
        )
        _, v = np.linalg.eigh(h.entries)
        zz = np.kron(SIGMA_Z, SIGMA_Z)
        plus_sector = (np.eye(4) + zz) / 2.0
        for k in range(4):
            weight = float(np.real(v[:, k].conj() @ plus_sector @ v[:, k]))
            assert max(weight, 1.0 - weight) >= 0.99

    def test_two_level_inputs_required(self):
        with pytest.raises(ValidationError):
            capacitive_hamiltonian(
                HermitianOperator(np.eye(3)), HermitianOperator(SIGMA_Z), 0.1
            )
