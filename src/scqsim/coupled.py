"""Inductively coupled charge-qubit pair and the frequency-selective CNOT.

At the co-degeneracy point the pair is
``H = -E1* sx(1) - E2* sx(2) + chi sx(1) sx(2)``; it is diagonal in the
product basis of ``|+-> = (|0> -+ |1>)/sqrt(2)`` (``sx |+-> = -+|+->``),
so its eigenstates do not move when the coupling chi is tuned.  A
microwave drive through the gate capacitance enters as sz on the driven
qubit, connecting only ``(s1, +) <-> (s1, -)`` at the chi-split
frequencies ``2|E2* - chi|`` and ``2|E2* + chi|``.  A resonant pi pulse
on the lower branch realizes the CNOT truth table.

The pulse simulation integrates the full time-dependent Hamiltonian
``H + A cos(2 pi nu t) sz(2)`` (rectangular pulse, no rotating-wave
approximation), so calibration error from counter-rotating terms shows
up in the reported fidelity.  The rotating-frame pi-pulse duration for
this drive is ``1/(2A)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    SIGMA_X,
    SIGMA_Z,
    ConvergenceError,
    HermitianOperator,
    ValidationError,
    _check_finite,
    _checked_time_grid,
    _rk4_driven,
    _TWO_PI,
    tensor_product,
)

_EIGENBASIS_LABELS = ("++", "+-", "-+", "--")


@dataclass(frozen=True)
class CoupledParams:
    """Inductively coupled pair: effective Josephson energies and coupling (GHz)."""

    ej1: float
    ej2: float
    chi: float = 0.0
    basis: str = "product-plus-minus"  # eigenbasis ordering ++, +-, -+, --

    def __post_init__(self):
        _check_finite(self, "ej1", "ej2", "chi")
        if self.ej1 <= 0 or self.ej2 <= 0:
            raise ValidationError("effective Josephson energies must be > 0")


@dataclass(frozen=True)
class DrivePulse:
    """Rectangular microwave pulse applied through a gate capacitance."""

    amplitude: float  # GHz
    frequency: float  # GHz
    duration: float  # ns
    phase: float = 0.0
    target: str = "sigma_z"

    def __post_init__(self):
        _check_finite(self, "amplitude", "frequency", "duration", "phase")
        if self.amplitude < 0:
            raise ValidationError("amplitude must be >= 0")
        if self.duration < 0:
            raise ValidationError("duration must be >= 0")


@dataclass(frozen=True)
class TransitionRecord:
    pair: tuple[str, str]
    frequency: float
    matrix_element: float


@dataclass(frozen=True)
class TruthTable:
    """Final populations (row = initial eigenstate) and CNOT fidelity."""

    populations: np.ndarray
    fidelity: float
    off_resonant: bool = False

    def __post_init__(self):
        pops = np.asarray(self.populations, dtype=float)
        if pops.shape != (4, 4):
            raise ValidationError("truth table must be 4x4")
        if np.abs(pops.sum(axis=1) - 1.0).max() > 1e-6:
            raise ValidationError("rows must sum to 1 within 1e-6")
        object.__setattr__(self, "populations", pops)


def pi_pulse_duration(amplitude: float) -> float:
    """Rotating-frame pi-pulse length 1/(2A) for H_d = A cos(2 pi nu t) sz."""
    if amplitude <= 0:
        raise ValidationError("amplitude must be > 0")
    return 1.0 / (2.0 * amplitude)


def coupled_hamiltonian(p: CoupledParams) -> HermitianOperator:
    """4x4 pair Hamiltonian in the charge product basis."""
    sx = HermitianOperator(SIGMA_X)
    ident = HermitianOperator(np.eye(2, dtype=complex))
    h = (
        -p.ej1 * tensor_product(sx, ident).entries
        - p.ej2 * tensor_product(ident, sx).entries
        + p.chi * tensor_product(sx, sx).entries
    )
    return HermitianOperator(h)


def coupled_eigenstates() -> np.ndarray:
    """Columns |++>, |+->, |-+>, |--> in the charge product basis.

    These are chi-independent: tuning the coupling moves the eigenvalues
    but not the eigenvectors.
    """
    plus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
    minus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    return np.stack([np.kron(a, b) for a in (plus, minus) for b in (plus, minus)], axis=1)


def coupled_energies(p: CoupledParams) -> np.ndarray:
    """Eigenvalues ordered as |++>, |+->, |-+>, |-->."""
    e1, e2, chi = p.ej1, p.ej2, p.chi
    return np.array([e1 + e2 + chi, e1 - e2 - chi, -e1 + e2 - chi, -e1 - e2 + chi])


def transition_table(p: CoupledParams) -> list[TransitionRecord]:
    """All eigenstate pairs with frequency and |<i| sz(2) |j>| for a qubit-2 drive."""
    energies = coupled_energies(p)
    states = coupled_eigenstates()
    sz2 = np.kron(np.eye(2), SIGMA_Z)
    records = []
    for i in range(4):
        for j in range(i + 1, 4):
            elem = abs(states[:, i].conj() @ sz2 @ states[:, j])
            records.append(
                TransitionRecord(
                    pair=(_EIGENBASIS_LABELS[i], _EIGENBASIS_LABELS[j]),
                    frequency=float(abs(energies[i] - energies[j])),
                    matrix_element=float(elem),
                )
            )
    return records


_CNOT_MAP = (0, 1, 3, 2)  # |++>, |+-> fixed; |-+> <-> |-->


def simulate_cnot(p: CoupledParams, pulse: DrivePulse) -> TruthTable:
    """Drive the pair from each eigenstate and tabulate final populations.

    Fidelity is the mean population on the CNOT target states.  A
    pulse detuned from both sz(2) transitions by more than 10x its
    amplitude sets ``off_resonant`` (no flip is expected there).
    """
    if pulse.target != "sigma_z":
        raise ValidationError("the gate-capacitance drive couples through sigma_z")
    h0 = coupled_hamiltonian(p).entries
    drive_op = np.kron(np.eye(2), SIGMA_Z).astype(complex)
    states = coupled_eigenstates()

    freqs = (2.0 * abs(p.ej2 - p.chi), 2.0 * abs(p.ej2 + p.chi))
    detuning = min(abs(pulse.frequency - f) for f in freqs)
    off_resonant = pulse.amplitude > 0 and detuning > 10.0 * pulse.amplitude

    scale = max(np.linalg.norm(h0, 2) + pulse.amplitude, pulse.frequency, 1.0)
    steps_per_ns = 250.0 * scale

    def coeff(t):
        return pulse.amplitude * np.cos(2.0 * math.pi * pulse.frequency * t + pulse.phase)

    a0, a1 = -1j * _TWO_PI * h0, -1j * _TWO_PI * drive_op
    grid = _checked_time_grid([pulse.duration])
    final = _rk4_driven(a0, a1, coeff, states, grid, steps_per_ns)[-1]
    pops = np.abs(states.conj().T @ final) ** 2  # [j, i] = P(j | started in i)
    pops = pops.T
    drift = np.abs(pops.sum(axis=1) - 1.0).max()
    if drift > 1e-6:
        raise ConvergenceError(
            f"pulse integration lost {drift:.2e} of norm at {steps_per_ns:.4g} RK4 steps per ns"
        )
    fidelity = float(np.mean([pops[i, _CNOT_MAP[i]] for i in range(4)]))
    return TruthTable(populations=pops, fidelity=fidelity, off_resonant=off_resonant)


def capacitive_hamiltonian(
    q1: HermitianOperator, q2: HermitianOperator, chi_c: float
) -> HermitianOperator:
    """Charge-charge coupled pair: H1 (x) I + I (x) H2 + chi_c sz(1) sz(2)."""
    if q1.dimension != 2 or q2.dimension != 2:
        raise ValidationError("capacitive coupling is defined for two-level qubits")
    ident = HermitianOperator(np.eye(2, dtype=complex))
    sz = HermitianOperator(SIGMA_Z)
    h = (
        tensor_product(q1, ident).entries
        + tensor_product(ident, q2).entries
        + chi_c * tensor_product(sz, sz).entries
    )
    return HermitianOperator(h)
