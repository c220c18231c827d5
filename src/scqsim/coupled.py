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

``DrivePulse`` describes a drive once, here and in ``experiments.rabi``:
its waveform ``coefficient``, its ``target`` operator and the CLI's
``[pulse]`` keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    SIGMA_X,
    SIGMA_Z,
    HermitianOperator,
    ValidationError,
    _check_finite,
    _check_finite_values,
    _driven_trace,
    _freeze,
)

_EIGENBASIS_LABELS = ("++", "+-", "-+", "--")
# the Pauli operator a drive couples through, by DrivePulse.target
_DRIVE_TARGETS = {"sigma_x": SIGMA_X, "sigma_z": SIGMA_Z}
_ID2 = _freeze(np.eye(2, dtype=complex))
# sz(2), the gate-capacitance drive on qubit 2
_SZ2 = _freeze(np.kron(_ID2, SIGMA_Z))


@dataclass(frozen=True)
class CoupledParams:
    """Inductively coupled pair: effective Josephson energies and coupling (GHz)."""

    ej1: float
    ej2: float
    chi: float = 0.0

    def __post_init__(self):
        _check_finite(self, "ej1", "ej2", "chi")
        if self.ej1 <= 0 or self.ej2 <= 0:
            raise ValidationError("effective Josephson energies must be > 0")


@dataclass(frozen=True)
class DrivePulse:
    """Rectangular microwave pulse ``A cos(2 pi nu t + phase)`` along ``target``.

    ``target`` names the Pauli operator the drive couples through:
    ``"sigma_z"`` (a gate capacitance) or ``"sigma_x"``.
    """

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
        if self.target not in _DRIVE_TARGETS:
            raise ValidationError(
                f"unknown drive target {self.target!r}; choose from {sorted(_DRIVE_TARGETS)}"
            )

    def coefficient(self, t):
        """Drive amplitude at time(s) t in ns, in GHz."""
        return self.amplitude * np.cos(2.0 * math.pi * self.frequency * t + self.phase)


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
    _check_finite_values(amplitude=amplitude)
    if amplitude <= 0:
        raise ValidationError("amplitude must be > 0")
    return 1.0 / (2.0 * amplitude)


def coupled_hamiltonian(p: CoupledParams) -> HermitianOperator:
    """4x4 pair Hamiltonian in the charge product basis."""
    h = (
        -p.ej1 * np.kron(SIGMA_X, _ID2)
        - p.ej2 * np.kron(_ID2, SIGMA_X)
        + p.chi * np.kron(SIGMA_X, SIGMA_X)
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
    records = []
    for i in range(4):
        for j in range(i + 1, 4):
            elem = abs(states[:, i].conj() @ _SZ2 @ states[:, j])
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
    states = coupled_eigenstates()

    freqs = (2.0 * abs(p.ej2 - p.chi), 2.0 * abs(p.ej2 + p.chi))
    detuning = min(abs(pulse.frequency - f) for f in freqs)
    off_resonant = pulse.amplitude > 0 and detuning > 10.0 * pulse.amplitude

    final = _driven_trace(h0, _SZ2, pulse, states, [pulse.duration])[-1]
    pops = (np.abs(states.conj().T @ final) ** 2).T  # [i, j] = P(j | started in i)
    fidelity = float(np.mean([pops[i, _CNOT_MAP[i]] for i in range(4)]))
    return TruthTable(populations=pops, fidelity=fidelity, off_resonant=off_resonant)


def capacitive_hamiltonian(
    q1: HermitianOperator, q2: HermitianOperator, chi_c: float
) -> HermitianOperator:
    """Charge-charge coupled pair: H1 (x) I + I (x) H2 + chi_c sz(1) sz(2)."""
    if q1.dimension != 2 or q2.dimension != 2:
        raise ValidationError("capacitive coupling is defined for two-level qubits")
    h = (
        np.kron(q1.entries, _ID2)
        + np.kron(_ID2, q2.entries)
        + chi_c * np.kron(SIGMA_Z, SIGMA_Z)
    )
    return HermitianOperator(h)
