"""Qubit-resonator model: exchange coupling, vacuum Rabi, strong coupling.

Rotating-wave (excitation-conserving) coupling on the product space
qubit (x) cavity, ordering (|g>, |e>) (x) (|0> ... |N>):

    H = (nu01/2) sz (x) I + I (x) nu_c a+a + g (s+ (x) a + s- (x) a+)

with sz = |e><e| - |g><g| here (energy basis).  Open-system runs add
cavity decay (a, rate kappa) and the qubit T1/T2 channels of
``DecoherenceParams.channels()``, each lifted as L (x) I.  Dynamics are
integrated in the frame rotating at the cavity frequency, where the
generator is exactly equivalent (the observable populations commute with
the frame transformation) and the generator's norm, which sets the Taylor
substeps of ``evolve_lindblad``, comes from g and the detuning instead of
the carrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityMatrix,
    HermitianOperator,
    QuantumState,
    ValidationError,
    _check_dense,
    _check_finite,
    _check_finite_values,
    _check_integral,
    _checked_time_grid,
    _unitary_trace,
    evolve_lindblad,
)
from .experiments import US_TO_NS, DecoherenceParams, ExperimentResult, FittedMetrics


@dataclass(frozen=True)
class JaynesCummingsParams:
    """Qubit-cavity parameters; kappa in 1/us, decoherence times in us.

    ``dimension`` = 2 (n_ph + 1) states must fit the dense cap: n_ph <= 2047.
    """

    nu01: float
    nu_c: float
    g: float
    n_ph: int = 5
    kappa_per_us: float = 0.0
    dec: DecoherenceParams | None = None

    def __post_init__(self):
        _check_finite(self, "nu01", "nu_c", "g", "n_ph", "kappa_per_us")
        _check_integral(n_ph=self.n_ph)
        if self.nu01 <= 0 or self.nu_c <= 0:
            raise ValidationError("qubit and cavity frequencies must be > 0")
        if self.g < 0:
            raise ValidationError("coupling g must be >= 0")
        if self.n_ph < 2:
            raise ValidationError("photon cutoff must be >= 2")
        _check_dense(self.dimension, f"photon cutoff {self.n_ph}")
        if self.kappa_per_us < 0:
            raise ValidationError("kappa must be >= 0")

    @property
    def dimension(self) -> int:
        return 2 * (self.n_ph + 1)


def _operators(n_ph: int):
    dim_c = n_ph + 1
    a = np.diag(np.sqrt(np.arange(1, dim_c)), k=1).astype(complex)
    ident_c = np.eye(dim_c, dtype=complex)
    sz = np.diag([-1.0, 1.0]).astype(complex)  # |e><e| - |g><g|, ordering (g, e)
    s_plus = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |e><g|
    ident_q = np.eye(2, dtype=complex)
    return a, ident_c, sz, s_plus, ident_q


def _hamiltonian_matrix(p: JaynesCummingsParams, frame_freq: float = 0.0) -> np.ndarray:
    """JC matrix, optionally in the frame rotating at frame_freq."""
    a, ident_c, sz, s_plus, ident_q = _operators(p.n_ph)
    number = a.conj().T @ a
    h = (
        0.5 * (p.nu01 - frame_freq) * np.kron(sz, ident_c)
        + (p.nu_c - frame_freq) * np.kron(ident_q, number)
        + p.g * (np.kron(s_plus, a) + np.kron(s_plus.conj().T, a.conj().T))
    )
    return h


def jc_hamiltonian(p: JaynesCummingsParams) -> HermitianOperator:
    """Lab-frame Jaynes-Cummings Hamiltonian, dimension 2 (N_ph + 1)."""
    return HermitianOperator(_hamiltonian_matrix(p))


def excitation_operator(p: JaynesCummingsParams) -> HermitianOperator:
    """Total excitation number |e><e| (x) I + I (x) a+a (conserved by H)."""
    a, ident_c, _, _, ident_q = _operators(p.n_ph)
    proj_e = np.diag([0.0, 1.0]).astype(complex)
    return HermitianOperator(np.kron(proj_e, ident_c) + np.kron(ident_q, a.conj().T @ a))


def _channels(p: JaynesCummingsParams):
    a, ident_c, _, _, ident_q = _operators(p.n_ph)
    chans = []
    if p.kappa_per_us > 0:
        chans.append((np.kron(ident_q, a), p.kappa_per_us / US_TO_NS))
    if p.dec is not None:
        chans += [(np.kron(L, ident_c), rate) for L, rate in p.dec.channels()]
    return chans


def vacuum_rabi(p: JaynesCummingsParams, t_grid) -> ExperimentResult:
    """Excited-qubit population starting from |e, 0 photons>.

    Closed and resonant: P_e(t) = cos^2(2 pi g t), a full revival every
    1/(2g) ns.  With kappa or qubit decoherence the exchange envelope
    decays.
    """
    t_grid = _checked_time_grid(t_grid)
    dim_c = p.n_ph + 1
    psi0 = np.zeros(2 * dim_c, dtype=complex)
    psi0[dim_c] = 1.0  # |e> (x) |0>
    proj_e = np.kron(np.diag([0.0, 1.0]), np.eye(dim_c))

    h_rot = HermitianOperator(_hamiltonian_matrix(p, frame_freq=p.nu_c))
    chans = _channels(p)
    if not chans:
        states = _unitary_trace(h_rot, QuantumState(psi0), t_grid)
        pop = np.array([float(np.real(s.amplitudes.conj() @ proj_e @ s.amplitudes))
                        for s in states])
    else:
        rho0 = DensityMatrix(np.outer(psi0, psi0.conj()))
        rhos = evolve_lindblad(h_rot, chans, rho0, t_grid, verify=False)
        pop = np.array([rho.expectation(proj_e) for rho in rhos])
    return ExperimentResult(
        time_grid=t_grid,
        population=pop,
        fitted=FittedMetrics(nu01=p.nu01, visibility=float(pop.max() - pop.min())),
    )


@dataclass(frozen=True)
class StrongCouplingReport:
    """Strong-coupling verdict with the three compared time scales (ns)."""

    satisfied: bool
    marginal: bool
    rabi_period_ns: float
    qubit_t2_ns: float
    photon_lifetime_ns: float
    margin: float


def strong_coupling_check(p: JaynesCummingsParams, margin: float = 10.0) -> StrongCouplingReport:
    """True when margin * (Rabi period 1/(2g)) <= min(T2, 1/kappa).

    Equality counts as satisfied and is flagged marginal.
    """
    _check_finite_values(margin=margin)
    if margin < 1.0:
        raise ValidationError("margin must be >= 1")
    if p.g <= 0:
        raise ValidationError("strong-coupling check needs g > 0")
    period = 1.0 / (2.0 * p.g)
    t2 = p.dec.t2_us * US_TO_NS if p.dec is not None else math.inf
    lifetime = US_TO_NS / p.kappa_per_us if p.kappa_per_us > 0 else math.inf
    limit = min(t2, lifetime)
    lhs = margin * period
    satisfied = lhs <= limit or math.isclose(lhs, limit, rel_tol=1e-12)
    marginal = satisfied and math.isclose(lhs, limit, rel_tol=1e-12)
    return StrongCouplingReport(
        satisfied=satisfied,
        marginal=marginal,
        rabi_period_ns=period,
        qubit_t2_ns=t2,
        photon_lifetime_ns=lifetime,
        margin=margin,
    )
