"""Qubit-resonator model: exchange coupling, vacuum Rabi, strong coupling.

Rotating-wave (excitation-conserving) coupling on the product space
qubit (x) cavity, ordering (|g>, |e>) (x) (|0> ... |N>):

    H = (nu01/2) sz (x) I + I (x) nu_c a+a + g (s+ (x) a + s- (x) a+)

with the energy-basis qubit of ``experiments``: sz = |e><e| - |g><g|
(``_SZ``) and s- = |g><e| (``_LOWER``).  Open-system runs add cavity
decay (a, rate kappa) and every qubit protocol's channels,
``DecoherenceParams.channels()`` (s- and sz), each lifted as L (x) I.

``vacuum_rabi`` starts in |e0> and solves only the sector {|g0>, |e0>, |g1>},
whatever N is.  The sector is closed: H conserves the excitation number,
a and s- take each sector state to |g0> or to zero, and sz and every L+L
are diagonal.  Its frame rotates at nu_c, which moves no population and
keeps the carrier out of the generator norm that sets ``evolve_lindblad``'s
Taylor substeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
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
from .experiments import _LOWER, _SZ, US_TO_NS, DecoherenceParams, ExperimentResult, FittedMetrics


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
    ident_q = np.eye(2, dtype=complex)
    return a, ident_c, _SZ, _LOWER.T, ident_q


def jc_hamiltonian(p: JaynesCummingsParams) -> HermitianOperator:
    """Lab-frame Jaynes-Cummings Hamiltonian, dimension 2 (N_ph + 1)."""
    a, ident_c, sz, s_plus, ident_q = _operators(p.n_ph)
    return HermitianOperator(
        0.5 * p.nu01 * np.kron(sz, ident_c)
        + p.nu_c * np.kron(ident_q, a.conj().T @ a)
        + p.g * (np.kron(s_plus, a) + np.kron(s_plus.conj().T, a.conj().T))
    )


def excitation_operator(p: JaynesCummingsParams) -> HermitianOperator:
    """Total excitation number |e><e| (x) I + I (x) a+a (conserved by H)."""
    a, ident_c, _, s_plus, ident_q = _operators(p.n_ph)
    proj_e = s_plus @ s_plus.conj().T
    return HermitianOperator(np.kron(proj_e, ident_c) + np.kron(ident_q, a.conj().T @ a))


def vacuum_rabi(p: JaynesCummingsParams, t_grid) -> ExperimentResult:
    """Excited-qubit population starting from |e, 0 photons>.

    Solved on the sector (|g0>, |e0>, |g1>), which H and every channel map
    into itself (module docstring), so ``n_ph`` does not change the trace.
    In the frame at nu_c, H = diag(-D/2, D/2, -D/2) plus g on |e0>-|g1>,
    D = nu01 - nu_c; a = |g0><g1|, and each qubit channel L of ``p.dec`` is
    L (x) I restricted to the sector (s- gives |g0><e0|).
    Closed: P_e = 1 - (4 g^2 / W^2) sin^2(pi W t), W = sqrt(D^2 + 4 g^2),
    so resonant P_e = cos^2(2 pi g t), a full revival every 1/(2g) ns.
    With kappa or qubit decoherence the exchange envelope decays.
    """
    t_grid = _checked_time_grid(t_grid)
    ket = np.eye(3, dtype=complex)  # |g0>, |e0>, |g1>
    half_detuning = 0.5 * (p.nu01 - p.nu_c)
    h = np.diag([-half_detuning, half_detuning, -half_detuning]).astype(complex)
    h[1, 2] = h[2, 1] = p.g
    h_rot = HermitianOperator(h)
    psi0 = QuantumState(ket[1])
    chans = []
    if p.kappa_per_us > 0:
        chans.append((np.outer(ket[0], ket[2]), p.kappa_per_us / US_TO_NS))
    if p.dec is not None:  # rows and columns |g0>, |e0>, |g1> of L (x) I on (g, e) (x) (0, 1)
        sector = np.ix_([0, 2, 1], [0, 2, 1])
        chans += [(np.kron(L, np.eye(2))[sector], rate) for L, rate in p.dec.channels()]
    if not chans:
        states = _unitary_trace(h_rot, psi0, t_grid)
    else:
        states = evolve_lindblad(h_rot, chans, psi0.density_matrix(), t_grid, verify=False)
    pop = np.array([s.population(1) for s in states])
    return ExperimentResult(
        time_grid=t_grid,
        population=pop,
        fitted=FittedMetrics(visibility=float(pop.max() - pop.min())),
    )


@dataclass(frozen=True)
class StrongCouplingReport:
    """Strong-coupling verdict with the three compared time scales (ns)."""

    satisfied: bool
    marginal: bool
    rabi_period_ns: float
    qubit_t2_ns: float
    photon_lifetime_ns: float


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
    )
