"""Independent references for the result checks.

Nothing here calls scqsim: each function solves the same physics by a
different method (charge basis instead of the phase grid, matrix
exponentials instead of RK4, perturbation theory, closed forms), so a
check compares two independent answers.  Units follow scqsim: GHz, ns,
propagator exp(-i 2 pi H t).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import scipy.linalg as sla

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


# --- charge qubit -----------------------------------------------------------


def cpb_levels(ec: float, ej: float, ng: float, cutoff: int, k: int) -> np.ndarray:
    """Lowest k levels of Ec (n - ng)^2 - Ej cos(phi) in the charge basis."""
    n = np.arange(-cutoff, cutoff + 1, dtype=float)
    off = np.full(n.size - 1, -ej / 2.0)
    return sla.eigvalsh_tridiagonal(ec * (n - ng) ** 2, off, select="i", select_range=(0, k - 1))


def two_level_excited_population(ec: float, ej: float, ng: float, t) -> np.ndarray:
    """P(|1>) from |0> under H = eps sz - (Ej/2) sx, eps = Ec (ng - 1/2)."""
    eps = ec * (ng - 0.5)
    omega = math.hypot(eps, ej / 2.0)
    return (ej / 2.0 / omega) ** 2 * np.sin(2.0 * math.pi * omega * np.asarray(t)) ** 2


# --- three-junction flux qubit (charge basis, Orlando et al. PRB 60 15398) ---


FLUX_CUTOFF = 10  # charges -10..10 per island: converged to < 1e-6 GHz at Ej/Ec ~ 40
FLUX_LEVELS = 6


def _three_junction_matrix(ej, ec, alpha, f):
    n = np.arange(-FLUX_CUTOFF, FLUX_CUTOFF + 1)
    m = n.size
    n1, n2 = np.meshgrid(n, n, indexing="ij")
    h = np.diag((ec * (n1**2 + n2**2) + ej * (2.0 + alpha)).ravel()).astype(complex)
    idx = np.arange(m * m).reshape(m, m)
    for a, b in ((idx[1:, :], idx[:-1, :]), (idx[:, 1:], idx[:, :-1])):  # cos p1, cos p2
        h[a.ravel(), b.ravel()] -= ej / 2.0
        h[b.ravel(), a.ravel()] -= ej / 2.0
    # cos(2 pi f + p1 - p2): e^{i p1} e^{-i p2} maps |n1, n2> to |n1 + 1, n2 - 1>
    a, b = idx[1:, :-1].ravel(), idx[:-1, 1:].ravel()
    phase = np.exp(2j * math.pi * f)
    h[a, b] -= 0.5 * alpha * ej * phase
    h[b, a] -= 0.5 * alpha * ej * np.conj(phase)
    return h


def three_junction_levels(ej, ec, alpha, f) -> np.ndarray:
    """Lowest FLUX_LEVELS levels."""
    h = _three_junction_matrix(ej, ec, alpha, f)
    return sla.eigh(h, eigvals_only=True, subset_by_index=(0, FLUX_LEVELS - 1))


def three_junction_current(ej, ec, alpha, f) -> float:
    """Ground-state persistent current -alpha Im<exp(i(2 pi f + p1 - p2))> (units of Ej)."""
    h = _three_junction_matrix(ej, ec, alpha, f)
    _, v = sla.eigh(h, subset_by_index=(0, 0))
    c = v[:, 0].reshape(2 * FLUX_CUTOFF + 1, 2 * FLUX_CUTOFF + 1)
    shift = np.sum(np.conj(c[1:, :-1]) * c[:-1, 1:])
    return float(-alpha * np.imag(np.exp(2j * math.pi * f) * shift))


# --- phase qubit --------------------------------------------------------------


def washboard_levels_pt(ej: float, ec: float, s: float, count: int) -> np.ndarray:
    """Well levels from perturbation theory about the washboard minimum.

    Cubic term to second order and quartic term to first order
    (Landau-Lifshitz section 38).  At Ej/Ec = 1e4 and s <= 0.3 the
    transitions agree with a converged grid solution to < 1e-4 of the
    plasma spacing.
    """
    c = math.sqrt(1.0 - s * s)
    w = math.sqrt(2.0 * ec * ej * c)  # plasma spacing
    l2 = 2.0 * ec / w  # oscillator length^2 for mass 1/(2 Ec)
    cubic = -ej * s / 6.0
    quartic = -ej * c / 24.0
    n = np.arange(count, dtype=float)
    return (
        w * (n + 0.5)
        - 3.75 * cubic**2 * l2**3 / w * (n * n + n + 11.0 / 30.0)
        + 1.5 * quartic * l2**2 * (n * n + n + 0.5)
    )


def washboard_bound_count(ej: float, ec: float, s: float, grid: int, band: float) -> tuple:
    """Bound-level count on a fixed fine grid, as (certain, possible).

    A level is bound when it lies below the barrier and >= 99 % of its
    probability is in the well.  ``certain`` counts levels with in-well
    probability >= 0.99 + band, ``possible`` those >= 0.99 - band.
    """
    a = math.asin(s)
    lo, hi = -math.pi - a, math.pi - a
    phi = np.linspace(lo, hi, grid + 2)[1:-1]
    h = phi[1] - phi[0]
    u = -ej * (np.cos(phi) + s * phi)
    barrier = -ej * (math.cos(hi) + s * hi)
    w, v = sla.eigh_tridiagonal(
        2.0 * ec / h**2 + u,
        np.full(grid - 1, -ec / h**2),
        select="v",
        select_range=(-np.inf, barrier),
    )
    inside = np.sum(v[u <= barrier] ** 2, axis=0)[w < barrier]
    return int(np.sum(inside >= 0.99 + band)), int(np.sum(inside >= 0.99 - band))


def stored_phase_counts() -> dict:
    """[certain, possible] bound counts stored by make_reference.py, keyed by '%.3f' % s."""
    with open(os.path.join(DATA_DIR, "phase_counts.json"), encoding="utf-8") as fh:
        return json.load(fh)["counts"]


# --- driven and open two-level dynamics ---------------------------------------


def rwa_flip(amplitude: float, detuning: float, t: float) -> float:
    """Rabi flip probability A^2/W^2 sin^2(pi W t), W = sqrt(A^2 + detuning^2)."""
    w = math.hypot(amplitude, detuning)
    return (amplitude / w) ** 2 * math.sin(math.pi * w * t) ** 2


def cnot_fidelity_rwa(ej2: float, chi: float, amplitude: float, frequency: float, t: float) -> float:
    """Mean CNOT-target population from the two sz(2) transitions in the RWA."""
    keep = 1.0 - rwa_flip(amplitude, frequency - 2.0 * abs(ej2 + chi), t)
    flip = rwa_flip(amplitude, frequency - 2.0 * abs(ej2 - chi), t)
    return 0.5 * (keep + flip)


def _liouvillian(h: np.ndarray, channels) -> np.ndarray:
    """Row-major vectorised GKLS generator: d vec(rho)/dt = L vec(rho)."""
    d = h.shape[0]
    eye = np.eye(d)
    gen = -2j * math.pi * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, rate in channels:
        if rate <= 0:
            continue
        ldl = op.conj().T @ op
        gen += rate * (np.kron(op, op.conj()) - 0.5 * np.kron(ldl, eye) - 0.5 * np.kron(eye, ldl.T))
    return gen


def lindblad_expm(h, channels, rho0, t_grid, observable) -> np.ndarray:
    """<observable>(t) on an evenly spaced t_grid (starting at 0) by exact exponentials."""
    t_grid = np.asarray(t_grid, dtype=float)
    step = sla.expm(_liouvillian(np.asarray(h, complex), channels) * (t_grid[1] - t_grid[0]))
    vec = np.asarray(rho0, complex).ravel()
    obs = np.asarray(observable, complex)
    out = np.empty(t_grid.size)
    for i in range(t_grid.size):
        out[i] = np.real(np.trace(obs @ vec.reshape(obs.shape)))
        vec = step @ vec
    return out


def decoherence_channels(t1_us: float, t2_us: float):
    """(|g><e|, 1/T1) and (sz, 1/(2 Tphi)) in the energy basis (g, e), rates in 1/ns."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    inv_tphi = max(1.0 / (t2_us * 1e3) - 0.5 / (t1_us * 1e3), 0.0)
    return [(lower, 1.0 / (t1_us * 1e3)), (sz, 0.5 * inv_tphi)]


def open_rabi_rwa(amplitude: float, t1_us: float, t2_us: float, t_grid) -> np.ndarray:
    """Resonant driven excited population in the rotating frame, H = (A/2) sx."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    excited = np.diag([0.0, 1.0]).astype(complex)
    return lindblad_expm(0.5 * amplitude * sx, decoherence_channels(t1_us, t2_us), rho0, t_grid, excited)


def jc_open_population(g, n_ph, kappa_per_us, t1_us, t2_us, t_grid) -> np.ndarray:
    """Resonant Jaynes-Cummings excited-qubit population from |e, 0> (cavity frame)."""
    dim_c = n_ph + 1
    a = np.diag(np.sqrt(np.arange(1, dim_c)), k=1).astype(complex)
    s_minus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|, ordering (g, e)
    eye_c, eye_q = np.eye(dim_c), np.eye(2)
    h = g * (np.kron(s_minus.T, a) + np.kron(s_minus, a.conj().T))
    (lower, gamma1), (sz, gamma_phi) = decoherence_channels(t1_us, t2_us)
    channels = [
        (np.kron(eye_q, a), kappa_per_us / 1e3),
        (np.kron(lower, eye_c), gamma1),
        (np.kron(-sz, eye_c), gamma_phi),
    ]
    psi0 = np.zeros(2 * dim_c, dtype=complex)
    psi0[dim_c] = 1.0
    excited = np.kron(np.diag([0.0, 1.0]), eye_c)
    return lindblad_expm(h, channels, np.outer(psi0, psi0), t_grid, excited)


# --- telegraph noise ------------------------------------------------------------


def rtn_coherence(rates, couplings, t) -> np.ndarray:
    """|<exp(-i 2 pi int xi dt)>| for independent stationary telegraph fluctuators.

    Each fluctuator switches at rate gamma between +-v (GHz); its factor is
    exp(-g t) [cosh(mu t) + (g / mu) sinh(mu t)], mu = sqrt(g^2 - (2 pi v)^2).
    """
    t = np.asarray(t, dtype=float)
    out = np.ones(t.size, dtype=complex)
    for gamma, v in zip(rates, couplings):
        mu = np.sqrt(complex(gamma**2 - (2.0 * math.pi * v) ** 2))
        if abs(mu) < 1e-12:
            out *= np.exp(-gamma * t) * (1.0 + gamma * t)
        else:
            out *= np.exp(-gamma * t) * (np.cosh(mu * t) + (gamma / mu) * np.sinh(mu * t))
    return np.abs(out)


# --- rf-SQUID -------------------------------------------------------------------


RF_SQUID_SPAN = 3.0 * math.pi  # search phi_ext +- this for minima
RF_SQUID_SAMPLES = 20001


def rf_squid_minima(ej, inductive_scale, phi_ext):
    """Minima of -Ej cos(phi) + L (phi - phi_ext)^2 by bracketing U' sign changes."""
    from scipy.optimize import brentq

    def slope(x):
        return ej * math.sin(x) + 2.0 * inductive_scale * (x - phi_ext)

    phi = np.linspace(phi_ext - RF_SQUID_SPAN, phi_ext + RF_SQUID_SPAN, RF_SQUID_SAMPLES)
    d = ej * np.sin(phi) + 2.0 * inductive_scale * (phi - phi_ext)
    roots = []
    for i in np.nonzero((d[:-1] < 0) & (d[1:] >= 0))[0]:
        roots.append(brentq(slope, phi[i], phi[i + 1], xtol=1e-15, rtol=4 * np.finfo(float).eps))
    return roots
