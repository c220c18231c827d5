"""scqsim: superconducting qubit circuit simulations.

Charge (Cooper-pair box), flux (rf-SQUID and three-junction), and phase
(washboard) qubits; inductively coupled pairs with a frequency-selective
CNOT; Lindblad open-system protocols (Rabi, Ramsey, T1); spin-fluctuator
1/f noise; and a qubit-resonator exchange model.

Units: h = 1, energies in GHz, time in ns, rates in 1/ns; the propagator
is exp(-i 2 pi H t).

scqsim runs on numpy alone: every eigensolver, fit and potential minimum
is numpy code, and scipy is not a runtime dependency (the tests and the
benchmark use it as an independent reference).

Imports are paid where they are used: a command imports the modules it
runs; ``core`` always.  ``import scqsim`` loads no submodule; a public
name such as ``scqsim.CpbParams`` imports its module on first access.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it exports here
_EXPORTS = {
    "cavity": "JaynesCummingsParams jc_hamiltonian strong_coupling_check vacuum_rabi",
    "charge": "CpbParams SpectrumTable cpb_hamiltonian cpb_levels reduced_two_level spectrum_vs_ng "
    "tunable_ej",
    "core": "ConvergenceError DensityMatrix EigenDecomposition HermitianOperator QuantumState "
    "ValidationError evolve_lindblad evolve_unitary hermitian_eigen",
    "coupled": "CoupledParams DrivePulse TruthTable capacitive_hamiltonian coupled_hamiltonian "
    "pi_pulse_duration simulate_cnot transition_table",
    "experiments": "DecoherenceParams ExperimentResult quality_factor rabi ramsey t1_decay",
    "flux": "FluxoidRecord RfSquidParams ThreeJunctionParams classify_fluxoid flux_spectrum_vs_f "
    "persistent_current rf_squid_potential solve_levels_1d three_junction_potential",
    "noise": "FluctuatorEnsemble dephasing_under_rtn rtn_trajectory",
    "phase": "PhaseQubitParams readout_transitions washboard_potential well_levels",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, as ``scqsim.charge`` after ``import scqsim``
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
