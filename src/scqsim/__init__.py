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
"""

__version__ = "0.1.0"

from .cavity import JaynesCummingsParams, jc_hamiltonian, strong_coupling_check, vacuum_rabi
from .charge import (
    CpbParams,
    SpectrumTable,
    cpb_hamiltonian,
    cpb_levels,
    reduced_two_level,
    spectrum_vs_ng,
    tunable_ej,
)
from .core import (
    ConvergenceError,
    DensityMatrix,
    EigenDecomposition,
    HermitianOperator,
    QuantumState,
    ValidationError,
    evolve_lindblad,
    evolve_unitary,
    hermitian_eigen,
    tensor_product,
)
from .coupled import (
    CoupledParams,
    DrivePulse,
    TruthTable,
    capacitive_hamiltonian,
    coupled_hamiltonian,
    pi_pulse_duration,
    simulate_cnot,
    transition_table,
)
from .experiments import (
    DecoherenceParams,
    ExperimentResult,
    quality_factor,
    rabi,
    ramsey,
    t1_decay,
)
from .flux import (
    FluxoidRecord,
    RfSquidParams,
    ThreeJunctionParams,
    classify_fluxoid,
    flux_spectrum_vs_f,
    persistent_current,
    rf_squid_potential,
    solve_levels_1d,
    three_junction_potential,
)
from .noise import FluctuatorEnsemble, dephasing_under_rtn, rtn_trajectory
from .phase import PhaseQubitParams, readout_transitions, washboard_potential, well_levels
