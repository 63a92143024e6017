"""Desk-scale simulator for a five-qutrit transmon processor.

Exact dense-matrix simulation of the native gate set (subspace rotations
with virtual phase bookkeeping, the cross-resonance conditional-pi gate),
entangling-gate synthesis from the dispersive cross-Kerr coupling,
relaxation/dephasing/readout noise, state and process tomography, and the
five-qutrit teleportation protocol that verifies two-qutrit scrambling
through its out-of-time-ordered-correlator bound.
"""

__version__ = "0.1.0"

from .core import (
    DensityState,
    PauliLabel,
    PureState,
    QuditIndexing,
    QuditOperator,
    all_pauli_labels,
    embed,
    gell_mann,
    operator_schmidt_rank,
    partial_trace,
    qudit_hadamard,
    state_fidelity,
    weyl_pauli,
)
from .gates import (
    CrossResonanceParams,
    SubspaceRotation,
    VirtualPhaseFrame,
    compose_s02,
    conditional_pi,
    cross_resonance_unitary,
    rotation_unitary,
)
from .schedules import (
    Concurrent,
    ConditionalPiPulse,
    CrossKerrCoeffs,
    Evolve,
    NoiseModel,
    PermutationPulse,
    PhasePulse,
    PulseSchedule,
    RotationPulse,
    ScheduleValidationError,
    parallel_merge,
    simulate_density,
    simulate_unitary,
)
from .synthesis import (
    CrosstalkMatrix,
    SynthesisError,
    build_four_segment_schedule,
    crosstalk_compensate,
    dd_epr_prep_schedule,
    epr_prep_schedule,
    idle_decoupling_schedule,
    parallel_pair_schedule,
    six_segment_optimal_time,
    six_segment_schedule,
    solve_four_segment,
)
from .channels import (
    ChannelConstructionError,
    QuantumChannel,
    amplitude_damping_channel,
    apply_channel,
    dephasing_channel,
)
from .readout import readout_correct, readout_sample
from .transmon import TransmonParams, charge_dispersion, relative_anharmonicity
from .device import ConfigValidationError, DeviceConfig, load_device
from .tomography import (
    MeasurementSetting,
    ProcessMatrix,
    TomographyRecord,
    mub_bases,
    process_fidelity,
    process_tomography,
    ptm_of_unitary,
    ptm_restriction,
    state_tomography,
)
from .scrambling import (
    NonCliffordError,
    average_otoc,
    clifford_conjugation_table,
    conjugate_unitary,
    design_states,
    otoc_bound_from_fidelity,
    scrambler_unitary,
)
from .teleport import (
    ScramblerSpec,
    TeleportationOutcome,
    average_teleportation_fidelity,
    run_design_set,
    run_teleportation,
)
