"""Five-qutrit teleportation protocol for verifying two-qutrit scrambling.

The input qutrit is scrambled with half of an entangled pair while the
conjugate unitary runs in parallel on the partner pair; projecting the two
middle qutrits back onto their initial entangled state (by reversing the
preparation and heralding on |00>) teleports the input to the far qutrit
exactly when the unitary is maximally scrambling.  Both the scrambler and
its gate-count-matched identity control compile to controlled-SUM
skeletons whose controlled-phase cores come from the four-segment
cross-Kerr synthesis; the two differ only in the solved phase targets.

Two stages do not depend on the input state, and each runs once per
parameter set in a process.  The protocol is compiled once per
``(spec, device.pair(1, 2), device.pair(3, 4))``, the values the
compilation reads.  The preparation of the entangled pairs on (2,3) and
(4,5) is simulated once per ``(preparation schedule, noise model,
couplings)``; qutrit 1 stays in |0> through it (the T1/T2 channels fix
|0><0|), so the prepared register factors as |0><0| x rho_2345, and every
input starts from |psi><psi| x rho_2345 with only the interaction and
measurement schedule left to simulate.  Both caches are bounded and hold
immutable schedules and read-only arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityState,
    PureState,
    QuditIndexing,
    QuditOperator,
    embed,
    hadamard_matrix,
    partial_trace,
    state_fidelity,
)
from . import kernels
from .device import DeviceConfig, load_device
from .gates import decompose_single_qutrit
from .scrambling import design_states, scrambler_unitary
from .schedules import (
    PulseSchedule,
    RotationPulse,
    parallel_merge,
    simulate_density,
    simulate_unitary,
)
from .synthesis import (
    controlled_phase_phases,
    epr_prep_schedule,
    dd_epr_prep_schedule,
    build_four_segment_schedule,
    solve_four_segment,
)
from .tomography import (
    TomographyRecord,
    all_settings,
    setting_rotation,
    state_tomography,
)
from .readout import shot_rng

N_SITES = 5
_FACTORIZATION_ATOL = 1e-12  # |0><0| x rho_2345 against the prepared register
# Cache bounds: a compiled protocol is about 200 schedule items and a
# prepared register 105 KB, so full caches stay well under a megabyte.
_COMPILED_PROTOCOLS = 8
_PREPARED_REGISTERS = 8
_TOMOGRAPHY_SETTINGS = len(all_settings(1))  # one 3x3 pre-rotation each

SCRAMBLER_CHOICES = ("maximally_scrambling", "identity_control")


@dataclass(frozen=True)
class ScramblerSpec:
    """Which two-qutrit operation the protocol runs: the maximal scrambler
    or an identity compiled with the same gate skeleton (the two differ
    only in solved segment times and software phases)."""

    choice: str = "maximally_scrambling"

    def __post_init__(self):
        if self.choice not in SCRAMBLER_CHOICES:
            raise ValueError(f"unknown scrambler choice {self.choice!r}")

    def logical_unitary(self) -> QuditOperator:
        if self.choice == "maximally_scrambling":
            return scrambler_unitary()
        return QuditOperator(np.eye(9, dtype=complex), QuditIndexing(3, 2))


class PreparationNotFactorizedError(ValueError):
    """The preparation moved qutrit 1 away from |0>, so its output cannot be
    shared by every input state."""


@dataclass(frozen=True)
class TeleportationOutcome:
    label: str
    herald_probability: float
    rho_out: DensityState
    fidelity: float


def _rotation_items(site: int, pulses) -> list:
    return [RotationPulse(site, p.subspace, p.axis, p.angle) for p in pulses]


_H_PULSES = decompose_single_qutrit(hadamard_matrix())
_HDAG_PULSES = [p.inverse() for p in reversed(_H_PULSES)]


def _csum_block(
    control: int,
    target: int,
    coeffs,
    phases,
    n_sites: int,
    prefer_total: float | None = None,
) -> tuple[PulseSchedule, float]:
    """CSUM-skeleton schedule: Hadamard on the target, four-segment phase
    core on the pair, inverse Hadamard on the target."""
    pair = (min(control, target), max(control, target))
    times = solve_four_segment(coeffs, phases, prefer_total=prefer_total)
    core = build_four_segment_schedule(pair, times, n_sites)
    items = (
        _rotation_items(target, _H_PULSES) + list(core.items) + _rotation_items(target, _HDAG_PULSES)
    )
    return PulseSchedule(tuple(items), n_sites), float(sum(times))


def build_scrambler_arm(
    spec: ScramblerSpec,
    sites: tuple[int, int],
    device: DeviceConfig,
    logical_first: int | None = None,
    n_sites: int = N_SITES,
) -> PulseSchedule:
    """Compile the (possibly mirrored) scrambler onto a site pair.

    ``logical_first`` names the site carrying the first logical factor;
    the mirrored arm (used for the conjugate side, which equals the
    scrambler itself for these real unitaries) sets it to the second site.
    The gate sequence is a controlled-SUM from the logical-first site
    followed by one with control and target exchanged.
    """
    return _scrambler_arm(spec, sites, device.pair(*sorted(sites)), logical_first, n_sites)


def _scrambler_arm(spec, sites, coeffs, logical_first, n_sites) -> PulseSchedule:
    """:func:`build_scrambler_arm` given the pair's cross-Kerr coefficients."""
    p, q = sites
    first = logical_first if logical_first is not None else p
    second = q if first == p else p
    scramble = spec.choice == "maximally_scrambling"
    phases = controlled_phase_phases()

    if scramble:
        block1, total1 = _csum_block(first, second, coeffs, phases, n_sites)
        block2, total2 = _csum_block(second, first, coeffs, phases, n_sites)
    else:
        ref1, t1 = _csum_block(first, second, coeffs, phases, n_sites)
        ref2, t2 = _csum_block(second, first, coeffs, phases, n_sites)
        block1, _ = _csum_block(first, second, coeffs, np.zeros(4), n_sites, prefer_total=t1)
        block2, _ = _csum_block(second, first, coeffs, np.zeros(4), n_sites, prefer_total=t2)
    return block1.then(block2)


def build_protocol_schedules(
    spec: ScramblerSpec,
    device: DeviceConfig | None = None,
) -> tuple[PulseSchedule, PulseSchedule]:
    """(preparation schedule, interaction-plus-measurement schedule).

    The preparation makes entangled pairs on (2,3) and (4,5) with the
    dynamically decoupled simultaneous sequence; the second schedule runs
    the two scrambler arms in parallel on (1,2) and (3,4) (the conjugate
    arm mirrored, its first logical factor on qutrit 4) and then reverses
    the (2,3) pair preparation so the herald becomes a |00> readout.

    Compiled once per ``(spec, device.pair(1, 2), device.pair(3, 4))`` and
    shared: the schedules are immutable.
    """
    device = device or load_device()
    return _compile_protocol(spec, device.pair(1, 2), device.pair(3, 4))


@functools.lru_cache(maxsize=_COMPILED_PROTOCOLS)
def _compile_protocol(spec, pair_12, pair_34) -> tuple[PulseSchedule, PulseSchedule]:
    prep = dd_epr_prep_schedule(device=None, dd=True, n_sites=N_SITES)
    arm_a = _scrambler_arm(spec, (1, 2), pair_12, 1, N_SITES)
    arm_b = _scrambler_arm(spec, (3, 4), pair_34, 4, N_SITES)
    interaction = parallel_merge(arm_a, arm_b, N_SITES)
    reversal = epr_prep_schedule(control=3, target=2, n_sites=N_SITES).reversed()
    return prep, interaction.then(reversal)


@functools.lru_cache(maxsize=_PREPARED_REGISTERS)
def _prepared_register(prep: PulseSchedule, noise, couplings: tuple) -> np.ndarray:
    """Read-only 81x81 state of qutrits 2-5 after ``prep`` from |0...0>;
    ``couplings`` are the device couplings as sorted (pair, coefficients)
    items.

    Raises :class:`PreparationNotFactorizedError` unless the five-qutrit
    result equals |0><0| x rho_2345, the condition for loading any input
    onto qutrit 1 afterwards.
    """
    rho0 = np.zeros((243, 243), dtype=complex)
    rho0[0, 0] = 1.0
    after_prep = simulate_density(prep, rho0, couplings=dict(couplings), noise=noise)
    rho_rest = partial_trace(after_prep, [2, 3, 4, 5], N_SITES, 3)
    ground = np.diag([1.0, 0.0, 0.0])
    defect = float(np.abs(after_prep - np.kron(ground, rho_rest)).max())
    if not defect <= _FACTORIZATION_ATOL:
        raise PreparationNotFactorizedError(
            f"the preparation leaves qutrit 1 off |0><0| x rest by {defect:.3e}"
        )
    rho_rest.flags.writeable = False
    return rho_rest


def _prepared(prep: PulseSchedule, noise, couplings: dict) -> np.ndarray:
    return _prepared_register(prep, noise, tuple(sorted(couplings.items())))


# ---------------------------------------------------------------------------
# exact-mode execution
# ---------------------------------------------------------------------------


def _herald_block(rho: np.ndarray) -> tuple[float, np.ndarray]:
    """Project qutrits 2 and 3 onto |00> and return (probability, 27-dim
    block on qutrits 1, 4, 5, unnormalized)."""
    t = rho.reshape([3] * 10)
    block = t[:, 0, 0, :, :, :, 0, 0, :, :].reshape(27, 27)
    p = float(np.trace(block).real)
    return p, block


def _q5_state(block: np.ndarray, p: float) -> DensityState:
    rho5 = partial_trace(block / p, [3], 3, 3)
    rho5 = (rho5 + rho5.conj().T) / 2.0
    return DensityState(rho5, QuditIndexing(3, 1), validate=False)


def run_teleportation(
    spec: ScramblerSpec,
    input_state: PureState,
    device: DeviceConfig | None = None,
    noise_scale: float = 0.0,
    shots: int | None = None,
    seed: int = 0,
    label: str = "",
    use_echo_t2: bool = False,
) -> TeleportationOutcome:
    """Run the protocol for one input state.

    ``noise_scale`` = 0 runs the ideal circuit; otherwise per-segment
    relaxation and dephasing channels act on every qutrit with rates
    scaled by the factor.  Exact mode (no shots) heralds by projection and
    returns the exact heralded state of qutrit 5; shot mode samples all
    five qutrits through the device confusion matrices, post-selects
    measured (0, 0) on qutrits 2 and 3, and reconstructs qutrit 5 by state
    tomography on the heralded counts.
    """
    if input_state.indexing != QuditIndexing(3, 1):
        raise ValueError("the protocol teleports a single-qutrit state")
    device = device or load_device()
    schedules = build_protocol_schedules(spec, device)
    return _run_compiled(schedules, input_state, device, noise_scale, shots, seed, label, use_echo_t2)


def _run_compiled(schedules, input_state, device, noise_scale, shots, seed, label, use_echo_t2):
    """:func:`run_teleportation` on the compiled (preparation, rest) schedules:
    the input is loaded onto the shared prepared register and only ``rest``
    is simulated."""
    prep, rest = schedules
    noise = device.noise_model(noise_scale, use_echo=use_echo_t2) if noise_scale > 0 else None
    couplings = device.coupling_map()
    psi = input_state.amplitudes
    rho0 = np.kron(np.outer(psi, psi.conj()), _prepared(prep, noise, couplings))
    rho = simulate_density(rest, rho0, couplings=couplings, noise=noise)

    if shots is None:
        p, block = _herald_block(rho)
        rho5 = _q5_state(block, p)
        return TeleportationOutcome(
            label, p, rho5, state_fidelity(rho5, input_state)
        )
    return _run_with_shots(rho, input_state, device, noise, shots, seed, label)


@functools.lru_cache(maxsize=_TOMOGRAPHY_SETTINGS)
def _setting_unitary(setting) -> np.ndarray:
    """Read-only 3x3 unitary of the compiled pre-rotation pulses of a
    one-qutrit tomography ``setting``."""
    pre = _rotation_items(1, decompose_single_qutrit(setting_rotation(setting)))
    u = simulate_unitary(PulseSchedule(tuple(pre), 1)).matrix
    u.flags.writeable = False
    return u


def _setting_probabilities(rho: np.ndarray, setting, confusion) -> np.ndarray:
    """Outcome distribution over five-qutrit strings of the circuit output
    ``rho`` after the tomography pre-rotation of ``setting`` on qutrit 5,
    read through the per-site ``confusion`` matrices (None: ideal readout).

    The pre-rotation is instantaneous and local, so only the 81 diagonal
    3x3 qutrit-5 blocks (one per digit string of qutrits 1-4) reach the
    populations; each is conjugated by the pulses' 3x3 unitary.
    """
    u = _setting_unitary(setting)
    x = np.arange(81)
    blocks = rho.reshape(81, 3, 81, 3)[x, :, x, :]
    pops = np.einsum("ka,xab,kb->xk", u, blocks, u.conj()).real.reshape(-1)
    return pops if confusion is None else kernels.confusion_mix(pops, confusion)


def _run_with_shots(rho_circuit, input_state, device, noise, shots, seed, label):
    confusion = device.confusion_matrices() if noise is not None else None
    records = []
    heralded_total = 0
    grand_total = 0
    for task, setting in enumerate(all_settings(1)):
        probs = _setting_probabilities(rho_circuit, setting, confusion)
        counts = shot_rng(seed, task).multinomial(shots, np.clip(probs, 0, None) / probs.sum())
        # qutrit-5 counts of the shots that read (0, 0) on qutrits 2 and 3
        heralded = counts.reshape([3] * N_SITES)[:, 0, 0, :, :].sum(axis=(0, 1))
        kept = int(heralded.sum())
        marginal = {str(level): int(c) for level, c in enumerate(heralded) if c}
        heralded_total += kept
        grand_total += shots
        records.append(TomographyRecord(setting.bases, marginal, kept, seed))
    q5_confusion = confusion[4] if confusion is not None else None
    rho5 = state_tomography(records, q5_confusion, n=1)
    herald = heralded_total / grand_total
    return TeleportationOutcome(label, herald, rho5, state_fidelity(rho5, input_state))


def run_design_set(
    spec: ScramblerSpec,
    device: DeviceConfig | None = None,
    noise_scale: float = 0.0,
    shots: int | None = None,
    seed: int = 0,
) -> list[TeleportationOutcome]:
    """:func:`run_teleportation` for each of the twelve design states (the
    k-th with seed ``seed + k``), compiling the protocol once."""
    device = device or load_device()
    schedules = build_protocol_schedules(spec, device)
    return [
        _run_compiled(schedules, ds.state, device, noise_scale, shots, seed + k, ds.label, False)
        for k, ds in enumerate(design_states())
    ]


def average_teleportation_fidelity(outcomes: list[TeleportationOutcome]) -> float:
    """Unweighted mean over the twelve design states; by the 2-design
    property this equals the average over all pure input states."""
    expected = sorted(ds.label for ds in design_states())
    got = sorted(o.label for o in outcomes)
    if got != expected:
        raise ValueError("outcomes must cover exactly the twelve design states")
    return float(np.mean([o.fidelity for o in outcomes]))


# ---------------------------------------------------------------------------
# independent analytic path and heralded-channel analysis
# ---------------------------------------------------------------------------


def heralded_state_analytic(
    u_logical: QuditOperator, psi: PureState
) -> tuple[float, DensityState]:
    """Pure linear-algebra evaluation of the ideal protocol (no schedules):
    apply U on (1,2), its conjugate mirrored on (4,3), project (2,3) onto
    the entangled pair, and trace out qutrits 1 and 4."""
    epr = np.zeros(9, dtype=complex)
    epr[[0, 4, 8]] = 1.0 / np.sqrt(3.0)
    state = np.kron(np.kron(psi.amplitudes, epr), epr)
    u = embed(u_logical, [1, 2], 5).matrix
    u_star = embed(u_logical.conjugate(), [4, 3], 5).matrix
    state = u_star @ (u @ state)
    t = state.reshape([3] * 5)
    block = np.tensordot(epr.conj().reshape(3, 3), t, axes=([0, 1], [1, 2]))  # (q1, q4, q5)
    p = float(np.vdot(block, block).real)
    rho5 = np.tensordot(block, block.conj(), axes=([0, 1], [0, 1])) / p
    return p, DensityState(rho5, QuditIndexing(3, 1), validate=False)


def heralded_channel_map(
    spec: ScramblerSpec,
    device: DeviceConfig | None = None,
    noise_scale: float = 0.0,
) -> np.ndarray:
    """The unnormalized heralded map from qutrit-1 input operators to
    qutrit-5 output operators, as a 9x9 superoperator over row-major vec.

    The map is linear (the herald projection is; only the per-state
    normalization is not), so feeding the nine matrix units determines it.
    """
    device = device or load_device()
    prep, rest = build_protocol_schedules(spec, device)
    noise = device.noise_model(noise_scale) if noise_scale > 0 else None
    couplings = device.coupling_map()
    rho_rest = _prepared(prep, noise, couplings)

    cols = []
    for a in range(3):
        for b in range(3):
            unit = np.zeros((3, 3), dtype=complex)
            unit[a, b] = 1.0
            rho_in = np.kron(unit, rho_rest)
            rho_fin = simulate_density(rest, rho_in, couplings=couplings, noise=noise)
            _, block = _herald_block(rho_fin)
            out5 = partial_trace(block, [3], 3, 3)
            cols.append(out5.reshape(-1))
    return np.array(cols).T


def haar_average_unnormalized_fidelity(channel_map: np.ndarray) -> float:
    """Haar integral of <psi| Lambda(|psi><psi|) |psi> for a linear map
    given as a 9x9 superoperator: [Tr Lambda(I) + sum_il <i|Lambda(E_il)|l>]
    divided by d(d+1)."""
    d = 3
    lam = channel_map
    term1 = 0.0
    term2 = 0.0
    for i in range(d):
        e_ii = np.zeros((d, d), dtype=complex)
        e_ii[i, i] = 1.0
        out = (lam @ e_ii.reshape(-1)).reshape(d, d)
        term1 += np.trace(out).real
    for i in range(d):
        for l in range(d):
            e_il = np.zeros((d, d), dtype=complex)
            e_il[i, l] = 1.0
            out = (lam @ e_il.reshape(-1)).reshape(d, d)
            term2 += out[i, l].real
    return float((term1 + term2) / (d * (d + 1)))


def design_average_unnormalized_fidelity(channel_map: np.ndarray) -> float:
    """The same average over the twelve design states (2-design check)."""
    total = 0.0
    for ds in design_states():
        v = ds.state.amplitudes
        rho = np.outer(v, v.conj())
        out = (channel_map @ rho.reshape(-1)).reshape(3, 3)
        total += np.real(v.conj() @ out @ v)
    return float(total / 12.0)


def compiled_scrambler_channel(
    spec: ScramblerSpec,
    device: DeviceConfig | None = None,
    noise_scale: float = 1.0,
    use_echo_t2: bool = True,
):
    """The compiled two-qutrit operation as a state-in/state-out map on the
    first device pair, with per-segment decoherence; suitable as a process
    tomography black box.

    Echo dephasing times are the default here: the synthesis interleaves
    its evolutions with swap pulses, which refocus the quasi-static part
    of the dephasing a free-induction (Ramsey) time would overcount.
    """
    device = device or load_device()
    arm = build_scrambler_arm(spec, (1, 2), device, logical_first=1, n_sites=2)
    noise = device.noise_model(noise_scale, use_echo=use_echo_t2) if noise_scale > 0 else None
    couplings = {(1, 2): device.pair(1, 2)}

    def channel(rho: DensityState) -> DensityState:
        out = simulate_density(arm, rho.matrix, couplings=couplings, noise=noise)
        out = (out + out.conj().T) / 2.0
        return DensityState(out, rho.indexing, validate=False)

    return channel


def ideal_unitary_check(spec: ScramblerSpec, device: DeviceConfig | None = None) -> float:
    """Max deviation between the compiled parallel arms and the logical
    unitaries embedded on (1,2) and mirrored on (3,4)."""
    device = device or load_device()
    arm_a = build_scrambler_arm(spec, (1, 2), device, logical_first=1)
    arm_b = build_scrambler_arm(spec, (3, 4), device, logical_first=4)
    merged = parallel_merge(arm_a, arm_b, N_SITES)
    u = simulate_unitary(merged, device.coupling_map()).matrix
    logical = spec.logical_unitary()
    target = (embed(logical, [1, 2], 5) @ embed(logical.conjugate(), [4, 3], 5)).matrix
    phase = np.trace(target.conj().T @ u) / 243.0
    phase /= abs(phase)
    return float(np.abs(u - phase * target).max())
