"""Five-qutrit teleportation protocol for verifying two-qutrit scrambling.

The input qutrit is scrambled with half of an entangled pair while the
conjugate unitary runs in parallel on the partner pair; projecting the two
middle qutrits back onto their initial entangled state (by reversing the
preparation and heralding on |00>) teleports the input to the far qutrit
exactly when the unitary is maximally scrambling.  Both the scrambler and
its gate-count-matched identity control compile to controlled-SUM
skeletons whose controlled-phase cores come from the four-segment
cross-Kerr synthesis; the two differ only in the solved phase targets.

Only qutrit 1 carries the input; everything else runs once per parameter
set in a process.  The protocol is compiled once per ``(spec,
device.pair(1, 2), device.pair(3, 4))``, the values the compilation reads.
Per ``(preparation, rest, noise model, couplings)``, where ``rest`` is the
interaction and measurement schedule, :func:`_prepared_register` then
simulates the preparation of the entangled pairs on (2,3) and (4,5).
Qutrit 1 stays in |0> through it (the T1/T2 channels fix |0><0|), so the
prepared register factors as |0><0| x rho_2345, which is checked.  The
same entry hoists ahead of the input every compiled op of ``rest`` whose
sites avoid qutrit 1 and every site of an earlier per-input op (ops on
disjoint sites commute): the conjugate arm's (3,4) block and, with
noise, the site-4 and site-5 channels.  It keeps rho_2345 after them as a
read-only four-leg superket, with the per-input ops (1,2), (2,3) and, with
noise, site 1.  Both caches are bounded and hold immutable schedules and
read-only arrays.

Every output takes one path, :func:`_output_blocks`: the row-major vec of
a qutrit-1 operator is loaded straight onto that superket as its first
leg, only the per-input ops run, and the 81 diagonal qutrit-5 blocks are
read off a diagonal view of the result, with no 243x243 matrix built.
Exact runs sum the blocks heralded on |00> of qutrits 2 and 3, shot runs
read all 81 through each tomography setting, and
:func:`heralded_channel_map` feeds the nine matrix units.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral

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
    apply_density_ops,
    density_ops,
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
# Cache bounds: a compiled protocol is about 200 schedule items, and a
# prepared entry is a 105 KB register plus its per-input ops (two 105 KB
# pair maps, shared with the schedules op-list cache while it holds them),
# so full caches stay under 3 MB.
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


def _split_ops(ops) -> tuple[tuple, tuple]:
    """(hoisted, per-input) ops of ``rest``, each in its original order.

    An op is hoisted ahead of the input load when its sites avoid qutrit 1
    and every site of an earlier op that stays per-input.  It then commutes
    with the load and with every per-input op before it, so applying the
    hoisted ops first and the per-input ops after is exact.
    """
    held = {1}
    hoisted, per_input = [], []
    for sites, s in ops:
        if held.isdisjoint(sites):
            hoisted.append((sites, s))
        else:
            held.update(sites)
            per_input.append((sites, s))
    return tuple(hoisted), tuple(per_input)


@functools.lru_cache(maxsize=_PREPARED_REGISTERS)
def _prepared_register(prep: PulseSchedule, rest: PulseSchedule, noise, couplings: tuple) -> tuple:
    """(register, per-input ops): the read-only superket of qutrits 2-5,
    shape (9, 9, 9, 9), after ``prep`` from |0...0> and after the ops of
    ``rest`` that :func:`_split_ops` hoists, and the ops of ``rest`` left
    to run once the input is loaded.  ``couplings`` are the device
    couplings as sorted (pair, coefficients) items.

    Raises :class:`PreparationNotFactorizedError` unless the five-qutrit
    state after ``prep`` equals |0><0| x rho_2345, the condition for
    loading any input onto qutrit 1 afterwards.
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
    hoisted, per_input = _split_ops(density_ops(rest, dict(couplings), noise))
    # the register's legs hold qutrits 2-5, so a hoisted op's sites shift down by one
    shifted = [(tuple(site - 1 for site in sites), s) for sites, s in hoisted]
    register = apply_density_ops(kernels.to_superket(rho_rest, N_SITES - 1, 3), shifted)
    register.flags.writeable = False
    return register, per_input


def _noise(device: DeviceConfig, scale: float, use_echo: bool = False):
    """The device noise model at rate ``scale``, or None for the ideal
    circuit at 0; raises ValueError unless ``scale`` is finite and >= 0."""
    if not (math.isfinite(scale) and scale >= 0):
        raise ValueError(f"noise_scale must be finite and non-negative, got {scale!r}")
    return device.noise_model(scale, use_echo=use_echo) if scale > 0 else None


def _output_blocks(schedules, rho_in: np.ndarray, noise, device: DeviceConfig) -> np.ndarray:
    """(81, 3, 3): the diagonal qutrit-5 blocks of the protocol output, one
    per digit string of qutrits 1-4, for the 3x3 operator ``rho_in`` loaded
    onto qutrit 1 of the prepared register."""
    prep, rest = schedules
    couplings = tuple(sorted(device.coupling_map().items()))
    register, per_input = _prepared_register(prep, rest, noise, couplings)
    t = apply_density_ops(np.multiply.outer(np.reshape(rho_in, 9), register), per_input)
    # leg index 4 * i is the diagonal (i, i) of a site's (row, column) leg
    return t[::4, ::4, ::4, ::4].reshape(81, 3, 3)


def _heralded(blocks: np.ndarray) -> np.ndarray:
    """Unnormalized qutrit-5 output heralded on qutrits 2 and 3 at |00>,
    summed over qutrits 1 and 4."""
    return blocks.reshape(3, 3, 3, 3, 3, 3)[:, 0, 0].sum(axis=(0, 1))


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
    tomography on the heralded counts.  A negative, NaN or infinite
    ``noise_scale`` and ``shots`` that are not a positive integer raise
    ValueError before any simulation.
    """
    if input_state.indexing != QuditIndexing(3, 1):
        raise ValueError("the protocol teleports a single-qutrit state")
    device = device or load_device()
    schedules = build_protocol_schedules(spec, device)
    return _run_compiled(schedules, input_state, device, noise_scale, shots, seed, label, use_echo_t2)


def _run_compiled(schedules, input_state, device, noise_scale, shots, seed, label, use_echo_t2):
    """:func:`run_teleportation` on the compiled (preparation, rest) schedules."""
    noise = _noise(device, noise_scale, use_echo_t2)
    if shots is not None and not (isinstance(shots, Integral) and shots > 0):
        raise ValueError(f"shots must be a positive integer, got {shots!r}")
    psi = input_state.amplitudes
    blocks = _output_blocks(schedules, np.outer(psi, psi.conj()), noise, device)
    if shots is not None:
        return _run_with_shots(blocks, input_state, device, noise, shots, seed, label)
    out = _heralded(blocks)
    p = float(np.trace(out).real)
    rho5 = DensityState((out + out.conj().T) / (2.0 * p), QuditIndexing(3, 1), validate=False)
    return TeleportationOutcome(label, p, rho5, state_fidelity(rho5, input_state))


@functools.lru_cache(maxsize=_TOMOGRAPHY_SETTINGS)
def _setting_unitary(setting) -> np.ndarray:
    """Read-only 3x3 unitary of the compiled pre-rotation pulses of a
    one-qutrit tomography ``setting``."""
    pre = _rotation_items(1, decompose_single_qutrit(setting_rotation(setting)))
    u = simulate_unitary(PulseSchedule(tuple(pre), 1)).matrix
    u.flags.writeable = False
    return u


def _setting_probabilities(blocks: np.ndarray, setting, confusion) -> np.ndarray:
    """Outcome distribution over five-qutrit strings of the circuit output
    after the tomography pre-rotation of ``setting`` on qutrit 5, read
    through the per-site ``confusion`` matrices (None: ideal readout).

    The pre-rotation is instantaneous and local, so only the output's 81
    diagonal 3x3 qutrit-5 ``blocks`` (see :func:`_output_blocks`) reach the
    populations; each is conjugated by the pulses' 3x3 unitary.
    """
    u = _setting_unitary(setting)
    pops = np.einsum("ka,xab,kb->xk", u, blocks, u.conj()).real.reshape(-1)
    return pops if confusion is None else kernels.confusion_mix(pops, confusion)


def _run_with_shots(blocks, input_state, device, noise, shots, seed, label):
    confusion = device.confusion_matrices() if noise is not None else None
    records = []
    heralded_total = 0
    grand_total = 0
    for task, setting in enumerate(all_settings(1)):
        probs = _setting_probabilities(blocks, setting, confusion)
        pvals = np.clip(probs, 0, None)  # round-off can leave entries just below 0
        counts = shot_rng(seed, task).multinomial(shots, pvals / pvals.sum())
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
    noise = _noise(device, noise_scale)
    schedules = build_protocol_schedules(spec, device)
    units = np.eye(9, dtype=complex).reshape(9, 3, 3)
    return np.array([_heralded(_output_blocks(schedules, e, noise, device)).reshape(-1) for e in units]).T


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
    noise = _noise(device, noise_scale, use_echo_t2)
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
