"""Entangling-gate synthesis from the dispersive cross-Kerr coupling.

The coupling is diagonal, so timed free evolutions interleaved with level
permutations realize two-qutrit phase gates.  Two constructions are
provided: a four-segment sequence whose segment times solve a linear
system (any phase target, used for the controlled-phase gate), and a
six-equal-segment sequence that also dynamically decouples the pair from
its neighbors.  Decoupling helpers cover idle pairs, simultaneous pair
gates, and simultaneous EPR preparation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import QuditIndexing, QuditOperator, local_diagonal_distance
from .schedules import (
    Concurrent,
    ConditionalPiPulse,
    CrossKerrCoeffs,
    Evolve,
    PermutationPulse,
    PhasePulse,
    PulseSchedule,
    RotationPulse,
    simulate_unitary,
)

TWO_PI = 2.0 * np.pi

CR_GATE_TIME = 125e-9  # standard conditional-pi duration, seconds


class SynthesisError(ValueError):
    """Gate synthesis failed (singular transfer matrix or empty branch set)."""


# ---------------------------------------------------------------------------
# phase targets
# ---------------------------------------------------------------------------


def controlled_phase_phases() -> np.ndarray:
    """Gate phases on (|11>, |12>, |21>, |22>) for the controlled-phase gate
    diag(w^(m*n)): +2pi/3 on 11 and 22, -2pi/3 on 12 and 21."""
    third = TWO_PI / 3.0
    return np.array([third, 2 * third, 2 * third, third])


def inverse_controlled_phase_phases() -> np.ndarray:
    return -controlled_phase_phases()


def controlled_phase_matrix(inverse: bool = False) -> QuditOperator:
    w = np.exp(2j * np.pi / 3.0)
    diag = np.array([w ** ((m * n) % 3) for m in range(3) for n in range(3)])
    if inverse:
        diag = diag.conj()
    return QuditOperator(np.diag(diag), QuditIndexing(3, 2))


# ---------------------------------------------------------------------------
# four-segment synthesis
# ---------------------------------------------------------------------------


def four_segment_transfer_matrix(c: CrossKerrCoeffs) -> np.ndarray:
    """Accumulated phase on (|11>,|12>,|21>,|22>) per unit segment time.

    Row r, column s: the rate the state of row r experiences during
    segment s (A, B, C, D), after tracking the level swaps each segment's
    preceding pulses apply.  Each state spends exactly one segment under
    each coupling coefficient.
    """
    a11, a12, a21, a22 = c.alpha_11, c.alpha_12, c.alpha_21, c.alpha_22
    return np.array(
        [
            [a11, a21, a22, a12],
            [a12, a22, a21, a11],
            [a21, a11, a12, a22],
            [a22, a12, a11, a21],
        ]
    )


def solve_four_segment(
    c: CrossKerrCoeffs,
    target_phases,
    branch_range: int = 3,
    prefer_total: float | None = None,
) -> tuple[float, float, float, float]:
    """Segment times (T_A..T_D) realizing the target gate phases.

    The evolution produces exp(-i Phi) with Phi = M t, so we solve
    M t = -phases + 2 pi k over integer branch vectors k, keep nonnegative
    solutions, and take the least total time (or the total closest to
    ``prefer_total`` when given).  Branch components run in
    [-branch_range, branch_range].
    """
    phases = np.asarray(target_phases, dtype=float).reshape(4)
    m = four_segment_transfer_matrix(c)
    det = np.linalg.det(m)
    scale = np.abs(m).max()
    if scale == 0 or abs(det) < 1e-12 * scale**4:
        raise SynthesisError("phase transfer matrix is singular for these coefficients")
    m_inv = np.linalg.inv(m)

    ks = np.array(list(product(range(-branch_range, branch_range + 1), repeat=4)))
    times = (-phases[None, :] + TWO_PI * ks) @ m_inv.T
    feasible = np.all(times >= -1e-12, axis=1)
    if not feasible.any():
        raise SynthesisError(
            f"no nonnegative segment times within {branch_range} phase branches"
        )
    times = np.clip(times[feasible], 0.0, None)
    ks = ks[feasible]
    totals = times.sum(axis=1)
    scores = totals if prefer_total is None else np.abs(totals - prefer_total)
    # deterministic: minimal score, ties broken by lexicographic branch vector
    order = np.lexsort((ks[:, 3], ks[:, 2], ks[:, 1], ks[:, 0], scores))
    return tuple(float(x) for x in times[order[0]])


def build_four_segment_schedule(
    pair: tuple[int, int],
    times,
    n_sites: int | None = None,
) -> PulseSchedule:
    """Pulse sequence: swap pulses on alternating qutrits between the four
    timed evolutions (applied last-listed first in the source formula, so
    the first item here is the second qutrit's swap)."""
    i, j = pair
    n = n_sites or max(pair)
    t_a, t_b, t_c, t_d = (float(t) for t in times)
    items = [
        PermutationPulse(j, "12"),
        Evolve(((i, j),), t_d),
        PermutationPulse(i, "12"),
        Evolve(((i, j),), t_c),
        PermutationPulse(j, "12"),
        Evolve(((i, j),), t_b),
        PermutationPulse(i, "12"),
        Evolve(((i, j),), t_a),
    ]
    return PulseSchedule(tuple(items), n)


def synthesize_controlled_phase(
    c: CrossKerrCoeffs,
    pair: tuple[int, int] = (1, 2),
    n_sites: int | None = None,
    inverse: bool = False,
    prefer_total: float | None = None,
) -> tuple[PulseSchedule, tuple[float, float, float, float]]:
    phases = inverse_controlled_phase_phases() if inverse else controlled_phase_phases()
    times = solve_four_segment(c, phases, prefer_total=prefer_total)
    return build_four_segment_schedule(pair, times, n_sites), times


# ---------------------------------------------------------------------------
# six-segment (dynamically decoupled) synthesis
# ---------------------------------------------------------------------------


def _pulse_pair(sites: tuple[int, int], subspace: str) -> list:
    return [PermutationPulse(sites[0], subspace), PermutationPulse(sites[1], subspace)]


def six_segment_schedule(
    duration: float,
    pair: tuple[int, int] = (1, 2),
    n_sites: int | None = None,
    swap_first: str = "01",
) -> PulseSchedule:
    """Three repetitions of [pulse-pair, evolve, other-pulse-pair, evolve]
    with equal segment times; the pulse composition over the schedule is
    the identity permutation on each qutrit (a 3-cycle applied thrice).

    ``swap_first`` selects which subspace pulses open each repetition;
    reversing it is what lets two adjacent pairs run simultaneously.
    """
    if duration < 0:
        raise ValueError("segment time must be nonnegative")
    first, second = (swap_first, "12" if swap_first == "01" else "01")
    n = n_sites or max(pair)
    items: list = []
    for _ in range(3):
        items.extend(_pulse_pair(pair, first))
        items.append(Evolve((pair,), duration))
        items.extend(_pulse_pair(pair, second))
        items.append(Evolve((pair,), duration))
    return PulseSchedule(tuple(items), n)


def six_segment_phase_pattern(c: CrossKerrCoeffs, duration: float) -> np.ndarray:
    """Diagonal phases exp(-i phi) of the six-segment gate, as a 3x3 array
    over (first, second) qutrit levels.  Equal-level states pick up
    2(a11+a22) T; unequal states (a12+a21) T."""
    eq = 2.0 * (c.alpha_11 + c.alpha_22) * duration
    neq = (c.alpha_12 + c.alpha_21) * duration
    pattern = np.full((3, 3), neq)
    np.fill_diagonal(pattern, eq)
    return pattern


def six_segment_unitary_from_pattern(c: CrossKerrCoeffs, duration: float) -> QuditOperator:
    phases = six_segment_phase_pattern(c, duration).reshape(-1)
    return QuditOperator(np.diag(np.exp(-1j * phases)), QuditIndexing(3, 2))


def six_segment_optimal_time(
    c: CrossKerrCoeffs,
    t_max: float = 1e-6,
    step: float = 1e-9,
    target: QuditOperator | None = None,
) -> tuple[float, float]:
    """Grid search the segment time minimizing the up-to-local-diagonal
    distance to the (inverse) controlled-phase gate.

    With the measured coefficient signs the reachable one-parameter family
    passes near the inverse controlled-phase first; the plain
    controlled-phase sits at roughly twice the segment time.  Ties break
    toward the smaller time.  Returns (t_opt, distance).
    """
    if target is None:
        target = controlled_phase_matrix(inverse=True)
    grid = np.arange(0.0, t_max + step / 2, step)
    best_t, best_d = 0.0, np.inf
    for t in grid:
        u = six_segment_unitary_from_pattern(c, float(t))
        dist = local_diagonal_distance(u, target)
        if dist < best_d - 1e-15:
            best_t, best_d = float(t), dist
    return best_t, best_d


# ---------------------------------------------------------------------------
# decoupling schedules
# ---------------------------------------------------------------------------


def _x_pulses(site: int, power: int = 1) -> list:
    """Cyclic level shift X**power as native swap pulses (12 then 01 per X)."""
    items = []
    for _ in range(power % 3):
        items.append(PermutationPulse(site, "12"))
        items.append(PermutationPulse(site, "01"))
    return items


def idle_decoupling_schedule(
    duration: float,
    pair: tuple[int, int] = (1, 2),
    cycled_site: int | None = None,
    n_sites: int | None = None,
) -> PulseSchedule:
    """Split an idle period into three equal segments with a cyclic shift on
    one qutrit after each; the pair coupling averages to local phases
    (state-dependent rates summed over the cycled neighbor's levels)."""
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    site = cycled_site if cycled_site is not None else pair[1]
    n = n_sites or max(pair)
    items: list = []
    for _ in range(3):
        items.append(Evolve((pair,), duration / 3.0))
        items.extend(_x_pulses(site))
    return PulseSchedule(tuple(items), n)


def idle_decoupling_local_phases(c: CrossKerrCoeffs, duration: float) -> np.ndarray:
    """The surviving local phases on the un-cycled qutrit: (T/3) * row sums."""
    rate = c.rate_matrix()
    return duration / 3.0 * rate.sum(axis=1)


def parallel_pair_schedule(
    duration: float,
    pair_a: tuple[int, int] = (1, 2),
    pair_b: tuple[int, int] = (3, 4),
    reverse_order: bool = True,
    n_sites: int = 4,
) -> PulseSchedule:
    """Two simultaneous six-segment gates on adjacent pairs.

    With ``reverse_order`` the second pair opens with the other subspace
    pulse (12 before 01) and additionally staggers its pulse cycle six
    times faster, one full cycle per segment of pair A.  The staggering
    leaves both pair gates exactly as in the lockstep schedule (each level
    frame still accumulates one segment time) while averaging the middle
    coupling over both pairs' frames, so the joint unitary factors across
    the cut between the pairs for any coupling coefficients.  Without the
    reversal the naive lockstep schedule is used, which does not decouple
    the middle coupling.
    """
    if duration < 0:
        raise ValueError("segment time must be nonnegative")
    middle = (pair_a[1], pair_b[0])
    all_pairs = (pair_a, middle, pair_b)
    items: list = []
    if not reverse_order:
        for _ in range(3):
            for subspace in ("01", "12"):
                items.extend(_pulse_pair(pair_a, subspace))
                items.extend(_pulse_pair(pair_b, subspace))
                items.append(Evolve(all_pairs, duration))
        return PulseSchedule(tuple(items), n_sites)

    sub = duration / 6.0
    b_cycle = ("12", "01", "12", "01", "12", "01")
    for _ in range(3):
        for a_subspace in ("01", "12"):
            items.extend(_pulse_pair(pair_a, a_subspace))
            for b_subspace in b_cycle:
                items.extend(_pulse_pair(pair_b, b_subspace))
                items.append(Evolve(all_pairs, sub))
    return PulseSchedule(tuple(items), n_sites)


# ---------------------------------------------------------------------------
# EPR preparation
# ---------------------------------------------------------------------------

_THETA_THIRD = 2.0 * np.arccos(1.0 / np.sqrt(3.0))


def _sigma02_pulses(site: int) -> list:
    return [
        PermutationPulse(site, "01"),
        PermutationPulse(site, "12"),
        PermutationPulse(site, "01"),
    ]


def _epr_stage1_pulses(control: int) -> list:
    return [RotationPulse(control, "01", "y", _THETA_THIRD)]


def _epr_mid_pulses(control: int, target: int) -> list:
    return (
        [RotationPulse(control, "12", "y", np.pi / 2.0)]
        + _sigma02_pulses(target)
        + _x_pulses(control, 2)
    )


def _epr_end_pulses(control: int, target: int) -> list:
    return _x_pulses(control, 1) + _sigma02_pulses(target)


def epr_prep_schedule(
    control: int = 1,
    target: int = 2,
    n_sites: int | None = None,
    cr_time: float = CR_GATE_TIME,
) -> PulseSchedule:
    """Prepare (|00> + |11> + |22>)/sqrt(3) from |00> with two entangling
    gates and native local pulses; all amplitudes come out real and
    positive, so the output fidelity is exactly 1.

    The first gate makes the two-level maximally entangled state; local
    pulses then rotate a third of the amplitude into the upper level and
    relabel levels so the second gate (swapped into the 12 subspace of the
    target and retargeted to control level 2) completes the ladder.
    """
    n = n_sites or max(control, target)
    items: list = []
    items += _epr_stage1_pulses(control)
    items.append(ConditionalPiPulse(control, target, cr_time))
    items += _epr_mid_pulses(control, target)
    items.append(ConditionalPiPulse(control, target, cr_time))
    items += _epr_end_pulses(control, target)
    return PulseSchedule(tuple(items), n)


def dd_epr_prep_schedule(
    device=None,
    dd: bool = True,
    n_sites: int = 5,
    chunk: float = CR_GATE_TIME,
) -> PulseSchedule:
    """Simultaneous EPR preparation on pairs (2,3) and (4,5).

    Pair (2,3) keeps its control on qutrit 3 and stretches each entangling
    gate over three chunks; pair (4,5), control on qutrit 4, finishes its
    gate inside the first chunk.  Cyclic shifts on qutrit 4 between chunks
    average the 3-4 coupling (both couplings' qutrit-3/4 sides stay
    diagonal throughout), and a nested, three-times-faster shift cycle on
    qutrit 5 during the idle chunks averages the 4-5 coupling.  When a
    device is given, the surviving local phases are cancelled with
    software phase corrections so both pairs come out exact.

    ``dd=False`` gives the naive simultaneous schedule (both gates in one
    chunk, no decoupling pulses): the 3-4 coupling then entangles the
    pairs and lowers both fidelities.
    """
    c23, t23 = 3, 2
    c45, t45 = 4, 5
    items: list = []
    items += _epr_stage1_pulses(c23) + _epr_stage1_pulses(c45)
    items += _dd_entangling_stage(device, dd, chunk, c23, t23, c45, t45)
    items += _epr_mid_pulses(c23, t23) + _epr_mid_pulses(c45, t45)
    items += _dd_entangling_stage(device, dd, chunk, c23, t23, c45, t45)
    items += _epr_end_pulses(c23, t23) + _epr_end_pulses(c45, t45)
    return PulseSchedule(tuple(items), n_sites)


def _dd_entangling_stage(device, dd, chunk, c23, t23, c45, t45) -> list:
    if not dd:
        return [
            Concurrent(
                (
                    ConditionalPiPulse(c23, t23, chunk),
                    ConditionalPiPulse(c45, t45, chunk),
                ),
                chunk,
            )
        ]
    items: list = []
    # chunk 1: both gates run; pair (2,3) at one third speed
    items.append(
        Concurrent(
            (
                ConditionalPiPulse(c23, t23, chunk, fraction=1.0 / 3.0),
                ConditionalPiPulse(c45, t45, chunk),
            ),
            chunk,
        )
    )
    items += _x_pulses(4)
    # chunks 2 and 3: stretched gate continues; qutrit 5 runs a nested cycle
    for _ in range(2):
        for _ in range(3):
            items.append(ConditionalPiPulse(c23, t23, chunk / 3.0, fraction=1.0 / 9.0))
            items += _x_pulses(5)
        items += _x_pulses(4)
    if device is not None:
        items += _dd_stage_phase_corrections(device, chunk)
    return items


def _dd_stage_phase_corrections(device, chunk) -> list:
    """Cancel the local phases the averaged couplings leave per stage."""
    rate34 = device.pair(3, 4).rate_matrix()
    rate45 = device.pair(4, 5).rate_matrix()
    q3_phases = chunk * rate34.sum(axis=1)
    q4_phases = np.array(
        [chunk / 3.0 * (rate45[(x + 1) % 3].sum() + rate45[(x + 2) % 3].sum()) for x in range(3)]
    )
    return [PhasePulse(3, tuple(q3_phases)), PhasePulse(4, tuple(q4_phases))]


# ---------------------------------------------------------------------------
# crosstalk compensation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrosstalkMatrix:
    """Linear map from drive-line inputs to on-chip fields at one frequency."""

    frequency_ghz: float
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("crosstalk matrix must be square")

    def condition_number(self) -> float:
        return float(np.linalg.cond(self.matrix))


def crosstalk_compensate(c: CrosstalkMatrix, desired, cond_limit: float = 1e8) -> np.ndarray:
    """Drive-line inputs whose crosstalk image is the desired field vector."""
    desired = np.asarray(desired, dtype=complex).reshape(-1)
    if desired.shape[0] != c.matrix.shape[0]:
        raise ValueError("field vector length does not match the matrix")
    cond = c.condition_number()
    if not np.isfinite(cond) or cond > cond_limit:
        raise np.linalg.LinAlgError(
            f"crosstalk matrix is singular or ill-conditioned (cond={cond:.3e})"
        )
    return np.linalg.solve(c.matrix, desired)


# ---------------------------------------------------------------------------
# verification helper
# ---------------------------------------------------------------------------


def simulated_pair_phases(schedule: PulseSchedule, c: CrossKerrCoeffs, pair=(1, 2)) -> np.ndarray:
    """Diagonal phases of a simulated two-qutrit schedule on the four
    doubly-excited states, relative to |00>."""
    u = simulate_unitary(schedule, {tuple(pair): c}).matrix
    diag = np.diag(u)
    ref = diag[0]
    out = []
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
        out.append(float(np.angle(diag[3 * m + n] / ref)))
    return np.array(out)
