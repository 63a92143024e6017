"""The benchmark's four workloads: set-up, warm-up, inputs, one op, output check.

Each workload is a closed loop with one caller.  Constructing a workload
object is its set-up (device load and schedule compilation); ``run`` is one
op; ``check`` compares the op's output with the references recorded on the
seed code in ``refs.json`` and returns the problems found.  The workload
seed sets the order of the design states and every shot-sampling seed.

Only the public API of ``qutritsim`` is called, through module attributes,
so that the tracer's wrappers see every call.
"""

from __future__ import annotations

from itertools import count

import numpy as np
from qutritsim import core, load_device, scrambling, synthesis, teleport, tomography

SHOTS = 10_000
N_DESIGN = 12
STATE_ATOL = 1e-12  # trace and Hermiticity defect of every output state
EXACT_ATOL = 1e-9  # exact-mode fidelity and herald probability against the references
DESIGN_AVERAGE = 0.581  # the paper's F_avg(1); the per-state references must average to it
# Shot tolerances, at least six standard deviations of the seed code's
# estimates over 40 seeds (see README.md): heralds are binomial over 4 x 10 000 shots.
HERALD_TOL = 0.01
SHOT_FIDELITY_TOL = 0.08  # 1 - F of the noiseless shot-mode teleported state
QPT_FIDELITY_TOL = 0.01  # |F_e(shots) - F_e(exact)| of the noisy compiled scrambler
GRID_STEP = 1e-9  # six_segment_optimal_time's default grid step
FOUR_SEGMENT_RESIDUAL = 1e-9
# Traced runs repeat one input so their exact counts do not depend on the
# seed; X:0 has the eight preparation pulses nine of the twelve states need.
CANONICAL_STATE = "X:0"


def _state_problems(rho: np.ndarray) -> list[str]:
    problems = []
    trace_defect = abs(np.trace(rho) - 1.0)
    herm_defect = float(np.abs(rho - rho.conj().T).max())
    if not trace_defect < STATE_ATOL:
        problems.append(f"trace defect {trace_defect:.3e}")
    if not herm_defect < STATE_ATOL:
        problems.append(f"Hermiticity defect {herm_defect:.3e}")
    return problems


class _Teleport:
    noise_scale = 0.0
    shots: int | None = None

    def __init__(self):
        self.device = load_device()
        self.spec = teleport.ScramblerSpec("maximally_scrambling")
        # compiled here so that setup_s covers compilation; run_teleportation
        # takes no compiled schedules and compiles again in every op
        self.schedules = teleport.build_protocol_schedules(self.spec, self.device)
        self.states = scrambling.design_states()

    def warm_up(self) -> None:
        teleport.run_teleportation(self.spec, self.states[0].state, self.device)

    def inputs(self, rng: np.random.Generator, canonical: bool = False):
        order = rng.permutation(N_DESIGN)
        by_label = {ds.label: ds for ds in self.states}
        for i in count():
            ds = by_label[CANONICAL_STATE] if canonical else self.states[order[i % N_DESIGN]]
            yield ds, int(rng.integers(2**31))

    def run(self, op_input):
        ds, seed = op_input
        return teleport.run_teleportation(
            self.spec, ds.state, self.device, self.noise_scale, self.shots, seed, label=ds.label
        )


class TeleportExactNoisy(_Teleport):
    """Exact-mode protocol run at noise scale 1 for one design state."""

    noise_scale = 1.0

    def check(self, op_input, out, refs) -> list[str]:
        ref = refs["teleport_exact_noisy"]
        label = op_input[0].label
        problems = _state_problems(out.rho_out.matrix)
        average = float(np.mean(list(ref["fidelity"].values())))
        if not abs(average - DESIGN_AVERAGE) < 5e-4:
            problems.append(f"reference design average {average:.4f} is not {DESIGN_AVERAGE}")
        if not abs(out.fidelity - ref["fidelity"][label]) <= EXACT_ATOL:
            problems.append(f"{label}: fidelity {out.fidelity!r} != {ref['fidelity'][label]!r}")
        if not abs(out.herald_probability - ref["herald"][label]) <= EXACT_ATOL:
            problems.append(f"{label}: herald {out.herald_probability!r} != {ref['herald'][label]!r}")
        return problems


class TeleportShotsIdeal(_Teleport):
    """Shot-mode protocol run (10 000 shots per setting), no noise."""

    shots = SHOTS

    def check(self, op_input, out, refs) -> list[str]:
        problems = _state_problems(out.rho_out.matrix)
        if not 1.0 - out.fidelity <= SHOT_FIDELITY_TOL:
            problems.append(f"shot fidelity {out.fidelity:.4f} below 1 - {SHOT_FIDELITY_TOL}")
        if not abs(out.herald_probability - 1.0 / 9.0) <= HERALD_TOL:
            problems.append(f"herald {out.herald_probability:.5f} not within {HERALD_TOL} of 1/9")
        return problems


class QptShotsNoisy:
    """Shot-mode process tomography of the compiled scrambler on 2 qutrits."""

    def __init__(self):
        self.device = load_device()
        self.spec = teleport.ScramblerSpec("maximally_scrambling")
        self.channel = teleport.compiled_scrambler_channel(self.spec, self.device, 1.0)
        self.ideal = scrambling.scrambler_unitary()

    def warm_up(self) -> None:
        # one pass through the arm fills the noise model's Kraus cache
        rho = core.DensityState.maximally_mixed(n=2)
        self.channel(rho)

    def inputs(self, rng: np.random.Generator, canonical: bool = False):
        while True:
            yield int(rng.integers(2**31))

    def run(self, seed):
        return tomography.process_tomography(self.channel, n=2, shots=SHOTS, seed=seed)

    def check(self, seed, ptm, refs) -> list[str]:
        problems = []
        exact = refs["qpt_exact_entanglement_fidelity"]
        fe = tomography.process_fidelity(ptm, self.ideal)
        if not abs(fe - exact) <= QPT_FIDELITY_TOL:
            problems.append(f"entanglement fidelity {fe:.4f} not within {QPT_FIDELITY_TOL} of {exact:.4f}")
        if not ptm.is_trace_preserving():
            problems.append("process matrix is not trace preserving")
        return problems


class SynthSearch:
    """Six-segment time search plus the four-segment solve for one pair."""

    PAIRS = ((1, 2), (3, 4))

    def __init__(self):
        self.device = load_device()
        self.coeffs = {pair: self.device.pair(*pair) for pair in self.PAIRS}
        self.target = synthesis.controlled_phase_phases()

    def warm_up(self) -> None:
        pass

    def inputs(self, rng: np.random.Generator, canonical: bool = False):
        first = 0 if canonical else int(rng.integers(2))
        for i in count(first):
            yield self.PAIRS[i % 2]

    def run(self, pair):
        c = self.coeffs[pair]
        return synthesis.six_segment_optimal_time(c), synthesis.solve_four_segment(c, self.target)

    def check(self, pair, out, refs) -> list[str]:
        (t_opt, dist), times = out
        ref = refs["synth_search"][f"{pair[0]},{pair[1]}"]
        problems = []
        if not abs(t_opt - ref["six_segment_time"]) < GRID_STEP / 2:
            problems.append(f"{pair}: six-segment time {t_opt!r} != {ref['six_segment_time']!r}")
        if not dist < 1e-2:
            problems.append(f"{pair}: six-segment distance {dist:.3e} >= 1e-2")
        sched = synthesis.build_four_segment_schedule((1, 2), times)
        sim = synthesis.simulated_pair_phases(sched, self.coeffs[pair])
        residual = float(np.abs(np.angle(np.exp(1j * (sim - self.target)))).max())
        if not residual < FOUR_SEGMENT_RESIDUAL:
            problems.append(f"{pair}: four-segment residual {residual:.3e}")
        return problems


WORKLOADS = {
    "teleport_exact_noisy": TeleportExactNoisy,
    "teleport_shots_ideal": TeleportShotsIdeal,
    "qpt_shots_noisy": QptShotsNoisy,
    "synth_search": SynthSearch,
}
