"""Native single-qutrit gate set and the two-qutrit cross-resonance gate.

The hardware-native operations are x/y/z rotations in the 01 and 12
subspaces (z virtually, by rephasing later pulses), plus a conditional-pi
entangling gate obtained from the cross-resonance interaction.  Rotations
in the 02 subspace are compiled from 01/12 pulses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    SUBSPACE_GENERATORS,
    DimensionMismatchError,
    QuditIndexing,
    QuditOperator,
)

_SUBSPACE_LEVELS = {"01": (0, 1), "12": (1, 2), "02": (0, 2)}
_AXES = ("x", "y", "z")


def _levels(subspace: str) -> tuple[int, int]:
    if subspace not in _SUBSPACE_LEVELS:
        raise ValueError(f"unknown subspace {subspace!r}")
    return _SUBSPACE_LEVELS[subspace]


@dataclass(frozen=True)
class SubspaceRotation:
    """exp(-i (angle/2) s_axis^subspace) on a single qutrit."""

    subspace: str  # "01" | "12" (02 supported for convenience)
    axis: str  # "x" | "y" | "z"
    angle: float

    def __post_init__(self):
        _levels(self.subspace)
        if self.axis not in _AXES:
            raise ValueError(f"unknown axis {self.axis!r}")

    def generator(self) -> np.ndarray:
        return SUBSPACE_GENERATORS[(self.subspace, self.axis)]

    def inverse(self) -> "SubspaceRotation":
        return SubspaceRotation(self.subspace, self.axis, -self.angle)


def rotation_matrix(subspace: str, axis: str, angle: float) -> np.ndarray:
    """Closed-form exp(-i (angle/2) s); identity on the untouched level."""
    if axis not in _AXES:
        raise ValueError(f"unknown axis {axis!r}")
    i, j = _levels(subspace)
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    u = np.eye(3, dtype=complex)
    if axis == "x":
        u[i, i] = c
        u[j, j] = c
        u[i, j] = -1j * s
        u[j, i] = -1j * s
    elif axis == "y":
        u[i, i] = c
        u[j, j] = c
        u[i, j] = -s
        u[j, i] = s
    else:
        u[i, i] = np.exp(-1j * angle / 2.0)
        u[j, j] = np.exp(1j * angle / 2.0)
    return u


def rotation_unitary(rotation: SubspaceRotation) -> QuditOperator:
    m = rotation_matrix(rotation.subspace, rotation.axis, rotation.angle)
    return QuditOperator(m, QuditIndexing(3, 1))


def permutation_matrix(subspace: str) -> np.ndarray:
    """Phase-free swap of the two subspace levels."""
    i, j = _levels(subspace)
    p = np.eye(3, dtype=complex)
    p[[i, j]] = p[[j, i]]
    return p


def compose_s02(theta: float, axis: str) -> QuditOperator:
    """02-subspace rotation from three native pulses.

    A pi/2 pulse in the 12 subspace carries the 01 rotation axes onto 02
    ones; the y-axis sandwich preserves the axis label (an x-axis sandwich
    lands on the other axis), giving exactly
    exp(-i th/2 s_{x/y}^02) = exp(-i pi/2 s_y^12) exp(-i th/2 s_{x/y}^01) exp(+i pi/2 s_y^12),
    applied right to left.
    """
    if axis not in ("x", "y"):
        raise ValueError("only x and y rotations are compiled this way")
    first = rotation_matrix("12", "y", -np.pi)
    middle = rotation_matrix("01", axis, theta)
    last = rotation_matrix("12", "y", np.pi)
    return QuditOperator(last @ middle @ first, QuditIndexing(3, 1))


class VirtualPhaseFrame:
    """Software z-gate bookkeeping for one qutrit.

    A z rotation is never applied physically; it accumulates in the frame
    and every later pulse P compiles to D^dag P D, where D is the diagonal
    of all z rotations absorbed so far.  ``residual()`` returns D for a
    final flush, so that

        flush_diag @ (compiled pulses, in order) == (physical sequence)

    holds exactly.
    """

    def __init__(self):
        self._phases = np.zeros(3)

    def copy(self) -> "VirtualPhaseFrame":
        other = VirtualPhaseFrame()
        other._phases = self._phases.copy()
        return other

    def absorb_z(self, subspace: str, angle: float) -> None:
        i, j = _levels(subspace)
        self._phases[i] += -angle / 2.0
        self._phases[j] += angle / 2.0

    def inverse(self) -> "VirtualPhaseFrame":
        other = VirtualPhaseFrame()
        other._phases = -self._phases
        return other

    def is_identity(self, atol: float = 1e-12) -> bool:
        rel = self._phases - self._phases[0]
        return bool(np.all(np.abs(np.exp(1j * rel) - 1.0) < atol))

    def diagonal(self) -> np.ndarray:
        return np.diag(np.exp(1j * self._phases))

    def compile_pulse(self, pulse: np.ndarray) -> np.ndarray:
        d = self.diagonal()
        return d.conj().T @ pulse @ d

    def residual(self) -> np.ndarray:
        return self.diagonal()


def diagonal_phase_angles(diag_phases) -> tuple[float, float]:
    """Split diag(e^{i p0}, e^{i p1}, e^{i p2}) into z01 and z12 angles.

    Returns (a, b) with Rz01(a) Rz12(b) equal to the diagonal up to a
    global phase; solves -a/2 + c = p0, a/2 - b/2 + c = p1, b/2 + c = p2.
    """
    p = np.asarray(diag_phases, dtype=float).reshape(3)
    m = np.array([[-0.5, 0.0, 1.0], [0.5, -0.5, 1.0], [0.0, 0.5, 1.0]])
    sol = np.linalg.solve(m, p)
    return float(sol[0]), float(sol[1])


# ---------------------------------------------------------------------------
# conditional-pi / cross-resonance
# ---------------------------------------------------------------------------


def conditional_pi(condition: int = 1) -> QuditOperator:
    """Two-qutrit gate swapping the target's |0>,|1> when the control sits
    in the trigger level; identity on the other control levels."""
    if condition not in (0, 1, 2):
        raise ValueError("condition must be a qutrit level")
    swap01 = permutation_matrix("01")
    blocks = [np.eye(3, dtype=complex)] * 3
    blocks[condition] = swap01
    u = np.zeros((9, 9), dtype=complex)
    for c in range(3):
        u[3 * c : 3 * c + 3, 3 * c : 3 * c + 3] = blocks[c]
    return QuditOperator(u, QuditIndexing(3, 2))


def conditional_pi_partial(condition: int, fraction: float) -> np.ndarray:
    """Principal fractional power of the conditional-pi gate.

    Splitting a conditional-pi into k equal segments multiplies back to the
    exact gate; used by decoupling sequences that interleave pulses with a
    stretched entangling gate.
    """
    swap01 = permutation_matrix("01")
    vals, vecs = np.linalg.eigh(swap01)
    frac_swap = (vecs * np.exp(1j * np.pi * fraction * (vals < 0))) @ vecs.conj().T
    blocks = [np.eye(3, dtype=complex)] * 3
    blocks[condition] = frac_swap
    u = np.zeros((9, 9), dtype=complex)
    for c in range(3):
        u[3 * c : 3 * c + 3, 3 * c : 3 * c + 3] = blocks[c]
    return u


@dataclass(frozen=True)
class CrossResonanceParams:
    """Conditional Rabi frequencies (rad/s) for control levels 0, 1, 2 and
    the gate duration in seconds.

    ``omega_k`` is the angular frequency of the target's population
    oscillation when the control occupies level k, so the evolution block
    for control level k is a 01-subspace x rotation by angle omega_k * t.
    """

    omega_0: float
    omega_1: float
    omega_2: float
    t_gate: float

    def __post_init__(self):
        for w in (self.omega_0, self.omega_1, self.omega_2):
            if not np.isfinite(w):
                raise ValueError("Rabi frequencies must be finite")
        if self.t_gate <= 0:
            raise ValueError("gate time must be positive")


def cross_resonance_unitary(
    params: CrossResonanceParams,
    target_drive: SubspaceRotation | None = None,
) -> QuditOperator:
    """Evolution under the conditional-Rabi Hamiltonian for the gate time.

    Control on the first qutrit, target on the second.  With
    omega_0 == omega_2, t * omega_0 an integer multiple of 2*pi and
    t * |omega_0 - omega_1| == pi the result is the conditional-pi gate up
    to a diagonal phase matrix.  ``target_drive`` optionally appends a
    concurrent local rotation on the target.
    """
    u = np.zeros((9, 9), dtype=complex)
    for c, w in enumerate((params.omega_0, params.omega_1, params.omega_2)):
        block = rotation_matrix("01", "x", w * params.t_gate)
        u[3 * c : 3 * c + 3, 3 * c : 3 * c + 3] = block
    if target_drive is not None:
        local = rotation_matrix(target_drive.subspace, target_drive.axis, target_drive.angle)
        u = np.kron(np.eye(3, dtype=complex), local) @ u
    return QuditOperator(u, QuditIndexing(3, 2))


def up_to_diagonal(u, v, atol: float = 1e-9) -> bool:
    """True when u == D v for a diagonal unit-modulus D."""
    mu = u.matrix if isinstance(u, QuditOperator) else np.asarray(u)
    mv = v.matrix if isinstance(v, QuditOperator) else np.asarray(v)
    m = mu @ mv.conj().T
    off = m - np.diag(np.diag(m))
    if np.abs(off).max() > atol:
        return False
    return bool(np.abs(np.abs(np.diag(m)) - 1.0).max() < atol)


# ---------------------------------------------------------------------------
# native decomposition of arbitrary single-qutrit unitaries
# ---------------------------------------------------------------------------


def _two_level_rotation(subspace: str, theta: float, phi: float) -> np.ndarray:
    """exp(-i th/2 (cos(phi) sx + sin(phi) sy)) on the subspace."""
    i, j = _SUBSPACE_LEVELS[subspace]
    u = np.eye(3, dtype=complex)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    u[i, i] = c
    u[j, j] = c
    u[i, j] = -1j * s * np.exp(-1j * phi)
    u[j, i] = -1j * s * np.exp(1j * phi)
    return u


def _eliminating_rotation(a: complex, b: complex) -> tuple[float, float]:
    """(theta, phi) so the rotation sends the column piece (a, b) to (r, 0)."""
    if abs(b) < 1e-15:
        return 0.0, 0.0
    theta = -2.0 * np.arctan2(abs(b), abs(a))
    phi = np.angle(b) - (np.angle(a) if abs(a) > 1e-15 else 0.0) + np.pi / 2.0
    return theta, phi


def _axis_phi_pulses(subspace: str, theta: float, phi: float) -> list[SubspaceRotation]:
    """Native pulses for R(theta, phi), in application (time) order."""
    if abs(theta) < 1e-15:
        return []
    return [
        SubspaceRotation(subspace, "z", -phi),
        SubspaceRotation(subspace, "x", theta),
        SubspaceRotation(subspace, "z", phi),
    ]


def decompose_single_qutrit(u: np.ndarray) -> list[SubspaceRotation]:
    """Express a 3x3 unitary as native 01/12 rotations, up to a global phase.

    Returns pulses in application (time) order; reconstruction error is at
    double precision.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (3, 3):
        raise DimensionMismatchError("expected a single-qutrit unitary")

    work = u.copy()
    givens: list[tuple[str, float, float]] = []
    # W = G3 G2 G1 u becomes diagonal, so u = G1' G2' G3' D with ' = dagger.
    for subspace, (i, j), col in (("12", (1, 2), 0), ("01", (0, 1), 0), ("12", (1, 2), 1)):
        theta, phi = _eliminating_rotation(work[i, col], work[j, col])
        g = _two_level_rotation(subspace, theta, phi)
        work = g @ work
        givens.append((subspace, theta, phi))

    phases = np.angle(np.diag(work))
    a, b = diagonal_phase_angles(phases)
    pulses = [SubspaceRotation("01", "z", a), SubspaceRotation("12", "z", b)]
    for subspace, theta, phi in reversed(givens):
        pulses.extend(_axis_phi_pulses(subspace, -theta, phi))
    return pulses


def pulses_to_matrix(pulses) -> np.ndarray:
    u = np.eye(3, dtype=complex)
    for p in pulses:
        u = rotation_matrix(p.subspace, p.axis, p.angle) @ u
    return u


def state_preparation_pulses(amplitudes) -> list[SubspaceRotation]:
    """Native pulses mapping |0> to the given normalized qutrit state."""
    v = np.asarray(amplitudes, dtype=complex).reshape(3)
    v = v / np.linalg.norm(v)
    # Complete to a unitary with v as the first column.
    basis = [v]
    for e in np.eye(3, dtype=complex):
        w = e.copy()
        for b in basis:
            w = w - (b.conj() @ w) * b
        if np.linalg.norm(w) > 1e-7:
            basis.append(w / np.linalg.norm(w))
        if len(basis) == 3:
            break
    u = np.column_stack(basis)
    return decompose_single_qutrit(u)
