import numpy as np
import pytest
from scipy.linalg import expm

from qutritsim.core import SUBSPACE_GENERATORS, haar_random_unitary, hadamard_matrix
from qutritsim.gates import (
    CrossResonanceParams,
    SubspaceRotation,
    VirtualPhaseFrame,
    compose_s02,
    conditional_pi,
    conditional_pi_partial,
    cross_resonance_unitary,
    decompose_single_qutrit,
    permutation_matrix,
    pulses_to_matrix,
    rotation_matrix,
    rotation_unitary,
    state_preparation_pulses,
    up_to_diagonal,
)


def expm_oracle(subspace, axis, angle):
    return expm(-1j * (angle / 2.0) * SUBSPACE_GENERATORS[(subspace, axis)])


class TestRotations:
    def test_pi_pulse_01_matrix(self):
        u = rotation_unitary(SubspaceRotation("01", "x", np.pi)).matrix
        expected = np.array([[0, -1j, 0], [-1j, 0, 0], [0, 0, 1]])
        assert np.abs(u - expected).max() < 1e-15

    def test_zero_angle_identity(self):
        for sub in ("01", "12"):
            for axis in ("x", "y", "z"):
                u = rotation_unitary(SubspaceRotation(sub, axis, 0.0)).matrix
                assert np.abs(u - np.eye(3)).max() == 0.0

    def test_two_pi_minus_identity_on_subspace(self):
        u = rotation_unitary(SubspaceRotation("01", "x", 2 * np.pi)).matrix
        assert np.abs(u - np.diag([-1.0, -1.0, 1.0])).max() < 1e-12

    def test_closed_form_matches_exponential(self, rng):
        for _ in range(20):
            sub = ("01", "12")[rng.integers(2)]
            axis = "xyz"[rng.integers(3)]
            angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            got = rotation_matrix(sub, axis, angle)
            assert np.abs(got - expm_oracle(sub, axis, angle)).max() < 1e-12

    def test_unitary_and_untouched_level(self, rng):
        for _ in range(30):
            sub = ("01", "12")[rng.integers(2)]
            axis = "xyz"[rng.integers(3)]
            angle = float(rng.uniform(-7, 7))
            u = rotation_unitary(SubspaceRotation(sub, axis, angle))
            assert u.is_unitary(1e-12)
            spare = 2 if sub == "01" else 0
            e = np.zeros(3)
            e[spare] = 1.0
            assert np.abs(u.matrix @ e - e).max() < 1e-12

    def test_invalid_subspace_axis(self):
        with pytest.raises(ValueError):
            SubspaceRotation("03", "x", 1.0)
        with pytest.raises(ValueError):
            SubspaceRotation("01", "q", 1.0)


class TestComposeS02:
    def test_pi_exchanges_levels(self):
        u = compose_s02(np.pi, "x").matrix
        v = np.zeros(3)
        v[0] = 1.0
        out = u @ v
        assert abs(abs(out[2]) - 1.0) < 1e-12

    def test_zero_identity(self):
        assert np.abs(compose_s02(0.0, "x").matrix - np.eye(3)).max() < 1e-15

    def test_matches_direct_exponential(self):
        for axis in ("x", "y"):
            for theta in (np.pi / 2, np.pi, -1.1, 2.5):
                got = compose_s02(theta, axis).matrix
                assert np.abs(got - expm_oracle("02", axis, theta)).max() < 1e-10


class TestVirtualPhaseFrame:
    def test_frame_then_inverse_is_identity(self):
        f = VirtualPhaseFrame()
        f.absorb_z("01", 0.7)
        f.absorb_z("12", -1.3)
        g = f.inverse()
        combined = f.diagonal() @ g.diagonal()
        assert np.abs(combined - np.eye(3)).max() < 1e-12
        h = f.copy()
        h.absorb_z("01", -0.7)
        h.absorb_z("12", 1.3)
        assert h.is_identity()

    def test_virtual_equals_physical_random_sequences(self, rng):
        # randomized pulse sequences of length <= 20: compiling z rotations
        # into the frame and flushing at the end reproduces the physical
        # product up to global phase
        for trial in range(25):
            n_ops = int(rng.integers(1, 21))
            physical = np.eye(3, dtype=complex)
            frame = VirtualPhaseFrame()
            compiled = np.eye(3, dtype=complex)
            for _ in range(n_ops):
                sub = ("01", "12")[rng.integers(2)]
                axis = "xyz"[rng.integers(3)]
                angle = float(rng.uniform(-np.pi, np.pi))
                pulse = rotation_matrix(sub, axis, angle)
                physical = pulse @ physical
                if axis == "z":
                    frame.absorb_z(sub, angle)
                else:
                    compiled = frame.compile_pulse(pulse) @ compiled
            final = frame.residual() @ compiled
            inner = np.trace(physical.conj().T @ final) / 3.0
            assert abs(abs(inner) - 1.0) < 1e-10, trial


class TestConditionalPi:
    def test_printed_action(self):
        u = conditional_pi().matrix
        idx = lambda m, n: 3 * m + n  # noqa: E731
        v = np.zeros(9)
        v[idx(1, 0)] = 1.0
        assert np.argmax(np.abs(u @ v)) == idx(1, 1)
        for j in range(3):
            e = np.zeros(9)
            e[idx(0, j)] = 1.0
            assert np.abs(u @ e - e).max() < 1e-15

    def test_square_is_identity(self):
        u = conditional_pi()
        assert np.abs((u @ u).matrix - np.eye(9)).max() < 1e-14

    def test_partial_powers_compose(self):
        third = conditional_pi_partial(1, 1.0 / 3.0)
        assert np.abs(np.linalg.matrix_power(third, 3) - conditional_pi().matrix).max() < 1e-12

    def test_condition_levels(self):
        u2 = conditional_pi(condition=2).matrix
        v = np.zeros(9)
        v[3 * 2 + 0] = 1.0
        assert np.argmax(np.abs(u2 @ v)) == 3 * 2 + 1


class TestCrossResonance:
    def test_trivial_operating_point(self):
        tg = 125e-9
        u = cross_resonance_unitary(CrossResonanceParams(0.0, np.pi / tg, 0.0, tg))
        assert up_to_diagonal(u, conditional_pi())

    def test_device_operating_point(self):
        # 4 MHz conditional-frequency difference over 125 ns, equal outer
        # frequencies at a full population cycle
        tg = 125e-9
        w1 = 2 * np.pi * 4e6
        w0 = 2 * np.pi * 8e6
        assert abs(tg * abs(w0 - w1) - np.pi) < 1e-12
        u = cross_resonance_unitary(CrossResonanceParams(w0, w1, w0, tg))
        assert up_to_diagonal(u, conditional_pi())

    def test_generic_frequencies_match_exponential(self, rng):
        tg = 97e-9
        ws = tuple(float(w) for w in rng.uniform(-3e7, 3e7, size=3))
        h = np.zeros((9, 9), dtype=complex)
        for c, w in enumerate(ws):
            proj = np.zeros((3, 3))
            proj[c, c] = 1.0
            h += np.kron(proj, (w / 2.0) * SUBSPACE_GENERATORS[("01", "x")])
        oracle = expm(-1j * h * tg)
        got = cross_resonance_unitary(CrossResonanceParams(*ws, tg)).matrix
        assert np.abs(got - oracle).max() < 1e-12

    def test_block_structure(self, rng):
        ws = tuple(float(w) for w in rng.uniform(-1e7, 1e7, size=3))
        u = cross_resonance_unitary(CrossResonanceParams(*ws, 2e-7)).matrix
        for c in range(3):
            for cp in range(3):
                if c != cp:
                    block = u[3 * c : 3 * c + 3, 3 * cp : 3 * cp + 3]
                    assert np.abs(block).max() < 1e-15

    def test_concurrent_target_drive(self):
        tg = 125e-9
        drive = SubspaceRotation("01", "z", 0.4)
        u = cross_resonance_unitary(CrossResonanceParams(0.0, np.pi / tg, 0.0, tg), drive)
        base = cross_resonance_unitary(CrossResonanceParams(0.0, np.pi / tg, 0.0, tg))
        local = np.kron(np.eye(3), rotation_matrix("01", "z", 0.4))
        assert np.abs(u.matrix - local @ base.matrix).max() < 1e-13

    def test_validation(self):
        with pytest.raises(ValueError):
            CrossResonanceParams(0.0, np.inf, 0.0, 1e-7)
        with pytest.raises(ValueError):
            CrossResonanceParams(0.0, 1.0, 0.0, 0.0)


class TestDecomposition:
    def test_random_unitaries(self, rng):
        for _ in range(40):
            u = haar_random_unitary(3, rng)
            v = pulses_to_matrix(decompose_single_qutrit(u))
            inner = np.trace(u.conj().T @ v) / 3.0
            assert abs(abs(inner) - 1.0) < 1e-10
            assert np.abs(v * np.conj(inner / abs(inner)) - u).max() < 1e-10

    def test_hadamard(self):
        h = hadamard_matrix()
        v = pulses_to_matrix(decompose_single_qutrit(h))
        inner = np.trace(h.conj().T @ v) / 3.0
        assert np.abs(v * np.conj(inner / abs(inner)) - h).max() < 1e-10

    def test_state_preparation(self, rng):
        for _ in range(20):
            amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            amps = amps / np.linalg.norm(amps)
            u = pulses_to_matrix(state_preparation_pulses(amps))
            out = u @ np.array([1.0, 0.0, 0.0])
            overlap = abs(np.vdot(amps, out))
            assert abs(overlap - 1.0) < 1e-10

    def test_permutations_are_transpositions(self):
        for sub in ("01", "12", "02"):
            p = permutation_matrix(sub)
            assert np.abs(p @ p - np.eye(3)).max() == 0.0


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: rotation_matrix("01", "q", 1.0), "unknown axis 'q'"),
        (lambda: rotation_matrix("03", "x", 1.0), "unknown subspace '03'"),
        (lambda: permutation_matrix("21"), "unknown subspace '21'"),
    ],
)
def test_unknown_axis_or_subspace_raises(build, match):
    with pytest.raises(ValueError, match=match):
        build()
