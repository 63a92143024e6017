import dataclasses

import numpy as np
import pytest

from qutritsim import teleport
from qutritsim.core import DensityState, PureState, QuditIndexing, partial_trace
from qutritsim.device import load_device
from qutritsim.gates import decompose_single_qutrit, state_preparation_pulses
from qutritsim.readout import measured_probabilities
from qutritsim.scrambling import design_states, scrambler_unitary
from qutritsim.schedules import (
    ConditionalPiPulse,
    CrossKerrCoeffs,
    Evolve,
    PermutationPulse,
    PhasePulse,
    PulseSchedule,
    RotationPulse,
    simulate_density,
    simulate_unitary,
)
from qutritsim.tomography import all_settings, setting_rotation
from qutritsim.teleport import (
    ScramblerSpec,
    average_teleportation_fidelity,
    build_scrambler_arm,
    design_average_unnormalized_fidelity,
    haar_average_unnormalized_fidelity,
    heralded_channel_map,
    heralded_state_analytic,
    ideal_unitary_check,
    run_design_set,
    run_teleportation,
)

SCRAMBLE = ScramblerSpec("maximally_scrambling")
IDENTITY = ScramblerSpec("identity_control")


class TestCompilation:
    def test_scrambler_arm_exact(self, device):
        assert ideal_unitary_check(SCRAMBLE, device) < 1e-10

    def test_identity_arm_exact(self, device):
        assert ideal_unitary_check(IDENTITY, device) < 1e-10

    def test_same_gate_multiset_up_to_phase_values(self, device):
        def signature(schedule):
            out = []
            for item in schedule.items:
                if isinstance(item, Evolve):
                    out.append(("evolve", item.pairs))
                elif isinstance(item, RotationPulse):
                    out.append(("rot", item.site, item.subspace, item.axis))
                elif isinstance(item, PermutationPulse):
                    out.append(("perm", item.site, item.subspace))
                elif isinstance(item, PhasePulse):
                    out.append(("vz", item.site))
                elif isinstance(item, ConditionalPiPulse):
                    out.append(("cpi", item.control, item.target))
            return out

        a = build_scrambler_arm(SCRAMBLE, (1, 2), device, logical_first=1)
        b = build_scrambler_arm(IDENTITY, (1, 2), device, logical_first=1)
        assert signature(a) == signature(b)

    def test_invalid_choice(self):
        with pytest.raises(ValueError):
            ScramblerSpec("other")


class TestNoiselessProtocol:
    def test_scrambler_all_design_states(self, device):
        outcomes = run_design_set(SCRAMBLE, device, noise_scale=0.0)
        for o in outcomes:
            assert abs(o.fidelity - 1.0) < 1e-10
            assert abs(o.herald_probability - 1.0 / 9.0) < 1e-10
        assert average_teleportation_fidelity(outcomes) == pytest.approx(1.0, abs=1e-10)

    def test_identity_control_uniform_third(self, device):
        outcomes = run_design_set(IDENTITY, device, noise_scale=0.0)
        for o in outcomes:
            assert abs(o.fidelity - 1.0 / 3.0) < 1e-10
            # output is maximally mixed regardless of input
            assert np.abs(o.rho_out.matrix - np.eye(3) / 3.0).max() < 1e-10

    def test_matches_analytic_channel_path(self, device):
        # two independent code paths: schedule simulation vs the direct
        # tensor-contraction formula
        for ds in design_states()[::5]:
            run = run_teleportation(SCRAMBLE, ds.state, device, noise_scale=0.0)
            p, rho = heralded_state_analytic(scrambler_unitary(), ds.state)
            assert abs(run.herald_probability - p) < 1e-10
            assert np.abs(run.rho_out.matrix - rho.matrix).max() < 1e-10

    def test_average_requires_full_design_set(self, device):
        outcomes = run_design_set(SCRAMBLE, device, noise_scale=0.0)
        with pytest.raises(ValueError):
            average_teleportation_fidelity(outcomes[:11])

    def test_rejects_multi_qutrit_input(self, device):
        with pytest.raises(ValueError):
            run_teleportation(SCRAMBLE, PureState.basis((0, 0)), device)


class TestHeraldedChannel:
    def test_two_design_equals_haar_average(self, device):
        lam = heralded_channel_map(SCRAMBLE, device, noise_scale=0.0)
        assert abs(
            design_average_unnormalized_fidelity(lam) - haar_average_unnormalized_fidelity(lam)
        ) < 1e-8

    def test_noisy_channel_consistency(self, device):
        lam = heralded_channel_map(SCRAMBLE, device, noise_scale=1.0)
        assert abs(
            design_average_unnormalized_fidelity(lam) - haar_average_unnormalized_fidelity(lam)
        ) < 1e-8
        # per-state run agrees with the reconstructed linear map
        ds = design_states()[4]
        run = run_teleportation(SCRAMBLE, ds.state, device, noise_scale=1.0)
        v = ds.state.amplitudes
        rho_in = np.outer(v, v.conj())
        out = (lam @ rho_in.reshape(-1)).reshape(3, 3)
        p = np.trace(out).real
        assert abs(p - run.herald_probability) < 1e-9
        fid = np.real(v.conj() @ out @ v) / p
        assert abs(fid - run.fidelity) < 1e-9


@pytest.mark.slow
class TestNoisyProtocol:
    def test_monotone_under_noise_scaling(self, device):
        f_by_scale = {}
        for scale in (0.0, 0.5, 1.0, 2.0):
            outcomes = run_design_set(SCRAMBLE, device, noise_scale=scale)
            f_by_scale[scale] = average_teleportation_fidelity(outcomes)
        assert f_by_scale[0.0] == pytest.approx(1.0, abs=1e-10)
        assert 1.0 / 3.0 < f_by_scale[1.0] < 1.0
        vals = [f_by_scale[s] for s in (0.0, 0.5, 1.0, 2.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_shot_mode_reconstructs(self, device):
        ds = design_states()[0]
        run = run_teleportation(SCRAMBLE, ds.state, device, noise_scale=0.0, shots=4000, seed=3)
        assert run.fidelity > 0.9
        assert abs(run.herald_probability - 1.0 / 9.0) < 0.03

    def test_shot_mode_with_noise_and_confusion(self, device):
        ds = design_states()[1]
        run = run_teleportation(SCRAMBLE, ds.state, device, noise_scale=1.0, shots=4000, seed=5)
        exact = run_teleportation(SCRAMBLE, ds.state, device, noise_scale=1.0)
        assert abs(run.fidelity - exact.fidelity) < 0.12


class TestCompiledOnce:
    @pytest.mark.parametrize("shots", [None, 2000])
    def test_design_set_equals_per_state_runs(self, device, shots):
        outcomes = run_design_set(SCRAMBLE, device, noise_scale=1.0, shots=shots, seed=40)
        assert [o.label for o in outcomes] == [ds.label for ds in design_states()]
        for k, (got, ds) in enumerate(zip(outcomes, design_states())):
            ref = run_teleportation(SCRAMBLE, ds.state, device, 1.0, shots, 40 + k, label=ds.label)
            assert got.herald_probability == ref.herald_probability
            assert got.fidelity == ref.fidelity
            assert np.array_equal(got.rho_out.matrix, ref.rho_out.matrix)

    def test_shot_herald_marginal_matches_digit_loop(self, device, monkeypatch):
        # every multinomial draw and every record the run makes, seen from outside
        draws, records = [], []
        real_rng, real_tomography = teleport.shot_rng, teleport.state_tomography

        class Recorder:
            def __init__(self, gen):
                self.gen = gen

            def multinomial(self, *args):
                draws.append(self.gen.multinomial(*args))
                return draws[-1]

        def tomography(recs, *args, **kwargs):
            records.extend(recs)
            return real_tomography(recs, *args, **kwargs)

        monkeypatch.setattr(teleport, "shot_rng", lambda *a: Recorder(real_rng(*a)))
        monkeypatch.setattr(teleport, "state_tomography", tomography)
        run = run_teleportation(SCRAMBLE, design_states()[2].state, device, 1.0, shots=3000, seed=11)
        assert len(draws) == len(records) == 4
        idx = QuditIndexing(3, 5)
        for counts, record in zip(draws, records):
            marginal, kept = {}, 0
            for i, c in enumerate(counts):
                digits = idx.label_to_digits(i)
                if c and digits[1] == 0 and digits[2] == 0:
                    kept += c
                    marginal[str(digits[4])] = marginal.get(str(digits[4]), 0) + int(c)
            assert record.counts == marginal and record.shots == kept
        assert run.herald_probability == sum(r.shots for r in records) / (4 * 3000)


def _rotations(site, pulses):
    return tuple(RotationPulse(site, p.subspace, p.axis, p.angle) for p in pulses)


def _whole_circuit_oracle(spec, psi, device, noise_scale, use_echo_t2=False):
    """One uncached simulation of preparation, input pulses and the rest of
    the protocol from |0...0>: (rho_out, fidelity, herald)."""
    prep, rest = teleport._compile_protocol.__wrapped__(spec, device.pair(1, 2), device.pair(3, 4))
    load = PulseSchedule(_rotations(1, state_preparation_pulses(psi.amplitudes)), 5)
    noise = device.noise_model(noise_scale, use_echo=use_echo_t2) if noise_scale > 0 else None
    rho0 = np.zeros((243, 243), dtype=complex)
    rho0[0, 0] = 1.0
    rho = simulate_density(prep.then(load).then(rest), rho0, device.coupling_map(), noise)
    block = rho.reshape([3] * 10)[:, 0, 0, :, :, :, 0, 0, :, :].reshape(27, 27)
    p = np.trace(block).real
    rho5 = partial_trace(block / p, [3], 3, 3)
    rho5 = (rho5 + rho5.conj().T) / 2.0
    v = psi.amplitudes
    return rho5, np.real(v.conj() @ rho5 @ v), p


class TestPreparedOnce:
    def test_cached_paths_match_whole_circuit_oracle(self, device):
        # called in this order in one process, so a stale cache entry would show
        slower_q3 = dataclasses.replace(device.qutrits[2], t1_10=device.qutrits[2].t1_10 / 2)
        other_t1 = dataclasses.replace(device, qutrits=device.qutrits[:2] + (slower_q3,) + device.qutrits[3:])
        c12 = device.pair(1, 2)
        shifted = CrossKerrCoeffs(c12.alpha_11 * 1.02, c12.alpha_12, c12.alpha_21, c12.alpha_22 * 0.98)
        other_kerr = dataclasses.replace(device, pairs={**device.pairs, (1, 2): shifted})
        cases = [
            (SCRAMBLE, device, 1.0, False),
            (SCRAMBLE, device, 0.5, False),
            (SCRAMBLE, device, 1.0, False),
            (SCRAMBLE, device, 1.0, True),
            (IDENTITY, device, 1.0, False),
            (SCRAMBLE, other_t1, 1.0, False),
            (SCRAMBLE, other_kerr, 1.0, False),
        ]
        psi = design_states()[7].state
        for spec, dev, scale, echo in cases:
            got = run_teleportation(spec, psi, dev, scale, use_echo_t2=echo)
            rho5, fid, herald = _whole_circuit_oracle(spec, psi, dev, scale, echo)
            assert np.abs(got.rho_out.matrix - rho5).max() < 1e-12
            assert abs(got.fidelity - fid) < 1e-12
            assert abs(got.herald_probability - herald) < 1e-12
        compiled = teleport.build_protocol_schedules(SCRAMBLE, device)
        assert teleport.build_protocol_schedules(SCRAMBLE, load_device()) is compiled
        assert teleport.build_protocol_schedules(SCRAMBLE, other_kerr)[1] != compiled[1]

    def test_prepared_register_is_read_only(self, device):
        prep, _ = teleport.build_protocol_schedules(SCRAMBLE, device)
        rho = teleport._prepared(prep, device.noise_model(1.0), device.coupling_map())
        assert rho.shape == (81, 81) and not rho.flags.writeable
        assert abs(np.trace(rho) - 1.0) < 1e-12

    def test_preparation_that_moves_qutrit_1_is_refused(self, device):
        prep, _ = teleport.build_protocol_schedules(SCRAMBLE, device)
        moved = PulseSchedule((RotationPulse(1, "01", "x", 0.3),) + prep.items, 5)
        with pytest.raises(teleport.PreparationNotFactorizedError):
            teleport._prepared(moved, None, device.coupling_map())

    @pytest.mark.parametrize("with_confusion", [False, True])
    def test_setting_probabilities_match_pre_rotation_simulation(self, device, rng, with_confusion):
        a = rng.normal(size=(243, 243)) + 1j * rng.normal(size=(243, 243))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        confusion = device.confusion_matrices() if with_confusion else None
        for setting in all_settings(1):
            pre = _rotations(5, decompose_single_qutrit(setting_rotation(setting)))
            rotated = simulate_density(PulseSchedule(pre, 5), rho, device.coupling_map())
            old = measured_probabilities(DensityState(rotated, QuditIndexing(3, 5), validate=False), confusion)
            new = teleport._setting_probabilities(rho, setting, confusion)
            assert np.abs(new - old).max() < 1e-14

    def test_setting_unitaries_are_built_once_and_read_only(self):
        for setting in all_settings(1):
            pre = _rotations(1, decompose_single_qutrit(setting_rotation(setting)))
            rebuilt = simulate_unitary(PulseSchedule(pre, 1)).matrix
            cached = teleport._setting_unitary(setting)
            assert np.array_equal(cached, rebuilt)
            assert teleport._setting_unitary(setting) is cached
            assert not cached.flags.writeable
