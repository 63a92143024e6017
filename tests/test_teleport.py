import numpy as np
import pytest

from qutritsim import teleport
from qutritsim.core import PureState, QuditIndexing
from qutritsim.scrambling import design_states, scrambler_unitary
from qutritsim.schedules import (
    ConditionalPiPulse,
    Evolve,
    PermutationPulse,
    PhasePulse,
    RotationPulse,
)
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
