import dataclasses
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritsim import kernels, schedules
from qutritsim.core import DimensionMismatchError, QuditIndexing, embed
from qutritsim.schedules import (
    Concurrent,
    ConditionalPiPulse,
    CrossKerrCoeffs,
    Evolve,
    NoiseModel,
    PermutationPulse,
    PhasePulse,
    PulseSchedule,
    RotationPulse,
    ScheduleSimulator,
    ScheduleValidationError,
    parallel_merge,
    simulate_density,
    simulate_unitary,
)

Q1Q2 = CrossKerrCoeffs.from_khz(-279, 160, -528, -743)


def test_coefficients_validate():
    with pytest.raises(ValueError):
        CrossKerrCoeffs(np.nan, 0, 0, 0)
    m = Q1Q2.rate_matrix()
    assert m[0].max() == 0.0 and m[:, 0].max() == 0.0
    assert m[1, 2] == pytest.approx(2 * np.pi * 160e3)


def test_transpose_swaps_cross_terms():
    t = Q1Q2.transpose()
    assert t.alpha_12 == Q1Q2.alpha_21 and t.alpha_21 == Q1Q2.alpha_12


def test_evolve_phases_match_direct_diagonal():
    sched = PulseSchedule((Evolve(((1, 2),), 1e-6),), 2)
    u = simulate_unitary(sched, {(1, 2): Q1Q2}).matrix
    rates = Q1Q2.rate_matrix()
    expected = np.diag(
        [np.exp(-1j * rates[m, n] * 1e-6) for m in range(3) for n in range(3)]
    )
    assert np.abs(u - expected).max() < 1e-12


def test_evolve_orientation_independent():
    # the coupling Hamiltonian does not depend on how the pair is written
    fwd = simulate_unitary(PulseSchedule((Evolve(((1, 2),), 1e-6),), 2), {(1, 2): Q1Q2})
    rev = simulate_unitary(PulseSchedule((Evolve(((2, 1),), 1e-6),), 2), {(1, 2): Q1Q2})
    assert np.abs(fwd.matrix - rev.matrix).max() < 1e-12
    # a dict keyed in the opposite orientation transposes the rate matrix
    flipped = simulate_unitary(
        PulseSchedule((Evolve(((1, 2),), 1e-6),), 2), {(2, 1): Q1Q2}
    ).matrix
    rates = Q1Q2.rate_matrix().T
    expected = np.diag(
        [np.exp(-1j * rates[m, n] * 1e-6) for m in range(3) for n in range(3)]
    )
    assert np.abs(flipped - expected).max() < 1e-12


def test_missing_coupling_raises():
    sched = PulseSchedule((Evolve(((1, 2),), 1e-6),), 2)
    with pytest.raises(KeyError):
        simulate_unitary(sched, {})


def _pulse(**fields):
    return {"type": "pulse", "site": 1, "subspace": "01", "axis": "x", "angle_rad": 0.5, **fields}


def _cpi(**fields):
    return {"type": "conditional_pi", "control": 1, "target": 2, "duration_ns": "100", **fields}


def _evolve(**fields):
    return {"type": "evolve", "pairs": [[1, 2]], "duration_ns": "100", **fields}


@pytest.mark.parametrize(
    "item, match",
    [
        pytest.param(_evolve(duration_ns="-1"), "nonnegative", id="negative-evolve"),
        pytest.param(_cpi(duration_ns="-1"), "nonnegative", id="negative-cpi"),
        pytest.param(_evolve(duration_ns="Infinity"), "finite", id="inf-duration"),
        pytest.param(
            {"type": "concurrent", "parts": [_evolve()], "duration_ns": "NaN"}, "finite", id="nan-concurrent"
        ),
        pytest.param(_pulse(angle_rad=float("nan")), "finite", id="nan-angle"),
        pytest.param(_pulse(phases_rad=[0.0, float("inf"), 0.0]), "finite", id="inf-phase"),
        pytest.param(_cpi(fraction=float("nan")), "finite", id="nan-fraction"),
        pytest.param(_pulse(site=0), r"in 1\.\.2", id="site-0"),
        pytest.param(_pulse(site=3), r"in 1\.\.2", id="site-past-register"),
        pytest.param(_pulse(site=1.5), r"in 1\.\.2", id="fractional-site"),
        pytest.param(_evolve(pairs=[[2, 3]]), r"in 1\.\.2", id="evolve-pair-past-register"),
        pytest.param(
            {"type": "concurrent", "parts": [_cpi(target=3)], "duration_ns": "100"}, r"in 1\.\.2", id="concurrent-part-site"
        ),
        pytest.param(_evolve(pairs=[[1, 1]]), "distinct", id="evolve-self-pair"),
        pytest.param(_cpi(target=1), "both site", id="control-is-target"),
        pytest.param(_cpi(condition=3), "condition", id="condition-3"),
        pytest.param(_cpi(condition=1.0), "condition", id="fractional-condition"),
        pytest.param(_pulse(phases_rad=[0.1, 0.2]), "3 phases", id="two-phases"),
        pytest.param(_pulse(subspace="03"), "subspace", id="unknown-subspace"),
        pytest.param(_pulse(subspace="03", perm=True), "subspace", id="unknown-permutation"),
        pytest.param(_pulse(axis="q"), "axis", id="unknown-axis"),
    ],
)
def test_invalid_items_rejected(item, match):
    # every bad item fails when it is built, with one error type, so the
    # loader and both simulators fail the same way
    text = json.dumps({"n_sites": 2, "items": [item]})
    rho0 = np.eye(9, dtype=complex) / 9
    runs = (
        PulseSchedule.from_json,
        lambda t: simulate_unitary(PulseSchedule.from_json(t), {(1, 2): Q1Q2}),
        lambda t: simulate_density(PulseSchedule.from_json(t), rho0, {(1, 2): Q1Q2}),
    )
    for run in runs:
        with pytest.raises(ScheduleValidationError, match=match):
            run(text)


def test_simulators_agree_without_noise(rng):
    couplings = {(1, 2): Q1Q2, (2, 3): CrossKerrCoeffs.from_khz(-276, -631, 243, -748)}
    items = (
        RotationPulse(1, "01", "y", rng.uniform(-np.pi, np.pi)),
        RotationPulse(3, "12", "x", rng.uniform(-np.pi, np.pi)),
        Concurrent((ConditionalPiPulse(1, 2, 5e-8, condition=2, fraction=0.37), Evolve(((2, 3),), 5e-8)), 5e-8),
        PhasePulse(2, tuple(rng.uniform(-np.pi, np.pi, 3))),
        PermutationPulse(3, "02"),
        Evolve(((1, 2), (2, 3)), 1.3e-7),
        ConditionalPiPulse(3, 2, 1e-7, condition=0, fraction=-0.61),
        RotationPulse(2, "02", "z", rng.uniform(-np.pi, np.pi)),
    )
    sched = PulseSchedule(items, 3)
    a = rng.standard_normal((27, 27)) + 1j * rng.standard_normal((27, 27))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0)
    u = simulate_unitary(sched, couplings).matrix
    rho = simulate_density(sched, rho0, couplings)
    assert np.abs(rho - u @ rho0 @ u.conj().T).max() < 1e-12


def test_conditional_pi_matches_dense_oracle():
    sim = ScheduleSimulator(3, {})
    for item in (ConditionalPiPulse(3, 1, 1e-7, condition=2, fraction=0.3), ConditionalPiPulse(2, 3, 1e-7)):
        u = simulate_unitary(PulseSchedule((item,), 3), {}).matrix
        assert np.abs(u - sim.item_unitary(item)).max() < 1e-14


def _reference_density(sched, rho, couplings, noise, background):
    """Per-step reference walk: dense conjugation for every unitary step and
    the Kraus-sum kernel for every noise channel, applied in schedule order."""
    n = sched.n_sites

    def conjugate(u, rho):
        return u @ rho @ u.conj().T

    for step in ScheduleSimulator(n, couplings).steps(sched.items):
        match step:
            case ("site", site, m):
                rho = conjugate(embed(m, [site], n).matrix, rho)
            case ("phase", a, b, phi):
                rho = conjugate(embed(np.diag(np.exp(-1j * phi.reshape(-1))), [a, b], n).matrix, rho)
            case ("pair", a, b, g):
                rho = conjugate(embed(g, [a, b], n).matrix, rho)
            case ("segment", duration, excluded):
                pairs = tuple(p for p in background if frozenset(p) not in excluded)
                if pairs:
                    evolve = PulseSchedule((Evolve(pairs, duration),), n)
                    rho = conjugate(simulate_unitary(evolve, background).matrix, rho)
                for site in range(1, n + 1):
                    stack = noise.site_kraus(site, duration)
                    rho = kernels.apply_site_kraus(rho, stack, 3 ** (site - 1), 3, 3 ** (n - site))
    return rho


def test_noisy_density_matches_per_step_reference(rng, device):
    couplings = {(1, 2): Q1Q2, (2, 4): CrossKerrCoeffs.from_khz(-276, -631, 243, -748)}
    # (1, 3) is excluded while the conditional-pi on (3, 1) runs
    background = {
        (1, 2): Q1Q2,
        (1, 3): CrossKerrCoeffs.from_khz(-150, 90, -310, -420),
        (3, 4): Q1Q2.transpose(),
    }
    th = rng.uniform(-np.pi, np.pi, 9)
    items = (
        RotationPulse(1, "01", "y", th[0]),
        RotationPulse(2, "12", "x", th[1]),
        Evolve(((1, 2),), 8e-8),
        PermutationPulse(3, "12"),
        PhasePulse(1, tuple(th[2:5])),
        RotationPulse(1, "02", "x", th[5]),
        Concurrent(
            (ConditionalPiPulse(3, 1, 6e-8, condition=2, fraction=0.41), Evolve(((2, 4),), 6e-8)), 6e-8
        ),
        RotationPulse(4, "02", "y", th[6]),
        ConditionalPiPulse(2, 4, 1e-7),
        RotationPulse(3, "01", "z", th[7]),
        RotationPulse(4, "12", "y", th[8]),
    )
    sched = PulseSchedule(items, 4)
    noise = device.noise_model(20.0)
    a = rng.standard_normal((81, 81)) + 1j * rng.standard_normal((81, 81))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0)
    got = simulate_density(sched, rho0, couplings, noise, background)
    ref = _reference_density(sched, rho0, couplings, noise, background)
    assert np.abs(got - ref).max() < 1e-12
    assert abs(np.trace(got) - 1.0) < 1e-12
    assert np.abs(got - got.conj().T).max() < 1e-12
    # the noise is large enough that a misplaced channel would show
    assert np.abs(ref - simulate_density(sched, rho0, couplings, None, background)).max() > 1e-4



# every pair of a 4-site register, two of them keyed in reverse order
_ALL_PAIRS = {
    (1, 2): Q1Q2,
    (3, 1): CrossKerrCoeffs.from_khz(-150, 90, -310, -420),
    (1, 4): CrossKerrCoeffs.from_khz(-276, -631, 243, -748),
    (2, 3): CrossKerrCoeffs.from_khz(120, -80, -400, 300),
    (4, 2): CrossKerrCoeffs.from_khz(-90, 210, -35, -610),
    (3, 4): Q1Q2.transpose(),
}
_NOISE_4 = NoiseModel(damping=[(50e-6, 25e-6)] * 4, dephasing=[(20e-6, 10e-6, 8e-6)] * 4, scale=20.0)


def _density(seed, dim):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


@st.composite
def _density_cases(draw):
    """Random 3- and 4-site schedules over every item kind: non-adjacent and
    reversed pairs, Concurrent blocks, one pair coupled twice in a row,
    background couplings and noise."""
    n = draw(st.sampled_from([3, 4]))
    site = st.integers(1, n)
    angle = st.floats(-np.pi, np.pi)
    subspace = st.sampled_from(["01", "12", "02"])
    duration = st.sampled_from([3e-8, 7e-8, 1.2e-7])

    def pair():
        a = draw(site)
        return a, draw(site.filter(lambda b: b != a))

    def cpi(a, b, dt):
        return ConditionalPiPulse(a, b, dt, condition=draw(st.integers(0, 2)), fraction=draw(st.floats(-1, 1)))

    items = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["rotation", "permutation", "phase", "cpi", "evolve", "concurrent", "twice"]))
        if kind == "rotation":
            items.append(RotationPulse(draw(site), draw(subspace), draw(st.sampled_from("xyz")), draw(angle)))
        elif kind == "permutation":
            items.append(PermutationPulse(draw(site), draw(subspace)))
        elif kind == "phase":
            items.append(PhasePulse(draw(site), (draw(angle), draw(angle), draw(angle))))
        elif kind == "cpi":
            items.append(cpi(*pair(), draw(duration)))
        elif kind == "evolve":
            pairs = [pair() for _ in range(draw(st.integers(1, 2)))]
            if set(pairs[0]) == set(pairs[-1]):
                pairs = pairs[:1]
            items.append(Evolve(tuple(pairs), draw(duration)))
        elif kind == "concurrent":
            a, b = pair()
            rest = [s for s in range(1, n + 1) if s not in (a, b)]
            dt = draw(duration)
            others = (tuple(rest),) if len(rest) == 2 else ()
            items.append(Concurrent((cpi(a, b, dt), Evolve(others, dt)), dt))
        else:
            a, b = pair()
            dt = draw(duration)
            items += [cpi(a, b, dt), Evolve(((b, a),), dt)]
    in_register = {p: c for p, c in _ALL_PAIRS.items() if max(p) <= n}
    keys = draw(st.sets(st.sampled_from(sorted(in_register)), max_size=3))
    background = {p: in_register[p] for p in sorted(keys)}
    return PulseSchedule(tuple(items), n), in_register, background, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_density_cases())
def test_block_compiled_density_matches_per_step_reference(case):
    sched, couplings, background, seed = case
    rho0 = _density(seed, 3**sched.n_sites)
    got = simulate_density(sched, rho0, couplings, _NOISE_4, background)
    ref = _reference_density(sched, rho0, couplings, _NOISE_4, background)
    assert np.abs(got - ref).max() < 1e-12


def _cache_case():
    couplings = {(1, 2): Q1Q2, (2, 3): CrossKerrCoeffs.from_khz(-276, -631, 243, -748)}
    background = {(1, 3): CrossKerrCoeffs.from_khz(-150, 90, -310, -420)}
    items = (
        RotationPulse(1, "01", "y", 0.7),
        Evolve(((1, 2),), 8e-8),
        RotationPulse(3, "12", "x", 0.3),
        ConditionalPiPulse(2, 3, 6e-8, fraction=0.6),
        RotationPulse(2, "02", "x", -0.4),
    )
    return PulseSchedule(items, 3), _density(7, 27), couplings, _NOISE_4, background


def test_compiled_schedule_cache_hit_is_bitwise_equal_and_read_only():
    sched, rho0, couplings, noise, background = _cache_case()
    schedules._compiled_ops.cache_clear()
    first = simulate_density(sched, rho0, couplings, noise, background)
    hits = schedules._compiled_ops.cache_info().hits
    again = simulate_density(sched, rho0, dict(couplings), dataclasses.replace(noise), dict(background))
    assert schedules._compiled_ops.cache_info().hits == hits + 1
    assert np.array_equal(first, again)
    key = (sched, tuple(sorted(couplings.items())), noise, tuple(sorted(background.items())))
    ops = schedules._compiled_ops(*key)
    # the background (1, 3) coupling flushes the (1, 2) and (2, 3) blocks
    assert [sites for sites, _ in ops] == [(1, 2), (1, 3), (2, 3), (1, 3), (2,)]
    for _, s in ops:
        assert not s.flags.writeable
        with pytest.raises(ValueError):
            s[0, 0] = 0.0


def test_changed_inputs_get_a_fresh_compiled_schedule():
    sched, rho0, couplings, noise, background = _cache_case()
    base = simulate_density(sched, rho0, couplings, noise, background)
    shifted = CrossKerrCoeffs(Q1Q2.alpha_11, Q1Q2.alpha_12, Q1Q2.alpha_21, Q1Q2.alpha_22 * 1.05)
    cases = [
        (couplings, dataclasses.replace(noise, scale=10.0), background),
        ({**couplings, (1, 2): shifted}, noise, background),
        (couplings, noise, {(1, 2): background[(1, 3)]}),
    ]
    for c, nz, bg in cases:
        got = simulate_density(sched, rho0, c, nz, bg)
        assert np.abs(got - _reference_density(sched, rho0, c, nz, bg)).max() < 1e-12
        assert np.abs(got - base).max() > 1e-6
    # a couplings dict mutated after a call
    mutable = dict(couplings)
    simulate_density(sched, rho0, mutable, noise, background)
    mutable[(1, 2)] = shifted
    got = simulate_density(sched, rho0, mutable, noise, background)
    assert np.abs(got - _reference_density(sched, rho0, mutable, noise, background)).max() < 1e-12


def test_noise_model_replace_rebuilds_channels():
    model = NoiseModel(damping=[(50e-6, 25e-6)], dephasing=[(20e-6, 10e-6, 8e-6)], scale=1.0)
    model.site_kraus(1, 1e-6)  # fill the cache at scale 1
    half = NoiseModel(damping=[(50e-6, 25e-6)], dephasing=[(20e-6, 10e-6, 8e-6)], scale=0.5)
    got = dataclasses.replace(model, scale=0.5).site_kraus(1, 1e-6)
    assert np.array_equal(got, half.site_kraus(1, 1e-6))
    assert not np.allclose(got, model.site_kraus(1, 1e-6))
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.scale = 0.5


def test_noise_model_stores_tuples_and_hashes_by_value():
    listed = NoiseModel(damping=[[50e-6, 25e-6]], dephasing=[[20e-6, 10e-6, 8e-6]], scale=1.0)
    tupled = NoiseModel(damping=((50e-6, 25e-6),), dephasing=((20e-6, 10e-6, 8e-6),), scale=1.0)
    assert listed.damping == ((50e-6, 25e-6),) and listed.dephasing == ((20e-6, 10e-6, 8e-6),)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert len({listed, tupled}) == 1
    assert dataclasses.replace(listed, scale=0.5) != listed


def test_equal_noise_models_share_read_only_channels():
    def model():
        return NoiseModel(damping=[(50e-6, 25e-6)], dephasing=[(20e-6, 10e-6, 8e-6)], scale=1.0)

    for read in (NoiseModel.site_kraus, NoiseModel.site_superop):
        first, second = read(model(), 1, 3e-7), read(model(), 1, 3e-7)
        assert first is second
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 0.0


def test_density_input_mismatch_raises_before_any_step():
    # the Evolve has no coupling, so a walk that started would raise KeyError
    sched = PulseSchedule((RotationPulse(1, "01", "x", 0.4), Evolve(((1, 2),), 1e-7)), 2)
    with pytest.raises(DimensionMismatchError, match="rho0"):
        simulate_density(sched, np.eye(27, dtype=complex) / 27, couplings={})
    one_site = NoiseModel(damping=[(50e-6, 25e-6)], dephasing=[(20e-6, 10e-6, 8e-6)])
    with pytest.raises(DimensionMismatchError, match="noise model covers 1 sites"):
        simulate_density(sched, np.eye(9, dtype=complex) / 9, couplings={}, noise=one_site)
    bad_background = [
        ({(1, 3): Q1Q2}, r"distinct sites in 1\.\.2"),
        ({(0, 1): Q1Q2}, r"distinct sites in 1\.\.2"),
        ({(2, 2): Q1Q2}, r"distinct sites in 1\.\.2"),
        ({(1, 2, 1): Q1Q2}, r"distinct sites in 1\.\.2"),
        ({(1, 2): (1.0, 2.0, 3.0, 4.0)}, "needs CrossKerrCoeffs"),
    ]
    for background, match in bad_background:
        with pytest.raises(ScheduleValidationError, match=match):
            simulate_density(sched, np.eye(9, dtype=complex) / 9, couplings={}, background_pairs=background)


def test_reversed_schedule_inverts(rng):
    items = (
        RotationPulse(1, "01", "y", 0.7),
        PermutationPulse(2, "12"),
        ConditionalPiPulse(1, 2, 125e-9),
        PhasePulse(2, (0.1, -0.2, 0.05)),
        RotationPulse(2, "12", "z", -1.1),
    )
    sched = PulseSchedule(items, 2)
    u = simulate_unitary(sched, {})
    v = simulate_unitary(sched.reversed(), {})
    assert np.abs((v @ u).matrix - np.eye(9)).max() < 1e-12


def test_reversed_rejects_evolve():
    sched = PulseSchedule((Evolve(((1, 2),), 1e-9),), 2)
    with pytest.raises(ValueError):
        sched.reversed()


def test_json_round_trip_bit_exact():
    items = (
        Evolve(((1, 2), (2, 3)), 104.87e-9),
        RotationPulse(1, "01", "y", np.pi / 3),
        PermutationPulse(2, "12"),
        PhasePulse(3, (0.1, 0.2, -0.3)),
        ConditionalPiPulse(3, 2, 125e-9, condition=2, fraction=1.0 / 3.0),
        Concurrent((Evolve(((1, 2),), 5e-8), ConditionalPiPulse(3, 4, 5e-8)), 5e-8),
    )
    sched = PulseSchedule(items, 4)
    again = PulseSchedule.from_json(sched.to_json())
    assert again == sched
    assert again.total_duration == sched.total_duration


def test_schedule_hash_is_cached_and_equality_compares_items():
    def build(angle=np.pi / 3):
        items = (
            Evolve(((1, 2),), 104.87e-9),
            RotationPulse(1, "01", "y", angle),
            Concurrent((Evolve(((1, 2),), 5e-8), ConditionalPiPulse(3, 4, 5e-8)), 5e-8),
        )
        return PulseSchedule(items, 4)

    sched, twin = build(), build()
    assert sched.items is not twin.items
    again = PulseSchedule.from_json(sched.to_json())
    for other in (twin, again):
        assert other == sched and hash(other) == hash(sched)
    assert hash(sched) == hash((sched.items, sched.n_sites))
    assert build(np.pi / 3 + 1e-15) != sched
    assert PulseSchedule(sched.items, 5) != sched
    # equal schedules built separately hit one cache entry
    assert len({sched, twin, again}) == 1


def test_unpickled_schedule_rehashes():
    # string hashes differ between processes, so a hash pickled with the
    # schedule would not match an equal schedule built here
    code = (
        "import pickle, sys; from qutritsim.schedules import PulseSchedule, RotationPulse; "
        "sys.stdout.buffer.write(pickle.dumps(PulseSchedule((RotationPulse(1, '01', 'y', 0.5),), 2)))"
    )
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)}
    data = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True).stdout
    sched = PulseSchedule((RotationPulse(1, "01", "y", 0.5),), 2)
    loaded = pickle.loads(data)
    assert loaded == sched and hash(loaded) == hash(sched)


def test_total_duration_counts_timed_items():
    sched = PulseSchedule(
        (Evolve(((1, 2),), 1e-7), RotationPulse(1, "01", "x", 1.0), ConditionalPiPulse(1, 2, 2e-7)),
        2,
    )
    assert sched.total_duration == pytest.approx(3e-7)


def test_parallel_merge_preserves_unitary_and_wall_clock(rng):
    a = PulseSchedule(
        (
            RotationPulse(1, "01", "y", 0.3),
            Evolve(((1, 2),), 3e-7),
            PermutationPulse(2, "12"),
            Evolve(((1, 2),), 1e-7),
        ),
        4,
    )
    b = PulseSchedule(
        (
            Evolve(((3, 4),), 1e-7),
            RotationPulse(3, "12", "x", -0.9),
            ConditionalPiPulse(3, 4, 2.5e-7),
        ),
        4,
    )
    couplings = {(1, 2): Q1Q2, (3, 4): CrossKerrCoeffs.from_khz(-276, -631, 243, -748)}
    merged = parallel_merge(a, b, 4)
    ua = simulate_unitary(a, couplings).matrix
    ub = simulate_unitary(b, couplings).matrix
    um = simulate_unitary(merged, couplings).matrix
    assert np.abs(um - ub @ ua).max() < 1e-11
    assert merged.total_duration == pytest.approx(max(a.total_duration, b.total_duration))


def test_noise_model_ground_state_fixed_point():
    noise = NoiseModel(damping=[(50e-6, 25e-6)], dephasing=[(20e-6, 10e-6, 8e-6)], scale=1.0)
    sched = PulseSchedule((Evolve((), 1e-6),), 1)
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[0, 0] = 1.0
    out = simulate_density(sched, rho0, couplings={}, noise=noise)
    assert np.abs(out - rho0).max() < 1e-12


def test_noise_scale_zero_is_ideal():
    noise = NoiseModel(damping=[(50e-6, 25e-6)], dephasing=[(20e-6, 10e-6, 8e-6)], scale=0.0)
    sched = PulseSchedule((Evolve((), 1e-6), RotationPulse(1, "01", "x", 1.3)), 1)
    rho0 = np.zeros((3, 3), dtype=complex)
    rho0[0, 0] = 1.0
    ideal = simulate_density(sched, rho0, couplings={})
    noisy = simulate_density(sched, rho0, couplings={}, noise=noise)
    assert np.abs(ideal - noisy).max() == 0.0


def test_background_pairs_and_exclusion():
    # with the background coupling listed, an untargeted pair accumulates
    # phase during a conditional-pi item, except for the gate's own pair
    sched = PulseSchedule((ConditionalPiPulse(1, 2, 1e-6),), 3)
    couplings = {(2, 3): Q1Q2, (1, 2): Q1Q2}
    rho0 = np.zeros((27, 27), dtype=complex)
    v = np.zeros(27)
    v[QuditIndexing(3, 3).digits_to_label((0, 1, 1))] = 1.0
    w = np.zeros(27)
    w[QuditIndexing(3, 3).digits_to_label((0, 0, 1))] = 1.0
    plus = (v + w) / np.sqrt(2)
    rho0 = np.outer(plus, plus)
    out = simulate_density(sched, rho0.astype(complex), couplings={}, background_pairs=couplings)
    # (2,3) coherence between 11 and 01 picked up exp(-i alpha11 t)
    i, j = QuditIndexing(3, 3).digits_to_label((0, 1, 1)), QuditIndexing(3, 3).digits_to_label((0, 0, 1))
    phase = np.angle(out[i, j] / rho0[i, j])
    assert abs(np.exp(1j * phase) - np.exp(-1j * Q1Q2.alpha_11 * 1e-6)) < 1e-9
