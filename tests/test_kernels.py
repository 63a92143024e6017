import numpy as np

import qutritsim.kernels as kernels
from qutritsim.core import embed


def test_kraus_positions(rng):
    # a multi-operator stack at every slot of a 3-site register
    rho = rng.standard_normal((27, 27)) + 1j * rng.standard_normal((27, 27))
    rho = rho + rho.conj().T
    ks = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    for site in range(1, 4):
        left, right = 3 ** (site - 1), 3 ** (3 - site)
        got = kernels.apply_site_kraus(rho, ks, left, 3, right)
        full = [embed(k, [site], 3).matrix for k in ks]
        ref = sum(f @ rho @ f.conj().T for f in full)
        assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()


def test_diag_phases_matches_dense_conjugation(rng):
    rho = rng.standard_normal((27, 27)) + 1j * rng.standard_normal((27, 27))
    phases = rng.standard_normal(27)
    u = np.diag(np.exp(-1j * phases))
    ref = u @ rho @ u.conj().T
    assert np.abs(kernels.apply_diag_phases(rho, phases) - ref).max() < 1e-13 * np.abs(ref).max()


def test_confusion_mix_matches_kronecker_product(rng):
    p = rng.random(243)
    p /= p.sum()
    mats = rng.random((5, 3, 3))
    mats /= mats.sum(axis=1, keepdims=True)
    full = mats[0]
    for m in mats[1:]:
        full = np.kron(full, m)
    assert np.abs(kernels.confusion_mix(p, mats) - full @ p).max() < 1e-14


def _random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _superop(stack):
    return sum(np.kron(k, k.conj()) for k in stack)


def test_site_superops_match_kraus_sum_and_dense_conjugation(rng):
    rho = _random_density(rng, 27)
    stacks = {s: rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3)) for s in (1, 2, 3)}
    fused_ref = rho
    for site, ks in stacks.items():
        left, right = 3 ** (site - 1), 3 ** (3 - site)
        got = kernels.apply_site_superops(rho, {site: _superop(ks)}, 3, 3)
        kraus = kernels.apply_site_kraus(rho, ks, left, 3, right)
        dense = sum(f @ rho @ f.conj().T for f in (embed(k, [site], 3).matrix for k in ks))
        scale = np.abs(dense).max()
        assert np.abs(got - kraus).max() < 1e-12 * scale
        assert np.abs(got - dense).max() < 1e-12 * scale
        fused_ref = kernels.apply_site_kraus(fused_ref, ks, left, 3, right)
    # one call acting on all three sites at once
    fused = kernels.apply_site_superops(rho, {s: _superop(ks) for s, ks in stacks.items()}, 3, 3)
    assert np.abs(fused - fused_ref).max() < 1e-12 * np.abs(fused_ref).max()
    assert fused.flags.c_contiguous


def test_pair_unitary_matches_embedded_conjugation(rng):
    rho = _random_density(rng, 81)
    for a, b in ((1, 2), (3, 2), (1, 4), (4, 2)):
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        full = embed(g, [a, b], 4).matrix
        ref = full @ rho @ full.conj().T
        got = kernels.apply_pair_unitary(rho, g, a, b, 4, 3)
        assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max(), (a, b)
