import numpy as np

import qutritsim.kernels as kernels
from qutritsim.core import QuditIndexing, embed


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


def test_superket_round_trip_bit_exact(rng):
    for n in (1, 2, 3, 5):
        dim = 3**n
        rho = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        t = kernels.to_superket(rho, n, 3)
        assert t.shape == (9,) * n and t.flags.c_contiguous
        assert np.array_equal(kernels.from_superket(t, n, 3), rho)
    # the leg of site s is indexed (r_s, c_s): t[r1 c1, r2 c2] = rho[r1 r2, c1 c2]
    rho = rng.standard_normal((9, 9))
    t = kernels.to_superket(rho, 2, 3)
    for r1, c1, r2, c2 in np.ndindex(3, 3, 3, 3):
        assert t[3 * r1 + c1, 3 * r2 + c2] == rho[3 * r1 + r2, 3 * c1 + c2]


def test_conjugation_superop_is_kron(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(kernels.conjugation_superop(m, 3), np.kron(m, m.conj()))


def test_site_superop_matches_kraus_sum_and_dense_conjugation(rng):
    for n in (3, 4):
        rho = _random_density(rng, 3**n)
        t = kernels.to_superket(rho, n, 3)
        sequential = rho
        for site in range(1, n + 1):
            ks = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
            left, right = 3 ** (site - 1), 3 ** (n - site)
            once = kernels.apply_site_superop(kernels.to_superket(rho, n, 3), _superop(ks), site)
            got = kernels.from_superket(once, n, 3)
            kraus = kernels.apply_site_kraus(rho, ks, left, 3, right)
            dense = sum(f @ rho @ f.conj().T for f in (embed(k, [site], n).matrix for k in ks))
            scale = np.abs(dense).max()
            assert np.abs(got - kraus).max() < 1e-12 * scale, (n, site)
            assert np.abs(got - dense).max() < 1e-12 * scale, (n, site)
            t = kernels.apply_site_superop(t, _superop(ks), site)
            sequential = kernels.apply_site_kraus(sequential, ks, left, 3, right)
        # one map on every site in turn, without leaving the layout
        got = kernels.from_superket(t, n, 3)
        assert np.abs(got - sequential).max() < 1e-12 * np.abs(sequential).max()


def test_pair_superop_matches_embedded_conjugation(rng):
    rho = _random_density(rng, 81)
    for a, b in ((1, 2), (3, 2), (1, 4), (4, 2)):
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        full = embed(g, [a, b], 4).matrix
        ref = full @ rho @ full.conj().T
        t = kernels.apply_pair_superop(kernels.to_superket(rho, 4, 3), kernels.conjugation_superop(g, 3), a, b)
        got = kernels.from_superket(t, 4, 3)
        assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max(), (a, b)


def test_pair_phases_match_dense_diagonal(rng):
    rho = _random_density(rng, 81)
    digits = QuditIndexing(3, 4).digit_table()
    for a, b in ((1, 2), (3, 1), (2, 4), (4, 3)):
        phi = rng.uniform(-np.pi, np.pi, (3, 3))
        ref = kernels.apply_diag_phases(rho, phi[digits[a - 1], digits[b - 1]])
        factor = np.diag(kernels.pair_phase_factor(phi).reshape(-1))
        t = kernels.apply_pair_superop(kernels.to_superket(rho, 4, 3), factor, a, b)
        got = kernels.from_superket(t, 4, 3)
        assert np.abs(got - ref).max() < 1e-13 * np.abs(ref).max(), (a, b)
