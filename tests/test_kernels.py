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
