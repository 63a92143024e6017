"""Hot numeric kernels of the register simulators.

The density simulator applies every single-site map (pulse, noise channel,
or a run of both composed) as a d^2 x d^2 row-major superoperator
``S = sum_m K_m kron K_m.conj()`` contracted with the (site, site') axes
of the rank-2n tensor form of rho; the pending maps of all sites go
through :func:`apply_site_superops` in one call.  Two-site gates are a
left/right contraction on two row and two column axes
(:func:`apply_pair_unitary`), and free evolution is a diagonal phase
conjugation.  Readout mixes probability vectors through per-site
confusion matrices.  :func:`apply_site_kraus` is the Kraus-sum oracle the
tests check the superoperator kernel against.
"""

from __future__ import annotations

import numpy as np


def apply_site_kraus(rho: np.ndarray, kraus: np.ndarray, left: int, site: int, right: int) -> np.ndarray:
    """Sum_m (I x K_m x I) rho (I x K_m x I)^dag for one register slot.

    ``rho`` is (left*site*right)^2; ``kraus`` is (m, site, site).  This is
    the tests' oracle for :func:`apply_site_superops`; no simulator or
    channel code calls it.
    """
    dim = left * site * right
    r = rho.reshape(left, site, right, left, site, right)
    out = np.zeros_like(r)
    for k in kraus:
        tmp = np.einsum("ab,LbRlcr->LaRlcr", k, r, optimize=True)
        out += np.einsum("LaRlcr,dc->LaRldr", tmp, k.conj(), optimize=True)
    return out.reshape(dim, dim)


def _contract(t: np.ndarray, op: np.ndarray, axes: tuple[int, int]) -> np.ndarray:
    """out[.. i .. j ..] = sum_kl op[i, j, k, l] t[.. k .. l ..] on two axes of t."""
    out = np.tensordot(op, t, axes=([2, 3], list(axes)))
    return np.moveaxis(out, (0, 1), axes)


def apply_site_superops(rho: np.ndarray, supers: dict, n: int, d: int) -> np.ndarray:
    """Apply one d^2 x d^2 row-major superoperator per site of an n-site register.

    ``supers`` maps 1-based sites to their superoperators; maps on
    different sites commute, so their order does not matter.
    """
    dim = d**n
    t = rho.reshape((d,) * (2 * n))
    for site, s in supers.items():
        t = _contract(t, s.reshape(d, d, d, d), (site - 1, n + site - 1))
    return t.reshape(dim, dim)


def apply_pair_unitary(rho: np.ndarray, g: np.ndarray, a: int, b: int, n: int, d: int) -> np.ndarray:
    """G rho G^dag for a d^2 x d^2 gate ``g`` on 1-based sites (a, b), site
    ``a`` carrying its first tensor factor (the order ``embed(g, [a, b])`` uses)."""
    dim = d**n
    g4 = g.reshape(d, d, d, d)
    t = _contract(rho.reshape((d,) * (2 * n)), g4, (a - 1, b - 1))
    t = _contract(t, g4.conj(), (n + a - 1, n + b - 1))
    return t.reshape(dim, dim)


def apply_diag_phases(rho: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Conjugate rho by diag(exp(-1j*phases))."""
    u = np.exp(-1j * phases)
    return (u[:, None] * rho) * u.conj()[None, :]


def confusion_mix(probs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Apply per-site column-stochastic matrices to a base-d probability vector.

    ``probs`` has length d**n; ``mats`` is (n, d, d) ordered site 1 first.
    """
    n, d, _ = mats.shape
    p = probs.reshape([d] * n)
    for s in range(n):
        p = np.moveaxis(np.tensordot(mats[s], p, axes=([1], [s])), 0, s)
    return p.reshape(-1)


def backend_name() -> str:
    return "numpy"
