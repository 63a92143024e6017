"""Hot numeric kernels of the register simulators.

The density simulator spends most of its time applying site-local Kraus
operators and diagonal phase evolutions to 243-dimensional density
matrices; readout spends its time mixing probability vectors through
per-site confusion matrices.
"""

from __future__ import annotations

import numpy as np


def apply_site_kraus(rho: np.ndarray, kraus: np.ndarray, left: int, site: int, right: int) -> np.ndarray:
    """Sum_m (I x K_m x I) rho (I x K_m x I)^dag for one register slot.

    ``rho`` is (left*site*right)^2; ``kraus`` is (m, site, site).
    """
    dim = left * site * right
    r = rho.reshape(left, site, right, left, site, right)
    out = np.zeros_like(r)
    for k in kraus:
        tmp = np.einsum("ab,LbRlcr->LaRlcr", k, r, optimize=True)
        out += np.einsum("LaRlcr,dc->LaRldr", tmp, k.conj(), optimize=True)
    return out.reshape(dim, dim)


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
