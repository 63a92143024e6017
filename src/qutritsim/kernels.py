"""Hot numeric kernels of the register simulators.

The density simulator stores rho in the site-interleaved *superket* layout:
a rank-n tensor with one contiguous d^2 leg per site, indexed
``(r_s, c_s)`` (row and column digit of site s, row digit first), so the
leg of site s is the row-major vec of that site's d x d block.  This is the
Liouville tensor-network form of Wood, Biamonte & Cory (arXiv:1111.6950).
:func:`to_superket` and :func:`from_superket` convert once on entry and
exit.  In this layout every single-site map is one ``matmul`` of its
d^2 x d^2 superoperator on its leg (:func:`apply_site_superop`), and a
two-site map is a d^4 x d^4 superoperator on two legs
(:func:`apply_pair_superop`); the density simulator's compiled blocks are
all of these two kinds.  A cross-Kerr phase on a pair is a diagonal
superoperator, whose d^2 x d^2 diagonal :func:`pair_phase_factor` gives.
Superoperators use the row-major convention
``vec(K rho K^dag) = (K kron K.conj()) vec(rho)``, which
:func:`conjugation_superop` builds for a gate on one or more sites.
Readout mixes probability vectors through per-site confusion matrices.

:func:`apply_site_kraus` (Kraus sum on the matrix form) and
:func:`apply_diag_phases` (diagonal conjugation of the matrix form) are
the oracles the tests check the superket kernels against.
"""

from __future__ import annotations

import math

import numpy as np


def apply_site_kraus(rho: np.ndarray, kraus: np.ndarray, left: int, site: int, right: int) -> np.ndarray:
    """Sum_m (I x K_m x I) rho (I x K_m x I)^dag for one register slot.

    ``rho`` is (left*site*right)^2; ``kraus`` is (m, site, site).  This is
    the tests' oracle for :func:`apply_site_superop`; no simulator or
    channel code calls it.
    """
    dim = left * site * right
    r = rho.reshape(left, site, right, left, site, right)
    out = np.zeros_like(r)
    for k in kraus:
        tmp = np.einsum("ab,LbRlcr->LaRlcr", k, r, optimize=True)
        out += np.einsum("LaRlcr,dc->LaRldr", tmp, k.conj(), optimize=True)
    return out.reshape(dim, dim)


def apply_diag_phases(rho: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Conjugate rho by diag(exp(-1j*phases)); the tests' oracle for
    :func:`pair_phase_factor`."""
    u = np.exp(-1j * phases)
    return (u[:, None] * rho) * u.conj()[None, :]


def _interleave(n: int) -> list[int]:
    """Axis order (r_1, c_1, ..., r_n, c_n) of the rank-2n tensor form of rho."""
    return [axis for s in range(n) for axis in (s, n + s)]


def to_superket(rho: np.ndarray, n: int, d: int) -> np.ndarray:
    """A fresh superket tensor, shape (d^2,) * n, of a d^n x d^n matrix."""
    t = np.array(rho.reshape((d,) * (2 * n)).transpose(_interleave(n)), dtype=complex, order="C")
    return t.reshape((d * d,) * n)


def from_superket(t: np.ndarray, n: int, d: int) -> np.ndarray:
    """The d^n x d^n matrix of a superket tensor."""
    order = np.argsort(_interleave(n))
    return t.reshape((d,) * (2 * n)).transpose(order).reshape(d**n, d**n)


def conjugation_superop(g: np.ndarray, d: int) -> np.ndarray:
    """Superoperator of rho -> g rho g^dag for a gate on k sites (g is
    d^k x d^k), with its legs in superket order (r_1, c_1, ..., r_k, c_k).

    For one site this is ``np.kron(g, g.conj())``; every entry is a single
    product of an entry of g and one of g.conj().
    """
    digits = 2 * round(math.log(g.shape[0], d))  # row and column digits of g
    gr = g.reshape((d, 1) * digits)  # g's digits on the r positions
    gc = g.conj().reshape((1, d) * digits)  # g.conj()'s digits on the c positions
    size = g.shape[0] ** 2
    return (gr * gc).reshape(size, size)


def _apply_on_legs(t: np.ndarray, op: np.ndarray, first: int) -> np.ndarray:
    """op (k x k) on the consecutive legs of t, starting at leg ``first``,
    whose combined size is k: one matmul on t viewed as (left, k, right)."""
    k = op.shape[0]
    left = int(np.prod(t.shape[:first], dtype=np.int64))
    right = t.size // (left * k)
    if right == 1:
        return (t.reshape(left, k) @ op.T).reshape(t.shape)
    return np.matmul(op, t.reshape(left, k, right)).reshape(t.shape)


def apply_site_superop(t: np.ndarray, s: np.ndarray, site: int) -> np.ndarray:
    """A d^2 x d^2 superoperator ``s`` on the leg of 1-based ``site``."""
    return _apply_on_legs(t, s, site - 1)


def apply_pair_superop(t: np.ndarray, s: np.ndarray, a: int, b: int) -> np.ndarray:
    """A d^4 x d^4 superoperator ``s`` on the legs of 1-based sites (a, b),
    in that order: for the gate ``embed(g, [a, b])`` it is
    ``conjugation_superop(g, d)``.

    Adjacent legs are one contiguous axis and take one matmul; other pairs
    fall back to a ``tensordot``.
    """
    dd = t.shape[0]
    if b == a + 1:
        return _apply_on_legs(t, s, a - 1)
    s4 = s.reshape(dd, dd, dd, dd)
    if a == b + 1:
        return _apply_on_legs(t, s4.transpose(1, 0, 3, 2).reshape(dd * dd, dd * dd), b - 1)
    out = np.tensordot(s4, t, axes=([2, 3], [a - 1, b - 1]))
    return np.ascontiguousarray(np.moveaxis(out, (0, 1), (a - 1, b - 1)))


def pair_phase_factor(phi: np.ndarray) -> np.ndarray:
    """The d^2 x d^2 diagonal, indexed by the legs of sites (a, b), of the
    superoperator of conjugation by ``diag(exp(-1j * phi[i_a, i_b]))``;
    ``phi`` is d x d, indexed by the digits of site ``a`` then site ``b``.
    """
    d = phi.shape[0]
    u = np.exp(-1j * phi)
    # factor[(r_a, c_a), (r_b, c_b)] = u[r_a, r_b] * conj(u[c_a, c_b])
    return (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(d * d, d * d)


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
