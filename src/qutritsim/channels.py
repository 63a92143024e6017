"""CPTP noise channels for qutrit registers.

Relaxation is the two-step cascade 2 -> 1 -> 0 (direct 2 -> 0 decay is
parity-suppressed in transmons and omitted); the channel is the exact
Markovian semigroup element, so composing two durations equals the summed
duration.  Dephasing multiplies each coherence by its own decay factor,
built from diagonal Kraus operators whenever the requested factor triple
is completely positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import DensityState, DimensionMismatchError

COMPLETENESS_ATOL = 1e-10
CHOI_EIG_FLOOR = -1e-9


class ChannelConstructionError(ValueError):
    """Requested channel parameters do not define a CPTP map."""

    def __init__(self, message: str, choi_eigenvalue: float | None = None):
        super().__init__(message)
        self.choi_eigenvalue = choi_eigenvalue


@dataclass(frozen=True)
class QuantumChannel:
    """A CPTP map stored as a Kraus stack of shape (m, dim, dim)."""

    kraus: np.ndarray
    duration: float | None = None

    def __post_init__(self):
        k = np.asarray(self.kraus, dtype=complex)
        if k.ndim != 3 or k.shape[1] != k.shape[2]:
            raise ValueError("kraus must be a stack of square matrices")
        object.__setattr__(self, "kraus", k)
        defect = self.completeness_defect()
        if defect > COMPLETENESS_ATOL:
            raise ChannelConstructionError(f"Kraus completeness defect {defect:.2e}")

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]

    def completeness_defect(self) -> float:
        acc = sum(k.conj().T @ k for k in self.kraus)
        return float(np.abs(acc - np.eye(self.dim)).max())

    def apply_matrix(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(rho)
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return out

    def superoperator(self) -> np.ndarray:
        """Row-major vec convention: vec(K rho K^dag) = (K kron K.conj) vec(rho)."""
        dim = self.dim
        s = np.zeros((dim * dim, dim * dim), dtype=complex)
        for k in self.kraus:
            s += np.kron(k, k.conj())
        return s

    def choi(self) -> np.ndarray:
        """Trace-normalized Choi state (Lambda x id applied to a maximally
        entangled pair)."""
        dim = self.dim
        j = np.zeros((dim * dim, dim * dim), dtype=complex)
        for k in self.kraus:
            v = k.reshape(-1)  # vec(K) row-major equals (K x I)|phi> * sqrt(d)
            j += np.outer(v, v.conj())
        return j / dim

    def choi_min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.choi()).min())

    def compose(self, inner: "QuantumChannel") -> "QuantumChannel":
        """self after inner."""
        if inner.dim != self.dim:
            raise DimensionMismatchError("channel dims differ")
        stack = np.array([a @ b for a in self.kraus for b in inner.kraus])
        return QuantumChannel(stack)

    @classmethod
    def identity(cls, dim: int = 3) -> "QuantumChannel":
        return cls(np.eye(dim, dtype=complex)[None, :, :])


def amplitude_damping_channel(t: float, t1_10: float, t1_21: float) -> QuantumChannel:
    """Relaxation cascade over duration t with lifetimes T1(1->0), T1(2->1).

    This is the exact solution of the Markovian cascade, including the
    two-step 2 -> 1 -> 0 population transfer, so
    channel(t1) o channel(t2) == channel(t1 + t2).
    """
    if t < 0:
        raise ValueError("duration must be nonnegative")
    if t1_10 <= 0 or t1_21 <= 0:
        raise ValueError("lifetimes must be positive")
    a, b = 1.0 / t1_10, 1.0 / t1_21
    e1, e2 = np.exp(-a * t), np.exp(-b * t)
    if abs(a - b) > 1e-12 * max(a, b):
        p21 = b * (e2 - e1) / (a - b)
    else:
        p21 = a * t * e1
    p20 = max((1.0 - e2) - p21, 0.0)

    kraus = [np.diag([1.0, np.sqrt(e1), np.sqrt(e2)]).astype(complex)]
    if 1.0 - e1 > 0:
        k = np.zeros((3, 3), dtype=complex)
        k[0, 1] = np.sqrt(1.0 - e1)
        kraus.append(k)
    if p21 > 0:
        k = np.zeros((3, 3), dtype=complex)
        k[1, 2] = np.sqrt(p21)
        kraus.append(k)
    if p20 > 0:
        k = np.zeros((3, 3), dtype=complex)
        k[0, 2] = np.sqrt(p20)
        kraus.append(k)
    return QuantumChannel(np.array(kraus), duration=t)


def dephasing_channel(
    t: float,
    t2_01: float,
    t2_12: float,
    t2_02: float,
    project_to_cp: bool = False,
) -> QuantumChannel:
    """Pure dephasing: coherence (i, j) shrinks by exp(-t / T2_ij),
    populations are untouched.

    The channel exists exactly when the unit-diagonal Gram matrix of the
    three decay factors is positive semidefinite; its spectral
    decomposition yields diagonal Kraus operators.  A non-CP factor triple
    raises, or with ``project_to_cp`` is projected to the nearest valid
    Gram matrix (clipped spectrum, diagonal renormalized).
    """
    if t < 0:
        raise ValueError("duration must be nonnegative")
    for t2 in (t2_01, t2_12, t2_02):
        if t2 <= 0:
            raise ValueError("dephasing times must be positive")
    f01, f12, f02 = np.exp(-t / t2_01), np.exp(-t / t2_12), np.exp(-t / t2_02)
    return dephasing_channel_from_factors(f01, f12, f02, project_to_cp, duration=t)


def dephasing_channel_from_factors(
    f01: float,
    f12: float,
    f02: float,
    project_to_cp: bool = False,
    duration: float | None = None,
) -> QuantumChannel:
    gram = np.array(
        [
            [1.0, f01, f02],
            [f01, 1.0, f12],
            [f02, f12, 1.0],
        ]
    )
    vals, vecs = np.linalg.eigh(gram)
    if vals.min() < CHOI_EIG_FLOOR:
        if not project_to_cp:
            raise ChannelConstructionError(
                f"dephasing factors ({f01:.6g}, {f12:.6g}, {f02:.6g}) are not "
                f"CP-realizable; Choi eigenvalue {vals.min():.3e}",
                choi_eigenvalue=float(vals.min()),
            )
        vals = np.clip(vals, 0.0, None)
        gram = (vecs * vals) @ vecs.T
        norm = np.sqrt(np.diag(gram))
        gram = gram / np.outer(norm, norm)
        vals, vecs = np.linalg.eigh(gram)
    vals = np.clip(vals, 0.0, None)
    kraus = []
    for lam, v in zip(vals, vecs.T):
        if lam > 1e-15:
            kraus.append(np.diag(np.sqrt(lam) * v).astype(complex))
    return QuantumChannel(np.array(kraus), duration=duration)


def depolarizing_channel(dim: int) -> QuantumChannel:
    """rho -> I/dim, as a Kraus stack of scaled matrix units."""
    stack = []
    for i in range(dim):
        for j in range(dim):
            k = np.zeros((dim, dim), dtype=complex)
            k[i, j] = 1.0 / np.sqrt(dim)
            stack.append(k)
    return QuantumChannel(np.array(stack))


def apply_channel(channel: QuantumChannel, rho: DensityState, sites) -> DensityState:
    """Apply a channel to the listed 1-based sites of a register state.

    A single-site channel goes through the superoperator kernel; a
    multi-site one is summed over its embedded Kraus operators.
    """
    sites = list(sites)
    d = rho.indexing.d
    n = rho.indexing.n
    if channel.dim != d ** len(sites):
        raise DimensionMismatchError(
            f"channel dim {channel.dim} does not match {len(sites)} site(s)"
        )
    if len(sites) == 1:
        t = kernels.to_superket(rho.matrix, n, d)
        t = kernels.apply_site_superop(t, channel.superoperator(), sites[0])
        out = kernels.from_superket(t, n, d)
    else:
        from .core import embed

        out = np.zeros_like(rho.matrix)
        for k in channel.kraus:
            full = embed(k, sites, n, d).matrix
            out += full @ rho.matrix @ full.conj().T
    out = (out + out.conj().T) / 2.0
    return DensityState(out, rho.indexing)
