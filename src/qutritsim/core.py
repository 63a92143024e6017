"""Dense complex linear algebra for registers of d-level systems.

Conventions used throughout the package:

* site 1 is the most significant base-d digit of a computational basis
  label, so on two qutrits ``|m,n>`` is basis index ``3*m + n``;
* the shift and clock operators are ``X|j> = |j+1 mod d>`` and
  ``Z|j> = w**j |j>`` with ``w = exp(2j*pi/d)``;
* generalized Pauli (Weyl) operators are per-site products ``X**a Z**b``.

Everything works for general ``d`` but the toolkit is exercised at
``d = 3`` (qutrits) on registers of up to five sites (dimension 243),
where dense matrices are exact and fast.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

ATOL_STRUCTURAL = 1e-10
ATOL_PURE_NORM = 1e-12
EIG_FLOOR = -1e-9


class DimensionMismatchError(ValueError):
    """Operands act on registers of incompatible shape."""


@dataclass(frozen=True)
class QuditIndexing:
    """Fixes the site-to-digit convention for an n-site, d-level register.

    Site 1 carries the most significant base-d digit of a basis label;
    site n the least significant.
    """

    d: int = 3
    n: int = 1

    def __post_init__(self):
        if self.d < 2 or self.n < 1:
            raise ValueError(f"invalid register shape d={self.d}, n={self.n}")

    @property
    def dim(self) -> int:
        return self.d**self.n

    def digits_to_label(self, digits) -> int:
        digits = tuple(digits)
        if len(digits) != self.n or any(not 0 <= x < self.d for x in digits):
            raise ValueError(f"invalid digit tuple {digits}")
        label = 0
        for x in digits:
            label = label * self.d + x
        return label

    def label_to_digits(self, label: int) -> tuple[int, ...]:
        if not 0 <= label < self.dim:
            raise ValueError(f"label {label} out of range for dim {self.dim}")
        digits = []
        for _ in range(self.n):
            digits.append(label % self.d)
            label //= self.d
        return tuple(reversed(digits))

    def label_string(self, label: int) -> str:
        return "".join(str(x) for x in self.label_to_digits(label))

    def digit_table(self) -> np.ndarray:
        """(n, d**n) int array; row k holds site (k+1)'s digit for each label."""
        table = np.empty((self.n, self.dim), dtype=np.int64)
        for label in range(self.dim):
            table[:, label] = self.label_to_digits(label)
        return table


def _as_matrix(obj) -> np.ndarray:
    if isinstance(obj, QuditOperator):
        return obj.matrix
    return np.asarray(obj, dtype=complex)


@dataclass(frozen=True)
class QuditOperator:
    """A dense operator on an n-site, d-level register."""

    matrix: np.ndarray
    indexing: QuditIndexing

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        if m.shape[0] != self.indexing.dim:
            raise DimensionMismatchError(
                f"matrix dim {m.shape[0]} != register dim {self.indexing.dim}"
            )

    @classmethod
    def from_matrix(cls, matrix, d: int = 3, n: int | None = None) -> "QuditOperator":
        matrix = np.asarray(matrix, dtype=complex)
        if n is None:
            n = round(np.log(matrix.shape[0]) / np.log(d))
        return cls(matrix, QuditIndexing(d, n))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dagger(self) -> "QuditOperator":
        return QuditOperator(self.matrix.conj().T, self.indexing)

    def conjugate(self) -> "QuditOperator":
        """Entrywise complex conjugate in the computational basis."""
        return QuditOperator(self.matrix.conj(), self.indexing)

    def __matmul__(self, other) -> "QuditOperator":
        other_m = _as_matrix(other)
        return QuditOperator(self.matrix @ other_m, self.indexing)

    def is_unitary(self, atol: float = ATOL_STRUCTURAL) -> bool:
        m = self.matrix
        return np.abs(m @ m.conj().T - np.eye(self.dim)).max() < atol

    def is_hermitian(self, atol: float = ATOL_STRUCTURAL) -> bool:
        return np.abs(self.matrix - self.matrix.conj().T).max() < atol


@dataclass(frozen=True)
class PureState:
    """Normalized state vector on an n-site register."""

    amplitudes: np.ndarray
    indexing: QuditIndexing

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", v)
        if v.shape[0] != self.indexing.dim:
            raise DimensionMismatchError(
                f"vector dim {v.shape[0]} != register dim {self.indexing.dim}"
            )
        if abs(np.linalg.norm(v) - 1.0) > ATOL_PURE_NORM:
            raise ValueError("state vector is not normalized")

    @classmethod
    def from_amplitudes(cls, amplitudes, d: int = 3, n: int | None = None) -> "PureState":
        v = np.asarray(amplitudes, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        if n is None:
            n = round(np.log(v.shape[0]) / np.log(d))
        return cls(v, QuditIndexing(d, n))

    @classmethod
    def basis(cls, digits, d: int = 3) -> "PureState":
        idx = QuditIndexing(d, len(tuple(digits)))
        v = np.zeros(idx.dim, dtype=complex)
        v[idx.digits_to_label(digits)] = 1.0
        return cls(v, idx)

    def density(self) -> "DensityState":
        return DensityState(np.outer(self.amplitudes, self.amplitudes.conj()), self.indexing)


@dataclass(frozen=True)
class DensityState:
    """Density matrix of an n-site register.

    Construction checks hermiticity and unit trace to 1e-10 and an
    eigenvalue floor of -1e-9; pass ``validate=False`` for intermediates
    known to be valid.
    """

    matrix: np.ndarray
    indexing: QuditIndexing
    validate: bool = field(default=True, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.shape != (self.indexing.dim, self.indexing.dim):
            raise DimensionMismatchError(
                f"matrix shape {m.shape} != register dim {self.indexing.dim}"
            )
        if self.validate:
            if np.abs(m - m.conj().T).max() > ATOL_STRUCTURAL:
                raise ValueError("density matrix is not Hermitian")
            if abs(np.trace(m).real - 1.0) > ATOL_STRUCTURAL:
                raise ValueError(f"density matrix trace {np.trace(m)} != 1")
            if np.linalg.eigvalsh((m + m.conj().T) / 2).min() < EIG_FLOOR:
                raise ValueError("density matrix has a significantly negative eigenvalue")

    @classmethod
    def from_matrix(cls, matrix, d: int = 3, n: int | None = None, validate: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        if n is None:
            n = round(np.log(matrix.shape[0]) / np.log(d))
        return cls(matrix, QuditIndexing(d, n), validate)

    @classmethod
    def maximally_mixed(cls, d: int = 3, n: int = 1) -> "DensityState":
        idx = QuditIndexing(d, n)
        return cls(np.eye(idx.dim, dtype=complex) / idx.dim, idx)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix))


# ---------------------------------------------------------------------------
# single-site operator zoo
# ---------------------------------------------------------------------------

_GELL_MANN = {
    1: np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    2: np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    3: np.diag([1.0, -1.0, 0.0]).astype(complex),
    4: np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    5: np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    6: np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    7: np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    8: np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(3.0),
}

# Subspace generators for the native rotations. The z generator of the
# 12 subspace is diag(0, 1, -1), which is not itself one of the eight
# su(3) generators above but is the natural virtual-phase generator.
SUBSPACE_GENERATORS = {
    ("01", "x"): _GELL_MANN[1],
    ("01", "y"): _GELL_MANN[2],
    ("01", "z"): _GELL_MANN[3],
    ("12", "x"): _GELL_MANN[6],
    ("12", "y"): _GELL_MANN[7],
    ("12", "z"): np.diag([0.0, 1.0, -1.0]).astype(complex),
    ("02", "x"): _GELL_MANN[4],
    ("02", "y"): _GELL_MANN[5],
    ("02", "z"): np.diag([1.0, 0.0, -1.0]).astype(complex),
}


def gell_mann(index: int) -> QuditOperator:
    """The eight traceless Hermitian su(3) generators, indexed 1..8."""
    if index not in _GELL_MANN:
        raise ValueError(f"Gell-Mann index must be in 1..8, got {index}")
    return QuditOperator(_GELL_MANN[index].copy(), QuditIndexing(3, 1))


def omega(d: int = 3) -> complex:
    return np.exp(2j * np.pi / d)


def shift_matrix(d: int = 3) -> np.ndarray:
    """X|j> = |j+1 mod d>."""
    x = np.zeros((d, d), dtype=complex)
    for j in range(d):
        x[(j + 1) % d, j] = 1.0
    return x


def clock_matrix(d: int = 3) -> np.ndarray:
    """Z|j> = w**j |j>."""
    return np.diag(omega(d) ** np.arange(d)).astype(complex)


def hadamard_matrix(d: int = 3) -> np.ndarray:
    """H[i, j] = w**(i*j) / sqrt(d).

    Interchanges the shift and clock operators under conjugation:
    H X H^dag = Z and H^dag Z H = X exactly (the opposite-side
    conjugations pick up an inverse), which is the convention that makes
    the controlled-phase/controlled-SUM equivalence hold verbatim.
    """
    grid = np.outer(np.arange(d), np.arange(d))
    return omega(d) ** grid / np.sqrt(d)


def qudit_hadamard(d: int = 3) -> QuditOperator:
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return QuditOperator(hadamard_matrix(d), QuditIndexing(d, 1))


@dataclass(frozen=True)
class PauliLabel:
    """Per-site exponent pairs (a_k, b_k) denoting the product of X**a Z**b."""

    exponents: tuple[tuple[int, int], ...]
    d: int = 3

    def __post_init__(self):
        reduced = tuple((a % self.d, b % self.d) for a, b in self.exponents)
        object.__setattr__(self, "exponents", reduced)

    @classmethod
    def identity(cls, n: int, d: int = 3) -> "PauliLabel":
        return cls(((0, 0),) * n, d)

    @property
    def n(self) -> int:
        return len(self.exponents)

    def is_identity(self) -> bool:
        return all(a == 0 and b == 0 for a, b in self.exponents)

    def weight(self) -> int:
        return sum(1 for a, b in self.exponents if (a, b) != (0, 0))

    def symplectic_form(self, other: "PauliLabel") -> int:
        """Integer s with P Q = w**s Q P."""
        if self.n != other.n or self.d != other.d:
            raise DimensionMismatchError("labels act on different registers")
        s = 0
        for (a, b), (ap, bp) in zip(self.exponents, other.exponents):
            s += ap * b - a * bp
        return s % self.d

    def __str__(self) -> str:
        parts = []
        for a, b in self.exponents:
            if (a, b) == (0, 0):
                parts.append("I")
            else:
                term = ""
                if a:
                    term += "X" if a == 1 else f"X{a}"
                if b:
                    term += "Z" if b == 1 else f"Z{b}"
                parts.append(term)
        return "*".join(parts)


def all_pauli_labels(n: int, d: int = 3) -> list[PauliLabel]:
    """All d**(2n) Weyl labels in lexicographic (a_1, b_1, ..., a_n, b_n) order."""
    labels = []
    for exps in itertools.product(itertools.product(range(d), repeat=2), repeat=n):
        labels.append(PauliLabel(exps, d))
    return labels


def weyl_pauli(label: PauliLabel) -> QuditOperator:
    """Kronecker product over sites of X**a Z**b."""
    d = label.d
    x, z = shift_matrix(d), clock_matrix(d)
    site_ops = []
    for a, b in label.exponents:
        site_ops.append(np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b))
    full = site_ops[0]
    for op in site_ops[1:]:
        full = np.kron(full, op)
    return QuditOperator(full, QuditIndexing(d, label.n))


# ---------------------------------------------------------------------------
# embedding, partial trace, metrics
# ---------------------------------------------------------------------------


def embed(op, sites, n: int, d: int = 3) -> QuditOperator:
    """Operator acting as ``op`` on the given 1-based sites, identity elsewhere.

    The first tensor factor of ``op`` attaches to ``sites[0]``, so the site
    list also encodes orientation: ``embed(U, [2, 1], 2)`` applies ``U``
    with its factors swapped relative to ``embed(U, [1, 2], 2)``.
    """
    m = _as_matrix(op)
    sites = list(sites)
    k = len(sites)
    if m.shape != (d**k, d**k):
        raise DimensionMismatchError(f"operator dim {m.shape[0]} != d**{k}")
    if len(set(sites)) != k:
        raise ValueError(f"duplicate sites in {sites}")
    if any(not 1 <= s <= n for s in sites):
        raise ValueError(f"sites {sites} out of range 1..{n}")

    rest = [s for s in range(1, n + 1) if s not in sites]
    full = np.kron(m, np.eye(d ** (n - k), dtype=complex))
    # Axis order of `full` as a rank-2n tensor: sites + rest, rows then cols.
    tensor = full.reshape([d] * (2 * n))
    source_order = sites + rest
    perm = [0] * n
    for axis_pos, site in enumerate(source_order):
        perm[site - 1] = axis_pos
    perm = perm + [p + n for p in perm]
    out = tensor.transpose(perm).reshape(d**n, d**n)
    return QuditOperator(out, QuditIndexing(d, n))


def partial_trace(rho, keep_sites, n: int, d: int = 3) -> np.ndarray:
    """Trace out all sites not in ``keep_sites`` (1-based, kept in given order)."""
    m = rho.matrix if isinstance(rho, DensityState) else np.asarray(rho, dtype=complex)
    keep = list(keep_sites)
    traced = [s for s in range(1, n + 1) if s not in keep]
    tensor = m.reshape([d] * (2 * n))
    for s in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=s - 1, axis2=s - 1 + tensor.ndim // 2)
    # Remaining axes follow the original site order; permute to `keep` order.
    remaining = [s for s in range(1, n + 1) if s in keep]
    k = len(keep)
    perm = [remaining.index(s) for s in keep]
    tensor = tensor.transpose(perm + [p + k for p in perm])
    return tensor.reshape(d**k, d**k)


def state_fidelity(rho: DensityState, psi: PureState) -> float:
    """<psi| rho |psi>, clamped to [0, 1]."""
    if rho.indexing != psi.indexing:
        raise DimensionMismatchError("state and density matrix dims differ")
    val = np.real(psi.amplitudes.conj() @ rho.matrix @ psi.amplitudes)
    return float(min(max(val, 0.0), 1.0))


def operator_schmidt_rank(op, cut_sites, n: int, d: int = 3, tol: float = 1e-8) -> int:
    """Number of operator Schmidt coefficients across the cut exceeding ``tol``.

    ``cut_sites`` lists the sites of one side of the bipartition; the rank is
    1 exactly when the operator factors as A (on cut_sites) tensor B (rest).
    """
    m = _as_matrix(op)
    left = list(cut_sites)
    right = [s for s in range(1, n + 1) if s not in left]
    if not left or not right or len(set(left)) != len(left):
        raise ValueError(f"invalid bipartition {left} | {right}")
    if any(not 1 <= s <= n for s in left):
        raise ValueError(f"cut sites {left} out of range")
    tensor = m.reshape([d] * (2 * n))
    perm = (
        [s - 1 for s in left]
        + [s - 1 + n for s in left]
        + [s - 1 for s in right]
        + [s - 1 + n for s in right]
    )
    dl, dr = d ** len(left), d ** len(right)
    reshuffled = tensor.transpose(perm).reshape(dl * dl, dr * dr)
    svals = np.linalg.svd(reshuffled, compute_uv=False)
    return int(np.sum(svals > tol))


def _unit_phases(v: np.ndarray) -> np.ndarray:
    mags = np.abs(v)
    safe = np.where(mags > 1e-15, v, 1.0)
    return safe / np.abs(safe)


def local_diagonal_distance(u, v, iters: int = 80, restarts: int = 8) -> float:
    """min over diagonal D1, D2 of ||U - (D1 x D2) V||_F / sqrt(dim).

    Reduces to maximizing Re(z^dag A w^conj) over per-site phase vectors,
    with A[i, j] the (ij, ij) diagonal of U V^dag; solved by alternating
    phase alignment with deterministic restarts.
    """
    mu, mv = _as_matrix(u), _as_matrix(v)
    dim = mu.shape[0]
    d = round(np.sqrt(dim))
    a = np.diag(mu @ mv.conj().T).reshape(d, d)

    best = -np.inf
    rng = np.random.default_rng(7)
    for r in range(restarts):
        w = np.ones(d, dtype=complex) if r == 0 else np.exp(2j * np.pi * rng.random(d))
        z = np.ones(d, dtype=complex)
        for _ in range(iters):
            z = _unit_phases(a @ w.conj())
            w = _unit_phases(a.T @ z.conj())
        val = float(np.real(z.conj() @ a @ w.conj()))
        best = max(best, val)
    dist_sq = max(2.0 * dim - 2.0 * best, 0.0)
    return float(np.sqrt(dist_sq / dim))


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    rank = rank or dim
    g = (rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))) / np.sqrt(2)
    m = g @ g.conj().T
    return m / np.trace(m).real
