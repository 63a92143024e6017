"""State and process tomography for qutrit registers.

Measurement settings are products of the four mutually unbiased qutrit
bases (the eigenbases of Z, X, XZ, XZ2) followed by computational-basis
readout.  Reconstruction is linear inversion from readout-corrected
frequencies followed by projection to the nearest unit-trace positive
matrix (eigenvalue clipping with renormalization).  Process tomography
feeds a spanning set of product inputs through a black-box channel and
reports the Pauli transfer matrix over the unitary Weyl basis, whose
entries are (1/d^n) Tr[P_i^dag Lambda(P_j)].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import (
    DensityState,
    PauliLabel,
    QuditIndexing,
    QuditOperator,
    all_pauli_labels,
    omega,
    weyl_pauli,
)
from .readout import readout_correct, readout_sample

N_BASES = 4


class TomographyError(ValueError):
    """Setting or input set is informationally incomplete."""


def mub_bases(d: int = 3) -> list[np.ndarray]:
    """Four mutually unbiased orthonormal bases, columns are basis states.

    Basis 0 is computational (Z eigenbasis); basis k >= 1 holds the
    eigenvectors of X Z^(k-1) with column j belonging to eigenvalue w^j,
    from the closed form v_m = w^(k' m (m-1)/2 - j m) / sqrt(3), k' = k-1.
    """
    if d != 3:
        raise ValueError("mutually unbiased bases implemented for qutrits only")
    w = omega(d)
    bases = [np.eye(d, dtype=complex)]
    for kp in range(3):
        b = np.empty((d, d), dtype=complex)
        for j in range(d):
            for m in range(d):
                exponent = (kp * (m * (m - 1) // 2) - j * m) % d
                b[m, j] = w**exponent / np.sqrt(d)
        bases.append(b)
    return bases


@dataclass(frozen=True)
class MeasurementSetting:
    """Per-site basis indices into the MUB list; measuring means rotating
    each site's basis to computational and reading out."""

    bases: tuple[int, ...]

    def __post_init__(self):
        if any(not 0 <= b < N_BASES for b in self.bases):
            raise ValueError("basis index out of range")


def all_settings(n: int) -> list[MeasurementSetting]:
    return [MeasurementSetting(b) for b in product(range(N_BASES), repeat=n)]


def setting_rotation(setting: MeasurementSetting, d: int = 3) -> np.ndarray:
    """Pre-rotation W with diag(W rho W^dag) the setting's outcome
    distribution; W maps each site's chosen basis to computational."""
    bases = mub_bases(d)
    w = np.array([[1.0]], dtype=complex)
    for b in setting.bases:
        w = np.kron(w, bases[b].conj().T)
    return w


@dataclass(frozen=True)
class TomographyRecord:
    setting: tuple[int, ...]
    counts: dict[str, int] | None
    shots: int
    seed: int
    probabilities: np.ndarray | None = None  # exact-statistics mode

    def to_json_obj(self) -> dict:
        obj = {"setting": list(self.setting), "shots": self.shots, "seed": self.seed}
        if self.counts is not None:
            obj["counts"] = dict(sorted(self.counts.items()))
        if self.probabilities is not None:
            obj["probabilities"] = [float(p) for p in self.probabilities]
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TomographyRecord":
        probs = obj.get("probabilities")
        return cls(
            tuple(obj["setting"]),
            obj.get("counts"),
            int(obj["shots"]),
            int(obj["seed"]),
            None if probs is None else np.asarray(probs, dtype=float),
        )

    def frequencies(self, n: int, d: int = 3) -> np.ndarray:
        if self.probabilities is not None:
            return np.asarray(self.probabilities, dtype=float)
        idx = QuditIndexing(d, n)
        freq = np.zeros(idx.dim)
        for label, c in self.counts.items():
            freq[idx.digits_to_label(tuple(int(ch) for ch in label))] += c
        if self.shots and abs(freq.sum() - self.shots) > 1e-9:
            raise ValueError("counts do not sum to the declared shot count")
        if not freq.sum() > 0:
            raise TomographyError(f"setting {self.setting} has no counts to estimate frequencies from")
        return freq / freq.sum()


def collect_records(
    rho: DensityState,
    shots: int | None = None,
    seed: int = 0,
    confusion=None,
    settings: list[MeasurementSetting] | None = None,
) -> list[TomographyRecord]:
    """Simulate tomography data for a state; exact probabilities when
    ``shots`` is None, multinomial sampling otherwise (per-setting keys)."""
    from .readout import measured_probabilities

    n = rho.indexing.n
    settings = settings if settings is not None else all_settings(n)
    records = []
    for task, setting in enumerate(settings):
        w = setting_rotation(setting, rho.indexing.d)
        rotated = DensityState(
            w @ rho.matrix @ w.conj().T, rho.indexing, validate=False
        )
        if shots is None:
            probs = measured_probabilities(rotated, confusion)
            records.append(TomographyRecord(setting.bases, None, 0, seed, probs))
        else:
            counts = readout_sample(rotated, confusion, shots, seed, task_index=task)
            records.append(TomographyRecord(setting.bases, counts, shots, seed))
    return records


def records_to_jsonl(records: list[TomographyRecord]) -> str:
    """One JSON object per line, one line per measurement setting."""
    import json

    return "\n".join(json.dumps(r.to_json_obj(), sort_keys=True) for r in records)


def records_from_jsonl(text: str) -> list[TomographyRecord]:
    import json

    return [
        TomographyRecord.from_json_obj(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


def matrix_to_json_obj(matrix: np.ndarray) -> list:
    """Row-major nested lists of [re, im] pairs."""
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(matrix)]


def matrix_from_json_obj(obj) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in obj])


def sensing_matrix(settings: list[MeasurementSetting], n: int, d: int = 3) -> np.ndarray:
    """Rows are vec of the POVM elements W^dag |o><o| W over all settings
    and outcomes (row-major vec)."""
    dim = d**n
    rows = []
    for setting in settings:
        w = setting_rotation(setting, d)
        for o in range(dim):
            m = np.outer(w[o].conj(), w[o])
            rows.append(m.conj().reshape(-1))
    return np.array(rows)


# Sensing-matrix cache bound: a one-qutrit entry is 5 KB and a two-qutrit
# one (16 settings x 9 outcomes x 81 entries) 190 KB.
_SENSING_MATRICES = 4


@functools.lru_cache(maxsize=_SENSING_MATRICES)
def _sensing(settings: tuple, n: int, d: int) -> tuple[np.ndarray, int]:
    """Read-only :func:`sensing_matrix` of ``settings`` and its rank,
    cached: every reconstruction from one setting list shares them."""
    a = sensing_matrix(list(settings), n, d)
    a.flags.writeable = False
    return a, int(np.linalg.matrix_rank(a, tol=1e-10))


def psd_project(matrix: np.ndarray) -> np.ndarray:
    """Nearest unit-trace positive matrix: hermitize, clip the spectrum at
    zero, renormalize the trace.  Idempotent and trace preserving for
    unit-trace input."""
    h = (matrix + matrix.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(h)
    vals = np.clip(vals, 0.0, None)
    if vals.sum() <= 0:
        raise TomographyError("reconstruction collapsed to the zero matrix")
    out = (vecs * vals) @ vecs.conj().T
    return out / np.trace(out).real


def state_tomography(
    records: list[TomographyRecord],
    confusion=None,
    n: int | None = None,
    d: int = 3,
) -> DensityState:
    """Linear-inversion estimate from readout-corrected frequencies with a
    final positivity projection.

    At exact statistics and identity confusion the round trip reproduces
    the true state to solver precision.  Raises TomographyError when the
    setting set does not span operator space.
    """
    if not records:
        raise TomographyError("no tomography records")
    n = n if n is not None else len(records[0].setting)
    dim = d**n
    settings = tuple(MeasurementSetting(tuple(r.setting)) for r in records)
    a, rank = _sensing(settings, n, d)
    if rank < dim * dim:
        raise TomographyError(f"setting set is informationally incomplete (rank {rank} < {dim * dim})")
    fs = []
    for r in records:
        f = r.frequencies(n, d)
        if confusion is not None:
            f = readout_correct(f, confusion, n, d)
        fs.append(f)
    b = np.concatenate(fs)
    vec_rho, *_ = np.linalg.lstsq(a, b, rcond=None)
    rho = vec_rho.reshape(dim, dim)
    rho = (rho + rho.conj().T) / 2.0
    rho = rho / np.trace(rho).real
    return DensityState(psd_project(rho), QuditIndexing(d, n), validate=False)


# ---------------------------------------------------------------------------
# process tomography
# ---------------------------------------------------------------------------

_REAL = 1.0 / np.sqrt(2.0)


def preparation_states(d: int = 3) -> list[np.ndarray]:
    """Nine single-qutrit preparations spanning operator space: the three
    levels plus +/-i superpositions of each level pair."""
    kets = [np.eye(3, dtype=complex)[:, i] for i in range(3)]
    e = np.eye(3, dtype=complex)
    for i, j in ((0, 1), (1, 2), (0, 2)):
        kets.append(_REAL * (e[:, i] + e[:, j]))
        kets.append(_REAL * (e[:, i] - 1j * e[:, j]))
    return kets


def product_preparations(n: int) -> list[np.ndarray]:
    """Density matrices of all 9^n product preparations."""
    single = preparation_states()
    mats = []
    for combo in product(single, repeat=n):
        v = combo[0]
        for ket in combo[1:]:
            v = np.kron(v, ket)
        mats.append(np.outer(v, v.conj()))
    return mats


@dataclass(frozen=True)
class ProcessMatrix:
    """Superoperator in the unitary Weyl-Pauli basis: entry (i, j) is
    (1/d^n) Tr[P_i^dag Lambda(P_j)]; complex entries are expected."""

    matrix: np.ndarray
    labels: tuple[PauliLabel, ...]

    @property
    def dim(self) -> int:
        return round(np.sqrt(self.matrix.shape[0]))

    def identity_index(self) -> int:
        for i, lab in enumerate(self.labels):
            if lab.is_identity():
                return i
        raise ValueError("no identity label")

    def is_trace_preserving(self, atol: float = 1e-8) -> bool:
        row = self.matrix[self.identity_index()]
        expected = np.zeros(len(self.labels))
        expected[self.identity_index()] = 1.0
        return bool(np.abs(row - expected).max() < atol)


def _pauli_stack(n: int, d: int = 3) -> tuple[list[PauliLabel], np.ndarray]:
    labels = all_pauli_labels(n, d)
    return labels, np.array([weyl_pauli(lab).matrix for lab in labels])


def process_tomography(
    channel,
    n: int = 2,
    shots: int | None = None,
    seed: int = 0,
    confusion=None,
    d: int = 3,
) -> ProcessMatrix:
    """Reconstruct the transfer matrix of a black-box state-in/state-out map.

    ``channel`` maps a DensityState to a DensityState.  Exact mode uses the
    output matrices directly; shot mode reconstructs each output by state
    tomography on sampled records.  Raises TomographyError when the
    preparation set fails its spanning (Gram rank) check.
    """
    dim = d**n
    preps = product_preparations(n)
    in_mat = np.array([p.reshape(-1) for p in preps]).T
    if np.linalg.matrix_rank(in_mat, tol=1e-10) < dim * dim:
        raise TomographyError("preparation set does not span operator space")
    idx = QuditIndexing(d, n)
    out_cols = []
    for task, prep in enumerate(preps):
        rho_in = DensityState(prep, idx, validate=False)
        rho_out = channel(rho_in)
        if shots is not None:
            records = collect_records(rho_out, shots, seed + task, confusion)
            rho_out = state_tomography(records, confusion, n, d)
        out_cols.append(rho_out.matrix.reshape(-1))
    superop = np.array(out_cols).T @ np.linalg.inv(in_mat)
    labels, paulis = _pauli_stack(n, d)
    v = np.array([p.reshape(-1) for p in paulis]).T
    ptm = v.conj().T @ superop @ v / dim
    return ProcessMatrix(ptm, tuple(labels))


def ptm_of_unitary(u: QuditOperator) -> ProcessMatrix:
    """Analytic transfer matrix of the conjugation map rho -> U rho U^dag."""
    n, d = u.indexing.n, u.indexing.d
    labels, paulis = _pauli_stack(n, d)
    um = u.matrix
    conj = np.array([um @ p @ um.conj().T for p in paulis])
    ptm = np.einsum("iab,jab->ij", np.conj(paulis), conj) / (d**n)
    return ProcessMatrix(ptm, tuple(labels))


def superoperator_from_ptm(p: ProcessMatrix) -> np.ndarray:
    labels = p.labels
    paulis = np.array([weyl_pauli(lab).matrix for lab in labels])
    dim = paulis.shape[1]
    v = np.array([pl.reshape(-1) for pl in paulis]).T
    return v @ p.matrix @ v.conj().T / dim


def choi_from_ptm(p: ProcessMatrix) -> np.ndarray:
    """Trace-normalized Choi state of the reconstructed map."""
    s = superoperator_from_ptm(p)
    dim = round(np.sqrt(s.shape[0]))
    j = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[a, b] = 1.0
            out = (s @ e.reshape(-1)).reshape(dim, dim)
            j += np.kron(out, e)
    return j / dim


def ptm_restriction(p: ProcessMatrix) -> tuple[np.ndarray, list[PauliLabel], list[PauliLabel]]:
    """The single-site columns of the transfer matrix.

    Columns: the 16 non-identity Paulis supported on exactly one site
    (site-1 group first, lexicographic exponents); rows: all non-identity
    Paulis.  Returns (block, row_labels, column_labels).
    """
    labels = list(p.labels)
    rows = [i for i, lab in enumerate(labels) if not lab.is_identity()]
    cols = []
    n = labels[0].n
    for site in range(1, n + 1):
        for i, lab in enumerate(labels):
            if lab.weight() == 1 and not lab.is_identity():
                if lab.exponents[site - 1] != (0, 0):
                    cols.append(i)
    block = p.matrix[np.ix_(rows, cols)]
    return block, [labels[i] for i in rows], [labels[i] for i in cols]


def process_fidelity(p: ProcessMatrix, u_ideal: QuditOperator) -> float:
    """Entanglement fidelity of the reconstructed map against a unitary:
    the overlap of Choi states, 1 exactly when the map is conjugation by
    the ideal unitary.  Warns and proceeds for non-trace-preserving input."""
    import warnings

    if not p.is_trace_preserving(atol=1e-6):
        warnings.warn("process matrix is not trace preserving; fidelity is indicative")
    j_rec = choi_from_ptm(p)
    dim = u_ideal.indexing.dim
    v = u_ideal.matrix.reshape(-1) / np.sqrt(dim)  # vec(U)/sqrt(d) = (U x I)|phi>
    f = np.real(v.conj() @ j_rec @ v)
    return float(min(max(f, 0.0), 1.0))


def average_gate_fidelity(p: ProcessMatrix, u_ideal: QuditOperator) -> float:
    """(d F_e + 1)/(d + 1) from the entanglement fidelity."""
    dim = u_ideal.indexing.dim
    fe = process_fidelity(p, u_ideal)
    return float((dim * fe + 1.0) / (dim + 1.0))
