"""Timed pulse schedules and their simulators.

A schedule is an ordered list of items: timed free evolutions under the
always-on two-qutrit dispersive coupling, instantaneous local pulses
(rotations, level permutations, software phase corrections), timed
conditional-pi entangling gates, and ``Concurrent`` blocks that run
several timed items over the same wall-clock interval.  Items check
their own fields and the schedule checks their sites when they are
built, so malformed input fails with :class:`ScheduleValidationError`
before any simulation starts.

:meth:`ScheduleSimulator.steps` is the one walk from items to register
steps.  :func:`simulate_unitary` composes the ideal unitary from those
steps, and :func:`simulate_density` evolves a density matrix through them,
adding optional always-on background couplings and per-segment
relaxation and dephasing channels at the end of each timed segment.

The density simulator compiles a schedule into a short list of site and
pair superoperators and applies them to rho in the site-interleaved
superket layout of :mod:`.kernels` (one d^2 leg per site).  Every map in
a schedule is linear, every noise channel acts on one site and every
coupling is diagonal, so maps on disjoint sites commute and the steps
regroup into *blocks*: a block is one site, or a pair whose steps have
coupled only each other since the block opened.  Each site keeps a
pending 9x9 map of its pulses and noise channels; a coupling step folds
its two sites' pending maps into the pair's 81x81 map (a ``matmul`` on
each leg), then scales that map's rows (a free-evolution or background
phase) or left-multiplies it (a conditional-pi gate).  A block is flushed,
that is emitted as one op, when a step couples one of its sites to a site
outside it; blocks and site maps still open at the end are emitted last.
The op list is cached, bounded to 8 entries of read-only arrays, on
``(schedule, sorted couplings, noise model, sorted background couplings,
d)``, so repeated runs of one schedule pay only the applications.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from decimal import Decimal
from numbers import Integral

import numpy as np

from . import kernels
from .core import DimensionMismatchError, QuditIndexing, QuditOperator, embed
from .gates import (
    _AXES,
    _SUBSPACE_LEVELS,
    conditional_pi_partial,
    permutation_matrix,
    rotation_matrix,
)


class ScheduleValidationError(ValueError):
    """A schedule item or schedule is malformed; raised when it is built."""


def _check(ok: bool, message: str, *args) -> None:
    # the message is formatted only on failure: a protocol builds thousands of items
    if not ok:
        raise ScheduleValidationError(message.format(*args))


def _check_finite(name: str, *values: float) -> None:
    _check(all(math.isfinite(v) for v in values), "{} must be finite, got {!r}", name, values)


def _check_duration(duration: float) -> None:
    _check_finite("durations", duration)
    _check(duration >= 0, "durations must be nonnegative, got {!r}", duration)


@dataclass(frozen=True)
class CrossKerrCoeffs:
    """Phase-accumulation rates (rad/s) for the four doubly-excited states
    of one ordered qutrit pair; the coupling vanishes when either qutrit
    sits in its ground state."""

    alpha_11: float
    alpha_12: float
    alpha_21: float
    alpha_22: float

    def __post_init__(self):
        _check_finite("cross-Kerr coefficients", self.alpha_11, self.alpha_12, self.alpha_21, self.alpha_22)

    @classmethod
    def from_khz(cls, a11: float, a12: float, a21: float, a22: float) -> "CrossKerrCoeffs":
        s = 2.0 * np.pi * 1e3
        return cls(a11 * s, a12 * s, a21 * s, a22 * s)

    @classmethod
    def zero(cls) -> "CrossKerrCoeffs":
        return cls(0.0, 0.0, 0.0, 0.0)

    def rate_matrix(self) -> np.ndarray:
        """3x3 array a[i, j] with the zero row and column for level 0."""
        m = np.zeros((3, 3))
        m[1, 1] = self.alpha_11
        m[1, 2] = self.alpha_12
        m[2, 1] = self.alpha_21
        m[2, 2] = self.alpha_22
        return m

    def transpose(self) -> "CrossKerrCoeffs":
        return CrossKerrCoeffs(self.alpha_11, self.alpha_21, self.alpha_12, self.alpha_22)


# ---------------------------------------------------------------------------
# schedule items
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Evolve:
    """Free evolution of the listed couplings for ``duration`` seconds."""

    pairs: tuple[tuple[int, int], ...]
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))
        bad = [p for p in self.pairs if len(p) != 2 or p[0] == p[1]]
        _check(not bad, "evolve pairs must join two distinct sites, got {!r}", bad)
        _check_duration(self.duration)


@dataclass(frozen=True)
class RotationPulse:
    site: int
    subspace: str
    axis: str
    angle: float

    def __post_init__(self):
        _check(self.subspace in _SUBSPACE_LEVELS, "unknown subspace {!r}", self.subspace)
        _check(self.axis in _AXES, "unknown axis {!r}", self.axis)
        _check_finite("rotation angles", self.angle)

    def inverse(self) -> "RotationPulse":
        return RotationPulse(self.site, self.subspace, self.axis, -self.angle)


@dataclass(frozen=True)
class PermutationPulse:
    site: int
    subspace: str  # "01" | "12" | "02"

    def __post_init__(self):
        _check(self.subspace in _SUBSPACE_LEVELS, "unknown subspace {!r}", self.subspace)

    def inverse(self) -> "PermutationPulse":
        return self


@dataclass(frozen=True)
class PhasePulse:
    """Software diagonal correction diag(exp(i*phases)); zero duration."""

    site: int
    phases: tuple[float, float, float]

    def __post_init__(self):
        _check(len(self.phases) == 3, "a phase pulse needs 3 phases, got {!r}", self.phases)
        _check_finite("phases", *self.phases)

    def inverse(self) -> "PhasePulse":
        return PhasePulse(self.site, tuple(-p for p in self.phases))


@dataclass(frozen=True)
class ConditionalPiPulse:
    """Timed entangling gate: the target's 01 levels swap when the control
    occupies ``condition``.  ``fraction`` < 1 runs a principal fractional
    power so a stretched gate can be split around decoupling pulses."""

    control: int
    target: int
    duration: float
    condition: int = 1
    fraction: float = 1.0

    def __post_init__(self):
        _check(self.control != self.target, "control and target are both site {!r}", self.control)
        ok = isinstance(self.condition, Integral) and self.condition in (0, 1, 2)
        _check(ok, "condition must be level 0, 1 or 2, got {!r}", self.condition)
        _check_duration(self.duration)
        _check_finite("fractions", self.fraction)

    def inverse(self) -> "ConditionalPiPulse":
        return ConditionalPiPulse(
            self.control, self.target, self.duration, self.condition, -self.fraction
        )


@dataclass(frozen=True)
class Concurrent:
    """Timed items sharing one wall-clock interval (disjoint site sets)."""

    parts: tuple
    duration: float

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        _check_duration(self.duration)


TimedItem = (Evolve, ConditionalPiPulse, Concurrent)


def _sites(item) -> tuple:
    """The sites an item acts on, for checking them against a register."""
    if isinstance(item, Concurrent):
        return tuple(s for part in item.parts for s in _sites(part))
    if isinstance(item, Evolve):
        return tuple(s for p in item.pairs for s in p)
    if isinstance(item, ConditionalPiPulse):
        return (item.control, item.target)
    if isinstance(item, (RotationPulse, PermutationPulse, PhasePulse)):
        return (item.site,)
    raise ScheduleValidationError(f"unknown schedule item {item!r}")


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered schedule over an n-qutrit register; items run first-to-last."""

    items: tuple
    n_sites: int

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        for item in self.items:
            bad = [s for s in _sites(item) if not (isinstance(s, Integral) and 1 <= s <= self.n_sites)]
            _check(not bad, "{!r} acts on sites {} that are not integers in 1..{}", item, bad, self.n_sites)

    @property
    def total_duration(self) -> float:
        return sum(it.duration for it in self.items if isinstance(it, TimedItem))

    def reversed(self) -> "PulseSchedule":
        """The inverse schedule (valid for pulse/conditional-pi sequences)."""
        inverted = []
        for item in reversed(self.items):
            if isinstance(item, Evolve):
                raise ValueError("free evolutions cannot be reversed in hardware")
            if isinstance(item, Concurrent):
                raise ValueError("reverse concurrent blocks by reversing their source schedules")
            inverted.append(item.inverse())
        return PulseSchedule(tuple(inverted), self.n_sites)

    def then(self, other: "PulseSchedule") -> "PulseSchedule":
        if other.n_sites != self.n_sites:
            raise DimensionMismatchError("schedules act on different registers")
        return PulseSchedule(self.items + other.items, self.n_sites)

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> list:
        return [_item_to_obj(it) for it in self.items]

    def to_json(self) -> str:
        return json.dumps({"n_sites": self.n_sites, "items": self.to_json_obj()}, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "PulseSchedule":
        obj = json.loads(text)
        items = tuple(_item_from_obj(o) for o in obj["items"])
        return cls(items, int(obj["n_sites"]))


_NS = Decimal(10) ** 9


def _ns_string(seconds: float) -> str:
    # Decimal(float) is exact and scaling by a power of ten is exact in
    # Decimal, so the string is a bit-exact encoding of the duration.
    return str(Decimal(seconds) * _NS)


def _seconds_from_ns(text: str) -> float:
    return float(Decimal(text) / _NS)


def _item_to_obj(item) -> dict:
    if isinstance(item, Evolve):
        return {
            "type": "evolve",
            "pairs": [list(p) for p in item.pairs],
            "duration_ns": _ns_string(item.duration),
        }
    if isinstance(item, RotationPulse):
        return {
            "type": "pulse",
            "site": item.site,
            "subspace": item.subspace,
            "axis": item.axis,
            "angle_rad": item.angle,
        }
    if isinstance(item, PermutationPulse):
        return {"type": "pulse", "site": item.site, "subspace": item.subspace, "perm": True}
    if isinstance(item, PhasePulse):
        return {"type": "pulse", "site": item.site, "phases_rad": list(item.phases)}
    if isinstance(item, ConditionalPiPulse):
        return {
            "type": "conditional_pi",
            "control": item.control,
            "target": item.target,
            "condition": item.condition,
            "fraction": item.fraction,
            "duration_ns": _ns_string(item.duration),
        }
    if isinstance(item, Concurrent):
        return {
            "type": "concurrent",
            "parts": [_item_to_obj(p) for p in item.parts],
            "duration_ns": _ns_string(item.duration),
        }
    raise TypeError(f"unknown schedule item {item!r}")


def _item_from_obj(obj: dict):
    kind = obj["type"]
    if kind == "evolve":
        return Evolve(tuple(tuple(p) for p in obj["pairs"]), _seconds_from_ns(obj["duration_ns"]))
    if kind == "pulse":
        if "phases_rad" in obj:
            return PhasePulse(obj["site"], tuple(obj["phases_rad"]))
        if obj.get("perm"):
            return PermutationPulse(obj["site"], obj["subspace"])
        return RotationPulse(obj["site"], obj["subspace"], obj["axis"], obj["angle_rad"])
    if kind == "conditional_pi":
        return ConditionalPiPulse(
            obj["control"],
            obj["target"],
            _seconds_from_ns(obj["duration_ns"]),
            obj.get("condition", 1),
            obj.get("fraction", 1.0),
        )
    if kind == "concurrent":
        return Concurrent(
            tuple(_item_from_obj(p) for p in obj["parts"]), _seconds_from_ns(obj["duration_ns"])
        )
    raise ValueError(f"unknown schedule item type {kind!r}")


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def _coupling_rate(couplings: dict, pair: tuple[int, int]) -> np.ndarray | None:
    if pair in couplings:
        return couplings[pair].rate_matrix()
    rev = (pair[1], pair[0])
    if rev in couplings:
        return couplings[rev].rate_matrix().T
    return None


class ScheduleSimulator:
    """The one walk from schedule items to steps on an n-site register."""

    def __init__(self, n: int, couplings: dict | None = None, d: int = 3):
        self.n = n
        self.d = d
        self.indexing = QuditIndexing(d, n)
        self.couplings = dict(couplings or {})

    def item_unitary(self, item: ConditionalPiPulse) -> np.ndarray:
        """Full-register matrix of a (fractional) conditional-pi gate; a
        dense oracle for the ``("pair", ...)`` step the simulators apply."""
        gate = conditional_pi_partial(item.condition, item.fraction)
        return embed(gate, [item.control, item.target], self.n, self.d).matrix

    def steps(self, items):
        """Yield the register steps of ``items`` in order:

        - ``("site", site, m)``: a d x d local pulse ``m`` on one site;
        - ``("phase", a, b, phi)``: one coupled pair of an ``Evolve``, the
          diagonal ``exp(-1j * phi[i_a, i_b])`` with ``phi`` the d x d table
          rate * duration, indexed by the digits of site ``a`` then ``b``;
        - ``("pair", control, target, g)``: a (fractional) conditional-pi
          gate, the d^2 x d^2 matrix ``g`` on (control, target);
        - ``("segment", duration, excluded)``: after each top-level timed
          item or ``Concurrent`` block, the wall-clock interval it spans;
          always-on background couplings act on every pair except the
          ``excluded`` ones (frozensets) that the segment already drives.
        """
        for item in items:
            excluded: set = set()
            yield from self._item_steps(item, excluded)
            if isinstance(item, TimedItem):
                yield ("segment", item.duration, excluded)

    def _item_steps(self, item, excluded: set):
        if isinstance(item, Concurrent):
            for part in item.parts:
                yield from self._item_steps(part, excluded)
        elif isinstance(item, Evolve):
            excluded.update(frozenset(p) for p in item.pairs)
            for a, b in item.pairs:
                rate = _coupling_rate(self.couplings, (a, b))
                if rate is None:
                    raise KeyError(f"no cross-Kerr coefficients supplied for pair {(a, b)}")
                yield ("phase", a, b, rate * item.duration)
        elif isinstance(item, ConditionalPiPulse):
            excluded.add(frozenset((item.control, item.target)))
            gate = conditional_pi_partial(item.condition, item.fraction)
            yield ("pair", item.control, item.target, gate)
        elif isinstance(item, RotationPulse):
            yield ("site", item.site, rotation_matrix(item.subspace, item.axis, item.angle))
        elif isinstance(item, PermutationPulse):
            yield ("site", item.site, permutation_matrix(item.subspace))
        elif isinstance(item, PhasePulse):
            yield ("site", item.site, np.diag(np.exp(1j * np.asarray(item.phases))))
        else:
            raise TypeError(f"unknown schedule item {item!r}")


def simulate_unitary(schedule: PulseSchedule, couplings: dict | None = None, d: int = 3) -> QuditOperator:
    """Compose the ideal unitary of a schedule."""
    n = schedule.n_sites
    sim = ScheduleSimulator(n, couplings, d)
    dim = sim.indexing.dim
    u = np.eye(dim, dtype=complex)
    for step in sim.steps(schedule.items):
        match step:
            case ("site", site, m):
                rows = u.reshape(d ** (site - 1), d, -1)
                u = np.einsum("ab,lbr->lar", m, rows).reshape(dim, dim)
            case ("phase", a, b, phi):
                shape = [1] * (n + 1)
                shape[a - 1] = shape[b - 1] = d
                factor = np.exp(-1j * (phi if a < b else phi.T)).reshape(shape)
                u = (u.reshape((d,) * n + (dim,)) * factor).reshape(dim, dim)
            case ("pair", a, b, gate):
                rows = u.reshape((d,) * n + (dim,))
                rows = np.tensordot(gate.reshape(d, d, d, d), rows, axes=([2, 3], [a - 1, b - 1]))
                u = np.moveaxis(rows, (0, 1), (a - 1, b - 1)).reshape(dim, dim)
    return QuditOperator(u, sim.indexing)


@functools.lru_cache(maxsize=512)
def _site_channel(t1s: tuple, t2s: tuple, scale: float, duration: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (Kraus stack, row-major superoperator) of one site's
    relaxation-then-dephasing channel over ``duration``; cached on the
    physical parameters, so equal noise models share their channels."""
    from .channels import amplitude_damping_channel, dephasing_channel

    damp = amplitude_damping_channel(duration, *(t / scale for t in t1s))
    deph = dephasing_channel(duration, *(t / scale for t in t2s))
    stack = np.array([kd @ kp for kd in damp.kraus for kp in deph.kraus])
    d = stack.shape[1]
    superop = np.einsum("mab,mcd->acbd", stack, stack.conj()).reshape(d * d, d * d)
    stack.flags.writeable = False
    superop.flags.writeable = False
    return stack, superop


@dataclass(frozen=True)
class NoiseModel:
    """Per-site relaxation and dephasing rates used by the density simulator.

    ``damping[i]`` is (T1_10, T1_21) and ``dephasing[i]`` is
    (T2_01, T2_12, T2_02), in seconds, for 1-based site i+1; ``scale``
    multiplies all decay rates (0 disables noise).  Lists are accepted and
    stored as tuples, so equal models compare and hash equal and can key a
    cache.  Channels are built once per parameter set and shared, read-only,
    by every model.
    """

    damping: tuple[tuple[float, float], ...]
    dephasing: tuple[tuple[float, float, float], ...]
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "damping", tuple(tuple(t) for t in self.damping))
        object.__setattr__(self, "dephasing", tuple(tuple(t) for t in self.dephasing))

    def _channel(self, site: int, duration: float) -> tuple[np.ndarray, np.ndarray] | None:
        if self.scale <= 0.0 or duration <= 0.0:
            return None
        return _site_channel(self.damping[site - 1], self.dephasing[site - 1], self.scale, duration)

    def site_kraus(self, site: int, duration: float) -> np.ndarray | None:
        """Kraus stack of the site's channel over ``duration``, or None
        when the model adds no noise."""
        channel = self._channel(site, duration)
        return None if channel is None else channel[0]

    def site_superop(self, site: int, duration: float) -> np.ndarray | None:
        """The :meth:`site_kraus` channel as a row-major superoperator
        ``sum_m K_m kron K_m.conj()``."""
        channel = self._channel(site, duration)
        return None if channel is None else channel[1]


# Op-list cache bound.  An entry holds one read-only superoperator per op
# (105 KB for a pair block); the teleportation protocol's interaction and
# measurement schedule compiles to 6 ops, its preparation to fewer.
_COMPILED_SCHEDULES = 8


def _check_background(background: dict, n: int) -> None:
    for pair, coeffs in background.items():
        ok = isinstance(pair, tuple) and len(pair) == 2 and pair[0] != pair[1]
        ok = ok and all(isinstance(s, Integral) and 1 <= s <= n for s in pair)
        _check(ok, "background pair {!r} must join two distinct sites in 1..{}", pair, n)
        _check(
            isinstance(coeffs, CrossKerrCoeffs),
            "background pair {!r} needs CrossKerrCoeffs, got {!r}",
            pair,
            coeffs,
        )


@functools.lru_cache(maxsize=_COMPILED_SCHEDULES)
def _compiled_ops(schedule: PulseSchedule, couplings: tuple, noise, background: tuple, d: int) -> tuple:
    """The density evolution of ``schedule`` as read-only ops ``(sites,
    superoperator)``, applied in order: a d^2 x d^2 map on one site or a
    d^4 x d^4 map on the legs of a pair ``(a, b)`` with a < b.
    ``couplings`` and ``background`` are sorted (pair, coefficients) items.
    Blocks and flushes are as in the module docstring.
    """
    n = schedule.n_sites
    dd = d * d
    local: dict = {}  # site -> its map since its block last took a coupling step
    opened: dict = {}  # (a, b) with a < b -> the pair's pending d^4 x d^4 map
    owner: dict = {}  # site -> the open pair it belongs to
    ops: list = []

    def compose(site, s):
        local[site] = s @ local[site] if site in local else s

    def fold(pair):
        """The pair's map with both sites' local maps applied after it."""
        a, b = pair
        m = opened[pair]
        if a in local:
            m = (local.pop(a) @ m.reshape(dd, -1)).reshape(dd * dd, dd * dd)
        if b in local:
            m = np.matmul(local.pop(b), m.reshape(dd, dd, -1)).reshape(dd * dd, dd * dd)
        return m

    def emit(pair):
        ops.append((pair, fold(pair)))
        del opened[pair], owner[pair[0]], owner[pair[1]]

    def block(a, b):
        """Open (or keep) the block of the pair; returns it in a < b order."""
        pair = (min(a, b), max(a, b))
        if owner.get(a) != pair:
            for site in pair:
                if site in owner:
                    emit(owner[site])
            opened[pair] = np.eye(dd * dd, dtype=complex)
            owner[a] = owner[b] = pair
        opened[pair] = fold(pair)
        return pair

    def phase(a, b, phi):
        factor = kernels.pair_phase_factor(phi)
        pair = block(a, b)
        opened[pair] *= (factor if a < b else factor.T).reshape(-1, 1)

    sim = ScheduleSimulator(n, dict(couplings), d)
    for step in sim.steps(schedule.items):
        match step:
            case ("site", site, m):
                compose(site, kernels.conjugation_superop(m, d))
            case ("phase", a, b, phi):
                phase(a, b, phi)
            case ("pair", a, b, gate):
                s = kernels.conjugation_superop(gate, d)
                if a > b:
                    s = s.reshape(dd, dd, dd, dd).transpose(1, 0, 3, 2).reshape(dd * dd, dd * dd)
                pair = block(a, b)
                opened[pair] = s @ opened[pair]
            case ("segment", duration, excluded) if duration > 0:
                for (a, b), coeffs in background:
                    if frozenset((a, b)) not in excluded:
                        phase(a, b, coeffs.rate_matrix() * duration)
                if noise is not None:
                    for site in range(1, n + 1):
                        s = noise.site_superop(site, duration)
                        if s is not None:
                            compose(site, s)
    for pair in sorted(opened):
        emit(pair)
    ops.extend(((site,), local[site]) for site in sorted(local))
    for _, s in ops:
        s.flags.writeable = False
    return tuple(ops)


def simulate_density(
    schedule: PulseSchedule,
    rho0: np.ndarray,
    couplings: dict | None = None,
    noise: NoiseModel | None = None,
    background_pairs: dict | None = None,
    d: int = 3,
) -> np.ndarray:
    """Evolve a density matrix through a schedule.

    ``background_pairs`` optionally maps site pairs to coefficients applied
    during every timed item (always-on couplings), excluding the pair a
    conditional-pi gate acts on and any pair already listed by the item.
    Raises :class:`DimensionMismatchError` before any step when ``rho0`` is
    not d^n x d^n or ``noise`` covers fewer than n sites, and
    :class:`ScheduleValidationError` when a background pair does not join
    two distinct sites in 1..n or its value is not :class:`CrossKerrCoeffs`.

    The schedule compiles to a few site and pair superoperators, cached on
    ``(schedule, couplings, noise, background_pairs, d)`` (bounded, read-only
    entries); each call applies them to rho in the superket layout.
    """
    n = schedule.n_sites
    rho0 = np.asarray(rho0)
    if rho0.shape != (d**n, d**n):
        raise DimensionMismatchError(f"rho0 has shape {rho0.shape}, expected {(d**n, d**n)} for {n} sites")
    covered = n if noise is None else min(len(noise.damping), len(noise.dephasing))
    if covered < n:
        raise DimensionMismatchError(f"the noise model covers {covered} sites, the schedule has {n}")
    background = dict(background_pairs or {})
    _check_background(background, n)
    couplings = tuple(sorted((couplings or {}).items()))
    ops = _compiled_ops(schedule, couplings, noise, tuple(sorted(background.items())), d)
    t = kernels.to_superket(rho0, n, d)
    for sites, s in ops:
        if len(sites) == 1:
            t = kernels.apply_site_superop(t, s, *sites)
        else:
            t = kernels.apply_pair_superop(t, s, *sites)
    return kernels.from_superket(t, n, d)


# ---------------------------------------------------------------------------
# parallel composition
# ---------------------------------------------------------------------------


def parallel_merge(a: PulseSchedule, b: PulseSchedule, n_sites: int) -> PulseSchedule:
    """Run two schedules (on disjoint site sets) over a common wall clock.

    Timed items are split at the union of both schedules' segment
    boundaries; conditional-pi fractions split proportionally, which is
    exact for the principal fractional powers used here.
    """

    def timeline(s: PulseSchedule):
        events = []  # (start, item, end); instantaneous pulses have start == end
        t = 0.0
        for item in s.items:
            if isinstance(item, TimedItem):
                events.append((t, item, t + item.duration))
                t += item.duration
            else:
                events.append((t, item, t))
        return events, t

    ev_a, dur_a = timeline(a)
    ev_b, dur_b = timeline(b)
    cuts = sorted(
        {0.0, dur_a, dur_b}
        | {x for start, _, end in ev_a for x in (start, end)}
        | {x for start, _, end in ev_b for x in (start, end)}
    )

    def slice_item(item, frac: float, dt: float):
        if isinstance(item, Evolve):
            return Evolve(item.pairs, dt)
        if isinstance(item, ConditionalPiPulse):
            return ConditionalPiPulse(
                item.control, item.target, dt, item.condition, item.fraction * frac
            )
        if isinstance(item, Concurrent):
            return Concurrent(tuple(slice_item(p, frac, dt) for p in item.parts), dt)
        raise TypeError(f"cannot slice {item!r}")

    merged: list = []
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        dt = t1 - t0
        # instantaneous pulses scheduled at t0 (a first, then b)
        for events in (ev_a, ev_b):
            for t, item, end in events:
                if not isinstance(item, TimedItem) and abs(t - t0) < 1e-15:
                    merged.append(item)
        if dt <= 1e-15:
            continue
        parts = []
        for events, total in ((ev_a, dur_a), (ev_b, dur_b)):
            for t, item, end in events:
                if isinstance(item, TimedItem) and t < t1 - 1e-15 and end > t0 + 1e-15:
                    frac = dt / item.duration
                    parts.append(slice_item(item, frac, dt))
        if len(parts) == 1:
            merged.append(parts[0])
        elif parts:
            merged.append(Concurrent(tuple(parts), dt))
    # trailing pulses at the very end
    for events in (ev_a, ev_b):
        for t, item, end in events:
            if not isinstance(item, TimedItem) and abs(t - cuts[-1]) < 1e-15:
                merged.append(item)
    return PulseSchedule(tuple(merged), n_sites)
