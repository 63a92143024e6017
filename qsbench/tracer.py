"""Span recorder that wraps public qutritsim functions from outside the package.

Each wrapped call records one span (name, start, end, parent) in memory.
Several modules import functions by name (``teleport`` imports
``simulate_density``, ``state_tomography``, ``measured_probabilities`` and
``partial_trace``; ``synthesis`` imports ``local_diagonal_distance``), so
:meth:`Tracer.install` replaces every attribute of every loaded
``qutritsim`` module that is bound to the original function, not only the
defining module's attribute.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


KRAUS_OPS = "kernels.apply_site_kraus.noise.kraus_ops"
BYTES_COMPUTED = "kernels.apply_site_kraus.noise.bytes_computed"


def _classify_kraus(counters, args, kwargs):
    """Split ``apply_site_kraus`` by the Kraus stack's leading dimension:
    more than one operator is a noise channel, one operator is a pulse."""
    rho, kraus = args[0], args[1]
    if kraus.shape[0] > 1:
        counters[KRAUS_OPS] += kraus.shape[0]
        # computed, not measured: the operand, the Kraus stack and the result
        counters[BYTES_COMPUTED] += 2 * rho.nbytes + kraus.nbytes
        return "kernels.apply_site_kraus.noise"
    return "kernels.apply_site_kraus.pulse"


def _count_items(counters, args, kwargs):
    """Count the schedule items ``simulate_density`` walks, by kind."""
    from qutritsim import schedules

    def walk(items):
        for item in items:
            if isinstance(item, schedules.Concurrent):
                counters["schedules.items.concurrent"] += 1
                walk(item.parts)
            elif isinstance(item, schedules.Evolve):
                counters["schedules.items.evolve"] += 1
            elif isinstance(item, schedules.ConditionalPiPulse):
                counters["schedules.items.cpi"] += 1
            else:
                counters["schedules.items.local"] += 1

    walk(args[0].items)
    return "schedules.simulate_density"


def _record_noise_key(tracer):
    def hook(counters, args, kwargs):
        # args = (self, site, duration): the key the model caches on
        tracer.noise_keys.add((args[1], args[2]))
        return "schedules.NoiseModel.site_kraus"

    return hook


class Tracer:
    """In-memory spans plus exact counters for the ops of one run."""

    def __init__(self):
        self.spans: list = []  # (op, name, start, end, parent index)
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.noise_keys: set = set()
        self.op = -1
        self._op_start = 0.0
        self._restore: list = []
        self.names: set[str] = set()  # every span name the wrappers can record

    def wrap(self, name: str, fn, hook=None):
        tracer = self
        self.names.update((name + ".noise", name + ".pulse") if hook is _classify_kraus else (name,))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = hook(tracer.counters, args, kwargs) if hook else name
            parent = tracer.stack[-1] if tracer.stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (tracer.op, label, start, end, parent)

        return traced

    def install(self) -> None:
        """Wrap the layer boundaries named in the benchmark's per-layer table."""
        from qutritsim import channels, core, kernels, readout, schedules, synthesis, teleport, tomography

        functions = [
            (kernels, "apply_site_kraus", "kernels.apply_site_kraus", _classify_kraus),
            (kernels, "apply_diag_phases", "kernels.apply_diag_phases", None),
            (kernels, "confusion_mix", "kernels.confusion_mix", None),
            (schedules, "simulate_density", "schedules.simulate_density", _count_items),
            (channels, "amplitude_damping_channel", "channels.amplitude_damping_channel", None),
            (channels, "dephasing_channel", "channels.dephasing_channel", None),
            (tomography, "state_tomography", "tomography.state_tomography", None),
            (tomography, "collect_records", "tomography.collect_records", None),
            (tomography, "sensing_matrix", "tomography.sensing_matrix", None),
            (tomography, "psd_project", "tomography.psd_project", None),
            (tomography, "process_tomography", "tomography.process_tomography", None),
            (readout, "measured_probabilities", "readout.measured_probabilities", None),
            (readout, "readout_sample", "readout.readout_sample", None),
            (synthesis, "six_segment_optimal_time", "synthesis.six_segment_optimal_time", None),
            (synthesis, "solve_four_segment", "synthesis.solve_four_segment", None),
            (core, "local_diagonal_distance", "core.local_diagonal_distance", None),
            (core, "partial_trace", "core.partial_trace", None),
            (teleport, "build_protocol_schedules", "teleport.build_protocol_schedules", None),
        ]
        modules = [m for n, m in list(sys.modules.items()) if n == "qutritsim" or n.startswith("qutritsim.")]
        for owner, attr, name, hook in functions:
            original = getattr(owner, attr)
            traced = self.wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._restore.append((module, key, original))

        methods = [
            (schedules.ScheduleSimulator, "item_unitary", "schedules.item_unitary", None),
            (schedules.NoiseModel, "site_kraus", "schedules.NoiseModel.site_kraus", _record_noise_key(self)),
        ]
        for cls, attr, name, hook in methods:
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, original, hook))
            self._restore.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def begin_op(self, op: int) -> None:
        self.op = op
        self.counters = Counter()
        self.noise_keys = set()
        self.stack = [len(self.spans)]
        self.spans.append(None)
        self._op_start = perf_counter()

    def end_op(self) -> dict:
        """Close the op's root span and return its per-layer summary:
        exact counts under ``counts``, seconds under ``times``."""
        end = perf_counter()
        root = self.stack[0]
        self.spans[root] = (self.op, "op", self._op_start, end, -1)
        self.stack = []
        self.op = -1  # spans recorded between ops (the output checks) belong to none

        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        child_time: defaultdict = defaultdict(float)
        for index in range(root + 1, len(self.spans)):
            _, name, start, stop, parent = self.spans[index]
            calls[name] += 1
            total[name] += stop - start
            child_time[parent] += stop - start
        self_time: defaultdict = defaultdict(float)
        for index in range(root + 1, len(self.spans)):
            _, name, start, stop, _ = self.spans[index]
            self_time[name] += stop - start - child_time[index]

        counts = dict(self.counters)
        for name, n in calls.items():
            counts[name + ".calls"] = n
        key_calls = calls["schedules.NoiseModel.site_kraus"]
        op_s = end - self._op_start
        times = {name + ".s": t for name, t in total.items()}
        times.update({name + ".self_s": t for name, t in self_time.items()})
        times["op.s"] = op_s
        times["op.self_s"] = op_s - child_time[root]
        # computed from the call stream, independent of the model's cache state
        hit_ratio = 1.0 - len(self.noise_keys) / key_calls if key_calls else 0.0
        return {"counts": counts, "times": times, "hit_ratio": hit_ratio}

    def write(self, path) -> None:
        """Write every span as one JSON line: op, name, start, end, parent."""
        import json

        with open(path, "w") as fh:
            for index, (op, name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"i": index, "op": op, "name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")
