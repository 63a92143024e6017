"""qutritsim benchmark: one workload per process, end-to-end or traced.

    python3 qsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the program under test is imported from
./src and from nowhere else, and the run fails with exit code 2 when ./src
holds no qutritsim package.  Metric names and units come from
BENCHMARK.json.  With --trace 0 the run reports the end-to-end metrics;
with --trace 1 it runs the same op untraced and then traced, and reports
the per-layer metrics.  The last line of standard output is the result
object; the line before it holds the environment block and the details.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from tracer import BYTES_COMPUTED, KRAUS_OPS, Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9  # fresh interpreters timed per run; setup_s is their median
# One BLAS thread: with the default two OpenBLAS threads on a two-core host,
# one other busy process made ops eight times slower, because spinning BLAS
# threads oversubscribe the cores.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
P90_MIN_SAMPLES = 100  # op_p90_s needs ten samples beyond it


def _setup_probe(workload: str) -> None:
    """Time, in this fresh interpreter, importing qutritsim, loading the
    device and compiling the workload's schedules."""
    start = time.perf_counter()
    import workloads

    workloads.WORKLOADS[workload]()
    print(time.perf_counter() - start)


class SetupProbes:
    """Set-up times from fresh interpreters, spread over the run so that they
    sample the same machine conditions as the ops."""

    def __init__(self, workload: str):
        self.workload = workload
        self.samples: list[float] = []

    def probe(self) -> None:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", self.workload],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        self.samples.append(float(proc.stdout.split()[-1]))

    def keep_up(self, fraction: float) -> None:
        """Probe until the share of probes done matches the share of the run done."""
        while len(self.samples) < min(SETUP_PROBES, int(SETUP_PROBES * fraction)):
            self.probe()


def _timed_loop(work, inputs, refs, seconds: float, min_ops: int, tracer=None, probes=None) -> dict:
    """Closed loop, one caller.  An op starts only while the time spent in
    ops and checks plus the median op so far stays within ``seconds``, so a
    run's length hardly depends on how long one op takes."""
    latencies, failures, summaries = [], [], []
    attempted = 0
    busy = 0.0
    while attempted < min_ops or busy + statistics.median(latencies) <= seconds:
        op_input = next(inputs)
        if tracer is not None:
            tracer.begin_op(attempted)
        attempted += 1
        t0 = time.perf_counter()
        try:
            try:
                out = work.run(op_input)
            finally:
                latencies.append(time.perf_counter() - t0)
                if tracer is not None:
                    summaries.append(tracer.end_op())
            problems = work.check(op_input, out, refs)
        except Exception:  # an op that raises is a failed op; the run goes on
            problems = [traceback.format_exc(limit=3)]
        busy += time.perf_counter() - t0
        if problems:
            failures.append({"op": attempted - 1, "problems": problems})
        if probes is not None:
            probes.keep_up(busy / seconds)
    passed = attempted - len(failures)
    return {
        "attempted": attempted,
        "failures": failures,
        "latencies": latencies,
        "ops_per_s": passed / busy,
        "busy_s": busy,
        "summaries": summaries,
    }


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _blas() -> tuple[str, int | None]:
    """BLAS library name and its thread count, asked of the loaded library."""
    import ctypes

    import numpy as np

    cfg = np.__config__.CONFIG["Build Dependencies"]["blas"]
    name = f"{cfg.get('name')} {cfg.get('version')}"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def _environment(seed: int) -> dict:
    import numpy as np
    from qutritsim import kernels

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas, blas_threads = _blas()
    return {
        "git_revision": _git_revision(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "kernels_backend": kernels.backend_name(),
        "qutritsim_env": {k: v for k, v in os.environ.items() if k.startswith("QUTRITSIM_")},
    }


def _end_to_end(spec: list, loop: dict, setup: list[float]) -> dict:
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": loop["ops_per_s"],
        "op_p50_s": statistics.median(loop["latencies"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def _per_layer(spec: list, untraced: dict, traced: dict, span_names: set) -> tuple[dict, list[str]]:
    """Per-op layer metrics: exact counts (which must repeat from op to op)
    and median seconds over the traced ops."""
    summaries = traced["summaries"]
    problems = []
    counts = summaries[0]["counts"]
    for k, s in enumerate(summaries[1:], start=1):
        if s["counts"] != counts:
            diff = sorted(set(s["counts"].items()) ^ set(counts.items()))
            problems.append(f"traced op {k} counts differ from op 0: {diff[:6]}")

    def median_time(key):
        return statistics.median(s["times"].get(key, 0.0) for s in summaries)

    op_s = median_time("op.s")
    special = {
        "trace.op_s": op_s,
        "trace.layer_share": statistics.median(1.0 - s["times"]["op.self_s"] / s["times"]["op.s"] for s in summaries),
        "trace.ops_per_s": traced["ops_per_s"],
        "trace.untraced_ops_per_s": untraced["ops_per_s"],
        "trace.overhead": untraced["ops_per_s"] / traced["ops_per_s"],
        "schedules.NoiseModel.site_kraus.hit_ratio": statistics.median(s["hit_ratio"] for s in summaries),
    }
    metrics = {}
    for m in spec:
        name = m["name"]
        span, _, field = name.rpartition(".")
        if name in special:
            value = special[name]
        elif span in span_names and field in ("s", "self_s"):
            value = median_time(name)
        elif (span in span_names and field == "calls") or name in (KRAUS_OPS, BYTES_COMPUTED) or span == "schedules.items":
            value = counts.get(name, 0)
        else:
            raise ValueError(f"BENCHMARK.json names per-layer metric {name!r}, which no span or counter records")
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics, problems


def _top_self_times(traced: dict, n: int = 5) -> list:
    names = {k[: -len(".self_s")] for s in traced["summaries"] for k in s["times"] if k.endswith(".self_s")}
    ranked = [
        (name, statistics.median(s["times"].get(name + ".self_s", 0.0) for s in traced["summaries"]))
        for name in names
        if name != "op"
    ]
    return sorted(ranked, key=lambda item: -item[1])[:n]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args()

    os.environ.update(BLAS_THREADS)  # before numpy loads, here and in the set-up probes
    if not (SRC / "qutritsim" / "__init__.py").is_file():
        print(f"run from the repository root: no qutritsim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        _setup_probe(args.setup_probe)
        return 0

    import numpy as np
    import qutritsim
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    if not Path(qutritsim.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"qutritsim imported from {qutritsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "refs.json").read_text())
    work = workloads.WORKLOADS[args.workload]()
    work.warm_up()

    details = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    problems = []
    if not args.trace:
        probes = SetupProbes(args.workload)
        loop = _timed_loop(work, work.inputs(np.random.default_rng(args.seed)), refs, args.seconds, 1, probes=probes)
        probes.keep_up(1.0)
        setup = probes.samples
        metrics = _end_to_end(bench["end_to_end"], loop, setup)
        n = len(loop["latencies"])
        details.update(
            op_samples=n,
            op_latencies_s=loop["latencies"],
            op_p90_s=statistics.quantiles(loop["latencies"], n=10)[-1] if n >= P90_MIN_SAMPLES else None,
            setup_samples_s=setup,
        )
        attempted, failures = loop["attempted"], loop["failures"]
    else:
        half = args.seconds / 2.0
        untraced = _timed_loop(work, work.inputs(np.random.default_rng(args.seed), canonical=True), refs, half, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = _timed_loop(
                work, work.inputs(np.random.default_rng(args.seed), canonical=True), refs, half, 2, tracer
            )
        finally:
            tracer.uninstall()
        out_dir = HERE / "traces"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(span_file)
        metrics, problems = _per_layer(bench["per_layer"], untraced, traced, tracer.names)
        details.update(
            span_file=os.path.relpath(span_file, ROOT),
            traced_ops=len(traced["summaries"]),
            untraced_ops=untraced["attempted"],
            top_self_s=_top_self_times(traced),
        )
        attempted = untraced["attempted"] + traced["attempted"]
        failures = untraced["failures"] + traced["failures"]

    details.update(fail_ratio=len(failures) / attempted, failures=failures[:5], check_problems=problems)
    print(json.dumps({"environment": _environment(args.seed), "details": details}))
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
