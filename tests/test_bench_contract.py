"""The benchmark tracer in qsbench/ patches qutritsim names by lookup; a
refactor that deletes or renames one of them must fail here, not in a
traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

# load every module the tracer patches before the snapshot is taken
from qutritsim import channels, core, kernels, readout, schedules, synthesis, teleport, tomography  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "qsbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("qsbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    modules = [m for n, m in sorted(sys.modules.items()) if n == "qutritsim" or n.startswith("qutritsim.")]
    namespaces = modules + [schedules.ScheduleSimulator, schedules.NoiseModel]
    return {id(ns): (ns, dict(vars(ns))) for ns in namespaces}


def test_tracer_installs_and_restores_every_attribute():
    tracer = _load_tracer().Tracer()
    before = _snapshot()
    try:
        tracer.install()
        patched = list(tracer._restore)
        assert patched
        for owner, key, original in patched:
            assert getattr(owner, key) is not original
        # every layer the tracer names was found and wrapped
        wrapped = {(owner, key) for owner, key, _ in patched}
        assert (schedules.NoiseModel, "site_kraus") in wrapped
        assert (schedules.ScheduleSimulator, "item_unitary") in wrapped
        for attr in ("apply_site_kraus", "apply_diag_phases", "confusion_mix"):
            assert (kernels, attr) in wrapped
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, (ns, names) in before.items():
        current = after[key][1]
        assert current.keys() == names.keys(), ns
        for name, value in names.items():
            assert current[name] is value, (ns, name)
