"""Record the benchmark's output references into refs.json.

The references in the repository were recorded on the code the benchmark
was defined against; rerunning this script on later code would make the
output checks compare that code with itself.  Run from the repository root:

    python3 qsbench/record_refs.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402
from qutritsim import load_device, scrambling, synthesis, teleport, tomography  # noqa: E402


def main() -> None:
    device = load_device()
    spec = teleport.ScramblerSpec("maximally_scrambling")

    outcomes = teleport.run_design_set(spec, device, noise_scale=1.0)
    exact = {
        "fidelity": {o.label: o.fidelity for o in outcomes},
        "herald": {o.label: o.herald_probability for o in outcomes},
        "design_average": teleport.average_teleportation_fidelity(outcomes),
    }

    channel = teleport.compiled_scrambler_channel(spec, device, 1.0)
    ptm = tomography.process_tomography(channel, n=2)
    fe = tomography.process_fidelity(ptm, scrambling.scrambler_unitary())

    synth = {}
    for pair in ((1, 2), (3, 4)):
        c = device.pair(*pair)
        t_opt, dist = synthesis.six_segment_optimal_time(c)
        times = synthesis.solve_four_segment(c, synthesis.controlled_phase_phases())
        synth[f"{pair[0]},{pair[1]}"] = {
            "six_segment_time": t_opt,
            "six_segment_distance": dist,
            "four_segment_times": list(times),
        }

    refs = {
        "numpy": np.__version__,
        "teleport_exact_noisy": exact,
        "qpt_exact_entanglement_fidelity": fe,
        "synth_search": synth,
    }
    out = Path(__file__).resolve().parent / "refs.json"
    out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
