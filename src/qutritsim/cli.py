"""Command-line workbench for the simulator.

Each subcommand runs one experiment, prints a one-line summary, and writes
a JSON result envelope (request echo, toolkit version, wall-clock
duration, command payload).  Payloads are deterministic for a fixed
request and seed.  Exit codes: 0 success, 1 validation or usage error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import QuditIndexing, QuditOperator, gell_mann, operator_schmidt_rank
from .channels import ChannelConstructionError
from .device import ConfigValidationError, DeviceConfig, load_device
from .scrambling import (
    average_otoc,
    csum_matrix,
    otoc_bound_from_fidelity,
    scrambler_unitary,
)
from .schedules import simulate_unitary
from .synthesis import (
    SynthesisError,
    build_four_segment_schedule,
    controlled_phase_phases,
    dd_epr_prep_schedule,
    epr_prep_schedule,
    idle_decoupling_schedule,
    parallel_pair_schedule,
    simulated_pair_phases,
    six_segment_optimal_time,
    solve_four_segment,
)
from .teleport import (
    ScramblerSpec,
    average_teleportation_fidelity,
    compiled_scrambler_channel,
    run_design_set,
)
from .tomography import (
    TomographyError,
    process_fidelity,
    average_gate_fidelity,
    process_tomography,
    ptm_restriction,
)
from .transmon import TransmonParams, charge_dispersion, relative_anharmonicity
from .core import DensityState, partial_trace

CONFIG_ENV = "QUTRITSIM_DEVICE_CONFIG"

_UNITARIES = {
    "us": scrambler_unitary,
    "csum": lambda: csum_matrix(True),
    "identity": lambda: QuditOperator(np.eye(9, dtype=complex), QuditIndexing(3, 2)),
}


def _complex_matrix_payload(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]


def _write_envelope(args, payload: dict, started: float) -> dict:
    envelope = {
        "schema": 1,
        "toolkit": "qutritsim",
        "version": __version__,
        "request": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "duration_s": time.monotonic() - started,
        "payload": payload,
    }
    if args.output:
        path = Path(args.output)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(envelope, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return envelope


def load_envelope(path) -> dict:
    return json.loads(Path(path).read_text())


def _device(args) -> DeviceConfig:
    path = args.config or os.environ.get(CONFIG_ENV)
    return load_device(path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_epr(args) -> dict:
    device = _device(args)
    couplings = device.coupling_map()
    epr = np.zeros(9, dtype=complex)
    epr[[0, 4, 8]] = 1.0 / np.sqrt(3.0)

    schedule = epr_prep_schedule(control=1, target=2)
    u = simulate_unitary(schedule, couplings={}).matrix
    isolated = float(abs(np.vdot(epr, u[:, 0])) ** 2)

    payload = {"pair_fidelity_isolated": isolated}
    for dd in (True, False):
        sched = dd_epr_prep_schedule(device=device if dd else None, dd=dd)
        from .schedules import simulate_density

        rho0 = np.zeros((243, 243), dtype=complex)
        rho0[0, 0] = 1.0
        rho = simulate_density(sched, rho0, couplings=couplings, background_pairs=couplings)
        fids = {}
        for name, keep in (("pair23", [2, 3]), ("pair45", [4, 5])):
            red = partial_trace(rho, keep, 5, 3)
            fids[name] = float(np.real(epr.conj() @ red @ epr))
        payload["dd" if dd else "no_dd"] = fids
    return payload


def _cmd_otoc(args) -> dict:
    u = _UNITARIES[args.unitary]()
    value = average_otoc(u)
    return {"unitary": args.unitary, "average_otoc": value}


def _cmd_teleport(args) -> dict:
    device = _device(args)
    spec = ScramblerSpec(
        "maximally_scrambling" if args.scrambler == "us" else "identity_control"
    )
    shots = None if args.exact else args.shots
    outcomes = run_design_set(spec, device, args.noise_scale, shots, args.seed)
    f_avg = average_teleportation_fidelity(outcomes)
    payload = {
        "scrambler": args.scrambler,
        "noise_scale": args.noise_scale,
        "shots": shots,
        "f_avg": f_avg,
        "otoc_bound": otoc_bound_from_fidelity(f_avg) if f_avg > 0.25 else None,
        "states": [
            {
                "label": o.label,
                "herald_prob": o.herald_probability,
                "f_psi": o.fidelity,
                "rho_out": _complex_matrix_payload(o.rho_out.matrix),
            }
            for o in outcomes
        ],
    }
    if args.noise_scale > 0 and f_avg <= 0.5:
        payload["shortfall"] = _attribute_shortfall(device, spec, args, f_avg)
    return payload


def _attribute_shortfall(device, spec, args, f_avg) -> dict:
    """Rank the two decoherence channels by how much fidelity each costs."""
    contributions = {}
    for name in ("amplitude_damping", "dephasing"):
        modified = _single_channel_device(device, keep=name)
        outcomes = run_design_set(spec, modified, args.noise_scale, None, args.seed)
        contributions[name] = 1.0 - average_teleportation_fidelity(outcomes)
    dominant = max(contributions, key=contributions.get)
    return {
        "classical_limit": 0.5,
        "f_avg": f_avg,
        "fidelity_loss_by_channel": contributions,
        "dominant_channel": dominant,
    }


def _single_channel_device(device: DeviceConfig, keep: str) -> DeviceConfig:
    off = 1e6  # seconds; effectively disables a decay channel
    qutrits = []
    for q in device.qutrits:
        if keep == "amplitude_damping":
            qutrits.append(
                dataclasses.replace(q, t2_ramsey=(off, off, off), t2_echo=(off, off, off))
            )
        else:
            qutrits.append(dataclasses.replace(q, t1_10=off, t1_21=off))
    return DeviceConfig(tuple(qutrits), device.pairs, device.name)


def _cmd_synth_cphase(args) -> dict:
    device = _device(args)
    pair = _parse_pair(args.pair, device.n)
    coeffs = device.pair(*pair)
    times = solve_four_segment(coeffs, controlled_phase_phases())
    schedule = build_four_segment_schedule((1, 2), times)
    simulated = simulated_pair_phases(schedule, coeffs)
    target = controlled_phase_phases()
    residual = float(
        np.abs(np.angle(np.exp(1j * (simulated - target)))).max()
    )
    t_opt, dist = six_segment_optimal_time(coeffs)
    return {
        "pair": args.pair,
        "times_ns": [t * 1e9 for t in times],
        "total_time_us": sum(times) * 1e6,
        "phase_residual_rad": residual,
        "six_segment": {"t_ns": t_opt * 1e9, "local_diagonal_distance": dist},
    }


def _parse_pair(text: str, n: int) -> tuple[int, int]:
    import re

    m = re.match(r"^q(\d+)q(\d+)$", text)
    if not m:
        raise ConfigValidationError([f"--pair must look like q1q2, got {text!r}"])
    i, j = int(m.group(1)), int(m.group(2))
    if not (1 <= i <= n and 1 <= j <= n):
        raise ConfigValidationError([f"--pair {text} out of range for {n} qutrits"])
    return i, j


def _cmd_decouple_demo(args) -> dict:
    device = _device(args)
    couplings = {
        (1, 2): device.pair(1, 2),
        (2, 3): device.pair(2, 3),
        (3, 4): device.pair(3, 4),
    }
    idle = idle_decoupling_schedule(375e-9, pair=(1, 2))
    idle_rank = operator_schmidt_rank(
        simulate_unitary(idle, {(1, 2): device.pair(2, 3)}), [1], 2
    )
    payload = {"idle_schmidt_rank": idle_rank}
    for reverse in (True, False):
        sched = parallel_pair_schedule(192e-9, reverse_order=reverse)
        u = simulate_unitary(sched, couplings)
        rank = operator_schmidt_rank(u, [1, 2], 4)
        payload["parallel_reversed_rank" if reverse else "parallel_lockstep_rank"] = rank
    return payload


def _cmd_scramble_qpt(args) -> dict:
    device = _device(args)
    name = {"us": "maximally_scrambling", "identity": "identity_control"}.get(args.unitary)
    ideal = _UNITARIES[args.unitary]()
    if args.noise_scale > 0 and name is not None:
        channel = compiled_scrambler_channel(ScramblerSpec(name), device, args.noise_scale)
    else:
        channel = lambda rho: DensityState(  # noqa: E731
            ideal.matrix @ rho.matrix @ ideal.matrix.conj().T, rho.indexing, validate=False
        )
    shots = None if args.exact else args.shots
    ptm = process_tomography(channel, n=2, shots=shots, seed=args.seed)
    fe = process_fidelity(ptm, ideal)
    payload = {
        "unitary": args.unitary,
        "noise_scale": args.noise_scale,
        "entanglement_fidelity": fe,
        "average_gate_fidelity": average_gate_fidelity(ptm, ideal),
        "trace_preserving": bool(ptm.is_trace_preserving()),
        "ptm_modulus": [[float(abs(x)) for x in row] for row in ptm.matrix],
        "labels": [str(lab) for lab in ptm.labels],
    }
    return payload


def _cmd_transmon_calc(args) -> dict:
    params = TransmonParams(e_j=args.ej_over_ec * args.ec, e_c=args.ec)
    eps = [charge_dispersion(m, params) for m in (0, 1, 2)]
    return {
        "ej_over_ec": args.ej_over_ec,
        "ec": args.ec,
        "charge_dispersion": eps,
        "dispersion_ratio_eps2_over_eps1": eps[2] / eps[1],
        "relative_anharmonicity": relative_anharmonicity(params),
    }


# ---------------------------------------------------------------------------
# plot-data emission
# ---------------------------------------------------------------------------


def emit_plot_data(envelope: dict, kind: str, path) -> None:
    """Write headered CSV extracts of an envelope's payload."""
    payload = envelope["payload"]
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        if kind == "fig5b-bars":
            _require(payload, "states", kind)
            writer.writerow(["state_label", "f_psi"])
            for s in payload["states"]:
                writer.writerow([s["label"], repr(s["f_psi"])])
        elif kind == "fig5c-gellmann":
            _require(payload, "states", kind)
            writer.writerow(["state_label", "lambda_index", "coefficient"])
            lams = [np.eye(3) / np.sqrt(3.0)] + [gell_mann(k).matrix for k in range(1, 9)]
            for s in payload["states"]:
                rho = np.array([[complex(re, im) for re, im in row] for row in s["rho_out"]])
                for k, lam in enumerate(lams):
                    coeff = float(np.real(np.trace(lam.conj().T @ rho)))
                    writer.writerow([s["label"], k, repr(coeff)])
        elif kind == "fig3-ptm":
            _require(payload, "ptm_modulus", kind)
            from .core import all_pauli_labels
            from .tomography import ProcessMatrix

            labels = all_pauli_labels(2)
            mod = np.array(payload["ptm_modulus"])
            proc = ProcessMatrix(mod.astype(complex), tuple(labels))
            block, rows, cols = ptm_restriction(proc)
            writer.writerow(["row_pauli", "col_pauli", "modulus"])
            for i, rl in enumerate(rows):
                for j, cl in enumerate(cols):
                    writer.writerow([str(rl), str(cl), repr(float(abs(block[i, j])))])
        else:
            raise ConfigValidationError([f"unknown plot kind {kind!r}"])
    os.replace(tmp, path)


def _require(payload: dict, key: str, kind: str) -> None:
    if key not in payload:
        raise ConfigValidationError([f"payload has no {key!r}; wrong envelope for {kind}"])


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _noise_scale(text: str) -> float:
    """argparse type: a finite, non-negative noise scale."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text!r}")
    return value


def _shot_count(text: str) -> int:
    """argparse type: a positive integer number of shots."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qutritsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", default=None, help=f"device config path (or ${CONFIG_ENV})")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", default=None, help="write the result envelope here")
        p.add_argument("--emit-plot", default=None, choices=["fig5b-bars", "fig5c-gellmann", "fig3-ptm"])
        p.add_argument("--plot-output", default=None)

    p = sub.add_parser("epr", help="entangled-pair preparation fidelities")
    common(p)
    p.set_defaults(func=_cmd_epr)

    p = sub.add_parser("otoc", help="average out-of-time-ordered correlator")
    p.add_argument("--unitary", choices=sorted(_UNITARIES), default="us")
    common(p, config=False)
    p.set_defaults(func=_cmd_otoc)

    p = sub.add_parser("teleport", help="five-qutrit teleportation experiment")
    p.add_argument("--scrambler", choices=["us", "identity"], default="us")
    p.add_argument("--exact", action="store_true", help="exact heralded states (no sampling)")
    p.add_argument("--shots", type=_shot_count, default=10000)
    p.add_argument("--noise-scale", type=_noise_scale, default=0.0)
    common(p)
    p.set_defaults(func=_cmd_teleport)

    p = sub.add_parser("synth-cphase", help="four-segment controlled-phase synthesis")
    p.add_argument("--pair", default="q1q2")
    common(p)
    p.set_defaults(func=_cmd_synth_cphase)

    p = sub.add_parser("decouple-demo", help="decoupling Schmidt-rank demonstrations")
    common(p)
    p.set_defaults(func=_cmd_decouple_demo)

    p = sub.add_parser("scramble-qpt", help="process tomography of the scrambler")
    p.add_argument("--unitary", choices=sorted(_UNITARIES), default="us")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--shots", type=_shot_count, default=10000)
    p.add_argument("--noise-scale", type=_noise_scale, default=0.0)
    common(p)
    p.set_defaults(func=_cmd_scramble_qpt)

    p = sub.add_parser("transmon-calc", help="charge dispersion and anharmonicity")
    p.add_argument("--ej-over-ec", type=float, default=73.0)
    p.add_argument("--ec", type=float, default=1.0, help="charging energy (output units)")
    common(p, config=False)
    p.set_defaults(func=_cmd_transmon_calc)
    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    started = time.monotonic()
    try:
        payload = args.func(args)
        envelope = _write_envelope(args, payload, started)
        if args.emit_plot:
            if not args.plot_output:
                raise ConfigValidationError(["--emit-plot requires --plot-output"])
            emit_plot_data(envelope, args.emit_plot, args.plot_output)
    except (ConfigValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        SynthesisError,
        ChannelConstructionError,
        TomographyError,
        np.linalg.LinAlgError,
        ArithmeticError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    summary = {
        k: v
        for k, v in payload.items()
        if isinstance(v, (int, float, str)) and k != "labels"
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
