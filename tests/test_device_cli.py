import json

import numpy as np
import pytest

from qutritsim.cli import emit_plot_data, load_envelope, run_cli
from qutritsim.device import ConfigValidationError, bundled_config_path, load_device


class TestDeviceConfig:
    def test_bundled_config_valid(self, device):
        assert device.n == 5
        pair = device.pair(1, 2)
        assert pair.alpha_22 == pytest.approx(2 * np.pi * -743e3)
        assert device.qutrits[0].t1_10 == pytest.approx(70e-6)
        assert device.qutrits[1].t2_ramsey == pytest.approx((13e-6, 10e-6, 6e-6))

    def test_pair_lookup_transposes(self, device):
        fwd = device.pair(1, 2)
        rev = device.pair(2, 1)
        assert rev.alpha_12 == fwd.alpha_21

    def test_confusion_built_from_fidelities(self, device):
        m = device.qutrits[2].confusion
        assert m[0, 0] == pytest.approx(0.97)
        assert np.abs(m.sum(axis=0) - 1.0).max() < 1e-12

    def test_zero_lifetime_reported_with_field_path(self, tmp_path):
        raw = json.loads(bundled_config_path().read_text())
        raw["qutrits"][1]["t1_10_us"] = 0
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ConfigValidationError) as err:
            load_device(p)
        assert any("qutrits[1].t1_10_us" in msg for msg in err.value.problems)

    def test_missing_pair_listed(self, tmp_path):
        raw = json.loads(bundled_config_path().read_text())
        del raw["pairs"]["q2q3"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ConfigValidationError) as err:
            load_device(p)
        assert any("q2q3" in msg for msg in err.value.problems)

    def test_multiple_problems_collected(self, tmp_path):
        raw = json.loads(bundled_config_path().read_text())
        raw["qutrits"][0]["t2_ramsey_01_us"] = -3
        del raw["pairs"]["q4q5"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ConfigValidationError) as err:
            load_device(p)
        assert len(err.value.problems) >= 2

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(ConfigValidationError):
            load_device(tmp_path / "missing.json")

    def test_explicit_confusion_override(self, tmp_path):
        raw = json.loads(bundled_config_path().read_text())
        m = [[0.9, 0.1, 0.0], [0.1, 0.8, 0.2], [0.0, 0.1, 0.8]]
        raw["qutrits"][0]["confusion"] = m
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        device = load_device(p)
        assert np.abs(device.qutrits[0].confusion - np.array(m)).max() == 0.0


class TestCli:
    def test_otoc_command(self, tmp_path, capsys):
        out = tmp_path / "otoc.json"
        assert run_cli(["otoc", "--unitary", "us", "--output", str(out)]) == 0
        envelope = load_envelope(out)
        assert envelope["payload"]["average_otoc"] == pytest.approx(1.0 / 9.0, abs=1e-10)
        assert envelope["schema"] == 1

    def test_teleport_exact_noiseless(self, tmp_path):
        out = tmp_path / "tp.json"
        rc = run_cli(
            ["teleport", "--exact", "--scrambler", "us", "--noise-scale", "0", "--output", str(out)]
        )
        assert rc == 0
        payload = load_envelope(out)["payload"]
        assert payload["f_avg"] == pytest.approx(1.0, abs=1e-10)
        assert len(payload["states"]) == 12

    def test_synth_cphase(self, tmp_path):
        out = tmp_path / "synth.json"
        assert run_cli(["synth-cphase", "--pair", "q1q2", "--output", str(out)]) == 0
        payload = load_envelope(out)["payload"]
        assert payload["phase_residual_rad"] < 1e-9
        assert all(t >= 0 for t in payload["times_ns"])
        assert 0.5 < payload["total_time_us"] < 3.0
        assert 150.0 <= payload["six_segment"]["t_ns"] <= 250.0

    def test_transmon_calc(self, tmp_path):
        out = tmp_path / "tm.json"
        assert run_cli(["transmon-calc", "--ej-over-ec", "73", "--output", str(out)]) == 0
        payload = load_envelope(out)["payload"]
        assert abs(abs(payload["dispersion_ratio_eps2_over_eps1"]) - 46.0) / 46.0 < 0.15

    def test_unknown_command_exits_one(self):
        assert run_cli(["does-not-exist"]) == 1

    def test_bad_config_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run_cli(["otoc"]) == 0  # no config needed
        assert run_cli(["synth-cphase", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("command", [["teleport", "--exact"], ["scramble-qpt", "--exact"]])
    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_noise_scale_fails_parsing(self, command, value, capsys):
        assert run_cli(command + ["--noise-scale", value]) == 1
        assert "--noise-scale" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["teleport", "scramble-qpt"])
    @pytest.mark.parametrize("value", ["0", "-5", "2.5"])
    def test_bad_shot_count_fails_parsing(self, command, value, capsys):
        assert run_cli([command, "--shots", value]) == 1
        assert "--shots" in capsys.readouterr().err

    def test_singular_synthesis_exits_two(self, tmp_path):
        raw = json.loads(bundled_config_path().read_text())
        raw["pairs"]["q1q2"] = {
            "alpha_11_khz": 100,
            "alpha_12_khz": 100,
            "alpha_21_khz": 100,
            "alpha_22_khz": 100,
        }
        cfg = tmp_path / "singular.json"
        cfg.write_text(json.dumps(raw))
        assert run_cli(["synth-cphase", "--pair", "q1q2", "--config", str(cfg)]) == 2

    def test_deterministic_payload(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert (
                run_cli(
                    [
                        "teleport",
                        "--exact",
                        "--noise-scale",
                        "0",
                        "--seed",
                        "7",
                        "--output",
                        str(out),
                    ]
                )
                == 0
            )
        pa = json.dumps(load_envelope(a)["payload"], sort_keys=True)
        pb = json.dumps(load_envelope(b)["payload"], sort_keys=True)
        assert pa == pb

    def test_envelope_round_trip(self, tmp_path):
        out = tmp_path / "otoc.json"
        run_cli(["otoc", "--output", str(out)])
        envelope = load_envelope(out)
        again = json.loads(json.dumps(envelope))
        assert again == envelope

    def test_epr_command(self, tmp_path):
        out = tmp_path / "epr.json"
        assert run_cli(["epr", "--output", str(out)]) == 0
        payload = load_envelope(out)["payload"]
        assert payload["pair_fidelity_isolated"] == pytest.approx(1.0, abs=1e-9)
        assert min(payload["dd"].values()) >= 0.999
        assert payload["no_dd"]["pair23"] < payload["dd"]["pair23"]

    def test_decouple_demo_command(self, tmp_path):
        out = tmp_path / "dd.json"
        assert run_cli(["decouple-demo", "--output", str(out)]) == 0
        payload = load_envelope(out)["payload"]
        assert payload["idle_schmidt_rank"] == 1
        assert payload["parallel_reversed_rank"] == 1
        assert payload["parallel_lockstep_rank"] > 1

    def test_scramble_qpt_noisy(self, tmp_path):
        out = tmp_path / "qpt.json"
        rc = run_cli(
            ["scramble-qpt", "--exact", "--unitary", "us", "--noise-scale", "1", "--output", str(out)]
        )
        assert rc == 0
        payload = load_envelope(out)["payload"]
        assert 0.75 < payload["entanglement_fidelity"] < 0.95
        assert payload["trace_preserving"]

    def test_config_env_var(self, tmp_path, monkeypatch):
        raw = json.loads(bundled_config_path().read_text())
        cfg = tmp_path / "from_env.json"
        cfg.write_text(json.dumps(raw))
        monkeypatch.setenv("QUTRITSIM_DEVICE_CONFIG", str(cfg))
        out = tmp_path / "synth.json"
        assert run_cli(["synth-cphase", "--output", str(out)]) == 0


class TestPlotEmission:
    def _teleport_envelope(self, tmp_path, scrambler="us"):
        out = tmp_path / "tp.json"
        run_cli(
            [
                "teleport",
                "--exact",
                "--scrambler",
                scrambler,
                "--noise-scale",
                "0",
                "--output",
                str(out),
            ]
        )
        return load_envelope(out)

    def test_fig5b_rows(self, tmp_path):
        env = self._teleport_envelope(tmp_path)
        csv_path = tmp_path / "fig5b.csv"
        emit_plot_data(env, "fig5b-bars", csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "state_label,f_psi"
        assert len(lines) == 13
        for line in lines[1:]:
            assert float(line.split(",")[1]) == pytest.approx(1.0, abs=1e-9)

    def test_fig5b_identity_near_third(self, tmp_path):
        env = self._teleport_envelope(tmp_path, scrambler="identity")
        csv_path = tmp_path / "fig5b.csv"
        emit_plot_data(env, "fig5b-bars", csv_path)
        rows = csv_path.read_text().strip().splitlines()[1:]
        for line in rows:
            assert float(line.split(",")[1]) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_fig5c_gellmann_rows(self, tmp_path):
        env = self._teleport_envelope(tmp_path)
        csv_path = tmp_path / "fig5c.csv"
        emit_plot_data(env, "fig5c-gellmann", csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "state_label,lambda_index,coefficient"
        assert len(lines) == 1 + 12 * 9

    def test_fig3_ptm_columns(self, tmp_path):
        out = tmp_path / "qpt.json"
        assert run_cli(["scramble-qpt", "--exact", "--unitary", "us", "--output", str(out)]) == 0
        env = load_envelope(out)
        csv_path = tmp_path / "fig3.csv"
        emit_plot_data(env, "fig3-ptm", csv_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "row_pauli,col_pauli,modulus"
        assert len(lines) == 1 + 80 * 16
        by_col = {}
        for line in lines[1:]:
            _, col, modulus = line.split(",")
            by_col.setdefault(col, []).append(float(modulus))
        for col, values in by_col.items():
            close_to_one = sum(1 for v in values if abs(v - 1.0) < 1e-8)
            assert close_to_one == 1, col

    def test_kind_payload_mismatch(self, tmp_path):
        out = tmp_path / "otoc.json"
        run_cli(["otoc", "--output", str(out)])
        with pytest.raises(ConfigValidationError):
            emit_plot_data(load_envelope(out), "fig5b-bars", tmp_path / "x.csv")
