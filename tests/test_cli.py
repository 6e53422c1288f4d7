import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from doscontrol import benchmark, cli, dos, fit_class_params, generate, GeneratorSpec
from doscontrol.cli import main
from doscontrol.simulation import MAX_ROWS

REPO = Path(__file__).resolve().parents[1]
BENCHMARK_CONFIG = str(REPO / "configs" / "benchmark.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def non_normal_overrides():
    """A Hurwitz design (every eigenvalue -0.05) too non-normal to certify."""
    rng = np.random.default_rng(16)
    k = -0.05 * np.eye(10) + 20.0 * np.triu(rng.standard_normal((10, 10)), 1)
    return {
        "plant.A": np.zeros((10, 10)).tolist(),
        "plant.B": np.eye(10).tolist(),
        "controller.K": k.tolist(),
        "sim.x0": [0.1] * 10,
        "sim.horizon": 5.0,
    }


def write_config(tmp_path, **overrides):
    cfg = json.loads(Path(BENCHMARK_CONFIG).read_text())
    for dotted, value in overrides.items():
        node = cfg
        parts = dotted.split(".")
        for key in parts[:-1]:
            node = node.setdefault(key, {})
        if value is None:
            node.pop(parts[-1], None)
        else:
            node[parts[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestBounds:
    def test_benchmark_record(self, capsys):
        code, out, _ = run(capsys, "bounds", BENCHMARK_CONFIG)
        assert code == 0
        record = json.loads(out)
        assert record["format"] == 1
        assert record["mu_A"] == pytest.approx(1.5, abs=1e-12)
        assert record["delta_max"] == pytest.approx(0.1508, abs=2e-4)
        assert record["gamma2"] == pytest.approx(2.1080, abs=2e-3)
        assert record["h_min"] == 50
        assert record["Q"] == pytest.approx(4.978, abs=2e-3)
        # h = 5 sits below the minimal buffer: envelope fields are withheld
        assert record["beta"] is None
        assert record["warnings"]
        assert "omega1" in record["formulas"]

    def test_non_hurwitz_gain_is_infeasible(self, capsys, tmp_path):
        cfg = write_config(tmp_path, **{"controller.K": [[0.0, 0.0], [0.0, 0.0]]})
        code, out, _ = run(capsys, "bounds", cfg)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "StabilityCertificationError"
        assert err["eigenvalue"][0] >= 1.0 - 1e-9

    def test_uncertifiable_lyapunov_solve_is_infeasible(self, capsys, tmp_path):
        cfg = write_config(tmp_path, **non_normal_overrides())
        code, out, err = run(capsys, "bounds", cfg)
        assert code == 2
        assert err == ""
        error = json.loads(out)["error"]
        assert error["type"] == "LyapunovSolveError"
        assert "residual" in error["message"]

    def test_class_at_threshold_is_infeasible(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            **{"dos_class": {"eta": 1.0, "tau_D": 0.1, "kappa": 0.0, "T": 1e18}},
        )
        code, out, _ = run(capsys, "bounds", cfg)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "InfeasibleDoSClassError"
        assert err["rate"] == pytest.approx(1.0)

    def test_malformed_config(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  \"plant\": [,]\n}")
        code, _, err = run(capsys, "bounds", str(bad))
        assert code == 1
        assert "2" in err  # line number of the offending token

    def test_missing_field_named(self, capsys, tmp_path):
        cfg = write_config(tmp_path, **{"network.delta_big": None})
        code, _, err = run(capsys, "bounds", cfg)
        assert code == 1
        assert "network.delta_big" in err

    def test_future_format_rejected(self, capsys, tmp_path):
        cfg = write_config(tmp_path, **{"format": 99})
        code, _, err = run(capsys, "bounds", cfg)
        assert code == 1
        assert "version" in err


class TestDosCommands:
    def test_gen_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code, _, _ = run(
                capsys, "dos", "gen", "--seed", "42", "--horizon", "20",
                "-o", str(target),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gen_verify_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "sig.json"
        code, _, _ = run(
            capsys, "dos", "gen", "--seed", "7", "--horizon", "30",
            "-o", str(out_file),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "dos", "verify", str(out_file),
            "--tau-d", "1.0", "--big-t", "2.0", "--delta-big", "0.1",
        )
        assert code == 0
        record = json.loads(out)
        sig = generate(7, GeneratorSpec(), 30.0)
        eta, kappa = fit_class_params(sig, 1.0, 2.0)
        assert record["eta_min"] == pytest.approx(eta, abs=1e-12)
        assert record["kappa_min"] == pytest.approx(kappa, abs=1e-12)
        assert record["gap_check"]["max_gap_ok"] is True

    def test_verify_synchronized_pulse_train(self, capsys, tmp_path):
        sig_file = tmp_path / "pulses.json"
        sig_file.write_text(
            json.dumps(
                {
                    "horizon": 2.0,
                    "intervals": [[round(0.1 * k, 10), 0.0] for k in range(21)],
                }
            )
        )
        code, out, _ = run(
            capsys, "dos", "verify", str(sig_file),
            "--tau-d", "0.1", "--big-t", "1e18", "--delta-big", "0.1",
        )
        assert code == 2
        record = json.loads(out)
        assert record["error"]["rate"] >= 1.0
        assert record["gap_check"] is None


class TestSim:
    def test_stable_run_writes_outputs(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        metrics = tmp_path / "metrics.json"
        code, out, _ = run(
            capsys, "sim", BENCHMARK_CONFIG,
            "--trace", str(trace), "--metrics", str(metrics),
        )
        assert code == 0
        payload = json.loads(metrics.read_text())
        assert payload["format"] == 1
        assert payload["failure_fraction"] == pytest.approx(0.6946, abs=1e-3)
        assert payload["stable_verdict"] is True
        lines = trace.read_text().splitlines()
        assert lines[0] == "# format: 1"
        assert lines[1].startswith("t,x1,x2,u1,u2,V,")
        assert len(lines) == 2 + 50 * 10 * 10 + 1

    def refused_before_the_run(self, capsys, monkeypatch, tmp_path, flag):
        def never(*args, **kwargs):
            raise AssertionError("simulated with an unwritable output path")

        monkeypatch.setattr(cli, "simulate", never)
        path = tmp_path / "missing" / "out"
        code, out, err = run(capsys, "sim", BENCHMARK_CONFIG, flag, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert str(path) in err
        assert "Traceback" not in err

    def test_trace_into_a_missing_directory(self, capsys, monkeypatch, tmp_path):
        self.refused_before_the_run(capsys, monkeypatch, tmp_path, "--trace")

    def test_metrics_into_a_missing_directory(self, capsys, monkeypatch, tmp_path):
        self.refused_before_the_run(capsys, monkeypatch, tmp_path, "--metrics")

    def test_uncertifiable_design_falls_back_to_the_state_norm(self, capsys,
                                                               tmp_path):
        cfg = write_config(tmp_path, **non_normal_overrides())
        trace = tmp_path / "trace.csv"
        code, out, err = run(capsys, "sim", cfg, "--trace", str(trace))
        assert code == 3
        assert err == ""
        assert json.loads(out)["stable_verdict"] is False
        cells = np.loadtxt(trace, delimiter=",", skiprows=2)
        x, v = cells[:, 1:11], cells[:, 21]
        np.testing.assert_allclose(v, np.sum(x * x, axis=1), rtol=1e-14)

    def test_unbuffered_run_is_unstable(self, capsys):
        code, out, _ = run(capsys, "sim", BENCHMARK_CONFIG, "--h", "1")
        assert code == 3
        assert json.loads(out)["stable_verdict"] is False

    def test_quiet_equilibrium(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            **{
                "dos": {"signal": {"horizon": 50.0, "intervals": []}},
                "noise": {"d_bound": 0.0, "n_bound": 0.0, "seed": 0},
                "sim.x0": [0.0, 0.0],
            },
        )
        code, out, _ = run(capsys, "sim", cfg)
        assert code == 0
        payload = json.loads(out)
        assert payload["max_state_norm"] == 0.0

    def test_mode_override(self, capsys):
        code, out, _ = run(capsys, "sim", BENCHMARK_CONFIG, "--mode", "colocated")
        assert code == 0

    @pytest.mark.parametrize("x0, mode", [
        ([1e300, 1e300], "remote"),      # the norm overflows from row 0 on
        ([1e300, 1e300], "colocated"),
        ([1e307, -1e307], "remote"),     # the norm overflows, the state stays finite
    ])
    def test_state_past_the_float_range_diverges(self, capsys, tmp_path, x0, mode):
        cfg = write_config(tmp_path, **{"sim.x0": x0, "sim.mode": mode})
        metrics = tmp_path / "metrics.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "sim", cfg, "--metrics", str(metrics))
        assert code == 3
        assert err == ""

        def no_constant(name):
            raise AssertionError(f"{name} in the metrics JSON")

        for text in (out, metrics.read_text()):
            payload = json.loads(text, parse_constant=no_constant)
            assert payload["stable_verdict"] is False
            assert payload["max_state_norm"] is None
            assert payload["final_state_norm"] is None
            assert payload["format"] == 1

    # On a run that leaves the float range, the first row whose state is not
    # finite is the one the tick-by-tick recurrence reaches; which later cells
    # read inf and which nan is not specified.
    @pytest.mark.parametrize("horizon, x0, first_bad", [
        (500.0, [1e300, 1e300], 9695),
        (50.0, [1e307, -1e307], 1478),
    ])
    def test_first_non_finite_row_of_a_diverged_run(self, capsys, tmp_path,
                                                      horizon, x0, first_bad):
        cfg = write_config(tmp_path, **{"sim.x0": x0, "sim.horizon": horizon,
                                        "sim.mode": "remote_no_buffer"})
        trace = tmp_path / "trace.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "sim", cfg, "--trace", str(trace))
        assert code == 3 and err == ""
        payload = json.loads(out)
        assert payload["stable_verdict"] is False
        assert payload["max_state_norm"] is None
        assert payload["final_state_norm"] is None
        x = np.loadtxt(trace, delimiter=",", skiprows=2, usecols=(1, 2))
        assert len(x) == round(horizon / 0.1) * 10 + 1
        bad = ~np.all(np.isfinite(x), axis=1)
        assert np.argmax(bad) == first_bad and bad[first_bad:].all()


class TestRepro:
    def test_full_reproduction(self, capsys):
        code, out, _ = run(capsys, "repro")
        assert code == 0
        assert "overall: PASS" in out
        assert "INFO" in out  # the two informational rate rows
        assert "FAIL" not in out.replace("overall: PASS", "")

    def test_failure_fraction_mismatch_has_its_own_row(self, capsys, monkeypatch):
        monkeypatch.setitem(benchmark.REALIZED, "failure_fraction", 0.5)
        code, out, _ = run(capsys, "repro")
        assert code == 3
        assert out.rstrip().endswith("overall: FAIL")
        failing = [ln for ln in out.splitlines()[:-1] if ln.endswith("FAIL")]
        assert len(failing) == 1 and "failure_fraction" in failing[0]

    def test_min_buffer_diff_against_reference(self, capsys, monkeypatch):
        monkeypatch.setattr(benchmark, "REFERENCE_MIN_BUFFER", 53)
        code, out, _ = run(capsys, "repro")
        assert code == 3
        row = next(ln for ln in out.splitlines() if ln.startswith("h_min"))
        assert row.split()[1:] == ["50", "53", "3", "FAIL"]


def run_subprocess(*argv):
    """The CLI in a fresh interpreter, killed if it has not exited in 20 s.

    A hang here grows a list without bound, so the limit stays short.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "doscontrol.cli", *argv],
        capture_output=True, text=True, env=env, timeout=20,
    )


class TestConfigErrors:
    @pytest.mark.parametrize("horizon", [float("inf"), float("nan")])
    def test_non_finite_horizon_bounds_exits(self, tmp_path, horizon):
        # the generated signal used to loop forever on such a horizon
        cfg = write_config(tmp_path, **{"sim.horizon": horizon})
        proc = run_subprocess("bounds", cfg)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "horizon" in proc.stderr

    def test_infinite_horizon_with_explicit_signal(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            **{
                "dos": {"signal": {"horizon": 50.0, "intervals": []}},
                "sim.horizon": float("inf"),
            },
        )
        code, _, err = run(capsys, "sim", cfg)
        assert code == 1
        assert "Traceback" not in err
        assert "horizon" in err

    def test_plant_not_an_object(self, capsys, tmp_path):
        cfg = write_config(tmp_path, plant=5)
        code, _, err = run(capsys, "bounds", cfg)
        assert code == 1
        assert "Traceback" not in err
        assert "plant: expected a JSON object" in err

    @pytest.mark.parametrize("command, field, value", [
        ("bounds", "noise.d_bound", [1]),
        ("sim", "noise.d_bound", [1]),
        ("bounds", "buffer.h", [5]),
        ("sim", "buffer.h", [5]),
        ("bounds", "sim.substeps", [10]),
        ("sim", "sim.substeps", [10]),
        ("sim", "dos.generator.off_range", 5),
        ("sim", "sim.divergence_threshold", "x"),
        ("bounds", "network.b", 2.5),
        ("sim", "network.b", True),
        ("bounds", "network.delta_big", float("nan")),
        ("sim", "buffer.T_c", float("nan")),
    ])
    def test_scalar_of_the_wrong_type(self, capsys, tmp_path, command, field, value):
        cfg = write_config(tmp_path, **{field: value})
        code, _, err = run(capsys, command, cfg)
        assert code == 1
        assert err.startswith(f"config error: {field}: expected")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, overrides, field", [
        ("bounds", {"sim.x0": {}}, "sim.x0"),
        ("sim", {"sim.x0": {}}, "sim.x0"),
        ("sim", {"dos.generator": None, "dos.file": 5}, "dos.file"),
        ("bounds", {"network.b": 0}, "network.b"),
        ("sim", {"network.b": 0}, "network.b"),
        ("bounds", {"network.b": -1}, "network.b"),
        ("sim", {"network.b": -1}, "network.b"),
    ])
    def test_field_of_the_wrong_shape_or_range(self, capsys, tmp_path, command,
                                               overrides, field):
        cfg = write_config(tmp_path, **overrides)
        code, _, err = run(capsys, command, cfg)
        assert code == 1
        assert err.startswith(f"config error: {field}: expected")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["bounds", "sim"])
    def test_buffer_past_the_float_range(self, capsys, tmp_path, command):
        cfg = write_config(tmp_path, **{"buffer.h": 10000})
        code, _, err = run(capsys, command, cfg)
        assert code == 1
        assert err.startswith("error: h=10000 with delta=0.1")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["bounds", "sim"])
    @pytest.mark.parametrize("overrides", [
        {"sim.horizon": 1e9},
        {"sim.substeps": 10**8},
        {"network.b": 10**6, "sim.horizon": 100.0},
    ])
    def test_run_past_the_row_limit(self, capsys, monkeypatch, tmp_path,
                                    command, overrides):
        # refused while the config is read: nothing is generated or simulated
        def never(*args, **kwargs):
            raise AssertionError("called past the row limit")

        monkeypatch.setattr(cli, "generate", never)
        monkeypatch.setattr(cli, "simulate", never)
        cfg = write_config(tmp_path, **overrides)
        code, out, err = run(capsys, command, cfg)
        assert code == 1
        assert out == ""
        assert err.startswith("config error: sim.horizon: ")
        assert f"above the limit of {MAX_ROWS}" in err

    def test_signal_past_the_interval_limit(self, capsys, monkeypatch, tmp_path):
        # ~5e10 mean cycles of 1 ns in 50 s: refused before the first draw
        def never(*args, **kwargs):
            raise AssertionError("drew past the interval limit")

        monkeypatch.setattr(dos.np.random, "default_rng", never)
        cfg = write_config(tmp_path, **{"dos.generator.off_range": [0.0, 1e-9],
                                        "dos.generator.on_range": [0.0, 1e-9]})
        code, out, err = run(capsys, "sim", cfg)
        assert code == 1
        assert err.startswith("config error: dos.generator: horizon 50.0 spans")
        assert f"above the limit of {dos.MAX_INTERVALS} intervals" in err

    def test_integral_float_reads_as_integer(self, capsys, tmp_path):
        cfg = write_config(tmp_path, **{"buffer.h": 5.0, "network.b": 1.0})
        _, out, _ = run(capsys, "bounds", BENCHMARK_CONFIG)
        code, out_float, _ = run(capsys, "bounds", cfg)
        assert code == 0
        assert out_float == out

    def test_only_sim_builds_the_signal(self, capsys, monkeypatch):
        calls = []

        def generate_fails(*args):
            calls.append(args)
            raise RuntimeError("signal generated")

        monkeypatch.setattr(cli, "generate", generate_fails)
        code, _, _ = run(capsys, "bounds", BENCHMARK_CONFIG)
        assert code == 0
        assert calls == []
        with pytest.raises(RuntimeError, match="signal generated"):
            main(["sim", BENCHMARK_CONFIG])
        assert len(calls) == 1

    def test_decay_at_not_a_number(self, capsys, tmp_path):
        cfg = write_config(tmp_path, **{"noise.decay_at": "soon"})
        code, _, err = run(capsys, "sim", cfg)
        assert code == 1
        assert "Traceback" not in err
        assert "decay_at" in err


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "bounds", "/nonexistent/config.json")
        assert code == 1
