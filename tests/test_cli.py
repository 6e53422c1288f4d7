import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


# a Hurwitz A with no feedback at all: K = 0, or B = 0, gives gamma2 = 0
ZERO_GAMMA2 = pytest.mark.parametrize("field", ["controller.K", "plant.B"])


def zero_gamma2_config(tmp_path, field):
    return write_config(tmp_path, **{"plant.A": [[-1.0, 0.0], [0.0, -2.0]],
                                     field: [[0.0, 0.0], [0.0, 0.0]]})


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

    def test_overflowing_eigenvalue_is_reported_as_null(self, capsys, tmp_path):
        # A + B K is finite, but its eigenvalue 2e308 is not
        cfg = write_config(tmp_path, **{"controller.K": [[1e308, 1e308], [1e308, 1e308]]})
        code, out, _ = run(capsys, "bounds", cfg)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "StabilityCertificationError"
        assert err["eigenvalue"][0] is None

    def test_uncertifiable_lyapunov_solve_is_infeasible(self, capsys, tmp_path):
        cfg = write_config(tmp_path, **non_normal_overrides())
        code, out, err = run(capsys, "bounds", cfg)
        assert code == 2
        assert err == ""
        error = json.loads(out)["error"]
        assert error["type"] == "LyapunovSolveError"
        assert "residual" in error["message"]

    @ZERO_GAMMA2
    def test_zero_gamma2_is_infeasible(self, capsys, tmp_path, field):
        code, out, err = run(capsys, "bounds", zero_gamma2_config(tmp_path, field))
        assert code == 2
        assert err == ""
        error = json.loads(out)["error"]
        assert error["type"] == "SigmaInfeasibleError"
        assert "gamma2 = ||2 P B K|| = 0" in error["message"]

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

    def test_class_rate_past_the_float_range(self, capsys, tmp_path):
        cfg = write_config(tmp_path, **{"dos_class.tau_D": 5e-324})
        code, out, _ = run(capsys, "bounds", cfg)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "InfeasibleDoSClassError"
        assert err["rate"] is None

    @pytest.mark.parametrize("field, q", [("dos_class.eta", 4.366768923854234e+307),
                                          ("dos_class.kappa", None)])
    def test_minimal_buffer_past_the_float_range(self, capsys, tmp_path, field, q):
        # what the chain cannot give is null, with its reason; the rest stands
        cfg = write_config(tmp_path, **{field: 1e308})
        code, out, err = run(capsys, "bounds", cfg)
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert record["Q"] == q
        assert record["h_min"] is record["beta"] is record["lambda"] is None
        assert record["omega1"] == pytest.approx(0.5558849507572442)
        reasons = record["warnings"]
        if q is None:  # kappa = 1e308: Q and gap_rhs leave the range too
            assert reasons[:2] == ["Q = inf is past the float range",
                                   "Q=inf puts the minimal buffer past the float range"]
            assert record["gap_rhs"] is None
        else:
            assert reasons[0] == (
                "Q=4.36677e+307 puts the minimal buffer past the float range")

    def test_malformed_config(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  \"plant\": [,]\n}")
        code, _, err = run(capsys, "bounds", str(bad))
        assert code == 1
        assert "2" in err  # line number of the offending token

    def test_config_nested_past_the_parser(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text('{"plant": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run(capsys, "bounds", str(deep))
        assert code == 1
        assert err == f"config error: {deep}: invalid JSON: nested too deeply\n"

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

    def test_verify_refuses_a_grid_past_the_limit(self, capsys, tmp_path):
        # 3e10 attempts: refused before the grid is built, not a hang
        sig_file = tmp_path / "sig.json"
        run(capsys, "dos", "gen", "--seed", "7", "--horizon", "30", "-o", str(sig_file))
        code, out, err = run(
            capsys, "dos", "verify", str(sig_file),
            "--tau-d", "1.28", "--big-t", "1.44", "--delta-big", "1e-9",
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: an attempt grid over 30.0 s in periods of 1e-09 s is 3e+10 "
            f"attempts, above the limit of {dos.MAX_ATTEMPTS}\n"
        )

    def test_verify_refuses_a_tau_d_past_the_float_range(self, capsys, tmp_path):
        sig_file = tmp_path / "sig.json"
        run(capsys, "dos", "gen", "--seed", "42", "--horizon", "50",
            "-o", str(sig_file))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "dos", "verify", str(sig_file),
                "--tau-d", "1e-320", "--big-t", "1.44", "--delta-big", "0.1",
            )
        assert (code, out) == (1, "")
        assert err == ("error: tau_D must leave horizon / tau_D finite, "
                       "got 50.0 / 1e-320\n")

    def test_verify_refuses_a_rate_past_the_float_range(self, capsys, tmp_path):
        # horizon / tau_D stays finite, delta_big / tau_D does not
        sig_file = tmp_path / "sig.json"
        run(capsys, "dos", "gen", "--seed", "42", "--horizon", "50",
            "-o", str(sig_file))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "dos", "verify", str(sig_file),
                "--tau-d", "3e-307", "--big-t", "1.44", "--delta-big", "100",
            )
        assert (code, out) == (1, "")
        assert err == ("error: --delta-big / --tau-d must be finite, "
                       "got 100.0 / 3e-307\n")

    @pytest.mark.parametrize("signal, field, value", [
        ({"horizon": 50.0, "intervals": [["1", True]]}, "intervals[0][0]", "'1'"),
        ({"horizon": 50.0, "intervals": [[1.0, 0.5], [2.0, True]]},
         "intervals[1][1]", "True"),
        ({"horizon": "50", "intervals": []}, "horizon", "'50'"),
        ({"horizon": True, "intervals": [[1.0, 0.5]]}, "horizon", "True"),
    ])
    def test_verify_refuses_a_signal_of_non_numbers(self, capsys, tmp_path, signal,
                                                    field, value):
        sig_file = tmp_path / "sig.json"
        sig_file.write_text(json.dumps({"format": 1, **signal}))
        code, out, err = run(
            capsys, "dos", "verify", str(sig_file),
            "--tau-d", "3", "--big-t", "2", "--delta-big", "0.1",
        )
        assert (code, out) == (1, "")
        assert err == (f"config error: {sig_file}: {field}: expected a number, "
                       f"got {value}\n")

    @pytest.mark.parametrize("flag, value", [
        ("--horizon", "inf"), ("--off-lo", "nan"), ("--off-hi", "inf"),
        ("--on-lo", "-inf"), ("--on-hi", "inf"), ("--tau-d", "nan"),
        ("--tau-d", "inf"), ("--big-t", "inf"), ("--delta-big", "nan"),
        ("--delta-big", "x"),
    ])
    def test_non_finite_flag_is_a_usage_error(self, capsys, tmp_path, flag, value):
        sig_file = tmp_path / "sig.json"
        sig_file.write_text(json.dumps({"horizon": 5.0, "intervals": [[1.0, 0.5]]}))
        argv = {
            "gen": ["dos", "gen", "--seed", "1", "--horizon", "5"],
            "verify": ["dos", "verify", str(sig_file), "--tau-d", "1.28",
                       "--big-t", "1.44", "--delta-big", "0.1"],
        }["verify" if flag in ("--tau-d", "--big-t", "--delta-big") else "gen"]
        argv.append(f"{flag}={value}")  # the last of a repeated flag wins
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == (f"usage error: argument {flag}: expected a finite "
                       f"number, got {value!r}\n")

    def test_failed_dump_writes_nothing(self):
        stream = io.StringIO()
        with pytest.raises(ValueError, match="Out of range float"):
            cli._dump({"a": 1.0, "b": float("inf")}, stream)
        assert stream.getvalue() == ""


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

    def refused_before_the_run(self, capsys, monkeypatch, tmp_path, flag,
                               path=None):
        def never(*args, **kwargs):
            raise AssertionError("simulated with an unwritable output path")

        monkeypatch.setattr(cli, "simulate", never)
        path = path or tmp_path / "missing" / "out"
        code, out, err = run(capsys, "sim", BENCHMARK_CONFIG, flag, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert str(path) in err
        assert "Traceback" not in err
        return err

    def test_trace_into_a_missing_directory(self, capsys, monkeypatch, tmp_path):
        self.refused_before_the_run(capsys, monkeypatch, tmp_path, "--trace")

    def test_metrics_into_a_missing_directory(self, capsys, monkeypatch, tmp_path):
        self.refused_before_the_run(capsys, monkeypatch, tmp_path, "--metrics")

    @pytest.mark.parametrize("flag", ["--trace", "--metrics"])
    def test_output_path_that_is_a_directory(self, capsys, monkeypatch, tmp_path,
                                             flag):
        err = self.refused_before_the_run(capsys, monkeypatch, tmp_path, flag,
                                          path=tmp_path)
        assert os.strerror(errno.EISDIR) in err

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

    @ZERO_GAMMA2
    def test_zero_gamma2_falls_back_to_the_state_norm(self, capsys, tmp_path, field):
        trace = tmp_path / "trace.csv"
        code, out, err = run(capsys, "sim", zero_gamma2_config(tmp_path, field),
                             "--trace", str(trace))
        assert code == 0
        assert err == ""
        assert json.loads(out)["stable_verdict"] is True
        cells = np.loadtxt(trace, delimiter=",", skiprows=2)
        x, v = cells[:, 1:3], cells[:, 5]
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

    def test_envelope_is_built_for_the_run_h(self, capsys, tmp_path):
        # h = 60 >= h_min certifies an envelope, which the run at h = 60
        # keeps; the run at --h 1 diverges, and no envelope exists for it
        cfg = write_config(tmp_path, **{"buffer.h": 60})
        code, out, _ = run(capsys, "sim", cfg)
        assert code == 0 and json.loads(out)["envelope_ok"] is True
        code, out, _ = run(capsys, "sim", cfg, "--h", "1")
        assert code == 3 and json.loads(out)["envelope_ok"] is None

    def test_a_run_with_no_success_has_no_envelope_verdict(self, capsys, tmp_path):
        # h = 60 certifies an envelope, but a signal that jams every attempt
        # leaves no success to check it at
        jammed = {"horizon": 51.0, "intervals": [[0.0, 51.0]]}
        cfg = write_config(tmp_path, **{"buffer.h": 60, "dos": {"signal": jammed}})
        code, out, _ = run(capsys, "sim", cfg)
        payload = json.loads(out)
        assert code == 3 and payload["failure_fraction"] == 1.0
        assert payload["envelope_ok"] is None

    @pytest.mark.parametrize("field", ["dos_class.eta", "dos_class.kappa"])
    def test_gap_bound_past_the_float_range_has_no_envelope(
        self, capsys, tmp_path, field
    ):
        # kappa = 1e308 gives Q = inf, whose beta is NaN; eta = 1e308 gives
        # a finite Q with beta < 0.  Neither is an envelope that failed.
        cfg = write_config(tmp_path, **{field: 1e308})
        code, out, _ = run(capsys, "sim", cfg)
        assert code == 0 and json.loads(out)["envelope_ok"] is None

    def test_overshoot_past_the_float_range_has_no_envelope(self, capsys, tmp_path):
        # kappa = 10 gives Q = 44.96 and h_min = 437, and lambda =
        # e^((omega1 + omega2) Q) = e^788 overflows
        cfg = write_config(tmp_path, **{"dos_class.kappa": 10.0, "buffer.h": 437})
        code, out, _ = run(capsys, "sim", cfg)
        assert code == 0 and json.loads(out)["envelope_ok"] is None
        code, out, err = run(capsys, "bounds", cfg)
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert record["h_min"] == 437 and record["gap_rhs"] > 0.0
        assert record["beta"] is record["lambda"] is record["L"] is None
        [warning] = record["warnings"]
        assert warning.startswith("Q=44.9594 ") and "lambda = inf" in warning

    @pytest.mark.parametrize("overrides, flags, message", [
        ({}, ["--h", "0"], "h must be an integer >= 1, got 0"),
        ({}, ["--mode", "remote_no_buffer"],
         "mode must be one of ('colocated', 'remote'), got 'remote_no_buffer'"),
        ({}, ["--seed", "-3"], "seed must be an integer >= 0, got -3"),
        ({"buffer.h": 10, "buffer.T_c": 0.5}, ["--h", "4"],
         "T_c=0.5 consumes 5 of 4 packet entries"),
    ])
    def test_flags_pass_the_checks_of_the_file(self, capsys, monkeypatch, tmp_path,
                                               overrides, flags, message):
        monkeypatch.setattr(cli, "simulate", None)  # refused before the run
        cfg = write_config(tmp_path, **overrides)
        code, out, err = run(capsys, "sim", cfg, *flags)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_a_flag_does_not_mend_the_file(self, capsys, tmp_path):
        # T_c = 0.5 s needs h > 5: the file at h = 5 is refused, --h 10 or not
        cfg = write_config(tmp_path, **{"buffer.T_c": 0.5})
        code, out, err = run(capsys, "sim", cfg, "--h", "10")
        assert (code, out) == (1, "")
        assert err == "config error: sim: T_c=0.5 consumes 5 of 5 packet entries\n"

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
                                        "buffer.h": 1})
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


class TestBundledConfig:
    def test_config_and_module_describe_one_experiment(self):
        cfg = cli.load_config(BENCHMARK_CONFIG)
        assert np.array_equal(cfg.plant.A, benchmark.A)
        assert np.array_equal(cfg.plant.B, benchmark.B)
        assert np.array_equal(cfg.K, benchmark.K)
        assert cfg.design_inputs().sigma_fraction == benchmark.design().sigma_fraction
        # delta_big, b = 1, h = 5 and HORIZON
        assert cfg.run == benchmark.scenario_config("remote", 5)
        assert cfg.run.delta == benchmark.DELTA
        gen = json.loads(Path(BENCHMARK_CONFIG).read_text())["dos"]["generator"]
        assert gen["seed"] == benchmark.DOS_SEED
        assert GeneratorSpec(off_range=tuple(gen["off_range"]),
                             on_range=tuple(gen["on_range"])) == benchmark.GENERATOR
        assert cfg.dos_class == benchmark.REFERENCE_CLASS and cfg.mu == 1
        assert cfg.noise == benchmark.NOISE
        # The file holds the correctly rounded 1/sqrt(2); X0 divides by the
        # rounded sqrt(2) and lands one ulp below it.  The file is the
        # benchmark's input, so neither side is changed.
        ulp = np.spacing(np.abs(benchmark.X0))
        assert np.all(np.abs(cfg.x0 - benchmark.X0) <= ulp)


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
        ("bounds", "format", True),
        ("sim", "format", True),
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
        ("bounds", {"dos_class.mu": 0}, "dos_class.mu"),
        ("sim", {"dos_class.mu": 0}, "dos_class.mu"),
        ("bounds", {"sim.mode": 5}, "sim.mode"),
        ("bounds", {"dos.file": "sig.json"}, "dos"),
        ("sim", {"dos.signal": {"horizon": 50.0, "intervals": []}}, "dos"),
        ("bounds", {"dos": {}}, "dos"),
        ("sim", {"sim.x0": [0.1, 0.2, 0.3]}, "sim.x0"),
        ("bounds", {"plant.A": [["1", "1"], ["0", True]]}, "plant.A[0][0]"),
        ("sim", {"plant.A": [["1", "1"], ["0", True]]}, "plant.A[0][0]"),
        ("bounds", {"plant.A": [[1.0, 1.0], [0.0, True]]}, "plant.A[1][1]"),
        ("sim", {"plant.A": [[1.0, 1.0], [0.0, True]]}, "plant.A[1][1]"),
        ("bounds", {"controller.K": [[-2.0, "0"], [0.0, -2.0]]}, "controller.K[0][1]"),
        ("sim", {"controller.K": [[-2.0, "0"], [0.0, -2.0]]}, "controller.K[0][1]"),
    ])
    def test_field_of_the_wrong_shape_or_range(self, capsys, tmp_path, command,
                                               overrides, field):
        cfg = write_config(tmp_path, **overrides)
        code, _, err = run(capsys, command, cfg)
        assert code == 1
        assert err.startswith(f"config error: {field}: expected")
        assert "Traceback" not in err

    @pytest.mark.parametrize("overrides, message", [
        ({"sim.horizon": 0.05}, "sim: horizon 0.05 shorter than one period 0.1"),
        ({"buffer.T_c": 0.5}, "sim: T_c=0.5 consumes 5 of 5 packet entries"),
        ({"buffer.T_c": -1}, "sim: T_c must be finite and >= 0 in periods, got -1.0"),
        ({"network.delta_big": 0}, "sim: delta_big must be finite and > 0, got 0.0"),
        ({"sim.mode": "remote_no_buffer"},
         "sim.mode: expected one of ('colocated', 'remote'), got 'remote_no_buffer'"),
        ({"noise.seed": -1}, "noise.seed: expected an integer >= 0, got -1"),
        ({"dos.generator.seed": -1},
         "dos.generator.seed: expected an integer >= 0, got -1"),
        ({"sim.horizon": 50.05},
         "sim: horizon 50.05 is not a whole number of periods 0.1"),
        ({"network.delta_big": 3},
         "sim: horizon 50.0 is not a whole number of periods 3.0"),
        ({"sim.divergence_threshold": 0},
         "sim.divergence_threshold: expected a number > 0, got 0"),
        ({"sim.divergence_threshold": -1},
         "sim.divergence_threshold: expected a number > 0, got -1"),
    ])
    def test_bounds_and_sim_refuse_the_same_files(self, capsys, tmp_path,
                                                  overrides, message):
        cfg = write_config(tmp_path, **overrides)
        for command in ("bounds", "sim"):
            code, out, err = run(capsys, command, cfg)
            assert (code, out, err) == (1, "", f"config error: {message}\n"), command

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
        assert err.startswith("config error: sim: ")
        assert f"above the limit of {MAX_ROWS}" in err

    @pytest.mark.parametrize("command", ["bounds", "sim"])
    @pytest.mark.parametrize("substeps", [1581, 5000])
    def test_noise_map_past_the_limit(self, capsys, monkeypatch, tmp_path, command,
                                      substeps):
        # 50 s at 5000 sub-steps is 2.5e6 rows, inside the row limit, but its
        # noise map would hold 1e8 entries: refused while the config is read
        def never(*args, **kwargs):
            raise AssertionError("called past the noise map limit")

        monkeypatch.setattr(cli, "generate", never)
        monkeypatch.setattr(cli, "simulate", never)
        cfg = write_config(tmp_path, **{"sim.substeps": substeps})
        code, out, err = run(capsys, command, cfg)
        assert (code, out) == (1, "")
        assert err.startswith(f"config error: sim.substeps: substeps {substeps} give "
                              "a plant of 2 states a noise map of ")
        assert err.endswith(f"above the limit of {MAX_ROWS}\n")

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

    @pytest.mark.parametrize("command", ["bounds", "sim"])
    @pytest.mark.parametrize("field", [
        "extra", "sim.substep", "buffer.hh", "dos.generator.offrange",
        "dos_class.Mu",
    ])
    def test_unknown_field(self, capsys, tmp_path, command, field):
        cfg = write_config(tmp_path, **{field: 1})
        code, out, err = run(capsys, command, cfg)
        assert code == 1
        assert out == ""
        assert err == f"config error: {field}: unknown field\n"

    @pytest.mark.parametrize("command", ["bounds", "sim"])
    @pytest.mark.parametrize("field, value, message", [
        ("plant.A", "x", "config error: plant.A: not a numeric matrix"),
        ("plant.A", 10**400, "config error: plant.A: not a numeric matrix"),
        ("plant.B", [[1.0, 0.0], [0.0, 0.0]], "config error: plant: (A, B) is not"),
        ("controller.K", [[1.0]], "config error: controller: K must be 2x2"),
        ("controller.sigma_fraction", 2, "config error: controller: sigma_fraction"),
        ("noise.d_bound", -1, "config error: noise: d_bound"),
        ("noise.n_bound", 1e308, "config error: noise: n_bound"),  # 2x overflows
        ("dos_class.T", 0.5, "config error: dos_class: T must be > 1"),
        ("dos.generator.on_range", [2, 1], "config error: dos.generator: on_range"),
    ])
    def test_constructor_error_named_once(self, capsys, tmp_path, command, field,
                                          value, message):
        cfg = write_config(tmp_path, **{field: value})
        code, out, err = run(capsys, command, cfg)
        assert code == 1
        assert err.startswith(message)
        assert err.count(field.split(".")[0]) == 1

    @pytest.mark.parametrize("intervals", [
        5, [5], [[1.0, 2.0, 3.0]], [{"a": 1}], [["1", True]], [[1.0, True]],
    ])
    def test_malformed_signal_intervals(self, capsys, tmp_path, intervals):
        cfg = write_config(
            tmp_path, dos={"signal": {"horizon": 50.0, "intervals": intervals}}
        )
        code, out, err = run(capsys, "sim", cfg)
        assert code == 1
        assert out == ""
        assert err.startswith("config error: dos.signal: ")
        assert run(capsys, "bounds", cfg)[0] == 0  # bounds never builds it

    def test_signal_file_of_non_numbers(self, capsys, tmp_path):
        sig_file = tmp_path / "sig.json"
        sig_file.write_text(json.dumps({"horizon": 50.0, "intervals": [["1", True]]}))
        cfg = write_config(tmp_path, dos={"file": "sig.json"})
        code, out, err = run(capsys, "sim", cfg)
        assert (code, out) == (1, "")
        assert err == (f"config error: {sig_file}: intervals[0][0]: expected a "
                       "number, got '1'\n")

    def test_decay_at_not_a_number(self, capsys, tmp_path):
        cfg = write_config(tmp_path, **{"noise.decay_at": "soon"})
        code, _, err = run(capsys, "sim", cfg)
        assert code == 1
        assert "Traceback" not in err
        assert "decay_at" in err


def schema_fields(section=cli.SCHEMA, prefix=()):
    """(path, reader) of every field and section in the config table."""
    for key, (reader, _) in section.items():
        yield prefix + (key,), reader
        if isinstance(reader, dict):
            yield from schema_fields(reader, prefix + (key,))


def leaf_paths(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaf_paths(value, f"{prefix}{key}.")
        else:
            yield prefix + key


class TestSchemaTable:
    def readme(self):
        return (REPO / "README.md").read_text()

    def test_readme_block_lists_the_table(self):
        text = self.readme()
        block = text.split("### Config schema (format 1)")[1]
        block = block.split("```jsonc")[1].split("```")[0]
        example = json.loads(re.sub(r"//.*", "", block).replace("...", ""))
        table = {".".join(path) for path, reader in schema_fields()
                 if not isinstance(reader, dict)}
        assert set(leaf_paths(example)) == table

    def test_readme_lists_the_integer_fields(self):
        sentence = re.search(r"The integer fields are (.*?);", self.readme(), re.S)
        listed = re.findall(r"`([\w.]+)`", sentence.group(1))
        table = [".".join(path) for path, reader in schema_fields()
                 if reader in (cli._integer, cli._count)]
        assert sorted(listed) == sorted(table)


FUZZ_PATHS = [path for path, _ in schema_fields()]
FUZZ_VALUES = [
    None, "x", True, [], {}, [[1.0]], [1.0, 2.0],
    -1, 0, 0.5, 2.5, 3, 1e-300, 5e-324, 1e300, -1e300, 1e308, 10**400,
]


def mutated_config(path, mutation, value, h=5):
    """The bundled config at buffer.h = h with one field changed; see
    test_config_fuzz."""
    cfg = json.loads(Path(BENCHMARK_CONFIG).read_text())
    cfg["buffer"]["h"] = h
    parent = cfg
    for key in path[:-1]:
        node = parent.get(key)
        parent[key] = node = node if isinstance(node, dict) else {}
        parent = node
    key = path[-1]
    if mutation == "replace":
        parent[key] = value
    elif mutation == "element":  # the first number inside a list value
        node = parent.get(key)
        if not isinstance(node, list) or not node:
            parent[key] = value
        else:
            while isinstance(node[0], list) and node[0]:
                node = node[0]
            node[0] = value
    elif mutation == "missing":
        parent.pop(key, None)
    elif mutation == "unknown":
        parent["zz_" + key] = parent.get(key, 1)
    elif mutation == "nest":
        parent[key] = {key: parent.get(key, value)}
    elif mutation == "hoist" and len(path) > 1:
        grand = cfg
        for step in path[:-2]:
            grand = grand[step]
        grand[key] = parent.pop(key, value)
    return cfg


class TestConfigFuzz:
    """Each mutation of one field of the bundled config ends in an exit code.

    Outside the dos section, sim refuses a file only as bounds does, and
    on a remote run with a class, sim has no envelope verdict exactly where
    bounds has no beta or the run no success to check it at.  The drawn
    numbers keep any run the mutation leaves valid short: none makes a
    horizon, a period or a generator range that passes the row and interval
    limits and still takes long.
    """

    # at h = 5 bounds gives no beta; at h = 60 it gives one
    @pytest.mark.parametrize("h", [5, 60])
    @settings(max_examples=200, deadline=timedelta(seconds=5), derandomize=True,
              database=None)
    @given(
        path=st.sampled_from(FUZZ_PATHS),
        mutation=st.sampled_from(
            ["replace", "element", "missing", "unknown", "nest", "hoist"]
        ),
        value=st.sampled_from(FUZZ_VALUES),
    )
    def test_config_fuzz(self, h, path, mutation, value):
        cfg = mutated_config(path, mutation, value, h)
        results, printed = {}, {}
        with tempfile.TemporaryDirectory() as tmp:
            config_path = os.path.join(tmp, "config.json")
            with open(config_path, "w") as fh:
                json.dump(cfg, fh)
            for command in ("bounds", "sim"):
                out, err = io.StringIO(), io.StringIO()
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        code = main([command, config_path])
                assert code in (0, 1, 2, 3), (command, err.getvalue())
                assert "Traceback" not in err.getvalue()
                if mutation == "unknown":
                    name = ".".join(path[:-1] + ("zz_" + path[-1],))
                    assert (code, err.getvalue()) == (
                        1, f"config error: {name}: unknown field\n"
                    )
                results[command] = code, err.getvalue()
                printed[command] = out.getvalue()
        # only sim builds the signal, so only there may sim refuse alone
        if path[0] != "dos" and results["sim"][0] == 1:
            assert results["bounds"] == results["sim"]
        if path[0] != "dos" and results["bounds"][0] == results["sim"][0] == 0:
            parsed = cli.ExperimentConfig(cfg)
            if parsed.run.mode == "remote" and parsed.dos_class is not None:
                bounds, sim = json.loads(printed["bounds"]), json.loads(printed["sim"])
                no_envelope = bounds["beta"] is None or sim["failure_fraction"] == 1
                assert (sim["envelope_ok"] is None) == no_envelope


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "bounds", "/nonexistent/config.json")
        assert code == 1


class TestOneParserPerProcess:
    def test_commands_in_one_process_match_fresh_ones(self, capsys):
        # a usage error, then bounds, then sim, through the one parser
        commands = [
            ("bounds",),
            ("bounds", BENCHMARK_CONFIG),
            ("sim", BENCHMARK_CONFIG, "--h", "50", "--seed", "7"),
        ]
        cli.build_parser.cache_clear()
        in_process = [run(capsys, *argv) for argv in commands]
        assert cli.build_parser.cache_info().misses == 1
        fresh = [run_subprocess(*argv) for argv in commands]
        assert in_process == [(p.returncode, p.stdout, p.stderr) for p in fresh]
        assert [code for code, _, _ in in_process] == [1, 0, 0]
