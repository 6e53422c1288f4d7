"""Documented refusals, and the branches beside them, that no other test runs.

Each refusal is one row: the call, the error type and its whole message.
"""

import json
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from doscontrol import (
    DesignInputs,
    DoSClassParams,
    DoSSignal,
    GeneratorSpec,
    LtiPlant,
    NoiseSpec,
    SimConfig,
    check_envelope,
    check_gap_bound,
    compute_metrics,
    derive_constants,
    decay_envelope,
    fit_class_params,
    linalg,
    max_sampling_period,
    min_prediction_horizon,
    simulate,
    solve_lyapunov,
    success_gap_bound,
)
from doscontrol.cli import load_config, main

from conftest import BENCH_A, BENCH_B, BENCH_K

REPO = Path(__file__).resolve().parents[1]
PLANT = LtiPlant(A=BENCH_A, B=BENCH_B)
DESIGN = DesignInputs(plant=PLANT, K=BENCH_K)
X0 = np.array([1.0, -1.0]) / np.sqrt(2.0)
CLEAR = DoSSignal(intervals=(), horizon=10.0)
# blocked over the whole run: no attempt gets through
JAMMED = DoSSignal(intervals=((0.0, 10.0),), horizon=10.0)
CLASS = DoSClassParams(eta=1.0, tau_D=10.0, kappa=1.0, T=2.0)


def run(signal=CLEAR, K=BENCH_K, x0=X0, P=None):
    config = SimConfig(delta_big=0.1, horizon=1.0, h=5)
    return simulate(PLANT, K, config, signal, NoiseSpec(), x0, P=P)


def envelope():
    """The bundled design's envelope at h = 50 and Q = 4.978 s, and its
    constants."""
    consts = derive_constants(DESIGN, h=50, delta=0.1)
    return decay_envelope(consts, 4.978, 0.1, 50, 0.1), consts


def delete_horizon():
    del CLEAR.horizon


REFUSALS = {
    "as_matrix 1-D": (lambda: linalg.as_matrix([1.0, 2.0], "K"), ValueError,
                      "K must be 2-D, got 1-D input"),
    "as_matrix empty": (lambda: linalg.as_matrix(np.zeros((0, 2)), "K"), ValueError,
                        "K must have at least one row and one column"),
    "as_matrix non-finite": (lambda: linalg.as_matrix([[1.0, np.nan]], "K"),
                             ValueError, "K has non-finite entries"),
    "non-square Phi": (lambda: solve_lyapunov(np.ones((2, 3)), np.eye(2)), ValueError,
                       "Phi must be square, got shape (2, 3)"),
    "M shape": (lambda: solve_lyapunov(-np.eye(2), np.eye(3)), ValueError,
                "M shape (3, 3) does not match Phi shape (2, 2)"),
    "non-square A": (lambda: LtiPlant(A=np.ones((2, 3)), B=np.ones((2, 1))), ValueError,
                     "A must be square, got shape (2, 3)"),
    "simulate K": (lambda: run(K=np.ones((1, 2))), ValueError,
                   "K must be 2x2, got (1, 2)"),
    "simulate x0": (lambda: run(x0=np.ones(3)), ValueError,
                    "x0 must have 2 entries, got shape (3,)"),
    "simulate P": (lambda: run(P=np.eye(3)), ValueError, "P must be 2x2, got (3, 3)"),
    "envelope without a success": (
        lambda: check_envelope(run(signal=JAMMED), *envelope(), w_inf=0.0),
        ValueError, "trace has no successful transmissions"),
    "envelope w_inf < 0": (lambda: check_envelope(run(), *envelope(), w_inf=-1.0),
                           ValueError, "w_inf must be >= 0, got -1.0"),
    "metrics threshold 0": (lambda: compute_metrics(run(), divergence_threshold=0.0),
                            ValueError, "divergence_threshold must be > 0"),
    "max_sampling_period sigma 0": (lambda: max_sampling_period(0.5, 0.0, 1.0),
                                    ValueError, "sigma must be > 0, got 0.0"),
    "min_prediction_horizon delta 0": (
        lambda: min_prediction_horizon(envelope()[1], 4.978, 0.1, 0.0),
        ValueError, "delta must be > 0, got 0.0"),
    "success_gap_bound delta_big 0": (lambda: success_gap_bound(CLASS, 0.0),
                                      ValueError, "delta_big must be > 0, got 0.0"),
    "success_gap_bound mu 0": (lambda: success_gap_bound(CLASS, 0.1, mu=0),
                               ValueError, "mu must be >= 1, got 0"),
    "fit tau_D 0": (lambda: fit_class_params(CLEAR, 0.0, 2.0), ValueError,
                    "tau_D must be > 0, got 0.0"),
    "fit T 1": (lambda: fit_class_params(CLEAR, 1.0, 1.0), ValueError,
                "T must be > 1, got 1.0"),
    "generator pinned at 0": (
        lambda: GeneratorSpec(off_range=(0.0, 0.0), on_range=(0.0, 0.0)), ValueError,
        "ranges admit no forward progress (both pinned at 0)"),
    "del on a signal": (delete_horizon, FrozenInstanceError,
                        "cannot delete field 'horizon'"),
    "audit past the signal": (lambda: check_gap_bound(CLEAR, 0.1, CLASS, 11.0),
                              ValueError, "horizon 11.0 exceeds signal horizon 10.0"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_a_scalar_is_a_one_by_one_matrix():
    got = linalg.as_matrix(2.5, "K")
    assert got.shape == (1, 1) and got.dtype == float and got[0, 0] == 2.5


def test_dos_gen_writes_stdout_without_output(capsys, tmp_path):
    argv = ["dos", "gen", "--seed", "7", "--horizon", "30"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main([*argv, "-o", str(tmp_path / "sig.json")]) == 0
    assert printed == (tmp_path / "sig.json").read_text()
    assert json.loads(printed)["horizon"] == 30.0


def test_a_valid_divergence_threshold_is_read(tmp_path):
    data = json.loads((REPO / "configs" / "benchmark.json").read_text())
    data["sim"]["divergence_threshold"] = 2.5
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert load_config(str(path)).divergence_threshold == 2.5
