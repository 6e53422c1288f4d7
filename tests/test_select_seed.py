"""The committed benchmark seed passes the selection script's own filters."""

import importlib.util
from pathlib import Path

from doscontrol import benchmark

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "select_benchmark_seed.py"


def load_script():
    spec = importlib.util.spec_from_file_location("select_benchmark_seed", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_seed_passes_windows_and_verdicts():
    script = load_script()
    found = script.check_seed(benchmark.DOS_SEED)
    assert found is not None
    (_, n, xi, rate, fail, eta, kappa), metrics = found
    assert n == benchmark.REALIZED["n_transitions"]
    assert xi == benchmark.REALIZED["dos_time"]
    assert fail == benchmark.REALIZED["failure_fraction"]
    assert {name: m.stable_verdict for name, m in metrics.items()} == benchmark.EXPECTED_STABLE
