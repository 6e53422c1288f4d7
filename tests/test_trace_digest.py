"""The bit-identity digest script repeats itself exactly on one run."""

import dataclasses
import importlib.util
from pathlib import Path

from doscontrol import SimTrace

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "trace_digest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("trace_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_config_repeats_exactly(tmp_path):
    script = load_script()
    csv_path = tmp_path / "trace.csv"
    first = script.run(*next(script.grid()), csv_path)
    second = script.run(*next(script.grid()), csv_path)
    assert first == second
    names = [line.split()[1] for line in first]
    assert names == [f.name for f in dataclasses.fields(SimTrace)] + ["csv", "metrics"]
    assert len({line.split()[0] for line in first}) == 1
    assert all(len(line.split()[2]) == 64 for line in first)
