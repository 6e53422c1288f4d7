"""The grid save/compare script: equal saves pass, and each tolerance holds."""

import dataclasses
import functools
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from doscontrol import (
    DerivedConstants, GapBoundVerdict, SimMetrics, SimTrace, generate, trace_to_csv,
)
from doscontrol.dos import successful_transmissions

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "trace_digest.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("trace_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def runs(script, tmp_path_factory):
    """The first two grid runs, recorded once: [(label, {name: array})]."""
    csv_path = tmp_path_factory.mktemp("csv") / "trace.csv"
    grid = script.grid()
    return [(label, script.record(config, sig, noise, csv_path))
            for label, config, sig, noise in (next(grid), next(grid))]


def compare(script, tmp_path, a, b):
    script.write(tmp_path / "a.npz", a)
    script.write(tmp_path / "b.npz", b)
    return script.compare(tmp_path / "a.npz", tmp_path / "b.npz")


def changed(runs, name, edit):
    """runs with the second run's field replaced by edit(field)."""
    (label_a, a), (label_b, b) = runs
    return [(label_a, a), (label_b, {**b, name: edit(b[name].copy())})]


def test_trace_names_are_every_public_name(script):
    """Fields and row columns built on first read: all saved, none twice."""
    fields = [f.name for f in dataclasses.fields(SimTrace) if not f.name.startswith("_")]
    columns = [name for name, value in vars(SimTrace).items()
               if isinstance(value, functools.cached_property)]
    assert len(fields) == 6 and len(columns) == 8
    assert sorted(script.TRACE_NAMES) == sorted(fields + columns)


def test_one_config_repeats_exactly(script, runs, tmp_path):
    (label, arrays), _ = runs
    assert list(arrays) == (
        list(script.TRACE_NAMES)
        + [f.name for f in dataclasses.fields(SimMetrics)]
        + ["csv_head", "csv_flags", "csv_t", "csv_x", "csv_u", "csv_V", "csv_per_cell"]
        + ["dos_onsets", "dos_ends"]
        + [f"{prefix}_{f.name}" for prefix in ("gap", "gap_third", "gap_short")
           for f in dataclasses.fields(GapBoundVerdict)]
    )
    _, _, (seed, spec, sig_horizon), _ = next(script.grid())
    sig = generate(seed, spec, sig_horizon)
    assert arrays["dos_onsets"].tobytes() == sig.onsets.tobytes()
    assert arrays["dos_ends"].tobytes() == sig.ends.tobytes()
    assert arrays["gap_z0_ok"].dtype == bool and arrays["gap_z0"].dtype == float
    # the other audits: a period of 1/3 s, and a horizon 0.05 s short
    for prefix, delta, horizon in (("gap_third", 1 / 3, sig_horizon),
                                   ("gap_short", 0.1, sig_horizon - 0.05)):
        z = successful_transmissions(sig, delta, horizon).successes
        assert arrays[f"{prefix}_z0"] == z[0]
        assert arrays[f"{prefix}_max_gap"] == np.max(np.diff(z))
    assert bytes(arrays["csv_head"]).startswith(b"# format: 1\n")
    assert arrays["csv_per_cell"].dtype == bool and arrays["csv_per_cell"]
    # the CSV cells read back as the trace's floats, to their printed digits
    assert arrays["csv_t"].tolist() == [float(f"{t:.12g}") for t in arrays["times"]]
    for name in ("x", "u", "V"):
        np.testing.assert_allclose(arrays[f"csv_{name}"], arrays[name],
                                   rtol=1e-15, atol=0.0)
    again = script.record(*list(script.grid())[0][1:], tmp_path / "trace.csv")
    problems, worst = compare(script, tmp_path, runs, [(label, again), runs[1]])
    assert problems == []
    assert set(worst.values()) == {0.0}


def bump_row(rel):
    def edit(x):
        x[-1] += rel * np.max(np.linalg.norm(x, axis=1))
        return x
    return edit


@pytest.mark.parametrize("name, edit, fails", [
    ("x", bump_row(1e-14), False),
    ("x", bump_row(1e-10), True),
    ("V", lambda v: v * (1 + 1e-13), False),
    ("V", lambda v: v * (1 + 1e-11), True),
    ("prediction", lambda p: np.where(np.arange(len(p))[:, None] == 3, np.nan, p), True),
    ("max_state_norm", lambda f: f * (1 + 1e-11), True),
    # measured against max_state_norm, here ||x0|| = 1
    ("final_state_norm", lambda f: f + 1e-13, False),
    ("final_state_norm", lambda f: f + 1e-11, True),
    ("buffer_depth", lambda d: d + (np.arange(len(d)) == 5), True),
    ("times", lambda t: t * (1 + 1e-16) + 1e-300, True),
    ("csv_flags", lambda f: f[::-1], True),
    ("csv_t", lambda t: t + 1e-12 * (np.arange(len(t)) == 4), True),
    ("csv_x", bump_row(1e-14), False),
    ("csv_x", bump_row(1e-10), True),
    ("csv_u", bump_row(1e-14), False),
    ("csv_u", bump_row(1e-10), True),
    ("csv_V", lambda v: v * (1 + 1e-13), False),
    ("csv_V", lambda v: v * (1 + 1e-11), True),
    ("dos_onsets", lambda o: np.nextafter(o, np.inf), True),
    ("dos_ends", lambda e: np.where(np.arange(len(e)) == 2, np.nextafter(e, 0), e), True),
    ("gap_max_gap", lambda g: np.nextafter(g, np.inf), True),
    ("gap_z0_ok", lambda ok: ~ok, True),
    ("gap_third_max_gap", lambda g: np.nextafter(g, 0.0), True),
    ("gap_short_z0", lambda z: np.nextafter(z, np.inf), True),
])
def test_tolerance_per_field(script, runs, tmp_path, name, edit, fails):
    problems, worst = compare(script, tmp_path, runs, changed(runs, name, edit))
    assert bool(problems) == fails
    assert all(f"/{name}: deviation" in line for line in problems)
    assert worst[name] > 0.0


@pytest.fixture(scope="module")
def chains(script):
    """The bundled design's chains, h = 1 and 5: [(label, {name: array})]."""
    grid = script.bounds_grid()
    return [(label, script.record_bounds(design, h))
            for label, design, h in (next(grid), next(grid))]


def test_bounds_grid_covers_each_design_and_h(script, chains):
    labels = [label for label, _, _ in script.bounds_grid()]
    assert labels == [
        f"bounds:{design}:h={h}"
        for design in ("bench", "lqr:n=2", "lqr:n=8", "lqr:n=16", "lqr:n=24")
        for h in (1, 5, 50)
    ]
    (_, arrays), _ = chains
    assert list(arrays) == [f.name for f in dataclasses.fields(DerivedConstants)]
    assert arrays["P"].shape == (2, 2)
    assert arrays["alpha1"] == pytest.approx(0.2779, abs=1e-3)


def test_bounds_repeat_exactly(script, chains, tmp_path):
    again = [(label, script.record_bounds(design, h))
             for label, design, h in list(script.bounds_grid())[:2]]
    problems, worst = compare(script, tmp_path, chains, again)
    assert problems == []
    assert set(worst) == {f"bounds:{name}" for name in chains[0][1]}
    assert set(worst.values()) == {0.0}


@pytest.mark.parametrize("name, edit, fails", [
    ("P", lambda p: p * (1 + 1e-13), False),
    ("P", lambda p: p + 1e-11 * np.max(np.abs(p)) * np.eye(len(p)), True),
    ("gamma6", lambda g: g * (1 + 1e-13), False),
    ("gamma6", lambda g: g * (1 + 1e-11), True),
])
def test_bounds_tolerance(script, chains, tmp_path, name, edit, fails):
    problems, worst = compare(script, tmp_path, chains, changed(chains, name, edit))
    assert bool(problems) == fails
    assert all(f"/{name}: deviation" in line for line in problems)
    assert worst[f"bounds:{name}"] > 0.0


@pytest.mark.parametrize("flags", [(True, False), (False, True), (False, False)])
def test_csv_bytes_must_match_the_per_cell_writer_in_both_saves(script, runs,
                                                                tmp_path, flags):
    saves = [changed(runs, "csv_per_cell", lambda _: np.asarray(flag)) for flag in flags]
    problems, _ = compare(script, tmp_path, *saves)
    label = runs[1][0]
    assert problems == [f"{label}/csv_per_cell: CSV bytes differ from the per-cell writer's"]


def test_a_wrong_last_digit_fails(script, runs, tmp_path, monkeypatch):
    def last_digit_off(trace, path):
        trace_to_csv(trace, path)
        data = path.read_bytes()
        cell = b"%.16g" % trace.x[0, 0]
        path.write_bytes(data.replace(cell, cell[:-1] + b"%d" % ((int(cell[-1:]) + 1) % 10), 1))

    monkeypatch.setattr(script, "trace_to_csv", last_digit_off)
    (label, _), _ = runs
    again = script.record(*next(script.grid())[1:], tmp_path / "trace.csv")
    problems, worst = compare(script, tmp_path, runs, [(label, again), runs[1]])
    assert problems == [f"{label}/csv_per_cell: CSV bytes differ from the per-cell writer's"]
    assert 0.0 < worst["csv_x"] <= script.TOL


def test_run_in_one_save_only(script, runs, tmp_path):
    problems, _ = compare(script, tmp_path, runs, runs[:1])
    assert len(problems) == len(runs[1][1])
    assert all(line.startswith(runs[1][0]) for line in problems)


@pytest.fixture(scope="module")
def verdicts(script):
    """Every construction verdict: [(label, {name: array})]."""
    return [(label, script.record_verdict(build)) for label, build in script.verdict_grid()]


def test_verdict_grid_covers_each_coupling_and_scale(script, verdicts):
    couplings = [1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6]
    assert [label for label, _ in verdicts] == (
        [f"verdict:hidden:{kind}:coupling={c:g}" for kind in ("real", "pair")
         for c in couplings]
        + [f"verdict:slow:{kind}:coupling={c:g}" for kind in ("real", "pair")
           for c in (1e-3, 3e-3, 1e-2)]
        + [f"verdict:phi:{kind}:scale={scale}" for kind in ("real", "pair")
           for scale in (0.999, 1.0, 1.001)]
    )
    by_label = dict(verdicts)
    # the rank test refuses the weakest couplings and passes the strongest
    for kind in ("real", "pair"):
        refused = [str(by_label[f"verdict:hidden:{kind}:coupling={c:g}"].get("message"))
                   .endswith("fails the rank test") for c in couplings]
        assert refused[0] and not refused[-1]
    # every slow hidden mode passes the rank test and certifies a full chain
    chain = [f.name for f in dataclasses.fields(DerivedConstants)]
    slow = [arrays for label, arrays in verdicts if label.startswith("verdict:slow:")]
    assert len(slow) == 6 and all(list(arrays) == chain for arrays in slow)
    # Phi's eigenvalue is refused at and right of -HURWITZ_TOL, and named
    for kind, imag in (("real", 0.0), ("pair", 1.0)):
        for scale in (0.999, 1.0):
            record = by_label[f"verdict:phi:{kind}:scale={scale}"]
            assert str(record["error"]) == "StabilityCertificationError"
            assert record["eigenvalue"] == complex(-1e-9 * scale, imag)
        record = by_label[f"verdict:phi:{kind}:scale=1.001"]
        assert list(record) == [f.name for f in dataclasses.fields(DerivedConstants)]


def test_verdicts_repeat_exactly(script, verdicts, tmp_path):
    again = [(label, script.record_verdict(build)) for label, build in script.verdict_grid()]
    problems, worst = compare(script, tmp_path, verdicts, again)
    assert problems == []
    assert {"verdict:error", "verdict:message", "verdict:eigenvalue",
            "verdict:P"} <= set(worst)
    assert set(worst.values()) == {0.0}


@pytest.mark.parametrize("label, name, edit", [
    ("verdict:phi:real:scale=1.0", "eigenvalue", lambda z: z + 1e-30j),
    ("verdict:hidden:real:coupling=1e-15", "message",
     lambda m: np.asarray(str(m).replace("0.3", "0.4"))),
    ("verdict:phi:pair:scale=1.001", "gamma6", lambda g: g * (1 + 1e-15)),
])
def test_verdict_fields_are_held_exact(script, verdicts, tmp_path, label, name, edit):
    edited = [(lb, {**arrays, name: edit(arrays[name])} if lb == label else arrays)
              for lb, arrays in verdicts]
    problems, _ = compare(script, tmp_path, verdicts, edited)
    assert problems == [f"{label}/{name}: deviation inf"]


def test_a_flipped_verdict_fails(script, verdicts, tmp_path):
    by_label = dict(verdicts)
    accepted = by_label["verdict:phi:real:scale=1.001"]
    edited = [(lb, accepted if lb == "verdict:phi:real:scale=1.0" else arrays)
              for lb, arrays in verdicts]
    problems, _ = compare(script, tmp_path, verdicts, edited)
    assert problems and all(line.startswith("verdict:phi:real:scale=1.0/")
                            and ": only in" in line for line in problems)


@pytest.fixture(scope="module")
def outputs(script, tmp_path_factory):
    """Every saved CLI output: [(label, {name: array})]."""
    tmp = tmp_path_factory.mktemp("cli")
    return [(label, script.record_cli(argv)) for label, argv in script.cli_grid(tmp)]


def test_cli_grid_covers_repro_and_each_h(outputs):
    assert [label for label, _ in outputs] == (
        ["cli:repro"] + [f"cli:bounds:h={h}" for h in (1, 5, 50, 60)])
    by_label = dict(outputs)
    assert all(list(arrays) == ["stdout", "exit"] and arrays["exit"] == 0
               for arrays in by_label.values())
    assert bytes(by_label["cli:repro"]["stdout"]).endswith(b"overall: PASS\n")
    for h in (1, 5, 50, 60):
        record = json.loads(bytes(by_label[f"cli:bounds:h={h}"]["stdout"]))
        assert record["h_delta"] == pytest.approx(0.1 * h)
        # the envelope is given from h_min = 50 on
        assert (record["beta"] is None) == (h < 50)


def test_cli_outputs_repeat_exactly(script, outputs, tmp_path):
    again = [(label, script.record_cli(argv))
             for label, argv in script.cli_grid(tmp_path)]
    problems, worst = compare(script, tmp_path, outputs, again)
    assert problems == []
    assert worst == {"cli:stdout": 0.0, "cli:exit": 0.0}


@pytest.mark.parametrize("label, name, edit", [
    ("cli:repro", "stdout", lambda out: np.concatenate([out, np.frombuffer(b" ", np.uint8)])),
    ("cli:bounds:h=50", "stdout", lambda out: np.where(np.arange(len(out)) == 9, out ^ 1, out)),
    ("cli:bounds:h=1", "exit", lambda code: np.asarray(2)),
])
def test_cli_outputs_are_held_exact(script, outputs, tmp_path, label, name, edit):
    edited = [(lb, {**arrays, name: edit(arrays[name])} if lb == label else arrays)
              for lb, arrays in outputs]
    problems, _ = compare(script, tmp_path, outputs, edited)
    assert problems == [f"{label}/{name}: deviation inf"]
