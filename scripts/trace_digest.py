#!/usr/bin/env python3
"""Save every simulation output over a fixed grid of runs; compare two saves.

Each run is one closed loop of the bundled two-state plant on a 20 s
horizon.  The grid crosses the modes (co-located; remote with h = 1, 5 and
50; remote without buffer), b = 1, 2, 3, computation delays T_c = 0, 0.15,
0.25 and 0.4 s (0.4 s puts skip = h - 1 at h = 5, b = 1, so a packet is
delivered straight into the hold), three generator specs and noise that
never decays or decays at 5 or 10 s; the sub-step count cycles through 4,
7 and 10 and the signal horizon through the run's horizon and 1 s more.
Combinations that SimConfig rejects (a computation delay that needs more
buffered ticks than the mode holds) are left out, which leaves 333 runs.
Then each mode runs once on a 60 s horizon at b = 1 (600 ticks, so the
run crosses the edge of simulate's first 512-tick solve block), with the
bench spec, T_c = 0.4 s where the mode holds more than one entry and 0
elsewhere: 338 runs in all.

Beside the runs it saves the bounds layer: every derive_constants output
(P and each scalar) at h = 1, 5 and 50 and delta = 0.1 s, for the bundled
design and for seeded random LQR designs of 2, 8 and 24 states.

    PYTHONPATH=<checkout A>/src python3 scripts/trace_digest.py save a.npz
    PYTHONPATH=<checkout B>/src python3 scripts/trace_digest.py save b.npz
    PYTHONPATH=src python3 scripts/trace_digest.py compare a.npz b.npz

``save`` writes, per run, every SimTrace field, every metric, the CSV's
first two lines and flag columns, and its t, x, u and V cells parsed back to
float (csv_t, csv_x, csv_u, csv_V) to one .npz, as entries "<run>/<name>".
``compare`` holds exact the flags, times, csv_t, z, buffer_depth, the
scalar SimTrace fields, failure_fraction, max_gap, the verdicts and the CSV
lines it keeps.  It holds x, u, prediction and V, and their CSV cells, row
by row within TOL times the running maximum row norm (NaN positions exact),
and the two state norms within TOL times max_state_norm, the running maximum
at the last row.  It holds each derive_constants output within TOL times the
larger absolute entry of the two saves.  It prints the largest scaled
deviation per field, then every mismatch, including a run or field that
only one save has, and exits 1 on any mismatch.
"""

import argparse
import dataclasses
import itertools
import os
import sys
import tempfile
import zipfile

import numpy as np
import scipy.linalg

from doscontrol import (
    DesignInputs,
    GeneratorSpec,
    LtiPlant,
    NoiseSpec,
    SimConfig,
    benchmark,
    compute_metrics,
    derive_constants,
    generate,
    simulate,
    trace_to_csv,
)

HORIZON = 20.0
LONG_HORIZON = 60.0
MODES = (("colocated", 1), ("remote", 1), ("remote", 5), ("remote", 50),
         ("remote_no_buffer", 1))
B_VALUES = (1, 2, 3)
T_C_VALUES = (0.0, 0.15, 0.25, 0.4)
SPECS = {
    "bench": benchmark.GENERATOR,
    "light": GeneratorSpec(off_range=(0.8, 2.0), on_range=(0.05, 0.3)),
    "pulses": GeneratorSpec(off_range=(0.05, 0.4), on_range=(0.0, 0.05)),
}
DECAY_AT = (None, 5.0, 10.0)
SUBSTEPS = (4, 7, 10)
SIGNAL_EXTRA = (0.0, 1.0)
P = np.array([[2.0, 0.3], [0.3, 1.0]])
BOUNDS_H = (1, 5, 50)
LQR_SIZES = (2, 8, 24)
BOUNDS = "bounds:"  # label prefix of the derive_constants entries

TOL = 1e-12
ROWS = ("x", "u", "prediction", "V", "csv_x", "csv_u", "csv_V")
NORMS = ("max_state_norm", "final_state_norm")


def grid():
    """Yield (label, SimConfig, signal args, noise) per accepted run."""
    runs = [(HORIZON, *combo) for combo in itertools.product(
        MODES, B_VALUES, T_C_VALUES, SPECS, DECAY_AT)]
    runs += [(LONG_HORIZON, (mode, h), 1, 0.0 if h == 1 else 0.4, "bench", None)
             for mode, h in MODES]
    for i, (horizon, (mode, h), b, t_c, spec, decay_at) in enumerate(runs):
        substeps = SUBSTEPS[i % len(SUBSTEPS)]
        try:
            config = SimConfig(delta_big=0.1, horizon=horizon, b=b, h=h,
                               substeps=substeps, mode=mode, T_c=t_c)
        except ValueError:
            continue
        sig_horizon = horizon + SIGNAL_EXTRA[i % len(SIGNAL_EXTRA)]
        label = (f"{i:03d}:{mode}:h={h}:b={b}:T_c={t_c}:substeps={substeps}"
                 f":{spec}:decay_at={decay_at}:signal={sig_horizon}")
        if horizon != HORIZON:
            label += f":horizon={horizon}"
        noise = NoiseSpec(d_bound=0.01, n_bound=0.01, seed=1000 + i,
                          decay_at=decay_at)
        yield label, config, (i, SPECS[spec], sig_horizon), noise


def lqr_design(n) -> DesignInputs:
    """Gaussian (A, B) with n states and n // 2 inputs, and its LQR gain."""
    rng = np.random.default_rng(n)
    m = max(1, n // 2)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, m))
    k = -b.T @ scipy.linalg.solve_continuous_are(a, b, np.eye(n), np.eye(m))
    return DesignInputs(plant=LtiPlant(A=a, B=b), K=k)


def bounds_grid():
    """Yield (label, DesignInputs, h) per saved constant chain."""
    designs = [("bench", benchmark.design())]
    designs += [(f"lqr:n={n}", lqr_design(n)) for n in LQR_SIZES]
    for name, design in designs:
        for h in BOUNDS_H:
            yield f"{BOUNDS}{name}:h={h}", design, h


def record_bounds(design, h) -> dict:
    """Every derive_constants output for one design and h, by name."""
    consts = derive_constants(design, h, benchmark.DELTA)
    return {f.name: np.asarray(getattr(consts, f.name))
            for f in dataclasses.fields(consts)}


def as_array(value) -> np.ndarray:
    """A field as an array that np.load reads back; None becomes NaN."""
    return np.asarray(np.nan if value is None else value)


def record(config, signal_args, noise, csv_path) -> dict:
    """Every output of one run, by name."""
    seed, spec, sig_horizon = signal_args
    sig = generate(seed, spec, sig_horizon)
    trace = simulate(benchmark.plant(), benchmark.K, config, sig, noise,
                     benchmark.X0, P=P)
    out = {f.name: as_array(getattr(trace, f.name)) for f in dataclasses.fields(trace)}
    metrics = compute_metrics(trace)
    out.update({f.name: as_array(getattr(metrics, f.name))
                for f in dataclasses.fields(metrics)})
    trace_to_csv(trace, csv_path)
    with open(csv_path, "rb") as fh:
        lines = fh.read().split(b"\n", 2)
    out["csv_head"] = np.frombuffer(b"\n".join(lines[:2]), dtype=np.uint8)
    # dos_active, attempt, success and buffer_depth: the last four columns
    flags = b"".join(b",".join(row.rsplit(b",", 4)[1:]) for row in lines[2].splitlines())
    out["csv_flags"] = np.frombuffer(flags, dtype=np.uint8)
    n, m = trace.x.shape[1], trace.u.shape[1]
    cells = np.loadtxt(csv_path, delimiter=",", skiprows=2, ndmin=2)
    out["csv_t"] = cells[:, 0]
    out["csv_x"] = cells[:, 1 : 1 + n]
    out["csv_u"] = cells[:, 1 + n : 1 + n + m]
    out["csv_V"] = cells[:, 1 + n + m]
    return out


def write(path, records) -> None:
    """Write (label, {name: array}) pairs, one run in memory at a time."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for label, arrays in records:
            for name, array in arrays.items():
                with zf.open(f"{label}/{name}.npy", "w", force_zip64=True) as fh:
                    np.lib.format.write_array(fh, array, allow_pickle=False)


def save(path, runs, chains) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "trace.csv")
        write(path, itertools.chain(
            ((label, record(config, sig, noise, csv_path))
             for label, config, sig, noise in runs),
            ((label, record_bounds(design, h)) for label, design, h in chains),
        ))


def row_deviation(a, b) -> float:
    """Largest row deviation over the running maximum row norm of a and b."""
    a, b = a.reshape(len(a), -1), b.reshape(len(b), -1)
    nan = np.isnan(a)
    if not np.array_equal(nan, np.isnan(b)):
        return np.inf
    a, b = np.where(nan, 0.0, a), np.where(nan, 0.0, b)
    scale = np.maximum.accumulate(
        np.maximum(np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1))
    )
    err = np.linalg.norm(a - b, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(err == 0.0, 0.0, err / scale)
    return float(np.max(ratio, initial=0.0))


def deviation(name, a, b, scale) -> float:
    """0 when equal, else how far apart in the units TOL applies to.

    scale, the larger max_state_norm of the run's two saves, is what the
    state norms are measured against.
    """
    if a.dtype != b.dtype or a.shape != b.shape:
        return np.inf
    if a.tobytes() == b.tobytes():
        return 0.0
    if name in ROWS:
        return row_deviation(a, b)
    if name in NORMS:
        dev = float(abs(a - b) / scale)
    elif name.startswith(BOUNDS):
        dev = float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), np.max(np.abs(b))))
    else:
        return np.inf
    return dev if np.isfinite(dev) else np.inf


def compare(path_a, path_b):
    """(mismatches, worst scaled deviation per field) between two saves."""
    problems, worst = [], {}
    with np.load(path_a) as za, np.load(path_b) as zb:
        keys_a, keys_b = set(za.files), set(zb.files)
        for key in sorted(keys_a ^ keys_b):
            problems.append(f"{key}: only in {path_a if key in keys_a else path_b}")
        for key in sorted(keys_a & keys_b):
            label, name = key.rsplit("/", 1)
            if label.startswith(BOUNDS):
                name = BOUNDS + name
            scale = None
            if name in NORMS:
                scale = max(abs(z[f"{label}/max_state_norm"]) for z in (za, zb))
            dev = deviation(name, za[key], zb[key], scale)
            worst[name] = max(worst.get(name, 0.0), dev)
            floats = name in ROWS + NORMS or name.startswith(BOUNDS)
            if not dev <= (TOL if floats else 0.0):
                problems.append(f"{key}: deviation {dev:.3g}")
    return problems, worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_save = sub.add_parser("save", help="run the grid and save every output")
    p_save.add_argument("output", help=".npz file to write")
    p_cmp = sub.add_parser("compare", help="compare two saves")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "save":
        save(args.output, grid(), bounds_grid())
        return 0
    problems, worst = compare(args.a, args.b)
    for name, dev in sorted(worst.items()):
        print(f"{name:<18} {dev:.3g}")
    for line in problems:
        print(f"MISMATCH {line}")
    print(f"{'FAIL' if problems else 'PASS'} at tolerance {TOL:g}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
