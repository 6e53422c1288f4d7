#!/usr/bin/env python3
"""Save every simulation output over a fixed grid of runs; compare two saves.

Each run is one closed loop of the bundled two-state plant on a 20 s
horizon.  The grid crosses the modes (co-located; remote with h = 1, which
is remote without buffer, 5 and 50), b = 1, 2, 3, computation delays
T_c = 0, 0.15, 0.25 and 0.4 s (0.4 s puts skip = h - 1 at h = 5, b = 1, so
a packet is delivered straight into the hold), three generator specs and
noise that never decays or decays at 5 or 10 s; the sub-step count cycles
through 1, 4, 7, 10 and 40 (the edges of simulate's noise map) and the
signal horizon through the run's horizon and 1 s more.  Combinations that SimConfig rejects (a computation delay that
needs more buffered ticks than the mode holds) are left out, which leaves
306 runs.  Then each mode runs once on a 60 s horizon at b = 1 (600 ticks,
so the run crosses the edge of simulate's first 512-tick solve block), with
the bench spec, T_c = 0.4 s where the mode holds more than one entry and 0
elsewhere: 310 runs in all.

With each run it saves the run's generated DoS signal, its onsets and
ends, and three gap audits (check_gap_bound) of the signal, 930 in all.
The first is at Delta = 0.1 s over the signal's horizon, against the class
fitted to it: tau_D and T from its transition count and blocked time over
its horizon, eta and kappa from fit_class_params.  The other two are
against a fixed class (eta 1, tau_D 10 s, kappa 1, T 2) that is feasible at
both periods, where a fitted one may not be at the longer: one at
Delta = 1/3 s, a period whose multiples are not exact in floating point,
and one at Delta = 0.1 s over a horizon Delta/2 short of the signal's, so
that the grid ends between two attempts.

Beside the runs it saves the bounds layer: every derive_constants output
(P and each scalar) at h = 1, 5 and 50 and delta = 0.1 s, for the bundled
design and for seeded random LQR designs of 2, 8, 16 and 24 states.

Last come 32 construction verdicts.  Twenty are six-state plants with an
unstable hidden mode, a real one or a pair, that B reaches only through a
coupling of 1e-15, 1e-14, ..., 1e-6, each with its LQR gain; none of these
reaches a constant chain.  Six more have a slowly unstable hidden mode (real
part 1e-3) reached through a coupling of 1e-3, 3e-3 or 1e-2: each passes
the rank test and certifies a full chain.  The last six are designs whose
Phi has a real eigenvalue, or a pair, at -HURWITZ_TOL times 0.999, 1 and
1.001, exactly.  Each saves the error its construction or derive_constants
(h = 5) raises, as error (the type's name), message and, for a
StabilityCertificationError, the eigenvalue it names; or else the constant
chain.

    PYTHONPATH=<checkout A>/src python3 scripts/trace_digest.py save a.npz
    PYTHONPATH=<checkout B>/src python3 scripts/trace_digest.py save b.npz
    PYTHONPATH=src python3 scripts/trace_digest.py compare a.npz b.npz

``save`` writes, per run, the 14 public SimTrace names (TRACE_NAMES:
the fields and the row columns built on first read), every metric, the CSV's
first two lines and flag columns, its t, x, u and V cells parsed back to
float (csv_t, csv_x, csv_u, csv_V), whether the CSV's bytes equal those of
the same trace written one '%' call per cell (csv_per_cell), the signal's
dos_onsets and dos_ends and each audit field as gap_<field>,
gap_third_<field> and gap_short_<field> to one .npz, as entries
"<run>/<name>".  ``compare`` requires csv_per_cell in both saves,
which holds the parsed cells to their last printed digit.  It holds exact
the flags, times, csv_t, z, buffer_depth, the scalar SimTrace fields,
failure_fraction, max_gap, the verdicts, the CSV lines it keeps, the signal
arrays, the audit and every field of the construction verdicts.  It holds
x, u, prediction and V, and their CSV cells, row by row within TOL times
the running maximum row norm (NaN positions exact), and the two state
norms within TOL times max_state_norm, the running maximum at the last
row.  It holds each derive_constants output
within TOL times the larger absolute entry of the two saves.  It prints the
largest scaled deviation per field, then every mismatch, including a run or
field that only one save has, and exits 1 on any mismatch.
"""

import argparse
import dataclasses
import functools
import itertools
import os
import sys
import tempfile
import zipfile

import numpy as np
import scipy.linalg

from doscontrol import (
    DesignInputs,
    DoSClassParams,
    GeneratorSpec,
    LtiPlant,
    NoiseSpec,
    SimConfig,
    StabilityCertificationError,
    benchmark,
    check_gap_bound,
    compute_metrics,
    derive_constants,
    dos_measure,
    fit_class_params,
    generate,
    simulate,
    trace_to_csv,
    transitions_count,
)
from doscontrol.linalg import HURWITZ_TOL

HORIZON = 20.0
LONG_HORIZON = 60.0
MODES = (("colocated", 1), ("remote", 1), ("remote", 5), ("remote", 50))
B_VALUES = (1, 2, 3)
T_C_VALUES = (0.0, 0.15, 0.25, 0.4)
SPECS = {
    "bench": benchmark.GENERATOR,
    "light": GeneratorSpec(off_range=(0.8, 2.0), on_range=(0.05, 0.3)),
    "pulses": GeneratorSpec(off_range=(0.05, 0.4), on_range=(0.0, 0.05)),
}
DECAY_AT = (None, 5.0, 10.0)
SUBSTEPS = (1, 4, 7, 10, 40)
SIGNAL_EXTRA = (0.0, 1.0)
P = np.array([[2.0, 0.3], [0.3, 1.0]])
# the public names of a SimTrace, fields and row columns built on first
# read alike, in the order of a run's saved entries
TRACE_NAMES = ("times", "x", "u", "V", "prediction", "dos_active", "attempt",
               "success", "buffer_depth", "z", "delta", "delta_big", "substeps",
               "noise_decay_at")
BOUNDS_H = (1, 5, 50)
LQR_SIZES = (2, 8, 16, 24)
BOUNDS = "bounds:"  # label prefix of the derive_constants entries
VERDICT = "verdict:"  # label prefix of the construction verdicts, held exact
# hidden modes (an unstable real one and an unstable pair) and their
# couplings to B, and the multiples of -HURWITZ_TOL that Phi's eigenvalue
# takes, in the construction verdicts
HIDDEN_MODES = {"real": np.array([[0.3]]),
                "pair": np.array([[0.2, 1.5], [-1.5, 0.2]])}
COUPLINGS = tuple(10.0**-e for e in range(15, 5, -1))
# near-uncontrollable modes whose LQR designs still certify a chain
SLOW_MODES = {"real": np.array([[1e-3]]),
              "pair": np.array([[1e-3, 1.5], [-1.5, 1e-3]])}
SLOW_COUPLINGS = (1e-3, 3e-3, 1e-2)
PHI_SCALES = (0.999, 1.0, 1.001)
VERDICT_H = 5
# (field prefix, Delta, how far short of the signal's horizon) of the audits
# against AUDIT_CLASS
AUDITS = (("gap_third", 1 / 3, 0.0), ("gap_short", 0.1, 0.05))
AUDIT_CLASS = DoSClassParams(eta=1.0, tau_D=10.0, kappa=1.0, T=2.0)

TOL = 1e-12
PER_CELL = "csv_per_cell"  # the CSV's bytes equal the per-cell writer's
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


def hidden_mode_design(block, coupling, seed) -> DesignInputs:
    """A six-state plant whose trailing block is reached by B only through
    coupling, in random coordinates, and its LQR gain."""
    rng = np.random.default_rng(seed)
    n, k = 6, block.shape[0]
    m = (n - k) // 2
    a = rng.standard_normal((n, n))
    a[n - k:, :n - k] = 0.0
    a[n - k:, n - k:] = block
    b = rng.standard_normal((n, m))
    b[n - k:] *= coupling
    t = rng.standard_normal((n, n)) + n * np.eye(n)
    a, b = t @ a @ np.linalg.inv(t), t @ b
    plant = LtiPlant(A=a, B=b)
    k = -b.T @ scipy.linalg.solve_continuous_are(a, b, np.eye(n), np.eye(m))
    return DesignInputs(plant=plant, K=k)


def phi_design(pair, scale) -> DesignInputs:
    """A design whose Phi is exactly diag(-1, re), or [[re, 1], [-1, re]],
    with re = -HURWITZ_TOL * scale: B K = [[0, 1], [0, 0]] adds to A
    without rounding."""
    re = -HURWITZ_TOL * scale
    phi = np.array([[re, 1.0], [-1.0, re]]) if pair else np.diag([-1.0, re])
    b, k = np.array([[1.0], [0.0]]), np.array([[0.0, 1.0]])
    return DesignInputs(plant=LtiPlant(A=phi - b @ k, B=b), K=k)


def verdict_grid():
    """Yield (label, build) per construction verdict; build() makes the design."""
    for (kind, block), (e, coupling) in itertools.product(
            HIDDEN_MODES.items(), enumerate(COUPLINGS)):
        yield (f"{VERDICT}hidden:{kind}:coupling={coupling:g}",
               functools.partial(hidden_mode_design, block, coupling, [6, e]))
    for (kind, block), (e, coupling) in itertools.product(
            SLOW_MODES.items(), enumerate(SLOW_COUPLINGS)):
        yield (f"{VERDICT}slow:{kind}:coupling={coupling:g}",
               functools.partial(hidden_mode_design, block, coupling, [8, e]))
    for pair, scale in itertools.product((False, True), PHI_SCALES):
        yield (f"{VERDICT}phi:{'pair' if pair else 'real'}:scale={scale}",
               functools.partial(phi_design, pair, scale))


def record_verdict(build) -> dict:
    """The chain of build()'s design at h = VERDICT_H, or the error raised."""
    try:
        return record_bounds(build(), VERDICT_H)
    except (ValueError, ArithmeticError) as exc:
        out = {"error": np.asarray(type(exc).__name__), "message": np.asarray(str(exc))}
        if isinstance(exc, StabilityCertificationError):
            out["eigenvalue"] = np.asarray(complex(exc.eigenvalue))
        return out


def as_array(value) -> np.ndarray:
    """A field as an array that np.load reads back; None becomes NaN."""
    return np.asarray(np.nan if value is None else value)


def record_signal(sig) -> dict:
    """The signal's onsets and ends, and its audits, by field prefix."""
    horizon = sig.horizon
    tau_d = horizon / transitions_count(sig, 0.0, horizon)
    big_t = horizon / dos_measure(sig, 0.0, horizon)
    eta, kappa = fit_class_params(sig, tau_d, big_t)
    verdicts = {"gap": check_gap_bound(
        sig, 0.1, DoSClassParams(eta, tau_d, kappa, big_t), horizon)}
    verdicts.update((prefix, check_gap_bound(sig, delta, AUDIT_CLASS, horizon - short))
                    for prefix, delta, short in AUDITS)
    out = {"dos_onsets": sig.onsets, "dos_ends": sig.ends}
    for prefix, verdict in verdicts.items():
        out.update({f"{prefix}_{f.name}": as_array(getattr(verdict, f.name))
                    for f in dataclasses.fields(verdict)})
    return out


def per_cell_csv(trace) -> bytes:
    """The trace CSV written with one '%' call per cell."""
    n, m = trace.x.shape[1], trace.u.shape[1]
    header = (["t"] + [f"x{i + 1}" for i in range(n)] + [f"u{j + 1}" for j in range(m)]
              + ["V", "dos_active", "attempt", "success", "buffer_depth"])
    lines = [b"# format: 1\n", ",".join(header).encode() + b"\r\n"]
    columns = (trace.times, trace.x, trace.u, trace.V, trace.dos_active,
               trace.attempt, trace.success, trace.buffer_depth)
    for t, x, u, v, *flags in zip(*(c.tolist() for c in columns)):
        cells = ([b"%.12g" % t] + [b"%.16g" % c for c in x + u + [v]]
                 + [b"%d" % f for f in flags])
        lines.append(b",".join(cells) + b"\r\n")
    return b"".join(lines)


def record(config, signal_args, noise, csv_path) -> dict:
    """Every output of one run, by name."""
    seed, spec, sig_horizon = signal_args
    sig = generate(seed, spec, sig_horizon)
    trace = simulate(benchmark.plant(), benchmark.K, config, sig, noise,
                     benchmark.X0, P=P)
    out = {name: as_array(getattr(trace, name)) for name in TRACE_NAMES}
    metrics = compute_metrics(trace)
    out.update({f.name: as_array(getattr(metrics, f.name))
                for f in dataclasses.fields(metrics)})
    trace_to_csv(trace, csv_path)
    with open(csv_path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n", 2)
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
    out[PER_CELL] = np.asarray(data == per_cell_csv(trace))
    out.update(record_signal(sig))
    return out


def write(path, records) -> None:
    """Write (label, {name: array}) pairs, one run in memory at a time."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for label, arrays in records:
            for name, array in arrays.items():
                with zf.open(f"{label}/{name}.npy", "w", force_zip64=True) as fh:
                    np.lib.format.write_array(fh, array, allow_pickle=False)


def save(path, runs, chains, verdicts) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "trace.csv")
        write(path, itertools.chain(
            ((label, record(config, sig, noise, csv_path))
             for label, config, sig, noise in runs),
            ((label, record_bounds(design, h)) for label, design, h in chains),
            ((label, record_verdict(build)) for label, build in verdicts),
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
            for prefix in (BOUNDS, VERDICT):
                if label.startswith(prefix):
                    name = prefix + name
            scale = None
            if name in NORMS:
                scale = max(abs(z[f"{label}/max_state_norm"]) for z in (za, zb))
            if name == PER_CELL and not (za[key] and zb[key]):
                problems.append(f"{key}: CSV bytes differ from the per-cell writer's")
                continue
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
        save(args.output, grid(), bounds_grid(), verdict_grid())
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
