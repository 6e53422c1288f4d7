#!/usr/bin/env python3
"""Print a SHA-256 of every simulation output over a fixed grid of runs.

Each run is one closed loop of the bundled two-state plant on a 20 s
horizon.  The grid crosses the modes (co-located; remote with h = 1, 5 and
50; remote without buffer), b = 1, 2, 3, computation delays T_c = 0, 0.15
and 0.25 s, three generator specs and noise that never decays or decays at
5 or 10 s; the sub-step count cycles through 4, 7 and 10 and the signal
horizon through 20 and 21 s.  Combinations that SimConfig rejects (a
computation delay that needs more buffered ticks than the mode holds) are
left out, which leaves 270 runs.  For every run the script prints one line
per SimTrace field, one for the trace CSV bytes and one for the metrics
JSON, each as "<run label> <name> <sha256>".

Two checkouts produce bit-identical traces when their outputs match:

    PYTHONPATH=<checkout A>/src python3 scripts/trace_digest.py > a.txt
    PYTHONPATH=<checkout B>/src python3 scripts/trace_digest.py > b.txt
    diff a.txt b.txt

A field that exists in only one checkout shows up as a one-sided line.
"""

import dataclasses
import hashlib
import itertools
import json
import os
import tempfile

import numpy as np

from doscontrol import (
    GeneratorSpec,
    NoiseSpec,
    SimConfig,
    benchmark,
    compute_metrics,
    generate,
    metrics_to_dict,
    simulate,
    trace_to_csv,
)

HORIZON = 20.0
MODES = (("colocated", 1), ("remote", 1), ("remote", 5), ("remote", 50),
         ("remote_no_buffer", 1))
B_VALUES = (1, 2, 3)
T_C_VALUES = (0.0, 0.15, 0.25)
SPECS = {
    "bench": benchmark.GENERATOR,
    "light": GeneratorSpec(off_range=(0.8, 2.0), on_range=(0.05, 0.3)),
    "pulses": GeneratorSpec(off_range=(0.05, 0.4), on_range=(0.0, 0.05)),
}
DECAY_AT = (None, 5.0, 10.0)
SUBSTEPS = (4, 7, 10)
SIGNAL_HORIZONS = (20.0, 21.0)
P = np.array([[2.0, 0.3], [0.3, 1.0]])


def grid():
    """Yield (label, SimConfig, signal args, noise) per accepted run."""
    combos = itertools.product(MODES, B_VALUES, T_C_VALUES, SPECS, DECAY_AT)
    for i, ((mode, h), b, t_c, spec, decay_at) in enumerate(combos):
        substeps = SUBSTEPS[i % len(SUBSTEPS)]
        try:
            config = SimConfig(delta_big=0.1, horizon=HORIZON, b=b, h=h,
                               substeps=substeps, mode=mode, T_c=t_c)
        except ValueError:
            continue
        sig_horizon = SIGNAL_HORIZONS[i % len(SIGNAL_HORIZONS)]
        label = (f"{i:03d}:{mode}:h={h}:b={b}:T_c={t_c}:substeps={substeps}"
                 f":{spec}:decay_at={decay_at}:signal={sig_horizon}")
        noise = NoiseSpec(d_bound=0.01, n_bound=0.01, seed=1000 + i,
                          decay_at=decay_at)
        yield label, config, (i, SPECS[spec], sig_horizon), noise


def digest(value) -> str:
    h = hashlib.sha256()
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(f"{type(value).__name__}:{value!r}".encode())
    return h.hexdigest()


def run(label, config, signal_args, noise, csv_path):
    seed, spec, sig_horizon = signal_args
    sig = generate(seed, spec, sig_horizon)
    trace = simulate(benchmark.plant(), benchmark.K, config, sig, noise,
                     benchmark.X0, P=P)
    lines = [f"{label} {f.name} {digest(getattr(trace, f.name))}"
             for f in dataclasses.fields(trace)]
    trace_to_csv(trace, csv_path)
    with open(csv_path, "rb") as fh:
        lines.append(f"{label} csv {hashlib.sha256(fh.read()).hexdigest()}")
    metrics = json.dumps(metrics_to_dict(compute_metrics(trace)), sort_keys=True)
    lines.append(f"{label} metrics {hashlib.sha256(metrics.encode()).hexdigest()}")
    return lines


def main():
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = os.path.join(tmp, "trace.csv")
        for label, config, signal_args, noise in grid():
            for line in run(label, config, signal_args, noise, csv_path):
                print(line)


if __name__ == "__main__":
    main()
