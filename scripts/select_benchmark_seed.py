#!/usr/bin/env python3
"""Pick the committed DoS seed for the bundled benchmark reproduction.

Scans generator seeds for a 50 s signal whose realized statistics land in
the target windows (transition count, blocked fraction, duty/frequency rate,
transmission failure fraction, fitted chatter constants) and whose three
scenario verdicts come out as expected: co-located stable, remote without
buffering unstable, remote with a five-deep buffer stable.  The plant, gain,
generator, noise and scenarios are those of doscontrol.benchmark.

Run from the repository root:  python3 scripts/select_benchmark_seed.py
The winning seed is committed in src/doscontrol/benchmark.py.
"""

import numpy as np

from doscontrol import (
    benchmark,
    compute_metrics,
    dos_measure,
    fit_class_params,
    generate,
    simulate,
    transitions_count,
)
from doscontrol.dos import active_mask

# Target windows for the committed fixture
N_TRANSITIONS = 39
XI_RANGE = (33.5, 35.5)
RATE_RANGE = (0.74, 0.80)
FAIL_RANGE = (0.67, 0.73)
ETA_MAX = 3.1
KAPPA_MAX = 0.8442


def signal_stats(seed):
    horizon, delta_big = benchmark.HORIZON, benchmark.DELTA_BIG
    sig = generate(seed, benchmark.GENERATOR, horizon)
    n = transitions_count(sig, 0.0, horizon)
    xi = dos_measure(sig, 0.0, horizon)
    if n == 0 or xi <= 0.0:
        return None
    tau_d = horizon / n
    t_avg = horizon / xi
    if t_avg <= 1.0:
        return None
    rate = 1.0 / t_avg + delta_big / tau_d
    # the attempt grid min(k Delta, horizon), k = 0..horizon / Delta
    grid = np.arange(round(horizon / delta_big) + 1) * delta_big
    blocked = active_mask(sig, np.minimum(grid, horizon))
    fail = 1.0 - np.count_nonzero(~blocked) / blocked.size
    eta, kappa = fit_class_params(sig, tau_d, t_avg)
    return sig, n, xi, rate, fail, eta, kappa


def in_windows(stats):
    _, n, xi, rate, fail, eta, kappa = stats
    return (
        n == N_TRANSITIONS
        and XI_RANGE[0] <= xi <= XI_RANGE[1]
        and RATE_RANGE[0] <= rate <= RATE_RANGE[1]
        and FAIL_RANGE[0] <= fail <= FAIL_RANGE[1]
        and eta <= ETA_MAX
        and kappa <= KAPPA_MAX
    )


def verdicts(sig):
    out = {}
    for name, mode, h in benchmark.SCENARIOS:
        trace = simulate(
            benchmark.plant(), benchmark.K, benchmark.scenario_config(mode, h),
            sig, benchmark.NOISE, benchmark.X0,
        )
        out[name] = compute_metrics(trace)
    return out


def check_seed(seed):
    """(stats, metrics) when the seed passes every window and verdict, else None."""
    stats = signal_stats(seed)
    if stats is None or not in_windows(stats):
        return None
    m = verdicts(stats[0])
    if any(m[name].stable_verdict != want
           for name, want in benchmark.EXPECTED_STABLE.items()):
        return None
    return stats, m


def main():
    hits = []
    for seed in range(20000):
        found = check_seed(seed)
        if found is None:
            continue
        (_, n, xi, rate, fail, eta, kappa), m = found
        score = abs(xi - 34.65)
        hits.append((score, seed))
        print(
            f"seed={seed} n={n} xi={xi:.3f} rate={rate:.4f} fail={fail:.3f} "
            f"eta={eta:.3f} kappa={kappa:.4f} "
            f"h1_max={m['remote_h1'].max_state_norm:.3g} "
            f"h5_max={m['remote_h5'].max_state_norm:.3g}"
        )
        if len(hits) >= 12:
            break
    hits.sort()
    if hits:
        print("\nbest seed:", hits[0][1])
    else:
        print("no seed matched; widen the windows")


if __name__ == "__main__":
    main()
