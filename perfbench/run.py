"""Benchmark of the doscontrol package: four closed-loop batch workloads.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh interpreter (worker.py), one op at a time.
With --trace 0 the run reports the end-to-end metrics.  The host is shared
and its speed drifts for minutes at a time, so every time is measured
against the frozen seed implementation (seed_impl/) run beside it, and
reported at the reference host speed: ``ops_per_s`` is the seed
implementation's throughput on the reference host times the package's
speed-up over it in the run (worker.measure), and ``setup_s`` the seed
implementation's set-up time on the reference host times the median ratio
of the package's set-up time to the seed implementation's.  Set-up runs
from process start to the first timed op, in fresh interpreters started in
pairs, one of each, at once on one CPU; so both see the same host speed,
set-up time is the main thread's CPU time.  With --trace 1 it reports the per-layer metrics of
a traced run (tracer.py).  Every op's output is checked against the
recorded reference, and ``doscontrol repro`` must pass.  The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 when every check passed, 1 when one failed, and 2 when
the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("mc_verdicts", "long_run_export", "certify_designs", "dos_audit")
# The workload seed used by default, and one held out for confirming a
# gain on inputs not used while the change was written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
# pairs of set-up interpreters (package, seed implementation) per run;
# fewer where the warm-up op is a 500 s simulation
SETUP_PAIRS = {"long_run_export": 2}  # 3 for the others
# End-to-end figures printed beside the gated ones, with their units.
PRINTED = (
    ("speedup_vs_seed", "1"),
    ("setup_ratio_vs_seed", "1"),
    ("host_speed", "1"),
    ("op_p50_ms", "ms"),
    ("ops_per_s_raw", "1/s"),
    ("sim_s_per_s", "s/s"),
    ("intervals_per_s", "1/s"),
)
# One workload's run must end within this many seconds.
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    pass


def spawn(workload, seed, seconds, modes, quick, deadline, cpu=None) -> list[dict]:
    """Run one worker per mode, all at once (pinned to ``cpu`` when given);
    return their results."""
    procs = []
    try:
        for mode in modes:
            cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
            if quick:
                cmd.append("--quick")
            pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
            procs.append(subprocess.Popen(
                cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, preexec_fn=pin,
            ))
        results = []
        for mode, proc in zip(modes, procs):
            try:
                out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired as exc:
                raise BenchmarkError(f"{workload} {mode}: worker timed out") from exc
            lines = out.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(err)
                raise BenchmarkError(f"{workload} {mode}: worker exited {proc.returncode}")
            results.append(json.loads(lines[-1]))
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def run_workload(workload, seed, seconds, trace, quick, deadline) -> dict:
    mode = "trace" if trace else "measure"
    result = spawn(workload, seed, seconds, [mode], quick, deadline)[0]
    setup_errors = []
    if not trace:
        # Pairs of fresh interpreters, the package's and the seed
        # implementation's, each pair started at once on one CPU; their
        # set-up times are CPU times (see the module docstring).
        cpu = min(os.sched_getaffinity(0))
        setups = {"setup": [], "setup_seed": []}
        for j in range(1 if quick else SETUP_PAIRS.get(workload, 3)):
            modes = ("setup", "setup_seed") if j % 2 == 0 else ("setup_seed", "setup")
            for mode, started in zip(modes, spawn(workload, seed, seconds, modes,
                                                  quick, deadline, cpu)):
                setups[mode].append(started["setup_cpu_s"])
                if started["warmup_error"]:
                    setup_errors.append(f"{mode} warm-up op: {started['warmup_error']}")
        extra = result["extra"]
        extra["setup_ratio_vs_seed"] = statistics.median(
            own / other for own, other in zip(setups["setup"], setups["setup_seed"])
        )
        extra["setup_samples_s"] = setups
        result["metrics"]["setup_s"] = (
            extra["reference_setup_s"] * extra["setup_ratio_vs_seed"], "s"
        )
    result["failures"] += setup_errors
    if result["repro_exit"] != 0:
        result["failures"].append(f"doscontrol repro exited {result['repro_exit']}")
    if result["warmup_error"]:
        result["failures"].append(f"warm-up op: {result['warmup_error']}")
    result["correct"] = not result["failures"]
    return result


def report(workload, seed, trace, result) -> dict:
    """Print the human-readable block; return the JSON summary line."""
    prov = result["provenance"]
    print(f"== {workload}  seed={seed}  trace={trace}  commit={prov['commit']}")
    print(f"   python {prov['python']}  numpy {prov['numpy']}  scipy {prov['scipy']}  "
          f"blas {prov['blas']} threads={prov['blas_threads']}  "
          f"nproc={prov['nproc']}  cpu={prov['cpu']}")
    for name, (value, unit) in result["metrics"].items():
        absent = "  (absent: layer did not run)" if name in result.get("absent", ()) else ""
        print(f"   {name:<40} {value:>14.6g} {unit}{absent}")
    extra = result["extra"]
    if not trace:
        print("   not gated:")
        for key, unit in PRINTED:
            if key in extra:
                print(f"   {key:<40} {extra[key]:>14.6g} {unit}")
        if "op_tail_ms" in extra:
            print(f"   {'op_tail_ms':<40} {extra['op_tail_ms']:>14.6g} ms  "
                  f"(p{extra['op_tail_percentile']:.1f} of {extra['ops']} ops, "
                  f"{extra['op_tail_samples_beyond']} beyond)")
        else:
            print(f"   {'op_tail_ms':<40} {'-':>14} ms  (omitted: {extra['ops']} ops)")
        frac = result["failed"] / max(result["attempted"], 1)
        print(f"   {'failed_frac':<40} {frac:>14.6g} 1")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, **result}, indent=1))
    print(f"   result written to {path.relative_to(ROOT)}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="doscontrol benchmark")
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: one block of ops, one traced pass")
    args = parser.parse_args(argv)
    # a terminated run still stops its workers (spawn's finally clause)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  args.quick, time.monotonic() + DEADLINE_S)
            lines[name] = report(name, args.seed, args.trace, result)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        summary = lines[names[0]]
    else:
        summary = {
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {
                f"{wl}.{name}": metric
                for wl, line in lines.items() for name, metric in line["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
