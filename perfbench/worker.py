"""One benchmark process, started by run.py in a fresh interpreter.

Modes:
  setup    import the package, build the warm-up input, run the warm-up op,
           report the CPU time that took and exit;
  setup_seed  the same with the frozen seed implementation (seed_impl/);
  measure  set up, then run whole blocks of ops untraced, each op on the
           package and on the seed implementation in turn, until their
           summed latency reaches --seconds; check every output, run
           `doscontrol repro` once, and report the end-to-end numbers;
  trace    set up, then run the workload's fixed op list untraced and
           traced, as pairs, until --seconds have passed, and report the
           per-layer numbers.

The last line of standard output is one JSON object.  Ops run one at a
time in this process (a closed loop with one client); BLAS keeps numpy's
default thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# how often the interpreter switches between the threads of an interleaved
# pair (the default is 5 ms)
SWITCH_INTERVAL_S = 0.001


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "setup_seed", "measure", "trace"),
                        required=True)
    parser.add_argument("--quick", action="store_true", help="one block, one pass")
    return parser.parse_args(argv)


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import doscontrol

    location = Path(doscontrol.__file__).resolve()
    if ROOT / "src" not in location.parents:
        raise SystemExit(f"doscontrol imported from {location}, not from {ROOT / 'src'}")


class Runner:
    """Runs and checks ops one at a time, counting attempts and failures."""

    def __init__(self, wl, workloads, seed, label=""):
        self.wl = wl
        self.label = label
        self.workloads = workloads
        self.seed = seed
        self.failures: list[str] = []
        self.attempted = 0

    def prepare(self, entry: dict, cycle: int):
        """The op's arguments; ``cycle`` counts the passes over the pool before it."""
        return self.wl.prepare(entry["input"], [self.seed, cycle])

    def timed(self, prepared, clock=time.perf_counter):
        """Run one prepared op; return (time on ``clock``, result, error)."""
        start = clock()
        try:
            result, error = self.wl.run(prepared), None
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            result, error = None, f"raised {exc!r}"
        return clock() - start, result, error

    def check(self, entry: dict, prepared, result, error):
        """The op's output, or None when it failed or did not match."""
        output = None
        if error is None:
            try:
                output = self.workloads.normalize(self.wl.summarize(prepared, result))
                error = self.workloads.mismatch(entry["output"], output)
            except Exception as exc:  # noqa: BLE001 - a failed check is counted
                error = f"check raised {exc!r}"
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{self.label}{entry['input']}: {error}")
            output = None
        return output

    def run_op(self, entry: dict, cycle: int = 0):
        """Time one op; return (latency, output or None).  Checks it."""
        prepared = self.prepare(entry, cycle)
        latency, result, error = self.timed(prepared)
        return latency, self.check(entry, prepared, result, error)


def run_interleaved(runners, entry: dict, cycle: int):
    """Run one op on each runner at once; return [(cpu time, output or None)].

    Two threads pinned to one CPU run the op, one per runner, and the
    interpreter switches between them every SWITCH_INTERVAL_S, so both
    see the same host speed however long the op is.  Each op's time is its
    thread's CPU time.
    """
    prepared = [r.prepare(entry, cycle) for r in runners]
    outcomes = [None] * len(runners)
    start = threading.Barrier(len(runners))
    cpu = min(os.sched_getaffinity(0))

    def body(k):
        os.sched_setaffinity(0, {cpu})  # this thread only
        start.wait()
        outcomes[k] = runners[k].timed(prepared[k], time.thread_time)

    threads = [threading.Thread(target=body, args=(k,)) for k in range(len(runners))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [(outcome[0], r.check(entry, p, *outcome[1:]))
            for r, p, outcome in zip(runners, prepared, outcomes)]


def measure(runner, seed_runner, order, seconds, quick) -> dict:
    """Run whole blocks, each op on the package and on the seed implementation
    in turn, for about ``seconds``.

    The host is shared: other tenants slow the CPU by up to 1.9x for
    stretches of a second to minutes, so ops per busy second
    (ops_per_s_raw) moves with the host.  The seed implementation runs the
    same op right before or right after (alternately), so it is slowed
    alike; its busy time against the package's is the package's speed-up
    over the seed implementation, and that times the seed implementation's
    throughput on the reference host is ``ops_per_s``.  The host's speed
    also changes within a second, so back-to-back ops of a second or more
    differ by up to 40%; an ``interleaved`` workload runs both at once
    instead (see run_interleaved) and its latencies are thread CPU times.
    """
    wl = runner.wl
    by_kind = [[] for _ in wl.kinds]  # latencies per position in the block
    seed_by_kind = [[] for _ in wl.kinds]
    latencies = []
    seed_busy = 0.0
    work = 0.0
    i = 0
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    while True:
        for pos, entry in enumerate(wl.block_entries(order[i % len(order)])):
            cycle = i // len(order)
            if wl.interleaved:
                (latency, output), (seed_latency, _) = run_interleaved(
                    (runner, seed_runner), entry, cycle)
            elif (i + pos) % 2 == 0:
                latency, output = runner.run_op(entry, cycle)
                seed_latency = seed_runner.run_op(entry, cycle)[0]
            else:
                seed_latency = seed_runner.run_op(entry, cycle)[0]
                latency, output = runner.run_op(entry, cycle)
            seed_busy += seed_latency
            seed_by_kind[pos].append(seed_latency)
            by_kind[pos].append(latency)
            latencies.append(latency)
            if output is not None:
                work += wl.work(entry["input"], output)
        i += 1
        # stop at the whole number of blocks nearest to --seconds
        elapsed = sum(latencies) + seed_busy
        if quick or elapsed * (1 + 0.5 / i) >= seconds:
            break
    sys.setswitchinterval(switch_interval)
    busy = sum(latencies)
    n = len(latencies)
    speedup = seed_busy / busy
    metrics = {"ops_per_s": (wl.reference_ops_per_s * speedup, "1/s")}
    extra = {"ops": n, "busy_s": busy, "seed_busy_s": seed_busy, "blocks": i,
             "speedup_vs_seed": speedup,
             "host_speed": n / seed_busy / wl.reference_ops_per_s,
             "op_p50_ms": statistics.median(latencies) * 1e3,
             "ops_per_s_raw": n / busy,
             "latency_ms_by_kind": [[round(x * 1e3, 3) for x in lat] for lat in by_kind],
             "seed_latency_ms_by_kind": [[round(x * 1e3, 3) for x in lat]
                                         for lat in seed_by_kind]}
    # highest percentile with at least ten samples beyond it, when that is
    # above the median
    if n > 20:
        k = n - 11
        extra["op_tail_ms"] = sorted(latencies)[k] * 1e3
        extra["op_tail_percentile"] = 100.0 * (k + 1) / n
        extra["op_tail_samples_beyond"] = n - 1 - k
    if wl.rate_metric:
        extra[wl.rate_metric] = work / busy
    return {"metrics": metrics, "extra": extra}


def trace(runner, order, seconds, quick) -> dict:
    from tracer import PER_LAYER, Tracer

    wl = runner.wl
    ops = [e for b in order[:wl.trace_blocks] for e in wl.block_entries(b)]
    tracer = Tracer()
    untraced = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        # alternate which pass of a pair runs first
        if passes % 2 == 0:
            untraced += sum(runner.run_op(entry)[0] for entry in ops)
        tracer.install()
        try:
            for entry in ops:
                op_id = len(tracer.op_wall)
                tracer.begin_op(op_id, wl.label(entry["input"]))
                latency, _ = runner.run_op(entry)
                tracer.end_op(op_id, latency)
        finally:
            tracer.uninstall()
        if passes % 2 == 1:
            untraced += sum(runner.run_op(entry)[0] for entry in ops)
        passes += 1
        if quick or time.perf_counter() - start >= seconds:
            break
    values, absent = tracer.metrics(untraced)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{wl.name}-seed{runner.seed}.npz"
    tracer.save(spans_path)
    units = dict(PER_LAYER)
    return {
        "metrics": {name: (values[name], units[name]) for name, _ in PER_LAYER},
        "absent": absent,
        "extra": {"traced_ops": len(ops), "passes": passes, "spans": len(tracer.spans),
                  "spans_file": str(spans_path.relative_to(ROOT))},
    }


def main(argv) -> int:
    args = parse_args(argv)
    if args.mode != "setup_seed":
        import_package()
    import workloads

    name = workloads.SEED if args.mode == "setup_seed" else workloads.CURRENT
    wl = workloads.WORKLOADS[args.workload].load(workloads.package(name))
    order = wl.block_order(args.seed)
    warmup = wl.warmup_entry(args.seed)
    prepared = wl.prepare(warmup["input"], [args.seed, 0])
    warm_result = wl.run(prepared)
    setup_cpu = time.thread_time()  # since the process started
    warm_error = workloads.mismatch(
        warmup["output"], workloads.normalize(wl.summarize(prepared, warm_result))
    )
    if args.mode.startswith("setup"):
        print(json.dumps({"setup_cpu_s": setup_cpu, "warmup_error": warm_error}))
        return 0

    runner = Runner(wl, workloads, args.seed)
    failures = runner.failures
    if args.mode == "measure":
        seed_wl = type(wl)(wl.entries, workloads.package(workloads.SEED))
        seed_runner = Runner(seed_wl, workloads, args.seed, label="seed implementation ")
        seed_runner.run_op(warmup)
        # the ops of an interleaved pair swap sys.stdout in turn, so the
        # whole measurement writes to a buffer that is then dropped
        with contextlib.redirect_stdout(io.StringIO()):
            body = measure(runner, seed_runner, order, args.seconds, args.quick)
        failures = runner.failures + seed_runner.failures
        body["extra"]["reference_setup_s"] = wl.reference_setup_s
    else:
        body = trace(runner, order, args.seconds, args.quick)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from doscontrol import cli
    import provenance

    with contextlib.redirect_stdout(io.StringIO()):
        repro_exit = cli.main(["repro"])
    if args.mode == "measure":
        body["metrics"]["peak_rss_mb"] = (peak_rss_mb, "MiB")
    print(json.dumps({
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "warmup_error": warm_error,
        "repro_exit": repro_exit,
        "failures": failures[:10],
        "provenance": provenance.record(ROOT),
        **body,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
