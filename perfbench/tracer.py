"""Span recorder for the traced run.

The traced run measures each layer from the outside: it rebinds the public
functions listed in ``TRACED`` to wrappers that record one span per call
(name, start, end, parent span, operation id), on their module and, where
``cli`` imported the name directly, in ``cli`` too.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the
durations of its direct children.  A few hooks count work where it happens:
distinct Lyapunov problems, packet entries built and replayed, trace rows
and CSV bytes.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np

from doscontrol import bounds, cli, controllers, dos, linalg, plant, simulation

MODULES = {
    "linalg": linalg,
    "bounds": bounds,
    "dos": dos,
    "controllers": controllers,
    "simulation": simulation,
    "cli": cli,
}
TRACED = {
    "linalg": ("solve_lyapunov", "zoh_discretize"),
    "bounds": (
        "derive_constants", "max_sampling_period", "min_prediction_horizon",
        "tolerable_dos_bound", "decay_envelope",
    ),
    "dos": (
        "generate", "active_at", "fit_class_params", "check_gap_bound",
        "successful_transmissions", "dos_measure", "transitions_count",
        "success_gap_bound",
    ),
    "controllers": (
        "build_packet", "colocated_step", "deliver_packet", "buffer_output",
        "buffer_depth", "buffer_prediction",
    ),
    "simulation": ("simulate", "trace_to_csv", "check_envelope", "compute_metrics"),
    "cli": ("load_config", "main"),
}
# The LtiPlant span times its constructor's validation (__post_init__).
PLANT_SPAN = "plant.LtiPlant"
# The five closed-form bound functions a certification evaluates after
# derive_constants, reported together.
CHAIN = (
    "bounds.max_sampling_period", "dos.success_gap_bound",
    "bounds.min_prediction_horizon", "bounds.tolerable_dos_bound",
    "bounds.decay_envelope",
)
BUFFER = (
    "controllers.deliver_packet", "controllers.buffer_output",
    "controllers.buffer_depth", "controllers.buffer_prediction",
)
FIT_LABELS = ("n40", "n400", "n1500")

# Every per-layer metric with its unit; the traced run reports all of them.
PER_LAYER = (
    ("linalg.solve_lyapunov.calls", "1/op"),
    ("linalg.solve_lyapunov.self_ms", "ms"),
    ("linalg.solve_lyapunov.useful_ratio", "1"),
    ("linalg.zoh_discretize.calls", "1/op"),
    ("linalg.zoh_discretize.self_ms", "ms"),
    ("plant.LtiPlant.self_ms", "ms"),
    ("bounds.derive_constants.self_ms", "ms"),
    ("bounds.chain.self_ms", "ms"),
    ("dos.generate.self_ms", "ms"),
    ("dos.active_at.calls", "1/op"),
    ("dos.active_at.self_ms", "ms"),
    *((f"dos.fit_class_params.self_ms.{label}", "ms") for label in FIT_LABELS),
    ("dos.check_gap_bound.self_ms", "ms"),
    ("dos.successful_transmissions.self_ms", "ms"),
    ("dos.dos_measure.self_ms", "ms"),
    ("controllers.build_packet.calls", "1/op"),
    ("controllers.build_packet.self_ms", "ms"),
    ("controllers.colocated_step.self_ms", "ms"),
    ("controllers.buffer.self_ms", "ms"),
    ("controllers.packet_use_ratio", "1"),
    ("simulation.simulate.self_ms", "ms"),
    ("simulation.simulate.rows", "rows/op"),
    ("simulation.simulate.us_per_row", "us"),
    ("simulation.trace_to_csv.self_ms", "ms"),
    ("simulation.trace_to_csv.rows", "rows/op"),
    ("simulation.trace_to_csv.bytes", "B/op"),
    ("simulation.check_envelope.self_ms", "ms"),
    ("simulation.compute_metrics.self_ms", "ms"),
    ("cli.load_config.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("trace.overhead_frac", "1"),
    ("trace.unattributed_frac", "1"),
)


class Tracer:
    """Records spans while installed; ``begin_op``/``end_op`` bracket an op."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (name id, start, end, parent, op)
        self._stack: list[int] = []
        self._op = [-1]
        self._undo: list[tuple] = []
        self.op_wall: dict[int, float] = {}
        self.op_label: dict[int, str] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self._lyapunov_problems: set[bytes] = set()
        self._replays: list[tuple] = []  # (ActuatorBuffer, t) per buffer_output

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        hooks = {
            "linalg.solve_lyapunov": self._on_lyapunov,
            "controllers.build_packet": self._on_packet,
            "controllers.buffer_output": self._on_buffer_output,
            "simulation.simulate": self._on_simulate,
            "simulation.trace_to_csv": self._on_csv,
        }
        for prefix, attrs in TRACED.items():
            module = MODULES[prefix]
            for attr in attrs:
                original = getattr(module, attr)
                wrapper = self._wrap(f"{prefix}.{attr}", original, hooks.get(f"{prefix}.{attr}"))
                self._rebind(module, attr, wrapper)
                if module is not cli and getattr(cli, attr, None) is original:
                    self._rebind(cli, attr, wrapper)
        cls = plant.LtiPlant
        self._rebind(cls, "__post_init__", self._wrap(PLANT_SPAN, cls.__post_init__))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, hook=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, op, clock = self.spans, self._stack, self._op, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, op[0])
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- counting hooks ---------------------------------------------------
    def _on_lyapunov(self, args, result):
        phi, m = (np.asarray(a, dtype=float) for a in args[:2])
        self._lyapunov_problems.add(phi.tobytes() + m.tobytes())

    def _on_packet(self, args, packet):
        self.counts["entries_built"] += packet.h

    def _on_buffer_output(self, args, result):
        buffer, t = args[0], args[1]
        if buffer.packet is not None:
            self._replays.append((buffer, t))

    def _on_simulate(self, args, trace):
        self.counts["simulate_rows"] += len(trace.times)

    def _on_csv(self, args, result):
        trace, path = args[0], args[1]
        self.counts["csv_rows"] += len(trace.times)
        self.counts["csv_bytes"] += os.path.getsize(path)

    # -- operations -------------------------------------------------------
    def begin_op(self, op_id: int, label: str) -> None:
        self._op[0] = op_id
        self.op_label[op_id] = label

    def end_op(self, op_id: int, wall: float) -> None:
        self.op_wall[op_id] = wall
        self._op[0] = -1
        # distinct Lyapunov problems and replayed packet entries, per op
        self.counts["lyapunov_distinct"] += len(self._lyapunov_problems)
        self._lyapunov_problems.clear()
        used = set()
        for buffer, t in self._replays:
            slot = min(controllers.playback_index(buffer, t), buffer.packet.h - 1)
            used.add((id(buffer.packet), slot))
        self.counts["entries_replayed"] += len(used)
        self._replays.clear()

    # -- report -----------------------------------------------------------
    def metrics(self, untraced_wall: float) -> tuple[dict[str, float], list[str]]:
        """Every PER_LAYER value, and the names of layers that did not run.

        Values are per traced operation unless the unit says otherwise.  A
        layer that did not run is reported as 0 and listed as absent.
        """
        spans = np.array(self.spans, dtype=float).reshape(-1, 5)
        name_id = spans[:, 0].astype(int)
        duration = spans[:, 2] - spans[:, 1]
        parent = spans[:, 3].astype(int)
        op = spans[:, 4].astype(int)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=len(spans))
        self_time = duration - child_time
        n_names = len(self.names)
        calls = np.bincount(name_id, minlength=n_names)
        self_total = np.bincount(name_id, weights=self_time, minlength=n_names)
        ids = {name: i for i, name in enumerate(self.names)}
        n_ops = len(self.op_wall)
        traced_wall = sum(self.op_wall.values())

        def n_calls(*names):
            return int(sum(calls[ids[nm]] for nm in names))

        def self_ms(*names):
            return float(sum(self_total[ids[nm]] for nm in names)) * 1e3 / n_ops

        def ratio(num, den):
            return num / den if den else 0.0

        values, absent = {}, []

        def put(metric, value, ran):
            values[metric] = float(value)
            if not ran:
                absent.append(metric)

        for nm in ("linalg.solve_lyapunov", "linalg.zoh_discretize", "dos.active_at",
                   "controllers.build_packet"):
            put(f"{nm}.calls", n_calls(nm) / n_ops, n_calls(nm))
        for nm in ("linalg.solve_lyapunov", "linalg.zoh_discretize", PLANT_SPAN,
                   "bounds.derive_constants", "dos.generate", "dos.active_at",
                   "dos.check_gap_bound", "dos.successful_transmissions",
                   "dos.dos_measure", "controllers.build_packet",
                   "controllers.colocated_step", "simulation.simulate",
                   "simulation.trace_to_csv", "simulation.check_envelope",
                   "simulation.compute_metrics", "cli.load_config", "cli.main"):
            put(f"{nm}.self_ms", self_ms(nm), n_calls(nm))
        put("bounds.chain.self_ms", self_ms(*CHAIN), n_calls(*CHAIN))
        put("controllers.buffer.self_ms", self_ms(*BUFFER), n_calls(*BUFFER))

        lyap = n_calls("linalg.solve_lyapunov")
        put("linalg.solve_lyapunov.useful_ratio",
            ratio(self.counts["lyapunov_distinct"], lyap), lyap)
        built = self.counts["entries_built"]
        put("controllers.packet_use_ratio",
            ratio(self.counts["entries_replayed"], built), built)

        fit = name_id == ids["dos.fit_class_params"]
        for label in FIT_LABELS:
            ops = [o for o, lb in self.op_label.items() if lb == label]
            in_label = fit & np.isin(op, ops)
            put(f"dos.fit_class_params.self_ms.{label}",
                ratio(self_time[in_label].sum() * 1e3, len(ops)), in_label.any())

        rows = self.counts["simulate_rows"]
        put("simulation.simulate.rows", rows / n_ops, rows)
        put("simulation.simulate.us_per_row",
            ratio(self_total[ids["simulation.simulate"]] * 1e6, rows), rows)
        csv_rows = self.counts["csv_rows"]
        put("simulation.trace_to_csv.rows", csv_rows / n_ops, csv_rows)
        put("simulation.trace_to_csv.bytes", self.counts["csv_bytes"] / n_ops, csv_rows)

        put("trace.overhead_frac", traced_wall / untraced_wall - 1.0, True)
        covered = duration[~nested & (op >= 0)].sum()
        put("trace.unattributed_frac", 1.0 - covered / traced_wall, True)
        return values, absent

    def save(self, path) -> None:
        """Write the spans out (compressed numpy archive)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            spans=np.array(self.spans, dtype=float).reshape(-1, 5),
            op_id=np.array(list(self.op_wall), dtype=int),
            op_wall=np.array(list(self.op_wall.values())),
            op_label=np.array([self.op_label[o] for o in self.op_wall]),
        )
