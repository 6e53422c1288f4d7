"""Closed-loop simulation of the plant under either architecture.

The plant integrates exactly: inputs and (piecewise-constant) disturbances
are held over each sub-step, so advancing the state is one zero-order-hold
discretization per sub-step with no truncation error.  Transmission attempts
run on the period Delta grid and succeed whenever the DoS signal is off;
measurement noise enters only through the samples that actually get through.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import controllers, dos, linalg
from .bounds import DerivedConstants, EnvelopeConstants
from .plant import LtiPlant

MODES = ("colocated", "remote", "remote_no_buffer")

TRACE_FORMAT_VERSION = 1
METRICS_FORMAT_VERSION = 1

# Rows per tolist() call: a whole 500 s trace at once adds ~35 MiB of peak RSS.
CSV_BLOCK_ROWS = 512


@dataclass(frozen=True)
class NoiseSpec:
    """Per-component uniform noise in [-bound, bound], reproducible by seed.

    decay_at, when set, forces disturbance and measurement noise to zero
    from that time on (used to test convergence once perturbations stop).
    """

    d_bound: float = 0.0
    n_bound: float = 0.0
    seed: int = 0
    decay_at: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.d_bound) and self.d_bound >= 0.0):
            raise ValueError(f"d_bound must be finite and >= 0, got {self.d_bound}")
        if not (math.isfinite(self.n_bound) and self.n_bound >= 0.0):
            raise ValueError(f"n_bound must be finite and >= 0, got {self.n_bound}")
        if self.decay_at is not None and not (
            isinstance(self.decay_at, numbers.Real) and math.isfinite(self.decay_at)
        ):
            raise ValueError(
                f"decay_at must be None or a finite number, got {self.decay_at!r}"
            )


@dataclass(frozen=True)
class SimConfig:
    """Timing and architecture choices for one run.

    The controller sampling period is delta = delta_big / b; a transmission
    is attempted every b-th controller period.  mode "remote_no_buffer" is
    the remote architecture pinned to h = 1.  T_c models the time the remote
    unit needs to compute a packet; it is rounded up to whole periods and
    consumes the leading packet entries.
    """

    delta_big: float
    horizon: float
    b: int = 1
    h: int = 1
    substeps: int = 10
    mode: str = "remote"
    T_c: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.delta_big) and self.delta_big > 0.0):
            raise ValueError(f"delta_big must be finite and > 0, got {self.delta_big}")
        if not math.isfinite(self.horizon):
            raise ValueError(f"horizon must be finite, got {self.horizon}")
        if self.b < 1:
            raise ValueError(f"b must be >= 1, got {self.b}")
        if self.substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {self.substeps}")
        if self.horizon < self.delta_big:
            raise ValueError(
                f"horizon {self.horizon} shorter than one period {self.delta_big}"
            )
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "remote_no_buffer":
            object.__setattr__(self, "h", 1)
        if self.h < 1:
            raise ValueError(f"h must be >= 1, got {self.h}")
        if self.T_c < 0.0:
            raise ValueError(f"T_c must be >= 0, got {self.T_c}")
        if self.skip >= self.h and self.mode != "colocated":
            raise controllers.DelayExceedsHorizonError(
                f"T_c={self.T_c} consumes {self.skip} of {self.h} packet entries"
            )

    @property
    def delta(self) -> float:
        return self.delta_big / self.b

    @property
    def skip(self) -> int:
        if self.T_c == 0.0:
            return 0
        return int(math.ceil(self.T_c / self.delta - 1e-9))


@dataclass(frozen=True)
class SimTrace:
    """Everything a run produced, on the delta/substeps grid.

    attempt/success flags mark the rows that coincide with transmission
    attempts; z lists the successful times.  prediction carries the state
    estimate behind the input applied at each row (NaN before the first
    packet in remote mode).
    """

    times: np.ndarray
    x: np.ndarray
    u: np.ndarray
    V: np.ndarray
    prediction: np.ndarray
    dos_active: np.ndarray
    attempt: np.ndarray
    success: np.ndarray
    buffer_depth: np.ndarray
    z: np.ndarray
    delta: float
    delta_big: float
    substeps: int
    noise_decay_at: float | None


@dataclass(frozen=True)
class SimMetrics:
    failure_fraction: float
    max_state_norm: float
    final_state_norm: float
    max_gap: float
    envelope_ok: bool | None
    stable_verdict: bool


def simulate(
    plant: LtiPlant,
    K,
    config: SimConfig,
    dos_signal: dos.DoSSignal,
    noise: NoiseSpec,
    x0,
    P=None,
) -> SimTrace:
    """Run one closed loop and return its trace.

    Deterministic for fixed seeds: disturbance and measurement noise come
    from two independent streams spawned from noise.seed.  The V column uses
    the supplied Lyapunov weight P (identity when omitted).  The horizon
    must be a whole number of controller periods and must not exceed the DoS
    signal's own horizon.
    """
    k_mat = linalg.as_matrix(K, "K")
    if k_mat.shape != (plant.m, plant.n):
        raise ValueError(f"K must be {plant.m}x{plant.n}, got {k_mat.shape}")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (plant.n,):
        raise ValueError(f"x0 must have {plant.n} entries, got shape {x.shape}")
    delta = config.delta
    n_ticks = int(round(config.horizon / delta))
    if abs(n_ticks * delta - config.horizon) > 1e-9 * max(1.0, config.horizon):
        raise ValueError(
            f"horizon {config.horizon} is not a whole number of periods {delta}"
        )
    if dos_signal.horizon < config.horizon - 1e-12:
        raise ValueError(
            f"DoS signal horizon {dos_signal.horizon} shorter than run "
            f"horizon {config.horizon}"
        )
    if P is None:
        p_mat = np.eye(plant.n)
    else:
        p_mat = linalg.as_matrix(P, "P")
        if p_mat.shape != (plant.n, plant.n):
            raise ValueError(f"P must be {plant.n}x{plant.n}, got {p_mat.shape}")

    sub_dt = delta / config.substeps
    a_d, b_d = linalg.zoh_discretize(plant.A, plant.B, delta)
    a_s, be_s = linalg.zoh_discretize(
        plant.A, np.hstack([plant.B, np.eye(plant.n)]), sub_dt
    )
    b_s, e_s = be_s[:, : plant.m], be_s[:, plant.m :]

    # Row r sits at tick r // substeps, sub-step r % substeps; the last row
    # is the final tick alone.  Attempts fall on every b-th tick.
    n_rows = n_ticks * config.substeps + 1
    rows = np.arange(n_rows)
    times = rows // config.substeps * delta + rows % config.substeps * sub_dt
    dos_flags = dos.active_mask(dos_signal, np.minimum(times, dos_signal.horizon))
    attempt_flags = rows % (config.b * config.substeps) == 0
    success_flags = attempt_flags & ~dos_flags

    # One disturbance per sub-step (held from its row to the next) and one
    # measurement noise per successful sample, each stream drawn in order.
    d_seq, n_seq = np.random.SeedSequence(noise.seed).spawn(2)
    dist = np.random.default_rng(d_seq).uniform(
        -noise.d_bound, noise.d_bound, size=(n_rows - 1, plant.n)
    )
    meas = np.random.default_rng(n_seq).uniform(
        -noise.n_bound, noise.n_bound, size=(int(success_flags.sum()), plant.n)
    )
    if noise.decay_at is not None:
        late = times >= noise.decay_at
        dist[late[:-1]] = 0.0
        meas[late[success_flags]] = 0.0
    samples = iter(meas)

    xs = np.empty((n_rows, plant.n))
    us = np.empty((n_rows, plant.m))
    preds = np.full((n_rows, plant.n), np.nan)
    depths = np.zeros(n_rows, dtype=int)

    # One law for every mode: u = K alpha, where alpha rolls the model
    # forward from the last delivered sample y_m one period per tick and
    # stops at the packet's last entry, h - 1 periods on.  A sample taken at
    # tick m reaches the actuator at tick m + skip.  Co-located is h = inf
    # with no skip and no buffer; remote applies zero until the first packet.
    colocated = config.mode == "colocated"
    last = math.inf if colocated else config.h - 1
    stored = 0 if colocated else config.h
    skip = 0 if colocated else config.skip
    alpha = np.zeros(plant.n) if colocated else None
    age = 0
    pending = []  # (tick, sample) per success, delivered in order
    delivered = 0

    for q in range(n_ticks + 1):
        lo, hi = q * config.substeps, (q + 1) * config.substeps
        if success_flags[lo]:
            pending.append((q, x + next(samples)))
        if delivered < len(pending) and pending[delivered][0] + skip <= q:
            m, alpha = pending[delivered]
            delivered += 1
            for _ in range(q - m):
                alpha = a_d @ alpha + b_d @ (k_mat @ alpha)
            age = q - m
        if alpha is None:
            u = np.zeros(plant.m)
        else:
            u = k_mat @ alpha
            preds[lo:hi] = alpha
            depths[lo:hi] = max(stored - age, 0)
        us[lo:hi] = u
        bu = b_s @ u
        for r in range(lo, min(hi, n_rows - 1)):
            xs[r] = x
            x = a_s @ x + bu + e_s @ dist[r]
        if alpha is not None:
            if age < last:
                alpha = a_d @ alpha + b_d @ u
            age += 1
    xs[-1] = x

    v = np.einsum("ij,jk,ik->i", xs, p_mat, xs)
    return SimTrace(
        times=times,
        x=xs,
        u=us,
        V=v,
        prediction=preds,
        dos_active=dos_flags,
        attempt=attempt_flags,
        success=success_flags,
        buffer_depth=depths,
        z=times[success_flags],
        delta=delta,
        delta_big=config.delta_big,
        substeps=config.substeps,
        noise_decay_at=noise.decay_at,
    )


def check_envelope(
    trace: SimTrace,
    env: EnvelopeConstants,
    consts: DerivedConstants,
    w_inf: float,
) -> bool:
    """Verify the exponential envelope on V at every successful transmission.

    The envelope decays at rate min(beta, omega1): beta is below omega1
    exactly when the buffer does not cover the worst-case gap (the regime it
    was derived for), and when the buffer does cover it the loop decays at
    omega1 between successes, so the clamped rate is valid in both regimes.
    The trace must carry V computed with the same weight P as ``consts``.
    """
    if len(trace.z) == 0:
        raise ValueError("trace has no successful transmissions")
    if w_inf < 0.0:
        raise ValueError(f"w_inf must be >= 0, got {w_inf}")
    v_z = trace.V[trace.success]
    z0 = trace.z[0]
    v0 = v_z[0]
    rate = min(env.beta, consts.omega1)
    zeta = (
        2.0
        * max(consts.zeta1, consts.zeta2)
        * math.exp(consts.omega2 * (env.Q + trace.delta_big - env.h_delta))
        * w_inf**2
    )
    tail = 2.0 * zeta / (1.0 - env.L)
    bound = env.lam * np.exp(-rate * (trace.z - z0)) * v0 + tail
    slack = 1e-9
    return bool(np.all(v_z <= bound * (1.0 + slack) + slack * max(1.0, v0)))


def compute_metrics(
    trace: SimTrace,
    divergence_threshold: float | None = None,
    envelope_ok: bool | None = None,
) -> SimMetrics:
    """Summary statistics and the stability verdict for one trace.

    The default divergence threshold is 1000 * max(||x0||, 1).  When the
    noise was configured to decay, stability additionally requires the final
    state to have shrunk to 1e-3 of that scale.
    """
    norms = np.linalg.norm(trace.x, axis=1)
    x0_norm = float(norms[0])
    scale = max(x0_norm, 1.0)
    if divergence_threshold is None:
        divergence_threshold = 1e3 * scale
    if divergence_threshold <= 0.0:
        raise ValueError("divergence_threshold must be > 0")
    z = trace.z
    max_gap = float(np.max(np.diff(z))) if len(z) > 1 else 0.0
    stable = bool(np.max(norms) < divergence_threshold)
    if trace.noise_decay_at is not None:
        stable = stable and float(norms[-1]) <= 1e-3 * scale
    return SimMetrics(
        failure_fraction=1.0 - len(z) / np.count_nonzero(trace.attempt),
        max_state_norm=float(np.max(norms)),
        final_state_norm=float(norms[-1]),
        max_gap=max_gap,
        envelope_ok=envelope_ok,
        stable_verdict=stable,
    )


def trace_to_csv(trace: SimTrace, path) -> None:
    """Write the trace in the versioned CSV layout.

    First line is the version comment '# format: 1', then the header
    t,x1..xn,u1..um,V,dos_active,attempt,success,buffer_depth.  The version
    line ends in LF, the header and every row in CRLF.
    """
    n = trace.x.shape[1]
    m = trace.u.shape[1]
    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"u{j + 1}" for j in range(m)]
        + ["V", "dos_active", "attempt", "success", "buffer_depth"]
    )
    row_fmt = ",".join(["%.12g"] + ["%.16g"] * (n + m + 1) + ["%d"] * 4) + "\r\n"
    columns = (
        trace.times, trace.x, trace.u, trace.V,
        trace.dos_active, trace.attempt, trace.success, trace.buffer_depth,
    )
    with open(path, "w", newline="") as fh:
        fh.write(f"# format: {TRACE_FORMAT_VERSION}\n")
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(trace.times), CSV_BLOCK_ROWS):
            block = np.column_stack([c[lo : lo + CSV_BLOCK_ROWS] for c in columns])
            fh.write("".join(row_fmt % tuple(row) for row in block.tolist()))


def metrics_to_dict(metrics: SimMetrics) -> dict:
    """JSON-ready metrics record with its format version."""
    return {
        "format": METRICS_FORMAT_VERSION,
        "failure_fraction": metrics.failure_fraction,
        "max_state_norm": metrics.max_state_norm,
        "final_state_norm": metrics.final_state_norm,
        "max_gap": metrics.max_gap,
        "envelope_ok": metrics.envelope_ok,
        "stable_verdict": metrics.stable_verdict,
    }
