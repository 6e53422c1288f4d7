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
import scipy.linalg.lapack

from . import dos, linalg
from .bounds import DerivedConstants, EnvelopeConstants
from .plant import LtiPlant

MODES = ("colocated", "remote", "remote_no_buffer")

TRACE_FORMAT_VERSION = 1
METRICS_FORMAT_VERSION = 1

# Rows per formatted block of the CSV writer, to bound its temporaries: a
# whole 500 s trace at once adds ~35 MiB of peak RSS.
CSV_BLOCK_ROWS = 512

# Most ticks per block that simulate solves and fills at once, and most
# bytes of one block's band matrix, to bound its temporaries.
FILL_BLOCK_TICKS = 512
BAND_BYTES = 2 << 20

# Most sub-step rows (periods x substeps) one run may have.  simulate peaks
# at ~110 B per row of a two-state plant (5.3 MiB under tracemalloc for the
# 500 s benchmark run, 50 000 rows, at skip 0), so the limit keeps a run
# near 1.1 GB.
MAX_ROWS = 10_000_000


class DelayExceedsHorizonError(ValueError):
    """Computation delay consumes the whole packet (skip >= h)."""


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
        for name in ("b", "h", "substeps"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        rows = round(self.horizon / self.delta) * self.substeps
        if rows > MAX_ROWS:
            raise ValueError(
                f"horizon {self.horizon} at delta {self.delta} with "
                f"{self.substeps} substeps is {rows:.3g} rows, above the "
                f"limit of {MAX_ROWS}"
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
            raise DelayExceedsHorizonError(
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


def solve_blocks(n: int, skip: int) -> tuple[int, int]:
    """Ticks per solved block of simulate, and its band's lower width.

    A state of a plant with n states has w = 2n unknowns.  Its row reaches
    w + n - 1 unknowns back, into the tick before; a delivery row reaches
    (skip + 1) w - 1 back when its sample lies in the same block.  A block is
    cut to keep its band within BAND_BYTES; once it is no longer than skip,
    every delivery in it reads an earlier block, and the band narrows.
    """
    w = 2 * n
    kl = max(w + n - 1, (skip + 1) * w - 1)
    ticks = min(FILL_BLOCK_TICKS, BAND_BYTES // (8 * w * (kl + 1)))
    if ticks <= skip:
        kl = w + n - 1
        ticks = min(FILL_BLOCK_TICKS, skip, BAND_BYTES // (8 * w * (kl + 1)))
    return max(ticks, 1), kl


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
    """Summary of one run.  A state norm past the float range reads None."""

    failure_fraction: float
    max_state_norm: float | None
    final_state_norm: float | None
    max_gap: float
    envelope_ok: bool | None
    stable_verdict: bool


# An unstable loop may leave the float range; its trace then carries inf or
# NaN, which compute_metrics reports as divergence, not as a warning.
@np.errstate(over="ignore", invalid="ignore")
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

    n, m, substeps = plant.n, plant.m, config.substeps
    sub_dt = delta / substeps
    a_d, b_d = linalg.zoh_discretize(plant.A, plant.B, delta)
    a_s, be_s = linalg.zoh_discretize(plant.A, np.hstack([plant.B, np.eye(n)]), sub_dt)
    b_s, e_s = be_s[:, :m], be_s[:, m:]

    # Row r sits at tick r // substeps, sub-step r % substeps; the last row
    # is the final tick alone.  Attempts fall on every b-th tick.
    n_rows = n_ticks * substeps + 1
    rows = np.arange(n_rows)
    times = rows // substeps * delta + rows % substeps * sub_dt
    dos_flags = dos.active_mask(dos_signal, np.minimum(times, dos_signal.horizon))
    attempt_flags = rows % (config.b * substeps) == 0
    success_flags = attempt_flags & ~dos_flags

    # One disturbance per sub-step (held from its row to the next) and one
    # measurement noise per successful sample, each stream drawn in order.
    d_seq, n_seq = np.random.SeedSequence(noise.seed).spawn(2)
    dist = np.random.default_rng(d_seq).uniform(
        -noise.d_bound, noise.d_bound, size=(n_rows - 1, n)
    )
    meas = np.random.default_rng(n_seq).uniform(
        -noise.n_bound, noise.n_bound, size=(int(success_flags.sum()), n)
    )
    if noise.decay_at is not None:
        late = times >= noise.decay_at
        dist[late[:-1]] = 0.0
        meas[late[success_flags]] = 0.0

    # One law for every mode: u = K alpha, where alpha rolls the model
    # forward from the last delivered sample y_m one period per tick,
    # alpha = Phi_d^(q - m) y_m with Phi_d = A_d + B_d K, and stops at the
    # packet's last entry, h - 1 periods on.  A sample taken at tick m
    # reaches the actuator at tick m + skip.  Co-located is h = inf with no
    # skip and no buffer; remote applies zero until the first packet.
    colocated = config.mode == "colocated"
    last = math.inf if colocated else config.h - 1
    stored = 0 if colocated else config.h
    skip = 0 if colocated else config.skip
    phi_d = a_d + b_d @ k_mat

    # Sub-step j = 0..S of tick q is A_s^j x_q + W_j u_q + (G d_q)_j with
    # W_j = sum_{i<j} A_s^i B_s and G the block lower-triangular map of the
    # tick's S disturbances, (G d_q)_j = sum_{i<j} A_s^(j-1-i) E_s d_(qS+i).
    # Row S is the next tick's state, so only ticks are solved for; the rows
    # in between get their noise terms now and the rest once their block is.
    powers, feeds = [np.eye(n)], [np.zeros((n, m))]
    for _ in range(substeps):
        feeds.append(a_s @ feeds[-1] + b_s)
        powers.append(a_s @ powers[-1])
    spread = [p @ e_s for p in powers]
    g_map = np.zeros(((substeps + 1) * n, substeps * n))
    for j in range(1, substeps + 1):
        for i in range(j):
            g_map[j * n : (j + 1) * n, i * n : (i + 1) * n] = spread[j - 1 - i]
    xs = np.empty((n_rows, n))
    fill = xs[:-1].reshape(n_ticks, substeps * n)
    dist = dist.reshape(n_ticks, substeps * n)
    np.matmul(dist, g_map[: substeps * n].T, out=fill)

    # The schedule needs no state.  There is at most one success per tick, so
    # the sample taken at tick m reaches the actuator at tick m + skip, and
    # m_q, the last sample delivered by tick q, is a running maximum.
    sampled = np.flatnonzero(success_flags[::substeps])
    arrive = sampled[sampled + skip <= n_ticks] + skip
    # remote: nothing delivered yet, so alpha is held at zero and depth is 0
    m_ticks = np.full(n_ticks + 1, 0 if colocated else -config.h)
    m_ticks[arrive] = arrive - skip
    ages = np.arange(n_ticks + 1) - np.maximum.accumulate(m_ticks)
    # the first tick with a prediction
    first = 0 if colocated else arrive[0] if len(arrive) else n_ticks + 1

    # s_q = [x_q; alpha_q] steps by one of three maps: x by the tick's map
    # under u_q = K alpha_q; alpha by Phi_d while its age is below h - 1
    # (kind 0), else held (kind 1), or not at all when the next tick takes a
    # delivery (kind 2), whose alpha is Phi_d^skip (x_m + n_m) instead.
    w = 2 * n
    steps = np.zeros((3, w, w))
    steps[:, :n, :n] = powers[-1]
    steps[:, :n, n:] = feeds[-1] @ k_mat
    steps[0, n:, n:] = phi_d
    steps[1, n:, n:] = np.eye(n)
    kinds = (ages >= last).astype(np.intp)
    kinds[arrive[arrive > 0] - 1] = 2
    phi_skip = np.linalg.matrix_power(phi_d, skip)

    # All of s_0..s_N solve one unit lower-triangular banded system, block by
    # block: s_(q+1) - step_q s_q = the tick's noise, and at a delivery
    # alpha_q - Phi_d^skip x_(q-skip) = Phi_d^skip n_m.  band[p, j, d] holds
    # the coefficient of unknown p w + j in row p w + j + d (LAPACK's lower
    # band storage, tick by tick).  A term from an earlier block moves to the
    # right-hand side, which states holds until its block is solved in place.
    block, kl = solve_blocks(n, skip)
    r, j = np.indices((w, w)).reshape(2, -1)
    d = w + r - j
    r, j, d = r[d <= kl], j[d <= kl], d[d <= kl]
    templates = np.zeros((3, w, kl + 1))
    templates[:, j, d] = -steps[:, r, j]
    i_n, j_n = np.indices((n, n)).reshape(2, -1)
    reach = skip * w + n + i_n - j_n
    states = np.zeros((n_ticks + 1, w))
    states[0, :n] = x
    np.matmul(dist, g_map[substeps * n :].T, out=states[1:, :n])
    step = np.hstack([
        np.vstack(powers[:-1]), np.vstack([f @ k_mat for f in feeds[:-1]])
    ]).T
    for lo in range(0, n_ticks + 1, block):
        hi = min(lo + block, n_ticks + 1)
        rhs = states[lo:hi]
        if lo:
            rhs[0] += steps[kinds[lo - 1]] @ states[lo - 1]
        due = slice(*np.searchsorted(arrive, (lo, hi)))
        src = arrive[due] - skip
        near = src >= lo
        y = meas[due].copy()
        y[~near] += states[src[~near], :n]
        rhs[arrive[due] - lo, n:] = y @ phi_skip.T
        band = templates[kinds[lo:hi]]
        band[(src[near] - lo)[:, None], j_n, reach] = -phi_skip[i_n, j_n]
        solved, info = scipy.linalg.lapack.dtbtrs(
            band.reshape(-1, kl + 1).T, rhs.reshape(-1, 1), uplo="L", diag="U",
            overwrite_b=True,
        )
        if info != 0:
            raise RuntimeError(f"dtbtrs failed with info {info}")
        rhs[:] = solved.reshape(-1, w)
        fill[lo:hi] += states[:-1][lo:hi] @ step
    xs[-1] = states[-1, :n]
    v = np.einsum("ij,ij->i", xs @ p_mat, xs)
    u_ticks = states[:, n:] @ k_mat.T
    preds = states[:, n:]
    preds[:first] = np.nan
    depths = np.maximum(stored - ages, 0)
    return SimTrace(
        times=times,
        x=xs,
        u=np.repeat(u_ticks, substeps, axis=0)[:n_rows],
        V=v,
        prediction=np.repeat(preds, substeps, axis=0)[:n_rows],
        dos_active=dos_flags,
        attempt=attempt_flags,
        success=success_flags,
        buffer_depth=np.repeat(depths, substeps)[:n_rows],
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
    state to have shrunk to 1e-3 of that scale.  A trace whose state norm
    leaves the float range (an overflowing state, or a NaN from one) has
    diverged: its verdict is unstable and the norms it cannot state are None.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(trace.x, axis=1)
    finite = bool(np.all(np.isfinite(norms)))
    scale = max(float(norms[0]), 1.0) if finite else math.inf
    if divergence_threshold is None:
        divergence_threshold = 1e3 * scale
    if divergence_threshold <= 0.0:
        raise ValueError("divergence_threshold must be > 0")
    z = trace.z
    max_gap = float(np.max(np.diff(z))) if len(z) > 1 else 0.0
    stable = finite and bool(np.max(norms) < divergence_threshold)
    if trace.noise_decay_at is not None:
        stable = stable and float(norms[-1]) <= 1e-3 * scale
    return SimMetrics(
        failure_fraction=1.0 - len(z) / np.count_nonzero(trace.attempt),
        max_state_norm=float(np.max(norms)) if finite else None,
        final_state_norm=float(norms[-1]) if math.isfinite(norms[-1]) else None,
        max_gap=max_gap,
        envelope_ok=envelope_ok,
        stable_verdict=stable,
    )


def trace_to_csv(trace: SimTrace, path) -> None:
    """Write the trace in the versioned CSV layout.

    First line is the version comment '# format: 1', then the header
    t,x1..xn,u1..um,V,dos_active,attempt,success,buffer_depth.  The version
    line ends in LF, the header and every row in CRLF.  t is written with
    %.12g, the other floats with %.16g and the four flags with %d.
    """
    n = trace.x.shape[1]
    m = trace.u.shape[1]
    header = (
        ["t"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"u{j + 1}" for j in range(m)]
        + ["V", "dos_active", "attempt", "success", "buffer_depth"]
    )
    # u and the flag tail arrive as preformatted strings (_held_text, _flag_text)
    row_fmt = ",".join(["%.12g"] + ["%.16g"] * n + ["%s", "%.16g", "%s"]) + "\r\n"
    u_fmt = ",".join(["%.16g"] * m)
    n_rows = len(trace.times)
    cells = np.empty((min(n_rows, CSV_BLOCK_ROWS), n + 4), dtype=object)
    with open(path, "w", newline="") as fh:
        fh.write(f"# format: {TRACE_FORMAT_VERSION}\n")
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n_rows, CSV_BLOCK_ROWS):
            hi = min(lo + CSV_BLOCK_ROWS, n_rows)
            block = cells[: hi - lo]
            block[:, 0] = trace.times[lo:hi]
            block[:, 1 : n + 1] = trace.x[lo:hi]
            block[:, n + 1] = _held_text(trace.u[lo:hi], u_fmt)
            block[:, n + 2] = trace.V[lo:hi]
            block[:, n + 3] = _flag_text(
                trace.dos_active[lo:hi], trace.attempt[lo:hi],
                trace.success[lo:hi], trace.buffer_depth[lo:hi],
            )
            fh.write((row_fmt * (hi - lo)) % tuple(block.ravel().tolist()))


def _held_text(u, fmt) -> np.ndarray:
    """fmt % row for every row of u, formatted once per run of equal rows.

    u is held over each controller period, so most rows repeat the one
    before.  Rows compare by their bits: -0.0 equals 0.0 as a float but
    prints as -0, and a NaN equals no float, not even itself.
    """
    u = np.asarray(u, dtype=float)
    bits = u.view(np.int64)
    starts = np.flatnonzero(
        np.concatenate(([True], np.any(bits[1:] != bits[:-1], axis=1)))
    )
    text = np.array([fmt % tuple(row) for row in u[starts].tolist()], dtype=object)
    return np.repeat(text, np.diff(starts, append=len(u)))


def _flag_text(dos_active, attempt, success, depth) -> np.ndarray:
    """The four-flag tail of every row, formatted once per distinct value."""
    depth = np.asarray(depth, dtype=np.int64)
    code = depth * 8 + dos_active * 4 + attempt * 2 + success
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    tails = zip(*(c[first].tolist() for c in (dos_active, attempt, success, depth)))
    return np.array(["%d,%d,%d,%d" % tail for tail in tails], dtype=object)[inverse]


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
