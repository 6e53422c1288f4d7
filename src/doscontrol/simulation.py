"""Closed-loop simulation of the plant under either architecture.

The plant integrates exactly: inputs and (piecewise-constant) disturbances
are held over each sub-step, so advancing the state is one zero-order-hold
discretization per sub-step with no truncation error.  Transmission attempts
run on the period Delta grid and succeed whenever the DoS signal is off;
measurement noise enters only through the samples that actually get through.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg.lapack
from numpy.lib.stride_tricks import sliding_window_view

from . import dos, linalg
from .bounds import DerivedConstants, EnvelopeConstants
from ._tracecsv import csv_rows, flag_tails
from .plant import LtiPlant

MODES = ("colocated", "remote")

TRACE_FORMAT_VERSION = 1
METRICS_FORMAT_VERSION = 1

# Rows per formatted block of the CSV writer, to bound its temporaries: 1.0
# MiB at 2048 rows under tracemalloc, for a two-state plant, and 2.0 MiB at
# 4096.  Each block pays ~0.1 ms of fixed array-call costs, so short blocks
# cost time, and long ones page faults: glibc returns a long block's freed
# temporaries to the kernel and maps them afresh.  Over a 500 s run
# (ru_minflt, 2-vCPU VM) 2048-row blocks take no minor fault, in the main
# thread or in another; 4096-row blocks none in the main thread but ~6 000
# in another, as the benchmark runs its ops, and 8192-row blocks ~2 800 and
# ~6 500.  A 2048-row block takes ~1.0 ms there (~24 ms for the run), and
# writing a 500 s run's CSV raises its peak RSS by ~0.5 MiB.
CSV_BLOCK_ROWS = 2048

# Most ticks per block that simulate solves and fills at once, and most
# bytes of one block's band matrix, to bound its temporaries.
FILL_BLOCK_TICKS = 512
BAND_BYTES = 2 << 20

# Most sub-step rows (periods x substeps) one run may have, and most entries
# of its noise map, (substeps + 1) substeps n^2 of them.  Per row a run of a
# two-state plant peaks at ~44 B when only its x and z are read (2.1 MiB
# under tracemalloc for the 500 s benchmark run, 50 000 rows, at skip 0),
# and at ~80 B once every row column is read (3.8 MiB), so the rows keep a
# run near 0.8 GB; the map, 8 B an entry, adds at most 80 MB.
MAX_ROWS = 10_000_000

# Most tick models (_tick_model) simulate keeps: one per plant, K, delta,
# substeps and skip, so a sweep of one design over buffer lengths and
# attack loads needs one entry per computation delay.
_TICK_MODELS = 16


class DelayExceedsHorizonError(ValueError):
    """Computation delay consumes the whole packet (skip >= h)."""


def _check_integer(name: str, value, least: int) -> None:
    """Refuse all but an integer >= least: numpy integers pass, bool does not."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


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
        _check_integer("seed", self.seed, 0)
        for name in ("d_bound", "n_bound"):
            bound = getattr(self, name)
            # noise is drawn from [-bound, bound], whose width must be finite
            if not (math.isfinite(2.0 * bound) and bound >= 0.0):
                raise ValueError(f"{name} must be >= 0, 2*{name} finite, got {bound}")
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
    is attempted every b-th controller period.  Remote control without a
    buffer is mode "remote" at h = 1.  T_c models the time the remote unit
    needs to compute a packet; it is rounded up to whole periods and
    consumes the leading packet entries.  A run is ticks whole periods, at
    most MAX_ROWS sub-step rows (ticks * substeps).
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
            _check_integer(name, getattr(self, name), 1)
        if not (math.isfinite(self.delta_big) and self.delta_big > 0.0):
            raise ValueError(f"delta_big must be finite and > 0, got {self.delta_big}")
        if not math.isfinite(self.horizon):
            raise ValueError(f"horizon must be finite, got {self.horizon}")
        if self.horizon < self.delta_big:
            raise ValueError(
                f"horizon {self.horizon} shorter than one period {self.delta_big}"
            )
        # the row limit first: delta may underflow, horizon / delta overflow
        periods = self.horizon / self.delta if self.delta > 0.0 else math.inf
        rows = math.inf if math.isinf(periods) else float(round(periods)) * self.substeps
        if rows > MAX_ROWS:
            raise ValueError(
                f"a run of {self.horizon} s in periods of {self.delta} s with "
                f"{self.substeps} substeps is {rows:.3g} rows, above the limit "
                f"of {MAX_ROWS}"
            )
        if abs(self.ticks * self.delta - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise ValueError(
                f"horizon {self.horizon} is not a whole number of periods {self.delta}"
            )
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (math.isfinite(self.T_c / self.delta) and self.T_c >= 0.0):
            raise ValueError(f"T_c must be finite and >= 0 in periods, got {self.T_c}")
        if self.skip >= self.h and self.mode != "colocated":
            raise DelayExceedsHorizonError(
                f"T_c={self.T_c} consumes {self.skip} of {self.h} packet entries"
            )

    @property
    def delta(self) -> float:
        return self.delta_big / self.b

    @property
    def ticks(self) -> int:
        return round(self.horizon / self.delta)

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


def _check_noise_map(n: int, substeps: int) -> None:
    """Refuse a noise map of more than MAX_ROWS entries before it allocates."""
    entries = (substeps + 1) * substeps * n * n
    if entries > MAX_ROWS:
        raise ValueError(
            f"substeps {substeps} give a plant of {n} states a noise map of "
            f"(substeps + 1) substeps n^2 = {entries} entries, above the limit "
            f"of {MAX_ROWS}"
        )


@functools.lru_cache(maxsize=_TICK_MODELS)
def _tick_model(a: bytes, b: bytes, k: bytes, n: int, m: int, delta: float,
                substeps: int, skip: int) -> tuple:
    """What simulate builds from the design alone, as read-only arrays.

    A, B and K come by value, as the bytes of their float64 entries, so an
    equal plant finds its entry and a gain changed in place does not.  The
    sub-step of length delta / S has A_s, B_s and, for the disturbance, E_s.
    Returns:

    - steps: the three maps of s_q = [x_q; alpha_q] to s_(q+1).  x steps by
      [A_s^S, W_S K] with W_j = sum_(i<j) A_s^i B_s; alpha by Phi_d (kind 0),
      is held (kind 1), or is left to the delivery row (kind 2).  Sub-step
      j of tick q is then A_s^j x_q + W_j u_q + (G d_q)_j.
    - step: s_q to the sub-step rows j = 0..S-1 of tick q, [A_s^j, W_j K]
      stacked by columns and transposed.
    - windows: G, the noise map of a tick's S disturbances, as a read-only
      (S + 1, n, S, n) view whose one reshape copies out G.  Sub-step j =
      0..S of tick q takes (G d_q)_j = sum_(i<j) A_s^(j-1-i) E_s d_(qS+i),
      so block (j, i) of G is A_s^(j-1-i) E_s below the diagonal and zero
      elsewhere: block row j is the window at S - j of the read-only stack
      of S zero blocks and E_s, A_s E_s, ..., A_s^(S-1) E_s (2 S n^2
      entries), read backwards.
    - phi_skip, Phi_d^skip, and solve_blocks(n, skip).
    - templates: the band of each tick map (see simulate).
    - reach: the flat offsets, within a tick's band, and the coefficients
      of a delivery's -Phi_d^skip x_(q-skip) term when its sample lies in
      the same block.
    """
    a_mat, b_mat, k_mat = (
        np.frombuffer(data).reshape(shape)
        for data, shape in ((a, (n, n)), (b, (n, m)), (k, (m, n)))
    )
    a_d, b_d = linalg.zoh_discretize(a_mat, b_mat, delta)
    a_s, be_s = linalg.zoh_discretize(a_mat, np.hstack([b_mat, np.eye(n)]),
                                      delta / substeps)
    b_s, e_s = be_s[:, :m], be_s[:, m:]
    phi_d = a_d + b_d @ k_mat
    powers, feeds = [np.eye(n)], [np.zeros((n, m))]
    for _ in range(substeps):
        feeds.append(a_s @ feeds[-1] + b_s)
        powers.append(a_s @ powers[-1])
    stack = np.concatenate([np.zeros((substeps, n, n)),
                            np.stack([p @ e_s for p in powers[:-1]])])
    stack.flags.writeable = False
    windows = sliding_window_view(stack[::-1], substeps, axis=0)[::-1]
    windows = windows.transpose(0, 1, 3, 2)
    step = np.hstack([
        np.vstack(powers[:-1]), np.vstack([f @ k_mat for f in feeds[:-1]])
    ]).T

    w = 2 * n
    steps = np.zeros((3, w, w))
    steps[:, :n, :n] = powers[-1]
    steps[:, :n, n:] = feeds[-1] @ k_mat
    steps[0, n:, n:] = phi_d
    steps[1, n:, n:] = np.eye(n)
    phi_skip = np.linalg.matrix_power(phi_d, skip)

    block, kl = solve_blocks(n, skip)
    r, j = np.indices((w, w)).reshape(2, -1)
    d = w + r - j
    r, j, d = r[d <= kl], j[d <= kl], d[d <= kl]
    templates = np.zeros((3, w, kl + 1))
    templates[:, j, d] = -steps[:, r, j]
    i_n, j_n = np.indices((n, n)).reshape(2, -1)
    reach = (j_n * (kl + 1) + skip * w + n + i_n - j_n, -phi_skip[i_n, j_n])
    for array in (steps, step, phi_skip, templates, *reach):
        array.flags.writeable = False
    return steps, step, windows, phi_skip, (block, kl), templates, reach


def _row_times(delta: float, substeps: int, tick, sub) -> np.ndarray:
    """The time of sub-step row r = q S + j, q = tick and j = sub: q delta
    + j delta / S.  Row q S is q delta + 0.0, the same float as tick q's
    time.  The last row of a run is its final tick alone."""
    return tick * delta + sub * (delta / substeps)


@dataclass(frozen=True)
class SimTrace:
    """Everything a run produced, on the delta/substeps grid.

    attempt/success flags mark the rows that coincide with transmission
    attempts; z lists the successful times.  prediction carries the state
    estimate behind the input applied at each row (NaN before the first
    packet in remote mode).

    The row columns times, u, V, prediction, dos_active, attempt, success
    and buffer_depth are built on first read, each on its own, from x and
    the run's tick record, and kept: a run whose caller reads x and z alone
    never builds them.  The tick record is the private fields: _states
    holds s_q = [x_q; alpha_q] for every tick q (see simulate), _K and _P
    copies of the run's gain and Lyapunov weight, _depths the buffer depth
    at each tick (0 co-located), _first the first tick with a prediction,
    _attempts and _successes the ticks that attempt a transmission and
    those whose attempt got through, and _signal the run's DoS signal.
    """

    x: np.ndarray
    z: np.ndarray
    delta: float
    delta_big: float
    substeps: int
    noise_decay_at: float | None
    _states: np.ndarray = field(repr=False)
    _K: np.ndarray = field(repr=False)
    _P: np.ndarray = field(repr=False)
    _depths: np.ndarray = field(repr=False)
    _first: int = field(repr=False)
    _attempts: np.ndarray = field(repr=False)
    _successes: np.ndarray = field(repr=False)
    _signal: dos.DoSSignal = field(repr=False)

    @np.errstate(over="ignore", invalid="ignore")
    def _tick_inputs(self) -> np.ndarray:
        """The input u_q = K alpha_q at each tick (inf or NaN once diverged)."""
        return self._states[:, self.x.shape[1] :] @ self._K.T

    def _on_rows(self, per_tick: np.ndarray) -> np.ndarray:
        """A per-tick array held over each tick's sub-step rows."""
        return np.repeat(per_tick, self.substeps, axis=0)[: len(self.x)]

    def _first_rows(self, per_tick: np.ndarray) -> np.ndarray:
        """Per-tick flags on each tick's first row, the other rows False."""
        flags = np.zeros(len(self.x), dtype=bool)
        flags[:: self.substeps] = per_tick
        return flags

    @functools.cached_property
    def times(self) -> np.ndarray:
        rows = np.arange(len(self.x))
        return _row_times(self.delta, self.substeps, *np.divmod(rows, self.substeps))

    @functools.cached_property
    def dos_active(self) -> np.ndarray:
        signal = self._signal
        return dos.active_mask(signal, np.minimum(self.times, signal.horizon))

    @functools.cached_property
    def attempt(self) -> np.ndarray:
        return self._first_rows(self._attempts)

    @functools.cached_property
    def success(self) -> np.ndarray:
        return self._first_rows(self._successes)

    @functools.cached_property
    def u(self) -> np.ndarray:
        return self._on_rows(self._tick_inputs())

    @functools.cached_property
    def prediction(self) -> np.ndarray:
        preds = self._states[:, self.x.shape[1] :].copy()
        preds[: self._first] = np.nan
        return self._on_rows(preds)

    @functools.cached_property
    def buffer_depth(self) -> np.ndarray:
        return self._on_rows(self._depths)

    # a diverged run's state holds inf or NaN (see simulate)
    @functools.cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def V(self) -> np.ndarray:
        # x' P x row by row, as a left fold of its columns
        xs = self.x
        weighted = xs @ self._P
        v = weighted[:, 0] * xs[:, 0]
        for j in range(1, xs.shape[1]):
            v += weighted[:, j] * xs[:, j]
        return v


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
    the supplied Lyapunov weight P (identity when omitted).  The run covers
    config.ticks controller periods; its horizon must not exceed the DoS
    signal's own horizon.
    """
    k_mat = linalg.as_matrix(K, "K")
    if k_mat.shape != (plant.m, plant.n):
        raise ValueError(f"K must be {plant.m}x{plant.n}, got {k_mat.shape}")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (plant.n,):
        raise ValueError(f"x0 must have {plant.n} entries, got shape {x.shape}")
    delta, n_ticks = config.delta, config.ticks
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
    _check_noise_map(n, substeps)
    # Row r sits at tick r // substeps, sub-step r % substeps (_row_times).
    # Attempt k, on tick k b, is decided at min(k Delta, signal horizon) as the
    # DoS audit decides it (at b = 1 tick k's time); it samples at the tick.
    n_rows = n_ticks * substeps + 1
    attempt_ticks = np.zeros(n_ticks + 1, dtype=bool)
    success_ticks = np.zeros(n_ticks + 1, dtype=bool)
    on_grid = slice(None, None, config.b)
    attempt_ticks[on_grid] = True
    success_ticks[on_grid] = ~dos._blocked_attempts(
        dos_signal, config.delta_big, dos_signal.horizon, n_ticks // config.b + 1)
    z = np.flatnonzero(success_ticks) * delta

    # One disturbance per sub-step (held from its row to the next) and one
    # measurement noise per successful sample, each stream drawn in order:
    # the two children that SeedSequence(noise.seed).spawn(2) gives, each
    # draw the bits of rng.uniform(-bound, bound), -bound + 2 bound u.
    dist, meas = (
        np.random.default_rng(np.random.SeedSequence(noise.seed, spawn_key=(i,)))
        .random(size)
        for i, size in enumerate(((n_rows - 1, n), (len(z), n)))
    )
    for draws, bound in ((dist, noise.d_bound), (meas, noise.n_bound)):
        draws *= 2.0 * bound
        draws -= bound
    if noise.decay_at is not None:
        rows = np.divmod(np.arange(n_rows - 1), substeps)
        dist[_row_times(delta, substeps, *rows) >= noise.decay_at] = 0.0
        meas[z >= noise.decay_at] = 0.0

    # One law for every mode: u = K alpha, where alpha rolls the model
    # forward from the last delivered sample y_m one period per tick,
    # alpha = Phi_d^(q - m) y_m with Phi_d = A_d + B_d K, and stops at the
    # packet's last entry, h - 1 periods on.  A sample taken at tick m
    # reaches the actuator at tick m + skip.  Co-located is h = inf with no
    # skip and no buffer; remote applies zero until the first packet.
    colocated = config.mode == "colocated"
    last = math.inf if colocated else config.h - 1
    skip = 0 if colocated else config.skip
    steps, step, windows, phi_skip, (block, kl), templates, reach = _tick_model(
        plant.A.tobytes(), plant.B.tobytes(), k_mat.tobytes(), n, m, delta,
        substeps, skip,
    )
    reach_offsets, reach_coefs = reach

    # The noise of sub-step j = 0..S of tick q is (G d_q)_j, G the block
    # lower-triangular map of the tick's S disturbances (see _tick_model),
    # copied out of its cached windows.  Row S is the next tick's state, so
    # only ticks are solved for; the rows in between get their noise terms
    # now and the rest once their block is.
    g_map = windows.reshape((substeps + 1) * n, substeps * n)
    xs = np.empty((n_rows, n))
    fill = xs[:-1].reshape(n_ticks, substeps * n)
    dist = dist.reshape(n_ticks, substeps * n)
    np.matmul(dist, g_map[: substeps * n].T, out=fill)

    # The schedule needs no state.  There is at most one success per tick, so
    # the sample taken at tick m reaches the actuator at tick m + skip, and
    # m_q, the last sample delivered by tick q, is a running maximum.
    sampled = np.flatnonzero(success_ticks)
    arrive = sampled[sampled + skip <= n_ticks] + skip
    # remote: nothing delivered yet, so alpha is held at zero and depth is 0
    m_ticks = np.full(n_ticks + 1, 0 if colocated else -config.h)
    m_ticks[arrive] = arrive - skip
    ages = np.arange(n_ticks + 1) - np.maximum.accumulate(m_ticks)
    # the first tick with a prediction
    first = 0 if colocated else arrive[0] if len(arrive) else n_ticks + 1

    # s_q = [x_q; alpha_q] steps by one of the three maps of _tick_model:
    # alpha rolls while its age is below h - 1 (kind 0), else is held (kind
    # 1), or not at all when the next tick takes a delivery (kind 2), whose
    # alpha is Phi_d^skip (x_m + n_m) instead.
    kinds = (ages >= last).astype(np.intp)
    kinds[arrive[arrive > 0] - 1] = 2

    # All of s_0..s_N solve one unit lower-triangular banded system, block by
    # block: s_(q+1) - step_q s_q = the tick's noise, and at a delivery
    # alpha_q - Phi_d^skip x_(q-skip) = Phi_d^skip n_m.  band[p, j, d] holds
    # the coefficient of unknown p w + j in row p w + j + d (LAPACK's lower
    # band storage, tick by tick), at flat index p w (kl + 1) + j (kl + 1) +
    # d.  A term from an earlier block moves to the right-hand side, which
    # states holds until its block is solved in place.
    w = 2 * n
    states = np.zeros((n_ticks + 1, w))
    states[0, :n] = x
    np.matmul(dist, g_map[substeps * n :].T, out=states[1:, :n])
    for lo in range(0, n_ticks + 1, block):
        hi = min(lo + block, n_ticks + 1)
        rhs = states[lo:hi]
        if lo:
            rhs[0] += steps[kinds[lo - 1]] @ states[lo - 1]
        due = slice(*np.searchsorted(arrive, (lo, hi)))
        src = arrive[due] - skip
        far = np.searchsorted(src, lo)  # the samples taken before the block
        y = meas[due].copy()
        y[:far] += states[src[:far], :n]
        rhs[arrive[due] - lo, n:] = y @ phi_skip.T
        band = templates.take(kinds[lo:hi], axis=0)
        band.reshape(-1)[
            (src[far:] - lo)[:, None] * (w * (kl + 1)) + reach_offsets
        ] = reach_coefs
        solved, info = scipy.linalg.lapack.dtbtrs(
            band.reshape(-1, kl + 1).T, rhs.reshape(-1, 1), uplo="L", diag="U",
            overwrite_b=True,
        )
        if info != 0:
            raise RuntimeError(f"dtbtrs failed with info {info}")
        rhs[:] = solved.reshape(-1, w)
        fill[lo:hi] += states[:-1][lo:hi] @ step
    xs[-1] = states[-1, :n]
    return SimTrace(
        x=xs,
        z=z,
        delta=delta,
        delta_big=config.delta_big,
        substeps=config.substeps,
        noise_decay_at=noise.decay_at,
        _states=states,
        _K=k_mat.copy(),
        _P=p_mat.copy(),
        _depths=np.maximum((0 if colocated else config.h) - ages, 0),
        _first=first,
        _attempts=attempt_ticks,
        _successes=success_ticks,
        _signal=dos_signal,
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
    The noise tail takes the growth of V over the part of a gap of at most
    Q + Delta that outlasts the buffer's h delta, e^(omega2 (Q + Delta - h
    delta)); once h delta covers the gap there is no such part, and the
    factor is 1, so its exponent is clamped at 0 as the rate is at omega1.
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
        * math.exp(consts.omega2 * max(env.Q + trace.delta_big - env.h_delta, 0.0))
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
    # row norms as a left fold of the squared columns: the sum numpy's
    # norm takes below 8 columns, without its per-row reduce
    with np.errstate(over="ignore", invalid="ignore"):
        squares = trace.x[:, 0] * trace.x[:, 0]
        for column in trace.x.T[1:]:
            squares += column * column
        norms = np.sqrt(squares)
    # a norm is >= 0 or NaN, and the max passes on a NaN or an inf
    peak = float(norms.max())
    finite = math.isfinite(peak)
    scale = max(float(norms[0]), 1.0) if finite else math.inf
    if divergence_threshold is None:
        divergence_threshold = 1e3 * scale
    if divergence_threshold <= 0.0:
        raise ValueError("divergence_threshold must be > 0")
    z = trace.z
    max_gap = float((z[1:] - z[:-1]).max()) if len(z) > 1 else 0.0
    stable = finite and peak < divergence_threshold
    if trace.noise_decay_at is not None:
        stable = stable and float(norms[-1]) <= 1e-3 * scale
    return SimMetrics(
        failure_fraction=1.0 - len(z) / int(np.count_nonzero(trace._attempts)),
        max_state_norm=peak if finite else None,
        final_state_norm=float(norms[-1]) if math.isfinite(norms[-1]) else None,
        max_gap=max_gap,
        envelope_ok=envelope_ok,
        stable_verdict=stable,
    )


def trace_to_csv(trace: SimTrace, path) -> None:
    """Write the trace in the versioned CSV layout.

    First line is the version comment '# format: 1', then the header
    t,x1..xn,u1..um,V,dos_active,attempt,success,buffer_depth.  The version
    line ends in LF, the header and every row in CRLF.  t is written as
    '%.12g' % t, the other floats as '%.16g' % v and the four flags with %d;
    the floats are formatted in bulk (_tracecsv) to the same bytes.

    Each block of rows is laid out from the tick record by the rules of the
    SimTrace columns; beyond x and V nothing is built per row of the run.
    """
    substeps, rows = trace.substeps, len(trace.x)
    u = trace._tick_inputs()
    n, m = trace.x.shape[1], u.shape[1]
    header = ["t", *(f"x{i + 1}" for i in range(n)), *(f"u{j + 1}" for j in range(m)),
              "V", "dos_active", "attempt", "success", "buffer_depth"]
    # a row's tail is tails[tail_at[q] + 4 dos_active + 2 attempt + success]
    # for its tick q; attempt and success mark a tick's first row
    tails, tail_at = flag_tails(trace._depths)
    lead = 2 * trace._attempts.astype(np.intp) + trace._successes
    signal, marks = trace._signal, dos._marks(trace._signal)
    block = np.arange(min(rows, CSV_BLOCK_ROWS))
    with open(path, "wb") as fh:
        fh.write(f"# format: {TRACE_FORMAT_VERSION}\n".encode())
        fh.write((",".join(header) + "\r\n").encode())
        for lo in range(0, rows, CSV_BLOCK_ROWS):
            sub = block[: rows - lo] + lo
            hi = lo + len(sub)
            tick = sub // substeps
            sub -= tick * substeps
            times = _row_times(trace.delta, substeps, tick, sub)
            tail = tail_at[tick]
            first = slice(-lo % substeps, None, substeps)  # the rows of sub-step 0
            tail[first] += lead[tick[first]]
            np.add(tail, 4, out=tail,
                   where=dos._sorted_mask(marks, np.minimum(times, signal.horizon)))
            fh.write(csv_rows(times, trace.x[lo:hi], trace.V[lo:hi],
                              u[tick[0] : tick[-1] + 1], tick - tick[0], tails, tail))


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
