"""Denial-of-service signals over a finite horizon.

A DoS signal is a union of blocking intervals {h} u [h, h+tau[ on the time
axis: closed at the onset instant h (a zero-length pulse still blocks exactly
t = h) and open at the right end, so a transmission attempted exactly when
the interference switches off goes through.  The module measures signals,
fits them to a frequency/duration class, generates random ones, and derives
the worst-case spacing of successful periodic transmissions.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import FrozenInstanceError, dataclass

import numpy as np


# Most intervals, in expectation, that generate draws for one signal; the
# 500 s benchmark signal has ~380.
MAX_INTERVALS = 1_000_000
# Most attempts on one grid that successful_transmissions or
# check_gap_bound audits.
MAX_ATTEMPTS = 10_000_000


class InfeasibleDoSClassError(ValueError):
    """The class constants leave no guaranteed transmission window.

    Raised when 1/T + mu*Delta/tau_D >= 1; the offending rate is available
    as ``rate``.
    """

    def __init__(self, rate: float, mu: int = 1):
        self.rate = rate
        self.mu = mu
        super().__init__(
            f"infeasible DoS class: 1/T + {mu}*Delta/tau_D = {rate:.6g} >= 1"
        )


class DoSSignal:
    """DoS intervals (onset, duration) within [0, horizon], from any (k, 2) array-like.

    An empty sequence is the empty signal; any other shape is refused.
    Onsets past the horizon are dropped, durations clipped to it, and
    overlapping or touching intervals merged, so onsets strictly increase
    and consecutive intervals are disjoint.  Merging respects the half-open
    semantics: [a, b[ followed by [b, c[ fuses into [a, c[, but a pulse
    sitting exactly at an open right endpoint stays separate because the
    union would be closed on the right.

    The constructor validates the pairs and drops the onsets past the
    horizon; a private store step then clips, and tests once whether each
    onset lies past the end before it.  Pairs that do, as generate draws
    them and signal files hold them, are already in order and disjoint,
    and are stored as they are.  Any others are put in the order that
    (onset, duration) tuples sort in, by one stable sort, and merged.
    generate hands its drawn columns to the store step directly.  The
    signal is held as read-only arrays ``onsets`` and ``ends`` that own
    their data, with ``ends[i] <= onsets[i + 1]``; ``intervals``, the same
    list as pairs, is built on first use.  Equality, hashing and the JSON
    form use ``intervals`` and ``horizon`` only.  Instances are immutable.
    """

    def __init__(self, intervals, horizon: float):
        horizon = float(horizon)
        if not math.isfinite(horizon) or horizon <= 0.0:
            raise ValueError(f"horizon must be finite and > 0, got {horizon}")
        pairs = np.array(intervals, dtype=float)
        if pairs.shape == (0,):
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("intervals: expected a list of [onset, duration] pairs")
        # NaN fails both comparisons; only then is each row scanned, so
        # that the first offender, in input order, is the one named.
        if pairs.size and not (pairs.min() >= 0.0 and pairs.max() < math.inf):
            bad = ~np.isfinite(pairs).all(axis=1) | (pairs < 0.0).any(axis=1)
            h, tau = pairs[bad.argmax()].tolist()
            if not (math.isfinite(h) and math.isfinite(tau)):
                raise ValueError(f"non-finite DoS interval ({h}, {tau})")
            raise ValueError(f"negative onset or duration in ({h}, {tau})")
        h, tau = pairs.T
        if h.size and h.max() > horizon:  # index only when some onset is past it
            h, tau = pairs[h <= horizon].T
        self._store(h, tau, horizon)

    def _store(self, h: np.ndarray, tau: np.ndarray, horizon: float) -> None:
        """Clip, order, merge and store valid (onset, duration) columns.

        The onsets must be finite, >= 0 (or -0.0) and up to the horizon, the
        durations finite and >= 0 (or -0.0), in columns of any layout: each
        stored array is a new one.  When each onset lies past the end
        before it, the stable sort would keep the pairs in place and no
        neighbours would join, so they are stored as they are.
        """
        h = h.copy()
        # min(tau, room) as Python takes it: a -0.0 duration stays -0.0.
        room = horizon - h
        tau = np.where(room < tau, room, tau)
        end = h + tau
        if np.count_nonzero(h[1:] <= end[:-1]):  # out of order, or touching
            # The order of (h, tau) tuples: numpy orders complex numbers by
            # real part, then imaginary part, and a stable sort keeps ties
            # in input order.
            key = np.empty(h.size, dtype=complex)
            key.real, key.imag = h, tau
            order = np.argsort(key, kind="stable")
            h, tau = h[order], tau[order]
            end = h + tau
            joins = (h[1:] < end[:-1]) | (
                (h[1:] == end[:-1]) & ((tau[1:] > 0.0) | (h[1:] == h[:-1]))
            )
            if joins.any():  # merge only when some neighbours overlap or touch
                merged: list[tuple[float, float]] = []
                for h1, tau1 in zip(h.tolist(), tau.tolist()):
                    if merged:
                        h0, tau0 = merged[-1]
                        end0 = h0 + tau0
                        if h1 < end0 or (h1 == end0 and (tau1 > 0.0 or h1 == h0)):
                            end = max(end0, h1 + tau1)
                            if tau0 <= 0.0 < tau1 and len(merged) > 1 and (
                                h0 == sum(merged[-2])
                            ):
                                # a pulse at an open end, grown into an
                                # interval, joins the interval it ends
                                del merged[-1]
                                h0 = merged[-1][0]
                            merged[-1] = (h0, end - h0)
                            continue
                    merged.append((h1, tau1))
                h, tau = map(np.array, zip(*merged))
                end = h + tau
        h.flags.writeable = tau.flags.writeable = end.flags.writeable = False
        self.__dict__.update(horizon=horizon, onsets=h, ends=end, _durations=tau)

    @functools.cached_property
    def intervals(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.onsets.tolist(), self._durations.tolist()))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.intervals, self.horizon) == (other.intervals, other.horizon)

    def __hash__(self):
        return hash((self.intervals, self.horizon))

    def __repr__(self):
        return f"DoSSignal(intervals={self.intervals!r}, horizon={self.horizon!r})"

    def __reduce__(self):
        # a copy or an unpickled signal goes through the store step too, so
        # that its arrays are read-only and its own
        return _stored, (self.onsets, self._durations, self.horizon)


def _stored(h: np.ndarray, tau: np.ndarray, horizon: float) -> DoSSignal:
    """The signal of valid (onset, duration) columns, by the store step alone."""
    signal = DoSSignal.__new__(DoSSignal)
    signal._store(h, tau, horizon)
    return signal


@dataclass(frozen=True)
class DoSClassParams:
    """Frequency/duration class constants (eta, tau_D, kappa, T).

    eta bounds the transition count chatter, tau_D the average spacing of
    off/on transitions, kappa the duration chatter and 1/T the long-run
    fraction of time under DoS.
    """

    eta: float
    tau_D: float
    kappa: float
    T: float

    def __post_init__(self):
        # Each test fails on NaN, which would turn every bound into NaN.
        for name in ("eta", "kappa"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not self.tau_D > 0.0:
            raise ValueError(f"tau_D must be > 0, got {self.tau_D}")
        if not self.T > 1.0:
            raise ValueError(f"T must be > 1, got {self.T}")


@dataclass(frozen=True)
class GeneratorSpec:
    """Uniform ranges for alternating clear/blocked durations."""

    off_range: tuple[float, float] = (0.1, 0.7)
    on_range: tuple[float, float] = (0.3, 1.5)

    def __post_init__(self):
        for name, (lo, hi) in (("off_range", self.off_range),
                               ("on_range", self.on_range)):
            if not 0.0 <= lo <= hi < math.inf:
                raise ValueError(
                    f"{name} must be finite with 0 <= lo <= hi, got ({lo}, {hi})"
                )
        if self.off_range[1] + self.on_range[1] <= 0.0:
            raise ValueError("ranges admit no forward progress (both pinned at 0)")


@dataclass(frozen=True, eq=False)
class TransmissionSchedule:
    """Periodic attempt grid and the subset that got through, as read-only arrays."""

    delta_big: float
    attempts: np.ndarray
    successes: np.ndarray


@dataclass(frozen=True)
class GapBoundVerdict:
    """Observed first-success time and maximum gap against their bounds."""

    z0: float
    max_gap: float
    gap_bound: float  # bound on z0; successive gaps are bounded by this + Delta
    gap_bound_plus_delta: float
    z0_ok: bool
    max_gap_ok: bool


def _marks(signal: DoSSignal) -> np.ndarray:
    """Each interval's onset and stop, interleaved: the one blocked-time rule.

    An interval blocks t from its onset up to, not including, its end, and
    a pulse blocks its onset instant: on floats, both block
    onset <= t < stop, where stop is the end or, if later, the float right
    after the onset.  The canonical intervals are disjoint and in order, so
    the marks never decrease.
    """
    onsets, ends = signal.onsets, signal.ends
    marks = np.empty(2 * onsets.size)
    marks[::2], marks[1::2] = onsets, ends
    # An end past its onset is already at or past the float after it.
    pulses = ends == onsets
    if np.count_nonzero(pulses):
        marks[1::2][pulses] = np.nextafter(onsets[pulses], math.inf)
    return marks


def _run_bounds(edges: np.ndarray, size: int) -> np.ndarray:
    """0, the edges, then size: the runs of size points that edges split.

    Clear runs bounds[2i]:bounds[2i + 1] alternate with blocked runs
    bounds[2i + 1]:bounds[2i + 2], one per pair of edges.
    """
    bounds = np.empty(edges.size + 2, dtype=np.intp)
    bounds[0], bounds[1:-1], bounds[-1] = 0, edges, size
    return bounds


def _run_flags(edges: np.ndarray, size: int) -> np.ndarray:
    """Flags of size points, set on each run edges[2i]:edges[2i + 1].

    One repeat over the alternating clear and blocked run lengths.
    """
    bounds = _run_bounds(edges, size)
    blocked = np.zeros(edges.size + 1, dtype=bool)
    blocked[1::2] = True
    return np.repeat(blocked, bounds[1:] - bounds[:-1])


def _sorted_mask(marks: np.ndarray, t: np.ndarray) -> np.ndarray:
    """active_mask over ascending t from the signal's _marks, searching only
    the intervals that reach into [t[0], t[-1]]: the others flag no time."""
    if t.size:
        lo, hi = marks.searchsorted(t[[0, -1]], side="right")
        marks = marks[lo - lo % 2 : hi + hi % 2]
    return _run_flags(np.searchsorted(t, marks), t.size)


def active_mask(signal: DoSSignal, times) -> np.ndarray:
    """Blocked flag at each of ``times``, by the rule of the interval marks.

    Each interval blocks the times from its onset mark up to, not
    including, its stop mark (see _marks).  Over ascending times each
    interval thus blocks one run of positions, found by two binary
    searches, and the runs are disjoint and in order, in
    O(len(times) + k log len(times)) for k intervals.  Times that are not
    ascending are sorted first and their flags put back in place.  Times
    outside [0, horizon] are not checked; NaN sorts last and stays clear.
    """
    times = np.asarray(times, dtype=float)
    t = times.ravel()
    order = None
    if not (t[1:] >= t[:-1]).all():  # NaN sorts last, past every interval
        order = np.argsort(t, kind="stable")
        t = t[order]
    flags = _sorted_mask(_marks(signal), t)
    if order is not None:
        flags[order] = flags.copy()
    return flags.reshape(times.shape)


def active_at(signal: DoSSignal, t: float) -> bool:
    """True iff the network is blocked at time t (t within [0, horizon])."""
    t = float(t)
    if t < 0.0 or t > signal.horizon:
        raise ValueError(f"t={t} outside [0, {signal.horizon}]")
    return bool(active_mask(signal, t))


def transitions_count(signal: DoSSignal, tau: float, t: float) -> int:
    """Number of off/on transitions with onset in the half-open window [tau, t[."""
    tau, t = _check_window(signal, tau, t)
    onsets = signal.onsets
    return int(onsets.searchsorted(t) - onsets.searchsorted(tau))


def dos_measure(signal: DoSSignal, tau: float, t: float) -> float:
    """Total blocked time (Lebesgue measure) within [tau, t]; pulses count 0."""
    tau, t = _check_window(signal, tau, t)
    onsets = signal.onsets
    n = int(onsets.searchsorted(t))
    if n == 0:
        return 0.0
    overlap = np.minimum(signal.ends[:n], t)
    overlap -= np.maximum(onsets[:n], tau)
    np.maximum(overlap, 0.0, out=overlap)
    # cumsum adds left to right, as a plain loop would; np.sum would not.
    return float(overlap.cumsum(out=overlap)[-1])


def _check_window(signal: DoSSignal, tau: float, t: float) -> tuple[float, float]:
    tau, t = float(tau), float(t)
    if not 0.0 <= tau <= t <= signal.horizon:  # NaN fails too
        raise ValueError(
            f"window [{tau}, {t}] must satisfy 0 <= tau <= t <= {signal.horizon}"
        )
    return tau, t


def fit_class_params(
    signal: DoSSignal, tau_D: float, T: float
) -> tuple[float, float]:
    """Smallest (eta, kappa) making the signal a member of class (tau_D, T).

    Both deficits are piecewise linear in the window endpoints, so the
    suprema over all windows are attained on the finite critical set of
    interval onsets and ends; the search below is exact, not sampled.
    Transition counting is half-open in t, so for eta the supremum over
    windows [h_i, h_j + eps[ is approached as eps -> 0 and equals
    (j - i + 1) - (h_j - h_i)/tau_D.
    """
    if tau_D <= 0.0:
        raise ValueError(f"tau_D must be > 0, got {tau_D}")
    if not math.isfinite(signal.horizon / tau_D):  # bounds every onset / tau_D
        raise ValueError(
            f"tau_D must leave horizon / tau_D finite, got {signal.horizon} / {tau_D}"
        )
    if not T > 1.0:
        raise ValueError(f"T must be > 1, got {T}")
    if signal.onsets.size == 0:
        return 0.0, 0.0
    # Both suprema are max over i <= j of (c_j - b_i), one prefix-min scan:
    # eta = 1 + max(a - cummin(a)) with a_j = j - h_j/tau_D, and
    # kappa = max(c - cummin(b)) with c_j = S_j - end_j/T, b_j = S_{j-1} - h_j/T,
    # where S_j is the blocked time of intervals 0..j.
    onsets, ends = signal.onsets, signal.ends
    a = onsets / tau_D
    np.subtract(np.arange(onsets.size), a, out=a)
    a -= np.minimum.accumulate(a)
    blocked = ends - onsets
    blocked.cumsum(out=blocked)
    c = ends / T
    np.subtract(blocked, c, out=c)
    b = onsets / T
    np.subtract(blocked[:-1], b[1:], out=b[1:])
    b[0] = 0.0 - b[0]  # S_{-1} = 0.0; -b[0] would turn a zero into -0.0
    c -= np.minimum.accumulate(b)
    return float(1.0 + a.max()), float(c.max())


def _batch_rows(cycles: float) -> int:
    """Rows per draw batch for a horizon of this many mean off/on cycles.

    One cycle's spread is at most 1/sqrt(3) of its mean, so a second batch
    is rare.
    """
    return int(cycles + 4.0 * math.sqrt(cycles)) + 16


def _draw(rng: np.random.Generator, rows: int, spec: GeneratorSpec) -> np.ndarray:
    """rows (off, on) durations, flat in stream order.

    low + (high - low) u, the bits that rng.uniform(low, high, (rows, 2))
    gives, one column at a time: a long strided loop, not one of 2 per row.
    """
    draw = rng.random((rows, 2))
    for column, (low, high) in zip(draw.T, (spec.off_range, spec.on_range)):
        low = float(low)
        column *= float(high) - low
        column += low
    return draw.ravel()


def generate(seed: int, spec: GeneratorSpec, horizon: float) -> DoSSignal:
    """Generate a random off/on signal: durations drawn uniformly per range.

    Uses numpy's PCG64 generator seeded with ``seed``, so identical inputs
    reproduce the identical interval list on every platform.  The signal
    starts with an off period and is truncated at the horizon.  A horizon
    that spans more than MAX_INTERVALS mean off/on cycles is refused before
    anything is drawn.  The drawn onset and on-duration columns go to the
    constructor's store step, past its checks, which they pass by
    construction: the store step clips the last interval, and sorts and
    merges only where a clear period of zero leaves two intervals touching.
    """
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    cycle = (sum(spec.off_range) + sum(spec.on_range)) / 2.0
    if horizon > MAX_INTERVALS * cycle:
        raise ValueError(
            f"horizon {horizon} spans {horizon / cycle:.3g} mean off/on cycles "
            f"of {cycle:.3g} s, above the limit of {MAX_INTERVALS} intervals"
        )
    rng = np.random.default_rng(seed)
    # Draws (off, on) rows in batches, one PCG64 stream as drawn one by one,
    # and sums them left to right into onset, end, onset, ... marks.
    rows = _batch_rows(horizon / cycle)
    draws = _draw(rng, rows, spec)
    with np.errstate(over="ignore"):  # a sum past the float range ends it too
        marks = draws.cumsum()
        if marks[-1] <= horizon:
            batches, sums = [draws], [marks]
            while sums[-1][-1] <= horizon:
                batches.append(_draw(rng, rows, spec))
                sums.append(np.cumsum(np.concatenate((sums[-1][-1:], batches[-1])))[1:])
            draws, marks = np.concatenate(batches), np.concatenate(sums)
    # Every onset up to the horizon: the marks are in order, and the first
    # m of them, those up to it, hold (m + 1) // 2 onsets.
    n = 2 * ((int(marks.searchsorted(horizon, side="right")) + 1) // 2)
    return _stored(marks[:n:2], draws[1:n:2], float(horizon))


def _attempt_count(signal: DoSSignal, delta_big: float, horizon: float) -> int:
    """Number of attempts k*Delta up to the horizon, once the inputs pass.

    A grid of more than MAX_ATTEMPTS attempts is refused.
    """
    if not delta_big > 0.0:
        raise ValueError(f"delta_big must be > 0, got {delta_big}")
    if not horizon >= 0.0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if horizon > signal.horizon:
        raise ValueError(
            f"horizon {horizon} exceeds signal horizon {signal.horizon}"
        )
    periods = horizon / delta_big + 1e-9
    if not periods < MAX_ATTEMPTS:
        raise ValueError(
            f"an attempt grid over {horizon} s in periods of {delta_big} s is "
            f"{periods + 1:.3g} attempts, above the limit of {MAX_ATTEMPTS}"
        )
    return math.floor(periods) + 1


def _attempt_times(k, delta_big: float, horizon: float):
    """Attempt k of the grid, t_k = min(k*Delta, horizon), for integers k >= 0.

    k*Delta can land one ulp past the horizon, and is clamped back inside.
    np.minimum returns its second argument on a tie, so a -0.0 horizon is
    made +0.0 first: t_0 is 0.0 on every grid.
    """
    return np.minimum(k * delta_big, horizon + 0.0)


def _grid_edges(
    marks: np.ndarray, delta_big: float, horizon: float, n: int
) -> np.ndarray:
    """np.searchsorted(attempts, marks) for the n attempts t_k, unbuilt.

    The marks are in order, as _marks gives them.  Each edge is the first
    k with t_k >= mark, or n.  For a mark up to the
    horizon, t_k >= mark exactly when k*Delta >= mark, and ceil(mark / Delta)
    is within one index of the first such k: the quotient and each product
    err by half an ulp, a relative 1.1e-16, so by under 1e-8 of an index
    while n < MAX_ATTEMPTS.  One step down or up then settles it on the
    grid's own floats.  No attempt reaches a mark past the horizon.
    """
    # The marks past the horizon, the last ones, get n and are kept out of
    # the arithmetic, which keeps mark / Delta near the grid.
    inside = marks[: marks.searchsorted(horizon, side="right")]
    edges = np.empty(marks.size, dtype=np.intp)
    edges[inside.size:] = n
    k = inside / delta_big
    np.ceil(k, out=k)
    up = k * delta_big < inside
    down = (k - 1.0) * delta_big >= inside
    k += up
    k -= down
    np.minimum(k, n, out=k)
    edges[: inside.size] = k
    return edges


def _blocked_attempts(signal: DoSSignal, delta_big: float, horizon: float, n: int):
    """Blocked flags of the n attempts t_k by active_mask's rule (_grid_edges)."""
    return _run_flags(_grid_edges(_marks(signal), delta_big, horizon, n), n)


def successful_transmissions(
    signal: DoSSignal, delta_big: float, horizon: float
) -> TransmissionSchedule:
    """Attempt grid k*Delta up to the horizon and its DoS-free subset.

    A grid of more than MAX_ATTEMPTS attempts is refused before it is built.
    Each interval blocks a run of attempts by active_mask's rule; the run's
    edges come from arithmetic on the grid, not from a binary search.
    """
    n = _attempt_count(signal, delta_big, horizon)
    attempts = _attempt_times(np.arange(n, dtype=float), delta_big, horizon)
    successes = attempts[~_blocked_attempts(signal, delta_big, horizon, n)]
    attempts.flags.writeable = successes.flags.writeable = False
    return TransmissionSchedule(
        delta_big=delta_big, attempts=attempts, successes=successes
    )


def success_gap_bound(
    params: DoSClassParams, delta_big: float, mu: int = 1
) -> float:
    """Worst-case wait for a DoS-free stretch of mu consecutive attempts.

    For a class-(eta, tau_D, kappa, T) signal with periodic attempts of
    period Delta, the first success happens within this bound and successive
    successes are never more than this bound + Delta apart.  Requires
    1/T + mu*Delta/tau_D < 1, otherwise the class admits signals that jam
    every attempt and InfeasibleDoSClassError is raised.
    """
    if delta_big <= 0.0:
        raise ValueError(f"delta_big must be > 0, got {delta_big}")
    if mu < 1:
        raise ValueError(f"mu must be >= 1, got {mu}")
    rate = 1.0 / params.T + mu * delta_big / params.tau_D
    if rate >= 1.0:
        raise InfeasibleDoSClassError(rate, mu)
    return (params.kappa + params.eta * mu * delta_big) / (1.0 - rate)


def check_gap_bound(
    signal: DoSSignal,
    delta_big: float,
    params: DoSClassParams,
    horizon: float,
) -> GapBoundVerdict:
    """Audit the realized success schedule against the class gap bound.

    The caller certifies class membership (fit_class_params); with no
    success inside the horizon the observed quantities are infinite and the
    flags come back false.  The inputs are checked, and a grid of more than
    MAX_ATTEMPTS attempts refused, as in successful_transmissions, after
    the bound is computed.

    The audit reads the schedule off the interval edges on the grid, in
    O(k) for k intervals, without building the grid.  An attempt that
    falls exactly on a mark obeys the half-open rule: one on an onset is
    blocked, one on an end goes through, and a pulse on the grid blocks
    its one attempt.  Between the blocked runs that hold an attempt lie
    the clear runs, the successes; a blocked run that holds no attempt
    leaves the two on either side touching, as one.  Across a blocked run
    the gap spans at least two periods, about 2*Delta, while a step within
    a clear run is Delta to a few ulps (or less, at the clamped last
    attempt); with n < MAX_ATTEMPTS those ulps stay far below Delta, so
    with two clear runs or more the largest gap is a cross-run one, and a
    step across a touching pair cannot raise it.  Only a single clear run,
    all attempts clear or the blocked ones all at one end, needs its steps
    in full, in O(n).
    """
    bound = success_gap_bound(params, delta_big)
    n = _attempt_count(signal, delta_big, horizon)
    bounds = _run_bounds(_grid_edges(_marks(signal), delta_big, horizon, n), n)
    starts, stops = bounds[::2], bounds[1::2]
    clear = starts < stops
    starts, stops = starts[clear], stops[clear]
    if starts.size == 0:
        z0 = max_gap = math.inf
    else:
        opened = _attempt_times(starts, delta_big, horizon)
        z0 = float(opened[0])
        if np.count_nonzero(stops[:-1] < starts[1:]):  # two clear runs or more
            gaps = opened[1:] - _attempt_times(stops[:-1] - 1, delta_big, horizon)
        else:
            run = np.arange(starts[0], stops[-1], dtype=float)
            gaps = np.diff(_attempt_times(run, delta_big, horizon))
        max_gap = float(gaps.max(initial=0.0))
    return GapBoundVerdict(
        z0=z0,
        max_gap=max_gap,
        gap_bound=bound,
        gap_bound_plus_delta=bound + delta_big,
        z0_ok=z0 <= bound,
        max_gap_ok=max_gap <= bound + delta_big,
    )


def signal_to_dict(signal: DoSSignal) -> dict:
    """JSON-ready form: {"horizon": ..., "intervals": [[h, tau], ...]}."""
    return {
        "horizon": signal.horizon,
        "intervals": [[h, tau] for h, tau in signal.intervals],
    }


def _check_real(value, name: str) -> None:
    """Refuse all but a real number: numpy reads "1" and true as 1.0."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name}: expected a number, got {value!r}")


def signal_from_dict(data: dict) -> DoSSignal:
    """Inverse of signal_to_dict, with validation via the constructor.

    The horizon and each entry of a listed interval must be a number; a
    string or a bool is refused by name.
    """
    try:
        horizon, intervals = data["horizon"], data["intervals"]
        _check_real(horizon, "horizon")
        rows = intervals if isinstance(intervals, (list, tuple)) else ()
        for i, pair in enumerate(rows):
            if isinstance(pair, (list, tuple)):
                for j, value in enumerate(pair):
                    _check_real(value, f"intervals[{i}][{j}]")
        return DoSSignal(intervals=intervals, horizon=float(horizon))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"signal object needs a 'horizon' and 'intervals': {exc}")
