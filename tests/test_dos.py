import copy
import dataclasses
import itertools
import math
import pickle
import tracemalloc
import warnings
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from doscontrol import (
    DoSClassParams,
    DoSSignal,
    GeneratorSpec,
    InfeasibleDoSClassError,
    active_at,
    check_gap_bound,
    dos_measure,
    fit_class_params,
    generate,
    signal_from_dict,
    signal_to_dict,
    success_gap_bound,
    successful_transmissions,
    transitions_count,
)
from doscontrol import dos
from doscontrol.dos import MAX_ATTEMPTS, MAX_INTERVALS, active_mask

# Deterministic property runs that leave no example database behind.
PROPERTY = settings(max_examples=300, deadline=timedelta(seconds=2),
                    derandomize=True, database=None)


def pulse_train(delta, horizon):
    n = int(math.floor(horizon / delta))
    return DoSSignal(
        intervals=tuple((k * delta, 0.0) for k in range(n + 1)), horizon=horizon
    )


def random_signal(rng, horizon=30.0):
    """Random signal with zero-length pulses and intervals that touch."""
    intervals, t = [], 0.0
    for _ in range(int(rng.integers(0, 60))):
        t += 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 1.0)
        tau = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 0.8)
        intervals.append((t, tau))
        t += tau
    return DoSSignal(intervals=tuple(intervals), horizon=horizon)


def critical_times(signal, rng):
    """Onsets, ends, both horizon ends and random times, each also one ulp off."""
    marks = np.concatenate([
        signal.onsets, signal.ends, [0.0, signal.horizon],
        rng.uniform(0.0, signal.horizon, 20),
    ])
    t = np.concatenate([marks, np.nextafter(marks, -1.0), np.nextafter(marks, np.inf)])
    return t[(t >= 0.0) & (t <= signal.horizon)]


def fit_class_params_loop(signal, tau_D, T):
    """The O(n^2) scan over every interval pair i <= j: the oracle for the fit."""
    eta_min = 0.0
    kappa_min = 0.0
    iv = signal.intervals
    durations = [tau for _, tau in iv]
    for i in range(len(iv)):
        run = 0.0
        for j in range(i, len(iv)):
            run += durations[j]
            eta_min = max(eta_min, (j - i + 1) - (iv[j][0] - iv[i][0]) / tau_D)
            kappa_min = max(
                kappa_min, run - (iv[j][0] + iv[j][1] - iv[i][0]) / T
            )
    return eta_min, kappa_min


def canonical_intervals_loop(intervals, horizon):
    """The per-item loop the constructor replaced: its oracle.

    Validates, drops onsets past the horizon, clips, sorts the (onset,
    duration) tuples and merges overlapping or touching neighbours.
    """
    cleaned = []
    for item in intervals:
        h, tau = (float(item[0]), float(item[1]))
        if not (math.isfinite(h) and math.isfinite(tau)):
            raise ValueError(f"non-finite DoS interval ({h}, {tau})")
        if h < 0.0 or tau < 0.0:
            raise ValueError(f"negative onset or duration in ({h}, {tau})")
        if h > horizon:
            continue
        cleaned.append((h, min(tau, horizon - h)))
    cleaned.sort()
    return merge_loop(cleaned)


def merge_loop(pairs):
    """Merge sorted (onset, duration) pairs that overlap or touch, in order."""
    merged = []
    for h, tau in pairs:
        if merged:
            h0, tau0 = merged[-1]
            end0 = h0 + tau0
            if h < end0 or (h == end0 and (tau > 0.0 or h == h0)):
                if tau0 <= 0.0 < tau and len(merged) > 1 and h0 == sum(merged[-2]):
                    # the pulse at the open end before it was kept apart;
                    # grown into an interval, it joins that end
                    h0 = merged.pop(-2)[0]
                merged[-1] = (h0, max(end0, h + tau) - h0)
                continue
        merged.append((h, tau))
    return tuple(merged)


def generate_loop(seed, spec, horizon, draws=None):
    """One draw per clear or blocked period: the oracle for generate.

    The durations come from draws, clear and blocked alternately, by default
    one Generator.uniform(lo, hi) call each.
    """
    if draws is None:
        rng = np.random.default_rng(seed)
        draws = (rng.uniform(*spec_range) for _ in itertools.count()
                 for spec_range in (spec.off_range, spec.on_range))
    intervals = []
    t = 0.0
    while True:
        onset = t + next(draws)
        if onset > horizon:
            break
        on = next(draws)
        intervals.append((onset, min(on, horizon - onset)))
        t = onset + on
        if t > horizon:
            break
    return canonical_intervals_loop(intervals, horizon)


def drawn_columns(seed, spec, horizon):
    """Onset and on-duration columns of every period drawn to start up to
    the horizon, unclipped and unmerged, one Generator.uniform call each."""
    rng = np.random.default_rng(seed)
    onsets, on, t = [], [], 0.0
    while True:
        onset = t + rng.uniform(*spec.off_range)
        if onset > horizon:
            return np.array(onsets, dtype=float), np.array(on, dtype=float)
        onsets.append(onset)
        on.append(rng.uniform(*spec.on_range))
        t = onset + on[-1]


def marks_with_nextafter(signal):
    """The interval marks with the float after each onset taken everywhere."""
    marks = np.empty(2 * signal.onsets.size)
    marks[::2] = signal.onsets
    np.maximum(signal.ends, np.nextafter(signal.onsets, math.inf), out=marks[1::2])
    return marks


def assert_stored_read_only(sig):
    """Each stored array is contiguous, owns its data and refuses writes."""
    for array in (sig.onsets, sig.ends, sig._durations):
        assert array.base is None and array.flags.owndata
        assert array.flags.c_contiguous and not array.flags.writeable
        if array.size:
            with pytest.raises(ValueError):
                array[0] = 1.0


def assert_canonical_as(sig, intervals):
    """sig holds exactly these canonical intervals, down to the bytes."""
    onsets = np.array([h for h, _ in intervals], dtype=float)
    ends = onsets + np.array([tau for _, tau in intervals], dtype=float)
    assert sig.onsets.tobytes() == onsets.tobytes()
    assert sig.ends.tobytes() == ends.tobytes()
    assert repr(sig.intervals) == repr(intervals)


def membership(signal, times):
    """Blocked flag of each time, one test against every interval: the oracle."""
    return [any(x == h or h <= x < h + tau for h, tau in signal.intervals)
            for x in np.ravel(times).tolist()]


def schedule_loop(signal, delta_big, horizon):
    """Attempt times and successes as tuples, one membership test each."""
    n = int(math.floor(horizon / delta_big + 1e-9))
    attempts = tuple(min(k * delta_big, horizon) for k in range(n + 1))
    successes = tuple(
        t for t in attempts
        if not any(t == h or h <= t < h + tau for h, tau in signal.intervals)
    )
    return attempts, successes


def gap_loop(successes):
    """(z0, largest gap) of a success tuple, inf for none: the audit's oracle."""
    if not successes:
        return math.inf, math.inf
    return successes[0], max(
        (b - a for a, b in zip(successes, successes[1:])), default=0.0
    )


@st.composite
def interval_lists(draw, valid=True):
    """(intervals, horizon): pulses at the horizon, -0.0 durations, onsets
    past the horizon, and duplicated, touching and overlapping intervals,
    shuffled; with valid=False, also non-finite and negative entries."""
    horizon = draw(st.sampled_from([0.5, 1.0, 7.25]))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, horizon]),
        st.floats(0.0, 1.2 * horizon),
    )
    if not valid:
        value = st.one_of(value, st.sampled_from([-1.0, -5e-324, math.inf,
                                                  -math.inf, math.nan]))
    pairs = draw(st.lists(st.tuples(value, value), max_size=12))
    if pairs:
        # intervals that start where others end, and exact duplicates
        picked = draw(st.lists(st.sampled_from(pairs), max_size=4))
        pairs += [(h + tau, draw(value)) for h, tau in picked]
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    return draw(st.permutations(pairs)), horizon


@st.composite
def chained_pairs(draw):
    """(pairs, horizon): a chain of intervals, each starting past, at or one
    ulp past the end before it, with pulses, -0.0 and tiny durations (an
    end equal to its onset), pulses at open ends, duplicate onsets, onsets
    at and past the horizon and ends past it; in order, or shuffled."""
    horizon = draw(st.sampled_from([0.5, 1.0, 7.25]))
    duration = st.sampled_from([0.0, -0.0, 1e-17, 5e-324, 0.25]) | st.floats(0.0, horizon)
    pairs, end = [], 0.0
    for _ in range(draw(st.integers(0, 10))):
        gap = draw(st.sampled_from(["ulp", "touch", "pulse", "same"]) | st.floats(0.0, 1.0))
        if gap == "ulp":
            onset = float(np.nextafter(end, math.inf))
        elif gap in ("touch", "pulse"):
            onset = end
        elif gap == "same" and pairs:
            onset = pairs[-1][0]
        else:
            onset = end + (0.0 if isinstance(gap, str) else gap)
        tau = 0.0 if gap == "pulse" else draw(duration)
        pairs.append((onset, tau))
        end = max(end, onset + tau)
    tail = draw(st.sampled_from([None, 0.0, -0.0, 0.25]))
    if tail is not None:  # an onset at the horizon
        pairs.append((horizon, tail))
    if draw(st.booleans()):
        pairs = draw(st.permutations(pairs))
    return pairs, horizon


@st.composite
def grid_cases(draw):
    """(signal, Delta, horizon) with interval edges on the attempt grid and
    one ulp either side of it, pulses on grid points, the empty signal, a
    fully blocked grid and a single clear run at either end; audit horizons
    that are not a multiple of Delta, and signal horizons past them."""
    delta = draw(st.sampled_from([0.1, 1 / 3, 0.07]))
    ticks = draw(st.integers(0, 40))
    horizon = (ticks + draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0))) * delta
    horizon = draw(st.sampled_from([horizon, float(np.nextafter(horizon, 0.0)),
                                    float(np.nextafter(horizon, 1e3))]))
    sig_horizon = horizon + draw(st.sampled_from([0.0, delta / 2]) | st.floats(0.0, 2.0))
    assume(sig_horizon > 0.0)

    @st.composite
    def points(draw):
        x = draw(st.integers(0, ticks + 2)) * delta
        x = draw(st.sampled_from([x, float(np.nextafter(x, -1.0)),
                                  float(np.nextafter(x, 1e3))]))
        return min(max(x, 0.0), sig_horizon)

    point = points() | st.floats(0.0, sig_horizon)
    shape = draw(st.sampled_from(["edges", "edges", "empty", "full", "head", "tail"]))
    if shape == "edges":
        ends = draw(st.lists(st.tuples(point, point), max_size=8))
        intervals = [(min(a, b), abs(b - a)) for a, b in ends]
        intervals += [(x, 0.0) for x in draw(st.lists(point, max_size=4))]
    elif shape == "empty":
        intervals = []
    elif shape == "full":
        intervals = draw(st.sampled_from([
            [(0.0, sig_horizon)],
            [(k * delta, 0.0) for k in range(int(sig_horizon / delta) + 1)],
        ]))
    else:  # blocked from the start up to a point, or from a point on
        x = draw(point)
        intervals = [(0.0, x)] if shape == "head" else [(x, sig_horizon - x)]
    return DoSSignal(intervals, sig_horizon), delta, horizon


def brute_force_deficits(signal, tau_D, T, windows):
    """Direct evaluation of the two class deficits over explicit windows."""
    eta = 0.0
    kappa = 0.0
    for tau, t in windows:
        eta = max(eta, transitions_count(signal, tau, t) - (t - tau) / tau_D)
        kappa = max(kappa, dos_measure(signal, tau, t) - (t - tau) / T)
    return eta, kappa


class TestSignalConstruction:
    def test_merges_overlapping(self):
        s = DoSSignal(intervals=((1.0, 0.5), (1.2, 0.6)), horizon=10.0)
        assert len(s.intervals) == 1
        assert s.intervals[0] == (1.0, pytest.approx(0.8))

    def test_merges_touching_interval(self):
        # [1, 1.5[ followed by [1.5, 1.7[ is one contiguous blocked stretch
        s = DoSSignal(intervals=((1.0, 0.5), (1.5, 0.2)), horizon=10.0)
        assert s.intervals == ((1.0, 0.7),)

    def test_keeps_pulse_at_open_endpoint(self):
        # the pulse at 1.5 closes the right end; not expressible merged
        s = DoSSignal(intervals=((1.0, 0.5), (1.5, 0.0)), horizon=10.0)
        assert s.intervals == ((1.0, 0.5), (1.5, 0.0))
        assert active_at(s, 1.5)

    def test_clips_to_horizon(self):
        s = DoSSignal(intervals=((8.0, 5.0), (12.0, 1.0)), horizon=10.0)
        assert s.intervals == ((8.0, 2.0),)

    def test_rejects_bad_intervals(self):
        with pytest.raises(ValueError):
            DoSSignal(intervals=((-1.0, 0.5),), horizon=10.0)
        with pytest.raises(ValueError):
            DoSSignal(intervals=((1.0, -0.5),), horizon=10.0)
        with pytest.raises(ValueError):
            DoSSignal(intervals=(), horizon=0.0)

    @PROPERTY
    @given(interval_lists())
    def test_canonical_like_the_loop(self, case):
        intervals, horizon = case
        assert_canonical_as(DoSSignal(intervals, horizon),
                            canonical_intervals_loop(intervals, horizon))

    @PROPERTY
    @given(interval_lists(valid=False))
    def test_first_offender_like_the_loop(self, case):
        intervals, horizon = case
        try:
            want = canonical_intervals_loop(intervals, horizon)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                DoSSignal(intervals, horizon)
            assert str(got.value) == str(exc)
        else:
            assert_canonical_as(DoSSignal(intervals, horizon), want)

    def test_negative_zero_duration_kept(self):
        # min(-0.0, 0.0) is -0.0 in Python; np.minimum would give 0.0
        s = DoSSignal(intervals=((10.0, -0.0), (1.0, -0.0)), horizon=10.0)
        assert repr(s.intervals) == "((1.0, -0.0), (10.0, -0.0))"

    @PROPERTY
    @given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]),
                              st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.5])),
                    max_size=12),
           st.randoms(use_true_random=False))
    def test_sorts_like_lexsort(self, pairs, random):
        # tied onsets, 0.0 against -0.0 among them, and -0.0 durations,
        # shuffled: which tied pair comes first shows in the merged result,
        # e.g. as the sign of a zero onset
        random.shuffle(pairs)
        h, tau = np.array(pairs, dtype=float).reshape(-1, 2).T
        order = np.lexsort((tau, h)).tolist()
        assert order == sorted(range(len(pairs)), key=pairs.__getitem__)
        assert_canonical_as(DoSSignal(pairs, 10.0),
                            merge_loop([pairs[i] for i in order]))

    def test_sort_order_shows_in_a_zero_onset(self):
        for pairs in ([(0.0, 0.5), (-0.0, 0.5)], [(-0.0, 0.5), (0.0, 0.5)]):
            assert repr(DoSSignal(pairs, 10.0).intervals) == repr(((pairs[0][0], 0.5),))

    @pytest.mark.parametrize("intervals", [
        [[1.0, 2.0, 3.0]], [[1.0]], [5], 5, [[[1.0, 2.0]]], [[]], np.empty((0, 3)),
    ])
    def test_refuses_other_shapes(self, intervals):
        with pytest.raises(ValueError, match=r"^intervals: expected a list of \[onset"):
            DoSSignal(intervals=intervals, horizon=10.0)

    @pytest.mark.parametrize("intervals", [(), [], np.empty((0, 2))])
    def test_empty_sequence_is_the_empty_signal(self, intervals):
        s = DoSSignal(intervals=intervals, horizon=10.0)
        assert s.intervals == () and s.onsets.shape == s.ends.shape == (0,)

    def test_json_round_trip(self):
        s = DoSSignal(intervals=((0.3, 0.0), (1.0, 0.5)), horizon=10.0)
        assert signal_from_dict(signal_to_dict(s)) == s

    @pytest.mark.parametrize("data", [
        {"horizon": 50.0, "intervals": 5},
        {"horizon": 50.0, "intervals": [5]},
        {"horizon": 50.0, "intervals": [[1.0]]},
        {"horizon": 50.0, "intervals": [[1.0, 2.0, 3.0]]},
        {"horizon": 50.0, "intervals": [[[1.0, 2.0]]]},
        {"horizon": 50.0, "intervals": [{"a": 1, "b": 2}]},
        {"horizon": 50.0, "intervals": [[1.0, 10**400]]},
        {"horizon": None, "intervals": []},
        {"horizon": 50.0},
        [],
    ])
    def test_malformed_dict_is_a_value_error(self, data):
        with pytest.raises(ValueError):
            signal_from_dict(data)

    @pytest.mark.parametrize("data, message", [
        ({"horizon": 50.0, "intervals": [["1", True]]},
         "intervals[0][0]: expected a number, got '1'"),
        ({"horizon": 50.0, "intervals": [[1.0, True]]},
         "intervals[0][1]: expected a number, got True"),
        ({"horizon": 50.0, "intervals": ((1.0, 0.5), (2.0, None))},
         "intervals[1][1]: expected a number, got None"),
        ({"horizon": "50", "intervals": []}, "horizon: expected a number, got '50'"),
        ({"horizon": False, "intervals": []}, "horizon: expected a number, got False"),
    ])
    def test_non_numbers_are_refused_by_name(self, data, message):
        # numpy alone would read "1" and true as 1.0
        with pytest.raises(ValueError) as info:
            signal_from_dict(data)
        assert str(info.value) == message

    def test_numpy_numbers_are_numbers(self):
        data = {"horizon": np.float64(10.0), "intervals": [[np.int64(1), 0.5]]}
        assert signal_from_dict(data).intervals == ((1.0, 0.5),)

    def test_immutable_value(self):
        s = DoSSignal(intervals=((0.3, 0.0), (1.0, 0.5)), horizon=10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.horizon = 5.0
        with pytest.raises(ValueError):
            s.onsets[0] = 0.0
        twin = pickle.loads(pickle.dumps(s))
        assert twin == s and hash(twin) == hash(s) and s != s.intervals
        assert repr(s) == "DoSSignal(intervals=((0.3, 0.0), (1.0, 0.5)), horizon=10.0)"

    @PROPERTY
    @given(chained_pairs() | interval_lists())
    def test_store_like_sort_and_merge(self, case):
        # pairs already in order and disjoint are stored as they are, any
        # others sorted and merged; no stored array is a view of the
        # caller's, which would stay writable through its base
        pairs, horizon = case
        given_pairs = np.array(pairs, dtype=float).reshape(-1, 2)
        sig = DoSSignal(given_pairs, horizon)
        assert_stored_read_only(sig)
        given_pairs[:] = 0.5
        assert_canonical_as(sig, canonical_intervals_loop(pairs, horizon))

    def test_a_grown_pulse_joins_the_end_it_sits_at(self):
        # the pulse at 0.25 stays apart from [0, 0.25[ until the interval
        # [0.25, 0.5[ covers it; then the three are one interval
        s = DoSSignal([(0, 0.25), (0.25, 0), (0.25, 0.25)], 0.5)
        assert s.intervals == ((0.0, 0.5),)
        assert DoSSignal([(0, 0.25), (0.25, 0)], 0.5).intervals == (
            (0.0, 0.25), (0.25, 0.0))

    @PROPERTY
    @given(chained_pairs() | interval_lists())
    def test_canonical_form_is_a_fixed_point(self, case):
        s = DoSSignal(*case)
        assert DoSSignal(s.intervals, s.horizon) == s

    @pytest.mark.parametrize("clone", [
        lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy,
    ])
    def test_a_clone_is_stored_anew(self, clone):
        s = generate(6128, GeneratorSpec(), 50.0)
        twin = clone(s)
        assert twin == s and twin.onsets is not s.onsets
        assert_stored_read_only(twin)
        assert_canonical_as(twin, s.intervals)


class TestActiveAt:
    def test_left_endpoint_blocks(self):
        s = DoSSignal(intervals=((1.0, 0.5),), horizon=10.0)
        assert active_at(s, 1.0)

    def test_right_endpoint_is_free(self):
        s = DoSSignal(intervals=((1.0, 0.5),), horizon=10.0)
        assert not active_at(s, 1.5)
        assert active_at(s, 1.5 - 1e-12)

    def test_pulse_blocks_exactly_its_instant(self):
        s = DoSSignal(intervals=((0.3, 0.0),), horizon=10.0)
        assert active_at(s, 0.3)
        assert not active_at(s, 0.3 + 1e-12)

    def test_domain_gate(self):
        s = DoSSignal(intervals=(), horizon=10.0)
        with pytest.raises(ValueError):
            active_at(s, -0.1)
        with pytest.raises(ValueError):
            active_at(s, 10.1)


class TestCountAndMeasure:
    def test_empty_signal(self):
        s = DoSSignal(intervals=(), horizon=10.0)
        assert transitions_count(s, 0.0, 10.0) == 0
        assert dos_measure(s, 0.0, 10.0) == 0.0

    @pytest.mark.parametrize("window", [
        (math.nan, 10.0), (0.0, math.nan), (math.nan, math.nan), (-1.0, 5.0),
        (6.0, 5.0), (0.0, 10.5),
    ])
    @pytest.mark.parametrize("measure", [transitions_count, dos_measure])
    def test_window_outside_the_horizon_is_refused(self, measure, window):
        # NaN used to pass: the count came back -30 and the measure nan
        s = pulse_train(0.25, 10.0)
        with pytest.raises(ValueError, match=r"must satisfy 0 <= tau <= t <= 10\.0$"):
            measure(s, *window)

    def test_count_half_open_window(self):
        s = pulse_train(0.1, 2.0)
        assert transitions_count(s, 0.0, 1.0) == 10  # onsets 0.0 .. 0.9

    def test_measure_clipping(self):
        s = DoSSignal(intervals=((1.0, 0.5),), horizon=10.0)
        assert dos_measure(s, 0.0, 2.0) == pytest.approx(0.5)
        assert dos_measure(s, 1.2, 2.0) == pytest.approx(0.3)
        assert dos_measure(s, 1.2, 1.4) == pytest.approx(0.2)

    def test_measure_additivity_and_monotonicity(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            sig = generate(int(rng.integers(1 << 31)), GeneratorSpec(), 20.0)
            a, b, c = np.sort(rng.uniform(0.0, 20.0, size=3))
            assert dos_measure(sig, a, b) + dos_measure(sig, b, c) == pytest.approx(
                dos_measure(sig, a, c), abs=1e-12
            )
            assert dos_measure(sig, a, c) >= dos_measure(sig, b, c) - 1e-12
            assert transitions_count(sig, a, c) >= transitions_count(sig, b, c)


class TestBlockedTimeLookup:
    def test_mask_matches_membership_and_active_at(self):
        rng = np.random.default_rng(31)
        signals = [DoSSignal(intervals=(), horizon=10.0)]
        signals += [random_signal(rng) for _ in range(200)]
        pulses = touching = 0
        for sig in signals:
            iv = sig.intervals
            pulses += sum(tau == 0.0 for _, tau in iv)
            touching += sum(h1 == h0 + tau0 for (h0, tau0), (h1, _) in zip(iv, iv[1:]))
            t = critical_times(sig, rng)
            mask = active_mask(sig, t)
            assert mask.tolist() == [
                any(x == h or h <= x < h + tau for h, tau in iv) for x in t
            ]
            assert mask.tolist() == [active_at(sig, x) for x in t]
        assert pulses > 100 and touching > 20

    @pytest.mark.parametrize("delta, substeps", [(0.1, 1), (0.25, 1), (0.1, 10), (0.3, 4)])
    def test_grids_with_pulses_on_their_points(self, delta, substeps):
        # the attempt grid (substeps 1) and simulate's sub-step rows, with
        # pulses on grid points, intervals from one point to another, and
        # pulses at the open end of such an interval
        horizon = 6.0
        ticks = successful_transmissions(DoSSignal((), horizon), delta, horizon).attempts
        times = (ticks[:, None] + np.arange(substeps) * (delta / substeps)).ravel()
        times = np.minimum(times[: (ticks.size - 1) * substeps + 1], horizon)
        assert (times[1:] > times[:-1]).all()
        rng = np.random.default_rng(int(delta * 100) + substeps)
        for _ in range(30):
            picks = np.sort(rng.choice(times, size=12, replace=False)).tolist()
            intervals = []
            for a, b in zip(picks[::2], picks[1::2]):
                kind = rng.integers(4)
                if kind == 0:
                    intervals.append((a, 0.0))
                else:
                    intervals.append((a, b - a))
                    if kind == 2:
                        intervals.append((a + (b - a), 0.0))
            sig = DoSSignal(intervals, horizon)
            assert active_mask(sig, times).tolist() == membership(sig, times)

    def test_pulse_and_interval_touching_on_a_grid_point(self):
        sig = DoSSignal([(0.25, 0.0), (0.375, 0.25), (0.625, 0.0), (0.75, 0.0),
                         (0.875, 0.125)], 1.0)
        times = np.arange(9) * 0.125
        blocked = [False, False, True, True, True, True, True, True, False]
        assert active_mask(sig, times).tolist() == blocked == membership(sig, times)

    @pytest.mark.parametrize("times", [
        np.arange(21) * 0.25, np.array([]), np.array([2.5, 2.5, 2.5]), 0.0, 5.0,
    ])
    def test_empty_signal_blocks_nothing(self, times):
        mask = active_mask(DoSSignal((), 5.0), times)
        assert mask.dtype == bool and mask.shape == np.shape(times)
        assert not mask.any()

    def test_scalar_time(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            sig = random_signal(rng)
            for x in critical_times(sig, rng)[::5].tolist():
                mask = active_mask(sig, x)
                assert mask.shape == () and mask.tolist() == membership(sig, x)[0]

    @PROPERTY
    @given(case=interval_lists(), data=st.data())
    def test_unsorted_and_repeated_times(self, case, data):
        sig = DoSSignal(*case)
        marks = np.concatenate((sig.onsets, sig.ends, [0.0, -0.0, sig.horizon]))
        marks = np.concatenate((marks, np.nextafter(marks, -1.0), np.nextafter(marks, 2.0)))
        values = st.sampled_from(marks.tolist()) | st.floats(-1.0, 10.0)
        values = values | st.sampled_from([math.nan, math.inf, -math.inf])
        times = np.array(data.draw(st.lists(values, max_size=40)))
        times = np.concatenate((times, times[::3]))  # repeats, out of order
        assert active_mask(sig, times).tolist() == membership(sig, times)
        ascending = np.sort(times)
        assert active_mask(sig, ascending).tolist() == membership(sig, ascending)

    def test_times_keep_their_shape(self):
        sig = DoSSignal([(0.5, 1.0), (2.0, 0.0)], 4.0)
        times = np.array([[2.0, 0.5, 1.5], [1.0, 3.0, 0.0]])
        assert active_mask(sig, times).tolist() == [[True, True, False],
                                                    [True, False, False]]

    def test_measure_and_count_match_loops(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            sig = random_signal(rng)
            marks = critical_times(sig, rng)
            windows = [np.sort(rng.choice(marks, 2)) for _ in range(10)]
            for tau, t in [(0.0, sig.horizon)] + windows:
                tau, t = float(tau), float(t)
                measure = 0.0
                for h, dur in sig.intervals:
                    measure += max(0.0, min(h + dur, t) - max(h, tau))
                assert dos_measure(sig, tau, t) == measure
                assert transitions_count(sig, tau, t) == sum(
                    tau <= h < t for h, _ in sig.intervals
                )

    @PROPERTY
    @given(interval_lists() | chained_pairs())
    def test_marks_take_nextafter_only_for_pulses(self, case):
        # an end past its onset is at least the float after it, so the
        # marks equal those that take nextafter of every onset
        sig = DoSSignal(*case)
        assert dos._marks(sig).tobytes() == marks_with_nextafter(sig).tobytes()


class TestFitClassParams:
    def test_empty_signal(self):
        s = DoSSignal(intervals=(), horizon=10.0)
        assert fit_class_params(s, 1.0, 2.0) == (0.0, 0.0)

    @pytest.mark.parametrize("intervals", [(), ((0.1, 0.2), (2.0, 0.5))])
    @pytest.mark.parametrize("tau_D", [1e-320, 5e-324, math.nan])
    def test_tau_d_past_the_float_range(self, intervals, tau_D):
        # horizon / tau_D bounds every onset / tau_D of the scan
        s = DoSSignal(intervals=intervals, horizon=10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                fit_class_params(s, tau_D, 2.0)
            assert str(info.value) == (
                f"tau_D must leave horizon / tau_D finite, got 10.0 / {tau_D}"
            )
            eta, kappa = fit_class_params(s, 1e-307, 2.0)  # 1e308: still finite
        assert math.isfinite(eta) and math.isfinite(kappa)

    def test_single_pulse_at_origin(self):
        s = DoSSignal(intervals=((0.0, 0.0),), horizon=10.0)
        eta, kappa = fit_class_params(s, 1.0, 2.0)
        assert eta == pytest.approx(1.0)
        assert kappa == pytest.approx(0.0)

    def test_pulse_train_unit_chatter(self):
        s = pulse_train(0.1, 1.0)
        eta, _ = fit_class_params(s, 0.1, 2.0)
        assert eta == pytest.approx(1.0, abs=1e-9)

    def test_scan_matches_pairwise_oracle(self):
        rng = np.random.default_rng(41)
        signals = [DoSSignal(intervals=(), horizon=10.0)]
        signals += [random_signal(rng) for _ in range(200)]
        signals += [generate(seed, GeneratorSpec(), 50.0) for seed in range(20)]
        signals.append(generate(6128, GeneratorSpec(), 2000.0))
        assert len(signals[-1].intervals) > 1500
        for sig in signals:
            tau_D, T = rng.uniform(0.3, 2.0), rng.uniform(1.1, 3.0)
            got = fit_class_params(sig, tau_D, T)
            assert all(type(v) is float for v in got)
            for scan, loop in zip(got, fit_class_params_loop(sig, tau_D, T)):
                assert abs(scan - loop) <= 1e-12 * abs(loop)

    def test_soundness_against_dense_windows(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            sig = generate(int(rng.integers(1 << 31)), GeneratorSpec(), 20.0)
            tau_D = rng.uniform(0.5, 2.0)
            T = rng.uniform(1.2, 3.0)
            eta, kappa = fit_class_params(sig, tau_D, T)
            # dense random windows plus the critical endpoints
            pts = [0.0, sig.horizon]
            for h, tau in sig.intervals:
                pts += [h, h + tau, min(h + 1e-9, sig.horizon)]
            pairs = [
                tuple(sorted(rng.uniform(0.0, sig.horizon, size=2)))
                for _ in range(500)
            ]
            pairs += [(a, b) for a in pts for b in pts if a <= b]
            eta_obs, kappa_obs = brute_force_deficits(sig, tau_D, T, pairs)
            assert eta_obs <= eta + 1e-9
            assert kappa_obs <= kappa + 1e-9
            # minimality: shaving epsilon off must break the bound somewhere
            assert eta_obs > eta - 1e-6 or eta == 0.0
            assert kappa_obs > kappa - 1e-6 or kappa == 0.0


class TestGenerate:
    def test_deterministic(self):
        spec = GeneratorSpec()
        assert generate(42, spec, 50.0) == generate(42, spec, 50.0)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_bad_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            generate(1, GeneratorSpec(), horizon)

    def test_interval_limit(self, monkeypatch):
        # the check itself: at the limit drawing starts, past it nothing is drawn
        class Drawing(Exception):
            pass

        def drawing(seed):
            raise Drawing

        monkeypatch.setattr(np.random, "default_rng", drawing)
        spec = GeneratorSpec(off_range=(0.0, 1.0), on_range=(0.5, 1.5))  # mean 1.5 s
        with pytest.raises(Drawing):
            generate(1, spec, MAX_INTERVALS * 1.5)
        with pytest.raises(ValueError, match=f"above the limit of {MAX_INTERVALS}"):
            generate(1, spec, MAX_INTERVALS * 1.5 * (1 + 1e-12))
        with pytest.raises(ValueError, match="limit"):
            generate(1, GeneratorSpec(off_range=(0.0, 1e-9), on_range=(0.0, 0.0)), 50.0)

    @pytest.mark.parametrize("off_range", [(0.1, 0.7), (0.0, 0.0), (0.0, 1e-14), (0.0, 0.3)])
    def test_canonical_like_the_constructor(self, off_range):
        # zero or rounded-away clear periods leave touching intervals to merge
        for seed in range(20):
            sig = generate(seed, GeneratorSpec(off_range=off_range), 50.0)
            rebuilt = DoSSignal(intervals=sig.intervals, horizon=50.0)
            assert sig == rebuilt
            assert np.array_equal(sig.onsets, rebuilt.onsets)
            assert np.array_equal(sig.ends, rebuilt.ends)
        assert len(generate(1, GeneratorSpec(off_range=(0.0, 0.0)), 50.0).intervals) == 1

    @PROPERTY
    @given(
        seed=st.integers(0, 2**64 - 1),
        off=st.tuples(st.sampled_from([0.0, 0.05, 0.3]) | st.floats(0.0, 1.0),
                      st.sampled_from([0.0, 0.4]) | st.floats(0.0, 1.5)),
        on=st.tuples(st.sampled_from([0.0, 0.05, 0.3]) | st.floats(0.0, 1.0),
                     st.sampled_from([0.0, 1.2]) | st.floats(0.0, 1.5)),
        horizon=st.sampled_from([0.05, 1.0, 50.0]) | st.floats(1e-3, 60.0),
        rows=st.sampled_from([None, None, 1, 2, 7]),
    )
    def test_matches_the_loop(self, seed, off, on, horizon, rows):
        # (lo, width) pairs, zero widths included; rows forces small batches,
        # so that the first batch falls short of the horizon
        assume(off[0] + off[1] + on[0] + on[1] > 0.0)
        spec = GeneratorSpec(off_range=(off[0], off[0] + off[1]),
                             on_range=(on[0], on[0] + on[1]))
        cycle = (sum(spec.off_range) + sum(spec.on_range)) / 2.0
        assume(horizon <= 2000.0 * cycle)
        with pytest.MonkeyPatch.context() as patch:
            if rows is not None:
                patch.setattr(dos, "_batch_rows", lambda cycles: rows)
            sig = generate(seed, spec, horizon)
        assert_canonical_as(sig, generate_loop(seed, spec, horizon))
        # the same stream as Generator.uniform(low, high, size) draws it,
        # with the two ranges as tuple bounds
        rng = np.random.default_rng(seed)
        low, high = zip(spec.off_range, spec.on_range)
        batches = (rng.uniform(low, high, (64, 2)).ravel() for _ in itertools.count())
        assert_canonical_as(sig, generate_loop(seed, spec, horizon,
                                               itertools.chain.from_iterable(batches)))

    @PROPERTY
    @given(
        seed=st.integers(0, 2**64 - 1),
        spec=st.sampled_from([
            GeneratorSpec(),
            GeneratorSpec(off_range=(0.0, 0.0)),  # every interval touches
            GeneratorSpec(on_range=(0.0, 0.0)),  # pulses
            GeneratorSpec(off_range=(0.0, 0.0), on_range=(0.0, 0.25)),
            GeneratorSpec(off_range=(0.0, 0.3), on_range=(0.0, 0.0)),
        ]),
        horizon=st.sampled_from([0.05, 1.0, 50.0]) | st.floats(1e-3, 60.0),
    )
    def test_like_the_constructor_on_its_columns(self, seed, spec, horizon):
        # the drawn columns, handed past the constructor's checks, give the
        # signal that the constructor makes of them
        onsets, on = drawn_columns(seed, spec, horizon)
        sig = generate(seed, spec, horizon)
        want = DoSSignal(np.column_stack((onsets, on)), horizon)
        assert sig.onsets.tobytes() == want.onsets.tobytes()
        assert sig.ends.tobytes() == want.ends.tobytes()
        assert sig._durations.tobytes() == want._durations.tobytes()
        assert repr(sig) == repr(want) and sig.horizon == horizon
        assert_stored_read_only(sig)
        assert dos._marks(sig).tobytes() == marks_with_nextafter(sig).tobytes()

    @pytest.mark.parametrize("off_range, on_range", [
        ((math.nan, 0.7), (0.3, 1.5)),
        ((0.1, math.inf), (0.3, 1.5)),
        ((0.1, 0.7), (0.3, math.inf)),
        ((0.1, 0.7), (math.nan, math.nan)),
    ])
    def test_spec_refuses_non_finite_ends(self, off_range, on_range):
        with pytest.raises(ValueError, match="must be finite"):
            GeneratorSpec(off_range=off_range, on_range=on_range)

    def test_pure_pulses(self):
        spec = GeneratorSpec(off_range=(0.2, 0.4), on_range=(0.0, 0.0))
        sig = generate(7, spec, 10.0)
        assert all(tau == 0.0 for _, tau in sig.intervals)
        assert len(sig.intervals) > 10

    def test_default_spec_calibration(self):
        # across seeds, the realized duty/frequency rate centers near 0.771
        rates = []
        for seed in range(100):
            sig = generate(seed, GeneratorSpec(), 50.0)
            n = transitions_count(sig, 0.0, 50.0)
            xi = dos_measure(sig, 0.0, 50.0)
            rates.append(xi / 50.0 + 0.1 * n / 50.0)
        assert abs(float(np.mean(rates)) - 0.771) <= 0.05


class TestSuccessfulTransmissions:
    def test_empty_signal_all_succeed(self):
        s = DoSSignal(intervals=(), horizon=1.0)
        sched = successful_transmissions(s, 0.1, 1.0)
        assert np.array_equal(sched.successes, sched.attempts)
        assert len(sched.attempts) == 11

    def test_synchronized_pulse_train_blocks_everything(self):
        s = pulse_train(0.1, 1.0)
        sched = successful_transmissions(s, 0.1, 1.0)
        assert sched.successes.size == 0

    def test_interval_check(self):
        s = DoSSignal(intervals=((0.05, 0.1),), horizon=0.3)
        sched = successful_transmissions(s, 0.1, 0.3)
        assert sched.successes.tolist() == [0.0, 0.2, pytest.approx(0.3)]

    def test_read_only_float_arrays(self):
        sched = successful_transmissions(pulse_train(0.3, 1.0), 0.1, 1.0)
        for times in (sched.attempts, sched.successes):
            assert times.dtype == np.float64
            with pytest.raises(ValueError):
                times[0] = 1.0

    @PROPERTY
    @given(
        case=interval_lists(),
        delta=st.sampled_from([0.1, 0.25, 0.3]) | st.floats(0.05, 2.0),
        share=st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(0.0, 1.0),
    )
    def test_schedule_and_audit_match_the_tuple_loop(self, case, delta, share):
        intervals, horizon = case
        sig = DoSSignal(intervals, horizon)
        horizon *= share
        attempts, successes = schedule_loop(sig, delta, horizon)
        sched = successful_transmissions(sig, delta, horizon)
        assert sched.attempts.tobytes() == np.array(attempts, dtype=float).tobytes()
        assert sched.successes.tobytes() == np.array(successes, dtype=float).tobytes()
        params = DoSClassParams(eta=1.0, tau_D=10.0, kappa=1.0, T=2.0)
        verdict = check_gap_bound(sig, delta, params, horizon)
        assert repr((verdict.z0, verdict.max_gap)) == repr(gap_loop(successes))
        types = [type(v) for v in dataclasses.astuple(verdict)]
        assert types == [float] * 4 + [bool] * 2

    @PROPERTY
    @given(case=grid_cases())
    def test_grid_arithmetic_matches_the_built_grid(self, case):
        # the edges, the schedule and the audit, read off the interval
        # marks, against the attempt grid built and searched in full
        sig, delta, horizon = case
        attempts = np.array(schedule_loop(sig, delta, horizon)[0])
        marks = dos._marks(sig)
        edges = dos._grid_edges(marks, delta, horizon, attempts.size)
        assert edges.tolist() == np.searchsorted(attempts, marks).tolist()
        z = attempts[~active_mask(sig, attempts)]
        sched = successful_transmissions(sig, delta, horizon)
        assert sched.attempts.tobytes() == attempts.tobytes()
        assert sched.successes.tobytes() == z.tobytes()
        params = DoSClassParams(eta=1.0, tau_D=10.0, kappa=1.0, T=2.0)
        verdict = check_gap_bound(sig, delta, params, horizon)
        oracle = ((float(z[0]), float(np.max(np.diff(z), initial=0.0))) if z.size
                  else (math.inf, math.inf))
        assert repr((verdict.z0, verdict.max_gap)) == repr(oracle)

    @pytest.mark.parametrize("horizon", [math.nan, -5.0, -5e-324])
    def test_bad_horizon_is_refused(self, horizon):
        # NaN used to fail on the attempt limit, and -5 gave an empty grid
        # and a failing audit
        s = pulse_train(0.5, 10.0)
        params = DoSClassParams(eta=1.0, tau_D=10.0, kappa=1.0, T=2.0)
        message = f"^horizon must be >= 0, got {horizon}$"
        with pytest.raises(ValueError, match=message):
            successful_transmissions(s, 0.1, horizon)
        with pytest.raises(ValueError, match=message):
            check_gap_bound(s, 0.1, params, horizon)

    def test_attempt_limit(self, monkeypatch):
        s = DoSSignal(intervals=(), horizon=50.0)
        limit = f"above the limit of {MAX_ATTEMPTS}$"
        with pytest.raises(ValueError, match=f"is 5e\\+10 attempts, {limit}"):
            successful_transmissions(s, 1e-9, 50.0)
        with pytest.raises(ValueError, match="is inf attempts"):
            successful_transmissions(s, 5e-324, 50.0)
        with pytest.raises(ValueError, match="delta_big must be > 0, got nan"):
            successful_transmissions(s, math.nan, 50.0)
        monkeypatch.setattr(dos, "MAX_ATTEMPTS", 11)
        assert successful_transmissions(s, 0.1, 1.0).attempts.size == 11
        with pytest.raises(ValueError, match="is 12 attempts, above the limit of 11$"):
            successful_transmissions(s, 0.1, 1.1)

    def test_audit_refuses_the_same_grids(self):
        # the audit builds no grid, but keeps the limit and its message
        s = DoSSignal(intervals=((10.0, 1.0),), horizon=50.0)
        params = DoSClassParams(eta=1.0, tau_D=10.0, kappa=1.0, T=2.0)
        message = (f"^an attempt grid over 50.0 s in periods of 1e-09 s is "
                   f"5e\\+10 attempts, above the limit of {MAX_ATTEMPTS}$")
        for audit in (lambda: successful_transmissions(s, 1e-9, 50.0),
                      lambda: check_gap_bound(s, 1e-9, params, 50.0)):
            with pytest.raises(ValueError, match=message):
                audit()
        # the class is checked first, as before
        infeasible = DoSClassParams(eta=1.0, tau_D=1e-9, kappa=0.0, T=2.0)
        with pytest.raises(InfeasibleDoSClassError):
            check_gap_bound(s, 1e-9, infeasible, 50.0)


class TestSuccessGapBound:
    def test_no_dos_class(self):
        params = DoSClassParams(eta=0.0, tau_D=1.0, kappa=0.0, T=2.0)
        assert success_gap_bound(params, 0.1) == 0.0

    def test_benchmark_class_value(self):
        params = DoSClassParams(eta=3.1, tau_D=1.2821, kappa=0.8442, T=1.4430)
        q = success_gap_bound(params, 0.1)
        assert q == pytest.approx(5.040, abs=2e-3)

    def test_mu_scales_delta_terms(self):
        params = DoSClassParams(eta=1.0, tau_D=1.0, kappa=1.0, T=2.0)
        assert success_gap_bound(params, 0.1, mu=2) == pytest.approx(4.0)

    @pytest.mark.parametrize("field, message", [
        ("eta", "eta must be >= 0"), ("kappa", "kappa must be >= 0"),
        ("tau_D", "tau_D must be > 0"), ("T", "T must be > 1"),
    ])
    @pytest.mark.parametrize("value", [math.nan, -1.0])
    def test_class_refuses_nan_and_negative_fields(self, field, message, value):
        # a NaN eta, kappa or tau_D used to pass and make the bound nan
        values = {"eta": 1.0, "tau_D": 1.0, "kappa": 1.0, "T": 2.0, field: value}
        with pytest.raises(ValueError, match=f"^{message}, got {value}$"):
            DoSClassParams(**values)

    def test_infeasible_carries_rate(self):
        params = DoSClassParams(eta=1.0, tau_D=0.1, kappa=0.0, T=1e18)
        with pytest.raises(InfeasibleDoSClassError) as exc:
            success_gap_bound(params, 0.1)
        assert exc.value.rate == pytest.approx(1.0)


class TestCheckGapBound:
    def test_empty_signal(self):
        s = DoSSignal(intervals=(), horizon=5.0)
        params = DoSClassParams(eta=1.0, tau_D=1.0, kappa=0.5, T=2.0)
        verdict = check_gap_bound(s, 0.1, params, 5.0)
        assert verdict.z0 == 0.0
        assert verdict.max_gap == pytest.approx(0.1)
        assert verdict.z0_ok and verdict.max_gap_ok

    def test_gap_bound_holds_for_in_class_signals(self):
        rng = np.random.default_rng(23)
        delta = 0.1
        for _ in range(100):
            sig = generate(int(rng.integers(1 << 31)), GeneratorSpec(), 30.0)
            tau_D = 30.0 / max(transitions_count(sig, 0.0, 30.0), 1)
            t_avg = 30.0 / max(dos_measure(sig, 0.0, 30.0), 1e-9)
            if not t_avg > 1.0 or 1.0 / t_avg + delta / tau_D >= 1.0:
                continue
            eta, kappa = fit_class_params(sig, tau_D, t_avg)
            params = DoSClassParams(eta=eta, tau_D=tau_D, kappa=kappa, T=t_avg)
            verdict = check_gap_bound(sig, delta, params, 30.0)
            assert verdict.z0 <= verdict.gap_bound + 1e-9
            assert verdict.max_gap <= verdict.gap_bound_plus_delta + 1e-9

    def test_memory_stays_linear_in_the_intervals(self):
        # ten intervals mid-way through a grid of 5e6 attempts: the audit
        # reads the gaps off their edges and allocates no grid (~40 MB)
        horizon, delta = 50.0, 1e-5
        rng = np.random.default_rng(41)
        onsets = 20.0 + np.sort(rng.uniform(0.0, 10.0, 10))
        sig = DoSSignal(np.column_stack((onsets, rng.uniform(0.0, 0.5, 10))), horizon)
        params = DoSClassParams(eta=1.0, tau_D=10.0, kappa=1.0, T=2.0)
        check_gap_bound(sig, delta, params, horizon)
        tracemalloc.start()
        try:
            verdict = check_gap_bound(sig, delta, params, horizon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        z = successful_transmissions(sig, delta, horizon).successes
        assert z.size > 4_000_000
        assert (verdict.z0, verdict.max_gap) == (z[0], np.max(np.diff(z)))

    def test_infeasible_class_propagates(self):
        s = pulse_train(0.1, 1.0)
        params = DoSClassParams(eta=1.0, tau_D=0.1, kappa=0.0, T=1e18)
        with pytest.raises(InfeasibleDoSClassError):
            check_gap_bound(s, 0.1, params, 1.0)
