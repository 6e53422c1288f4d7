import dataclasses
import math
import pickle

import numpy as np
import pytest

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
from doscontrol.dos import MAX_INTERVALS, active_mask


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

    def test_immutable_value(self):
        s = DoSSignal(intervals=((0.3, 0.0), (1.0, 0.5)), horizon=10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.horizon = 5.0
        with pytest.raises(ValueError):
            s.onsets[0] = 0.0
        twin = pickle.loads(pickle.dumps(s))
        assert twin == s and hash(twin) == hash(s) and s != s.intervals
        assert repr(s) == "DoSSignal(intervals=((0.3, 0.0), (1.0, 0.5)), horizon=10.0)"


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


class TestFitClassParams:
    def test_empty_signal(self):
        s = DoSSignal(intervals=(), horizon=10.0)
        assert fit_class_params(s, 1.0, 2.0) == (0.0, 0.0)

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
        assert sched.successes == sched.attempts
        assert len(sched.attempts) == 11

    def test_synchronized_pulse_train_blocks_everything(self):
        s = pulse_train(0.1, 1.0)
        sched = successful_transmissions(s, 0.1, 1.0)
        assert sched.successes == ()

    def test_interval_check(self):
        s = DoSSignal(intervals=((0.05, 0.1),), horizon=0.3)
        sched = successful_transmissions(s, 0.1, 0.3)
        assert sched.successes == (0.0, 0.2, pytest.approx(0.3))


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

    def test_infeasible_class_propagates(self):
        s = pulse_train(0.1, 1.0)
        params = DoSClassParams(eta=1.0, tau_D=0.1, kappa=0.0, T=1e18)
        with pytest.raises(InfeasibleDoSClassError):
            check_gap_bound(s, 0.1, params, 1.0)
