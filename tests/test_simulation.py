import csv
import dataclasses
import io
from fractions import Fraction
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import doscontrol
from doscontrol import (
    DoSSignal,
    GeneratorSpec,
    LtiPlant,
    NoiseSpec,
    SimConfig,
    check_envelope,
    compute_metrics,
    controllers,
    decay_envelope,
    derive_constants,
    dos,
    fit_class_params,
    generate,
    linalg,
    min_prediction_horizon,
    simulate,
    simulation,
    success_gap_bound,
    successful_transmissions,
    trace_to_csv,
)
from doscontrol import _tracecsv
from doscontrol.dos import DoSClassParams
from doscontrol.simulation import MAX_ROWS, solve_blocks

from conftest import BENCH_A, BENCH_B, BENCH_K

X0 = np.array([1.0, -1.0]) / math.sqrt(2.0)
QUIET = NoiseSpec()
NO_DOS = DoSSignal(intervals=(), horizon=100.0)


def bench_sim(plant, mode="remote", h=5, horizon=10.0, dos_signal=NO_DOS,
              noise=QUIET, x0=X0, P=None, **kw):
    config = SimConfig(delta_big=0.1, horizon=horizon, mode=mode, h=h, **kw)
    return simulate(plant, BENCH_K, config, dos_signal, noise, x0, P=P)


class TestSimulate:
    def test_equilibrium_stays_at_zero(self, bench_plant):
        trace = bench_sim(bench_plant, x0=np.zeros(2))
        assert np.all(trace.x == 0.0)
        assert np.all(trace.u == 0.0)

    def test_closed_loop_decay_colocated(self, bench_plant):
        trace = bench_sim(bench_plant, mode="colocated", horizon=5.0)
        norms = np.linalg.norm(trace.x, axis=1)
        assert norms[-1] <= 1e-2 * norms[0]
        assert np.max(norms) <= 2.0 * norms[0]

    def test_deterministic_repeat(self, bench_plant):
        noise = NoiseSpec(d_bound=0.01, n_bound=0.01, seed=3)
        sig = generate(5, GeneratorSpec(), 10.0)
        a = bench_sim(bench_plant, dos_signal=sig, noise=noise)
        b = bench_sim(bench_plant, dos_signal=sig, noise=noise)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.z, b.z)

    def test_substep_refinement_is_exact(self, bench_plant):
        sig = generate(5, GeneratorSpec(), 10.0)
        noise = NoiseSpec(n_bound=0.01, seed=9)
        coarse = bench_sim(bench_plant, dos_signal=sig, noise=noise, substeps=5)
        fine = bench_sim(bench_plant, dos_signal=sig, noise=noise, substeps=10)
        rel = np.linalg.norm(coarse.x[-1] - fine.x[-1]) / np.linalg.norm(
            coarse.x[-1]
        )
        assert rel < 1e-6

    def test_success_times_match_schedule(self, bench_plant):
        # one test over b = 1, 2, 3: attempts every b-th controller period
        sig = generate(11, GeneratorSpec(), 10.0)
        sched = successful_transmissions(sig, 0.1, 10.0)
        for b in (1, 2, 3):
            trace = bench_sim(bench_plant, dos_signal=sig, b=b)
            assert np.allclose(trace.z, sched.successes, atol=1e-12)
            assert np.count_nonzero(trace.attempt) == len(sched.attempts)
            assert trace.dos_active.tolist() == [
                dos.active_at(sig, min(t, sig.horizon)) for t in trace.times
            ]
            assert np.array_equal(trace.z, trace.times[trace.success])

    def test_grid_and_flags_shape(self, bench_plant):
        trace = bench_sim(bench_plant, horizon=2.0, substeps=4)
        assert len(trace.times) == 20 * 4 + 1
        assert trace.attempt.sum() == 21
        # input is held over each controller period
        for q in range(20):
            block = trace.u[q * 4 : (q + 1) * 4]
            assert np.all(block == block[0])

    def test_perfect_model_prediction(self, bench_plant):
        # without disturbance and noise the packet predictions reproduce the
        # plant state sample for sample
        sig = generate(13, GeneratorSpec(off_range=(0.3, 0.6), on_range=(0.1, 0.4)), 10.0)
        trace = bench_sim(bench_plant, dos_signal=sig, h=8)
        on_grid = trace.times / trace.delta
        ticks = np.abs(on_grid - np.round(on_grid)) < 1e-9
        have_pred = ~np.isnan(trace.prediction[:, 0])
        # within the horizon (depth > 0) the prediction equals the state
        inside = ticks & have_pred & (trace.buffer_depth > 0)
        assert inside.sum() > 50
        err = np.linalg.norm(
            trace.prediction[inside] - trace.x[inside], axis=1
        )
        assert np.max(err) <= 1e-9

    def test_colocated_remote_equivalence_when_buffer_covers_gaps(
        self, bench_plant
    ):
        # blocks the attempts at 0.1 and 0.2 of every half second: the
        # largest success gap is 0.3 < h*delta
        blocks = tuple((0.05 + 0.5 * k, 0.2) for k in range(20))
        sig = DoSSignal(intervals=blocks, horizon=10.0)
        remote = bench_sim(bench_plant, mode="remote", h=4, dos_signal=sig)
        colocated = bench_sim(bench_plant, mode="colocated", h=4, dos_signal=sig)
        assert np.max(np.abs(remote.u - colocated.u)) <= 1e-12
        assert np.max(np.abs(remote.x - colocated.x)) <= 1e-10

    def test_computation_delay_defers_first_input(self, bench_plant):
        config = SimConfig(
            delta_big=0.1, horizon=1.0, mode="remote", h=5, T_c=0.2
        )
        trace = simulate(bench_plant, BENCH_K, config, NO_DOS, QUIET, X0)
        # the first packet (built at t=0) arrives at t = 2*delta; before
        # that the buffer has nothing and outputs zero
        assert np.all(trace.u[trace.times < 0.2 - 1e-12] == 0.0)
        row = np.argmin(np.abs(trace.times - 0.2))
        assert np.any(trace.u[row] != 0.0)

    def test_delay_past_the_packet_is_one_error_class(self):
        error = simulation.DelayExceedsHorizonError
        assert doscontrol.DelayExceedsHorizonError is error
        assert controllers.DelayExceedsHorizonError is error
        assert issubclass(error, ValueError)
        with pytest.raises(error):
            SimConfig(delta_big=0.1, horizon=1.0, h=2, T_c=0.2)
        assert SimConfig(delta_big=0.1, horizon=1.0, h=3, T_c=0.2).skip == 2

    def test_horizon_validation(self, bench_plant):
        # SimConfig refuses a run off the period grid, so simulate never sees one
        with pytest.raises(ValueError, match="horizon 1.23456 is not a whole "
                                             "number of periods 0.1"):
            SimConfig(delta_big=0.1, horizon=1.23456)
        assert SimConfig(delta_big=0.1, horizon=0.1 * 3).ticks == 3
        assert SimConfig(delta_big=0.1, horizon=6.0, b=3).ticks == 180
        short = DoSSignal(intervals=(), horizon=5.0)
        with pytest.raises(ValueError, match="DoS signal horizon 5.0 shorter"):
            bench_sim(bench_plant, dos_signal=short, horizon=10.0)

    @pytest.mark.parametrize(
        "field", [{"horizon": math.inf}, {"horizon": math.nan},
                  {"delta_big": math.inf}, {"delta_big": math.nan},
                  {"T_c": math.inf}, {"T_c": math.nan}, {"T_c": 1e308}],
    )
    def test_non_finite_timing_rejected(self, field):
        kwargs = {"delta_big": 0.1, "horizon": 10.0, "h": 5, **field}
        with pytest.raises(ValueError, match=f"{next(iter(field))} must be finite"):
            SimConfig(**kwargs)

    def test_row_limit(self):
        # the check itself: a config never allocates, so both sides are cheap
        periods = MAX_ROWS // 10
        at_limit = SimConfig(delta_big=0.1, horizon=periods * 0.1, substeps=10)
        assert round(at_limit.horizon / at_limit.delta) * 10 == MAX_ROWS
        with pytest.raises(ValueError, match=f"above the limit of {MAX_ROWS}"):
            SimConfig(delta_big=0.1, horizon=(periods + 1) * 0.1, substeps=10)
        with pytest.raises(ValueError, match="limit"):
            SimConfig(delta_big=0.1, horizon=1e9)
        # horizon / delta past the float range, and delta below it, are
        # refused by the row limit before the whole-period rule divides
        for b in (1, 2):
            with pytest.raises(ValueError, match="is inf rows, above the limit"):
                SimConfig(delta_big=5e-324, horizon=50.0, b=b)
        # the longest benchmark run stays far below
        assert 500.0 / 0.1 * 10 < MAX_ROWS / 100

    def test_noise_map_limit(self, bench_plant, monkeypatch):
        # (S + 1) S n^2 entries: 1580 sub-steps of a two-state plant fit,
        # 1581 do not, and simulate refuses them before it allocates
        assert 1581 * 1580 * 4 <= MAX_ROWS < 1582 * 1581 * 4
        simulation._check_noise_map(2, 1580)
        with pytest.raises(ValueError,
                           match=f"substeps 1581 .* above the limit of {MAX_ROWS}"):
            simulation._check_noise_map(2, 1581)

        def never(*args, **kwargs):
            raise AssertionError("called past the noise map limit")

        monkeypatch.setattr(dos, "active_mask", never)
        monkeypatch.setattr(linalg, "zoh_discretize", never)
        for substeps in (1581, 5000):
            config = SimConfig(delta_big=0.1, horizon=0.1, substeps=substeps)
            with pytest.raises(ValueError, match=f"substeps {substeps} give"):
                simulate(bench_plant, BENCH_K, config, NO_DOS, QUIET, X0)
        # the benchmark's 10 sub-steps stay far below, at up to 24 states
        assert 11 * 10 * 24**2 < MAX_ROWS / 100

    @pytest.mark.parametrize("field, value", [
        ("h", 2.5), ("h", True), ("b", 1.5), ("substeps", 2.5),
        ("h", np.int64(5)), ("b", np.int64(2)), ("substeps", np.int64(3)),
    ])
    def test_counts_must_be_integers(self, bench_plant, field, value):
        kwargs = {"delta_big": 0.1, "horizon": 1.0, "mode": "remote", field: value}
        if isinstance(value, np.integer):
            trace = simulate(bench_plant, BENCH_K, SimConfig(**kwargs), NO_DOS,
                             QUIET, X0)
            assert np.all(np.isfinite(trace.x))
        else:
            with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                SimConfig(**kwargs)

    @pytest.mark.parametrize("decay_at", ["soon", math.inf, math.nan, [5.0]])
    def test_decay_at_must_be_finite_number(self, decay_at):
        with pytest.raises(ValueError, match="decay_at"):
            NoiseSpec(decay_at=decay_at)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError) as info:
            NoiseSpec(seed=seed)
        assert str(info.value) == f"seed must be an integer >= 0, got {seed!r}"

    def test_decay_leaves_earlier_rows_untouched(self, bench_plant):
        # zeroing the noise from T on must not shift either stream before T
        sig = generate(5, GeneratorSpec(), 10.0)
        decay_at = 4.0
        for mode in ("colocated", "remote"):
            runs = [
                bench_sim(bench_plant, mode=mode, dos_signal=sig, substeps=7,
                          noise=NoiseSpec(d_bound=0.05, n_bound=0.05, seed=8,
                                          decay_at=t))
                for t in (None, decay_at)
            ]
            before = runs[0].times < decay_at
            assert 0 < before.sum() < len(before)
            # the state at T itself still integrates only pre-T disturbances
            upto = runs[0].times <= decay_at
            for name, rows in (("x", upto), ("V", upto), ("u", before),
                               ("prediction", before), ("buffer_depth", before)):
                a, b = (getattr(r, name)[rows] for r in runs)
                assert a.tobytes() == b.tobytes(), name
            assert not np.array_equal(runs[0].x[~before], runs[1].x[~before])
            # decaying from t = 0 on is the noise-free run
            zero = NoiseSpec(d_bound=0.05, n_bound=0.05, seed=8, decay_at=0.0)
            assert np.array_equal(
                bench_sim(bench_plant, mode=mode, dos_signal=sig, noise=zero).x,
                bench_sim(bench_plant, mode=mode, dos_signal=sig).x,
            )


def literal_law(plant, K, config, dos_signal, noise, x0, P):
    """Oracle: the control law written out per tick, integrated row by row.

    u_k = K Phi_d^min(k - m_k, h - 1) y_(m_k) with Phi_d = A_d + B_d K and
    m_k the latest success whose sample has reached the actuator
    (m + skip <= k).  Co-located is h = inf and skip = 0, and predicts zero
    before the first sample; remote applies zero and predicts NaN until
    then.  Same grid and noise streams as simulate.  Returns x, u,
    prediction, V and buffer_depth.
    """
    k_mat = np.asarray(K, dtype=float)
    x = np.asarray(x0, dtype=float)
    delta, substeps = config.delta, config.substeps
    n_ticks = int(round(config.horizon / delta))
    a_d, b_d = linalg.zoh_discretize(plant.A, plant.B, delta)
    phi_d = a_d + b_d @ k_mat
    a_s, be_s = linalg.zoh_discretize(
        plant.A, np.hstack([plant.B, np.eye(plant.n)]), delta / substeps
    )
    b_s, e_s = be_s[:, : plant.m], be_s[:, plant.m :]
    n_rows = n_ticks * substeps + 1
    rows = np.arange(n_rows)
    times = rows // substeps * delta + rows % substeps * (delta / substeps)
    dos_flags = dos.active_mask(dos_signal, np.minimum(times, dos_signal.horizon))
    success_flags = (rows % (config.b * substeps) == 0) & ~dos_flags
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

    colocated = config.mode == "colocated"
    h = math.inf if colocated else config.h
    skip = 0 if colocated else config.skip
    success_ticks = np.flatnonzero(success_flags[::substeps])
    samples = {}
    xs = np.empty((n_rows, plant.n))
    us = np.empty((n_rows, plant.m))
    preds = np.empty((n_rows, plant.n))
    depths = np.empty(n_rows, dtype=int)
    for k in range(n_ticks + 1):
        if k in success_ticks:
            samples[k] = x + meas[len(samples)]
        due = success_ticks[success_ticks + skip <= k]
        if len(due):
            m_k = due[-1]
            alpha = np.linalg.matrix_power(phi_d, min(k - m_k, h - 1)) @ samples[m_k]
            u = k_mat @ alpha
            depth = 0 if colocated else max(h - (k - m_k), 0)
        else:
            alpha = np.full(plant.n, 0.0 if colocated else np.nan)
            u = np.zeros(plant.m)
            depth = 0
        for r in range(k * substeps, min((k + 1) * substeps, n_rows)):
            xs[r], us[r], preds[r], depths[r] = x, u, alpha, depth
            if r < n_rows - 1:
                x = a_s @ x + b_s @ u + e_s @ dist[r]
    v = np.array([row @ P @ row for row in xs])
    return xs, us, preds, v, depths


def assert_rows_close(actual, expected, where, rtol=1e-12):
    """Row by row within rtol x the running maximum row norm; NaNs exact."""
    actual = actual.reshape(len(actual), -1)
    expected = expected.reshape(len(expected), -1)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan), where
    actual, expected = np.where(nan, 0.0, actual), np.where(nan, 0.0, expected)
    scale = np.maximum.accumulate(np.linalg.norm(expected, axis=1))
    err = np.linalg.norm(actual - expected, axis=1)
    assert np.all(err <= rtol * scale), (where, float(np.max(err - rtol * scale)))


def assert_follows_the_law(plant, K, config, sig, noise, x0, P, where):
    """simulate against the literal law, plus the grid's own invariants."""
    trace = simulate(plant, K, config, sig, noise, x0, P=P)
    x, u, pred, v, depth = literal_law(plant, K, config, sig, noise, x0, P)
    for name, expected in (("x", x), ("u", u), ("prediction", pred), ("V", v)):
        assert_rows_close(getattr(trace, name), expected, f"{where} {name}")
    assert np.array_equal(trace.buffer_depth, depth), where
    n_ticks = int(round(config.horizon / config.delta))
    assert len(trace.times) == n_ticks * config.substeps + 1
    assert trace.x.shape == (len(trace.times), plant.n)
    assert trace.u.shape == (len(trace.times), plant.m)
    # input, prediction and depth are held over each period
    for name in ("u", "prediction", "buffer_depth"):
        held = getattr(trace, name)[:-1].reshape(n_ticks, config.substeps, -1)
        assert np.array_equal(held, np.repeat(held[:, :1], config.substeps, 1),
                              equal_nan=True), (where, name)
    assert np.array_equal(trace.z, trace.times[trace.success])
    assert np.allclose(trace.V, np.einsum("ij,jk,ik->i", trace.x, P, trace.x),
                       rtol=1e-12, atol=0.0)
    return trace


def law_cases():
    """(mode, h, skip) triples: every mode, and skip from 0 to h - 1."""
    yield "colocated", 1, 0
    yield "colocated", 1, 3  # co-located ignores the computation delay
    for h in (1, 2, 5, 50):
        for skip in sorted({0, 1, h // 2, h - 1} & set(range(h))):
            yield "remote", h, skip


# A plant with m != n, so a transposed (n, m) block cannot pass unseen.
CART = LtiPlant(A=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-0.5, -1.0, -0.2]],
                B=[[0.0], [0.3], [1.0]])
CART_K = np.array([[-0.4, -1.1, -0.9]])
P2 = np.array([[2.0, 0.3], [0.3, 1.0]])


class TestOneLaw:
    SIGNALS = {
        "pulses": lambda seed: generate(
            seed, GeneratorSpec(off_range=(0.05, 0.4), on_range=(0.0, 0.05)), 7.0),
        "touching": lambda seed: generate(
            seed, GeneratorSpec(off_range=(0.0, 0.3), on_range=(0.05, 0.6)), 7.0),
        "empty": lambda seed: DoSSignal(intervals=(), horizon=7.0),
    }

    @pytest.mark.parametrize("mode, h, skip", list(law_cases()))
    def test_matches_the_literal_law(self, bench_plant, mode, h, skip):
        for i, (b, name) in enumerate(
            (b, name) for b in (1, 2, 3) for name in self.SIGNALS
        ):
            delta = 0.1 / b
            # half a period short of skip periods still rounds up to skip
            t_c = skip * delta if i % 2 else max(skip - 0.5, 0.0) * delta
            config = SimConfig(delta_big=0.1, horizon=6.0, b=b, h=h,
                               substeps=(4, 10)[i % 2], mode=mode, T_c=t_c)
            assert config.skip == skip
            sig = self.SIGNALS[name](100 * h + 10 * skip + i)
            noise = NoiseSpec(d_bound=0.02, n_bound=0.02, seed=h + skip + i)
            assert_follows_the_law(bench_plant, BENCH_K, config, sig, noise, X0,
                                   P2, f"b={b} signal={name}")

    @pytest.mark.parametrize("mode, h, skip", [
        ("colocated", 1, 0), ("remote", 1, 0), ("remote", 4, 2), ("remote", 30, 1),
    ])
    def test_input_count_below_state_count(self, mode, h, skip):
        for b, name in ((1, "pulses"), (2, "touching"), (1, "empty")):
            config = SimConfig(delta_big=0.1, horizon=6.0, b=b, h=h, substeps=5,
                               mode=mode, T_c=skip * 0.1 / b)
            sig = self.SIGNALS[name](7 * h + b)
            noise = NoiseSpec(d_bound=0.02, n_bound=0.02, seed=h + b)
            trace = assert_follows_the_law(CART, CART_K, config, sig, noise,
                                           [1.0, -0.5, 0.25], np.eye(3),
                                           f"b={b} signal={name}")
            assert trace.u.shape[1] == 1 and trace.prediction.shape[1] == 3

    # skip 0 and 1, h - 1 at h = 50, and a skip at or above the block length,
    # so that a delivery's sample lies in an earlier block
    @pytest.mark.parametrize("mode, h, skip", [
        ("colocated", 1, 0), ("remote", 5, 0), ("remote", 5, 1),
        ("remote", 50, 49), ("remote", 201, 200),
    ])
    @pytest.mark.parametrize("plant_name", ["bench", "cart"])
    def test_across_solve_blocks(self, bench_plant, plant_name, mode, h, skip):
        plant, k_mat, x0, weight = {
            "bench": (bench_plant, BENCH_K, X0, P2),
            "cart": (CART, CART_K, [1.0, -0.5, 0.25], np.eye(3)),
        }[plant_name]
        block = solve_blocks(plant.n, skip)[0]
        if skip == 200:
            assert block <= skip
        n_ticks = 3 * block + max(skip, 7)
        horizon = n_ticks * 0.1
        config = SimConfig(delta_big=0.1, horizon=horizon, h=h, substeps=4,
                           mode=mode, T_c=max(skip - 0.5, 0.0) * 0.1)
        assert config.skip == skip
        sig = generate(skip + plant.n, GeneratorSpec(off_range=(0.05, 0.4),
                                                     on_range=(0.0, 0.2)), horizon)
        trace = assert_follows_the_law(
            plant, k_mat, config, sig, NoiseSpec(d_bound=0.02, n_bound=0.02, seed=h),
            x0, weight, plant_name)
        # samples delivered in a later block than they were taken in
        sampled = np.flatnonzero(trace.success[::4])
        crossing = sampled // block != (sampled + skip) // block
        assert skip == 0 or np.count_nonzero(crossing) >= 2


class TestTickGridEdges:
    """Corners of the per-tick step and the row fill, each against the law."""

    SIG = generate(21, GeneratorSpec(off_range=(0.05, 0.4), on_range=(0.0, 0.3)), 3.0)
    NOISE = NoiseSpec(d_bound=0.02, n_bound=0.02, seed=17)

    @pytest.mark.parametrize("mode, h", [("colocated", 1), ("remote", 1), ("remote", 5)])
    def test_one_substep(self, bench_plant, mode, h):
        config = SimConfig(delta_big=0.1, horizon=3.0, h=h, substeps=1, mode=mode)
        trace = assert_follows_the_law(bench_plant, BENCH_K, config, self.SIG,
                                       self.NOISE, X0, P2, mode)
        assert len(trace.times) == 31

    @pytest.mark.parametrize("mode, h", [("colocated", 1), ("remote", 5)])
    def test_decay_between_two_ticks(self, bench_plant, mode, h):
        # 1.23 falls after sub-step 1 of tick 12 (rows at 1.2, 1.21, ...):
        # that tick's disturbances are zeroed from the fourth one on
        noise = dataclasses.replace(self.NOISE, decay_at=1.23)
        config = SimConfig(delta_big=0.1, horizon=3.0, h=h, substeps=10, mode=mode)
        trace = assert_follows_the_law(bench_plant, BENCH_K, config, self.SIG,
                                       noise, X0, P2, mode)
        plain = simulate(bench_plant, BENCH_K, config, self.SIG, self.NOISE, X0)
        upto = trace.times <= 1.23 + 1e-12
        assert np.array_equal(trace.x[upto], plain.x[upto])
        assert not np.array_equal(trace.x[~upto], plain.x[~upto])

    @pytest.mark.parametrize("mode, h", [("colocated", 1), ("remote", 1), ("remote", 3)])
    def test_horizon_of_one_period(self, bench_plant, mode, h):
        sig = DoSSignal(intervals=(), horizon=0.1)
        config = SimConfig(delta_big=0.1, horizon=0.1, h=h, substeps=4, mode=mode)
        trace = assert_follows_the_law(bench_plant, BENCH_K, config, sig,
                                       self.NOISE, X0, P2, mode)
        assert len(trace.times) == 5 and trace.attempt.tolist() == [1, 0, 0, 0, 1]

    def test_noise_free_rows_are_powers_of_the_substep_map(self, bench_plant):
        # every attempt jammed until the last one (the interval is open on
        # the right): remote applies zero throughout, so with no disturbance
        # row r is exactly A_s^r x0
        sig = DoSSignal(intervals=((0.0, 3.0),), horizon=3.0)
        config = SimConfig(delta_big=0.1, horizon=3.0, h=5, substeps=4)
        trace = assert_follows_the_law(bench_plant, BENCH_K, config, sig,
                                       QUIET, X0, P2, "jammed")
        assert np.all(trace.u[:-1] == 0.0)
        assert np.all(np.isnan(trace.prediction[:-1]))
        a_s = linalg.zoh_discretize(bench_plant.A, bench_plant.B, 0.025)[0]
        powers = np.array([np.linalg.matrix_power(a_s, r) @ X0
                           for r in range(len(trace.times))])
        assert_rows_close(trace.x, powers, "powers")

    @pytest.mark.parametrize("mode, h", [("colocated", 1), ("remote", 5)])
    def test_zero_disturbance(self, bench_plant, mode, h):
        noise = NoiseSpec(n_bound=0.02, seed=3)
        config = SimConfig(delta_big=0.1, horizon=3.0, h=h, substeps=10, mode=mode)
        assert_follows_the_law(bench_plant, BENCH_K, config, self.SIG, noise,
                               X0, P2, mode)


class TestTickModelCache:
    """simulate builds each design's tick model once and shares it by value."""

    SIG = generate(4, GeneratorSpec(off_range=(0.05, 0.4), on_range=(0.0, 0.3)), 3.0)
    NOISE = NoiseSpec(d_bound=0.02, n_bound=0.02, seed=5)

    @pytest.fixture
    def discretizations(self, monkeypatch):
        """A list that grows by one per linalg.zoh_discretize call."""
        calls = []
        original = linalg.zoh_discretize

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(linalg, "zoh_discretize", counted)
        simulation._tick_model.cache_clear()
        return calls

    def run(self, plant, k_mat, **kw):
        config = SimConfig(**{"delta_big": 0.1, "horizon": 3.0, "h": 5, **kw})
        return simulate(plant, k_mat, config, self.SIG, self.NOISE, X0, P=P2)

    def test_built_once_per_design(self, bench_plant, discretizations):
        k_mat = BENCH_K.copy()

        def calls(plant=bench_plant, k=k_mat, **kw):
            before = len(discretizations)
            self.run(plant, k, **kw)
            return len(discretizations) - before

        assert calls() == 2
        assert calls() == 0
        # equal values hit: a plant built anew, a copy of K, another h or
        # mode at the same skip
        assert calls(LtiPlant(A=BENCH_A, B=BENCH_B), k_mat.copy(), h=50) == 0
        assert calls(mode="colocated") == 0
        assert calls(b=2) == 2          # a new delta
        assert calls(delta_big=0.2) == 2
        assert calls(substeps=4) == 2
        assert calls(T_c=0.15) == 2     # skip 2
        assert calls(T_c=0.15) == 0
        # K changed in place is a new design, and the run reads the new K
        before = self.run(bench_plant, k_mat)
        k_mat[0, 0] += 0.01
        assert calls() == 2
        assert not np.array_equal(self.run(bench_plant, k_mat).x, before.x)

    def test_cached_arrays_are_read_only(self, bench_plant, discretizations):
        self.run(bench_plant, BENCH_K, T_c=0.15)
        k_mat = linalg.as_matrix(BENCH_K)
        model = simulation._tick_model(
            bench_plant.A.tobytes(), bench_plant.B.tobytes(), k_mat.tobytes(),
            2, 2, 0.1, 10, 2,
        )
        assert len(discretizations) == 2  # the entry the run built
        steps, step, spread, phi_skip, _, templates, reach = model
        for array in (steps, step, spread, phi_skip, templates, *reach):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    @pytest.mark.parametrize("mode, h, t_c", [
        ("colocated", 1, 0.0), ("remote", 1, 0.0), ("remote", 5, 0.15),
        ("remote", 50, 0.0),
    ])
    def test_interleaved_designs_match_fresh_runs(self, bench_plant, mode, h, t_c):
        # two gains of the same shape, each run alternately with the other
        other_k = BENCH_K + 0.05
        runs = [(k_mat, dict(mode=m, h=hh, T_c=tc))
                for m, hh, tc in ((mode, h, t_c), ("remote", 5, 0.0))
                for k_mat in (BENCH_K, other_k)]
        shared = [self.run(bench_plant, k_mat, **kw) for k_mat, kw in runs * 2]
        for i, (k_mat, kw) in enumerate(runs * 2):
            simulation._tick_model.cache_clear()
            fresh = self.run(bench_plant, k_mat, **kw)
            for field in ("x", "u", "prediction", "V"):
                assert np.array_equal(getattr(shared[i], field), getattr(fresh, field),
                                      equal_nan=True), (i, field)
        assert not np.array_equal(shared[0].x, shared[1].x)


class TestMemory:
    # the tracemalloc peak of a 500 s run (50 000 rows) at skip 0 when its
    # tick states were stepped one tick at a time in Python
    SKIP0_PEAK = 5.47 * 2**20

    @staticmethod
    def peak(plant, h, skip):
        config = SimConfig(delta_big=0.1, horizon=500.0, h=h,
                           T_c=max(skip - 0.5, 0.0) * 0.1)
        assert config.skip == skip
        sig = generate(3, GeneratorSpec(), 500.0)
        noise = NoiseSpec(d_bound=0.01, n_bound=0.01, seed=1)
        simulate(plant, BENCH_K, config, sig, noise, X0)
        tracemalloc.start()
        try:
            simulate(plant, BENCH_K, config, sig, noise, X0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_of_a_long_run(self, bench_plant):
        at_zero = self.peak(bench_plant, 50, 0)
        assert at_zero <= 1.1 * self.SKIP0_PEAK
        # the band of a deep delay is cut to BAND_BYTES per block, and past
        # the block length it narrows again
        assert solve_blocks(2, 599)[0] <= 599
        for h, skip in ((50, 49), (600, 599)):
            assert self.peak(bench_plant, h, skip) <= 1.5 * at_zero, skip


class TestLyapunovTrace:
    def test_zero_state(self, bench_plant):
        trace = bench_sim(bench_plant, x0=np.zeros(2), horizon=1.0, P=np.eye(2))
        assert np.all(trace.V == 0.0)

    def test_identity_weight_is_squared_norm(self, bench_plant):
        trace = bench_sim(bench_plant, horizon=2.0, P=np.eye(2))
        assert np.allclose(trace.V, np.linalg.norm(trace.x, axis=1) ** 2)

    def test_rayleigh_bounds(self, bench_plant, bench_inputs):
        consts = derive_constants(bench_inputs, h=5, delta=0.1)
        noise = NoiseSpec(d_bound=0.01, n_bound=0.01, seed=5)
        sig = generate(3, GeneratorSpec(), 10.0)
        trace = bench_sim(bench_plant, dos_signal=sig, noise=noise, P=consts.P)
        v = trace.V
        n2 = np.linalg.norm(trace.x, axis=1) ** 2
        assert np.all(v <= consts.alpha2 * n2 * (1 + 1e-9) + 1e-15)
        assert np.all(v >= consts.alpha1 * n2 * (1 - 1e-9) - 1e-15)


class TestCheckEnvelope:
    def make_run(self, bench_plant, bench_inputs, seed):
        consts = derive_constants(bench_inputs, h=1, delta=0.1)
        spec = GeneratorSpec(off_range=(0.4, 0.8), on_range=(0.1, 0.3))
        sig = generate(seed, spec, 20.0)
        tau_d = 20.0 / max(1, len(sig.intervals))
        t_avg = 20.0 / max(dos.dos_measure(sig, 0.0, 20.0), 1e-9)
        eta, kappa = fit_class_params(sig, tau_d, t_avg)
        params = DoSClassParams(eta=eta, tau_D=tau_d, kappa=kappa, T=t_avg)
        q = success_gap_bound(params, 0.1)
        h = min_prediction_horizon(consts, q, 0.1, 0.1)
        consts = derive_constants(bench_inputs, h=h, delta=0.1)
        env = decay_envelope(consts, q, 0.1, h, 0.1)
        config = SimConfig(delta_big=0.1, horizon=20.0, mode="remote", h=h)
        trace = simulate(
            bench_plant, BENCH_K, config, sig, QUIET, X0, P=consts.P
        )
        return trace, env, consts

    def test_noise_free_run_respects_envelope(self, bench_plant, bench_inputs):
        trace, env, consts = self.make_run(bench_plant, bench_inputs, seed=2)
        assert check_envelope(trace, env, consts, w_inf=0.0)

    def test_detects_violation(self, bench_plant, bench_inputs):
        trace, env, consts = self.make_run(bench_plant, bench_inputs, seed=2)
        v = trace.V.copy()
        idx = int(round(trace.z[1] / (trace.delta / trace.substeps)))
        v[idx] = env.lam * v[0] * 10.0
        tampered = dataclasses.replace(trace, V=v)
        assert not check_envelope(tampered, env, consts, w_inf=0.0)

    def test_zero_run_trivially_true(self, bench_plant, bench_inputs):
        consts = derive_constants(bench_inputs, h=5, delta=0.1)
        env = decay_envelope(consts, 0.2, 0.1, 5, 0.1)
        trace = bench_sim(bench_plant, x0=np.zeros(2), horizon=5.0)
        assert check_envelope(trace, env, consts, w_inf=0.0)


class TestMetrics:
    def test_non_finite_state_is_divergence(self, bench_plant):
        for x0 in ([1e300, 1e300], [1e307, -1e307]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                trace = bench_sim(bench_plant, x0=np.array(x0), horizon=20.0)
                m = compute_metrics(trace)
            assert not m.stable_verdict
            assert m.max_state_norm is None and m.final_state_norm is None

    def test_all_attempts_succeed(self, bench_plant):
        trace = bench_sim(bench_plant, horizon=5.0)
        m = compute_metrics(trace)
        assert m.failure_fraction == 0.0
        assert m.stable_verdict

    def test_synchronized_pulse_train_fails_everything(self, bench_plant):
        n = 20
        sig = DoSSignal(
            intervals=tuple((0.1 * k, 0.0) for k in range(n + 1)), horizon=2.0
        )
        trace = bench_sim(bench_plant, dos_signal=sig, horizon=2.0)
        m = compute_metrics(trace)
        assert m.failure_fraction == 1.0

    def test_decayed_noise_requires_convergence(self, bench_plant):
        noise = NoiseSpec(d_bound=0.01, n_bound=0.01, seed=4, decay_at=5.0)
        trace = bench_sim(
            bench_plant, mode="colocated", horizon=20.0, noise=noise
        )
        m = compute_metrics(trace)
        assert m.final_state_norm <= 1e-3
        assert m.stable_verdict


class TestTraceCsv:
    def test_layout_and_round_trip(self, bench_plant, tmp_path):
        trace = bench_sim(bench_plant, horizon=1.0, substeps=2)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# format: 1"
        assert lines[1] == "t,x1,x2,u1,u2,V,dos_active,attempt,success,buffer_depth"
        assert len(lines) == 2 + len(trace.times)
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(1.0)
        assert float(last[5]) >= 0.0

    # Block edges fall inside the cases' traces at this block length.
    BLOCK = 512

    def test_bytes_match_per_cell_writer(self, bench_plant, tmp_path, monkeypatch):
        monkeypatch.setattr(simulation, "CSV_BLOCK_ROWS", self.BLOCK)
        cases = (self.sixteen_digits, self.three_states_one_input,
                 self.held_input_across_blocks, self.diverged, self.deep_buffer,
                 self.strided_input, self.extreme_magnitudes)
        for case in cases:
            trace, marks = case(bench_plant)
            path = tmp_path / f"{case.__name__}.csv"
            trace_to_csv(trace, path)
            data = path.read_bytes()
            assert data == per_cell_csv(trace), case.__name__
            for mark, count in marks.items():
                assert data.count(mark) == count, (case.__name__, mark)

    @staticmethod
    def sixteen_digits(bench_plant):
        sig = generate(3, GeneratorSpec(), 10.0)
        noise = NoiseSpec(d_bound=0.01, n_bound=0.01, seed=2)
        trace = bench_sim(bench_plant, dos_signal=sig, noise=noise, substeps=7)
        assert len(trace.times) > TestTraceCsv.BLOCK
        x = trace.x.copy()
        x[3, 0] = -0.0
        x[600, 1] = 0.1234567890123456  # needs all 16 significant digits
        return dataclasses.replace(trace, x=x), {
            b",-0,": 1, b",0.1234567890123456,": 1,
        }

    @staticmethod
    def three_states_one_input(bench_plant):
        config = SimConfig(delta_big=0.1, horizon=8.0, h=4, substeps=7)
        sig = generate(5, GeneratorSpec(), 8.0)
        noise = NoiseSpec(d_bound=0.01, n_bound=0.01, seed=3)
        trace = simulate(CART, CART_K, config, sig, noise, [1.0, -0.5, 0.25])
        assert trace.x.shape[1] == 3 and trace.u.shape[1] == 1
        return trace, {b"t,x1,x2,x3,u1,V,": 1}

    @staticmethod
    def held_input_across_blocks(bench_plant):
        trace = bench_sim(bench_plant, substeps=7)
        u = trace.u.copy()
        edge = TestTraceCsv.BLOCK
        # zeros of either sign, which compare equal as floats, in a row; then
        # one held value from four rows before a block edge to six after it
        u[edge - 7 : edge - 4] = [[0.0, 0.0], [-0.0, -0.0], [0.0, -0.0]]
        u[edge - 4 : edge + 6] = [0.25, -0.0]
        return dataclasses.replace(trace, u=u), {
            b",-0,-0,": 1, b",0,-0,": 1, b",0.25,-0,": 10,
        }

    @staticmethod
    def diverged(bench_plant):
        # the sign-flipped gain drives the state past the float range
        config = SimConfig(delta_big=0.1, horizon=10.0, substeps=7, mode="colocated")
        trace = simulate(bench_plant, -BENCH_K, config, NO_DOS, QUIET, [1e300, 1e300])
        for cells in (trace.x, trace.u, trace.V):
            assert np.isnan(cells).any() and np.isposinf(cells).any()
        return trace, {}

    @staticmethod
    def deep_buffer(bench_plant):
        sig = generate(4, GeneratorSpec(), 20.0)
        trace = bench_sim(bench_plant, h=50, b=2, horizon=20.0, substeps=3,
                          dos_signal=sig)
        assert trace.buffer_depth.max() >= 10
        # flip some successes, so that no flag follows from the other two
        success = trace.success ^ (np.arange(len(trace.times)) % 5 == 0)
        flags = zip(trace.dos_active.tolist(), trace.attempt.tolist(),
                    success.tolist())
        assert len(set(flags)) == 8
        return dataclasses.replace(trace, success=success), {}

    @staticmethod
    def strided_input(bench_plant):
        sig = generate(3, GeneratorSpec(), 10.0)
        trace = bench_sim(bench_plant, dos_signal=sig, substeps=7)
        u = trace.u[:, ::-1]
        assert not u.flags.c_contiguous and np.any(u[:, 0] != u[:, 1])
        return dataclasses.replace(trace, u=u), {}

    @staticmethod
    def extreme_magnitudes(bench_plant):
        # every float column drawn from the formatter's edge cases
        trace = bench_sim(bench_plant, horizon=2.0, substeps=7)
        rng = np.random.default_rng(11)
        columns = {name: rng.choice(EDGE_VALUES, size=getattr(trace, name).shape)
                   for name in ("times", "x", "u", "V")}
        return dataclasses.replace(trace, **columns), {}

    def test_formatter_matches_percent(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(float)
        spread = rng.uniform(1.0, 10.0, 50_000) * 10.0 ** rng.integers(-330, 308, 50_000)
        values = np.concatenate([EDGE_VALUES, bits, spread])
        for p in (12, 16):
            got = [bytes(cell).translate(None, b"\0")
                   for cell in _tracecsv.g_cells(values, p)]
            want = [b"%.*g" % (p, v) for v in values.tolist()]
            bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
            assert bad == [], (p, len(bad), bad[:5])

    def test_uncertain_cells_take_the_per_cell_path(self, monkeypatch):
        seen = []

        def recorded(values, p):
            seen.extend(values.tolist())
            return percent(values, p)

        percent = _tracecsv.percent_cells
        monkeypatch.setattr(_tracecsv, "percent_cells", recorded)
        # exact ties at 16 digits, a decade edge, zeros and non-finites
        uncertain = [1234567890123456.5, 1234567890123457.5, 1000.0,
                     0.0, -0.0, np.inf, -np.inf, np.nan]
        plain = [0.5, 2.0, -0.125, 3e-300, 123.456, 100000000000.5]
        values = plain + uncertain
        cells = _tracecsv.g_cells(values, 16)
        assert seen[:-1] == uncertain[:-1] and np.isnan(seen[-1])
        assert [bytes(c).translate(None, b"\0") for c in cells] == [
            b"%.16g" % v for v in values]
        seen.clear()
        # a tie at 12 digits
        _tracecsv.g_cells([100000000000.5, 0.5], 12)
        assert seen == [100000000000.5]

    def test_exact_where_long_double_is_a_double(self, monkeypatch):
        with np.errstate(over="ignore"):
            powers = 10.0 ** np.arange(_tracecsv._POW10_LOW, len(_tracecsv._POW10)
                                       + _tracecsv._POW10_LOW).astype(float)
        monkeypatch.setattr(_tracecsv, "_LD", np.float64)
        monkeypatch.setattr(_tracecsv, "_POW10", powers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (12, 16):
                got = [bytes(cell).translate(None, b"\0")
                       for cell in _tracecsv.g_cells(EDGE_VALUES, p)]
                assert got == [b"%.*g" % (p, v) for v in EDGE_VALUES.tolist()]
            assert not _tracecsv.decimal_digits(EDGE_VALUES, 16)[2].any()

    def test_powers_of_ten_within_one_eps(self):
        eps = Fraction(*np.finfo(np.longdouble).eps.as_integer_ratio())
        for k, power in enumerate(_tracecsv._POW10, _tracecsv._POW10_LOW):
            if np.isfinite(power):
                exact = Fraction(10) ** k
                assert abs(Fraction(*power.as_integer_ratio()) - exact) <= eps * exact, k


# The formatter's edge cases: zeros, subnormals, the extremes, non-finites,
# powers of ten and their neighbours, the %g switch points at 1e-5, 1e-4,
# 1e12 and 1e16, exact ties at 16 and 12 digits, and integers near 2^53.
_TENS = 10.0 ** np.arange(-323, 309)
EDGE_VALUES = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
     1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan,
     1234567890123456.5, 1234567890123457.5, 100000000000.5, -100000000000.5],
    *[np.nextafter(edge, [0.0, np.inf]) for edge in (1e-5, 1e-4, 1e12, 1e16)],
    [9.99999999999995e-5, 9.9999999999999995e-5, 999999999999.5, 9999999999999999.0],
    _TENS, -_TENS, np.nextafter(_TENS, 0.0), np.nextafter(_TENS, np.inf),
    2.0**53 + np.arange(-20, 21),
])


def per_cell_csv(trace) -> bytes:
    """The trace CSV from the csv module's excel dialect, one cell at a time."""
    n, m = trace.x.shape[1], trace.u.shape[1]
    out = io.StringIO(newline="")
    out.write("# format: 1\n")
    writer = csv.writer(out)
    writer.writerow(["t"] + [f"x{i + 1}" for i in range(n)]
                    + [f"u{j + 1}" for j in range(m)]
                    + ["V", "dos_active", "attempt", "success", "buffer_depth"])
    for i in range(len(trace.times)):
        writer.writerow(
            [f"{trace.times[i]:.12g}"]
            + [f"{v:.16g}" for v in trace.x[i]]
            + [f"{v:.16g}" for v in trace.u[i]]
            + [f"{trace.V[i]:.16g}", int(trace.dos_active[i]),
               int(trace.attempt[i]), int(trace.success[i]),
               int(trace.buffer_depth[i])]
        )
    return out.getvalue().encode()
