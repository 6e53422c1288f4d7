import csv
import dataclasses
import functools
import inspect
import io
import json
from fractions import Fraction
import math
from pathlib import Path
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from doscontrol import _tracecsv, cli
from doscontrol.dos import DoSClassParams
from doscontrol.simulation import MAX_ROWS, solve_blocks

from conftest import BENCH_A, BENCH_B, BENCH_K

REPO = Path(__file__).resolve().parents[1]
X0 = np.array([1.0, -1.0]) / math.sqrt(2.0)
QUIET = NoiseSpec()
NO_DOS = DoSSignal(intervals=(), horizon=100.0)


def bench_sim(plant, mode="remote", h=5, horizon=10.0, dos_signal=NO_DOS,
              noise=QUIET, x0=X0, P=None, **kw):
    config = SimConfig(delta_big=0.1, horizon=horizon, mode=mode, h=h, **kw)
    return simulate(plant, BENCH_K, config, dos_signal, noise, x0, P=P)


def tampered(trace, **columns):
    """trace's public names, with columns in place of some of them.

    compute_metrics, check_envelope and trace_to_csv only read attributes,
    so a namespace stands in for a trace whose columns were edited.
    """
    names = [f.name for f in dataclasses.fields(trace) if not f.name.startswith("_")]
    names += [name for name, value in vars(type(trace)).items()
              if isinstance(value, functools.cached_property)]
    return types.SimpleNamespace(**{**{name: getattr(trace, name) for name in names},
                                    **columns})


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

    @pytest.mark.parametrize("seed", [0, 1, 2026, 2**32 + 5, 2**63 - 1, 2**128 + 3])
    def test_streams_are_the_spawned_children(self, seed):
        # simulate builds the children of SeedSequence(seed).spawn(2) by
        # their spawn keys and draws -b + 2 b u for rng.uniform(-b, b); the
        # noise of every trace, and of the recorded references, is these bits
        children = np.random.SeedSequence(seed).spawn(2)
        for i, child in enumerate(children):
            keyed = np.random.SeedSequence(seed, spawn_key=(i,))
            assert (np.random.PCG64(keyed).state
                    == np.random.PCG64(child).state)
            for bound in (0.0, 5e-324, 0.01, 1e300):
                draws = np.random.default_rng(keyed).random((64, 3))
                draws *= 2.0 * bound
                draws -= bound
                expected = np.random.default_rng(child).uniform(-bound, bound, (64, 3))
                assert draws.tobytes() == expected.tobytes(), bound


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


def columns_on_the_row_grid(trace, sig, K, P, b):
    """The eight row columns, built together: the schedule on the row grid.

    times, the flags and V follow from the grid, x and the signal alone;
    u, prediction and buffer_depth from the run's tick record.
    """
    ticks, substeps, delta = trace._ticks, trace.substeps, trace.delta
    n_ticks, n = len(ticks.states) - 1, trace.x.shape[1]
    n_rows = n_ticks * substeps + 1
    times = (
        (np.arange(n_ticks + 1, dtype=float) * delta)[:, None]
        + np.arange(substeps) * (delta / substeps)
    ).ravel()[:n_rows]
    dos_active = dos.active_mask(sig, np.minimum(times, sig.horizon))
    attempt = np.zeros(n_rows, dtype=bool)
    attempt[:: b * substeps] = True
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = trace.x @ P
        v = weighted[:, 0] * trace.x[:, 0]
        for j in range(1, n):
            v += weighted[:, j] * trace.x[:, j]
        states = ticks.states.copy()
        u_ticks = states[:, n:] @ K.T
    preds = states[:, n:]
    preds[: ticks.first] = np.nan
    depths = np.maximum(ticks.stored - ticks.ages, 0)
    return {
        "times": times,
        "dos_active": dos_active,
        "attempt": attempt,
        "success": attempt & ~dos_active,
        "u": np.repeat(u_ticks, substeps, axis=0)[:n_rows],
        "prediction": np.repeat(preds, substeps, axis=0)[:n_rows],
        "buffer_depth": np.repeat(depths, substeps)[:n_rows],
        "V": v,
    }


class TestColumnsOnFirstRead:
    """The row columns are built when read, each equal to its eager build."""

    SIG = generate(21, GeneratorSpec(off_range=(0.05, 0.4), on_range=(0.0, 0.3)), 3.0)
    UNREAD = ("times", "u", "prediction", "buffer_depth", "dos_active")

    def run(self, plant, mode, h, T_c, b, decay_at, K=BENCH_K, P=P2):
        config = SimConfig(delta_big=0.1, horizon=3.0, h=h, b=b, T_c=T_c,
                           substeps=4, mode=mode)
        noise = NoiseSpec(d_bound=0.02, n_bound=0.02, seed=17, decay_at=decay_at)
        return simulate(plant, K, config, self.SIG, noise, X0, P=P)

    def test_a_verdict_builds_no_unread_column(self, bench_plant):
        for mode, h in (("colocated", 1), ("remote", 5)):
            trace = self.run(bench_plant, mode, h, 0.0, 1, None)
            compute_metrics(trace)
            assert not set(self.UNREAD) & set(vars(trace)), mode

    @pytest.mark.parametrize("mode, h, T_c", [
        ("colocated", 1, 0.0), ("remote", 5, 0.0), ("remote", 5, 0.15),
    ])
    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("decay_at", [None, 1.23])
    @pytest.mark.parametrize("u_first", [True, False])
    def test_each_column_equals_its_eager_build(self, bench_plant, mode, h, T_c,
                                                b, decay_at, u_first):
        K, P = BENCH_K.copy(), P2.copy()
        trace = self.run(bench_plant, mode, h, T_c, b, decay_at, K=K, P=P)
        # a delayed remote run has rows before its first prediction, NaN in
        # prediction and not in u
        assert mode == "colocated" or (trace._ticks.first > 0) == (T_c > 0.0)
        # the run keeps its own K and P: later writes to the caller's reach
        # no column
        K[...], P[...] = 0.0, 0.0
        expected = columns_on_the_row_grid(trace, self.SIG, BENCH_K, P2, b)
        order = ["u", "prediction"] if u_first else ["prediction", "u"]
        order += [name for name in expected if name not in order]
        for name in order:
            got = getattr(trace, name)
            assert got is getattr(trace, name), name
            assert got.dtype == expected[name].dtype, name
            assert got.shape == expected[name].shape, name
            assert got.tobytes() == expected[name].tobytes(), name
        assert trace.z.tobytes() == trace.times[trace.success].tobytes()


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
        steps, step, windows, phi_skip, _, templates, reach = model
        # the noise map's windows are a view of a stack that is read-only too
        stack = windows
        while stack.base is not None:
            stack = stack.base
        assert isinstance(stack, np.ndarray) and stack.shape == (2 * 10, 2, 2)
        for array in (steps, step, windows, stack, phi_skip, templates, *reach):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    @pytest.mark.parametrize("substeps", [1, 4, 10, 40])
    def test_noise_map_is_the_block_map(self, bench_plant, substeps):
        # G[j, i] = A_s^(j-1-i) E_s for j > i, zero elsewhere, built block
        # by block in O(S^2) as the one reshape a run makes of the windows
        n, delta = 2, 0.1
        k_mat = linalg.as_matrix(BENCH_K)
        _, _, windows, *_ = simulation._tick_model(
            bench_plant.A.tobytes(), bench_plant.B.tobytes(), k_mat.tobytes(),
            n, 2, delta, substeps, 0,
        )
        g_map = windows.reshape((substeps + 1) * n, substeps * n)
        a_s, be_s = linalg.zoh_discretize(
            bench_plant.A, np.hstack([bench_plant.B, np.eye(n)]), delta / substeps
        )
        e_s = be_s[:, 2:]
        powers = [np.eye(n)]
        for _ in range(substeps):
            powers.append(a_s @ powers[-1])
        expected = np.zeros((substeps + 1, n, substeps, n))
        for j in range(substeps + 1):
            for i in range(j):
                expected[j, :, i, :] = powers[j - 1 - i] @ e_s
        assert np.array_equal(g_map, expected.reshape(g_map.shape))

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
    # the same run's peak when simulate builds no row column (2.098 MiB
    # measured): the trace builds each on first read
    UNREAD_PEAK = 2.10 * 2**20

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
        assert self.peak(bench_plant, 50, 0) <= 1.1 * self.UNREAD_PEAK
        # the band of a deep delay is cut to BAND_BYTES per block, and past
        # the block length it narrows again
        assert solve_blocks(2, 599)[0] <= 599
        for h, skip in ((50, 49), (600, 599)):
            assert self.peak(bench_plant, h, skip) <= 1.5 * self.SKIP0_PEAK, skip


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
        assert not check_envelope(tampered(trace, V=v), env, consts, w_inf=0.0)

    def test_zero_run_trivially_true(self, bench_plant, bench_inputs):
        consts = derive_constants(bench_inputs, h=5, delta=0.1)
        env = decay_envelope(consts, 0.2, 0.1, 5, 0.1)
        trace = bench_sim(bench_plant, x0=np.zeros(2), horizon=5.0)
        assert check_envelope(trace, env, consts, w_inf=0.0)


def metrics_by_isfinite(trace, divergence_threshold=None):
    """compute_metrics as isfinite, all and max spell it: the oracle."""
    norms = np.linalg.norm(trace.x, axis=1)
    finite = bool(np.all(np.isfinite(norms)))
    scale = max(float(norms[0]), 1.0) if finite else math.inf
    if divergence_threshold is None:
        divergence_threshold = 1e3 * scale
    stable = finite and bool(np.max(norms) < divergence_threshold)
    if trace.noise_decay_at is not None:
        stable = stable and float(norms[-1]) <= 1e-3 * scale
    z = trace.z
    return simulation.SimMetrics(
        failure_fraction=1.0 - len(z) / np.count_nonzero(trace.attempt),
        max_state_norm=float(np.max(norms)) if finite else None,
        final_state_norm=float(norms[-1]) if math.isfinite(norms[-1]) else None,
        max_gap=float(np.max(np.diff(z))) if len(z) > 1 else 0.0,
        envelope_ok=None,
        stable_verdict=stable,
    )


class TestMetrics:
    @pytest.mark.parametrize("rows", [
        {}, {3: [np.nan, 1.0]}, {3: [np.inf, 0.0]}, {3: [-np.inf, np.nan]},
        {0: [-0.0, -0.0]}, {0: [-0.0, 0.0], 5: [-0.0, -0.0]}, {-1: [np.nan, np.nan]},
        {-1: [1.0, np.nan]}, {-1: [np.inf, 1.0]}, {0: [np.nan, 0.0]},
        {2: [np.nan, 1.0], 4: [np.inf, np.inf]}, {1: [1e200, 1e200]},
    ])
    @pytest.mark.parametrize("decay_at", [None, 2.0])
    def test_matches_the_isfinite_formulation(self, bench_plant, rows, decay_at):
        noise = NoiseSpec(d_bound=0.01, n_bound=0.01, seed=4, decay_at=decay_at)
        trace = bench_sim(bench_plant, horizon=5.0, noise=noise,
                          dos_signal=generate(3, GeneratorSpec(), 5.0))
        x = trace.x.copy()
        for row, values in rows.items():
            x[row] = values
        trace = tampered(trace, x=x)
        for threshold in (None, 0.5, 1e300):
            with np.errstate(over="ignore", invalid="ignore"):
                expected = metrics_by_isfinite(trace, threshold)
            got = compute_metrics(trace, divergence_threshold=threshold)
            assert repr(got) == repr(expected), (rows, threshold)

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
                 self.far_apart_depths, self.strided_input,
                 self.extreme_magnitudes)
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
        return tampered(trace, x=x), {
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
        # one held value from four rows before a block edge to six after it,
        # and a row where only the second input changes
        u[edge - 7 : edge - 4] = [[0.0, 0.0], [-0.0, -0.0], [0.0, -0.0]]
        u[edge - 4 : edge + 6] = [0.25, -0.0]
        u[edge + 6] = [0.25, 0.5]
        return tampered(trace, u=u), {
            b",-0,-0,": 1, b",0,-0,": 1, b",0.25,-0,": 10, b",0.25,0.5,": 1,
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
        return tampered(trace, success=success), {}

    @staticmethod
    def far_apart_depths(bench_plant):
        # buffer depths 10^9 apart within one block
        sig = generate(4, GeneratorSpec(), 20.0)
        trace = bench_sim(bench_plant, h=50, horizon=20.0, substeps=3, dos_signal=sig)
        depth = trace.buffer_depth.copy()
        depth[::7] += 10**9
        return tampered(trace, buffer_depth=depth), {
            b",1000000": len(depth[::7]),
        }

    @staticmethod
    def strided_input(bench_plant):
        sig = generate(3, GeneratorSpec(), 10.0)
        trace = bench_sim(bench_plant, dos_signal=sig, substeps=7)
        u = trace.u[:, ::-1]
        assert not u.flags.c_contiguous and np.any(u[:, 0] != u[:, 1])
        return tampered(trace, u=u), {}

    @staticmethod
    def extreme_magnitudes(bench_plant):
        # every float column drawn from the formatter's edge cases
        trace = bench_sim(bench_plant, horizon=2.0, substeps=7)
        rng = np.random.default_rng(11)
        columns = {name: rng.choice(EDGE_VALUES, size=getattr(trace, name).shape)
                   for name in ("times", "x", "u", "V")}
        return tampered(trace, **columns), {}

    def test_formatter_matches_percent(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(float)
        spread = rng.uniform(1.0, 10.0, 50_000) * 10.0 ** rng.integers(-330, 308, 50_000)
        values = np.concatenate([EDGE_VALUES, bits, spread])
        mixed = rng.choice([12, 16], size=values.size)
        for p in (12, 16, mixed):
            got = g_texts(values, p)
            want = [b"%.*g" % pair for pair in
                    zip(np.broadcast_to(p, values.shape).tolist(), values.tolist())]
            bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
            assert bad == [], (len(bad), bad[:5])

    # any float: NaN, +-inf and subnormals included, and any 64-bit pattern
    FLOATS = st.floats(allow_subnormal=True) | st.integers(0, 2**64 - 1).map(
        lambda bits: float(np.uint64(bits).view(np.float64)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(FLOATS, st.sampled_from((12, 16))), min_size=1, max_size=40))
    def test_formatter_property(self, cells):
        values = np.array([v for v, _ in cells])
        for p in (12, 16, np.array([p for _, p in cells])):
            precision = np.broadcast_to(p, values.shape).tolist()
            assert g_texts(values, p) == [
                b"%.*g" % pair for pair in zip(precision, values.tolist())]

    def test_uncertain_cells_take_the_per_cell_path(self, monkeypatch):
        seen = []

        def recorded(values, p):
            seen.extend(values.tolist())
            return percent(values, p)

        percent = _tracecsv.percent_cells
        monkeypatch.setattr(_tracecsv, "percent_cells", recorded)
        # exact ties at 16 digits and the magnitudes past the bulk range;
        # zeros and non-finites come from a table instead
        uncertain = [1234567890123456.5, 1234567890123457.5, 3e-300, -1e300]
        fixed = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
        plain = [0.5, 2.0, -0.125, 3e-280, 123.456, 100000000000.5, 1000.0, 1e16,
                 -1e280]
        values = plain + fixed[:3] + uncertain + fixed[3:]
        texts = g_texts(values, 16)
        assert seen == uncertain
        assert texts == [b"%.16g" % v for v in values]
        assert texts[len(plain) : len(plain) + 3] == [b"0", b"-0", b"inf"]
        assert texts[-3:] == [b"-inf", b"nan", b"nan"]
        seen.clear()
        # a tie at 12 digits
        g_texts([100000000000.5, 0.5], 12)
        assert seen == [100000000000.5]

    def test_exact_where_long_double_is_a_double(self):
        # The scaling is double-double arithmetic in float64 alone, so the
        # bulk path vouches for the same cells wherever long double is a
        # plain double: every finite cell of the bulk range but exact ties.
        assert "longdouble" not in inspect.getsource(_tracecsv)
        assert _tracecsv._TENS.dtype == np.float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (12, 16):
                assert g_texts(EDGE_VALUES, p) == [b"%.*g" % (p, v) for v in EDGE_VALUES.tolist()]
                precision = np.full(EDGE_VALUES.shape, p)
                exact = _tracecsv.decimal_digits(EDGE_VALUES, precision)[2]
                bulk = 1.0 / _tracecsv._RANGE, _tracecsv._RANGE
                want = [bulk[0] <= abs(v) < bulk[1] and not tie(v, p)
                        for v in EDGE_VALUES.tolist()]
                assert exact.tolist() == want, p

    def test_powers_of_ten_within_2_to_the_minus_106(self):
        tens = _tracecsv._TENS
        low = _tracecsv._K_LOW
        decades = _tracecsv._DECADES
        # every scale 10^(P - 1 - e) of a cell of 12 or 16 digits is there
        assert low <= 11 - decades[-1] and low + tens.shape[1] > 15 - decades[0]
        for k, (hi, big, small, lo) in enumerate(tens.T.tolist(), low):
            exact = Fraction(10) ** k
            assert abs(Fraction(hi) - exact) <= Fraction(math.ulp(hi)) / 2, k
            assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact / 2**106, k
            assert lo == 0.0 or abs(lo) >= np.finfo(float).tiny, k
            # Veltkamp's halves, exact products with a split double
            assert Fraction(big) + Fraction(small) == Fraction(hi), k
            assert significant_bits(big) <= 26 and significant_bits(small) <= 26, k


def g_texts(values, p) -> list:
    """g_cells' text of each value at precision p, one for all or one per
    value, after checking that NULs fill the rest of each cell."""
    values = np.asarray(values, dtype=float)
    cells, lengths = _tracecsv.g_cells(values, np.broadcast_to(p, values.shape))
    assert cells.shape == (len(lengths), _tracecsv.CELL)
    assert not cells[np.arange(_tracecsv.CELL) >= lengths[:, None]].any()
    assert cells[np.arange(_tracecsv.CELL) < lengths[:, None]].all()
    data = cells.tobytes()
    return [data[i * _tracecsv.CELL : i * _tracecsv.CELL + length]
            for i, length in enumerate(lengths.tolist())]


def tie(v: float, p: int) -> bool:
    """Whether v lies halfway between two p-digit decimals, from exact fractions."""
    if not math.isfinite(v) or v == 0.0:
        return False
    mag = abs(Fraction(v))
    e = math.floor(math.log10(abs(v)))
    e += (Fraction(10) ** (e + 1) <= mag) - (Fraction(10) ** e > mag)
    y = mag * Fraction(10) ** (p - 1 - e)
    return y - math.floor(y) == Fraction(1, 2)


def significant_bits(v: float) -> int:
    """The bits of v's significand from its leading one to its last one."""
    num = abs(v.as_integer_ratio()[0])
    return (num >> ((num & -num).bit_length() - 1)).bit_length() if num else 0


class TestBenchmarkTraceCsv:
    """The writer on the 500 s remote h = 50 run of the bundled benchmark config."""

    # the tracemalloc peak of one 2048-row block when x, V and u were
    # formatted in one call and t in another, into 32-byte cells
    BLOCK_PEAK = 1.64 * 2**20

    @pytest.fixture(scope="class")
    def trace(self):
        with open(REPO / "configs" / "benchmark.json") as fh:
            data = json.load(fh)
        data["sim"]["horizon"] = 500.0
        data["buffer"]["h"] = 50
        cfg = cli.ExperimentConfig(data)
        consts = derive_constants(cfg.design_inputs(), cfg.run.h, cfg.run.delta)
        return simulate(cfg.plant, cfg.K, cfg.run, cfg.dos_signal, cfg.noise, cfg.x0,
                        P=consts.P)

    def test_block_peak(self, trace):
        block = slice(10 * simulation.CSV_BLOCK_ROWS, 11 * simulation.CSV_BLOCK_ROWS)
        flags = _tracecsv.flag_tails(trace.buffer_depth)
        _tracecsv.csv_rows(trace, block, flags)
        tracemalloc.start()
        try:
            _tracecsv.csv_rows(trace, block, flags)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * self.BLOCK_PEAK

    def test_cells_seldom_take_the_per_cell_path(self, trace, monkeypatch, tmp_path):
        seen = []

        def recorded(values, p):
            seen.extend(values.tolist())
            return percent(values, p)

        percent = _tracecsv.percent_cells
        monkeypatch.setattr(_tracecsv, "percent_cells", recorded)
        trace_to_csv(trace, tmp_path / "trace.csv")
        cells = len(trace.times) * (trace.x.shape[1] + trace.u.shape[1] + 2)
        assert len(seen) < 1e-4 * cells, seen[:10]


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
