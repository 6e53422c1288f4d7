import csv
import dataclasses
import io
import math
from collections import deque

import numpy as np
import pytest

from doscontrol import (
    DoSSignal,
    controllers,
    GeneratorSpec,
    NoiseSpec,
    SimConfig,
    check_envelope,
    compute_metrics,
    decay_envelope,
    derive_constants,
    dos,
    fit_class_params,
    generate,
    linalg,
    min_prediction_horizon,
    simulate,
    success_gap_bound,
    successful_transmissions,
    trace_to_csv,
)
from doscontrol.dos import DoSClassParams

from conftest import BENCH_K

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

    def test_remote_no_buffer_forces_h1(self, bench_plant):
        trace = bench_sim(bench_plant, mode="remote_no_buffer", h=7, horizon=2.0)
        assert int(np.max(trace.buffer_depth)) == 1

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

    def test_horizon_validation(self, bench_plant):
        with pytest.raises(ValueError):
            bench_sim(bench_plant, horizon=1.23456)
        short = DoSSignal(intervals=(), horizon=5.0)
        with pytest.raises(ValueError):
            bench_sim(bench_plant, dos_signal=short, horizon=10.0)

    @pytest.mark.parametrize(
        "field", [{"horizon": math.inf}, {"horizon": math.nan},
                  {"delta_big": math.inf}, {"delta_big": math.nan}],
    )
    def test_non_finite_timing_rejected(self, field):
        kwargs = {"delta_big": 0.1, "horizon": 10.0, **field}
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("decay_at", ["soon", math.inf, math.nan, [5.0]])
    def test_decay_at_must_be_finite_number(self, decay_at):
        with pytest.raises(ValueError, match="decay_at"):
            NoiseSpec(decay_at=decay_at)

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


def state_machine_loop(plant, K, config, dos_signal, noise, x0):
    """Oracle: the closed loop driven by the controllers state machines.

    Same grid, noise streams and plant update as simulate, with the input
    taken from colocated_step, or from build_packet and the actuator buffer.
    Returns x, u, prediction and buffer_depth.
    """
    k_mat = np.asarray(K, dtype=float)
    x = np.asarray(x0, dtype=float)
    delta = config.delta
    n_ticks = int(round(config.horizon / delta))
    sub_dt = delta / config.substeps
    a_d, b_d = linalg.zoh_discretize(plant.A, plant.B, delta)
    a_s, be_s = linalg.zoh_discretize(
        plant.A, np.hstack([plant.B, np.eye(plant.n)]), sub_dt
    )
    b_s, e_s = be_s[:, : plant.m], be_s[:, plant.m :]
    n_rows = n_ticks * config.substeps + 1
    rows = np.arange(n_rows)
    times = rows // config.substeps * delta + rows % config.substeps * sub_dt
    dos_flags = dos.active_mask(dos_signal, np.minimum(times, dos_signal.horizon))
    success_flags = (rows % (config.b * config.substeps) == 0) & ~dos_flags
    d_seq, n_seq = np.random.SeedSequence(noise.seed).spawn(2)
    dist = np.random.default_rng(d_seq).uniform(
        -noise.d_bound, noise.d_bound, size=(n_rows - 1, plant.n)
    )
    meas = np.random.default_rng(n_seq).uniform(
        -noise.n_bound, noise.n_bound, size=(int(success_flags.sum()), plant.n)
    )
    samples = iter(meas)

    xs = np.empty((n_rows, plant.n))
    us = np.empty((n_rows, plant.m))
    preds = np.full((n_rows, plant.n), np.nan)
    depths = np.zeros(n_rows, dtype=int)

    colocated = config.mode == "colocated"
    pred_state = controllers.PredictorState.initial(plant.n)
    buf = controllers.ActuatorBuffer(sampling=delta, n_inputs=plant.m)
    pending = deque()

    for q in range(n_ticks + 1):
        t = q * delta
        lo, hi = q * config.substeps, (q + 1) * config.substeps
        success = success_flags[lo]
        y = x + next(samples) if success else None

        if colocated:
            alpha = y if success else pred_state.xi
            pred_state, u = controllers.colocated_step(pred_state, k_mat, a_d, b_d, y)
            depth = 0
        else:
            if success:
                pending.append(
                    controllers.build_packet(
                        y, k_mat, a_d, b_d, config.h, config.skip, built_at=t
                    )
                )
            while pending and pending[0].built_at + pending[0].skip * delta <= t + 1e-9 * delta:
                pkt = pending.popleft()
                buf = controllers.deliver_packet(buf, pkt, pkt.built_at)
            u = controllers.buffer_output(buf, t)
            depth = controllers.buffer_depth(buf, t) if buf.packet is not None else 0
            alpha = controllers.buffer_prediction(buf, t)

        us[lo:hi] = u
        if alpha is not None:
            preds[lo:hi] = alpha
        depths[lo:hi] = depth
        for r in range(lo, min(hi, n_rows - 1)):
            xs[r] = x
            x = a_s @ x + b_s @ u + e_s @ dist[r]
    xs[-1] = x
    return xs, us, preds, depths


def law_cases():
    """(mode, h, skip) triples: every mode, and skip from 0 to h - 1."""
    yield "colocated", 1, 0
    yield "colocated", 1, 3  # co-located ignores the computation delay
    yield "remote_no_buffer", 1, 0
    for h in (1, 2, 5, 50):
        for skip in sorted({0, 1, h // 2, h - 1} & set(range(h))):
            yield "remote", h, skip


class TestOneLaw:
    SIGNALS = {
        "pulses": lambda seed: generate(
            seed, GeneratorSpec(off_range=(0.05, 0.4), on_range=(0.0, 0.05)), 7.0),
        "touching": lambda seed: generate(
            seed, GeneratorSpec(off_range=(0.0, 0.3), on_range=(0.05, 0.6)), 7.0),
        "empty": lambda seed: DoSSignal(intervals=(), horizon=7.0),
    }

    @pytest.mark.parametrize("mode, h, skip", list(law_cases()))
    def test_matches_the_state_machines_bit_for_bit(self, bench_plant, mode, h, skip):
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
            trace = simulate(bench_plant, BENCH_K, config, sig, noise, X0)
            x, u, pred, depth = state_machine_loop(
                bench_plant, BENCH_K, config, sig, noise, X0
            )
            where = f"b={b} signal={name}"
            assert np.array_equal(trace.x, x), where
            assert np.array_equal(trace.u, u), where
            assert np.array_equal(trace.prediction, pred, equal_nan=True), where
            assert np.array_equal(trace.buffer_depth, depth), where


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

    def test_bytes_match_per_cell_writer(self, bench_plant, tmp_path):
        # oracle: the csv module's excel dialect with per-cell formatting
        sig = generate(3, GeneratorSpec(), 10.0)
        noise = NoiseSpec(d_bound=0.01, n_bound=0.01, seed=2)
        trace = bench_sim(bench_plant, dos_signal=sig, noise=noise, substeps=7)
        assert len(trace.times) > 512
        x = trace.x.copy()
        x[3, 0] = -0.0
        x[600, 1] = 0.1234567890123456  # needs all 16 significant digits
        trace = dataclasses.replace(trace, x=x)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)

        expected = io.StringIO(newline="")
        expected.write("# format: 1\n")
        writer = csv.writer(expected)
        writer.writerow(["t", "x1", "x2", "u1", "u2", "V", "dos_active",
                         "attempt", "success", "buffer_depth"])
        for i in range(len(trace.times)):
            writer.writerow(
                [f"{trace.times[i]:.12g}"]
                + [f"{v:.16g}" for v in trace.x[i]]
                + [f"{v:.16g}" for v in trace.u[i]]
                + [f"{trace.V[i]:.16g}", int(trace.dos_active[i]),
                   int(trace.attempt[i]), int(trace.success[i]),
                   int(trace.buffer_depth[i])]
            )
        data = path.read_bytes()
        assert data == expected.getvalue().encode()
        assert b",-0," in data
        assert b",0.1234567890123456," in data
