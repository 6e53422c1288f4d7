import numpy as np
import pytest

from doscontrol import (
    ActuatorBuffer,
    DelayExceedsHorizonError,
    PredictorState,
    build_packet,
    buffer_depth,
    buffer_output,
    colocated_step,
    deliver_packet,
    zoh_discretize,
)

from conftest import BENCH_A, BENCH_B, BENCH_K

AD, BD = zoh_discretize(BENCH_A, BENCH_B, 0.1)


class TestColocatedStep:
    def test_equilibrium(self):
        state = PredictorState.initial(2)
        state, u = colocated_step(state, BENCH_K, AD, BD, np.zeros(2))
        assert np.all(u == 0.0)
        assert np.all(state.xi == 0.0)

    def test_never_measured_stays_at_origin(self):
        state = PredictorState.initial(2)
        for _ in range(20):
            state, u = colocated_step(state, BENCH_K, AD, BD, None)
            assert np.all(u == 0.0)
        assert np.all(state.xi == 0.0)

    def test_single_step_rule(self):
        y = np.array([1.0, -0.5])
        state, u = colocated_step(PredictorState.initial(2), BENCH_K, AD, BD, y)
        assert np.allclose(u, BENCH_K @ y)
        assert np.allclose(state.xi, AD @ y + BD @ (BENCH_K @ y))


class TestBuildPacket:
    def test_zero_measurement(self):
        pkt = build_packet(np.zeros(2), BENCH_K, AD, BD, h=4)
        assert np.all(pkt.controls == 0.0)
        assert np.all(pkt.predictions == 0.0)

    def test_h1_base_case(self):
        y = np.array([1.0, 2.0])
        pkt = build_packet(y, BENCH_K, AD, BD, h=1)
        assert pkt.controls.shape == (1, 2)
        assert np.allclose(pkt.controls[0], BENCH_K @ y)

    def test_predictions_match_exact_rollout(self):
        # oracle: run the disturbance-free plant itself under u = K x
        y = np.array([1.0, 0.0])
        h = 8
        pkt = build_packet(y, BENCH_K, AD, BD, h=h)
        x = y.copy()
        for p in range(h):
            assert np.allclose(pkt.predictions[p], x, atol=1e-12)
            x = AD @ x + BD @ (BENCH_K @ x)

    def test_internal_consistency(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            y = rng.standard_normal(2)
            pkt = build_packet(y, BENCH_K, AD, BD, h=int(rng.integers(1, 12)))
            for p in range(pkt.h):
                assert np.allclose(pkt.controls[p], BENCH_K @ pkt.predictions[p])

    def test_skip_must_fit(self):
        with pytest.raises(DelayExceedsHorizonError):
            build_packet(np.zeros(2), BENCH_K, AD, BD, h=3, skip=3)


class TestBuffer:
    def fresh(self):
        return ActuatorBuffer(sampling=0.1, n_inputs=2)

    def test_zero_before_first_packet(self):
        assert np.all(buffer_output(self.fresh(), 12.3) == 0.0)
        assert buffer_depth(self.fresh(), 12.3) == 0

    def test_first_entry_at_arming_time(self):
        pkt = build_packet(np.array([1.0, 0.0]), BENCH_K, AD, BD, h=5, built_at=2.0)
        buf = deliver_packet(self.fresh(), pkt, 2.0)
        assert np.allclose(buffer_output(buf, 2.0), pkt.controls[0])
        assert buffer_depth(buf, 2.0) == 5

    def test_holds_last_entry_past_horizon(self):
        pkt = build_packet(np.array([1.0, 0.0]), BENCH_K, AD, BD, h=5, built_at=2.0)
        buf = deliver_packet(self.fresh(), pkt, 2.0)
        # p = floor(0.75/0.1) = 7 clamps to the last slot
        assert np.allclose(buffer_output(buf, 2.75), pkt.controls[4])
        assert buffer_depth(buf, 2.75) == 0

    def test_piecewise_constant_with_breakpoints_on_grid(self):
        pkt = build_packet(np.array([1.0, -1.0]), BENCH_K, AD, BD, h=4, built_at=0.0)
        buf = deliver_packet(self.fresh(), pkt, 0.0)
        for p in range(4):
            lo = buffer_output(buf, p * 0.1)
            hi = buffer_output(buf, p * 0.1 + 0.0999)
            assert np.allclose(lo, hi)
            assert np.allclose(lo, pkt.controls[p])

    def test_receding_horizon_replacement(self):
        old = build_packet(np.array([1.0, 0.0]), BENCH_K, AD, BD, h=5, built_at=0.0)
        new = build_packet(np.array([0.0, 1.0]), BENCH_K, AD, BD, h=5, built_at=0.2)
        buf = deliver_packet(self.fresh(), old, 0.0)
        buf = deliver_packet(buf, new, 0.2)  # earlier than 0.0 + 5*0.1
        assert np.allclose(buffer_output(buf, 0.2), new.controls[0])

    def test_idempotent_redelivery(self):
        pkt = build_packet(np.array([1.0, 0.0]), BENCH_K, AD, BD, h=3, built_at=1.0)
        buf = deliver_packet(self.fresh(), pkt, 1.0)
        assert deliver_packet(buf, pkt, 1.0) == buf

    def test_time_regression_rejected(self):
        pkt = build_packet(np.array([1.0, 0.0]), BENCH_K, AD, BD, h=3, built_at=1.0)
        buf = deliver_packet(self.fresh(), pkt, 1.0)
        with pytest.raises(ValueError):
            deliver_packet(buf, pkt, 0.5)

    def test_computation_delay_starts_at_skipped_slot(self):
        # packet built at z_m with skip=2 reaches the actuator at z_m + 2*delta
        # and the first value it plays there is entry 2
        pkt = build_packet(
            np.array([1.0, 0.0]), BENCH_K, AD, BD, h=5, skip=2, built_at=1.0
        )
        buf = deliver_packet(self.fresh(), pkt, 1.0)
        assert np.allclose(buffer_output(buf, 1.2), pkt.controls[2])
