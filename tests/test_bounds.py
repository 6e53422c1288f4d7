import dataclasses
import math

import numpy as np
import pytest

from doscontrol import (
    DesignInputs,
    HorizonTooShortError,
    LtiPlant,
    SigmaInfeasibleError,
    StabilityCertificationError,
    decay_envelope,
    derive_constants,
    max_sampling_period,
    min_prediction_horizon,
    tolerable_dos_bound,
)

from conftest import BENCH_K


@pytest.fixture(scope="module")
def bench_consts(bench_inputs):
    return derive_constants(bench_inputs, h=5, delta=0.1)


def with_omegas(consts, omega1, omega2):
    return dataclasses.replace(consts, omega1=omega1, omega2=omega2)


class TestDeriveConstants:
    def test_benchmark_chain(self, bench_consts):
        c = bench_consts
        assert c.gamma1 == pytest.approx(1.0, abs=1e-12)
        assert c.gamma2 == pytest.approx(2.1080, abs=2e-3)
        assert c.alpha1 == pytest.approx(0.2779, abs=2e-3)
        assert c.alpha2 == pytest.approx(0.4497, abs=2e-3)
        assert c.norm_Phi == pytest.approx(1.9021, abs=2e-3)
        assert c.mu_A == pytest.approx(1.5, abs=1e-12)

    def test_scalar_plant_hand_chain(self):
        plant = LtiPlant(A=[[0.0]], B=[[1.0]])
        inputs = DesignInputs(
            plant=plant, K=[[-1.0]], M=[[2.0]], sigma_fraction=0.5
        )
        c = derive_constants(inputs, h=2, delta=0.1)
        assert c.P[0, 0] == pytest.approx(1.0)
        assert c.gamma1 == pytest.approx(2.0)
        assert c.gamma2 == pytest.approx(2.0)
        assert c.gamma3 == pytest.approx(2.0)
        assert c.sigma == pytest.approx(0.5)
        assert c.gamma4 == pytest.approx(1.0)
        assert c.mu_A == pytest.approx(0.0)
        assert c.kappa1 == pytest.approx(1.0)  # ||Phi|| = 1 clamps
        assert c.rho1 == pytest.approx(1.1)  # 1 + (h-1)*delta at mu_A <= 0
        assert c.rho2 == pytest.approx(1.0)
        assert c.rho == pytest.approx(0.5 + 1.1 * 1.5)
        assert c.gamma5 == pytest.approx(2.0 * c.rho + 2.0)
        assert c.gamma6 == pytest.approx(c.gamma5**2 / 2.0)
        assert c.gamma7 == pytest.approx(c.gamma6)
        assert c.omega1 == pytest.approx(0.5)
        assert c.omega2 == pytest.approx(2.0 * 2.5 / 1.0)
        assert c.zeta1 == pytest.approx(c.gamma6 / 0.5)
        assert c.zeta2 == pytest.approx(c.gamma7 / 5.0)

    def test_rho1_branches_jump_at_zero_mu(self):
        # The paper's two branches, pinned as written: 1 + (h-1)*delta at
        # mu_A = 0, but (1 + 1/mu_A) e^(mu_A (h-1) delta) just above 0, which
        # blows up like 1/mu_A.
        h, delta = 5, 0.1

        def rho1(mu):
            inputs = DesignInputs(plant=LtiPlant(A=[[mu]], B=[[1.0]]), K=[[-2.0]])
            return derive_constants(inputs, h=h, delta=delta).rho1

        assert rho1(0.0) == pytest.approx(1.0 + (h - 1) * delta, rel=1e-12)
        for mu in (1e-3, 1e-6, 1e-9):
            assert rho1(mu) == pytest.approx(
                (1.0 + 1.0 / mu) * math.exp(mu * (h - 1) * delta), rel=1e-12
            )
            assert mu * rho1(mu) == pytest.approx(1.0, rel=2.0 * mu)

    @pytest.mark.parametrize("h", [3000, 10000])
    def test_chain_past_the_float_range_names_h(self, bench_inputs, h):
        # mu_A (h-1) delta = 450 overflows gamma5**2, 1500 the exp in rho1
        with pytest.raises(ValueError, match=f"h={h} with delta=0.1"):
            derive_constants(bench_inputs, h=h, delta=0.1)

    def test_sigma_at_supremum_is_infeasible(self):
        plant = LtiPlant(A=[[0.0]], B=[[1.0]])
        inputs = DesignInputs(
            plant=plant, K=[[-1.0]], M=[[2.0]], sigma_fraction=1.0
        )
        with pytest.raises(SigmaInfeasibleError):
            derive_constants(inputs, h=2, delta=0.1)

    def test_rho_dominates_sigma(self, bench_plant):
        rng = np.random.default_rng(31)
        for _ in range(50):
            frac = rng.uniform(0.05, 0.95)
            inputs = DesignInputs(plant=bench_plant, K=BENCH_K, sigma_fraction=frac)
            c = derive_constants(inputs, h=int(rng.integers(1, 20)), delta=0.05)
            assert c.gamma4 > 0.0
            assert c.rho >= c.sigma

    def test_non_hurwitz_gain_rejected(self, bench_plant):
        with pytest.raises(StabilityCertificationError):
            DesignInputs(plant=bench_plant, K=np.zeros((2, 2)))


class TestMaxSamplingPeriod:
    def test_benchmark_supremum_bound(self, bench_consts):
        sigma_sup = bench_consts.gamma1 / bench_consts.gamma2
        d = max_sampling_period(bench_consts.mu_A, sigma_sup, bench_consts.norm_Phi)
        assert d == pytest.approx(0.1508, abs=2e-4)

    def test_nonpositive_mu_branch_clamps(self):
        assert max_sampling_period(0.0, 1.0, 0.5) == pytest.approx(0.5)
        assert max_sampling_period(-2.0, 1.0, 2.0) == pytest.approx(0.25)

    def test_vanishes_with_sigma(self):
        for mu in (1.5, 0.0, -1.0):
            assert max_sampling_period(mu, 1e-12, 2.0) == pytest.approx(0.0, abs=1e-11)

    def test_monotone_in_sigma(self):
        for mu in (2.0, 0.0, -0.5):
            vals = [
                max_sampling_period(mu, s, 1.7)
                for s in np.linspace(0.01, 3.0, 40)
            ]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_margin_inequality_at_the_bound(self):
        # kappa1 * f(delta_max), f(d) the integral of e^(mu_A s) over [0, d],
        # never exceeds sigma/(1+sigma); for non-contracting dynamics
        # (mu_A >= 0) it lands exactly on it
        rng = np.random.default_rng(32)
        for _ in range(100):
            mu = rng.uniform(-2.0, 2.0)
            sigma = rng.uniform(0.05, 2.0)
            norm_phi = rng.uniform(0.2, 3.0)
            kappa1 = max(norm_phi, 1.0)
            d = max_sampling_period(mu, sigma, norm_phi)
            ratio = sigma / (1.0 + sigma)
            margin = kappa1 * (math.exp(mu * d) - 1.0) / mu
            assert margin <= ratio + 1e-9
            if mu >= 0.0:
                assert margin == pytest.approx(ratio, abs=1e-9)


class TestPredictionHorizon:
    def test_benchmark_pipeline_with_reported_rates(self, bench_consts):
        # reported decay/growth rates drive the published minimal buffer of 50
        c = with_omegas(bench_consts, 0.5025, 15.1709)
        q = 4.978117  # (0.8442 + 0.2958) / (1 - 0.7709977)
        assert min_prediction_horizon(c, q, 0.1, 0.1) == 50

    def test_hand_case_strict_inequality(self, bench_consts):
        c = with_omegas(bench_consts, 1.0, 1.0)
        assert min_prediction_horizon(c, 1.0, 1.0, 1.0) == 2

    def test_open_loop_stable_limit(self, bench_consts):
        c = with_omegas(bench_consts, 1.0, 0.0)
        assert min_prediction_horizon(c, 5.0, 1.0, 1.0) == 1


class TestTolerableDosBound:
    def test_no_dos_recovers_ideal_bound(self, bench_consts):
        assert tolerable_dos_bound(bench_consts, 10, 0.1, 0.1, 0.0, 0.0) == 1.0

    def test_monotone_to_one_in_h(self, bench_consts):
        vals = [
            tolerable_dos_bound(bench_consts, h, 0.1, 0.1, 0.5, 2.0)
            for h in (5, 10, 50, 200, 1000)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.0
        assert 1.0 - vals[-1] < 0.01

    def test_benchmark_crossing_at_reported_rate(self, bench_consts):
        c = with_omegas(bench_consts, 0.5025, 15.1709)
        args = (0.1, 0.1, 0.8442, 2.958)
        at_50 = tolerable_dos_bound(c, 50, *args)
        at_49 = tolerable_dos_bound(c, 49, *args)
        assert at_50 == pytest.approx(0.771, abs=5e-3)
        assert at_49 < 0.7709977 < at_50

    def test_too_short_horizon(self, bench_consts):
        # h*delta below Delta*omega2/(omega1+omega2) empties the denominator
        c = with_omegas(bench_consts, 0.1, 50.0)
        with pytest.raises(HorizonTooShortError):
            tolerable_dos_bound(c, 1, 0.05, 0.1, 0.5, 1.0)


class TestDecayEnvelope:
    def test_buffer_covering_worst_gap_decays_at_omega1(self, bench_consts):
        q, delta_big, delta = 0.9, 0.1, 0.1
        h = int(round((q + delta_big) / delta))
        env = decay_envelope(bench_consts, q, delta_big, h, delta)
        assert env.beta == pytest.approx(bench_consts.omega1)

    def test_hand_case(self, bench_consts):
        c = with_omegas(bench_consts, 1.0, 1.0)
        env = decay_envelope(c, 1.0, 1.0, 3, 0.5)
        assert env.beta == pytest.approx(0.5)
        assert env.lam == pytest.approx(math.e**2)
        assert env.L == pytest.approx(math.exp(-0.5))

    def test_boundary_is_an_error(self, bench_consts):
        c = with_omegas(bench_consts, 1.0, 1.0)
        # h*delta exactly at the threshold omega2/(omega1+omega2)*(Q+Delta)
        with pytest.raises(HorizonTooShortError):
            decay_envelope(c, 1.0, 1.0, 2, 0.5)

    def test_succeeds_exactly_from_min_horizon(self, bench_consts):
        rng = np.random.default_rng(33)
        for _ in range(50):
            c = with_omegas(
                bench_consts, rng.uniform(0.05, 2.0), rng.uniform(0.5, 20.0)
            )
            q = rng.uniform(0.0, 5.0)
            delta_big = rng.uniform(0.05, 0.5)
            delta = delta_big / rng.integers(1, 4)
            h_min = min_prediction_horizon(c, q, delta_big, delta)
            env = decay_envelope(c, q, delta_big, h_min, delta)
            assert env.beta > 0.0
            assert 0.0 < env.L < 1.0
            assert env.lam >= 1.0
            if h_min > 1:
                with pytest.raises(HorizonTooShortError):
                    decay_envelope(c, q, delta_big, h_min - 1, delta)


class TestGapFormEquivalence:
    def test_two_feasibility_forms_agree(self, bench_consts):
        rng = np.random.default_rng(34)
        for _ in range(100):
            c = with_omegas(
                bench_consts, rng.uniform(0.05, 2.0), rng.uniform(0.1, 30.0)
            )
            delta_big = rng.uniform(0.02, 0.5)
            delta = delta_big / rng.integers(1, 4)
            kappa = rng.uniform(0.0, 2.0)
            eta = rng.uniform(0.0, 5.0)
            rate = rng.uniform(0.05, 0.95)
            q = (kappa + eta * delta_big) / (1.0 - rate)
            threshold_form = [
                h * delta > c.omega2 / (c.omega1 + c.omega2) * (q + delta_big)
                for h in range(1, 201)
            ]
            gap_form = []
            for h in range(1, 201):
                try:
                    rhs = tolerable_dos_bound(c, h, delta, delta_big, kappa, eta)
                except HorizonTooShortError:
                    gap_form.append(False)
                    continue
                gap_form.append(rate < rhs)
            assert threshold_form == gap_form
