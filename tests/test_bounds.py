import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

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
    linalg,
    tolerable_dos_bound,
)

from doscontrol.bounds import SIGMA_FRACTION_SIM, DesignConstants

from conftest import BENCH_A, BENCH_B, BENCH_K


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


def log_calls(monkeypatch, owner, name) -> list:
    """Route owner.name through a wrapper that logs a copy of each call's
    first argument."""
    calls, fn = [], getattr(owner, name)

    def logged(x, *args, **kwargs):
        calls.append(np.array(x))
        return fn(x, *args, **kwargs)

    monkeypatch.setattr(owner, name, logged)
    return calls


def count_lyapunov_solves(monkeypatch) -> list:
    """Log each Lyapunov solve: the solver that solve_lyapunov and
    DesignInputs share."""
    return log_calls(monkeypatch, linalg, "_solve_in_schur")


def assert_bitwise_equal(a, b):
    for field in dataclasses.fields(a):
        x, y = np.asarray(getattr(a, field.name)), np.asarray(getattr(b, field.name))
        assert x.tobytes() == y.tobytes(), field.name


class TestDesignConstantsOncePerDesign:
    M = np.array([[2.0, 0.3], [0.3, 1.0]])

    def test_one_solve_for_every_h(self, bench_plant, monkeypatch):
        calls = count_lyapunov_solves(monkeypatch)
        inputs = DesignInputs(plant=bench_plant, K=BENCH_K, M=self.M)
        chains = {h: derive_constants(inputs, h=h, delta=0.1) for h in (1, 5, 50)}
        assert len(calls) == 1
        for h, got in chains.items():
            fresh = DesignInputs(plant=bench_plant, K=BENCH_K, M=self.M)
            assert_bitwise_equal(got, derive_constants(fresh, h=h, delta=0.1))
        assert chains[1].rho1 < chains[5].rho1 < chains[50].rho1

    def test_sigma_fraction_is_per_design(self, bench_plant, monkeypatch):
        for frac in (0.25, 0.5, 0.75):
            c = derive_constants(
                DesignInputs(plant=bench_plant, K=BENCH_K, sigma_fraction=frac),
                h=5, delta=0.1,
            )
            assert c.sigma == frac * c.gamma1 / c.gamma2
        # nothing is kept from a design that raises: each call solves again
        calls = count_lyapunov_solves(monkeypatch)
        inputs = DesignInputs(plant=bench_plant, K=BENCH_K, sigma_fraction=1.0)
        for h in (1, 5, 50):
            with pytest.raises(SigmaInfeasibleError):
                derive_constants(inputs, h=h, delta=0.1)
        assert len(calls) == 3

    def test_argument_checks_come_first(self, bench_plant, monkeypatch):
        calls = count_lyapunov_solves(monkeypatch)
        inputs = DesignInputs(plant=bench_plant, K=BENCH_K, sigma_fraction=1.0)
        with pytest.raises(ValueError, match="h must be"):
            derive_constants(inputs, h=0, delta=0.0)
        with pytest.raises(ValueError, match="delta must be"):
            derive_constants(inputs, h=1, delta=0.0)
        assert calls == []


class TestOneSchurFormPerDesign:
    def test_a_hurwitz_design_takes_no_eigvals(self, bench_plant, monkeypatch):
        eigvals = log_calls(monkeypatch, np.linalg, "eigvals")
        schur = log_calls(monkeypatch, linalg, "_schur")
        inputs = DesignInputs(plant=bench_plant, K=BENCH_K)
        for h in (1, 5, 50):
            derive_constants(inputs, h=h, delta=0.1)
        assert eigvals == []
        assert len(schur) == 1 and np.array_equal(schur[0], inputs.Phi)

    def test_phi_is_kept_read_only(self, bench_inputs):
        assert bench_inputs.Phi is bench_inputs.Phi
        assert np.array_equal(bench_inputs.Phi, BENCH_A + BENCH_B @ BENCH_K)
        with pytest.raises(ValueError):
            bench_inputs.Phi[0, 0] = 1.0
        assert "Phi" not in {f.name for f in dataclasses.fields(bench_inputs)}


class TestOneFactorizationPerSpectrum:
    def test_certifying_a_design_takes_each_spectrum_once(self, monkeypatch):
        rng = np.random.default_rng(8)
        n, m = 8, 4
        a, b = rng.standard_normal((n, n)), rng.standard_normal((n, m))
        k = -b.T @ scipy.linalg.solve_continuous_are(a, b, np.eye(n), np.eye(m))
        assert np.linalg.eigvals(a).real.max() >= 0.0  # the PBH test has work
        calls = {name: log_calls(monkeypatch, np.linalg, name)
                 for name in ("eigvals", "matrix_rank")}
        # the LAPACK kernels under scipy.linalg.schur, eigvalsh and svd
        calls.update((name, log_calls(monkeypatch, linalg, "_" + name))
                     for name in ("eigvalsh", "svdvals"))
        schur = log_calls(monkeypatch, linalg, "_schur")
        solves = count_lyapunov_solves(monkeypatch)
        inputs = DesignInputs(plant=LtiPlant(A=a, B=b), K=k)
        for h in (1, 5, 50):
            derive_constants(inputs, h=h, delta=0.1)
        # the plant's spectrum is the only eigvals: Phi's Hurwitz verdict
        # and its Lyapunov solve share one Schur form
        assert len(calls["eigvals"]) == 1 and np.array_equal(calls["eigvals"][0], a)
        assert len(schur) == 1 and np.array_equal(schur[0], inputs.Phi)
        assert len(solves) == 1
        # every pencil clears the Cholesky screen: no SVD, no batched eigvalsh
        assert calls["matrix_rank"] == []
        # M, P and (A + A')/2 for mu_A, each once
        p = inputs.design_constants.P
        assert len(calls["eigvalsh"]) == 3
        for spectrum_of in (np.eye(n), p, 0.5 * (a + a.T)):
            assert sum(np.array_equal(x, spectrum_of) for x in calls["eigvalsh"]) == 1
        # ||2 P B K||, ||2 P|| and ||Phi||; the residual passes on its
        # Frobenius norm
        assert len(calls["svdvals"]) == 3


def outcome(build):
    """build()'s array as bytes, the eigenvalue its
    StabilityCertificationError names, or its LyapunovSolveError message."""
    try:
        return build().tobytes()
    except StabilityCertificationError as exc:
        return complex(exc.eigenvalue)
    except linalg.LyapunovSolveError as exc:
        return str(exc)


def design_with_phi(target):
    """(A, B, K) whose Phi = A + B K is target, exactly when target[0, 1]
    is 0 or 1 (B K = [[0, 1], [0, 0]])."""
    b, k = np.array([[1.0], [0.0]]), np.array([[0.0, 1.0]])
    return target - b @ k, b, k


class TestOneHurwitzRule:
    """DesignInputs and solve_lyapunov read Phi's verdict by one rule."""

    @pytest.mark.parametrize("scale", [0.999, 1.0, 1.001])
    @pytest.mark.parametrize("pair", [False, True])
    def test_same_verdict_at_the_tolerance(self, scale, pair):
        re = -linalg.HURWITZ_TOL * scale
        block = np.array([[re, 1.0], [-1.0, re]]) if pair else np.diag([-1.0, re])
        t = np.random.default_rng(5).standard_normal((2, 2)) + 2.0 * np.eye(2)
        for target in (block, t @ block @ np.linalg.inv(t)):
            a, b, k = design_with_phi(target)
            phi = a + b @ k
            design = outcome(
                lambda: DesignInputs(plant=LtiPlant(A=a, B=b), K=k).design_constants.P)
            solve = outcome(lambda: linalg.solve_lyapunov(phi, np.eye(2)).P)
            assert type(design) is type(solve) and design == solve
            if target is block:
                # exact coordinates: Schur and eigvals both read re itself
                assert np.array_equal(phi, block)
                assert isinstance(design, complex) == (scale < 1.001)
                if scale < 1.001:
                    assert design == complex(re, 1.0 if pair else 0.0)

    def test_schur_accepts_what_eigvals_alone_refused(self):
        # at -HURWITZ_TOL exactly, in random coordinates, the two estimates
        # of the spectrum fall on either side of the tolerance for some
        # seeds; the Schur form's acceptance stands
        straddled = 0
        for seed in range(40):
            t = np.random.default_rng(seed).standard_normal((3, 3)) + 3.0 * np.eye(3)
            for block in (np.diag([-1.0, -linalg.HURWITZ_TOL, -2.0]),
                          np.array([[-linalg.HURWITZ_TOL, 1.0, 0.0],
                                    [-1.0, -linalg.HURWITZ_TOL, 0.0],
                                    [0.0, 0.0, -2.0]])):
                phi = t @ block @ np.linalg.inv(t)
                plant = LtiPlant(A=phi, B=np.ones((3, 1)))
                form = scipy.linalg.schur(phi, output="real")[0]
                try:
                    linalg.require_hurwitz(phi)
                except StabilityCertificationError:
                    if np.max(np.diag(form)) < -linalg.HURWITZ_TOL:
                        straddled += 1
                        DesignInputs(plant=plant, K=np.zeros((1, 3)))
                        solve = outcome(lambda: linalg.solve_lyapunov(phi, np.eye(3)).P)
                        assert not isinstance(solve, complex)
        assert straddled > 0


class TestBitIdenticalToTheEigvalsSequence:
    def test_lqr_designs(self):
        """Each design's constants equal, bit for bit, those of the sequence
        it replaced: require_hurwitz (eigvals), solve_lyapunov on a Schur
        form of its own, then the SVDs."""
        for seed in range(50):
            n = 2 + seed % 23
            m = max(1, n // 2)
            rng = np.random.default_rng([22, seed])
            a, b = rng.standard_normal((n, n)), rng.standard_normal((n, m))
            k = -b.T @ scipy.linalg.solve_continuous_are(a, b, np.eye(n), np.eye(m))
            got = DesignInputs(plant=LtiPlant(A=a, B=b), K=k).design_constants
            phi = linalg.require_hurwitz(a + b @ k, "A + B K")
            solution = linalg.solve_lyapunov(phi, np.eye(n))
            p = solution.P
            gamma1 = float(solution.M_eigs[0])
            gamma2 = linalg.spectral_norm(2.0 * p @ b @ k)
            sigma = SIGMA_FRACTION_SIM * gamma1 / gamma2
            expected = DesignConstants(
                P=p,
                alpha1=float(solution.P_eigs[0]),
                alpha2=float(solution.P_eigs[-1]),
                gamma1=gamma1,
                gamma2=gamma2,
                gamma3=linalg.spectral_norm(2.0 * p),
                sigma=sigma,
                gamma4=gamma1 - sigma * gamma2,
                mu_A=linalg.log_norm(a),
                norm_Phi=linalg.spectral_norm(phi),
            )
            for name in DesignConstants._fields:
                assert np.array_equal(getattr(got, name), getattr(expected, name)), (
                    seed, n, name)


class TestImmutableInputs:
    def test_stored_matrices_are_read_only(self, bench_inputs):
        for arr in (bench_inputs.K, bench_inputs.M, bench_inputs.plant.A,
                    bench_inputs.plant.B, bench_inputs.design_constants.P):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_caller_writes_do_not_reach_the_design(self):
        a, b, k, m = BENCH_A.copy(), BENCH_B.copy(), BENCH_K.copy(), 2.0 * np.eye(2)
        inputs = DesignInputs(plant=LtiPlant(A=a, B=b), K=k, M=m)
        expected = derive_constants(
            DesignInputs(plant=LtiPlant(A=BENCH_A, B=BENCH_B), K=BENCH_K,
                         M=2.0 * np.eye(2)),
            h=5, delta=0.1,
        )
        for arr in (a, b, k, m):
            arr[0, 0] += 1.0
        assert_bitwise_equal(derive_constants(inputs, h=5, delta=0.1), expected)


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

    def test_infinite_gap_bound_is_refused(self, bench_consts):
        # Q = inf makes beta = -inf / inf = NaN, which bounds no envelope
        with pytest.raises(ValueError, match="beta = nan") as exc:
            decay_envelope(bench_consts, math.inf, 0.1, 50, 0.1)
        assert type(exc.value) is ValueError
        # a finite Q past the horizon is still a horizon that is too short
        with pytest.raises(HorizonTooShortError):
            decay_envelope(bench_consts, 1e307, 0.1, 50, 0.1)

    def test_overflowing_overshoot_is_refused(self, bench_consts):
        # (omega1 + omega2) Q = 17.5 * 45 > 709: lambda = e^788 overflows,
        # while h = 500 gives beta > 0
        q = 45.0
        assert (bench_consts.omega1 + bench_consts.omega2) * q > 709.8
        with pytest.raises(ValueError, match="lambda = inf") as exc:
            decay_envelope(bench_consts, q, 0.1, 500, 0.1)
        assert type(exc.value) is ValueError


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
