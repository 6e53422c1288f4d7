import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from doscontrol import linalg
from doscontrol.linalg import (
    _log_norm,
    LyapunovSolveError,
    StabilityCertificationError,
    solve_lyapunov,
    spectral_norm,
    zoh_discretize,
)

from conftest import BENCH_A, BENCH_B, BENCH_K


def expm(a, t):
    """e^(A t) for t > 0, the A_d block of the held-input discretization."""
    return zoh_discretize(a, np.zeros((len(a), 1)), t)[0]


def random_square(rng, n_max=5):
    n = rng.integers(1, n_max + 1)
    return rng.standard_normal((n, n))


def random_hurwitz(rng, n_max=5):
    a = random_square(rng, n_max)
    shift = max(np.linalg.eigvals(a).real.max(), 0.0) + rng.uniform(0.2, 1.0)
    return a - shift * np.eye(a.shape[0])


def random_spd(rng, n):
    r = rng.standard_normal((n, n))
    return r @ r.T + 0.1 * np.eye(n)


def solve_lyapunov_kron(phi, m) -> np.ndarray:
    """The Kronecker-sum solve with refinement, the oracle for solve_lyapunov.

    Vectorizes Phi' P + P Phi + M = 0 into an n^2 x n^2 linear system, LU
    factors it once and refines twice; the guards are those of
    solve_lyapunov.
    """
    phi_arr = linalg.require_hurwitz(phi, "Phi")
    m_arr = linalg._as_symmetric(m, "M")
    if m_arr.shape != phi_arr.shape:
        raise ValueError(
            f"M shape {m_arr.shape} does not match Phi shape {phi_arr.shape}"
        )
    if np.linalg.eigvalsh(m_arr)[0] <= 0.0:
        raise ValueError("M must be positive definite")
    n = phi_arr.shape[0]
    eye = np.eye(n)
    kron = np.kron(eye, phi_arr.T) + np.kron(phi_arr.T, eye)
    lu, piv = scipy.linalg.lu_factor(kron)
    vec = scipy.linalg.lu_solve((lu, piv), -m_arr.reshape(-1))
    # two rounds of iterative refinement recover the digits the plain solve
    # loses on badly conditioned pencils
    for _ in range(2):
        resid_vec = -m_arr.reshape(-1) - kron @ vec
        vec = vec + scipy.linalg.lu_solve((lu, piv), resid_vec)
    p = vec.reshape(n, n)
    p = 0.5 * (p + p.T)
    residual = spectral_norm(phi_arr.T @ p + p @ phi_arr + m_arr)
    if residual > linalg.LYAPUNOV_RESIDUAL_RTOL * spectral_norm(m_arr):
        raise ArithmeticError(
            f"Lyapunov solve residual {residual:.3g} exceeds tolerance"
        )
    if np.linalg.eigvalsh(p)[0] <= 0.0:
        raise ArithmeticError("Lyapunov solution is not positive definite")
    return p


def simpson_zoh_input(a, b, delta, panels=200):
    """Independent quadrature of the held-input integral (composite Simpson)."""
    h = delta / (2 * panels)
    total = np.zeros_like(b)
    for k in range(panels):
        t0 = 2 * k * h
        f0 = scipy.linalg.expm(a * t0) @ b
        f1 = scipy.linalg.expm(a * (t0 + h)) @ b
        f2 = scipy.linalg.expm(a * (t0 + 2 * h)) @ b
        total += (h / 3.0) * (f0 + 4.0 * f1 + f2)
    return total


class TestExpm:
    """e^(A t) as the A_d block of zoh_discretize."""

    def test_zero_matrix_gives_identity(self):
        assert np.allclose(expm(np.zeros((2, 2)), 5.0), np.eye(2), atol=1e-12)

    def test_diagonal_closed_form(self):
        got = expm(np.diag([1.0, -2.0]), 1.0)
        assert np.allclose(got, np.diag([math.e, math.exp(-2.0)]), rtol=1e-12)

    def test_jordan_block_closed_form(self):
        # e^(At) = e^t [[1, t], [0, 1]] for this A
        t = 0.1
        expected = math.exp(t) * np.array([[1.0, t], [0.0, 1.0]])
        assert np.allclose(expm(BENCH_A, t), expected, rtol=1e-12)
        assert expected[0, 0] == pytest.approx(1.105171, abs=5e-7)
        assert expected[0, 1] == pytest.approx(0.110517, abs=5e-7)

    def test_semigroup_property(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = random_square(rng)
            s, t = rng.uniform(0.0, 1.0, size=2)
            lhs = expm(a, s) @ expm(a, t)
            assert spectral_norm(lhs - expm(a, s + t)) <= 1e-8

    def test_log_norm_contraction(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            a = random_square(rng)
            t = rng.uniform(0.0, 2.0)
            assert spectral_norm(expm(a, t)) <= math.exp(_log_norm(a) * t) * (
                1.0 + 1e-8
            )


class TestZohDiscretize:
    def test_pure_integrator(self):
        a_d, b_d = zoh_discretize(np.zeros((1, 1)), [[2.0]], 0.5)
        assert a_d[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert b_d[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_scalar_closed_form(self):
        a_d, b_d = zoh_discretize([[1.0]], [[1.0]], 0.1)
        assert a_d[0, 0] == pytest.approx(math.exp(0.1), rel=1e-12)
        assert b_d[0, 0] == pytest.approx(math.exp(0.1) - 1.0, rel=1e-12)

    def test_jordan_block_entrywise_integral(self):
        # Integrating e^(A tau) entrywise for the Jordan block:
        #   B_d = [[e^d - 1, (d-1) e^d + 1], [0, e^d - 1]]
        d = 0.1
        a_d, b_d = zoh_discretize(BENCH_A, np.eye(2), d)
        ed = math.exp(d)
        expected = np.array([[ed - 1.0, (d - 1.0) * ed + 1.0], [0.0, ed - 1.0]])
        assert np.allclose(b_d, expected, atol=1e-12)
        assert np.allclose(a_d, scipy.linalg.expm(BENCH_A * d), atol=1e-14)
        assert expected[0, 1] == pytest.approx(0.005346, abs=5e-7)

    def test_matches_simpson_quadrature(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = rng.integers(1, 5)
            m = rng.integers(1, 4)
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, m))
            delta = rng.uniform(0.05, 1.0)
            _, b_d = zoh_discretize(a, b, delta)
            assert np.max(np.abs(b_d - simpson_zoh_input(a, b, delta))) <= 1e-8

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            zoh_discretize(np.eye(2), np.ones((3, 1)), 0.1)
        with pytest.raises(ValueError):
            zoh_discretize(np.eye(2), np.ones((2, 1)), 0.0)


class TestSolveLyapunov:
    def test_scalar(self):
        p = solve_lyapunov([[-1.0]], [[2.0]]).P
        assert p[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_commuting_case(self):
        p = solve_lyapunov(-np.eye(2), 2.0 * np.eye(2)).P
        assert np.allclose(p, np.eye(2), atol=1e-12)

    def test_benchmark_spectrum(self):
        p = solve_lyapunov(BENCH_A + BENCH_B @ BENCH_K, np.eye(2)).P
        lo, hi = np.linalg.eigvalsh(p)[[0, -1]]
        assert lo == pytest.approx(0.2779, abs=1e-3)
        assert hi == pytest.approx(0.4497, abs=1e-3)

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(15)
        for n in range(1, 25):
            for _ in range(3):
                a = rng.standard_normal((n, n))
                shift = max(np.linalg.eigvals(a).real.max(), 0.0) + rng.uniform(0.2, 1.0)
                phi = a - shift * np.eye(n)
                m = random_spd(rng, n)
                p = solve_lyapunov(phi, m).P
                expected = solve_lyapunov_kron(phi, m)
                assert spectral_norm(p - expected) <= 1e-9 * spectral_norm(expected)

    def test_solution_near_the_float_range(self):
        # P ~ 1e292: trsyl returns the solution scaled down to avoid overflow
        phi = np.array([[-0.01, 0.002], [0.0, -0.02]])
        m = 1e290 * np.array([[2.0, 0.5], [0.5, 1.0]])
        p = solve_lyapunov(phi, m).P
        expected = solve_lyapunov_kron(phi, m)
        assert spectral_norm(p - expected) <= 1e-12 * spectral_norm(expected)

    def test_residual_and_rayleigh_invariants(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            phi = random_hurwitz(rng, n_max=24)
            n = phi.shape[0]
            m = random_spd(rng, n)
            p = solve_lyapunov(phi, m).P
            residual = spectral_norm(phi.T @ p + p @ phi + m)
            assert residual <= linalg.LYAPUNOV_RESIDUAL_RTOL * spectral_norm(m)
            assert np.allclose(p, p.T, atol=1e-14)
            lo, hi = np.linalg.eigvalsh(p)[[0, -1]]
            assert lo > 0.0
            for _ in range(100):
                x = rng.standard_normal(n)
                quad = x @ p @ x
                nx2 = x @ x
                assert lo * nx2 * (1 - 1e-9) <= quad <= hi * nx2 * (1 + 1e-9)

    def test_strongly_non_normal_is_a_solve_error(self):
        # Hurwitz (every eigenvalue -0.05), but off-diagonal gains of ~20
        # put P far past what double precision can certify
        rng = np.random.default_rng(16)
        phi = -0.05 * np.eye(10) + 20.0 * np.triu(rng.standard_normal((10, 10)), 1)
        with pytest.raises(LyapunovSolveError, match="residual"):
            solve_lyapunov(phi, np.eye(10))
        assert issubclass(LyapunovSolveError, ArithmeticError)

    def test_residual_verdict_is_the_svds_across_the_tolerance(self):
        # off-diagonal gains that take the residual across the tolerance:
        # every P the Frobenius pass accepts also passes the SVD check
        rng = np.random.default_rng(16)
        upper = np.triu(rng.standard_normal((10, 10)), 1)
        accepted = []
        for gain in np.geomspace(0.1, 0.4, 40):
            phi = -0.05 * np.eye(10) + gain * upper
            try:
                solution = solve_lyapunov(phi, np.eye(10))
            except LyapunovSolveError as exc:
                assert "residual" in str(exc)
                accepted.append(False)
                continue
            p = solution.P
            resid = phi.T @ p + p @ phi + np.eye(10)
            assert spectral_norm(resid) <= linalg.LYAPUNOV_RESIDUAL_RTOL
            accepted.append(True)
        assert accepted[0] and not accepted[-1]

    def test_returns_the_spectra_it_checked(self):
        rng = np.random.default_rng(19)
        phi = random_hurwitz(rng, n_max=8)
        m = random_spd(rng, phi.shape[0])
        solution = solve_lyapunov(phi, m)
        assert solution.P_eigs.tobytes() == np.linalg.eigvalsh(solution.P).tobytes()
        m_sym = 0.5 * (m + m.T)
        assert solution.M_eigs.tobytes() == np.linalg.eigvalsh(m_sym).tobytes()

    def test_solution_past_the_float_range_is_a_solve_error(self):
        # P = 1e300 / 4e-9 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LyapunovSolveError, match="not finite"):
                solve_lyapunov([[-2e-9]], [[1e300]])

    def test_residual_tolerance_scales_with_the_norm_of_m(self):
        # a residual at round-off of ||M|| = 1 is far above 1e-10 times the
        # smallest eigenvalue of M, 1e-9
        rng = np.random.default_rng(18)
        phi = random_hurwitz(rng, n_max=6)
        n = phi.shape[0]
        m = np.diag([1.0] + [1e-9] * (n - 1))
        p = solve_lyapunov(phi, m).P
        residual = spectral_norm(phi.T @ p + p @ phi + m)
        assert 1e-10 * 1e-9 < residual <= linalg.LYAPUNOV_RESIDUAL_RTOL

    def test_non_hurwitz_names_eigenvalue(self):
        with pytest.raises(StabilityCertificationError) as exc:
            solve_lyapunov(np.array([[0.5, 0.0], [0.0, -1.0]]), np.eye(2))
        assert exc.value.eigenvalue.real == pytest.approx(0.5)

    def test_non_hurwitz_pair_names_positive_member(self):
        # the pair 0.1 +- 2j, in random coordinates so that the Schur form
        # has to find it
        rng = np.random.default_rng(17)
        block = np.zeros((4, 4))
        block[:2, :2] = [[0.1, 2.0], [-2.0, 0.1]]
        block[2:, 2:] = [[-1.0, 0.3], [0.0, -2.0]]
        t = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        phi = t @ block @ np.linalg.inv(t)
        with pytest.raises(StabilityCertificationError) as exc:
            solve_lyapunov(phi, np.eye(4))
        assert exc.value.eigenvalue == pytest.approx(0.1 + 2.0j)
        assert "0.1+2j" in str(exc.value)

    @pytest.mark.parametrize("scale", [0.999, 1.0])
    def test_eigenvalue_just_right_of_the_tolerance(self, scale):
        re = -linalg.HURWITZ_TOL * scale
        for phi in (np.diag([-1.0, re]), np.array([[re, 1.0], [-1.0, re]])):
            with pytest.raises(StabilityCertificationError) as exc:
                solve_lyapunov(phi, np.eye(2))
            assert exc.value.eigenvalue.real == re

    def test_eigenvalue_just_left_of_the_tolerance(self):
        re = -linalg.HURWITZ_TOL * 1.001
        p = solve_lyapunov(np.diag([-1.0, re]), np.eye(2)).P
        assert p[1, 1] == pytest.approx(-0.5 / re, rel=1e-12)

    def test_rejects_indefinite_weight(self):
        with pytest.raises(ValueError):
            solve_lyapunov(-np.eye(2), np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            solve_lyapunov(-np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestNorms:
    def test_log_norm_symmetric_is_max_eig(self):
        s = np.array([[2.0, 1.0], [1.0, -3.0]])
        assert _log_norm(s) == pytest.approx(np.linalg.eigvalsh(s)[-1], rel=1e-12)

    def test_log_norm_skew_is_zero(self):
        assert _log_norm(np.array([[0.0, 1.0], [-1.0, 0.0]])) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_log_norm_benchmark(self):
        assert _log_norm(BENCH_A) == pytest.approx(1.5, abs=1e-12)

    def test_spectral_norm_cases(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-12)
        assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, rel=1e-12)
        assert spectral_norm(BENCH_A + BENCH_B @ BENCH_K) == pytest.approx(
            1.9021, abs=1e-3
        )


SCALES = [1e-300, 1e-200, 1e-159, 1e-100, 1.0, 1e100, 1e150, 1e200, 1e300]


def kernel_inputs(seed):
    """(square, symmetric, rectangular) random matrices: sizes on both sides
    of the blocked LAPACK paths (dsytrd past 32, dgebrd past 128)."""
    rng = np.random.default_rng(seed)
    for n in (1, 2, 5, 40):
        a = rng.standard_normal((n, n))
        yield a, a + a.T, rng.standard_normal((n + 3, max(1, n // 2)))
    yield np.eye(1), np.eye(1), rng.standard_normal((131, 130))


def spectrum(values) -> np.ndarray:
    """Eigenvalues ordered by real part, then |imaginary part|."""
    values = np.asarray(values, dtype=complex)
    return values[np.lexsort((np.abs(values.imag), values.real))]


class TestKernels:
    """The LAPACK kernels against the numpy and scipy functions they stand for."""

    @pytest.mark.parametrize("scale", SCALES)
    def test_bit_identical_to_the_wrappers(self, scale):
        for a, s, r in kernel_inputs(0):
            a, s, r = a * scale, s * scale, r * scale
            t, u = linalg._schur(a)
            t_ref, u_ref = scipy.linalg.schur(a, output="real")
            assert t.tobytes() == t_ref.tobytes() and u.tobytes() == u_ref.tobytes()
            assert linalg._eigvalsh(s).tobytes() == np.linalg.eigvalsh(s).tobytes()
            for x in (a, r):
                assert (linalg._svdvals(x).tobytes()
                        == np.linalg.svd(x, compute_uv=False).tobytes())

    @pytest.mark.parametrize("scale", SCALES)
    def test_spectra_scale_with_the_matrix(self, scale):
        """Every spectrum of a scaled matrix is the scaled spectrum, the
        eigenvalue require_hurwitz names included (scipy's dgeev, under
        scipy.linalg.eigvals, fails this at 1e-159 and below and at 1e150
        and above)."""
        rng = np.random.default_rng(1)
        for n in (2, 4, 7):
            a = rng.standard_normal((n, n)) + np.eye(n)  # an eigenvalue right of 0
            s = a + a.T
            eigs = np.linalg.eigvals(a) * scale
            tol = 1e-10 * scale * np.max(np.abs(eigs / scale))
            # the standardized Schur diagonal holds each eigenvalue's real part
            t, _ = linalg._schur(a * scale)
            np.testing.assert_allclose(np.sort(np.diag(t)), np.sort(eigs.real),
                                       rtol=0, atol=tol)
            np.testing.assert_allclose(linalg._eigvalsh(s * scale),
                                       np.linalg.eigvalsh(s) * scale,
                                       rtol=1e-10, atol=0)
            np.testing.assert_allclose(linalg._svdvals(a * scale),
                                       np.linalg.svd(a, compute_uv=False) * scale,
                                       rtol=1e-10, atol=0)
            with pytest.raises(StabilityCertificationError) as info:
                linalg.require_hurwitz(a * scale)
            worst = spectrum(eigs)[-1]
            named = complex(info.value.eigenvalue)
            assert abs(named.real - worst.real) <= tol
            assert abs(abs(named.imag) - abs(worst.imag)) <= tol
