"""Small dense linear-algebra kernels.

Zero-order-hold discretization, Lyapunov solves and the norm helpers the
rest of the package is built on.  Everything is dense and sized for
low-order systems (state dimension of order ten to a few dozen); the
Lyapunov solve costs O(n^3) through one real Schur factorization, and there
are no sparse or large-scale code paths on purpose.

The Schur form serves twice: its diagonal gives the Hurwitz verdict
(``_hurwitz_schur``) and its factors the Bartels-Stewart solve
(``_solve_in_schur``).  ``solve_lyapunov`` takes the form and solves at
once; a design (``bounds.DesignInputs``) takes it at construction, for the
verdict, and keeps it for the solve, so each design factors Phi once.

Each factorization is one call of the LAPACK routine under the numpy or
scipy function it stands for, sized by the same workspace query, so its
result is that function's bit for bit: ``_schur`` calls dgees
(scipy.linalg.schur), ``_eigvalsh`` dsyevd (np.linalg.eigvalsh) and
``_svdvals`` dgesdd (np.linalg.svd without vectors).  These kernels take a
finite float64 array as is; the public functions validate their input
first, and the package hands them only arrays it built or validated.
Eigenvalues of a general matrix stay with np.linalg.eigvals (see
require_hurwitz).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import (
    dgees, dgesdd, dgesdd_lwork, dsyevd, dsyevd_lwork, dtrsyl,
)

# Contract tolerances, read by the test suite.
HURWITZ_TOL = 1e-9  # eigenvalues must satisfy Re(lambda) < -HURWITZ_TOL
LYAPUNOV_RESIDUAL_RTOL = 1e-10
SYMMETRY_ATOL = 1e-12

_EPS = float(np.finfo(float).eps)


class StabilityCertificationError(ValueError):
    """A matrix required to be Hurwitz has an eigenvalue too far right.

    The offending eigenvalue is available as ``eigenvalue``.
    """

    def __init__(self, eigenvalue: complex):
        self.eigenvalue = eigenvalue
        super().__init__(
            "matrix is not Hurwitz: eigenvalue "
            f"{eigenvalue:.6g} has real part >= {-HURWITZ_TOL:g}"
        )


class LyapunovSolveError(ArithmeticError):
    """A Lyapunov solve came out non-finite, inaccurate or not positive definite.

    Raised for a Hurwitz Phi that is too badly conditioned (say, strongly
    non-normal) for a solution to be certified in floating point.
    """


class LyapunovSolution(NamedTuple):
    """What solve_lyapunov returns: P and the two spectra its checks took."""

    P: np.ndarray
    P_eigs: np.ndarray  # eigvalsh(P), ascending
    M_eigs: np.ndarray  # eigvalsh of the symmetrized M, ascending


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate ``a`` as a finite 2-D float array and return it.

    Scalars are promoted to 1x1; 1-D input is rejected because its
    orientation (row gain vs. column input map) would be ambiguous.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got {arr.ndim}-D input")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    return arr


def frozen_matrix(a, name: str = "matrix") -> np.ndarray:
    """``as_matrix(a)`` as a read-only copy that later writes cannot reach."""
    arr = np.array(as_matrix(a, name))
    arr.setflags(write=False)
    return arr


def _as_square(a, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def require_hurwitz(a, name: str = "matrix") -> np.ndarray:
    """Return ``a`` if every eigenvalue satisfies Re < -HURWITZ_TOL.

    Raises StabilityCertificationError naming the worst eigenvalue otherwise.
    """
    arr = _as_square(a, name)
    # np.linalg.eigvals, not scipy's eigenvalue-only dgeev: on random
    # matrices scaled to 1e-159..1e-300, scipy 1.17.1's dgeev (and
    # scipy.linalg.eigvals with it) put the eigenvalues off by a factor of
    # 1e19 and more, and at 1e150..1e300 lost every digit; numpy's were right
    eigs = np.linalg.eigvals(arr)
    worst = eigs[np.argmax(eigs.real)]
    if worst.real >= -HURWITZ_TOL:
        raise StabilityCertificationError(worst)
    return arr


def _as_symmetric(a, name: str = "matrix") -> np.ndarray:
    arr = _as_square(a, name)
    scale = max(1.0, float(np.max(np.abs(arr))))
    asym = float(np.max(np.abs(arr - arr.T)))
    if asym > SYMMETRY_ATOL * scale:
        raise ValueError(
            f"{name} is not symmetric (max asymmetry {asym:.3g} exceeds "
            f"{SYMMETRY_ATOL:g} at scale {scale:.3g})"
        )
    return 0.5 * (arr + arr.T)


def zoh_discretize(a, b, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization of dx/dt = A x + B u.

    Returns (A_d, B_d) with A_d = e^(A delta) and B_d the integral of
    e^(A tau) B over one step.  Both come out of a single exponential of the
    augmented block matrix [[A, B], [0, 0]], so they are mutually consistent
    to machine precision.
    """
    a_arr = _as_square(a, "A")
    b_arr = as_matrix(b, "B")
    n = a_arr.shape[0]
    m = b_arr.shape[1]
    if b_arr.shape[0] != n:
        raise ValueError(
            f"B must have {n} rows to match A, got shape {b_arr.shape}"
        )
    delta = float(delta)
    if not np.isfinite(delta) or delta <= 0.0:
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = a_arr
    aug[:n, n:] = b_arr
    big = scipy.linalg.expm(aug * delta)
    return big[:n, :n], big[:n, n:]


def _no_sort(re, im):
    """dgees's eigenvalue selector; never called, as nothing is sorted."""


def _schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real Schur form (T, U) of a finite square a: scipy.linalg.schur's
    dgees call, after its workspace query."""
    lwork = int(dgees(_no_sort, a, lwork=-1)[-2][0])
    t, _, _, _, u, _, info = dgees(_no_sort, a, lwork=lwork)
    if info:
        raise LinAlgError("Schur form not found. Possibly ill-conditioned.")
    return t, u


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a finite symmetric a, read from its lower
    triangle: np.linalg.eigvalsh's dsyevd call and workspace."""
    lwork, liwork, _ = dsyevd_lwork(a.shape[0], compute_v=0, lower=1)
    w, _, info = dsyevd(a, compute_v=0, lower=1, lwork=int(lwork), liwork=liwork)
    if info:
        raise LinAlgError("Eigenvalues did not converge")
    return w


def _svdvals(a: np.ndarray) -> np.ndarray:
    """Descending singular values of a finite 2-D a: np.linalg.svd's dgesdd
    call and workspace, without vectors."""
    lwork = int(dgesdd_lwork(*a.shape, compute_uv=0)[0])
    _, s, _, info = dgesdd(a, compute_uv=0, lwork=lwork)
    if info:
        raise LinAlgError("SVD did not converge")
    return s


def _hurwitz_schur(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real Schur form (T, U) of a finite square Phi, if Phi is Hurwitz.

    The diagonal of the standardized T holds the real part of every
    eigenvalue (each 2x2 block repeats its pair's), and Phi passes when
    all of them are below -HURWITZ_TOL.  Only a Phi that fails it, a T
    that is not finite included, goes on to require_hurwitz, whose verdict
    then stands and whose StabilityCertificationError names the worst
    eigenvalue.  So a Phi is refused only when both estimates of its
    spectrum put an eigenvalue at or right of -HURWITZ_TOL.
    """
    t, u = _schur(phi)
    if not np.max(np.diag(t)) < -HURWITZ_TOL:
        require_hurwitz(phi, "Phi")
    return t, u


def solve_lyapunov(phi, m) -> LyapunovSolution:
    """Solve Phi' P + P Phi + M = 0 for symmetric positive-definite P.

    Phi must be Hurwitz and M symmetric positive definite.  Bartels-Stewart:
    one real Schur form Phi = U T U' turns the equation into
    T' Y + Y T = U' R U with P = U Y U', which LAPACK trsyl solves by
    back substitution over T's diagonal blocks, in O(n^3) overall.  The
    Hurwitz check reads the same form (_hurwitz_schur).  The same
    factorization serves two rounds of iterative refinement on the
    residual, which recover the digits the plain solve loses on badly
    conditioned pencils.  The symmetrized P is verified against
    LYAPUNOV_RESIDUAL_RTOL and for positive definiteness before returning;
    LyapunovSolveError is raised if either check fails or P is not finite.

    The residual check asks whether the spectral norm of R, as computed by
    an SVD, is at most tol = LYAPUNOV_RESIDUAL_RTOL ||M||.  Since
    ||R||_2 <= ||R||_F, it passes without the SVD when the Frobenius norm,
    taken on R scaled by its largest entry so that no square underflows,
    satisfies ||R||_F (1 + 4 (n^2 + 2) eps) <= tol.  The margin covers the
    round-off of that norm, at most (n^2 + 6) eps/2 relative, and an SVD
    backward error of up to n eps ||R||, with a factor of two to spare.
    Every other residual, one whose norm overflows included, is checked by
    the SVD as before, so the verdict and the message are unchanged.

    Returns a LyapunovSolution: P (read-write, exactly symmetric), and the
    ascending eigvalsh spectra of P and of the symmetrized M that the
    checks computed, for callers that need the extreme eigenvalues.
    """
    phi_arr = _as_square(phi, "Phi")
    return _solve_in_schur(phi_arr, *_hurwitz_schur(phi_arr), m)


def _solve_in_schur(phi_arr, t, u, m) -> LyapunovSolution:
    """solve_lyapunov for a Phi whose Schur form (T, U) passed _hurwitz_schur."""
    m_arr = _as_symmetric(m, "M")
    if m_arr.shape != phi_arr.shape:
        raise ValueError(
            f"M shape {m_arr.shape} does not match Phi shape {phi_arr.shape}"
        )
    m_eigs = _eigvalsh(m_arr)
    if m_eigs[0] <= 0.0:
        raise ValueError("M must be positive definite")

    def solve(r):
        # P = U Y U' with T' Y + Y T = U' R U; trsyl returns scale * Y
        y, scale, _ = dtrsyl(t, t, u.T @ r @ u, trana="T")
        return u @ (y / scale) @ u.T

    # overflow on a badly conditioned Phi shows up as non-finite P below
    with np.errstate(all="ignore"):
        p = solve(-m_arr)
        for _ in range(2):
            p = p + solve(-m_arr - (phi_arr.T @ p + p @ phi_arr))
        p = 0.5 * (p + p.T)
        resid = phi_arr.T @ p + p @ phi_arr + m_arr
    if not (np.isfinite(p).all() and np.isfinite(resid).all()):
        raise LyapunovSolveError("Lyapunov solution is not finite")
    # M is positive definite, so its 2-norm is its largest eigenvalue
    tol = LYAPUNOV_RESIDUAL_RTOL * m_eigs[-1]
    n = phi_arr.shape[0]
    peak = float(np.max(np.abs(resid)))
    frob = peak * float(np.linalg.norm(resid / peak)) if peak > 0.0 else 0.0
    if frob * (1.0 + 4.0 * (n * n + 2) * _EPS) > tol:
        residual = float(_svdvals(resid)[0])
        if residual > tol:
            raise LyapunovSolveError(
                f"Lyapunov solve residual {residual:.3g} exceeds tolerance"
            )
    p_eigs = _eigvalsh(p)
    if p_eigs[0] <= 0.0:
        raise LyapunovSolveError("Lyapunov solution is not positive definite")
    return LyapunovSolution(p, p_eigs, m_eigs)


def _log_norm(arr: np.ndarray) -> float:
    """Logarithmic norm (2-norm) of a finite square float64 arr, taken as is:
    the largest eigenvalue of (A + A')/2."""
    return float(_eigvalsh(0.5 * (arr + arr.T))[-1])


def spectral_norm(m) -> float:
    """Largest singular value (what norm(m, 2) computes, without its wrapper)."""
    return float(_svdvals(as_matrix(m, "M"))[0])
