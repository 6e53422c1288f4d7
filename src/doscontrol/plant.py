"""Continuous-time LTI plant description."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, zpotrf

from .linalg import frozen_matrix

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# Cholesky factorization, by the dtype of A's spectrum (real or complex)
_POTRF = {np.dtype(np.float64): dpotrf, np.dtype(np.complex128): zpotrf}


@dataclass(frozen=True)
class LtiPlant:
    """Plant dx/dt = A x + B u + d with (A, B) stabilizable.

    Stabilizability is certified at construction with the PBH (Hautus)
    rank test, ``np.linalg.matrix_rank([A - lam I, B]) == n``, on every
    eigenvalue lam of A with nonnegative real part, once per conjugate
    pair: LAPACK lists the member with positive imaginary part first, and
    its conjugate's pencil has the same singular values, so only that
    member is tested (and named if it fails).  A and B are stored as
    read-only copies.

    A Cholesky screen spares most pencils the SVD.  For each pencil
    P = [A - lam I, B] (n x k, k = n + m) the Gram
    G = (A - lam I)(A - lam I)^H + B B^T is formed, with B B^T computed
    once for all pencils, and the pencil is cleared when the Cholesky
    factorization of G - c I succeeds, with

        c = 32 n k eps tr(G) + n k tiny

    (eps and tiny of float64).  Since tr(G) >= g_1, no spectrum is taken.
    Let g_1 >= ... >= g_n be the eigenvalues of the computed Gram (LAPACK
    reads one triangle and the real part of the diagonal, so it is
    Hermitian), t its trace and s_1 >= ... >= s_n the exact singular
    values of P.  Success proves that matrix_rank returns n:

    1. Every shifted diagonal entry was positive, so t > n c: t exceeds
       n^2 k tiny, and any absolute underflow error of order eps tiny per
       operation below is a small fraction of eps t.  By Higham (Accuracy
       and Stability of Numerical Algorithms, 2nd ed., Thm 10.3), the
       computed factor R satisfies R^H R = G - c I + D + E, where D is the
       rounding of the shift, ||D|| <= eps t, and |E| <= y |R^H| |R| with
       y = 4 (n + 1) eps allowing for complex arithmetic.  The diagonal of
       |R^H| |R| holds the squared column norms of R, so
       ||E|| <= y ||R||_F^2 <= 1.01 y t.  R^H R is positive definite,
       hence g_n > c - eps t - 1.01 y t >= (32 n k - 4.1 n - 15) eps t
       + n k tiny.
    2. With t >= g_1 and k >= 2 this gives
       g_n > 16 n k eps g_1 + n k tiny, with 2 n eps g_1 to spare (room
       for an eigensolver's backward error n eps g_1 on either side).
    3. That bound gives matrix_rank == n.  Forming G in any summation
       order, the split sum above (the n terms of each entry of
       (A - lam I)(A - lam I)^H, then the m of B B^T) among them, costs
       ||G - P P^H|| <= f = 1.5 n (k + 2) eps s_1^2 + a, with
       a = 4 n k eps tiny from underflow.  Weyl's inequality gives
       s_n^2 >= g_n - f and g_1 >= s_1^2 - f, so s_n^2 > 13 n k eps s_1^2,
       while matrix_rank (taking the backward error of its SVD to be at
       most k eps ||P||) returns n once s_n > (2 k eps + k^2 eps^2) s_1,
       which needs only about 4 k^2 eps^2 s_1^2.

    Every pencil the screen does not clear, one whose factorization fails
    or whose shifted Gram is not finite, goes to matrix_rank in LAPACK
    order, so the verdict and the eigenvalue a rejection names are those
    of the rank test on every pencil.
    """

    A: np.ndarray
    B: np.ndarray
    n: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self):
        a = frozen_matrix(self.A, "A")
        b = frozen_matrix(self.B, "B")
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got shape {a.shape}")
        if b.shape[0] != a.shape[0]:
            raise ValueError(
                f"B must have {a.shape[0]} rows to match A, got {b.shape}"
            )
        n = a.shape[0]
        k = n + b.shape[1]
        lams = np.linalg.eigvals(a)
        lams = lams[~((lams.real < 0.0) | (lams.imag < 0.0))]
        if lams.size:
            diag = np.arange(n)
            shifted = np.empty((lams.size, n, n), dtype=lams.dtype)
            shifted[:] = a
            shifted[:, diag, diag] -= lams[:, None]
            with np.errstate(all="ignore"):
                grams = shifted @ shifted.conj().swapaxes(1, 2)
                grams += b @ b.T
                shift = 32.0 * n * k * _EPS * np.trace(grams, axis1=1, axis2=2).real
                grams[:, diag, diag] -= shift[:, None] + n * k * _TINY
            finite = np.isfinite(grams).all(axis=(1, 2))
            potrf = _POTRF[grams.dtype]
            for lam, block, gram, ok in zip(lams, shifted, grams, finite):
                if ok and potrf(gram, lower=True)[1] == 0:
                    continue
                if np.linalg.matrix_rank(np.concatenate((block, b), axis=1)) < n:
                    raise ValueError(
                        f"(A, B) is not stabilizable: eigenvalue {lam:.6g} "
                        "fails the rank test"
                    )
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", b.shape[1])
