"""Continuous-time LTI plant description."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import frozen_matrix

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


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

    A Gram screen spares most pencils the SVD.  The pencils P (n x k,
    k = n + m) are stacked and the spectra g_n <= ... <= g_1 of their
    computed Grams P P^H are taken by one batched ``eigvalsh``; a pencil
    is cleared when

        g_n > 16 n k eps g_1 + n k tiny

    (eps and tiny of float64).  This proves that matrix_rank returns n,
    i.e. that the singular values s_1 >= ... >= s_n it computes satisfy
    s_n > k eps s_1.  Let sigma_i be the exact singular values of P.
    Forming the Gram G = P P^H + F in any summation order gives
    ||F|| <= gamma_(k+2) ||P||_F^2 <= 1.01 n k eps sigma_1^2, plus at most
    a = 4 n k eps tiny from underflow (eigvalsh reads one triangle and
    the real part of the diagonal, which keeps the bound).  Take the
    backward errors of eigvalsh and of the SVD to be at most n eps ||G||
    and k eps ||P||.  Weyl's inequality then gives
    |g_i - sigma_i^2| <= d sigma_1^2 + a with d <= 2.1 n k eps, and the
    screen gives sigma_n^2 > (13.9 n k eps) sigma_1^2, while matrix_rank
    returns n once sigma_n > (2 k eps + k^2 eps^2) sigma_1, which needs
    only about 4 k^2 eps^2 sigma_1^2; the factor 16 leaves room for
    LAPACK constants several times the ones assumed.  Every pencil the
    screen does not clear, a Gram that is not finite included, goes to
    matrix_rank in LAPACK order, so the verdict and the eigenvalue a
    rejection names are those of the rank test on every pencil.
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
            pencils = np.empty((lams.size, n, k), dtype=lams.dtype)
            pencils[:, :, :n] = a - lams[:, None, None] * np.eye(n)
            pencils[:, :, n:] = b
            with np.errstate(all="ignore"):
                grams = pencils @ pencils.conj().swapaxes(1, 2)
                # a zero Gram is never cleared
                grams[~np.isfinite(grams).all(axis=(1, 2))] = 0.0
                g = np.linalg.eigvalsh(grams)
                cleared = g[:, 0] > 16.0 * n * k * _EPS * g[:, -1] + n * k * _TINY
            for lam, pencil in zip(lams[~cleared], pencils[~cleared]):
                if np.linalg.matrix_rank(pencil) < n:
                    raise ValueError(
                        f"(A, B) is not stabilizable: eigenvalue {lam:.6g} "
                        "fails the rank test"
                    )
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", b.shape[1])
