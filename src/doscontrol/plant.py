"""Continuous-time LTI plant description."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import frozen_matrix


@dataclass(frozen=True)
class LtiPlant:
    """Plant dx/dt = A x + B u + d with (A, B) stabilizable.

    Stabilizability is certified at construction with the PBH rank test on
    every eigenvalue of A with nonnegative real part, once per conjugate
    pair: LAPACK lists the member with positive imaginary part first, and
    its conjugate's pencil has the same singular values, so only that
    member is tested (and named if it fails).  A and B are stored as
    read-only copies.
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
        eye = np.eye(n)
        for lam in np.linalg.eigvals(a):
            if lam.real < 0.0 or lam.imag < 0.0:
                continue
            pencil = np.hstack([a - lam * eye, b])
            if np.linalg.matrix_rank(pencil) < n:
                raise ValueError(
                    f"(A, B) is not stabilizable: eigenvalue {lam:.6g} fails "
                    "the rank test"
                )
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", b.shape[1])
