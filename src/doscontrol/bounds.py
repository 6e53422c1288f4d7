"""Stability constants and certified bounds for the two architectures.

Derives the full chain of constants that governs closed-loop behaviour under
DoS (Lyapunov solution, decay and growth rates, prediction-error gains),
the maximum controller sampling period, the minimal actuator-buffer length,
and the exponential decay envelope at successful-transmission times.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .plant import LtiPlant

# Working sigma as a fraction of its supremum gamma1/gamma2.  The strict
# margin gamma1 - sigma*gamma2 > 0 rules out the supremum itself, so the
# constants use a comfortable 1/2 (larger decay margin, smaller tolerable
# sampling period); the reported delta_max is evaluated at the supremum
# gamma1/gamma2 directly, where the sampling-period bound is largest.
SIGMA_FRACTION_SIM = 0.5


class SigmaInfeasibleError(ValueError):
    """sigma leaves no strict dissipation margin (gamma1 - sigma*gamma2 <= 0),
    or is undefined because gamma2 = ||2 P B K|| is 0 (K = 0 or B = 0)."""


class HorizonTooShortError(ValueError):
    """The prediction horizon h*delta is too short for the requested bound."""


class DesignConstants(NamedTuple):
    """The part of the constant chain that does not depend on h or delta."""

    P: np.ndarray  # read-only
    alpha1: float
    alpha2: float
    gamma1: float
    gamma2: float
    gamma3: float
    sigma: float
    gamma4: float
    mu_A: float
    norm_Phi: float


@dataclass(frozen=True)
class DesignInputs:
    """Plant, stabilizing gain and Lyapunov weight for constant derivation.

    K and M are stored as read-only copies, so the design-only constants,
    computed on first use, stay those of the stored matrices.

    Construction forms Phi = A + B K once (ValueError if it is not finite)
    and takes its real Schur form, which gives the Hurwitz verdict by the
    rule of linalg.solve_lyapunov: a Schur diagonal below -HURWITZ_TOL
    accepts Phi, and only a Phi that fails it goes to require_hurwitz,
    whose eigvals verdict stands (StabilityCertificationError naming the
    eigenvalue).  A Phi whose Schur diagonal is below -HURWITZ_TOL while
    its eigvals estimate is not is thus accepted; the eigvals check alone
    refused it.  Phi (read-only) and its Schur form are kept, and the
    Lyapunov solve of design_constants reuses the form.
    """

    plant: LtiPlant
    K: np.ndarray
    M: np.ndarray | None = None  # defaults to identity
    sigma_fraction: float = SIGMA_FRACTION_SIM

    def __post_init__(self):
        k = linalg.frozen_matrix(self.K, "K")
        if k.shape != (self.plant.m, self.plant.n):
            raise ValueError(
                f"K must be {self.plant.m}x{self.plant.n}, got {k.shape}"
            )
        m = self.M
        m = linalg.frozen_matrix(np.eye(self.plant.n) if m is None else m, "M")
        if not 0.0 < self.sigma_fraction <= 1.0:
            raise ValueError(
                f"sigma_fraction must be in (0, 1], got {self.sigma_fraction}"
            )
        phi = linalg.frozen_matrix(self.plant.A + self.plant.B @ k, "A + B K")
        schur = linalg._hurwitz_schur(phi)
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "M", m)
        object.__setattr__(self, "_phi", phi)
        object.__setattr__(self, "_schur", schur)

    @property
    def Phi(self) -> np.ndarray:
        return self._phi

    @functools.cached_property
    def design_constants(self) -> DesignConstants:
        """Lyapunov solution P and every constant that depends on it alone.

        Computed on first access, with one Lyapunov solve in the Schur form
        taken at construction, and kept.  Raises SigmaInfeasibleError (on
        every access, since nothing is kept then) if the sigma fraction
        erases the strict dissipation margin, or if gamma2 = ||2 P B K|| is
        0, which leaves sigma = sigma_fraction * gamma1 / gamma2 undefined.
        """
        phi = self._phi
        # the solve hands back the spectra of P and M its checks took
        solution = linalg._solve_in_schur(phi, *self._schur, self.M)
        p = solution.P
        p.setflags(write=False)
        alpha1, alpha2 = float(solution.P_eigs[0]), float(solution.P_eigs[-1])
        gamma1 = float(solution.M_eigs[0])
        # spectral_norm's check turns a 2 P B K or 2 P that overflows into
        # ValueError; Phi and the stored A are finite, so the kernels take them
        gamma2 = linalg.spectral_norm(2.0 * p @ self.plant.B @ self.K)
        gamma3 = linalg.spectral_norm(2.0 * p)
        if gamma2 == 0.0:
            raise SigmaInfeasibleError(
                "gamma2 = ||2 P B K|| = 0: sigma = sigma_fraction * gamma1 / "
                "gamma2 is undefined"
            )
        sigma = self.sigma_fraction * gamma1 / gamma2
        gamma4 = gamma1 - sigma * gamma2
        if gamma4 <= 0.0:
            raise SigmaInfeasibleError(
                f"sigma={sigma:.6g} gives gamma1 - sigma*gamma2 = {gamma4:.3g} <= 0"
            )
        return DesignConstants(
            P=p,
            alpha1=alpha1,
            alpha2=alpha2,
            gamma1=gamma1,
            gamma2=gamma2,
            gamma3=gamma3,
            sigma=sigma,
            gamma4=gamma4,
            mu_A=linalg._log_norm(self.plant.A),
            norm_Phi=float(linalg._svdvals(phi)[0]),
        )


@dataclass(frozen=True)
class DerivedConstants:
    """Full constant chain; field names match the CLI JSON record."""

    P: np.ndarray
    alpha1: float  # extreme eigenvalues of P
    alpha2: float
    gamma1: float  # smallest eigenvalue of M
    gamma2: float  # ||2 P B K||
    gamma3: float  # ||2 P||
    sigma: float
    gamma4: float  # gamma1 - sigma*gamma2
    gamma5: float  # gamma2*rho + gamma3
    gamma6: float  # gamma5^2 / (2*gamma4)
    gamma7: float  # (gamma3 + rho*gamma2)^2 / (2*gamma4)
    mu_A: float  # logarithmic norm of A
    norm_Phi: float
    kappa1: float  # max(||Phi||, 1)
    rho1: float
    rho2: float
    rho: float  # sigma + rho1*rho2*(1 + sigma)
    omega1: float  # decay rate while the buffer covers the gap
    omega2: float  # growth rate once the buffer is exhausted
    zeta1: float
    zeta2: float


@dataclass(frozen=True)
class EnvelopeConstants:
    """Exponential envelope on V at successful-transmission times."""

    beta: float  # decay exponent per second
    lam: float  # overshoot factor e^((omega1+omega2)*Q), >= 1
    L: float  # per-period contraction e^(-beta*Delta), < 1
    Q: float  # gap bound the envelope was built for
    h_delta: float  # prediction horizon h*delta in seconds


def derive_constants(
    inputs: DesignInputs, h: int, delta: float
) -> DerivedConstants:
    """Evaluate the whole constant chain for buffer length h and period delta.

    The design-only constants come from ``inputs.design_constants``, solved
    once per design; only the h- and delta-dependent scalars are computed
    here.  Raises SigmaInfeasibleError if the configured sigma fraction
    erases the strict dissipation margin, and linalg.LyapunovSolveError if
    P cannot be certified in floating point.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    design = inputs.design_constants
    mu_a, sigma = design.mu_A, design.sigma
    gamma2, gamma3, gamma4 = design.gamma2, design.gamma3, design.gamma4
    kappa1 = max(design.norm_Phi, 1.0)
    try:
        rho2 = max(math.exp(mu_a * delta), 1.0)
        if mu_a > 0.0:
            rho1 = (1.0 + 1.0 / mu_a) * math.exp(mu_a * (h - 1) * delta)
        else:
            # Closed form above degenerates at mu_A <= 0; the defining integral
            # of the prediction-error propagator is bounded by 1 + (h-1)*delta.
            rho1 = 1.0 + (h - 1) * delta
        rho = sigma + rho1 * rho2 * (1.0 + sigma)
        gamma5 = gamma2 * rho + gamma3
        gamma6 = gamma5**2 / (2.0 * gamma4)
        gamma7 = (gamma3 + rho * gamma2) ** 2 / (2.0 * gamma4)
    except OverflowError:
        gamma6 = gamma7 = math.inf
    if not (math.isfinite(gamma6) and math.isfinite(gamma7)):
        raise ValueError(
            f"h={h} with delta={delta:g} takes the constant chain past the "
            f"float range (mu_A (h-1) delta = {mu_a * (h - 1) * delta:.6g})"
        )
    omega1 = gamma4 / (2.0 * design.alpha2)
    omega2 = gamma2 * (2.0 + sigma) / design.alpha1
    return DerivedConstants(
        **design._asdict(),
        gamma5=gamma5,
        gamma6=gamma6,
        gamma7=gamma7,
        kappa1=kappa1,
        rho1=rho1,
        rho2=rho2,
        rho=rho,
        omega1=omega1,
        omega2=omega2,
        zeta1=gamma6 / omega1,
        zeta2=gamma7 / omega2,
    )


def max_sampling_period(mu_A: float, sigma: float, norm_Phi: float) -> float:
    """Largest controller sampling period delta the error bound tolerates.

    Keeps the intra-sample prediction error below sigma times the state
    norm; separate closed forms for exponentially growing (mu_A > 0) and
    non-expanding (mu_A <= 0) open-loop dynamics.
    """
    if sigma <= 0.0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    kappa1 = max(norm_Phi, 1.0)
    ratio = sigma / (1.0 + sigma)
    if mu_A > 0.0:
        return math.log(ratio * mu_A / kappa1 + 1.0) / mu_A
    return ratio / kappa1


def min_prediction_horizon(
    consts: DerivedConstants, Q: float, delta_big: float, delta: float
) -> int:
    """Smallest buffer length h whose horizon h*delta clears the threshold.

    Stability needs h*delta strictly greater than
    omega2/(omega1+omega2) * (Q + Delta); omega1 and omega2 do not depend on
    h, so a single threshold evaluation suffices.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    threshold = consts.omega2 / (consts.omega1 + consts.omega2) * (Q + delta_big)
    if not math.isfinite(threshold / delta):
        raise ValueError(f"Q={Q:.6g} puts the minimal buffer past the float range")
    return int(math.floor(threshold / delta)) + 1


def tolerable_dos_bound(
    consts: DerivedConstants,
    h: int,
    delta: float,
    delta_big: float,
    kappa: float,
    eta: float,
) -> float:
    """Right-hand side of the duty/frequency stability test for buffer h.

    The closed loop is certified stable when 1/T + Delta/tau_D stays
    strictly below the returned value; it approaches the ideal bound 1 from
    below as h grows and the deficit quantifies the cost of remote
    operation.
    """
    denom = (consts.omega1 + consts.omega2) * h * delta - consts.omega2 * delta_big
    if denom <= 0.0:
        raise HorizonTooShortError(
            f"h*delta = {h * delta:.6g} too short: denominator {denom:.3g} <= 0"
        )
    return 1.0 - consts.omega2 * (kappa + eta * delta_big) / denom


def decay_envelope(
    consts: DerivedConstants,
    Q: float,
    delta_big: float,
    h: int,
    delta: float,
) -> EnvelopeConstants:
    """Envelope constants (beta, lambda, L) for V at success times.

    Requires the horizon condition to hold (beta > 0), i.e. h at least the
    min_prediction_horizon output; raises HorizonTooShortError otherwise,
    and ValueError when beta or lambda is not finite (Q = inf gives
    beta = NaN, and lambda overflows once (omega1 + omega2) Q > ~709).
    """
    h_delta = h * delta
    beta = (
        consts.omega1 * h_delta - consts.omega2 * (Q + delta_big - h_delta)
    ) / (Q + delta_big)
    if beta <= 0.0:
        raise HorizonTooShortError(
            f"h*delta = {h_delta:.6g} yields beta = {beta:.3g} <= 0; "
            "increase the buffer length"
        )
    try:
        lam = math.exp((consts.omega1 + consts.omega2) * Q)
    except OverflowError:
        lam = math.inf
    if not (math.isfinite(beta) and math.isfinite(lam)):  # NaN passes above
        raise ValueError(
            f"Q={Q:.6g} with h*delta = {h_delta:.6g} yields beta = {beta:.3g} "
            f"and lambda = {lam:.3g}: the envelope is past the float range"
        )
    return EnvelopeConstants(
        beta=beta,
        lam=lam,
        L=math.exp(-beta * delta_big),
        Q=Q,
        h_delta=h_delta,
    )


CONSTANT_FORMULAS = {
    "alpha1": "min eig(P)",
    "alpha2": "max eig(P)",
    "gamma1": "min eig(M)",
    "gamma2": "||2 P B K||",
    "gamma3": "||2 P||",
    "sigma": "sigma_fraction * gamma1 / gamma2",
    "gamma4": "gamma1 - sigma*gamma2",
    "gamma5": "gamma2*rho + gamma3",
    "gamma6": "gamma5^2 / (2*gamma4)",
    "gamma7": "(gamma3 + rho*gamma2)^2 / (2*gamma4)",
    "mu_A": "max eig((A + A')/2)",
    "norm_Phi": "||A + B K||",
    "kappa1": "max(||Phi||, 1)",
    "rho1": "(1 + 1/mu_A) e^(mu_A (h-1) delta)  [mu_A>0]; 1 + (h-1) delta otherwise",
    "rho2": "max(e^(mu_A delta), 1)",
    "rho": "sigma + rho1*rho2*(1 + sigma)",
    "omega1": "gamma4 / (2 alpha2)",
    "omega2": "gamma2 (2 + sigma) / alpha1",
    "zeta1": "gamma6 / omega1",
    "zeta2": "gamma7 / omega2",
    "Q": "(kappa + eta mu Delta) / (1 - 1/T - mu Delta/tau_D)",
    "beta": "(omega1 h delta - omega2 (Q + Delta - h delta)) / (Q + Delta)",
    "lambda": "e^((omega1 + omega2) Q)",
    "L": "e^(-beta Delta)",
    "delta_max": "log(sigma/(1+sigma) mu_A/kappa1 + 1)/mu_A  [mu_A>0]; "
    "sigma/((1+sigma) kappa1) otherwise",
    "h_min": "min h with h delta > omega2 (Q + Delta) / (omega1 + omega2)",
    "gap_rhs": "1 - omega2 (kappa + eta Delta) / ((omega1+omega2) h delta - omega2 Delta)",
}
