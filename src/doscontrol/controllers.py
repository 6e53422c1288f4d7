"""The two control laws as state machines: the reference for ``simulate``.

Co-located: a one-step-ahead state predictor sits next to the actuator and
substitutes for the measurement whenever the networked sensor channel is
jammed.  Remote: on every successful transmission the controller ships a
packet of h predicted inputs; the actuator buffers them, replays one per
sampling period, and holds the last one once the buffer runs dry.

``simulation.simulate`` runs both as one law and calls none of these
functions.  They are kept as the tests' reference for that law and because
the benchmark tracer (``perfbench/tracer.py``) rebinds them by name; they
go once a benchmark change drops them from its ``TRACED`` table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .simulation import DelayExceedsHorizonError


@dataclass(frozen=True)
class PredictorState:
    """Rolling state of the co-located predictor (starts at the origin)."""

    xi: np.ndarray

    @classmethod
    def initial(cls, n: int) -> "PredictorState":
        return cls(xi=np.zeros(n))


@dataclass(frozen=True)
class ControlPacket:
    """h precomputed inputs plus the state predictions they came from.

    controls[p] applies on [built_at + p*delta, built_at + (p+1)*delta[.
    The predictions are not transmitted by the architecture; they are kept
    so the exactness of the rollout can be audited.  The first ``skip``
    entries count as consumed by computation delay: the packet reaches the
    actuator only at built_at + skip*delta.
    """

    built_at: float
    controls: np.ndarray  # (h, m)
    predictions: np.ndarray  # (h, n)
    skip: int = 0

    @property
    def h(self) -> int:
        return self.controls.shape[0]


@dataclass(frozen=True)
class ActuatorBuffer:
    """Replay state at the actuator; outputs zero until the first packet."""

    sampling: float  # delta
    n_inputs: int
    packet: ControlPacket | None = None
    armed_since: float | None = None


def colocated_step(
    state: PredictorState,
    K: np.ndarray,
    A_delta: np.ndarray,
    B_delta: np.ndarray,
    measurement: np.ndarray | None,
) -> tuple[PredictorState, np.ndarray]:
    """One sampling period of the co-located law.

    Uses the fresh measurement when one arrived this period, the prediction
    otherwise; returns the advanced predictor state and the input to hold
    until the next period.
    """
    alpha = state.xi if measurement is None else np.asarray(measurement, float)
    if alpha.shape != (A_delta.shape[0],):
        raise ValueError(
            f"state vector must have shape ({A_delta.shape[0]},), got {alpha.shape}"
        )
    u = K @ alpha
    xi_next = A_delta @ alpha + B_delta @ u
    return PredictorState(xi=xi_next), u


def build_packet(
    y_zm: np.ndarray,
    K: np.ndarray,
    A_delta: np.ndarray,
    B_delta: np.ndarray,
    h: int,
    skip: int = 0,
    built_at: float = 0.0,
) -> ControlPacket:
    """Roll the sampled model h steps ahead from a received measurement.

    Each stored input is the feedback gain applied to the corresponding
    predicted state, and predictions advance through the exact discretized
    model, so with no disturbance the rollout reproduces the true plant
    state sample for sample.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if skip < 0:
        raise ValueError(f"skip must be >= 0, got {skip}")
    if skip >= h:
        raise DelayExceedsHorizonError(
            f"computation delay consumes {skip} of {h} packet entries"
        )
    n = A_delta.shape[0]
    m = K.shape[0]
    alpha = np.asarray(y_zm, dtype=float)
    if alpha.shape != (n,):
        raise ValueError(f"measurement must have shape ({n},), got {alpha.shape}")
    controls = np.empty((h, m))
    predictions = np.empty((h, n))
    for p in range(h):
        predictions[p] = alpha
        controls[p] = K @ alpha
        if p < h - 1:
            alpha = A_delta @ alpha + B_delta @ controls[p]
    return ControlPacket(
        built_at=built_at, controls=controls, predictions=predictions, skip=skip
    )


def deliver_packet(
    buffer: ActuatorBuffer, packet: ControlPacket, z_m: float
) -> ActuatorBuffer:
    """Replace the buffer contents with a newly received packet.

    Replacement is unconditional (receding-horizon policy): whatever was
    left of the previous packet is discarded, even on ties.  z_m is the
    measurement time the packet was built from; the call happens at the
    delivery instant z_m + skip*delta.
    """
    if buffer.armed_since is not None and z_m < buffer.armed_since:
        raise ValueError(
            f"packet time {z_m} precedes armed buffer time {buffer.armed_since}"
        )
    return replace(buffer, packet=packet, armed_since=z_m)


def playback_index(buffer: ActuatorBuffer, t: float) -> int:
    """Unclamped index of the buffer slot covering time t."""
    if buffer.armed_since is None:
        raise ValueError("buffer holds no packet")
    if t < buffer.armed_since:
        raise ValueError(f"t={t} precedes buffer arming time {buffer.armed_since}")
    return int(math.floor((t - buffer.armed_since) / buffer.sampling + 1e-9))


def buffer_output(buffer: ActuatorBuffer, t: float) -> np.ndarray:
    """Input applied at time t: zero before any packet, last entry held after."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if buffer.packet is None:
        return np.zeros(buffer.n_inputs)
    p = min(playback_index(buffer, t), buffer.packet.h - 1)
    return buffer.packet.controls[p]


def buffer_depth(buffer: ActuatorBuffer, t: float) -> int:
    """Number of stored entries not yet consumed at time t (current included)."""
    if buffer.packet is None:
        return 0
    return max(buffer.packet.h - playback_index(buffer, t), 0)


def buffer_prediction(buffer: ActuatorBuffer, t: float) -> np.ndarray | None:
    """Predicted state backing the input applied at time t, if any."""
    if buffer.packet is None:
        return None
    p = min(playback_index(buffer, t), buffer.packet.h - 1)
    return buffer.packet.predictions[p]
