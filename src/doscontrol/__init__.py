"""Control loops over jammed networks: simulation and numeric certification.

Two architectures are covered.  In the co-located one the control unit sits
at the actuator and a model-based predictor bridges sensor dropouts; in the
remote one the controller ships packets of predicted inputs that an actuator
buffer replays during outages.  The package derives the constants that
certify stability for either loop, bounds the tolerable attack duty cycle,
and simulates both against explicit denial-of-service signals.
"""

from .bounds import (
    CONSTANT_FORMULAS,
    Certificate,
    DerivedConstants,
    DesignInputs,
    EnvelopeConstants,
    HorizonTooShortError,
    SIGMA_FRACTION_SIM,
    SigmaInfeasibleError,
    certify,
    decay_envelope,
    derive_constants,
    max_sampling_period,
    min_prediction_horizon,
    tolerable_dos_bound,
)
from .dos import (
    DoSClassParams,
    DoSSignal,
    GapBoundVerdict,
    GeneratorSpec,
    InfeasibleDoSClassError,
    check_gap_bound,
    dos_measure,
    fit_class_params,
    generate,
    signal_from_dict,
    signal_to_dict,
    success_gap_bound,
    transitions_count,
)
from .linalg import (
    StabilityCertificationError,
    solve_lyapunov,
    spectral_norm,
    zoh_discretize,
)
from .plant import LtiPlant
from .simulation import (
    DelayExceedsHorizonError,
    NoiseSpec,
    SimConfig,
    SimMetrics,
    SimTrace,
    check_envelope,
    compute_metrics,
    metrics_to_dict,
    simulate,
    trace_to_csv,
)

__version__ = "0.1.0"
