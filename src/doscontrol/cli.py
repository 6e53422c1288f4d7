"""Command-line front end.

One experiment is one JSON config document; flags only carry file paths and
a few overrides.  Exit codes are part of the contract: 0 success (and, for
``sim``, a stable verdict), 1 usage/config/I-O problems, 2 infeasible
design or DoS class, 3 unstable verdict.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import math
import os
import sys

import numpy as np

from . import benchmark
from .bounds import (
    CONSTANT_FORMULAS,
    DesignInputs,
    SigmaInfeasibleError,
    certify,
    min_prediction_horizon,
)
from .dos import (
    DoSClassParams,
    DoSSignal,
    GeneratorSpec,
    InfeasibleDoSClassError,
    check_gap_bound,
    dos_measure,
    fit_class_params,
    generate,
    signal_from_dict,
    signal_to_dict,
    transitions_count,
)
from .linalg import LyapunovSolveError, StabilityCertificationError
from .plant import LtiPlant
from .simulation import (
    MODES,
    NoiseSpec,
    SimConfig,
    _check_noise_map,
    check_envelope,
    compute_metrics,
    metrics_to_dict,
    simulate,
    trace_to_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_UNSTABLE = 3

CONFIG_FORMAT_VERSION = 1


class ConfigError(ValueError):
    """Config problem, annotated with the offending field path."""


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _checked(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError reported as a config error."""
    try:
        return build(*args, **kwargs)
    except StabilityCertificationError:
        raise  # a verdict on the design, not a config error
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


# The readers of a field: each takes the JSON value and its path, and
# returns the value to keep or raises ConfigError naming the path.

def _number(value, path: str) -> float:
    """A finite JSON number, not a bool."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max:
            return float(value)
    raise ConfigError(f"{path}: expected a finite number, got {value!r}")


def _positive(value, path: str) -> float:
    """A finite JSON number > 0."""
    number = _number(value, path)
    if number > 0.0:
        return number
    raise ConfigError(f"{path}: expected a number > 0, got {value!r}")


def _integer(value, path: str, least: int = 0) -> int:
    """An integral JSON number >= least, such as 5 or 5.0: a seed by default."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if least <= value <= sys.float_info.max and float(value).is_integer():
            return int(value)
    raise ConfigError(f"{path}: expected an integer >= {least}, got {value!r}")


_count = functools.partial(_integer, least=1)  # b, h, substeps and mu


def _matrix(value, path: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: not a numeric matrix ({exc})")
    if arr.ndim != 2:
        raise ConfigError(f"{path}: expected a 2-D array, got {arr.ndim}-D")
    for i, row in enumerate(value):  # numpy would read "1" and true as numbers
        _numbers(row, f"{path}[{i}]")
    return arr


def _numbers(value, path: str, n: int | None = None) -> tuple[float, ...]:
    """A JSON list of finite numbers, n of them when n is given."""
    if not isinstance(value, list) or n not in (None, len(value)):
        count = "" if n is None else f"{n} "
        raise ConfigError(f"{path}: expected a list of {count}numbers, got {value!r}")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _mode(value, path: str) -> str:
    if value not in MODES:
        raise ConfigError(f"{path}: expected one of {MODES}, got {value!r}")
    return value


def _file(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a file path, got {value!r}")
    return value


def _raw(value, path: str):
    """Kept as given: ``dos.signal`` is read only where ``sim`` builds it."""
    return value


def _format(value, path: str) -> int:
    if isinstance(value, bool) or value != CONFIG_FORMAT_VERSION:
        raise ConfigError(
            f"{path}: expected config version {CONFIG_FORMAT_VERSION}, "
            f"got {value!r} (unsupported)"
        )
    return value


_REQUIRED = object()  # the key must be given
_OPTIONAL = object()  # a section that, absent or null, reads as its defaults


class _Section(dict):
    """A JSON object's fields: name -> (reader, default).

    A default is a value, _REQUIRED or, for a section, _OPTIONAL; a None
    default reads null as absent too.  A section is itself a reader, so
    one table describes the whole document, and any other key is refused.
    """

    def __call__(self, data, path: str) -> dict:
        if not isinstance(data, dict):
            raise ConfigError(
                f"{path or 'top level'}: expected a JSON object, "
                f"got {type(data).__name__}"
            )
        prefix = f"{path}." if path else ""
        for key in data:
            if key not in self:
                raise ConfigError(f"{prefix}{key}: unknown field")
        values = {}
        for key, (reader, default) in self.items():
            name = prefix + key
            value = data.get(key)
            if key not in data or (value is None and default in (None, _OPTIONAL)):
                if default is _REQUIRED:
                    raise ConfigError(f"{name}: missing required field")
                values[key] = reader({}, name) if default is _OPTIONAL else default
            else:
                values[key] = reader(value, name)
        return values


# Every field of a config document, also listed in the README.  Range rules
# stay with the constructors and rules the values feed, but for
# divergence_threshold: only compute_metrics reads it, once the run is over.
SCHEMA = _Section(
    format=(_format, CONFIG_FORMAT_VERSION),
    plant=(_Section(A=(_matrix, _REQUIRED), B=(_matrix, _REQUIRED)), _REQUIRED),
    controller=(_Section(
        K=(_matrix, _REQUIRED), M=(_matrix, None), sigma_fraction=(_number, 0.5),
    ), _REQUIRED),
    network=(_Section(delta_big=(_number, _REQUIRED), b=(_count, 1)), _REQUIRED),
    buffer=(_Section(h=(_count, 1), T_c=(_number, 0.0)), _OPTIONAL),
    dos=(_Section(
        signal=(_raw, None),
        generator=(_Section(
            seed=(_integer, _REQUIRED),
            off_range=(functools.partial(_numbers, n=2), GeneratorSpec.off_range),
            on_range=(functools.partial(_numbers, n=2), GeneratorSpec.on_range),
        ), None),
        file=(_file, None),
    ), None),
    dos_class=(_Section(
        eta=(_number, _REQUIRED), tau_D=(_number, _REQUIRED),
        kappa=(_number, _REQUIRED), T=(_number, _REQUIRED), mu=(_count, 1),
    ), None),
    noise=(_Section(
        d_bound=(_number, 0.0), n_bound=(_number, 0.0),
        seed=(_integer, 0), decay_at=(_number, None),
    ), _OPTIONAL),
    sim=(_Section(
        horizon=(_number, _REQUIRED), substeps=(_count, 10), x0=(_numbers, None),
        mode=(_mode, "remote"), divergence_threshold=(_positive, None),
    ), _REQUIRED),
)


class ExperimentConfig:
    """Validated experiment description parsed from one JSON document.

    ``run`` is the run's timing, a SimConfig built from ``network``,
    ``buffer`` and the timing fields of ``sim``; the fields of
    ``controller`` and the rest of ``sim`` are attributes under their own
    names.
    """

    def __init__(self, data: dict, base_dir=None):
        cfg = SCHEMA(data, "")
        self.plant = _checked("plant", LtiPlant, **cfg["plant"])
        vars(self).update(cfg["controller"])
        sim = cfg["sim"]
        self.run = _checked("sim", SimConfig, **cfg["network"], **cfg["buffer"],
                            horizon=sim["horizon"], substeps=sim["substeps"],
                            mode=sim["mode"])
        _checked("sim.substeps", _check_noise_map, self.plant.n, sim["substeps"])
        self.divergence_threshold = sim["divergence_threshold"]
        self.x0 = sim["x0"]
        if self.x0 is None:
            alt = np.array([(-1.0) ** i for i in range(self.plant.n)])
            self.x0 = alt / np.linalg.norm(alt)
        else:
            self.x0 = np.array(_numbers(list(self.x0), "sim.x0", self.plant.n))
        self.noise = _checked("noise", NoiseSpec, **cfg["noise"])

        cls = cfg["dos_class"]
        self.mu = 1 if cls is None else cls.pop("mu")
        self.dos_class = cls and _checked("dos_class", DoSClassParams, **cls)
        dos = self._dos = cfg["dos"]
        if dos is not None and sum(value is not None for value in dos.values()) != 1:
            raise ConfigError("dos: expected exactly one of signal, generator, file")
        gen = dos and dos["generator"]
        if gen is not None:
            seed = gen.pop("seed")
            dos["generator"] = seed, _checked("dos.generator", GeneratorSpec, **gen)
        self._base_dir = base_dir

    @functools.cached_property
    def dos_signal(self) -> DoSSignal:
        """The DoS signal, built on first use: only ``sim`` reads it."""
        dos = self._dos
        if dos is None:
            return DoSSignal(intervals=(), horizon=self.run.horizon)
        if dos["signal"] is not None:
            return _checked("dos.signal", signal_from_dict, dos["signal"])
        if dos["generator"] is not None:
            seed, spec = dos["generator"]
            return _checked("dos.generator", generate, seed, spec, self.run.horizon)
        path = dos["file"]
        if self._base_dir is not None and not os.path.isabs(path):
            path = os.path.join(self._base_dir, path)
        return load_signal_file(path)

    def design_inputs(self) -> DesignInputs:
        return _checked("controller", DesignInputs, self.plant, self.K, self.M,
                        self.sigma_fraction)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply")


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig(_load_json(path), os.path.dirname(os.path.abspath(path)))


def load_signal_file(path) -> DoSSignal:
    return _checked(path, signal_from_dict, _load_json(path))


def _dump(obj, stream=None) -> None:
    """Write obj as JSON; serialized first, so a failure writes nothing."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    (stream or sys.stdout).write(text + "\n")


def _finite(text: str) -> float:
    """The argparse type of the ``dos`` flags: a float, neither inf nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _json_number(value: float) -> float | None:
    """value, or None (JSON null) where JSON has no number for it."""
    return value if math.isfinite(value) else None


def _structured_error(exc) -> dict:
    err: dict = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, InfeasibleDoSClassError):
        err["rate"] = _json_number(exc.rate)
    if isinstance(exc, StabilityCertificationError):
        err["eigenvalue"] = [_json_number(exc.eigenvalue.real),
                             _json_number(exc.eigenvalue.imag)]
    return {"error": err}


def cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    run = cfg.run
    cert = certify(cfg.design_inputs(), run.h, run.delta, run.delta_big,
                   cfg.dos_class, cfg.mu)
    consts, env = cert.constants, cert.envelope
    record = {f.name: getattr(consts, f.name) for f in dataclasses.fields(consts)}
    record.update({
        "format": CONFIG_FORMAT_VERSION,
        "P": consts.P.tolist(),
        "sigma_supremum": consts.gamma1 / consts.gamma2,
        "delta_max": cert.delta_max,
        "Q": cert.Q,
        "h_min": cert.h_min,
        "gap_rhs": cert.gap_rhs,
        "beta": env and env.beta,
        "lambda": env and env.lam,
        "L": env and env.L,
        "h_delta": run.h * run.delta,
        "warnings": [reason for _, reason in cert.skipped],
        "formulas": CONSTANT_FORMULAS,
    })
    _dump(record)
    return EXIT_OK


def cmd_dos_gen(args) -> int:
    spec = GeneratorSpec(
        off_range=(args.off_lo, args.off_hi), on_range=(args.on_lo, args.on_hi)
    )
    sig = generate(args.seed, spec, args.horizon)
    payload = {"format": CONFIG_FORMAT_VERSION, **signal_to_dict(sig)}
    if args.output:
        with open(args.output, "w") as fh:
            _dump(payload, fh)
    else:
        _dump(payload)
    return EXIT_OK


def cmd_dos_verify(args) -> int:
    sig = load_signal_file(args.signal)
    eta_min, kappa_min = fit_class_params(sig, args.tau_d, args.big_t)
    rate = 1.0 / args.big_t + args.delta_big / args.tau_d
    if not math.isfinite(rate):
        raise ValueError(
            f"--delta-big / --tau-d must be finite, got {args.delta_big} / {args.tau_d}"
        )
    out = {
        "format": CONFIG_FORMAT_VERSION,
        "horizon": sig.horizon,
        "eta_min": eta_min,
        "kappa_min": kappa_min,
        "tau_D": args.tau_d,
        "T": args.big_t,
        "rate": rate,
        "n_transitions": transitions_count(sig, 0.0, sig.horizon),
        "dos_time": dos_measure(sig, 0.0, sig.horizon),
        "gap_check": None,
    }
    params = DoSClassParams(
        eta=eta_min, tau_D=args.tau_d, kappa=kappa_min, T=args.big_t
    )
    try:
        verdict = check_gap_bound(sig, args.delta_big, params, sig.horizon)
    except InfeasibleDoSClassError as exc:
        out.update(_structured_error(exc))
        _dump(out)
        return EXIT_INFEASIBLE
    out["gap_check"] = {
        "z0": verdict.z0,
        "max_gap": verdict.max_gap,
        "Q": verdict.gap_bound,
        "Q_plus_delta": verdict.gap_bound_plus_delta,
        "z0_ok": verdict.z0_ok,
        "max_gap_ok": verdict.max_gap_ok,
    }
    _dump(out)
    return EXIT_OK


def _check_output_path(path) -> None:
    """Raise the OSError that writing ``path`` would, for a missing directory
    or a path that is one.

    Checked before simulating, so a bad path does not cost a whole run.
    """
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def cmd_sim(args) -> int:
    cfg = load_config(args.config)
    # --h and --mode change a valid run, under the same checks
    flags = {"h": args.h, "mode": args.mode}
    run = dataclasses.replace(
        cfg.run, **{name: value for name, value in flags.items() if value is not None}
    )
    noise = cfg.noise
    if args.seed is not None:
        noise = dataclasses.replace(noise, seed=args.seed)

    for path in (args.trace, args.metrics):
        if path:
            _check_output_path(path)

    # the envelope is certified for remote runs alone
    dos_class = None if run.mode == "colocated" else cfg.dos_class
    try:
        inputs = cfg.design_inputs()
        cert = certify(inputs, run.h, run.delta, run.delta_big, dos_class, cfg.mu)
    except InfeasibleDoSClassError:  # the loop still runs, with no envelope
        cert = certify(inputs, run.h, run.delta, run.delta_big)
    except (StabilityCertificationError, SigmaInfeasibleError, LyapunovSolveError):
        cert = None  # the loop can still be simulated; V falls back to ||x||^2

    trace = simulate(
        cfg.plant,
        cfg.K,
        run,
        cfg.dos_signal,
        noise,
        cfg.x0,
        P=None if cert is None else cert.constants.P,
    )
    envelope_ok = None
    # with no successful transmission there is nothing to check
    if cert is not None and cert.envelope is not None and len(trace.z):
        w_inf = math.sqrt(cfg.plant.n * (noise.d_bound**2 + noise.n_bound**2))
        envelope_ok = check_envelope(trace, cert.envelope, cert.constants, w_inf)
    metrics = compute_metrics(
        trace,
        divergence_threshold=cfg.divergence_threshold,
        envelope_ok=envelope_ok,
    )
    if args.trace:
        trace_to_csv(trace, args.trace)
    payload = metrics_to_dict(metrics)
    if args.metrics:
        with open(args.metrics, "w") as fh:
            _dump(payload, fh)
    _dump(payload)
    return EXIT_OK if metrics.stable_verdict else EXIT_UNSTABLE


def cmd_repro(args) -> int:
    failed = False

    def flag(ok: bool) -> str:
        nonlocal failed
        failed |= not ok
        return "PASS" if ok else "FAIL"

    cert = certify(benchmark.design(), 5, benchmark.DELTA, benchmark.DELTA_BIG,
                   benchmark.REFERENCE_CLASS)
    consts = cert.constants
    # Minimal-buffer regression with the reference rates fed in directly.
    pinned = dataclasses.replace(
        consts,
        omega1=benchmark.REFERENCE_RATES["omega1"],
        omega2=benchmark.REFERENCE_RATES["omega2"],
    )
    h_min = min_prediction_horizon(pinned, cert.Q, benchmark.DELTA_BIG, benchmark.DELTA)
    # (name, computed, reference, tolerance).  The two reference rates are
    # informational: not jointly reproducible from the formula chain for any
    # single sigma, so they have no tolerance and never fail.
    rows = [(name, getattr(consts, name), ref, benchmark.CONSTANTS_TOL)
            for name, ref in benchmark.REFERENCE_CONSTANTS.items()]
    rows.append(("delta_max", cert.delta_max, benchmark.REFERENCE_DELTA_MAX,
                 benchmark.DELTA_MAX_TOL))
    rows += [(name, getattr(consts, name), ref, None)
             for name, ref in benchmark.REFERENCE_RATES.items()]
    rows.append(("h_min", h_min, benchmark.REFERENCE_MIN_BUFFER, 0))

    print("constants comparison")
    print(f"{'name':<10} {'computed':>12} {'reference':>12} {'|diff|':>10}  flag")
    for name, val, ref, tol in rows:
        diff = abs(val - ref)
        verdict = "INFO" if tol is None else flag(diff <= tol)
        print(f"{name:<10} {val:>12.6g} {ref:>12.6g} {diff:>10.3g}  {verdict}")

    sig = benchmark.dos_signal()
    stats = {
        "n_transitions": transitions_count(sig, 0.0, benchmark.HORIZON),
        "dos_time": dos_measure(sig, 0.0, benchmark.HORIZON),
    }
    tau_d = benchmark.HORIZON / stats["n_transitions"]
    t_avg = benchmark.HORIZON / stats["dos_time"]
    stats["rate"] = 1.0 / t_avg + benchmark.DELTA_BIG / tau_d
    stats["eta_min"], stats["kappa_min"] = fit_class_params(sig, tau_d, t_avg)

    print("\ncommitted interference signal (seed {})".format(benchmark.DOS_SEED))
    for key in ("n_transitions", "dos_time", "rate", "eta_min", "kappa_min"):
        ref = benchmark.REALIZED[key]
        ok = abs(stats[key] - ref) <= 1e-9 * max(1.0, abs(ref))
        print(f"{key:<16} {stats[key]:>14.8g} (frozen {ref:.8g})  {flag(ok)}")

    print("\nscenario verdicts")
    for name, mode, h in benchmark.SCENARIOS:
        trace = simulate(
            benchmark.plant(),
            benchmark.K,
            benchmark.scenario_config(mode, h),
            sig,
            benchmark.NOISE,
            benchmark.X0,
            P=consts.P,
        )
        metrics = compute_metrics(trace)
        expected = benchmark.EXPECTED_STABLE[name]
        ok = metrics.stable_verdict == expected
        print(
            f"{name:<12} stable={str(metrics.stable_verdict):<5} "
            f"expected={str(expected):<5} max||x||={metrics.max_state_norm:<10.4g} "
            f"failures={metrics.failure_fraction:.3f}  {flag(ok)}"
        )
        if name == "remote_h1":
            ff = metrics.failure_fraction
            ref = benchmark.REALIZED["failure_fraction"]
            ok = abs(ff - ref) <= 1e-12
            print(f"  failure_fraction {ff:.8g} (frozen {ref:.8g})  {flag(ok)}")

    print("\noverall:", "FAIL" if failed else "PASS")
    return EXIT_UNSTABLE if failed else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared after."""
    parser = _Parser(
        prog="doscontrol",
        description="Certify and simulate control loops under denial-of-service",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="derive the stability constants")
    p_bounds.add_argument("config", help="experiment JSON file")
    p_bounds.set_defaults(func=cmd_bounds)

    p_dos = sub.add_parser("dos", help="generate or verify DoS signals")
    dos_sub = p_dos.add_subparsers(dest="dos_command", required=True)

    p_gen = dos_sub.add_parser("gen", help="generate a random signal")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--horizon", type=_finite, required=True)
    p_gen.add_argument("--off-lo", type=_finite, default=GeneratorSpec().off_range[0])
    p_gen.add_argument("--off-hi", type=_finite, default=GeneratorSpec().off_range[1])
    p_gen.add_argument("--on-lo", type=_finite, default=GeneratorSpec().on_range[0])
    p_gen.add_argument("--on-hi", type=_finite, default=GeneratorSpec().on_range[1])
    p_gen.add_argument("-o", "--output", help="write to this file instead of stdout")
    p_gen.set_defaults(func=cmd_dos_gen)

    p_ver = dos_sub.add_parser("verify", help="fit and audit a signal file")
    p_ver.add_argument("signal", help="signal JSON file")
    p_ver.add_argument("--tau-d", type=_finite, required=True, dest="tau_d")
    p_ver.add_argument("--big-t", type=_finite, required=True, dest="big_t")
    p_ver.add_argument("--delta-big", type=_finite, required=True, dest="delta_big")
    p_ver.set_defaults(func=cmd_dos_verify)

    p_sim = sub.add_parser("sim", help="run one closed-loop simulation")
    p_sim.add_argument("config", help="experiment JSON file")
    p_sim.add_argument("--trace", help="write the trace CSV here")
    p_sim.add_argument("--metrics", help="write the metrics JSON here")
    p_sim.add_argument("--h", type=int, default=None, help="override buffer length")
    p_sim.add_argument("--seed", type=int, default=None, help="override noise seed")
    p_sim.add_argument("--mode", default=None, help="override architecture mode")
    p_sim.set_defaults(func=cmd_sim)

    p_repro = sub.add_parser(
        "repro", help="reproduce the bundled benchmark end to end"
    )
    p_repro.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        InfeasibleDoSClassError,
        SigmaInfeasibleError,
        StabilityCertificationError,
        LyapunovSolveError,
    ) as exc:
        _dump(_structured_error(exc))
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
