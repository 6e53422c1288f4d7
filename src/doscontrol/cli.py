"""Command-line front end.

One experiment is one JSON config document; flags only carry file paths and
a few overrides.  Exit codes are part of the contract: 0 success (and, for
``sim``, a stable verdict), 1 usage/config/I-O problems, 2 infeasible
design or DoS class, 3 unstable verdict.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    HorizonTooShortError,
    SigmaInfeasibleError,
    decay_envelope,
    derive_constants,
    max_sampling_period,
    min_prediction_horizon,
    tolerable_dos_bound,
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
    success_gap_bound,
    transitions_count,
)
from .linalg import StabilityCertificationError
from .plant import LtiPlant
from .simulation import (
    NoiseSpec,
    SimConfig,
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


def _ctx(data: dict, key: str, path: str, required: bool = True, default=None):
    if key not in data:
        if required:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    return data[key]


def _section(data: dict, key: str, path: str, required: bool = True) -> dict | None:
    """The JSON object under key; None when an optional one is absent or null."""
    value = _ctx(data, key, path, required)
    if value is None and not required:
        return None
    if not isinstance(value, dict):
        name = f"{path}.{key}" if path else key
        raise ConfigError(f"{name}: expected a JSON object, got {type(value).__name__}")
    return value


_REQUIRED = object()


def _number(data: dict, key: str, path: str, default=_REQUIRED) -> float | None:
    """The finite JSON number (not a bool) under key, or default when absent.

    A None default makes the field optional: absent or null reads as None.
    """
    value = _ctx(data, key, path, default is _REQUIRED, default)
    if value is None and default is None:
        return None
    return _finite(value, f"{path}.{key}")


def _finite(value, name: str) -> float:
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    ):
        return float(value)
    raise ConfigError(f"{name}: expected a finite number, got {value!r}")


def _vector(value, n: int, name: str) -> np.ndarray:
    """A JSON list of n finite numbers."""
    if not (isinstance(value, list) and len(value) == n):
        raise ConfigError(f"{name}: expected a list of {n} numbers, got {value!r}")
    return np.array([_finite(v, f"{name}[{i}]") for i, v in enumerate(value)])


def _integer(data: dict, key: str, path: str, default=_REQUIRED) -> int:
    """The JSON integer under key (an integral float such as 5.0 counts)."""
    value = _ctx(data, key, path, default is _REQUIRED, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")


def _matrix(value, path: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not a numeric matrix ({exc})")
    if arr.ndim != 2:
        raise ConfigError(f"{path}: expected a 2-D array, got {arr.ndim}-D")
    return arr


class ExperimentConfig:
    """Validated experiment description parsed from one JSON document."""

    def __init__(self, data: dict, base_dir=None):
        if not isinstance(data, dict):
            raise ConfigError("top level: expected a JSON object")
        fmt = data.get("format", CONFIG_FORMAT_VERSION)
        if fmt != CONFIG_FORMAT_VERSION:
            raise ConfigError(
                f"format: unsupported config version {fmt!r} "
                f"(this build reads version {CONFIG_FORMAT_VERSION})"
            )
        plant_obj = _section(data, "plant", "")
        ctrl_obj = _section(data, "controller", "")
        net_obj = _section(data, "network", "")
        sim_obj = _section(data, "sim", "")
        buf_obj = _section(data, "buffer", "", required=False) or {}
        noise_obj = _section(data, "noise", "", required=False) or {}
        cls_obj = _section(data, "dos_class", "", required=False)

        try:
            self.plant = LtiPlant(
                A=_matrix(_ctx(plant_obj, "A", "plant"), "plant.A"),
                B=_matrix(_ctx(plant_obj, "B", "plant"), "plant.B"),
            )
        except ValueError as exc:
            raise ConfigError(f"plant: {exc}")
        self.K = _matrix(_ctx(ctrl_obj, "K", "controller"), "controller.K")
        m_val = ctrl_obj.get("M")
        self.M = None if m_val is None else _matrix(m_val, "controller.M")
        self.sigma_fraction = _number(ctrl_obj, "sigma_fraction", "controller", 0.5)

        self.delta_big = _number(net_obj, "delta_big", "network")
        self.b = _integer(net_obj, "b", "network", 1)
        if self.b < 1:
            raise ConfigError(f"network.b: expected an integer >= 1, got {self.b}")
        self.h = _integer(buf_obj, "h", "buffer", 1)
        self.T_c = _number(buf_obj, "T_c", "buffer", 0.0)

        self.horizon = _number(sim_obj, "horizon", "sim")
        self.substeps = _integer(sim_obj, "substeps", "sim", 10)
        self.mode = sim_obj.get("mode", "remote")
        x0_val = sim_obj.get("x0")
        if x0_val is None:
            alt = np.array([(-1.0) ** i for i in range(self.plant.n)])
            self.x0 = alt / np.linalg.norm(alt)
        else:
            self.x0 = _vector(x0_val, self.plant.n, "sim.x0")
        self.divergence_threshold = _number(
            sim_obj, "divergence_threshold", "sim", None
        )

        noise = {
            "d_bound": _number(noise_obj, "d_bound", "noise", 0.0),
            "n_bound": _number(noise_obj, "n_bound", "noise", 0.0),
            "seed": _integer(noise_obj, "seed", "noise", 0),
            "decay_at": _number(noise_obj, "decay_at", "noise", None),
        }
        try:
            self.noise = NoiseSpec(**noise)
        except ValueError as exc:
            raise ConfigError(f"noise: {exc}")

        self._dos_obj = _section(data, "dos", "", required=False)
        self._base_dir = base_dir
        self.dos_class = self._parse_class(cls_obj)
        self.mu = 1 if cls_obj is None else _integer(cls_obj, "mu", "dos_class", 1)

    @functools.cached_property
    def dos_signal(self) -> DoSSignal:
        """The DoS signal, parsed on first use: only ``sim`` reads it."""
        dos_obj = self._dos_obj
        if dos_obj is None:
            return DoSSignal(intervals=(), horizon=self.horizon)
        if "signal" in dos_obj:
            try:
                return signal_from_dict(dos_obj["signal"])
            except ValueError as exc:
                raise ConfigError(f"dos.signal: {exc}")
        if "generator" in dos_obj:
            gen = _section(dos_obj, "generator", "dos")
            seed = _integer(gen, "seed", "dos.generator")
            ranges = {}
            for key in ("off_range", "on_range"):
                pair = gen.get(key, getattr(GeneratorSpec(), key))
                path = f"dos.generator.{key}"
                if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                    raise ConfigError(f"{path}: expected [lo, hi], got {pair!r}")
                lo_hi = dict(zip(("lo", "hi"), pair))
                ranges[key] = (_number(lo_hi, "lo", path), _number(lo_hi, "hi", path))
            try:
                return generate(seed, GeneratorSpec(**ranges), self.horizon)
            except ValueError as exc:
                raise ConfigError(f"dos.generator: {exc}")
        if "file" in dos_obj:
            path = dos_obj["file"]
            if not isinstance(path, str):
                raise ConfigError(f"dos.file: expected a file path, got {path!r}")
            if self._base_dir is not None and not os.path.isabs(path):
                path = os.path.join(self._base_dir, path)
            return load_signal_file(path)
        raise ConfigError("dos: expected one of 'signal', 'generator', 'file'")

    def _parse_class(self, cls_obj) -> DoSClassParams | None:
        if cls_obj is None:
            return None
        values = {
            key: _number(cls_obj, key, "dos_class")
            for key in ("eta", "tau_D", "kappa", "T")
        }
        try:
            return DoSClassParams(**values)
        except ValueError as exc:
            raise ConfigError(f"dos_class: {exc}")

    def sim_config(self) -> SimConfig:
        return SimConfig(
            delta_big=self.delta_big,
            horizon=self.horizon,
            b=self.b,
            h=self.h,
            substeps=self.substeps,
            mode=self.mode,
            T_c=self.T_c,
        )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    return ExperimentConfig(data, base_dir=os.path.dirname(os.path.abspath(path)))


def load_signal_file(path) -> DoSSignal:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    try:
        return signal_from_dict(data)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def _dump(obj, stream=None) -> None:
    json.dump(obj, stream or sys.stdout, indent=2, sort_keys=True)
    (stream or sys.stdout).write("\n")


def _structured_error(exc) -> dict:
    err: dict = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, InfeasibleDoSClassError):
        err["rate"] = exc.rate
    if isinstance(exc, StabilityCertificationError):
        err["eigenvalue"] = [exc.eigenvalue.real, exc.eigenvalue.imag]
    return {"error": err}


def cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    inputs = DesignInputs(
        plant=cfg.plant, K=cfg.K, M=cfg.M, sigma_fraction=cfg.sigma_fraction
    )
    delta = cfg.delta_big / cfg.b
    consts = derive_constants(inputs, cfg.h, delta)
    sigma_sup = consts.gamma1 / consts.gamma2
    record = {f.name: getattr(consts, f.name) for f in dataclasses.fields(consts)}
    record.update({
        "format": CONFIG_FORMAT_VERSION,
        "P": consts.P.tolist(),
        "sigma_supremum": sigma_sup,
        # reported at the supremum sigma, where the bound is largest
        "delta_max": max_sampling_period(consts.mu_A, sigma_sup, consts.norm_Phi),
        "Q": None,
        "h_min": None,
        "gap_rhs": None,
        "beta": None,
        "lambda": None,
        "L": None,
        "h_delta": cfg.h * delta,
        "warnings": [],
        "formulas": CONSTANT_FORMULAS,
    })
    if cfg.dos_class is not None:
        q = success_gap_bound(cfg.dos_class, cfg.delta_big, cfg.mu)
        record["Q"] = q
        record["h_min"] = min_prediction_horizon(consts, q, cfg.delta_big, delta)
        try:
            record["gap_rhs"] = tolerable_dos_bound(
                consts, cfg.h, delta, cfg.delta_big,
                cfg.dos_class.kappa, cfg.dos_class.eta,
            )
        except HorizonTooShortError as exc:
            record["warnings"].append(str(exc))
        try:
            env = decay_envelope(consts, q, cfg.delta_big, cfg.h, delta)
            record["beta"] = env.beta
            record["lambda"] = env.lam
            record["L"] = env.L
        except HorizonTooShortError as exc:
            record["warnings"].append(str(exc))
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


def cmd_sim(args) -> int:
    cfg = load_config(args.config)
    if args.h is not None:
        cfg.h = args.h
    if args.seed is not None:
        cfg.noise = NoiseSpec(
            d_bound=cfg.noise.d_bound,
            n_bound=cfg.noise.n_bound,
            seed=args.seed,
            decay_at=cfg.noise.decay_at,
        )
    if args.mode is not None:
        cfg.mode = args.mode

    consts = None
    try:
        inputs = DesignInputs(
            plant=cfg.plant, K=cfg.K, M=cfg.M, sigma_fraction=cfg.sigma_fraction
        )
        consts = derive_constants(inputs, cfg.h, cfg.delta_big / cfg.b)
    except (StabilityCertificationError, SigmaInfeasibleError):
        pass  # the loop can still be simulated; V falls back to ||x||^2

    trace = simulate(
        cfg.plant,
        cfg.K,
        cfg.sim_config(),
        cfg.dos_signal,
        cfg.noise,
        cfg.x0,
        P=None if consts is None else consts.P,
    )
    envelope_ok = None
    if consts is not None and cfg.dos_class is not None and cfg.mode != "colocated":
        try:
            q = success_gap_bound(cfg.dos_class, cfg.delta_big, cfg.mu)
            env = decay_envelope(
                consts, q, cfg.delta_big, cfg.h, cfg.delta_big / cfg.b
            )
            w_inf = math.sqrt(
                cfg.plant.n * (cfg.noise.d_bound**2 + cfg.noise.n_bound**2)
            )
            envelope_ok = check_envelope(trace, env, consts, w_inf)
        except (InfeasibleDoSClassError, HorizonTooShortError, ValueError):
            envelope_ok = None
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
    rows = []
    failed = False

    inputs = benchmark.design()
    consts = derive_constants(inputs, h=5, delta=benchmark.DELTA)
    sigma_sup = consts.gamma1 / consts.gamma2
    for name, ref in benchmark.REFERENCE_CONSTANTS.items():
        val = getattr(consts, name)
        diff = abs(val - ref)
        ok = diff <= benchmark.CONSTANTS_TOL
        failed |= not ok
        rows.append((name, val, ref, diff, "PASS" if ok else "FAIL"))

    dmax = max_sampling_period(consts.mu_A, sigma_sup, consts.norm_Phi)
    diff = abs(dmax - benchmark.REFERENCE_DELTA_MAX)
    ok = diff <= benchmark.DELTA_MAX_TOL
    failed |= not ok
    rows.append(
        ("delta_max", dmax, benchmark.REFERENCE_DELTA_MAX, diff, "PASS" if ok else "FAIL")
    )

    # The two reference rates are informational: not jointly reproducible
    # from the formula chain for any single sigma, so they never fail.
    for name, ref in benchmark.REFERENCE_RATES.items():
        val = getattr(consts, name)
        rows.append((name, val, ref, abs(val - ref), "INFO"))

    # Minimal-buffer regression with the reference rates fed in directly.
    pinned = dataclasses.replace(
        consts,
        omega1=benchmark.REFERENCE_RATES["omega1"],
        omega2=benchmark.REFERENCE_RATES["omega2"],
    )
    q = success_gap_bound(benchmark.REFERENCE_CLASS, benchmark.DELTA_BIG)
    h_min = min_prediction_horizon(pinned, q, benchmark.DELTA_BIG, benchmark.DELTA)
    ref = benchmark.REFERENCE_MIN_BUFFER
    ok = h_min == ref
    failed |= not ok
    rows.append(("h_min", h_min, ref, abs(h_min - ref), "PASS" if ok else "FAIL"))

    print("constants comparison")
    print(f"{'name':<10} {'computed':>12} {'reference':>12} {'|diff|':>10}  flag")
    for name, val, ref, diff, flag in rows:
        print(f"{name:<10} {val:>12.6g} {ref:>12.6g} {diff:>10.3g}  {flag}")

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
        failed |= not ok
        print(f"{key:<16} {stats[key]:>14.8g} (frozen {ref:.8g})  "
              f"{'PASS' if ok else 'FAIL'}")

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
        failed |= not ok
        print(
            f"{name:<12} stable={str(metrics.stable_verdict):<5} "
            f"expected={str(expected):<5} max||x||={metrics.max_state_norm:<10.4g} "
            f"failures={metrics.failure_fraction:.3f}  {'PASS' if ok else 'FAIL'}"
        )
        if name == "remote_h1":
            ff = metrics.failure_fraction
            ref = benchmark.REALIZED["failure_fraction"]
            ok = abs(ff - ref) <= 1e-12
            failed |= not ok
            print(f"  failure_fraction {ff:.8g} (frozen {ref:.8g})  "
                  f"{'PASS' if ok else 'FAIL'}")

    print("\noverall:", "FAIL" if failed else "PASS")
    return EXIT_UNSTABLE if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    p_gen.add_argument("--horizon", type=float, required=True)
    p_gen.add_argument("--off-lo", type=float, default=GeneratorSpec().off_range[0])
    p_gen.add_argument("--off-hi", type=float, default=GeneratorSpec().off_range[1])
    p_gen.add_argument("--on-lo", type=float, default=GeneratorSpec().on_range[0])
    p_gen.add_argument("--on-hi", type=float, default=GeneratorSpec().on_range[1])
    p_gen.add_argument("-o", "--output", help="write to this file instead of stdout")
    p_gen.set_defaults(func=cmd_dos_gen)

    p_ver = dos_sub.add_parser("verify", help="fit and audit a signal file")
    p_ver.add_argument("signal", help="signal JSON file")
    p_ver.add_argument("--tau-d", type=float, required=True, dest="tau_d")
    p_ver.add_argument("--big-t", type=float, required=True, dest="big_t")
    p_ver.add_argument("--delta-big", type=float, required=True, dest="delta_big")
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
        HorizonTooShortError,
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
